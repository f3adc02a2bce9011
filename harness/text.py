"""Text and token queries: token statistics and quality scores, vocabulary
and n-gram models, retrieval, chunking and packing, decontamination,
language and direction detection, and the corpus cleanup operators (url
normalization, PII, line filter, domain cap) with their composition."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from org_dharts_dia_tesseract_ray.functions.capping import (
    budget_cap_per_key, domain_cap, domain_sql_expr)
from org_dharts_dia_tesseract_ray.functions.chunking import (
    chunk_documents, chunk_documents_sql)
from org_dharts_dia_tesseract_ray.functions.decontam import (
    build_ngram_blocklist, decontaminate, decontaminate_sql)
from org_dharts_dia_tesseract_ray.functions.heavyhitters import (
    heavy_hitters, heavy_hitters_sql)
from org_dharts_dia_tesseract_ray.functions.linefilter import (
    apply_line_filter, line_filter_sql)
from org_dharts_dia_tesseract_ray.functions.lm_score import (
    bigram_score_sql, build_unigram_model, quality_buckets,
    quality_buckets_sql, score_ngrams, score_unigram)
from org_dharts_dia_tesseract_ray.functions.packing import (
    pack_sequences, pack_sequences_sql)
from org_dharts_dia_tesseract_ray.functions.pii import (
    apply_extract_contacts, apply_redact_pii, extract_contacts_sql, pii_sql)
from org_dharts_dia_tesseract_ray.functions.retrieval import (
    bm25_topk, bm25_topk_sql)
from org_dharts_dia_tesseract_ray.functions.sketch import (
    approx_distinct_tokens)
from org_dharts_dia_tesseract_ray.functions.text_stats import (
    apply_compression_ratio, apply_direction, apply_langid,
    apply_normalize_text, apply_quality, apply_repetition_stats,
    apply_token_stats, direction_sql, langid_sql, normalize_text_sql,
    quality_sql, repetition_stats_sql, token_stats_sql)
from org_dharts_dia_tesseract_ray.functions.urls import (
    apply_normalize_urls, normalize_urls_sql_expr)
from org_dharts_dia_tesseract_ray.functions.vocab import (
    doc_frequency, doc_frequency_sql, tfidf_top_term, tfidf_top_term_sql,
    tokenize_ids, tokenize_ids_sql, vocab_topk, vocab_topk_sql, ws_tokens,
    ws_tokens_sql)
from org_dharts_dia_tesseract_ray.util import (
    _string_hash64, as_array, grouped_arrow_aggregate)

from . import GOLDEN, Query, mapped, read

#: training-sequence length for the packing queries
_SEQ_LEN = 512
#: per-lang token budget for the quota-selection query
_TOKEN_BUDGET = 5000
#: top-V vocabulary for the unigram/bigram scoring queries — smaller than
#: the corpus vocabulary so the OOV path is exercised
_UNIGRAM_V = 20
#: vocabulary size for the tokenize-to-ids query (bigger than _UNIGRAM_V
#: so real id diversity appears, still small enough for OOV)
_TOKENIZE_V = 256
#: benchmark-membership rule for the decontamination query
_BENCH_MOD = 101
_DECONTAM_N = 5
#: leaked eval snippet — appended to benchmark docs AND to the synthetic
#: "leaky" corpus docs (doc_id % _LEAK_MOD == 1) so the query proves
#: cross-document n-gram detection, not just benchmark self-membership
_LEAK_PHRASE = "the quick brown fox jumps over the lazy dog"
_LEAK_MOD = 37
#: BM25 retrieval queries — corpus-vocabulary keyword sets (TESTDATA's
#: synthetic prose); fixed constants shared verbatim with the SQL oracle
_BM25_QUERIES = ["data spark merge", "sort table scan", "query window"]
#: init-language string for the multi-language query — exclusion form
#: (`~de`: load every default profile except German), the tilde semantics
#: of ImageAnalyzerFactory.java:85-104.  German docs must then classify by
#: the remaining profiles or fall to `und` — both sides restrict identically.
_LANGID_INIT = "~de"
#: deterministic RTL payload for the text_direction query (the corpus has
#: no RTL language, so every 7th doc is swapped for Arabic — the same
#: injected-fixture trick url_normalize uses for messy urls)
_RTL_SAMPLE = "مرحبا بالعالم هذا نص عربي "
#: injected PII: (doc_id modulus, text before the id, text after it)
_PII = ((7, " contact user", "@corpus-test.example now"),
        (11, " call +1 (555) 010-", " today"),
        (13, " host 10.0.0.", ""))


def _docs(sf_dir: str, columns=("doc_id", "text")):
    return read(sf_dir, "documents", list(columns))


def _with_lines(b: pa.Table) -> pa.Table:
    """Line structure: periods+newlines at ' table ' occurrences, plus a
    javascript/short-line tail on every 4th doc."""
    text = pc.replace_substring_regex(b["text"], " table ", ".\n")
    did = np.asarray(b["doc_id"], dtype=np.int64)
    text = pc.if_else(
        pa.array(did % 4 == 0),
        pc.binary_join_element_wise(
            text,
            ".\nenable javascript to continue.\nShort.\n"
            "A proper closing sentence appears right here.", ""),
        pc.binary_join_element_wise(text, " ends here.", ""))
    return pa.table({"doc_id": b["doc_id"], "text": text})


#: the SQL twin of ``_with_lines`` over ``documents``
_LINES_SQL = ("""
  SELECT doc_id,
    CASE WHEN doc_id % 4 = 0 THEN t1 || '.' || chr(10)"""
              " || 'enable javascript to continue.' || chr(10)"
              " || 'Short.' || chr(10)"
              """ || 'A proper closing sentence appears right here.'
         ELSE t1 || ' ends here.' END AS text
  FROM (SELECT doc_id,
               regexp_replace(text, ' table ', '.' || chr(10), 'g') AS t1
        FROM documents)""")


def _with_pii(b: pa.Table, rules=_PII) -> pa.Table:
    """Emails, phone numbers and IPv4 addresses appended by doc_id rule
    (the corpus itself is synthetic prose with none)."""
    did = np.asarray(b["doc_id"], dtype=np.int64)
    ids = b["doc_id"].cast(pa.string())
    text = b["text"]
    for mod, before, after in rules:
        text = pc.if_else(
            pa.array(did % mod == 0),
            pc.binary_join_element_wise(text, before, ids, after, ""),
            text)
    return pa.table({"doc_id": b["doc_id"], "text": text})


def _pii_sql(src: str) -> str:
    """The SQL twin of ``_with_pii`` over ``src``."""
    return f"""
  SELECT doc_id,
    CASE WHEN doc_id % 13 = 0 THEN t2 || ' host 10.0.0.' || doc_id
         ELSE t2 END AS text
  FROM (
    SELECT doc_id,
      CASE WHEN doc_id % 11 = 0
           THEN t1 || ' call +1 (555) 010-' || doc_id || ' today'
           ELSE t1 END AS t2
    FROM (
      SELECT doc_id,
        CASE WHEN doc_id % 7 = 0
             THEN text || ' contact user' || doc_id
                       || '@corpus-test.example now'
             ELSE text END AS t1
      FROM {src}))"""


def _n_tokens(text) -> pa.Array:
    return pc.list_value_length(ws_tokens(text)).cast(pa.int64())


def _n_tokens_sql(col: str) -> str:
    return f"CAST(len({ws_tokens_sql(col)}) AS BIGINT)"


def _q_token_stats(sf_dir: str):
    return apply_token_stats(_docs(sf_dir))


def _q_quality(sf_dir: str):
    return apply_quality(_docs(sf_dir))


def _q_quality_buckets(sf_dir: str):
    """CCNet head/middle/tail terciles of the unigram corpus-frequency
    score: sketch-derived thresholds (exact at oracle scale) + broadcast
    bucket assignment over a once-materialized slim (id, score) table."""
    model = build_unigram_model(_docs(sf_dir), vocab_size=_UNIGRAM_V)
    return quality_buckets(score_unigram(_docs(sf_dir), model))


def _q_tokenize_ids(sf_dir: str):
    """Tokenization to id sequences: top-V vocab built by the vocab
    pipeline, broadcast via ray.put, ONE vectorized index_in per batch;
    ids are rank+1, OOV=0.  The id list is CSV-projected for the compare
    frame (list columns don't hash) via vectorized cast + binary_join."""
    model = build_unigram_model(_docs(sf_dir), vocab_size=_TOKENIZE_V)

    def csv(b: pa.Table) -> pa.Table:
        ids_str = pc.cast(b["ids"], pa.list_(pa.string()))
        return pa.table({
            "doc_id": b["doc_id"],
            "n_tokens": b["n_tokens"],
            "n_oov": b["n_oov"],
            "ids_csv": pc.binary_join(ids_str, ","),
        })

    return mapped(tokenize_ids(_docs(sf_dir), model), csv)


def _q_bigram_score(sf_dir: str):
    """Adjacent-bigram corpus-frequency scoring (the KenLM-direction
    generalization of unigram_score): top-V bigram model broadcast,
    integer-exact per-doc sums via the aligned-slice n-gram kernel."""
    model = build_unigram_model(_docs(sf_dir), vocab_size=_UNIGRAM_V,
                                ngram=2)
    return score_ngrams(_docs(sf_dir), model, n=2)


def _q_doc_frequency(sf_dir: str):
    return doc_frequency(_docs(sf_dir))


def _q_tfidf_top_term(sf_dir: str):
    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    return tfidf_top_term(_docs(sf_dir), n)


def _q_vocab_top100(sf_dir: str):
    return vocab_topk(_docs(sf_dir), 100)


def _q_heavy_hitters(sf_dir: str):
    """Top-20 tokens via capacity-bounded Misra-Gries summaries
    (functions/heavyhitters.py); exact (err_bound 0) at oracle scale
    because no batch exceeds the 4096-token capacity."""
    return heavy_hitters(_docs(sf_dir, ["text"]), k=20)


def _q_repetition_stats(sf_dir: str):
    """Gopher-style repetition filters (duplicate-token / top-n-gram mass)
    — the quality axis length/stopword scoring doesn't cover."""
    return apply_repetition_stats(_docs(sf_dir))


def _q_chunk_windows(sf_dir: str):
    """Sliding-window chunking: overlapping 64-token windows at stride 48
    per document — the embedding/RAG sharding step (shuffle-free,
    vectorized flat-gather explode)."""
    return chunk_documents(_docs(sf_dir), window=64, stride=48)


def _q_bm25_topk(sf_dir: str):
    """Okapi BM25 top-k retrieval per query — the sparse ranking baseline
    next to the dense ANN operators (decontamination triage / seed-set
    construction practice)."""
    return bm25_topk(_docs(sf_dir), _BM25_QUERIES, k=10)


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: documents sharing any word n-gram with
    the synthetic benchmark subset (doc_id % _BENCH_MOD == 0) — blocklist
    built once, broadcast via ray.put, vectorized membership per batch."""
    def with_leak(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        leak = (did % _BENCH_MOD == 0) | (did % _LEAK_MOD == 1)
        text = pc.if_else(
            pa.array(leak),
            pc.binary_join_element_wise(b["text"], _LEAK_PHRASE, " "),
            b["text"])
        return pa.table({"doc_id": b["doc_id"], "text": text})

    def bench_only(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        return b.filter(pa.array(did % _BENCH_MOD == 0))

    ds = mapped(_docs(sf_dir), with_leak)
    bl = build_ngram_blocklist(mapped(ds, bench_only), n=_DECONTAM_N)
    return decontaminate(ds, bl, n=_DECONTAM_N)


def _decontaminate_sql() -> str:
    body = decontaminate_sql(f"doc_id % {_BENCH_MOD} = 0", n=_DECONTAM_N,
                             table="m").lstrip()
    assert body.startswith("WITH ")
    return f"""
WITH m AS (
  SELECT doc_id,
         CASE WHEN doc_id % {_BENCH_MOD} = 0 OR doc_id % {_LEAK_MOD} = 1
              THEN text || ' {_LEAK_PHRASE}' ELSE text END AS text
  FROM documents),
{body[len("WITH "):]}"""


def _q_approx_distinct_tokens(sf_dir: str):
    """HLL sketch: ~1.6% error distinct-token counts per lang (rows-only
    check; accuracy vs exact asserted in tests)."""
    return approx_distinct_tokens(_docs(sf_dir, ["lang", "text"]))


def _q_token_budget(sf_dir: str):
    """Per-source token-budget selection: each lang keeps its doc_id-orderd
    prefix until the cumulative whitespace-token count reaches the budget
    — partial-cap combiner, one hash shuffle, vectorized quota pass."""
    def with_tokens(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "lang": b["lang"],
                         "n_tokens": _n_tokens(b["text"])})

    return budget_cap_per_key(
        mapped(_docs(sf_dir, ["doc_id", "lang", "text"]), with_tokens),
        key_col="lang", order_by=[("doc_id", "ascending")],
        weight_col="n_tokens", budget=_TOKEN_BUDGET)


def _token_budget_sql() -> str:
    return f"""
WITH m AS (
  SELECT doc_id, lang, {_n_tokens_sql('text')} AS n_tokens FROM documents)
SELECT doc_id, lang, n_tokens FROM (
  SELECT doc_id, lang, n_tokens,
         SUM(COALESCE(n_tokens, 0)) OVER (PARTITION BY lang ORDER BY doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND CURRENT ROW) AS cum
  FROM m) WHERE cum <= {_TOKEN_BUDGET}"""


def _q_pack_sequences(sf_dir: str):
    """GPT-style sequence packing: every document's token offset in the
    concatenated corpus stream and the fixed-length sequences it spans —
    the distributed-prefix-sum operator (bounds pass → per-bucket totals
    → range shuffle + vectorized offsets)."""
    def with_tokens(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": _n_tokens(b["text"])})

    # slim (doc_id, n_tokens) materialized once — pack_sequences' three
    # passes would re-tokenize the corpus per pass otherwise
    return pack_sequences(mapped(_docs(sf_dir), with_tokens).materialize(),
                          seq_len=_SEQ_LEN)


def _pack_sequences_sql() -> str:
    body = pack_sequences_sql(_SEQ_LEN, table="m")
    return f"""
WITH m AS (
  SELECT doc_id, {_n_tokens_sql('text')} AS n_tokens FROM documents)
{body.lstrip()}"""


def _q_corpus_assembly(sf_dir: str):
    """Flagship corpus-assembly composition — five operators in ONE
    streaming pipeline with END-TO-END oracle parity: deterministic
    line/PII corpus shaping → PII scrub (`functions/pii`) → C4 line
    filter (`functions/linefilter`) → drop failing docs → exact
    cleaned-text dedup keeping the min doc_id → whitespace token counts →
    pack into `_SEQ_LEN`-token training sequences (`functions/packing`).
    Only the dedup groupby and packing's range exchange shuffle; the
    scrub/filter/count stages stream as stateless `map_batches`."""
    def inject(b: pa.Table) -> pa.Table:
        # the line_filter shaping, then the pii_redact appendages, in the
        # order the oracle CTEs apply them
        return _with_pii(_with_lines(b))

    scrubbed = apply_redact_pii(mapped(_docs(sf_dir), inject))
    filtered = apply_line_filter(scrubbed, text_col="redacted")

    def kept_tokens(b: pa.Table) -> pa.Table:
        t = b.filter(b["keep_doc"])        # nulls drop, like SQL WHERE
        # int64 reinterpretation: Ray's hash aggregate rebuilds uint64 key
        # columns via Python ints (>2^63 overflows C long → pickled-object
        # fallback); the signed view is bijective so grouping is identical
        digest = _string_hash64(as_array(t["text_kept"])).view(np.int64)
        return pa.table({
            "digest": pa.array(digest, pa.int64()),
            "doc_id": t["doc_id"],
            "n_tokens": _n_tokens(t["text_kept"]),
        })

    winners = grouped_arrow_aggregate(
        (mapped(filtered, kept_tokens),
         pa.schema([("digest", pa.int64()), ("doc_id", pa.int64()),
                    ("n_tokens", pa.int64())])),
        "digest", [("doc_id", "min", "doc_id"),
                   ("n_tokens", "min", "n_tokens")])

    def pin(b: pa.Table) -> pa.Table:
        return b.select(["doc_id", "n_tokens"])

    # materialize the slim (doc_id, n_tokens) winners: pack_sequences
    # makes three passes over its input, which would otherwise re-execute
    # the whole scrub/filter/dedup pipeline (and its shuffle) three times
    return pack_sequences(mapped(winners, pin).materialize(),
                          seq_len=_SEQ_LEN)


def _corpus_assembly_sql() -> str:
    """The five-stage composition as one CTE chain: shaping → PII scrub →
    line filter → keep+dedup (min doc_id per distinct cleaned text) →
    token counts → sequence packing.  Every stage reuses the same
    module-level SQL the standalone oracles use."""
    scrub = pii_sql(table="m1").lstrip()
    lf = line_filter_sql(table="scrub", text_col="redacted").lstrip()
    pack = pack_sequences_sql(_SEQ_LEN, table="dd").lstrip()
    return f"""
WITH m0 AS ({_LINES_SQL}),
m1 AS ({_pii_sql('m0')}),
scrub AS ({scrub}),
lf AS ({lf}),
dd AS (
  SELECT min(doc_id) AS doc_id, {_n_tokens_sql('text_kept')} AS n_tokens
  FROM lf WHERE keep_doc GROUP BY text_kept)
{pack}"""


def _q_compression_ratio(sf_dir: str):
    """Deflate-compression quality signal (Gopher/CCNet-family filter
    practice): per-document zlib-6 compressed/raw ratio — repetitive or
    templated text compresses far below prose."""
    return apply_compression_ratio(_docs(sf_dir))


def _q_normalize_text(sf_dir: str):
    """Canonical NFC/lowercase/whitespace normalization — the shared
    preprocessor for exact-dedup digests and matching (bit-identical on
    both engines)."""
    return apply_normalize_text(_docs(sf_dir))


def _q_langid(sf_dir: str):
    return apply_langid(_docs(sf_dir))


def _q_langid_multi(sf_dir: str):
    """Multi-language init-string language ID (`lang1+lang2` / `~lang`
    grammar, ImageAnalyzerFactory.java:85-104 + the
    GetLoadedLanguagesAsVector readback, TessAPI.java decl)."""
    return apply_langid(_docs(sf_dir), init_langs=_LANGID_INIT)


def _q_text_direction(sf_dir: str):
    """Writing-direction getter (getOrientation/M13 analogue): strong-RTL
    vs strong-LTR codepoint majority per document."""
    def inject(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        seven = pa.array(did % 7 == 0)
        return pa.table({
            "doc_id": b["doc_id"],
            "text": pc.if_else(seven, pa.scalar(_RTL_SAMPLE * 3), b["text"]),
        })

    return apply_direction(mapped(_docs(sf_dir), inject))


def _q_url_normalize(sf_dir: str):
    """URL canonicalization over a deterministically-messy url column
    (mixed-case scheme/host, default ports, fragments, empty paths) —
    the Common-Crawl url-key step that feeds url dedup."""
    def messy(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        ids = b["doc_id"].cast(pa.string())
        three = pa.array(did % 3 == 0)
        five = pa.array(did % 5 == 0)
        base = pc.if_else(
            five,
            pa.scalar("HTTP://Corpus.Test:80"),
            pc.binary_join_element_wise(
                "HTTPS://Corpus.Test:443/doc/", ids, ""))
        url = pc.if_else(
            three,
            pc.binary_join_element_wise(base, "#frag-", ids, ""),
            base)
        return pa.table({"doc_id": b["doc_id"], "url": url})

    return apply_normalize_urls(mapped(_docs(sf_dir, ["doc_id"]), messy))


def _q_pii_redact(sf_dir: str):
    """PII scrub over documents with deterministically-injected emails,
    phone numbers and IPv4 addresses — stateless vectorized RE2, no
    shuffle."""
    return apply_redact_pii(mapped(_docs(sf_dir), _with_pii))


def _q_extract_contacts(sf_dir: str):
    """Contact extraction (the PII kernels' extract direction): per-doc
    email count + FIRST email over documents with deterministically
    injected addresses (doc_id % 7 rule, same as the redaction query)."""
    def with_email(b: pa.Table) -> pa.Table:
        return _with_pii(b, _PII[:1])

    return apply_extract_contacts(mapped(_docs(sf_dir), with_email))


def _q_line_filter(sf_dir: str):
    """C4 line-level cleanup over documents given deterministic line
    structure — stateless vectorized explode-filter-reassemble, no
    shuffle."""
    return apply_line_filter(mapped(_docs(sf_dir), _with_lines))


def _q_domain_cap(sf_dir: str):
    """Per-domain frequency capping (the C4/Gopher at-most-K-docs-per-host
    selection) over a deterministic multi-domain url column: keep the K
    lowest-doc_id documents of each of 17 synthetic hosts — partial-cap
    combiner, ONE hash-partition shuffle, vectorized rank-per-run reduce."""
    def with_url(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        ids = b["doc_id"].cast(pa.string())
        site = pa.array(did % 17).cast(pa.string())
        url = pc.binary_join_element_wise(
            "https://site", site, ".test/doc/", ids, "")
        return pa.table({"url": url, "doc_id": b["doc_id"],
                         "lang": b["lang"]})

    return domain_cap(mapped(_docs(sf_dir, ["doc_id", "lang"]), with_url),
                      order_by=[("doc_id", "ascending")], k=10)


ROWS = [
    Query("token_stats", _q_token_stats, token_stats_sql()),
    Query("quality_score", _q_quality, quality_sql()),
    Query("quality_buckets", _q_quality_buckets,
          quality_buckets_sql(_UNIGRAM_V)),
    Query("tokenize_ids", _q_tokenize_ids, tokenize_ids_sql(_TOKENIZE_V)),
    Query("bigram_score", _q_bigram_score, bigram_score_sql(_UNIGRAM_V)),
    Query("doc_frequency", _q_doc_frequency, doc_frequency_sql()),
    # N as a subquery: the oracle holds at any scale factor (the Ray side
    # reads N from its own sf_dir)
    Query("tfidf_top_term", _q_tfidf_top_term,
          tfidf_top_term_sql("(SELECT count(*) FROM documents)")),
    Query("vocab_top100", _q_vocab_top100, vocab_topk_sql(100, ngram=1)),
    Query("heavy_hitters", _q_heavy_hitters, heavy_hitters_sql(20)),
    Query("repetition_stats", _q_repetition_stats, repetition_stats_sql()),
    Query("chunk_windows", _q_chunk_windows,
          chunk_documents_sql(window=64, stride=48)),
    Query("bm25_topk", _q_bm25_topk, bm25_topk_sql(_BM25_QUERIES, k=10)),
    Query("decontaminate", _q_decontaminate, _decontaminate_sql()),
    Query("approx_distinct_tokens", _q_approx_distinct_tokens, GOLDEN),
    Query("token_budget", _q_token_budget, _token_budget_sql()),
    Query("pack_sequences", _q_pack_sequences, _pack_sequences_sql()),
    Query("corpus_assembly", _q_corpus_assembly, _corpus_assembly_sql()),
    Query("compression_ratio", _q_compression_ratio, GOLDEN),
    Query("normalize_text", _q_normalize_text, normalize_text_sql()),
    Query("langid", _q_langid, langid_sql()),
    Query("langid_multi", _q_langid_multi,
          langid_sql(init_langs=_LANGID_INIT)),
    Query("text_direction", _q_text_direction, f"""
WITH m AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN repeat('{_RTL_SAMPLE}', 3)
              ELSE text END AS text
  FROM documents)
""" + direction_sql(table="m")),
    Query("url_normalize", _q_url_normalize, f"""
WITH m AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN 'HTTP://Corpus.Test:80'
              ELSE 'HTTPS://Corpus.Test:443/doc/' || doc_id END ||
         CASE WHEN doc_id % 3 = 0 THEN '#frag-' || doc_id ELSE '' END AS url
  FROM documents)
SELECT doc_id, url, {normalize_urls_sql_expr('url')} AS url_norm FROM m"""),
    Query("pii_redact", _q_pii_redact, f"""
WITH m AS ({_pii_sql('documents')})
{pii_sql(table='m').lstrip()}"""),
    Query("extract_contacts", _q_extract_contacts, f"""
WITH m AS (
  SELECT doc_id,
    CASE WHEN doc_id % 7 = 0
         THEN text || ' contact user' || doc_id
                   || '@corpus-test.example now'
         ELSE text END AS text
  FROM documents)
{extract_contacts_sql(table='m').lstrip()}"""),
    Query("line_filter", _q_line_filter, f"""
WITH m AS ({_LINES_SQL})
{line_filter_sql(table='m').lstrip()}"""),
    Query("domain_cap", _q_domain_cap, f"""
WITH pages AS (
  SELECT 'https://site' || (doc_id % 17) || '.test/doc/' || doc_id AS url,
         doc_id, lang FROM documents)
SELECT url, doc_id, lang, domain FROM (
  SELECT url, doc_id, lang, {domain_sql_expr('url')} AS domain,
         row_number() OVER (PARTITION BY {domain_sql_expr('url')}
                            ORDER BY doc_id) AS rn
  FROM pages) WHERE rn <= 10"""),
]
