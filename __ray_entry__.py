"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing here
(or in the library) calls ``ray.init``/``ray.shutdown``.

``queries()`` covers the engine surface from SURVEY.md §2 plus the
training-data operator suite (dedup family, similarity search, text
analysis, multimodal); ``oracle_sql()`` provides DuckDB equivalents for
every SQL-expressible operator — the extraction pipeline itself is
SQL-checked through the deterministic documents→pages wrap
(:mod:`org_dharts_dia_tesseract_ray.pipelines.docs_pipeline`), making the
byte-identical-text gate part of the harness, not just pytest.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)
_prev_pp = os.environ.get("PYTHONPATH")
# no trailing empty entry: "repo:" would put each WORKER's cwd on sys.path
os.environ["PYTHONPATH"] = (_REPO if not _prev_pp
                            else _REPO + os.pathsep + _prev_pp)

import numpy as np          # noqa: E402
import pyarrow as pa        # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

NUM_ANN_QUERIES = 8
ANN_K = 5
COS_THRESHOLD = 0.35
MINHASH_THRESHOLD = 0.5
SIMHASH_MAX_HAMMING = 3
SKEW_K = 10
PRICING_CUTOFF = "1998-09-02"


def _register_by_value():
    """Ship the package by value so Ray workers import it regardless of the
    driver's cwd (the driver may import this module from anywhere, and
    workers spawned by a raylet that never saw the repo on PYTHONPATH
    cannot import it by reference).

    ``register_pickle_by_value`` is NOT recursive — registering only the
    top package still lets a worker-side ``from ..util import …`` die with
    ModuleNotFoundError (measured: driver run from /tmp).  So the whole
    module tree is imported eagerly and every submodule registered.

    Honest limit: by-value shipping re-EXECUTES module code in the worker,
    so a deferred ``from ..x import y`` inside a UDF body still performs a
    real import there.  Full cwd-independence therefore needs the repo on
    the worker's import path — i.e. the driver process runs with
    cwd=/root/repo (as the correctness driver does) or exports PYTHONPATH
    before ``ray.init`` (as bench.py does).  This registration remains the
    best-effort layer for closure-referenced kernels."""
    try:
        import importlib
        import pkgutil
        import sys as _sys

        from ray import cloudpickle as rcp

        import org_dharts_dia_tesseract_ray as pkg
        rcp.register_pickle_by_value(pkg)   # top package first, always
        # onerror=ignore: walk_packages RE-RAISES non-ImportError from a
        # subpackage __init__ otherwise, which would abort registration
        for info in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + ".",
                                          onerror=lambda _n: None):
            try:
                rcp.register_pickle_by_value(
                    importlib.import_module(info.name))
            except Exception:
                pass
        for name, mod in list(_sys.modules.items()):
            if mod is not None and name.startswith(pkg.__name__ + "."):
                try:
                    rcp.register_pickle_by_value(mod)
                except Exception:
                    pass
    except Exception:
        pass


def _read(sf_dir: str, table: str, columns=None):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                 columns=columns)


def _query_matrix(sf_dir: str, nq: int = NUM_ANN_QUERIES):
    t = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, nq)
    ids = np.asarray(t["vec_id"])
    Q = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    return ids, Q


# ---------------------------------------------------------------------------
# flagship


def entry() -> Any:
    """Flagship: sf0.001 documents wrapped as web pages → full extraction
    pipeline (sniff → skew-routed task-pool extract) → extracted table."""
    _register_by_value()
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extracted_view)
    combined = roundtrip_extract("/root/testdata/sf0.001")
    return extracted_view(combined)


# ---------------------------------------------------------------------------
# query implementations (each takes sf_dir, returns Dataset/DataFrame/Table)


def _q_extract_roundtrip(sf_dir: str):
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    combined = roundtrip_extract(sf_dir)
    return combined.select_columns(
        ["url", "extracted_text", "n_blocks", "payload_kind", "charset"])


def _q_checkpoint_resume(sf_dir: str):
    """S4 checkpoint/resume through the driver's oracle (VERDICT r3 #6).

    Writes the wrapped corpus as 4 parquet shards, runs the checkpointed
    pipeline over the first two (simulating a crash partway through the
    shard list), plants a manifest-less PARTIAL partition for shard 2
    (simulating a kill mid-write), then resumes over the full input.  The
    resume must skip both finished partitions wholesale and wipe+redo the
    partial — asserted here, so a resume-semantics regression fails the
    driver row — and the resumed table must equal the clean-run oracle
    (same SQL as ``extract_roundtrip``).  Ref anchor: the
    regression-by-issue testing pattern,
    /root/reference/tests/.../regression/AnalyzerFactoryBugs.java:71-109.
    """
    import shutil
    import tempfile

    import pyarrow.parquet as pq
    import ray.data

    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        wrap_documents_batch)
    from org_dharts_dia_tesseract_ray.state.checkpoint import (
        run_checkpointed)

    tmp = tempfile.mkdtemp(prefix="ckpt_resume_", dir="/tmp")
    try:
        pages = wrap_documents_batch(
            pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text", "lang"]))
        shards_dir = os.path.join(tmp, "shards")
        os.makedirs(shards_dir)
        files = []
        n = pages.num_rows
        cut = [0, n // 4, n // 2, (3 * n) // 4, n]
        for i in range(4):
            f = os.path.join(shards_dir, f"shard-{i}.parquet")
            pq.write_table(pages.slice(cut[i], cut[i + 1] - cut[i]), f)
            files.append(f)

        out = os.path.join(tmp, "out")
        run_checkpointed(files[:2], out, write_spans=False)
        # mid-shard kill: partition dir + data file exist, no manifest
        partial = os.path.join(out, "part=00002")
        os.makedirs(partial)
        with open(os.path.join(partial, "junk.parquet"), "wb") as f:
            f.write(b"not a parquet file")

        r = run_checkpointed(files, out, write_spans=False)
        if sorted(r["skipped"]) != ["part=00000", "part=00001"]:
            raise RuntimeError(f"resume did not skip finished partitions: "
                               f"{r}")
        if sorted(r["done"]) != ["part=00002", "part=00003"]:
            raise RuntimeError(f"resume did not redo partial/missing "
                               f"partitions: {r}")

        out_files = sorted(
            os.path.join(out, p, fn)
            for p in os.listdir(out) if p.startswith("part=")
            for fn in os.listdir(os.path.join(out, p))
            if fn.endswith(".parquet"))
        return ray.data.read_parquet(
            out_files, columns=["url", "extracted_text", "n_blocks",
                                "payload_kind", "charset"]).materialize()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _q_extract_mixed_pdf(sf_dir: str):
    """Sniff-routed mixed corpus: every 10th doc is a PDF payload (every
    20th Flate-compressed) — the S2-upgrade PDF branch, oracle-checked."""
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        pages_from_documents)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages)
    combined = extract_pages(pages_from_documents(sf_dir, "mixed_pdf"))
    return combined.select_columns(
        ["url", "extracted_text", "n_blocks", "payload_kind"])


def _q_extract_spans(sf_dir: str):
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        spans_view)
    spans = spans_view(roundtrip_extract(sf_dir))
    return (spans
            .filter(expr="level == 'block'")
            .select_columns(["url", "node_id", "level", "block_type",
                             "start", "end"]))


def _q_extract_boxes(sf_dir: str):
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    from org_dharts_dia_tesseract_ray.stages.extractor import apply_boxes
    return apply_boxes(roundtrip_extract(sf_dir), level="line")


def _q_extract_metrics(sf_dir: str):
    from ray.data.aggregate import Count, Max, Sum

    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extracted_view)
    ex = extracted_view(roundtrip_extract(sf_dir))

    def chars(b: pa.Table) -> pa.Table:
        return pa.table({
            "lang": b["lang"],
            "text_chars": pc.utf8_length(b["extracted_text"]).cast(pa.int64()),
            "n_blocks": b["n_blocks"].cast(pa.int64()),
        })

    return (ex.map_batches(chars, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("lang")
            .aggregate(Count(alias_name="n_docs"),
                       Sum("text_chars", alias_name="total_chars"),
                       Max("text_chars", alias_name="max_chars"),
                       Sum("n_blocks", alias_name="total_blocks")))


def _mode_query(mode: str):
    """PageSegMode / ROI / char-filter analogue queries (M9/M2/M11)."""
    from org_dharts_dia_tesseract_ray.config import ExtractConfig, Mode

    cfgs = {
        "text_only": ExtractConfig(mode=Mode.TEXT_ONLY),
        "single_block": ExtractConfig(mode=Mode.SINGLE_BLOCK),
        "charfilter_digits": ExtractConfig(char_whitelist="0123456789"),
        "selector_article": ExtractConfig(selector_tag="article"),
    }

    def q(sf_dir: str):
        from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
            roundtrip_extract)
        combined = roundtrip_extract(sf_dir, cfgs[mode])
        return combined.select_columns(
            ["url", "extracted_text", "n_blocks", "payload_kind"])

    return q


def _q_extract_subsup(sf_dir: str):
    """I13 word predicates: the subsup-wrapped corpus yields exactly one
    subscript word (H2O) and one superscript word (mc2) per document."""
    import pyarrow.compute as _pc

    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        pages_from_documents)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages, spans_view)
    spans = spans_view(extract_pages(pages_from_documents(sf_dir,
                                                          "subsup")))

    def flagged(b: pa.Table) -> pa.Table:
        m = _pc.and_(_pc.equal(b["level"], "word"),
                     _pc.or_(b["is_subscript"], b["is_superscript"]))
        t = b.filter(m)
        return t.select(["url", "level", "start", "end",
                         "is_subscript", "is_superscript"])

    return spans.map_batches(flagged, batch_format="pyarrow",
                             zero_copy_batch=True)


def _q_word_predicates(sf_dir: str):
    """I12 word predicates (isDictionaryWord / isNumeric,
    RecognitionResultsIterator.java:128-136): one row per word span of the
    wrapped corpus with per-language dictionary membership and numeric
    detection, fully vectorized (trim/lower/is_in/regex kernels)."""
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    from org_dharts_dia_tesseract_ray.stages.extractor import (
        apply_word_predicates)
    return apply_word_predicates(roundtrip_extract(sf_dir))


def _q_extract_font_attrs(sf_dir: str):
    """I11 FontAttributes analogue (FontAttributes.java:28-59,
    RecognitionResultsIterator.java:100-125): the font-wrapped corpus yields
    exactly five font-flagged words per document (bold / italic / underlined
    / monospace / nested bold-italic), derived from DOM inline markup."""
    import pyarrow.compute as _pc

    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        pages_from_documents)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages, spans_view)
    spans = spans_view(extract_pages(pages_from_documents(sf_dir,
                                                          "font_attrs")))

    def flagged(b: pa.Table) -> pa.Table:
        m = _pc.and_(_pc.equal(b["level"], "word"),
                     _pc.not_equal(b["font_mask"], 0))
        t = b.filter(m)
        fm = t["font_mask"]

        def bit(v: int):
            return _pc.not_equal(
                _pc.bit_wise_and(fm, pa.scalar(v, pa.uint8())), 0)

        return pa.table({
            "url": t["url"],
            "start": t["start"],
            "end": t["end"],
            "is_bold": bit(1),
            "is_italic": bit(2),
            "is_underlined": bit(4),
            "is_monospace": bit(8),
        })

    return spans.map_batches(flagged, batch_format="pyarrow",
                             zero_copy_batch=True)


def _q_extract_custom_rule(sf_dir: str):
    """BlockRule extension surface (PageItemFactory/CloseListener
    analogue): a user rule re-types heading blocks to caption_text; the
    oracle proves the reclassification lands in the spans output."""
    from org_dharts_dia_tesseract_ray.config import ExtractConfig
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        spans_view)

    def heading_to_caption(ctx):
        if ctx.default_type == "heading_text":
            return "caption_text"
        return None

    cfg = ExtractConfig(block_rules=(heading_to_caption,))
    spans = spans_view(roundtrip_extract(sf_dir, cfg))
    return (spans
            .filter(expr="level == 'block'")
            .select_columns(["url", "node_id", "level", "block_type",
                             "start", "end"]))


def _q_pages_dedup_extract(sf_dir: str):
    """Flagship north-rule composition end-to-end: a recrawl corpus with
    TWO captures per url (the later one revised) → url dedup
    (hash-partitioned keep-latest) → extraction; only the later capture's
    text may appear, exactly one row per url."""
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        pages_from_documents)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages)
    pages = pages_from_documents(sf_dir, "dup_captures")
    combined = extract_pages(pages, dedup=True)
    return combined.select_columns(["url", "extracted_text", "n_blocks",
                                    "payload_kind"])


def _q_extract_unlv(sf_dir: str):
    """UNLV-format rendering (M7's sibling; TessAPI.java:512 analogue)
    over the subsup-wrapped corpus so the script markers appear in the
    oracle string."""
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        pages_from_documents)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages)
    from org_dharts_dia_tesseract_ray.stages.extractor import apply_unlv
    return apply_unlv(extract_pages(pages_from_documents(sf_dir,
                                                         "subsup")))


def _q_extract_hocr(sf_dir: str):
    """hOCR string rendering (M7, TessBaseAPIGetHOCRText analogue): the
    structured spans view rendered per document to the hOCR HTML form."""
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    from org_dharts_dia_tesseract_ray.stages.extractor import apply_hocr
    return apply_hocr(roundtrip_extract(sf_dir))


def _q_compression_ratio(sf_dir: str):
    """Deflate-compression quality signal (Gopher/CCNet-family filter
    practice): per-document zlib-6 compressed/raw ratio — repetitive or
    templated text compresses far below prose."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        apply_compression_ratio)
    return apply_compression_ratio(_read(sf_dir, "documents",
                                         ["doc_id", "text"]))


def _tokenize_ids_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.vocab import tokenize_ids_sql
    return tokenize_ids_sql(_TOKENIZE_V)


def _topk_per_key_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import topk_per_key_sql
    return topk_per_key_sql(k=3)


def _running_total_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import (
        running_total_sql)
    return running_total_sql()


def _percent_rank_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import percent_rank_sql
    return percent_rank_sql()


def _lag_delta_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import lag_delta_sql
    return lag_delta_sql()


def _throttle_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.windows import throttle_sql
    return throttle_sql(min_gap_minutes=60)


def _transitions_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.windows import (
        transition_counts_sql)
    return transition_counts_sql()


def _ordered_concat_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import (
        ordered_concat_sql)
    return ordered_concat_sql()


def _rollup_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import rollup_counts_sql
    return rollup_counts_sql()


def _distinct_count_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import (
        distinct_count_sql)
    return distinct_count_sql(out_col="n_users")


def _pivot_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import pivot_counts_sql
    return pivot_counts_sql()



def _histogram_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import histogram_sql
    return histogram_sql()


def _chunk_windows_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.chunking import (
        chunk_documents_sql)
    return chunk_documents_sql(window=64, stride=48)


def _lang_balanced_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        lang_balanced_sample_sql)
    return lang_balanced_sample_sql()


def _temperature_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        temperature_sample_sql)
    return temperature_sample_sql()



def _normalize_text_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        normalize_text_sql)
    return normalize_text_sql()


def _dedup_normalized_sql_q() -> str:
    return r"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 10000000 AS doc_id, upper(text) || '  ' AS text
  FROM documents WHERE doc_id % 5 = 0),
norm AS (
  SELECT doc_id,
         trim(regexp_replace(lower(nfc_normalize(text)), '\s+', ' ', 'g'))
           AS text
  FROM aug)
SELECT min(doc_id) AS doc_id, md5(text) AS fp FROM norm
GROUP BY md5(text)"""


def _bigram_score_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        bigram_score_sql)
    return bigram_score_sql(_UNIGRAM_V)


def _q_token_stats(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        apply_token_stats)
    return apply_token_stats(_read(sf_dir, "documents",
                                   ["doc_id", "text"]))


def _q_url_normalize(sf_dir: str):
    """URL canonicalization over a deterministically-messy url column
    (mixed-case scheme/host, default ports, fragments, empty paths) —
    the Common-Crawl url-key step that feeds url dedup."""
    from org_dharts_dia_tesseract_ray.functions.urls import (
        apply_normalize_urls)
    ds = _read(sf_dir, "documents", ["doc_id"])

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

    return apply_normalize_urls(
        ds.map_batches(messy, batch_format="pyarrow", zero_copy_batch=True))


def _q_pii_redact(sf_dir: str):
    """PII scrub over documents with deterministically-injected emails,
    phone numbers and IPv4 addresses (doc_id rules; the corpus itself is
    synthetic prose with none) — stateless vectorized RE2, no shuffle."""
    from org_dharts_dia_tesseract_ray.functions.pii import apply_redact_pii
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def with_pii(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        ids = b["doc_id"].cast(pa.string())
        text = b["text"]
        text = pc.if_else(
            pa.array(did % 7 == 0),
            pc.binary_join_element_wise(
                text, " contact user", ids, "@corpus-test.example now", ""),
            text)
        text = pc.if_else(
            pa.array(did % 11 == 0),
            pc.binary_join_element_wise(
                text, " call +1 (555) 010-", ids, " today", ""),
            text)
        text = pc.if_else(
            pa.array(did % 13 == 0),
            pc.binary_join_element_wise(text, " host 10.0.0.", ids, "", ""),
            text)
        return pa.table({"doc_id": b["doc_id"], "text": text})

    return apply_redact_pii(
        ds.map_batches(with_pii, batch_format="pyarrow",
                       zero_copy_batch=True))


def _q_extract_contacts(sf_dir: str):
    """Contact extraction (the PII kernels' extract direction): per-doc
    email count + FIRST email over documents with deterministically
    injected addresses (doc_id % 7 rule, same as the redaction query)."""
    from org_dharts_dia_tesseract_ray.functions.pii import (
        apply_extract_contacts)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def with_email(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        ids = b["doc_id"].cast(pa.string())
        text = pc.if_else(
            pa.array(did % 7 == 0),
            pc.binary_join_element_wise(
                b["text"], " contact user", ids,
                "@corpus-test.example now", ""),
            b["text"])
        return pa.table({"doc_id": b["doc_id"], "text": text})

    return apply_extract_contacts(
        ds.map_batches(with_email, batch_format="pyarrow",
                       zero_copy_batch=True))


def _q_line_filter(sf_dir: str):
    """C4 line-level cleanup over documents given deterministic line
    structure (periods+newlines injected at ' table ' occurrences, plus a
    javascript/short-line tail on every 4th doc) — stateless vectorized
    explode-filter-reassemble, no shuffle."""
    from org_dharts_dia_tesseract_ray.functions.linefilter import (
        apply_line_filter)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def with_lines(b: pa.Table) -> pa.Table:
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

    return apply_line_filter(
        ds.map_batches(with_lines, batch_format="pyarrow",
                       zero_copy_batch=True))


def _q_corpus_assembly(sf_dir: str):
    """Flagship corpus-assembly composition — five operators in ONE
    streaming pipeline with END-TO-END oracle parity: deterministic
    line/PII corpus shaping → PII scrub (`functions/pii`) → C4 line
    filter (`functions/linefilter`) → drop failing docs → exact
    cleaned-text dedup keeping the min doc_id → whitespace token counts →
    pack into `_SEQ_LEN`-token training sequences (`functions/packing`).
    Only the dedup groupby and packing's range exchange shuffle; the
    scrub/filter/count stages stream as stateless `map_batches`."""
    from org_dharts_dia_tesseract_ray.functions.linefilter import (
        apply_line_filter)
    from org_dharts_dia_tesseract_ray.functions.packing import pack_sequences
    from org_dharts_dia_tesseract_ray.functions.pii import apply_redact_pii
    from org_dharts_dia_tesseract_ray.functions.vocab import ws_tokens
    from org_dharts_dia_tesseract_ray.util import _string_hash64, as_array

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def inject(b: pa.Table) -> pa.Table:
        # the line_filter corpus shaping followed by the pii_redact
        # appendages, in the exact order the oracle CTEs apply them
        text = pc.replace_substring_regex(b["text"], " table ", ".\n")
        did = np.asarray(b["doc_id"], dtype=np.int64)
        ids = b["doc_id"].cast(pa.string())
        text = pc.if_else(
            pa.array(did % 4 == 0),
            pc.binary_join_element_wise(
                text,
                ".\nenable javascript to continue.\nShort.\n"
                "A proper closing sentence appears right here.", ""),
            pc.binary_join_element_wise(text, " ends here.", ""))
        text = pc.if_else(
            pa.array(did % 7 == 0),
            pc.binary_join_element_wise(
                text, " contact user", ids, "@corpus-test.example now", ""),
            text)
        text = pc.if_else(
            pa.array(did % 11 == 0),
            pc.binary_join_element_wise(
                text, " call +1 (555) 010-", ids, " today", ""),
            text)
        text = pc.if_else(
            pa.array(did % 13 == 0),
            pc.binary_join_element_wise(text, " host 10.0.0.", ids, "", ""),
            text)
        return pa.table({"doc_id": b["doc_id"], "text": text})

    shaped = ds.map_batches(inject, batch_format="pyarrow",
                            zero_copy_batch=True)
    scrubbed = apply_redact_pii(shaped)
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
            "n_tokens": pc.list_value_length(
                ws_tokens(t["text_kept"])).cast(pa.int64()),
        })

    slim = filtered.map_batches(kept_tokens, batch_format="pyarrow",
                                zero_copy_batch=True)
    from org_dharts_dia_tesseract_ray.util import grouped_arrow_aggregate
    winners = grouped_arrow_aggregate(
        (slim, pa.schema([("digest", pa.int64()), ("doc_id", pa.int64()),
                          ("n_tokens", pa.int64())])),
        "digest", [("doc_id", "min", "doc_id"),
                   ("n_tokens", "min", "n_tokens")])

    def pin(b: pa.Table) -> pa.Table:
        return b.select(["doc_id", "n_tokens"])

    # materialize the slim (doc_id, n_tokens) winners: pack_sequences
    # makes three passes over its input, which would otherwise re-execute
    # the whole scrub/filter/dedup pipeline (and its shuffle) three times
    return pack_sequences(
        winners.map_batches(pin, batch_format="pyarrow",
                            zero_copy_batch=True).materialize(),
        seq_len=_SEQ_LEN)


def _q_line_dedup(sf_dir: str):
    """CCNet-style global line dedup over documents given deterministic
    line structure (same ' table ' → '.\\n' injection as line_filter; the
    small synthetic vocabulary makes cross-document duplicate lines
    common) — slim winners shuffle, one text shuffle for reassembly."""
    from org_dharts_dia_tesseract_ray.functions.unitdedup import unit_dedup
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def with_lines(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "text": pc.replace_substring_regex(b["text"], " table ", ".\n"),
        })

    return unit_dedup(
        ds.map_batches(with_lines, batch_format="pyarrow",
                       zero_copy_batch=True))


def _q_domain_cap(sf_dir: str):
    """Per-domain frequency capping (the C4/Gopher at-most-K-docs-per-host
    selection) over a deterministic multi-domain url column: keep the K
    lowest-doc_id documents of each of 17 synthetic hosts — partial-cap
    combiner, ONE hash-partition shuffle, vectorized rank-per-run reduce."""
    from org_dharts_dia_tesseract_ray.functions.capping import domain_cap
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def with_url(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        ids = b["doc_id"].cast(pa.string())
        site = pa.array(did % 17).cast(pa.string())
        url = pc.binary_join_element_wise(
            "https://site", site, ".test/doc/", ids, "")
        return pa.table({"url": url, "doc_id": b["doc_id"],
                         "lang": b["lang"]})

    return domain_cap(
        ds.map_batches(with_url, batch_format="pyarrow",
                       zero_copy_batch=True),
        order_by=[("doc_id", "ascending")], k=10)


def _q_repetition_stats(sf_dir: str):
    """Gopher-style repetition filters (duplicate-token / top-n-gram mass)
    — the quality axis length/stopword scoring doesn't cover."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        apply_repetition_stats)
    return apply_repetition_stats(_read(sf_dir, "documents",
                                        ["doc_id", "text"]))


def _q_quality(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.text_stats import apply_quality
    return apply_quality(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_langid(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.text_stats import apply_langid
    return apply_langid(_read(sf_dir, "documents", ["doc_id", "text"]))


#: init-language string for the multi-language query — exclusion form
#: (`~de`: load every default profile except German), the tilde semantics
#: of ImageAnalyzerFactory.java:85-104.  German docs must then classify by
#: the remaining profiles or fall to `und` — both sides restrict identically.
_LANGID_INIT = "~de"


def _q_langid_multi(sf_dir: str):
    """Multi-language init-string language ID (`lang1+lang2` / `~lang`
    grammar, ImageAnalyzerFactory.java:85-104 + the
    GetLoadedLanguagesAsVector readback, TessAPI.java decl)."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import apply_langid
    return apply_langid(_read(sf_dir, "documents", ["doc_id", "text"]),
                        init_langs=_LANGID_INIT)


def _q_extract_links(sf_dir: str):
    """Link-graph construction: pages → (src, pos, href, resolved) edges —
    the first stage of the pagerank pipeline the graph operators consume."""
    from org_dharts_dia_tesseract_ray.functions.links import (
        apply_extract_links)
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        pages_from_documents)
    return apply_extract_links(pages_from_documents(sf_dir))


def _q_extract_meta(sf_dir: str):
    """Head-metadata projection (title / description / canonical) over the
    meta-wrapped corpus — the crawl-index fields."""
    from org_dharts_dia_tesseract_ray.functions.links import (
        apply_extract_meta)
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        pages_from_documents)
    return apply_extract_meta(pages_from_documents(sf_dir, "meta"))


#: BM25 retrieval queries — corpus-vocabulary keyword sets (TESTDATA's
#: synthetic prose); fixed constants shared verbatim with the SQL oracle.
_BM25_QUERIES = ["data spark merge", "sort table scan", "query window"]


def _q_bm25_topk(sf_dir: str):
    """Okapi BM25 top-k retrieval per query — the sparse ranking baseline
    next to the dense ANN operators (decontamination triage / seed-set
    construction practice)."""
    from org_dharts_dia_tesseract_ray.functions.retrieval import bm25_topk
    return bm25_topk(_read(sf_dir, "documents", ["doc_id", "text"]),
                     _BM25_QUERIES, k=10)


def _q_config_dump(sf_dir: str):
    """Engine-variable introspection dump — the TessBaseAPIPrintVariables
    analogue (decl-only in the reference) over the digits-fixture
    configuration (tessdata/configs/digits + api_config)."""
    from org_dharts_dia_tesseract_ray.config import ExtractConfig
    cfg = ExtractConfig(char_whitelist="0123456789-.",
                        variables=(("tessedit_zero_rejection", "T"),))
    return cfg.dump_variables()


#: deterministic RTL payload for the text_direction query (the corpus has
#: no RTL language, so every 7th doc is swapped for Arabic — the same
#: injected-fixture trick url_normalize uses for messy urls)
_RTL_SAMPLE = "مرحبا بالعالم هذا نص عربي "


def _q_text_direction(sf_dir: str):
    """Writing-direction getter (getOrientation/M13 analogue): strong-RTL
    vs strong-LTR codepoint majority per document."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        apply_direction)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def inject(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        seven = pa.array(did % 7 == 0)
        return pa.table({
            "doc_id": b["doc_id"],
            "text": pc.if_else(seven, pa.scalar(_RTL_SAMPLE * 3), b["text"]),
        })

    return apply_direction(
        ds.map_batches(inject, batch_format="pyarrow", zero_copy_batch=True))


def _q_fingerprint(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.fingerprint import apply_md5
    return apply_md5(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_dedup_exact(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.dedup import exact_dedup
    return exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_warc_roundtrip(sf_dir: str):
    """Container-format ingest: documents shaped as pages, serialized to
    WARC shards with the real writer (spec Content-Length framing), read
    back through `sources/warc.read_warc` — the Common-Crawl ingest
    surface proven by a write→read identity over the driver oracle."""
    import datetime as dt
    import os

    import ray.data

    from org_dharts_dia_tesseract_ray.sources.warc import (read_warc,
                                                           write_warc)

    docs = _read(sf_dir, "documents",
                 ["doc_id", "text", "lang"]).to_pandas()
    docs = docs.sort_values("doc_id").reset_index(drop=True)
    epoch = dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc)
    pages = pa.table({
        "url": pa.array(["doc://" + str(i) for i in docs["doc_id"]],
                        pa.string()),
        "warc_ts": pa.array([epoch] * len(docs),
                            pa.timestamp("us", tz="UTC")),
        "html": pa.array([(t or "").encode() for t in docs["text"]],
                         pa.binary()),
        "text": pa.array(docs["text"], pa.string()),
        "lang": pa.array(docs["lang"], pa.string()),
    })
    # unique scratch dir per call: a fixed path would race when two
    # harness processes run the same sf_dir concurrently (reader of one
    # vs rewriter of the other on the same shard files)
    import tempfile
    import shutil
    out_dir = tempfile.mkdtemp(prefix="graft_warc_roundtrip_")
    try:
        paths = write_warc(pages, out_dir, shards=8)
        ds = read_warc(paths)

        def project(b: pa.Table) -> pa.Table:
            return b.select(["url", "text", "lang"])

        # materialize so the scratch WARC shards can be removed — a lazy
        # return leaked one corpus-sized /tmp dir per harness invocation
        return ds.map_batches(project, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


_PR_ITERS = 10


def _q_pagerank(sf_dir: str):
    """Fixed-point integer PageRank (functions/graph) over a
    deterministic synthetic link graph on the documents' id domain
    (three modular-arithmetic edge rules; two are bijections, so every
    node has in-links; the rules assume the dense 0..N-1 doc_id domain
    the testdata guarantees — both the Ray side and the SQL oracle use
    the same ``% count`` arithmetic).  Integer micro-unit arithmetic makes the result
    bit-identical across parallelism AND exactly SQL-expressible — the
    oracle is the mechanically generated 10-level CTE chain.  Physical
    plan: the broadcast-ranks variant (host-level node counts fit a
    ray.put vector; pagerank_int is the partitioned page-level path and
    is asserted bit-equal in tests)."""
    from org_dharts_dia_tesseract_ray.functions.graph import (
        pagerank_broadcast)

    nodes = _read(sf_dir, "documents", ["doc_id"])
    n = nodes.count()

    def mk_edges(b: pa.Table) -> pa.Table:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        fifth = i[i % 5 == 0]
        src = np.concatenate([i, i, fifth])
        dst = np.concatenate([(i * 7 + 3) % n, (i * 13 + 5) % n,
                              (fifth * 3 + 1) % n])
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    edges = nodes.map_batches(mk_edges, batch_format="pyarrow",
                              zero_copy_batch=True)
    return pagerank_broadcast(nodes, edges, iterations=_PR_ITERS,
                              node_col="doc_id")


def _quality_buckets_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        quality_buckets_sql)
    return quality_buckets_sql(_UNIGRAM_V)


def _substr_spans_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        duplicated_spans_sql)
    return duplicated_spans_sql(w=8)


def _substr_clean_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        dedup_substrings_sql)
    return dedup_substrings_sql(w=8)


def _pagerank_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.graph import pagerank_sql
    edges = """
SELECT node AS src, (node * 7 + 3) % (SELECT c FROM nn) AS dst FROM nodes
UNION ALL
SELECT node, (node * 13 + 5) % (SELECT c FROM nn) FROM nodes
UNION ALL
SELECT node, (node * 3 + 1) % (SELECT c FROM nn) FROM nodes
WHERE node % 5 = 0"""
    return pagerank_sql(edges, iterations=_PR_ITERS)


_BLOOM_BITS = 1 << 24


def _q_orders_bloom_new(sf_dir: str):
    """Incremental dedup without a join: keep odd-orderkey orders whose
    customer never appears among the even-orderkey (reference) orders.
    The reference slice compiles into a Bloom bitmap distributed-built
    and broadcast once; the new slice probes it shuffle-free
    (functions/bloomdedup.py — the new-crawl-vs-seen-corpus step)."""
    import pyarrow.compute as pc

    from org_dharts_dia_tesseract_ray.functions.bloomdedup import (
        bloom_build, bloom_filter_new)

    def half(parity):
        def f(b):
            keep = pc.equal(pc.bit_wise_and(b["o_orderkey"], 1), parity)
            return b.filter(keep)
        return f

    cols = ["o_orderkey", "o_custkey"]
    ref = _read(sf_dir, "orders", cols).map_batches(
        half(0), batch_format="pyarrow", zero_copy_batch=True)
    bloom = bloom_build(ref, key_col="o_custkey", bits=_BLOOM_BITS)
    new = _read(sf_dir, "orders", cols).map_batches(
        half(1), batch_format="pyarrow", zero_copy_batch=True)
    return bloom_filter_new(new, bloom, key_col="o_custkey")


def _q_heavy_hitters(sf_dir: str):
    """Top-20 tokens via capacity-bounded Misra-Gries summaries
    (functions/heavyhitters.py); exact (err_bound 0) at oracle scale
    because no batch exceeds the 4096-token capacity."""
    from org_dharts_dia_tesseract_ray.functions.heavyhitters import (
        heavy_hitters)
    return heavy_hitters(_read(sf_dir, "documents", ["text"]), k=20)


def _q_neardup_minhash(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.dedup import minhash_lsh_pairs
    return minhash_lsh_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                             threshold=MINHASH_THRESHOLD)


def _q_neardup_clusters(sf_dir: str):
    """Full near-dup dedup composition: MinHash+LSH pairs → connected
    components (min-label propagation) → (doc_id, cluster) assignment."""
    from org_dharts_dia_tesseract_ray.functions.dedup import (
        minhash_lsh_pairs, neardup_clusters)
    ids = _read(sf_dir, "documents", ["doc_id"])
    pairs = minhash_lsh_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                              threshold=MINHASH_THRESHOLD)
    return neardup_clusters(ids, pairs)


def _q_neardup_keep_one(sf_dir: str):
    """The end-use of the near-dup family: cleaned corpus keeping ONE
    representative per near-duplicate cluster (the minimum doc_id — the
    cluster label by construction), i.e. pairs → components → filter
    doc_id == cluster.  Oracle derives from the independent union-find
    clusters golden, so this row also pins the keep-one policy."""
    from org_dharts_dia_tesseract_ray.functions.dedup import (
        minhash_lsh_pairs, neardup_clusters)
    ids = _read(sf_dir, "documents", ["doc_id"])
    pairs = minhash_lsh_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                              threshold=MINHASH_THRESHOLD)
    clusters = neardup_clusters(ids, pairs)

    def keep(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "doc_id" not in b.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        return b.filter(pc.equal(b["doc_id"], b["cluster"])).select(
            ["doc_id"])

    return clusters.map_batches(keep, batch_format="pyarrow",
                                zero_copy_batch=True)


def _q_neardup_simhash(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.dedup import simhash_pairs
    return simhash_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                         max_hamming=SIMHASH_MAX_HAMMING)


def _q_dup_substr_spans(sf_dir: str):
    """Exact-substring dedup (Lee et al. 2021 analogue): maximal cross-doc
    duplicated 8-token spans via rolling-hash grams (functions/substrdedup;
    no text shuffle).  The dup-gram set stays distributed (hash-partitioned
    semi-join), never collected to the driver."""
    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        duplicated_spans)
    return duplicated_spans(_read(sf_dir, "documents", ["doc_id", "text"]),
                            w=8)


def _q_dedup_substrings(sf_dir: str):
    """Removal variant: every token covered by a cross-doc duplicated
    8-gram cut from the text (single-space rejoin; all occurrences cut —
    keep-one canonicalization is a policy layer, as in the reference
    tooling).  The dup-gram set stays distributed; the text meets the
    marked positions in one id-keyed co-shuffle (2 exchanges)."""
    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        dedup_substrings)
    return dedup_substrings(_read(sf_dir, "documents", ["doc_id", "text"]),
                            w=8)


def _q_neardup_jaccard_brute(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.dedup import (
        jaccard_pairs_brute)
    return jaccard_pairs_brute(_read(sf_dir, "documents", ["doc_id", "text"]),
                               threshold=MINHASH_THRESHOLD)


def _q_neardup_cosine(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.dedup import cosine_neardup
    return cosine_neardup(_read(sf_dir, "embeddings"),
                          threshold=COS_THRESHOLD)


def _q_neardup_cosine_bucketed(sf_dir: str):
    """Scale path for embedding near-dup: coarse-quantizer buckets + hash
    self-join + exact-cosine verify — no driver-side corpus matrix (only a
    bounded training sample).  Zero false positives by construction;
    recall for near-identical pairs validated vs brute force in tests."""
    from org_dharts_dia_tesseract_ray.functions.dedup import (
        cosine_neardup_bucketed)
    return cosine_neardup_bucketed(_read(sf_dir, "embeddings"),
                                   threshold=0.45)


def _q_ann_brute(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.similarity import brute_topk
    ids, Q = _query_matrix(sf_dir)
    return brute_topk(_read(sf_dir, "embeddings"), ids, Q, ANN_K)


def _q_ann_ivf(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.similarity import (IvfIndex,
                                                                   ivf_topk)
    ids, Q = _query_matrix(sf_dir)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    M = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    index = IvfIndex.train(M, n_centroids=8, iters=5)
    return ivf_topk(_read(sf_dir, "embeddings"), ids, Q, index, ANN_K,
                    nprobe=4)


def _q_embeddings_pca(sf_dir: str):
    """Distributed exact PCA (covariance-aggregation) → 4-component
    projection; deterministic but not SQL-expressible (rows-only)."""
    from org_dharts_dia_tesseract_ray.functions.pca import (fit_pca,
                                                            transform_pca)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    mean, comp = fit_pca(ds, n_components=4)
    out = transform_pca(_read(sf_dir, "embeddings",
                              ["vec_id", "embedding"]), mean, comp)

    def widen(b: pa.Table) -> pa.Table:
        import numpy as np
        Y = np.stack([np.asarray(v) for v in b["pca"].to_pylist()])
        cols = {"vec_id": b["vec_id"]}
        for i in range(Y.shape[1]):
            q = np.round(Y[:, i] * 10000.0) / 10000.0
            cols[f"pc{i}"] = pa.array(q, pa.float64())
        return pa.table(cols)

    return out.map_batches(widen, batch_format="pyarrow",
                           zero_copy_batch=True)


def _q_winnow(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.fingerprint import apply_winnow
    ds = apply_winnow(_read(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(["doc_id", "n_fp", "min_fp"])


def _q_media_decode(sf_dir: str):
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        apply_decode, synth_media_table)
    # corrupt_every exercises all three decode-failure families (bad magic,
    # truncation, CRC bit-flip) through the oracle, not just in unit tests;
    # px_checksum is the decoded-pixel CRC32 — proof the RLE decompression
    # actually ran, verified against an independent golden synthesis
    out = apply_decode(ray.data.from_arrow(
        synth_media_table(64, corrupt_every=13)))
    return out.select_columns(["item_id", "status", "width", "height",
                               "n_frames", "px_checksum"])


def _q_audio_features(sf_dir: str):
    """Audio leg of the multimodal contract: SYNM audio chunks decoded
    (CRC-validated) and reduced to integer-exact signal features
    (L1 energy / zero-crossing count / peak) per chunk; corrupt payloads
    yield the null decode_error row."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        apply_audio_features, synth_audio_table)
    return apply_audio_features(ray.data.from_arrow(
        synth_audio_table(64, corrupt_every=13)))


def _q_media_resize(sf_dir: str):
    """Resize leg of the multimodal contract: decode frame 0 and emit the
    16x12 integer box-downsampled thumbnail (raster + CRC32); corrupt
    payloads yield the decode_error row.  The raster is hex-projected for
    the compare frame — the driver's hash path can't factorize raw BLOBs
    (DuckDB returns bytearray), the stage itself stays binary."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        apply_resize, synth_media_table)
    out = apply_resize(ray.data.from_arrow(
        synth_media_table(64, corrupt_every=13)))

    def hexpx(b: pa.Table) -> pa.Table:
        return pa.table({
            "item_id": b["item_id"], "status": b["status"],
            "rw": b["rw"], "rh": b["rh"],
            "pixels_hex": pa.array(
                [(v or b"").hex() for v in b["pixels"].to_pylist()],
                pa.string()),
            "px_crc": b["px_crc"],
        })

    return out.map_batches(hexpx, batch_format="pyarrow",
                           zero_copy_batch=True)


def _q_media_frames(sf_dir: str):
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        apply_frame_sample, synth_media_table)
    return apply_frame_sample(
        ray.data.from_arrow(synth_media_table(64, kind="video")), every=4)


def _q_vocab_top100(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.vocab import vocab_topk
    return vocab_topk(_read(sf_dir, "documents", ["doc_id", "text"]), 100)




def _q_split(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        train_val_test_split)
    ds = train_val_test_split(_read(sf_dir, "documents",
                                    ["doc_id", "text"]))
    return ds.select_columns(["doc_id", "split"])


def _q_stratified(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        stratified_sample)
    ds = stratified_sample(_read(sf_dir, "documents",
                                 ["doc_id", "lang", "text"]),
                           group_col="lang")
    return ds.select_columns(["doc_id", "lang"])


#: corpus-mixing weights for the harness query (percent kept per lang)
_MIX_WEIGHTS = {"en": 60, "de": 40, "fr": 25, "zh": 10, "ar": 10}

#: per-lang token budget for the quota-selection harness query
_TOKEN_BUDGET = 5000

#: benchmark-membership rule for the decontamination harness query
_BENCH_MOD = 101
_DECONTAM_N = 5


def _q_weighted_mix(sf_dir: str):
    """Corpus mixing by per-source weights: assemble a deterministic
    mixture keeping weights[lang]% of each language by content bucket."""
    from org_dharts_dia_tesseract_ray.functions.sampling import weighted_mix
    ds = weighted_mix(_read(sf_dir, "documents", ["doc_id", "lang", "text"]),
                      _MIX_WEIGHTS)
    return ds.select_columns(["doc_id", "lang"])


def _q_token_budget(sf_dir: str):
    """Per-source token-budget selection: each lang keeps its doc_id-orderd
    prefix until the cumulative whitespace-token count reaches the budget
    — partial-cap combiner, one hash shuffle, vectorized quota pass."""
    from org_dharts_dia_tesseract_ray.functions.capping import (
        budget_cap_per_key)
    from org_dharts_dia_tesseract_ray.functions.vocab import ws_tokens
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def with_tokens(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "lang": b["lang"],
                         "n_tokens": pc.list_value_length(
                             ws_tokens(b["text"])).cast(pa.int64())})

    return budget_cap_per_key(
        ds.map_batches(with_tokens, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col="lang", order_by=[("doc_id", "ascending")],
        weight_col="n_tokens", budget=_TOKEN_BUDGET)


#: leaked eval snippet — appended to benchmark docs AND to the synthetic
#: "leaky" corpus docs (doc_id % _LEAK_MOD == 1) so the query proves
#: cross-document n-gram detection, not just benchmark self-membership
_LEAK_PHRASE = "the quick brown fox jumps over the lazy dog"
_LEAK_MOD = 37


#: training-sequence length for the packing harness query
_SEQ_LEN = 512

#: top-V vocabulary for the unigram-scoring harness query — smaller than
#: the corpus vocabulary so the OOV path is exercised
_UNIGRAM_V = 20

#: vocabulary size for the tokenize-to-ids harness query (bigger than
#: _UNIGRAM_V so real id diversity appears, still small enough for OOV)
_TOKENIZE_V = 256


def _q_tokenize_ids(sf_dir: str):
    """Tokenization to id sequences: top-V vocab built by the vocab
    pipeline, broadcast via ray.put, ONE vectorized index_in per batch;
    ids are rank+1, OOV=0.  The id list is CSV-projected for the compare
    frame (list columns don't hash) via vectorized cast + binary_join."""
    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        build_unigram_model)
    from org_dharts_dia_tesseract_ray.functions.vocab import tokenize_ids
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    model = build_unigram_model(ds, vocab_size=_TOKENIZE_V)
    out = tokenize_ids(_read(sf_dir, "documents", ["doc_id", "text"]),
                       model)

    def csv(b: pa.Table) -> pa.Table:
        ids_str = pc.cast(b["ids"], pa.list_(pa.string()))
        return pa.table({
            "doc_id": b["doc_id"],
            "n_tokens": b["n_tokens"],
            "n_oov": b["n_oov"],
            "ids_csv": pc.binary_join(ids_str, ","),
        })

    return out.map_batches(csv, batch_format="pyarrow",
                           zero_copy_batch=True)



def _q_bigram_score(sf_dir: str):
    """Adjacent-bigram corpus-frequency scoring (the KenLM-direction
    generalization of unigram_score): top-V bigram model broadcast,
    integer-exact per-doc sums via the aligned-slice n-gram kernel."""
    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        build_unigram_model, score_ngrams)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    model = build_unigram_model(ds, vocab_size=_UNIGRAM_V, ngram=2)
    return score_ngrams(_read(sf_dir, "documents", ["doc_id", "text"]),
                        model, n=2)


def _q_quality_buckets(sf_dir: str):
    """CCNet head/middle/tail terciles of the unigram corpus-frequency
    score: sketch-derived thresholds (exact at oracle scale) + broadcast
    bucket assignment over a once-materialized slim (id, score) table."""
    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        build_unigram_model, quality_buckets, score_unigram)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    model = build_unigram_model(ds, vocab_size=_UNIGRAM_V)
    scored = score_unigram(_read(sf_dir, "documents", ["doc_id", "text"]),
                           model)
    return quality_buckets(scored)


def _q_pack_sequences(sf_dir: str):
    """GPT-style sequence packing: every document's token offset in the
    concatenated corpus stream and the fixed-length sequences it spans —
    the distributed-prefix-sum operator (bounds pass → per-bucket totals
    → range shuffle + vectorized offsets)."""
    from org_dharts_dia_tesseract_ray.functions.packing import pack_sequences
    from org_dharts_dia_tesseract_ray.functions.vocab import ws_tokens
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def with_tokens(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": pc.list_value_length(
                             ws_tokens(b["text"])).cast(pa.int64())})

    # slim (doc_id, n_tokens) materialized once — pack_sequences' three
    # passes would re-tokenize the corpus per pass otherwise
    return pack_sequences(
        ds.map_batches(with_tokens, batch_format="pyarrow",
                       zero_copy_batch=True).materialize(),
        seq_len=_SEQ_LEN)


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: documents sharing any word n-gram with
    the synthetic benchmark subset (doc_id % _BENCH_MOD == 0) — blocklist
    built once, broadcast via ray.put, vectorized membership per batch."""
    from org_dharts_dia_tesseract_ray.functions.decontam import (
        build_ngram_blocklist, decontaminate)

    def with_leak(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        leak = (did % _BENCH_MOD == 0) | (did % _LEAK_MOD == 1)
        text = pc.if_else(
            pa.array(leak),
            pc.binary_join_element_wise(b["text"], _LEAK_PHRASE, " "),
            b["text"])
        return pa.table({"doc_id": b["doc_id"], "text": text})

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        with_leak, batch_format="pyarrow", zero_copy_batch=True)

    def bench_only(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        return b.filter(pa.array(did % _BENCH_MOD == 0))

    bench = ds.map_batches(bench_only, batch_format="pyarrow",
                           zero_copy_batch=True)
    bl = build_ngram_blocklist(bench, n=_DECONTAM_N)
    return decontaminate(ds, bl, n=_DECONTAM_N)



def _q_length_quantiles_sketch(sf_dir: str):
    """Same quantiles through the MERGEABLE summary path
    (functions/qsketch) — shuffle bounded by capacity, not group size;
    exact (bit-identical to the grouped_quantiles oracle) because no run
    exceeds the capacity at oracle scale; the compression path is
    bound-tested in tests.  capacity is sized so the query stays in the
    exact regime at EVERY sf the harness can run (largest lang group at
    sf1 ~ 20k docs < 65536) — the exact-SQL oracle would false-fail the
    moment compression fires."""
    from org_dharts_dia_tesseract_ray.functions.qsketch import (
        grouped_quantiles_sketch)
    return grouped_quantiles_sketch(
        _read(sf_dir, "documents", ["lang", "n_chars"]),
        key="lang", value_col="n_chars", capacity=65536)


def _q_lineitem_price_quantiles(sf_dir: str):
    """High-cardinality grouped quantiles (~147k distinct l_orderkey at
    sf0.1): the hash-partitioned reduce computes every order's price
    quantiles with P Python calls, not one per key."""
    from org_dharts_dia_tesseract_ray.functions.stats import grouped_quantiles
    return grouped_quantiles(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"]),
        key="l_orderkey", value_col="l_extendedprice")


def _q_doc_frequency(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.vocab import doc_frequency
    return doc_frequency(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_tfidf_top_term(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.vocab import tfidf_top_term
    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    return tfidf_top_term(_read(sf_dir, "documents", ["doc_id", "text"]), n)


def _q_top_docs_per_lang(sf_dir: str):
    """Distributed window rank: top-3 docs per language by
    (n_chars desc, doc_id asc) — per-batch combiner prune, ONE hash
    exchange, per-partition vectorized run arithmetic (row_number
    PARTITION BY analogue without per-key Python)."""
    from org_dharts_dia_tesseract_ray.functions.stats import topk_per_key
    return topk_per_key(_read(sf_dir, "documents",
                              ["doc_id", "lang", "n_chars"]),
                        key="lang", value_col="n_chars", id_col="doc_id",
                        k=3)


def _q_normalize_text(sf_dir: str):
    """Canonical NFC/lowercase/whitespace normalization — the shared
    preprocessor for exact-dedup digests and matching (bit-identical on
    both engines)."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        apply_normalize_text)
    return apply_normalize_text(_read(sf_dir, "documents",
                                      ["doc_id", "text"]))


def _q_dedup_normalized(sf_dir: str):
    """Normalize-then-dedup composition: case/whitespace variants
    (injected for every 5th doc as an extra row) collapse to one survivor
    per NORMALIZED content digest — the end-use of normalize_text."""
    from org_dharts_dia_tesseract_ray.functions.dedup import exact_dedup
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        apply_normalize_text)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def augment(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        keep = pa.array(did % 5 == 0)
        v = b.filter(keep)
        variants = pa.table({
            "doc_id": pc.add(v["doc_id"], pa.scalar(10_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                pc.utf8_upper(v["text"]), "  ", ""),
        })
        return pa.concat_tables([b.select(["doc_id", "text"]), variants])

    aug = ds.map_batches(augment, batch_format="pyarrow",
                         zero_copy_batch=True)
    norm = apply_normalize_text(aug)

    def as_text(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "text": b["norm_text"]})

    return exact_dedup(norm.map_batches(as_text, batch_format="pyarrow",
                                        zero_copy_batch=True))



def _q_temperature_sample(sf_dir: str):
    """Temperature-scaled multilingual resampling (T=2): kept counts
    proportional to sqrt(count) — the n^(1/T) mixing rule between natural
    proportions and equal share."""
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        temperature_sample)
    return temperature_sample(_read(sf_dir, "documents",
                                    ["doc_id", "lang", "text"]))


def _q_lang_balanced_sample(sf_dir: str):
    """Multilingual rebalancing: every language downsampled to the smallest
    language's share via integer basis-point rates from one tiny groupby +
    the deterministic content-bucket rule (partitioning-invariant)."""
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        lang_balanced_sample)
    return lang_balanced_sample(_read(sf_dir, "documents",
                                      ["doc_id", "lang", "text"]))


def _q_skew_topk(sf_dir: str):
    return (_read(sf_dir, "documents", ["doc_id", "n_chars"])
            .sort(["n_chars", "doc_id"], descending=[True, False])
            .limit(SKEW_K))


def _q_doc_stats_by_lang(sf_dir: str):
    from ray.data.aggregate import Count, Max, Sum
    return (_read(sf_dir, "documents", ["lang", "n_chars"])
            .groupby("lang")
            .aggregate(Count(alias_name="n_docs"),
                       Sum("n_chars", alias_name="total_chars"),
                       Max("n_chars", alias_name="max_chars")))



def _q_events_windowed(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.windows import (
        tumbling_aggregate)
    return tumbling_aggregate(
        _read(sf_dir, "events", ["ts", "event_type", "value"]))



def _q_events_asof_next_order(sf_dir: str):
    """Forward as-of join: each event picks up the customer's EARLIEST
    order at-or-after the event time (direction='forward')."""
    from org_dharts_dia_tesseract_ray.functions.joins import asof_join
    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["o_custkey"],
                         "o_orderdate": b["o_orderdate"],
                         "o_orderkey": b["o_orderkey"]})

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_orderkey"]).map_batches(
        rename, batch_format="pyarrow", zero_copy_batch=True)
    return asof_join(events, orders, key="user_id", left_ts="ts",
                     right_ts="o_orderdate", value_col="o_orderkey",
                     out_col="next_orderkey", direction="forward")


def _q_events_enrich_customer(sf_dir: str):
    """Broadcast dimension lookup: events enriched with customer attrs —
    the ray.put-once / read-per-actor small-side join (no shuffle)."""
    from org_dharts_dia_tesseract_ray.functions.joins import broadcast_lookup
    events = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])
    dim = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    return broadcast_lookup(events, dim, key="user_id", dim_key="c_custkey",
                            carry={"c_name": "c_name",
                                   "c_mktsegment": "c_mktsegment"})


def _q_customer_order_counts(sf_dir: str):
    """LEFT OUTER join (distributed, schema-pinned): every customer with
    their order count; customers with no orders survive with a null count
    — the SQL LEFT JOIN shape over an aggregate right side (the exact
    configuration Dataset.join dies on: empty schema-less blocks)."""
    from org_dharts_dia_tesseract_ray.util import (default_num_partitions,
                                                   grouped_arrow_aggregate,
                                                   schema_pinned_join)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    from org_dharts_dia_tesseract_ray.util import count_combiner
    counts = grouped_arrow_aggregate(
        (_read(sf_dir, "orders", ["o_custkey"])
         .map_batches(count_combiner("o_custkey"), batch_format="pyarrow",
                      zero_copy_batch=True),
         pa.schema([("o_custkey", pa.int64()), ("__n", pa.int64())])),
        "o_custkey", [("__n", "sum", "n_orders")])

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": b["o_custkey"],
                         "n_orders": b["n_orders"]})

    counts = counts.map_batches(rename, batch_format="pyarrow",
                                zero_copy_batch=True)
    return schema_pinned_join(
        cust, counts, on=("c_custkey",),
        num_partitions=default_num_partitions(),
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_mktsegment", pa.string())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("n_orders", pa.int64())]),
        join_type="left outer")


def _customers_vs_recent_orders(sf_dir: str, join_type: str):
    """Shared body of the EXISTS / NOT EXISTS complement pair: customers
    (left) probed against the distinct keys of orders since 2000-01-01
    (per-batch key dedup is the combiner — the exchange carries distinct
    keys per batch, never the orders table)."""
    import datetime

    from org_dharts_dia_tesseract_ray.util import (default_num_partitions,
                                                   schema_pinned_join)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    cutoff = datetime.datetime(2000, 1, 1)

    def distinct_recent_keys(b: pa.Table) -> pa.Table:
        keys = b.filter(pc.greater_equal(
            b["o_orderdate"],
            pa.scalar(cutoff, b["o_orderdate"].type)))["o_custkey"]
        return pa.table({"c_custkey": pc.unique(keys.combine_chunks())})

    seen = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        distinct_recent_keys, batch_format="pyarrow", zero_copy_batch=True)
    return schema_pinned_join(
        cust, seen, on=("c_custkey",),
        num_partitions=default_num_partitions(),
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_name", pa.string())]),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
        join_type=join_type)


def _q_customers_no_orders(sf_dir: str):
    """LEFT ANTI join (distributed NOT EXISTS): customers with no order
    since 2000-01-01 — lapsed-customer detection."""
    return _customers_vs_recent_orders(sf_dir, "left anti")


def _q_urgent_spend_right_customer(sf_dir: str):
    """RIGHT OUTER join (completes the schema-pinned join family,
    VERDICT r4 item 5): per-customer 1-URGENT spend (left, an aggregate —
    cents-quantized int64 so the distributed Sum is order-exact) RIGHT
    JOINed to the customer dim — every customer survives; customers with
    no urgent order carry a null spend."""
    from org_dharts_dia_tesseract_ray.util import (default_num_partitions,
                                                   grouped_arrow_aggregate,
                                                   schema_pinned_join)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def partial_spend(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))
        cents = pc.round(pc.multiply(t["o_totalprice"], 100.0),
                         round_mode="half_towards_infinity").cast(pa.int64())
        g = (pa.table({"c_custkey": t["o_custkey"], "__c": cents})
             .group_by("c_custkey").aggregate([("__c", "sum")]))
        return pa.table({"c_custkey": g["c_custkey"],
                         "__c": g["__c_sum"].cast(pa.int64())})

    spend = grouped_arrow_aggregate(
        (_read(sf_dir, "orders",
               ["o_custkey", "o_orderpriority", "o_totalprice"])
         .map_batches(partial_spend, batch_format="pyarrow",
                      zero_copy_batch=True),
         pa.schema([("c_custkey", pa.int64()), ("__c", pa.int64())])),
        "c_custkey", [("__c", "sum", "urgent_cents")])
    return schema_pinned_join(
        spend, cust, on=("c_custkey",),
        num_partitions=default_num_partitions(),
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("urgent_cents", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_mktsegment", pa.string())]),
        join_type="right outer")


def _q_length_histogram(sf_dir: str):
    """Fixed-width doc-length histogram per language (200-char bins):
    per-batch partial counts are the combiner, one small Sum shuffle."""
    from org_dharts_dia_tesseract_ray.functions.stats import (
        histogram_per_key)
    docs = _read(sf_dir, "documents", ["lang", "n_chars"])
    return histogram_per_key(docs, key="lang", value_col="n_chars",
                             bin_width=200)



def _q_events_pivot(sf_dir: str):
    """Crosstab/PIVOT: one wide row per user with a count column per event
    type (behavior vectors) — per-batch vectorized pre-pivot combiner +
    native Sum groupby, no per-key Python."""
    from org_dharts_dia_tesseract_ray.functions.stats import pivot_counts
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return pivot_counts(ev, key="user_id", pivot_col="event_type",
                        categories=("click", "error", "purchase",
                                    "signup", "view"))


def _q_events_distinct_users(sf_dir: str):
    """Exact distributed COUNT(DISTINCT user) per event type: per-batch
    distinct-pair combiner, one slim pair exchange, per-partition run
    count."""
    from org_dharts_dia_tesseract_ray.functions.stats import (
        distinct_count_per_key)
    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    return distinct_count_per_key(ev, key="event_type",
                                  value_col="user_id",
                                  out_col="n_users")


def _q_doc_stats_rollup(sf_dir: str):
    """Multi-grain GROUP BY ROLLUP(lang, source): per-batch combiner, one
    finest-grain shuffle, coarser grains derived locally — counts and char
    totals at (lang, source) / (lang) / () grains."""
    from org_dharts_dia_tesseract_ray.functions.stats import rollup_counts
    docs = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    return rollup_counts(docs)


def _q_user_event_paths(sf_dir: str):
    """Distributed ordered string aggregation: per-user event-type path in
    time order (string_agg ORDER BY analogue) — funnel/navigation
    sequences."""
    from org_dharts_dia_tesseract_ray.functions.stats import (
        ordered_concat_per_key)
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return ordered_concat_per_key(ev, key="user_id", order_col="ts",
                                  id_col="event_id", value_col="event_type")


def _q_event_transitions(sf_dir: str):
    """First-order event-type transition counts per user stream (the
    LEAD-window Markov-matrix aggregate) — funnel edges."""
    from org_dharts_dia_tesseract_ray.functions.windows import (
        transition_counts)
    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type"])
    return transition_counts(ev)


def _q_events_throttle(sf_dir: str):
    """LAG-based rate limiting per (user, event_type): keep first-of-key
    or gap > 60 min — recrawl/alert suppression; composite-key window."""
    from org_dharts_dia_tesseract_ray.functions.windows import throttle
    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type"])
    return throttle(ev, min_gap_minutes=60)


def _q_events_interarrival(sf_dir: str):
    """Distributed LAG window: per-user inter-arrival gap in microseconds
    (null for each user's first event) — burst/recency session features."""
    from org_dharts_dia_tesseract_ray.functions.stats import (
        lag_delta_per_key)
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    return lag_delta_per_key(ev, key="user_id", order_col="ts",
                             id_col="event_id", out_col="delta_us")


def _q_chunk_windows(sf_dir: str):
    """Sliding-window chunking: overlapping 64-token windows at stride 48
    per document — the embedding/RAG sharding step (shuffle-free,
    vectorized flat-gather explode)."""
    from org_dharts_dia_tesseract_ray.functions.chunking import (
        chunk_documents)
    return chunk_documents(_read(sf_dir, "documents", ["doc_id", "text"]),
                           window=64, stride=48)


def _q_length_percent_rank(sf_dir: str):
    """Distributed PERCENT_RANK window: each document's length percentile
    within its language — the feature corpus filtering thresholds are
    calibrated on."""
    from org_dharts_dia_tesseract_ray.functions.stats import (
        percent_rank_per_key)
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return percent_rank_per_key(docs, key="lang", value_col="n_chars",
                                id_col="doc_id")


def _q_events_running_total(sf_dir: str):
    """Distributed per-key running total: cumulative spend per user in
    event order — SUM() OVER (PARTITION BY user ORDER BY ts, id); integer
    cents so the cumsum is exact at any scale."""
    from org_dharts_dia_tesseract_ray.functions.stats import (
        running_total_per_key)
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"], "ts": b["ts"],
            "event_id": b["event_id"],
            # half_towards_infinity == DuckDB round()'s half-away-from-zero
            # (pc.round's default half-to-even would diverge on exact-half
            # cents if value precision ever exceeded 2 decimals)
            "value_c": pc.round(
                pc.multiply(b["value"], pa.scalar(100.0)),
                round_mode="half_towards_infinity").cast(pa.int64())})

    ev = ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return running_total_per_key(ev, key="user_id", order_col="ts",
                                 id_col="event_id", value_col="value_c",
                                 out_col="running_c")


def _q_customers_with_recent_orders(sf_dir: str):
    """LEFT SEMI join (distributed EXISTS): customers with at least one
    order since 2000-01-01 — matched once, never multiplied (the
    complement of the anti query; shared body)."""
    return _customers_vs_recent_orders(sf_dir, "left semi")


def _q_customer_activity_shift(sf_dir: str):
    """FULL OUTER join of two aggregate sides: early-era vs late-era order
    counts per customer — one-sided customers carry nulls on the other
    side (200 left-only + 489 right-only rows at sf0.01)."""
    import datetime

    from org_dharts_dia_tesseract_ray.util import (default_num_partitions,
                                                   schema_pinned_join)

    def side(cut_lo, cut_hi, out_name):
        def prep(b: pa.Table) -> pa.Table:
            # typed seed: pa.array([]) is null-typed and pc.and_ has no
            # (null, bool) kernel — an empty block would crash otherwise
            m = pa.array([True] * b.num_rows, pa.bool_())
            if cut_lo is not None:
                m = pc.and_(m, pc.greater_equal(
                    b["o_orderdate"],
                    pa.scalar(cut_lo, b["o_orderdate"].type)))
            if cut_hi is not None:
                m = pc.and_(m, pc.less(
                    b["o_orderdate"],
                    pa.scalar(cut_hi, b["o_orderdate"].type)))
            return pa.table({"o_custkey": b.filter(m)["o_custkey"]})

        from org_dharts_dia_tesseract_ray.util import (
            count_combiner, grouped_arrow_aggregate)
        return grouped_arrow_aggregate(
            (_read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
             .map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)
             .map_batches(count_combiner("o_custkey"),
                          batch_format="pyarrow", zero_copy_batch=True),
             pa.schema([("o_custkey", pa.int64()), ("__n", pa.int64())])),
            "o_custkey", [("__n", "sum", out_name)])

    early = side(None, datetime.datetime(1996, 1, 1), "n_early")
    late = side(datetime.datetime(2001, 1, 1), None, "n_late")
    return schema_pinned_join(
        early, late, on=("o_custkey",),
        num_partitions=default_num_partitions(),
        left_schema=pa.schema([("o_custkey", pa.int64()),
                               ("n_early", pa.int64())]),
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("n_late", pa.int64())]),
        join_type="full outer")


def _q_order_shipments_90d(sf_dir: str):
    """Range join: per order, how many of its lineitems shipped within
    90 days of the order date."""
    from org_dharts_dia_tesseract_ray.functions.joins import range_join_count
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def prep(b: pa.Table) -> pa.Table:
        start = b["o_orderdate"]
        end = pc.add(pc.cast(start, pa.int64()),
                     pa.scalar(90 * 86_400_000_000))
        return pa.table({"l_orderkey": b["o_orderkey"],
                         "range_start": start,
                         "range_end": pc.cast(end, start.type)})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True)
    return range_join_count(li, orders, key="l_orderkey",
                            left_ts="l_shipdate",
                            right_start="range_start",
                            right_end="range_end")


def _q_events_sliding(sf_dir: str):
    from org_dharts_dia_tesseract_ray.functions.windows import (
        sliding_aggregate)
    return sliding_aggregate(_read(sf_dir, "events", ["ts", "event_type"]))


def _q_lineitem_sessions(sf_dir: str):
    """High-cardinality sessionization: ~147k distinct l_orderkey at sf0.1
    (~15k at the sf0.01 oracle scale) — the query that would time out on a
    per-key map_groups reducer and runs as P vectorized partition passes."""
    from org_dharts_dia_tesseract_ray.functions.windows import sessionize
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_shipdate"])
    return sessionize(li, gap_minutes=30 * 24 * 60, user_col="l_orderkey",
                      ts_col="l_shipdate", id_col="l_linenumber")


def _q_lineitem_asof_lastship(sf_dir: str):
    """High-cardinality as-of join (~147k keys at sf0.1): each lineitem
    picks up the line number of the latest shipment in the same order
    at-or-before its own ship date (self as-of)."""
    from org_dharts_dia_tesseract_ray.functions.joins import asof_join
    left = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_linenumber", "l_shipdate"])
    right = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_linenumber", "l_shipdate"])
    return asof_join(left, right, key="l_orderkey", left_ts="l_shipdate",
                     right_ts="l_shipdate", value_col="l_linenumber",
                     out_col="last_ship_line")


def _q_approx_distinct_tokens(sf_dir: str):
    """HLL sketch: ~1.6% error distinct-token counts per lang (rows-only
    check; accuracy vs exact asserted in tests)."""
    from org_dharts_dia_tesseract_ray.functions.sketch import (
        approx_distinct_tokens)
    return approx_distinct_tokens(_read(sf_dir, "documents",
                                        ["lang", "text"]))


def _q_revenue_by_region(sf_dir: str):
    """TPC-H Q5-flavored multi-hop rollup: lineitem joined through
    supplier → nation → region.  The three dimension hops COLLAPSE
    driver-side into one (s_suppkey → r_name) lookup before broadcast
    (a dim chain is never shuffled — ship one composed map once), then a
    single `broadcast_lookup` enrich + integer fixed-point revenue sums
    (the lineitem_pricing cents/bp trick — order-independent, exact SQL
    oracle at every scale)."""
    import ray.data
    from ray.data.aggregate import Sum

    from org_dharts_dia_tesseract_ray.functions.joins import (
        broadcast_lookup)

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"])
    dim = (sup.join(nat, keys="s_nationkey", right_keys="n_nationkey")
           .join(reg, keys="n_regionkey", right_keys="r_regionkey")
           .select(["s_suppkey", "r_name"]))

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"])
    enriched = broadcast_lookup(li, ray.data.from_arrow(dim),
                                key="l_suppkey", dim_key="s_suppkey",
                                carry={"r_name": "r_name"})

    def prep(b: pa.Table) -> pa.Table:
        # partial combine INSIDE the batch (5 regions → ≤5 rows leave each
        # batch) so the groupby exchange moves O(batches × regions) rows,
        # not O(lineitem) — integer partials keep the sum exact and
        # order-independent
        i64 = pa.int64()
        price_c = pc.round(pc.multiply(b["l_extendedprice"],
                                       pa.scalar(100.0))).cast(i64)
        disc_bp = pc.round(pc.multiply(b["l_discount"],
                                       pa.scalar(10000.0))).cast(i64)
        t = pa.table({
            "r_name": b["r_name"],
            "rev_u": pc.multiply(price_c,
                                 pc.subtract(pa.scalar(10000, i64),
                                             disc_bp)),
        })
        g = pa.TableGroupBy(t, "r_name").aggregate(
            [("rev_u", "sum"), ("rev_u", "count")])
        return pa.table({
            "r_name": g["r_name"],
            "rev_u": g["rev_u_sum"],
            "n_part": g["rev_u_count"].cast(i64),
        })

    agg = (enriched.map_batches(prep, batch_format="pyarrow",
                                zero_copy_batch=True)
           .groupby("r_name")
           .aggregate(Sum("rev_u", alias_name="rev_u"),
                      Sum("n_part", alias_name="n_items")))

    def quant(b: pa.Table) -> pa.Table:
        return pa.table({
            "r_name": b["r_name"],
            "revenue": pc.divide(
                pc.round(pc.divide(b["rev_u"].cast(pa.float64()),
                                   pa.scalar(10000.0)), 0,
                         round_mode="half_towards_infinity"),
                pa.scalar(100.0)),
            "n_items": b["n_items"],
        })

    return agg.map_batches(quant, batch_format="pyarrow")


def _q_lineitem_pricing(sf_dir: str):
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])

    cutoff = pa.scalar(np.datetime64(PRICING_CUTOFF, "us"),
                       pa.timestamp("us"))

    def prep(b: pa.Table) -> pa.Table:
        # integer fixed-point (cents / basis points) BEFORE the sum: float
        # Σ price·(1−disc) is order-dependent and at sf0.1 the group sums
        # land within ~0.005 of a 2-dp rounding boundary, so the quantized
        # result flips with partitioning — the PageRank integer-exactness
        # trick makes the sum order-independent and the oracle exact at
        # every scale (values are 2-dp/4-dp decimals stored as float, so
        # round() recovers the exact integers)
        b = b.filter(pc.less_equal(b["l_shipdate"], cutoff))
        i64 = pa.int64()
        qty_c = pc.round(pc.multiply(b["l_quantity"].cast(pa.float64()),
                                     pa.scalar(100.0))).cast(i64)
        price_c = pc.round(pc.multiply(b["l_extendedprice"],
                                       pa.scalar(100.0))).cast(i64)
        disc_bp = pc.round(pc.multiply(b["l_discount"],
                                       pa.scalar(10000.0))).cast(i64)
        disc_price_u = pc.multiply(
            price_c, pc.subtract(pa.scalar(10000, i64), disc_bp))
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "qty_c": qty_c,
            "price_c": price_c,
            "disc_price_u": disc_price_u,
            "disc_bp": disc_bp,
        })

    agg = (ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
           .groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("qty_c", alias_name="sum_qty_c"),
                      Sum("price_c", alias_name="sum_price_c"),
                      Sum("disc_price_u", alias_name="sum_disc_u"),
                      Sum("disc_bp", alias_name="sum_disc_bp"),
                      Count(alias_name="count_order")))

    def quant(b: pa.Table) -> pa.Table:
        f64 = pa.float64()
        half_away = "half_towards_infinity"
        n = b["count_order"].cast(f64)
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "sum_qty": pc.divide(b["sum_qty_c"].cast(f64),
                                 pa.scalar(100.0)),
            "sum_base_price": pc.divide(b["sum_price_c"].cast(f64),
                                        pa.scalar(100.0)),
            "sum_disc_price": pc.divide(
                pc.round(pc.divide(b["sum_disc_u"].cast(f64),
                                   pa.scalar(10000.0)), 0,
                         round_mode=half_away),
                pa.scalar(100.0)),
            "avg_disc": pc.divide(
                pc.round(pc.divide(
                    pc.multiply(b["sum_disc_bp"].cast(f64),
                                pa.scalar(100.0)), n), 0,
                         round_mode=half_away),
                pa.scalar(1e6)),
            "count_order": b["count_order"],
        })

    return agg.map_batches(quant, batch_format="pyarrow")


def queries() -> dict[str, Callable[[str], Any]]:
    """Checked by the driver in dict (insertion) order; a budget-limited run
    may not reach the tail (r02 and r03 both stopped at 50), so queries are
    ordered by EVIDENCE STALENESS (VERDICT r3 #2): code changed this round
    first, then code rewritten in r3 whose only driver verdict predates the
    rewrite, then the r03-green remainder."""
    _register_by_value()
    return {
        # --- changed last: one whitespace tokenizer (vocab.ws_tokens and
        # its DuckDB twin) under every token-counting operator and oracle ---
        "token_stats": _q_token_stats,
        "quality_score": _q_quality,
        "quality_buckets": _q_quality_buckets,
        "tokenize_ids": _q_tokenize_ids,
        "bigram_score": _q_bigram_score,
        "doc_frequency": _q_doc_frequency,
        "tfidf_top_term": _q_tfidf_top_term,
        "vocab_top100": _q_vocab_top100,
        "heavy_hitters": _q_heavy_hitters,
        "repetition_stats": _q_repetition_stats,
        "chunk_windows": _q_chunk_windows,
        "bm25_topk": _q_bm25_topk,
        "dedup_substrings": _q_dedup_substrings,
        "dup_substr_spans": _q_dup_substr_spans,
        "decontaminate": _q_decontaminate,
        "approx_distinct_tokens": _q_approx_distinct_tokens,
        "token_budget": _q_token_budget,
        "pack_sequences": _q_pack_sequences,
        "corpus_assembly": _q_corpus_assembly,
        # --- changed the round before: the single extract path, then the
        # round-4/5 entries whose driver verdicts are oldest ---
        "pages_dedup_extract": _q_pages_dedup_extract,
        "extract_links": _q_extract_links,
        "extract_meta": _q_extract_meta,
        "langid_multi": _q_langid_multi,
        "config_dump": _q_config_dump,
        "langid": _q_langid,
        "urgent_spend_right_customer": _q_urgent_spend_right_customer,
        "doc_stats_rollup": _q_doc_stats_rollup,
        "customers_with_recent_orders": _q_customers_with_recent_orders,
        "customer_activity_shift": _q_customer_activity_shift,
        "word_predicates": _q_word_predicates,
        "length_percent_rank": _q_length_percent_rank,
        "events_throttle": _q_events_throttle,
        "event_transitions": _q_event_transitions,
        "user_event_paths": _q_user_event_paths,
        "events_distinct_users": _q_events_distinct_users,
        "events_pivot": _q_events_pivot,
        "length_histogram": _q_length_histogram,
        "extract_contacts": _q_extract_contacts,
        "extract_font_attrs": _q_extract_font_attrs,
        "audio_features": _q_audio_features,
        "extract_roundtrip": _q_extract_roundtrip,
        "extract_spans": _q_extract_spans,
        "extract_subsup": _q_extract_subsup,
        "extract_mixed_pdf": _q_extract_mixed_pdf,
        "extract_boxes": _q_extract_boxes,
        "extract_charfilter_digits": _mode_query("charfilter_digits"),
        "extract_unlv": _q_extract_unlv,
        "extract_hocr": _q_extract_hocr,
        "checkpoint_resume": _q_checkpoint_resume,
        "revenue_by_region": _q_revenue_by_region,
        # --- end of the 50-query window: entries just checked inside it,
        # then the round-5 entries untouched since ---
        "media_decode": _q_media_decode,
        "media_resize": _q_media_resize,
        "compression_ratio": _q_compression_ratio,
        "top_docs_per_lang": _q_top_docs_per_lang,
        "normalize_text": _q_normalize_text,
        "dedup_normalized": _q_dedup_normalized,
        "events_running_total": _q_events_running_total,
        "events_interarrival": _q_events_interarrival,
        "temperature_sample": _q_temperature_sample,
        "lang_balanced_sample": _q_lang_balanced_sample,
        "weighted_mix": _q_weighted_mix,
        "stratified_sample": _q_stratified,
        "customer_order_counts": _q_customer_order_counts,
        "customers_no_orders": _q_customers_no_orders,
        # --- changed earlier in round 4 (oracle or engine touched) ---
        "neardup_simhash": _q_neardup_simhash,
        "pagerank": _q_pagerank,
        # --- rewritten in r3, only r02 driver evidence (VERDICT r3 #2) ---
        "dedup_exact": _q_dedup_exact,
        "neardup_minhash_lsh": _q_neardup_minhash,
        "neardup_clusters": _q_neardup_clusters,
        "neardup_keep_one": _q_neardup_keep_one,
        "neardup_cosine": _q_neardup_cosine,
        "neardup_cosine_bucketed": _q_neardup_cosine_bucketed,
        "ann_brute_topk": _q_ann_brute,
        "events_windowed": _q_events_windowed,
        "embeddings_pca": _q_embeddings_pca,
        # config-variant extract paths untouched this session (their shared
        # changed core is covered by 10 front extract queries): yield their
        # window slots to the r3-rewritten ANN family
        # each covered by a front sibling sharing its changed code path
        # (codec: media_decode/resize; broadcast_lookup: revenue_by_region;
        # substrdedup kernel: dedup_substrings; _rate_bucket_sample body:
        # temperature_sample)
        "media_frame_sample": _q_media_frames,
        "events_enrich_customer": _q_events_enrich_customer,
        "extract_mode_single_block": _mode_query("single_block"),
        "extract_selector_article": _mode_query("selector_article"),
        "extract_mode_text_only": _mode_query("text_only"),
        "extract_metrics_by_lang": _q_extract_metrics,
        "extract_custom_rule": _q_extract_custom_rule,
        # rows-only driver checks (weaker evidence regardless of position)
        # sit past the 50-query window; both are pytest/recall-tested
        "ann_ivf_topk": _q_ann_ivf,
        "neardup_jaccard_brute": _q_neardup_jaccard_brute,
        # windows/events family (registry curated round 5 — VERDICT r4 #6:
        # near-duplicate coverage merged into the named sibling so every
        # query's driver verdict stays <= 2 windows old by construction:
        # events_sessions -> lineitem_sessions (same sessionize, high-card);
        # events_latest_per_user -> dedup_exact (keep_first_per_key) +
        # top_docs_per_lang (topk combiner); events_asof_order ->
        # lineitem_asof_lastship (backward as-of) + events_asof_next_order
        # (forward); events_rollup -> doc_stats_rollup; length_ntile ->
        # length_percent_rank (same per-key ranked-window machinery);
        # sample_docs_per_lang -> top_docs_per_lang; unigram_score ->
        # bigram_score (same model build/broadcast/score path);
        # length_quantiles_by_lang -> lineitem_price_quantiles (exact) +
        # length_quantiles_sketch (mergeable); bigrams_top100 ->
        # vocab_top100 (same vocab_topk, n=2 kernel kept via bigram_score);
        # sample_10pct -> train_val_test_split (same content-hash split;
        # deterministic_sample now pytest-covered)
        "events_sliding_window": _q_events_sliding,
        "lineitem_sessions": _q_lineitem_sessions,
        "skew_topk": _q_skew_topk,
        "doc_stats_by_lang": _q_doc_stats_by_lang,
        "winnow_fingerprints": _q_winnow,
        "domain_cap": _q_domain_cap,
        "lineitem_price_quantiles": _q_lineitem_price_quantiles,
        "train_val_test_split": _q_split,
        # --- r03-green, code path unchanged since — tail ---
        "url_normalize": _q_url_normalize,
        "pii_redact": _q_pii_redact,
        "line_filter": _q_line_filter,
        "line_dedup": _q_line_dedup,
        "text_direction": _q_text_direction,
        "fingerprint_md5": _q_fingerprint,
        "orders_bloom_new": _q_orders_bloom_new,
        "warc_roundtrip": _q_warc_roundtrip,
        "length_quantiles_sketch": _q_length_quantiles_sketch,
        "lineitem_asof_lastship": _q_lineitem_asof_lastship,
        "events_asof_next_order": _q_events_asof_next_order,
        "order_shipments_90d": _q_order_shipments_90d,
        "lineitem_pricing": _q_lineitem_pricing,
    }


def _windows_sql(kind: str) -> str:
    from org_dharts_dia_tesseract_ray.functions.windows import (
        sessionize_sql, sliding_aggregate_sql, tumbling_aggregate_sql)
    return {"tumbling": tumbling_aggregate_sql,
            "sliding": sliding_aggregate_sql,
            "sessions": sessionize_sql}[kind]()


def _lineitem_sessions_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.windows import sessionize_sql
    return sessionize_sql(gap_minutes=30 * 24 * 60, table="lineitem",
                          user_col="l_orderkey", ts_col="l_shipdate",
                          id_col="l_linenumber")


def _sampling_sql(kind: str) -> str:
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        deterministic_sample_sql, split_sql, stratified_sample_sql)
    return {"sample": deterministic_sample_sql,
            "split": split_sql,
            "stratified": stratified_sample_sql}[kind]()


def _tfidf_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.vocab import (
        tfidf_top_term_sql)
    # N as a subquery — the oracle stays correct at ANY scale factor the
    # harness runs against (the Ray side reads N from its own sf_dir)
    return tfidf_top_term_sql("(SELECT count(*) FROM documents)")


def _stats_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import (
        grouped_quantiles_sql)
    return grouped_quantiles_sql()


def _url_normalize_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.urls import (
        normalize_urls_sql_expr)
    return f"""
WITH m AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN 'HTTP://Corpus.Test:80'
              ELSE 'HTTPS://Corpus.Test:443/doc/' || doc_id END ||
         CASE WHEN doc_id % 3 = 0 THEN '#frag-' || doc_id ELSE '' END AS url
  FROM documents)
SELECT doc_id, url, {normalize_urls_sql_expr('url')} AS url_norm FROM m"""


def _weighted_mix_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        weighted_mix_sql)
    return weighted_mix_sql(_MIX_WEIGHTS)


def _token_budget_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.vocab import ws_tokens_sql
    nt = f"len({ws_tokens_sql('text')})"
    return f"""
WITH m AS (
  SELECT doc_id, lang, CAST({nt} AS BIGINT) AS n_tokens FROM documents)
SELECT doc_id, lang, n_tokens FROM (
  SELECT doc_id, lang, n_tokens,
         SUM(COALESCE(n_tokens, 0)) OVER (PARTITION BY lang ORDER BY doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND CURRENT ROW) AS cum
  FROM m) WHERE cum <= {_TOKEN_BUDGET}"""


def _bloom_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.bloomdedup import (
        bloom_new_keys_sql)
    return bloom_new_keys_sql(
        "r.o_orderkey % 2 = 0", "o.o_orderkey % 2 = 1",
        table="orders", key_col="o_custkey",
        out_cols="o.o_orderkey, o.o_custkey")


def _heavy_hitters_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.heavyhitters import (
        heavy_hitters_sql)
    return heavy_hitters_sql(20)


def _corpus_assembly_sql_q() -> str:
    """The five-stage composition as one CTE chain: shaping → PII scrub →
    line filter → keep+dedup (min doc_id per distinct cleaned text) →
    token counts → sequence packing.  Every stage reuses the same
    module-level SQL the standalone oracles use."""
    from org_dharts_dia_tesseract_ray.functions.linefilter import (
        line_filter_sql)
    from org_dharts_dia_tesseract_ray.functions.packing import (
        pack_sequences_sql)
    from org_dharts_dia_tesseract_ray.functions.pii import pii_sql
    from org_dharts_dia_tesseract_ray.functions.vocab import ws_tokens_sql

    tail = ("'.' || chr(10) || 'enable javascript to continue.' || chr(10)"
            " || 'Short.' || chr(10)"
            " || 'A proper closing sentence appears right here.'")
    scrub = pii_sql(table="m1").lstrip()
    lf = line_filter_sql(table="scrub", text_col="redacted").lstrip()
    nt = f"len({ws_tokens_sql('text_kept')})"
    pack = pack_sequences_sql(_SEQ_LEN, table="dd").lstrip()
    return f"""
WITH m0 AS (
  SELECT doc_id,
    CASE WHEN doc_id % 4 = 0 THEN t1 || {tail}
         ELSE t1 || ' ends here.' END AS text
  FROM (SELECT doc_id,
               regexp_replace(text, ' table ', '.' || chr(10), 'g') AS t1
        FROM documents)),
m1 AS (
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
      FROM m0))),
scrub AS ({scrub}),
lf AS ({lf}),
dd AS (
  SELECT min(doc_id) AS doc_id, CAST({nt} AS BIGINT) AS n_tokens
  FROM lf WHERE keep_doc GROUP BY text_kept)
{pack}"""


def _pack_sequences_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.packing import (
        pack_sequences_sql)
    from org_dharts_dia_tesseract_ray.functions.vocab import ws_tokens_sql
    nt = f"len({ws_tokens_sql('text')})"
    body = pack_sequences_sql(_SEQ_LEN, table="m")
    return f"""
WITH m AS (
  SELECT doc_id, CAST({nt} AS BIGINT) AS n_tokens FROM documents)
{body.lstrip()}"""



def _decontaminate_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.decontam import (
        decontaminate_sql)
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


def _pii_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.pii import pii_sql
    body = pii_sql(table="m")
    return f"""
WITH m AS (
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
      FROM documents)))
{body.lstrip()}"""


def _extract_contacts_sql_q() -> str:
    from org_dharts_dia_tesseract_ray.functions.pii import (
        extract_contacts_sql)
    body = extract_contacts_sql(table="m")
    return f"""
WITH m AS (
  SELECT doc_id,
    CASE WHEN doc_id % 7 = 0
         THEN text || ' contact user' || doc_id
                   || '@corpus-test.example now'
         ELSE text END AS text
  FROM documents)
{body.lstrip()}"""


def _line_filter_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.linefilter import (
        line_filter_sql)
    body = line_filter_sql(table="m")
    tail = ("'.' || chr(10) || 'enable javascript to continue.' || chr(10)"
            " || 'Short.' || chr(10)"
            " || 'A proper closing sentence appears right here.'")
    return f"""
WITH m AS (
  SELECT doc_id,
    CASE WHEN doc_id % 4 = 0 THEN t1 || {tail}
         ELSE t1 || ' ends here.' END AS text
  FROM (SELECT doc_id,
               regexp_replace(text, ' table ', '.' || chr(10), 'g') AS t1
        FROM documents))
{body.lstrip()}"""


def _line_dedup_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.unitdedup import (
        unit_dedup_sql)
    body = unit_dedup_sql(table="m").lstrip()
    assert body.startswith("WITH ")
    return f"""
WITH m AS (
  SELECT doc_id,
         regexp_replace(text, ' table ', '.' || chr(10), 'g') AS text
  FROM documents),
{body[len("WITH "):]}"""


def _domain_cap_sql(k: int = 10) -> str:
    from org_dharts_dia_tesseract_ray.functions.capping import (
        domain_sql_expr)
    return f"""
WITH pages AS (
  SELECT 'https://site' || (doc_id % 17) || '.test/doc/' || doc_id AS url,
         doc_id, lang FROM documents)
SELECT url, doc_id, lang, domain FROM (
  SELECT url, doc_id, lang, {domain_sql_expr('url')} AS domain,
         row_number() OVER (PARTITION BY {domain_sql_expr('url')}
                            ORDER BY doc_id) AS rn
  FROM pages) WHERE rn <= {k}"""


def _lineitem_quantiles_sql() -> str:
    from org_dharts_dia_tesseract_ray.functions.stats import (
        grouped_quantiles_sql)
    return grouped_quantiles_sql(key="l_orderkey",
                                 value_col="l_extendedprice",
                                 table="lineitem")


def _vocab_sql(k: int, ngram: int) -> str:
    from org_dharts_dia_tesseract_ray.functions.vocab import (
        doc_frequency_sql, vocab_topk_sql)
    if k == 0:
        return doc_frequency_sql()
    return vocab_topk_sql(k, ngram=ngram)


def oracle_sql() -> dict[str, str]:
    from org_dharts_dia_tesseract_ray.functions.dedup import (
        cosine_neardup_sql, exact_dedup_sql)
    from org_dharts_dia_tesseract_ray.functions.fingerprint import md5_sql
    from org_dharts_dia_tesseract_ray.functions.similarity import (
        brute_topk_sql)
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        direction_sql, langid_sql, quality_sql, repetition_stats_sql,
        token_stats_sql)
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_spans_sql, roundtrip_sql)
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        boxes_sql, font_words_sql, hocr_sql, links_sql, meta_sql,
        mixed_pdf_sql, mode_sql, subsup_words_sql, unlv_sql,
        word_predicates_sql)
    from org_dharts_dia_tesseract_ray.functions.retrieval import (
        bm25_topk_sql)
    return {
        "bm25_topk": bm25_topk_sql(_BM25_QUERIES, k=10),
        "extract_links": links_sql(),
        "extract_meta": meta_sql(),
        "word_predicates": word_predicates_sql(),
        "customer_order_counts": """
SELECT c.c_custkey, c.c_mktsegment, o.n_orders
FROM customer c
LEFT JOIN (SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders
           FROM orders GROUP BY o_custkey) o
  ON c.c_custkey = o.o_custkey""",
        "customers_no_orders": """
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '2000-01-01')""",
        "urgent_spend_right_customer": """
SELECT c.c_custkey, s.urgent_cents, c.c_mktsegment
FROM (SELECT o_custkey AS c_custkey,
             CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
               AS urgent_cents
      FROM orders WHERE o_orderpriority = '1-URGENT'
      GROUP BY o_custkey) s
RIGHT JOIN customer c USING (c_custkey)""",
        "events_running_total": _running_total_sql_q(),
        "customers_with_recent_orders": """
SELECT c_custkey, c_name FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey
                AND o.o_orderdate >= TIMESTAMP '2000-01-01')""",
        "customer_activity_shift": """
SELECT o_custkey, e.n_early, l.n_late
FROM (SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_early FROM orders
      WHERE o_orderdate < TIMESTAMP '1996-01-01' GROUP BY o_custkey) e
FULL JOIN (SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_late FROM orders
      WHERE o_orderdate >= TIMESTAMP '2001-01-01' GROUP BY o_custkey) l
USING (o_custkey)""",
        "length_percent_rank": _percent_rank_sql_q(),
        "events_interarrival": _lag_delta_sql_q(),
        "events_throttle": _throttle_sql_q(),
        "event_transitions": _transitions_sql_q(),
        "user_event_paths": _ordered_concat_sql_q(),
        "doc_stats_rollup": _rollup_sql_q(),
        "events_distinct_users": _distinct_count_sql_q(),
        "events_pivot": _pivot_sql_q(),
        "length_histogram": _histogram_sql_q(),
        "chunk_windows": _chunk_windows_sql_q(),
        "tokenize_ids": _tokenize_ids_sql_q(),
        "top_docs_per_lang": _topk_per_key_sql_q(),
        "lang_balanced_sample": _lang_balanced_sql_q(),
        "temperature_sample": _temperature_sql_q(),
        "normalize_text": _normalize_text_sql_q(),
        "dedup_normalized": _dedup_normalized_sql_q(),
        "bigram_score": _bigram_score_sql_q(),
        "extract_font_attrs": font_words_sql(),
        "extract_hocr": hocr_sql(),
        "extract_unlv": unlv_sql(),
        "extract_roundtrip": roundtrip_sql(),
        "checkpoint_resume": roundtrip_sql(),
        "extract_spans": roundtrip_spans_sql(),
        "extract_mixed_pdf": mixed_pdf_sql(),
        "pages_dedup_extract": """
SELECT 'https://corpus.test/doc/' || doc_id AS url,
       'Doc ' || doc_id || chr(10) || chr(10) || 'rev2 ' || text
         AS extracted_text,
       2 AS n_blocks,
       'html' AS payload_kind
FROM documents""",
        "extract_boxes": boxes_sql(),
        "extract_custom_rule": roundtrip_spans_sql(
            heading_type="caption_text"),
        "extract_subsup": subsup_words_sql(),
        "extract_mode_text_only": mode_sql("text_only"),
        "extract_mode_single_block": mode_sql("single_block"),
        "extract_charfilter_digits": mode_sql("charfilter_digits"),
        "extract_selector_article": mode_sql("selector_article"),
        "extract_metrics_by_lang": """
SELECT lang,
       count(*) AS n_docs,
       CAST(sum(6 + length(CAST(doc_id AS VARCHAR)) + length(text)) AS BIGINT)
         AS total_chars,
       CAST(max(6 + length(CAST(doc_id AS VARCHAR)) + length(text)) AS BIGINT)
         AS max_chars,
       CAST(2 * count(*) AS BIGINT) AS total_blocks
FROM documents GROUP BY lang""",
        "token_stats": token_stats_sql(),
        "quality_score": quality_sql(),
        "repetition_stats": repetition_stats_sql(),
        "url_normalize": _url_normalize_sql(),
        "pii_redact": _pii_sql(),
        "extract_contacts": _extract_contacts_sql_q(),
        "line_filter": _line_filter_sql(),
        "line_dedup": _line_dedup_sql(),
        "domain_cap": _domain_cap_sql(),
        "langid": langid_sql(),
        "langid_multi": langid_sql(init_langs=_LANGID_INIT),
        # PrintVariables dump over the digits-fixture config: the oracle is
        # a hand-written VALUES literal of the canonical rendering, checking
        # the dump function's field order, bool→1/0, float repr, NULL
        # optionals, and variable passthrough against an independent
        # expectation (golden-literal style, like the op_goldens parquets).
        "config_dump": """
SELECT * FROM (VALUES
  ('mode', 'auto', 'field'),
  ('selector_tag', NULL, 'field'),
  ('char_whitelist', '0123456789-.', 'field'),
  ('char_blacklist', NULL, 'field'),
  ('max_link_density', '0.5', 'field'),
  ('long_para_words', '25', 'field'),
  ('long_para_max_link_density', '0.65', 'field'),
  ('emit_word_spans', '1', 'field'),
  ('block_rules', '0', 'field'),
  ('tessedit_zero_rejection', 'T', 'variable')
) AS t(name, "value", source)""",
        "text_direction": f"""
WITH m AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN repeat('{_RTL_SAMPLE}', 3)
              ELSE text END AS text
  FROM documents)
""" + direction_sql(table="m"),
        "fingerprint_md5": md5_sql(),
        "dedup_exact": exact_dedup_sql(),
        "orders_bloom_new": _bloom_sql_q(),
        "heavy_hitters": _heavy_hitters_sql_q(),
        "corpus_assembly": _corpus_assembly_sql_q(),
        "warc_roundtrip":
            "SELECT 'doc://' || doc_id AS url, text, lang FROM documents",
        "length_quantiles_sketch": _stats_sql(),
        "pagerank": _pagerank_sql_q(),
        "vocab_top100": _vocab_sql(100, 1),
        "train_val_test_split": _sampling_sql("split"),
        "stratified_sample": _sampling_sql("stratified"),
        "weighted_mix": _weighted_mix_sql_q(),
        "token_budget": _token_budget_sql(),
        "pack_sequences": _pack_sequences_sql_q(),
        "decontaminate": _decontaminate_sql_q(),
        "lineitem_price_quantiles": _lineitem_quantiles_sql(),
        "doc_frequency": _vocab_sql(0, 0),
        "tfidf_top_term": _tfidf_sql(),
        "neardup_cosine": cosine_neardup_sql(COS_THRESHOLD),
        "ann_brute_topk": brute_topk_sql(NUM_ANN_QUERIES, ANN_K),
        "skew_topk": f"""
SELECT doc_id, n_chars FROM documents
ORDER BY n_chars DESC, doc_id LIMIT {SKEW_K}""",
        "doc_stats_by_lang": """
SELECT lang, count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       max(n_chars) AS max_chars
FROM documents GROUP BY lang""",
        "events_windowed": _windows_sql("tumbling"),
        "events_sliding_window": _windows_sql("sliding"),
        "lineitem_sessions": _lineitem_sessions_sql(),
        "lineitem_asof_lastship": """
WITH r AS (SELECT l_orderkey, l_shipdate,
                  max(l_linenumber) AS last_ship_line
           FROM lineitem GROUP BY 1, 2)
SELECT l.l_orderkey, l.l_linenumber, l.l_shipdate,
       r.last_ship_line
FROM lineitem l
ASOF LEFT JOIN r ON l.l_orderkey = r.l_orderkey
                AND l.l_shipdate >= r.l_shipdate""",
        "events_asof_next_order": """
WITH r AS (SELECT o_custkey AS user_id, o_orderdate,
                  max(o_orderkey) AS o_orderkey
           FROM orders GROUP BY 1, 2)
SELECT e.event_id, e.user_id, e.ts, r.o_orderkey AS next_orderkey
FROM events e
ASOF LEFT JOIN r ON e.user_id = r.user_id AND e.ts <= r.o_orderdate""",
        "events_enrich_customer": """
SELECT e.event_id, e.user_id, e.event_type, c.c_name, c.c_mktsegment
FROM events e LEFT JOIN customer c ON e.user_id = c.c_custkey""",
        "order_shipments_90d": """
SELECT o.o_orderkey AS l_orderkey,
       o.o_orderdate AS range_start,
       o.o_orderdate + INTERVAL 90 DAY AS range_end,
       CAST(count(l.l_orderkey) AS BIGINT) AS n_in_range
FROM orders o LEFT JOIN lineitem l
  ON l.l_orderkey = o.o_orderkey
 AND l.l_shipdate >= o.o_orderdate
 AND l.l_shipdate <= o.o_orderdate + INTERVAL 90 DAY
GROUP BY 1, 2, 3""",
        # integer fixed-point mirror of the engine's cents/basis-point sums
        # (float SUMs are order-dependent and flip the 2-dp quantization at
        # sf0.1 — see _q_lineitem_pricing.prep)
        "lineitem_pricing": f"""
SELECT l_returnflag, l_linestatus,
       SUM(CAST(round(l_quantity * 100.0) AS BIGINT)) / 100.0 AS sum_qty,
       SUM(CAST(round(l_extendedprice * 100.0) AS BIGINT)) / 100.0
         AS sum_base_price,
       round(SUM(CAST(round(l_extendedprice * 100.0) AS BIGINT)
                 * (10000 - CAST(round(l_discount * 10000.0) AS BIGINT)))
             / 10000.0) / 100.0 AS sum_disc_price,
       round(SUM(CAST(round(l_discount * 10000.0) AS BIGINT)) * 100.0
             / count(*)) / 1000000.0 AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{PRICING_CUTOFF}'
GROUP BY l_returnflag, l_linestatus""",
        "quality_buckets": _quality_buckets_sql(),
        "neardup_keep_one": f"""
SELECT doc_id FROM read_parquet('{_REPO}/fixtures/op_goldens/"""
        """neardup_clusters.parquet') WHERE doc_id = cluster""",
        "revenue_by_region": """
SELECT r_name,
       round(SUM(CAST(round(l_extendedprice * 100.0) AS BIGINT)
                 * (10000 - CAST(round(l_discount * 10000.0) AS BIGINT)))
             / 10000.0) / 100.0 AS revenue,
       count(*) AS n_items
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name""",
        "dup_substr_spans": _substr_spans_sql(),
        "dedup_substrings": _substr_clean_sql(),
        # Golden-parquet oracles (pinned serial computations over sf0.01;
        # scripts/make_op_goldens.py — the LayoutIteratorTests golden-count
        # philosophy).  The near-dup pair goldens are INDEPENDENT brute-force
        # all-pairs runs, so they also prove the banded LSH/pigeonhole
        # candidate generation reaches full recall at these parameters;
        # clusters is a union-find, PCA a one-shot numpy fit.
        **{name: f"SELECT * FROM read_parquet('{_REPO}/fixtures/op_goldens/"
                 f"{name}.parquet')"
           for name in ("winnow_fingerprints", "neardup_minhash_lsh",
                        "neardup_jaccard_brute", "neardup_simhash",
                        "neardup_clusters", "neardup_cosine_bucketed",
                        "embeddings_pca",
                        "ann_ivf_topk", "approx_distinct_tokens",
                        "media_decode", "media_frame_sample",
                        "audio_features", "media_resize",
                        "compression_ratio")},
        # every queries() entry now carries an oracle; the approximate ones
        # additionally assert recall vs brute force in tests.
    }
