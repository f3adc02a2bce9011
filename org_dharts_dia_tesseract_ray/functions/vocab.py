"""Corpus vocabulary building — token / n-gram frequency tables.

A core training-data-pipeline operation (tokenizer training, stopword
discovery, frequency filtering).  Classic two-phase aggregation
(ray_guide.md "Aggregation at scale"): tokens are exploded and PRE-COUNTED
inside each ``map_batches`` call (Arrow ``group_by`` — pure C), so the
shuffle carries one (token, partial_count) row per distinct token per batch
instead of one row per token occurrence; a vectorized ``Sum`` groupby then
merges partials and ``sort + limit`` yields the top-k.

Shuffle volume: O(distinct tokens × batches), independent of corpus token
count — the difference between shuffling 100 TB of tokens and a few GB of
partial counts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: interior token separator on both engines (RE2, ASCII ``\s`` only)
_WS_PATTERN = r"\s+"

#: code points ``pc.utf8_trim_whitespace`` strips: Unicode White_Space
#: plus the ASCII separators 0x1c-0x1f
_TRIM_CODEPOINTS = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F,
                    0x20, 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
                    0x2028, 0x2029, 0x202F, 0x205F, 0x3000)


def _trim_sql(col: str) -> str:
    """DuckDB twin of ``pc.utf8_trim_whitespace``: one-argument ``trim``
    strips spaces (Unicode Zs) but keeps tabs, newlines and the other
    control-range whitespace."""
    chars = " || ".join(f"chr({c})" for c in _TRIM_CODEPOINTS)
    return f"trim({col}, {chars})"


def ws_tokens(col) -> pa.ListArray:
    """The corpus whitespace tokenizer, as one ``list<string>`` chunk —
    every token-counting, -hashing and n-gram operator splits text here:

    - the edges are trimmed of Unicode White_Space plus the ASCII
      separators 0x1c-0x1f (``utf8_trim_whitespace``);
    - the rest splits on RE2 ``\\s+``, which is ASCII only, so an interior
      U+3000 or NBSP joins its neighbours (``"gamma\\u3000alpha"`` is one
      token);
    - ``""`` and whitespace-only text give ``[]``;
    - null gives null.

    :func:`ws_tokens_sql` is the DuckDB twin; both use RE2, so the oracles
    tokenize bit-identically."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(col), _WS_PATTERN)
    flat = toks.values
    empty = np.asarray(pc.equal(flat, ""))
    if not empty.any():
        return toks
    # the split of an emptied text is [""]: drop empty tokens and shift
    # each row's offsets by the empties before it
    offsets = np.asarray(toks.offsets)
    before = np.r_[0, np.cumsum(empty)]
    return pa.ListArray.from_arrays(
        pa.array(offsets - before[offsets], pa.int32()),
        flat.filter(pa.array(~empty)), mask=toks.is_null())


def ws_tokens_sql(col: str) -> str:
    """DuckDB twin of :func:`ws_tokens`: the same trim, the same RE2 split,
    and no empty token, so ``""`` and whitespace-only text give ``[]``."""
    return (f"list_filter(regexp_split_to_array({_trim_sql(col)}, "
            f"'{_WS_PATTERN}'), ws_tok -> ws_tok <> '')")


def join_ngrams(flat, parents, n: int):
    """Word ``n``-grams of a flat token stream plus the row each one
    belongs to — the shared aligned-slice kernel: join n aligned slices of
    ``flat`` element-wise, keep positions whose first and last token share
    a row of ``parents`` — no Python token loop.  Returns
    ``(grams, gram_parents)``."""
    width = len(flat) - n + 1
    if width <= 0:
        return pa.array([], pa.string()), pa.array([], pa.int64())
    grams = pc.binary_join_element_wise(
        *(flat.slice(i, width) for i in range(n)), " ")
    first = parents.slice(0, width)
    same_doc = pc.equal(first, parents.slice(n - 1, width))
    return grams.filter(same_doc), first.filter(same_doc)


def doc_ngrams_batch(text_col, n: int):
    """All word ``n``-grams of a batch plus the row each one belongs to
    (:func:`join_ngrams` over the :func:`ws_tokens` stream).  Text without
    tokens contributes no grams (its row still counts toward ``n_docs``).

    Returns ``(grams, parents, n_docs)``; at ``n=1`` that is the flat
    token stream plus each token's row, which every per-token operator
    (pair builders, scorers, sketches, substring dedup) reads.
    """
    toks = ws_tokens(text_col)
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    if n <= 1:
        return flat, parents, len(toks)
    return (*join_ngrams(flat, parents, n), len(toks))


def token_counts_batch(batch: pa.Table, *, text_col: str = "text",
                      ngram: int = 1) -> pa.Table:
    """(token, partial_count) — per-batch combiner, fully vectorized."""
    flat, _, _ = doc_ngrams_batch(batch[text_col], ngram)
    t = pa.table({"token": flat})
    counted = t.group_by("token").aggregate([("token", "count")])
    return pa.table({
        "token": counted["token"],
        "partial": counted["token_count"].cast(pa.int64()),
    })


def vocab_topk(ds, k: int = 100, *, text_col: str = "text", ngram: int = 1):
    """Top-k most frequent tokens: per-batch combine → Sum groupby →
    sort(count desc, token asc) → limit.  Deterministic tie-break."""
    from ..util import grouped_arrow_aggregate, mapped_side

    def counts(b: pa.Table) -> pa.Table:
        return token_counts_batch(b, text_col=text_col, ngram=ngram)

    totals = grouped_arrow_aggregate(mapped_side(ds, counts), "token",
                                     [("partial", "sum", "n")])
    return (totals.sort(["n", "token"], descending=[True, False]).limit(k))


def tokenize_ids(ds, model: pa.Table, *, text_col: str = "text",
                 id_col: str = "doc_id"):
    """text → token-id sequences against a broadcast vocabulary — the
    tokenization step that feeds sequence packing.

    ``model`` is the (token, n) table from :func:`vocab_topk` /
    ``build_unigram_model`` IN RANK ORDER (n desc, token asc): token id =
    1 + rank position, id 0 = OOV/UNK.  The model is ``ray.put`` once and
    read zero-copy per batch; per batch ONE ``index_in`` over the
    flattened token stream, then the id list is rebuilt on the split's
    own offsets — no Python token loop.  Output: (id, n_tokens, n_oov,
    ids list<int32>)."""
    import ray

    ref = ray.put(model["token"].combine_chunks())

    def encode(b: pa.Table) -> pa.Table:
        import numpy as np

        vocab = ray.get(ref)          # zero-copy local plasma read
        # null text → '' → no tokens, so the row SURVIVES with ids=[],
        # n_tokens=0 — mirrored by the oracle's LEFT JOIN back to the table
        tcol = b[text_col]
        if tcol.null_count:
            tcol = pc.fill_null(tcol, "")
        toks = ws_tokens(tcol)
        flat = pc.list_flatten(toks)
        idx = pc.index_in(flat, value_set=vocab)
        ids_flat = pc.fill_null(
            pc.add(idx.cast(pa.int32()), pa.scalar(1, pa.int32())),
            pa.scalar(0, pa.int32()))
        if isinstance(ids_flat, pa.ChunkedArray):
            ids_flat = ids_flat.combine_chunks()
        parents = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
        oov = np.asarray(pc.is_null(idx))
        n_oov = np.zeros(b.num_rows, np.int64)
        np.add.at(n_oov, parents[oov], 1)
        ids = pa.ListArray.from_arrays(toks.offsets, ids_flat)
        return pa.table({
            id_col: b[id_col],
            "n_tokens": pc.list_value_length(toks).cast(pa.int64()),
            "n_oov": pa.array(n_oov, pa.int64()),
            "ids": ids,
        })

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


def tokenize_ids_sql(vocab_size: int, *, table: str = "documents",
                     text_col: str = "text", id_col: str = "doc_id") -> str:
    """Oracle: same tokenizer, same (n desc, token asc) rank ids, OOV=0,
    ids projected to a CSV string (list columns don't hash in the
    compare frame); a document without tokens is joined back with zero
    counts, since ``unnest([])`` drops it."""
    return f"""
WITH lists AS (
  SELECT {id_col}, {ws_tokens_sql(text_col)} AS toks
  FROM {table}),
tok AS (
  SELECT {id_col}, unnest(toks) AS token,
         unnest(range(1, length(toks) + 1)) AS i
  FROM lists),
model AS (
  SELECT token, row_number() OVER (ORDER BY n DESC, token) AS tid
  FROM (SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok
        GROUP BY token ORDER BY n DESC, token LIMIT {vocab_size})),
enc AS (
  SELECT t.{id_col},
         CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(*) FILTER (m.tid IS NULL) AS BIGINT) AS n_oov,
         string_agg(CAST(COALESCE(m.tid, 0) AS VARCHAR), ','
                    ORDER BY t.i) AS ids_csv
  FROM tok t LEFT JOIN model m USING (token)
  GROUP BY t.{id_col})
SELECT d.{id_col},
       COALESCE(e.n_tokens, 0) AS n_tokens,
       COALESCE(e.n_oov, 0) AS n_oov,
       COALESCE(e.ids_csv, '') AS ids_csv
FROM {table} d LEFT JOIN enc e USING ({id_col})"""


def doc_frequency(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Inverted-index statistics: per token, document frequency + posting
    bounds (n_docs, min/max doc id).

    The posting-list build pattern without materializing lists through the
    shuffle: distinct (token, doc) pairs are emitted per batch (a doc lives
    in exactly one row, so pairs are globally unique), then ONE vectorized
    groupby aggregates the posting stats.  A full posting-list sink would
    replace the aggregate with ``map_groups`` writing sorted id runs.
    """
    def pairs(b: pa.Table) -> pa.Table:
        flat, parents, _ = doc_ngrams_batch(b[text_col], 1)
        doc = pc.take(b[id_col], parents)
        t = pa.table({"token": flat, id_col: doc})
        # distinct within doc (== globally distinct): vectorized group_by
        return t.group_by(["token", id_col]).aggregate([])

    from ..util import grouped_arrow_aggregate, mapped_side
    return grouped_arrow_aggregate(
        mapped_side(ds, pairs), "token", [(id_col, "count", "n_docs"),
                                          (id_col, "min", "min_doc"),
                                          (id_col, "max", "max_doc")])


def doc_frequency_sql(table: str = "documents", text_col: str = "text",
                      id_col: str = "doc_id") -> str:
    return f"""
SELECT token,
       CAST(count(*) AS BIGINT) AS n_docs,
       min({id_col}) AS min_doc, max({id_col}) AS max_doc
FROM (SELECT {id_col},
             unnest(list_distinct({ws_tokens_sql(text_col)})) AS token
      FROM {table})
GROUP BY token"""


def tfidf_top_term(ds, n_corpus: int, *, text_col: str = "text",
                   id_col: str = "doc_id", num_partitions: int | None = None):
    """Per document: the term with the highest tf·idf (idf = ln(N/df)).

    Web-scale composition — every stage is a Dataset op, nothing touches
    the driver, TWO all-to-alls total:

    1. (doc, token, tf) explode with per-batch Arrow ``group_by`` (globally
       distinct pairs by construction: a doc lives in one row);
    2. ONE token-keyed hash exchange: every token's pairs co-locate, so the
       document frequency is just the token's RUN LENGTH after an in-
       partition sort — no separate df aggregation, no join back (the
       former df-table + hash-join plan tokenized the corpus twice and
       paid a third shuffle; it also hit Ray's empty-block join hazard,
       now centrally solved by ``util.schema_pinned_join`` for the joins
       that remain elsewhere);
    3. vectorized scoring in the same pass (idf via ``math.log`` once per
       DISTINCT df value — bit-identical to the oracle's scalar ln), then
       the per-doc argmax as ONE packed-rank ``Max`` aggregate — the
       survivor-index pattern: tfidf's raw float64 bits (order-preserving
       for non-negative floats) zero-padded decimal, then ``|token``.

    Tie-break is (tfidf desc, token desc) — deterministic, mirrored in the
    SQL oracle's row_number.
    """
    import math

    import numpy as np

    from ..util import (cluster_cpus, grouped_arrow_aggregate,
                        hash_exchange, key_change_mask, mapped_side)

    if num_partitions is None:
        num_partitions = max(2, min(32, cluster_cpus()))

    def tf_pairs(b: pa.Table) -> pa.Table:
        flat, parents, _ = doc_ngrams_batch(b[text_col], 1)
        doc = pc.take(b[id_col], parents)
        t = pa.table({id_col: doc, "token": flat})
        g = t.group_by([id_col, "token"]).aggregate([("token", "count")])
        return pa.table({id_col: g[id_col], "token": g["token"],
                         "tf": g["token_count"].cast(pa.int64())})

    pairs, pair_schema = mapped_side(ds, tf_pairs)
    id_type = pair_schema.field(id_col).type
    tok_type = pair_schema.field("token").type
    rank_schema = pa.schema([(id_col, id_type), ("__rank", pa.string())])

    def score_part(part: pa.Table) -> pa.Table:
        part = part.sort_by([("token", "ascending")])
        n = part.num_rows
        # df = run length per token ((doc, token) pairs are globally
        # distinct, and ALL of a token's pairs live in this partition)
        change = key_change_mask(part["token"], n)
        run_id = np.cumsum(change) - 1
        dfv = np.bincount(run_id)[run_id]
        tf = np.asarray(pc.cast(part["tf"], pa.int64()))
        uniq, inv = np.unique(dfv, return_inverse=True)
        idf = np.array([math.log(n_corpus / d) for d in uniq],
                       dtype=np.float64)
        tfidf = tf.astype(np.float64) * idf[inv]
        bits = pa.array(tfidf.view(np.uint64))
        bits_str = pc.utf8_lpad(pc.cast(bits, pa.string()), 20, "0")
        rank = pc.binary_join_element_wise(bits_str, part["token"], "|")
        return pa.table({id_col: part[id_col], "__rank": rank})

    ranks = hash_exchange([(pairs, pair_schema)], "token", score_part,
                          rank_schema, num_partitions=num_partitions)
    best = grouped_arrow_aggregate((ranks, rank_schema), id_col,
                                   [("__rank", "max", "__best")])

    def unpack(b: pa.Table) -> pa.Table:
        import numpy as np
        if b.num_rows == 0:
            return pa.schema([(id_col, id_type), ("top_token", tok_type),
                              ("tfidf", pa.float64())]).empty_table()
        bits = np.asarray(
            pc.cast(pc.utf8_slice_codeunits(b["__best"], 0, 20),
                    pa.uint64()))
        tfidf = bits.view(np.float64)
        q = np.floor(tfidf * 1e6 + 0.5) / 1e6   # half away (tfidf >= 0)
        token = pc.utf8_slice_codeunits(b["__best"], 21, 2**31 - 1)
        return pa.table({id_col: b[id_col], "top_token": token,
                         "tfidf": pa.array(q, pa.float64())})

    return best.map_batches(unpack, batch_format="pyarrow",
                            zero_copy_batch=True)


def tfidf_top_term_sql(n_corpus, table: str = "documents",
                       text_col: str = "text",
                       id_col: str = "doc_id") -> str:
    """``n_corpus`` may be an int or a SQL expression string (e.g. a
    ``(SELECT count(*) …)`` subquery so the oracle tracks the table)."""
    return f"""
WITH pairs AS (
  SELECT {id_col}, token, CAST(count(*) AS BIGINT) AS tf
  FROM (SELECT {id_col},
               unnest({ws_tokens_sql(text_col)}) AS token
        FROM {table})
  GROUP BY {id_col}, token
),
df AS (
  SELECT token, CAST(count(DISTINCT {id_col}) AS BIGINT) AS n_docs
  FROM pairs GROUP BY token
),
scored AS (
  SELECT p.{id_col}, p.token,
         p.tf * ln({n_corpus} / df.n_docs) AS tfidf,
         row_number() OVER (PARTITION BY p.{id_col}
                            ORDER BY p.tf * ln({n_corpus} / df.n_docs) DESC,
                                     p.token DESC) AS rk
  FROM pairs p JOIN df USING (token)
)
SELECT {id_col}, token AS top_token,
       round(tfidf * 1000000.0) / 1000000.0 AS tfidf
FROM scored WHERE rk = 1"""


def vocab_topk_sql(k: int = 100, table: str = "documents",
                   text_col: str = "text", ngram: int = 1) -> str:
    if ngram == 1:
        return f"""
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM (SELECT unnest({ws_tokens_sql(text_col)}) AS token FROM {table})
GROUP BY token ORDER BY n DESC, token LIMIT {k}"""
    # adjacent-token n-grams built with list lambdas (no ordinality needed)
    return f"""
WITH l AS (
  SELECT {ws_tokens_sql(text_col)} AS toks FROM {table}
),
g AS (
  SELECT unnest(list_transform(range(1, len(toks)),
                               i -> toks[i] || ' ' || toks[i + 1]))
    AS token
  FROM l
)
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM g GROUP BY token ORDER BY n DESC, token LIMIT {k}"""
