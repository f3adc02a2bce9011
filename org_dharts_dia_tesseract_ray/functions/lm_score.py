"""Unigram language-model document scoring — rate each document by how
common its tokens are in the corpus, against a bounded top-V vocabulary.

The CCNet / Gopher quality axis the length/stopword heuristics
(:mod:`text_stats`) don't cover: documents dominated by tokens that are
rare corpus-wide (gibberish, boilerplate IDs, foreign scripts) score low;
fluent common-vocabulary prose scores high.  CCNet ranks by KenLM
perplexity; the corpus-frequency score here is the same signal computed
integer-exactly so the DuckDB oracle matches bit-for-bit (a float
``log p`` variant would hash-diverge on engine libm differences — the
integer sum is order-independent and exact).

Two-phase, both bounded:

1. **model build** — the :func:`vocab.vocab_topk` pipeline (per-batch
   pre-count combiner → Sum groupby → sort+limit) collected to the driver:
   V rows, a documented bounded materialization exactly like the IVF
   coarse-quantizer build (similarity.py).  Ties break (count desc, token
   asc) so the model is deterministic.
2. **scoring** — the model rides ``ray.put`` once; every task reads it
   zero-copy and scores its batch in one vectorized pass:
   ``pc.index_in`` (exact string lookup — no hash collisions), count
   gather, int64 per-doc sums via ``np.add.at``.  No shuffle.

Reference analogue: the dictionary-word predicate
(TessAPI.java:566 TessBaseAPIIsValidWord) — a per-token membership test
against an engine-held wordlist, here generalized to a frequency lookup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .vocab import ws_tokens_sql


def build_unigram_model(ds, *, vocab_size: int = 65536,
                        text_col: str = "text", ngram: int = 1) -> pa.Table:
    """Top-``vocab_size`` (token, n) corpus-frequency table, deterministic
    tie-break — a bounded driver-side model like the IVF centroids.
    ``ngram=2`` builds the adjacent-bigram model for :func:`score_ngrams`."""
    from .vocab import vocab_topk

    rows = vocab_topk(ds, k=vocab_size, text_col=text_col,
                      ngram=ngram).take_all()
    if not rows:
        return pa.table({"token": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    return pa.table({
        "token": pa.array([r["token"] for r in rows], pa.string()),
        "n": pa.array([int(r["n"]) for r in rows], pa.int64()),
    })


def _score_grams(m: pa.Table, grams, parents, n_docs: int):
    """Shared scoring kernel over a flattened gram/token stream: per-doc
    (occurrence count, OOV count, int64-exact model-frequency sum) via ONE
    ``index_in`` + three ``np.add.at`` reductions.  Both scorers call this
    — one implementation of the empty-model and OOV semantics."""
    par = np.asarray(parents, dtype=np.int64)
    count = np.zeros(n_docs, dtype=np.int64)
    np.add.at(count, par, 1)
    idx = pc.index_in(grams, value_set=m["token"])
    oov = np.asarray(pc.is_null(idx))
    n_oov = np.zeros(n_docs, dtype=np.int64)
    np.add.at(n_oov, par[oov], 1)
    freqs = np.asarray(m["n"])
    pos = np.asarray(pc.fill_null(idx, 0), dtype=np.int64)
    gram_freq = np.where(oov, 0, freqs[pos] if len(freqs) else 0)
    sum_freq = np.zeros(n_docs, dtype=np.int64)
    np.add.at(sum_freq, par, gram_freq)
    return count, n_oov, sum_freq


def score_unigram(ds, model: pa.Table, *, text_col: str = "text",
                  id_col: str = "doc_id"):
    """(id, n_tokens, n_oov, sum_freq, mean_freq) per document.

    ``sum_freq`` sums the model counts of the document's in-vocab token
    OCCURRENCES (int64-exact); ``mean_freq = sum_freq / n_tokens`` rounded
    half-away at 4 dp (the repo's shared float-parity convention); null
    when the document has no tokens.
    """
    import ray

    from .vocab import doc_ngrams_batch

    ref = ray.put(model)

    def score(b: pa.Table) -> pa.Table:
        m = ray.get(ref)          # zero-copy local plasma read
        flat, parents, n_docs = doc_ngrams_batch(b[text_col], 1)
        n_tokens, n_oov, sum_freq = _score_grams(m, flat, parents, n_docs)
        nz = pa.array(n_tokens > 0)
        mean = pc.divide(
            pc.round(pc.multiply(
                pc.divide(pa.array(sum_freq, pa.float64()),
                          pa.array(np.maximum(n_tokens, 1), pa.float64())),
                pa.scalar(10000.0)), 0,
                round_mode="half_towards_infinity"),
            pa.scalar(10000.0))
        return pa.table({
            id_col: b[id_col],
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_oov": pa.array(n_oov, pa.int64()),
            "sum_freq": pa.array(sum_freq, pa.int64()),
            "mean_freq": pc.if_else(nz, mean, pa.scalar(None, pa.float64())),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def score_ngrams(ds, model: pa.Table, *, n: int = 2,
                 text_col: str = "text", id_col: str = "doc_id"):
    """(id, n_grams, n_oov, sum_freq) per document over adjacent word
    ``n``-grams — the bigram generalization of :func:`score_unigram`
    (same integer-exact corpus-frequency signal, one step closer to the
    KenLM-style context-conditional score).  ``model`` comes from
    ``build_unigram_model(..., ngram=n)``; shares the
    :func:`vocab.doc_ngrams_batch` aligned-slice kernel."""
    import ray

    from .vocab import doc_ngrams_batch

    ref = ray.put(model)

    def score(b: pa.Table) -> pa.Table:
        m = ray.get(ref)          # zero-copy local plasma read
        grams, parents, n_docs = doc_ngrams_batch(b[text_col], n)
        n_grams, n_oov, sum_freq = _score_grams(m, grams, parents, n_docs)
        return pa.table({
            id_col: b[id_col],
            "n_grams": pa.array(n_grams, pa.int64()),
            "n_oov": pa.array(n_oov, pa.int64()),
            "sum_freq": pa.array(sum_freq, pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def bigram_score_sql(vocab_size: int, *, table: str = "documents",
                     text_col: str = "text",
                     id_col: str = "doc_id") -> str:
    """DuckDB oracle for :func:`score_ngrams` at n=2: same adjacent-bigram
    construction (list lambdas), same top-V tie-break, same integer sums;
    docs with <2 tokens appear with zeros via the LEFT JOIN."""
    return f"""
WITH l AS (
  SELECT {id_col},
         {ws_tokens_sql(text_col)} AS toks
  FROM {table}),
g AS (
  SELECT {id_col},
         unnest(list_transform(range(1, len(toks)),
                               i -> toks[i] || ' ' || toks[i + 1])) AS gram
  FROM l),
cnt AS (
  SELECT gram, CAST(count(*) AS BIGINT) AS n FROM g GROUP BY gram),
model AS (
  SELECT gram, n FROM cnt ORDER BY n DESC, gram LIMIT {vocab_size}),
scored AS (
  SELECT g.{id_col},
         CAST(count(*) AS BIGINT) AS n_grams,
         CAST(count(*) FILTER (m.gram IS NULL) AS BIGINT) AS n_oov,
         CAST(COALESCE(SUM(m.n), 0) AS BIGINT) AS sum_freq
  FROM g LEFT JOIN model m USING (gram)
  GROUP BY g.{id_col})
SELECT d.{id_col},
       COALESCE(s.n_grams, 0) AS n_grams,
       COALESCE(s.n_oov, 0) AS n_oov,
       COALESCE(s.sum_freq, 0) AS sum_freq
FROM {table} d LEFT JOIN scored s USING ({id_col})"""


def unigram_score_sql(vocab_size: int = 65536, *,
                      table: str = "documents", text_col: str = "text",
                      id_col: str = "doc_id") -> str:
    """DuckDB oracle: same tokenizer, same top-V tie-break, same integer
    sums, same 4 dp half-away rounding."""
    return f"""
WITH tok AS (
  SELECT {id_col},
         unnest({ws_tokens_sql(text_col)}) AS token
  FROM {table}),
cnt AS (
  SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY token),
model AS (
  SELECT token, n FROM cnt ORDER BY n DESC, token LIMIT {vocab_size}),
scored AS (
  SELECT t.{id_col},
         CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(*) FILTER (m.token IS NULL) AS BIGINT) AS n_oov,
         CAST(COALESCE(SUM(m.n), 0) AS BIGINT) AS sum_freq
  FROM tok t LEFT JOIN model m USING (token)
  GROUP BY t.{id_col})
SELECT d.{id_col},
       COALESCE(s.n_tokens, 0) AS n_tokens,
       COALESCE(s.n_oov, 0) AS n_oov,
       COALESCE(s.sum_freq, 0) AS sum_freq,
       CASE WHEN COALESCE(s.n_tokens, 0) = 0 THEN NULL
            ELSE round(s.sum_freq / s.n_tokens * 10000.0) / 10000.0
       END AS mean_freq
FROM {table} d LEFT JOIN scored s USING ({id_col})"""


def quality_buckets(scored_ds, *, id_col: str = "doc_id",
                    value_col: str = "mean_freq", capacity: int = 65536,
                    num_partitions: int | None = None):
    """(id, mean_freq, bucket) — the CCNet head/middle/tail split: corpus
    tercile thresholds of the unigram score, then a broadcast bucket
    assignment.

    Thresholds come from the MERGEABLE quantile-summary path
    (:mod:`qsketch`, constant key — shuffle bounded by capacity, exact at
    oracle scale per the shared sizing discipline), so the thresholds and
    the bucketing are both SQL-expressible.  The slim (id, score)
    projection is materialized ONCE and feeds both the threshold sketch
    and the assignment pass (the pack_sequences lesson: a twice-consumed
    lazy upstream re-executes per consumer); ~16 B/doc, the same bounded
    class as the exact-dedup digest exchange.  Documents with no tokens
    (null score) land in ``tail`` — CCNet drops them, a policy layer can
    filter on the bucket.
    """
    import numpy as np

    from .qsketch import grouped_quantiles_sketch

    slim = scored_ds.select_columns([id_col, value_col]).materialize()
    if slim.count() == 0:
        # Ray never invokes map_batches UDFs on empty blocks — pin the
        # 3-column output schema statically (pack_sequences precedent)
        import ray.data

        from ..util import ds_arrow_schema
        id_type = ds_arrow_schema(slim).field(id_col).type
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], id_type),
            value_col: pa.array([], pa.float64()),
            "bucket": pa.array([], pa.string()),
        }))

    def addk(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__k", pa.array(np.zeros(b.num_rows, np.int8)))

    qt = grouped_quantiles_sketch(
        slim.map_batches(addk, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="__k", value_col=value_col, quantiles=(1 / 3, 2 / 3),
        capacity=capacity, num_partitions=num_partitions)
    rows = qt.take_all()                      # ≤ 1 row (constant key)
    t1 = rows[0]["q33"] if rows else None
    t2 = rows[0]["q66"] if rows else None

    def assign(b: pa.Table) -> pa.Table:
        mf = b[value_col]
        arr = np.asarray(mf.to_numpy(zero_copy_only=False),
                         dtype=np.float64)
        isnull = np.isnan(arr)
        if t1 is None:
            bucket = np.full(b.num_rows, "tail", dtype=object)
        else:
            bucket = np.where(
                isnull | (arr <= t1), "tail",
                np.where(arr <= t2, "middle", "head"))
        return pa.table({
            id_col: b[id_col],
            value_col: mf,
            "bucket": pa.array(bucket.tolist(), pa.string()),
        })

    return slim.map_batches(assign, batch_format="pyarrow",
                            zero_copy_batch=True)


def quality_buckets_sql(vocab_size: int = 65536, *,
                        table: str = "documents", text_col: str = "text",
                        id_col: str = "doc_id") -> str:
    """DuckDB oracle: unigram score CTE → quantile_cont terciles (same
    double q literals, same 4 dp half-away rounding) → CASE bucketing."""
    u = unigram_score_sql(vocab_size, table=table, text_col=text_col,
                          id_col=id_col)
    q1, q2 = repr(1 / 3), repr(2 / 3)
    return f"""
WITH u AS ({u}),
thr AS (
  SELECT round(quantile_cont(mean_freq, {q1}) * 10000.0) / 10000.0 AS t1,
         round(quantile_cont(mean_freq, {q2}) * 10000.0) / 10000.0 AS t2
  FROM u)
SELECT u.{id_col}, u.mean_freq,
       CASE WHEN u.mean_freq IS NULL OR u.mean_freq <= thr.t1 THEN 'tail'
            WHEN u.mean_freq <= thr.t2 THEN 'middle'
            ELSE 'head' END AS bucket
FROM u, thr"""
