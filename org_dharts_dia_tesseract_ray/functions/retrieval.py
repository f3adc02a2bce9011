"""BM25 keyword retrieval — top-k documents per query over the corpus.

The ranking/search family the engine's other text operators feed but did
not yet provide: data-curation practice uses exactly this to pull the
documents most similar to benchmark prompts (decontamination triage), to
build seed sets for quality classifiers, and as the sparse baseline next
to the dense ANN operators (``functions/similarity``).  Okapi BM25
(Robertson et al.), the standard parameterization::

    idf(t)      = ln(1 + (N - df_t + 0.5) / (df_t + 0.5))
    score(d, q) = Σ_{t ∈ q}  idf(t) · tf_td·(k1+1) / (tf_td + k1·(1 − b + b·len_d/avg_len))

Scale shape (two corpus scans, nothing unbounded on the driver):

1. **Stats pass** — one column-pruned sweep tokenizes (the shared
   corpus tokenization: trim + ``\\s+`` split) and emits per-batch
   partial rows: df per query term (a document lives in exactly one row,
   so batch-distinct (doc, term) pairs are globally distinct and df is
   additive), plus one sentinel row carrying doc-count and token-length
   sums.  Reduced by :func:`util.grouped_arrow_aggregate`; the collected
   result is ≤ |query terms| + 1 rows — bounded by the QUERY side, never
   the corpus.
2. **Scoring pass** — the tiny model (term vocab, idf vector, term→query
   CSR, avg_len) ships inside the batch fn (a few hundred bytes — below
   the ray.put threshold); per batch ONE ``index_in`` against the term
   vocab, tf per (doc, term) via a packed-key ``np.unique``, vectorized
   score chain, CSR expansion to (doc, query) contributions, bincount
   reduction.  Output rows only for matching (doc, query) pairs.
3. **Top-k** — :func:`stats.topk_per_key` (per-batch combiner prune →
   one hash exchange keyed by query → per-partition rank), tie-break
   (score desc, doc id asc).

Determinism / oracle notes: N, df, tf and Σlen are exact integers, and
the per-term float chain is written in the SAME operation order as the
SQL oracle, so per-term scores agree to the last ulp up to libm/log
differences; the cross-term sum's addition order is engine-defined on
both sides, so final scores are quantized half-away at 4 dp (the
``quality_score`` convention — decimal-boundary collisions have measure
zero) BEFORE ranking, and ranking ties break on doc id.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import grouped_arrow_aggregate, ragged_arange
from .vocab import doc_ngrams_batch, ws_tokens, ws_tokens_sql

K1_DEFAULT = 1.2
B_DEFAULT = 0.75


def _query_terms(queries: list[str]) -> tuple[list[str], np.ndarray,
                                              np.ndarray]:
    """(sorted unique terms, CSR offsets per term, query-id list) — each
    term maps to every query containing it (duplicates within one query
    collapse, as in the oracle's DISTINCT VALUES list)."""
    per_q = [sorted(set(ts)) for ts in
             ws_tokens(pa.array(queries, pa.string())).to_pylist()]
    terms = sorted({t for ts in per_q for t in ts})
    tix = {t: i for i, t in enumerate(terms)}
    pairs = sorted((tix[t], qi) for qi, ts in enumerate(per_q) for t in ts)
    qlist = np.array([q for _, q in pairs], dtype=np.int64)
    counts = np.bincount([t for t, _ in pairs], minlength=len(terms))
    qoff = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return terms, qoff, qlist


def _tokenize(b: pa.Table, text_col: str):
    """(flat tokens, per-token row, per-row token count)."""
    flat, parents, n_docs = doc_ngrams_batch(b[text_col], 1)
    parents = np.asarray(parents, dtype=np.int64)
    return flat, parents, np.bincount(parents, minlength=n_docs)


def bm25_topk(ds, queries: list[str], *, k: int = 10,
              k1: float = K1_DEFAULT, b: float = B_DEFAULT,
              text_col: str = "text", id_col: str = "doc_id"):
    """(query_id, doc_id, score, rank) — top-k BM25 documents per query."""
    from .stats import topk_per_key

    terms, qoff, qlist = _query_terms(queries)
    T = len(terms)
    vocab = pa.array(terms, pa.string())

    def drop_null(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t[text_col]))

    docs = ds.map_batches(drop_null, batch_format="pyarrow",
                          zero_copy_batch=True)

    # ---- pass 1: bounded stats (df per term, N, Σlen)
    def partials(bt: pa.Table) -> pa.Table:
        flat, parents, lens = _tokenize(bt, text_col)
        ti = pc.index_in(flat, value_set=vocab)
        m = np.asarray(pc.is_valid(ti))
        hit_t = np.asarray(pc.fill_null(ti, 0), dtype=np.int64)[m]
        hit_d = parents[m]
        uniq = np.unique(hit_d * np.int64(T) + hit_t)
        df = np.bincount((uniq % T).astype(np.int64), minlength=T)
        return pa.table({
            "ti": pa.array(np.concatenate((np.arange(T), [-1])), pa.int64()),
            "df": pa.array(np.concatenate((df, [0])), pa.int64()),
            "docs": pa.array([0] * T + [bt.num_rows], pa.int64()),
            "len_sum": pa.array([0] * T + [int(lens.sum())], pa.int64()),
        })

    stats_rows = grouped_arrow_aggregate(
        (docs.map_batches(partials, batch_format="pyarrow",
                          zero_copy_batch=True),
         pa.schema([(c, pa.int64()) for c in ("ti", "df", "docs",
                                              "len_sum")])),
        "ti", [("df", "sum", "df"), ("docs", "sum", "docs"),
               ("len_sum", "sum", "len_sum")],
    ).take_all()            # ≤ T+1 rows — bounded by the query side
    df = np.zeros(T, dtype=np.float64)
    n_docs = 0
    len_sum = 0
    for r in stats_rows:
        if r["ti"] < 0:
            n_docs += r["docs"]
            len_sum += r["len_sum"]
        else:
            df[r["ti"]] = r["df"]
    n = float(n_docs)
    avg_len = (float(len_sum) / n_docs) if n_docs else 1.0
    idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))

    # ---- pass 2: score (doc, query) pairs with ≥1 matching term
    def score(bt: pa.Table) -> pa.Table:
        flat, parents, lens = _tokenize(bt, text_col)
        ti = pc.index_in(flat, value_set=vocab)
        m = np.asarray(pc.is_valid(ti))
        hit_t = np.asarray(pc.fill_null(ti, 0), dtype=np.int64)[m]
        hit_d = parents[m]
        uniq, tf = np.unique(hit_d * np.int64(T) + hit_t,
                             return_counts=True)
        drow = (uniq // T).astype(np.int64)
        term = (uniq % T).astype(np.int64)
        tf = tf.astype(np.float64)
        len_d = lens[drow].astype(np.float64)
        # SAME operation order as the SQL oracle — per-term bit parity
        contrib = (idf[term] * tf * (k1 + 1.0)
                   / (tf + k1 * (1.0 - b + b * len_d / avg_len)))
        rep = qoff[term + 1] - qoff[term]
        src = np.repeat(np.arange(len(uniq), dtype=np.int64), rep)
        qid = qlist[np.repeat(qoff[term], rep) + ragged_arange(rep)]
        packed = drow[src] * np.int64(len(queries)) + qid
        keys, inv = np.unique(packed, return_inverse=True)
        s = np.bincount(inv, weights=contrib[src])
        # half-away 4 dp quantization (scores are ≥ 0), BEFORE ranking
        s = np.floor(s * 10000.0 + 0.5) / 10000.0
        out_d = (keys // len(queries)).astype(np.int64)
        ids = np.asarray(bt[id_col], dtype=np.int64)[out_d]
        return pa.table({
            "query_id": pa.array(keys % len(queries), pa.int64()),
            id_col: pa.array(ids, pa.int64()),
            "score": pa.array(s, pa.float64()),
        })

    scored = docs.map_batches(score, batch_format="pyarrow",
                              zero_copy_batch=True)
    return topk_per_key(scored, key="query_id", value_col="score",
                        id_col=id_col, k=k)


def bm25_topk_sql(queries: list[str], *, k: int = 10,
                  k1: float = K1_DEFAULT, b: float = B_DEFAULT,
                  table: str = "documents", text_col: str = "text",
                  id_col: str = "doc_id") -> str:
    """DuckDB replica — built from the same queries constant; integer
    stats are exact, the float chain is written in the operator's op
    order, scores quantize half-away at 4 dp before the rank window."""
    terms, qoff, qlist = _query_terms(queries)
    pairs = ", ".join(
        f"({int(q)}, '{terms[t]}')"
        for t in range(len(terms))
        for q in qlist[qoff[t]:qoff[t + 1]])
    return f"""
WITH qt(query_id, term) AS (VALUES {pairs}),
docs AS (
  SELECT {id_col}, {ws_tokens_sql(text_col)} AS toks
  FROM {table} WHERE {text_col} IS NOT NULL),
tok AS (SELECT {id_col}, unnest(toks) AS term FROM docs),
lens AS (SELECT {id_col}, CAST(len(toks) AS BIGINT) AS len FROM docs),
st AS (SELECT CAST(count(*) AS DOUBLE) AS n,
              CAST(sum(len) AS DOUBLE) / count(*) AS avg_len
       FROM lens),
tf AS (SELECT {id_col}, term, CAST(count(*) AS DOUBLE) AS tf
       FROM tok WHERE term IN (SELECT term FROM qt)
       GROUP BY {id_col}, term),
dft AS (SELECT term, CAST(count(DISTINCT {id_col}) AS DOUBLE) AS df
        FROM tok WHERE term IN (SELECT term FROM qt)
        GROUP BY term),
sc AS (
  SELECT qt.query_id, tf.{id_col},
         SUM(ln(1.0 + (st.n - dft.df + 0.5) / (dft.df + 0.5))
             * tf.tf * ({k1} + 1.0)
             / (tf.tf + {k1} * (1.0 - {b}
                                + {b} * CAST(lens.len AS DOUBLE)
                                  / st.avg_len))) AS s
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN dft ON dft.term = qt.term
  JOIN lens ON lens.{id_col} = tf.{id_col}
  CROSS JOIN st
  GROUP BY qt.query_id, tf.{id_col}),
r AS (
  SELECT query_id, {id_col}, round(s, 4) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(s, 4) DESC, {id_col}) AS rank
  FROM sc)
SELECT CAST(query_id AS BIGINT) AS query_id, {id_col}, score,
       CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {k}"""
