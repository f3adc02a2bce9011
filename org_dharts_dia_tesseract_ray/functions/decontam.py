"""Benchmark decontamination — flag training documents that share any
word n-gram with a held-out evaluation/benchmark set.

The standard LLM-corpus hygiene step (GPT-3 §C / PaLM / Llama papers):
an eval example leaking into pretraining data inflates benchmark scores,
so every document carrying a long-enough n-gram from the benchmark suite
is flagged (and typically dropped).  Benchmark suites are tiny next to
the corpus — a few MB of text against 100 TB — so this is the canonical
broadcast-small-side pattern, NOT a join:

1. hash every distinct word ``n``-gram of the benchmark set into one
   sorted uint64 array (driver holds only 8 bytes per distinct gram);
2. ``ray.put`` it once; every corpus task reads it zero-copy from the
   local object store;
3. per batch: one vectorized aligned-slice n-gram pass (the
   ``vocab.token_counts_batch`` trick), one ``_string_hash64``, one
   ``np.searchsorted`` membership probe — no Python per document, no
   shuffle anywhere.

Membership is compared through the shared 64-bit content hash, so a
false flag needs a hash collision between a corpus gram and a benchmark
gram (~``n_grams × |blocklist| / 2^64`` — negligible at any real scale).

Reference analogue: the wrapper's dictionary-word predicate consults an
engine-held word list per token (TessAPI.java:566 TessBaseAPIIsValidWord);
here the "dictionary" is the benchmark gram set broadcast to every worker.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import _string_hash64
from .vocab import doc_ngrams_batch, ws_tokens_sql


def ngram_hashes_batch(text_col, n: int):
    """(uint64 gram hashes, parent row index, n_docs) for one batch —
    the shared aligned-slice kernel (:func:`vocab.doc_ngrams_batch`)
    hashed through the repo's 64-bit content hash."""
    grams, parents, n_docs = doc_ngrams_batch(text_col, n)
    parents = np.asarray(parents, dtype=np.int64)
    if len(grams) == 0:
        return np.empty(0, np.uint64), parents, n_docs
    return _string_hash64(grams), parents, n_docs


def build_ngram_blocklist(bench_ds, *, n: int = 8,
                          text_col: str = "text") -> np.ndarray:
    """Sorted distinct uint64 n-gram hashes of the benchmark set.

    Each task emits its batch's DISTINCT hashes (8 bytes per gram); the
    driver unions them.  The benchmark side is small by definition — this
    is the documented small-side collection, mirroring
    ``joins.broadcast_lookup``'s dimension build.
    """
    def partial(b: pa.Table) -> pa.Table:
        h, _, _ = ngram_hashes_batch(b[text_col], n)
        return pa.table({"h": pa.array(np.unique(h), pa.uint64())})

    parts = bench_ds.map_batches(partial, batch_format="pyarrow",
                                 zero_copy_batch=True).take_all()
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.asarray([r["h"] for r in parts], dtype=np.uint64))


def decontaminate(ds, blocklist: np.ndarray, *, n: int = 8,
                  text_col: str = "text", id_col: str = "doc_id"):
    """(id, n_grams, n_contaminated, contaminated) per document.

    ``n_contaminated`` counts gram POSITIONS whose n-gram occurs in the
    benchmark set (occurrences, not distinct grams) — the quantity the
    usual "drop if any overlap" and "drop if > x% overlap" policies need.
    """
    import ray

    ref = ray.put(np.sort(np.asarray(blocklist, dtype=np.uint64)))

    def probe(b: pa.Table) -> pa.Table:
        bl = ray.get(ref)  # zero-copy local plasma read per task
        h, parents, n_docs = ngram_hashes_batch(b[text_col], n)
        n_grams = np.bincount(parents, minlength=n_docs)
        if len(h) and len(bl):
            pos = np.searchsorted(bl, h)
            pos[pos == len(bl)] = 0
            hit = bl[pos] == h
        else:
            hit = np.zeros(len(h), dtype=bool)
        n_cont = np.bincount(parents[hit], minlength=n_docs)
        return pa.table({
            id_col: b[id_col],
            "n_grams": pa.array(n_grams, pa.int64()),
            "n_contaminated": pa.array(n_cont, pa.int64()),
            "contaminated": pa.array(n_cont > 0),
        })

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def ngram_sql_expr(text_col: str, n: int) -> str:
    """DuckDB expression: list of space-joined word n-grams of a text."""
    t = ws_tokens_sql(text_col)
    return (f"list_transform(range(1, len({t}) - {n - 2}), "
            f"i -> array_to_string(list_slice({t}, i, i + {n - 1}), ' '))")


def decontaminate_sql(bench_predicate: str, *, n: int = 8,
                      table: str = "documents", text_col: str = "text",
                      id_col: str = "doc_id") -> str:
    """Oracle: exact-string n-gram membership (the hash-free ground truth).

    ``bench_predicate`` selects the benchmark rows (e.g. a doc_id rule).
    """
    return f"""
WITH g AS (
  SELECT {id_col}, unnest({ngram_sql_expr(text_col, n)}) AS gram
  FROM {table}
),
bench AS (SELECT DISTINCT gram FROM g WHERE {bench_predicate}),
cnt AS (
  SELECT {id_col}, CAST(count(*) AS BIGINT) AS n_grams,
         CAST(count(*) FILTER (gram IN (SELECT gram FROM bench)) AS BIGINT)
           AS n_contaminated
  FROM g GROUP BY {id_col}
)
SELECT d.{id_col},
       coalesce(c.n_grams, 0) AS n_grams,
       coalesce(c.n_contaminated, 0) AS n_contaminated,
       coalesce(c.n_contaminated, 0) > 0 AS contaminated
FROM {table} d LEFT JOIN cnt c USING ({id_col})"""
