"""Similarity search over an embedding column (list<float>).

Two paths, as a large-scale training-data pipeline needs:

* :func:`brute_topk` — exact cosine top-k.  The QUERY matrix (small side) is
  broadcast once via ``ray.put``; every corpus batch does one numpy matmul
  and emits its per-batch top-k candidates; a ``groupby(query_id)`` merge
  keeps the global top-k.  Shuffle volume = O(num_queries × k × batches),
  never the corpus.  DuckDB-oracle-checkable.
* :func:`IvfIndex` / :func:`ivf_topk` — the scale path: a coarse k-means
  quantizer (built deterministically on a driver-side sample) buckets the
  corpus; queries probe only the ``nprobe`` nearest buckets.  Recall is
  validated against the brute-force baseline in tests, not an SQL oracle.

Determinism: all distances computed in float64 with a fixed op order; ties
broken by ascending id everywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _stack(vec_col) -> np.ndarray:
    vals = vec_col.to_pylist()
    if not vals:                        # zero-row batch (e.g. IVF pruning)
        return np.zeros((0, 0), dtype=np.float64)
    return np.stack([np.asarray(v, dtype=np.float64) for v in vals])


def _normalize(M: np.ndarray) -> np.ndarray:
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def _q4(x: np.ndarray) -> np.ndarray:
    # half-away-from-zero to match DuckDB round() — np.round is
    # half-to-even and diverges on exact halves; cosines can be negative
    s = x * 10000.0
    return np.where(s >= 0, np.floor(s + 0.5), np.ceil(s - 0.5)) / 10000.0


# ---------------------------------------------------------------------------
# exact brute-force top-k


def brute_topk(ds, query_ids: np.ndarray, Q: np.ndarray, k: int = 5,
               *, vec_col: str = "embedding", id_col: str = "vec_id",
               exclude_self: bool = True):
    """Exact cosine top-k: per-batch partial top-k + groupby merge.

    Returns (query_id, neighbor_id, cos) — exactly k rows per query,
    ordered by (cos desc, neighbor_id asc) within each query.
    """
    import ray

    Qn = _normalize(np.asarray(Q, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    qref = ray.put((qids, Qn))

    def partial_topk(b: pa.Table) -> pa.Table:
        # task-mode broadcast: ray.get of a local plasma object is a
        # zero-copy numpy view (~µs) — no actor pool needed for cheap
        # state (actor path measured ~2× slower with startup variance)
        bqids, bQn = ray.get(qref)
        if b.num_rows == 0:             # IVF pruning can empty a batch
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        ids = np.asarray(b[id_col], dtype=np.int64)
        V = _normalize(_stack(b[vec_col]))
        C = bQn @ V.T                               # (nq, nb)
        if exclude_self:
            mask = bqids[:, None] == ids[None, :]
            C = np.where(mask, -np.inf, C)
        nb = C.shape[1]
        kk = min(k, nb)
        # per-query partial top-k inside the batch (argpartition then
        # exact sort of the k candidates — deterministic tie-break on id)
        part = np.argpartition(-C, kk - 1, axis=1)[:, :kk]
        q_out, n_out, c_out = [], [], []
        for qi in range(len(bqids)):
            cand = part[qi]
            cos = C[qi, cand]
            order = np.lexsort((ids[cand], -cos))
            for j in order:
                if np.isfinite(cos[j]):
                    q_out.append(int(bqids[qi]))
                    n_out.append(int(ids[cand[j]]))
                    c_out.append(float(cos[j]))
        return pa.table({
            "query_id": pa.array(q_out, pa.int64()),
            "neighbor_id": pa.array(n_out, pa.int64()),
            "cos": pa.array(c_out, pa.float64()),
        })

    partial = ds.map_batches(partial_topk, batch_format="pyarrow",
                             zero_copy_batch=True)

    def merge(group: pa.Table) -> pa.Table:
        cos = np.asarray(group["cos"])
        nid = np.asarray(group["neighbor_id"])
        order = np.lexsort((nid, -cos))[:k]
        out = group.take(pa.array(order))
        return pa.table({
            "query_id": out["query_id"],
            "neighbor_id": out["neighbor_id"],
            "cos": pa.array(_q4(np.asarray(out["cos"])), pa.float64()),
        })

    return partial.groupby("query_id").map_groups(merge,
                                                  batch_format="pyarrow")


def brute_topk_sql(num_queries: int, k: int = 5,
                   table: str = "embeddings") -> str:
    """Oracle: window top-k with the same (cos desc, id asc) tie-break;
    queries = the first ``num_queries`` vec_ids (matching
    ``harness/dedup._query_matrix``)."""
    return f"""
WITH q AS (SELECT vec_id, embedding FROM {table} WHERE vec_id < {num_queries}),
s AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.embedding::DOUBLE[],
                                e.embedding::DOUBLE[]) AS cos_raw
  FROM q JOIN {table} e ON e.vec_id <> q.vec_id
),
r AS (
  SELECT query_id, neighbor_id, cos_raw,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY cos_raw DESC, neighbor_id ASC) AS rk
  FROM s
)
SELECT query_id, neighbor_id,
       round(cos_raw * 10000.0) / 10000.0 AS cos
FROM r WHERE rk <= {k}"""


# ---------------------------------------------------------------------------
# IVF (coarse-quantized) approximate search — the scale path


class IvfIndex:
    """Deterministic coarse quantizer: k-means with first-C init + fixed
    Lloyd iterations over a driver-side sample.

    At 100 TB the sample is a ``ds.random_sample(frac, seed)`` — training a
    coarse quantizer never needs the full corpus.  Bucket assignment is then
    a streaming ``map_batches``; the index on disk is just a bucket column.
    """

    def __init__(self, centroids: np.ndarray):
        self.centroids = _normalize(centroids)

    @classmethod
    def train(cls, sample: np.ndarray, n_centroids: int = 16,
              iters: int = 5) -> "IvfIndex":
        X = _normalize(np.asarray(sample, dtype=np.float64))
        C = X[:n_centroids].copy()                 # deterministic init
        for _ in range(iters):
            assign = (X @ _normalize(C).T).argmax(axis=1)
            for c in range(n_centroids):
                members = X[assign == c]
                if len(members):
                    C[c] = members.mean(axis=0)
        return cls(C)

    def assign_batch(self, b: pa.Table, *, vec_col: str = "embedding",
                     id_col: str = "vec_id") -> pa.Table:
        V = _normalize(_stack(b[vec_col]))
        bucket = (V @ self.centroids.T).argmax(axis=1).astype(np.int32)
        return b.append_column("bucket", pa.array(bucket, pa.int32()))

    def probe(self, Q: np.ndarray, nprobe: int = 4) -> np.ndarray:
        Qn = _normalize(np.asarray(Q, dtype=np.float64))
        sims = Qn @ self.centroids.T
        return np.argsort(-sims, axis=1, kind="stable")[:, :nprobe]


def ivf_topk(ds, query_ids: np.ndarray, Q: np.ndarray, index: IvfIndex,
             k: int = 5, nprobe: int = 4, *, vec_col: str = "embedding",
             id_col: str = "vec_id"):
    """Approximate top-k probing only nprobe buckets per query.

    Implementation: assign buckets (streaming), filter corpus rows whose
    bucket appears in ANY query's probe set (vectorized isin), then reuse
    the brute-force kernel on the shrunken stream.  With balanced buckets
    this scans nprobe/n_centroids of the corpus.
    """
    import pyarrow.compute as pc

    probes = index.probe(Q, nprobe)
    probe_union = np.unique(probes)
    assigned = ds.map_batches(
        lambda b: index.assign_batch(b, vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow", zero_copy_batch=True)
    pruned = assigned.map_batches(
        lambda b: b.filter(pc.is_in(b["bucket"],
                                    value_set=pa.array(probe_union))),
        batch_format="pyarrow", zero_copy_batch=True)
    return brute_topk(pruned, query_ids, Q, k,
                      vec_col=vec_col, id_col=id_col)
