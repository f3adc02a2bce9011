"""Mergeable quantile summaries — grouped quantiles with shuffle volume
bounded by a fixed capacity, independent of group size.

The third classic mergeable sketch next to HLL (:mod:`sketch`, distinct)
and Misra-Gries (:mod:`heavyhitters`, frequency).  Exact grouped
quantiles (:mod:`stats`) co-locate EVERY value of a key on one
partition; at web scale a hot key (one language, one host) means
shipping billions of float64s to a single reducer.  The summary caps
each batch's emission per key at ``capacity`` weighted points:

1. per batch, per key run: if the run has at most ``capacity`` values,
   the sorted values themselves (weight 1 each) ARE the summary —
   zero error; otherwise ``capacity`` evenly-spaced weight buckets,
   each represented by its middle order statistic.  Rank error per
   compression <= run/(2*capacity).
2. summaries merge by concatenation inside the engine's hash exchange
   (``util.hash_exchange``: one shuffle on ``hash(key) % P`` → one
   vectorized walk per partition; null keys form their own run, SQL
   GROUP BY semantics) — shuffle <= batches x keys x capacity points,
   never the raw values.  ``thin_summary`` re-thins only at
   INTERMEDIATE tree levels that must ship their result onward; the
   terminal merge computes quantiles on the full local point set.
3. quantiles interpolate between weighted points with the exact
   ``np.percentile(method="linear")`` formula — when no compression
   fired anywhere (all weights 1), results are BIT-IDENTICAL to the
   exact path, which is what the SQL oracle checks at test scale; the
   compression path is bound-tested on fixed fixtures.

Null values are dropped (the exact path never sees them either —
profiling columns are non-null by construction upstream).

Reference analogue: the OCR engine's per-block confidence statistics —
``MeanTextConf`` summarizing per-symbol distributions (TessAPI.java:472)
— here generalized to full distribution shape per corpus slice.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import hash_exchange, key_change_mask, mapped_side, round_half_away


def thin_summary(vals: np.ndarray, weights: np.ndarray,
                 capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted points (sorted by value) -> at most ``capacity`` points.
    Deterministic; exact (returned unchanged) when already small enough."""
    if len(vals) <= capacity:
        return vals, weights
    total = int(weights.sum())
    cum = np.cumsum(weights)
    bounds = (np.arange(capacity + 1, dtype=np.int64) * total) // capacity
    # representative of bucket j = the point covering the bucket's weight
    # midpoint; searchsorted over the cumulative weights finds it without
    # expanding items.  total > capacity here (weights >= 1), so every
    # bucket has weight >= 1.
    mids = (bounds[:-1] + bounds[1:] - 1) // 2
    idx = np.searchsorted(cum, mids, side="right")
    return vals[idx], np.diff(bounds)


def summarize_run(vals: np.ndarray, capacity: int):
    """Sorted raw values -> initial summary (weight-1 points, thinned)."""
    return thin_summary(np.sort(vals),
                        np.ones(len(vals), dtype=np.int64), capacity)


def quantile_from_summary(vals: np.ndarray, weights: np.ndarray,
                          q: float) -> float:
    """``np.percentile(method='linear')`` generalized to weighted points:
    rank r = q*(n-1); items of bucket i occupy ranks [cum[i-1], cum[i]);
    interpolate between the points holding floor(r) and ceil(r).  With
    all weights 1 this reproduces np.percentile bit-for-bit."""
    cum = np.cumsum(weights)
    n = int(cum[-1])
    r = q * (n - 1)
    lo = vals[np.searchsorted(cum, int(np.floor(r)), side="right")]
    hi = vals[np.searchsorted(cum, int(np.ceil(r)), side="right")]
    frac = r - np.floor(r)
    # numpy's _lerp switches formula at frac >= 0.5 for monotonicity —
    # mirror it exactly or ~0.7% of float cases differ by 1 ulp
    if frac >= 0.5:
        return float(hi - (hi - lo) * (1 - frac))
    return float(lo + (hi - lo) * frac)


def _pack(a: np.ndarray) -> bytes:
    return a.astype("<f8").tobytes()


def grouped_quantiles_sketch(ds, *, key: str, value_col: str,
                             quantiles=(0.5, 0.9, 0.99),
                             capacity: int = 4096,
                             num_partitions: int | None = None):
    """(key, q50, q90, …) via mergeable summaries — see module docstring."""
    qcols = [f"q{int(q * 100)}" for q in quantiles]

    def partial(b: pa.Table) -> pa.Table:
        t = b.select([key, value_col]).filter(pc.is_valid(b[value_col]))
        t = t.sort_by([(key, "ascending")])
        n = t.num_rows
        if n == 0:
            return pa.table({key: b[key].slice(0, 0),
                             "vals": pa.array([], pa.binary()),
                             "weights": pa.array([], pa.binary())})
        raw = np.asarray(t[value_col], dtype=np.float64)
        bounds = np.flatnonzero(key_change_mask(t[key], n))
        ends = np.r_[bounds[1:], n]
        vs, ws = [], []
        for s, e in zip(bounds, ends):
            v, w = summarize_run(raw[s:e], capacity)
            vs.append(_pack(v))
            ws.append(w.astype("<i8").tobytes())
        keys = t[key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        return pa.table({
            key: keys.take(pa.array(bounds, pa.int64())),
            "vals": pa.array(vs, pa.binary()),
            "weights": pa.array(ws, pa.binary()),
        })

    def merge_partition(g: pa.Table) -> pa.Table:
        # hash-partitioned like stats.grouped_quantiles — Ray's key
        # groupby sort-shuffles and crashes on null keys; key_change_mask
        # gives nulls their own run (SQL GROUP BY semantics)
        t = g.sort_by([(key, "ascending")])
        n = t.num_rows
        bounds = np.flatnonzero(key_change_mask(t[key], n))
        ends = np.r_[bounds[1:], n]
        vblobs = t["vals"].to_pylist()
        wblobs = t["weights"].to_pylist()
        out_q = [np.empty(len(bounds)) for _ in quantiles]
        for i, (s, e) in enumerate(zip(bounds, ends)):
            vals = np.concatenate([np.frombuffer(vblobs[j], dtype="<f8")
                                   for j in range(s, e)])
            weights = np.concatenate([np.frombuffer(wblobs[j], dtype="<i8")
                                      for j in range(s, e)])
            order = np.argsort(vals, kind="stable")
            # terminal merge: no re-thinning — every point is already
            # local, so quantiles over the full point set are strictly
            # more accurate (thin_summary is for intermediate tree
            # levels that must ship their result onward)
            for k, q in enumerate(quantiles):
                out_q[k][i] = round_half_away(
                    quantile_from_summary(vals[order], weights[order], q),
                    4)
        keys = t[key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        cols = {key: keys.take(pa.array(bounds, pa.int64()))}
        for name, arr in zip(qcols, out_q):
            cols[name] = pa.array(arr, pa.float64())
        return pa.table(cols)

    partials, schema = mapped_side(ds, partial)
    out_schema = pa.schema([schema.field(key)]
                           + [(c, pa.float64()) for c in qcols])
    return hash_exchange([(partials, schema)], key, merge_partition,
                         out_schema, num_partitions=num_partitions)
