"""Distributed as-of / range joins (time-series lookup joins).

Ray Data has no native as-of join; these are the custom-operator
compositions the engine provides (SURVEY.md §2.5 "Joins: absent in
reference"): for each left row, the latest right row with
``right.ts ≤ left.ts`` within the same key (as-of), and per right interval
the count of left rows inside it (range-count).

Plan shape — hash-partition + per-partition vectorized merge:

1. both sides are slimmed and co-shuffled ONCE together on
   ``hash(key) % P`` (``util.hash_exchange``) — the union rides one
   shuffle, not two;
2. each PARTITION (not each key!) is merged by a single numpy pass over all
   of its keys at once — sort by (key, ts) then boundary-aware
   forward-fill / rank-composite searchsorted.  Python call count = P,
   independent of key cardinality: the per-key ``map_groups`` reducer this
   replaces made one Python call per key, pathological for the
   high-cardinality keys (users, urls, order ids) a 100 TB corpus hits
   first;
3. right-side ties on (key, ts) are pre-reduced to one row (max of the
   value column) so the result is deterministic — mirrored in the DuckDB
   ``ASOF JOIN`` oracle.

Partitioning assumption: one PARTITION's rows fit one worker (tune
``num_partitions``); a single key no longer needs to dominate a Python
call, only to fit inside its partition together with its co-partitioned
peers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import as_array, ds_arrow_schema, hash_exchange, key_change_mask


def broadcast_lookup(ds, dim_ds, *, key: str, dim_key: str,
                     carry: dict[str, str], concurrency=None):
    """Broadcast (map-side) dimension join — the small-side pattern.

    The dimension table is collected ONCE, built into Arrow lookup arrays
    and ``ray.put`` into the object store; each batch is enriched with one
    vectorized ``index_in`` + ``take`` — no shuffle at all.  Valid while
    the dimension fits a node (the reference's analogue: its ``tessdata``
    model broadcast to every factory, ImageAnalyzerFactory.java:85-104).

    Runs as ordinary tasks, not an actor pool: the measured task-vs-actor
    gap for cheap-init stages (BASELINE.md §lessons) makes a dedicated
    pool pure startup overhead.  The per-batch ``ray.get`` is a zero-copy
    plasma read of the already-local broadcast object (same convention as
    ``lm_score.score_unigram``) — a worker-side cache dict would NOT
    survive anyway: the harness ships this module by value, so each
    deserialized task closure gets a fresh copy of module globals.

    ``carry`` maps dimension column → output column name.  ``concurrency``
    caps the task pool when given (legacy autoscaling tuples collapse to
    their upper bound — tuple concurrency is an actor-pool-only form).
    """
    import ray

    dim = dim_ds.take_all()
    dim_keys = pa.array([r[dim_key] for r in dim])
    dim_cols = {out: pa.array([r[src] for r in dim])
                for src, out in carry.items()}
    ref = ray.put((dim_keys, dim_cols))

    def enrich(b: pa.Table) -> pa.Table:
        keys, cols = ray.get(ref)      # zero-copy local plasma read
        idx = pc.index_in(b[key].cast(keys.type), value_set=keys)
        for out, arr in cols.items():
            b = b.append_column(out, arr.take(idx))
        return b

    if isinstance(concurrency, tuple):
        concurrency = concurrency[-1]
    kwargs = {"concurrency": concurrency} if concurrency else {}
    return ds.map_batches(enrich, batch_format="pyarrow",
                          zero_copy_batch=True, **kwargs)


def _np_i64(col) -> np.ndarray:
    return np.asarray(pc.cast(col, pa.int64()))


def range_join_count(left_ds, right_ds, *, key: str, left_ts: str,
                     right_start: str, right_end: str,
                     out_col: str = "n_in_range",
                     num_partitions: int | None = None):
    """Range-join aggregate: for each right interval, how many left rows
    fall inside ``[start, end]`` within the same key.

    Per-partition merge, vectorized across ALL keys at once via a
    rank-composite: keys are dictionary-encoded to dense codes, every
    timestamp (left points + interval endpoints) is replaced by its dense
    rank in the partition's shared value set, and ``code * K + rank``
    (K = rank-space size) makes ONE sorted int64 array searchable for every
    interval of every key with two ``np.searchsorted`` calls.  Exact for
    arbitrarily overlapping intervals; no pair materialization.  Overflow
    bound: codes × K < 2^63 holds for any partition under ~10^9 rows.
    """
    lschema, rschema = ds_arrow_schema(left_ds), ds_arrow_schema(right_ds)
    left_side = pa.schema([lschema.field(key), lschema.field(left_ts)])
    right_side = pa.schema([rschema.field(c)
                            for c in (key, right_start, right_end)])
    out_schema = pa.schema([lschema.field(key),
                            ("range_start", rschema.field(right_start).type),
                            ("range_end", rschema.field(right_end).type),
                            (out_col, pa.int64())])

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if rt.num_rows == 0:
            return out_schema.empty_table()
        # dense key codes consistent across both sides: encode ONE array.
        # A null key's dictionary index is null (numpy would read garbage) —
        # sanitize to 0 and mask below: a null-key left row counts nowhere,
        # a null-key right interval counts 0 (SQL null-comparison semantics)
        nl = lt.num_rows
        keys_all = pa.concat_arrays([as_array(lt[key]), as_array(rt[key])])
        idx = keys_all.dictionary_encode().indices
        key_ok = np.asarray(pc.is_valid(idx))
        codes_all = np.asarray(pc.coalesce(idx, pa.scalar(0, idx.type)),
                               dtype=np.int64)
        # null left timestamps can never fall in a range; null right bounds
        # never match (SQL comparison-with-null semantics) — computed on
        # zero-filled values, masked back to 0 below
        l_ok = np.asarray(pc.is_valid(lt[left_ts])) & key_ok[:nl]
        codes_l = codes_all[:nl][l_ok]
        codes_r = codes_all[nl:]
        lts = _np_i64(lt[left_ts].filter(pa.array(l_ok)))
        start, end = rt[right_start], rt[right_end]
        r_ok = np.asarray(pc.and_(pc.is_valid(start), pc.is_valid(end))) \
            & key_ok[nl:]
        rs = _np_i64(pc.coalesce(start, pa.scalar(0, start.type)))
        re_ = _np_i64(pc.coalesce(end, pa.scalar(0, end.type)))
        # shared dense rank space over every timestamp in the partition
        uniq = np.unique(np.concatenate([lts, rs, re_]))
        K = np.int64(len(uniq) + 1)
        r_lts = np.searchsorted(uniq, lts)
        comp_l = np.sort(codes_l * K + r_lts)
        lo = np.searchsorted(comp_l, codes_r * K + np.searchsorted(uniq, rs),
                             side="left")
        hi = np.searchsorted(comp_l, codes_r * K + np.searchsorted(uniq, re_),
                             side="right")
        # inverted intervals (start > end) and null bounds count 0
        counts = np.where(r_ok, np.maximum(hi - lo, 0), 0)
        return pa.table({
            key: rt[key],
            "range_start": start,
            "range_end": end,
            out_col: pa.array(counts, pa.int64()),
        })

    return hash_exchange([(left_ds, left_side), (right_ds, right_side)],
                         key, merge, out_schema,
                         num_partitions=num_partitions)


def asof_join(left_ds, right_ds, *, key: str, left_ts: str, right_ts: str,
              value_col: str, out_col: str | None = None,
              direction: str = "backward",
              num_partitions: int | None = None):
    """Left as-of join: every left row, plus ``out_col`` = value of the
    latest right row at-or-before its timestamp (``direction="backward"``,
    the default) or the earliest right row at-or-after it
    (``direction="forward"``); null if none.

    Per-partition merge, vectorized across ALL keys at once: sort the
    partition's (key, ts, side, value, row) of both sides by (key, ts,
    right-before-left-at-ties, value), then one ``np.maximum.accumulate``
    forward-fill carries the index of the last right row to every row; a
    key-boundary reset mask invalidates fills that crossed into a
    different key.  No per-key Python.  Right ties on (key, ts) resolve
    to the MAX value inside the same sorted pass (the max-value right row
    sorts last among its ties, so the forward fill lands on it) — no
    separate pre-reduce shuffle.
    """
    out_col = out_col or f"asof_{value_col}"
    left_schema = ds_arrow_schema(left_ds)
    rschema = ds_arrow_schema(right_ds)
    rval_type = rschema.field(value_col).type
    right_side = pa.schema([rschema.field(key),
                            ("__rts", rschema.field(right_ts).type),
                            ("__rval", rval_type)])
    out_schema = left_schema.append(pa.field(out_col, rval_type))

    def slim(b: pa.Table) -> pa.Table:
        # Null semantics, deliberate and oracle-mirrored: right rows with a
        # null timestamp or null KEY can never match (SQL comparison-with-
        # null), and rows with a null VALUE are dropped too — this engine's
        # as-of contract is "latest value-BEARING right row", matching the
        # Max-ignoring-nulls pre-reduce every harness oracle builds its
        # right side with.  (Plain DuckDB ASOF against a raw nullable value
        # column differs: it matches the nearest row and yields ITS null
        # instead of falling back to an earlier value.)  Dropping here also
        # keeps a null __rval from hijacking the max-value tie-break sort.
        m = pc.and_(pc.and_(pc.is_valid(b[right_ts]),
                            pc.is_valid(b[value_col])),
                    pc.is_valid(b[key]))
        b = b.filter(m)
        # internal names: the right columns may share names with the left
        return pa.table({key: b[key], "__rts": b[right_ts],
                         "__rval": b[value_col]})

    right_slim = right_ds.map_batches(slim, batch_format="pyarrow",
                                      zero_copy_batch=True)
    backward = direction == "backward"

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        nl, nr = lt.num_rows, rt.num_rows
        side = np.r_[np.zeros(nl, np.int8), np.ones(nr, np.int8)]
        lts_ok = np.asarray(pc.is_valid(lt[left_ts]))
        key_ok = np.asarray(pc.is_valid(lt[key]))
        uts = pa.concat_arrays([
            as_array(pc.cast(lt[left_ts], pa.int64())),
            as_array(pc.cast(rt["__rts"], pa.int64()))])
        t = pa.table({
            key: pa.concat_arrays([as_array(lt[key]), as_array(rt[key])]),
            "__uts": pc.coalesce(uts, pa.scalar(0, pa.int64())),
            "__ord": pa.array(side),
            "__rval": pa.concat_arrays([pa.nulls(nl, rval_type),
                                        as_array(rt["__rval"])]),
            "__row": pa.array(np.arange(nl + nr, dtype=np.int64)),
        })
        if backward:
            # right rows sort BEFORE left rows at equal (key, ts) — the
            # condition is inclusive — and among right ties the MAX value
            # sorts last, so the forward fill lands on it
            t = t.sort_by([(key, "ascending"), ("__uts", "ascending"),
                           ("__ord", "descending"),
                           ("__rval", "ascending")])
        else:
            # forward: left first at equal ts (inclusive), max-value right
            # tie sorts FIRST so the nearest-right scan picks it
            t = t.sort_by([(key, "ascending"), ("__uts", "ascending"),
                           ("__ord", "ascending"),
                           ("__rval", "descending")])
        n = t.num_rows
        is_right = np.asarray(t["__ord"]) == 1
        idx = np.arange(n, dtype=np.int64)
        key_id = np.cumsum(key_change_mask(t[key], n)) - 1
        if backward:
            fill_idx = np.maximum.accumulate(np.where(is_right, idx, -1))
            valid = (fill_idx >= 0) & (key_id[np.maximum(fill_idx, 0)]
                                       == key_id)
        else:
            fill_idx = np.minimum.accumulate(
                np.where(is_right, idx, n)[::-1])[::-1]
            valid = (fill_idx < n) & (key_id[np.minimum(fill_idx, n - 1)]
                                      == key_id)
        left_mask = ~is_right
        rows = np.asarray(t["__row"])[left_mask]     # original left rows
        fill = np.clip(fill_idx[left_mask], 0, n - 1)
        # a left row with a null timestamp or null key matches NOTHING
        # (its __uts was coalesced to 0 only so the sort is well-defined;
        # SQL null-comparison semantics say no right row qualifies)
        ok = valid[left_mask] & lts_ok[rows] & key_ok[rows]
        vals = as_array(t["__rval"]).take(pa.array(fill, pa.int64()))
        vals = pc.if_else(pa.array(ok), vals, pa.nulls(len(rows), rval_type))
        return lt.take(pa.array(rows)).append_column(out_col, vals)

    return hash_exchange([(left_ds, left_schema), (right_slim, right_side)],
                         key, merge, out_schema,
                         num_partitions=num_partitions)
