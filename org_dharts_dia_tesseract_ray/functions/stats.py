"""Grouped order statistics — exact quantiles per key.

Corpus profiling needs distribution shape (doc-length quantiles per
language/source drive filtering thresholds).  Exact per-group quantiles via
the engine's hash exchange (``util.hash_exchange``): ONE shuffle on
``hash(key) % P`` co-locates each key, and every partition is processed
by a single call that sorts once and walks its key runs — Python call
count = P, not |keys|, so high-cardinality keys (quantiles per order,
per host) cost no per-key Ray overhead.  Within a run ``np.percentile``
(linear interpolation — bit-compatible with DuckDB ``quantile_cont``
modulo double-rounding noise, hence the shared 4 dp quantization).

Scale note: for sketch-grade accuracy at extreme cardinality × huge groups,
switch to a mergeable KLL/t-digest partial per batch; exact per-partition
sorting is the right answer while one partition fits a worker.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import (as_array, ds_arrow_schema, hash_exchange,
                    key_change_mask, mapped_side, round_half_away)


def _pinned(ds, cols) -> pa.Schema:
    """The input schema projected to ``cols`` (a column named twice is
    kept once) — the pinned schema of an exchange side: only these
    columns cross the exchange."""
    in_schema = ds_arrow_schema(ds)
    return pa.schema([in_schema.field(c) for c in dict.fromkeys(cols)])


def grouped_quantiles(ds, *, key: str, value_col: str,
                      quantiles=(0.5, 0.9, 0.99),
                      num_partitions: int | None = None):
    """(key, q50, q90, …) — exact linear-interpolation quantiles per group."""
    qcols = [f"q{int(q * 100)}" for q in quantiles]
    qpcts = [q * 100 for q in quantiles]
    schema = _pinned(ds, [key, value_col])
    out_schema = pa.schema([schema.field(key)]
                           + [(c, pa.float64()) for c in qcols])

    def per_partition(g: pa.Table) -> pa.Table:
        t = g.sort_by([(key, "ascending")])
        n = t.num_rows
        vals = np.asarray(t[value_col], dtype=np.float64)
        bounds = np.flatnonzero(key_change_mask(t[key], n))
        ends = np.r_[bounds[1:], n]
        out_q = [np.empty(len(bounds), dtype=np.float64) for _ in qpcts]
        for i, (s, e) in enumerate(zip(bounds, ends)):
            res = np.percentile(vals[s:e], qpcts, method="linear")
            for j, v in enumerate(res):
                out_q[j][i] = round_half_away(float(v), 4)
        keys = t[key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        cols = {key: keys.take(pa.array(bounds, pa.int64()))}
        for name, arr in zip(qcols, out_q):
            cols[name] = pa.array(arr, pa.float64())
        return pa.table(cols)

    return hash_exchange([(ds, schema)], key, per_partition, out_schema,
                         num_partitions=num_partitions)


def grouped_quantiles_sql(key: str = "lang", value_col: str = "n_chars",
                          table: str = "documents",
                          quantiles=(0.5, 0.9, 0.99)) -> str:
    cols = ",\n  ".join(
        f"round(quantile_cont({value_col}, {q}) * 10000.0) / 10000.0 "
        f"AS q{int(q * 100)}"
        for q in quantiles)
    return f"SELECT {key},\n  {cols}\nFROM {table} GROUP BY {key}"


def _prune_topk(t: pa.Table, key: str, value_col: str, id_col: str,
                k: int, *, with_rank: bool = False) -> pa.Table:
    """Keep the top-``k`` rows per key of one table: sort by
    (key asc, value desc, id asc), find run boundaries, keep positions
    < k within each run — one vectorized pass, no per-key Python."""
    t = t.sort_by([(key, "ascending"), (value_col, "descending"),
                   (id_col, "ascending")])
    n = t.num_rows
    if n == 0:
        return t.append_column("rank", pa.array([], pa.int64())) \
            if with_rank else t
    change = key_change_mask(t[key], n)
    run_start = np.maximum.accumulate(
        np.where(change, np.arange(n), -1))
    pos = np.arange(n) - run_start
    keep = pos < k
    out = t.filter(pa.array(keep))
    if with_rank:
        out = out.append_column("rank", pa.array(pos[keep] + 1, pa.int64()))
    return out


def topk_per_key(ds, *, key: str, value_col: str, id_col: str, k: int = 3,
                 num_partitions: int | None = None):
    """Per-key top-k with rank — the distributed window
    ``row_number() OVER (PARTITION BY key ORDER BY value DESC, id)`` ≤ k.

    Two-phase, scale-honest: each BATCH is pruned to ≤k rows per key
    present (the combiner — the exchange carries O(k × keys × batches)
    rows, never the corpus), then ONE hash exchange co-locates each key's
    survivors and a per-PARTITION vectorized pass (sort + run-boundary
    arithmetic, Python call count = P independent of key cardinality)
    emits the final rows with their rank.  Deterministic tie-break
    (value desc, id asc) mirrored in the SQL oracle."""
    schema = _pinned(ds, [key, value_col, id_col])
    out_schema = schema.append(pa.field("rank", pa.int64()))

    def combine(b: pa.Table) -> pa.Table:
        t = b.select(schema.names)
        return _prune_topk(t, key, value_col, id_col, k)

    def finish(part: pa.Table) -> pa.Table:
        return _prune_topk(part, key, value_col, id_col, k, with_rank=True)

    return hash_exchange([mapped_side(ds, combine)], key, finish,
                         out_schema, num_partitions=num_partitions)


def topk_per_key_sql(key: str = "lang", value_col: str = "n_chars",
                     id_col: str = "doc_id", k: int = 3,
                     table: str = "documents") -> str:
    return f"""
SELECT {key}, {value_col}, {id_col}, rank FROM (
  SELECT {key}, {value_col}, {id_col},
         row_number() OVER (PARTITION BY {key}
                            ORDER BY {value_col} DESC, {id_col}) AS rank
  FROM {table})
WHERE rank <= {k}"""


def running_total_per_key(ds, *, key: str, order_col: str, id_col: str,
                          value_col: str, out_col: str = "running_total",
                          num_partitions: int | None = None):
    """Per-key cumulative sum in event order — the distributed window
    ``SUM(value) OVER (PARTITION BY key ORDER BY order_col, id_col ROWS
    UNBOUNDED PRECEDING)`` (running spend per user, cumulative tokens per
    source, …).

    One hash exchange co-locates each key, then a per-PARTITION vectorized
    pass (ONE sort + ONE ``np.cumsum`` with run-boundary rebasing — Python
    call count = P, independent of key cardinality) emits every input row
    with its running total.  The exchange necessarily carries the slim
    projected table once: per-row window output has no combiner (every row's
    answer depends on its full key-prefix), so O(rows) through the shuffle
    is the information-theoretic floor — project to the 4 needed columns
    before calling.

    ``value_col`` must be int64 (fixed-point — quantize floats to cents
    BEFORE calling, the lineitem_pricing scale lesson: integer sums are
    shuffle-order-independent and exact at any scale).  Nulls in
    ``value_col`` are treated as 0 (corpus contract: values non-null; SQL
    would propagate nulls instead — divergence only on null inputs).
    Deterministic tie-break (order_col, then id_col) mirrored in the SQL
    oracle."""
    schema = _pinned(ds, [key, order_col, id_col, value_col])
    out_schema = schema.append(pa.field(out_col, pa.int64()))

    def finish(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(key, "ascending"), (order_col, "ascending"),
             (id_col, "ascending")])
        v = np.asarray(pc.fill_null(t[value_col], 0).cast(pa.int64()),
                       dtype=np.int64)
        cs = np.cumsum(v)
        starts = np.flatnonzero(key_change_mask(t[key], t.num_rows))
        lens = np.diff(np.r_[starts, t.num_rows])
        base = np.where(starts == 0, 0, cs[starts - 1])
        run = cs - np.repeat(base, lens)
        return t.append_column(out_col, pa.array(run, pa.int64()))

    return hash_exchange([(ds, schema)], key, finish, out_schema,
                         num_partitions=num_partitions)


def running_total_sql(key: str = "user_id", order_col: str = "ts",
                      id_col: str = "event_id", value_col: str = "value",
                      out_col: str = "running_c",
                      table: str = "events") -> str:
    # CAST the window SUM back to BIGINT: DuckDB window SUM(BIGINT) returns
    # HUGEINT, which the comparison frame reads as float (the pack_sequences
    # round-3 red-row lesson)
    cents = f"CAST(round({value_col} * 100) AS BIGINT)"
    return f"""
SELECT {key}, {order_col}, {id_col}, {cents} AS value_c,
       CAST(SUM({cents}) OVER (PARTITION BY {key}
                               ORDER BY {order_col}, {id_col}
                               ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS {out_col}
FROM {table}"""


def percent_rank_per_key(ds, *, key: str, value_col: str, id_col: str,
                         out_col: str = "pr",
                         num_partitions: int | None = None):
    """Per-key percentile rank — the distributed window
    ``PERCENT_RANK() OVER (PARTITION BY key ORDER BY value)``:
    ``(rank - 1) / (n - 1)`` with ties sharing their group's MIN rank and
    single-row groups scoring 0.0 (SQL-standard semantics).  The relative
    quality/length position of every document within its language is the
    percentile feature corpus filtering thresholds are calibrated on.

    Same shape as :func:`running_total_per_key`: ONE hash exchange, then a
    per-partition vectorized pass (sort + run/tie boundary arithmetic —
    Python call count = P).  The division is the same
    int64→float64 ``rank0 / (n-1)`` the SQL engine performs, so outputs
    are bit-identical to the oracle."""
    schema = _pinned(ds, [id_col, key, value_col])
    out_schema = schema.append(pa.field(out_col, pa.float64()))

    def finish(part: pa.Table) -> pa.Table:
        t = part.sort_by([(key, "ascending"), (value_col, "ascending")])
        n = t.num_rows
        kchange = key_change_mask(t[key], n)
        kstarts = np.flatnonzero(kchange)
        klens = np.diff(np.r_[kstarts, n])
        idx = np.arange(n) - np.repeat(kstarts, klens)
        vchange = key_change_mask(t[value_col], n) | kchange
        tg_starts = np.flatnonzero(vchange)
        tg_lens = np.diff(np.r_[tg_starts, n])
        rank0 = np.repeat(idx[tg_starts], tg_lens)
        denom = np.repeat(klens, klens) - 1
        pr = np.where(denom > 0, rank0 / np.maximum(denom, 1), 0.0)
        return t.append_column(out_col, pa.array(pr, pa.float64()))

    return hash_exchange([(ds, schema)], key, finish, out_schema,
                         num_partitions=num_partitions)


def percent_rank_sql(key: str = "lang", value_col: str = "n_chars",
                     id_col: str = "doc_id", out_col: str = "pr",
                     table: str = "documents") -> str:
    return f"""
SELECT {id_col}, {key}, {value_col},
       percent_rank() OVER (PARTITION BY {key} ORDER BY {value_col})
         AS {out_col}
FROM {table}"""


def lag_delta_per_key(ds, *, key: str, order_col: str, id_col: str,
                      out_col: str = "delta",
                      num_partitions: int | None = None):
    """Per-key delta to the previous row in event order — the distributed
    ``value - LAG(value) OVER (PARTITION BY key ORDER BY order_col, id)``
    window with ``value = order_col`` itself: inter-arrival gaps (session
    features, burst detection, crawl recency).  First row per key → null,
    exactly as SQL LAG.

    Same one-exchange / per-partition-vectorized shape as
    :func:`running_total_per_key`; ``order_col`` may be any integer or
    temporal type (temporal deltas come back as int64 in the column's
    native unit, e.g. microseconds for ``timestamp[us]``)."""
    schema = _pinned(ds, [key, order_col, id_col])
    out_schema = schema.append(pa.field(out_col, pa.int64()))

    def finish(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(key, "ascending"), (order_col, "ascending"),
             (id_col, "ascending")])
        n = t.num_rows
        vcol = as_array(t[order_col]).cast(pa.int64())
        # null order values (ADVICE r4): an unchecked NaN→int64 cast would
        # produce INT64_MIN garbage — mirror throttle's guard: fill for
        # the arithmetic, then null the affected deltas (a null ts yields
        # NULL, and its successor's LAG is NULL, exactly as SQL)
        if vcol.null_count:
            isnull = np.asarray(pc.is_null(vcol))
            v = np.asarray(pc.fill_null(vcol, 0), dtype=np.int64)
        else:
            isnull = None
            v = np.asarray(vcol, dtype=np.int64)
        delta = np.empty(n, dtype=np.int64)
        delta[0] = 0
        delta[1:] = v[1:] - v[:-1]
        first = key_change_mask(t[key], n)
        if isnull is not None:
            bad = isnull.copy()
            bad[1:] |= isnull[:-1]
            first = first | bad
        return t.append_column(
            out_col, pa.array(delta, pa.int64(), mask=first))

    return hash_exchange([(ds, schema)], key, finish, out_schema,
                         num_partitions=num_partitions)


def lag_delta_sql(key: str = "user_id", order_col: str = "ts",
                  id_col: str = "event_id", out_col: str = "delta_us",
                  table: str = "events") -> str:
    return f"""
SELECT {key}, {order_col}, {id_col},
       CAST(epoch_us({order_col})
            - LAG(epoch_us({order_col}))
              OVER (PARTITION BY {key} ORDER BY {order_col}, {id_col})
            AS BIGINT) AS {out_col}
FROM {table}"""


def ordered_concat_per_key(ds, *, key: str, order_col: str, id_col: str,
                           value_col: str, sep: str = ">",
                           out_col: str = "path",
                           num_partitions: int | None = None):
    """Order-sensitive string aggregation per key — the distributed
    ``string_agg(value, sep ORDER BY order_col, id_col) GROUP BY key``:
    per-user event paths / navigation funnels, per-doc ordered token
    rollups.  Emits one row per key: ``(key, n_items, out_col)``.

    Same one-exchange shape as the window operators here, but the
    per-partition pass REDUCES: sort once, slice the value column into
    per-key runs via ``LargeListArray.from_arrays`` on the run offsets
    (zero-copy), and ``binary_join`` each run — no per-key Python.
    Order inside a key is total (order_col, then id_col), so output is
    partitioning-invariant.  ``value_col`` must be non-null strings
    (corpus contract)."""
    schema = _pinned(ds, [key, order_col, id_col, value_col])
    out_schema = pa.schema([schema.field(key),
                            pa.field("n_items", pa.int64()),
                            pa.field(out_col, pa.string())])

    def finish(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(key, "ascending"), (order_col, "ascending"),
             (id_col, "ascending")])
        n = t.num_rows
        starts = np.flatnonzero(key_change_mask(t[key], n))
        offsets = pa.array(np.r_[starts, n], pa.int64())
        vals = as_array(t[value_col].cast(pa.string()))
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(offsets, vals), sep)
        keys = as_array(t[key]).take(pa.array(starts, pa.int64()))
        lens = np.diff(np.r_[starts, n])
        return pa.table({key: keys,
                         "n_items": pa.array(lens, pa.int64()),
                         out_col: joined})

    return hash_exchange([(ds, schema)], key, finish, out_schema,
                         num_partitions=num_partitions)


def ordered_concat_sql(key: str = "user_id", order_col: str = "ts",
                       id_col: str = "event_id",
                       value_col: str = "event_type", sep: str = ">",
                       out_col: str = "path",
                       table: str = "events") -> str:
    sep_lit = sep.replace("'", "''")    # SQL string-literal escaping
    return f"""
SELECT {key}, CAST(count(*) AS BIGINT) AS n_items,
       string_agg({value_col}, '{sep_lit}' ORDER BY {order_col}, {id_col})
         AS {out_col}
FROM {table} GROUP BY {key}"""


def rollup_counts(ds, *, keys=("lang", "source"),
                  value_col: str = "n_chars"):
    """Multi-grain aggregation — the ``GROUP BY ROLLUP(k1, k2)`` analogue:
    ``(k1, k2)``, ``(k1, NULL)`` and ``(NULL, NULL)`` grains of
    ``count(*)`` / ``sum(value)`` in ONE distributed pass.

    Scale shape: per-batch partial aggregation (the combiner — each batch
    contributes ≤ |k1|×|k2| rows to the exchange, never its row count),
    ONE small ``groupby(keys)`` shuffle at the FINEST grain, then the
    coarser grains are derived by FURTHER DISTRIBUTED groupbys over the
    (materialized, object-store-resident) finest grain — exact, since
    counts/sums are additive, and safe at ANY key cardinality: nothing
    proportional to |k1|×|k2| ever lands on the driver (only the single
    grand-total row does).  A group whose values are all null carries a
    NULL sum through every grain, exactly as SQL ROLLUP."""
    import ray.data
    from ray.data.aggregate import Sum

    k1, k2 = keys

    def combine(b: pa.Table) -> pa.Table:
        t = pa.table({k1: b[k1], k2: b[k2], "__v": b[value_col]})
        # count mode "all" = SQL count(*); the default "only_valid" would
        # undercount rows whose value is null vs the ROLLUP oracle
        g = t.group_by([k1, k2]).aggregate(
            [("__v", "sum"),
             ("__v", "count", pc.CountOptions(mode="all"))])
        return pa.table({k1: g[k1], k2: g[k2],
                         "__s": g["__v_sum"].cast(pa.int64()),
                         "__n": g["__v_count"].cast(pa.int64())})

    k1t = ds_arrow_schema(ds).field(k1).type
    k2t = ds_arrow_schema(ds).field(k2).type
    # materialize() pins the (k1,k2) grain in the OBJECT STORE so the two
    # derived grains don't re-run the corpus combine — it is the shuffle
    # output, never a driver collection (any key cardinality is fine)
    finest = (ds.map_batches(combine, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby([k1, k2])
              .aggregate(Sum("__s", alias_name="total"),
                         Sum("__n", alias_name="n"))
              .materialize())
    # SQL SUM skips nulls but is NULL when every value is null — Ray's Sum
    # (ignore_nulls) matches, and staying in Arrow (no int() coercion)
    # carries that NULL through each grain
    gt = finest.aggregate(Sum("total", alias_name="total"),
                          Sum("n", alias_name="n")) or {}
    grand = pa.table({
        k1: pa.array([None], k1t), k2: pa.array([None], k2t),
        "n_docs": pa.array([int(gt.get("n") or 0)], pa.int64()),
        # empty input: SQL's grand-total row is (NULL keys, count 0, NULL)
        "total_chars": pa.array([gt.get("total")], pa.int64())})
    if finest.count() == 0:
        return ray.data.from_arrow(grand)

    def fmt_fine(b: pa.Table) -> pa.Table:
        return pa.table({k1: b[k1], k2: b[k2],
                         "n_docs": b["n"].cast(pa.int64()),
                         "total_chars": b["total"].cast(pa.int64())})

    def fmt_grain1(b: pa.Table) -> pa.Table:
        return pa.table({k1: b[k1], k2: pa.nulls(b.num_rows, k2t),
                         "n_docs": b["n_docs"].cast(pa.int64()),
                         "total_chars": b["total_chars"].cast(pa.int64())})

    grain1 = (finest.groupby(k1)
              .aggregate(Sum("total", alias_name="total_chars"),
                         Sum("n", alias_name="n_docs"))
              .map_batches(fmt_grain1, batch_format="pyarrow",
                           zero_copy_batch=True))
    fine = finest.map_batches(fmt_fine, batch_format="pyarrow",
                              zero_copy_batch=True)
    return fine.union(grain1).union(ray.data.from_arrow(grand))


def rollup_counts_sql(keys=("lang", "source"), value_col: str = "n_chars",
                      table: str = "documents") -> str:
    k1, k2 = keys
    return f"""
SELECT {k1}, {k2}, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum({value_col}) AS BIGINT) AS total_chars
FROM {table} GROUP BY ROLLUP({k1}, {k2})"""


def distinct_count_per_key(ds, *, key: str, value_col: str,
                           out_col: str = "n_distinct",
                           num_partitions: int | None = None):
    """Exact per-key distinct count — the distributed
    ``COUNT(DISTINCT value) GROUP BY key`` (distinct users per event type,
    distinct hosts per language, …).

    Scale shape: each BATCH is reduced to its distinct (key, value) PAIRS
    (the combiner — the exchange carries pair cardinality, never row
    count), ONE hash exchange on the key co-locates each key's pairs, and
    the per-partition pass sorts once and counts distinct-pair runs with
    boundary arithmetic — Python call count = P.  For extreme pair
    cardinality where even distinct pairs are too heavy, the HyperLogLog
    sketch (`functions/sketch.approx_distinct`) is the approximate
    sibling; this operator is the exact path."""
    schema = _pinned(ds, [key, value_col])
    out_schema = pa.schema([schema.field(key),
                            pa.field(out_col, pa.int64())])

    def combine(b: pa.Table) -> pa.Table:
        t = b.select(schema.names)
        return t.group_by([key, value_col]).aggregate([])   # distinct pairs

    def finish(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(key, "ascending"), (value_col, "ascending")])
        n = t.num_rows
        kchange = key_change_mask(t[key], n)
        pchange = kchange | key_change_mask(t[value_col], n)
        kstarts = np.flatnonzero(kchange)
        pstarts = np.flatnonzero(pchange)
        # distinct pairs per key = pair-run starts within each key run,
        # MINUS the null-value run (SQL COUNT(DISTINCT) ignores NULLs but
        # a key whose values are all null still emits a 0-count group)
        counts = np.diff(np.r_[np.searchsorted(pstarts, kstarts),
                               len(pstarts)])
        null_at = np.asarray(
            pc.is_null(as_array(t[value_col])))[pstarts]
        nstarts = pstarts[null_at]
        counts -= np.diff(np.r_[np.searchsorted(nstarts, kstarts),
                                len(nstarts)])
        keys = as_array(t[key]).take(pa.array(kstarts, pa.int64()))
        return pa.table({key: keys,
                         out_col: pa.array(counts, pa.int64())})

    return hash_exchange([mapped_side(ds, combine)], key, finish,
                         out_schema, num_partitions=num_partitions)


def distinct_count_sql(key: str = "event_type", value_col: str = "user_id",
                       out_col: str = "n_distinct",
                       table: str = "events") -> str:
    return f"""
SELECT {key}, CAST(count(DISTINCT {value_col}) AS BIGINT) AS {out_col}
FROM {table} GROUP BY {key}"""


def pivot_counts(ds, *, key: str, pivot_col: str, categories,
                 prefix: str = "n_"):
    """Crosstab / PIVOT — one wide row per key with a count column per
    category: ``key, n_click, n_view, …`` (per-user behavior vectors,
    per-source label matrices).  The category vocabulary is fixed by the
    caller (SQL PIVOT needs the same static list; values outside it are
    ignored).

    Scale shape: each batch pre-pivots locally (ONE vectorized group_by +
    index_in scatter per batch — the combiner, so the exchange carries
    keys × batches wide rows, never events), then Ray's native Sum
    aggregates per column in ONE groupby shuffle.  No map_groups, no
    per-key Python anywhere."""
    from ray.data.aggregate import Sum

    cats = list(categories)
    cat_arr = pa.array(cats, pa.string())
    out_cols = [f"{prefix}{c}" for c in cats]

    def combine(b: pa.Table) -> pa.Table:
        t = pa.table({key: b[key], pivot_col: b[pivot_col]})
        g = t.group_by([key, pivot_col]).aggregate([([], "count_all")])
        ci = np.asarray(pc.fill_null(
            pc.index_in(g[pivot_col].cast(pa.string()),
                        value_set=cat_arr), len(cats)))
        # distinct keys of this batch, then scatter counts into the wide
        # (keys × categories) matrix
        keys = as_array(g[key])
        uk = pc.unique(keys)
        ki = np.asarray(pc.index_in(keys, value_set=uk))
        mat = np.zeros((len(uk), len(cats) + 1), np.int64)
        mat[ki, ci] = np.asarray(g["count_all"])
        cols = {key: uk}
        for j, name in enumerate(out_cols):
            cols[name] = pa.array(mat[:, j], pa.int64())
        return pa.table(cols)

    partial = ds.map_batches(combine, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partial.groupby(key).aggregate(
        *[Sum(c, alias_name=c) for c in out_cols])


def pivot_counts_sql(key: str = "user_id", pivot_col: str = "event_type",
                     categories=("click", "error", "purchase", "signup",
                                 "view"),
                     prefix: str = "n_", table: str = "events") -> str:
    cols = ",\n  ".join(
        "CAST(sum(CASE WHEN {p} = '{c}' THEN 1 ELSE 0 END) AS BIGINT) "
        "AS {pre}{c}".format(p=pivot_col, c=c, pre=prefix)
        for c in categories)
    return f"SELECT {key},\n  {cols}\nFROM {table} GROUP BY {key}"


def ntile_per_key(ds, *, key: str, value_col: str, id_col: str,
                  n_tiles: int = 4, out_col: str = "tile",
                  num_partitions: int | None = None):
    """Per-key equal-frequency bucket assignment — the distributed
    ``NTILE(k) OVER (PARTITION BY key ORDER BY value, id)``: quartile /
    decile labels per group, the bucketing step of stratified filtering.

    SQL NTILE semantics exactly: n rows split into k buckets of size
    ``n // k``, the first ``n % k`` buckets one larger, 1-based labels.
    Same one-exchange / per-partition-vectorized shape as the sibling
    window operators."""
    schema = _pinned(ds, [id_col, key, value_col])
    out_schema = schema.append(pa.field(out_col, pa.int64()))

    def finish(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(key, "ascending"), (value_col, "ascending"),
             (id_col, "ascending")])
        n = t.num_rows
        starts = np.flatnonzero(key_change_mask(t[key], n))
        lens = np.diff(np.r_[starts, n])
        pos = np.arange(n) - np.repeat(starts, lens)
        gn = np.repeat(lens, lens)
        base = gn // n_tiles
        rem = gn % n_tiles
        big = rem * (base + 1)              # rows covered by larger buckets
        in_big = pos < big
        # base+1 >= 1 always; only `base` can be 0 (group smaller than k —
        # all its rows take the in_big branch, so the clamp is never used)
        tile = np.where(
            in_big,
            pos // (base + 1),
            rem + (pos - big) // np.maximum(base, 1)) + 1
        return t.append_column(out_col, pa.array(tile, pa.int64()))

    return hash_exchange([(ds, schema)], key, finish, out_schema,
                         num_partitions=num_partitions)


def ntile_sql(key: str = "lang", value_col: str = "n_chars",
              id_col: str = "doc_id", n_tiles: int = 4,
              out_col: str = "tile", table: str = "documents") -> str:
    return f"""
SELECT {id_col}, {key}, {value_col},
       CAST(ntile({n_tiles}) OVER (PARTITION BY {key}
                                   ORDER BY {value_col}, {id_col})
            AS BIGINT) AS {out_col}
FROM {table}"""


def histogram_per_key(ds, *, key: str, value_col: str, bin_width: int,
                      out_bin: str = "bin", out_count: str = "n"):
    """Fixed-width histogram per group — ``(key, value // width,
    count)``: the distribution-profiling primitive behind length/quality
    threshold tuning.  Non-negative values by contract (integer division
    truncates toward zero in Arrow but floors in SQL; they agree on
    non-negatives).

    Scale shape: per-batch (key, bin) partial counts (ONE vectorized
    group_by — the combiner; the exchange carries keys × bins × batches
    rows, never the corpus), then native Sum in ONE groupby shuffle."""
    from ray.data.aggregate import Sum

    def combine(b: pa.Table) -> pa.Table:
        t = pa.table({
            key: b[key],
            out_bin: pc.divide(b[value_col].cast(pa.int64()),
                               pa.scalar(bin_width, pa.int64()))})
        g = t.group_by([key, out_bin]).aggregate([([], "count_all")])
        return pa.table({key: g[key], out_bin: g[out_bin],
                         "__n": g["count_all"].cast(pa.int64())})

    partial = ds.map_batches(combine, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partial.groupby([key, out_bin]).aggregate(
        Sum("__n", alias_name=out_count))


def histogram_sql(key: str = "lang", value_col: str = "n_chars",
                  bin_width: int = 200, out_bin: str = "bin",
                  out_count: str = "n",
                  table: str = "documents") -> str:
    return f"""
SELECT {key}, CAST({value_col} // {bin_width} AS BIGINT) AS {out_bin},
       CAST(count(*) AS BIGINT) AS {out_count}
FROM {table} GROUP BY {key}, {value_col} // {bin_width}"""
