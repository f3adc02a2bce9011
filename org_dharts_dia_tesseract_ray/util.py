"""Small shared helpers used across stages and functions."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def cluster_cpus(default: int = 4) -> int:
    """CPU count of the current Ray cluster (or ``default`` outside Ray)."""
    import ray
    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def as_array(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def first_per_key(t: pa.Table, key: str) -> pa.Table:
    """Keep the FIRST row of each run of equal ``key`` values in an
    already-sorted table (vectorized adjacent-compare mask)."""
    if t.num_rows <= 1:
        return t
    k = as_array(t[key])
    firsts = pc.not_equal(k.slice(1), k.slice(0, len(k) - 1))
    mask = pa.concat_arrays([pa.array([True]), as_array(firsts)])
    return t.filter(mask)


def key_change_mask(keys, n: int):
    """Boolean numpy mask: row i starts a new run of equal key values in an
    already-sorted column (adjacent-compare; row 0 always True).  The
    boundary-detection primitive of every partition-vectorized reducer.

    Null-safe: ``pc.not_equal(null, x)`` yields null (which numpy would
    silently read as False, merging a null-key run into its neighbour), so
    the mask is computed on values AND validity — null-vs-non-null adjacency
    is a change, null-vs-null is not (nulls form their own single run, the
    same grouping a SQL GROUP BY / the per-key reducer this replaces used)."""
    import numpy as np
    keys = as_array(keys)
    change = np.ones(n, dtype=bool)
    if n > 1:
        hi, lo = keys.slice(1), keys.slice(0, n - 1)
        neq = pc.fill_null(pc.not_equal(hi, lo), False)
        vdiff = pc.xor(pc.is_valid(hi), pc.is_valid(lo))
        change[1:] = np.asarray(pc.or_(neq, vdiff))
    return change


def round_half_away(v: float, decimals: int = 4) -> float:
    """Round half away from zero — DuckDB ``round()`` semantics.  Python's
    built-in ``round`` is half-to-even and diverges from every oracle on
    exact halves."""
    import math
    s = 10.0 ** decimals
    x = v * s
    f = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    return f / s


def mix64(h):
    """Vectorized splitmix64 finalizer (numpy uint64 in/out) — full-width
    avalanche so any key distribution spreads uniformly over partitions."""
    import numpy as np
    with np.errstate(over="ignore"):
        h = h.astype(np.uint64, copy=True)
        h += np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def flat_binary_view(col):
    """A string/binary column's bytes as ONE contiguous numpy view plus
    per-row ranges: ``(data, starts, lengths)`` with row i's bytes at
    ``data[starts[i]:starts[i]+lengths[i]]``.

    The shared preamble of every flat-buffer kernel (`_string_hash64`,
    ``fingerprint.kgram_hashes_batch``): large_binary cast, chunk combine,
    null→b"" coalesce, and slice-offset-safe offset arithmetic — the
    trickiest buffer math in the repo, kept in exactly one place."""
    import numpy as np
    if (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
            or pa.types.is_binary(col.type)):
        if col.type != pa.large_binary():
            col = col.cast(pa.large_binary())
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        arr = as_array(pc.coalesce(arr, pa.scalar(b"", pa.large_binary())))
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                            count=len(arr) + 1 + arr.offset)[arr.offset:]
    base = int(offsets[0])
    data = np.frombuffer(arr.buffers()[2] or b"",
                         dtype=np.uint8)[base:int(offsets[-1])]
    starts = (offsets[:-1] - base).astype(np.int64)
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    return data, starts, lengths


def _string_hash64(col: pa.Array):
    """Deterministic vectorized 64-bit hash of a string/binary column:
    per-row polynomial over the raw bytes (computed on the flat Arrow value
    buffer with ``np.add.reduceat`` — no Python per row), then splitmix64."""
    import numpy as np
    data, starts, lengths = flat_binary_view(col)
    n = len(starts)
    if len(data) == 0:
        return mix64(np.zeros(n, dtype=np.uint64))
    seg = data.astype(np.uint64)
    pos = np.arange(len(seg), dtype=np.int64) - np.repeat(starts, lengths)
    max_len = int(lengths.max())
    with np.errstate(over="ignore"):
        powers = np.empty(max_len, dtype=np.uint64)
        if max_len:
            powers[0] = np.uint64(1)
            for i in range(1, max_len):
                powers[i] = powers[i - 1] * np.uint64(1099511628211)
        contrib = seg * powers[pos]
        # sentinel zero so an empty row's start (== len(seg)) is a valid
        # reduceat index — clipping instead would truncate the PRECEDING
        # row's byte range and hash the same key differently depending on
        # whether a trailing empty string shares its batch
        contrib = np.append(contrib, np.uint64(0))
        h = np.add.reduceat(contrib, starts)
    h = h.astype(np.uint64, copy=False)
    h[lengths == 0] = np.uint64(0)
    return mix64(h)


def _col_hash64(col):
    """Deterministic vectorized uint64 hash of one key column (numpy array).
    Integer/temporal keys via splitmix64; string/binary via the
    byte-polynomial.  Pure arithmetic — identical across processes, reruns
    and parallelism levels."""
    import numpy as np
    arr = as_array(col)
    if pa.types.is_unsigned_integer(arr.type):
        # uint64 doesn't fit int64 — widen within the unsigned domain
        u = pc.coalesce(arr.cast(pa.uint64()), pa.scalar(0, pa.uint64()))
        return mix64(np.asarray(as_array(u)))
    if pa.types.is_integer(arr.type) or pa.types.is_temporal(arr.type):
        ints = pc.coalesce(arr.cast(pa.int64()), pa.scalar(0, pa.int64()))
        return mix64(np.asarray(as_array(ints)).view(np.uint64))
    if (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)
            or pa.types.is_binary(arr.type)
            or pa.types.is_large_binary(arr.type)):
        return _string_hash64(arr)
    raise TypeError(f"unsupported partition key type: {arr.type}")


def partition_ids(col, num_partitions: int, *, extra_cols=()) -> pa.Array:
    """Deterministic partition id (int32) for a key column (plus optional
    further key columns for composite keys) — the building block of the
    hash-partition → per-partition-vectorized-pass pattern that replaces
    per-key ``map_groups`` reducers and powers :func:`hash_exchange`."""
    import numpy as np
    h = _col_hash64(col)
    for c in extra_cols:
        with np.errstate(over="ignore"):
            h = mix64(h * np.uint64(1099511628211) + _col_hash64(c))
    return pa.array((h % np.uint64(num_partitions)).astype(np.int32),
                    pa.int32())


def hash_exchange(sides, keys, reduce, out_schema: pa.Schema, *,
                  num_partitions=None):
    """THE hash exchange: co-partition one or more keyed datasets on
    ``hash(keys) % P`` in ONE sort-based ``groupby(__part).map_groups``
    barrier and reduce each partition with one vectorized call — Python
    call count = P, independent of key cardinality.  Every keyed reducer
    in the package (aggregates, joins, co-shuffles, per-key windows,
    dedup winners) is a ``reduce`` over this plan; the tagged-union
    co-shuffle of several inputs is the plan of "Joins over UNION ALL
    Queries in Teradata" (SIGMOD 2018).

    ``sides``: list of ``(dataset, schema)``.  Each side is projected to
    its pinned schema (never derived by executing the input) and
    null-padded into one union layout; a column shared by several sides
    takes the type of the first side that has it (so a later side's key
    columns are cast to the first side's key types).  With two or more
    sides each row is tagged ``__side``.  ``keys``: one column name or a
    list, co-hashed through :func:`partition_ids`.

    ``reduce(*tables) -> pa.Table`` receives one table per side, every one
    typed from the layout even when its side has no rows in the partition.
    ``__part``/``__side`` never reach it.  Ray hands empty shuffle
    partitions to ``map_groups`` as zero-COLUMN tables; those become
    ``out_schema.empty_table()`` without calling ``reduce``.  An empty
    input never reaches ``map_groups`` at all, so one sentinel row in a
    group of its own (``__part`` = -1) rides every exchange and comes out
    as ``out_schema.empty_table()``: the result is typed even then.  It
    enters BEFORE the exchange because a typed empty table unioned AFTER
    it stops Ray from fusing the reduce with the caller's next
    ``map_batches`` — measured ~10% slower over the oracle suite's
    chained exchanges.  The engine stays the sort shuffle: Ray's
    ``HASH_SHUFFLE`` measured ~17× slower on the same 1.5 M-row reduce
    (1 CPU, P=32)."""
    import numpy as np
    import ray.data

    keys = [keys] if isinstance(keys, str) else list(keys)
    P = num_partitions or default_num_partitions()
    layout = {}
    for _, schema in sides:
        for f in schema:
            layout.setdefault(f.name, f.type)
    names = [schema.names for _, schema in sides]
    tagged = len(sides) > 1

    def tagger(side: int):
        have = set(names[side])

        def tag(b: pa.Table) -> pa.Table:
            n = b.num_rows
            cols = {}
            for name, typ in layout.items():
                if name not in have:
                    cols[name] = pa.nulls(n, typ)
                else:
                    col = b[name]
                    cols[name] = col if col.type == typ else col.cast(typ)
            if tagged:
                cols["__side"] = pa.array(np.full(n, side, np.int8))
            cols["__part"] = partition_ids(
                cols[keys[0]], P, extra_cols=[cols[k] for k in keys[1:]])
            return pa.table(cols)

        return tag

    sentinel = {name: pa.nulls(1, typ) for name, typ in layout.items()}
    if tagged:
        sentinel["__side"] = pa.array([-1], pa.int8())
    sentinel["__part"] = pa.array([-1], pa.int32())
    unioned = ray.data.from_arrow(pa.table(sentinel)).union(*[
        ds.map_batches(tagger(i), batch_format="pyarrow",
                       zero_copy_batch=True)
        for i, (ds, _) in enumerate(sides)])

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "__part" not in g.column_names \
                or g["__part"][0].as_py() < 0:
            return out_schema.empty_table()
        if not tagged:
            return reduce(g.select(names[0]))
        side = np.asarray(g["__side"])
        return reduce(*[g.filter(pa.array(side == i)).select(names[i])
                        for i in range(len(sides))])

    return unioned.groupby("__part").map_groups(per_part,
                                                batch_format="pyarrow")


def exchange_side(ds):
    """A ``(dataset, schema)`` side for :func:`hash_exchange`: a pair
    passes through, a bare Dataset's schema is read with ``ds.schema()``.
    That read executes the input's first block when Ray cannot infer the
    schema (any ``map_batches`` output) and finds none on an empty one,
    so pass the pair whenever the schema is known statically (see
    :func:`mapped_side`)."""
    return ds if isinstance(ds, tuple) else (ds, ds_arrow_schema(ds))


def mapped_side(ds, fn):
    """``(ds.map_batches(fn), schema)`` — the exchange side of a per-batch
    pre-pass (combiner, explode, projection).  The schema is ``fn``
    applied to the input's typed empty table, so nothing executes to
    learn it; ``fn`` must map an empty table to its usual output types."""
    return (ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True),
            fn(ds_arrow_schema(ds).empty_table()).schema)


def grouped_arrow_aggregate(ds, keys, aggs, *, num_partitions=None):
    """Hash-partition + per-partition Arrow ``group_by`` reduce — the
    repo-idiom replacement for Ray's native ``groupby().aggregate()`` on
    HIGH-CARDINALITY keys.  The native sort-based aggregate measured
    ~76 µs/row on slim int64 rows (57 core-seconds for a 750k-row gram
    reduce, round 5); one int32-keyed exchange plus a vectorized Arrow
    reduce does the same work ~10× cheaper at identical exchange volume.
    Low-cardinality groupbys (≤ hundreds of groups) keep the native form
    — the sort is trivial there and the output blocks are tiny.

    ``ds``: a Dataset or a ``(dataset, schema)`` pair (see
    :func:`exchange_side`).  ``keys``: str or list of key column names
    (co-hashed for composite keys; every occurrence of a key lands in one
    partition so per-partition results are globally exact).  ``aggs``:
    list of ``(col, fn, out_name)`` with ``fn`` an Arrow group_by
    aggregation ("sum" | "min" | "max" | "count" | …).  Output columns:
    keys + out_names, typed as Arrow types them — also on empty input.
    Only the key and aggregated columns cross the exchange."""
    ds, schema = exchange_side(ds)
    keys = [keys] if isinstance(keys, str) else list(keys)
    used = dict.fromkeys(keys + [col for col, _, _ in aggs])
    schema = pa.schema([schema.field(c) for c in used])

    def reduce(t: pa.Table) -> pa.Table:
        c = t.group_by(keys).aggregate([(col, fn) for col, fn, _ in aggs])
        cols = {k: c[k] for k in keys}
        for col, fn, out in aggs:
            cols[out] = c[f"{col}_{fn}"]
        return pa.table(cols)

    return hash_exchange([(ds, schema)], keys, reduce,
                         reduce(schema.empty_table()).schema,
                         num_partitions=num_partitions)


def count_combiner(key: str, out: str = "__n"):
    """Per-batch COUNT(*) combiner for :func:`grouped_arrow_aggregate`:
    collapses each batch to one ``(key, out)`` int64 row per key present,
    so the exchange carries ≤ keys × batches rows, never the fact table.
    Reduce with ``[(out, "sum", <final name>)]``."""
    def fn(b: pa.Table) -> pa.Table:
        g = b.group_by(key).aggregate([([], "count_all")])
        return pa.table({key: g[key],
                         out: g["count_all"].cast(pa.int64())})
    return fn


def keyed_coshuffle(left, right, key: str, left_schema: pa.Schema,
                    right_schema: pa.Schema, merge, *,
                    num_partitions=None):
    """ONE-exchange tagged-union co-shuffle of two keyed datasets: each
    partition's two sides are handed to ``merge(left_part: pa.Table,
    right_part: pa.Table) -> pa.Table`` — :func:`hash_exchange` with two
    sides, for merges that are NOT a relational join (span stripping,
    positional reassembly).  It replaces the groupby-then-join chain's
    two barriers with one (measured ~2 s fixed wall per extra barrier at
    any data size).

    The key column must carry the same type in both schemas.  ``merge``
    must accept typed empty tables (a side with no rows in a partition,
    and once at plan time to learn the output schema, which pins the
    result's schema even on empty input)."""
    key_field = left_schema.field(key)
    if right_schema.field(key).type != key_field.type:
        raise TypeError(
            f"key {key!r} type mismatch: {key_field.type} vs "
            f"{right_schema.field(key).type}")
    # a shared non-key name is fine when the types agree (the side tag
    # keeps the rows apart), but a TYPE mismatch would silently cast one
    # side through the other's type in the union — reject it up front,
    # like schema_pinned_join's collision check
    for f in right_schema:
        if f.name != key and f.name in left_schema.names \
                and left_schema.field(f.name).type != f.type:
            raise TypeError(
                f"shared non-key column {f.name!r} type mismatch: "
                f"{left_schema.field(f.name).type} vs {f.type}")
    out_schema = merge(left_schema.empty_table(),
                       right_schema.empty_table()).schema
    return hash_exchange([(left, left_schema), (right, right_schema)], key,
                         merge, out_schema, num_partitions=num_partitions)


def ragged_arange(lens):
    """[0..l0), [0..l1), … concatenated — vectorized ragged arange.
    Every length must be ≥ 1 (callers guarantee this)."""
    import numpy as np
    total = int(lens.sum())
    if total == 0:
        return np.array([], dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = 0
    cuts = np.cumsum(lens)[:-1]
    out[cuts] = 1 - lens[:-1]
    return np.cumsum(out)


def ds_arrow_schema(ds) -> pa.Schema:
    """A Dataset's schema as a ``pyarrow.Schema`` (Ray's wrapper unwrapped)."""
    s = ds.schema()
    return pa.schema(list(zip(s.names, s.types)))


def schema_pinned_join(left, right, *, on, num_partitions: int,
                       left_schema: pa.Schema, right_schema: pa.Schema,
                       join_type: str = "inner"):
    """Distributed join (``inner`` / ``left outer`` / ``right outer`` /
    ``left semi`` / ``left anti`` / ``full outer``) that is IMMUNE to
    schema-less empty blocks — the replacement for ``Dataset.join``
    wherever a side is (or may be) a groupby/aggregate output.

    Why not ``Dataset.join``: a hash-shuffled groupby output materializes
    empty partitions as zero-COLUMN blocks (the executor's "new schema: ."
    warning) whenever key cardinality < partition count; Ray's join
    operator then feeds Acero a schema-less table and dies with "No match
    ... for key field reference" (round-2 red row: ``tfidf_top_term`` at
    ``num_cpus=32`` with a 31-token right side).  ``map_batches`` cannot
    repair this — Ray never invokes the UDF on empty blocks (verified), so
    there is no hook to re-type them.

    Plan shape: one :func:`hash_exchange` of both sides (ONE co-shuffle
    instead of the join operator's two-sided exchange with per-partition
    aggregator actors), then each partition is joined LOCALLY by Acero
    (``pa.Table.join``, single-threaded — parallelism comes from
    partitions) with both schemas known statically, so empty/one-sided
    partitions produce a correctly-typed empty table instead of a crash.

    ``left_schema`` / ``right_schema`` are the statically-known schemas
    (never derived by executing the inputs).  Non-key column names must be
    disjoint; key columns are cast to the left side's types.

    Join-type semantics (all SQL-standard, all Acero-local per partition):

    - ``inner`` — matching rows only;
    - ``left outer`` — every left row survives; unmatched rows carry nulls
      in the right-only columns (null keys never match, as in SQL);
    - ``right outer`` — mirror: every right row survives; unmatched rows
      carry nulls in the left-only columns (keys still left-typed);
    - ``left semi`` — left rows WITH a match, left columns only, never
      multiplied (the ``EXISTS`` shape);
    - ``left anti`` — left rows WITHOUT a match, left columns only (the
      ``NOT EXISTS`` shape; null-key left rows are unmatched, so they pass);
    - ``full outer`` — every row from both sides; unmatched rows carry
      nulls in the other side's columns.
    """
    if join_type not in ("inner", "left outer", "right outer", "left semi",
                         "left anti", "full outer"):
        raise NotImplementedError(f"unsupported join_type: {join_type!r}")
    on = list(on)
    lnames = list(left_schema.names)
    ltypes = {n: left_schema.field(n).type for n in lnames}
    r_only = ([] if join_type in ("left anti", "left semi")
              else [n for n in right_schema.names if n not in on])
    overlap = (set(lnames) - set(on)) & set(r_only)
    if overlap:
        raise ValueError(f"non-key column collision: {sorted(overlap)}")
    rtypes = {n: right_schema.field(n).type for n in right_schema.names}
    right_side = pa.schema([right_schema.field(n) for n in on + r_only])
    out_schema = pa.schema(list(left_schema)
                           + [right_schema.field(n) for n in r_only])

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0:
            if join_type in ("full outer", "right outer") and rt.num_rows > 0:
                # right-only partition: keys (already left-typed) + right
                # columns, nulls in the left-only slots
                cols = {n: (rt[n] if n in on
                            else pa.nulls(rt.num_rows, ltypes[n]))
                        for n in lnames}
                for n in r_only:
                    cols[n] = rt[n]
                return pa.table(cols).select(out_schema.names)
            return out_schema.empty_table()
        if rt.num_rows == 0:
            if join_type in ("inner", "left semi", "right outer"):
                return out_schema.empty_table()
            if join_type == "left anti":
                return lt          # nothing to match against: all survive
            for n in r_only:       # outer: typed all-null right side
                lt = lt.append_column(n, pa.nulls(lt.num_rows, rtypes[n]))
            return lt.select(out_schema.names)
        out = lt.join(rt, keys=on, join_type=join_type, use_threads=False)
        return out.select(out_schema.names)

    return hash_exchange([(left, left_schema), (right, right_side)], on,
                         merge, out_schema, num_partitions=num_partitions)


def default_num_partitions(per_cpu: int = 2, lo: int = 8,
                           hi: int = 512) -> int:
    """Partition count for hash-partitioned reducers: ~2 groups per CPU so
    the partition `map_groups` calls saturate the cluster; clamped so tiny
    test sessions and huge clusters both behave.  At real 100 TB scale pass
    an explicit count sized so corpus_bytes / num_partitions fits a worker
    heap (each partition is processed as one in-memory table)."""
    return max(lo, min(hi, cluster_cpus() * per_cpu))
