"""Event-time windowing — tumbling-window aggregates and sessionization.

The reference is pure batch with no event-time semantics (SURVEY.md §2.5
"Streaming / windows: none"), but a web-scale training-data pipeline needs
them (log bucketing, session corpora).  Both operators follow the engine's
aggregation discipline:

* tumbling windows: the window id is a pure vectorized column
  (``ts // width``) — computed inside ``map_batches``, then ONE groupby;
  no per-row Python, no ordering requirement.
* sessionization (gap-based): keyed by user — a ``groupby(user)`` shuffle,
  then per-group numpy (sort + diff + cumsum).  Within-group work is
  vectorized; the per-group call count equals the number of users, which is
  the irreducible key cardinality of the problem.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

US_PER_MIN = 60_000_000


def tumbling_window_batch(batch: pa.Table, width_us: int,
                          ts_col: str = "ts") -> pa.Table:
    """Append ``window_start`` (timestamp, floor(ts / width) * width).

    Floor division must round toward -inf (numpy ``//``), not toward zero
    (Arrow ``pc.divide`` on int64) — pre-epoch timestamps land in the wrong
    window under truncation, diverging from both ``sliding_aggregate`` and
    the DuckDB ``//`` oracle.  Null timestamps yield a null window_start
    (computed on zero-filled values, masked back)."""
    ts = batch[ts_col]
    epoch_a = pc.cast(ts, pa.int64())
    epoch = np.asarray(pc.coalesce(epoch_a, pa.scalar(0, pa.int64())))
    start = pa.array((epoch // width_us) * width_us, pa.int64())
    col = pc.if_else(pc.is_valid(epoch_a), pc.cast(start, ts.type),
                     pa.scalar(None, ts.type))
    return batch.append_column("window_start", col)


def tumbling_aggregate(ds, *, width_minutes: int = 60, ts_col: str = "ts",
                       key_col: str = "event_type",
                       value_col: str = "value"):
    """Per (window_start, key): count + quantized value sum."""
    from ..util import grouped_arrow_aggregate, mapped_side

    width_us = width_minutes * US_PER_MIN

    def prep(b: pa.Table) -> pa.Table:
        # integer cents BEFORE the sum: float Σvalue is shuffle-order-
        # dependent and can flip the 2-dp quantization (the
        # lineitem_pricing scale lesson); values are 2-dp fixed-point by
        # corpus contract, so round() recovers exact integers
        b = tumbling_window_batch(b, width_us, ts_col)
        return b.append_column(
            "value_c",
            pc.round(pc.multiply(b[value_col],
                                 pa.scalar(100.0))).cast(pa.int64()))

    agg = grouped_arrow_aggregate(
        mapped_side(ds, prep), ["window_start", key_col],
        [(ts_col, "count", "n_events"),
         ("value_c", "sum", "total_value_c")])

    def quant(b: pa.Table) -> pa.Table:
        return pa.table({
            "window_start": b["window_start"],
            key_col: b[key_col],
            "n_events": b["n_events"],
            "total_value": pc.divide(b["total_value_c"].cast(pa.float64()),
                                     pa.scalar(100.0)),
        })

    return agg.map_batches(quant, batch_format="pyarrow")


def tumbling_aggregate_sql(width_minutes: int = 60,
                           table: str = "events") -> str:
    w = width_minutes * US_PER_MIN
    return f"""
SELECT make_timestamp((epoch_us(ts) // {w}) * {w}) AS window_start,
       event_type,
       count(*) AS n_events,
       SUM(CAST(round(value * 100.0) AS BIGINT)) / 100.0 AS total_value
FROM {table}
GROUP BY 1, 2"""


def sliding_aggregate(ds, *, width_minutes: int = 60,
                      slide_minutes: int = 15, ts_col: str = "ts",
                      key_col: str = "event_type"):
    """Sliding (hopping) windows: each event lands in width/slide windows.

    Vectorized row expansion (numpy repeat over per-row window counts —
    the multiplicity is CONSTANT width/slide for every row, so the explode
    is a reshape, not a loop), then the same groupby as tumbling.  Shuffle
    volume grows by the overlap factor — inherent to hopping windows; keep
    width/slide small or pre-aggregate per (tumbling slide-bucket) first.
    """
    import numpy as np

    width_us = width_minutes * US_PER_MIN
    slide_us = slide_minutes * US_PER_MIN
    k = width_us // slide_us          # windows per event (width % slide == 0)
    if width_us % slide_us:
        raise ValueError("width must be a multiple of slide")

    def explode(b: pa.Table) -> pa.Table:
        # drop null timestamps first: np.asarray on int64-with-nulls
        # yields float64 NaN and the cast back to timestamp crashes the
        # whole batch; the SQL oracle (generate_series over NULL) and the
        # tumbling/sessionize siblings drop null-ts rows too
        b = b.filter(pc.is_valid(b[ts_col]))
        epoch = np.asarray(pc.cast(b[ts_col], pa.int64()))
        last = (epoch // slide_us) * slide_us          # latest window start
        # starts: last - (k-1)*slide .. last, one row per (event, window)
        offs = (np.arange(k, dtype=np.int64) - (k - 1)) * slide_us
        starts = (last[:, None] + offs[None, :]).reshape(-1)
        keys = pc.take(b[key_col],
                       pa.array(np.repeat(np.arange(len(epoch)), k)))
        return pa.table({
            "window_start": pc.cast(pa.array(starts), b[ts_col].type),
            key_col: keys,
        })

    from ..util import grouped_arrow_aggregate, mapped_side
    return grouped_arrow_aggregate(
        mapped_side(ds, explode), ["window_start", key_col],
        [(key_col, "count", "n_events")])


def sliding_aggregate_sql(width_minutes: int = 60, slide_minutes: int = 15,
                          table: str = "events") -> str:
    w = width_minutes * US_PER_MIN
    s = slide_minutes * US_PER_MIN
    return f"""
SELECT make_timestamp(ws) AS window_start, event_type,
       count(*) AS n_events
FROM (
  SELECT event_type,
         unnest(generate_series(
           ((epoch_us(ts) - {w}) // {s} + 1) * {s},
           (epoch_us(ts) // {s}) * {s}, {s})) AS ws
  FROM {table})
GROUP BY 1, 2"""


def sessionize(ds, *, gap_minutes: int = 30, user_col: str = "user_id",
               ts_col: str = "ts", id_col: str = "event_id",
               num_partitions: int | None = None):
    """Gap-based sessions per key → (user_col, session_no, n_events,
    session_start, session_end).  ``session_no`` is 1-based in (ts, id)
    order; a gap > gap_minutes starts a new session.

    Scale design — hash-partition, NOT per-key ``map_groups``: the key
    (user id) is the canonical high-cardinality column, so one Python call
    per key is pathological at web scale.  Instead ONE hash exchange
    (``util.hash_exchange``) co-locates each key, and every partition is
    processed by a SINGLE numpy pass that computes all its keys' sessions
    at once: sort by (key, ts, id), then a session boundary is key-change
    OR gap-exceeded.  Python call count = P (≈ 2×CPUs), independent of key
    cardinality.  Memory bound: one partition per worker — size
    ``num_partitions`` accordingly at scale."""
    from ..util import hash_exchange, mapped_side

    gap_us = gap_minutes * US_PER_MIN

    def timed(b: pa.Table) -> pa.Table:
        # rows with a null event time are dropped: gap-based session
        # membership is undefined without a timestamp (documented)
        t = b.select([user_col, ts_col, id_col])
        return t.filter(pc.is_valid(t[ts_col]))

    events, schema = mapped_side(ds, timed)
    ts_type = schema.field(ts_col).type
    out_schema = pa.schema([schema.field(user_col),
                            ("session_no", pa.int64()),
                            ("n_events", pa.int64()),
                            ("session_start", ts_type),
                            ("session_end", ts_type)])

    def per_partition(g: pa.Table) -> pa.Table:
        from ..util import key_change_mask

        t = g.sort_by([(user_col, "ascending"), (ts_col, "ascending"),
                       (id_col, "ascending")])
        n = t.num_rows
        ts = np.asarray(pc.cast(t[ts_col], pa.int64()))
        keys = t[user_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        key_change = key_change_mask(keys, n)
        new_session = key_change.copy()
        if n > 1:
            new_session[1:] |= np.diff(ts) > gap_us
        bounds = np.flatnonzero(new_session)          # session start rows
        ends = np.r_[bounds[1:], n]
        # 1-based session_no per key: rank of each session within its key
        sess_first = key_change[bounds]               # first session of key?
        seq = np.arange(len(bounds), dtype=np.int64)
        first_idx = np.flatnonzero(sess_first)
        reps = np.diff(np.r_[first_idx, len(bounds)])
        session_no = seq - np.repeat(seq[first_idx], reps) + 1
        return pa.table({
            user_col: keys.take(pa.array(bounds, pa.int64())),
            "session_no": pa.array(session_no, pa.int64()),
            "n_events": pa.array(ends - bounds, pa.int64()),
            "session_start": pc.cast(pa.array(ts[bounds], pa.int64()),
                                     t[ts_col].type),
            "session_end": pc.cast(pa.array(ts[ends - 1], pa.int64()),
                                   t[ts_col].type),
        })

    return hash_exchange([(events, schema)], user_col, per_partition,
                         out_schema, num_partitions=num_partitions)


def sessionize_sql(gap_minutes: int = 30, table: str = "events",
                   user_col: str = "user_id", ts_col: str = "ts",
                   id_col: str = "event_id") -> str:
    gap_us = gap_minutes * US_PER_MIN
    return f"""
WITH o AS (
  SELECT {user_col}, {id_col}, {ts_col},
         CASE WHEN lag({ts_col}) OVER w IS NULL
                   OR epoch_us({ts_col}) - epoch_us(lag({ts_col}) OVER w)
                      > {gap_us}
              THEN 1 ELSE 0 END AS new_s
  FROM {table}
  WINDOW w AS (PARTITION BY {user_col} ORDER BY {ts_col}, {id_col})
),
s AS (
  SELECT {user_col}, {ts_col},
         SUM(new_s) OVER (PARTITION BY {user_col}
                          ORDER BY {ts_col}, {id_col}
                          ROWS UNBOUNDED PRECEDING) AS session_no
  FROM o
)
SELECT {user_col}, CAST(session_no AS BIGINT) AS session_no,
       count(*) AS n_events,
       min({ts_col}) AS session_start, max({ts_col}) AS session_end
FROM s GROUP BY {user_col}, session_no"""


def throttle(ds, *, keys=("user_id", "event_type"), ts_col: str = "ts",
             id_col: str = "event_id", min_gap_minutes: int = 60,
             num_partitions: int | None = None):
    """Rate-limit repeated events: keep a row iff it is the FIRST of its
    composite key or arrived more than ``min_gap_minutes`` after the
    previous occurrence (previous ROW, not previous kept — the LAG-based
    throttle, exactly SQL-expressible; recrawl suppression, alert
    dedup, at-most-once-per-hour signals).

    Composite-key variant of the window machinery: the hash partition
    mixes both key columns, the per-partition pass sorts once and derives
    gaps with run-boundary masks over the key PAIR — Python call count =
    P, like every window here."""
    import numpy as np

    from ..util import (as_array, ds_arrow_schema, hash_exchange,
                        key_change_mask)
    k1, k2 = keys
    gap_us = min_gap_minutes * US_PER_MIN

    in_schema = ds_arrow_schema(ds)
    schema = pa.schema([in_schema.field(c) for c in (k1, k2, ts_col, id_col)])

    def finish(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k1, "ascending"), (k2, "ascending"),
             (ts_col, "ascending"), (id_col, "ascending")])
        n = t.num_rows
        first = key_change_mask(t[k1], n) | key_change_mask(t[k2], n)
        ts = as_array(t[ts_col]).cast(pa.int64())
        # SQL-exact null semantics: a null ts makes the LAG delta NULL for
        # itself AND its successor, and `d IS NULL OR d > gap` KEEPS both
        # (nulls sort last per key on both engines).  fill_null avoids the
        # unsafe null->INT64_MIN numpy cast.
        null_ts = np.asarray(pc.is_null(ts))
        v = np.asarray(pc.fill_null(ts, 0), dtype=np.int64)
        delta = np.empty(n, dtype=np.int64)
        delta[0] = 0
        delta[1:] = v[1:] - v[:-1]
        null_delta = null_ts.copy()
        null_delta[1:] |= null_ts[:-1]
        keep = first | null_delta | (delta > gap_us)
        return t.filter(pa.array(keep))

    return hash_exchange([(ds, schema)], [k1, k2], finish, schema,
                         num_partitions=num_partitions)


def throttle_sql(keys=("user_id", "event_type"), ts_col: str = "ts",
                 id_col: str = "event_id", min_gap_minutes: int = 60,
                 table: str = "events") -> str:
    k1, k2 = keys
    gap_us = min_gap_minutes * US_PER_MIN
    return f"""
SELECT {k1}, {k2}, {ts_col}, {id_col} FROM (
  SELECT {k1}, {k2}, {ts_col}, {id_col},
         epoch_us({ts_col}) - LAG(epoch_us({ts_col}))
           OVER (PARTITION BY {k1}, {k2}
                 ORDER BY {ts_col}, {id_col}) AS d
  FROM {table})
WHERE d IS NULL OR d > {gap_us}"""


def transition_counts(ds, *, key: str = "user_id",
                      label_col: str = "event_type", ts_col: str = "ts",
                      id_col: str = "event_id",
                      num_partitions: int | None = None):
    """First-order transition counts — how often label A is immediately
    followed by label B within a key's event stream (the Markov-matrix /
    funnel-edge aggregate): ``(from_type, to_type, n)``.

    ONE hash exchange co-locates each key's events; the per-partition pass
    sorts once, pairs each row with its successor inside the key run
    (vectorized shift + run mask — the LEAD window), and REDUCES to local
    pair counts, so the final aggregate ships at most |labels|² rows per
    partition.  That aggregate is hash-partitioned too: Ray's native
    sort-based groupby compares a null label with a string while
    splitting blocks and fails."""
    import numpy as np

    from ..util import (as_array, ds_arrow_schema, grouped_arrow_aggregate,
                        hash_exchange, key_change_mask)
    in_schema = ds_arrow_schema(ds)
    schema = pa.schema([in_schema.field(c)
                        for c in (key, label_col, ts_col, id_col)])
    label_type = schema.field(label_col).type
    out_schema = pa.schema([("from_type", label_type),
                            ("to_type", label_type),
                            ("__n", pa.int64())])

    def finish(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(key, "ascending"), (ts_col, "ascending"),
             (id_col, "ascending")])
        n = t.num_rows
        labels = as_array(t[label_col])
        # successor exists iff the NEXT row starts no new key run
        nxt_same = ~key_change_mask(t[key], n)[1:] if n > 1 else \
            np.zeros(0, bool)
        # SQL-exact: LEAD(...) IS NOT NULL drops pairs with a null
        # successor label (a null FROM label is kept and grouped, as in
        # SQL GROUP BY)
        nxt_same &= np.asarray(pc.is_valid(labels.slice(1)))
        src = labels.slice(0, n - 1).filter(pa.array(nxt_same))
        dst = labels.slice(1).filter(pa.array(nxt_same))
        pairs = pa.table({"from_type": src, "to_type": dst})
        g = pairs.group_by(["from_type", "to_type"]).aggregate(
            [([], "count_all")])
        return pa.table({"from_type": g["from_type"],
                         "to_type": g["to_type"],
                         "__n": g["count_all"].cast(pa.int64())})

    local = hash_exchange([(ds, schema)], key, finish, out_schema,
                          num_partitions=num_partitions)
    return grouped_arrow_aggregate((local, out_schema),
                                   ["from_type", "to_type"],
                                   [("__n", "sum", "n")],
                                   num_partitions=num_partitions)


def transition_counts_sql(key: str = "user_id",
                          label_col: str = "event_type",
                          ts_col: str = "ts", id_col: str = "event_id",
                          table: str = "events") -> str:
    return f"""
SELECT from_type, to_type, CAST(count(*) AS BIGINT) AS n FROM (
  SELECT {label_col} AS from_type,
         LEAD({label_col}) OVER (PARTITION BY {key}
                                 ORDER BY {ts_col}, {id_col}) AS to_type
  FROM {table})
WHERE to_type IS NOT NULL
GROUP BY from_type, to_type"""
