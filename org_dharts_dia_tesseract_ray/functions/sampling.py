"""Deterministic content-hash sampling and dataset splits.

Training corpora need REPRODUCIBLE sampling: ``ds.random_sample`` depends on
block layout and seed plumbing, so re-running with a different partitioning
changes the sample.  Hash-bucket sampling is the production pattern: the
bucket is a pure function of the content digest, invariant under
parallelism, resharding and reruns — the same property the engine's
byte-identity gate demands of extraction (SURVEY.md §7 hard-part #1).

Bucket = first 8 hex chars of md5(text) as uint % n_buckets; DuckDB parses
the same prefix with ``('0x' || substr(md5(x),1,8))::UBIGINT`` so every
query here is oracle-checkable.  Both sides hash a NULL text as ''.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc


def hash_bucket_batch(batch: pa.Table, *, text_col: str = "text",
                      n_buckets: int = 100) -> pa.Table:
    vals = [int(hashlib.md5((s or "").encode("utf-8")).hexdigest()[:8], 16)
            % n_buckets for s in batch[text_col].to_pylist()]
    return batch.append_column("bucket",
                               pa.array(vals, pa.int64()))


def deterministic_sample(ds, *, percent: int = 10, text_col: str = "text",
                         n_buckets: int = 100):
    """Keep rows whose content bucket < percent — a stable percent% sample.
    A NULL text is bucketed as the empty string (bucket 93 of 100), so it
    is kept from ``percent=94`` up, as :func:`deterministic_sample_sql`
    keeps it."""
    def f(b: pa.Table) -> pa.Table:
        t = hash_bucket_batch(b, text_col=text_col, n_buckets=n_buckets)
        return t.filter(pc.less(t["bucket"], percent)).drop_columns(["bucket"])

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def train_val_test_split(ds, *, val_percent: int = 10, test_percent: int = 10,
                         text_col: str = "text"):
    """Append a ``split`` column ∈ {train, val, test} by content bucket."""
    def f(b: pa.Table) -> pa.Table:
        t = hash_bucket_batch(b, text_col=text_col, n_buckets=100)
        bucket = t["bucket"]
        split = pc.if_else(
            pc.less(bucket, val_percent), pa.scalar("val"),
            pc.if_else(pc.less(bucket, val_percent + test_percent),
                       pa.scalar("test"), pa.scalar("train")))
        return t.drop_columns(["bucket"]).append_column("split", split)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _topn_per_group(t: pa.Table, group_col: str, id_col: str,
                    n: int) -> pa.Table:
    """Vectorized top-n per group over an in-memory table sorted on
    (group, __fp, id): position-within-run mask, no per-group Python."""
    import numpy as np

    from ..util import key_change_mask

    t = t.sort_by([(group_col, "ascending"), ("__fp", "ascending"),
                   (id_col, "ascending")])
    m = t.num_rows
    if m == 0:
        return t
    change = key_change_mask(t[group_col], m)
    idx = np.arange(m, dtype=np.int64)
    run_start = np.maximum.accumulate(np.where(change, idx, -1))
    return t.filter(pa.array(idx - run_start < n))


def stratified_sample(ds, *, group_col: str, n_per_group: int = 20,
                      text_col: str = "text", id_col: str = "doc_id"):
    """Deterministic n-per-group sample: within each group take the first n
    rows in (md5(text), id) order — content-hash order is a reproducible
    pseudo-random shuffle, invariant under partitioning (same property as
    :func:`deterministic_sample`).

    Skew-proof plan: a per-batch PARTIAL top-n combiner cuts every group to
    ≤ n rows per batch before any shuffle, so the final per-group merge sees
    at most n × n_batches slim rows no matter how skewed the corpus is (one
    group holding 90% of rows never materializes on a worker); both passes
    are the same vectorized position-within-run mask.
    """
    def combine(b: pa.Table) -> pa.Table:
        fps = pa.array([hashlib.md5((s or "").encode("utf-8")).hexdigest()
                        for s in b[text_col].to_pylist()])
        return _topn_per_group(b.append_column("__fp", fps),
                               group_col, id_col, n_per_group)

    def merge(g: pa.Table) -> pa.Table:
        return _topn_per_group(g, group_col, id_col,
                               n_per_group).drop_columns(["__fp"])

    partial = ds.map_batches(combine, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partial.groupby(group_col).map_groups(merge,
                                                 batch_format="pyarrow")


def stratified_sample_sql(group_col: str = "lang", n_per_group: int = 20,
                          table: str = "documents", id_col: str = "doc_id",
                          text_col: str = "text") -> str:
    return f"""
SELECT {id_col}, {group_col} FROM (
  SELECT {id_col}, {group_col},
         row_number() OVER (PARTITION BY {group_col}
                            ORDER BY md5({text_col}), {id_col}) AS rk
  FROM {table}) WHERE rk <= {n_per_group}"""


def weighted_mix(ds, weights: dict[str, int], *, group_col: str = "lang",
                 text_col: str = "text", default_percent: int = 0,
                 n_buckets: int = 100):
    """Corpus mixing: keep ``weights[group]`` percent of each group's rows,
    chosen by content-hash bucket — the "sample each source at its mixture
    weight" step of corpus assembly (C4/Pile/Dolma recipes).

    Same stability property as :func:`deterministic_sample`: membership is
    a pure function of the row's content, invariant under partitioning and
    rerun, so two pipeline runs assemble the SAME mixture.  No shuffle —
    one stateless vectorized filter; the weights dict rides the closure
    (driver-broadcast once, tiny).
    """
    def f(b: pa.Table) -> pa.Table:
        t = hash_bucket_batch(b, text_col=text_col, n_buckets=n_buckets)
        thr = pa.scalar(default_percent, pa.int64())
        g = t[group_col]
        # small-dict CASE chain, vectorized per branch; a null group
        # matches no WHEN arm and falls through to default_percent, like
        # the SQL CASE (fill_null stops the null poisoning the chain)
        expr = thr
        for k, v in sorted(weights.items()):
            cond = pc.fill_null(pc.equal(g, k), False)
            expr = pc.if_else(cond, pa.scalar(v, pa.int64()), expr)
        return (t.filter(pc.less(t["bucket"], expr))
                .drop_columns(["bucket"]))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def weighted_mix_sql(weights: dict[str, int], *, group_col: str = "lang",
                     table: str = "documents", id_col: str = "doc_id",
                     text_col: str = "text", default_percent: int = 0,
                     n_buckets: int = 100) -> str:
    cases = " ".join(f"WHEN '{k}' THEN {v}"
                     for k, v in sorted(weights.items()))
    return (f"SELECT {id_col}, {group_col} FROM {table} "
            f"WHERE {bucket_sql_expr(text_col, n_buckets)} < "
            f"(CASE {group_col} {cases} ELSE {default_percent} END)")


def bucket_sql_expr(text_col: str = "text", n_buckets: int = 100) -> str:
    # coalesce: md5(NULL) is NULL, and hash_bucket_batch hashes NULL as ''
    return (f"(('0x' || substr(md5(coalesce({text_col}, '')), 1, 8))"
            f"::UBIGINT % {n_buckets})")


def deterministic_sample_sql(percent: int = 10, table: str = "documents",
                             id_col: str = "doc_id",
                             text_col: str = "text") -> str:
    return (f"SELECT {id_col}, {text_col} FROM {table} "
            f"WHERE {bucket_sql_expr(text_col)} < {percent}")


def split_sql(val_percent: int = 10, test_percent: int = 10,
              table: str = "documents", id_col: str = "doc_id",
              text_col: str = "text") -> str:
    b = bucket_sql_expr(text_col)
    return f"""
SELECT {id_col},
  CASE WHEN {b} < {val_percent} THEN 'val'
       WHEN {b} < {val_percent + test_percent} THEN 'test'
       ELSE 'train' END AS split
FROM {table}"""


def _rate_bucket_sample(ds, rate_fn, *, group_col: str,
                        text_col: str, id_col: str, scale: int):
    """Shared body of the group-rate samplers: ONE tiny groupby for
    per-group counts (bounded by group cardinality, ~200 langs at web
    scale — driver-side like the IVF centroids), ``rate_fn(counts) →
    {group: basis points}``, then a shuffle-free vectorized filter —
    rows keep iff their content bucket < their group's rate, so every
    sampler here is deterministic and partitioning-invariant.  The rate
    dict is closure-captured (bytes, not a shuffle); use ``ray.put`` if a
    group vocabulary ever outgrows task-arg size."""
    import numpy as np
    import ray.data

    from ..util import ds_arrow_schema

    # per-batch Arrow partial counts merged on the driver (bounded by
    # group cardinality × batches) — NOT a Ray groupby: its sort-based
    # shuffle raises on mixed null/non-null string keys, and SQL's
    # GROUP BY counts the NULL group too (its count participates in the
    # oracle's min(n) even though JOIN USING later drops its rows)
    def partial_counts(b: pa.Table) -> pa.Table:
        g = (pa.table({group_col: b[group_col]})
             .group_by(group_col).aggregate([([], "count_all")]))
        return pa.table({group_col: g[group_col],
                         "__n": g["count_all"].cast(pa.int64())})

    counts: dict = {}
    for bt in (ds.map_batches(partial_counts, batch_format="pyarrow",
                              zero_copy_batch=True)
               .iter_batches(batch_format="pyarrow")):
        for g_, n_ in zip(bt[group_col].to_pylist(),
                          bt["__n"].to_pylist()):
            counts[g_] = counts.get(g_, 0) + int(n_)
    in_schema = ds_arrow_schema(ds)
    out_schema = pa.schema([in_schema.field(id_col),
                            in_schema.field(group_col)])
    if not counts:
        # typed empty table: ds.limit(0) would leak the INPUT schema and
        # break consumers of the (id, group) output contract
        return ray.data.from_arrow(out_schema.empty_table())
    rates = rate_fn(counts)
    groups = pa.array(list(rates.keys()),
                      in_schema.field(group_col).type)
    bps = np.fromiter(rates.values(), np.int64, len(rates))

    def f(b: pa.Table) -> pa.Table:
        t = hash_bucket_batch(b, text_col=text_col, n_buckets=scale)
        # vectorized rate lookup: index_in against the group vocabulary;
        # null groups are masked EXPLICITLY (ADVICE r4: index_in matches a
        # null probe to a null entry in the value set, which would keep
        # null-group rows the SQL oracle's JOIN ... USING drops) and
        # unseen groups miss — both → rate 0, i.e. dropped
        gi = pc.index_in(t[group_col], value_set=groups)
        gi = pc.if_else(pc.is_valid(t[group_col]), gi,
                        pa.scalar(None, gi.type))
        gi_np = np.asarray(pc.fill_null(gi, len(bps)))
        bp = np.r_[bps, np.int64(0)][gi_np]
        keep = np.asarray(t["bucket"]) < bp
        return t.filter(pa.array(keep)).select([id_col, group_col])

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def lang_balanced_sample(ds, *, group_col: str = "lang",
                         text_col: str = "text", id_col: str = "doc_id",
                         scale: int = 10000):
    """Rebalance a skewed corpus to EQUAL per-group share by downsampling
    every group to the smallest group's size (in expectation) — the
    language-rebalancing step of multilingual data mixing; the T=∞
    endpoint of :func:`temperature_sample`.  Keep rates are integer basis
    points ``min_count * scale // count``."""
    def rate_fn(counts):
        mn = min(counts.values())
        return {g: mn * scale // n for g, n in counts.items()}

    return _rate_bucket_sample(ds, rate_fn, group_col=group_col,
                               text_col=text_col, id_col=id_col,
                               scale=scale)


def sample_n_per_key(ds, *, group_col: str = "lang",
                     id_col: str = "doc_id", text_col: str = "text",
                     n: int = 20, scale: int = 10000,
                     num_partitions: int | None = None):
    """Deterministic AT-MOST-N-per-group sample — the balanced eval-set /
    human-review draw: within each group the rows with the SMALLEST
    content buckets win (ties by id), so the pick is reproducible,
    partitioning-invariant, and stable under corpus growth (a doc keeps
    its bucket forever; newly added docs only displace from the tail).

    Rides the top-k combiner machinery (per-batch prune to ≤n per group →
    ONE slim hash exchange → per-partition run arithmetic): the exchange
    carries O(n × groups × batches) rows, never the corpus."""
    from .stats import topk_per_key

    def prep(b: pa.Table) -> pa.Table:
        t = hash_bucket_batch(b, text_col=text_col, n_buckets=scale)
        # top-k takes the LARGEST values; invert so smallest buckets win
        return pa.table({group_col: t[group_col], id_col: t[id_col],
                         "__negb": pc.subtract(pa.scalar(scale, pa.int64()),
                                               t["bucket"])})

    slim = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    picked = topk_per_key(slim, key=group_col, value_col="__negb",
                          id_col=id_col, k=n, num_partitions=num_partitions)

    def unmask(b: pa.Table) -> pa.Table:
        return pa.table({group_col: b[group_col], id_col: b[id_col],
                         "bucket": pc.subtract(pa.scalar(scale, pa.int64()),
                                               b["__negb"]),
                         "rank": b["rank"]})

    return picked.map_batches(unmask, batch_format="pyarrow",
                              zero_copy_batch=True)


def sample_n_per_key_sql(*, group_col: str = "lang",
                         id_col: str = "doc_id", text_col: str = "text",
                         n: int = 20, scale: int = 10000,
                         table: str = "documents") -> str:
    b = bucket_sql_expr(text_col, scale)
    return f"""
SELECT {group_col}, {id_col}, bucket, rank FROM (
  SELECT {group_col}, {id_col}, bucket,
         row_number() OVER (PARTITION BY {group_col}
                            ORDER BY bucket, {id_col}) AS rank
  FROM (SELECT {group_col}, {id_col}, CAST({b} AS BIGINT) AS bucket
        FROM {table}))
WHERE rank <= {n}"""


def temperature_sample(ds, *, group_col: str = "lang",
                       text_col: str = "text", id_col: str = "doc_id",
                       temperature: float = 2.0, scale: int = 10000):
    """Temperature-scaled resampling: downsample groups so kept counts are
    proportional to ``count ** (1/T)`` — the multilingual-mixing rule
    (T=1 keeps natural proportions, T→∞ approaches equal share;
    :func:`lang_balanced_sample` is the T=∞ endpoint).

    Per-group keep rates ``floor(scale * (min_count / count) ** (1/T))``
    come from ONE tiny groupby (the smallest group keeps 100%, larger
    groups are throttled toward it); rows keep iff their content bucket <
    rate — deterministic and partitioning-invariant like every sampler
    here.  At T=2 the rate is computed with ``sqrt`` (IEEE correctly
    rounded, so the DuckDB oracle reproduces it bit-exactly); other
    temperatures go through ``pow``, whose last-ulp behavior is libm-
    specific — fine for sampling, but only T=2 is oracle-pinned."""
    import math

    def rate_fn(counts):
        mn = min(counts.values())
        if temperature == 2.0:
            return {g: math.floor(scale * math.sqrt(mn / n))
                    for g, n in counts.items()}
        return {g: math.floor(scale * (mn / n) ** (1.0 / temperature))
                for g, n in counts.items()}

    return _rate_bucket_sample(ds, rate_fn, group_col=group_col,
                               text_col=text_col, id_col=id_col,
                               scale=scale)


def temperature_sample_sql(*, group_col: str = "lang",
                           text_col: str = "text", id_col: str = "doc_id",
                           table: str = "documents",
                           scale: int = 10000) -> str:
    # the T=2 oracle: sqrt is IEEE correctly rounded in both engines, so
    # floor(scale * sqrt(mn/n)) is bit-identical to the Python rate
    return f"""
WITH c AS (SELECT {group_col}, CAST(count(*) AS BIGINT) AS n
           FROM {table} GROUP BY {group_col}),
m AS (SELECT min(n) AS mn FROM c),
r AS (SELECT {group_col},
             CAST(floor({scale} * sqrt(CAST(mn AS DOUBLE) / n)) AS BIGINT)
               AS bp
      FROM c, m)
SELECT d.{id_col}, d.{group_col}
FROM {table} d JOIN r USING ({group_col})
WHERE {bucket_sql_expr(text_col, scale)} < r.bp"""


def lang_balanced_sample_sql(*, group_col: str = "lang",
                             text_col: str = "text",
                             id_col: str = "doc_id",
                             table: str = "documents",
                             scale: int = 10000) -> str:
    return f"""
WITH c AS (SELECT {group_col}, CAST(count(*) AS BIGINT) AS n
           FROM {table} GROUP BY {group_col}),
m AS (SELECT min(n) AS mn FROM c),
r AS (SELECT {group_col}, CAST(mn * {scale} // n AS BIGINT) AS bp
      FROM c, m)
SELECT d.{id_col}, d.{group_col}
FROM {table} d JOIN r USING ({group_col})
WHERE {bucket_sql_expr(text_col, scale)} < r.bp"""
