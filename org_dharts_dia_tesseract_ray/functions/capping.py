"""Per-key frequency capping — the C4/Gopher "at most K documents per
registered domain" selection step of a web-crawl training pipeline.

Keeping every page of a mega-domain skews a training corpus toward its
boilerplate; production pipelines cap each domain at K documents chosen by
a DETERMINISTIC order (here: the caller's ``order_by``, e.g. crawl
timestamp then url) so reruns and repartitions pick the same survivors.

Shape (the repo's standard high-cardinality reduction, cf.
``__ray_entry__._q_events_latest`` / ``stages/dedup.py``):

1. per-batch partial cap (vectorized sort + run-rank): global first-K per
   key is contained in the union of per-batch first-K per key, so each
   block forwards ≤ K rows per key it has seen — the combiner that keeps
   the shuffle proportional to ``K × distinct_keys``, not corpus size;
2. ONE hash exchange on ``hash(key) % P`` (``util.hash_exchange``);
3. one vectorized pass per partition handling all of its keys (Python call
   count stays P regardless of key cardinality).

Reference analogue: the wrapper caps work per document handle one page at
a time (TessBaseAPI.java handle lifecycle); at corpus scale the cap is per
key over the whole crawl and must be a dataflow reduction.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..util import (as_array, exchange_side, hash_exchange, key_change_mask,
                    mapped_side)

#: scheme://host — host stops at port, path, query or fragment.  Same
#: grammar family as urls._PARTS; DuckDB shares RE2 so the SQL oracle is
#: bit-compatible.
_HOST_RE = r"^[a-zA-Z][a-zA-Z0-9+.-]*://([^/:?#]+)"
_HOST_RE_NAMED = _HOST_RE.replace("(", "(?P<host>", 1)


def first_k_per_key(t: pa.Table, key: str, order_by: list,
                    k: int) -> pa.Table:
    """Keep the first ``k`` rows of each key by ``[key asc] + order_by`` —
    the vectorized kernel shared by the combiner and the reducer.

    Sort once, then rank-within-run via the run-boundary mask (no Python
    per key): rank[i] = i - start_of_run(i)."""
    import numpy as np
    if t.num_rows == 0:
        return t
    t = t.sort_by([(key, "ascending")] + order_by)
    n = t.num_rows
    change = key_change_mask(t[key], n)
    idx = np.arange(n, dtype=np.int64)
    run_id = np.cumsum(change) - 1
    rank = idx - idx[change][run_id]
    return t.filter(pa.array(rank < k))


def top_k_per_key(ds, *, key_col: str, order_by: list, k: int,
                  num_partitions: int | None = None):
    """Distributed first-K-rows-per-key selection (deterministic order).
    ``ds``: a Dataset or a ``(dataset, schema)`` pair
    (``util.exchange_side``)."""
    def reduce(t: pa.Table) -> pa.Table:
        return first_k_per_key(t, key_col, order_by, k)

    ds, schema = exchange_side(ds)
    # the kernel is its own combiner: the global first K of a key lie in
    # the union of every batch's first K
    return hash_exchange(
        [(ds.map_batches(reduce, batch_format="pyarrow",
                         zero_copy_batch=True), schema)],
        key_col, reduce, schema, num_partitions=num_partitions)


def first_budget_per_key(t: pa.Table, key: str, order_by: list,
                         weight_col: str, budget: int, *,
                         with_summaries: bool = False) -> pa.Table:
    """Keep each key's prefix (in ``[key asc] + order_by`` order) whose
    INCLUSIVE cumulative ``weight_col`` stays ≤ ``budget`` — the
    token-quota variant of :func:`first_k_per_key`.

    Same vectorized shape: one sort, run-boundary mask, cumulative sum
    rebased at each run start.  A null weight costs 0 against the budget
    (its row survives while the run is under budget, value preserved) —
    the SQL analogue is ``SUM(COALESCE(w, 0)) OVER ...``.

    ``with_summaries=True`` is the COMBINER mode: unlike the count cap,
    the plain quota kernel is NOT its own combiner.  A batch-local prefix
    sum only underestimates the global one, so a per-batch pass never
    evicts a global survivor — but it may evict a global LOSER early
    (its local cum already exceeds the budget), and that loser's weight
    then vanishes from the reduce-stage cumulative sum, letting a LATER
    loser from another batch sneak back under the budget.  The fix:
    whenever a key's batch suffix is dropped, emit ONE summary row in its
    place — the first dropped row with its weight replaced by the whole
    dropped suffix's total (weight column widened to int64).  Dropped
    rows all lie beyond the key's global cutoff (their global cum exceeds
    the budget too), so a summary can never depress a true survivor's
    rank; it only inflates post-cutoff cumulative sums, which the reduce
    pass then correctly pushes over the budget (the summary row itself
    included).  Survivor weights are untouched.
    """
    import numpy as np
    i = t.column_names.index(weight_col)
    wcol = pc.cast(t[weight_col], pa.int64())
    # widen unconditionally so every output block (combiner fast path
    # included) carries the same int64 schema
    t = t.set_column(i, pa.field(weight_col, pa.int64()),
                     pa.chunked_array([wcol]) if isinstance(wcol, pa.Array)
                     else wcol)
    if t.num_rows == 0:
        return t
    t = t.sort_by([(key, "ascending")] + order_by)
    n = t.num_rows
    change = key_change_mask(t[key], n)
    # null weight contributes 0 to the cumulative sum — the window-SUM
    # oracle skips NULLs — while the output column keeps its nulls
    w = np.asarray(pc.fill_null(t[weight_col], 0))
    cum = np.cumsum(w)
    idx = np.arange(n, dtype=np.int64)
    run_start = idx[change][np.cumsum(change) - 1]
    base = cum[run_start] - w[run_start]     # exclusive sum before the run
    loc = cum - base                         # inclusive sum within the run
    keep = loc <= budget
    if not with_summaries or keep.all():
        return t.filter(pa.array(keep))
    # weights are non-negative -> loc is non-decreasing within a run, so
    # each run's dropped rows form a suffix; summarize it into its first row
    drop = ~keep
    first_drop = drop & (change | np.concatenate(([False], keep[:-1])))
    run_last = np.flatnonzero(np.concatenate((change[1:], [True])))
    run_total = loc[run_last]                # total weight per run
    run_id = np.cumsum(change) - 1
    f = np.flatnonzero(first_drop)
    w2 = w.copy()
    w2[f] = run_total[run_id[f]] - (loc[f] - w[f])   # dropped-suffix total
    # replace ONLY the summary rows' weights; kept rows preserve their
    # original values (nulls included)
    is_summary = np.zeros(n, dtype=bool)
    is_summary[f] = True
    new_w = pc.if_else(pa.array(is_summary), pa.array(w2, pa.int64()),
                       t[weight_col])
    t = t.set_column(t.column_names.index(weight_col),
                     pa.field(weight_col, pa.int64()), new_w)
    return t.filter(pa.array(keep | first_drop))


def budget_cap_per_key(ds, *, key_col: str, order_by: list,
                       weight_col: str, budget: int,
                       num_partitions: int | None = None):
    """Distributed per-key quota selection: keep rows of each key, in
    deterministic order, until the key's cumulative weight (e.g. token
    count) reaches ``budget`` — the per-source token-budget step of
    corpus assembly.  Summary-row combiner (see
    :func:`first_budget_per_key` ``with_summaries``) → ONE hash-partition
    shuffle → one vectorized pass per partition (same plan as
    :func:`top_k_per_key`).  Weights must be non-negative (token/byte
    counts are) — a negative weight would break the prefix-monotonicity
    both the combiner and its summary argument rely on.  ``order_by``
    must be a TOTAL order within each key (e.g. a unique id) or tied rows
    at the cutoff are kept nondeterministically.  The weight column is
    widened to int64 in the output.
    """
    def combine(b: pa.Table) -> pa.Table:
        return first_budget_per_key(b, key_col, order_by, weight_col,
                                    budget, with_summaries=True)

    def reduce(t: pa.Table) -> pa.Table:
        return first_budget_per_key(t, key_col, order_by, weight_col,
                                    budget)

    combined, schema = mapped_side(ds, combine)
    return hash_exchange([(combined, schema)], key_col, reduce, schema,
                         num_partitions=num_partitions)


def add_domain_batch(batch: pa.Table, *, url_col: str = "url",
                     out_col: str = "domain") -> pa.Table:
    """Append the lowercased host extracted from ``url_col`` (null when the
    value does not parse as an absolute URL)."""
    url = as_array(batch[url_col])
    parts = pc.extract_regex(url, _HOST_RE_NAMED)
    host = pc.utf8_lower(pc.struct_field(parts, "host"))
    return batch.append_column(out_col, host)


def domain_cap(ds, *, url_col: str = "url", order_by: list, k: int,
               num_partitions: int | None = None):
    """Cap the dataset at ``k`` rows per url host, survivors chosen by
    ``order_by`` — appends a ``domain`` column the caller may drop."""
    def add_domain(b: pa.Table) -> pa.Table:
        return add_domain_batch(b, url_col=url_col)

    return top_k_per_key(mapped_side(ds, add_domain), key_col="domain",
                         order_by=order_by, k=k,
                         num_partitions=num_partitions)


def domain_sql_expr(col: str) -> str:
    """DuckDB expression computing the same lowercased host.  regexp_extract
    returns '' on no match where the Arrow kernel yields null; nullif
    restores parity for unparseable URLs."""
    return f"nullif(lower(regexp_extract({col}, '{_HOST_RE}', 1)), '')"
