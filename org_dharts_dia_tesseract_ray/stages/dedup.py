"""Exact URL deduplication — keep the latest capture per url.

The reference has no cross-document operators at all (single-doc loop,
SURVEY.md §2.5), but a Common-Crawl-shaped corpus requires exact URL dedup
before extraction.  Design for scale:

1. **per-batch combiner** (``map_batches``): drop within-batch duplicates
   first, shrinking the shuffle input — the partial-aggregation pattern;
2. ONE hash exchange keyed on ``url`` (``util.hash_exchange``) reduced by
   the same vectorized kernel per partition — no per-url Python, strict
   one-row-per-url.

Tie-break is fully deterministic: max ``warc_ts`` (nulls rank lowest, below
any real timestamp including pre-epoch ones), then max payload length, then
greatest whole-row content digest — parallelism can never change the
survivor (byte-identity gate).  Rows that are COMPLETELY identical collapse
to one row; since they are byte-identical, which physical copy survives is
unobservable.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from ..util import as_array, first_per_key, hash_exchange, mapped_side

#: non-key columns beyond the payload that participate in the tie-break
#: digest — rows differing ONLY in text/lang must still pick a
#: deterministic survivor (whole-row rank, not payload-only)
_DIGEST_COLS = ("html", "text", "lang")


def _ts_keys(batch: pa.Table) -> tuple[pa.Array, pa.Array]:
    """(validity int8 desc-sortable, int64 value) — null timestamps rank
    strictly below every real timestamp (including epoch 0 and pre-epoch
    negatives), instead of colliding with epoch 0."""
    ts = batch["warc_ts"]
    valid = pc.cast(pc.is_valid(ts), pa.int8())
    val = pc.coalesce(pc.cast(ts, pa.int64()), pa.scalar(0, pa.int64()))
    return as_array(valid), as_array(val)


def _row_digests(t: pa.Table) -> pa.Array:
    """Whole-row md5 over the non-key columns (missing columns skipped).
    A per-column validity marker precedes each value so a null and an empty
    value rank DISTINCTLY — without it rows identical in (url, ts, length)
    differing only by null-vs-empty text/lang would digest equal and leave
    the survivor to sort stability."""
    cols = [t[c].to_pylist() for c in _DIGEST_COLS if c in t.column_names]
    digs = []
    for vals in zip(*cols) if cols else [()] * t.num_rows:
        h = hashlib.md5()
        for v in vals:
            if isinstance(v, str):
                v = v.encode("utf-8")
            h.update(b"\x01" if v is not None else b"\x00")
            h.update(v or b"")
            h.update(b"\x00")
        digs.append(h.hexdigest())
    return pa.array(digs, pa.string())


def _has_full_ties(t: pa.Table) -> bool:
    """True if any adjacent sorted rows share (url, __tsv, __tsn, __nb).

    Comparisons run on the null-free key columns — ``pc.equal`` on nulls
    yields null and ``pc.any`` would ignore the tie entirely."""
    if t.num_rows <= 1:
        return False
    same = None
    for col in ("url", "__tsn", "__tsv", "__nb"):
        c = as_array(t[col])
        eq = pc.equal(c.slice(1), c.slice(0, len(c) - 1))
        same = eq if same is None else pc.and_(same, eq)
    return bool(pc.any(same).as_py())


def _keep_latest(batch: pa.Table) -> pa.Table:
    """Vectorized one-row-per-url reducer over an in-memory table."""
    if batch.num_rows <= 1:
        return batch
    nbytes = pc.coalesce(pc.binary_length(batch["html"]).cast(pa.int64()),
                         pa.scalar(0, pa.int64()))
    tsn, tsv = _ts_keys(batch)
    t = batch.append_column("__nb", as_array(nbytes))
    t = t.append_column("__tsn", tsn)
    t = t.append_column("__tsv", tsv)
    order = [("url", "ascending"), ("__tsn", "descending"),
             ("__tsv", "descending"), ("__nb", "descending")]
    t = t.sort_by(order)
    # full-tie hazard: equal (url, ts, length) but different content would
    # leave the survivor to sort stability — resolve with the whole-row
    # digest, computed only when such ties exist (vanishingly rare)
    if _has_full_ties(t):
        t = t.append_column("__dig", _row_digests(t))
        t = t.sort_by(order + [("__dig", "descending")])
        t = t.drop_columns(["__dig"])
    return first_per_key(t, "url").drop_columns(["__nb", "__tsn", "__tsv"])


def dedup_pages(ds, *, num_partitions: int | None = None):
    """pages Dataset → pages Dataset with one row per url.

    The vectorized per-batch combiner runs first (pure win when
    duplicates cluster in time), then ONE hash exchange on url reduces
    each partition with the same kernel: Python call count = P, not
    |urls|, and a STRICT one-row-per-url guarantee (each url lives
    entirely inside one partition).  Memory bound: one partition must fit
    a worker — size ``num_partitions`` ≈ corpus_bytes / worker_heap at
    scale."""
    combined, schema = mapped_side(ds, _keep_latest)
    return hash_exchange([(combined, schema)], "url", _keep_latest, schema,
                         num_partitions=num_partitions)
