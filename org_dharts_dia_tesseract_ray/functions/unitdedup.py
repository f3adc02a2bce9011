"""Global line/paragraph-level exact deduplication — every distinct text
unit survives only at its globally FIRST occurrence (minimal (doc, pos)),
and documents are reassembled from their surviving units.

The CCNet / RefinedWeb step that document-level dedup
(:mod:`dedup`) can't express: boilerplate lines ("all rights reserved",
cookie banners, nav menus) repeat across millions of documents that are
each globally unique as a whole.  Unit granularity is the separator
(``"\\n"`` for lines, ``"\\n\\n"`` for paragraphs).

Scale design — the text is shuffled exactly ONCE (the final doc-id
co-shuffle) and there are TWO exchanges total; everything global moves
as slim fixed-width rows:

1. **winners exchange** (slim): one explode over the corpus emits
   ``(unit_hash: u64, packed: doc_id·2^20 + pos)`` — 16 bytes per unit
   occurrence, never the unit text — pre-collapsed per batch (Arrow
   ``group_by`` min combiner), hash-partitioned on the unit hash, and
   reduced per partition with a vectorized Arrow min (Ray's native
   sort-aggregate measured ~76 µs/row on slim keys — the idiom here is
   ~10×).  The reduce decodes winners straight back to ``(doc, pos)``
   rows; no second pass over the corpus.
2. **reassembly co-shuffle** (the one text exchange): docs and their
   surviving positions meet in an id-keyed tagged-union co-shuffle; the
   per-partition merge sorts winners to (doc, pos), maps them onto the
   partition's docs with one ``searchsorted``, re-splits each doc and
   takes the kept positions (flattened list arithmetic, no Python per
   doc).

A document whose every unit first occurred elsewhere is dropped entirely
(inner-join semantics — the document deduplicated away), matching the
SQL oracle's group-by over kept units.  Null-text documents contribute
no units and are likewise absent.  Positions are capped at 2^20 units
per document (packed-key arithmetic); the skew splitter upstream keeps
real documents far below this.

Winner selection groups by a 64-bit content hash (collision odds
~(#distinct units)²/2^64 — negligible), while the oracle groups by the
exact string; both pick min-(doc,pos) deterministically.

Reference analogue: connected-region merging dissolving duplicate blocks
(LayoutHandle block enumeration) — here the "region" is the identical
text unit and the merge is corpus-global.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import (as_array, default_num_partitions, hash_exchange,
                    keyed_coshuffle, ragged_arange, _string_hash64)

#: positions-per-document cap baked into the packed (doc, pos) key
_MAX_UNITS = 1 << 20


def _split_units(b: pa.Table, text_col: str, sep: str):
    """(units list-array, flat units, parents, lens) for the batch's
    non-null-text rows; caller must pre-filter null text."""
    units = pc.split_pattern(b[text_col], sep)
    flat = as_array(pc.list_flatten(units))
    parents = np.asarray(pc.list_parent_indices(units), dtype=np.int64)
    lens = np.asarray(pc.list_value_length(units), dtype=np.int64)
    return units, flat, parents, lens


def unit_dedup(ds, *, sep: str = "\n", text_col: str = "text",
               id_col: str = "doc_id", num_partitions: int | None = None):
    """(id, text_kept, n_units, n_kept) — see module docstring.

    CONTRACT: ``id_col`` must be unique (the corpus primary key): the
    reassembly maps winner positions onto documents by id, so a repeated
    id raises ``ValueError`` instead of silently misassigning units.  Run
    url/doc dedup first (the pipeline's own ordering)."""
    P = num_partitions or default_num_partitions()

    def drop_null(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b[text_col]))

    docs = ds.map_batches(drop_null, batch_format="pyarrow",
                          zero_copy_batch=True)

    # ---- exchange 1: slim explode → min(packed) winners, decoded in place
    def explode(b: pa.Table) -> pa.Table:
        _, flat, parents, lens = _split_units(b, text_col, sep)
        if np.any(lens >= _MAX_UNITS):
            raise ValueError(f"document exceeds {_MAX_UNITS} units")
        pos = ragged_arange(lens)
        ids = np.asarray(b[id_col], dtype=np.int64)[parents]
        # int64 view of the uint64 hash — the signed reinterpretation is
        # bijective so grouping is unchanged
        t = pa.table({
            "h": pa.array(_string_hash64(flat).view(np.int64), pa.int64()),
            "packed": pa.array(ids * _MAX_UNITS + pos, pa.int64()),
        })
        # per-batch combiner: one row per distinct unit before the shuffle
        c = t.group_by("h").aggregate([("packed", "min")])
        return pa.table({"h": c["h"], "packed": c["packed_min"]})

    def win_part(g: pa.Table) -> pa.Table:
        # per h-partition (all occurrences of a unit co-resident): global
        # min via one vectorized Arrow reduce, decoded straight to
        # (doc, pos) winner rows
        c = g.group_by("h").aggregate([("packed", "min")])
        packed = np.asarray(c["packed_min"], dtype=np.int64)
        return pa.table({
            id_col: pa.array(packed // _MAX_UNITS, pa.int64()),
            "pos": pa.array(packed % _MAX_UNITS, pa.int64()),
        })

    win_schema = pa.schema([(id_col, pa.int64()), ("pos", pa.int64())])
    winners = hash_exchange(
        [(docs.map_batches(explode, batch_format="pyarrow",
                           zero_copy_batch=True),
          pa.schema([("h", pa.int64()), ("packed", pa.int64())]))],
        "h", win_part, win_schema, num_partitions=P)

    # ---- exchange 2: id-keyed co-shuffle of docs and their surviving
    # positions (util.keyed_coshuffle); the per-partition merge
    # reassembles directly (the substrdedup join-strategy shape — one
    # barrier, not two)
    def merge(tb: pa.Table, wb: pa.Table) -> pa.Table:
        ids_t = np.asarray(tb[id_col], dtype=np.int64)
        order_t = np.argsort(ids_t, kind="stable")
        ids_sorted = ids_t[order_t]
        if np.any(ids_sorted[1:] == ids_sorted[:-1]):
            raise ValueError(f"unit_dedup: {id_col} is not unique")
        tb = tb.take(pa.array(order_t))
        ids_w = np.asarray(wb[id_col], dtype=np.int64)
        pos_w = np.asarray(wb["pos"], dtype=np.int64)
        ow = np.lexsort((pos_w, ids_w))
        ids_w, pos_w = ids_w[ow], pos_w[ow]
        rows = np.searchsorted(ids_sorted, ids_w)

        units, flat, parents, lens = _split_units(tb, text_col, sep)
        doc_off = np.concatenate(([0], np.cumsum(lens)[:-1]))
        take = doc_off[rows] + pos_w
        kept_flat = flat.take(pa.array(take, pa.int64()))
        kept_counts = np.bincount(rows, minlength=tb.num_rows)
        offs = np.concatenate(([0], np.cumsum(kept_counts)))
        kept_list = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                             kept_flat)
        out = pa.table({
            id_col: tb[id_col],
            "text_kept": pc.binary_join(kept_list, sep),
            "n_units": pa.array(lens, pa.int64()),
            "n_kept": pa.array(kept_counts.astype(np.int64), pa.int64()),
        })
        # a document whose every unit first occurred elsewhere is dropped
        # (inner-join semantics, matching the oracle's GROUP BY over kept)
        return out.filter(pa.array(kept_counts > 0))

    return keyed_coshuffle(
        docs, winners, id_col,
        pa.schema([(id_col, pa.int64()), (text_col, pa.string())]),
        win_schema, merge, num_partitions=P)


def unit_dedup_sql(*, sep_sql: str = "chr(10)", table: str = "documents",
                   text_col: str = "text", id_col: str = "doc_id") -> str:
    """DuckDB oracle: exact-string winners via min packed key, kept units
    re-aggregated in position order."""
    return f"""
WITH s AS (
  SELECT {id_col}, string_split({text_col}, {sep_sql}) AS arr
  FROM {table} WHERE {text_col} IS NOT NULL),
u AS (
  SELECT {id_col}, arr,
         unnest(range(len(arr))) AS pos
  FROM s),
u2 AS (
  SELECT {id_col}, pos, arr[pos + 1] AS unit, len(arr) AS n_units
  FROM u),
w AS (
  SELECT unit, min({id_col} * {_MAX_UNITS} + pos) AS packed
  FROM u2 GROUP BY unit)
SELECT u2.{id_col},
       string_agg(u2.unit, {sep_sql} ORDER BY u2.pos) AS text_kept,
       CAST(any_value(u2.n_units) AS BIGINT) AS n_units,
       CAST(count(*) AS BIGINT) AS n_kept
FROM u2 JOIN w
  ON u2.unit = w.unit AND u2.{id_col} * {_MAX_UNITS} + u2.pos = w.packed
GROUP BY u2.{id_col}"""
