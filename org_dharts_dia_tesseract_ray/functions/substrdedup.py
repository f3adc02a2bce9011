"""Exact-substring deduplication — cross-document duplicated token spans.

The classic pretraining-data cleanup (Lee et al. 2021, "Deduplicating
Training Data Makes Language Models Better"): any window of ``w`` tokens
that appears verbatim in more than one document marks a duplicated span;
maximal runs of marked windows are reported (``duplicated_spans``) or cut
out of the text (``dedup_substrings``).  Suffix arrays are the batch
answer; the streaming-friendly equivalent used here is rolling-hash
w-grams — the same trade the decontamination stage makes
(``functions/decontam.py``).

One plan per operator, nothing collected on the driver:

1. **Mark** (``_marked_ds``, one exchange) — a per-batch sweep tokenizes
   (``vocab.ws_tokens``) and rolls a 64-bit polynomial over the token
   hashes into a slim ``(gram, doc, pos)`` window table (24 B/token; the
   text never shuffles).  One gram-hash exchange makes every occurrence
   of a gram co-resident, so the cross-doc test and the semi-join are
   one vectorized pass per partition.
2. **Assemble** (one exchange) — ``duplicated_spans`` hash-partitions the
   surviving ``(doc, pos)`` rows on the id and merges them into maximal
   islands; ``dedup_substrings`` meets them with the text in one id-keyed
   tagged-union co-shuffle whose per-partition merge strips the covered
   tokens directly.

Two exchanges per operator; the scale bound is shuffle volume, never
driver memory.  Both operators require a unique ``id_col`` (the corpus
primary key): rows meet by id after the shuffle.

Determinism: token hashes are ``util._string_hash64`` (the shared
byte-polynomial + splitmix64), gram hashes a fixed-multiplier polynomial
over them — whitespace tokens can't contain spaces, so the space-joined
gram string of the DuckDB oracle is bijective with the token sequence and
the 64-bit hash stands in for it (collision-free at any plausible scale;
the oracle would flag one as a row diff).  Within-document repeats are
deliberately NOT duplicates (cross-doc only, ``count(DISTINCT doc_id) >
1``); the removal variant cuts EVERY covered occurrence — keep-one
canonicalization is a policy layer on top, as in the reference tooling.

Reference analogue: the dedup family rows of SURVEY.md §2.5 (set ops).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import _string_hash64
from .vocab import doc_ngrams_batch, ws_tokens_sql

#: FNV-64 prime — the same multiplier the shared string hash uses.
_M = np.uint64(1099511628211)


def _token_runs(batch: pa.Table, text_col: str):
    """(flat token hashes, per-token doc row, per-token position-in-doc)
    for a batch — null-safe (null text contributes no tokens)."""
    flat, parents, _ = doc_ngrams_batch(batch[text_col], 1)
    parents = np.asarray(parents, dtype=np.int64)
    n = len(parents)
    if n == 0:
        return (np.empty(0, np.uint64), parents,
                np.empty(0, np.int64))
    # position within doc: flat index minus the first flat index of the
    # doc's run (derived from parents, so null rows can't misalign it)
    starts = np.r_[0, np.flatnonzero(np.diff(parents)) + 1]
    run_lens = np.diff(np.r_[starts, n])
    run_start_of = np.repeat(starts, run_lens)
    pos = np.arange(n, dtype=np.int64) - run_start_of
    return np.asarray(_string_hash64(flat)), parents, pos


def _gram_hashes(h: np.ndarray, parents: np.ndarray, pos: np.ndarray,
                 w: int):
    """Rolling polynomial over ``w`` consecutive token hashes; keeps only
    windows fully inside one document.  Returns (gram, parent_row, pos)."""
    n = len(h)
    if n < w:
        e64 = np.empty(0, np.uint64)
        e = np.empty(0, np.int64)
        return e64, e, e
    width = n - w + 1
    acc = np.zeros(width, np.uint64)
    with np.errstate(over="ignore"):
        for j in range(w):
            acc = acc * _M + h[j:j + width]
    same_doc = parents[:width] == parents[w - 1:w - 1 + width]
    return acc[same_doc], parents[:width][same_doc], pos[:width][same_doc]


def _islands_table(doc_ids: np.ndarray, p: np.ndarray, *, w: int,
                   id_col: str, out_schema: pa.Schema) -> pa.Table:
    """Merge marked window positions (sorted by (doc, pos)) into maximal
    spans — break on doc change or coverage gap (> w)."""
    if len(doc_ids) == 0:
        return out_schema.empty_table()
    brk = np.r_[True, (np.diff(doc_ids) != 0) | (np.diff(p) > w)]
    grp = np.cumsum(brk) - 1
    n_grp = int(grp[-1]) + 1
    starts = p[brk]
    ends = np.zeros(n_grp, np.int64)
    np.maximum.at(ends, grp, p + w)
    counts = np.bincount(grp, minlength=n_grp)
    return pa.table({
        id_col: pa.array(doc_ids[brk], pa.int64()),
        "tok_start": pa.array(starts, pa.int64()),
        "tok_end": pa.array(ends, pa.int64()),
        "n_dup_grams": pa.array(counts.astype(np.int64), pa.int64()),
    })


def _marked_ds(ds, *, w: int, text_col: str, id_col: str,
               num_partitions: int):
    """Distributed ``(gram, id, pos)`` of every duplicated window.  The
    per-window table (24 B/token, the text never shuffles) is
    hash-partitioned on the gram key, and — because every occurrence of a
    gram lands in the same partition — the cross-doc test (min doc ≠ max
    doc per gram) AND the semi-join collapse into one vectorized pass per
    partition: ONE exchange, and the dup-gram table never leaves the
    object store."""
    from ..util import hash_exchange, mapped_side

    def windows(b: pa.Table) -> pa.Table:
        g, rows, p = _gram_hashes(*_token_runs(b, text_col), w)
        ids = np.asarray(b[id_col], dtype=np.int64)[rows]
        return pa.table({
            "gram": pa.array(g.view(np.int64), pa.int64()),
            id_col: pa.array(ids, pa.int64()),
            "pos": pa.array(p, pa.int64()),
        })

    def mark_part(t: pa.Table) -> pa.Table:
        agg = t.group_by("gram").aggregate([(id_col, "min"),
                                            (id_col, "max")])
        dup = agg.filter(pc.not_equal(agg[f"{id_col}_min"],
                                      agg[f"{id_col}_max"]))["gram"]
        return t.filter(pc.is_in(t["gram"], value_set=dup.combine_chunks()
                                 if isinstance(dup, pa.ChunkedArray)
                                 else dup))

    win, schema = mapped_side(ds, windows)
    return hash_exchange([(win, schema)], "gram", mark_part, schema,
                         num_partitions=num_partitions)


def _check_strategy(strategy: str) -> None:
    # "join" is the only plan; the keyword stays because the benchmark's
    # curate_exchange workload passes strategy="join" — drop it with the
    # next benchmark change
    if strategy != "join":
        raise ValueError(f"unknown strategy: {strategy!r} (only 'join')")


def duplicated_spans(ds, *, w: int = 8, text_col: str = "text",
                     id_col: str = "doc_id", strategy: str = "join",
                     num_partitions=None):
    """(doc_id, tok_start, tok_end, n_dup_grams) — maximal duplicated
    spans; [tok_start, tok_end) are 0-based token offsets.

    Two exchanges: the gram semi-join of :func:`_marked_ds`, then one
    id-keyed exchange that merges each document's marked windows into
    islands.  Typed (4 columns) on empty input.

    CONTRACT: ``id_col`` must be unique (the corpus primary key).  Rows
    meet by id after the shuffle, so duplicate-id rows would merge into
    one island stream; run url/doc dedup first (the pipeline's own
    ordering).  Unlike :func:`dedup_substrings` this is not checked: the
    text rows never reach the island merge."""
    from ..util import default_num_partitions, hash_exchange

    _check_strategy(strategy)
    out_schema = pa.schema([(id_col, pa.int64()),
                            ("tok_start", pa.int64()),
                            ("tok_end", pa.int64()),
                            ("n_dup_grams", pa.int64())])
    if num_partitions is None:
        num_partitions = default_num_partitions()
    marked = _marked_ds(ds, w=w, text_col=text_col, id_col=id_col,
                        num_partitions=num_partitions)

    def per_part(g: pa.Table) -> pa.Table:
        # ONE vectorized pass per hash partition (Python calls = P, not
        # docs): lexsort to (doc, pos) then the multi-doc island merge
        ids = np.asarray(g[id_col], dtype=np.int64)
        p = np.asarray(g["pos"], dtype=np.int64)
        order = np.lexsort((p, ids))
        return _islands_table(ids[order], p[order], w=w, id_col=id_col,
                              out_schema=out_schema)

    # the pinned side drops the dead gram column BEFORE the id exchange —
    # this shuffle's volume is the scale bound, and gram is a third of the
    # marked row
    return hash_exchange(
        [(marked, pa.schema([(id_col, pa.int64()), ("pos", pa.int64())]))],
        id_col, per_part, out_schema, num_partitions=num_partitions)


def _strip_covered(b: pa.Table, rows: np.ndarray, p: np.ndarray, *,
                   w: int, text_col: str, id_col: str) -> pa.Table:
    """Remove every token covered by a marked window ``(rows, p)`` —
    rows are batch row indices, p token positions within the row."""
    flat, parents, _ = doc_ngrams_batch(b[text_col], 1)
    parents = np.asarray(parents, dtype=np.int64)
    n_toks = np.bincount(parents, minlength=b.num_rows)
    doc_off = np.r_[0, np.cumsum(n_toks)]
    total = int(doc_off[-1])
    # coverage via prefix-sum deltas: +1 at each marked start, -1 at
    # start+w (full windows never cross a doc boundary)
    delta = np.zeros(total + 1, np.int64)
    if len(rows):
        flat_s = doc_off[rows] + p
        np.add.at(delta, flat_s, 1)
        np.add.at(delta, flat_s + w, -1)
    covered = np.cumsum(delta[:total]) > 0
    keep = ~covered
    # rebuild one list of kept tokens per row, then a single
    # vectorized join — no per-doc Python string assembly
    kept_counts = np.zeros(b.num_rows, np.int64)
    if total:
        np.add.at(kept_counts, parents[keep], 1)
    offsets = np.r_[0, np.cumsum(kept_counts)]
    kept_list = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        flat.filter(pa.array(keep)) if total else flat)
    clean_txt = pc.binary_join(kept_list, " ")
    removed = (n_toks - kept_counts).astype(np.int64)
    return pa.table({
        id_col: b[id_col],
        "clean_text": clean_txt,
        "n_removed": pa.array(removed, pa.int64()),
    })


def dedup_substrings(ds, *, w: int = 8, text_col: str = "text",
                     id_col: str = "doc_id", strategy: str = "join",
                     num_partitions=None):
    """(doc_id, clean_text, n_removed) — text with every token covered by a
    cross-doc duplicated ``w``-gram removed (single-space rejoin; the
    corpus text is single-spaced already, see the roundtrip oracle).

    Two exchanges: the gram semi-join of :func:`_marked_ds`, then ONE
    id-keyed tagged-union co-shuffle that carries both the text and the
    marked positions, whose per-partition merge strips spans directly.
    Typed (3 columns) on empty input.  Raises ``ValueError`` when
    ``id_col`` is not unique."""
    from ..util import default_num_partitions, ds_arrow_schema, \
        keyed_coshuffle

    _check_strategy(strategy)
    if num_partitions is None:
        num_partitions = default_num_partitions()
    id_type = ds_arrow_schema(ds).field(id_col).type
    marked = _marked_ds(ds, w=w, text_col=text_col, id_col=id_col,
                        num_partitions=num_partitions)

    def merge(tb: pa.Table, mb: pa.Table) -> pa.Table:
        # every text row of an id meets here, so this is where a repeated
        # id is caught (its marked positions would land on one row)
        ids_t = np.asarray(tb[id_col], dtype=np.int64)
        order_t = np.argsort(ids_t, kind="stable")
        ids_sorted = ids_t[order_t]
        if np.any(ids_sorted[1:] == ids_sorted[:-1]):
            raise ValueError(f"dedup_substrings: {id_col} is not unique")
        tb = tb.take(pa.array(order_t))
        ids_m = np.asarray(mb[id_col], dtype=np.int64)
        p = np.asarray(mb["pos"], dtype=np.int64)
        om = np.lexsort((p, ids_m))
        ids_m, p = ids_m[om], p[om]
        rows = np.searchsorted(ids_sorted, ids_m)
        return _strip_covered(tb, rows, p, w=w, text_col=text_col,
                              id_col=id_col)

    return keyed_coshuffle(
        ds.select_columns([id_col, text_col]), marked, id_col,
        pa.schema([(id_col, id_type), (text_col, pa.string())]),
        pa.schema([(id_col, id_type), ("pos", pa.int64())]),
        merge, num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# DuckDB oracles

def _gram_cte(w: int, table: str, text_col: str, id_col: str) -> str:
    return f"""
toks AS (
  SELECT {id_col},
         unnest({ws_tokens_sql(text_col)}) AS tok,
         CAST(generate_subscripts({ws_tokens_sql(text_col)}, 1)
           AS BIGINT) - 1 AS pos
  FROM {table} WHERE {text_col} IS NOT NULL),
nt AS (SELECT {id_col}, count(*) AS n FROM toks GROUP BY {id_col}),
grams AS (
  SELECT t.{id_col}, t.pos,
         string_agg(tok, ' ') OVER (
           PARTITION BY {id_col} ORDER BY pos
           ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS gram
  FROM toks t),
fg AS (SELECT g.{id_col}, g.pos, g.gram
       FROM grams g JOIN nt USING ({id_col}) WHERE g.pos + {w} <= nt.n),
dup AS (SELECT gram FROM fg GROUP BY gram
        HAVING count(DISTINCT {id_col}) > 1),
marked AS (SELECT {id_col}, pos FROM fg JOIN dup USING (gram))"""


def duplicated_spans_sql(w: int = 8, table: str = "documents",
                         text_col: str = "text",
                         id_col: str = "doc_id") -> str:
    return f"""
WITH {_gram_cte(w, table, text_col, id_col)},
flg AS (
  SELECT {id_col}, pos,
         CASE WHEN pos - lag(pos) OVER (
                PARTITION BY {id_col} ORDER BY pos) <= {w}
              THEN 0 ELSE 1 END AS brk
  FROM marked),
isl AS (SELECT {id_col}, pos,
               SUM(brk) OVER (PARTITION BY {id_col} ORDER BY pos) AS grp
        FROM flg)
SELECT {id_col}, CAST(MIN(pos) AS BIGINT) AS tok_start,
       CAST(MAX(pos) + {w} AS BIGINT) AS tok_end,
       CAST(COUNT(*) AS BIGINT) AS n_dup_grams
FROM isl GROUP BY {id_col}, grp"""


def dedup_substrings_sql(w: int = 8, table: str = "documents",
                         text_col: str = "text",
                         id_col: str = "doc_id") -> str:
    return f"""
WITH {_gram_cte(w, table, text_col, id_col)},
cover AS (
  SELECT DISTINCT t.{id_col}, t.pos
  FROM toks t JOIN marked m ON t.{id_col} = m.{id_col}
       AND t.pos >= m.pos AND t.pos < m.pos + {w}),
kept AS (
  SELECT t.{id_col}, t.pos, t.tok
  FROM toks t LEFT JOIN cover c ON t.{id_col} = c.{id_col}
       AND t.pos = c.pos
  WHERE c.pos IS NULL)
SELECT d.{id_col},
       COALESCE((SELECT string_agg(k.tok, ' ' ORDER BY k.pos)
                 FROM kept k WHERE k.{id_col} = d.{id_col}), '')
         AS clean_text,
       CAST(COALESCE((SELECT count(*) FROM cover c
                      WHERE c.{id_col} = d.{id_col}), 0) AS BIGINT)
         AS n_removed
FROM {table} d"""
