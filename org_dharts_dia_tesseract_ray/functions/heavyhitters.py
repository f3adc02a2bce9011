"""Misra-Gries heavy hitters — frequent tokens with a shuffle volume
bounded by a fixed capacity, independent of vocabulary size.

``vocab.vocab_topk`` pre-combines per batch but still ships every
distinct token of every batch through the shuffle — at web scale the
token vocabulary is ~10^9 (urls, hashes, code identifiers), so even the
combined partials are corpus-sized.  The Misra-Gries summary caps each
batch's emission at ``capacity`` rows with a one-sided, bounded error:

1. per batch: exact vectorized token counts (``vocab.token_counts_batch``
   — itself a zero-error MG summary of the batch), then if the batch has
   more than ``capacity`` distinct tokens, subtract the (capacity+1)-th
   largest count ``t`` from every count and drop the non-positive rows
   (the classic MG decrement, applied in one vectorized step).  Each
   surviving count underestimates the batch's true count by at most
   ``t``, and every dropped token's true batch count is at most ``t``.
2. summaries merge by summing counts per token (``groupby(token).Sum``)
   — MG summaries are mergeable (Agarwal et al., "Mergeable summaries",
   PODS'12); the global underestimate is at most ``sum of the per-batch
   decrements``, which rides along as a sentinel row.
3. top-k by estimated count, deterministic tie-break (count desc, token
   asc), with the global ``err_bound`` attached to every output row.
   (The sentinel contains a newline: whitespace-split tokens contain no
   whitespace, and space-joined n-grams no newlines — no collision.)

Guarantees: estimates never exceed true counts; any token whose true
corpus count exceeds ``err_bound`` is present in some summary; with
``capacity >> k`` on zipfian text the top-k is exact.  When no batch
exceeds ``capacity`` distinct tokens, no decrement fires anywhere,
``err_bound`` is 0 and the result equals the exact ``vocab_topk`` —
which is what the SQL oracle checks at test scale; the capacity path is
unit-tested against the bound.

Shuffle volume: <= batches x (capacity + 1) slim rows, regardless of
corpus or vocabulary size.

Reference analogue: the adaptive classifier's frequency-ranked shape
tables (SURVEY §2.3 ST4) — the engine tracks dominant glyph shapes the
way this stage tracks dominant tokens.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .vocab import token_counts_batch

#: contains a newline -> cannot collide with any token: whitespace-split
#: tokens contain no whitespace at all, and space-joined n-grams contain
#: spaces but never newlines
_ERR_TOKEN = "\n__mg_decrement__\n"


def mg_compress(counts: pa.Table, capacity: int) -> tuple[pa.Table, int]:
    """Compress an exact (token, partial) count table to at most
    ``capacity`` rows; returns (summary, decrement applied)."""
    n = counts.num_rows
    if n <= capacity:
        return counts, 0
    vals = np.asarray(counts["partial"], dtype=np.int64)
    t = int(np.partition(vals, n - capacity - 1)[n - capacity - 1])
    keep = vals > t
    return pa.table({
        "token": counts["token"].filter(pa.array(keep)),
        "partial": pa.array(vals[keep] - t, pa.int64()),
    }), t


def heavy_hitters(ds, k: int = 20, *, capacity: int = 4096,
                  text_col: str = "text", ngram: int = 1):
    """(token, n, err_bound) — top-k tokens by (under-)estimated count."""
    def summary(b: pa.Table) -> pa.Table:
        exact = token_counts_batch(b, text_col=text_col, ngram=ngram)
        out, t = mg_compress(exact, capacity)
        if t:
            # match the batch's string width — token_counts_batch yields
            # large_string on >2 GB-capable text columns
            out = pa.concat_tables(
                [out,
                 pa.table({"token": pa.array([_ERR_TOKEN],
                                             out["token"].type),
                           "partial": pa.array([t], pa.int64())})])
        return out

    from ..util import grouped_arrow_aggregate, mapped_side
    totals = grouped_arrow_aggregate(mapped_side(ds, summary), "token",
                                     [("partial", "sum", "n")])

    out_schema = pa.schema([("token", pa.string()), ("n", pa.int64()),
                            ("err_bound", pa.int64())])

    def split_err(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if b.num_rows == 0:
            return out_schema.empty_table()
        is_err = pc.equal(b["token"], _ERR_TOKEN)
        err = pc.sum(b["n"].filter(is_err)).as_py() or 0
        real = b.filter(pc.invert(is_err))
        return pa.table({
            "token": real["token"],
            "n": real["n"].cast(pa.int64()),
            "err_bound": pa.array(np.full(real.num_rows, err, np.int64)),
        })

    # the sentinel lands in one hash partition; its decrement total must
    # reach every output row, so the (<= batches x capacity)-row totals
    # are folded through one partition here.  At unbounded-vocab scale
    # replace with sort+limit per partition and a driver-side err fetch.
    # batch_size=None -> whole-block batches: after repartition(1) the
    # sentinel row and every token row share the ONE batch split_err sees
    # (the default ~1024-row slicing would hand the real err_bound only to
    # tokens co-batched with the sentinel).
    topk = (totals.repartition(1)
            .map_batches(split_err, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True)
            .sort(["n", "token"], descending=[True, False]).limit(k))
    return topk


def heavy_hitters_sql(k: int = 20, *, table: str = "documents",
                      text_col: str = "text", ngram: int = 1) -> str:
    """Oracle: exact top-k (valid whenever no batch tripped the capacity
    — then err_bound is 0 and MG estimates are exact counts)."""
    from .vocab import vocab_topk_sql
    inner = vocab_topk_sql(k, table=table, text_col=text_col, ngram=ngram)
    return (f"SELECT token, n, CAST(0 AS BIGINT) AS err_bound "
            f"FROM ({inner})")
