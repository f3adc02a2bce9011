"""Sliding-window document chunking — fixed-size token windows with
overlap, the embedding / retrieval / long-context preprocessing step
(every RAG or embedding pipeline shards long documents into overlapping
windows before batch inference).

Contract: tokens are the corpus-wide whitespace tokens
(``vocab.ws_tokens``, whose DuckDB twin the oracle splits with).
Windows start at 0, stride, 2·stride, …; emission STOPS at the first
window that reaches the document end, so the final window may be short
but no degenerate fully-contained trailing windows are emitted:
``n_chunks = 1 + ceil(max(n - window, 0) / stride)``.  Text without
tokens (null, empty or whitespace-only) yields no chunks.

Scale shape: pure per-batch ``map_batches`` — shuffle-free, stateless,
fully vectorized (ONE split kernel, ONE flat gather with ragged index
arithmetic, ONE ``binary_join``); output rows ≈ rows × tokens/stride,
so chunk text dominates output bytes exactly as it must.  Reference
anchor: the multi-window emission per document mirrors the reference's
one-doc→many-records flatten (BlockIterator, examples/.../
BlockIterator.java:57-81) at the sub-document grain.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import ragged_arange
from .vocab import ws_tokens, ws_tokens_sql


def chunk_documents(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    window: int = 64, stride: int = 48):
    """Explode each document into overlapping token windows:
    ``(id, chunk_id, tok_start, tok_end, chunk_text)``."""
    if not 0 < stride <= window:
        raise ValueError("need 0 < stride <= window")

    def f(b: pa.Table) -> pa.Table:
        toks = ws_tokens(b[text_col])
        n = np.asarray(pc.fill_null(pc.list_value_length(toks), 0),
                       dtype=np.int64)
        over = np.maximum(n - window, 0)
        n_chunks = np.where(n > 0, 1 + (over + stride - 1) // stride, 0)
        doc_sel = np.repeat(np.arange(len(n), dtype=np.int64), n_chunks)
        chunk_id = ragged_arange(n_chunks[n_chunks > 0])
        starts = chunk_id * stride
        ends = np.minimum(starts + window, n[doc_sel])
        lens = ends - starts
        # gather the overlapping token runs from the flat token buffer
        flat = pc.list_flatten(toks)
        doc_flat0 = np.r_[np.int64(0), np.cumsum(n)[:-1]]
        gather = (np.repeat(doc_flat0[doc_sel] + starts, lens)
                  + ragged_arange(lens))
        vals = flat.take(pa.array(gather, pa.int64()))
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        offsets = pa.array(np.r_[np.int64(0), np.cumsum(lens)], pa.int64())
        chunk_text = pc.binary_join(
            pa.LargeListArray.from_arrays(offsets, vals), " ")
        return pa.table({
            id_col: b[id_col].take(pa.array(doc_sel, pa.int64())),
            "chunk_id": pa.array(chunk_id, pa.int64()),
            "tok_start": pa.array(starts, pa.int64()),
            "tok_end": pa.array(ends, pa.int64()),
            "chunk_text": chunk_text,
        })

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def chunk_documents_sql(*, id_col: str = "doc_id", text_col: str = "text",
                        window: int = 64, stride: int = 48,
                        table: str = "documents") -> str:
    w, s = window, stride
    return f"""
WITH t AS (
  SELECT {id_col}, {ws_tokens_sql(text_col)} AS toks FROM {table}),
c AS (SELECT {id_col}, toks, len(toks) AS n,
             1 + CASE WHEN len(toks) > {w}
                      THEN (len(toks) - {w} + {s} - 1) // {s}
                      ELSE 0 END AS n_chunks
      FROM t WHERE len(toks) > 0)
SELECT {id_col},
       CAST(i AS BIGINT) AS chunk_id,
       CAST(i * {s} AS BIGINT) AS tok_start,
       CAST(LEAST(i * {s} + {w}, n) AS BIGINT) AS tok_end,
       array_to_string(toks[CAST(i * {s} + 1 AS BIGINT):
                            CAST(LEAST(i * {s} + {w}, n) AS BIGINT)],
                       ' ') AS chunk_text
FROM c, UNNEST(range(0, n_chunks)) AS u(i)"""
