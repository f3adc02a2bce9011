"""Payload sizing prep stage — cheap, stateless, vectorized.

Records every payload's size BEFORE the expensive extract stage, so that
skew routing can split oversized documents into blocks of their own on the
``payload_bytes`` column (SURVEY.md §4).  The payload kind (html/pdf/empty/
error — the analogue of the reference's format detection at read time,
``ImageIOHelper.getIIOImageList``, reference ImageIOHelper.java:270-327) is
sniffed per row inside ``extract_one``, which owns it.

Pure ``pyarrow.compute`` — no Python row loop.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def sniff_batch(batch: pa.Table) -> pa.Table:
    """Append (or replace) ``payload_bytes:int64``; a null payload is 0."""
    html = batch["html"]
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    nbytes = pc.binary_length(html).cast(pa.int64())
    nbytes = pc.coalesce(nbytes, pa.scalar(0, pa.int64()))
    if "payload_bytes" in batch.column_names:
        batch = batch.drop_columns(["payload_bytes"])
    return batch.append_column("payload_bytes", nbytes)


def apply_sniff(ds, **kwargs):
    """Dataset → Dataset with ``payload_bytes``."""
    return ds.map_batches(sniff_batch, batch_format="pyarrow",
                          zero_copy_batch=True, **kwargs)
