"""The flagship pipeline: pages parquet → extracted(+spans) parquet.

Ray-Data-first composition (SURVEY.md §7)::

    read_parquet(pages)                      # source, column-pruned
      → [dedup url]                          # optional shuffle step
      → sniff (stateless, vectorized)        # payload_bytes
      → split by size                        # oversized docs one per block
      → extract (task pool)                  # the recognition-loop analogue
      → write_parquet / explode spans

The pipeline object stays a lazy Dataset until a sink consumes it — no
mid-pipeline materialization; backpressure and spilling belong to Ray's
streaming executor.
"""

from __future__ import annotations

import ray.data

from ..config import ExtractConfig
from ..stages.dedup import dedup_pages
from ..stages.extractor import HtmlExtractor, apply_explode_spans
from ..stages.sniff import apply_sniff

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]

# documents above this many payload bytes are extracted one per block
# (p99.9-shaped threshold; see SURVEY.md §4 skew row)
OVERSIZED_BYTES = 1 << 21   # 2 MiB


def read_pages(path_or_paths, **kwargs):
    """Column-pruned parquet source for the pages table."""
    return ray.data.read_parquet(path_or_paths, columns=PAGES_COLUMNS, **kwargs)


def extract_pages(
    ds,
    cfg: ExtractConfig | None = None,
    *,
    dedup: bool = False,
    oversized_bytes: int = OVERSIZED_BYTES,
    batch_size: int = 128,
):
    """pages Dataset → combined extracted Dataset (doc rows + nested spans).

    The stream is split on ``payload_bytes``: normal docs reach the
    extractor in ``batch_size``-row blocks, each oversized doc in a block of
    its own, so one 100 MB page cannot stall a whole batch (straggler
    control, SURVEY.md §4).  Output does not depend on the split —
    golden-tested — because the extractor is a pure per-row function.
    """
    import pyarrow.compute as pc

    if dedup:
        # before the sniff: the pages schema is then the source's own
        # (read without executing anything), and the sniff runs on
        # survivors only
        ds = dedup_pages(ds)
    ds = apply_sniff(ds)

    def split_by_size(t):
        """Generator UDF: each yielded table becomes its own block — small
        rows re-chunked to ``batch_size``, every oversized doc isolated in a
        single-row block so one 100 MB page occupies one extract call alone
        (straggler isolation) instead of stalling a 128-row batch.

        ONE pass over the stream: the naive two-filtered-branches version
        re-executes the whole upstream lineage per branch (Ray Data plans
        don't share sub-DAGs), i.e. it would read 100 TB twice.
        """
        mask = pc.less_equal(t["payload_bytes"], oversized_bytes)
        small = t.filter(mask)
        big = t.filter(pc.invert(mask))
        for i in range(0, small.num_rows, batch_size):
            yield small.slice(i, batch_size)
        for i in range(big.num_rows):
            yield big.slice(i, 1)

    ds = ds.map_batches(split_by_size, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None)
    # a callable instance (not a class) maps as an ordinary task function;
    # batch_size=None ⇒ the extractor consumes the splitter's blocks as-is
    return ds.map_batches(HtmlExtractor(cfg), batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)


def extracted_view(combined_ds):
    """Document-level ``extracted`` table (spans column dropped)."""
    return combined_ds.drop_columns(["spans"])


def spans_view(combined_ds):
    """Flat ``spans`` table (vectorized explode of the nested column)."""
    return apply_explode_spans(combined_ds)


def process_pages(path_or_paths, cfg=None, out_dir: str | None = None,
                  **extract_kwargs):
    """One-call multi-document convenience — the ``TessBaseAPIProcessPages``
    analogue (reference binding /root/reference/src/.../TessAPI.java:481:
    filename in, all pages recognized, rendered output out).

    ``read_pages → extract_pages`` in one call; with ``out_dir`` the result
    is also written as partitioned parquet (the "renderer" side of
    ProcessPages) and the written Dataset is returned for further use.  For
    resumable long jobs prefer ``state.checkpoint.run_checkpointed`` /
    ``python -m org_dharts_dia_tesseract_ray.job``, which add partition
    manifests on top of this same composition.
    """
    combined = extract_pages(read_pages(path_or_paths), cfg,
                             **extract_kwargs)
    if out_dir is not None:
        combined.write_parquet(out_dir)
        return ray.data.read_parquet(out_dir)
    return combined
