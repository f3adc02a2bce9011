"""The flagship pipeline: pages parquet → extracted(+spans) parquet.

Ray-Data-first composition (SURVEY.md §7)::

    read_parquet(pages)                      # source, column-pruned
      → sniff (stateless, vectorized)        # payload_kind / payload_bytes
      → [dedup url]                          # optional shuffle step
      → extract (actor pool)                 # the recognition-loop analogue
         ↳ oversized docs routed to a dedicated small-batch pool (skew)
      → write_parquet / explode spans

The pipeline object stays a lazy Dataset until a sink consumes it — no
mid-pipeline materialization; backpressure and spilling belong to Ray's
streaming executor.
"""

from __future__ import annotations

import ray.data

from ..config import ExtractConfig
from ..stages.dedup import dedup_pages
from ..stages.extractor import apply_explode_spans, apply_extract
from ..stages.sniff import apply_sniff

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]

# documents above this many payload bytes go to the dedicated oversized pool
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
    skew_routing: bool = True,
    oversized_bytes: int = OVERSIZED_BYTES,
    batch_size: int = 128,
    concurrency=None,
    compute: str = "tasks",
):
    """pages Dataset → combined extracted Dataset (doc rows + nested spans).

    ``skew_routing=True`` splits the stream on ``payload_bytes``: normal docs
    flow through the main actor pool (batch_size rows/batch); oversized docs
    through a small-batch pool so one 100 MB page cannot stall a whole batch
    (straggler control, SURVEY.md §4).  Output is identical either way —
    golden-tested — because the extractor is a pure per-row function.
    """
    if dedup:
        # before the sniff: the pages schema is then the source's own
        # (read without executing anything), and the sniff runs on
        # survivors only
        ds = dedup_pages(ds)
    ds = apply_sniff(ds)

    if not skew_routing:
        return apply_extract(ds, cfg, batch_size=batch_size,
                             concurrency=concurrency, compute=compute)

    import pyarrow.compute as pc

    def split_by_size(t):
        """Generator UDF: each yielded table becomes its own block — small
        rows re-chunked to ``batch_size``, every oversized doc isolated in a
        single-row block so one 100 MB page occupies one actor call alone
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
    # batch_size=None ⇒ the extractor consumes the splitter's blocks as-is
    return apply_extract(ds, cfg, batch_size=None, concurrency=concurrency,
                         compute=compute)


def extracted_view(combined_ds):
    """Document-level ``extracted`` table (spans column dropped)."""
    return combined_ds.drop_columns(["spans"])


def spans_view(combined_ds):
    """Flat ``spans`` table (vectorized explode of the nested column)."""
    return apply_explode_spans(combined_ds)


def run(
    input_path,
    out_dir: str | None = None,
    cfg: ExtractConfig | None = None,
    **kwargs,
):
    """End-to-end convenience: read → extract → (optionally) write.

    Returns the combined Dataset (lazy if not written).
    """
    ds = read_pages(input_path)
    combined = extract_pages(ds, cfg, **kwargs)
    if out_dir is not None:
        combined.write_parquet(out_dir)
    return combined


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
