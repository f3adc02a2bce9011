"""Traced mode: spans around calls into each layer, ``ds.stats()``
digests, and probes that time one layer directly.

Everything is measured from outside the package: the benchmark times
calls into each module's public functions.  Work that Ray runs in workers
is seen two ways, by a driver-side in-process pass over the same batches
and by Ray's own per-operator statistics.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import time

import numpy as np
import pyarrow as pa


class Tracer:
    """Spans and executed datasets of one iteration.  Disabled, every
    method is a no-op, so untraced iterations run the same code."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float]] = []
        self.datasets: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter()))

    def add_dataset(self, ds) -> None:
        if self.enabled:
            self.datasets.append(ds)

    @contextlib.contextmanager
    def capture_datasets(self):
        """Record the datasets ``run_checkpointed`` builds internally, by
        wrapping the two public builders it calls."""
        if not self.enabled:
            yield
            return
        from org_dharts_dia_tesseract_ray.pipelines import extract_pipeline
        from org_dharts_dia_tesseract_ray.stages import extractor

        def recording(fn):
            def wrapper(*args, **kwargs):
                ds = fn(*args, **kwargs)
                self.datasets.append(ds)
                return ds
            return wrapper

        saved = (extract_pipeline.extract_pages, extractor.apply_explode_spans)
        extract_pipeline.extract_pages = recording(saved[0])
        extractor.apply_explode_spans = recording(saved[1])
        try:
            yield
        finally:
            extract_pipeline.extract_pages, extractor.apply_explode_spans = \
                saved

    def durations(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t0, t1 in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0)
        return out


def _operators(ds) -> list:
    """Operator summaries of an executed dataset.  A dataset consumed by
    ``write_*`` keeps its statistics on the internal write dataset; the
    summaries of materialized parents are included.  ``Dataset.stats()``
    only renders these as text, so the summary objects are read through
    Ray's private accessors (as of Ray 2.49)."""
    if getattr(ds, "_write_ds", None) is not None:
        ds = ds._write_ds
    ops, todo = [], [ds._get_stats_summary()]
    while todo:
        summary = todo.pop()
        ops.extend(summary.operators_stats)
        todo.extend(summary.parents)
    if not ops:
        raise RuntimeError("dataset has no execution statistics")
    return ops


def stats_digest(datasets) -> dict:
    """Wall, UDF time, exchanges and shuffled bytes of executed datasets,
    from Ray's own statistics (``Dataset.stats()``'s summary object).  A
    dataset's wall runs from its first operator's start to its last
    operator's end."""
    wall = udf = shuffled = 0.0
    exchanges = 0
    operators = []
    for ds in datasets:
        # operators that ran no task (unions) report no start time
        ops = [op for op in _operators(ds) if op.earliest_start_time > 0]
        wall += (max(op.latest_end_time for op in ops)
                 - min(op.earliest_start_time for op in ops))
        for op in ops:
            udf += (op.udf_time or {}).get("sum", 0.0)
            # an exchange shows as a <Kind>Map + <Kind>Reduce sub-operator
            # pair; the map half's output is what crosses the exchange
            if op.is_sub_operator and op.operator_name.endswith("Map"):
                exchanges += 1
                shuffled += (op.output_size_bytes or {}).get("sum", 0.0)
            operators.append({"name": op.operator_name,
                              "time_s": op.time_total_s})
    return {"wall_s": wall, "udf_s": udf, "exchanges": exchanges,
            "shuffled_mb": shuffled / 1e6, "operators": operators}


#: a probe repeats each timed pass until this many seconds have passed and
#: reports seconds per pass, so no timed unit is sub-second
MIN_TIMED_S = 1.0


def per_pass(fn):
    """Call ``fn()`` until ``MIN_TIMED_S`` have passed; returns the last
    call's result and the seconds per call."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        out = fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_TIMED_S:
            return out, elapsed / reps


def _batches(pages: pa.Table, batch_rows: int) -> list[pa.Table]:
    return [pages.slice(off, batch_rows)
            for off in range(0, pages.num_rows, batch_rows)]


def extract_probe(pages: pa.Table, batch_rows: int = 128) -> dict:
    """In-process passes over the workload's pages, batch by batch as the
    pipeline sees them: ``extract_one`` per doc, the same docs split into
    the kernel's phases (decode, segment, assemble, PDF), and the stage
    functions around the kernel (sniff, span build, span explode).  Each
    figure is seconds per pass over all the pages (docs/s for
    ``extract_one``)."""
    from org_dharts_dia_tesseract_ray.config import ExtractConfig
    from org_dharts_dia_tesseract_ray.extract.api import (
        extract_one, sniff_kind)
    from org_dharts_dia_tesseract_ray.extract.charset import decode_payload
    from org_dharts_dia_tesseract_ray.extract.html_extract import (
        assemble, segment_html)
    from org_dharts_dia_tesseract_ray.extract.pdf_extract import extract_pdf
    from org_dharts_dia_tesseract_ray.extract.types import PayloadKind
    from org_dharts_dia_tesseract_ray.stages import extractor as stage
    from org_dharts_dia_tesseract_ray.stages.sniff import sniff_batch

    cfg = ExtractConfig()
    batches = _batches(pages, batch_rows)
    docs = [list(zip(b["html"].to_pylist(), b["lang"].to_pylist(),
                     b["text"].to_pylist())) for b in batches]
    flat = [d for batch in docs for d in batch]
    kinds = [sniff_kind(h) for h, _, _ in flat]
    html = [(h, lang) for (h, lang, _), k in zip(flat, kinds)
            if k == PayloadKind.HTML]
    pdfs = [(h, lang) for (h, lang, _), k in zip(flat, kinds)
            if k == PayloadKind.PDF]

    results, one_s = per_pass(lambda: [
        [extract_one(h, lang, t, cfg) for h, lang, t in batch]
        for batch in docs])
    decoded, decode_s = per_pass(lambda: [decode_payload(h)[0]
                                          for h, _ in html])
    blocks, segment_s = per_pass(lambda: [segment_html(d, cfg)
                                          for d in decoded])
    _, assemble_s = per_pass(lambda: [assemble(b, lang, cfg) for b, (_, lang)
                                      in zip(blocks, html)])
    _, pdf_s = per_pass(lambda: [extract_pdf(h, lang, cfg)
                                 for h, lang in pdfs])
    sniffed, sniff_s = per_pass(lambda: [sniff_batch(b) for b in batches])

    # HtmlExtractor.__call__ minus the kernel: the stage's own work (column
    # conversion, per-doc bookkeeping, the Arrow span build) with
    # extract_one answering from this pass's results
    extractor = stage.HtmlExtractor(cfg)

    def span_build():
        out = []
        for batch, res in zip(sniffed, results):
            stage.extract_one = lambda *_a, _it=iter(res): next(_it)
            out.append(extractor(batch))
        return out

    saved = stage.extract_one
    try:
        combined, span_build_s = per_pass(span_build)
    finally:
        stage.extract_one = saved
    _, explode_s = per_pass(lambda: [stage.explode_spans_batch(c)
                                     for c in combined])
    flat_res = [r for batch in results for r in batch]
    n = pages.num_rows
    return {
        "extract.docs_per_s": n / one_s,
        "extract.decode_s": decode_s,
        "extract.segment_s": segment_s,
        "extract.assemble_s": assemble_s,
        "extract.pdf_s": pdf_s,
        "extract.spans_per_doc": sum(len(r.spans) for r in flat_res) / n,
        "extract.error_docs": sum(r.error is not None for r in flat_res),
        "stages.sniff_s": sniff_s,
        "stages.span_build_s": span_build_s,
        "stages.explode_s": explode_s,
    }


def warc_files(pages: pa.Table, work_dir: str) -> list[str]:
    """The pages as ``.warc.gz`` shards, for workloads that do not start
    from WARC."""
    from org_dharts_dia_tesseract_ray.sources.warc import write_warc
    return write_warc(pages, os.path.join(work_dir, "probe_warc"),
                      shards=2, gzip_records=True)


def warc_probe(files: list[str], rows: int) -> dict:
    """``read_warc`` through Ray, and the same shards parsed in-process."""
    from bench_workloads import fetch
    from org_dharts_dia_tesseract_ray.sources.warc import (
        parse_warc_bytes, read_warc)
    out, read_s = per_pass(lambda: fetch(read_warc(files)))
    if out.num_rows != rows:
        raise RuntimeError(f"read_warc gave {out.num_rows} rows, "
                           f"expected {rows}")
    blobs = []
    for path in files:
        with open(path, "rb") as f:
            blobs.append(f.read())
    _, parse_s = per_pass(lambda: [parse_warc_bytes(gzip.decompress(b))
                                   for b in blobs])
    mb = sum(len(b) for b in blobs) / 1e6
    return {"sources.read_s": read_s, "sources.warc_parse_s": parse_s,
            "sources.warc_mb_per_s": mb / parse_s}


def state_probe(pages: pa.Table, work_dir: str) -> dict:
    """``run_checkpointed`` on the pages as one parquet shard."""
    import shutil

    import pyarrow.parquet as pq

    from org_dharts_dia_tesseract_ray.state.checkpoint import (
        run_checkpointed)
    os.makedirs(work_dir, exist_ok=True)
    src = os.path.join(work_dir, "probe_pages.parquet")
    out_dir = os.path.join(work_dir, "probe_out")
    pq.write_table(pages, src)
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = Tracer(True)
    with tracer.capture_datasets():
        t0 = time.perf_counter()
        summary = run_checkpointed([src], out_dir)
        wall = time.perf_counter() - t0
    return state_metrics(summary, wall, stats_digest(tracer.datasets))


def state_metrics(summary: dict, wall: float, digest: dict) -> dict:
    """The checkpoint layer's self time (its call's wall minus the Ray
    executions it launched: manifests, fingerprints, metadata re-reads,
    directory handling), output size and partition count."""
    parts = summary["metrics"].values()
    return {"state.write_s": wall - digest["wall_s"],
            "state.out_mb": sum(m["output_bytes"] for m in parts) / 1e6,
            "state.partitions": len(summary["done"])}


def exchange_probe(curate) -> dict:
    """url dedup and the four text operators of a prepared
    ``curate_exchange`` workload, each timed on its own and its output
    checked against the reference."""
    from bench_workloads import fetch
    m = {}
    for span, op, build in curate.ops():
        out, m[f"{span}_s"] = per_pass(lambda: fetch(build()))
        error = curate.check_op(op, out)
        if error:
            raise RuntimeError(f"curate_exchange probe: {error}")
        if op == "exact_dedup":
            m["functions.removed_frac"] = curate.removed_frac(out)
    return m


def util_probe(seed: int, rows: int = 200_000, keys: int = 50_000) -> dict:
    """The three exchange primitives called directly on slim int64 rows;
    each result is checked against a NumPy count."""
    import ray.data

    from bench_workloads import fetch
    from org_dharts_dia_tesseract_ray.util import (
        grouped_arrow_aggregate, keyed_coshuffle, schema_pinned_join)
    rng = np.random.default_rng(seed)
    lk = rng.integers(0, keys, rows)
    rk = rng.integers(0, keys, rows // 4)
    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    left = pa.table({"k": lk, "v": np.ones(rows, np.int64)}, schema=schema)
    right = pa.table({"k": rk, "w": np.arange(rk.size, dtype=np.int64)})
    right_schema = right.schema
    P = 8

    agg, agg_s = per_pass(lambda: fetch(grouped_arrow_aggregate(
        ray.data.from_arrow(left), "k", [("v", "sum", "n")],
        num_partitions=P)))
    if agg.num_rows != np.unique(lk).size or \
            int(np.asarray(agg["n"]).sum()) != rows:
        raise RuntimeError("grouped_arrow_aggregate result is wrong")

    def sides(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({"nl": [lt.num_rows], "nr": [rt.num_rows]})

    co, co_s = per_pass(lambda: fetch(keyed_coshuffle(
        ray.data.from_arrow(left), ray.data.from_arrow(right), "k",
        schema, right_schema, sides, num_partitions=P)))
    if int(np.asarray(co["nl"]).sum()) != rows or \
            int(np.asarray(co["nr"]).sum()) != rk.size:
        raise RuntimeError("keyed_coshuffle result is wrong")

    joined, join_s = per_pass(lambda: fetch(schema_pinned_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on=("k",),
        num_partitions=P, left_schema=schema, right_schema=right_schema)))
    expect = int((np.bincount(lk, minlength=keys)
                  * np.bincount(rk, minlength=keys)).sum())
    if joined.num_rows != expect:
        raise RuntimeError("schema_pinned_join result is wrong")

    return {"util.grouped_aggregate_rows_per_s": rows / agg_s,
            "util.coshuffle_rows_per_s": (rows + rk.size) / co_s,
            "util.pinned_join_rows_per_s": (rows + rk.size) / join_s}
