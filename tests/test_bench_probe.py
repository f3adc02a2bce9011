"""The traced benchmark's in-process extract probe
(``webtext_bench/bench_layers.extract_probe``) calls the kernel's phase
functions and the stage by name, and swaps the stage module's
``extract_one``; ``Tracer.capture_datasets`` wraps two more names.  This
runs the probe on the tiny fixture, one timed pass per phase, so a renamed
or removed name fails here and not first in a traced benchmark run."""

import importlib.util
import math
import os

import pyarrow.parquet as pq

from org_dharts_dia_tesseract_ray.extract import api
from org_dharts_dia_tesseract_ray.pipelines import extract_pipeline
from org_dharts_dia_tesseract_ray.stages import extractor

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "webtext_bench")


def _bench_layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", os.path.join(BENCH, "bench_layers.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_extract_probe_runs_on_tiny_pages(fixtures_dir, monkeypatch):
    bench_layers = _bench_layers()
    monkeypatch.setattr(bench_layers, "MIN_TIMED_S", 0)
    pages = pq.read_table(os.path.join(fixtures_dir, "pages_tiny.parquet"))
    out = bench_layers.extract_probe(pages)
    assert out and all(math.isfinite(v) for v in out.values()), out
    # the probe puts the stage module's extract_one back
    assert extractor.extract_one is api.extract_one
    # what Tracer.capture_datasets wraps
    assert callable(extract_pipeline.extract_pages)
    assert callable(extractor.apply_explode_spans)
