"""Tests of the benchmark itself (no Ray needed):

    python3 -m pytest webtext_bench -q
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for _p in (BENCH_DIR, ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import bench_inputs  # noqa: E402
import bench_workloads as W  # noqa: E402
import run  # noqa: E402


def _digest_tree(path: str) -> dict[str, str]:
    out = {}
    for root, _, files in os.walk(path):
        for fn in files:
            p = os.path.join(root, fn)
            with open(p, "rb") as f:
                out[os.path.relpath(p, path)] = hashlib.sha256(
                    f.read()).hexdigest()
    return out


@pytest.mark.parametrize("cls", [W.CrawlExtract, W.WarcMix])
def test_same_seed_same_input_bytes(tmp_path, monkeypatch, cls):
    monkeypatch.setattr(W, "CRAWL_UNITS", 1)
    monkeypatch.setattr(W, "WARC_UNITS", 1)
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        wl = cls(seed, str(tmp_path / name))
        wl.prepare()
        digests.append(_digest_tree(str(tmp_path / name)))
    assert digests[0] == digests[1]
    assert digests[0].keys() == digests[2].keys()
    assert all(digests[0][k] != digests[2][k] for k in digests[0])


def test_same_seed_same_documents():
    texts = ["a b c\nd e f", "g h\ni j", "k l m\nn o", "p q\nr s\nt u"] * 5
    one = bench_inputs.documents(3, texts, exact_share=0.2, line_share=0.3)
    two = bench_inputs.documents(3, texts, exact_share=0.2, line_share=0.3)
    other = bench_inputs.documents(4, texts, exact_share=0.2, line_share=0.3)
    assert one.equals(two)
    assert not one.equals(other)


def test_page_mix_is_fixed_per_seed():
    for seed in (1, 2):
        rows = bench_inputs.pages(seed, 2)
        fams = [bench_inputs.family(r["url"]) for r in rows]
        assert {f: fams.count(f) for f in set(fams)} == {
            f: 2 * w for f, w in bench_inputs.PAGE_MIX.items()}


def _flip(s: str) -> str:
    i = len(s) // 2
    return s[:i] + ("x" if s[i] != "x" else "y") + s[i + 1:]


def test_extract_check_catches_one_flipped_character(monkeypatch, tmp_path):
    monkeypatch.setattr(W, "CRAWL_UNITS", 1)
    wl = W.CrawlExtract(5, str(tmp_path))
    wl.prepare()
    keys = list(wl.ref.by_key)
    texts = [wl.ref.by_key[k][0] for k in keys]
    errors = [("err" if wl.ref.by_key[k][1] else None) for k in keys]

    def table(keys, texts):
        return pa.table({
            "url": [k[0] for k in keys],
            "warc_ts": pa.array([k[1] for k in keys],
                                pa.timestamp("us", tz="UTC")),
            "extracted_text": texts, "error": errors,
            "payload_bytes": pa.array([0] * len(keys), pa.int64())})

    assert wl.ref.check(table(keys, texts)) is None
    victim = max(range(len(texts)), key=lambda i: len(texts[i] or ""))
    flipped = list(texts)
    flipped[victim] = _flip(flipped[victim])
    assert "differs" in wl.ref.check(table(keys, flipped))
    # one doc repeated in place of another: same row count, one key twice
    repeated = keys[:-1] + keys[:1]
    texts_rep = texts[:-1] + texts[:1]
    assert "repeated" in wl.ref.check(table(repeated, texts_rep))


def test_warc_mix_shares_follow_the_page_mix(monkeypatch, tmp_path):
    monkeypatch.setattr(W, "WARC_UNITS", 1)
    wl = W.WarcMix(5, str(tmp_path))
    wl.prepare()
    mix = bench_inputs.PAGE_MIX
    assert wl.docs == sum(mix.values())
    assert wl.ref.pdfs == mix["pdf_text"]
    assert wl.ref.oversized == mix["oversized"]


def test_curate_check_catches_one_flipped_character(monkeypatch, tmp_path):
    import duckdb

    from org_dharts_dia_tesseract_ray.functions.dedup import exact_dedup_sql
    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        dedup_substrings_sql)
    from org_dharts_dia_tesseract_ray.functions.unitdedup import (
        unit_dedup_sql)
    from org_dharts_dia_tesseract_ray.functions.vocab import (
        doc_frequency_sql)
    monkeypatch.setattr(W, "CURATE_UNITS", 1)
    wl = W.CurateExchange(5, str(tmp_path))
    wl.prepare()
    con = duckdb.connect()
    con.register("documents", wl.documents)
    out = {op: con.execute(sql).arrow() for op, sql in (
        ("exact_dedup", exact_dedup_sql()), ("unit_dedup", unit_dedup_sql()),
        ("doc_frequency", doc_frequency_sql()),
        ("dedup_substrings", dedup_substrings_sql()))}
    latest = {u: i for i, u in enumerate(wl.pages["url"].to_pylist())}
    out["dedup_pages"] = wl.pages.take(sorted(latest.values()))
    assert wl.check(out) is None

    t = out["dedup_substrings"]
    texts = t["clean_text"].to_pylist()
    victim = max(range(len(texts)), key=lambda i: len(texts[i]))
    texts[victim] = _flip(texts[victim])
    out["dedup_substrings"] = t.set_column(
        t.column_names.index("clean_text"), "clean_text",
        pa.array(texts, pa.string()))
    assert "dedup_substrings" in wl.check(out)


def test_every_metric_declared_with_its_unit():
    with open(os.path.join(BENCH_DIR, "METRICS.json")) as f:
        meta = json.load(f)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        units = run.declared(trace)
        assert set(meta[section]) == set(units)
        record = run.result_record(dict.fromkeys(units, 1.5), trace, 4, [])
        assert {k: v["unit"] for k, v in record["metrics"].items()} == units
        with pytest.raises(RuntimeError):
            run.result_record(dict(dict.fromkeys(units, 1.0), extra=2.0),
                              trace, 4, [])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = {w["name"] for w in json.load(f)["workloads"]}
    assert workloads <= set(W.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "webtext_bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "results"))
    proc = subprocess.run(
        [sys.executable, "webtext_bench/run.py", "--workload",
         "crawl_extract", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "{" not in proc.stdout
