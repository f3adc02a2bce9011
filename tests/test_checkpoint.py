"""Checkpoint/resume: a killed job must skip completed partitions on rerun
and never merge partials (SURVEY.md §7 step 6)."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from org_dharts_dia_tesseract_ray.sources.gen_corpus import write_corpus
from org_dharts_dia_tesseract_ray.stages.extractor import explode_spans_batch
from org_dharts_dia_tesseract_ray.state.checkpoint import (
    read_manifest, run_checkpointed,
)


@pytest.fixture(scope="module")
def corpus3(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages"))
    write_corpus(d, 90, seed=7, shards=3)
    return d


def _inputs(d):
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def test_full_run_then_resume_skips_all(corpus3, tmp_path):
    out = str(tmp_path / "out")
    r1 = run_checkpointed(_inputs(corpus3), out)
    assert len(r1["done"]) == 3 and not r1["skipped"]
    mtimes = {p: os.path.getmtime(os.path.join(out, p, "_MANIFEST.json"))
              for p in r1["done"]}

    r2 = run_checkpointed(_inputs(corpus3), out)
    assert len(r2["skipped"]) == 3 and not r2["done"]
    for p, old in mtimes.items():
        assert os.path.getmtime(os.path.join(out, p, "_MANIFEST.json")) == old


def test_killed_partition_recomputed(corpus3, tmp_path):
    out = str(tmp_path / "out")
    r1 = run_checkpointed(_inputs(corpus3), out)
    victim = os.path.join(out, r1["done"][1])
    # simulate a kill mid-partition: output exists but no manifest
    os.remove(os.path.join(victim, "_MANIFEST.json"))

    r2 = run_checkpointed(_inputs(corpus3), out)
    assert r2["done"] == ["part=00001"]
    assert sorted(r2["skipped"]) == ["part=00000", "part=00002"]
    m = read_manifest(victim)
    assert m is not None and m["rows"] == 30


def test_manifest_metrics_accurate(corpus3, tmp_path):
    """The manifest's counts, taken by the sink while it writes, agree with
    a re-read of the written files; the per-kind and per-reason counters
    partition the rows they count."""
    out = str(tmp_path / "out")
    r = run_checkpointed(_inputs(corpus3), out)
    total = sum(m["rows"] for m in r["metrics"].values())
    assert total == 90
    assert sum(m["error_rows"] for m in r["metrics"].values()) > 0
    for part, m in r["metrics"].items():
        part_dir = os.path.join(out, part)
        spans_dir = os.path.join(out, "spans", part)
        t = pq.read_table(part_dir)
        files = [os.path.join(d, f) for d in (part_dir, spans_dir)
                 for f in os.listdir(d) if f.endswith(".parquet")]
        assert t.num_rows == m["rows"]
        assert m["error_rows"] == t.num_rows - t["error"].null_count
        assert m["spans_rows"] == pq.read_table(spans_dir).num_rows
        assert m["output_bytes"] == sum(os.path.getsize(f) for f in files)
        assert sum(m["docs_by_kind"].values()) == m["rows"]
        assert sum(m["errors_by_reason"].values()) == m["error_rows"]
        assert m["wall_seconds"] >= 0
        # lineage names the exact inputs
        assert all(i.startswith("pages-") for i in m["inputs"])


def test_spans_view_is_explode_of_extracted(corpus3, tmp_path):
    """The spans view written beside each partition is the explode of its
    extracted view, row for row."""
    out = str(tmp_path / "out")
    r = run_checkpointed(_inputs(corpus3), out)
    for part in r["metrics"]:
        spans = pq.read_table(os.path.join(out, "spans", part))
        assert spans.equals(explode_spans_batch(
            pq.read_table(os.path.join(out, part), columns=["url", "spans"])))


def test_zero_row_shard_completes_and_is_skipped(corpus3, tmp_path):
    """A shard with no rows writes no data file, but still gets its spans
    directory and a manifest, so a rerun skips it."""
    src = str(tmp_path / "pages-empty.parquet")
    pq.write_table(pq.read_table(_inputs(corpus3)[0]).slice(0, 0), src)
    out = str(tmp_path / "out")
    r1 = run_checkpointed([src], out)
    assert r1["done"] == ["part=00000"]
    m = r1["metrics"]["part=00000"]
    assert m["rows"] == 0 and m["spans_rows"] == 0
    assert not [f for f in os.listdir(os.path.join(out, "part=00000"))
                if f.endswith(".parquet")]
    assert os.path.isdir(os.path.join(out, "spans", "part=00000"))
    r2 = run_checkpointed([src], out)
    assert r2["skipped"] == ["part=00000"] and not r2["done"]


def test_stale_fingerprint_triggers_redo(corpus3, tmp_path):
    out = str(tmp_path / "out")
    run_checkpointed(_inputs(corpus3), out)
    # corrupt one manifest's fingerprint → that partition must be redone
    part0 = os.path.join(out, "part=00000")
    m = json.load(open(os.path.join(part0, "_MANIFEST.json")))
    m["fingerprint"] = "deadbeef"
    json.dump(m, open(os.path.join(part0, "_MANIFEST.json"), "w"))
    r = run_checkpointed(_inputs(corpus3), out)
    assert r["done"] == ["part=00000"]


def test_spans_written_and_survive_resume(corpus3, tmp_path):
    """The flagship two-table contract survives checkpointing: every
    partition writes a spans view beside the extracted table under the same
    manifest discipline, and a kill between the two writes redoes BOTH."""
    out = str(tmp_path / "out")
    r1 = run_checkpointed(_inputs(corpus3), out)
    for part, m in r1["metrics"].items():
        spans_dir = os.path.join(out, "spans", part)
        t = pq.read_table(spans_dir)
        assert t.num_rows == m["spans_rows"] > 0
        assert {"url", "node_id", "level", "start", "end",
                "is_subscript"} <= set(t.column_names)

    # kill between the extracted write and the spans write: extracted files
    # exist, spans half-written, manifest absent → whole shard redone
    victim = os.path.join(out, "part=00001")
    os.remove(os.path.join(victim, "_MANIFEST.json"))
    shutil.rmtree(os.path.join(out, "spans", "part=00001"))

    r2 = run_checkpointed(_inputs(corpus3), out)
    assert r2["done"] == ["part=00001"]
    t = pq.read_table(os.path.join(out, "spans", "part=00001"))
    assert t.num_rows == r2["metrics"]["part=00001"]["spans_rows"] > 0


def test_sigkill_mid_job_resume_produces_identical_output(corpus3, tmp_path):
    """Real-kill resilience: SIGKILL the job process mid-run, re-run to
    completion, and the combined output must be byte-identical to an
    uninterrupted run (no lost/duplicated/merged partitions)."""
    import signal
    import subprocess
    import sys
    import time as _time

    out_kill = str(tmp_path / "killed")
    out_clean = str(tmp_path / "clean")
    cmd = [sys.executable, "-m", "org_dharts_dia_tesseract_ray.job",
           "--input", corpus3, "--out", None, "--local", "--no-spans"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))

    cmd[6] = out_kill
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # wait for the first partition manifest, then SIGKILL the whole job
    deadline = _time.time() + 120
    while _time.time() < deadline:
        manifests = [p for p in
                     (os.path.join(out_kill, d, "_MANIFEST.json")
                      for d in (os.listdir(out_kill)
                                if os.path.isdir(out_kill) else []))
                     if os.path.exists(p)]
        if manifests:
            break
        if proc.poll() is not None:
            break
        _time.sleep(0.2)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait()

    # resume run completes the job (in-process, fresh Ray already up via
    # the session fixture is NOT shared with the subprocess — use a clean
    # subprocess again so ray.init in job.py owns its session)
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-500:]

    cmd[6] = out_clean
    r2 = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert r2.returncode == 0, r2.stderr[-500:]

    def combined(out_dir):
        parts = sorted(d for d in os.listdir(out_dir)
                       if d.startswith("part="))
        tables = [pq.read_table(os.path.join(out_dir, d),
                                columns=["url", "extracted_text"])
                  for d in parts]
        import pyarrow as _pa
        t = _pa.concat_tables(tables).sort_by([("url", "ascending")])
        return t.to_pydict()

    assert combined(out_kill) == combined(out_clean)
