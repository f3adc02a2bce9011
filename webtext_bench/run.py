#!/usr/bin/env python3
"""Benchmark of the web-text extraction engine: one workload per run.

    python3 webtext_bench/run.py --workload crawl_extract --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  The run makes every input from ``--seed``,
starts its own local Ray with ``num_cpus`` = ``nproc`` and drives a closed
loop from this one process: one iteration at a time, back to back, each
iteration's output checked against a reference built during set-up.  It
stops its Ray and every process Ray started before it exits.

The last line of standard output is one compact JSON record::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``BENCHMARK.json``'s ``end_to_end``
ones.  Its throughputs are per CPU second: input docs (MB) over the median
iteration's CPU time of this process plus the Ray workers, which leaves out
the time the hypervisor steals from the vCPUs; the wall-clock figures go to
the result file only (``STABILITY.md`` says why).  With ``--trace 1`` the
metrics are its ``per_layer`` ones, each the median over several rounds of
probes and traced iterations (``METRICS.json`` gives each metric's layer
and the end-to-end metric it should move).  Full detail
(every iteration's wall, spans, ``ds.stats()`` digests, probe rounds, host
context) goes to ``webtext_bench/results/<workload>-trace<0|1>.json``.  A failed check
makes the exit code 1; a program that cannot be imported makes it 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for _p in (BENCH_DIR, ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

#: set-ups per untraced run (input generation + reference build); the
#: median goes into setup_s
SETUP_REPS = 3
#: iterations per untraced run, and probe rounds per traced run, at least,
#: whatever ``--seconds`` says
MIN_ITERS = 3
#: untraced: stop starting iterations this long after the loop began
LOOP_DEADLINE_S = 60.0
#: traced: start no round that would end later than this after start-up
#: (a run must end within 180 s)
TRACE_DEADLINE_S = 130.0
#: object store size: small, the inputs are a few MB
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def declared(trace: bool) -> dict[str, str]:
    """Name → unit of the metrics ``BENCHMARK.json`` declares for this
    mode: ``end_to_end`` untraced, ``per_layer`` traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def result_record(metrics: dict, trace: bool, attempted: int,
                  errors: list) -> dict:
    """The final JSON line; every metric must be declared, with its unit,
    and every declared metric emitted."""
    units = declared(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "emitted but not declared, or declared but not "
                           "emitted")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": float(f"{v:.7g}"), "unit": units[k]}
                    for k, v in metrics.items()},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def ray_temp_dir(work_dir: str) -> str | None:
    """A directory inside the checkout for Ray's session files.  The
    session directory holds unix sockets, whose paths may not exceed 107
    bytes, and Ray appends up to 64 bytes to this path; when no candidate
    is short enough Ray's default (under the system temp dir) is used."""
    for path in (os.path.join(work_dir, "ray"),
                 os.path.join(ROOT, f".wbray{os.getpid()}")):
        if len(path) <= 42:
            return path
    return None


def start_ray(work_dir: str):
    import logging

    import ray
    import ray.data

    from bench_host import nproc

    # workers import the package (and the probes' closures) by path
    prev = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, BENCH_DIR] + ([prev] if prev else []))
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=ray_temp_dir(work_dir))
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return ray


def iteration(wl, traced: bool) -> dict:
    """One timed, checked iteration; a failed check is recorded, never
    raised.  Traced, it also keeps the spans and ``ds.stats()`` digest."""
    from bench_host import cpu_delta_s, work_cpu_s
    from bench_layers import Tracer, state_metrics, stats_digest
    tracer = Tracer(traced)
    cpu0 = work_cpu_s()
    t0 = time.perf_counter()
    out = wl.run(tracer)
    wall = time.perf_counter() - t0
    cpu = cpu_delta_s(cpu0, work_cpu_s())
    rec = {"wall_s": wall, "cpu_s": cpu, "traced": traced,
           "error": wl.check(out)}
    if traced:
        rec["spans"] = tracer.durations()
        rec["stats"] = stats_digest(tracer.datasets)
        rec["oversized_docs"] = wl.routed_oversized
        if "state.run_checkpointed" in rec["spans"]:
            rec["state"] = state_metrics(
                out[1], rec["spans"]["state.run_checkpointed"], rec["stats"])
    return rec


def measure(wl, seconds: float) -> list[dict]:
    """Closed loop of untraced iterations for ``seconds`` (at least
    ``MIN_ITERS``)."""
    records = []
    t_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_start
        if (elapsed >= seconds and len(records) >= MIN_ITERS) or \
                elapsed > LOOP_DEADLINE_S:
            return records
        records.append(iteration(wl, False))


def measure_traced(wl, seconds: float, probe, deadline: float):
    """Rounds of an untraced iteration, a traced one and ``probe()``,
    back to back, for ``seconds`` (at least ``MIN_ITERS`` rounds, unless
    another would end after the monotonic time ``deadline``).  Returns the
    iteration records (untraced, traced, untraced, ...) and each round's
    probe figures."""
    records, rounds = [], []
    t_start = time.monotonic()
    longest = 0.0
    while True:
        now = time.monotonic()
        if rounds and ((now - t_start >= seconds and len(rounds) >= MIN_ITERS)
                       or now + 1.15 * longest > deadline):
            return records, rounds
        records.append(iteration(wl, False))
        records.append(iteration(wl, True))
        rounds.append(probe())
        longest = max(longest, time.monotonic() - now)


class Probe:
    """Per-round probe of every layer the iteration does not time itself:
    in-process kernel and stage passes over this workload's pages, the util
    exchange primitives, WARC ingest, the curate_exchange operators (on
    their own inputs from the same seed, prepared here) and, where the
    iteration writes nothing, the checkpointed writer."""

    def __init__(self, wl, work_dir: str):
        import bench_layers as L
        from bench_layers import Tracer
        from bench_workloads import CurateExchange

        curate = CurateExchange(wl.seed, os.path.join(work_dir, "curate"))
        curate.prepare()
        error = curate.check(curate.run(Tracer(False)))     # warm-up
        if error:
            raise RuntimeError(f"curate_exchange warm-up: {error}")
        files = getattr(wl, "warc_files", None) or L.warc_files(wl.pages,
                                                                work_dir)
        self.parts = [
            ("extract", lambda: L.extract_probe(wl.pages)),
            ("util", lambda: L.util_probe(wl.seed)),
            ("sources", lambda: L.warc_probe(files, wl.pages.num_rows)),
            ("functions", lambda: L.exchange_probe(curate)),
        ]
        if wl.name != "crawl_extract":
            self.parts.append(("state", lambda: L.state_probe(
                wl.pages, os.path.join(work_dir, "state"))))
        #: per round, seconds each part took
        self.seconds: list[dict] = []

    def __call__(self) -> dict:
        m, took = {}, {}
        for name, part in self.parts:
            t0 = time.perf_counter()
            m.update(part())
            took[name] = time.perf_counter() - t0
        self.seconds.append(took)
        return m


def layer_metrics(records: list[dict], rounds: list[dict]) -> dict:
    """Per-layer metrics, each the median over the run's rounds: traced
    iterations give the pipelines, trace and (for crawl_extract) state
    figures, probes the rest."""
    med = statistics.median
    plain, traced = records[0::2], records[1::2]
    stats = [r["stats"] for r in traced]
    m = {name: med(r[name] for r in rounds) for name in rounds[0]}
    m.update({
        "pipelines.wall_s": med(s["wall_s"] for s in stats),
        "pipelines.udf_s": med(s["udf_s"] for s in stats),
        "pipelines.overhead_s": med(s["wall_s"] - s["udf_s"] for s in stats),
        "pipelines.shuffled_mb": med(s["shuffled_mb"] for s in stats),
        "pipelines.exchanges": med(s["exchanges"] for s in stats),
        "pipelines.oversized_docs": med(r["oversized_docs"] for r in traced),
        # each traced iteration against the untraced one just before it
        "trace.overhead_s": med(t["wall_s"] - p["wall_s"]
                                for p, t in zip(plain, traced)),
        # leaf spans: the Ray executions inside the layer spans
        "trace.accounted_frac": med(r["stats"]["wall_s"] / r["wall_s"]
                                    for r in traced),
    })
    if "state" in traced[0]:
        m.update({k: med(r["state"][k] for r in traced)
                  for k in traced[0]["state"]})
    return m


def bench(args, work_dir: str, deadline: float) -> tuple[dict, dict]:
    import pyarrow as pa

    import bench_host
    from bench_layers import Tracer
    from bench_workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    # set-up: inputs + reference, from scratch each time (once when traced:
    # setup_s is not reported then)
    prepare_s = []
    for rep in range(1 if args.trace else SETUP_REPS):
        inputs_dir = os.path.join(work_dir, "inputs")
        shutil.rmtree(inputs_dir, ignore_errors=True)
        wl = cls(args.seed, inputs_dir)
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s.append(time.perf_counter() - t0)

    me = os.getpid()
    ray_pids: set[int] = set()
    rounds: list = []
    t0 = time.perf_counter()
    ray = start_ray(work_dir)
    try:
        ray_start_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_error = wl.check(wl.run(Tracer(False)))
        warmup_s = time.perf_counter() - t0
        ray_pids |= set(bench_host.descendants(me))

        probe = (Probe(wl, os.path.join(work_dir, "probe")) if args.trace
                 else None)
        spin_before = bench_host.spin_probe()
        steal_before, loop_t0 = bench_host.steal_s(), time.perf_counter()
        with bench_host.RssSampler() as rss:
            if args.trace:
                records, rounds = measure_traced(wl, args.seconds, probe,
                                                 deadline)
            else:
                records = measure(wl, args.seconds)
        loop_s = time.perf_counter() - loop_t0
        steal_loop_s = bench_host.steal_s() - steal_before
        spin_after = bench_host.spin_probe()
        ray_cpus = ray.cluster_resources().get("CPU")
    finally:
        ray_pids |= set(bench_host.descendants(me))
        ray.shutdown()
        killed = bench_host.stop_all(ray_pids)

    errors = [r["error"] for r in records if r["error"]]
    if warm_error:
        errors.insert(0, f"warm-up: {warm_error}")
    wall = statistics.median(r["wall_s"] for r in records)
    cpu = statistics.median(r["cpu_s"] for r in records)
    if args.trace:
        metrics = layer_metrics(records, rounds)
    else:
        metrics = {
            "setup_s": statistics.median(prepare_s) + ray_start_s + warmup_s,
            "docs_per_cpu_s": wl.docs / cpu,
            "mb_per_cpu_s": wl.mb / cpu,
            "peak_rss_mb": rss.peak_mb,
        }
    result = result_record(metrics, bool(args.trace), len(records) + 1,
                           errors)
    detail.update({
        "errors": errors,
        "docs": wl.docs, "mb": wl.mb,
        "shares": wl.ref.shares() if hasattr(wl.ref, "shares") else {},
        "prepare_s": prepare_s, "ray_start_s": ray_start_s,
        "warmup_s": warmup_s,
        "iterations": records,
        "probe_rounds": rounds,
        "probe_seconds": probe.seconds if probe else [],
        "metrics": metrics,
        # wall-clock throughput: not a metric, as it follows the host's
        # steal (see STABILITY.md), but kept for reference
        "wall_docs_per_s": wl.docs / wall,
        "wall_mb_per_s": wl.mb / wall,
        "host": {
            "nproc": bench_host.nproc(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "ray_num_cpus": ray_cpus,
            "python": platform.python_version(),
            "ray": ray.__version__,
            "pyarrow": pa.__version__,
            "code_digest": bench_host.code_digest(
                os.path.join(ROOT, "org_dharts_dia_tesseract_ray")),
            "spin_s_before": spin_before, "spin_s_after": spin_after,
            # vCPU time the hypervisor took while the loop ran, over all
            # vCPUs, against the loop's wall: the host's contention
            "loop_s": loop_s, "steal_s": steal_loop_s,
            "killed_at_exit": killed,
        },
    })
    return result, detail


def main(argv=None) -> int:
    deadline = time.monotonic() + TRACE_DEADLINE_S
    args = parse_args(argv)
    try:
        import org_dharts_dia_tesseract_ray  # noqa: F401
        import ray  # noqa: F401
    except ImportError as e:
        print(f"run.py: cannot import the program under test from {ROOT}: "
              f"{e}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    try:
        result, detail = bench(args, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(ROOT, f".wbray{os.getpid()}"),
                      ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))   # only if no other run's
        except OSError:
            pass
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-trace{args.trace}"
                           ".json"), "w") as f:
        json.dump(dict(detail, result=result), f, indent=1, default=str)
    for err in detail["errors"]:
        print(f"run.py: check failed: {err}", file=sys.stderr)
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
