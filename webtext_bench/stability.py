#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 webtext_bench/stability.py --seeds 1-10 --label set1 \\
        [--workloads crawl_extract,warc_mix] [--trace 0]
    python3 webtext_bench/stability.py --report set1,set2

Runs ``run.py`` once per (workload, seed), one run at a time, with
``run_seconds`` from ``BENCHMARK.json``, and writes every run's record plus,
per metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (Q3 - Q1) / median to ``webtext_bench/stability/<label>.json``.
``--report`` prints those figures of earlier sets as a markdown table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def report(labels: list[str]) -> None:
    print("| set | workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for label in labels:
        with open(os.path.join(BENCH_DIR, "stability", f"{label}.json")) as f:
            data = json.load(f)
        for wl, w in data["workloads"].items():
            for name, s in w["metrics"].items():
                print(f"| {label} | {wl} | {name} | {s['median']:.4g} | "
                      f"{s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f} | "
                      f"{s['bound']} |")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--report", help="comma-separated labels to print")
    args = ap.parse_args()
    if args.report:
        report(args.report.split(","))
        return 0
    if not args.label:
        ap.error("--label is required to run")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for wl in workloads:
        runs = []
        for seed in seeds(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                bench["command"] + ["--workload", wl, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-1]) if lines else None
            detail_path = os.path.join(BENCH_DIR, "results",
                                       f"{wl}-trace{args.trace}.json")
            with open(detail_path) as f:
                detail = json.load(f)
            runs.append({"seed": seed, "rc": proc.returncode,
                         "run_wall_s": wall, "record": record,
                         "iteration_walls": [r["wall_s"] for r in
                                             detail["iterations"]],
                         "iteration_cpu": [r["cpu_s"] for r in
                                           detail["iterations"]],
                         "setup": {k: detail[k] for k in (
                             "prepare_s", "ray_start_s", "warmup_s")},
                         "spin_s": [detail["host"]["spin_s_before"],
                                    detail["host"]["spin_s_after"]],
                         "loop_s": detail["host"]["loop_s"],
                         "steal_s": detail["host"]["steal_s"]})
            print(f"{wl} seed={seed} rc={proc.returncode} {wall:.1f}s "
                  f"{lines[-1] if lines else proc.stderr[-300:]}",
                  flush=True)
        ok = [r["record"] for r in runs if r["rc"] == 0 and r["record"]]
        stats = {}
        if len(ok) >= 2:
            for name in ok[0]["metrics"]:
                stats[name] = summarize([r["metrics"][name]["value"]
                                         for r in ok])
                stats[name]["bound"] = bounds.get(name)
        out["workloads"][wl] = {"runs": runs, "metrics": stats}
        for name, s in stats.items():
            print(f"  {wl:16s} {name:14s} median={s['median']:.4g} "
                  f"spread={s['spread']:.3f} bound={s['bound']}", flush=True)
    os.makedirs(os.path.join(BENCH_DIR, "stability"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "stability", f"{args.label}.json"),
              "w") as f:
        json.dump(out, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
