"""Benchmark harness — headline extraction pipeline + operator suite.

Prints ONE JSON line of at most ``MAX_LINE_CHARS`` characters::

    {"metric": "...", "value": N, "unit": "sec", "queries": {headline...},
     "suite": {"n": ..., "ok": ..., "sec": ..., "slowest": {...},
               "failed": [...]}, "detail": "bench_results/....json", ...}

The per-query seconds and capacity probes go to the ``detail`` file.

Env: ``GRAFT_SF_DIR`` (default /root/testdata/sf0.1), ``RAY_GRAFT_CPUS``
(default: the CPUs this process may run on, ``os.sched_getaffinity``),
``GRAFT_BENCH_REPLICATE`` (corpus amplification for the
headline extraction run; default 60 → ~300k docs at sf0.1, large enough
that the streaming executor's ~1.5 s fixed startup cost stops dominating
and the number reported is steady-state throughput).

``--scaling`` runs the headline pipeline in TWO fresh subprocesses
(num_cpus=8 then 32) on identical input and reports both throughputs plus
scaling efficiency = (T8/T32)/(32/8) — the sandbox protocol for the
north-rule two-cluster-size criterion (see BASELINE.md).

``--big`` runs the headline pipeline alone over 4× the corpus (1.2 M docs
at sf0.1) — the streaming-stability / sustained-throughput evidence row.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)
_prev_pp = os.environ.get("PYTHONPATH")
# no trailing empty entry: "repo:" would put each worker's cwd on sys.path
os.environ["PYTHONPATH"] = (REPO if not _prev_pp
                            else REPO + os.pathsep + _prev_pp)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
#: CPUs this process may run on (the cgroup/affinity grant, not the host's
#: core count); the default Ray size and the capacity probe's width
GRANTED_CPUS = len(os.sched_getaffinity(0))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", GRANTED_CPUS))
REPLICATE = int(os.environ.get("GRAFT_BENCH_REPLICATE", "60"))
# N vs 4N parallelism levels for --scaling (the north-rule two-cluster-size
# criterion, sandbox protocol).  4→16 leaves headroom on the 32-core box for
# Ray's own service threads — scaling is then measured on the pipeline, not
# on whole-machine saturation artifacts.
SCALING_CPUS = [int(x) for x in
                os.environ.get("GRAFT_SCALING_CPUS", "4,16").split(",")
                if x.strip()]
if len(SCALING_CPUS) != 2 or SCALING_CPUS[0] >= SCALING_CPUS[1]:
    raise SystemExit("GRAFT_SCALING_CPUS must be 'LO,HI' with LO < HI "
                     f"(got {os.environ.get('GRAFT_SCALING_CPUS')!r})")


def _spin(n: int) -> float:
    t0 = time.time()
    x = 0
    for i in range(n):
        x += i * i
    return time.time() - t0


def probe_effective_cores(n_procs: int = GRANTED_CPUS,
                          n: int = 3_000_000) -> float:
    """This sandbox's vCPUs are oversubscribed at the hypervisor: parallel
    capacity swings between ~15 and ~4 effective cores hour to hour while
    single-core speed stays constant.  A pure-CPU spin with one process
    per granted CPU measures the capacity actually available to THIS run, so every benchmark JSON
    carries the context needed to interpret its throughput.

    ``n`` trades probe cost for smoothing: the default ~1 s probe opens a
    run; the lighter per-query probes (VERDICT r3 #7 — one capacity sample
    ADJACENT to every suite query's timed window, not a single sample at
    run start) use a smaller spin (~0.5 s, fork pool, safe inside a live
    Ray session — verified)."""
    import multiprocessing as mp

    t1 = _spin(n)
    with mp.Pool(n_procs) as p:
        t0 = time.time()
        p.map(_spin, [n] * n_procs)
        wall = time.time() - t0
    return round(n_procs * t1 / wall, 1)


def _init_ray():
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    from ray import cloudpickle as rcp

    import org_dharts_dia_tesseract_ray as pkg
    rcp.register_pickle_by_value(pkg)
    return ray


def bench_corpus(sf_dir: str, replicate: int, *, files: int = 64) -> str:
    """documents × replicate wrapped as pages, materialized ONCE to
    partitioned parquet under /tmp and reused by every run (incl. both
    scaling children — identical input bytes by construction).

    Benchmarking from many files matches the real corpus shape (a 100 TB
    crawl is thousands of parquet shards) and gives the read→extract chain
    its natural block-level parallelism; a single small file caps the fused
    actor pool at the read's block count (measured: 16 blocks → 32 CPUs idle
    at 50%).
    """
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        wrap_documents_batch)

    import shutil

    tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = f"/tmp/graft_bench_corpus/{tag}_x{replicate}"
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    if os.path.isdir(out_dir):
        # partial write from a killed run — wipe, or re-writing would
        # append a second copy of the corpus beside the leftovers
        shutil.rmtree(out_dir)

    def amplify(batch: pa.Table) -> pa.Table:
        t = wrap_documents_batch(batch)      # deterministic — wrap ONCE
        base_urls = t["url"].to_pylist()
        outs = []
        for r in range(replicate):
            urls = [f"{u}#r{r}" for u in base_urls]
            outs.append(t.set_column(0, "url", pa.array(urls, pa.string())))
        return pa.concat_tables(outs)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])
    pages = ds.map_batches(amplify, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=64)
    pages.repartition(files).write_parquet(out_dir)
    with open(done, "w") as f:
        f.write("ok")
    return out_dir


def read_bench_pages(corpus_dir: str):
    import ray.data
    return ray.data.read_parquet(corpus_dir,
                                 columns=["url", "warc_ts", "html",
                                          "text", "lang"])


def run_headline(sf_dir: str, replicate: int, *, passes: int = 2,
                 probe: bool = False) -> dict:
    """The flagship: sniff → skew-routed actor-pool extract → rollup.

    ``probe=True`` samples effective cores immediately before and after
    the timed window (VERDICT r3 #7: the probe must describe the timed
    window, not the run start minutes earlier; truly-concurrent probing
    would contend with the measured pipeline inside this oversubscribed
    VM and corrupt both numbers, so adjacent sampling is the honest
    protocol)."""
    from ray.data.aggregate import Count, Sum

    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages)

    corpus_dir = bench_corpus(sf_dir, replicate)
    # warmup: one full untimed pass forces Ray worker-process startup,
    # imports, and page-cache warmth on the corpus files, so the timed run
    # measures steady-state pipeline throughput, not cold start (measured:
    # the first pass in a session runs ~20-25% below steady state even
    # after a small warmup)
    warm = read_bench_pages(corpus_dir)
    extract_pages(warm).select_columns(["payload_bytes"]).count()

    eff_before = probe_effective_cores() if probe else None
    # best of two timed runs: the oversubscribed host's capacity dips can
    # halve a single sample (see BASELINE.md); the fastest clean pass is
    # the honest steady-state measure
    wall = float("inf")
    for _ in range(passes):
        pages = read_bench_pages(corpus_dir)
        t0 = time.time()
        combined = extract_pages(pages)
        # Count(on=...) — plain Count() miscounts (0) on generator-UDF
        # block layouts in ray 2.49; counting a never-null column is
        # equivalent
        stats = (combined.select_columns(["payload_bytes", "n_blocks"])
                 .aggregate(Count(on="payload_bytes", alias_name="docs"),
                            Sum("payload_bytes", alias_name="bytes"),
                            Sum("n_blocks", alias_name="blocks")))
        wall = min(wall, time.time() - t0)
    eff_after = probe_effective_cores() if probe else None
    docs = int(stats["docs"])
    mb = stats["bytes"] / 1e6
    out = {
        "wall_sec": round(wall, 3),
        "docs": docs,
        "mb_html": round(mb, 2),
        "docs_per_sec": round(docs / wall, 1),
        "mb_per_sec": round(mb / wall, 2),
        "total_blocks": int(stats["blocks"]),
    }
    if probe:
        out["eff_cores_before"] = eff_before
        out["eff_cores_after"] = eff_after
    return out


def realistic_corpus(n_rows: int, shards: int = 64) -> str:
    """Fixture-grade realistic corpus (all page families incl. oversized,
    dup urls, charsets, PDFs, broken payloads), materialized once."""
    import shutil

    out_dir = f"/tmp/graft_bench_corpus/realistic_{n_rows}"
    done = os.path.join(out_dir, "_DONE")
    if not os.path.exists(done):
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)        # partial write from a killed run
        from org_dharts_dia_tesseract_ray.sources.gen_corpus import (
            write_corpus)
        write_corpus(out_dir, n_rows, seed=42, shards=shards)
        with open(done, "w") as f:
            f.write("ok")
    return out_dir


def run_realistic(n_rows: int = 30_000) -> dict:
    """Headline variant on realistic page sizes/structures (avg pages are
    KBs with 64 KiB oversized docs exercising the skew splitter)."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages)

    corpus = realistic_corpus(n_rows)
    wall = float("inf")
    for _ in range(2):
        ds = ray.data.read_parquet(corpus,
                                   columns=["url", "warc_ts", "html",
                                            "text", "lang"])
        t0 = time.time()
        combined = extract_pages(ds, dedup=True)
        stats = (combined.select_columns(["payload_bytes", "n_blocks"])
                 .aggregate(Count(on="payload_bytes", alias_name="docs"),
                            Sum("payload_bytes", alias_name="bytes")))
        wall = min(wall, time.time() - t0)
    docs = int(stats["docs"])
    mb = stats["bytes"] / 1e6
    return {
        "wall_sec": round(wall, 3),
        "docs": docs,
        "mb_html": round(mb, 2),
        "docs_per_sec": round(docs / wall, 1),
        "mb_per_sec": round(mb / wall, 2),
    }


#: a suite query whose first timing reaches this re-runs once and reports
#: the min: session-level warmup (worker package imports, kernel pickling)
#: lands on whichever heavy query runs it first — measured 14.7 s cold vs
#: 5.3-6.7 s warm for neardup_minhash_lsh in a fresh session at the same
#: probed capacity — and the bench's documented contract is STEADY-STATE
#: cost (same reason the headline does a full warmup pass).  Cheap queries
#: aren't re-run; the bound on extra wall is one repeat of the slow tail.
RERUN_THRESHOLD_SEC = 3.0


def run_query_suite(sf_dir: str, detail: dict | None = None) -> dict:
    """Time the operator-suite pipelines (each consumed to completion).

    ``detail`` (if given) collects per-query context: a capacity probe
    taken immediately before each query's timed window plus the cold
    first-run seconds when a warm re-run was taken."""
    import __ray_entry__ as entry_mod
    names = ["extract_roundtrip", "extract_spans", "extract_hocr",
             "extract_unlv", "pages_dedup_extract",
             "token_stats", "quality_score", "langid", "fingerprint_md5",
             "dedup_exact", "dedup_substrings",
             "neardup_minhash_lsh", "neardup_simhash",
             "neardup_cosine", "ann_brute_topk", "ann_ivf_topk",
             "media_decode",
             "lineitem_pricing", "revenue_by_region", "quality_buckets",
             "tfidf_top_term",
             # corpus-assembly / cleanup additions (round 3)
             "pii_redact", "line_filter", "line_dedup", "pack_sequences",
             "orders_bloom_new", "heavy_hitters",
             "length_quantiles_sketch", "pagerank",
             "corpus_assembly",
             # high-cardinality partition-vectorized operators (~147k keys)
             "lineitem_sessions", "lineitem_asof_lastship",
             "lineitem_price_quantiles",
             # round-4 late additions (iterator predicates, font attrs,
             # audio modality, resize)
             "word_predicates", "extract_font_attrs", "audio_features",
             "media_resize", "compression_ratio", "tokenize_ids",
             "top_docs_per_lang", "lang_balanced_sample", "bigram_score",
             # third-session additions (window functions, outer/anti joins,
             # temperature resampling, embedding-prep chunking)
             "customer_order_counts", "customers_no_orders",
             "events_running_total", "length_percent_rank",
             "temperature_sample", "chunk_windows",
             "customers_with_recent_orders", "customer_activity_shift",
             "events_interarrival", "user_event_paths",
             "doc_stats_rollup", "events_distinct_users",
             "extract_links", "extract_meta", "bm25_topk",
             "urgent_spend_right_customer", "dup_substr_spans",
             "weighted_mix", "stratified_sample",
             "normalize_text", "events_pivot",
             "extract_contacts", "events_throttle",
             "length_histogram", "event_transitions", "dedup_normalized"]
    qs = entry_mod.queries()
    out = {}

    def timed_run(name: str) -> float:
        import ray.data
        t0 = time.time()
        res = qs[name](sf_dir)
        if isinstance(res, ray.data.Dataset):
            res.count()
        else:
            len(res)
        return time.time() - t0

    for name in names:
        eff = probe_effective_cores(n=1_200_000)
        # a query that CRASHES must report ok:false, never a plausible
        # seconds value — a bench that times failures as successes masks
        # regressions (round-2 lesson: broken tfidf "reported" 4.76 s)
        t_start = time.time()
        try:
            first = timed_run(name)
            sec = first
            eff_warm = None
            if first >= RERUN_THRESHOLD_SEC:
                # probe again so the reported (warm) window has its own
                # adjacent capacity sample, and never let a crashed warm
                # re-run discard the valid first measurement
                eff_warm = probe_effective_cores(n=1_200_000)
                try:
                    sec = min(first, timed_run(name))
                except Exception:
                    sec = first
            out[name] = round(sec, 3)
            if detail is not None:
                d = {"eff_cores": eff}
                if eff_warm is not None:
                    d["eff_cores_warm"] = eff_warm
                if sec != first:
                    d["cold_sec"] = round(first, 3)
                detail[name] = d
        except Exception as e:
            out[name] = {"sec": round(time.time() - t_start, 3), "ok": False,
                         "err": f"{type(e).__name__}: {e}"[:300]}
            if detail is not None:
                detail[name] = {"eff_cores": eff}
    return out


#: the final line must parse from the last 2,000 characters of a run's
#: output, which is all a driver keeps
MAX_LINE_CHARS = 1500
#: the suite's slowest queries named in the final line
N_SLOWEST = 5


def summary_line(record: dict, suite: dict, detail_path: str) -> str:
    """The final JSON line: ``record`` plus a summary of the query ``suite``
    (name → seconds, or an error dict for a failed query) and the path of
    the file with the full detail.  Failed names beyond what fits in
    ``MAX_LINE_CHARS`` are left to the detail file."""
    secs = {k: v for k, v in suite.items() if isinstance(v, (int, float))}
    failed = [k for k in suite if k not in secs]
    slowest = sorted(secs, key=secs.get, reverse=True)[:N_SLOWEST]
    summary = {"n": len(suite), "ok": len(secs),
               "sec": round(sum(secs.values()), 3),
               "slowest": {k: secs[k] for k in slowest}, "failed": failed}
    line = json.dumps(dict(record, suite=summary, detail=detail_path))
    while len(line) > MAX_LINE_CHARS and summary["failed"]:
        summary["failed"] = summary["failed"][:-1]
        line = json.dumps(dict(record, suite=summary, detail=detail_path))
    return line


def write_detail(detail: dict) -> str:
    """Write a run's full detail as JSON under ``bench_results/``; returns
    the path relative to the repo."""
    out_dir = os.path.join(REPO, "bench_results")
    os.makedirs(out_dir, exist_ok=True)
    name = time.strftime("bench-%Y%m%dT%H%M%SZ.json", time.gmtime())
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(detail, f, indent=1)
    return f"bench_results/{name}"


def main() -> None:
    scaling = "--scaling" in sys.argv
    child = os.environ.get("GRAFT_BENCH_SCALING_CHILD") == "1"

    if "--big" in sys.argv:
        # sustained-throughput variant: 4x the default corpus (1.2 M docs
        # at sf0.1), headline pipeline only — the streaming-stability
        # evidence row in BASELINE.md, reproducible with one command
        eff_cores = probe_effective_cores()
        _init_ray()
        headline = run_headline(SF_DIR, REPLICATE * 4, passes=2,
                                probe=True)
        print(json.dumps({
            "metric": "extract_throughput_docs_per_sec",
            "value": headline["docs_per_sec"],
            "unit": "sec",
            "queries": {"headline_extract_big": headline},
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "effective_cores": eff_cores,
            "replicate": REPLICATE * 4,
        }))
        import ray
        ray.shutdown()
        return

    if scaling and not child:
        lo, hi = SCALING_CPUS
        eff_cores = probe_effective_cores()
        results = {}
        for cpus in (lo, hi):
            env = dict(os.environ,
                       RAY_GRAFT_CPUS=str(cpus),
                       GRAFT_BENCH_REPLICATE=str(REPLICATE * 2),
                       GRAFT_BENCH_SCALING_CHILD="1")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--scaling"],
                env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                # surface the child's traceback — CalledProcessError would
                # discard the captured stderr
                sys.stderr.write(proc.stderr[-4000:])
                raise SystemExit(
                    f"scaling child (num_cpus={cpus}) failed "
                    f"rc={proc.returncode}")
            line = [l for l in proc.stdout.splitlines()
                    if l.startswith("{")][-1]
            results[cpus] = json.loads(line)
        tp_lo = results[lo]["queries"]["headline_extract"]["docs_per_sec"]
        tp_hi = results[hi]["queries"]["headline_extract"]["docs_per_sec"]
        eff = (tp_hi / tp_lo) / (hi / lo)
        print(json.dumps({
            "metric": f"scaling_efficiency_{lo}_to_{hi}_cpus",
            "value": round(eff, 3),
            "unit": "ratio",
            "queries": {
                f"docs_per_sec_{lo}cpus": tp_lo,
                f"docs_per_sec_{hi}cpus": tp_hi,
                f"wall_sec_{lo}cpus": results[lo]["queries"]["headline_extract"]["wall_sec"],
                f"wall_sec_{hi}cpus": results[hi]["queries"]["headline_extract"]["wall_sec"],
                f"mb_per_sec_{lo}cpus": results[lo]["queries"]["headline_extract"]["mb_per_sec"],
                f"mb_per_sec_{hi}cpus": results[hi]["queries"]["headline_extract"]["mb_per_sec"],
            },
            "sf": SF_DIR,
            "num_cpus": [lo, hi],
            "effective_cores": eff_cores,
        }))
        return

    # children skip the probe: the parent already measured, and one spin
    # process per granted CPU inside each child would perturb the very
    # runs they annotate on this oversubscribed host
    eff_cores = None if child else probe_effective_cores()
    ray = _init_ray()
    try:
        # scaling children: one timed pass (their wall time is already
        # ~2 min at 4 cpus; both children see identical input and warmup)
        headline = run_headline(SF_DIR, REPLICATE,
                                passes=1 if child else 2,
                                probe=not child)
        queries = {"headline_extract": headline}
        suite_detail: dict = {}
        if not child:
            queries["realistic_extract"] = run_realistic()
            queries.update(run_query_suite(SF_DIR, detail=suite_detail))
        def _secs(v):
            if isinstance(v, (int, float)):
                return v
            if isinstance(v, dict):
                return v.get("wall_sec") or v.get("sec") or 0.0
            return 0.0

        total = sum(_secs(v) for v in queries.values())
        headlines = {k: queries.pop(k) for k in ("headline_extract",
                                                 "realistic_extract")
                     if k in queries}
        record = {
            "metric": "extract_throughput_docs_per_sec",
            "value": headline["docs_per_sec"],
            "unit": "sec",
            "queries": headlines,
            "total_wall_sec": round(total, 3),
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "effective_cores": eff_cores,
            "replicate": REPLICATE,
        }
        path = write_detail(dict(record, suite=queries,
                                 suite_detail=suite_detail))
        print(summary_line(record, queries, path))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
