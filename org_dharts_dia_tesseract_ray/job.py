"""Job entry point — the ``ray job submit`` surface of the engine.

North-rule operational shape: the extraction pipeline runs end-to-end on a
fixed-size Ray cluster via ``ray job submit`` with checkpointed, resumable
output::

    ray job submit --working-dir . -- \
        python -m org_dharts_dia_tesseract_ray.job \
        --input /data/pages --out /data/extracted --files-per-shard 4

* connects to the cluster Ray (``ray.init(address="auto")``) unless
  ``--local`` is given;
* discovers the input parquet shards, plans partitions, and runs
  :func:`..state.checkpoint.run_checkpointed` — a re-submitted job after a
  failure skips completed partitions by manifest fingerprint;
* prints a one-line JSON summary (partitions done/skipped, rows, bytes,
  error rows, docs by ``payload_kind``, error rows by reason, wall time)
  for the job log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="directory of pages parquet shards (or one file)")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--files-per-shard", type=int, default=1,
                    help="input files per checkpoint partition")
    ap.add_argument("--no-spans", action="store_true",
                    help="skip the per-partition spans view")
    ap.add_argument("--mode", default="auto",
                    choices=["auto", "single_block", "text_only"])
    ap.add_argument("--selector-tag", default=None)
    ap.add_argument("--local", action="store_true",
                    help="ray.init(address='local') instead of the cluster")
    args = ap.parse_args(argv)
    if args.files_per_shard < 1:
        ap.error("--files-per-shard must be >= 1")

    import ray
    if not ray.is_initialized():
        ray.init(address="local" if args.local else "auto",
                 include_dashboard=False)

    from .config import ExtractConfig
    from .state.checkpoint import run_checkpointed

    if os.path.isdir(args.input):
        files = sorted(
            os.path.join(args.input, f) for f in os.listdir(args.input)
            if f.endswith(".parquet"))
    else:
        files = [args.input]
    if not files:
        print(json.dumps({"error": "no input parquet files"}))
        return 2

    cfg = ExtractConfig(mode=args.mode, selector_tag=args.selector_tag)
    t0 = time.time()
    summary = run_checkpointed(
        files, args.out, cfg,
        files_per_shard=args.files_per_shard,
        write_spans=not args.no_spans)
    metrics = summary["metrics"]
    # per-partition counters; manifests written before they existed lack them
    docs_by_kind, errors_by_reason = Counter(), Counter()
    for m in metrics.values():
        docs_by_kind.update(m.get("docs_by_kind", {}))
        errors_by_reason.update(m.get("errors_by_reason", {}))
    print(json.dumps({
        "partitions_done": len(summary["done"]),
        "partitions_skipped": len(summary["skipped"]),
        "rows": sum(m.get("rows", 0) for m in metrics.values()),
        "spans_rows": sum(m.get("spans_rows", 0) for m in metrics.values()),
        "error_rows": sum(m.get("error_rows", 0) for m in metrics.values()),
        "docs_by_kind": dict(docs_by_kind),
        "errors_by_reason": dict(errors_by_reason),
        "output_bytes": sum(m.get("output_bytes", 0)
                            for m in metrics.values()),
        "wall_seconds": round(time.time() - t0, 3),
        "out": args.out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
