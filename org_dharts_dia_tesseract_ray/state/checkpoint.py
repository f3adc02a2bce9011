"""Checkpointed, resumable execution — partition manifests + resume filter.

The reference has no checkpointing (a crashed OCR run restarts from zero);
the north rule demands a killed job resume WITHOUT recomputation.  Unit of
idempotency = one input shard (a group of input parquet files) → one output
partition directory ``out/part=NNNNN/`` plus an atomically-written
``_MANIFEST.json`` recording lineage (input files + fingerprint) and metrics
(rows, span rows, bytes, error rows, docs by ``payload_kind``, error rows by
reason, wall seconds).  Both tables of a partition and those metrics come
from one pass: a ``Datasink`` at the end of the shard's extract execution
writes each block and its spans view and counts them as it goes.

Rules (SURVEY.md §7 hard-part #6):
* the manifest is written LAST, via tmp + ``os.replace`` (atomic on POSIX);
* on resume, a partition with a matching-fingerprint manifest is skipped
  wholesale; anything else (missing or stale manifest, partial files) is
  wiped and recomputed — partials are never merged.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections import Counter

import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink

from ..config import ExtractConfig
from ..pipelines import extract_pipeline
from ..stages.extractor import explode_spans_batch


def _stable_cfg_repr(cfg: "ExtractConfig") -> str:
    """Dataclass-repr-compatible serialization with a STABLE identity for
    ``block_rules``: ``repr(cfg)`` embeds each callable's memory address
    ("<function rule at 0x7f...>"), which changes every process — a resumed
    job would mismatch every manifest and wipe all finished partitions
    (and an edited rule landing at a recycled address would falsely
    match).  Rules are identified by qualname + source hash instead.
    For rule-free configs the output equals ``repr(cfg)`` exactly, so
    existing manifests stay valid."""
    import dataclasses
    import inspect

    parts = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "block_rules" and v:
            ids = []
            for r in v:
                try:
                    src = inspect.getsource(r)
                except (OSError, TypeError):
                    src = getattr(r, "__qualname__", repr(r))
                h = hashlib.sha256(src.encode()).hexdigest()[:16]
                ids.append(f"{getattr(r, '__qualname__', '?')}:{h}")
            parts.append(f"block_rules=({', '.join(ids)})")
        else:
            parts.append(f"{f.name}={v!r}")
    return f"{type(cfg).__name__}({', '.join(parts)})"


def _fingerprint(files: list[str], cfg_repr: str) -> str:
    h = hashlib.sha256()
    for f in sorted(files):
        st = os.stat(f)
        # mtime_ns included: a same-size in-place rewrite must invalidate
        # the partition, or resume would serve stale output
        h.update(f"{os.path.basename(f)}:{st.st_size}:{st.st_mtime_ns}"
                 .encode())
    h.update(cfg_repr.encode())
    return h.hexdigest()[:32]


def _manifest_path(part_dir: str) -> str:
    return os.path.join(part_dir, "_MANIFEST.json")


def write_manifest(part_dir: str, payload: dict) -> None:
    tmp = _manifest_path(part_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, _manifest_path(part_dir))


def read_manifest(part_dir: str) -> dict | None:
    try:
        with open(_manifest_path(part_dir)) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _zero_counts() -> dict:
    return {"rows": 0, "error_rows": 0, "spans_rows": 0, "output_bytes": 0,
            "docs_by_kind": Counter(), "errors_by_reason": Counter()}


def _value_counts(arr) -> Counter:
    vc = pc.value_counts(arr)
    return Counter(dict(zip(vc.field("values").to_pylist(),
                            vc.field("counts").to_pylist())))


class _PartitionSink(Datasink):
    """Both tables of one partition, written by the extract execution
    itself.  Each non-empty block goes unchanged (nested ``spans`` column
    kept) to ``part_dir``; with a ``spans_dir`` its exploded spans view goes
    there under the same file name.  Each write task returns its counts and
    :attr:`counts` sums them, so the manifest reads nothing back."""

    def __init__(self, part_dir: str, spans_dir: str | None):
        self.part_dir = part_dir
        self.spans_dir = spans_dir
        self.counts: dict | None = None

    def write(self, blocks, ctx) -> dict:
        c = _zero_counts()
        for i, block in enumerate(blocks):
            t = BlockAccessor.for_block(block).to_arrow()
            if t.num_rows == 0:
                continue
            # task then block index: the files read back in execution order
            name = f"{ctx.task_idx:06d}_{i:06d}.parquet"
            outputs = [(self.part_dir, t)]
            if self.spans_dir is not None:
                spans = explode_spans_batch(t)
                c["spans_rows"] += spans.num_rows
                if spans.num_rows:
                    outputs.append((self.spans_dir, spans))
            for d, table in outputs:
                path = os.path.join(d, name)
                pq.write_table(table, path)
                c["output_bytes"] += os.path.getsize(path)
            errors = pc.drop_null(t["error"])
            c["rows"] += t.num_rows
            c["error_rows"] += len(errors)
            c["docs_by_kind"] += _value_counts(t["payload_kind"])
            # the reason is the error text up to its first ':'
            # ("limit", "pdf-parse", "ValueError", ...)
            c["errors_by_reason"] += _value_counts(pc.list_element(
                pc.split_pattern(errors, ":", max_splits=1), 0))
        return c

    def on_write_complete(self, write_result) -> None:
        total = _zero_counts()
        for c in write_result.write_returns:
            for k, v in c.items():
                total[k] += v
        self.counts = total


def plan_shards(input_files: list[str], files_per_shard: int = 1) -> list[list[str]]:
    files = sorted(input_files)
    return [files[i:i + files_per_shard]
            for i in range(0, len(files), files_per_shard)]


def run_checkpointed(
    input_files: list[str],
    out_dir: str,
    cfg: ExtractConfig | None = None,
    *,
    files_per_shard: int = 1,
    write_spans: bool = True,
    **extract_kwargs,
) -> dict:
    """Process shards, skipping completed partitions.  Returns a summary
    ``{"done": [...], "skipped": [...], "metrics": {...per part...}}``.

    Each shard runs as ONE streaming execution (read → extract → a
    two-table sink); a failed/killed run leaves no manifest, so the next
    invocation redoes exactly that shard.

    ``write_spans=True`` also materializes the flagship two-table contract
    per partition: the sink writes each extracted block and, under the same
    file name in the sibling ``spans/part=NNNNN/`` directory, its exploded
    spans view — no re-read of the written parquet, no second execution.
    The manifest's counts come from the same sink.  It is written after
    BOTH tables, so a kill between the writes leaves no manifest and the
    shard — both views — is redone wholesale on resume.

    A shard whose input has no rows writes no data file, but still gets its
    (empty) ``spans/part=NNNNN/`` directory and a manifest with ``rows`` 0,
    so a rerun skips it.
    """
    cfg = cfg or ExtractConfig()
    # write_spans is part of the partition's identity: a partition
    # completed without the spans view must NOT satisfy a run that wants it
    cfg_repr = _stable_cfg_repr(cfg) + f":spans={bool(write_spans)}"
    os.makedirs(out_dir, exist_ok=True)
    done, skipped, metrics = [], [], {}

    for i, shard in enumerate(plan_shards(input_files, files_per_shard)):
        part = f"part={i:05d}"
        part_dir = os.path.join(out_dir, part)
        fp = _fingerprint(shard, cfg_repr)
        m = read_manifest(part_dir)
        if m is not None and m.get("fingerprint") == fp and (
                not write_spans
                or os.path.isdir(os.path.join(out_dir, "spans", part))):
            skipped.append(part)
            metrics[part] = m
            continue
        # stale or partial → wipe and redo (never merge partials); the
        # spans sibling belongs to the same idempotency unit
        spans_dir = os.path.join(out_dir, "spans", part)
        for d in (part_dir, spans_dir):
            if os.path.isdir(d):
                shutil.rmtree(d)
        os.makedirs(part_dir, exist_ok=True)

        t0 = time.monotonic()
        if write_spans:
            # exists even when the shard yields no rows (no file is written)
            os.makedirs(spans_dir, exist_ok=True)
        sink = _PartitionSink(part_dir, spans_dir if write_spans else None)
        extract_pipeline.extract_pages(
            extract_pipeline.read_pages(shard), cfg,
            **extract_kwargs).write_datasink(sink)
        wall = time.monotonic() - t0

        manifest = {
            "partition": part,
            "fingerprint": fp,
            "inputs": [os.path.basename(f) for f in sorted(shard)],
            "wall_seconds": round(wall, 3),
            "config": cfg_repr,
            **sink.counts,
        }
        write_manifest(part_dir, manifest)
        done.append(part)
        metrics[part] = manifest

    return {"done": done, "skipped": skipped, "metrics": metrics}
