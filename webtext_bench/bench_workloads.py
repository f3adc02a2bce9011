"""The three workloads: inputs on disk, one iteration, and its check.

Each workload has the same shape:

* ``prepare()`` makes the inputs from the seed, writes them under the
  run's work directory and builds the reference the output is checked
  against.  It needs no Ray.
* ``run(tracer)`` is one iteration: the program's public entry points on
  those inputs, consumed to completion.  The caller times it.
* ``check(out)`` compares the iteration's output to the reference and
  returns ``None`` or a one-line reason.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import bench_inputs
from org_dharts_dia_tesseract_ray.extract.api import extract_one
from org_dharts_dia_tesseract_ray.extract.types import PayloadKind
from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
    OVERSIZED_BYTES)
from org_dharts_dia_tesseract_ray.sources.gen_corpus import rows_to_table

#: page units (× 105 pages, in ``bench_inputs.PAGE_MIX`` shares) per
#: workload; sized so one iteration takes several seconds on one core, far
#: above the ~0.1 s timer noise floor
CRAWL_UNITS = 12
WARC_UNITS = 6
CURATE_UNITS = 8
#: planted duplicate shares of curate_exchange's documents
EXACT_SHARE = 0.10
LINE_SHARE = 0.20


def fetch(ds) -> pa.Table:
    """Execute ``ds`` and bring its rows to the driver as one table.
    Zero-row blocks are dropped first: exchange outputs can carry
    schema-less empty blocks that would not concatenate.  The blocks are
    iterated, not taken with ``to_arrow_refs()``: on a dataset not yet
    executed that cancels tasks as it finishes, and on Ray 2.49 a
    cancellation racing a finished task can abort the driver (a failed
    check in ``reference_count.cc``)."""
    tables = [t for t in ds.iter_batches(batch_format="pyarrow",
                                         batch_size=None) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def _ts_us(col) -> list:
    return pc.cast(col, pa.int64()).to_pylist()


def _write_shards(tbl: pa.Table, out_dir: str, shards: int) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-tbl.num_rows // shards)
    paths = []
    for s in range(shards):
        path = os.path.join(out_dir, f"pages-{s:05d}.parquet")
        pq.write_table(tbl.slice(s * per, per), path)
        paths.append(path)
    return paths


#: output columns the extract check reads
EXTRACT_COLUMNS = ["url", "warc_ts", "extracted_text", "error",
                   "payload_bytes"]


def oversized_docs(out: pa.Table) -> int:
    """Rows of an extract output whose ``payload_bytes`` are above the
    skew-routing threshold."""
    return pc.sum(pc.greater(out["payload_bytes"], OVERSIZED_BYTES)).as_py()


class ExtractReference:
    """In-process ``extract_one`` over the same payloads: per
    ``(url, warc_ts)`` the exact text and whether the row is an error."""

    def __init__(self, tbl: pa.Table):
        self.by_key: dict[tuple, tuple[str, bool]] = {}
        self.spans = 0
        self.errors = 0
        self.pdfs = 0
        self.oversized = sum(len(h or b"") > OVERSIZED_BYTES
                             for h in tbl["html"].to_pylist())
        for url, ts, html, text, lang in zip(
                tbl["url"].to_pylist(), _ts_us(tbl["warc_ts"]),
                tbl["html"].to_pylist(), tbl["text"].to_pylist(),
                tbl["lang"].to_pylist()):
            res = extract_one(html, lang, text)
            if (url, ts) in self.by_key:
                raise ValueError(f"duplicate input key {(url, ts)}")
            is_err = res.error is not None
            self.by_key[(url, ts)] = (res.text, is_err)
            self.pdfs += res.payload_kind == PayloadKind.PDF
            self.spans += len(res.spans)
            self.errors += is_err

    def shares(self) -> dict:
        """Share of the documents that are PDFs, and that are oversized."""
        n = len(self.by_key)
        return {"pdf": self.pdfs / n, "oversized": self.oversized / n}

    def check(self, out: pa.Table) -> str | None:
        """``out`` has the ``EXTRACT_COLUMNS``."""
        if out.num_rows != len(self.by_key):
            return f"{out.num_rows} output rows, expected {len(self.by_key)}"
        errors = 0
        seen = set()
        for url, ts, text, err in zip(
                out["url"].to_pylist(), _ts_us(out["warc_ts"]),
                out["extracted_text"].to_pylist(), out["error"].to_pylist()):
            want = self.by_key.get((url, ts))
            if want is None:
                return f"unexpected output row {url} @ {ts}"
            if (url, ts) in seen:
                return f"repeated output row {url} @ {ts}"
            seen.add((url, ts))
            if text != want[0]:
                return f"extracted_text differs from extract_one for {url}"
            errors += err is not None
        if errors != self.errors:
            return f"{errors} error rows, expected {self.errors}"
        if oversized_docs(out) != self.oversized:
            return (f"{oversized_docs(out)} oversized rows, expected "
                    f"{self.oversized}")
        return None


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.docs = 0          # input documents per iteration
        self.mb = 0.0          # input payload MB per iteration
        #: oversized rows in the last checked output (extract workloads)
        self.routed_oversized = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, tracer):
        raise NotImplementedError

    def check(self, out) -> str | None:
        raise NotImplementedError


class CrawlExtract(Workload):
    """parquet shards → ``state.checkpoint.run_checkpointed`` (sniff,
    skew-routed extract, extracted + spans tables, manifests)."""

    name = "crawl_extract"
    shards = 2

    def prepare(self) -> None:
        self.pages = rows_to_table(bench_inputs.pages(self.seed, CRAWL_UNITS))
        self.files = _write_shards(self.pages,
                                   os.path.join(self.work_dir, "in"),
                                   self.shards)
        self.ref = ExtractReference(self.pages)
        self.docs = self.pages.num_rows
        self.mb = sum(len(h or b"") for h in
                      self.pages["html"].to_pylist()) / 1e6

    def run(self, tracer):
        from org_dharts_dia_tesseract_ray.state.checkpoint import (
            run_checkpointed)
        out_dir = os.path.join(self.work_dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        with tracer.capture_datasets(), tracer.span("state.run_checkpointed"):
            summary = run_checkpointed(self.files, out_dir)
        return out_dir, summary

    def check(self, out) -> str | None:
        out_dir, summary = out
        try:
            if summary["skipped"] or len(summary["done"]) != self.shards:
                return f"partitions done/skipped: {summary['done']} / " \
                       f"{summary['skipped']}"
            files = sorted(glob.glob(os.path.join(out_dir, "part=*",
                                                  "*.parquet")))
            if not files:
                return "no extracted parquet written"
            got = pa.concat_tables(pq.read_table(f, columns=EXTRACT_COLUMNS)
                                   for f in files)
            self.routed_oversized = oversized_docs(got)
            err = self.ref.check(got)
            if err:
                return err
            spans = sum(m["spans_rows"] for m in summary["metrics"].values())
            if spans != self.ref.spans:
                return f"{spans} span rows written, expected {self.ref.spans}"
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class WarcMix(Workload):
    """``.warc.gz`` shards → ``sources.warc.read_warc`` → ``extract_pages``
    → rows fetched to the driver, nothing written."""

    name = "warc_mix"
    shards = 2

    def prepare(self) -> None:
        from org_dharts_dia_tesseract_ray.sources.warc import write_warc

        # the crawl's page mix; its ``oversized`` family (1 in 105) is made
        # large enough to take the skew-routing path
        rows = [bench_inputs.oversize(r, self.seed)
                if bench_inputs.family(r["url"]) == "oversized" else r
                for r in bench_inputs.pages(self.seed, WARC_UNITS)]
        self.pages = rows_to_table(rows)
        self.warc_files = write_warc(self.pages,
                                     os.path.join(self.work_dir, "warc"),
                                     shards=self.shards, gzip_records=True)
        self.ref = ExtractReference(self.pages)
        self.docs = self.pages.num_rows
        self.mb = sum(os.path.getsize(f) for f in self.warc_files) / 1e6

    def run(self, tracer):
        from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
            extract_pages)
        from org_dharts_dia_tesseract_ray.sources.warc import read_warc
        with tracer.span("pipelines.extract_pages"):
            ds = extract_pages(read_warc(self.warc_files)).select_columns(
                EXTRACT_COLUMNS)
            out = fetch(ds)
        tracer.add_dataset(ds)
        return out

    def check(self, out) -> str | None:
        self.routed_oversized = oversized_docs(out)
        return self.ref.check(out)


class CurateExchange(Workload):
    """url dedup of pages, then exact, line, doc-frequency and substring
    operators over extracted text with planted duplicates; every output is
    checked against the shipped DuckDB oracles."""

    name = "curate_exchange"

    def prepare(self) -> None:
        from org_dharts_dia_tesseract_ray.functions.dedup import (
            exact_dedup_sql)
        from org_dharts_dia_tesseract_ray.functions.substrdedup import (
            dedup_substrings_sql)
        from org_dharts_dia_tesseract_ray.functions.unitdedup import (
            unit_dedup_sql)
        from org_dharts_dia_tesseract_ray.functions.vocab import (
            doc_frequency_sql)

        self.pages = rows_to_table(bench_inputs.pages(self.seed,
                                                      CURATE_UNITS))
        self.pages_file = _write_shards(
            self.pages, os.path.join(self.work_dir, "pages"), 1)[0]
        texts = [extract_one(h, lang, t).text for h, lang, t in zip(
            self.pages["html"].to_pylist(), self.pages["lang"].to_pylist(),
            self.pages["text"].to_pylist())]
        self.documents = bench_inputs.documents(
            self.seed, [t for t in texts if t],
            exact_share=EXACT_SHARE, line_share=LINE_SHARE)
        self.docs_file = os.path.join(self.work_dir, "documents.parquet")
        pq.write_table(self.documents, self.docs_file)

        self.ref = {"dedup_pages": _latest_per_url(self.pages)}
        sqls = {"exact_dedup": exact_dedup_sql(),
                "unit_dedup": unit_dedup_sql(),
                "doc_frequency": doc_frequency_sql(),
                "dedup_substrings": dedup_substrings_sql()}
        import duckdb
        con = duckdb.connect()
        try:
            con.register("documents", self.documents)
            for op, sql in sqls.items():
                self.ref[op] = _canon(con.execute(sql).arrow())
        finally:
            con.close()
        self.docs = self.pages.num_rows + self.documents.num_rows
        self.mb = (sum(len(h or b"") for h in self.pages["html"].to_pylist())
                   + sum(len(t.encode()) for t in
                         self.documents["text"].to_pylist())) / 1e6

    def ops(self) -> list:
        """``(span, op, build)`` per operator: ``build()`` returns the
        operator's dataset over this workload's inputs."""
        import ray.data

        from org_dharts_dia_tesseract_ray.functions.dedup import exact_dedup
        from org_dharts_dia_tesseract_ray.functions.substrdedup import (
            dedup_substrings)
        from org_dharts_dia_tesseract_ray.functions.unitdedup import (
            unit_dedup)
        from org_dharts_dia_tesseract_ray.functions.vocab import (
            doc_frequency)
        from org_dharts_dia_tesseract_ray.stages.dedup import dedup_pages

        def docs():
            return ray.data.read_parquet(self.docs_file)

        return [
            ("stages.url_dedup", "dedup_pages",
             lambda: dedup_pages(ray.data.read_parquet(self.pages_file))),
            ("functions.exact_dedup", "exact_dedup",
             lambda: exact_dedup(docs())),
            ("functions.unit_dedup", "unit_dedup", lambda: unit_dedup(docs())),
            ("functions.doc_frequency", "doc_frequency",
             lambda: doc_frequency(docs())),
            ("functions.dedup_substrings", "dedup_substrings",
             lambda: dedup_substrings(docs(), strategy="join")),
        ]

    def run(self, tracer):
        out = {}
        for span, op, build in self.ops():
            with tracer.span(span):
                ds = build()
                out[op] = fetch(ds)
            tracer.add_dataset(ds)
        return out

    def check_op(self, op: str, out: pa.Table) -> str | None:
        if op == "dedup_pages":
            if _latest_per_url_rows(out) != self.ref[op]:
                return "dedup_pages survivors differ from latest-per-url"
        elif _canon(out) != self.ref[op]:
            return f"{op} output differs from its DuckDB oracle"
        return None

    def check(self, out) -> str | None:
        for op in self.ref:
            if op not in out:
                return f"no {op} output"
            error = self.check_op(op, out[op])
            if error:
                return error
        return None

    def removed_frac(self, exact: pa.Table) -> float:
        """Share of documents the exact dedup (output ``exact``) removed."""
        return 1 - exact.num_rows / self.documents.num_rows


def _digest(b: bytes | None) -> str:
    return hashlib.md5(b or b"").hexdigest()


def _latest_per_url(pages: pa.Table) -> list[tuple]:
    """Reference survivors of ``dedup_pages``: per url the capture with the
    latest ``warc_ts`` (the generator never ties two captures)."""
    best: dict[str, tuple[int, str]] = {}
    for url, ts, html in zip(pages["url"].to_pylist(),
                             _ts_us(pages["warc_ts"]),
                             pages["html"].to_pylist()):
        if url in best and best[url][0] == ts:
            raise ValueError(f"tied captures for {url}")
        if url not in best or ts > best[url][0]:
            best[url] = (ts, _digest(html))
    return sorted((u, ts, d) for u, (ts, d) in best.items())


def _latest_per_url_rows(t: pa.Table) -> list[tuple]:
    if not t.num_rows:
        return []
    return sorted(zip(t["url"].to_pylist(), _ts_us(t["warc_ts"]),
                      [_digest(h) for h in t["html"].to_pylist()]))


def _canon(t: pa.Table) -> tuple:
    """Order-free form of a result table: column names sorted, rows as
    sorted tuples of Python values."""
    if not t.num_rows:
        return ((), [])
    names = sorted(t.column_names)
    cols = [t[n].to_pylist() for n in names]
    return tuple(names), sorted(zip(*cols))


WORKLOADS = {w.name: w for w in (CrawlExtract, CurateExchange, WarcMix)}
