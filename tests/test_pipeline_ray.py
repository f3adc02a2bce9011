"""Ray pipeline tests: the parallel engine must reproduce the pinned serial
goldens byte-for-byte, at any parallelism/routing configuration."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from org_dharts_dia_tesseract_ray.pipelines import extract_pipeline as ep
from org_dharts_dia_tesseract_ray.stages.dedup import dedup_pages


@pytest.fixture(scope="module")
def tiny_path(ray_session, fixtures_dir):
    return os.path.join(fixtures_dir, "pages_tiny.parquet")


@pytest.fixture(scope="module")
def golden_extracted(fixtures_dir):
    return pq.read_table(os.path.join(fixtures_dir, "golden_extracted_tiny.parquet"))


@pytest.fixture(scope="module")
def golden_spans(fixtures_dir):
    return pq.read_table(os.path.join(fixtures_dir, "golden_spans_tiny.parquet"))


def _sorted_pylist(table: pa.Table, keys):
    return table.sort_by([(k, "ascending") for k in keys]).to_pylist()


def _extracted_table(ds) -> pa.Table:
    t = pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)
    return t


def test_pipeline_matches_golden_bytes(tiny_path, golden_extracted):
    combined = ep.extract_pages(ep.read_pages(tiny_path))
    got = ep.extracted_view(combined).to_pandas()
    want = golden_extracted.to_pandas()
    got = got.sort_values(["url", "warc_ts"]).reset_index(drop=True)
    want = want.sort_values(["url", "warc_ts"]).reset_index(drop=True)
    assert list(got.columns) == list(want.columns)
    # byte-identity of extracted_text per url — THE correctness gate
    assert got["extracted_text"].tolist() == want["extracted_text"].tolist()
    assert got["payload_kind"].tolist() == want["payload_kind"].tolist()
    assert got["n_blocks"].tolist() == want["n_blocks"].tolist()
    assert got["doc_confidence"].tolist() == want["doc_confidence"].tolist()
    assert got["error"].tolist() == want["error"].tolist()


def test_oversized_routing_output_identical(tiny_path, golden_extracted):
    """Routing docs into single-row oversized blocks must not change a
    single byte."""
    combined = ep.extract_pages(ep.read_pages(tiny_path),
                                oversized_bytes=8192)  # force many docs big
    got = ep.extracted_view(combined).to_pandas() \
        .sort_values(["url", "warc_ts"]).reset_index(drop=True)
    want = golden_extracted.to_pandas() \
        .sort_values(["url", "warc_ts"]).reset_index(drop=True)
    assert got["extracted_text"].tolist() == want["extracted_text"].tolist()


def test_parallelism_invariance(tiny_path, golden_extracted):
    """Different block/batch layouts → identical outputs (sandbox analogue
    of the N vs 4N cluster run)."""
    texts = {}
    for batch_size, parallelism in ((8, 8), (64, 2)):
        ds = ep.read_pages(tiny_path).repartition(parallelism)
        combined = ep.extract_pages(ds, batch_size=batch_size)
        df = ep.extracted_view(combined).to_pandas() \
            .sort_values(["url", "warc_ts"]).reset_index(drop=True)
        texts[(batch_size, parallelism)] = list(zip(df["url"], df["extracted_text"]))
    vals = list(texts.values())
    assert vals[0] == vals[1]


def test_spans_view_matches_golden(tiny_path, golden_spans):
    combined = ep.extract_pages(ep.read_pages(tiny_path))
    got = ep.spans_view(combined).to_pandas() \
        .sort_values(["url", "node_id"]).reset_index(drop=True)
    want = golden_spans.to_pandas() \
        .sort_values(["url", "node_id"]).reset_index(drop=True)
    assert len(got) == len(want)
    for col in ("url", "node_id", "parent_id", "level", "block_type",
                "start", "end"):
        assert got[col].tolist() == want[col].tolist(), col


def test_dedup_keeps_latest(ray_session, tiny_path):
    ds = ep.read_pages(tiny_path)
    dd = dedup_pages(ds)
    t = pa.Table.from_pandas(dd.to_pandas(), preserve_index=False)
    urls = t["url"].to_pylist()
    assert len(urls) == len(set(urls))
    # for the dup_urls family the survivor must be the max warc_ts capture
    src = pq.read_table(tiny_path)
    import collections
    latest = collections.defaultdict(lambda: None)
    for r in src.to_pylist():
        cur = latest[r["url"]]
        if cur is None or r["warc_ts"] > cur:
            latest[r["url"]] = r["warc_ts"]
    got_ts = dict(zip(t["url"].to_pylist(), t["warc_ts"].to_pylist()))
    for url, ts in got_ts.items():
        assert ts == latest[url], url


def test_write_then_read_roundtrip(ray_session, tiny_path, tmp_path):
    out = str(tmp_path / "out")
    combined = ep.extract_pages(ep.read_pages(tiny_path))
    combined.write_parquet(out)
    back = pq.read_table(out)
    assert back.num_rows == 64
    assert "spans" in back.column_names
    # nested spans survive the parquet roundtrip
    n_spans = pc.sum(pc.list_value_length(back["spans"])).as_py()
    assert n_spans > 0


def test_dedup_strategies_identical(ray_session):
    """The distributed dedup (combiner + hash exchange over 2 partitions)
    and the in-memory kernel over the whole table pick the SAME
    survivors, including on full (url, ts, length) ties."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.stages.dedup import (_keep_latest,
                                                           dedup_pages)

    ts = pa.array([100, 200, 200, 50, 50, 50], pa.timestamp("us", tz="UTC"))
    t = pa.table({
        "url": ["a", "a", "a", "b", "b", "c"],
        "warc_ts": ts,
        "html": pa.array([b"old", b"newer-x", b"newer-y", b"tieA", b"tieB",
                          b"only"], pa.binary()),
        "text": pa.array([None] * 6, pa.string()),
        "lang": pa.array(["en"] * 6, pa.string()),
    })
    ds = ray.data.from_arrow(t).repartition(3)
    a = (dedup_pages(ds, num_partitions=2).to_pandas()
         .sort_values("url").reset_index(drop=True))
    b = _keep_latest(t).to_pandas().sort_values("url").reset_index(drop=True)
    assert a["url"].tolist() == ["a", "b", "c"] == b["url"].tolist()
    assert a["html"].tolist() == b["html"].tolist()
    # url 'a': max ts wins, tie between newer-x/newer-y broken by digest;
    # url 'b': full (ts,len) tie broken by digest — deterministic either way
    assert a["html"].tolist()[0] in (b"newer-x", b"newer-y")


def test_dedup_join_collapses_identical_copies(ray_session):
    """Bit-identical (url, ts, html) rows in DIFFERENT blocks must collapse
    to one row (regression: both used to survive the former join
    strategy's max-rank filter)."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.stages.dedup import dedup_pages

    ts = pa.array([100, 100, 100], pa.timestamp("us", tz="UTC"))
    t = pa.table({
        "url": ["a", "a", "b"],
        "warc_ts": ts,
        "html": pa.array([b"same-bytes", b"same-bytes", b"x"], pa.binary()),
        "text": pa.array([None] * 3, pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()),
    })
    # repartition(3) puts the identical copies in separate blocks, so the
    # per-batch combiner cannot collapse them before the shuffle
    ds = ray.data.from_arrow(t).repartition(3)
    out = dedup_pages(ds, num_partitions=2).to_pandas()
    assert sorted(out["url"].tolist()) == ["a", "b"]


def test_process_pages_one_call(ray_session, tmp_path):
    """ProcessPages analogue (TessAPI.java:481): file paths in, extracted
    table out; with out_dir, parquet is written and re-readable."""
    import pyarrow.parquet as pq

    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        process_pages)
    fixture = "/root/repo/fixtures/pages_tiny.parquet"
    out = process_pages(fixture)
    n = pq.read_metadata(fixture).num_rows
    assert out.count() == n
    assert "extracted_text" in out.schema().names
    odir = str(tmp_path / "pp_out")
    written = process_pages(fixture, out_dir=odir)
    assert written.count() == n
    import os
    assert any(f.endswith(".parquet") for f in os.listdir(odir))
