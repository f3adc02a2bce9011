"""Extraction queries: the flagship pipeline over the documents table wrapped
as web pages (``pipelines/docs_pipeline``), its config variants, renderings
and container formats.  The oracles rebuild each expected output from
``documents`` in SQL, so the byte-identical extracted-text gate is part of
the harness, not only of pytest."""

from __future__ import annotations

import datetime as dt
import os
import shutil
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.aggregate import Count, Max, Sum

from org_dharts_dia_tesseract_ray.config import ExtractConfig, Mode
from org_dharts_dia_tesseract_ray.functions.links import (
    apply_extract_links, apply_extract_meta)
from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
    boxes_sql, font_words_sql, hocr_sql, links_sql, meta_sql, mixed_pdf_sql,
    mode_sql, pages_from_documents, roundtrip_extract, roundtrip_spans_sql,
    roundtrip_sql, subsup_words_sql, unlv_sql, word_predicates_sql,
    wrap_documents_batch)
from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
    extract_pages, extracted_view, spans_view)
from org_dharts_dia_tesseract_ray.sources.warc import read_warc, write_warc
from org_dharts_dia_tesseract_ray.stages.extractor import (
    apply_boxes, apply_hocr, apply_unlv, apply_word_predicates)
from org_dharts_dia_tesseract_ray.state.checkpoint import run_checkpointed

from . import Query, mapped, read


def _q_extract_roundtrip(sf_dir: str):
    combined = roundtrip_extract(sf_dir)
    return combined.select_columns(
        ["url", "extracted_text", "n_blocks", "payload_kind", "charset"])


def _q_checkpoint_resume(sf_dir: str):
    """S4 checkpoint/resume through the driver's oracle (VERDICT r3 #6).

    Writes the wrapped corpus as 4 parquet shards, runs the checkpointed
    pipeline over the first two (simulating a crash partway through the
    shard list), plants a manifest-less PARTIAL partition for shard 2
    (simulating a kill mid-write), then resumes over the full input.  The
    resume must skip both finished partitions wholesale and wipe+redo the
    partial — asserted here, so a resume-semantics regression fails the
    driver row — and the resumed table must equal the clean-run oracle
    (same SQL as ``extract_roundtrip``).  Ref anchor: the
    regression-by-issue testing pattern,
    /root/reference/tests/.../regression/AnalyzerFactoryBugs.java:71-109.
    """
    tmp = tempfile.mkdtemp(prefix="ckpt_resume_", dir="/tmp")
    try:
        pages = wrap_documents_batch(
            pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text", "lang"]))
        shards_dir = os.path.join(tmp, "shards")
        os.makedirs(shards_dir)
        files = []
        n = pages.num_rows
        cut = [0, n // 4, n // 2, (3 * n) // 4, n]
        for i in range(4):
            f = os.path.join(shards_dir, f"shard-{i}.parquet")
            pq.write_table(pages.slice(cut[i], cut[i + 1] - cut[i]), f)
            files.append(f)

        out = os.path.join(tmp, "out")
        run_checkpointed(files[:2], out, write_spans=False)
        # mid-shard kill: partition dir + data file exist, no manifest
        partial = os.path.join(out, "part=00002")
        os.makedirs(partial)
        with open(os.path.join(partial, "junk.parquet"), "wb") as f:
            f.write(b"not a parquet file")

        r = run_checkpointed(files, out, write_spans=False)
        if sorted(r["skipped"]) != ["part=00000", "part=00001"]:
            raise RuntimeError(f"resume did not skip finished partitions: "
                               f"{r}")
        if sorted(r["done"]) != ["part=00002", "part=00003"]:
            raise RuntimeError(f"resume did not redo partial/missing "
                               f"partitions: {r}")

        out_files = sorted(
            os.path.join(out, p, fn)
            for p in os.listdir(out) if p.startswith("part=")
            for fn in os.listdir(os.path.join(out, p))
            if fn.endswith(".parquet"))
        return ray.data.read_parquet(
            out_files, columns=["url", "extracted_text", "n_blocks",
                                "payload_kind", "charset"]).materialize()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _q_extract_mixed_pdf(sf_dir: str):
    """Sniff-routed mixed corpus: every 10th doc is a PDF payload (every
    20th Flate-compressed) — the S2-upgrade PDF branch, oracle-checked."""
    combined = extract_pages(pages_from_documents(sf_dir, "mixed_pdf"))
    return combined.select_columns(
        ["url", "extracted_text", "n_blocks", "payload_kind"])


def _block_spans(spans):
    return (spans
            .filter(expr="level == 'block'")
            .select_columns(["url", "node_id", "level", "block_type",
                             "start", "end"]))


def _q_extract_spans(sf_dir: str):
    return _block_spans(spans_view(roundtrip_extract(sf_dir)))


def _q_extract_boxes(sf_dir: str):
    return apply_boxes(roundtrip_extract(sf_dir), level="line")


def _q_extract_metrics(sf_dir: str):
    ex = extracted_view(roundtrip_extract(sf_dir))

    def chars(b: pa.Table) -> pa.Table:
        return pa.table({
            "lang": b["lang"],
            "text_chars": pc.utf8_length(b["extracted_text"]).cast(pa.int64()),
            "n_blocks": b["n_blocks"].cast(pa.int64()),
        })

    return (mapped(ex, chars)
            .groupby("lang")
            .aggregate(Count(alias_name="n_docs"),
                       Sum("text_chars", alias_name="total_chars"),
                       Max("text_chars", alias_name="max_chars"),
                       Sum("n_blocks", alias_name="total_blocks")))


_MODE_CONFIGS = {
    "text_only": ExtractConfig(mode=Mode.TEXT_ONLY),
    "single_block": ExtractConfig(mode=Mode.SINGLE_BLOCK),
    "charfilter_digits": ExtractConfig(char_whitelist="0123456789"),
    "selector_article": ExtractConfig(selector_tag="article"),
}


def _mode_row(name: str, mode: str) -> Query:
    """PageSegMode / ROI / char-filter analogue queries (M9/M2/M11): the
    roundtrip under one of ``_MODE_CONFIGS``, checked by ``mode_sql``."""
    def q(sf_dir: str):
        combined = roundtrip_extract(sf_dir, _MODE_CONFIGS[mode])
        return combined.select_columns(
            ["url", "extracted_text", "n_blocks", "payload_kind"])

    return Query(name, q, mode_sql(mode))


def _q_extract_subsup(sf_dir: str):
    """I13 word predicates: the subsup-wrapped corpus yields exactly one
    subscript word (H2O) and one superscript word (mc2) per document."""
    spans = spans_view(extract_pages(pages_from_documents(sf_dir,
                                                          "subsup")))

    def flagged(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(b["level"], "word"),
                    pc.or_(b["is_subscript"], b["is_superscript"]))
        t = b.filter(m)
        return t.select(["url", "level", "start", "end",
                         "is_subscript", "is_superscript"])

    return mapped(spans, flagged)


def _q_word_predicates(sf_dir: str):
    """I12 word predicates (isDictionaryWord / isNumeric,
    RecognitionResultsIterator.java:128-136): one row per word span of the
    wrapped corpus with per-language dictionary membership and numeric
    detection, fully vectorized (trim/lower/is_in/regex kernels)."""
    return apply_word_predicates(roundtrip_extract(sf_dir))


def _q_extract_font_attrs(sf_dir: str):
    """I11 FontAttributes analogue (FontAttributes.java:28-59,
    RecognitionResultsIterator.java:100-125): the font-wrapped corpus yields
    exactly five font-flagged words per document (bold / italic / underlined
    / monospace / nested bold-italic), derived from DOM inline markup."""
    spans = spans_view(extract_pages(pages_from_documents(sf_dir,
                                                          "font_attrs")))

    def flagged(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(b["level"], "word"),
                    pc.not_equal(b["font_mask"], 0))
        t = b.filter(m)
        fm = t["font_mask"]

        def bit(v: int):
            return pc.not_equal(
                pc.bit_wise_and(fm, pa.scalar(v, pa.uint8())), 0)

        return pa.table({
            "url": t["url"],
            "start": t["start"],
            "end": t["end"],
            "is_bold": bit(1),
            "is_italic": bit(2),
            "is_underlined": bit(4),
            "is_monospace": bit(8),
        })

    return mapped(spans, flagged)


def _q_extract_custom_rule(sf_dir: str):
    """BlockRule extension surface (PageItemFactory/CloseListener
    analogue): a user rule re-types heading blocks to caption_text; the
    oracle proves the reclassification lands in the spans output."""
    def heading_to_caption(ctx):
        if ctx.default_type == "heading_text":
            return "caption_text"
        return None

    cfg = ExtractConfig(block_rules=(heading_to_caption,))
    return _block_spans(spans_view(roundtrip_extract(sf_dir, cfg)))


def _q_pages_dedup_extract(sf_dir: str):
    """Flagship north-rule composition end-to-end: a recrawl corpus with
    TWO captures per url (the later one revised) → url dedup
    (hash-partitioned keep-latest) → extraction; only the later capture's
    text may appear, exactly one row per url."""
    pages = pages_from_documents(sf_dir, "dup_captures")
    combined = extract_pages(pages, dedup=True)
    return combined.select_columns(["url", "extracted_text", "n_blocks",
                                    "payload_kind"])


def _q_extract_unlv(sf_dir: str):
    """UNLV-format rendering (M7's sibling; TessAPI.java:512 analogue)
    over the subsup-wrapped corpus so the script markers appear in the
    oracle string."""
    return apply_unlv(extract_pages(pages_from_documents(sf_dir, "subsup")))


def _q_extract_hocr(sf_dir: str):
    """hOCR string rendering (M7, TessBaseAPIGetHOCRText analogue): the
    structured spans view rendered per document to the hOCR HTML form."""
    return apply_hocr(roundtrip_extract(sf_dir))


def _q_extract_links(sf_dir: str):
    """Link-graph construction: pages → (src, pos, href, resolved) edges —
    the first stage of the pagerank pipeline the graph operators consume."""
    return apply_extract_links(pages_from_documents(sf_dir))


def _q_extract_meta(sf_dir: str):
    """Head-metadata projection (title / description / canonical) over the
    meta-wrapped corpus — the crawl-index fields."""
    return apply_extract_meta(pages_from_documents(sf_dir, "meta"))


def _q_config_dump(sf_dir: str):
    """Engine-variable introspection dump — the TessBaseAPIPrintVariables
    analogue (decl-only in the reference) over the digits-fixture
    configuration (tessdata/configs/digits + api_config)."""
    cfg = ExtractConfig(char_whitelist="0123456789-.",
                        variables=(("tessedit_zero_rejection", "T"),))
    return cfg.dump_variables()


def _q_warc_roundtrip(sf_dir: str):
    """Container-format ingest: documents shaped as pages, serialized to
    WARC shards with the real writer (spec Content-Length framing), read
    back through `sources/warc.read_warc` — the Common-Crawl ingest
    surface proven by a write→read identity over the driver oracle."""
    docs = read(sf_dir, "documents", ["doc_id", "text", "lang"]).to_pandas()
    docs = docs.sort_values("doc_id").reset_index(drop=True)
    epoch = dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc)
    pages = pa.table({
        "url": pa.array(["doc://" + str(i) for i in docs["doc_id"]],
                        pa.string()),
        "warc_ts": pa.array([epoch] * len(docs),
                            pa.timestamp("us", tz="UTC")),
        "html": pa.array([(t or "").encode() for t in docs["text"]],
                         pa.binary()),
        "text": pa.array(docs["text"], pa.string()),
        "lang": pa.array(docs["lang"], pa.string()),
    })
    # unique scratch dir per call: a fixed path would race when two
    # harness processes run the same sf_dir concurrently (reader of one
    # vs rewriter of the other on the same shard files)
    out_dir = tempfile.mkdtemp(prefix="graft_warc_roundtrip_")
    try:
        paths = write_warc(pages, out_dir, shards=8)
        ds = read_warc(paths)

        def project(b: pa.Table) -> pa.Table:
            return b.select(["url", "text", "lang"])

        # materialize so the scratch WARC shards can be removed — a lazy
        # return leaked one corpus-sized /tmp dir per harness invocation
        return mapped(ds, project).materialize()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


ROWS = [
    Query("extract_roundtrip", _q_extract_roundtrip, roundtrip_sql()),
    Query("checkpoint_resume", _q_checkpoint_resume, roundtrip_sql()),
    Query("extract_mixed_pdf", _q_extract_mixed_pdf, mixed_pdf_sql()),
    Query("extract_spans", _q_extract_spans, roundtrip_spans_sql()),
    Query("extract_boxes", _q_extract_boxes, boxes_sql()),
    Query("extract_metrics_by_lang", _q_extract_metrics, """
SELECT lang,
       count(*) AS n_docs,
       CAST(sum(6 + length(CAST(doc_id AS VARCHAR)) + length(text)) AS BIGINT)
         AS total_chars,
       CAST(max(6 + length(CAST(doc_id AS VARCHAR)) + length(text)) AS BIGINT)
         AS max_chars,
       CAST(2 * count(*) AS BIGINT) AS total_blocks
FROM documents GROUP BY lang"""),
    _mode_row("extract_mode_text_only", "text_only"),
    _mode_row("extract_mode_single_block", "single_block"),
    _mode_row("extract_charfilter_digits", "charfilter_digits"),
    _mode_row("extract_selector_article", "selector_article"),
    Query("extract_subsup", _q_extract_subsup, subsup_words_sql()),
    Query("word_predicates", _q_word_predicates, word_predicates_sql()),
    Query("extract_font_attrs", _q_extract_font_attrs, font_words_sql()),
    Query("extract_custom_rule", _q_extract_custom_rule,
          roundtrip_spans_sql(heading_type="caption_text")),
    Query("pages_dedup_extract", _q_pages_dedup_extract, """
SELECT 'https://corpus.test/doc/' || doc_id AS url,
       'Doc ' || doc_id || chr(10) || chr(10) || 'rev2 ' || text
         AS extracted_text,
       2 AS n_blocks,
       'html' AS payload_kind
FROM documents"""),
    Query("extract_unlv", _q_extract_unlv, unlv_sql()),
    Query("extract_hocr", _q_extract_hocr, hocr_sql()),
    Query("extract_links", _q_extract_links, links_sql()),
    Query("extract_meta", _q_extract_meta, meta_sql()),
    # the oracle is a hand-written VALUES literal of the canonical
    # rendering: field order, bool→1/0, float repr, NULL optionals and
    # variable passthrough against an independent expectation
    Query("config_dump", _q_config_dump, """
SELECT * FROM (VALUES
  ('mode', 'auto', 'field'),
  ('selector_tag', NULL, 'field'),
  ('char_whitelist', '0123456789-.', 'field'),
  ('char_blacklist', NULL, 'field'),
  ('max_link_density', '0.5', 'field'),
  ('long_para_words', '25', 'field'),
  ('long_para_max_link_density', '0.65', 'field'),
  ('emit_word_spans', '1', 'field'),
  ('block_rules', '0', 'field'),
  ('tessedit_zero_rejection', 'T', 'variable')
) AS t(name, "value", source)"""),
    Query("warc_roundtrip", _q_warc_roundtrip,
          "SELECT 'doc://' || doc_id AS url, text, lang FROM documents"),
]
