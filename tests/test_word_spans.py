"""Word spans are derived once per batch, in columns (``extract.spans``):
the stage's batch path, the per-document ``ExtractResult.spans`` and a
regex oracle over every line must agree, batch size must not matter, and
the stage reproduces the committed small goldens in-process."""

import os
import re
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from org_dharts_dia_tesseract_ray.config import ExtractConfig, Mode
from org_dharts_dia_tesseract_ray.extract import extract_one
from org_dharts_dia_tesseract_ray.extract.spans import SPAN_STRUCT, span_array
from org_dharts_dia_tesseract_ray.sources.gen_corpus import make_pdf
from org_dharts_dia_tesseract_ray.stages.extractor import (
    HtmlExtractor, explode_spans_batch)

_FLOATS = ("confidence", "text_density", "link_density")

#: (html payload, corpus text) per document family
_DOCS = [
    # masked paragraphs: bold/italic/sub/sup/pre, a dropcap, <br> lines
    (b"<main><p>plain <b>bold</b> <i>it</i> H<sub>2</sub>O x<sup>2</sup>"
     b"<br><em>second</em> tail</p><pre>code  line\n<b>more</b> code</pre>"
     b"<p><span class=dropcap>O</span>nce upon a time</p></main>", None),
    # image and rule placeholders, between, before and after text
    (b"<main><img src=a><p>before</p><img src=b><hr><figure><img src=c>"
     b"<figcaption>cap text</figcaption></figure><p>after</p><hr></main>",
     None),
    (b"<html><body><img src=only></body></html>", None),
    # emoji, CJK, accents and astral characters at line edges
    ("<main><p>\U0001F600 emoji 😀 here 中文 字 café</p>"
     "<p>𝒜𝒷 <b>ü</b>ber 漢字\U0001F680</p></main>".encode(), None),
    # plain text and PDF (both codecs)
    (b"just some plain text\nsecond line\n\nnext paragraph here", None),
    (make_pdf([["pdf line one", "line two"], ["second para"]]), None),
    (make_pdf([["compressed pdf text"]], compress=True), None),
    # empty, error, and zero-span (everything is boilerplate) documents
    (b"", None),
    (None, None),
    (b"\x00\x01\x02binary", None),
    (b"<html><body><nav><a href=x>menu link</a></nav></body></html>", None),
    # the corpus text is what TEXT_ONLY mode reads
    (b"<main><p>ignored in text mode</p></main>",
     "corpus para one\nline two\n\ncorpus para 😀 two"),
]

_CFGS = [
    ExtractConfig(),
    ExtractConfig(emit_word_spans=False),
    ExtractConfig(char_whitelist="abcdefghijklmnopqrstuvwxyzO2 "),
    ExtractConfig(char_blacklist="aeiou"),
    ExtractConfig(mode=Mode.TEXT_ONLY),
    ExtractConfig(mode=Mode.SINGLE_BLOCK),
]


def _pages(docs) -> pa.Table:
    n = len(docs)
    ts = datetime(2024, 1, 1, tzinfo=timezone.utc)
    return pa.table({
        "url": [f"https://t.example/{i}" for i in range(n)],
        "warc_ts": pa.array([ts] * n, pa.timestamp("us", tz="UTC")),
        "html": pa.array([h for h, _ in docs], pa.binary()),
        "lang": ["en"] * n,
        "text": [t for _, t in docs],
    })


def _as_rows(spans) -> list[dict]:
    """Span objects as the stage's Arrow rows (float32 densities)."""
    rows = []
    for s in spans:
        d = {f.name: getattr(s, f.name) for f in SPAN_STRUCT}
        for k in _FLOATS:
            d[k] = float(np.float32(d[k]))
        rows.append(d)
    return rows


def _oracle_words(res, words_on: bool) -> list[tuple]:
    """(parent line id, start, end) of every word the line spans imply:
    the maximal runs of non-space, non-newline characters of each line,
    and one zero-length word under each zero-length line."""
    out = []
    for s in res.spans:
        if s.level != "line" or not words_on:
            continue
        if s.start == s.end:
            out.append((s.node_id, s.start, s.start))
        for m in re.finditer(r"[^ \n]+", res.text[s.start:s.end]):
            out.append((s.node_id, s.start + m.start(), s.start + m.end()))
    return out


@pytest.mark.parametrize("cfg", _CFGS, ids=lambda c: (
    f"{c.mode}-words{int(c.emit_word_spans)}"
    f"-w{int(bool(c.char_whitelist))}-b{int(bool(c.char_blacklist))}"))
def test_batch_spans_match_per_doc_and_oracle(cfg):
    pages = _pages(_DOCS)
    out = HtmlExtractor(cfg)(pages)
    batch_spans = out["spans"].to_pylist()
    filtered = bool(cfg.char_whitelist or cfg.char_blacklist)
    for i, (html, ctext) in enumerate(_DOCS):
        res = extract_one(html, "en", ctext, cfg)
        assert batch_spans[i] == _as_rows(res.spans), i
        spans = res.spans
        # dense depth-first ids; each word directly follows its line or an
        # earlier word of the same line
        assert [s.node_id for s in spans] == list(range(len(spans)))
        words = [(s.parent_id, s.start, s.end) for s in spans
                 if s.level == "word"]
        assert words == _oracle_words(res, cfg.emit_word_spans), i
        for prev, s in zip(spans, spans[1:]):
            if s.level == "word":
                assert s.parent_id in (prev.node_id, prev.parent_id)
        if filtered:     # filtering re-segments words: masks are dropped
            assert not any(s.font_mask or s.is_subscript or s.is_superscript
                           for s in spans)


def test_word_flags_survive_batching():
    res = extract_one(_DOCS[0][0], "en")
    words = {res.text[s.start:s.end]: s for s in res.spans
             if s.level == "word"}
    assert words["bold"].font_mask == 1 and words["it"].font_mask == 2
    assert words["H2O"].is_subscript and words["x2"].is_superscript
    assert words["second"].font_mask == 2 and words["tail"].font_mask == 0
    assert words["more"].font_mask == 9 and words["code"].font_mask == 8
    assert words["Once"].is_dropcap
    assert sum(s.is_dropcap for s in res.spans) == 1


def test_batch_size_does_not_change_output():
    docs = _DOCS * 11            # 132 rows: one 128-row batch plus a tail
    pages = _pages(docs)
    for cfg in _CFGS:
        whole = HtmlExtractor(cfg)(pages.slice(0, 128))
        ones = pa.concat_tables(HtmlExtractor(cfg)(pages.slice(i, 1))
                                for i in range(128))
        assert whole.equals(ones)


def test_word_spans_flag_is_per_result():
    """One batch may hold results extracted with and without word spans:
    each document keeps its own setting."""
    html = _DOCS[0][0]
    on = extract_one(html, "en")
    off = extract_one(html, "en", cfg=ExtractConfig(emit_word_spans=False))
    got = span_array([on, off, on]).to_pylist()
    assert got == [_as_rows(on.spans), _as_rows(off.spans),
                   _as_rows(on.spans)]
    assert not any(s.level == "word" for s in off.spans)
    assert len(off.spans) < len(on.spans)


def test_small_goldens_in_process(fixtures_dir):
    """The stage in 128-row batches, no Ray, against the 600-doc goldens."""
    pages = pq.read_table(os.path.join(fixtures_dir, "pages_small.parquet"))
    want_docs = pq.read_table(
        os.path.join(fixtures_dir, "golden_extracted_small.parquet"))
    want_spans = pq.read_table(
        os.path.join(fixtures_dir, "golden_spans_small.parquet"))
    extractor = HtmlExtractor()
    outs = [extractor(pages.slice(off, 128))
            for off in range(0, pages.num_rows, 128)]
    docs = pa.concat_tables(outs).drop_columns(["spans"])
    spans = pa.concat_tables(explode_spans_batch(o) for o in outs)
    assert docs.equals(want_docs)
    assert spans.equals(want_spans)
