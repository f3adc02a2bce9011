"""Pure-extractor tests (no Ray) — the unit layer of the reference's fixture
strategy (MediatorTests/LayoutIteratorTests) in tabular form."""

import os
import zlib

import pyarrow.parquet as pq
import pytest

from org_dharts_dia_tesseract_ray.config import ExtractConfig, Mode
from org_dharts_dia_tesseract_ray.extract import (
    BlockType, Level, PayloadKind, extract_one,
)
from org_dharts_dia_tesseract_ray.sources.gen_corpus import gen_rows, make_pdf


def _spans_by_level(res, level):
    return [s for s in res.spans if s.level == level]


@pytest.fixture(scope="module")
def tiny_rows():
    return list(gen_rows(64, seed=42))


def _family(url: str) -> str:
    return url.split("//")[1].split(".")[0]


# --- golden structural counts (LayoutIteratorTests.java:54,64 analogue) ----

def test_poetry_golden_counts(tiny_rows):
    seen = 0
    for row in tiny_rows:
        if _family(row["url"]) != "poetry":
            continue
        seen += 1
        res = extract_one(row["html"], row["lang"])
        assert len(_spans_by_level(res, Level.BLOCK)) == 3
        assert len(_spans_by_level(res, Level.LINE)) == 22
        types = [s.block_type for s in _spans_by_level(res, Level.BLOCK)]
        assert types == [BlockType.HEADING_TEXT, BlockType.FLOWING_TEXT,
                         BlockType.PULLOUT_TEXT]
    assert seen >= 1


def test_multi_block_merge_single_block(tiny_rows):
    for row in tiny_rows:
        if _family(row["url"]) == "multi_block_merge":
            res = extract_one(row["html"], row["lang"])
            blocks = _spans_by_level(res, Level.BLOCK)
            assert len(blocks) == 1
            assert blocks[0].block_type == BlockType.FLOWING_TEXT


# --- span invariants (BasePageHandle.java:128-207 cursor semantics) --------

def test_span_invariants_all_families(tiny_rows):
    for row in tiny_rows:
        res = extract_one(row["html"], row["lang"], row["text"])
        spans = res.spans
        # node ids dense from 0 in emission (reading) order
        assert [s.node_id for s in spans] == list(range(len(spans)))
        by_id = {s.node_id: s for s in spans}
        per_level_prev_start = {}
        for s in spans:
            assert 0 <= s.start <= s.end <= len(res.text)
            if s.parent_id == -1:
                assert s.level == Level.BLOCK
            else:
                p = by_id[s.parent_id]
                # child ⊆ parent
                assert p.start <= s.start and s.end <= p.end
            # sorted by start within level (reading order)
            prev = per_level_prev_start.get(s.level)
            if prev is not None:
                assert s.start >= prev
            per_level_prev_start[s.level] = s.start
        # text slice of every line/word equals what offsets say (I9: getText
        # is a view over extracted_text)
        for s in spans:
            if s.level in (Level.LINE, Level.WORD):
                sliced = res.text[s.start:s.end]
                assert "\n" not in sliced


def test_nontext_blocks_have_single_synthetic_children(tiny_rows):
    for row in tiny_rows:
        res = extract_one(row["html"], row["lang"])
        by_parent = {}
        for s in res.spans:
            by_parent.setdefault(s.parent_id, []).append(s)
        for s in res.spans:
            if s.level == Level.BLOCK and not BlockType.is_text(s.block_type):
                assert s.start == s.end
                paras = by_parent.get(s.node_id, [])
                assert len(paras) == 1 and paras[0].level == Level.PARA
                lines = by_parent.get(paras[0].node_id, [])
                assert len(lines) == 1 and lines[0].level == Level.LINE
                words = by_parent.get(lines[0].node_id, [])
                assert len(words) == 1 and words[0].level == Level.WORD


def test_is_at_beginning_final_derivable(tiny_rows):
    """I3/I4: isAtBeginningOf ⇔ start == parent.start; final ⇔ end == parent.end."""
    row = next(r for r in tiny_rows if _family(r["url"]) == "poetry")
    res = extract_one(row["html"], row["lang"])
    by_id = {s.node_id: s for s in res.spans}
    children = {}
    for s in res.spans:
        if s.parent_id >= 0:
            children.setdefault(s.parent_id, []).append(s)
    for pid, kids in children.items():
        p = by_id[pid]
        assert kids[0].start == p.start      # first child begins the parent
        assert kids[-1].end == p.end         # last child ends the parent


# --- boilerplate stripping -------------------------------------------------

def test_nav_footer_stripped(tiny_rows):
    for row in tiny_rows:
        if _family(row["url"]) == "article_nav":
            res = extract_one(row["html"], row["lang"])
            assert "copyright 2024" not in res.text
            assert res.n_blocks >= 2  # h1 + at least one para run
            assert all(s.block_type != BlockType.NOISE for s in res.spans)


def test_role_navigation_container_ends_at_its_end_tag():
    r = extract_one(b'<div role="navigation"><a href=/>Home</a></div>'
                    b"<p>The main article text is long enough to be "
                    b"content here.</p>", "en")
    assert r.text == ("The main article text is long enough to be "
                      "content here.")


def test_role_banner_container_counts_nested_same_name_tags():
    r = extract_one(b"<div role=banner><div><div>Site name</div>"
                    b"<div><a href=/a>A</a> <a href=/b>B</a></div></div>"
                    b"<div>banner tail</div></div>"
                    b"<p>What follows the banner is the article body.</p>",
                    "en")
    assert r.text == "What follows the banner is the article body."


def test_role_container_on_p_or_li_ends_at_implied_end_tag():
    """HTML lets a page omit </p>, </li>, </dt> and </dd>: a sibling open
    ends a role container on such a tag, as the browser ends the
    element."""
    body = (b"The main article text is long enough to be content here.")
    r = extract_one(b"<p role=navigation><a href=/>Home</a><p>" + body
                    + b"</p>", "en")
    assert r.text == body.decode()
    r = extract_one(b"<ul><li role=navigation><a href=/>Home</a><li>"
                    + body + b"</ul>", "en")
    assert r.text == body.decode()
    r = extract_one(b"<dl><dt role=navigation><a href=/>Home</a><dd>"
                    + body + b"</dl>", "en")
    assert r.text == body.decode()
    # an <li> of a nested list is a descendant, not a sibling: the
    # container ends at its own </li>, or at the next sibling <li>
    for end in (b"</li>", b"<li>"):
        r = extract_one(b"<ul><li role=navigation><ul><li><a href=/>A</a>"
                        b"<li><a href=/b>B</a></ul>" + end + body
                        + b"</ul>", "en")
        assert r.text == body.decode()


def test_role_list_container_keeps_outer_list_group():
    from org_dharts_dia_tesseract_ray.extract.html_extract import (
        _feed_fast, _SegmentingParser)
    p = _SegmentingParser()
    _feed_fast(p, "<ul><li>alpha item one</li><li><ul role=navigation>"
                  "<li><a href=/>Home</a></li></ul></li>"
                  "<li>beta item two</li></ul><p>after the list</p>")
    groups = {q.lines[0]: q.group for q in p.paras}
    assert groups["alpha item one"][0] == "list"
    assert groups["beta item two"] == groups["alpha item one"]
    assert groups["Home"][0] == "boiler"
    assert groups["after the list"] == ("flow",)
    r = extract_one(b"<ul><li>alpha item one</li><li><ul role=navigation>"
                    b"<li><a href=/>Home</a></li></ul></li>"
                    b"<li>beta item two</li></ul>", "en")
    assert r.text == "alpha item one\nbeta item two"


# --- error discipline ------------------------------------------------------

def test_broken_payloads_never_raise():
    assert extract_one(b"").payload_kind == PayloadKind.EMPTY
    assert extract_one(None).payload_kind == PayloadKind.EMPTY
    assert extract_one(b"   \n\t ").payload_kind == PayloadKind.EMPTY
    r = extract_one(b"\x00\x01\x02junk")
    assert r.payload_kind == PayloadKind.ERROR and r.error
    r = extract_one(b"%PDF-1.4 garbage without streams")
    assert r.payload_kind == PayloadKind.ERROR


def test_truncated_html_degrades():
    r = extract_one(b"<html><body><p>hello world this is fine</p><p>trunca")
    assert r.payload_kind == PayloadKind.HTML
    assert "hello world" in r.text


# --- charset policy --------------------------------------------------------

def test_charset_declared_latin1():
    html = ('<html><head><meta charset="iso-8859-1"></head>'
            "<body><p>Caf\xe9 cr\xe8me</p></body></html>").encode("latin-1")
    r = extract_one(html)
    assert r.charset == "iso8859-1"
    assert "Café crème" in r.text


def test_charset_misdeclared_falls_back():
    html = ('<html><head><meta charset="utf-8"></head>'
            "<body><p>Caf\xe9</p></body></html>").encode("latin-1")
    r = extract_one(html)
    assert r.charset == "latin-1"          # utf-8 strict failed → fallback
    assert "Caf" in r.text


# --- PDF branch ------------------------------------------------------------

def test_pdf_roundtrip_both_codecs():
    for compress in (False, True):
        pdf = make_pdf([["hello pdf line one", "line two"], ["second para"]],
                       compress=compress)
        r = extract_one(pdf)
        assert r.payload_kind == PayloadKind.PDF
        assert r.text == "hello pdf line one\nline two\nsecond para"


def test_pdf_escapes():
    pdf = make_pdf([["parens () and backslash \\ here"]])
    r = extract_one(pdf)
    assert "parens () and backslash \\ here" == r.text


def _flate_pdf(*streams: bytes) -> bytes:
    objs = [b"<< /Filter /FlateDecode /Length %d >>\nstream\n" % len(z)
            + z + b"\nendstream" for z in map(zlib.compress, streams)]
    return b"%PDF-1.4\n" + b"\n".join(objs) + b"\n%%EOF"


def test_pdf_flate_bomb_is_error_row(monkeypatch):
    """FlateDecode output is capped per document (all streams together):
    past MAX_FLATE_BYTES the document is a ``limit:flate_bytes`` error
    row, and decompression stops at the cap."""
    from org_dharts_dia_tesseract_ray.extract import pdf_extract
    cap = pdf_extract.MAX_FLATE_BYTES
    bomb = _flate_pdf(b"BT (x) Tj ET\n" + b" " * (2 * cap))
    assert len(bomb) < cap // 100
    r = extract_one(bomb)
    assert r.payload_kind == PayloadKind.ERROR
    assert r.error.startswith("limit:flate_bytes")
    assert r.text == "" and r.spans == []

    page = b"BT (small page) Tj ET\n"
    assert extract_one(_flate_pdf(page, page)).text == "small page\nsmall page"
    # the budget is per document: two streams that fit alone, not together
    monkeypatch.setattr(pdf_extract, "MAX_FLATE_BYTES", 2 * len(page))
    assert extract_one(_flate_pdf(page, page)).text == "small page\nsmall page"
    monkeypatch.setattr(pdf_extract, "MAX_FLATE_BYTES", 2 * len(page) - 1)
    r = extract_one(_flate_pdf(page, page))
    assert r.error.startswith("limit:flate_bytes")
    # a truncated stream is skipped, as before the cap
    cut = _flate_pdf(page).replace(zlib.compress(page),
                                   zlib.compress(page)[:-6])
    r = extract_one(cut)
    assert r.error == "pdf-parse: no extractable text objects"


# --- modes / config (PageSegMode + variables analogues) --------------------

_HTML = (b"<main><h1>Title Here</h1><p>one 234 two</p></main>"
         b"<div>outside text</div>")


def test_mode_single_block():
    r = extract_one(_HTML, "en", cfg=ExtractConfig(mode=Mode.SINGLE_BLOCK))
    assert r.n_blocks == 1


def test_mode_text_only_uses_corpus_text():
    r = extract_one(_HTML, "en", corpus_text="para one\n\npara two",
                    cfg=ExtractConfig(mode=Mode.TEXT_ONLY))
    assert r.text == "para one\n\npara two"
    assert r.payload_kind == PayloadKind.TEXT


def test_selector_tag_roi():
    r = extract_one(_HTML, "en", cfg=ExtractConfig(selector_tag="main"))
    assert "outside" not in r.text and "Title Here" in r.text


def test_char_whitelist_digits():
    r = extract_one(_HTML, "en", cfg=ExtractConfig(char_whitelist="0123456789"))
    assert r.text == "234"


_FILTER_DOCS = {
    "html": (b"<p>abc 123 def 456</p>", None),
    "pdf": (make_pdf([["abc 123 def 456"]]), None),
    "pdf_flate": (make_pdf([["abc 123 def 456"]], compress=True), None),
    "text": (b"abc 123 def 456", None),
    "text_only": (None, "abc 123 def 456"),
}


@pytest.mark.parametrize("kind", sorted(_FILTER_DOCS))
def test_char_filter_applies_to_every_payload_kind(kind):
    payload, ctext = _FILTER_DOCS[kind]
    mode = Mode.TEXT_ONLY if ctext is not None else Mode.AUTO
    for cfg in (ExtractConfig(mode=mode, char_whitelist="0123456789"),
                ExtractConfig(mode=mode, char_blacklist="abcdef")):
        r = extract_one(payload, "en", ctext, cfg)
        assert (r.text, r.error) == ("123 456", None)
        assert [(s.start, s.end) for s in r.spans if s.level == Level.WORD] \
            == [(0, 3), (4, 7)]
    # a filter that removes every character leaves an empty document of
    # the same kind, not an error
    r = extract_one(payload, "en", ctext,
                    ExtractConfig(mode=mode, char_whitelist="#"))
    assert (r.text, r.n_blocks, r.error) == ("", 0, None)
    assert r.payload_kind == kind.split("_")[0]


def test_determinism_rerun(tiny_rows):
    for row in tiny_rows[:16]:
        a = extract_one(row["html"], row["lang"], row["text"])
        b = extract_one(row["html"], row["lang"], row["text"])
        assert a.text == b.text and a.spans == b.spans


# --- golden parquet byte-identity (serial pinned outputs) ------------------

def test_tiny_golden_matches_live_extractor(fixtures_dir):
    pages = pq.read_table(os.path.join(fixtures_dir, "pages_tiny.parquet"))
    golden = pq.read_table(os.path.join(fixtures_dir, "golden_extracted_tiny.parquet"))
    gold_by_url = {}
    for i in range(golden.num_rows):
        gold_by_url.setdefault(golden["url"][i].as_py(), []).append(
            (golden["extracted_text"][i].as_py(), golden["payload_kind"][i].as_py()))
    for row in pages.to_pylist():
        res = extract_one(row["html"], row["lang"], row["text"])
        assert (res.text, res.payload_kind) in gold_by_url[row["url"]]


# ---------------------------------------------------------------------------
# malformed-markup robustness (regressions from round-1 code review)


def test_unclosed_option_does_not_swallow_document():
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    r = extract_one(b"<p>before</p><select><option>A<option>B</select>"
                    b"<p>real article content here</p>")
    assert "before" in r.text and "real article content here" in r.text
    assert "A" not in r.text.split()      # option contents stay dropped


def test_omitted_head_close_is_implied():
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    r = extract_one(b"<head><title>t</title><body><p>Hello world</p>")
    assert r.text == "Hello world"


def test_unclosed_anchor_scopes_to_sectioning_boundary():
    """Browser-faithful anchor scope: an unclosed <a> keeps applying to
    following flow content (the adoption rule re-opens it per paragraph),
    and only a sectioning root closes it."""
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    r = extract_one(b'<p><a href="/x">home</p>'
                    b"<p>still link text</p>"
                    b"<section><p>long normal prose paragraph with many "
                    b"words surviving fine</p></section>")
    assert "long normal prose paragraph" in r.text
    assert "still link text" not in r.text


def test_block_anchor_cards_classified_noise():
    """HTML5 anchors wrapping flow content (<a><div>card</div></a>) stay
    100% link text — the card farm is boilerplate, the following real
    paragraph survives."""
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    cards = b"".join(
        b'<a href="/c"><div><h3>card title</h3><p>card teaser</p></div></a>'
        for _ in range(3))
    r = extract_one(cards + b"<p>real content paragraph with several "
                            b"plain words here</p>")
    assert "card" not in r.text
    assert "real content paragraph" in r.text


def test_subsup_word_flags_and_dropcap():
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    r = extract_one(b'<p><span class="dc">O</span>nce upon a time formula '
                    b"H<sub>2</sub>O and E = mc<sup>2</sup> appeared</p>")
    words = {r.text[s.start:s.end]: s for s in r.spans if s.level == "word"}
    assert words["H2O"].is_subscript and not words["H2O"].is_superscript
    assert words["mc2"].is_superscript and not words["mc2"].is_subscript
    assert words["Once"].is_dropcap
    assert not words["upon"].is_dropcap
    assert not words["and"].is_subscript and not words["and"].is_superscript
    # byte-identity: flags never change the text itself
    assert r.text == ("Once upon a time formula H2O and E = mc2 appeared")


def test_font_attribute_word_masks():
    """I11 FontAttributes analogue: DOM inline markup → packed word
    font_mask (1=bold 2=italic 4=underlined 8=monospace); <pre> content is
    monospace; masks reset at sectioning roots; text stays byte-identical."""
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    r = extract_one(
        b"<p>plain <strong>bw</strong> <em>iw</em> <ins>uw</ins> "
        b"<kbd>mw</kbd> <b><i>biw</i></b> H<sub>2</sub>O</p>"
        b"<pre>prew</pre>"
        b"<section><b>unclosed bold<p>still bold</p></section>"
        b"<p>clean</p>")
    words = {r.text[s.start:s.end]: s for s in r.spans if s.level == "word"}
    assert words["plain"].font_mask == 0
    assert words["bw"].font_mask == 1
    assert words["iw"].font_mask == 2
    assert words["uw"].font_mask == 4
    assert words["mw"].font_mask == 8
    assert words["biw"].font_mask == 3          # nested bold+italic
    assert words["prew"].font_mask == 8         # <pre> ⇒ monospace
    assert words["H2O"].font_mask == 0 and words["H2O"].is_subscript
    # an unclosed <b> persists across paragraph boundaries (formatting
    # reconstruction) but is severed by the sectioning root's close
    assert words["still"].font_mask == 1
    assert words["clean"].font_mask == 0
    assert "plain bw iw uw mw biw H2O" in r.text


def test_word_predicates_batch():
    """I12 isDictionaryWord/isNumeric: per-language stopword membership
    (unknown lang → English fallback), punctuation-stripped normalization,
    numeric detection, zero-length placeholder words skipped."""
    import pyarrow as pa

    from org_dharts_dia_tesseract_ray.stages.extractor import (
        HtmlExtractor, word_predicates_batch)

    pages = pa.table({
        "url": pa.array(["u1", "u2"], pa.string()),
        "warc_ts": pa.array([0, 0], pa.timestamp("us", tz="UTC")),
        "html": pa.array([b"<p>The 42 answers, und!</p><hr>",
                          b"<p>und der Hund 7</p>"], pa.binary()),
        "lang": pa.array(["zh", "de"], pa.string()),   # zh → en fallback
    })
    out = word_predicates_batch(HtmlExtractor()(pages)).to_pylist()
    got = {(r["url"], r["word"]): (r["is_dictionary_word"], r["is_numeric"])
           for r in out}
    assert got[("u1", "The")] == (True, False)     # en fallback, "the"
    assert got[("u1", "42")] == (False, True)
    assert got[("u1", "answers,")] == (False, False)   # trimmed, not stop
    assert got[("u1", "und!")] == (False, False)   # "und" not an EN stopword
    assert got[("u2", "und")] == (True, False)     # ...but a DE stopword
    assert got[("u2", "Hund")] == (False, False)
    assert got[("u2", "7")] == (False, True)
    # the <hr> placeholder word is zero-length → excluded
    assert len(out) == 8


def test_utf16_payload_decodes():
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    payload = "<html><body><p>Hello unicode</p></body></html>".encode("utf-16")
    r = extract_one(payload)
    assert r.payload_kind == "html" and r.text == "Hello unicode"
    assert r.charset.startswith("utf-16")


def test_utf8_bom_stripped():
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    r = extract_one(b"\xef\xbb\xbf<html><body><p>Hello bom</p></body></html>")
    assert r.text == "Hello bom"          # no spurious U+FEFF paragraph


def test_plain_text_with_angle_comparisons_stays_text():
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    r = extract_one(b"Suppose x < a and y > b.\n\nSecond paragraph here.")
    assert r.payload_kind == "text"
    assert r.n_blocks == 2                # blank-line split preserved


def test_charset_not_sniffed_from_script_urls():
    from org_dharts_dia_tesseract_ray.extract.charset import (
        sniff_declared_charset)
    page = (b'<html><head><script src="a.js?charset=latin-1"></script>'
            b'<meta charset="utf-8"></head><body>x</body></html>')
    assert sniff_declared_charset(page) == "utf-8"


def test_pdf_bad_octal_escape_degrades_gracefully():
    from org_dharts_dia_tesseract_ray.config import ExtractConfig
    pdf = (b"%PDF-1.4\n<< /Length 40 >>\nstream\n"
           b"BT (Good text here) Tj (bad\\8esc) Tj ET\nendstream\n%%EOF")
    r = extract_one(pdf, "en", None, ExtractConfig())
    assert r.payload_kind == "pdf" and "Good text here" in r.text


def test_get_variable_typed_readback():
    """TesseractHandle.getVariable analogue (tess4j/TesseractHandle.java:
    224-259): typed parse, InvalidParameterException -> ValueError,
    unsupported exemplar -> TypeError, missing name -> default."""
    import pytest

    from org_dharts_dia_tesseract_ray.config import ExtractConfig

    cfg = ExtractConfig(variables=(("psm_hint", "3"), ("debug", "true"),
                                   ("thresh", "0.65"), ("label", "x")))
    assert cfg.get_variable("psm_hint", type=int) == 3
    assert cfg.get_variable("debug", type=bool) is True
    assert cfg.get_variable("thresh", type=float) == 0.65
    assert cfg.get_variable("label") == "x"
    assert cfg.get_variable("missing", 7, type=int) == 7
    with pytest.raises(ValueError):
        cfg.get_variable("label", type=int)
    with pytest.raises(ValueError):
        cfg.get_variable("label", type=bool)
    with pytest.raises(TypeError):
        cfg.get_variable("psm_hint", type=list)


def test_sniff_kind_routing_families():
    """extract_one's payload router on every routing family (lstrip'd PDF
    magic, mid-payload %PDF- is NOT pdf, BOM text with NULs is html, NUL
    junk is error, whitespace/None are empty); the vectorized sniff stage
    only sizes payloads."""
    import pyarrow as pa

    from org_dharts_dia_tesseract_ray.extract.api import sniff_kind
    from org_dharts_dia_tesseract_ray.stages.sniff import sniff_batch

    payloads = [b"  %PDF-1.4 x", b"xx%PDF-", b"%PDF-abc",
                b"\xff\xfet\x00e\x00x\x00t\x00", b"<html>x</html>",
                b"bin\x00junk", b"   ", None, b"\t\n%PDF-",
                b"\xef\xbb\xbfplain utf8 bom"]
    assert [sniff_kind(p) for p in payloads] == [
        "pdf", "html", "pdf", "html", "html",
        "error", "empty", "empty", "pdf", "html"]
    t = pa.table({"html": pa.array(payloads, pa.binary())})
    out = sniff_batch(t)
    assert out.column_names == ["html", "payload_bytes"]
    assert out["payload_bytes"].to_pylist() == [
        len(p) if p is not None else 0 for p in payloads]


def test_normalize_text_unicode_cases():
    """NFC composition, case folding of accented/uppercase text, and
    whitespace-run collapse — the normalized form feeds exact digests."""
    import pyarrow as pa

    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        normalize_text_batch)
    # "é" as e + COMBINING ACUTE must compose to the precomposed form
    decomposed = "Café  du\tMonde\n"
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array([decomposed, "  A  B  "])})
    out = normalize_text_batch(t)["norm_text"].to_pylist()
    assert out[0] == "café du monde"
    assert out[1] == "a b"


def test_extract_contacts_edge_cases():
    """Contact extraction: count + FIRST match; no-match and null text
    yield null first_email and 0/null-safe counts."""
    import pyarrow as pa

    from org_dharts_dia_tesseract_ray.functions.pii import (
        extract_contacts_batch)
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "write a@b.co or c@d.org today", "no contact here", "", None])})
    out = extract_contacts_batch(t).to_pylist()
    assert out[0] == {"doc_id": 1, "n_emails": 2, "first_email": "a@b.co"}
    assert out[1] == {"doc_id": 2, "n_emails": 0, "first_email": None}
    assert out[2] == {"doc_id": 3, "n_emails": 0, "first_email": None}
    assert out[3]["first_email"] is None
