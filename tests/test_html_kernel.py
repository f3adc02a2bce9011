"""The HTML kernel's two shortcuts must not change a single output byte:

* the batch confidence scorer (``html_extract.score_paragraphs``) against a
  per-paragraph reference copy of the formula it replaced, float for float;
* the boilerplate fast path (text inside nav/header/footer/aside and role
  containers dropped as it arrives) against the full path, which a no-op
  block rule forces.  ``test_extract_properties`` compares the two
  tokenizer front-ends, which share one handler, so it cannot catch a
  handler bug; this can.

It also pins the one batch path: a batch of every payload kind gives what
each document gives alone, from one scoring pass.
"""

import dataclasses
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from org_dharts_dia_tesseract_ray.config import ExtractConfig, Mode
from org_dharts_dia_tesseract_ray.extract import (
    api, extract_batch, extract_one, html_extract)
from org_dharts_dia_tesseract_ray.extract.html_extract import (
    _STOPWORDS, score_paragraphs, stop_code)
from org_dharts_dia_tesseract_ray.sources.gen_corpus import gen_rows, make_pdf
from org_dharts_dia_tesseract_ray.stages.extractor import HtmlExtractor

# --- batch scorer parity ---------------------------------------------------

_REF_PUNCT = ".,;:!?\"'()[]«»"


def _ref_stopwords(lang):
    return _STOPWORDS.get((lang or "en")[:2].lower(), _STOPWORDS["en"])


def _ref_confidence(text: str, link_density: float, stop) -> float:
    """The per-paragraph confidence formula the batch scorer replaced."""
    words = text.split()
    n = len(words)
    if n == 0:
        return 0.0
    hits = sum(1 for w in words if w.strip(_REF_PUNCT).lower() in stop)
    score = (
        0.35 * (1.0 - link_density)
        + 0.25 * min(1.0, n / 20.0)
        + 0.25 * min(1.0, 4.0 * hits / n)
        + 0.15 * (sum(map(str.isalpha, text)) / len(text))
    )
    return round(100.0 * max(0.0, min(1.0, score)), 4)


#: characters whose case mapping, width or class differs between Python
#: and other Unicode implementations, plus whitespace and punctuation
#: around the stripped set
_ODD = ["İN", "İn", "İ", "ΟΔΟΣ", "ΟΔΟΣ.", "Σ", "ς", "ß", "STRASSE", "ẞ",
        " ", "​", "　", " ", "\t", "\x1c", "ＩＮ", "ｔｈｅ",
        "，", "«", "»", "«the»", "(und)", "'le'", "...", "!?", "0", "42",
        "3.14", "²", "Ⅻ", "三", "😀", "é", "ǅ", "ﬁ", "K", "Å"]
_LANGS = ["en", "de", "fr", "es", "ar", "zh", None, "EN-us", "De", "İt", ""]


def _fuzz_paragraph(rng: random.Random) -> str:
    vocab = sorted(_STOPWORDS[rng.choice(sorted(_STOPWORDS))])
    n = rng.choice([0, 1, 1, 2, 5, 19, 20, 21, 60])
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.4:
            w = rng.choice(vocab)
            w = rng.choice([w, w.upper(), w.title()])
            if rng.random() < 0.3:
                w = rng.choice(_REF_PUNCT) + w + rng.choice(_REF_PUNCT)
        elif r < 0.7:
            w = rng.choice(_ODD)
        else:
            w = "".join(rng.choice("abcxyzÄéñ'-.") for _ in range(
                rng.randint(1, 8)))
        out.append(w)
        out.append(rng.choice([" ", " ", " ", "\n", "  ", " ", " \t"]))
    return rng.choice(["", " ", "\n"]) + "".join(out)


def test_batch_scorer_matches_per_paragraph_reference():
    rng = random.Random(13)
    texts, lds, langs = [], [], []
    for _ in range(3000):
        texts.append(_fuzz_paragraph(rng))
        lds.append(rng.choice([0.0, 1.0, rng.random(), 1 / 3]))
        langs.append(rng.choice(_LANGS))
    want = [_ref_confidence(t, ld, _ref_stopwords(lg))
            for t, ld, lg in zip(texts, lds, langs)]
    codes = [stop_code(lg) for lg in langs]
    assert score_paragraphs(texts, lds, codes) == want
    # batch boundaries do not matter: every paragraph alone, and odd chunks
    for i in range(0, 200):
        assert score_paragraphs([texts[i]], [lds[i]], [codes[i]]) == [want[i]]
    got = []
    for a in range(0, len(texts), 77):
        got += score_paragraphs(texts[a:a + 77], lds[a:a + 77], codes[a:a + 77])
    assert got == want
    assert score_paragraphs([], [], []) == []


def test_dictionary_hits_use_python_lowercase():
    """``İN`` lower-cases to ``i̇n`` in Python (a miss), not ``in`` (a hit,
    as Arrow's ``utf8_lower`` would have it) — in the confidence score and
    in the word predicates alike."""
    from org_dharts_dia_tesseract_ray.stages.extractor import (
        word_predicates_batch)

    en = stop_code("en")
    assert score_paragraphs(["İN İN"], [0.0], [en]) == \
        [_ref_confidence("İN İN", 0.0, _STOPWORDS["en"])]
    assert score_paragraphs(["İN İN"], [0.0], [en]) != \
        score_paragraphs(["IN IN"], [0.0], [en])
    pages = pa.table({
        "url": ["u"], "warc_ts": pa.array([0], pa.timestamp("us", tz="UTC")),
        "html": pa.array([b"<p>\xc4\xb0N IN (In)</p>"], pa.binary()),
        "lang": ["en"]})
    got = {r["word"]: r["is_dictionary_word"]
           for r in word_predicates_batch(HtmlExtractor()(pages)).to_pylist()}
    assert got == {"İN": False, "IN": True, "(In)": True}


# --- boilerplate fast path vs full path ------------------------------------

def _noop_rule(ctx):
    return None


def _fields(r):
    return (r.text, r.doc_confidence, r.n_blocks, r.payload_kind, r.charset,
            r.error, r.word_masks, r.dropcaps,
            [dataclasses.astuple(s) for s in r.spans])


def _result(payload, lang, text, cfg):
    return _fields(extract_one(payload, lang, text, cfg))


def _assert_paths_agree(docs, base=None):
    base = base or {}
    fast = ExtractConfig(**base)
    full = ExtractConfig(block_rules=(_noop_rule,), **base)
    for payload, lang, text in docs:
        assert _result(payload, lang, text, fast) == \
            _result(payload, lang, text, full), (payload or b"")[:120]


@pytest.mark.parametrize("name", ["pages_tiny", "pages_small"])
def test_fast_path_matches_full_path_on_fixtures(fixtures_dir, name):
    t = pq.read_table(f"{fixtures_dir}/{name}.parquet")
    _assert_paths_agree(zip(t["html"].to_pylist(), t["lang"].to_pylist(),
                            t["text"].to_pylist()))


def test_fast_path_matches_full_path_on_crawl_families():
    for seed in (1, 2):
        rows = [r for r in gen_rows(250, seed=seed)
                if len(r["html"] or b"") < 200_000]
        _assert_paths_agree((r["html"], r["lang"], r["text"]) for r in rows)


_HAND_BUILT = [
    # an anchor opened inside <nav> and closed after it
    b"<nav><a href=/>Home <b>menu</nav> still linked</a><p>The article "
    b"body is the content of this page.</p>",
    b"<header><a href=/x>logo</header><p>text after the header here</p>"
    b"</a><p>and a paragraph after the stray anchor end</p>",
    # images, rules, pre and sub/sup inside boilerplate
    b"<nav><img src=a><hr><pre>code\nline</pre>x<sub>2</sub>"
    b"<sup>n</sup></nav><p>H<sub>2</sub>O and <pre>pre\ntext</pre></p>",
    b"<footer><pre>unclosed pre in footer</footer><p>after the footer, "
    b"monospace or not</p>",
    b"<aside><b><i>unclosed font tags</aside><p>plain words after</p>",
    b"<nav><script>var a='<p>';</script><style>p{}</style>menu</nav>"
    b"<p>after skip tags inside nav</p>",
    b"<header><br>one<br>two<br></header>tail text<br>more",
    # nested role containers, same-name descendants, implied ends
    b"<div role=navigation><div><div>a</div></div><div role=banner>"
    b"<div>b</div></div>c</div><p>main text after nested containers</p>",
    b"<ul><li role=navigation><a href=/>Home</a><ul><li>sub one<li>sub "
    b"two</ul><li>The main list item is content.</ul>",
    b"<p role=navigation><a href=/>Home</a><p>The main article text is "
    b"long enough to be content here.</p>",
    b"<dl><dt role=contentinfo>term<dd>definition text<dt>next term</dl>",
    b"<section role=complementary><p>side</p></section><article><p>body "
    b"words here</p><figure><img src=f><figcaption>cap</figcaption>"
    b"</figure></article>",
    b"<main><nav>menu</nav><blockquote>quoted words<nav>x</nav> more "
    b"quoted words</blockquote><table><tr><td>a<nav>n</nav>b</td></tr>"
    b"</table></main>",
    b"<span class=dropcap>O</span><nav>x</nav>nce upon a time",
    b"<html><head><title>t</title><nav>in head</nav><p>body starts</p>",
]


@pytest.mark.parametrize("base", [
    {}, {"selector_tag": "main"}, {"selector_tag": "span"},
    {"mode": Mode.SINGLE_BLOCK}, {"char_blacklist": "aeiou"}])
def test_fast_path_matches_full_path_on_hand_built_pages(base):
    _assert_paths_agree([(h, "en", None) for h in _HAND_BUILT], base)


def test_fast_path_keeps_boilerplate_out_of_the_text():
    for h in _HAND_BUILT[:2]:
        r = extract_one(h, "en")
        assert "Home" not in r.text and "logo" not in r.text


# --- batch firewall --------------------------------------------------------

def test_one_bad_document_is_one_error_row():
    """A document the batch scorer cannot take (a lone surrogate from a
    UTF-7 page) becomes one error row; the rest of its batch is scored as
    if it were not there."""
    good = [b"<p>The first page has a paragraph of ordinary words.</p>",
            b"<main><p>Second page, with more words in it.</p><hr></main>"]
    bad = b'<meta charset="utf-7"><p>+2AA- broken text here</p>'
    pages = pa.table({
        "url": ["a", "b", "c"],
        "warc_ts": pa.array([0] * 3, pa.timestamp("us", tz="UTC")),
        "html": pa.array([good[0], bad, good[1]], pa.binary()),
        "lang": ["en"] * 3})
    out = HtmlExtractor()(pages).to_pylist()
    assert [r["error"] is not None for r in out] == [False, True, False]
    for row, h in zip([out[0], out[2]], good):
        alone = HtmlExtractor()(pages.filter(pa.array(
            [p == h for p in pages["html"].to_pylist()]))).to_pylist()[0]
        assert row == alone
    assert extract_one(bad, "en").error == out[1]["error"]


# --- one batch path for every payload kind ---------------------------------

_BAD_PAGE = b'<meta charset="utf-7"><p>+2AA- broken text here</p>'
_MIXED = [
    b"<main><h1>A heading</h1><p>The first page has a paragraph of "
    b"ordinary words, <a href=/x>a link</a> and <b>bold</b> text.</p>"
    b"<img src=a.png></main>",
    make_pdf([["A raw PDF page with the words", "of a second line"],
              ["and a second paragraph of it"]]),
    make_pdf([["A compressed PDF page, one paragraph"]], compress=True),
    b"A plain text page with some words.\n\nIts second paragraph here.",
    b"   \n ",
    b"\x00\x01\x02 binary junk",
    "<p>Une page en français, avec des mots à la fin.</p>".encode("latin-1"),
]
_MIXED_KINDS = ["html", "pdf", "pdf", "text", "empty", "error", "html"]


@pytest.mark.parametrize("with_bad", [False, True])
def test_mixed_kind_batch_matches_each_document_alone(with_bad):
    """Every payload kind goes through ``extract_batch`` together: each
    result, spans included, is what the document gives alone.  The UTF-7
    page breaks the batch scoring pass, so the rest of its batch is scored
    one document at a time: the same results again."""
    docs = _MIXED[:3] + [_BAD_PAGE] * with_bad + _MIXED[3:]
    langs = (["en", None, "fr"] * 3)[:len(docs)]
    got = extract_batch(docs, langs, [None] * len(docs), ExtractConfig())
    assert len(got) == len(docs)
    kinds = [r.payload_kind for r in got]
    assert kinds == _MIXED_KINDS[:3] + ["error"] * with_bad \
        + _MIXED_KINDS[3:]
    for r, payload, lang in zip(got, docs, langs):
        assert _fields(r) == _fields(extract_one(payload, lang)), payload
    assert got[-1].charset != "utf-8"


@pytest.mark.parametrize("mode", [Mode.AUTO, Mode.TEXT_ONLY])
def test_one_scoring_pass_per_stage_batch(monkeypatch, mode):
    """The stage scores the paragraphs of its whole batch in one
    ``score_documents`` call, whatever the payload kinds, also in
    TEXT_ONLY mode, where every document is plain text."""
    calls = []
    real = html_extract.score_documents

    def counting(docs):
        calls.append(len(docs))
        return real(docs)

    # the batch pass and assemble's per-document fallback alike
    monkeypatch.setattr(api, "score_documents", counting)
    monkeypatch.setattr(html_extract, "score_documents", counting)
    n = len(_MIXED)
    texts = [f"corpus text {i}\n\nof row {i}" for i in range(n - 1)] + [""]
    pages = pa.table({
        "url": [f"u{i}" for i in range(n)],
        "warc_ts": pa.array([0] * n, pa.timestamp("us", tz="UTC")),
        "html": pa.array(_MIXED, pa.binary()),
        "lang": ["en"] * n,
        "text": texts})
    out = HtmlExtractor(ExtractConfig(mode=mode))(pages)
    assert out.num_rows == n
    # one call over every document with paragraphs: the empty and NUL
    # rows have none, and in TEXT_ONLY only the empty corpus text
    assert calls == ([5] if mode == Mode.AUTO else [n - 1])
