"""Property-based invariants of the extractor core (hypothesis).

The byte-identity gate demands more than golden examples: for ARBITRARY
payloads the extractor must (a) never raise, (b) be deterministic, and
(c) emit spans that exactly index the final text.  These are the flattened
equivalents of the reference's cursor-contract tests
(/root/reference/tests/.../LayoutIteratorTests.java) stated as properties.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from org_dharts_dia_tesseract_ray.config import ExtractConfig
from org_dharts_dia_tesseract_ray.extract.api import extract_one

CFG = ExtractConfig()

# HTML-ish soup: text fragments, tags from the real vocabulary (balanced or
# not), entities, junk — html.parser must cope with all of it.
_tag = st.sampled_from(
    ["p", "div", "h1", "h2", "li", "ul", "table", "td", "tr", "nav",
     "footer", "article", "span", "a", "b", "pre", "blockquote", "figure",
     "figcaption", "br", "hr", "img", "script", "style"])
_chunk = st.one_of(
    st.text(min_size=1, max_size=40),
    _tag.map(lambda t: f"<{t}>"),
    _tag.map(lambda t: f"</{t}>"),
    st.sampled_from(["&amp;", "&lt;", "&#65;", "&bogus;", "<!--c-->",
                     "<a href='/x'>", "<![CDATA[z]]>", "<?pi?>", "<!DOCTYPE html>"]),
)
_soup = st.lists(_chunk, min_size=0, max_size=40).map("".join)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_soup)
def test_never_raises_and_deterministic(soup):
    payload = ("<html><body>" + soup + "</body></html>").encode("utf-8")
    r1 = extract_one(payload, "en", None, CFG)
    r2 = extract_one(payload, "en", None, CFG)
    assert r1.text == r2.text
    assert [(s.node_id, s.start, s.end) for s in r1.spans] == \
           [(s.node_id, s.start, s.end) for s in r2.spans]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_soup)
def test_span_invariants(soup):
    payload = ("<html><body>" + soup + "</body></html>").encode("utf-8")
    r = extract_one(payload, "en", None, CFG)
    n = len(r.text)
    by_id = {}
    for i, s in enumerate(r.spans):
        # dense ids in emission order; offsets within bounds and ordered
        assert s.node_id == i
        assert 0 <= s.start <= s.end <= n
        by_id[s.node_id] = s
        if s.parent_id != -1:
            p = by_id[s.parent_id]          # parents precede children
            assert p.start <= s.start and s.end <= p.end
        if s.level == "word" and s.start < s.end:
            # zero-length word spans are the non-text-block "single
            # imaginary word" convention (BasePageHandle.java:111-114)
            w = r.text[s.start:s.end]
            assert " " not in w and "\n" not in w
        if s.level == "line":
            assert "\n" not in r.text[s.start:s.end]


_MASK_TAGS = {"sub": 1, "sup": 2, "b": 4, "strong": 4, "i": 8, "em": 8,
              "u": 16, "ins": 16, "code": 32, "kbd": 32}
_PIECE_TEXT = st.text(alphabet="ab1 ", min_size=1, max_size=8)
_PIECE = st.one_of(
    _PIECE_TEXT.map(lambda t: (t, 0)),
    st.tuples(_PIECE_TEXT, st.sampled_from(sorted(_MASK_TAGS))).map(
        lambda x: (x[0], _MASK_TAGS[x[1]], x[1])),
    st.tuples(_PIECE_TEXT, st.sampled_from(sorted(_MASK_TAGS)),
              st.sampled_from(sorted(_MASK_TAGS))).map(
        lambda x: (x[0], _MASK_TAGS[x[1]] | _MASK_TAGS[x[2]], x[1], x[2])),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_PIECE, min_size=0, max_size=12))
def test_word_masks_match_per_char_oracle(pieces):
    """The run-based token-mask computation in end_line must agree with an
    independent per-CHARACTER oracle built from the ground-truth markup
    structure — including tokens glued across runs with different masks
    ('ab<b>cd</b>ef' → one token, bold) and nested tags."""
    import re

    html = []
    for p in pieces:
        t = p[0]
        for tag in p[2:]:
            html.append(f"<{tag}>")
        html.append(t)
        for tag in reversed(p[2:]):
            html.append(f"</{tag}>")
    payload = ("<html><body><p>" + "".join(html)
               + "</p></body></html>").encode("utf-8")
    r = extract_one(payload, "en", None, CFG)

    raw = "".join(p[0] for p in pieces)
    cmask: list = []
    for p in pieces:
        cmask.extend([p[1]] * len(p[0]))
    want = []
    for mt in re.finditer(r"\S+", raw):
        mm = 0
        for c in range(mt.start(), mt.end()):
            mm |= cmask[c]
        want.append((mt.group(), mm))

    got = [(r.text[s.start:s.end],
            (s.font_mask << 2) | (1 if s.is_subscript else 0)
            | (2 if s.is_superscript else 0))
           for s in r.spans if s.level == "word" and s.start < s.end]
    assert got == want


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(min_size=0, max_size=300))
def test_arbitrary_bytes_never_raise(payload):
    r = extract_one(payload, None, None, CFG)
    assert r.payload_kind in ("html", "text", "pdf", "empty", "error")
    assert isinstance(r.text, str)


def _refuse_fast(parser, text):
    """Stand-in for ``html_extract._feed_fast`` that sends every document
    down ``segment_html``'s own stdlib fallback."""
    from org_dharts_dia_tesseract_ray.extract.html_extract import (
        _StdlibFallback)
    raise _StdlibFallback


def test_fast_tokenizer_parity_with_stdlib(monkeypatch):
    """The regex tokenizer front-end must produce the IDENTICAL
    ExtractResult (text, spans, confidences) as the stdlib html.parser
    front-end — over every fixture page, truncation points, and a gauntlet
    of adversarial constructs (comments, CDATA, PIs, raw script/style
    content, tolerant attr grammar, unterminated constructs at EOF)."""
    import dataclasses

    import pyarrow.parquet as pq

    from org_dharts_dia_tesseract_ray.extract import html_extract

    def check(payload, lang=None, ctext=None):
        a = extract_one(payload, lang, ctext, CFG)
        with monkeypatch.context() as m:
            m.setattr(html_extract, "_feed_fast", _refuse_fast)
            b = extract_one(payload, lang, ctext, CFG)
        assert a.text == b.text, (payload[:80], a.text[:80], b.text[:80])
        assert a.n_blocks == b.n_blocks and a.doc_confidence == b.doc_confidence
        assert [dataclasses.astuple(s) for s in a.spans] == \
               [dataclasses.astuple(s) for s in b.spans], payload[:80]

    t = pq.read_table("/root/repo/fixtures/pages_tiny.parquet")
    for i in range(t.num_rows):
        check(t["html"][i].as_py(), t["lang"][i].as_py(), t["text"][i].as_py())
    # truncation sweep over a few small pages
    for i in range(6):
        h = t["html"][i].as_py() or b""
        if len(h) > 4000:
            continue
        for cut in range(0, len(h), 11):
            check(h[:cut], t["lang"][i].as_py())
    for c in [
        b"<p>a < b and c > d</p>",
        b"<p>x &amp; y &lt;3 &notarealentity; &amp y</p>",
        b"<p>unterminated <a href='x",
        b"<script>if(a<b){x='</div>'}</script><p>after</p>",
        b"<style>p>a{color:red}</style><p>styled</p>",
        b"<!-- <p>not text</p> --><p>real</p>",
        b"<![CDATA[<p>no</p>]]><p>yes</p>",
        b"<?php echo '<p>no</p>'; ?><p>pi</p>",
        b'<p title="a>b">gt in attr</p>',
        b"<a href=/>slash link</a><p>word text here</p>",
        b"<P>UPPER</P><DiV>mixed</dIv>",
        b"<option>a<option>b</select><p>after select</p>",
        b"<script>no close tag at eof",
        b"<p>text<!-- unclosed comment",
        b"<p>cdata trunc <![CDATA[ oops",
        b"<!-- x > y --><p>cmt gt</p>",
        b"< notatag <p>real text</p>",
        b"<p a=1 b='2' c=\"3\" d>attrs</p>",
        # tolerant attr grammar: unquoted values containing quotes must not
        # swallow document text (code-review regression)
        b"<p title=don't>first words here</p><p>it's more content words</p>",
        b"<p title=don't>real content paragraph words</p>",
        b'<p title="x>after unterminated quote</p>',
        # role detection must not fire on data-role or quoted-value text
        b'<div data-role="navigation">real content paragraph here</div>',
        b'<div title="see role=navigation here">real content words</div>',
        b'<div role=navigation>boiler words</div><p>content words here</p>',
        b"<div rOlE='banner'>b</div><p>mixed case role content</p>",
    ]:
        check(c, "en")


def test_fast_tokenizer_fuzz_parity(monkeypatch):
    """Deterministic tag-soup fuzz: 1500 random fragment compositions must
    produce identical ExtractResults on both front-ends (a failing doc is
    printed for repro).  The full 3×8000-trial sweep ran clean during
    development; this bounded version guards regressions."""
    import dataclasses
    import random

    from org_dharts_dia_tesseract_ray.extract import html_extract

    def fast(text):
        return html_extract.assemble(html_extract.segment_html(text, CFG),
                                     "en", CFG)

    def slow(text):
        with monkeypatch.context() as m:
            m.setattr(html_extract, "_feed_fast", _refuse_fast)
            return fast(text)

    frags = ["<p>", "</p>", "<div>", "</div>", "<a href='x'>", "<a href=/>",
             "</a>", "<br>", "<hr>", "<img src=x>", "word", "two words",
             "&amp;", "&", "<", ">", "<!--", "-->", "<!-- c -->", "<script>",
             "</script>", "<style>", "</style>", "x<sub>1</sub>", "<sup>",
             "</sup>", "<span>", "</span>", "<nav>", "</nav>", "<b role=nav>",
             "<div role='navigation'>", "'", '"', "=", "/", "\n", " ",
             "<table>", "</table>", "<td>", "</td>", "<p title=a'b>",
             '<p x="y>z">', "<![CDATA[", "]]>", "<?pi?>", "<!doctype html>",
             "\t", "text &lt; more", "<h1>", "</h1>", "<li>", "<ul>", "</ul>",
             "<pre>", "</pre>", "<option>", "<head>", "</head>", "<main>",
             "</main>", "é", "<P>", "</P>", "</&amp;>", "</>", "</ p>",
             '<p title="x>', "&#65;", "&#x42;", "&quot;", "O", "Xy",
             "<x='y>", "<x ='y>", "<p foo=\"a\"bar='c>d'>",
             "<p =\">junk\">", "<!>", "<q z='a>b'>",
             # font-attribute tags (round-4 word-mask branch): unbalanced
             # and nested forms must stay front-end-identical too
             "<b>", "</b>", "<i>", "</i>", "<em>", "</em>", "<code>",
             "</code>", "<u>", "</u>", "<strong>bold", "<b><i>bi</i></b>"]
    rng = random.Random(424242)
    for _ in range(1500):
        doc = "".join(rng.choice(frags) for _ in range(rng.randint(1, 28)))
        a = fast(doc)
        b = slow(doc)
        assert a.text == b.text, repr(doc)
        assert [dataclasses.astuple(s) for s in a.spans] == \
               [dataclasses.astuple(s) for s in b.spans], repr(doc)


# ---------------------------------------------------------------------------
# exact-substring dedup kernel vs brute force (functions/substrdedup)

_WORDS = ["aa", "bb", "cc", "dd", "ee"]   # tiny alphabet forces duplicates


@st.composite
def _corpus(draw):
    n_docs = draw(st.integers(2, 6))
    return [" ".join(draw(st.lists(st.sampled_from(_WORDS),
                                   min_size=0, max_size=30)))
            for _ in range(n_docs)]


@given(_corpus(), st.integers(2, 5))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_substr_marking_matches_brute(texts, w):
    """Rolling-hash marking == brute-force gram-tuple marking: validates
    the gram hash (collision-free), window/position arithmetic and the
    island merge against an independent pure-Python reference."""
    import re

    import numpy as np
    import pyarrow as pa

    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        _gram_hashes, _token_runs)

    # brute reference (DuckDB tokenization convention: trim + \s+ split,
    # whitespace-only text yields one "" token)
    toks = [re.split(r"\s+", t.strip()) for t in texts]
    gram_docs: dict = {}
    for d, tt in enumerate(toks):
        for i in range(len(tt) - w + 1):
            gram_docs.setdefault(tuple(tt[i:i + w]), set()).add(d)
    dup_grams = {g for g, ds_ in gram_docs.items() if len(ds_) > 1}
    want = sorted(
        (d, i) for d, tt in enumerate(toks)
        for i in range(len(tt) - w + 1) if tuple(tt[i:i + w]) in dup_grams)

    batch = pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    g, rows, p = _gram_hashes(*_token_runs(batch, "text"), w)
    docs_of: dict = {}
    for gv, r in zip(g.tolist(), rows.tolist()):
        docs_of.setdefault(gv, set()).add(r)
    dup = {gv for gv, s in docs_of.items() if len(s) > 1}
    got = sorted((int(r), int(pos)) for gv, r, pos in
                 zip(g.tolist(), rows.tolist(), p.tolist()) if gv in dup)
    assert got == want


@given(st.integers(0, 2**31), st.integers(1, 80), st.integers(1, 60),
       st.integers(1, 6), st.sampled_from(["image", "audio", "video"]))
@settings(max_examples=40, deadline=None)
def test_synm_codec_roundtrip_property(item_id, w, h, nf, kind):
    """encode→decode recovers the exact rasters for arbitrary dims/frames;
    seek_frame agrees with the full decode on every frame."""
    import numpy as np

    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        _frame_pixels, decode_media, encode_media, seek_frame)
    payload = encode_media(item_id, kind, w, h, nf, seed=7)
    res = decode_media(payload)
    assert res is not None
    (dw, dh, dnf), frames, _crc = res
    assert (dw, dh, dnf) == (w, h, nf)
    for f in range(nf):
        want = _frame_pixels(item_id, 7, f, w, h)
        assert np.array_equal(frames[f], want)
        assert np.array_equal(seek_frame(payload, f), want)


# ---------------------------------------------------------------------------
# as-of join vs brute force (functions/joins.asof_join)

@st.composite
def _asof_case(draw):
    keys = [0, 1, 2]
    n_l = draw(st.integers(1, 15))
    n_r = draw(st.integers(0, 15))
    lk = draw(st.lists(st.sampled_from(keys), min_size=n_l, max_size=n_l))
    lt = draw(st.lists(st.integers(0, 20), min_size=n_l, max_size=n_l))
    rk = draw(st.lists(st.sampled_from(keys), min_size=n_r, max_size=n_r))
    rt = draw(st.lists(st.integers(0, 20), min_size=n_r, max_size=n_r))
    rv = draw(st.lists(st.integers(-50, 50), min_size=n_r, max_size=n_r))
    return lk, lt, rk, rt, rv


@given(_asof_case(), st.sampled_from(["backward", "forward"]))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_asof_join_matches_brute(ray_session, case, direction):
    """Property: asof_join == O(n·m) brute force under the documented
    contract (at-or-before/after per key, ties on right ts resolve to the
    MAX value, null when no right row qualifies) — random keys, duplicate
    timestamps, empty right sides."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.joins import asof_join
    lk, lt, rk, rt, rv = case
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(lk, pa.int64()), "lts": pa.array(lt, pa.int64()),
        "row": pa.array(list(range(len(lk))), pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(rk, pa.int64()), "rts": pa.array(rt, pa.int64()),
        "v": pa.array(rv, pa.float64())}))
    out = (asof_join(left, right, key="k", left_ts="lts", right_ts="rts",
                     value_col="v", direction=direction, num_partitions=3)
           .to_pandas().sort_values("row").reset_index(drop=True))

    want = []
    for i in range(len(lk)):
        cand = [rv[j] for j in range(len(rk))
                if rk[j] == lk[i] and (rt[j] <= lt[i] if direction ==
                                       "backward" else rt[j] >= lt[i])]
        if not cand:
            want.append(None)
        else:
            best_ts = (max if direction == "backward" else min)(
                rt[j] for j in range(len(rk))
                if rk[j] == lk[i] and (rt[j] <= lt[i] if direction ==
                                       "backward" else rt[j] >= lt[i]))
            want.append(float(max(rv[j] for j in range(len(rk))
                                  if rk[j] == lk[i] and rt[j] == best_ts)))
    got = [None if x != x else float(x) for x in out["asof_v"].tolist()]
    assert got == want


@st.composite
def _session_case(draw):
    n = draw(st.integers(1, 25))
    users = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n,
                          max_size=n))
    minutes = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    return users, minutes


@given(_session_case(), st.integers(1, 10))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_sessionize_matches_brute(ray_session, case, gap_minutes):
    """Property: gap-based sessionization == per-user brute force (sorted
    by (ts, id); boundary when gap > gap_minutes; 1-based numbering),
    including duplicate timestamps across and within users."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.windows import (US_PER_MIN,
                                                                sessionize)
    users, minutes = case
    n = len(users)
    ts_us = [m * US_PER_MIN for m in minutes]
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array(users, pa.int64()),
        "event_id": pa.array(list(range(n)), pa.int64()),
        "ts": pa.array(ts_us, pa.timestamp("us")),
    }))
    out = (sessionize(ds, gap_minutes=gap_minutes, num_partitions=3)
           .to_pandas().sort_values(["user_id", "session_no"])
           .reset_index(drop=True))

    gap_us = gap_minutes * US_PER_MIN
    want = []
    for u in sorted(set(users)):
        evs = sorted((ts_us[i], i) for i in range(n) if users[i] == u)
        sess = []
        for t, i in evs:
            if not sess or t - sess[-1][-1][0] > gap_us:
                sess.append([(t, i)])
            else:
                sess[-1].append((t, i))
        for no, s in enumerate(sess, 1):
            want.append((u, no, len(s), s[0][0], s[-1][0]))
    got = [(int(r.user_id), int(r.session_no), int(r.n_events),
            int(r.session_start.value) // 1000,     # pandas .value is ns
            int(r.session_end.value) // 1000)
           for r in out.itertuples()]
    assert got == want


# ---------------------------------------------------------------------------
# running total per key vs brute force (functions/stats.running_total_per_key)

@st.composite
def _running_case(draw):
    n = draw(st.integers(1, 25))
    keys = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    order = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    vals = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return keys, order, vals


@given(_running_case())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_running_total_matches_brute(ray_session, case):
    """Property: running_total_per_key == per-key brute force (sorted by
    (order, id), cumulative sum), including duplicate order values within
    a key (tie-broken by id) and negative values."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import (
        running_total_per_key)
    keys, order, vals = case
    n = len(keys)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "o": pa.array(order, pa.int64()),
        "i": pa.array(list(range(n)), pa.int64()),
        "v": pa.array(vals, pa.int64()),
    }))
    out = (running_total_per_key(ds, key="k", order_col="o", id_col="i",
                                 value_col="v", out_col="rt",
                                 num_partitions=3)
           .to_pandas().sort_values("i").reset_index(drop=True))

    want = {}
    for k in set(keys):
        acc = 0
        for o, i in sorted((order[i], i) for i in range(n) if keys[i] == k):
            acc += vals[i]
            want[i] = acc
    assert len(out) == n
    got = {int(r.i): int(r.rt) for r in out.itertuples()}
    assert got == want


# ---------------------------------------------------------------------------
# percent rank per key vs brute force (functions/stats.percent_rank_per_key)

@st.composite
def _prank_case(draw):
    n = draw(st.integers(1, 25))
    keys = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    vals = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return keys, vals


@given(_prank_case())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_percent_rank_matches_brute(ray_session, case):
    """Property: percent_rank_per_key == SQL-standard (rank-1)/(n-1) with
    min-rank ties and 0.0 singletons — heavy ties by construction."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import (
        percent_rank_per_key)
    keys, vals = case
    n = len(keys)
    ds = ray.data.from_arrow(pa.table({
        "i": pa.array(list(range(n)), pa.int64()),
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(vals, pa.int64()),
    }))
    out = (percent_rank_per_key(ds, key="k", value_col="v", id_col="i",
                                num_partitions=3)
           .to_pandas().sort_values("i").reset_index(drop=True))

    want = {}
    for k in set(keys):
        grp = sorted((vals[i], i) for i in range(n) if keys[i] == k)
        m = len(grp)
        for pos, (v, i) in enumerate(grp):
            rank0 = next(p for p, (v2, _) in enumerate(grp) if v2 == v)
            want[i] = rank0 / (m - 1) if m > 1 else 0.0
    assert len(out) == n
    got = {int(r.i): float(r.pr) for r in out.itertuples()}
    assert got == want


# ---------------------------------------------------------------------------
# sliding-window chunking vs brute force (functions/chunking)

@st.composite
def _chunk_case(draw):
    n_docs = draw(st.integers(1, 8))
    texts = draw(st.lists(
        st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                 min_size=0, max_size=30).map(" ".join),
        min_size=n_docs, max_size=n_docs))
    window = draw(st.integers(1, 8))
    stride = draw(st.integers(1, 8))
    return texts, window, min(stride, window)


@given(_chunk_case())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_chunk_documents_matches_brute(ray_session, case):
    """Property: chunk_documents == per-doc brute force (windows at
    0, s, 2s, …, stop at first window reaching the end; last may be
    short), and stride-sized prefixes of consecutive chunks reconstruct
    the document."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.chunking import (
        chunk_documents)
    texts, w, s = case
    n = len(texts)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    # rows, not a DataFrame: a corpus of empty documents yields no chunks
    got = sorted(tuple(r.values()) for r in
                 chunk_documents(ds, window=w, stride=s).take_all())

    want = []
    for i, txt in enumerate(texts):
        toks = txt.split()
        if not toks:
            continue             # a document without tokens has no chunks
        start = 0
        cid = 0
        while True:
            end = min(start + w, len(toks))
            want.append((i, cid, start, end, " ".join(toks[start:end])))
            if end == len(toks):
                break
            start += s
            cid += 1
    assert got == want


# ---------------------------------------------------------------------------
# lag delta per key vs brute force (functions/stats.lag_delta_per_key)

@given(_running_case())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_lag_delta_matches_brute(ray_session, case):
    """Property: lag_delta_per_key == per-key brute force (sorted by
    (order, id); first row per key null), with duplicate order values."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import (
        lag_delta_per_key)
    keys, order, _ = case
    n = len(keys)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "o": pa.array(order, pa.int64()),
        "i": pa.array(list(range(n)), pa.int64()),
    }))
    out = (lag_delta_per_key(ds, key="k", order_col="o", id_col="i",
                             out_col="d", num_partitions=3)
           .to_pandas().sort_values("i").reset_index(drop=True))

    want = {}
    for k in set(keys):
        prev = None
        for o, i in sorted((order[i], i) for i in range(n) if keys[i] == k):
            want[i] = None if prev is None else o - prev
            prev = o
    assert len(out) == n
    got = {int(r.i): (None if r.d != r.d else int(r.d))
           for r in out.itertuples()}
    assert got == want


# ---------------------------------------------------------------------------
# ordered concat per key vs brute force (functions/stats.ordered_concat)

@given(_running_case())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_ordered_concat_matches_brute(ray_session, case):
    """Property: ordered_concat_per_key == per-key brute force string_agg
    (sorted by (order, id)), including duplicate order values."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import (
        ordered_concat_per_key)
    keys, order, vals = case
    n = len(keys)
    labels = [f"v{abs(v)}" for v in vals]
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "o": pa.array(order, pa.int64()),
        "i": pa.array(list(range(n)), pa.int64()),
        "s": pa.array(labels, pa.string()),
    }))
    out = (ordered_concat_per_key(ds, key="k", order_col="o", id_col="i",
                                  value_col="s", num_partitions=3)
           .to_pandas().sort_values("k").reset_index(drop=True))

    want = {}
    for k in set(keys):
        seq = [labels[i] for _, i in
               sorted((order[i], i) for i in range(n) if keys[i] == k)]
        want[k] = (len(seq), ">".join(seq))
    got = {int(r.k): (int(r.n_items), r.path) for r in out.itertuples()}
    assert got == want


# ---------------------------------------------------------------------------
# distinct count per key vs brute force (functions/stats.distinct_count)

@st.composite
def _distinct_case(draw):
    n = draw(st.integers(1, 30))
    keys = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    vals = draw(st.lists(st.one_of(st.none(), st.integers(0, 5)),
                         min_size=n, max_size=n))
    return keys, vals


@given(_distinct_case())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_distinct_count_matches_brute(ray_session, case):
    """Property: distinct_count_per_key == COUNT(DISTINCT v) semantics —
    NULL values ignored, but all-null keys still emit a 0-count group."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import (
        distinct_count_per_key)
    keys, vals = case
    n = len(keys)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(vals, pa.int64()),
    }))
    out = (distinct_count_per_key(ds, key="k", value_col="v",
                                  num_partitions=3)
           .to_pandas().sort_values("k").reset_index(drop=True))

    want = {k: len({vals[i] for i in range(n)
                    if keys[i] == k and vals[i] is not None})
            for k in set(keys)}
    got = {int(r.k): int(r.n_distinct) for r in out.itertuples()}
    assert got == want


# ---------------------------------------------------------------------------
# null partition keys through the window operators (SQL groups nulls as one)

@given(st.lists(st.one_of(st.none(), st.integers(0, 2)),
                min_size=1, max_size=20),
       st.lists(st.integers(0, 8), min_size=20, max_size=20),
       st.lists(st.integers(-9, 9), min_size=20, max_size=20))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_window_ops_null_keys(ray_session, keys, order, vals):
    """Null partition keys form ONE group (SQL PARTITION BY semantics) in
    running_total_per_key and ordered_concat_per_key — the null-run
    contract of key_change_mask end-to-end."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import (
        ordered_concat_per_key, running_total_per_key)
    n = len(keys)
    order, vals = order[:n], vals[:n]
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "o": pa.array(order, pa.int64()),
        "i": pa.array(list(range(n)), pa.int64()),
        "v": pa.array(vals, pa.int64()),
        "s": pa.array([f"t{abs(v)}" for v in vals], pa.string()),
    }))
    rt = (running_total_per_key(ds, key="k", order_col="o", id_col="i",
                                value_col="v", out_col="rt",
                                num_partitions=3)
          .to_pandas().sort_values("i").reset_index(drop=True))
    want_rt = {}
    for k in set(keys):
        acc = 0
        for o, i in sorted((order[i], i) for i in range(n)
                           if keys[i] == k):
            acc += vals[i]
            want_rt[i] = acc
    assert {int(r.i): int(r.rt) for r in rt.itertuples()} == want_rt

    oc = ordered_concat_per_key(ds, key="k", order_col="o", id_col="i",
                                value_col="s",
                                num_partitions=3).to_pandas()
    want_oc = {}
    for k in set(keys):
        seq = [f"t{abs(vals[i])}" for _, i in
               sorted((order[i], i) for i in range(n) if keys[i] == k)]
        want_oc[k] = ">".join(seq)
    got_oc = {(None if r.k != r.k else int(r.k)): r.path
              for r in oc.itertuples()}
    assert got_oc == want_oc


# ---------------------------------------------------------------------------
# ntile per key vs brute force (functions/stats.ntile_per_key)

@given(_prank_case(), st.integers(1, 6))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_ntile_matches_brute(ray_session, case, k):
    """Property: ntile_per_key == SQL NTILE (first n%k buckets one larger,
    1-based), under ties and groups smaller than k."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import ntile_per_key
    keys, vals = case
    n = len(keys)
    ds = ray.data.from_arrow(pa.table({
        "i": pa.array(list(range(n)), pa.int64()),
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(vals, pa.int64()),
    }))
    out = (ntile_per_key(ds, key="k", value_col="v", id_col="i",
                         n_tiles=k, num_partitions=3)
           .to_pandas().sort_values("i").reset_index(drop=True))

    want = {}
    for g in set(keys):
        grp = sorted((vals[i], i) for i in range(n) if keys[i] == g)
        m = len(grp)
        base, rem = divmod(m, k)
        for pos, (_, i) in enumerate(grp):
            if pos < rem * (base + 1):
                want[i] = pos // (base + 1) + 1
            else:
                want[i] = rem + (pos - rem * (base + 1)) // base + 1
    got = {int(r.i): int(r.tile) for r in out.itertuples()}
    assert got == want


# ---------------------------------------------------------------------------
# throttle vs brute force (functions/windows.throttle)

@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                          st.integers(0, 300)), min_size=1, max_size=25),
       st.integers(1, 4))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_throttle_matches_brute(ray_session, rows, gap_min):
    """Property: throttle == LAG-based brute force (keep first of the
    composite key or gap > min_gap from the PREVIOUS row), duplicate
    timestamps tie-broken by id."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.windows import (US_PER_MIN,
                                                                throttle)
    n = len(rows)
    us = [m * US_PER_MIN // 2 for _, _, m in rows]   # half-minute grid
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([u for u, _, _ in rows], pa.int64()),
        "event_type": pa.array([f"t{e}" for _, e, _ in rows], pa.string()),
        "ts": pa.array(us, pa.timestamp("us")),
        "event_id": pa.array(list(range(n)), pa.int64()),
    }))
    out = (throttle(ds, min_gap_minutes=gap_min, num_partitions=3)
           .to_pandas())
    got = sorted(int(r.event_id) for r in out.itertuples())

    gap_us = gap_min * US_PER_MIN
    want = []
    for u, e in {(u, e) for u, e, _ in rows}:
        seq = sorted((us[i], i) for i in range(n)
                     if rows[i][0] == u and rows[i][1] == e)
        prev = None
        for t, i in seq:
            if prev is None or t - prev > gap_us:
                want.append(i)
            prev = t
    assert got == sorted(want)


# ---------------------------------------------------------------------------
# transition counts vs brute force (functions/windows.transition_counts)

@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 50)), min_size=1, max_size=25))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_transition_counts_matches_brute(ray_session, rows):
    """Property: transition_counts == LEAD-window brute force (pairs only
    within a key's stream, (ts, id) order), with duplicate timestamps."""
    import pyarrow as pa
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.windows import (
        transition_counts)
    n = len(rows)
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([u for u, _, _ in rows], pa.int64()),
        "event_type": pa.array([f"t{e}" for _, e, _ in rows], pa.string()),
        "ts": pa.array([m * 1000 for _, _, m in rows], pa.timestamp("us")),
        "event_id": pa.array(list(range(n)), pa.int64()),
    }))
    out = transition_counts(ds, num_partitions=3).to_pandas()
    got = {(r.from_type, r.to_type): int(r.n) for r in out.itertuples()}

    want: dict = {}
    for u in {u for u, _, _ in rows}:
        seq = [f"t{rows[i][1]}" for _, i in
               sorted((rows[i][2] * 1000, i) for i in range(n)
                      if rows[i][0] == u)]
        for a, b in zip(seq, seq[1:]):
            want[(a, b)] = want.get((a, b), 0) + 1
    assert got == want


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.text(
    alphabet=st.sampled_from('abc/:."<> h=ref'), max_size=40), max_size=6))
def test_extract_links_matches_re_reference(frags):
    """The two-split link plan == RE2 href="([^"]*)" on arbitrary
    html-ish byte soup, including hostile quote/attribute fragments —
    href values, document-order rank, and source attribution all match a
    Python-re reference, EXCEPT the documented malformed shape (an
    unterminated value followed by another href=\" — the operator starts
    a fresh match there by design, so such inputs are skipped)."""
    import re

    import pyarrow as pa

    from org_dharts_dia_tesseract_ray.functions.links import (
        extract_links_batch)

    html = 'href="'.join(frags)
    # skip the documented divergence: an opener whose unclosed value
    # region contains another opener (possible only on malformed html —
    # the regex swallows the second attribute into the first value, the
    # operator starts a fresh match at it)
    if re.search(r'href="[^"]*href="', html):
        return
    t = pa.table({"url": pa.array(["http://s.example/p"], pa.string()),
                  "html": pa.array([html.encode()], pa.binary())})
    got = [(r["pos"], r["href"])
           for r in extract_links_batch(t).to_pylist()]
    want = list(enumerate(re.findall(r'href="([^"]*)"', html)))
    assert got == want
