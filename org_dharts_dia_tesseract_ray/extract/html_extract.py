"""Deterministic DOM block segmentation + main-content extraction.

This module is the engine's core transform — the analogue of the reference's
layout-analysis + recognition pass (``ImageAnalyzer.analyzeLayout()`` /
``recognize()``, src/org/dharts/dia/tesseract/ImageAnalyzer.java:64-99 backed
by ``TessBaseAPIAnalyseLayout`` / ``TessBaseAPIGetIterator``,
TesseractHandle.java:534-567).  Tesseract's page segmentation over pixels
becomes DOM segmentation over markup:

* page → BLOCK → PARA → TEXTLINE → WORD hierarchy (LayoutIterator.Level,
  LayoutIterator.java:97-117) is reproduced as block/para/line/word span rows
  with character offsets into the extracted text;
* ``PolyBlockType`` typing (PublicTypes.java:125-193) becomes DOM-derived
  block types (heading_text, flowing_text, table, caption_text, ...);
* boilerplate (nav/header/footer/aside, link farms) is classified NOISE via
  text-density + link-density heuristics (Arabica/readability lineage) and
  excluded from the extracted text;
* adjacent compatible content paragraphs are merged into blocks — the
  connected-region merging mirroring LayoutHandle/BlockIterator
  (examples/.../BlockIterator.java:57-81);
* reading order is document order; non-text blocks (images, rules) appear as
  zero-length spans carrying "a single paragraph with a single line with a
  single imaginary word" exactly as the reference models them
  (BasePageHandle.java:111-114).

Parsing is pure Python + stdlib (html.parser); paragraph confidences are
scored a batch of documents at a time with Arrow and numpy kernels
(:func:`score_documents`).  Nothing depends on randomness or the
environment: the correctness gate is byte-identical output per url across
reruns, machines, parallelism levels and batch boundaries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import BlockRuleContext, ExtractConfig, Mode
from .types import (
    BlockType, ExtractResult, Level, PayloadKind, Segmented, Span)

# ---------------------------------------------------------------------------
# tag vocabularies

# content inside these is dropped entirely (metadata / code, never content)
_SKIP_TAGS = frozenset({
    "script", "style", "noscript", "template", "svg", "head", "iframe",
    "object", "embed", "canvas", "select", "option", "datalist", "title",
})

# structural boilerplate containers → everything inside is NOISE
_BOILER_TAGS = frozenset({"nav", "header", "footer", "aside"})
_BOILER_ROLES = frozenset({"navigation", "banner", "contentinfo", "complementary"})

# opening/closing one of these terminates the current paragraph
_FLUSH_TAGS = frozenset({
    "p", "h1", "h2", "h3", "h4", "h5", "h6", "li", "pre", "blockquote",
    "figcaption", "caption", "td", "th", "tr", "table", "thead", "tbody",
    "tfoot", "ul", "ol", "dl", "dt", "dd", "div", "article", "section",
    "main", "body", "html", "figure", "form", "fieldset", "address",
    "details", "summary", "nav", "header", "footer", "aside",
})

#: the merge group a paragraph opening at one of these tags takes (while
#: the tag is open); any other tag gives the innermost container group
_OPEN_GROUP = {**{f"h{i}": ("heading", i) for i in range(1, 7)},
               "figcaption": ("caption",), "caption": ("caption",)}
_FLOW = ("flow",)

#: container tags that open a merge group, and its kind
_GROUP_KINDS = {"table": "table", "ul": "list", "ol": "list", "dl": "list",
                "blockquote": "bq", "figure": "figure"}

#: HTML's implied end tags, for role containers on tags whose end tag a
#: page may omit: opening the key tag directly inside such a container
#: (the container is the innermost group) closes it
_IMPLIED_END = {
    "p": frozenset({("boilerctr", "p")}),
    "li": frozenset({("boilerctr", "li")}),
    "dt": frozenset({("boilerctr", "dt"), ("boilerctr", "dd")}),
    "dd": frozenset({("boilerctr", "dt"), ("boilerctr", "dd")}),
}

#: paragraph items without text: a line break and an element boundary
_BR = ("br",)
_TB = ("tb",)

#: sectioning roots: opening/closing one implies any still-open inline
#: anchor (or <sub>/<sup>) is closed.  Deliberately NOT every block tag:
#: HTML5 anchors legally contain flow content (<a><div>card</div></a>,
#: <a><h3>title</h3><p>desc</p></a>), so resetting the link counter at
#: every paragraph boundary under-counted link text on block-anchor link
#: farms and let boilerplate leak into the extracted text.
_ANCHOR_RESET_TAGS = frozenset({
    "article", "section", "main", "body", "html", "nav", "header",
    "footer", "aside",
})

# whitespace is Unicode whitespace (NBSP etc.) throughout: ``str.split()``
# and ``\s`` agree on it, so ``" ".join(s.split())`` is the collapse of
# every run to one space, ends stripped
_NONWS_RE = re.compile(r"\S+")

#: inline font-attribute tags → word-mask bits (FontAttributes.java:28-59
#: analogue; bits 2..5 of the word mask, above 1=sub / 2=sup).  The mask is
#: maintained incrementally (_upd_mask) so handle_data stays one attribute
#: read; ``<pre>`` contributes the monospace bit via the same update hook.
_FONT_BITS = {
    "b": 4, "strong": 4,
    "i": 8, "em": 8,
    "u": 16, "ins": 16,
    "code": 32, "tt": 32, "kbd": 32, "samp": 32,
}

#: skip tags that never nest in themselves — a second opening implies the
#: first closed (browsers auto-close; an unclosed <option> must not poison
#: the skip state and silently swallow the rest of the document)
_NON_NESTING_SKIP = frozenset({"option", "head", "title", "select"})

# ---------------------------------------------------------------------------
# stopword tables (built-in, tiny) — used by the confidence score's
# dictionary-hit-rate feature, the TessBaseAPIIsValidWord analogue
# (TessAPI.java:566): per-token "is this a plausible dictionary word".

_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("""a an and are as at be by for from has have he her his i in is it its
        not of on or she that the their they this to was we were will with you""".split()),
    "de": frozenset("""aber auch auf aus bei bin bis das dass dem den der des die du ein
        eine einem einen einer es für hat ich im in ist mit nicht sie sind und von war wie
        wird zu""".split()),
    "fr": frozenset("""au aux avec ce ces dans de des du elle en est et il ils je la le les
        mais ne pas pour qui que se ses son sur un une vous""".split()),
    "es": frozenset("""al como con de del el en es esta la las lo los más no para por que
        se sin son su sus un una y ya""".split()),
    "ar": frozenset("""في من على إلى عن أن هذا هذه التي الذي كان كانت هو هي مع لا ما قد و
        أو ثم بين كل عند لم""".split()),
}
_STOP_KEYS = sorted(_STOPWORDS)
_STOP_CODE = {k: i for i, k in enumerate(_STOP_KEYS)}
# every table's words as one lookup set, and which table holds each word;
# the last column (all False) is where a word outside the set (index -1)
# looks
_STOP_VOCAB = sorted(set().union(*_STOPWORDS.values()))
_IN_TABLE = np.array([[w in _STOPWORDS[k] for w in _STOP_VOCAB] + [False]
                      for k in _STOP_KEYS])
_VOCAB_ARRAY = pa.array(_STOP_VOCAB, pa.string())

#: punctuation stripped from both ends of a word before its dictionary
#: lookup
DICT_PUNCT = ".,;:!?\"'()[]«»"


def stop_code(lang: str | None) -> int:
    """Index of ``lang``'s stopword table; English for an unknown lang."""
    return _STOP_CODE.get((lang or "en")[:2].lower(), _STOP_CODE["en"])


def dictionary_words(lowered: pa.Array,
                     codes: np.ndarray) -> tuple[pa.Array, np.ndarray]:
    """The dictionary-hit test of each word, shared by the confidence
    score and the word predicates: ``(normalized words, is a stopword of
    its language)``.

    ``lowered`` holds the words already lower-cased by Python's
    ``str.lower``: Arrow's ``utf8_lower`` maps ``İN`` to ``in`` (a hit)
    where Python gives ``i̇n``.  ``codes`` holds each word's
    :func:`stop_code`.  Normalization strips :data:`DICT_PUNCT` from both
    ends."""
    norm = pc.utf8_trim(lowered, DICT_PUNCT)
    word = pc.fill_null(pc.index_in(norm, value_set=_VOCAB_ARRAY),
                        -1).to_numpy()
    return norm, _IN_TABLE[codes, word]


# ---------------------------------------------------------------------------
# parse stage: HTML → flat paragraph list


@dataclass
class _Para:
    """One pre-block paragraph: the smallest text-bearing unit the parser
    emits, later merged into blocks (connected-region merging)."""

    group: tuple           # merge key: ("flow",) ("list",i) ("table",i) ("bq",i)
                           # ("heading",lvl) ("caption",) ("image",kind) ("hline",)
    lines: list[str] = field(default_factory=list)
    chars: int = 0         # normalized char count (pre-join)
    link_chars: int = 0    # normalized chars inside <a>
    inline_tags: int = 0   # inline tags opened while para open (density input)
    in_selector: bool = True
    # per-word bitmasks (1=sub, 2=sup, 4..32 = _FONT_BITS font
    # attributes) of all ``lines`` in word order; None when the paragraph
    # contains no masked content (the common fast path)
    word_masks: list[int] | None = None
    # classic dropcap markup detected: the paragraph's first text node is a
    # single uppercase letter split out of its word by an inline element
    # (<span class="dropcap">O</span>nce …)
    dropcap_first: bool = False

    @property
    def is_text(self) -> bool:
        return self.group[0] not in ("image", "hline")


class _SegmentingParser(HTMLParser):
    """Single-pass DOM walker producing the flat paragraph stream.

    Plays the role of Tesseract's textord/page-segmentation pass; one instance
    per document, reset per document (the extract stage reuses nothing
    across documents — the deliberate opposite of the reference's adaptive
    classifier, TessAPI.java:536, which we do NOT replicate because
    cross-document mutable state breaks determinism).

    With ``drop_boiler`` the text inside a boilerplate container is dropped
    as it arrives instead of becoming a ``("boiler", ...)`` paragraph.  The
    caller sets it when every such paragraph would be classified NOISE and
    dropped anyway (no block rules, not SINGLE_BLOCK): a noise paragraph
    never breaks a merge run, so the blocks come out the same.  Only text
    is dropped; every tag still updates the state that outlives the
    container (link, font, sub/sup, pre, skip, groups, role containers).
    """

    def __init__(self, selector_tag: str | None = None,
                 drop_boiler: bool = False):
        super().__init__(convert_charrefs=True)
        self.selector_tag = selector_tag
        self._drop_boiler = drop_boiler
        self.paras: list[_Para] = []
        # open-paragraph state
        self._items: list[tuple] = []   # ("txt", s, in_link, mask) | ("br",) | ("tb",)
        self._masked = False            # some "txt" item has a nonzero mask
        self._inline_tags = 0
        self._sub = 0
        self._sup = 0
        # per-bit open-tag depths for the font-attribute bits (keyed by the
        # _FONT_BITS bit value) and the current combined word mask
        self._font = {4: 0, 8: 0, 16: 0, 32: 0}
        self._mask = 0
        # nesting state: skip tracked as a STACK of open skip tags so that
        # malformed nesting (unclosed <option>, omitted </head>) can apply
        # implied-close rules instead of poisoning a counter forever;
        # ``_skip`` is its depth, read on every event
        self._skip_stack: list[str] = []
        self._skip = 0
        self._boiler = 0
        # boilerplate containers opened by a role attribute on an ordinary
        # tag: [tag, open same-name descendants]; each ends at its own
        # matching end tag, or (p/li/dt/dd) where HTML implies that end
        self._role_ctrs: list[list] = []
        self._link = 0
        self._pre = 0
        self._selector = 0 if selector_tag else 1   # >0 ⇒ inside ROI
        # group-instance state
        self._counter = 0
        self._group_stack: list[tuple] = []  # innermost-last container groups
        # context of the open paragraph, consulted at flush time: its merge
        # group, whether it is boilerplate, whether it is inside the ROI
        self._og: tuple | None = None
        self._ob = False
        self._os = True

    # -- group helpers ------------------------------------------------------

    def _fresh_id(self) -> int:
        self._counter += 1
        return self._counter

    # -- paragraph buffer ---------------------------------------------------

    def _flush(self) -> None:
        # NOTE: an open <a> deliberately SURVIVES the paragraph boundary —
        # HTML5 anchors may contain flow content (<a><div>card</div></a>),
        # so only a new <a> or a sectioning root (_ANCHOR_RESET_TAGS)
        # closes the link context.
        items = self._items
        inline_tags = self._inline_tags
        self._inline_tags = 0
        if not items:
            return
        self._items = []
        if self._masked:
            # word sub/sup/font tracking only when the paragraph actually
            # contains masked content — the common path below stays
            # byte-for-byte the original normalization
            self._masked = False
            lines, masks, total, link_total = _masked_lines(items)
        else:
            lines = []
            masks = None
            total = link_total = 0
            cur: list[str] = []
            for it in items:
                kind = it[0]
                if kind == "txt":
                    cur.append(it[1])
                    if it[2]:
                        link_total += len(" ".join(it[1].split()))
                elif kind == "br":
                    text = " ".join("".join(cur).split())
                    if text:
                        lines.append(text)
                        total += len(text)
                    cur = []
            text = " ".join("".join(cur).split())
            if text:
                lines.append(text)
                total += len(text)
        if not lines:
            return
        para = _Para(group=self._og or _FLOW)
        para.lines = lines
        para.word_masks = masks
        # dropcap: the paragraph opens with a lone uppercase letter split
        # out of its word by an inline ELEMENT boundary ("tb" marker) and
        # glued (no whitespace) to the following text — the classic
        # <span class=dropcap>O</span>nce pattern.  The marker requirement
        # makes this independent of data-chunk granularity (a charref split
        # emits two text nodes with no element between) and rejects
        # <br>-separated verse lines.
        first = items[0]
        if (first[0] == "txt" and len(first[1]) == 1
                and first[1].isalpha() and first[1].isupper()):
            j = 1
            while j < len(items) and items[j][0] == "tb":
                j += 1
            para.dropcap_first = (j > 1 and j < len(items)
                                  and items[j][0] == "txt"
                                  and bool(items[j][1])
                                  and not items[j][1][0].isspace())
        para.chars = total
        para.link_chars = min(link_total, total)
        para.inline_tags = inline_tags
        para.in_selector = self._os
        if self._ob:
            para.group = ("boiler",) + para.group
        self.paras.append(para)

    def _upd_mask(self) -> None:
        """Recompute the combined word mask after any sub/sup/font/pre
        counter change — handle_data then reads one attribute."""
        f = self._font
        self._mask = ((1 if self._sub else 0) | (2 if self._sup else 0)
                      | (4 if f[4] else 0) | (8 if f[8] else 0)
                      | (16 if f[16] else 0)
                      | (32 if f[32] or self._pre else 0))

    def _reset_inline(self) -> None:
        """A sectioning root closes any still-open anchor, sub/sup and
        font tag."""
        self._link = 0
        self._sub = 0
        self._sup = 0
        self._font = {4: 0, 8: 0, 16: 0, 32: 0}
        self._upd_mask()

    # -- non-text emissions -------------------------------------------------

    def _emit_nontext(self, kind: str, subtype: str) -> None:
        if self._skip or self._boiler or self._selector <= 0:
            return
        self._flush()
        p = _Para(group=(kind, subtype))
        p.in_selector = True
        self.paras.append(p)

    # -- HTMLParser hooks ---------------------------------------------------

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            # implied close: non-nesting skip tags close themselves when a
            # sibling opens (<option>A<option>B), and <head> closes when
            # body content starts
            stack = self._skip_stack
            if tag in _NON_NESTING_SKIP and stack and stack[-1] == tag:
                stack.pop()
            stack.append(tag)
            self._skip = len(stack)
            return
        if self._skip:
            # HTML5 allows omitting </head>: any structural/flowing tag
            # implies it closed (otherwise the whole page is swallowed)
            if tag in _FLUSH_TAGS and "head" in self._skip_stack:
                self._skip_stack.remove("head")
                self._skip = len(self._skip_stack)
                if self._skip:
                    return
            else:
                return
        if tag == "br":
            if not (self._boiler and self._drop_boiler):
                self._items.append(_BR)
            return
        if tag == "hr":
            self._emit_nontext("hline", "horz_line")
            return
        if tag == "img":
            in_figure = any(g[0] == "figure" for g in self._group_stack)
            self._emit_nontext(
                "image",
                BlockType.PULLOUT_IMAGE if in_figure else BlockType.FLOWING_IMAGE,
            )
            return
        if self.selector_tag and tag == self.selector_tag:
            self._selector += 1
        if tag in _FLUSH_TAGS:
            if self._items:
                self._flush()
            else:
                self._inline_tags = 0
            if tag in _ANCHOR_RESET_TAGS:
                self._reset_inline()
            if tag == "pre":
                self._pre += 1
                self._upd_mask()
            role = ""
            for k, v in attrs:
                if k == "role" and v:
                    role = v.lower()
            opens_ctr = tag in _BOILER_TAGS or role in _BOILER_ROLES
            gs = self._group_stack
            ctrs = self._role_ctrs
            if ctrs:
                if tag in _IMPLIED_END and gs and gs[-1] in _IMPLIED_END[tag]:
                    # HTML's implied end tag: a sibling <p>/<li> (<dt>/<dd>)
                    # closes the open one, here a role container
                    del ctrs[self._role_ctr(gs.pop()[1])]
                    self._boiler = max(0, self._boiler - 1)
                if not opens_ctr:
                    # a same-name descendant: its end tag is not the
                    # container's
                    i = self._role_ctr(tag)
                    if i >= 0:
                        ctrs[i][1] += 1
            if opens_ctr:
                self._boiler += 1
                gs.append(("boilerctr", tag))
                if tag not in _BOILER_TAGS:
                    ctrs.append([tag, 0])
            elif tag in _GROUP_KINDS:
                gs.append((_GROUP_KINDS[tag], self._fresh_id()))
            # the context a paragraph opening here takes; heading/caption
            # apply only while the tag is open (see handle_endtag)
            self._og = _OPEN_GROUP.get(tag) or (gs[-1] if gs else _FLOW)
            self._ob = self._boiler > 0
            self._os = self._selector > 0
            return
        # inline tag
        if tag == "a":
            # HTML5: anchors never nest — a new <a> implies the previous
            # one closed (the browser's adoption rule)
            self._link = 1
        elif tag == "sub":
            self._sub += 1
            self._upd_mask()
        elif tag == "sup":
            self._sup += 1
            self._upd_mask()
        elif tag in _FONT_BITS:
            self._font[_FONT_BITS[tag]] += 1
            self._upd_mask()
        self._inline_tags += 1
        if self._items:
            # element-boundary marker: distinguishes markup-split text
            # (dropcap detection) from mere data-chunk splits (charrefs),
            # making the result independent of data granularity
            self._items.append(_TB)

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag not in ("br", "hr", "img"):
            self.handle_endtag(tag)

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            # pop the nearest matching open skip tag (tolerates interleaved
            # malformed closes); anything above it was implicitly closed
            stack = self._skip_stack
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] == tag:
                    del stack[i:]
                    self._skip = i
                    break
            return
        if self._skip:
            return
        if tag in _FLUSH_TAGS:
            if self._pre and tag == "pre":
                self._pre -= 1
                self._upd_mask()
            if self._items:
                self._flush()
            else:
                self._inline_tags = 0
            if tag in _ANCHOR_RESET_TAGS:
                self._reset_inline()
            gs = self._group_stack
            ctrs = self._role_ctrs
            ctr = self._role_ctr(tag) if ctrs else -1
            if ctr >= 0 and ctrs[ctr][1] and not (
                    tag in _IMPLIED_END and gs and gs[-1] == ("boilerctr", tag)):
                # a same-name descendant.  (Directly inside a p/li/dt/dd
                # container no same-name element stays open — a sibling
                # would have closed the container — so there the end tag
                # is the container's.)
                ctrs[ctr][1] -= 1
                ctr = -1
            if ctr >= 0:
                del ctrs[ctr]
            if (tag in _BOILER_TAGS or ctr >= 0) and self._boiler:
                # pop matching boiler container if present
                for i in range(len(gs) - 1, -1, -1):
                    if gs[i] == ("boilerctr", tag):
                        del gs[i]
                        self._boiler -= 1
                        break
                else:
                    self._boiler = max(0, self._boiler - 1)
            elif tag in _GROUP_KINDS:
                self._pop_group(_GROUP_KINDS[tag])
            # after the end tag, following bare text falls back to the
            # container group
            self._og = gs[-1] if gs else _FLOW
            self._ob = self._boiler > 0
            self._os = self._selector > 0
        elif tag in ("br", "hr", "img"):
            return
        else:
            if tag == "a":
                self._link = max(0, self._link - 1)
            elif tag == "sub":
                self._sub = max(0, self._sub - 1)
                self._upd_mask()
            elif tag == "sup":
                self._sup = max(0, self._sup - 1)
                self._upd_mask()
            elif tag in _FONT_BITS:
                bit = _FONT_BITS[tag]
                self._font[bit] = max(0, self._font[bit] - 1)
                self._upd_mask()
            if self._items:
                self._items.append(_TB)
        if self.selector_tag and tag == self.selector_tag:
            self._selector = max(0, self._selector - 1)

    def _pop_group(self, kind: str) -> None:
        gs = self._group_stack
        for i in range(len(gs) - 1, -1, -1):
            if gs[i][0] == kind:
                del gs[i]
                return

    def _role_ctr(self, tag: str) -> int:
        """Index of the innermost open role container named ``tag``, or -1."""
        ctrs = self._role_ctrs
        for i in range(len(ctrs) - 1, -1, -1):
            if ctrs[i][0] == tag:
                return i
        return -1

    def handle_data(self, data):
        if self._skip or not data or (self._boiler and self._drop_boiler):
            return
        items = self._items
        if not items:
            # context is captured when the paragraph's first content arrives
            self._ob = self._boiler > 0
            self._os = self._selector > 0
            if self._og is None:
                self._og = _FLOW
        mask = self._mask
        if self._pre and "\n" in data:
            for i, part in enumerate(data.split("\n")):
                if i:
                    items.append(_BR)
                if part:
                    self._append_text(part, mask)
        else:
            self._append_text(data, mask)

    def _append_text(self, data: str, mask: int) -> None:
        """Append a text item, MERGING into the previous one when no tag /
        line boundary intervened and the inline state is identical — the
        item stream becomes independent of data-chunk granularity (stdlib
        emits a separate chunk per charref, the fast tokenizer one per
        inter-tag segment; per-item link-length accounting must not see
        the difference)."""
        in_link = self._link > 0
        items = self._items
        if mask:
            self._masked = True
        if items:
            last = items[-1]
            if last[0] == "txt" and last[2] == in_link and last[3] == mask:
                items[-1] = ("txt", last[1] + data, in_link, mask)
                return
        items.append(("txt", data, in_link, mask))

    def close(self):
        super().close()
        self._flush()


def _masked_lines(items: list[tuple]) -> tuple[list[str], list[int], int, int]:
    """``(lines, word masks, chars, link chars)`` of a paragraph's items
    when some text carries a sub/sup/font mask.

    Run-based token masks: each line is a short list of (text, mask) RUNS
    — a token's mask is the OR of the runs its [start, end) overlaps, found
    by walking run end offsets alongside the (ordered) token matches.
    O(runs + tokens), never one mask per character: with the font bits,
    <b>/<i>/<em> put most realistic paragraphs on this path.
    (_append_text never emits empty runs, so zero-length-run masks can't
    leak in.)"""
    lines: list[str] = []
    masks: list[int] = []
    total = link_total = 0
    cur: list[tuple] = []
    for it in items + [_BR]:
        kind = it[0]
        if kind == "txt":
            cur.append((it[1], it[3]))
            if it[2]:
                link_total += len(" ".join(it[1].split()))
            continue
        if kind != "br":
            continue
        raw = "".join(s for s, _m in cur)
        ends: list[int] = []
        rmasks: list[int] = []
        pos = 0
        for s, m in cur:
            pos += len(s)
            ends.append(pos)
            rmasks.append(m)
        cur = []
        toks: list[str] = []
        ri = 0
        for mt in _NONWS_RE.finditer(raw):
            a = mt.start()
            while ends[ri] <= a:
                ri += 1
            mm = rmasks[ri]
            j = ri
            b_end = mt.end()
            while ends[j] < b_end:
                j += 1
                mm |= rmasks[j]
            toks.append(mt.group())
            masks.append(mm)
        if toks:
            # " ".join(tokens) == " ".join(raw.split()) — the
            # byte-identity invariant of the unmasked path
            text = " ".join(toks)
            lines.append(text)
            total += len(text)
    return lines, masks, total, link_total


# ---------------------------------------------------------------------------
# fast tokenizer front-end
#
# html.parser's pure-Python goahead loop is ~55% of extraction CPU.  This
# regex-driven tokenizer produces the SAME event stream into the SAME
# _SegmentingParser handler methods for the constructs that occur in web
# text (tags, comments, doctype/bogus/PI, CDATA, charrefs, script/style raw
# content) — parity is enforced by tests/test_extract_properties.py which
# diffs full ExtractResults between both front-ends over every fixture
# family and truncation point.  Anything the tokenizer cannot faithfully
# handle falls back to the stdlib path per document (segment_html).

#: a quoted attr VALUE may span '>' — but only when it follows a well-formed
#: ``name=`` (html.parser's tolerant attr grammar: the name must follow a
#: delimiter).  A bare ``='y>`` is NOT a quote opener (stdlib ends the tag at
#: the '>'), and <p title=don't> has the UNQUOTED value "don't" — a general
#: quoted-string alternative would swallow text to the next apostrophe.
_ATTR_QPFX = r"(?<=[\s/\"'])[a-zA-Z_:][-a-zA-Z0-9_:.]*\s*=\s*"

_TAG_RE = re.compile(
    r"<(?:"
    r"!--.*?--\s*>"                              # comment
    r"|!\[CDATA\[.*?\]\]>"                       # CDATA section
    r"|(/)\s*([a-zA-Z][^\t\n\r\f />\x00]*)\s*[^>]*>"   # end tag
    r"|/[^>]*>"                                  # bogus end tag → dropped
    r"|([a-zA-Z][^\t\n\r\f />\x00]*)"            # start tag name
    # quoted value | UNQUOTED value consumed atomically (stdlib consumes
    # [^>\s]* whole, so a quote inside an unquoted value can never open a
    # quoted span) | any other char
    rf"((?:{_ATTR_QPFX}\"[^\"]*\"|{_ATTR_QPFX}'[^']*'"
    rf"|{_ATTR_QPFX}[^>\s\"'][^>\s]*|[^>])*)>"
    r"|(!--|!\[CDATA\[)"                         # unterminated at EOF → data
    r"|[!?][^>]*>"                               # doctype / bogus / PI
    r")", re.S)

_ROLE_HINT_RE = re.compile(r"role", re.I)

#: a blob ending in an unterminated quoted value: stdlib never ends the tag
#: here — it scans the REST OF THE DOCUMENT for the closing quote and its
#: recovery depends on global document state, so the fast path hands the
#: whole document to the stdlib front-end instead of approximating
_UNTERM_Q_RE = re.compile(r"=\s*(\"[^\"]*|'[^']*)$")


class _StdlibFallback(Exception):
    """Raised when the fast tokenizer meets a construct whose stdlib
    recovery is document-global (unterminated attribute quote) — the
    caller reparses the document with html.parser."""

#: sequential attribute tokenizer (html.parser attrfind_tolerant shape):
#: consuming attrs in order means quoted VALUES are skipped atomically, so
#: 'role=' text inside another attribute's value or a data-role attribute
#: name can never be mistaken for the role attribute
_ATTR_SEQ_RE = re.compile(
    r"[\s/]*([a-zA-Z_:][-a-zA-Z0-9_:.]*)"
    r"(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^>\s]*))?")


def _role_attr(blob: str):
    pos = 0
    n = len(blob)
    while pos < n:
        m = _ATTR_SEQ_RE.match(blob, pos)
        if m is None or m.end() == pos:
            pos += 1
            continue
        pos = m.end()
        if m.group(1).lower() == "role":
            v = m.group(2) or ""
            if v[:1] in "\"'":
                v = v[1:-1]
            return v
    return None

#: raw-content mode exits ONLY at a real close tag (stdlib endtagfind
#: semantics: parse_endtag in cdata mode treats any other "</..." — e.g.
#: "</scripty>" or "</script x>" — as DATA and stays in raw mode)
_CDATA_CLOSE = {
    "script": re.compile(r"</\s*script\s*(?=>)", re.I),
    "style": re.compile(r"</\s*style\s*(?=>)", re.I),
}


def _feed_fast(parser: _SegmentingParser, text: str) -> None:
    """Drive the handler with the fast tokenizer (html.parser-equivalent
    event stream; see parity notes above)."""
    from html import unescape

    pos = 0
    n = len(text)
    search = _TAG_RE.search
    data = parser.handle_data
    start = parser.handle_starttag
    end = parser.handle_endtag
    while pos < n:
        m = search(text, pos)
        if m is None:
            seg = text[pos:]
            data(unescape(seg) if "&" in seg else seg)
            break
        at = m.start()
        if at > pos:
            seg = text[pos:at]
            data(unescape(seg) if "&" in seg else seg)
        _, end_name, name, blob, unterminated = m.groups()
        if unterminated:                    # unterminated <!-- / <![CDATA[
            # stdlib (at EOF) emits the construct as data up to and
            # including the FIRST '>' (charrefs converted) and resumes
            # parsing after it; with no '>' left, the remainder is data
            j = text.find(">", at)
            seg = text[at:] if j < 0 else text[at:j + 1]
            data(unescape(seg) if "&" in seg else seg)
            if j < 0:
                break
            pos = j + 1
            continue
        pos = m.end()
        if end_name:
            end(end_name.lower())
            continue
        if not name:                        # comment/doctype/bogus/PI
            continue
        tag = name.lower()
        attrs = ()
        if blob:
            if _UNTERM_Q_RE.search(blob):
                raise _StdlibFallback
            # attrs only matter for the boilerplate role check on flush tags
            if tag in _FLUSH_TAGS and _ROLE_HINT_RE.search(blob):
                val = _role_attr(blob)
                if val is not None:
                    attrs = [("role", unescape(val) if "&" in val else val)]
            stripped = blob.rstrip()
            # self-closing iff the trailing "/" is its own token — a "/"
            # glued to an unquoted attribute value (<a href=/>) is part of
            # the VALUE in html.parser's tolerant attr grammar, not a
            # self-close marker
            if stripped.endswith("/") and (len(stripped) == 1
                                           or stripped[-2] in " \t\r\n\"'"):
                parser.handle_startendtag(tag, attrs)
                continue
        start(tag, attrs)
        if tag in _CDATA_CLOSE:
            # raw-content elements: embedded '<' is not markup until the
            # matching close tag (html.parser set_cdata_mode equivalent)
            m2 = _CDATA_CLOSE[tag].search(text, pos)
            if m2 is None:
                data(text[pos:])
                break
            if m2.start() > pos:
                data(text[pos:m2.start()])
            pos = m2.start()
    parser._flush()


# ---------------------------------------------------------------------------
# classification + merging + assembly


#: ``str.isalpha`` of every code point below U+0800; entry 0x800 stands
#: for the higher ones
_ALPHA_LOW = np.array([chr(c).isalpha() for c in range(0x800)] + [False])


def _alpha_counts(texts: list[str], lens: np.ndarray) -> np.ndarray:
    """How many characters of each text ``str.isalpha`` accepts: a table
    lookup below U+0800, one ``isalpha`` per distinct code point above."""
    cp = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"),
                       np.uint32)
    alpha = _ALPHA_LOW[np.minimum(cp, 0x800)]
    if len(cp) and cp.max() >= 0x800:
        high = cp >= 0x800
        uniq, inv = np.unique(cp[high], return_inverse=True)
        alpha[high] = np.array([chr(c).isalpha() for c in uniq.tolist()],
                               bool)[inv]
    csum = np.zeros(len(cp) + 1, np.int64)
    np.cumsum(alpha, out=csum[1:])
    ends = np.cumsum(lens)
    return csum[ends] - csum[ends - lens]


def score_paragraphs(texts: list[str], link_densities: list[float],
                     codes: list[int]) -> list[float]:
    """0–100 content-confidence score of each paragraph — the
    ResultIterator confidence analogue (ResultHandle.java:84-89), computed
    from extraction features instead of OCR posterior: link density,
    length saturation, dictionary hit rate (TessBaseAPIIsValidWord
    analogue, :func:`dictionary_words` with each paragraph's ``codes``
    entry) and alphabetic ratio.

    One pass for any number of paragraphs: Arrow splits, normalizes and
    looks up every word at once and numpy makes the per-paragraph counts;
    only the arithmetic on those counts runs per paragraph, the formula
    written once, in plain floats."""
    if not texts:
        return []
    # stripped first, as Arrow gives edge whitespace an empty word, and
    # word-free texts as nulls, which split into no words at all
    words = pc.utf8_split_whitespace(
        pa.array([t.lower().strip() or None for t in texts], pa.string()))
    offs = words.offsets.to_numpy()
    n = offs[1:] - offs[:-1]
    owner = np.repeat(np.arange(len(texts)), n)
    _, hit = dictionary_words(words.flatten(),
                              np.asarray(codes, np.intp)[owner])
    hits = np.bincount(owner[hit], minlength=len(texts))
    lens = np.fromiter(map(len, texts), np.int64, len(texts))
    alpha = _alpha_counts(texts, lens)
    out = []
    for nw, h, a, size, ld in zip(n.tolist(), hits.tolist(), alpha.tolist(),
                                  lens.tolist(), link_densities):
        if nw == 0:
            out.append(0.0)
            continue
        score = (0.35 * (1.0 - ld)
                 + 0.25 * min(1.0, nw / 20.0)
                 + 0.25 * min(1.0, 4.0 * h / nw)
                 + 0.15 * (a / size))
        out.append(round(100.0 * max(0.0, min(1.0, score)), 4))
    return out


def score_documents(docs: list[tuple[list, str | None]]) -> list[list[float]]:
    """Per ``(blocks, lang)`` document, the confidence of each paragraph
    :func:`assemble` lays out (every paragraph with lines, in block
    order), all documents scored in one :func:`score_paragraphs` pass."""
    texts: list[str] = []
    lds: list[float] = []
    codes: list[int] = []
    bounds = [0]
    for blocks, lang in docs:
        code = stop_code(lang)
        for blk in blocks:
            for p in blk.paras:
                if p.lines:
                    texts.append("\n".join(p.lines))
                    lds.append(p.link_chars / p.chars if p.chars else 0.0)
                    codes.append(code)
        bounds.append(len(texts))
    confs = score_paragraphs(texts, lds, codes)
    return [confs[a:b] for a, b in zip(bounds, bounds[1:])]


def _default_classify(para: _Para, cfg: ExtractConfig) -> str:
    """Built-in paragraph → block-type / NOISE heuristics.

    The NOISE decision is the boilerplate heuristic: structural boilerplate
    containers are always noise; otherwise link-dense short paragraphs are
    link farms (readability-style), and word-free paragraphs are separators.
    """
    g = para.group
    if g[0] == "boiler":
        return BlockType.NOISE
    if g[0] == "image":
        return g[1]
    if g[0] == "hline":
        return BlockType.HORZ_LINE
    text = "\n".join(para.lines)
    n_words = len(text.split())
    if n_words == 0:
        return BlockType.NOISE
    ld = para.link_chars / para.chars if para.chars else 0.0
    limit = (cfg.long_para_max_link_density
             if n_words >= cfg.long_para_words else cfg.max_link_density)
    if ld > limit:
        return BlockType.NOISE
    if g[0] == "heading":
        return BlockType.HEADING_TEXT
    if g[0] == "caption":
        return BlockType.CAPTION_TEXT
    if g[0] == "table":
        return BlockType.TABLE
    if g[0] == "bq":
        return BlockType.PULLOUT_TEXT
    return BlockType.FLOWING_TEXT


def _classify(para: _Para, cfg: ExtractConfig) -> str:
    """Default classification, then user :data:`BlockRule` overrides —
    the PageItemFactory-analogue extension point (SURVEY.md §2.5): each
    registered rule sees the paragraph's feature view (with the ORIGINAL
    default verdict) and may re-type it, drop it (NOISE), or rescue it."""
    btype = _default_classify(para, cfg)
    if cfg.block_rules:
        text = "\n".join(para.lines) if para.is_text else ""
        ld = para.link_chars / para.chars if para.chars else 0.0
        ctx = BlockRuleContext(group=para.group, text=text,
                               n_words=len(text.split()),
                               n_chars=para.chars, link_density=ld,
                               default_type=btype)
        for rule in cfg.block_rules:
            r = rule(ctx)
            if r is not None:
                btype = r
    return btype


def _merge_key(para: _Para, btype: str):
    """Adjacent kept paragraphs with equal merge keys join one block."""
    if btype in (BlockType.FLOWING_TEXT,):
        g = para.group
        if g[0] in ("list", "figure"):
            return (btype, g[0], g[1])
        return (btype, "flow")
    if btype in (BlockType.TABLE, BlockType.PULLOUT_TEXT):
        return (btype,) + para.group[:2]
    return None  # headings, captions, images, rules never merge


@dataclass
class _Block:
    btype: str
    paras: list[_Para]


def _filter_chars(paras: list[_Para], cfg: ExtractConfig) -> list[_Para]:
    """``paras`` with the characters of ``cfg.char_blacklist`` removed and
    only those of ``cfg.char_whitelist`` kept, each line whitespace-collapsed
    again; a text paragraph left without lines is dropped.  Every payload
    kind filters its paragraphs here before its blocks are built (HTML
    before classification).  The translate table and keep-set are built
    once per document, not per line."""
    if not (cfg.char_whitelist or cfg.char_blacklist):
        return paras
    table = ({ord(c): None for c in cfg.char_blacklist}
             if cfg.char_blacklist else None)
    keep = (set(cfg.char_whitelist) | {" "}) if cfg.char_whitelist else None

    def filt(line: str) -> str:
        if table is not None:
            line = line.translate(table)
        if keep is not None:
            line = "".join(c for c in line if c in keep)
        return " ".join(line.split())

    for p in paras:
        p.lines = [ln for ln in (filt(l) for l in p.lines) if ln]
        p.chars = sum(len(l) for l in p.lines)
        # clamp link mass to the surviving chars: filtering removes
        # characters without attribution, and a stale link_chars > chars
        # yields link density > 1 and misclassifies surviving content
        # paragraphs as NOISE
        p.link_chars = min(p.link_chars, p.chars)
        p.word_masks = None   # filtering re-segments words
    return [p for p in paras if p.lines or not p.is_text]


def _feed_stdlib(parser: _SegmentingParser, text: str) -> None:
    try:
        parser.feed(text)
        parser.close()
    except Exception:
        # html.parser is extremely tolerant; any residual parse error means a
        # hopeless payload — degrade to whatever paragraphs were collected.
        parser._flush()


def segment_html(text: str, cfg: ExtractConfig) -> list[_Block]:
    """Parse + classify + merge: HTML string → ordered block list."""
    # boilerplate text is NOISE unless a block rule may rescue it or
    # SINGLE_BLOCK keeps every paragraph: then the parser drops it unbuilt
    drop_boiler = not cfg.block_rules and cfg.mode != Mode.SINGLE_BLOCK
    parser = _SegmentingParser(cfg.selector_tag, drop_boiler)
    try:
        _feed_fast(parser, text)
    except Exception:
        # any internal tokenizer error → redo the document on the
        # stdlib front-end (same event semantics, slower)
        parser = _SegmentingParser(cfg.selector_tag, drop_boiler)
        _feed_stdlib(parser, text)

    paras = _filter_chars([p for p in parser.paras if p.in_selector], cfg)

    if cfg.mode == Mode.SINGLE_BLOCK:
        kept = [p for p in paras if p.is_text and p.lines]
        return [_Block(BlockType.FLOWING_TEXT, kept)] if kept else []

    blocks: list[_Block] = []
    for p in paras:
        btype = _classify(p, cfg)
        if btype == BlockType.NOISE:
            continue
        key = _merge_key(p, btype)
        # connected-region merging: dropped noise BETWEEN two compatible
        # content paras does not break the run (they are adjacent after
        # removal) — so we compare against the last KEPT para's key.
        if key is not None and blocks and blocks[-1].btype == btype \
                and _merge_key(blocks[-1].paras[-1], btype) == key:
            blocks[-1].paras.append(p)
        else:
            blocks.append(_Block(btype, [p]))
    return blocks


def assemble(blocks: list[_Block], lang: str | None, cfg: ExtractConfig,
             confs: list[float] | None = None) -> ExtractResult:
    """Blocks → final text + block/para/line span rows in one pass (offsets
    always index the final text; never post-hoc searched — SURVEY.md §7
    hard-part #2).

    Text layout: blocks joined by "\\n\\n"; paragraphs within a block and
    lines within a paragraph joined by "\\n".  Non-text blocks contribute no
    text and carry zero-length spans at their reading-order position: one
    synthetic para and line here, and the one zero-length word that
    ``extract.spans`` gives such a line (BasePageHandle.java:111-114).

    Word rows are not built here: ``extract.spans`` derives them per batch
    from the line spans and the final text.  All they need beyond that is
    recorded on the result: each masked paragraph's per-word masks and each
    dropcap paragraph, keyed by the paragraph's ``node_id``.

    ``confs`` are the paragraph confidences :func:`score_documents` gave
    these blocks, when the caller scored a whole batch; without them the
    document is scored as a batch of one.
    """
    if confs is None:
        confs = score_documents([(blocks, lang)])[0]
    next_conf = iter(confs).__next__
    parts: list[str] = []
    outline: list[Span] = []
    word_masks: list[tuple[int, list[int]]] = []
    dropcaps: list[int] = []
    offset = 0
    text_block_confs: list[float] = []

    first_text_block = True
    for blk in blocks:
        bt = blk.btype
        if not blk.paras or not any(p.lines for p in blk.paras):
            # non-text block (image / rule): zero-length hierarchy
            bid = len(outline)
            outline += (Span(bid, -1, Level.BLOCK, bt, offset, offset, 0.0, 0.0, 0.0),
                        Span(bid + 1, bid, Level.PARA, bt, offset, offset, 0.0, 0.0, 0.0),
                        Span(bid + 2, bid + 1, Level.LINE, bt, offset, offset, 0.0, 0.0, 0.0))
            continue

        if not first_text_block:
            parts.append("\n\n")
            offset += 2
        first_text_block = False

        bid = len(outline)
        block_span = Span(bid, -1, Level.BLOCK, bt, offset, offset, 0.0, 0.0, 0.0)
        outline.append(block_span)
        blk_chars = 0
        blk_links = 0.0
        blk_conf_w = 0.0

        first_para = True
        for para in blk.paras:
            if not para.lines:
                continue
            if not first_para:
                parts.append("\n")
                offset += 1
            first_para = False
            ld = para.link_chars / para.chars if para.chars else 0.0
            td = para.chars / (para.chars + 8.0 * (1 + para.inline_tags)) if para.chars else 0.0
            conf = next_conf()
            pid = len(outline)
            pspan = Span(pid, bid, Level.PARA, bt, offset, offset, conf,
                         round(td, 4), round(ld, 4))
            outline.append(pspan)
            if para.word_masks:
                word_masks.append((pid, para.word_masks))
            if para.dropcap_first:
                dropcaps.append(pid)
            for line_idx, line in enumerate(para.lines):
                if line_idx:
                    parts.append("\n")
                    offset += 1
                outline.append(Span(len(outline), pid, Level.LINE, bt, offset,
                                    offset + len(line), conf, pspan.text_density,
                                    pspan.link_density))
                parts.append(line)
                offset += len(line)
            pspan.end = offset
            n = offset - pspan.start
            blk_chars += n
            blk_links += ld * n
            blk_conf_w += conf * n
        block_span.end = offset
        if blk_chars:
            block_span.link_density = round(blk_links / blk_chars, 4)
            chars_sum = 0
            tags_n = 0
            for p in blk.paras:
                chars_sum += p.chars
                tags_n += 1 + p.inline_tags
            block_span.text_density = round(
                chars_sum / (chars_sum + 8.0 * tags_n), 4)
            block_span.confidence = round(blk_conf_w / blk_chars, 4)
            text_block_confs.append(block_span.confidence)

    doc_conf = round(sum(text_block_confs) / len(text_block_confs), 4) if text_block_confs else 0.0
    return ExtractResult(
        text="".join(parts), outline=outline, word_masks=word_masks,
        dropcaps=dropcaps, word_spans=cfg.emit_word_spans,
        doc_confidence=doc_conf, n_blocks=len(blocks),
        payload_kind=PayloadKind.HTML,
    )


def extract_plain_text(text: str, lang: str | None, cfg: ExtractConfig,
                       charset: str = "") -> Segmented:
    """TEXT_ONLY mode / plain-text payloads: paragraphs on blank lines,
    lines on newlines, one flowing block per paragraph."""
    paras: list[_Para] = []
    for chunk in re.split(r"\n\s*\n", text):
        lines = [" ".join(ln.split()) for ln in chunk.split("\n")]
        lines = [ln for ln in lines if ln]
        if lines:
            paras.append(_Para(("flow",), lines, sum(map(len, lines))))
    blocks = [_Block(BlockType.FLOWING_TEXT, [p])
              for p in _filter_chars(paras, cfg)]
    return Segmented(blocks, lang, PayloadKind.TEXT, charset)
