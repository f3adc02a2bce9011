"""Deterministic text extraction from simple PDFs.

The reference explicitly REJECTS PDFs (``ImageIOHelper.getIIOImageList``
throws for .pdf, /root/reference/src/.../ImageIOHelper.java:277-281).  The
north rule upgrades that: binary ``%PDF-`` payloads are routed to this
branch.  Scope is honest (SURVEY.md §7): deterministic extraction of text
objects from well-formed PDFs with uncompressed or FlateDecode content
streams — the shape our corpus generator emits — not a general PDF renderer.
Anything outside that scope degrades to an ``error`` row, never an exception.

Structure mapping: each ``BT ... ET`` text object becomes one paragraph; each
text-showing operator (``Tj`` / ``'`` / ``TJ``) becomes one line; the whole
document is one flowing-text block per page stream.
"""

from __future__ import annotations

import re
import zlib

from ..config import ExtractConfig
from .html_extract import _Block, _Para, _filter_chars
from .types import BlockType, ExtractResult, PayloadKind, Segmented

#: decompressed bytes all FlateDecode streams of one document may expand
#: to, together; past it the document becomes a ``limit:flate_bytes``
#: error row.  A fixed byte count, not a time limit, so the outcome is the
#: same on every machine; parsing this much text costs a few seconds.
MAX_FLATE_BYTES = 4 << 20

_STREAM_RE = re.compile(rb"<<(.*?)>>\s*stream\r?\n(.*?)endstream", re.S)
_BT_RE = re.compile(rb"BT(.*?)ET", re.S)
# (string) Tj | (string) ' | <hex> Tj/' — single text-showing ops — and
# [ ... ] TJ arrays (whose elements may be literal OR hex strings)
_TJ_RE = re.compile(
    rb"(?:\((?:[^()\\]|\\.)*\)|<[0-9A-Fa-f\s]*>)\s*(?:Tj|')"
    rb"|\[(?:[^\]\\]|\\.)*\]\s*TJ", re.S)
_STR_RE = re.compile(rb"\((?:[^()\\]|\\.)*\)|<[0-9A-Fa-f\s]*>", re.S)

_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
    b"(": b"(", b")": b")", b"\\": b"\\",
}


def _unescape(raw: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(raw):
        c = raw[i:i + 1]
        if c == b"\\" and i + 1 < len(raw):
            nxt = raw[i + 1:i + 2]
            if nxt in _ESCAPES:
                out += _ESCAPES[nxt]
                i += 2
                continue
            if nxt in b"01234567":  # octal escape \ddd (1-3 OCTAL digits —
                # \8 or \9 are not octal; the PDF spec says drop the
                # backslash, and int(...,8) would raise and error the doc)
                j = i + 1
                while j < len(raw) and j < i + 4 and raw[j] in b"01234567":
                    j += 1
                out.append(int(raw[i + 1:j], 8) & 0xFF)
                i = j
                continue
            i += 1  # lone backslash: drop
            continue
        out += c
        i += 1
    return bytes(out)


def _decode_pdf_string(raw: bytes) -> str:
    # PDFDocEncoding ≈ latin-1 for the printable range; deterministic.
    if raw[:1] == b"<":
        # hex string: whitespace ignored, odd digit count padded with 0
        # (PDF 32000-1:2008 §7.3.4.3).  No error path: the regexes admit
        # only hex digits/whitespace, and latin-1 accepts every byte.
        hx = re.sub(rb"\s+", b"", raw[1:-1])
        if len(hx) % 2:
            hx += b"0"
        return bytes.fromhex(hx.decode("ascii")).decode("latin-1")
    return _unescape(raw[1:-1]).decode("latin-1")


def extract_pdf(payload: bytes, lang: str | None,
                cfg: ExtractConfig) -> Segmented | ExtractResult:
    """``%PDF-`` payload → its one flowing block, or an error result."""
    paras: list[_Para] = []
    budget = MAX_FLATE_BYTES
    try:
        for m in _STREAM_RE.finditer(payload):
            sdict, data = m.group(1), m.group(2)
            if b"FlateDecode" in sdict:
                # NO strip: trailing 0x0a/0x0d may be adler32 checksum
                # bytes of the stream itself; zlib tolerates trailing
                # garbage but not missing checksum bytes
                z = zlib.decompressobj()
                try:
                    out = z.decompress(data, budget + 1)
                except zlib.error:
                    continue
                if len(out) > budget:
                    return ExtractResult(
                        payload_kind=PayloadKind.ERROR,
                        error=f"limit:flate_bytes: FlateDecode streams "
                              f"expand past {MAX_FLATE_BYTES} bytes")
                if not z.eof:
                    continue     # truncated stream
                budget -= len(out)
                data = out
            for bt in _BT_RE.finditer(data):
                lines: list[str] = []
                for op in _TJ_RE.finditer(bt.group(1)):
                    pieces = _STR_RE.findall(op.group(0))
                    text = "".join(_decode_pdf_string(p) for p in pieces)
                    text = re.sub(r"\s+", " ", text).strip()
                    if text:
                        lines.append(text)
                if lines:
                    paras.append(_Para(("flow",), lines,
                                       sum(map(len, lines))))
    except Exception as e:  # malformed beyond scope → error row, not a crash
        return ExtractResult(payload_kind=PayloadKind.ERROR,
                             error=f"pdf-parse: {type(e).__name__}: {e}")
    if not paras:
        return ExtractResult(payload_kind=PayloadKind.ERROR,
                             error="pdf-parse: no extractable text objects")
    paras = _filter_chars(paras, cfg)
    blocks = [_Block(BlockType.FLOWING_TEXT, paras)] if paras else []
    return Segmented(blocks, lang, PayloadKind.PDF)
