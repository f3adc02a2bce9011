"""`extract_one` — the whole-document entry point of the extractor core.

The analogue of the reference's one-shot convenience path
(``TesseractHandle.rect(BufferedImage)`` → UTF-8 string,
/root/reference/src/.../TesseractHandle.java:471-489) extended with the full
result record: text + spans + metrics.  Pure function of
``(payload, lang, corpus_text, config)``; NEVER raises — malformed payloads
become ``payload_kind="error"`` rows so a poison document cannot take down a
10^12-doc job (the design inversion of the reference's typed-exception
surface, TesseractException.java:29-50).

Payload routing (the S2/S3 sniffing analogue, ImageIOHelper.java:270-327):

* empty / whitespace-only        → ``empty``
* ``%PDF-`` magic                → PDF branch
* NUL bytes (binary junk)        → ``error``
* looks like markup              → HTML branch
* anything else (decodable text) → plain-text branch
"""

from __future__ import annotations

import re

from ..config import ExtractConfig, Mode
from .charset import decode_payload
from .html_extract import extract_html, extract_plain_text
from .pdf_extract import extract_pdf
from .types import ExtractResult, PayloadKind

# no whitespace after '<' — HTML never allows it, and permitting it
# misrouted plain text like "x < a and y > b" into the HTML branch
_MARKUP_RE = re.compile(r"<(?:!doctype|html|head|body|div|p|h[1-6]|a|span|br"
                        r"|table|ul|ol|li|article|section|main|nav|title|meta)\b", re.I)

#: BOMs that legitimately put NUL bytes in text payloads
_TEXT_BOMS = (b"\xff\xfe", b"\xfe\xff", b"\x00\x00\xfe\xff", b"\xef\xbb\xbf")

DEFAULT_CONFIG = ExtractConfig()


def sniff_kind(payload: bytes | None) -> str:
    """Cheap payload router, run per row by :func:`extract_one`."""
    if payload is None or not payload.strip():
        return PayloadKind.EMPTY
    if payload.lstrip()[:5] == b"%PDF-":
        return PayloadKind.PDF
    if payload.startswith(_TEXT_BOMS):
        # UTF-16/32 text carries NUL bytes by design — route to decode
        return PayloadKind.HTML
    if b"\x00" in payload:
        return PayloadKind.ERROR
    return PayloadKind.HTML  # html-or-text, disambiguated after decode


def extract_one(
    payload: bytes | None,
    lang: str | None = None,
    corpus_text: str | None = None,
    cfg: ExtractConfig = DEFAULT_CONFIG,
) -> ExtractResult:
    """One document in → one ExtractResult out.  Never raises."""
    try:
        if cfg.mode == Mode.TEXT_ONLY:
            res = extract_plain_text(corpus_text or "", lang, cfg)
            if not (corpus_text or "").strip():
                res.payload_kind = PayloadKind.EMPTY
            return res

        kind = sniff_kind(payload)
        if kind == PayloadKind.EMPTY:
            return ExtractResult(payload_kind=PayloadKind.EMPTY)
        if kind == PayloadKind.ERROR:
            return ExtractResult(payload_kind=PayloadKind.ERROR,
                                 error="binary payload (NUL bytes)")
        if kind == PayloadKind.PDF:
            return extract_pdf(payload, lang, cfg)

        text, charset = decode_payload(payload)
        if _MARKUP_RE.search(text[:4096]):
            res = extract_html(text, lang, cfg)
        else:
            res = extract_plain_text(text, lang, cfg)
        res.charset = charset
        return res
    except Exception as e:  # the per-row firewall
        return ExtractResult(payload_kind=PayloadKind.ERROR,
                             error=f"{type(e).__name__}: {e}")
