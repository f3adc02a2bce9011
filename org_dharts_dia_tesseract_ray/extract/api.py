"""`extract_batch` — the entry point of the extractor core.

The analogue of the reference's one-shot convenience path
(``TesseractHandle.rect(BufferedImage)`` → UTF-8 string,
/root/reference/src/.../TesseractHandle.java:471-489) extended with the full
result record: text + spans + metrics, for a batch of documents at a time.
Pure function of each document's ``(payload, lang, corpus_text)`` and the
config; NEVER raises — malformed payloads become ``payload_kind="error"``
rows so a poison document cannot take down a 10^12-doc job (the design
inversion of the reference's typed-exception surface,
TesseractException.java:29-50).

Payload routing (the S2/S3 sniffing analogue, ImageIOHelper.java:270-327):

* empty / whitespace-only        → ``empty``
* ``%PDF-`` magic                → PDF branch
* NUL bytes (binary junk)        → ``error``
* looks like markup              → HTML branch
* anything else (decodable text) → plain-text branch

Each branch segments its document into blocks (a :class:`Segmented`
document) or gives its final row; the paragraphs of every segmented
document of the batch are then scored in one pass and each document is
assembled.  :func:`extract_one` is the batch of one.
"""

from __future__ import annotations

import re

from ..config import ExtractConfig, Mode
from .charset import decode_payload
from .html_extract import (
    assemble, extract_plain_text, score_documents, segment_html)
from .pdf_extract import extract_pdf
from .types import ExtractResult, PayloadKind, Segmented

# no whitespace after '<' — HTML never allows it, and permitting it
# misrouted plain text like "x < a and y > b" into the HTML branch
_MARKUP_RE = re.compile(r"<(?:!doctype|html|head|body|div|p|h[1-6]|a|span|br"
                        r"|table|ul|ol|li|article|section|main|nav|title|meta)\b", re.I)

#: BOMs that legitimately put NUL bytes in text payloads
_TEXT_BOMS = (b"\xff\xfe", b"\xfe\xff", b"\x00\x00\xfe\xff", b"\xef\xbb\xbf")

DEFAULT_CONFIG = ExtractConfig()


def sniff_kind(payload: bytes | None) -> str:
    """Cheap payload router, run per row by :func:`extract_batch`."""
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


def _error_row(e: Exception) -> ExtractResult:
    return ExtractResult(payload_kind=PayloadKind.ERROR,
                         error=f"{type(e).__name__}: {e}")


def _segment(payload: bytes | None, lang: str | None,
             corpus_text: str | None,
             cfg: ExtractConfig) -> Segmented | ExtractResult:
    """One document routed and segmented, or its final row."""
    if cfg.mode == Mode.TEXT_ONLY:
        if not (corpus_text or "").strip():
            return ExtractResult(payload_kind=PayloadKind.EMPTY)
        return extract_plain_text(corpus_text, lang, cfg)

    kind = sniff_kind(payload)
    if kind == PayloadKind.EMPTY:
        return ExtractResult(payload_kind=PayloadKind.EMPTY)
    if kind == PayloadKind.ERROR:
        return ExtractResult(payload_kind=PayloadKind.ERROR,
                             error="binary payload (NUL bytes)")
    if kind == PayloadKind.PDF:
        return extract_pdf(payload, lang, cfg)

    text, charset = decode_payload(payload)
    if not _MARKUP_RE.search(text[:4096]):
        return extract_plain_text(text, lang, cfg, charset)
    return Segmented(segment_html(text, cfg), lang, PayloadKind.HTML,
                     charset)


def extract_batch(payloads: list, langs: list, corpus_texts: list,
                  cfg: ExtractConfig = DEFAULT_CONFIG) -> list[ExtractResult]:
    """One ExtractResult per document of the parallel lists, the
    paragraphs of all of them scored in one pass.  Never raises: a
    document whose segmentation, scoring or assembly fails becomes an
    error row on its own."""
    docs: list[Segmented | ExtractResult] = []
    for payload, lang, ctext in zip(payloads, langs, corpus_texts):
        try:
            docs.append(_segment(payload, lang, ctext, cfg))
        except Exception as e:  # the per-row firewall
            docs.append(_error_row(e))
    segs = [d for d in docs if isinstance(d, Segmented)]
    try:
        confs = iter(score_documents([(d.blocks, d.lang) for d in segs]))
    except Exception:
        # some document breaks the batch pass: score each on its own, so
        # that only the documents that fail become error rows
        confs = iter([None] * len(segs))
    out = []
    for d in docs:
        if isinstance(d, Segmented):
            d_confs = next(confs)
            try:
                res = assemble(d.blocks, d.lang, cfg, d_confs)
                res.payload_kind, res.charset = d.kind, d.charset
            except Exception as e:  # the per-row firewall
                res = _error_row(e)
            d = res
        out.append(d)
    return out


def extract_one(payload: bytes | None, lang: str | None = None,
                corpus_text: str | None = None,
                cfg: ExtractConfig = DEFAULT_CONFIG) -> ExtractResult:
    """One document in → one ExtractResult out: the batch of one.  Never
    raises."""
    return extract_batch([payload], [lang], [corpus_text], cfg)[0]
