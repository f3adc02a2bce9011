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

An HTML document is segmented per document, but its paragraphs are scored
with the rest of its batch: :func:`extract_one` with ``segment_only``
returns a :class:`Segmented` document, and :func:`finish_batch` scores
every such document of a batch in one pass and assembles each.  Without
``segment_only``, ``extract_one`` is that batch of one.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..config import ExtractConfig, Mode
from .charset import decode_payload
from .html_extract import (
    assemble, extract_plain_text, score_documents, segment_html)
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


class Segmented(NamedTuple):
    """An HTML document segmented into blocks, not yet scored or
    assembled."""

    blocks: list
    lang: str | None
    charset: str


def _error_row(e: Exception) -> ExtractResult:
    return ExtractResult(payload_kind=PayloadKind.ERROR,
                         error=f"{type(e).__name__}: {e}")


def extract_one(
    payload: bytes | None,
    lang: str | None = None,
    corpus_text: str | None = None,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    segment_only: bool = False,
) -> ExtractResult | Segmented:
    """One document in → one ExtractResult out.  Never raises.

    With ``segment_only`` an HTML document comes back :class:`Segmented`,
    for :func:`finish_batch`."""
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
        if not _MARKUP_RE.search(text[:4096]):
            res = extract_plain_text(text, lang, cfg)
            res.charset = charset
            return res
        doc = Segmented(segment_html(text, cfg), lang, charset)
    except Exception as e:  # the per-row firewall
        return _error_row(e)
    return doc if segment_only else finish_batch([doc], cfg)[0]


def finish_batch(docs: list, cfg: ExtractConfig = DEFAULT_CONFIG) -> list:
    """``docs`` with every :class:`Segmented` document assembled into its
    ExtractResult, the paragraphs of all of them scored in one pass.
    Never raises: a document whose scoring or assembly fails becomes an
    error row on its own."""
    segs = [d for d in docs if isinstance(d, Segmented)]
    if not segs:
        return docs
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
                res.charset = d.charset
            except Exception as e:  # the per-row firewall
                res = _error_row(e)
            d = res
        out.append(d)
    return out
