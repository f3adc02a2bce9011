"""Value types of the extraction data model.

Analogues of the reference's fixed enums and record classes:

* :class:`Level` — the 5-level page hierarchy,
  ``LayoutIterator.Level`` (reference
  src/org/dharts/dia/tesseract/LayoutIterator.java:97-117).  Tesseract's
  SYMBOL level collapses into character offsets themselves, so the engine
  materializes BLOCK/PARA/LINE/WORD rows only.
* :class:`BlockType` — the ``PolyBlockType`` 13-value vocabulary
  (PublicTypes.java:125-193) re-targeted at DOM blocks, with the same
  ``is_text`` / ``is_image`` predicates (PublicTypes.java:178-192).
* :class:`Span` — flattened cursor node: the analogue of one
  ``LayoutIterator``/``ResultIterator`` position, with the 2-D
  ``BoundingBox`` (BoundingBox.java:26-37) replaced by 1-D ``[start, end)``
  character offsets into the extracted text.
* :class:`ExtractResult` — everything the reference's
  ``RecognitionResultsIterator`` exposes for one document, as plain data.
* :class:`Segmented` — a document between segmentation and assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class Level:
    """Hierarchy levels (LayoutIterator.java:97-117 analogue)."""

    BLOCK = "block"
    PARA = "para"
    LINE = "line"
    WORD = "word"

    ALL = (BLOCK, PARA, LINE, WORD)


class BlockType:
    """DOM block types — PolyBlockType analogue (PublicTypes.java:125-193)."""

    UNKNOWN = "unknown"
    FLOWING_TEXT = "flowing_text"
    HEADING_TEXT = "heading_text"
    PULLOUT_TEXT = "pullout_text"
    TABLE = "table"
    VERTICAL_TEXT = "vertical_text"
    CAPTION_TEXT = "caption_text"
    FLOWING_IMAGE = "flowing_image"
    HEADING_IMAGE = "heading_image"
    PULLOUT_IMAGE = "pullout_image"
    HORZ_LINE = "horz_line"
    VERT_LINE = "vert_line"
    NOISE = "noise"

    _TEXT = {FLOWING_TEXT, HEADING_TEXT, PULLOUT_TEXT, TABLE, VERTICAL_TEXT,
             CAPTION_TEXT}
    _IMAGE = {FLOWING_IMAGE, HEADING_IMAGE, PULLOUT_IMAGE}

    @classmethod
    def is_text(cls, t: str) -> bool:
        """PublicTypes.java:178-185 analogue."""
        return t in cls._TEXT

    @classmethod
    def is_image(cls, t: str) -> bool:
        """PublicTypes.java:187-192 analogue."""
        return t in cls._IMAGE


class PayloadKind:
    """Routing tag for the payload sniffer (``extract.api.sniff_kind``)."""

    HTML = "html"
    PDF = "pdf"
    TEXT = "text"
    EMPTY = "empty"
    ERROR = "error"


class Segmented(NamedTuple):
    """A document routed and segmented into blocks, its paragraphs not yet
    scored: ``extract.api.extract_batch`` scores every such document of a
    batch in one pass, then assembles each into its :class:`ExtractResult`
    of kind ``kind`` decoded with ``charset``."""

    blocks: list
    lang: str | None
    kind: str
    charset: str = ""


@dataclass(slots=True)
class Span:
    """One node of the flattened hierarchy (a cursor position made a row).

    ``node_id`` is dense from 0 per document in depth-first reading order
    (the order ``next(level)`` visits nodes, BasePageHandle.java:128-134);
    ``parent_id`` is -1 for blocks.  ``isAtBeginningOf`` / ``isAtFinalElement``
    (BasePageHandle.java:160-207) are derivable as ``start == parent.start``
    / ``end == parent.end``.
    """

    node_id: int
    parent_id: int
    level: str
    block_type: str
    start: int
    end: int
    confidence: float
    text_density: float
    link_density: float
    # Symbol-level predicates (I13) lifted to word spans — the
    # ``isSubscript`` / ``isSuperscript`` / ``isDropcap`` analogues
    # (RecognitionResultsIterator.java:146-158).  sub/sup are tag-derived
    # (<sub>/<sup>); dropcap is the classic markup pattern (a single
    # uppercase-letter first word split out of its paragraph) — HTML has no
    # direct dropcap signal, CSS-driven dropcaps are invisible here
    # (documented divergence).
    is_subscript: bool = False
    is_superscript: bool = False
    is_dropcap: bool = False
    # Word font attributes — the ``FontAttributes`` analogue
    # (FontAttributes.java:28-59 / RecognitionResultsIterator.java:100-125)
    # re-derived from DOM inline markup instead of glyph classification.
    # Packed bitmask: 1=bold (<b>/<strong>), 2=italic (<i>/<em>),
    # 4=underlined (<u>/<ins>), 8=monospace (<code>/<tt>/<kbd>/<samp> or
    # inside <pre>).  serif/smallcaps/pointsize/fontId have no DOM signal
    # (CSS-driven, invisible here — documented divergence); pointsize's
    # closest analogue is the heading block type.
    font_mask: int = 0


@dataclass
class ExtractResult:
    """Per-document output of the extractor (one row of ``extracted`` +
    its ``spans`` rows)."""

    text: str = ""
    #: block, para and line spans in depth-first order, ``node_id`` = list
    #: position; word rows are interleaved later (``extract.spans``)
    outline: list[Span] = field(default_factory=list)
    #: (para ``node_id`` in ``outline``, the paragraph's per-word masks in
    #: word order) for each paragraph with sub/sup/font markup
    word_masks: list[tuple[int, list[int]]] = field(default_factory=list)
    #: ``node_id`` in ``outline`` of each paragraph whose first word is a
    #: dropcap
    dropcaps: list[int] = field(default_factory=list)
    word_spans: bool = True      # ExtractConfig.emit_word_spans of the run
    doc_confidence: float = 0.0
    n_blocks: int = 0
    payload_kind: str = PayloadKind.EMPTY
    charset: str = ""            # decode path actually used ("utf-8", "latin-1", ...)
    error: str | None = None
    _spans: list[Span] | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def spans(self) -> list[Span]:
        """All span rows, words included, in depth-first ``node_id``
        order — built on first access by the batch word derivation over
        this one document."""
        if self._spans is None:
            from .spans import span_list
            self._spans = span_list(self)
        return self._spans
