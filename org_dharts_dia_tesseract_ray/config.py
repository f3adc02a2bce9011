"""Pipeline configuration — the ``PageConfigurationData`` analogue.

The reference configures the engine with a builder of psm/ppi plus a freeform
``Map<String,String>`` of engine variables
(src/org/dharts/dia/tesseract/PageConfigurationData.java:35-131,
``TesseractHandle.setVariable`` TesseractHandle.java:168-177).  Here the whole
configuration is a frozen dataclass fixed when the extract stage is built,
which designs out the reference's global-parameter thread hazard
(ImageAnalyzerFactory.java:106-116): no worker mutates shared engine state
after that.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BlockRuleContext:
    """The paragraph view handed to user :data:`BlockRule` callables.

    The user-extension surface — analogue of the reference's plugin hooks:
    ``PageItemFactory<ItemType>`` (examples/.../PageItemFactory.java:24-27,
    the empty hook callers implement to materialize their own item types
    from cursor state) and the ``CloseListener``/``ListenerRegistration``
    callback wiring (CloseListener.java:21-24, LayoutIterator.java:150-160).
    Instead of wrapping a stateful cursor, a rule sees one immutable
    paragraph record and may re-type it.
    """

    group: tuple          # parser merge-group, e.g. ("heading", 1), ("flow",)
    text: str             # normalized paragraph text ("" for non-text)
    n_words: int
    n_chars: int
    link_density: float
    default_type: str     # the built-in classifier's verdict (may be NOISE)


#: A BlockRule is any callable ``(BlockRuleContext) -> str | None``:
#: return a BlockType value to re-classify the paragraph (including
#: ``BlockType.NOISE`` to drop it, or a content type to rescue a paragraph
#: the built-in heuristics dropped), or None to keep the default.  Rules
#: are applied in registration order; each sees the ORIGINAL default type.
#: Rules must be pure and deterministic — they run inside the extract
#: tasks under the byte-identity gate.
BlockRule = "Callable[[BlockRuleContext], str | None]"


class Mode:
    """Segmentation mode — PageSegMode analogue (PublicTypes.java:66-120).

    * ``AUTO``       — full DOM block segmentation (PSM_AUTO).
    * ``SINGLE_BLOCK`` — treat the whole document as one flowing-text block
      (PSM_SINGLE_BLOCK).
    * ``TEXT_ONLY``  — trust the corpus-provided ``text`` column, skip HTML
      parsing entirely (no OCR analogue; the "already recognized" path).
    """

    AUTO = "auto"
    SINGLE_BLOCK = "single_block"
    TEXT_ONLY = "text_only"


@dataclass(frozen=True)
class ExtractConfig:
    """Deterministic extraction parameters.

    Every field must be hashable/serializable — the config rides to the
    extract tasks inside the ``map_batches`` UDF.
    """

    mode: str = Mode.AUTO
    # Region-of-interest: restrict extraction to content inside this tag
    # (analyzeLayout(Rectangle) analogue, ImageAnalyzer.java:76).  None = whole
    # document.  Offsets are relative to the ROI extraction's own text (a
    # documented divergence from the reference, which keeps full-image coords).
    selector_tag: str | None = None
    # Character whitelist/blacklist (tessedit_char_whitelist/-blacklist
    # analogue, TesseractHandle.java:150-177 + tessdata/configs/digits).
    char_whitelist: str | None = None
    char_blacklist: str | None = None
    # A text paragraph whose link density exceeds this is classified NOISE
    # (boilerplate) and excluded from the extracted text.
    max_link_density: float = 0.5
    # Paragraphs with at least this many words survive a slightly higher
    # link density (long link-rich paragraphs are often legitimate content).
    long_para_words: int = 25
    long_para_max_link_density: float = 0.65
    # Emit spans below block level (para/line/word rows).
    emit_word_spans: bool = True

    # User-supplied BlockRule callables (see :class:`BlockRuleContext`) —
    # the PageItemFactory/CloseListener-analogue extension point.  A tuple
    # so the config stays hashable; rules ship to workers by value.
    block_rules: tuple = field(default_factory=tuple)

    # freeform passthrough, the setVariable analogue; values must be str.
    variables: tuple = field(default_factory=tuple)

    def get_variable(self, name: str, default=None, *, type: type = str):
        """Typed readback — the ``TesseractHandle.getVariable`` analogue
        (tess4j/TesseractHandle.java:224-259, typed by an exemplar of
        Integer/Boolean/Double/String; invalid type/value raises
        ``InvalidParameterException``).

        ``type`` selects the parse (``str`` | ``int`` | ``bool`` |
        ``float``); a stored value that does not parse as the requested
        type raises ``ValueError`` (the InvalidParameterException
        analogue), any other ``type`` raises ``TypeError``.  A missing
        name returns ``default`` unparsed.  Bool follows the engine's
        int-backed convention: ``1/true/t/yes`` and ``0/false/f/no``
        (case-insensitive)."""
        for k, v in self.variables:
            if k == name:
                if type is str:
                    return v
                if type is int:
                    return int(v)
                if type is float:
                    return float(v)
                if type is bool:
                    lv = v.strip().lower()
                    if lv in ("1", "true", "t", "yes"):
                        return True
                    if lv in ("0", "false", "f", "no"):
                        return False
                    raise ValueError(
                        f"variable {name!r}={v!r} is not a bool")
                raise TypeError(
                    f"unsupported readback type {type!r}: expected "
                    f"str, int, bool, or float")
        return default

    def dump_variables(self):
        """The effective configuration as a ``(name, value, source)`` Arrow
        table — the ``TessBaseAPIPrintVariables`` analogue (TessAPI.java:
        ~560, decl-only in the reference: dumps every engine variable as
        ``name\\tvalue`` lines to a FILE*).  Here the dump is a TABLE, so it
        is queryable/joinable like every other engine output.

        Canonical rendering (matches :meth:`get_variable`'s parses): bools
        as the engine's int-backed ``1``/``0``, floats via ``repr``, unset
        optionals as NULL; dataclass fields carry ``source='field'``,
        freeform ``setVariable`` passthroughs ``source='variable'`` (listed
        after the fields, in registration order).  ``block_rules`` renders
        as its count — callables have no canonical printable form."""
        import pyarrow as pa
        from dataclasses import fields

        def render(v):
            if v is None:
                return None
            if isinstance(v, bool):
                return "1" if v else "0"
            if isinstance(v, float):
                return repr(v)
            return str(v)

        names, values, sources = [], [], []
        for f in fields(self):
            if f.name == "variables":
                continue
            v = getattr(self, f.name)
            if f.name == "block_rules":
                v = len(v)
            names.append(f.name)
            values.append(render(v))
            sources.append("field")
        for k, v in self.variables:
            names.append(k)
            values.append(render(v))
            sources.append("variable")
        return pa.table({"name": pa.array(names, pa.string()),
                         "value": pa.array(values, pa.string()),
                         "source": pa.array(sources, pa.string())})
