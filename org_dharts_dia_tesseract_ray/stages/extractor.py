"""The extraction stage — the engine's flagship transform.

This is the Ray-Data reimagining of the reference's per-document recognition
loop (one ``ImageAnalyzerFactory`` per thread with documents fed one at a
time, reference ImageAnalyzerFactory.java:40-43, 204-211):
an :class:`HtmlExtractor` instance mapped with ``map_batches`` as an
ordinary task function, per-document work in ``__call__`` over zero-copy
Arrow batches.  Nothing expensive is built per worker (``__init__`` only
stores the config), so a plain task pool beats an actor pool here.

Output schema = ``extracted`` document rows (SURVEY.md §1.3) plus a nested
``spans`` list<struct> column: ONE parse pass produces both tables; the
``spans`` table is a cheap columnar explode downstream
(:func:`explode_spans_batch`), never a re-parse.  ``extract_batch``
segments each document of the batch, whatever its payload kind, scores the
paragraphs of all of them in one pass and lays out each document's text
plus block, para and line spans.  The word rows, about nine in ten span
rows, are derived once per batch in columns (``extract.spans.span_array``),
never one ``Span`` object per word.
The input ``html`` payload column is dropped on output so downstream blocks
shrink (SURVEY.md §4 memory note).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..config import ExtractConfig
# extract_one: the stage's per-row result, one document at a time
from ..extract.api import extract_batch, extract_one  # noqa: F401
from ..extract.spans import SPAN_STRUCT, span_array

EXTRACTED_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us", tz="UTC")),
    ("lang", pa.string()),
    ("extracted_text", pa.string()),
    ("doc_confidence", pa.float32()),
    ("n_blocks", pa.int32()),
    ("payload_kind", pa.string()),
    ("charset", pa.string()),
    ("payload_bytes", pa.int64()),
    ("error", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
])

SPANS_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("node_id", pa.int32()),
    ("parent_id", pa.int32()),
    ("level", pa.string()),
    ("block_type", pa.string()),
    ("start", pa.int64()),
    ("end", pa.int64()),
    ("confidence", pa.float32()),
    ("text_density", pa.float32()),
    ("link_density", pa.float32()),
    ("is_subscript", pa.bool_()),
    ("is_superscript", pa.bool_()),
    ("is_dropcap", pa.bool_()),
    ("font_mask", pa.uint8()),
])


class HtmlExtractor:
    """The extract UDF (ST1 in SURVEY.md §2.3).

    The config is frozen at construction — designing out the reference's
    cross-thread setVariable hazard (ImageAnalyzerFactory.java:106-116) —
    and the instance ships to tasks by value.  ``__call__`` runs per batch
    and is a pure function of the batch: no state survives between
    documents (the adaptive-classifier behavior of TessAPI.java:536 is
    deliberately NOT replicated — determinism gate).
    """

    def __init__(self, cfg: ExtractConfig | None = None):
        self.cfg = cfg or ExtractConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        urls = batch["url"]
        lang_col = batch["lang"] if "lang" in batch.column_names else None
        text_col = batch["text"] if "text" in batch.column_names else None
        ts_col = batch["warc_ts"]

        # bulk-convert once (chunk-wise C loop) — per-element .as_py() costs
        # a Python call per cell
        payloads = batch["html"].to_pylist()
        langs = lang_col.to_pylist() if lang_col is not None else [None] * n
        ctexts = text_col.to_pylist() if text_col is not None else [None] * n
        results = extract_batch(payloads, langs, ctexts, cfg)

        def col(name, typ):
            return pa.array([getattr(r, name) for r in results], typ)

        return pa.Table.from_arrays(
            [
                urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls,
                ts_col.combine_chunks() if isinstance(ts_col, pa.ChunkedArray) else ts_col,
                (lang_col.combine_chunks() if isinstance(lang_col, pa.ChunkedArray)
                 else lang_col) if lang_col is not None
                else pa.nulls(n, pa.string()),
                col("text", pa.string()),
                col("doc_confidence", pa.float32()),
                col("n_blocks", pa.int32()),
                col("payload_kind", pa.string()),
                col("charset", pa.string()),
                pa.array([len(p) if p is not None else 0 for p in payloads],
                         pa.int64()),
                col("error", pa.string()),
                # word rows derived once for the whole batch, in columns
                span_array(results),
            ],
            schema=EXTRACTED_SCHEMA,
        )


def explode_spans_batch(batch: pa.Table) -> pa.Table:
    """Vectorized explode of the nested spans column → flat spans table.

    The columnar equivalent of the reference's BlockIterator flatten
    (examples/.../BlockIterator.java:57-81): ``list_parent_indices`` +
    ``list_flatten`` — no Python per-row loop.
    """
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    parent_idx = pc.list_parent_indices(spans)
    flat = pc.list_flatten(spans)
    urls = pc.take(batch["url"], parent_idx)
    cols = [urls] + [flat.field(i) for i in range(len(SPAN_STRUCT))]
    return pa.Table.from_arrays(cols, schema=SPANS_SCHEMA)


BOXES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("node_id", pa.int32()),
    ("level", pa.string()),
    ("start", pa.int64()),
    ("end", pa.int64()),
    ("box_text", pa.string()),
    ("is_first_in_parent", pa.bool_()),
    ("is_last_in_parent", pa.bool_()),
])


def boxes_batch(batch: pa.Table, *, level: str = "line") -> pa.Table:
    """Box-format emitter — the ``TessBaseAPIGetBoxText`` analogue (M8 in
    SURVEY.md §2.2): one row per span at ``level`` with its text slice, plus
    the cursor-algebra predicates ``isAtBeginningOf`` / ``isAtFinalElement``
    (I3/I4, LayoutIterator.java:216-218, 252-254) derived by offset
    arithmetic against the parent span — the flattened-table equivalent of
    the reference's cursor state queries.

    Vectorized like :func:`explode_spans_batch`: flatten + parent lookup
    via global index arithmetic (a span's position inside its document's
    list equals its ``node_id`` — ids are dense in depth-first order,
    ``extract.spans``), so the parent row of flat position j is
    ``list_offset(doc) + parent_id``.  Only the final text slice runs per
    row (a C-level str slice), never a per-span dict conversion."""
    import numpy as np

    spans_col = batch["spans"]
    if isinstance(spans_col, pa.ChunkedArray):
        spans_col = spans_col.combine_chunks()
    flat = pc.list_flatten(spans_col)
    parent_row = np.asarray(pc.list_parent_indices(spans_col))
    # rebase physical list offsets to the flattened (logical) value space
    offs = np.asarray(spans_col.offsets, dtype=np.int64)
    doc_offsets = (offs - offs[0])[:-1]

    nid = np.asarray(flat.field("node_id"), dtype=np.int64)
    pid = np.asarray(flat.field("parent_id"), dtype=np.int64)
    start = np.asarray(flat.field("start"))
    end = np.asarray(flat.field("end"))
    # parent span's global flat index (clamped for root spans, pid == -1)
    pg = doc_offsets[parent_row] + np.maximum(pid, 0)
    is_root = pid < 0
    p_start = start[pg]
    p_end = end[pg]
    first = is_root | (start == p_start)
    last = is_root | (end == p_end)

    keep = np.flatnonzero(np.asarray(pc.equal(flat.field("level"), level)))
    texts = batch["extracted_text"].to_pylist()
    k_row = parent_row[keep]
    k_s = start[keep]
    k_e = end[keep]
    slices = [texts[r][s:e]
              for r, s, e in zip(k_row.tolist(), k_s.tolist(), k_e.tolist())]
    keep_arr = pa.array(keep, pa.int64())
    return pa.Table.from_arrays(
        [pc.take(batch["url"], pa.array(k_row, pa.int64())),
         flat.field("node_id").take(keep_arr),
         flat.field("level").take(keep_arr),
         pa.array(k_s, pa.int64()), pa.array(k_e, pa.int64()),
         pa.array(slices, pa.string()),
         pa.array(first[keep]), pa.array(last[keep])],
        schema=BOXES_SCHEMA)


WORD_PRED_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("start", pa.int64()),
    ("end", pa.int64()),
    ("word", pa.string()),
    ("is_dictionary_word", pa.bool_()),
    ("is_numeric", pa.bool_()),
])


def word_predicates_batch(batch: pa.Table) -> pa.Table:
    """``isDictionaryWord`` / ``isNumeric`` word predicates — the I12
    analogue (RecognitionResultsIterator.java:128-136,
    ResultHandle.java:131-151): one row per word span with the two
    predicate columns, dictionary membership per the document's language
    (``html_extract.dictionary_words`` — the TessBaseAPIIsValidWord
    analogue, the very test the confidence score's dictionary-hit feature
    makes).

    Vectorized like :func:`boxes_batch`: flatten + slice, then pyarrow
    trim/index_in/regex kernels — the only per-row Python is the text
    slice and its ``str.lower``."""
    import numpy as np

    from ..extract.html_extract import dictionary_words, stop_code

    spans_col = batch["spans"]
    if isinstance(spans_col, pa.ChunkedArray):
        spans_col = spans_col.combine_chunks()
    flat = pc.list_flatten(spans_col)
    parent_row = np.asarray(pc.list_parent_indices(spans_col))
    start = np.asarray(flat.field("start"))
    end = np.asarray(flat.field("end"))
    is_word = np.asarray(pc.equal(flat.field("level"), "word"))
    # zero-length word spans are the non-text-block placeholder words —
    # they carry no text and are not predicate subjects
    keep = np.flatnonzero(is_word & (end > start))
    k_row = parent_row[keep]
    k_s = start[keep]
    k_e = end[keep]
    texts = batch["extracted_text"].to_pylist()
    words = [texts[r][s:e]
             for r, s, e in zip(k_row.tolist(), k_s.tolist(), k_e.tolist())]
    warr = pa.array(words, pa.string())
    langs = (batch["lang"].to_pylist() if "lang" in batch.column_names
             else [None] * batch.num_rows)
    codes = np.array([stop_code(lg) for lg in langs], np.intp)
    norm, isdict = dictionary_words(
        pa.array([w.lower() for w in words], pa.string()), codes[k_row])
    isnum = np.asarray(pc.match_substring_regex(norm, r"^[0-9]+$"))
    return pa.Table.from_arrays(
        [pc.take(batch["url"], pa.array(k_row, pa.int64())),
         pa.array(k_s, pa.int64()), pa.array(k_e, pa.int64()),
         warr, pa.array(isdict), pa.array(isnum)],
        schema=WORD_PRED_SCHEMA)


def apply_word_predicates(ds, **kwargs):
    return ds.map_batches(word_predicates_batch, batch_format="pyarrow",
                          zero_copy_batch=True, **kwargs)


def apply_boxes(ds, *, level: str = "line", **kwargs):
    return ds.map_batches(lambda b: boxes_batch(b, level=level),
                          batch_format="pyarrow", zero_copy_batch=True,
                          **kwargs)


HOCR_SCHEMA = pa.schema([("url", pa.string()), ("hocr", pa.string())])

_HOCR_DEPTH = {"block": 1, "para": 2, "line": 3, "word": 4}


def _hocr_esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _hocr_render(text: str, idxs, lvls, nids, sts, ens, confs,
                 include_words: bool) -> str:
    """One document's hOCR string — the ``TessBaseAPIGetHOCRText`` analogue
    (reference TessAPI.java:494, hOCR spec class names).  The reference's
    2-D ``bbox x0 y0 x1 y1`` becomes the 1-D offset form ``bbox start 0
    end 1`` (I5's BoundingBox→offset mapping); the spans table remains the
    structured source of truth, this is its rendering.

    Spans arrive in depth-first reading order (the order ``next(level)``
    visits nodes, BasePageHandle.java:128-134), so a close-to-depth stack
    rebuilds the nesting without consulting ``parent_id``.  The fields come
    as parallel lists straight from the Arrow struct fields (a whole-column
    ``to_pylist`` on the nested struct list costs ~35× the rendering
    itself; per-field primitive ``to_pylist`` is cheap)."""
    out = [f"<div class='ocr_page' id='page_0' "
           f"title='bbox 0 0 {len(text)} 1'>"]
    close: list[str] = []

    def close_to(depth: int) -> None:
        while len(close) >= depth:
            out.append(close.pop())

    for i in idxs:
        lvl = lvls[i]
        close_to(_HOCR_DEPTH[lvl])
        nid, st, en = nids[i], sts[i], ens[i]
        if lvl == "block":
            out.append(f"<div class='ocr_carea' id='block_{nid}' "
                       f"title='bbox {st} 0 {en} 1'>")
            close.append("</div>")
        elif lvl == "para":
            out.append(f"<p class='ocr_par' id='par_{nid}'>")
            close.append("</p>")
        elif lvl == "line":
            head = (f"<span class='ocr_line' id='line_{nid}' "
                    f"title='bbox {st} 0 {en} 1'>")
            if include_words:
                out.append(head)
                close.append("</span>")
            else:
                out.append(head + _hocr_esc(text[st:en]) + "</span>")
        elif lvl == "word" and include_words:
            # confidence is already on the hOCR 0-100 scale
            # (score_paragraphs emits 0-100; same scale unlv reject_below
            # documents) — a further ×100 put x_wconf on 0-10000
            conf = int(round(float(confs[i])))
            out.append(f"<span class='ocrx_word' id='word_{nid}' "
                       f"title='bbox {st} 0 {en} 1; x_wconf {conf}'>"
                       + _hocr_esc(text[st:en]) + "</span>")
    close_to(1)
    out.append("</div>")
    return "\n".join(out)


def _flat_span_fields(spans_col: pa.ListArray, names: list[str]):
    """(doc offsets, {field: flat Python list}) for the fields ``names`` —
    the shared columnar fast path for the string renderers."""
    import numpy as np
    flat = pc.list_flatten(spans_col)
    offs = np.asarray(spans_col.offsets, dtype=np.int64)
    offs = offs - offs[0]
    return offs, {n: flat.field(n).to_pylist() for n in names}


def hocr_batch(batch: pa.Table, *, include_words: bool = False) -> pa.Table:
    """(url, hocr) — hOCR rendering of each document (M7's string form).
    String assembly is inherently per-document; the heavy work (parsing,
    span extraction) already happened once in the extract stage — this is a
    pure formatting pass over its output."""
    spans_col = batch["spans"]
    if isinstance(spans_col, pa.ChunkedArray):
        spans_col = spans_col.combine_chunks()
    texts = batch["extracted_text"].to_pylist()
    offs, f = _flat_span_fields(
        spans_col, ["level", "node_id", "start", "end", "confidence"])
    docs = [_hocr_render(texts[d] or "", range(offs[d], offs[d + 1]),
                         f["level"], f["node_id"], f["start"], f["end"],
                         f["confidence"], include_words)
            for d in range(batch.num_rows)]
    return pa.Table.from_arrays(
        [batch["url"].combine_chunks()
         if isinstance(batch["url"], pa.ChunkedArray) else batch["url"],
         pa.array(docs, pa.string())],
        schema=HOCR_SCHEMA)


def apply_hocr(ds, *, include_words: bool = False, **kwargs):
    return ds.map_batches(lambda b: hocr_batch(b, include_words=include_words),
                          batch_format="pyarrow", zero_copy_batch=True,
                          **kwargs)


UNLV_SCHEMA = pa.schema([("url", pa.string()), ("unlv", pa.string())])


def _unlv_render(text: str, idxs, lvls, btypes, sts, ens, confs, subs,
                 sups, reject_below: float) -> str:
    """One document's UNLV-format string — the ``TessBaseAPIGetUNLVText``
    analogue (reference binding TessAPI.java:512; the third trivial
    projection over the spans table next to hOCR and boxes).

    1-D adaptation of the UNLV conventions: words space-joined per line,
    one line per text line, a blank line between blocks, trailing newline;
    superscript words prefixed ``^`` and subscript words ``_`` (the
    word-flag analogues of UNLV's scripted-character markers,
    RecognitionResultsIterator.java:146-158); words whose confidence falls
    below ``reject_below`` (0-100 scale) are masked to ``~`` per character
    (the UNLV reject character).  Non-text blocks are skipped entirely —
    UNLV carries recognized text only.  Fields as parallel lists (see
    :func:`_hocr_render`)."""
    from ..extract.types import BlockType

    lines: list[tuple[int, list[str]]] = []      # (block ordinal, words)
    block_i = -1
    in_text_block = False
    for i in idxs:
        lvl = lvls[i]
        if lvl == "block":
            block_i += 1
            in_text_block = BlockType.is_text(btypes[i])
        elif not in_text_block:
            continue
        elif lvl == "line":
            lines.append((block_i, []))
        elif lvl == "word" and lines:
            w = text[sts[i]:ens[i]]
            if float(confs[i]) < reject_below:
                w = "~" * len(w)
            if sups[i]:
                w = "^" + w
            elif subs[i]:
                w = "_" + w
            lines[-1][1].append(w)
    out: list[str] = []
    prev_block = None
    for bi, words in lines:
        if prev_block is not None and bi != prev_block:
            out.append("")                       # blank line between blocks
        prev_block = bi
        out.append(" ".join(words))
    return "\n".join(out) + "\n" if out else ""


def unlv_batch(batch: pa.Table, *, reject_below: float = 0.0) -> pa.Table:
    """(url, unlv) — UNLV rendering of each document.  Pure formatting pass
    over the extract output, same altitude as :func:`hocr_batch`."""
    spans_col = batch["spans"]
    if isinstance(spans_col, pa.ChunkedArray):
        spans_col = spans_col.combine_chunks()
    texts = batch["extracted_text"].to_pylist()
    offs, f = _flat_span_fields(
        spans_col, ["level", "block_type", "start", "end", "confidence",
                    "is_subscript", "is_superscript"])
    docs = [_unlv_render(texts[d] or "", range(offs[d], offs[d + 1]),
                         f["level"], f["block_type"], f["start"], f["end"],
                         f["confidence"], f["is_subscript"],
                         f["is_superscript"], reject_below)
            for d in range(batch.num_rows)]
    return pa.Table.from_arrays(
        [batch["url"].combine_chunks()
         if isinstance(batch["url"], pa.ChunkedArray) else batch["url"],
         pa.array(docs, pa.string())],
        schema=UNLV_SCHEMA)


def apply_unlv(ds, *, reject_below: float = 0.0, **kwargs):
    return ds.map_batches(lambda b: unlv_batch(b, reject_below=reject_below),
                          batch_format="pyarrow", zero_copy_batch=True,
                          **kwargs)


def apply_explode_spans(ds, **kwargs):
    return ds.map_batches(explode_spans_batch, batch_format="pyarrow",
                          zero_copy_batch=True, **kwargs)
