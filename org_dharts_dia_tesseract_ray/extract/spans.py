"""Span rows of a batch of extract results, built in columns.

:func:`~.html_extract.assemble` emits the block, para and line spans of a
document (its ``outline``).  Word spans, about nine in ten span rows, are
not built one object at a time: :func:`span_columns` derives them for a
whole batch in one numpy pass from the line spans and the final texts, and
interleaves them into depth-first ``node_id`` order.  It is the one word
rule of the engine; the stage's Arrow column (:func:`span_array`) and the
per-document ``ExtractResult.spans`` are both built from it.

A word is a maximal run of characters other than U+0020 and U+000A.  Every
line is whitespace-collapsed (no other whitespace, no leading, trailing or
double spaces) and lines are joined by newlines, so this is ``line.split("
")`` of each line.  A zero-length line (the placeholder hierarchy of an
image or rule block) gets exactly one zero-length word.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .types import Level, Span

SPAN_STRUCT = pa.struct([
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
    # packed word font attributes (FontAttributes.java:28-59 analogue):
    # 1=bold 2=italic 4=underlined 8=monospace — see extract/types.py
    ("font_mask", pa.uint8()),
])

#: ``level`` codes index ``Level.ALL``
_LEVEL_CODE = {lv: i for i, lv in enumerate(Level.ALL)}
_LEVEL_NAMES = np.array(Level.ALL, object)
_WORD = _LEVEL_CODE[Level.WORD]


def _excl_cumsum(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a) - a


def span_columns(results) -> tuple[np.ndarray, dict, list[str]]:
    """All span rows of ``results`` as numpy columns, documents back to
    back in depth-first order.

    Returns ``(offsets, cols, block_types)``: document ``d``'s rows are
    ``offsets[d]:offsets[d + 1]``; ``cols`` has one array per
    :data:`SPAN_STRUCT` field, where ``level`` holds codes into
    ``Level.ALL`` and ``block_type`` codes into ``block_types``.
    Densities and confidences stay float64, the values ``assemble``
    computed.  A result with ``word_spans`` off contributes no word rows.
    """
    outline: list[Span] = []
    n_rows, texts, on = [], [], []
    mask_para, mask_len, masks, drop_para = [], [], [], []
    for r in results:
        first = len(outline)
        if r.word_spans:
            for pid, m in r.word_masks:
                mask_para.append(first + pid)
                mask_len.append(len(m))
                masks += m
            drop_para += [first + pid for pid in r.dropcaps]
        outline += r.outline
        n_rows.append(len(r.outline))
        texts.append(r.text)
        on.append(r.word_spans)

    n_out = len(outline)
    bt_code: dict[str, int] = {}
    level = np.array([_LEVEL_CODE[s.level] for s in outline], np.int8)
    parent = np.array([s.parent_id for s in outline], np.int64)
    start = np.array([s.start for s in outline], np.int64)
    end = np.array([s.end for s in outline], np.int64)
    btype = np.array([bt_code.setdefault(s.block_type, len(bt_code))
                      for s in outline], np.int32)
    n_rows = np.array(n_rows, np.int64)
    doc = np.repeat(np.arange(len(n_rows)), n_rows)
    doc_first = _excl_cumsum(n_rows)

    # words of the text lines, found in the code points of all texts at
    # once (span offsets count code points, not UTF-8 bytes)
    lens = np.array([len(t) for t in texts], np.int64) + 1
    base = _excl_cumsum(lens)       # each text's offset in the joined string
    cp = np.frombuffer("\n".join(texts).encode("utf-32-le", "surrogatepass"),
                       np.uint32)
    edge = np.diff(np.concatenate(
        ([0], ((cp != 32) & (cp != 10)).view(np.int8), [0])))
    w_start = np.flatnonzero(edge == 1)
    w_end = np.flatnonzero(edge == -1)
    is_line = level == _LEVEL_CODE[Level.LINE]
    text_line = np.flatnonzero(is_line & (end > start))
    # lines ascend through the joined string: the last one starting at or
    # before a word holds it
    line_at = start[text_line] + base[doc[text_line]]
    w_row = text_line[np.searchsorted(line_at, w_start, side="right") - 1]
    empty_line = np.flatnonzero(is_line & (end == start))
    on = np.array(on, bool)
    if not on.all():
        keep = on[doc[w_row]]
        w_row, w_start, w_end = w_row[keep], w_start[keep], w_end[keep]
        empty_line = empty_line[on[doc[empty_line]]]
    n_text_words = len(w_row)
    w_start = w_start - base[doc[w_row]]
    w_end = w_end - base[doc[w_row]]
    # a text line's words are contiguous and in order: rank = index minus
    # the index of the line's first word
    w_rank = np.arange(n_text_words) - np.searchsorted(w_row, w_row)

    # text words first, then one zero-length word per empty line
    n_words = n_text_words + len(empty_line)
    w_mask = np.zeros(n_words, np.int64)
    if masks:
        # a masked paragraph's masks run from the first word of its first
        # line (outline row para + 1)
        mask_len = np.array(mask_len, np.int64)
        first_word = np.searchsorted(w_row, np.array(mask_para) + 1)
        w_mask[np.repeat(first_word - _excl_cumsum(mask_len), mask_len)
               + np.arange(len(masks))] = masks
    w_drop = np.zeros(n_words, bool)
    if drop_para:
        w_drop[np.searchsorted(w_row, np.array(drop_para) + 1)] = True
    w_row = np.concatenate([w_row, empty_line])
    w_start = np.concatenate([w_start, start[empty_line]])
    w_end = np.concatenate([w_end, end[empty_line]])
    w_rank = np.concatenate([w_rank, np.zeros(len(empty_line), np.int64)])

    # re-number: each outline row moves down by the words of the lines
    # before it in its document; a line's words follow it directly
    row0 = doc_first[doc]           # each outline row's document's first row
    shift = _excl_cumsum(np.bincount(w_row, minlength=n_out))
    node = np.arange(n_out) - row0 + shift - shift[row0]
    parent = np.where(parent < 0, -1, node[row0 + np.maximum(parent, 0)])
    w_parent = node[w_row]
    w_node = w_parent + 1 + w_rank

    w_doc = doc[w_row]
    total = n_rows + np.bincount(w_doc, minlength=len(n_rows))
    offsets = np.concatenate(([0], np.cumsum(total)))
    pos = offsets[doc] + node
    w_pos = offsets[w_doc] + w_node

    def scatter(vals, w_vals, dtype):
        out = np.empty(int(offsets[-1]), dtype)
        out[pos] = vals
        out[w_pos] = w_vals
        return out

    src = scatter(np.arange(n_out), w_row, np.int64)   # row copied from
    mask = scatter(0, w_mask, np.int64)
    cols = {
        "node_id": scatter(node, w_node, np.int32),
        "parent_id": scatter(parent, w_parent, np.int32),
        "level": scatter(level, _WORD, np.int8),
        "block_type": btype[src],
        "start": scatter(start, w_start, np.int64),
        "end": scatter(end, w_end, np.int64),
        "is_subscript": (mask & 1) != 0,
        "is_superscript": (mask & 2) != 0,
        "is_dropcap": scatter(False, w_drop, bool),
        "font_mask": (mask >> 2).astype(np.uint8),
    }
    cols["confidence"] = np.array([s.confidence for s in outline])[src]
    cols["text_density"] = np.array([s.text_density for s in outline])[src]
    cols["link_density"] = np.array([s.link_density for s in outline])[src]
    return offsets, cols, list(bt_code)


def span_array(results) -> pa.ListArray:
    """``list<SPAN_STRUCT>``, one list per result: the ``spans`` column of
    the extract stage."""
    offsets, cols, block_types = span_columns(results)
    arrays = []
    for f in SPAN_STRUCT:
        v = cols[f.name]
        if f.name == "level":
            arrays.append(pc.take(pa.array(Level.ALL), v))
        elif f.name == "block_type":
            arrays.append(pc.take(pa.array(block_types, pa.string()), v))
        else:
            arrays.append(pa.array(v.astype(f.type.to_pandas_dtype())))
    return pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.StructArray.from_arrays(arrays, fields=list(SPAN_STRUCT)))


def span_list(result) -> list[Span]:
    """One result's span rows as :class:`Span` objects (the lazily built
    ``ExtractResult.spans``)."""
    _, cols, block_types = span_columns([result])
    levels = _LEVEL_NAMES[cols["level"]]
    btypes = np.array(block_types, object)[cols["block_type"]]
    fields = [levels if f.name == "level" else
              btypes if f.name == "block_type" else cols[f.name]
              for f in SPAN_STRUCT]
    return list(map(Span, *(c.tolist() for c in fields)))
