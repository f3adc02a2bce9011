"""Driver-testdata adapter: the `documents` table as a web-page corpus.

The correctness harness runs over the driver's TPC-H-ish tables; this module
deterministically wraps `documents.text` into the Common-Crawl-shaped `pages`
schema (BASELINE.json input_hint) — nav/footer boilerplate and all — so the
FULL flagship extraction pipeline becomes DuckDB-oracle-checkable: the
extractor must strip the injected boilerplate and return byte-identical
``'Doc {id}\\n\\n' || text`` per url (the LayoutIteratorTests golden-count
analogue, /root/reference/tests/.../LayoutIteratorTests.java:54-64, upgraded
from counts to bytes).
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

#: fixed epoch for synthetic warc_ts (2026-01-01T00:00:00Z in µs)
_TS_BASE_US = 1_767_225_600_000_000

#: the wrap template — nav + footer are link-farm boilerplate the extractor
#: must classify NOISE; <article> holds one heading + one flowing paragraph.
_TEMPLATE = ("<html><head><title>d{id}</title>"
             '<meta charset="utf-8"></head><body>'
             '<nav><a href="/">home</a> <a href="/{id}">self</a></nav>'
             "<article><h1>Doc {id}</h1><p>{text}</p></article>"
             '<footer><a href="/about">about</a> © corpus</footer>'
             "</body></html>")


def wrap_documents_batch(batch: pa.Table,
                         template: str = _TEMPLATE) -> pa.Table:
    """``documents`` rows → ``pages`` rows, the html formatted from
    ``template`` (the base page or one of the ``_TEMPLATE_*`` variants)."""
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    html = [template.format(id=i, text=t).encode("utf-8")
            for i, t in zip(ids, texts)]
    ts = pa.array([_TS_BASE_US + i * 1_000_000 for i in ids],
                  pa.timestamp("us", tz="UTC"))
    return pa.table({
        "url": pa.array([f"https://corpus.test/doc/{i}" for i in ids],
                        pa.string()),
        "warc_ts": ts,
        "html": pa.array(html, pa.binary()),
        "text": batch["text"],
        "lang": batch["lang"],
    })


def _pdf_escape(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def make_pdf_payload(doc_id: int, text: str, *, flate: bool = False) -> bytes:
    """Minimal deterministic PDF: one content stream, one BT/ET text object,
    heading + body as two Tj lines (the shape pdf_extract.py §scope covers).
    ``flate=True`` wraps the stream in FlateDecode (zlib level fixed at 6 so
    bytes are reproducible).

    NOTE: ``sources/gen_corpus.make_pdf`` emits the same minimal-PDF shape
    for the fixture corpus; both byte layouts are pinned by oracles/goldens
    (mixed_pdf SQL here, golden parquet there), so they deliberately stay
    separate rather than sharing a writer whose refactor would shift both
    pinned families at once — keep their escaping/framing rules in sync by
    hand when touching either."""
    import zlib
    content = (f"BT (Doc {doc_id}) Tj ({_pdf_escape(text)}) Tj ET"
               ).encode("latin-1")
    if flate:
        body = zlib.compress(content, 6)
        head = b"<< /Filter /FlateDecode >>\nstream\n"
    else:
        body = content
        head = b"<< /Length %d >>\nstream\n" % len(body)
    return (b"%PDF-1.4\n1 0 obj\n" + head + body +
            b"\nendstream\nendobj\n%%EOF\n")


def wrap_documents_batch_mixed(batch: pa.Table, *, pdf_every: int = 10,
                               flate_every: int = 20) -> pa.Table:
    """Like :func:`wrap_documents_batch` but every ``pdf_every``-th doc gets
    a PDF payload (every ``flate_every``-th of those Flate-compressed) —
    exercising the sniff router + PDF branch end-to-end."""
    t = wrap_documents_batch(batch)
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    html = t["html"].to_pylist()
    for i, (did, txt) in enumerate(zip(ids, texts)):
        if did % pdf_every == 0:
            html[i] = make_pdf_payload(did, txt,
                                       flate=(did % flate_every == 0))
    return t.set_column(2, "html", pa.array(html, pa.binary()))


#: template variant whose body paragraph carries <sub>/<sup> content — the
#: fixture for the I13 word-flag predicates (isSubscript/isSuperscript,
#: RecognitionResultsIterator.java:146-158)
_TEMPLATE_SUBSUP = _TEMPLATE.replace(
    "<p>{text}</p>",
    "<p>{text} H<sub>2</sub>O and mc<sup>2</sup></p>")


#: template variant whose body paragraph carries the four DOM-expressible
#: font attributes plus one nested bold-italic word — the fixture for the
#: FontAttributes analogue (I11; FontAttributes.java:28-59,
#: RecognitionResultsIterator.java:100-125)
_TEMPLATE_FONTATTRS = _TEMPLATE.replace(
    "<p>{text}</p>",
    "<p>{text} <b>bold1</b> <i>ital1</i> <u>under1</u> "
    "<code>mono1</code> <b><i>bi1</i></b></p>")


#: template variant whose head carries the crawl-index metadata fields —
#: the fixture for the extract_meta head projection (title is in the base
#: template already)
_TEMPLATE_META = _TEMPLATE.replace(
    '<meta charset="utf-8">',
    '<meta charset="utf-8">'
    '<meta name="description" content="Document {id} of the corpus">'
    '<link rel="canonical" href="https://corpus.test/doc/{id}">')


def wrap_documents_batch_dup(batch: pa.Table) -> pa.Table:
    """TWO captures per url: the original page at warc_ts, and a revised
    page ('rev2 ' prefixed body) one hour later — the Common-Crawl
    recrawl shape the url-dedup stage must resolve to the LATEST capture."""
    import pyarrow.compute as pc

    v1 = wrap_documents_batch(batch)
    b2 = batch.set_column(
        batch.column_names.index("text"), "text",
        pc.binary_join_element_wise(
            pa.array(["rev2"] * batch.num_rows), batch["text"], " "))
    v2 = wrap_documents_batch(b2)
    v2 = v2.set_column(
        1, "warc_ts",
        pc.add(v2["warc_ts"],
               pa.scalar(3_600_000_000, pa.duration("us"))).cast(
                   v2["warc_ts"].type))
    # restore the corpus text column on v2 (the wrap bakes the revision
    # into the HTML payload; the text column is corpus metadata)
    v2 = v2.set_column(3, "text", batch["text"])
    return pa.concat_tables([v1, v2])


#: page-wrap variants of :func:`pages_from_documents`, by name
_WRAPS = {
    "plain": wrap_documents_batch,
    "mixed_pdf": wrap_documents_batch_mixed,
    "subsup": partial(wrap_documents_batch, template=_TEMPLATE_SUBSUP),
    "dup_captures": wrap_documents_batch_dup,
    "font_attrs": partial(wrap_documents_batch, template=_TEMPLATE_FONTATTRS),
    "meta": partial(wrap_documents_batch, template=_TEMPLATE_META),
}


def read_testdata(sf_dir: str, table: str, columns=None):
    """``{sf_dir}/{table}.parquet`` as a Dataset, without the file's schema
    metadata: the test-data files carry pandas metadata, and a schema with
    metadata cannot be hashed, so Ray's schema unification logs "Failed to
    hash the schemas" for every exchange over the read."""
    path = f"{sf_dir}/{table}.parquet"
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def pages_from_documents(sf_dir: str, variant: str = "plain"):
    """documents.parquet → pages Dataset (lazy, streaming), wrapped by the
    ``variant`` named in ``_WRAPS``."""
    wrap = _WRAPS[variant]
    ds = read_testdata(sf_dir, "documents", ["doc_id", "text", "lang"])
    return ds.map_batches(wrap, batch_format="pyarrow", zero_copy_batch=True)


def roundtrip_extract(sf_dir: str, cfg=None, **kwargs):
    """Flagship pipeline over the wrapped corpus → combined extracted Dataset."""
    from .extract_pipeline import extract_pages
    return extract_pages(pages_from_documents(sf_dir), cfg, **kwargs)


def _template_sql_expr(template: str, table_alias: str = "") -> str:
    """Rebuild a wrap template as a DuckDB string expression — the SQL
    oracle's html is DERIVED from the same Python constant the wrap uses,
    so the two sides cannot drift."""
    import re as _re

    prefix = f"{table_alias}." if table_alias else ""
    parts = _re.split(r"\{(id|text)\}", template)
    out = []
    for i, p in enumerate(parts):
        if i % 2 == 0:
            if p:
                out.append("'" + p.replace("'", "''") + "'")
        else:
            out.append(f"{prefix}doc_id" if p == "id" else f"{prefix}text")
    return " || ".join(out)


def links_sql(table: str = "documents") -> str:
    """Oracle for extract_links over the wrapped corpus: DuckDB
    regexp_extract_all + parallel unnest replicate the operator's
    two-split plan (same RE2 engine, same resolved-url contract)."""
    from ..functions.links import resolved_sql
    html = _template_sql_expr(_TEMPLATE)
    return f"""
WITH p AS (
  SELECT 'https://corpus.test/doc/' || doc_id AS src, {html} AS html
  FROM {table}
), e AS (
  SELECT src, regexp_extract_all(html, 'href="([^"]*)"', 1) AS hs FROM p
), u AS (
  SELECT src,
         unnest(generate_series(0, len(hs) - 1)) AS pos,
         unnest(hs) AS href
  FROM e
)
SELECT src, pos, href,
  {resolved_sql("src", "href")} AS resolved
FROM u"""


def meta_sql(table: str = "documents") -> str:
    """Oracle for extract_meta over the meta-wrapped corpus (independent
    RE2 replica of the head projection)."""
    html = _template_sql_expr(_TEMPLATE_META)
    return f"""
WITH p AS (
  SELECT 'https://corpus.test/doc/' || doc_id AS url, {html} AS html
  FROM {table}
)
SELECT url,
  regexp_extract(html, '<title>([^<]*)</title>', 1) AS title,
  regexp_extract(html, '<meta name="description" content="([^"]*)"', 1)
    AS meta_description,
  regexp_extract(html, '<link rel="canonical" href="([^"]*)"', 1)
    AS canonical
FROM p"""


def mode_sql(mode: str, table: str = "documents") -> str:
    """Oracles for the PageSegMode/ROI/char-filter analogues (M9/M2/M11 in
    SURVEY.md §2.2) run over the wrapped corpus."""
    url = "'https://corpus.test/doc/' || doc_id"
    if mode == "text_only":
        return (f"SELECT {url} AS url, text AS extracted_text, "
                f"1 AS n_blocks, 'text' AS payload_kind FROM {table}")
    if mode == "single_block":
        # SINGLE_BLOCK keeps boilerplate text too (whole page, one block)
        return (f"SELECT {url} AS url, "
                f"'home self' || chr(10) || 'Doc ' || doc_id || chr(10) || "
                f"text || chr(10) || 'about © corpus' AS extracted_text, "
                f"1 AS n_blocks, 'html' AS payload_kind FROM {table}")
    if mode == "charfilter_digits":
        # whitelist 0-9: only the doc id digits in the heading survive
        return (f"SELECT {url} AS url, "
                f"CAST(doc_id AS VARCHAR) AS extracted_text, "
                f"1 AS n_blocks, 'html' AS payload_kind FROM {table}")
    if mode == "selector_article":
        # ROI <article> == the roundtrip result (boilerplate sits outside)
        return (f"SELECT {url} AS url, "
                f"'Doc ' || doc_id || chr(10) || chr(10) || text "
                f"AS extracted_text, 2 AS n_blocks, 'html' AS payload_kind "
                f"FROM {table}")
    raise KeyError(mode)


def roundtrip_sql(table: str = "documents") -> str:
    """Oracle for the document-level roundtrip: boilerplate stripped, heading
    + body joined by a blank line, byte-identical per url."""
    return f"""
SELECT 'https://corpus.test/doc/' || doc_id AS url,
       'Doc ' || doc_id || chr(10) || chr(10) || text AS extracted_text,
       2 AS n_blocks,
       'html' AS payload_kind,
       'utf-8' AS charset
FROM {table}"""


def mixed_pdf_sql(table: str = "documents", pdf_every: int = 10) -> str:
    """Oracle for the mixed HTML/PDF corpus: PDF docs (one text object, two
    Tj lines → one flowing block) vs HTML docs (heading + body blocks)."""
    return f"""
SELECT 'https://corpus.test/doc/' || doc_id AS url,
  CASE WHEN doc_id % {pdf_every} = 0
       THEN 'Doc ' || doc_id || chr(10) || text
       ELSE 'Doc ' || doc_id || chr(10) || chr(10) || text END
    AS extracted_text,
  CASE WHEN doc_id % {pdf_every} = 0 THEN 1 ELSE 2 END AS n_blocks,
  CASE WHEN doc_id % {pdf_every} = 0 THEN 'pdf' ELSE 'html' END
    AS payload_kind
FROM {table}"""


def boxes_sql(table: str = "documents") -> str:
    """Oracle for the line-level box-format emitter over the wrapped corpus:
    heading line (node 2) then body line (node 7), text slices recomputed
    from offsets; single-line paragraphs ⇒ both cursor predicates true."""
    url = "'https://corpus.test/doc/' || doc_id"
    hlen = "4 + length(CAST(doc_id AS VARCHAR))"
    return f"""
SELECT {url} AS url, 2 AS node_id, 'line' AS level,
       CAST(0 AS BIGINT) AS "start", CAST({hlen} AS BIGINT) AS "end",
       'Doc ' || doc_id AS box_text,
       TRUE AS is_first_in_parent, TRUE AS is_last_in_parent
FROM {table}
UNION ALL
SELECT {url} AS url, 7 AS node_id, 'line' AS level,
       CAST({hlen} + 2 AS BIGINT) AS "start",
       CAST({hlen} + 2 + length(text) AS BIGINT) AS "end",
       text AS box_text, TRUE, TRUE
FROM {table}"""


def roundtrip_spans_sql(table: str = "documents",
                        heading_type: str = "heading_text") -> str:
    """Oracle for block-level spans of the wrapped corpus.

    Structure is fixed by the template: heading block (node 0) spanning
    ``Doc {id}`` then — after block+para+line+2 word spans — the flowing
    block (node 5) spanning the body text, offset by the heading + blank
    line.  Mirrors the reference's 3-blocks/22-lines structural golden.
    ``heading_type`` parameterizes the BlockRule-override oracle
    (``extract_custom_rule``): a registered rule re-types the heading
    block, everything else is unchanged.
    """
    return f"""
SELECT 'https://corpus.test/doc/' || doc_id AS url,
       0 AS node_id, 'block' AS level, '{heading_type}' AS block_type,
       CAST(0 AS BIGINT) AS "start",
       CAST(4 + length(CAST(doc_id AS VARCHAR)) AS BIGINT) AS "end"
FROM {table}
UNION ALL
SELECT 'https://corpus.test/doc/' || doc_id AS url,
       5 AS node_id, 'block' AS level, 'flowing_text' AS block_type,
       CAST(6 + length(CAST(doc_id AS VARCHAR)) AS BIGINT) AS "start",
       CAST(6 + length(CAST(doc_id AS VARCHAR)) + length(text) AS BIGINT) AS "end"
FROM {table}"""


def hocr_sql(table: str = "documents") -> str:
    """Oracle for the hOCR string rendering (M7, TessAPI.java:494 analogue)
    over the wrapped corpus: the fixed heading/body span structure rendered
    to the exact line-level hOCR string ``hocr_batch`` emits."""
    url = "'https://corpus.test/doc/' || doc_id"
    hlen = "(4 + length(CAST(doc_id AS VARCHAR)))"      # heading span end
    hs = f"({hlen} + 2)"                                # body span start
    he = f"({hs} + length(text))"                       # body span end
    esc = ("replace(replace(replace(text, '&', '&amp;'), "
           "'<', '&lt;'), '>', '&gt;')")
    nl = "chr(10)"
    return f"""
SELECT {url} AS url,
  '<div class=''ocr_page'' id=''page_0'' title=''bbox 0 0 ' || {he}
    || ' 1''>' || {nl} ||
  '<div class=''ocr_carea'' id=''block_0'' title=''bbox 0 0 ' || {hlen}
    || ' 1''>' || {nl} ||
  '<p class=''ocr_par'' id=''par_1''>' || {nl} ||
  '<span class=''ocr_line'' id=''line_2'' title=''bbox 0 0 ' || {hlen}
    || ' 1''>Doc ' || doc_id || '</span>' || {nl} ||
  '</p>' || {nl} || '</div>' || {nl} ||
  '<div class=''ocr_carea'' id=''block_5'' title=''bbox ' || {hs} || ' 0 '
    || {he} || ' 1''>' || {nl} ||
  '<p class=''ocr_par'' id=''par_6''>' || {nl} ||
  '<span class=''ocr_line'' id=''line_7'' title=''bbox ' || {hs} || ' 0 '
    || {he} || ' 1''>' || {esc} || '</span>' || {nl} ||
  '</p>' || {nl} || '</div>' || {nl} || '</div>' AS hocr
FROM {table}"""


def unlv_sql(table: str = "documents") -> str:
    """Oracle for the UNLV-format rendering (TessAPI.java:512 analogue)
    over the subsup-wrapped corpus: heading line, blank block separator,
    body line with the subscript word ``_``-prefixed and the superscript
    word ``^``-prefixed, trailing newline."""
    nl = "chr(10)"
    return f"""
SELECT 'https://corpus.test/doc/' || doc_id AS url,
       'Doc ' || doc_id || {nl} || {nl} ||
       text || ' _H2O and ^mc2' || {nl} AS unlv
FROM {table}"""


def subsup_words_sql(table: str = "documents") -> str:
    """Oracle for the I13 word-flag fixture: the wrapped body is
    ``text || ' H2O and mc2'`` — exactly one subscript-flagged word (H2O)
    and one superscript-flagged word (mc2) per document, at offsets
    computable from the template."""
    base = "6 + length(CAST(doc_id AS VARCHAR)) + length(text)"
    return f"""
SELECT 'https://corpus.test/doc/' || doc_id AS url,
       'word' AS level,
       CAST({base} + 1 AS BIGINT) AS "start",
       CAST({base} + 4 AS BIGINT) AS "end",
       TRUE AS is_subscript, FALSE AS is_superscript
FROM {table}
UNION ALL
SELECT 'https://corpus.test/doc/' || doc_id AS url,
       'word' AS level,
       CAST({base} + 9 AS BIGINT) AS "start",
       CAST({base} + 12 AS BIGINT) AS "end",
       FALSE, TRUE
FROM {table}"""


def word_predicates_sql(table: str = "documents") -> str:
    """Oracle for the I12 word predicates (``isDictionaryWord`` /
    ``isNumeric``) over the wrapped corpus: the extracted text is
    ``'Doc {id}\\n\\n' || text``, so the word rows are the two heading
    words plus the body tokens at window-sum offsets.  The stopword
    tables are inlined from the engine's own ``_STOPWORDS`` (single
    source of truth); unknown langs fall back to English exactly like
    ``html_extract.stop_code``."""
    from ..extract.html_extract import _STOPWORDS

    sw_rows = ", ".join(
        "('{}', '{}')".format(lg, w.replace("'", "''"))
        for lg in sorted(_STOPWORDS)
        for w in sorted(_STOPWORDS[lg]))
    known = ", ".join(f"'{lg}'" for lg in sorted(_STOPWORDS) if lg != "en")
    punct = "'.,;:!?\"''()[]«»'"
    url = "'https://corpus.test/doc/' || doc_id"
    return f"""
WITH sw(lang, w) AS (VALUES {sw_rows}),
lists AS (
  SELECT doc_id, lang, string_split(text, ' ') AS toks FROM {table}),
toks AS (
  SELECT doc_id, lang,
         unnest(toks) AS word,
         unnest(range(1, length(toks) + 1)) AS i
  FROM lists),
body AS (
  SELECT doc_id, lang, word,
         6 + length(CAST(doc_id AS VARCHAR))
           + COALESCE(sum(length(word) + 1) OVER (
               PARTITION BY doc_id ORDER BY i
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS s
  FROM toks)
SELECT {url} AS url,
       CAST(s AS BIGINT) AS "start",
       CAST(s + length(word) AS BIGINT) AS "end",
       word,
       (sw.w IS NOT NULL) AS is_dictionary_word,
       regexp_matches(lower(trim(word, {punct})), '^[0-9]+$') AS is_numeric
FROM body LEFT JOIN sw
  ON sw.lang = (CASE WHEN body.lang IN ({known}) THEN body.lang
                     ELSE 'en' END)
 AND sw.w = lower(trim(body.word, {punct}))
UNION ALL
SELECT {url}, 0, 3, 'Doc', FALSE, FALSE FROM {table}
UNION ALL
SELECT {url}, 4, 4 + length(CAST(doc_id AS VARCHAR)),
       CAST(doc_id AS VARCHAR), FALSE, TRUE
FROM {table}"""


def font_words_sql(table: str = "documents") -> str:
    """Oracle for the FontAttributes fixture (I11): the wrapped body is
    ``text || ' bold1 ital1 under1 mono1 bi1'`` — one word per DOM font
    attribute plus a nested bold-italic word, at offsets computable from
    the template."""
    base = "6 + length(CAST(doc_id AS VARCHAR)) + length(text)"
    url = "'https://corpus.test/doc/' || doc_id"
    rows = [
        # (start offset, end offset, bold, italic, underlined, monospace)
        (1, 6, "TRUE", "FALSE", "FALSE", "FALSE"),       # bold1
        (7, 12, "FALSE", "TRUE", "FALSE", "FALSE"),      # ital1
        (13, 19, "FALSE", "FALSE", "TRUE", "FALSE"),     # under1
        (20, 25, "FALSE", "FALSE", "FALSE", "TRUE"),     # mono1
        (26, 29, "TRUE", "TRUE", "FALSE", "FALSE"),      # bi1 (nested)
    ]
    parts = [
        f"""SELECT {url} AS url,
       CAST({base} + {s} AS BIGINT) AS "start",
       CAST({base} + {e} AS BIGINT) AS "end",
       {b} AS is_bold, {i} AS is_italic,
       {u} AS is_underlined, {m} AS is_monospace
FROM {table}"""
        for s, e, b, i, u, m in rows
    ]
    return "\nUNION ALL\n".join(parts)
