"""Link-graph construction and page-metadata extraction from raw HTML.

The missing first stage of the link-graph analytics the engine already
ships (``functions/graph.pagerank_*`` consumes an edges table; nothing
built one): ``extract_links`` turns the Common-Crawl-shaped ``pages``
table into ``(src, pos, href, resolved)`` edge rows, and ``extract_meta``
pulls the per-page head metadata (title / meta description / canonical)
every crawl pipeline indexes.

Reference anchor: the layout-analysis stage emits structural records per
node (SURVEY.md §2.2 M1, BlockIterator.java:57-81); these operators are
the same flatten applied to the anchor/head nodes of the web payload the
north rule swapped in for page images.

Scale shape: stateless ``map_batches`` over zero-copy Arrow batches,
column-pruned input (url + html only), no shuffle.  The hot path is
Arrow C kernels end-to-end — ``split_pattern`` twice + ``list_*``
arithmetic for links, one RE2 ``extract_regex`` per field for metadata;
the only Python is a per-CHUNK utf-8 fallback decode that never fires on
well-formed corpora.  Edges are slim (the html column is dropped), so at
100 TB the output shuffles cheaply into ``pagerank_int``'s iterations.

Contracts (mirrored exactly by the DuckDB oracles):

* links = every ``href="…"`` attribute value in document order (RE2
  ``href="([^"]*)"`` semantics: a closing quote is required; single-quoted
  and unquoted attributes are out of contract, as are hrefs in comments —
  crawl-practice link extraction, not an HTML5 parser).  One known edge
  where the two-split plan and the regex read MALFORMED html differently:
  an href value whose closing quote is missing before another ``href="``
  begins (the regex swallows the next attribute into the value; the
  operator starts a fresh match at it).  Well-formed pages — incl. every
  oracle fixture — cannot produce that shape, and the operator's reading
  is the crawl-practice one.
* ``resolved``: absolute http(s) hrefs pass through; root-relative
  (``/path``) resolve against the source's http(s) origin (NULL when the
  source has none, e.g. ``ftp://``); protocol-relative and
  everything else (fragments, mailto:, javascript:, relative paths) are
  NULL — resolving those needs a base-dir/``<base>`` model that a
  deterministic byte-identical stage should not guess at.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: RE2 patterns mirrored by the DuckDB oracles (same regex engine; Arrow's
#: extract_regex requires NAMED groups where DuckDB uses group 1)
ORIGIN_PATTERN = r"^(?P<m>https?://[^/]+)"
TITLE_PATTERN = r"<title>(?P<m>[^<]*)</title>"
DESCRIPTION_PATTERN = r'<meta name="description" content="(?P<m>[^"]*)"'
CANONICAL_PATTERN = r'<link rel="canonical" href="(?P<m>[^"]*)"'


def resolved_sql(src: str, href: str) -> str:
    """DuckDB expression of the ``resolved`` contract for SQL columns
    ``src`` and ``href`` — the oracles' half of it.  ``regexp_extract``
    yields '' where Arrow's ``extract_regex`` yields NULL, so NULLIF
    restores parity for a source without an http(s) origin."""
    return f"""CASE WHEN {href} LIKE 'http://%' OR {href} LIKE 'https://%'
         THEN {href}
       WHEN {href} LIKE '//%' THEN NULL
       WHEN {href} LIKE '/%'
         THEN NULLIF(regexp_extract({src}, '^(https?://[^/]+)', 1), '')
              || {href}
       ELSE NULL END"""


def _html_as_string(col: pa.ChunkedArray | pa.Array) -> pa.Array | pa.ChunkedArray:
    """binary html → string, vectorized; per-chunk Python ``errors=replace``
    fallback only when a chunk holds invalid utf-8 (never-throw-per-row)."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return col
    try:
        return pc.cast(col, pa.string())
    except pa.ArrowInvalid:
        chunks = (col.chunks if isinstance(col, pa.ChunkedArray) else [col])
        out = []
        for ch in chunks:
            try:
                out.append(pc.cast(ch, pa.string()))
            except pa.ArrowInvalid:
                out.append(pa.array(
                    [None if v is None else v.decode("utf-8", "replace")
                     for v in ch.to_pylist()], pa.string()))
        return pa.chunked_array(out)


def extract_links_batch(batch: pa.Table, *, html_col: str = "html",
                        url_col: str = "url") -> pa.Table:
    """pages batch → ``(src, pos, href, resolved)`` edge rows.

    Vectorized two-split plan equivalent to RE2 ``href="([^"]*)"`` over
    each document: split on ``href="`` (everything after an occurrence
    starts with the attribute value), drop the pre-first-link prefix,
    require the closing quote (regex parity on malformed tails), then the
    value is the piece before the first ``"``.  ``pos`` is the 0-based
    document-order rank.
    """
    # null payload → no edge rows (oracle: unnest of a NULL match list)
    batch = batch.filter(pc.is_valid(batch[html_col]))
    html = _html_as_string(batch[html_col])
    pieces = pc.list_slice(pc.split_pattern(html, 'href="'), 1)
    counts = np.asarray(pc.list_value_length(pieces), dtype=np.int64)
    flat = pc.list_flatten(pieces)
    parents = np.asarray(pc.list_parent_indices(pieces), dtype=np.int64)

    # regex parity: a piece with no closing quote is not a match
    closed = np.asarray(pc.match_substring(flat, '"'))
    flat = flat.filter(pa.array(closed))
    parents = parents[closed]
    # document-order rank BEFORE the closed-filter cannot differ from
    # after it on well-formed pages (only the unterminated tail piece is
    # ever dropped, and it is last); rank after filtering matches the
    # oracle's generate_series over the regex match list exactly
    total = len(parents)
    starts = np.zeros(len(counts), dtype=np.int64)
    closed_counts = np.bincount(parents, minlength=len(counts))
    np.cumsum(closed_counts[:-1], out=starts[1:])
    pos = np.arange(total, dtype=np.int64) - starts[parents]

    href = pc.list_element(pc.split_pattern(flat, '"', max_splits=1), 0)
    src = batch[url_col].take(pa.array(parents))
    origin = pc.struct_field(pc.extract_regex(src, ORIGIN_PATTERN), 0)
    absolute = pc.or_(pc.starts_with(href, "http://"),
                      pc.starts_with(href, "https://"))
    root_rel = pc.and_(pc.starts_with(href, "/"),
                       pc.invert(pc.starts_with(href, "//")))
    resolved = pc.if_else(
        absolute, href,
        pc.if_else(root_rel, pc.binary_join_element_wise(origin, href, ""),
                   pa.scalar(None, pa.string())))
    return pa.table({
        "src": src,
        "pos": pa.array(pos, pa.int64()),
        "href": href,
        "resolved": resolved,
    })


def apply_extract_links(ds, **kw):
    return ds.map_batches(lambda b: extract_links_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def extract_meta_batch(batch: pa.Table, *, html_col: str = "html",
                       url_col: str = "url") -> pa.Table:
    """pages batch → ``(url, title, meta_description, canonical)``.

    One RE2 ``extract_regex`` per field (first match, NULL when absent) —
    the head-metadata projection (crawl-index fields)."""
    html = _html_as_string(batch[html_col])

    def first(pattern):
        return pc.struct_field(pc.extract_regex(html, pattern), 0)

    return pa.table({
        "url": batch[url_col],
        "title": first(TITLE_PATTERN),
        "meta_description": first(DESCRIPTION_PATTERN),
        "canonical": first(CANONICAL_PATTERN),
    })


def apply_extract_meta(ds, **kw):
    return ds.map_batches(lambda b: extract_meta_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)
