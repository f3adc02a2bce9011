"""WARC container source — ingest Common-Crawl-style WARC shards straight
into the pages schema the extraction pipeline consumes.

The reference ingests one image file per analyzer call
(ImageAnalyzerFactory.createImageAnalyzer, File-based overloads); the
web-corpus analogue of "the format the data actually arrives in" is the
ISO-28500 WARC container Common Crawl publishes.  This module implements
the subset the pipeline needs:

* :func:`write_warc` — serialize a pages table into `response`-record
  WARC shards (used by tests/benchmarks; byte-stable for a given input).
* :func:`read_warc` — a Ray Data datasource (:class:`WarcDatasource`)
  with one read task per file: records inside a shard are sequential by
  framing, so the file is the unit of parallelism.  The read has no
  hand-off of its own: ``extract_pages(read_warc(paths))`` runs as ONE
  fused operator (read → sniff → split → extract) per file.

Streaming, memory bounded by a morsel, not by the file:

* The file's raw bytes are read in :data:`READ_CHUNK` pieces.  Gzip is
  detected by its magic bytes (``\\x1f\\x8b``), never by file name, and
  Arrow's extension-based inflation is switched off so member boundaries
  stay visible.  Members (Common Crawl writes one per record) are
  inflated one by one with ``zlib.decompressobj``, each fed from the
  fixed-size chunks with the previous member's unused input carried over
  — so the copy that carry costs is bounded by a chunk, not by the rest
  of the file (``gzip.decompress`` re-slices the remaining input once per
  member: quadratic in the member count).
* Records are framed by their ``Content-Length`` as their bytes arrive
  (the spec-correct way — never by splitting on magic bytes, which a
  payload can contain) and leave as a pages-schema table every
  :data:`MORSEL_RECORDS` records or :data:`MORSEL_BYTES` payload bytes,
  whichever comes first.  The walk is a per-record Python loop — the
  right altitude for an ingest boundary: records are KB-sized, the loop
  does two header scans and one payload copy per record, and everything
  downstream stays vectorized.  :func:`parse_warc_bytes` runs the same
  walker over one in-memory blob.

Damage degrades to error rows (the pipeline's never-throw-per-row policy,
extract/api.py) rather than failing the read; with ``include_errors`` they
carry an ``error`` reason:

* ``malformed WARC record at byte N`` — a record whose framing is unknown
  (no ``WARC/`` magic, no parseable Content-Length, no header terminator,
  or a truncated payload).  There is no safe way past it: the walk stops.
* ``warc:gzip_member`` — a gzip member that fails to inflate, or a
  truncated last member.  Records completed before it are kept; its
  partial record is dropped, and the walk resyncs at the next
  ``\\x1f\\x8b\\x08`` whose member inflates to bytes starting ``WARC/``.
* ``limit:warc_record_bytes`` — a `response` record whose Content-Length
  exceeds :data:`MAX_WARC_RECORD_BYTES`.  Its payload is inflated and
  discarded, never buffered; the next record is read normally.

Splitting one gzip file across tasks would need a member index; it is
not done.  Scale shape: shards are independent tasks (10^12 docs =
~10^7 shards on a manifest), no shuffle, column pruning happens at the
first transform after the read.
"""

from __future__ import annotations

import datetime as _dt
import zlib

import pyarrow as pa
from ray.data.datasource import FileBasedDatasource

_CRLF = b"\r\n"
_TS_FMT = "%Y-%m-%dT%H:%M:%SZ"
_TS_FMT_US = "%Y-%m-%dT%H:%M:%S.%fZ"

#: raw bytes read from the file per call; also bounds the copy zlib makes
#: of a chunk's unused remainder at each member end
READ_CHUNK = 64 << 10
#: inflated bytes produced per ``decompress`` call (a small member bomb
#: cannot expand into memory at once)
INFLATE_PIECE = 256 << 10
#: a table leaves the reader every this many records …
MORSEL_RECORDS = 256
#: … or this many payload bytes, whichever comes first
MORSEL_BYTES = 16 << 20
#: a `response` record with a larger Content-Length becomes a
#: ``limit:warc_record_bytes`` error row; its payload is never buffered
MAX_WARC_RECORD_BYTES = 64 << 20

_GZIP_MAGIC = b"\x1f\x8b"
_GZIP_MEMBER = b"\x1f\x8b\x08"     # magic + deflate method
_GZIP_WBITS = 31                   # zlib: expect a gzip header and trailer

_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us", tz="UTC")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
    ("error", pa.string()),
])


def _ts_to_warc(us_since_epoch: int) -> bytes:
    dt = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc) + \
        _dt.timedelta(microseconds=int(us_since_epoch))
    if dt.microsecond:
        return dt.strftime(_TS_FMT_US).encode()
    return dt.strftime(_TS_FMT).encode()


_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)


def _warc_to_ts(raw: bytes):
    s = raw.decode("ascii", "replace")
    for fmt in (_TS_FMT, _TS_FMT_US):
        try:
            dt = _dt.datetime.strptime(s, fmt).replace(
                tzinfo=_dt.timezone.utc)
            # integer arithmetic: float .timestamp()*1e6 truncates 1 µs on
            # a large fraction of values (e.g. …54.935922 → …54.935921)
            return (dt - _EPOCH) // _dt.timedelta(microseconds=1)
        except ValueError:
            continue
    return None


def _header_value(s: str) -> bytes:
    """CR/LF percent-encoded — a crawl-derived url containing CRLF must
    not be able to forge header lines or terminate the header block."""
    return s.replace("\r", "%0D").replace("\n", "%0A").encode()


def record_bytes(url: str, ts_us: int, html: bytes,
                 text: str | None = None, lang: str | None = None) -> bytes:
    """One WARC `response` record (header block + payload + 2×CRLF)."""
    headers = [b"WARC/1.0",
               b"WARC-Type: response",
               b"WARC-Target-URI: " + _header_value(url),
               b"WARC-Date: " + _ts_to_warc(ts_us)]
    if lang is not None:
        headers.append(b"WARC-Identified-Content-Language: "
                       + _header_value(lang))
    tail = text.encode() if text is not None else b""
    # Content-Length covers the WHOLE payload (spec framing — a foreign
    # WARC reader walks this file correctly); the non-standard sidecar
    # header tells OUR reader where html ends and the extracted-text
    # trailer begins.  Real crawls have no trailer and a null text column.
    headers.append(b"Content-Length: " + str(len(html) + len(tail)).encode())
    if text is not None:
        headers.append(b"X-Graft-Text-Length: " + str(len(tail)).encode())
    head = _CRLF.join(headers) + _CRLF + _CRLF
    return head + html + tail + _CRLF + _CRLF


def write_warc(table: pa.Table, out_dir: str, *, shards: int = 4,
               prefix: str = "crawl", gzip_records: bool = False) -> list:
    """Serialize a pages table into ``shards`` WARC files; returns paths.
    Deterministic: row order and bytes are a pure function of the input.
    ``gzip_records=True`` writes the Common-Crawl layout — one gzip
    MEMBER per record, concatenated (``.warc.gz``), so range requests
    can decompress single records."""
    import gzip
    import os

    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    per = (n + shards - 1) // shards
    ext = "warc.gz" if gzip_records else "warc"
    paths = []
    for s in range(shards):
        chunk = table.slice(s * per, per)
        if chunk.num_rows == 0:
            break
        path = os.path.join(out_dir, f"{prefix}-{s:05d}.{ext}")
        with open(path, "wb") as f:
            for i in range(chunk.num_rows):
                url = chunk["url"][i].as_py()
                if url is None:
                    continue   # unaddressable row — degrade, don't throw
                ts = chunk["warc_ts"][i].value   # µs since epoch
                html = chunk["html"][i].as_py() or b""
                text = chunk["text"][i].as_py()
                lang = chunk["lang"][i].as_py()
                # null timestamp serializes as the epoch (WARC-Date is
                # mandatory); null url/ts round-trips are lossy by design
                rec = record_bytes(url, ts or 0, html, text, lang)
                if gzip_records:
                    rec = gzip.compress(rec, mtime=0)  # byte-stable
                f.write(rec)
        paths.append(path)
    return paths


class _Rows:
    """Pages-schema column lists of one morsel (plus ``error``)."""

    __slots__ = ("keep_errors", "url", "warc_ts", "html", "text", "lang",
                 "error", "payload")

    def __init__(self, keep_errors: bool = True):
        self.keep_errors = keep_errors
        self.clear()

    def clear(self) -> None:
        self.url, self.warc_ts, self.html = [], [], []
        self.text, self.lang, self.error = [], [], []
        self.payload = 0

    def add(self, url, ts, html, text, lang, error=None) -> None:
        if error is not None and not self.keep_errors:
            return
        self.url.append(url)
        self.warc_ts.append(ts)
        self.html.append(html)
        self.text.append(text)
        self.lang.append(lang)
        self.error.append(error)
        if html is not None:
            self.payload += len(html)

    def full(self) -> bool:
        return (len(self.url) >= MORSEL_RECORDS
                or self.payload >= MORSEL_BYTES)

    def columns(self) -> dict:
        return {"url": self.url, "warc_ts": self.warc_ts, "html": self.html,
                "text": self.text, "lang": self.lang, "error": self.error}

    def take_table(self) -> pa.Table:
        """The morsel as a pages-schema table (``error`` column only when
        errors are kept); the lists start over."""
        t = pa.table([pa.array(v, f.type) for v, f in
                      zip(self.columns().values(), _SCHEMA)], schema=_SCHEMA)
        if not self.keep_errors:
            t = t.drop_columns(["error"])
        self.clear()
        return t


class _RecordWalker:
    """Content-Length framing over an inflated WARC stream fed in pieces.

    * non-`response` / URI-less records (a real crawl starts with
      `warcinfo` and interleaves `request`/`metadata`) are SKIPPED by
      their declared length — they cost one header scan, emit nothing;
    * a `response` record over :data:`MAX_WARC_RECORD_BYTES` is skipped
      the same way and emits one ``limit:warc_record_bytes`` row;
    * only a record whose FRAMING is unknown (no ``WARC/`` magic, no
      parseable Content-Length, missing header terminator, or truncated
      payload) emits one error row covering the stream remainder and
      stops the walk (``stopped``) — there is no way to resynchronize
      safely past it.

    Header names match case-insensitively with optional space after the
    colon (the spec allows both).  Only the record in progress is
    buffered; a skipped payload is discarded as it arrives."""

    def __init__(self, rows: _Rows):
        self.rows = rows
        self.stopped = False
        self._buf = bytearray()
        self._base = 0      # stream offset of _buf[0]
        self._need = 0      # len(_buf) that completes the pending record
        self._scan = 0      # header-terminator search resumes here
        self._skip = 0      # payload bytes still to discard
        self._skipped = None  # (record offset, url, ts, lang, over budget)

    def feed(self, data) -> None:
        if self.stopped:
            return
        if self._skip:
            n = min(self._skip, len(data))
            self._skip -= n
            self._base += n
            if self._skip:
                return
            data = memoryview(data)[n:]
            _, url, ts, lang, over = self._skipped
            self._skipped = None
            if over:
                self._over_budget(url, ts, lang)
        self._buf += data
        if len(self._buf) >= self._need:
            self._walk(final=False)

    def finish(self) -> None:
        """End of stream: an unfinished record is malformed."""
        if self.stopped:
            return
        if self._skip:
            at, url, ts, lang, _ = self._skipped
            self._malformed(at, url, ts, lang)
        else:
            self._walk(final=True)

    def drop_partial(self) -> None:
        """Forget the record in progress (its bytes were lost upstream);
        the next piece fed starts a record."""
        self._base += len(self._buf)
        self._buf = bytearray()
        self._need = self._scan = self._skip = 0
        self._skipped = None

    def _malformed(self, at, url=None, ts=None, lang=None) -> None:
        self.rows.add(url, ts, None, None, lang,
                      f"malformed WARC record at byte {at}")
        self.stopped = True

    def _over_budget(self, url, ts, lang) -> None:
        self.rows.add(url, ts, None, None, lang,
                      f"limit:warc_record_bytes: record over "
                      f"MAX_WARC_RECORD_BYTES ({MAX_WARC_RECORD_BYTES})")

    def _walk(self, final: bool) -> None:
        buf = self._buf
        n = len(buf)
        pos = 0
        self._need = 0
        add = self.rows.add
        with memoryview(buf) as view:
            while True:
                # skip inter-record padding
                while buf.startswith(_CRLF, pos):
                    pos += 2
                if pos >= n or (n - pos < 5 and not final):
                    break
                if buf[pos:pos + 5] != b"WARC/":
                    self._malformed(self._base + pos)
                    break
                head_end = buf.find(b"\r\n\r\n", max(pos, self._scan))
                if head_end == -1:
                    if final or n - pos > MAX_WARC_RECORD_BYTES:
                        self._malformed(self._base + pos)
                        break
                    self._scan = n - 3
                    break
                self._scan = 0
                url = ts = lang = None
                clen = text_len = None
                rtype = b"response"
                for line in bytes(view[pos:head_end]).split(_CRLF)[1:]:
                    k, _, v = line.partition(b":")
                    k = k.strip().lower()
                    v = v.strip()
                    if k == b"warc-target-uri":
                        url = v.decode("utf-8", "replace")
                    elif k == b"warc-date":
                        ts = _warc_to_ts(v)
                    elif k == b"content-length":
                        clen = int(v) if v.isdigit() else None
                    elif k == b"warc-type":
                        rtype = v.lower()
                    elif k == b"warc-identified-content-language":
                        lang = v.decode("ascii", "replace")
                    elif k == b"x-graft-text-length":
                        text_len = int(v) if v.isdigit() else None
                if clen is None:
                    self._malformed(self._base + pos, url, ts, lang)
                    break
                body = head_end + 4
                end = body + clen
                keep = (rtype == b"response" and url is not None
                        and (text_len or 0) <= clen)
                if keep and clen <= MAX_WARC_RECORD_BYTES:
                    if end > n:
                        if final:
                            self._malformed(self._base + pos, url, ts, lang)
                        else:
                            self._need = end
                        break
                    html_len = clen - (text_len or 0)
                    add(url, ts, bytes(view[body:body + html_len]),
                        bytes(view[body + html_len:end])
                        .decode("utf-8", "replace")
                        if text_len is not None else None, lang)
                    pos = end
                    continue
                # framing known, payload unwanted: skip it without
                # buffering (a budget-breaking one leaves a limit row)
                over = keep
                if end <= n:
                    if over:
                        self._over_budget(url, ts, lang)
                    pos = end
                    continue
                if final:
                    self._malformed(self._base + pos, url, ts, lang)
                    break
                self._skip = end - n
                self._skipped = (self._base + pos, url, ts, lang, over)
                pos = n
                break
        if pos:
            del buf[:pos]
            self._base += pos
            if self._need:
                self._need -= pos
            if self._scan:
                self._scan -= pos


def _inflate_members(read, raw: bytes):
    """Inflated pieces of a stream of concatenated gzip members, read by
    ``read(READ_CHUNK)`` after the first chunk ``raw``.

    Yields ``bytes`` pieces, and one ``str`` error reason per member that
    fails to inflate or ends truncated; after a failure the walk resumes
    at the next member header whose member inflates to ``WARC/``."""
    at = 0              # stream offset of raw[0]
    member_at = 0       # stream offset of the current member's header
    d = zlib.decompressobj(_GZIP_WBITS)
    fed = False         # d has been given input
    more = False        # d may hold output without further input
    while True:
        if not raw and not more:
            raw = read(READ_CHUNK)
            if not raw:
                if fed:
                    yield (f"warc:gzip_member: truncated member at byte "
                           f"{member_at}")
                return
        try:
            out = d.decompress(raw, INFLATE_PIECE)
        except zlib.error as e:
            yield f"warc:gzip_member: {e} (member at byte {member_at})"
            raw, at = _resync(read, raw, at, max(member_at + 1 - at, 0))
            if raw is None:
                return
            member_at = at
            d = zlib.decompressobj(_GZIP_WBITS)
            fed = more = False
            continue
        fed = fed or bool(raw)
        if out:
            yield out
        if d.eof:
            rest = d.unused_data
            d = zlib.decompressobj(_GZIP_WBITS)
            fed = more = False
            at += len(raw) - len(rest)
            member_at = at
        else:
            rest = d.unconsumed_tail
            more = len(out) == INFLATE_PIECE
            at += len(raw) - len(rest)
        raw = rest


def _resync(read, raw: bytes, at: int, start: int):
    """Find the next member header at or after ``raw[start]`` whose member
    inflates to bytes starting ``WARC/``; returns ``(raw, at)`` with that
    header at ``raw[0]``, or ``(None, at)`` at end of stream."""
    while True:
        i = raw.find(_GZIP_MEMBER, start)
        if i == -1:
            # keep a header that may straddle the chunk boundary
            keep = max(len(raw) - len(_GZIP_MEMBER) + 1, start, 0)
            chunk = read(READ_CHUNK)
            if not chunk:
                return None, at
            at += keep
            raw, start = raw[keep:] + chunk, 0
            continue
        z = zlib.decompressobj(_GZIP_WBITS)
        try:
            head = z.decompress(raw[i:], 5)
        except zlib.error:
            start = i + 1
            continue
        if len(head) < 5 and not z.eof and not z.unconsumed_tail:
            # the candidate's input ran out before 5 bytes: read on
            chunk = read(READ_CHUNK)
            if chunk:
                raw += chunk
                continue
        if head == b"WARC/":
            return raw[i:], at + i
        start = i + 1


class WarcDatasource(FileBasedDatasource):
    """WARC (plain or gzip-member) files → pages-schema tables, streamed
    one morsel at a time (see the module docstring)."""

    def __init__(self, paths, *, include_errors: bool = False):
        super().__init__(paths)
        self._include_errors = include_errors

    def _open_input_source(self, filesystem, path, **open_args):
        # raw bytes: Arrow must not inflate a .gz by its extension, or
        # the member boundaries (and the resync they allow) are lost
        return filesystem.open_input_stream(
            path, buffer_size=self._data_context.streaming_read_buffer_size,
            compression=None)

    def _read_stream(self, f, path: str):
        rows = _Rows(self._include_errors)
        walker = _RecordWalker(rows)
        first = f.read(READ_CHUNK)
        if first[:2] == _GZIP_MAGIC:
            pieces = _inflate_members(f.read, first)
        else:
            pieces = iter(lambda: f.read(READ_CHUNK), b"")
            walker.feed(first)
        emitted = False
        for piece in pieces:
            if walker.stopped:
                break
            if isinstance(piece, str):
                walker.drop_partial()
                rows.add(None, None, None, None, None, piece)
            else:
                walker.feed(piece)
            if rows.full():
                yield rows.take_table()
                emitted = True
        walker.finish()
        if rows.url or not emitted:
            yield rows.take_table()


def parse_warc_bytes(blob: bytes) -> dict:
    """Parse one shard's (inflated) bytes into pages-schema column lists
    plus an ``error`` column — the datasource's record walker over one
    in-memory blob (see :class:`_RecordWalker` for the framing rules)."""
    rows = _Rows()
    walker = _RecordWalker(rows)
    walker.feed(blob)
    walker.finish()
    return rows.columns()


def read_warc(paths, *, include_errors: bool = False):
    """pages-schema ``ray.data.Dataset`` from WARC shard paths, one read
    task per file."""
    import ray.data

    paths = [paths] if isinstance(paths, str) else list(paths)
    return ray.data.read_datasource(
        WarcDatasource(paths, include_errors=include_errors),
        override_num_blocks=len(paths))
