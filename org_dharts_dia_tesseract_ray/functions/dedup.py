"""Corpus deduplication family — exact, MinHash+LSH, SimHash, Jaccard,
embedding-cosine.

The reference has no cross-document operators at all (single-document loop,
SURVEY.md §2.5 "Set ops / dedup: absent") — these are the training-data-scale
additions the north rule asks for, built Ray-Data-first:

* **exact**: content digest → hash-shuffle ``groupby(fp)`` → min-id survivor
  per group.  One all-to-all exchange keyed on the digest; digests are
  16 bytes/doc, so the shuffle moves digests, never documents.
* **MinHash + LSH**: shingle → minhash signature (``map_batches``, numpy) →
  band rows (vectorized explode) → hash-partitioned LOCAL self-join on the
  bucket key → candidate pairs → exact-Jaccard verification via two slim
  co-shuffles against the shingle table (never a driver-side collect) —
  candidates ≪ corpus is the partitioning assumption, standard for web
  dedup.
* **SimHash**: 64-bit signature per doc, near-dups via 16-bit band buckets +
  Hamming verification (Charikar / Manku-Jain-Sarma pattern).
* **n-gram Jaccard / embedding cosine**: all-pairs within LSH-or-broadcast
  candidate scope; the embedding variant broadcasts the (small) normalized
  matrix once via ``ray.put`` and streams batches against it.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import (as_array, ds_arrow_schema, grouped_arrow_aggregate,
                    hash_exchange, mapped_side, ragged_arange,
                    schema_pinned_join)
from .fingerprint import kgram_hashes, kgram_hashes_batch, md5_batch

# MinHash permutation family: h_p(x) = (a_p·x + b_p) mod PRIME (Mersenne 61)
_PRIME = np.uint64((1 << 61) - 1)


def _mod_mersenne(x: np.ndarray) -> np.ndarray:
    """Exact ``x % _PRIME`` for any uint64 input via the Mersenne fold
    ((x & p) + (x >> 61), one conditional subtract) — bit-identical to
    ``%`` but shifts/adds instead of a 64-bit integer division, the
    hottest op of the signature kernel."""
    p = _PRIME
    x = (x & p) + (x >> np.uint64(61))
    return np.where(x >= p, x - p, x)


def _mod_mersenne_inplace(x: np.ndarray) -> np.ndarray:
    """In-place Mersenne fold for large scratch arrays: one extra
    full-size temporary (the high bits) instead of three — keeps the
    signature kernel's peak scratch ≈ 2× the chunk, not 4×."""
    p = _PRIME
    hi = x >> np.uint64(61)
    x &= p
    x += hi
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _perm_params(num_perm: int, seed: int = 42):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(1, _PRIME, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _PRIME, size=num_perm, dtype=np.uint64)
    return a, b


# ---------------------------------------------------------------------------
# exact dedup


def exact_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """One survivor (min id) per distinct content digest.

    Partial work (digesting) happens inside ``map_batches``; the shuffle key
    is the 32-char digest and the reducer is ONE vectorized Arrow min per
    hash partition (``util.grouped_arrow_aggregate`` — NOT per-group
    ``map_groups``, one Python call per group would dominate wall time at
    10^12 groups; and not Ray's native sort-aggregate, ~76 µs/row).
    Output ``(fp: string, id)`` — also on empty input."""
    def digest(b: pa.Table) -> pa.Table:
        return md5_batch(b, text_col=text_col, id_col=id_col)

    return grouped_arrow_aggregate(mapped_side(ds, digest), "fp",
                                   [(id_col, "min", id_col)])


def exact_dedup_sql(table: str = "documents", text_col: str = "text",
                    id_col: str = "doc_id") -> str:
    return (f"SELECT min({id_col}) AS {id_col}, md5({text_col}) AS fp "
            f"FROM {table} GROUP BY md5({text_col})")


# ---------------------------------------------------------------------------
# shingling + MinHash signatures


def shingle_set(text: str, k: int = 8) -> np.ndarray:
    """Distinct byte k-gram rolling hashes (vectorized, uint64)."""
    return np.unique(kgram_hashes(text or "", k))


#: windows-per-chunk bound for the (num_perm × windows) permutation temp —
#: peak scratch ≈ 2 × num_perm × 8 B × this (the in-place fold keeps one
#: extra full-size temporary), ~0.5 GB per task at num_perm=128 — a standard
#: 0.5 GB/core heap budget at full task-pool width.  Smaller chunks trade
#: real kernel speed for little: 120k windows measured ~25-30% slower than
#: 250k (per-chunk reduceat/allocation overhead), with no further gain
#: beyond 250k.
_MAX_CHUNK_WINDOWS = 250_000


class MinHasher:
    """Stateful signature stage (actor pool): permutation table built once
    per actor in ``__init__`` — the TessBaseAPI-handle analogue
    (/root/reference/src/.../TesseractHandle.java:82-102).

    The per-batch kernel is batched ACROSS documents: one vectorized k-gram
    pass over the batch's concatenated text (``kgram_hashes_batch``), one
    (num_perm × windows) permutation product per bounded chunk, and
    ``np.minimum.reduceat`` at document boundaries — no Python loop per
    document.  Duplicate shingles don't change a min, so the per-doc
    ``np.unique`` of the old row-loop kernel is skipped; signatures are
    bit-identical to it."""

    def __init__(self, num_perm: int = 128, k: int = 8, seed: int = 42,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.a, self.b = _perm_params(num_perm, seed)
        self.num_perm = num_perm
        self.k = k
        self.text_col = text_col
        self.id_col = id_col

    def signature(self, text: str) -> np.ndarray:
        """Single-document signature (tests / reference-grade oracle)."""
        x = shingle_set(text, self.k) % _PRIME
        with np.errstate(over="ignore"):
            vals = (self.a[:, None] * x[None, :] + self.b[:, None]) % _PRIME
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat = np.empty((n, self.num_perm), dtype=np.uint64)
        if n:
            H, counts = kgram_hashes_batch(batch[self.text_col], self.k)
            offs = np.r_[0, np.cumsum(counts)].astype(np.int64)
            i = 0
            while i < n:
                j = i + 1
                while j < n and offs[j + 1] - offs[i] <= _MAX_CHUNK_WINDOWS:
                    j += 1
                x = _mod_mersenne(H[offs[i]:offs[j]])
                with np.errstate(over="ignore"):
                    vals = self.a[:, None] * x[None, :]
                    vals += self.b[:, None]
                    _mod_mersenne_inplace(vals)
                flat[i:j] = np.minimum.reduceat(
                    vals, offs[i:j] - offs[i], axis=1).T
                i = j
        offsets = pa.array(
            np.arange(n + 1, dtype=np.int32) * self.num_perm)
        return pa.table({
            self.id_col: batch[self.id_col],
            "sig": pa.ListArray.from_arrays(
                offsets, pa.array(flat.reshape(-1), pa.uint64())),
        })


#: per-worker-process MinHasher cache for task-mode execution — state still
#: built once per worker, but scheduled as plain tasks: the permutation
#: table is CHEAP state, and the actor-pool path costs ~2× with high
#: startup variance on this workload (measured round 2/3; the extract stage
#: runs as plain tasks for the same reason — actor pools are for EXPENSIVE
#: state)
_MINHASHERS: dict = {}


def apply_minhash(ds, *, num_perm: int = 128, k: int = 8, seed: int = 42,
                  text_col: str = "text", id_col: str = "doc_id",
                  batch_size: int = 256):
    key = (num_perm, k, seed, text_col, id_col)

    def fn(b: pa.Table) -> pa.Table:
        mh = _MINHASHERS.get(key)
        if mh is None:
            mh = _MINHASHERS.setdefault(key, MinHasher(
                num_perm=num_perm, k=k, seed=seed,
                text_col=text_col, id_col=id_col))
        return mh(b)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


# ---------------------------------------------------------------------------
# LSH banding → candidate pairs → exact-Jaccard verification


def _band_rows(batch: pa.Table, bands: int, rows: int,
               id_col: str) -> pa.Table:
    """Vectorized explode: one row per (doc, band) with a combined band
    hash — the LSH bucket key."""
    sig = batch["sig"]
    if isinstance(sig, pa.ChunkedArray):
        sig = sig.combine_chunks()
    n = len(sig)
    # flatten() honours slice offsets; .values would read the full child
    # buffer and misalign on sliced batches
    flat = np.asarray(sig.flatten()).reshape(n, bands * rows)
    with np.errstate(over="ignore"):
        # polynomial combine of each band's rows → single uint64 bucket key
        cube = flat.reshape(n, bands, rows)
        acc = np.zeros((n, bands), dtype=np.uint64)
        for r in range(rows):
            acc = acc * np.uint64(1099511628211) + cube[:, :, r]
    ids = np.repeat(np.asarray(batch[id_col]), bands)
    band_idx = np.tile(np.arange(bands, dtype=np.int32), n)
    return pa.table({
        id_col: pa.array(ids),
        "band": pa.array(band_idx, pa.int32()),
        "band_hash": pa.array(acc.reshape(-1), pa.uint64()),
    })


def default_join_partitions() -> int:
    """Join partition count sized to the cluster: hash-join aggregator
    actors occupy scheduling slots, so partitions ≥ CPUs starves the tasks
    feeding the join and the whole pipeline crawls (measured)."""
    from ..util import cluster_cpus
    return max(2, min(32, cluster_cpus() // 2))


def _self_join_pairs(band_ds, keys: list[str], carry: list[str],
                     id_col: str, num_partitions: int,
                     types: dict[str, pa.DataType]):
    """Bucket → candidate pairs (id_a < id_b) via a hash-partitioned LOCAL
    self-join on the bucket key.

    A self-join needs no left/right branch of the input Dataset — Ray Data
    re-executes a shared sub-DAG once PER CONSUMER, so the former
    two-branch form recomputed the whole upstream (read + signatures)
    twice.  Here the stream is consumed ONCE: one hash exchange on the
    bucket key co-locates every bucket, and each partition self-joins
    locally with Acero (vectorized, not per-bucket map_groups — most
    buckets are singletons and one Python call per singleton dominates at
    corpus scale).  ``types`` maps key/carry columns and ``id_col`` to
    their Arrow types (to build output schemas without executing the
    input)."""
    sel = list(keys) + [id_col] + list(carry)
    out_schema = pa.schema(
        [(k, types[k]) for k in keys]
        + [("id_a", types[id_col])]
        + [(c + "_a", types[c]) for c in carry]
        + [("id_b", types[id_col])]
        + [(c + "_b", types[c]) for c in carry])
    out_names = out_schema.names

    def merge(part: pa.Table) -> pa.Table:
        if part.num_rows < 2:
            return out_schema.empty_table()
        lt = part.select(sel).rename_columns(
            list(keys) + ["id_a"] + [c + "_a" for c in carry])
        rt = part.select(sel).rename_columns(
            list(keys) + ["id_b"] + [c + "_b" for c in carry])
        out = lt.join(rt, keys=list(keys), join_type="inner",
                      use_threads=False)
        out = out.filter(pc.less(out["id_a"], out["id_b"]))
        return out.select(out_names)

    side = pa.schema([(c, types[c]) for c in sel])
    return hash_exchange([(band_ds, side)], keys, merge, out_schema,
                         num_partitions=num_partitions)


def jaccard(x: np.ndarray, y: np.ndarray) -> float:
    inter = np.intersect1d(x, y, assume_unique=True).size
    union = x.size + y.size - inter
    return inter / union if union else 0.0


def minhash_lsh_pairs(ds, *, num_perm: int = 128, bands: int = 32,
                      threshold: float = 0.5, k: int = 8, seed: int = 42,
                      text_col: str = "text", id_col: str = "doc_id",
                      num_partitions=None):
    """Near-duplicate pairs with exact n-gram Jaccard ≥ threshold.

    Full distributed flow; the only collect-shaped steps are groupbys and
    hash joins (Ray Data shuffle operators).  Returns (id_a, id_b, jaccard)
    with jaccard quantized to 4 dp.
    """
    if num_perm % bands or bands <= 0:
        raise ValueError(f"num_perm ({num_perm}) must be divisible by bands ({bands})")
    rows = num_perm // bands
    if num_partitions is None:
        num_partitions = default_join_partitions()
    id_type = ds_arrow_schema(ds).field(id_col).type
    sigs = apply_minhash(ds, num_perm=num_perm, k=k, seed=seed,
                         text_col=text_col, id_col=id_col)

    # shingle sets again for verification, carried as raw little-endian
    # uint64 bytes (binary flows through shuffles; list columns don't).
    # Deliberately NOT carried through the band self-join: bands× blob
    # replication through that exchange would dominate shuffle volume at
    # corpus scale — the blobs ride the slim attach/verify exchanges of
    # _verify_jaccard_pairs instead.  At 100 TB this column stays in the
    # object store, never on the driver.
    def shingles_batch(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({id_col: pa.array([], id_type),
                             "shingles": pa.array([], pa.binary())})
        H, counts = kgram_hashes_batch(b[text_col], k)
        offs = np.r_[0, np.cumsum(counts)].astype(np.int64)
        blobs = [np.unique(H[offs[i]:offs[i + 1]]).tobytes()
                 for i in range(b.num_rows)]
        return pa.table({
            id_col: b[id_col],
            "shingles": pa.array(blobs, pa.binary()),
        })

    shing = ds.map_batches(shingles_batch, batch_format="pyarrow",
                           zero_copy_batch=True)

    band_ds = sigs.map_batches(
        lambda b: _band_rows(b, bands, rows, id_col),
        batch_format="pyarrow", zero_copy_batch=True)
    cand = _self_join_pairs(
        band_ds, ["band", "band_hash"], [], id_col, num_partitions,
        types={"band": pa.int32(), "band_hash": pa.uint64(),
               id_col: id_type})
    return _verify_jaccard_pairs(cand, shing, id_col=id_col,
                                 id_type=id_type, threshold=threshold,
                                 num_partitions=num_partitions)


def _verify_jaccard_pairs(cand, shing, *, id_col, id_type,
                          threshold: float, num_partitions: int):
    """Exact-Jaccard verification of candidate pairs — TWO co-shuffles, the
    shingle table consumed ONCE (Ray re-executes a shared upstream per
    consumer, so the former two-hash-joins form computed every shingle set
    twice):

    1. **attach**: candidate pairs exploded to one row per (pair, member
       id), unioned with the shingle table, partitioned by id — each
       partition attaches the member's blob with one sort + searchsorted;
    2. **pair merge**: partitioned by (id_a, id_b) — band-duplicate
       candidates collapse here (the same pair always co-locates), then
       each distinct pair's two blobs meet and the exact Jaccard is
       computed and thresholded.  A pair colliding in k bands ships its
       blobs k times through this exchange; true near-dups are assumed
       rare relative to the corpus (run exact dedup first — standard
       web-dedup staging).
    """
    def explode(b: pa.Table) -> pa.Table:
        ids = pa.concat_arrays([as_array(b["id_a"]), as_array(b["id_b"])])
        id_a = pa.concat_arrays([as_array(b["id_a"]), as_array(b["id_a"])])
        id_b = pa.concat_arrays([as_array(b["id_b"]), as_array(b["id_b"])])
        return pa.table({"mkey": ids, "id_a": id_a, "id_b": id_b})

    def shing_rows(b: pa.Table) -> pa.Table:
        return pa.table({"mkey": b[id_col], "blob": b["shingles"]})

    attach_schema = pa.schema([
        ("id_a", id_type), ("id_b", id_type), ("slot", pa.int8()),
        ("blob", pa.binary())])

    def attach(s0: pa.Table, s1: pa.Table) -> pa.Table:
        if s0.num_rows == 0 or s1.num_rows == 0:
            return attach_schema.empty_table()
        k1 = np.asarray(as_array(s1["mkey"]))
        order = np.argsort(k1, kind="stable")
        k0 = np.asarray(as_array(s0["mkey"]))
        pos = np.searchsorted(k1[order], k0)
        # every pair member has its shingle row in this partition by
        # construction (same id -> same hash partition)
        blobs = as_array(s1["blob"]).take(pa.array(order[pos], pa.int64()))
        slot = (k0 != np.asarray(as_array(s0["id_a"]))).astype(np.int8)
        return pa.table({
            "id_a": s0["id_a"], "id_b": s0["id_b"],
            "slot": pa.array(slot), "blob": blobs})

    attached = hash_exchange(
        [(cand.map_batches(explode, batch_format="pyarrow",
                           zero_copy_batch=True),
          pa.schema([("mkey", id_type), ("id_a", id_type),
                     ("id_b", id_type)])),
         (shing.map_batches(shing_rows, batch_format="pyarrow",
                            zero_copy_batch=True),
          pa.schema([("mkey", id_type), ("blob", pa.binary())]))],
        "mkey", attach, attach_schema, num_partitions=num_partitions)

    out_schema = pa.schema([("id_a", id_type), ("id_b", id_type),
                            ("jaccard", pa.float64())])

    def pair_merge(part: pa.Table) -> pa.Table:
        part = part.sort_by([("id_a", "ascending"), ("id_b", "ascending"),
                             ("slot", "ascending")])
        # collapse band-duplicate candidates: keep the first row of each
        # (id_a, id_b, slot) run — vectorized adjacent-compare
        a = np.asarray(as_array(part["id_a"]))
        b_ = np.asarray(as_array(part["id_b"]))
        s = np.asarray(as_array(part["slot"]))
        keep = np.ones(len(a), dtype=bool)
        keep[1:] = (a[1:] != a[:-1]) | (b_[1:] != b_[:-1]) | (s[1:] != s[:-1])
        part = part.filter(pa.array(keep))
        blobs = part["blob"].to_pylist()
        a = a[keep]
        b_ = b_[keep]
        # rows now alternate slot 0 / slot 1 per distinct pair
        ids_a, ids_b, js = [], [], []
        for i in range(0, len(blobs), 2):
            x = np.frombuffer(blobs[i], dtype=np.uint64)
            y = np.frombuffer(blobs[i + 1], dtype=np.uint64)
            raw = jaccard(x, y)
            # threshold the RAW value (matching jaccard_pairs_brute and
            # the pinned golden); quantize only the REPORTED column — a
            # pair at e.g. 0.49998 must not round up across the 0.5 gate
            if raw >= threshold:
                ids_a.append(a[i])
                ids_b.append(b_[i])
                js.append(math.floor(raw * 10000.0 + 0.5) / 10000.0)
        return pa.table({"id_a": pa.array(ids_a, id_type),
                         "id_b": pa.array(ids_b, id_type),
                         "jaccard": pa.array(js, pa.float64())})

    return hash_exchange([(attached, attach_schema)], ["id_a", "id_b"],
                         pair_merge, out_schema,
                         num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# brute-force n-gram Jaccard (oracle-grade baseline for small candidate sets)


#: per-worker id->position cache for the brute-force pair finder
_BRUTE_POS_CACHE: dict = {}


def jaccard_pairs_brute(ds, *, threshold: float = 0.5, k: int = 8,
                        text_col: str = "text", id_col: str = "doc_id"):
    """All-pairs exact Jaccard via a broadcast INVERTED shingle index.

    The small-side-broadcast pattern: the index is put in the object store
    ONCE (``ray.put``) and read zero-copy by every actor — valid while the
    index fits a node (≈ a few GB); beyond that use
    :func:`minhash_lsh_pairs`.

    Kernel: per query document, intersection sizes against ALL documents
    come from ONE posting-list gather + ``np.bincount`` — cost proportional
    to the actual shingle co-occurrences of that document, not O(corpus)
    (the naive scan-every-other-document loop this replaces did
    |corpus| Python iterations per row).
    """
    import ray

    # explicit contract: the positional kernel (numpy id compares,
    # bincount positions) requires integer ids — minhash_lsh_pairs is the
    # arbitrary-id (and scale) path
    id_type = ds_arrow_schema(ds).field(id_col).type
    if not pa.types.is_integer(id_type):
        raise TypeError("jaccard_pairs_brute requires integer doc ids; "
                        "use minhash_lsh_pairs for other id types")

    idx_rows = ds.select_columns([id_col, text_col]).take_all()
    ids = np.array(sorted(r[id_col] for r in idx_rows), dtype=np.int64)
    by_id = {r[id_col]: r[text_col] for r in idx_rows}
    sets = [shingle_set(by_id[i], k) for i in ids]
    sizes = np.array([len(s) for s in sets], dtype=np.int64)
    # inverted index: sorted distinct shingles + postings (doc indices)
    shingles = np.concatenate(sets) if sets else np.array([], np.uint64)
    doc_of = np.repeat(np.arange(len(ids), dtype=np.int64), sizes)
    order = np.argsort(shingles, kind="stable")
    shingles, doc_of = shingles[order], doc_of[order]
    uniq, starts = np.unique(shingles, return_index=True)
    ends = np.r_[starts[1:], len(shingles)]
    index_ref = ray.put((ids, sets, sizes, uniq, starts, ends, doc_of))

    def pair_finder(b: pa.Table) -> pa.Table:
        # task-mode broadcast: the index tuple is a zero-copy plasma read;
        # only the tiny id→position dict is rebuilt, cached per worker
        # (the ray.put-once / read-per-worker pattern, never re-shipped)
        ids_, sets, sizes, uniq, starts, ends, doc_of = ray.get(index_ref)
        pos_of = _BRUTE_POS_CACHE.get(index_ref.hex())
        if pos_of is None:
            # only one index is live per call — evict older entries so a
            # long-lived worker doesn't pin a dict per past invocation
            _BRUTE_POS_CACHE.clear()
            pos_of = _BRUTE_POS_CACHE.setdefault(
                index_ref.hex(), {int(i): p for p, i in enumerate(ids_)})
        a_out, b_out, js = [], [], []
        n_docs = len(ids_)
        for i_ in b[id_col].to_pylist():
            pi = pos_of[int(i_)]
            sh = sets[pi]
            loc = np.searchsorted(uniq, sh)
            loc = loc[(loc < len(uniq)) & (uniq[np.minimum(
                loc, len(uniq) - 1)] == sh)]
            if not len(loc):
                continue
            # gather postings of every shingle, count co-occurrences
            lens = ends[loc] - starts[loc]
            gidx = (np.repeat(starts[loc], lens)
                    + _ragged_arange(lens))
            inter = np.bincount(doc_of[gidx], minlength=n_docs)
            union = sizes[pi] + sizes - inter
            with np.errstate(invalid="ignore", divide="ignore"):
                jac = np.where(union > 0, inter / union, 0.0)
            cand = np.flatnonzero((jac >= threshold)
                                  & (ids_ > i_))
            for cj in cand:
                a_out.append(i_)
                b_out.append(int(ids_[cj]))
                js.append(math.floor(jac[cj] * 10000.0 + 0.5) / 10000.0)
        return pa.table({"id_a": pa.array(a_out, pa.int64()),
                         "id_b": pa.array(b_out, pa.int64()),
                         "jaccard": pa.array(js, pa.float64())})

    return ds.map_batches(pair_finder, batch_format="pyarrow",
                          zero_copy_batch=True)


#: shared vectorized ragged-arange (moved to util; alias kept for callers)
_ragged_arange = ragged_arange


# ---------------------------------------------------------------------------
# SimHash


def simhash_batch(batch: pa.Table, *, k: int = 4, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """64-bit SimHash per document (Charikar) over byte k-gram hashes.

    Batched ACROSS documents: one vectorized k-gram pass over the batch's
    concatenated text, one (windows × 64) bit expansion per bounded chunk,
    and ``np.add.reduceat`` at document boundaries — no Python loop per
    document; bit-identical to the per-doc kernel it replaces."""
    n = batch.num_rows
    out = np.empty(n, dtype=np.uint64)
    if n:
        H, counts = kgram_hashes_batch(batch[text_col], k)
        offs = np.r_[0, np.cumsum(counts)].astype(np.int64)
        i = 0
        while i < n:
            j = i + 1
            while j < n and offs[j + 1] - offs[i] <= _MAX_CHUNK_WINDOWS:
                j += 1
            h = H[offs[i]:offs[j]]
            # unpackbits gives the (windows × 64) bit matrix as uint8
            # straight from the hash bytes — 8× less memory traffic than
            # the shift-and-mask int32 expansion it replaces, and counting
            # ONES then testing 2·ones ≥ windows is bit-identical to
            # summing ±1 and testing ≥ 0 (ties set the bit in both).
            # counts ≥ 1 always (kgram_hashes_batch contract), so reduceat
            # never sees a repeated boundary.
            # byteswap on big-endian hosts keeps the byte view (and hence
            # bit↔column mapping) identical to little-endian — the old
            # shift-and-mask kernel was endianness-independent and the
            # signatures are golden-pinned
            hb = h.byteswap() if sys.byteorder == "big" else h
            bits = np.unpackbits(hb.view(np.uint8).reshape(-1, 8), axis=1,
                                 bitorder="little")
            ones = np.add.reduceat(bits, offs[i:j] - offs[i], axis=0,
                                   dtype=np.int64)
            nw = np.diff(offs[i:j + 1])
            maj = (2 * ones >= nw[:, None]).astype(np.uint8)
            packed = np.packbits(maj, axis=1,
                                 bitorder="little").view(np.uint64).ravel()
            out[i:j] = packed.byteswap() if sys.byteorder == "big" else packed
            i = j
    return pa.table({id_col: batch[id_col],
                     "simhash": pa.array(out, pa.uint64())})


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit Hamming distance via SWAR popcount (one pass,
    ~6 whole-array ops — the 64-round shift-and-mask loop it replaces made
    64 passes over the candidate array, the simhash verify hot path)."""
    x = np.bitwise_xor(a, b)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    with np.errstate(over="ignore"):
        x = (x * h01) >> np.uint64(56)
    return x.astype(np.int64)


def simhash_pairs(ds, *, max_hamming: int = 3, k: int = 4,
                  text_col: str = "text", id_col: str = "doc_id",
                  num_partitions=None):
    """Near-dup pairs with Hamming(simhash) ≤ max_hamming.

    Pigeonhole (Manku/Jain/Sarma): distance ≤ 3 over 4 bands ⇒ at least one
    16-bit band identical.  ONE banding explode (4 rows/doc) → ONE self-join
    on (band, band_val) → vectorized Hamming filter → pair dedup
    (``util.grouped_arrow_aggregate``).  Two shuffles total; every step
    Arrow-vectorized.
    """
    if max_hamming > 3:
        # the fixed 4×16-bit banding only guarantees a shared band for
        # distance ≤ 3 (pigeonhole) — a larger radius would silently lose
        # recall, so refuse instead
        raise ValueError("simhash_pairs banding supports max_hamming <= 3; "
                         f"got {max_hamming}")
    if num_partitions is None:
        num_partitions = default_join_partitions()
    id_type = ds_arrow_schema(ds).field(id_col).type
    sh = ds.map_batches(
        lambda b: simhash_batch(b, k=k, text_col=text_col, id_col=id_col),
        batch_format="pyarrow", zero_copy_batch=True)

    def band_rows(b: pa.Table) -> pa.Table:
        sims = np.asarray(b["simhash"])
        n = b.num_rows
        band_idx = np.tile(np.arange(4, dtype=np.int32), n)
        rep_sims = np.repeat(sims, 4)
        band_val = ((rep_sims >> (np.uint64(16) * band_idx.astype(np.uint64)))
                    & np.uint64(0xFFFF)).astype(np.uint32)
        # take() instead of a numpy round-trip: preserves the real id type
        rep_ids = b[id_col].take(pa.array(
            np.repeat(np.arange(n, dtype=np.int64), 4)))
        return pa.table({
            id_col: rep_ids,
            "simhash": pa.array(rep_sims, pa.uint64()),
            "band": pa.array(band_idx, pa.int32()),
            "band_val": pa.array(band_val, pa.uint32()),
        })

    band_ds = sh.map_batches(band_rows, batch_format="pyarrow",
                             zero_copy_batch=True)
    cand = _self_join_pairs(
        band_ds, ["band", "band_val"], ["simhash"], id_col, num_partitions,
        types={"band": pa.int32(), "band_val": pa.uint32(),
               "simhash": pa.uint64(), id_col: id_type})

    def ham_filter(b: pa.Table) -> pa.Table:
        d = hamming64(np.asarray(b["simhash_a"]), np.asarray(b["simhash_b"]))
        t = pa.table({"id_a": b["id_a"], "id_b": b["id_b"],
                      "hamming": pa.array(d, pa.int64())})
        return t.filter(pc.less_equal(t["hamming"], max_hamming))

    pairs = cand.map_batches(ham_filter, batch_format="pyarrow",
                             zero_copy_batch=True)
    # a pair sharing several bands arrives once per band: keep one
    pairs_schema = pa.schema([("id_a", id_type), ("id_b", id_type),
                              ("hamming", pa.int64())])
    return grouped_arrow_aggregate(
        (pairs, pairs_schema), ["id_a", "id_b"],
        [("hamming", "min", "hamming")], num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# near-dup clustering: connected components via min-label propagation


def neardup_clusters(ids_ds, pairs_ds, *, id_col: str = "doc_id",
                     rounds: int = 5, num_partitions=None):
    """Connected components over near-dup pairs → (id, cluster) where
    ``cluster`` is the minimum id in the component (its representative).

    Iterative min-label propagation expressed entirely in Dataset ops
    (join + groupby Min per round) — no driver-side union-find, so the
    edge set may exceed driver memory.  ``rounds`` bounds propagation
    distance; near-dup components are shallow (dup clusters, not long
    chains), so a handful of rounds converges.
    """
    import pyarrow as pa

    if num_partitions is None:
        num_partitions = default_join_partitions()

    def to_nodes(b: pa.Table) -> pa.Table:
        return pa.table({"node": b[id_col].cast(pa.int64()),
                         "label": b[id_col].cast(pa.int64())})

    labels = ids_ds.map_batches(to_nodes, batch_format="pyarrow",
                                zero_copy_batch=True)

    def both_directions(b: pa.Table) -> pa.Table:
        """Emit src→dst AND dst→src in ONE pass — a two-branch
        ``pairs.map(fwd).union(pairs.map(rev))`` would execute the entire
        upstream pair pipeline (e.g. minhash LSH) twice, since Ray Data
        re-runs a shared sub-DAG once per consumer."""
        a = as_array(b["id_a"].cast(pa.int64()))
        c = as_array(b["id_b"].cast(pa.int64()))
        return pa.table({"src": pa.concat_arrays([a, c]),
                         "dst": pa.concat_arrays([c, a])})

    sym = pairs_ds.map_batches(both_directions, batch_format="pyarrow",
                               zero_copy_batch=True)

    # iterative algorithm: materialize per round — labels are consumed
    # TWICE per round (join probe + union), so a lazy plan re-executes all
    # prior rounds exponentially.  The materialized state is one slim row
    # per node, held distributed in the object store, never on the driver.
    sym = sym.materialize()
    labels = labels.materialize()
    prev_sum = None
    i64 = pa.int64()
    node_labels = pa.schema([("node", i64), ("label", i64)])
    for _ in range(rounds):
        prop = schema_pinned_join(
            sym,
            labels.map_batches(
                lambda b: pa.table({"src": b["node"], "label": b["label"]}),
                batch_format="pyarrow", zero_copy_batch=True),
            on=("src",), num_partitions=num_partitions,
            left_schema=pa.schema([("src", i64), ("dst", i64)]),
            right_schema=pa.schema([("src", i64), ("label", i64)]))
        prop_labels = prop.map_batches(
            lambda b: pa.table({"node": b["dst"], "label": b["label"]}),
            batch_format="pyarrow", zero_copy_batch=True)
        # a sort exchange emits as many blocks as it reads, so the
        # re-fed labels would double their block count (and the next
        # round's task count) every round — repartition bounds it
        labels = grouped_arrow_aggregate(
            (labels.union(prop_labels), node_labels), "node",
            [("label", "min", "label")],
            num_partitions=num_partitions
        ).repartition(num_partitions).materialize()
        # convergence: labels only ever DECREASE (Min), so the label total
        # is strictly monotone while anything changes — an unchanged sum
        # means a fixed point, and further rounds are pure shuffle cost
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda b: pa.table({id_col: b["node"], "cluster": b["label"]}),
        batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup


def cosine_neardup(ds, *, threshold: float = 0.4, vec_col: str = "embedding",
                   id_col: str = "vec_id"):
    """Pairs (id_a < id_b) with cosine ≥ threshold.

    Baseline broadcast-matmul: the normalized corpus matrix is built once
    driver-side (small side — 500×64 at sf0.01; sample/IVF beyond node RAM,
    see :mod:`.similarity`), ``ray.put`` into the object store, and every
    batch does one numpy matmul against it — no shuffle at all.
    Oracle: DuckDB self-join with ``list_cosine_similarity(::DOUBLE[])``.
    """
    import ray

    rows = ds.select_columns([id_col, vec_col]).take_all()
    ids = np.array([r[id_col] for r in rows], dtype=np.int64)
    M = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in rows])
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    ref = ray.put((ids, M))

    def batch_pairs(b: pa.Table) -> pa.Table:
        # task-mode broadcast: ray.get of a local plasma object is a
        # zero-copy numpy view — cheap enough per batch, and tasks avoid
        # the actor pool's startup variance on cheap-state stages
        all_ids, Mn = ray.get(ref)
        if b.num_rows == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        bid = np.asarray(b[id_col], dtype=np.int64)
        V = np.stack([np.asarray(v, dtype=np.float64)
                      for v in b[vec_col].to_pylist()])
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        C = V @ Mn.T                                 # (nb, N)
        keep = C >= threshold
        # only emit (row_id < corpus_id) to halve output and kill dupes
        keep &= bid[:, None] < all_ids[None, :]
        ii, jj = np.nonzero(keep)
        from .similarity import _q4
        return pa.table({
            "id_a": pa.array(bid[ii], pa.int64()),
            "id_b": pa.array(all_ids[jj], pa.int64()),
            "cos": pa.array(_q4(C[ii, jj]), pa.float64()),
        })

    return ds.map_batches(batch_pairs, batch_format="pyarrow",
                          zero_copy_batch=True)


def cosine_neardup_bucketed(ds, *, threshold: float = 0.4,
                            n_centroids: int = 8, iters: int = 5,
                            train_rows: int = 2048,
                            vec_col: str = "embedding",
                            id_col: str = "vec_id", num_partitions=None):
    """Bucketed embedding near-dup — the 100 TB path for cosine pairs.

    The broadcast-matmul baseline (:func:`cosine_neardup`) materializes the
    corpus matrix on the driver; this variant touches the driver only with
    a bounded training sample: a deterministic coarse quantizer
    (:class:`.similarity.IvfIndex`) buckets the stream, candidate pairs
    come from a hash SELF-JOIN on the bucket id (normalized vectors riding
    as binary), and each candidate is verified with the exact cosine.  No
    all-pairs, no full materialization anywhere.

    Recall caveat (standard coarse quantization): a pair straddling a
    bucket boundary is missed — near-IDENTICAL vectors virtually always
    share a nearest centroid, moderately-similar pairs may not.  The
    harness pins behavior with a golden oracle; exactness at small scale
    is the broadcast variant's job.
    """
    import ray

    from .similarity import IvfIndex, _normalize

    if num_partitions is None:
        num_partitions = default_join_partitions()
    id_type = ds_arrow_schema(ds).field(id_col).type
    sample = ds.select_columns([vec_col]).limit(train_rows).take_all()
    S = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in sample])
    index = IvfIndex.train(S, n_centroids=n_centroids, iters=iters)
    ref = ray.put(index.centroids)

    def assign(b: pa.Table) -> pa.Table:
        C = ray.get(ref)        # zero-copy local plasma read per task
        if b.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int32()),
                             "vec": pa.array([], pa.binary())})
        V = _normalize(np.stack([np.asarray(v, dtype=np.float64)
                                 for v in b[vec_col].to_pylist()]))
        bucket = (V @ C.T).argmax(axis=1).astype(np.int32)
        return pa.table({
            id_col: b[id_col],
            "bucket": pa.array(bucket, pa.int32()),
            "vec": pa.array([row.tobytes() for row in V], pa.binary()),
        })

    assigned = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)
    cand = _self_join_pairs(
        assigned, ["bucket"], ["vec"], id_col, num_partitions,
        types={"bucket": pa.int32(), "vec": pa.binary(),
               id_col: id_type})

    def verify(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        va = np.stack([np.frombuffer(x, dtype=np.float64)
                       for x in b["vec_a"].to_pylist()])
        vb = np.stack([np.frombuffer(x, dtype=np.float64)
                       for x in b["vec_b"].to_pylist()])
        c = np.einsum("ij,ij->i", va, vb)
        from .similarity import _q4
        t = pa.table({"id_a": b["id_a"], "id_b": b["id_b"],
                      "cos": pa.array(_q4(c), pa.float64())})
        return t.filter(pc.greater_equal(
            pa.array(c), pa.scalar(float(threshold))))

    return cand.map_batches(verify, batch_format="pyarrow",
                            zero_copy_batch=True)


def cosine_neardup_sql(threshold: float = 0.4,
                       table: str = "embeddings") -> str:
    return f"""
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
  round(list_cosine_similarity(a.embedding::DOUBLE[],
                               b.embedding::DOUBLE[]) * 10000.0) / 10000.0 AS cos
FROM {table} a JOIN {table} b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                             b.embedding::DOUBLE[]) >= {threshold}"""
