"""Golden parquet oracles for the non-SQL-expressible operators (sf0.01).

The driver's DuckDB oracle cannot compute minhash/simhash/winnowing/HLL/PCA
natively, so — following the reference's golden-fixture philosophy
(/root/reference/tests/.../LayoutIteratorTests.java:54-64: pinned structural
counts) — these oracles are golden parquet files produced by pinned SERIAL
computations over /root/testdata/sf0.01, loaded into DuckDB via
``read_parquet``.  Where possible the serial path is an INDEPENDENT
algorithm, not the distributed one:

* near-dup pair sets: brute-force all-pairs over the signature/shingle
  kernels (no LSH banding, no self-joins) — verifies the banded candidate
  generation achieves full recall at these parameters;
* clusters: a driver-side union-find (no label propagation);
* PCA: one-shot numpy moments + eigh with the same pinned sign convention;
* winnow / HLL / media: the pinned per-batch kernels applied serially.

Usage:  python scripts/make_op_goldens.py   (from the repo root)
Rewrites fixtures/op_goldens/*.parquet; byte-stable across reruns.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

SF_DIR = "/root/testdata/sf0.01"
OUT = os.path.join(REPO, "fixtures", "op_goldens")

# imported from the harness so golden parameters can never drift from the
# query parameters they pin
import __ray_entry__ as _entry  # noqa: E402

MINHASH_THRESHOLD = _entry.MINHASH_THRESHOLD
SIMHASH_MAX_HAMMING = _entry.SIMHASH_MAX_HAMMING


def _docs() -> pa.Table:
    return pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text", "lang"])


def g_winnow() -> pa.Table:
    from org_dharts_dia_tesseract_ray.functions.fingerprint import (
        winnow_batch)
    t = winnow_batch(_docs())
    return t.select(["doc_id", "n_fp", "min_fp"])


_BRUTE_CACHE: dict = {}


def _brute_jaccard_pairs(k: int = 8) -> pa.Table:
    """Independent brute force: all-pairs exact Jaccard over shingle sets.
    Memoized — three goldens derive from the same O(n²) pair set."""
    if k in _BRUTE_CACHE:
        return _BRUTE_CACHE[k]
    from org_dharts_dia_tesseract_ray.functions.dedup import (jaccard,
                                                              shingle_set)
    t = _docs()
    ids = t["doc_id"].to_pylist()
    sets = [shingle_set(s, k) for s in t["text"].to_pylist()]
    order = np.argsort(ids)
    a_out, b_out, js = [], [], []
    for ii in range(len(order)):
        for jj in range(ii + 1, len(order)):
            i, j = order[ii], order[jj]
            jac = jaccard(sets[i], sets[j])
            if jac >= MINHASH_THRESHOLD:
                a_out.append(ids[i])
                b_out.append(ids[j])
                js.append(math.floor(jac * 10000.0 + 0.5) / 10000.0)
    t = pa.table({"id_a": pa.array(a_out, pa.int64()),
                  "id_b": pa.array(b_out, pa.int64()),
                  "jaccard": pa.array(js, pa.float64())})
    _BRUTE_CACHE[k] = t
    return t


def g_minhash_pairs() -> pa.Table:
    # the distributed LSH verifies candidates with EXACT Jaccard, so its
    # output equals the brute set iff banding recall is 1.0 at these
    # parameters — which this golden asserts end-to-end
    return _brute_jaccard_pairs(k=8)


def g_jaccard_pairs() -> pa.Table:
    return _brute_jaccard_pairs(k=8)


def g_simhash_pairs() -> pa.Table:
    from org_dharts_dia_tesseract_ray.functions.dedup import (hamming64,
                                                              simhash_batch)
    t = _docs()
    sh = simhash_batch(t, k=4)
    ids = np.asarray(sh["doc_id"], dtype=np.int64)
    sims = np.asarray(sh["simhash"])
    a_out, b_out, hs = [], [], []
    for i in range(len(ids)):
        d = hamming64(np.full(len(ids) - i - 1, sims[i], dtype=np.uint64),
                      sims[i + 1:])
        for off in np.flatnonzero(d <= SIMHASH_MAX_HAMMING):
            x, y = int(ids[i]), int(ids[i + 1 + off])
            a, b = (x, y) if x < y else (y, x)
            a_out.append(a)
            b_out.append(b)
            hs.append(int(d[off]))
    order = np.lexsort((b_out, a_out))
    return pa.table({
        "id_a": pa.array(np.asarray(a_out, dtype=np.int64)[order]),
        "id_b": pa.array(np.asarray(b_out, dtype=np.int64)[order]),
        "hamming": pa.array(np.asarray(hs, dtype=np.int64)[order]),
    })


def g_clusters() -> pa.Table:
    """Union-find over the brute pair set — independent of the distributed
    min-label propagation."""
    pairs = _brute_jaccard_pairs(k=8)
    ids = _docs()["doc_id"].to_pylist()
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return pa.table({
        "doc_id": pa.array(sorted(ids), pa.int64()),
        "cluster": pa.array([find(i) for i in sorted(ids)], pa.int64()),
    })


def g_cosine_bucketed() -> pa.Table:
    """Serial replication of the bucketed cosine near-dup at the harness
    params: same deterministic index (trained on the first 2048 = all
    rows at sf0.01), per-bucket all-pairs exact cosine ≥ 0.45."""
    from org_dharts_dia_tesseract_ray.functions.similarity import (IvfIndex,
                                                                   _normalize)
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"], dtype=np.int64)
    M = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    index = IvfIndex.train(M[:2048], n_centroids=8, iters=5)
    Vn = _normalize(M)
    bucket = (Vn @ index.centroids.T).argmax(axis=1)
    a_out, b_out, cs = [], [], []
    for bkt in np.unique(bucket):
        sel = np.flatnonzero(bucket == bkt)
        sub_ids = ids[sel]
        sub = Vn[sel]
        ii, jj = np.meshgrid(np.arange(len(sel)), np.arange(len(sel)),
                             indexing="ij")
        keep = sub_ids[ii] < sub_ids[jj]
        ii, jj = ii[keep], jj[keep]
        # same pairwise-dot kernel as the distributed verifier (einsum) —
        # a BLAS matmul could differ by ulps right at the threshold; the
        # QUANTIZATION is deliberately reimplemented inline (scalar
        # half-away-from-zero) so a regression in the engine's _q4 cannot
        # co-move into this golden
        C = np.einsum("ij,ij->i", sub[ii], sub[jj])
        for i_, j_, c in zip(sub_ids[ii], sub_ids[jj], C):
            if c >= 0.45:
                sc = float(c) * 10000.0
                a_out.append(int(i_))
                b_out.append(int(j_))
                cs.append((math.floor(sc + 0.5) if sc >= 0
                           else math.ceil(sc - 0.5)) / 10000.0)
    order = np.lexsort((b_out, a_out))
    return pa.table({
        "id_a": pa.array(np.asarray(a_out, np.int64)[order]),
        "id_b": pa.array(np.asarray(b_out, np.int64)[order]),
        "cos": pa.array(np.asarray(cs, np.float64)[order]),
    })


def g_pca() -> pa.Table:
    """One-shot numpy PCA with the pinned sign convention + the query's
    4 dp quantization (np.round, matching harness/dedup._q_embeddings_pca)."""
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    X = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    n = X.shape[0]
    sx = X.sum(axis=0)
    sxx = X.T @ X
    mean = sx / n
    cov = sxx / n - np.outer(mean, mean)
    w, v = np.linalg.eigh(cov)
    comp = v[:, ::-1][:, :4].T.copy()
    for i in range(comp.shape[0]):
        j = int(np.abs(comp[i]).argmax())
        if comp[i, j] < 0:
            comp[i] = -comp[i]
    Y = (X - mean) @ comp.T
    cols = {"vec_id": t["vec_id"]}
    for i in range(Y.shape[1]):
        cols[f"pc{i}"] = pa.array(np.round(Y[:, i] * 10000.0) / 10000.0,
                                  pa.float64())
    return pa.table(cols)


def g_ann_ivf() -> pa.Table:
    """Serial replication of the IVF query at the harness parameters:
    deterministic k-means index over the full matrix, union-of-probes
    pruning, exact cosine top-k with (cos desc, id asc) tie-break."""
    from org_dharts_dia_tesseract_ray.functions.similarity import (IvfIndex,
                                                                   _normalize,
                                                                   _q4)
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"], dtype=np.int64)
    M = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    index = IvfIndex.train(M, n_centroids=8, iters=5)
    nq, k, nprobe = 8, 5, 4
    qids = ids[:nq]
    Qn = _normalize(M[:nq].copy())
    probes = index.probe(M[:nq], nprobe)
    union = np.unique(probes)
    assign = (_normalize(M) @ index.centroids.T).argmax(axis=1)
    keep = np.isin(assign, union)
    sub_ids = ids[keep]
    Vn = _normalize(M[keep])
    C = Qn @ Vn.T
    q_out, n_out, c_out = [], [], []
    for qi in range(nq):
        cos = C[qi].copy()
        cos[sub_ids == qids[qi]] = -np.inf
        order = np.lexsort((sub_ids, -cos))[:k]
        for j in order:
            if np.isfinite(cos[j]):
                q_out.append(int(qids[qi]))
                n_out.append(int(sub_ids[j]))
                c_out.append(float(_q4(np.array([cos[j]]))[0]))
    return pa.table({"query_id": pa.array(q_out, pa.int64()),
                     "neighbor_id": pa.array(n_out, pa.int64()),
                     "cos": pa.array(c_out, pa.float64())})


def _py_poly_hash(token: str) -> int:
    """INDEPENDENT pure-Python reimplementation of the engine's vectorized
    byte-polynomial hash + splitmix64 (util._string_hash64 / util.mix64) —
    a regression in the numpy reduceat/scatter kernels shows up as a golden
    mismatch here, not as a silently co-moving oracle."""
    mask = (1 << 64) - 1
    h = 0
    p = 1
    for b in token.encode("utf-8"):
        h = (h + b * p) & mask
        p = (p * 1099511628211) & mask
    h = (h + 0x9E3779B97F4A7C15) & mask
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & mask
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & mask
    h ^= h >> 31
    return h


def g_approx_distinct() -> pa.Table:
    """Independent serial HLL: Python tokenization + the pure-Python hash
    above + per-token register updates (no shared numpy kernels except the
    final estimator formula)."""
    from org_dharts_dia_tesseract_ray.functions.sketch import (M, P,
                                                               hll_estimate)
    import re as _re

    # engine tokenization = unicode trim + RE2 (ASCII) \s+ split; Python
    # str.split() splits on unicode whitespace and would diverge on NBSP
    _ws = _re.compile(r"\s+", _re.ASCII)
    t = _docs()
    regs: dict[str, np.ndarray] = {}
    for lang, text in zip(t["lang"].to_pylist(), t["text"].to_pylist()):
        reg = regs.setdefault(lang, np.zeros(M, dtype=np.int8))
        for tok in _ws.split((text or "").strip()):
            if not tok:
                continue
            h = _py_poly_hash(tok)
            idx = h >> (64 - P)
            rest = (h << P) & ((1 << 64) - 1)
            rank = (64 - P + 1) if rest == 0 else \
                (64 - rest.bit_length() + 1)
            if rank > reg[idx]:
                reg[idx] = rank
    langs = sorted(regs)
    return pa.table({
        "lang": pa.array(langs, pa.string()),
        "approx_distinct": pa.array(
            [int(round(hll_estimate(regs[lang]))) for lang in langs],
            pa.int64()),
    })


def _media_pattern(item_id: int, seed: int, frame: int, w: int,
                   h: int) -> np.ndarray:
    """INDEPENDENT inline restatement of the SYNM v2 pixel pattern — the
    engine's decoder must recover exactly these rasters through the RLE
    round-trip; a codec regression shows up here, not as a co-moving
    oracle."""
    xs = np.arange(w, dtype=np.int64)
    ys = np.arange(h, dtype=np.int64)
    return (((xs[None, :] >> 3) * 37 + (ys[:, None] >> 3) * 11
             + frame * 7 + item_id * 13 + seed) % 256).astype(np.uint8)


def g_media_decode() -> pa.Table:
    """Expected decode table WITHOUT running the decoder: statuses from the
    corruption schedule (every 13th row damaged), pixel CRCs from the
    pattern synthesized directly (no RLE encode/decode involved)."""
    import zlib
    ids, st, ws, hs, fs, crcs = [], [], [], [], [], []
    for i in range(64):
        w = 32 + (i * 7) % 96
        h = 24 + (i * 5) % 72
        ids.append(i)
        if i % 13 == 12:                      # corrupt_every=13 schedule
            st.append("decode_error")
            ws.append(0); hs.append(0); fs.append(0); crcs.append(-1)
        else:
            crc = zlib.crc32(_media_pattern(i, 42, 0, w, h).tobytes())
            st.append("ok")
            ws.append(w); hs.append(h); fs.append(1)
            crcs.append(crc & 0xFFFFFFFF)
    return pa.table({
        "item_id": pa.array(ids, pa.int64()),
        "status": pa.array(st, pa.string()),
        "width": pa.array(ws, pa.int32()),
        "height": pa.array(hs, pa.int32()),
        "n_frames": pa.array(fs, pa.int32()),
        "px_checksum": pa.array(crcs, pa.int64()),
    })


def g_media_frames() -> pa.Table:
    """Expected frame-sample table from the pattern directly (the engine
    seeks + RLE-decodes each sampled frame; this golden never touches the
    container)."""
    ids, fis, means = [], [], []
    for i in range(64):
        w = 32 + (i * 7) % 96
        h = 24 + (i * 5) % 72
        nf = 8 + i % 24
        for fi in range(0, nf, 4):
            px = _media_pattern(i, 42, fi, w, h)
            m = int(px.astype(np.int64).sum()) / px.size
            ids.append(i)
            fis.append(fi)
            means.append(np.floor(m * 1e6 + 0.5) / 1e6)
    return pa.table({
        "item_id": pa.array(ids, pa.int64()),
        "frame_idx": pa.array(fis, pa.int64()),
        "frame_mean": pa.array(means, pa.float64()),
    })


def g_audio_features() -> pa.Table:
    """Expected audio-feature table from the pattern directly (the engine
    decodes the SYNM container; this golden synthesizes the waveform
    inline).  Schedule mirrors synth_audio_table(64, corrupt_every=13)."""
    ids, cis, en, zc, pk = [], [], [], [], []
    for i in range(64):
        w = 256 + (i * 31) % 768
        nf = 6 + i % 10
        if i % 13 == 12:
            ids.append(i)
            cis.append(-1)
            en.append(None)
            zc.append(None)
            pk.append(None)
            continue
        for fi in range(nf):
            s = _media_pattern(i, 42, fi, w, 1).reshape(-1).astype(
                np.int64) - 128
            ids.append(i)
            cis.append(fi)
            en.append(int(np.abs(s).sum()))
            zc.append(int(np.count_nonzero(np.diff(s >= 0))))
            pk.append(int(np.abs(s).max()))
    return pa.table({
        "item_id": pa.array(ids, pa.int64()),
        "chunk_idx": pa.array(cis, pa.int64()),
        "energy": pa.array(en, pa.int64()),
        "zcr": pa.array(zc, pa.int64()),
        "peak": pa.array(pk, pa.int64()),
    })


def g_media_resize() -> pa.Table:
    """Expected resize table: box-downsample the inline pattern directly
    (integer floor-mean boxes, 16x12), never touching the container."""
    import zlib
    ids, st, px, crcs = [], [], [], []
    for i in range(64):
        w = 32 + (i * 7) % 96
        h = 24 + (i * 5) % 72
        ids.append(i)
        if i % 13 == 12:
            st.append("decode_error")
            px.append("")
            crcs.append(-1)
            continue
        f = _media_pattern(i, 42, 0, w, h).astype(np.int64)
        ys = np.linspace(0, h, 13).astype(np.int64)
        xs = np.linspace(0, w, 17).astype(np.int64)
        out = np.empty((12, 16), np.uint8)
        for r in range(12):
            for c in range(16):
                box = f[ys[r]:ys[r + 1], xs[c]:xs[c + 1]]
                out[r, c] = int(box.sum()) // box.size
        raw = out.tobytes()
        st.append("ok")
        px.append(raw.hex())        # hex-projected: BLOBs break the
        crcs.append(zlib.crc32(raw) & 0xFFFFFFFF)   # compare-frame hash
    return pa.table({
        "item_id": pa.array(ids, pa.int64()),
        "status": pa.array(st, pa.string()),
        "rw": pa.array([16] * 64, pa.int32()),
        "rh": pa.array([12] * 64, pa.int32()),
        "pixels_hex": pa.array(px, pa.string()),
        "px_crc": pa.array(crcs, pa.int64()),
    })


def g_compression_ratio() -> pa.Table:
    """Expected compression-ratio table: the pinned per-batch kernel applied
    serially over the whole table (zlib level 6 is deterministic for a
    fixed input — the make_pdf_payload convention)."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        compression_ratio_batch)
    return compression_ratio_batch(_docs().select(["doc_id", "text"]))


GOLDENS = {
    "winnow_fingerprints": g_winnow,
    "neardup_minhash_lsh": g_minhash_pairs,
    "neardup_jaccard_brute": g_jaccard_pairs,
    "neardup_simhash": g_simhash_pairs,
    "neardup_clusters": g_clusters,
    "neardup_cosine_bucketed": g_cosine_bucketed,
    "embeddings_pca": g_pca,
    "ann_ivf_topk": g_ann_ivf,
    "approx_distinct_tokens": g_approx_distinct,
    "media_decode": g_media_decode,
    "media_frame_sample": g_media_frames,
    "audio_features": g_audio_features,
    "media_resize": g_media_resize,
    "compression_ratio": g_compression_ratio,
}


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    for name, fn in GOLDENS.items():
        t = fn()
        pq.write_table(t, os.path.join(OUT, f"{name}.parquet"))
        print(f"{name}: {t.num_rows} rows, cols={t.column_names}")


if __name__ == "__main__":
    main()
