"""Dedup queries: exact, normalized, line and substring dedup, MinHash /
SimHash / Jaccard / cosine near-duplicates and their clusters, content
fingerprints, Bloom incremental dedup, and the embedding similarity search
(ANN top-k, PCA) that shares the near-dup embedding inputs."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from org_dharts_dia_tesseract_ray.functions.bloomdedup import (
    bloom_build, bloom_filter_new, bloom_new_keys_sql)
from org_dharts_dia_tesseract_ray.functions.dedup import (
    cosine_neardup, cosine_neardup_bucketed, cosine_neardup_sql, exact_dedup,
    exact_dedup_sql, jaccard_pairs_brute, minhash_lsh_pairs,
    neardup_clusters, simhash_pairs)
from org_dharts_dia_tesseract_ray.functions.fingerprint import (
    apply_md5, apply_winnow, md5_sql)
from org_dharts_dia_tesseract_ray.functions.pca import (fit_pca,
                                                        transform_pca)
from org_dharts_dia_tesseract_ray.functions.similarity import (
    IvfIndex, brute_topk, brute_topk_sql, ivf_topk)
from org_dharts_dia_tesseract_ray.functions.substrdedup import (
    dedup_substrings, dedup_substrings_sql, duplicated_spans,
    duplicated_spans_sql)
from org_dharts_dia_tesseract_ray.functions.text_stats import (
    apply_normalize_text)
from org_dharts_dia_tesseract_ray.functions.unitdedup import (
    unit_dedup, unit_dedup_sql)

from . import GOLDEN, REPO, Query, mapped, read

NUM_ANN_QUERIES = 8
ANN_K = 5
COS_THRESHOLD = 0.35
MINHASH_THRESHOLD = 0.5
SIMHASH_MAX_HAMMING = 3
_BLOOM_BITS = 1 << 24


def _docs(sf_dir: str):
    return read(sf_dir, "documents", ["doc_id", "text"])


def _query_matrix(sf_dir: str, nq: int = NUM_ANN_QUERIES):
    t = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, nq)
    ids = np.asarray(t["vec_id"])
    Q = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    return ids, Q


def _q_dedup_exact(sf_dir: str):
    return exact_dedup(_docs(sf_dir))


def _q_dedup_normalized(sf_dir: str):
    """Normalize-then-dedup composition: case/whitespace variants
    (injected for every 5th doc as an extra row) collapse to one survivor
    per NORMALIZED content digest — the end-use of normalize_text."""
    def augment(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        keep = pa.array(did % 5 == 0)
        v = b.filter(keep)
        variants = pa.table({
            "doc_id": pc.add(v["doc_id"], pa.scalar(10_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                pc.utf8_upper(v["text"]), "  ", ""),
        })
        return pa.concat_tables([b.select(["doc_id", "text"]), variants])

    norm = apply_normalize_text(mapped(_docs(sf_dir), augment))

    def as_text(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "text": b["norm_text"]})

    return exact_dedup(mapped(norm, as_text))


def _q_line_dedup(sf_dir: str):
    """CCNet-style global line dedup over documents given deterministic
    line structure (same ' table ' → '.\\n' injection as line_filter; the
    small synthetic vocabulary makes cross-document duplicate lines
    common) — slim winners shuffle, one text shuffle for reassembly."""
    def with_lines(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "text": pc.replace_substring_regex(b["text"], " table ", ".\n"),
        })

    return unit_dedup(mapped(_docs(sf_dir), with_lines))


def _line_dedup_sql() -> str:
    body = unit_dedup_sql(table="m").lstrip()
    assert body.startswith("WITH ")
    return f"""
WITH m AS (
  SELECT doc_id,
         regexp_replace(text, ' table ', '.' || chr(10), 'g') AS text
  FROM documents),
{body[len("WITH "):]}"""


def _q_dup_substr_spans(sf_dir: str):
    """Exact-substring dedup (Lee et al. 2021 analogue): maximal cross-doc
    duplicated 8-token spans via rolling-hash grams (functions/substrdedup;
    no text shuffle).  The dup-gram set stays distributed (hash-partitioned
    semi-join), never collected to the driver."""
    return duplicated_spans(_docs(sf_dir), w=8)


def _q_dedup_substrings(sf_dir: str):
    """Removal variant: every token covered by a cross-doc duplicated
    8-gram cut from the text (single-space rejoin; all occurrences cut —
    keep-one canonicalization is a policy layer, as in the reference
    tooling).  The dup-gram set stays distributed; the text meets the
    marked positions in one id-keyed co-shuffle (2 exchanges)."""
    return dedup_substrings(_docs(sf_dir), w=8)


def _q_neardup_minhash(sf_dir: str):
    return minhash_lsh_pairs(_docs(sf_dir), threshold=MINHASH_THRESHOLD)


def _q_neardup_clusters(sf_dir: str):
    """Full near-dup dedup composition: MinHash+LSH pairs → connected
    components (min-label propagation) → (doc_id, cluster) assignment."""
    ids = read(sf_dir, "documents", ["doc_id"])
    return neardup_clusters(ids, _q_neardup_minhash(sf_dir))


def _q_neardup_keep_one(sf_dir: str):
    """The end-use of the near-dup family: cleaned corpus keeping ONE
    representative per near-duplicate cluster (the minimum doc_id — the
    cluster label by construction), i.e. pairs → components → filter
    doc_id == cluster.  Oracle derives from the independent union-find
    clusters golden, so this row also pins the keep-one policy."""
    def keep(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "doc_id" not in b.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        return b.filter(pc.equal(b["doc_id"], b["cluster"])).select(
            ["doc_id"])

    return mapped(_q_neardup_clusters(sf_dir), keep)


def _q_neardup_simhash(sf_dir: str):
    return simhash_pairs(_docs(sf_dir), max_hamming=SIMHASH_MAX_HAMMING)


def _q_neardup_jaccard_brute(sf_dir: str):
    return jaccard_pairs_brute(_docs(sf_dir), threshold=MINHASH_THRESHOLD)


def _q_neardup_cosine(sf_dir: str):
    return cosine_neardup(read(sf_dir, "embeddings"),
                          threshold=COS_THRESHOLD)


def _q_neardup_cosine_bucketed(sf_dir: str):
    """Scale path for embedding near-dup: coarse-quantizer buckets + hash
    self-join + exact-cosine verify — no driver-side corpus matrix (only a
    bounded training sample).  Zero false positives by construction;
    recall for near-identical pairs validated vs brute force in tests."""
    return cosine_neardup_bucketed(read(sf_dir, "embeddings"),
                                   threshold=0.45)


def _q_fingerprint(sf_dir: str):
    return apply_md5(_docs(sf_dir))


def _q_winnow(sf_dir: str):
    ds = apply_winnow(_docs(sf_dir))
    return ds.select_columns(["doc_id", "n_fp", "min_fp"])


def _q_orders_bloom_new(sf_dir: str):
    """Incremental dedup without a join: keep odd-orderkey orders whose
    customer never appears among the even-orderkey (reference) orders.
    The reference slice compiles into a Bloom bitmap distributed-built
    and broadcast once; the new slice probes it shuffle-free
    (functions/bloomdedup.py — the new-crawl-vs-seen-corpus step)."""
    def half(parity):
        def f(b):
            keep = pc.equal(pc.bit_wise_and(b["o_orderkey"], 1), parity)
            return b.filter(keep)
        return f

    cols = ["o_orderkey", "o_custkey"]
    ref = mapped(read(sf_dir, "orders", cols), half(0))
    bloom = bloom_build(ref, key_col="o_custkey", bits=_BLOOM_BITS)
    new = mapped(read(sf_dir, "orders", cols), half(1))
    return bloom_filter_new(new, bloom, key_col="o_custkey")


def _q_ann_brute(sf_dir: str):
    ids, Q = _query_matrix(sf_dir)
    return brute_topk(read(sf_dir, "embeddings"), ids, Q, ANN_K)


def _q_ann_ivf(sf_dir: str):
    ids, Q = _query_matrix(sf_dir)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    M = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    index = IvfIndex.train(M, n_centroids=8, iters=5)
    return ivf_topk(read(sf_dir, "embeddings"), ids, Q, index, ANN_K,
                    nprobe=4)


def _q_embeddings_pca(sf_dir: str):
    """Distributed exact PCA (covariance-aggregation) → 4-component
    projection; deterministic but not SQL-expressible (rows-only)."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    mean, comp = fit_pca(ds, n_components=4)
    out = transform_pca(read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                        mean, comp)

    def widen(b: pa.Table) -> pa.Table:
        Y = np.stack([np.asarray(v) for v in b["pca"].to_pylist()])
        cols = {"vec_id": b["vec_id"]}
        for i in range(Y.shape[1]):
            q = np.round(Y[:, i] * 10000.0) / 10000.0
            cols[f"pc{i}"] = pa.array(q, pa.float64())
        return pa.table(cols)

    return mapped(out, widen)


# The golden oracles are pinned serial runs over sf0.01.  The near-dup pair
# goldens are independent brute-force all-pairs runs, so they also prove the
# banded LSH/pigeonhole candidate generation reaches full recall at these
# parameters; clusters is a union-find, PCA a one-shot numpy fit.
ROWS = [
    Query("dedup_exact", _q_dedup_exact, exact_dedup_sql()),
    Query("dedup_normalized", _q_dedup_normalized, r"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 10000000 AS doc_id, upper(text) || '  ' AS text
  FROM documents WHERE doc_id % 5 = 0),
norm AS (
  SELECT doc_id,
         trim(regexp_replace(lower(nfc_normalize(text)), '\s+', ' ', 'g'))
           AS text
  FROM aug)
SELECT min(doc_id) AS doc_id, md5(text) AS fp FROM norm
GROUP BY md5(text)"""),
    Query("line_dedup", _q_line_dedup, _line_dedup_sql()),
    Query("dup_substr_spans", _q_dup_substr_spans, duplicated_spans_sql(w=8)),
    Query("dedup_substrings", _q_dedup_substrings, dedup_substrings_sql(w=8)),
    Query("neardup_minhash_lsh", _q_neardup_minhash, GOLDEN),
    Query("neardup_clusters", _q_neardup_clusters, GOLDEN),
    Query("neardup_keep_one", _q_neardup_keep_one,
          f"\nSELECT doc_id FROM read_parquet('{REPO}/fixtures/op_goldens/"
          "neardup_clusters.parquet') WHERE doc_id = cluster"),
    Query("neardup_simhash", _q_neardup_simhash, GOLDEN),
    Query("neardup_jaccard_brute", _q_neardup_jaccard_brute, GOLDEN),
    Query("neardup_cosine", _q_neardup_cosine,
          cosine_neardup_sql(COS_THRESHOLD)),
    Query("neardup_cosine_bucketed", _q_neardup_cosine_bucketed, GOLDEN),
    Query("fingerprint_md5", _q_fingerprint, md5_sql()),
    Query("winnow_fingerprints", _q_winnow, GOLDEN),
    Query("orders_bloom_new", _q_orders_bloom_new, bloom_new_keys_sql(
        "r.o_orderkey % 2 = 0", "o.o_orderkey % 2 = 1", table="orders",
        key_col="o_custkey", out_cols="o.o_orderkey, o.o_custkey")),
    Query("ann_brute_topk", _q_ann_brute,
          brute_topk_sql(NUM_ANN_QUERIES, ANN_K)),
    Query("ann_ivf_topk", _q_ann_ivf, GOLDEN),
    Query("embeddings_pca", _q_embeddings_pca, GOLDEN),
]
