"""Tests for the training-data operator suite (functions/): text stats,
fingerprints, dedup family, similarity search, multimodal stubs.

Strategy mirrors the reference's fixture-with-golden-counts style
(/root/reference/tests/.../LayoutIteratorTests.java:54,64) plus DuckDB
cross-checks — the same oracle the driver harness runs.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_table():
    return pq.read_table(f"{SF_DIR}/documents.parquet")


@pytest.fixture(scope="module")
def emb_table():
    return pq.read_table(f"{SF_DIR}/embeddings.parquet")


# ---------------------------------------------------------------------------
# text stats


def test_text_stats_duckdb_parity(docs_table):
    from org_dharts_dia_tesseract_ray.functions import text_stats as T
    con = duckdb.connect()
    con.register("documents", docs_table)
    for fn, sql in [(T.token_stats_batch, T.token_stats_sql()),
                    (T.quality_batch, T.quality_sql()),
                    (T.langid_batch, T.langid_sql())]:
        mine = fn(docs_table).sort_by("doc_id")
        theirs = con.sql(sql + " ORDER BY doc_id").arrow()
        for c in mine.column_names:
            assert mine[c].to_pylist() == theirs[c].to_pylist(), c


def test_langid_scripts():
    from org_dharts_dia_tesseract_ray.functions.text_stats import langid_batch
    t = pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": ["the cat is on the mat and it is not sad",
                 "der hund ist nicht auf der straße und das ist gut",
                 "这是一个中文句子",
                 "هذا نص عربي قصير"],
    })
    out = langid_batch(t)
    assert out["pred_lang"].to_pylist() == ["en", "de", "zh", "ar"]


def test_text_stats_distributed(ray_session, docs_table):
    """Same result through Ray Data as single-process (parallelism-invariant)."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions import text_stats as T
    ds = ray.data.from_arrow(docs_table).repartition(5)
    got = T.apply_token_stats(ds).to_pandas().sort_values("doc_id")
    want = T.token_stats_batch(docs_table).to_pandas().sort_values("doc_id")
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))


# ---------------------------------------------------------------------------
# fingerprints


def test_md5_matches_duckdb(docs_table):
    from org_dharts_dia_tesseract_ray.functions.fingerprint import (md5_batch,
                                                                    md5_sql)
    con = duckdb.connect()
    con.register("documents", docs_table)
    mine = md5_batch(docs_table).sort_by("doc_id")
    theirs = con.sql(md5_sql() + " ORDER BY doc_id").arrow()
    assert mine["fp"].to_pylist() == theirs["fp"].to_pylist()


def test_rolling_and_winnow_deterministic():
    from org_dharts_dia_tesseract_ray.functions.fingerprint import (
        kgram_hashes, rolling_hash64, winnow)
    s = "the quick brown fox jumps over the lazy dog"
    assert rolling_hash64(s) == rolling_hash64(s)
    assert rolling_hash64(s) != rolling_hash64(s + "!")
    h1 = kgram_hashes(s, 8)
    assert len(h1) == len(s.encode()) - 7
    # winnowed fingerprints are a subset and shared content → shared prints
    w1 = winnow(kgram_hashes("AAAA" + s + "ZZZZ", 8))
    w2 = winnow(kgram_hashes("BBBB" + s + "QQQQ", 8))
    shared = np.intersect1d(w1, w2)
    assert len(shared) > 0


def test_winnow_batch_schema(docs_table):
    from org_dharts_dia_tesseract_ray.functions.fingerprint import winnow_batch
    out = winnow_batch(docs_table.slice(0, 10))
    assert out.column_names == ["doc_id", "n_fp", "min_fp", "fingerprints"]
    assert all(n > 0 for n in out["n_fp"].to_pylist())


# ---------------------------------------------------------------------------
# dedup family


def _dup_corpus() -> pa.Table:
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon " * 4)
    other = ("one two three four five six seven eight nine ten eleven "
             "twelve thirteen fourteen fifteen sixteen " * 4)
    return pa.table({
        "doc_id": list(range(6)),
        "text": [
            base,                       # 0
            base,                       # 1: exact dup of 0
            base.replace("gamma", "GAMMA"),   # 2: near dup of 0
            other,                      # 3
            other + " extra tail words here",  # 4: near dup of 3
            "completely different tiny text",  # 5
        ],
    })


def test_exact_dedup(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.dedup import exact_dedup
    ds = ray.data.from_arrow(_dup_corpus()).repartition(3)
    out = exact_dedup(ds).to_pandas()
    assert sorted(out["doc_id"]) == [0, 2, 3, 4, 5]   # 1 deduped into 0


def test_exact_dedup_oracle_shape(ray_session):
    """Ray result == DuckDB oracle on the same injected-dup corpus."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.dedup import (exact_dedup,
                                                              exact_dedup_sql)
    t = _dup_corpus()
    con = duckdb.connect()
    con.register("documents", t)
    want = con.sql(exact_dedup_sql() + " ORDER BY doc_id").df()
    got = (exact_dedup(ray.data.from_arrow(t)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["fp"].tolist() == want["fp"].tolist()


def test_minhash_lsh_finds_neardups(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.dedup import (
        jaccard_pairs_brute, minhash_lsh_pairs)
    ds = ray.data.from_arrow(_dup_corpus()).repartition(2)
    pairs = minhash_lsh_pairs(ds, threshold=0.5, num_partitions=2).to_pandas()
    found = set(map(tuple, pairs[["id_a", "id_b"]].values.tolist()))
    assert (0, 1) in found          # exact dup
    assert (0, 2) in found or (1, 2) in found   # near dup
    assert (3, 4) in found
    assert not any(5 in p for p in found)
    # exact-Jaccard agreement with the brute-force baseline
    brute = jaccard_pairs_brute(ds, threshold=0.5).to_pandas()
    bset = set(map(tuple, brute[["id_a", "id_b"]].values.tolist()))
    assert found <= bset            # LSH finds only real pairs
    exact_pair = pairs[(pairs.id_a == 0) & (pairs.id_b == 1)]
    assert float(exact_pair["jaccard"].iloc[0]) == 1.0


def test_simhash_pairs(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.dedup import (simhash_batch,
                                                              simhash_pairs)
    t = _dup_corpus()
    sh = simhash_batch(t)
    sims = sh["simhash"].to_pylist()
    assert sims[0] == sims[1]                     # identical docs
    ds = ray.data.from_arrow(t).repartition(2)
    pairs = simhash_pairs(ds, max_hamming=3).to_pandas()
    found = set(map(tuple, pairs[["id_a", "id_b"]].values.tolist()))
    assert (0, 1) in found
    assert not any(5 in p for p in found)


def test_cosine_neardup_duckdb_parity(ray_session, emb_table):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.dedup import (
        cosine_neardup, cosine_neardup_sql)
    con = duckdb.connect()
    con.register("embeddings", emb_table)
    want = con.sql(cosine_neardup_sql(0.35) + " ORDER BY id_a, id_b").df()
    ds = ray.data.from_arrow(emb_table).repartition(3)
    got = (cosine_neardup(ds, threshold=0.35).to_pandas()
           .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    assert got["id_a"].tolist() == want["id_a"].tolist()
    assert got["id_b"].tolist() == want["id_b"].tolist()
    assert got["cos"].tolist() == want["cos"].tolist()


# ---------------------------------------------------------------------------
# similarity search


def _queries(emb_table, nq):
    ids = np.asarray(emb_table["vec_id"])[:nq]
    Q = np.stack([np.asarray(v, dtype=np.float64)
                  for v in emb_table["embedding"].to_pylist()[:nq]])
    return ids, Q


def test_brute_topk_duckdb_parity(ray_session, emb_table):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.similarity import (
        brute_topk, brute_topk_sql)
    nq, k = 8, 5
    ids, Q = _queries(emb_table, nq)
    ds = ray.data.from_arrow(emb_table).repartition(4)
    got = (brute_topk(ds, ids, Q, k).to_pandas()
           .sort_values(["query_id", "cos", "neighbor_id"],
                        ascending=[True, False, True])
           .reset_index(drop=True))
    con = duckdb.connect()
    con.register("embeddings", emb_table)
    want = (con.sql(brute_topk_sql(nq, k)
                    + " ORDER BY query_id, cos DESC, neighbor_id").df())
    assert got["query_id"].tolist() == want["query_id"].tolist()
    assert got["neighbor_id"].tolist() == want["neighbor_id"].tolist()
    assert got["cos"].tolist() == want["cos"].tolist()


def test_ivf_topk_recall(ray_session, emb_table):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.similarity import (
        IvfIndex, brute_topk, ivf_topk)
    nq, k = 8, 5
    ids, Q = _queries(emb_table, nq)
    M = np.stack([np.asarray(v, dtype=np.float64)
                  for v in emb_table["embedding"].to_pylist()])
    index = IvfIndex.train(M, n_centroids=8, iters=5)
    ds = ray.data.from_arrow(emb_table).repartition(4)
    exact = brute_topk(ds, ids, Q, k).to_pandas()
    approx = ivf_topk(ds, ids, Q, index, k, nprobe=4).to_pandas()
    recalls = []
    for q in ids:
        e = set(exact[exact.query_id == q]["neighbor_id"])
        a = set(approx[approx.query_id == q]["neighbor_id"])
        recalls.append(len(e & a) / max(1, len(e)))
    assert np.mean(recalls) >= 0.5     # nprobe=4 of 8 buckets


# ---------------------------------------------------------------------------
# multimodal stubs


def test_media_decode_deterministic(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        apply_decode, synth_media_table)
    t = synth_media_table(20)
    ds = ray.data.from_arrow(t).repartition(2)
    out = apply_decode(ds, batch_size=4).to_pandas().sort_values("item_id")
    assert (out["status"] == "ok").all()
    assert "payload" not in out.columns           # payload dropped on output
    assert out["width"].tolist() == t["width"].to_pylist()
    f0 = np.array(out["features"].iloc[0])
    assert f0.shape == (16,)
    out2 = apply_decode(ray.data.from_arrow(t)).to_pandas().sort_values("item_id")
    assert np.array_equal(np.stack(out["features"].values),
                          np.stack(out2["features"].values))


def test_synm_codec_roundtrip_exact():
    """encode → decode recovers the exact rasters (real RLE + CRC work,
    not a hash fake)."""
    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        _frame_pixels, decode_media, encode_media, seek_frame)
    payload = encode_media(7, "video", 40, 24, 5, seed=42)
    (w, h, nf), frames, crc = decode_media(payload)
    assert (w, h, nf) == (40, 24, 5)
    for f in range(nf):
        assert np.array_equal(frames[f], _frame_pixels(7, 42, f, 40, 24))
    # seek path decodes the same frame without full decompress
    assert np.array_equal(seek_frame(payload, 3), frames[3])
    assert seek_frame(payload, 5) is None


def test_synm_codec_rejects_corruption():
    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        decode_media, encode_media)
    payload = encode_media(3, "image", 48, 32, 1)
    assert decode_media(payload) is not None
    assert decode_media(b"JUNK" + payload[4:]) is None          # bad magic
    assert decode_media(payload[:len(payload) // 2]) is None    # truncated
    mid = len(payload) // 2                                     # CRC flip
    flipped = payload[:mid] + bytes([payload[mid] ^ 0xFF]) + payload[mid + 1:]
    assert decode_media(flipped) is None
    assert decode_media(payload + b"\x00") is None              # trailing junk


def test_media_decode_corrupt_rows_become_error_rows():
    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        MediaDecoder, synth_media_table)
    out = MediaDecoder()(synth_media_table(64, corrupt_every=13))
    st = out["status"].to_pylist()
    bad = [i for i, s in enumerate(st) if s == "decode_error"]
    assert bad == [12, 25, 38, 51]
    crcs = out["px_checksum"].to_pylist()
    assert all(crcs[i] == -1 for i in bad)
    assert all(c >= 0 for i, c in enumerate(crcs) if i not in bad)


def test_media_decode_features_are_tile_means():
    """Features come from DECODED pixels: verify one item against an
    independent tile-mean computation on the raw pattern."""
    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        MediaDecoder, _frame_pixels, synth_media_table)
    out = MediaDecoder()(synth_media_table(3))
    f = np.array(out["features"][1].as_py())
    w, h = 32 + 7 % 96, 24 + 5 % 72
    px = _frame_pixels(1, 42, 0, w, h)
    ys = np.linspace(0, h, 5).astype(int)
    xs = np.linspace(0, w, 5).astype(int)
    want = [px[ys[i]:ys[i + 1], xs[j]:xs[j + 1]].astype(np.int64).mean()
            / 255.0 for i in range(4) for j in range(4)]
    assert np.allclose(f, np.array(want, np.float32), atol=1e-6)


def test_audio_features_match_direct_synthesis():
    """Audio features come from DECODED chunks: verify against the raw
    waveform pattern, and corrupt payloads yield the null chunk_idx=-1
    row (same schedule as media_decode)."""
    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        _frame_pixels, audio_features_batch, synth_audio_table)
    out = audio_features_batch(synth_audio_table(16, corrupt_every=13))
    rows = out.to_pylist()
    # item 1, chunk 2 — independent computation from the pattern
    w = 256 + 31 % 768
    s = _frame_pixels(1, 42, 2, w, 1).reshape(-1).astype(np.int64) - 128
    got = next(r for r in rows
               if r["item_id"] == 1 and r["chunk_idx"] == 2)
    assert got["energy"] == int(np.abs(s).sum())
    assert got["zcr"] == int(np.count_nonzero(np.diff(s >= 0)))
    assert got["peak"] == int(np.abs(s).max())
    bad = [r for r in rows if r["item_id"] == 12]
    assert bad == [{"item_id": 12, "chunk_idx": -1, "energy": None,
                    "zcr": None, "peak": None}]
    # chunk counts per clean item follow the 6 + i % 10 schedule
    n1 = sum(1 for r in rows if r["item_id"] == 1)
    assert n1 == 6 + 1 % 10


def test_new_operators_empty_input(ray_session):
    """Empty-corpus behavior of the late-round-4 operators: no exceptions,
    zero rows (the empty-block schema hazard class) — the state a filtered
    partition hits at scale."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        build_unigram_model, score_ngrams)
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        lang_balanced_sample)
    from org_dharts_dia_tesseract_ray.functions.stats import topk_per_key
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        apply_compression_ratio)
    from org_dharts_dia_tesseract_ray.functions.vocab import tokenize_ids

    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "lang": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    model = build_unigram_model(empty, vocab_size=4)
    assert model.num_rows == 0
    assert tokenize_ids(empty, model).count() == 0
    assert score_ngrams(empty, model).count() == 0
    assert apply_compression_ratio(empty).count() == 0
    assert lang_balanced_sample(empty).count() == 0
    assert topk_per_key(empty, key="lang", value_col="n_chars",
                        id_col="doc_id", k=3).count() == 0

    from org_dharts_dia_tesseract_ray.functions.chunking import (
        chunk_documents)
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        temperature_sample)
    from org_dharts_dia_tesseract_ray.functions.stats import (
        lag_delta_per_key, percent_rank_per_key, running_total_per_key)
    assert temperature_sample(empty).count() == 0
    assert chunk_documents(empty).count() == 0
    assert running_total_per_key(empty, key="lang", order_col="n_chars",
                                 id_col="doc_id",
                                 value_col="n_chars").count() == 0
    assert percent_rank_per_key(empty, key="lang", value_col="n_chars",
                                id_col="doc_id").count() == 0
    assert lag_delta_per_key(empty, key="lang", order_col="n_chars",
                             id_col="doc_id").count() == 0


def test_bigram_score_matches_manual(ray_session):
    """score_ngrams(n=2): model counts summed over adjacent bigrams,
    short docs (<2 tokens) yield all-zero rows."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        build_unigram_model, score_ngrams)
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a b a b c", "a b", "solo"], pa.string()),
    }))
    model = build_unigram_model(docs, vocab_size=2, ngram=2)
    # bigram counts: "a b"=3, "b a"=1, "b c"=1 → top-2 = {"a b":3, "b a":1}
    out = {r["doc_id"]: r for r in score_ngrams(docs, model).take_all()}
    # doc1 bigrams: a b, b a, a b, b c → 4 grams, oov=1 (b c), sum=3+1+3=7
    assert out[1]["n_grams"] == 4 and out[1]["n_oov"] == 1 \
        and out[1]["sum_freq"] == 7
    assert out[2]["n_grams"] == 1 and out[2]["sum_freq"] == 3
    assert out[3]["n_grams"] == 0 and out[3]["n_oov"] == 0 \
        and out[3]["sum_freq"] == 0


def test_lang_balanced_sample_rates(ray_session):
    """Per-group keep rates = min_count*scale//count; the sample is
    deterministic (re-run identical) and the minority group keeps ~all."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.sampling import (
        lang_balanced_sample)
    n = 3000
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "lang": pa.array(["big"] * 2700 + ["small"] * 300, pa.string()),
        "text": pa.array([f"doc {i} body" for i in range(n)], pa.string()),
    })
    ds = ray.data.from_arrow(t).repartition(6)
    s1 = sorted(r["doc_id"] for r in
                lang_balanced_sample(ds).take_all())
    s2 = sorted(r["doc_id"] for r in
                lang_balanced_sample(ds).take_all())
    assert s1 == s2                              # deterministic
    langs = pa.table({"doc_id": pa.array(s1, pa.int64())}) \
        .join(t, keys="doc_id")["lang"].to_pylist()
    n_small = sum(1 for x in langs if x == "small")
    n_big = len(langs) - n_small
    # rate_small = 10000//1 bp = keep all; rate_big = 300*10000//2700 bp
    assert n_small == 300
    assert 200 < n_big < 450                     # ~11.1% of 2700, hash noise


def test_rate_sample_null_group_dropped(ray_session):
    """ADVICE r4: rows with a NULL group key must be DROPPED (the SQL
    oracle's JOIN ... USING semantics), not matched to the null entry of
    the index_in value set."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.sampling import (
        lang_balanced_sample, temperature_sample)
    t = pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "lang": pa.array((["en"] * 30 + [None] * 10), pa.string()),
        "text": pa.array([f"doc {i} body" for i in range(40)], pa.string()),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    for fn in (lang_balanced_sample, temperature_sample):
        out = fn(ds).to_pandas()
        assert out["lang"].notna().all()


def test_lag_delta_null_order_values(ray_session):
    """ADVICE r4: a null order value must yield a NULL delta for that row
    AND its successor (SQL: NULL - x and LAG()=NULL), never an unchecked
    NaN→int64 garbage cast; nulls sort last within the key (DuckDB ASC)."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import (
        lag_delta_per_key)
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "ts": pa.array([100, None, 300, 50, 60], pa.int64()),
        "event_id": pa.array([10, 11, 12, 20, 21], pa.int64()),
    })
    out = (lag_delta_per_key(ray.data.from_arrow(t), key="user_id",
                             order_col="ts", id_col="event_id")
           .to_pandas().sort_values(["user_id", "event_id"])
           .set_index("event_id"))
    # user 1 sorts ts ASC nulls last: 100, 300, NULL → deltas NULL, 200,
    # NULL (null row); user 2: NULL, 10
    assert out.loc[10, "delta"] != out.loc[10, "delta"]  # NaN
    assert out.loc[12, "delta"] == 200
    assert out.loc[11, "delta"] != out.loc[11, "delta"]
    assert out.loc[21, "delta"] == 10


def test_temperature_sample_rates(ray_session):
    """T=2 keep rates = floor(scale*sqrt(mn/n)): minority group keeps all,
    majority keeps ~sqrt share; deterministic re-run; empty input → 0."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.sampling import (
        temperature_sample)
    n = 3000
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "lang": pa.array(["big"] * 2700 + ["small"] * 300, pa.string()),
        "text": pa.array([f"doc {i} body" for i in range(n)], pa.string()),
    })
    ds = ray.data.from_arrow(t).repartition(6)
    s1 = sorted(r["doc_id"] for r in temperature_sample(ds).take_all())
    s2 = sorted(r["doc_id"] for r in temperature_sample(ds).take_all())
    assert s1 == s2                              # deterministic
    n_small = sum(1 for d in s1 if d >= 2700)
    n_big = len(s1) - n_small
    # rate_small = floor(1e4*sqrt(1)) = keep all;
    # rate_big = floor(1e4*sqrt(300/2700)) = 3333 bp → ~900 of 2700
    assert n_small == 300
    assert 750 < n_big < 1050                    # ~33.3% of 2700, hash noise

    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "lang": pa.array([], pa.string()),
        "text": pa.array([], pa.string())}))
    assert temperature_sample(empty).count() == 0


def test_topk_per_key_matches_brute(ray_session):
    """topk_per_key vs a pandas brute force on a multi-batch dataset with
    ties (tie-break value desc, id asc) and ~40 distinct keys."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import topk_per_key
    n = 4000
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "k": pa.array([f"g{i * 7 % 40}" for i in range(n)], pa.string()),
        "v": pa.array([(i * 13) % 50 for i in range(n)], pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(8)
    got = topk_per_key(ds, key="k", value_col="v", id_col="doc_id",
                       k=3).to_pandas()
    got = got.sort_values(["k", "rank"]).reset_index(drop=True)
    df = t.to_pandas().sort_values(
        ["k", "v", "doc_id"], ascending=[True, False, True])
    df["rank"] = df.groupby("k").cumcount() + 1
    want = df[df["rank"] <= 3][["k", "v", "doc_id", "rank"]] \
        .sort_values(["k", "rank"]).reset_index(drop=True)
    assert got[["k", "v", "doc_id", "rank"]].values.tolist() \
        == want.values.tolist()


def test_tokenize_ids_rank_and_oov(ray_session):
    """tokenize_ids: id = 1 + rank position in the model, OOV = 0, list
    rebuilt on the split's own offsets; n_oov counts unknown tokens."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.vocab import tokenize_ids
    model = pa.table({"token": pa.array(["the", "cat", "sat"], pa.string()),
                      "n": pa.array([10, 5, 2], pa.int64())})
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["the cat sat on the mat", "sat sat"], pa.string()),
    }))
    out = {r["doc_id"]: r
           for r in tokenize_ids(docs, model).take_all()}
    assert list(out[1]["ids"]) == [1, 2, 3, 0, 1, 0]
    assert out[1]["n_tokens"] == 6 and out[1]["n_oov"] == 2
    assert list(out[2]["ids"]) == [3, 3] and out[2]["n_oov"] == 0
    # null text survives with no tokens (the SQL oracle joins the row
    # back) — the row is never dropped
    nd = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([9], pa.int64()),
        "text": pa.array([None], pa.string())}))
    row = tokenize_ids(nd, model).take_all()[0]
    assert list(row["ids"]) == [] and row["n_tokens"] == 0 \
        and row["n_oov"] == 0


def test_compression_ratio_signal():
    """Repetitive text compresses far below varied text; empty text yields
    a null ratio; lengths are exact."""
    import zlib

    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        compression_ratio_batch)
    rep = "spam ham " * 200
    var = " ".join(f"w{i}x{i * 7 % 13}" for i in range(400))
    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array([rep, var, ""], pa.string())})
    out = compression_ratio_batch(t).to_pylist()
    assert out[0]["raw_len"] == len(rep.encode())
    assert out[0]["comp_len"] == len(zlib.compress(rep.encode(), 6))
    assert out[0]["comp_ratio"] < 0.05 < out[1]["comp_ratio"]
    assert out[2]["comp_ratio"] is None and out[2]["raw_len"] == 0


def test_media_resize_integer_box_means():
    """resize_frame: exact integer floor-means per box; resize_batch emits
    the raster bytes + CRC and the decode_error row for corrupt payloads."""
    import zlib

    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        resize_batch, resize_frame, synth_media_table)

    f = np.arange(16, dtype=np.uint8).reshape(4, 4)
    small = resize_frame(f, 2, 2)
    # boxes: [[0,1],[4,5]] mean 2.5 -> 2 (floor); [[2,3],[6,7]] -> 4 ...
    assert small.tolist() == [[2, 4], [10, 12]]
    out = resize_batch(synth_media_table(14, corrupt_every=13))
    rows = out.to_pylist()
    ok = [r for r in rows if r["status"] == "ok"]
    assert len(ok) == 13 and all(len(r["pixels"]) == 16 * 12 for r in ok)
    assert all(zlib.crc32(r["pixels"]) & 0xFFFFFFFF == r["px_crc"]
               for r in ok)
    bad = [r for r in rows if r["status"] == "decode_error"]
    assert len(bad) == 1 and bad[0]["pixels"] == b"" \
        and bad[0]["px_crc"] == -1
    # downsample-only contract: frames smaller than the target (audio
    # chunks are 1 px tall) become too_small rows, never exceptions
    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        synth_audio_table)
    small = resize_batch(synth_audio_table(2)).to_pylist()
    assert all(r["status"] == "too_small" and r["pixels"] == b""
               for r in small)


def test_media_decode_error_row():
    from org_dharts_dia_tesseract_ray.functions.multimodal import MediaDecoder
    bad = pa.table({
        "item_id": pa.array([0], pa.int64()),
        "kind": pa.array(["image"], pa.string()),
        "payload": pa.array([b"SYN"], pa.binary()),
    })
    out = MediaDecoder()(bad)
    assert out["status"].to_pylist() == ["decode_error"]


def test_frame_sampling(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        apply_frame_sample, synth_media_table)
    t = synth_media_table(10, kind="video")
    ds = ray.data.from_arrow(t)
    out = apply_frame_sample(ds, every=4).to_pandas()
    for i, nf in enumerate(t["n_frames"].to_pylist()):
        rows = out[out.item_id == i]
        assert len(rows) == (nf + 3) // 4
        assert rows["frame_idx"].tolist() == list(range(0, nf, 4))


def test_neardup_clusters(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.dedup import neardup_clusters
    ids = ray.data.from_arrow(pa.table({"doc_id": list(range(7))}))
    # components: {0,1,2,3} via chain, {4,5}, {6} isolated
    pairs = ray.data.from_arrow(pa.table({
        "id_a": [0, 1, 2, 4],
        "id_b": [1, 2, 3, 5],
    }))
    out = (neardup_clusters(ids, pairs, rounds=4, num_partitions=2)
           .to_pandas().sort_values("doc_id"))
    assert out["cluster"].tolist() == [0, 0, 0, 0, 4, 4, 6]


def test_vocab_topk_distributed(ray_session, docs_table):
    import duckdb
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.vocab import (vocab_topk,
                                                              vocab_topk_sql)
    con = duckdb.connect()
    con.register("documents", docs_table)
    ds = ray.data.from_arrow(docs_table).repartition(4)
    for ngram in (1, 2):
        got = vocab_topk(ds, 50, ngram=ngram).to_pandas()
        want = con.sql(vocab_topk_sql(50, ngram=ngram)).df()
        assert got["token"].tolist() == want["token"].tolist()
        assert got["n"].tolist() == want["n"].tolist()


def test_asof_join(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.joins import asof_join
    left = ray.data.from_arrow(pa.table({
        "k": [1, 1, 1, 2, 2, 3],
        "lts": pa.array([5, 15, 25, 10, 3, 9], pa.timestamp("us")),
        "lid": [0, 1, 2, 3, 4, 5],
    }))
    right = ray.data.from_arrow(pa.table({
        "k": [1, 1, 2, 2, 9],
        "rts": pa.array([10, 20, 4, 4, 1], pa.timestamp("us")),
        "v": [100, 200, 300, 350, 900],      # (2,4) tie -> max v=350 wins
    }))
    out = (asof_join(left, right, key="k", left_ts="lts", right_ts="rts",
                     value_col="v").to_pandas().sort_values("lid"))
    # k=1: lts 5 -> none; 15 -> v@10=100; 25 -> v@20=200
    # k=2: lts 10 -> tie-reduced v@4=350; lts 3 -> none
    # k=3: no right rows -> none
    assert out["asof_v"].tolist() == [None, 100.0, 200.0, 350.0, None, None] \
        or [None if x != x else x for x in out["asof_v"].tolist()] == \
           [None, 100.0, 200.0, 350.0, None, None]


def test_broadcast_lookup(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.joins import broadcast_lookup
    facts = ray.data.from_arrow(pa.table({
        "k": [1, 2, 9, 1], "x": [10, 20, 90, 11]}))
    dim = ray.data.from_arrow(pa.table({
        "dk": [1, 2, 3], "name": ["a", "b", "c"]}))
    out = (broadcast_lookup(facts, dim, key="k", dim_key="dk",
                            carry={"name": "k_name"})
           .to_pandas().sort_values("x"))
    assert out["k_name"].tolist() == ["a", "a", "b", None]  # 9 → no match


def test_range_join_count(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.joins import range_join_count
    left = ray.data.from_arrow(pa.table({
        "k": [1, 1, 1, 1, 2],
        "t": pa.array([1, 5, 10, 20, 7], pa.timestamp("us")),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": [1, 1, 2, 3],
        "s": pa.array([0, 4, 0, 0], pa.timestamp("us")),
        "e": pa.array([10, 6, 3, 9], pa.timestamp("us")),   # overlapping ok
    }))
    out = (range_join_count(left, right, key="k", left_ts="t",
                            right_start="s", right_end="e")
           .to_pandas().sort_values(["k", "range_start"]))
    # k=1: [0,10] holds {1,5,10}=3; [4,6] holds {5}=1
    # k=2: [0,3] holds none of {7}=0 ; k=3: no left rows → 0
    assert out["n_in_range"].tolist() == [3, 1, 0, 0]


def test_hll_accuracy():
    import numpy as np
    from org_dharts_dia_tesseract_ray.functions.fingerprint import (
        rolling_hash64)
    from org_dharts_dia_tesseract_ray.functions.sketch import (
        M, hll_add, hll_estimate)
    from org_dharts_dia_tesseract_ray.util import mix64
    for n in (50, 5000, 100_000):
        reg = np.zeros(M, dtype=np.int8)
        hs = mix64(np.array([rolling_hash64(f"tok{i}") for i in range(n)],
                             dtype=np.uint64))
        hll_add(reg, hs)
        est = hll_estimate(reg)
        assert abs(est - n) / n < 0.06, (n, est)
    # mergeability: union of halves == whole
    a = np.zeros(M, dtype=np.int8)
    b = np.zeros(M, dtype=np.int8)
    w = np.zeros(M, dtype=np.int8)
    hs = mix64(np.array([rolling_hash64(f"x{i}") for i in range(2000)],
                         dtype=np.uint64))
    hll_add(a, hs[:1000]); hll_add(b, hs[1000:]); hll_add(w, hs)
    assert np.array_equal(np.maximum(a, b), w)


def test_approx_distinct_distributed(ray_session, docs_table):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.sketch import (
        approx_distinct_tokens)
    ds = ray.data.from_arrow(docs_table).repartition(4)
    out = approx_distinct_tokens(ds).to_pandas()
    exact = {}
    for lang, text in zip(docs_table["lang"].to_pylist(),
                          docs_table["text"].to_pylist()):
        exact.setdefault(lang, set()).update(text.split())
    for _, row in out.iterrows():
        ex = len(exact[row["lang"]])
        assert abs(row["approx_distinct"] - ex) / ex < 0.10


def test_sliding_window_counts(ray_session):
    import duckdb
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.windows import (
        sliding_aggregate, sliding_aggregate_sql)
    import pyarrow.parquet as pq
    t = pq.read_table("/root/testdata/sf0.001/events.parquet")
    con = duckdb.connect(); con.register("events", t)
    got = (sliding_aggregate(ray.data.from_arrow(t).repartition(3))
           .to_pandas().sort_values(["window_start", "event_type"])
           .reset_index(drop=True))
    want = (con.sql(sliding_aggregate_sql() + " ORDER BY 1, 2").df())
    assert got["n_events"].tolist() == want["n_events"].tolist()
    assert got["window_start"].tolist() == want["window_start"].tolist()


def test_pca_matches_numpy(ray_session, emb_table):
    import numpy as np
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.pca import (fit_pca,
                                                            transform_pca)
    ds = ray.data.from_arrow(emb_table).repartition(4)
    mean, comp = fit_pca(ds, n_components=4)
    # reference: plain numpy PCA on the full matrix
    X = np.stack([np.asarray(v, dtype=np.float64)
                  for v in emb_table["embedding"].to_pylist()])
    m = X.mean(axis=0)
    cov = np.cov(X.T, bias=True)
    w, v = np.linalg.eigh(cov)
    ref = v[:, ::-1][:, :4].T
    assert np.allclose(mean, m, atol=1e-9)
    for i in range(4):                  # same subspace up to sign
        assert min(np.abs(ref[i] - comp[i]).max(),
                   np.abs(ref[i] + comp[i]).max()) < 1e-8
    out = transform_pca(ds, mean, comp).to_pandas().sort_values("vec_id")
    Y = np.stack(out["pca"].values)
    assert Y.shape == (len(X), 4)
    # projection reproduces variance ordering: var(c0) >= var(c1) >= ...
    vars_ = Y.var(axis=0)
    assert all(vars_[i] >= vars_[i + 1] - 1e-9 for i in range(3))
    # deterministic across reruns
    mean2, comp2 = fit_pca(ds, n_components=4)
    assert np.array_equal(comp, comp2)


def test_media_decode_real_codec_branch_with_pil():
    """Import-gated real-codec path: when PIL is installed, genuine encoded
    images decode through it (the stub path is untouched)."""
    PIL = pytest.importorskip("PIL.Image")
    import io

    from org_dharts_dia_tesseract_ray.functions.multimodal import (
        MediaDecoder, synth_media_table)
    img = PIL.new("RGB", (20, 10), (1, 2, 3))
    buf = io.BytesIO()
    img.save(buf, format="PNG")
    t = pa.table({
        "item_id": pa.array([0], pa.int64()),
        "kind": pa.array(["image"], pa.string()),
        "payload": pa.array([buf.getvalue()], pa.binary()),
        "width": pa.array([0], pa.int32()),
        "height": pa.array([0], pa.int32()),
        "n_frames": pa.array([0], pa.int32()),
    })
    out = MediaDecoder()(t)
    assert out["status"][0].as_py() == "ok"
    assert out["width"][0].as_py() == 20 and out["height"][0].as_py() == 10
    # synthetic payloads still take the deterministic stub path
    out2 = MediaDecoder()(synth_media_table(4))
    assert set(out2["status"].to_pylist()) == {"ok"}


def test_partition_ids_stable_under_trailing_empty_strings():
    """Code-review regression: a trailing empty/null string in a batch must
    not change the partition of the preceding key (the reduceat sentinel)."""
    import pyarrow as _pa

    from org_dharts_dia_tesseract_ray.util import partition_ids

    a = partition_ids(_pa.array(["example.com/a", ""]), 64)[0].as_py()
    b = partition_ids(_pa.array(["example.com/a", "other"]), 64)[0].as_py()
    c = partition_ids(_pa.array(["example.com/a", None]), 64)[0].as_py()
    d = partition_ids(_pa.array(["example.com/a"]), 64)[0].as_py()
    assert a == b == c == d


def test_tumbling_window_null_ts_yields_null_window():
    import pyarrow as _pa

    from org_dharts_dia_tesseract_ray.functions.windows import (
        tumbling_window_batch)
    t = _pa.table({"ts": _pa.array([1_000_000, None, -1],
                                   _pa.timestamp("us"))})
    out = tumbling_window_batch(t, 60_000_000)
    ws = out["window_start"]
    assert ws[1].as_py() is None
    assert ws[0].as_py() is not None
    # pre-epoch floors toward -inf
    assert ws[2].as_py().timestamp() == -60.0


def test_range_join_inverted_interval_counts_zero(ray_session):
    import pyarrow as _pa
    import ray.data as _rd

    from org_dharts_dia_tesseract_ray.functions.joins import range_join_count
    ts = _pa.timestamp("us")
    left = _rd.from_arrow(_pa.table({
        "k": _pa.array([1, 1], _pa.int64()),
        "t": _pa.array([100, 200], ts)}))
    right = _rd.from_arrow(_pa.table({
        "k": _pa.array([1, 1], _pa.int64()),
        "s": _pa.array([300, 50], ts),
        "e": _pa.array([50, 300], ts)}))
    out = range_join_count(left, right, key="k", left_ts="t",
                           right_start="s", right_end="e").to_pandas()
    got = {(r.range_start.timestamp(), r.range_end.timestamp()):
           r.n_in_range for r in out.itertuples()}
    assert got[(0.0003, 0.00005)] == 0      # inverted interval, not negative
    assert got[(0.00005, 0.0003)] == 2


def test_dropcap_not_flagged_across_br():
    from org_dharts_dia_tesseract_ray.extract.api import extract_one
    r = extract_one(b"<p>I<br>wandered lonely as a cloud</p>")
    flagged = [s for s in r.spans if s.is_dropcap]
    assert flagged == []


def test_cosine_bucketed_no_false_positives_and_neardup_recall(ray_session):
    """Bucketed cosine near-dup: every emitted pair is a true pair with the
    exact same cosine (verification is exact), and near-identical pairs
    (cos >= 0.5 in this corpus) are all found — the coarse-quantizer
    recall claim for the near-dup regime."""
    import ray.data as _rd

    from org_dharts_dia_tesseract_ray.functions.dedup import (
        cosine_neardup, cosine_neardup_bucketed)
    path = "/root/testdata/sf0.01/embeddings.parquet"
    brute = {(r["id_a"], r["id_b"]): r["cos"]
             for r in cosine_neardup(_rd.read_parquet(path),
                                     threshold=0.45).take_all()}
    buck = {(r["id_a"], r["id_b"]): r["cos"]
            for r in cosine_neardup_bucketed(_rd.read_parquet(path),
                                             threshold=0.45).take_all()}
    assert buck, "no candidate pairs emitted"
    for k, v in buck.items():
        assert k in brute and brute[k] == v        # zero false positives
    for k, v in brute.items():
        if v >= 0.5:                               # near-identical regime
            assert k in buck


def test_repetition_stats_batch_values():
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        repetition_stats_batch)
    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": ["a b a b c", "x", "w w w w"]})
    out = repetition_stats_batch(t).to_pydict()
    assert out["n_words"] == [5, 1, 4]
    assert out["distinct_frac"] == [0.6, 1.0, 0.25]
    assert out["top_word_frac"] == [0.4, 1.0, 1.0]
    # "a b" occurs twice among 4 bigrams; single-word doc has none
    assert out["top_bigram_frac"] == [0.5, 0.0, 1.0]


def test_normalize_urls_batch_cases():
    from org_dharts_dia_tesseract_ray.functions.urls import (
        normalize_urls_batch)
    t = pa.table({"url": [
        "HTTPS://Corpus.Test:443/doc/5#frag", "http://EXAMPLE.com:80",
        "http://a.b:8080/x?q=1#z", "not a url", "ftp://X.Y/z",
        "https://keep.port:444/p", None]})
    out = normalize_urls_batch(t)["url_norm"].to_pylist()
    assert out == ["https://corpus.test/doc/5", "http://example.com/",
                   "http://a.b:8080/x?q=1", "not a url", "ftp://x.y/z",
                   "https://keep.port:444/p", None]


def test_partition_ids_invariant_under_chunking_and_slicing():
    import pyarrow as _pa

    from org_dharts_dia_tesseract_ray.util import partition_ids
    vals = [f"url-{i}" * (1 + i % 4) for i in range(257)] + ["", None, "x"]
    whole = _pa.array(vals)
    chunked = _pa.chunked_array([_pa.array(vals[:100]),
                                 _pa.array(vals[100:]),
                                 ])
    sliced = _pa.array(["pad", "pad2"] + vals).slice(2)
    a = partition_ids(whole, 64).to_pylist()
    assert partition_ids(chunked, 64).to_pylist() == a
    assert partition_ids(sliced, 64).to_pylist() == a
    ints = _pa.array(list(range(100)), _pa.int64())
    assert (partition_ids(ints.slice(10, 20), 16).to_pylist()
            == partition_ids(_pa.array(list(range(10, 30)), _pa.int64()),
                             16).to_pylist())


# ---------------------------------------------------------------------------
# round-3: schema-pinned join, null-semantics, batched kernels, hOCR


def test_schema_pinned_join_low_cardinality_wide_partitions(ray_session):
    """The round-2 red-row scenario: a groupby output with FEWER distinct
    keys (31) than join partitions (64) materializes schema-less empty
    blocks; Dataset.join dies on them, schema_pinned_join must not."""
    import ray.data as _rd
    from ray.data.aggregate import Sum

    from org_dharts_dia_tesseract_ray.util import schema_pinned_join

    left = _rd.from_arrow(pa.table({
        "token": pa.array([f"t{i % 31}" for i in range(500)]),
        "x": pa.array(list(range(500)), pa.int64())}))
    right = (_rd.from_arrow(pa.table({
        "token": pa.array([f"t{i % 31}" for i in range(310)]),
        "v": pa.array([1] * 310, pa.int64())}))
        .groupby("token").aggregate(Sum("v", alias_name="n")))
    out = schema_pinned_join(
        left, right, on=("token",), num_partitions=64,
        left_schema=pa.schema([("token", pa.string()), ("x", pa.int64())]),
        right_schema=pa.schema([("token", pa.string()), ("n", pa.int64())]),
    ).to_pandas()
    assert len(out) == 500
    assert sorted(out.columns) == ["n", "token", "x"]
    assert (out["n"] == 10).all()


def test_schema_pinned_join_empty_side(ray_session):
    """A join whose right side aggregates to ZERO rows must return an empty
    result with the full joined schema, not crash."""
    import ray.data as _rd
    from ray.data.aggregate import Sum

    from org_dharts_dia_tesseract_ray.util import schema_pinned_join

    left = _rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "x": pa.array([1, 2, 3], pa.int64())}))
    right = (_rd.from_arrow(pa.table({
        "k": pa.array([9], pa.int64()), "v": pa.array([1], pa.int64())}))
        .filter(expr="v > 100")
        .groupby("k").aggregate(Sum("v", alias_name="n")))
    out = schema_pinned_join(
        left, right, on=("k",), num_partitions=16,
        left_schema=pa.schema([("k", pa.int64()), ("x", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("n", pa.int64())]),
    )
    # must not crash; zero rows; any non-empty block carries the full schema
    assert out.count() == 0


def test_schema_pinned_join_left_outer(ray_session):
    """Left outer: every left row survives; unmatched rows carry typed
    nulls; null left keys never match but still survive; duplicate right
    keys multiply — SQL LEFT JOIN semantics exactly."""
    import ray.data as _rd

    from org_dharts_dia_tesseract_ray.util import schema_pinned_join

    left = _rd.from_arrow(pa.table({
        "k": pa.array([1, 2, None, 3], pa.int64()),
        "a": pa.array(["w", "x", "y", "z"])}))
    right = _rd.from_arrow(pa.table({
        "k": pa.array([1, 1, None], pa.int64()),
        "b": pa.array([10, 11, 99], pa.int64())}))
    out = schema_pinned_join(
        left, right, on=("k",), num_partitions=16,
        left_schema=pa.schema([("k", pa.int64()), ("a", pa.string())]),
        right_schema=pa.schema([("k", pa.int64()), ("b", pa.int64())]),
        join_type="left outer",
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    # k=1 matches twice, k=2 / null-k / k=3 survive with null b
    assert list(out["a"]) == ["w", "w", "x", "y", "z"]
    assert sorted(out[out["a"] == "w"]["b"]) == [10, 11]
    assert out[out["a"] != "w"]["b"].isna().all()


def test_schema_pinned_join_right_outer(ray_session):
    """Right outer: every right row survives; unmatched rows carry typed
    nulls in the left-only columns; null right keys never match but still
    survive; duplicate left keys multiply — SQL RIGHT JOIN exactly."""
    import ray.data as _rd

    from org_dharts_dia_tesseract_ray.util import schema_pinned_join

    left = _rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "a": pa.array(["w", "x", "y"])}))
    right = _rd.from_arrow(pa.table({
        "k": pa.array([1, 3, None], pa.int64()),
        "b": pa.array([10, 30, 99], pa.int64())}))
    out = schema_pinned_join(
        left, right, on=("k",), num_partitions=16,
        left_schema=pa.schema([("k", pa.int64()), ("a", pa.string())]),
        right_schema=pa.schema([("k", pa.int64()), ("b", pa.int64())]),
        join_type="right outer",
    ).to_pandas().sort_values(["b", "a"]).reset_index(drop=True)
    # k=1 matches twice (left dup); k=3 and null-k survive with null a
    assert len(out) == 4
    assert sorted(out[out["b"] == 10]["a"]) == ["w", "x"]
    assert out[out["b"] != 10]["a"].isna().all()
    assert int(out[out["b"] == 30]["k"].iloc[0]) == 3
    assert out[out["b"] == 99]["k"].isna().all()


def test_schema_pinned_join_left_anti(ray_session):
    """Left anti: NOT-EXISTS shape — unmatched left rows only, left columns
    only; null-key left rows are unmatched by definition, so they pass."""
    import ray.data as _rd

    from org_dharts_dia_tesseract_ray.util import schema_pinned_join

    left = _rd.from_arrow(pa.table({
        "k": pa.array([1, 2, None, 3], pa.int64()),
        "a": pa.array(["w", "x", "y", "z"])}))
    right = _rd.from_arrow(pa.table({
        "k": pa.array([1, 1, None], pa.int64()),
        "b": pa.array([10, 11, 99], pa.int64())}))
    out = schema_pinned_join(
        left, right, on=("k",), num_partitions=16,
        left_schema=pa.schema([("k", pa.int64()), ("a", pa.string())]),
        right_schema=pa.schema([("k", pa.int64()), ("b", pa.int64())]),
        join_type="left anti",
    ).to_pandas().sort_values("a").reset_index(drop=True)
    assert list(out.columns) == ["k", "a"]
    assert list(out["a"]) == ["x", "y", "z"]


def test_schema_pinned_join_semi_and_full(ray_session):
    """Left semi: EXISTS shape — matched left rows only, never multiplied.
    Full outer: both sides survive, nulls in the other side's columns."""
    import ray.data as _rd

    from org_dharts_dia_tesseract_ray.util import schema_pinned_join

    left = _rd.from_arrow(pa.table({
        "k": pa.array([1, 2, None], pa.int64()),
        "a": pa.array(["w", "x", "y"])}))
    right = _rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 3], pa.int64()),
        "b": pa.array([10, 11, 30], pa.int64())}))
    kw = dict(on=("k",), num_partitions=16,
              left_schema=pa.schema([("k", pa.int64()), ("a", pa.string())]),
              right_schema=pa.schema([("k", pa.int64()), ("b", pa.int64())]))
    semi = schema_pinned_join(left, right, join_type="left semi",
                              **kw).to_pandas()
    assert list(semi.columns) == ["k", "a"]
    assert list(semi["a"]) == ["w"]               # matched once, not twice
    full = (schema_pinned_join(left, right, join_type="full outer", **kw)
            .to_pandas())
    # 1 matches twice; 2 and null-k left-only; 3 right-only
    assert len(full) == 5
    assert sorted(full[full["a"] == "w"]["b"]) == [10, 11]
    assert full[full["a"] == "x"]["b"].isna().all()
    assert full["a"].isna().sum() == 1            # the k=3 right-only row
    assert int(full[full["a"].isna()]["b"].iloc[0]) == 30


def test_schema_pinned_join_left_outer_empty_right(ray_session):
    """Left outer / anti against a right side that aggregates to zero rows:
    all left rows survive (outer carries typed nulls)."""
    import ray.data as _rd
    from ray.data.aggregate import Sum

    from org_dharts_dia_tesseract_ray.util import schema_pinned_join

    left = _rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "x": pa.array([1, 2, 3], pa.int64())}))

    def empty_right():
        return (_rd.from_arrow(pa.table({
            "k": pa.array([9], pa.int64()), "v": pa.array([1], pa.int64())}))
            .filter(expr="v > 100")
            .groupby("k").aggregate(Sum("v", alias_name="n")))

    kw = dict(on=("k",), num_partitions=16,
              left_schema=pa.schema([("k", pa.int64()), ("x", pa.int64())]),
              right_schema=pa.schema([("k", pa.int64()), ("n", pa.int64())]))
    outer = schema_pinned_join(left, empty_right(), join_type="left outer",
                               **kw).to_pandas()
    assert len(outer) == 3 and outer["n"].isna().all()
    anti = schema_pinned_join(left, empty_right(), join_type="left anti",
                              **kw).to_pandas()
    assert len(anti) == 3 and list(anti.columns) == ["k", "x"]


def test_asof_join_null_semantics(ray_session):
    """ASOF null semantics: a null left timestamp matches NOTHING (it must
    not coalesce to epoch 0); right rows with null ts or null value are
    never candidates."""
    import ray.data as _rd

    from org_dharts_dia_tesseract_ray.functions.joins import asof_join
    ts = pa.timestamp("us")
    left = _rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "lts": pa.array([None, 5, 50], ts),
        "lid": pa.array([0, 1, 2], pa.int64())}))
    right = _rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1, 1], pa.int64()),
        # the null-ts right row would "win" at epoch 0 if unmasked;
        # the null-value row at ts=40 would hijack the tie-break sort
        "rts": pa.array([None, 0, 3, 40], ts),
        "v": pa.array([111, 100, 300, None], pa.int64())}))
    out = (asof_join(left, right, key="k", left_ts="lts", right_ts="rts",
                     value_col="v").to_pandas().sort_values("lid"))
    vals = [None if x != x else x for x in out["asof_v"].tolist()]
    # lid 0: null lts -> null;  lid 1 (ts 5): v@3=300;  lid 2 (ts 50):
    # null-value row at 40 excluded -> still v@3=300
    assert vals == [None, 300.0, 300.0]


def test_key_change_mask_null_keys():
    from org_dharts_dia_tesseract_ray.util import key_change_mask
    k = pa.array([None, None, "a", "a", None, "b"])
    m = key_change_mask(k, 6).tolist()
    # nulls form their own run; null->a, a->null, null->b are changes
    assert m == [True, False, True, False, True, True]


def test_kgram_hashes_batch_matches_per_doc():
    from org_dharts_dia_tesseract_ray.functions.fingerprint import (
        kgram_hashes, kgram_hashes_batch)
    texts = ["", "a", "abcdefg", "abcdefgh", "abcdefghi",
             "the quick brown fox", "é漢字 unicode", None, "x" * 1000]
    col = pa.array([t.encode() if t is not None else None for t in texts],
                   pa.binary())
    for k in (4, 8):
        H, counts = kgram_hashes_batch(col, k)
        offs = np.r_[0, np.cumsum(counts)]
        for i, t in enumerate(texts):
            assert np.array_equal(kgram_hashes(t or "", k),
                                  H[offs[i]:offs[i + 1]]), (k, i, t)


def test_minhash_batched_equals_per_doc_signature():
    """The batched __call__ must produce bit-identical signatures to the
    per-document signature() oracle."""
    from org_dharts_dia_tesseract_ray.functions.dedup import MinHasher
    mh = MinHasher(num_perm=32, k=8)
    texts = ["the quick brown fox jumps over the lazy dog",
             "the quick brown fox jumps over the lazy cat",
             "", "short", "x" * 500]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    out = mh(batch)
    sigs = np.asarray(out["sig"].combine_chunks().flatten()).reshape(
        len(texts), 32)
    for i, t in enumerate(texts):
        assert np.array_equal(sigs[i], mh.signature(t)), i


def test_row_digest_null_vs_empty_rank_distinctly():
    from org_dharts_dia_tesseract_ray.stages.dedup import _row_digests
    t_null = pa.table({"html": pa.array([b"x"], pa.binary()),
                       "text": pa.array([None], pa.string()),
                       "lang": pa.array(["en"])})
    t_empty = pa.table({"html": pa.array([b"x"], pa.binary()),
                        "text": pa.array([""], pa.string()),
                        "lang": pa.array(["en"])})
    assert _row_digests(t_null)[0].as_py() != _row_digests(t_empty)[0].as_py()


def _extracted_pages(*payloads):
    """The extract stage's output over one page per payload."""
    from org_dharts_dia_tesseract_ray.stages.extractor import HtmlExtractor
    n = len(payloads)
    return HtmlExtractor()(pa.table({
        "url": pa.array([f"u{i}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us", tz="UTC")),
        "html": pa.array(list(payloads), pa.binary()),
        "lang": pa.array(["en"] * n, pa.string()),
    }))


def test_hocr_rendering_structure():
    from org_dharts_dia_tesseract_ray.stages.extractor import hocr_batch
    html = (b"<html><body><article><h1>Doc 7</h1>"
            b"<p>alpha &amp; beta</p></article></body></html>")
    pages = _extracted_pages(html)
    res = pages.to_pylist()[0]
    assert res["error"] is None and res["extracted_text"]
    hocr = hocr_batch(pages)["hocr"][0].as_py()
    assert hocr.startswith("<div class='ocr_page'")
    assert hocr.count("<div class='ocr_carea'") == res["n_blocks"]
    assert hocr.count("</div>") == res["n_blocks"] + 1
    # line text is escaped and sliced from the extracted text
    assert "alpha &amp; beta" in hocr
    assert "ocrx_word" not in hocr
    # word-level rendering nests words inside lines with confidences
    hocr_w = hocr_batch(pages, include_words=True)["hocr"][0].as_py()
    assert "x_wconf" in hocr_w and "ocrx_word" in hocr_w
    # x_wconf is on the hOCR 0-100 scale (confidences are already 0-100)
    import re as _re
    wconfs = [int(x) for x in _re.findall(r"x_wconf (\d+)", hocr_w)]
    assert wconfs and all(0 <= c <= 100 for c in wconfs)


def test_unlv_rendering():
    """UNLV renderer (TessAPI.java:512 analogue): words space-joined per
    line, blank line between blocks, sub/sup markers, trailing newline."""
    from org_dharts_dia_tesseract_ray.stages.extractor import unlv_batch
    html = (b"<html><body><article><h1>Doc 7</h1>"
            b"<p>alpha H<sub>2</sub>O mc<sup>2</sup></p>"
            b"</article></body></html>")
    out = unlv_batch(_extracted_pages(html))["unlv"][0].as_py()
    assert out == "Doc 7\n\nalpha _H2O ^mc2\n"


def test_unlv_reject_masking_and_noise_blocks():
    from org_dharts_dia_tesseract_ray.stages.extractor import unlv_batch
    html = (b"<html><body>"
            b'<nav><a href="/">home</a> <a href="/x">x</a></nav>'
            b"<article><h1>Doc 9</h1><p>body words</p></article>"
            b"<footer><a href='/a'>about</a></footer></body></html>")
    pages = _extracted_pages(html, b"")
    out = unlv_batch(pages)["unlv"].to_pylist()
    # noise blocks (nav/footer) carry no UNLV text
    assert out[0] == "Doc 9\n\nbody words\n"
    # reject threshold above every word confidence masks all words to ~
    masked = unlv_batch(pages, reject_below=101.0)["unlv"][0].as_py()
    assert masked == "~~~ ~\n\n~~~~ ~~~~~\n"
    # empty document renders to the empty string
    assert pages["extracted_text"][1].as_py() == ""
    assert out[1] == ""


def test_neardup_clusters_chain_convergence(ray_session):
    """Chain-shaped component: min-label propagation moves one hop per
    round, so a length-L path exercises the iteration + fixed-point exit
    (the star/clique fixtures converge in one round and can't catch a
    broken loop)."""
    import ray.data as _rd

    from org_dharts_dia_tesseract_ray.functions.dedup import neardup_clusters
    ids = _rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(7)), pa.int64())}))
    # path 0-1-2-...-5 plus isolated node 6
    pairs = _rd.from_arrow(pa.table({
        "id_a": pa.array(list(range(5)), pa.int64()),
        "id_b": pa.array(list(range(1, 6)), pa.int64())}))
    out = (neardup_clusters(ids, pairs, rounds=8)
           .to_pandas().sort_values("doc_id"))
    assert out["cluster"].tolist() == [0] * 6 + [6]
    # insufficient rounds must still label every node (partial propagation,
    # never a crash or dropped node)
    out2 = (neardup_clusters(ids, pairs, rounds=2)
            .to_pandas().sort_values("doc_id"))
    assert len(out2) == 7
    # label 0 propagates one hop per round: after 2 rounds nodes 0-2 are
    # labelled 0, node 3 still carries its 1-hop minimum
    assert out2["cluster"].tolist()[:4] == [0, 0, 0, 1]


def test_text_direction_detection():
    """Writing-direction getter (getOrientation/M13 analogue): strong-RTL
    majority → rtl; LTR scripts (incl. CJK) and neutral-only text → ltr."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        direction_batch)
    t = pa.table({
        "doc_id": list(range(5)),
        "text": ["hello world",                 # pure latin
                 "مرحبا بالعالم",                # pure arabic
                 "שלום עולם",                    # hebrew
                 "مرحبا hello world wide web",  # latin majority
                 "123 456 !!!"],                # neutral only -> ltr default
    })
    out = direction_batch(t)
    assert out["direction"].to_pylist() == ["ltr", "rtl", "rtl", "ltr", "ltr"]
    assert out["n_rtl"].to_pylist()[1] > 0
    assert out["n_ltr"].to_pylist()[1] == 0


# ---------------------------------------------------------------------------
# per-domain frequency capping


def test_first_k_per_key_matches_pandas_head():
    """Vectorized rank-per-run kernel == pandas groupby-sort-head."""
    from org_dharts_dia_tesseract_ray.functions.capping import first_k_per_key
    rng = np.random.RandomState(7)
    t = pa.table({
        "k": rng.randint(0, 9, 200).astype("int64").astype(str),
        "ts": rng.randint(0, 50, 200).astype("int64"),
        "v": np.arange(200, dtype="int64"),
    })
    out = (first_k_per_key(t, "k", [("ts", "ascending"), ("v", "ascending")], 3)
           .to_pandas().sort_values(["k", "ts", "v"]).reset_index(drop=True))
    want = (t.to_pandas().sort_values(["k", "ts", "v"], kind="mergesort")
            .groupby("k", sort=True).head(3).reset_index(drop=True))
    assert out.equals(want)


def test_top_k_per_key_parallelism_invariant(ray_session):
    """Distributed cap: same survivors at 1 and 7 input blocks, and the
    per-batch partial cap (combiner) cannot evict a global survivor."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.capping import (
        first_k_per_key, top_k_per_key)
    rng = np.random.RandomState(11)
    t = pa.table({
        "k": rng.randint(0, 5, 300).astype("int64").astype(str),
        "ts": rng.permutation(300).astype("int64"),
    })
    want = (first_k_per_key(t, "k", [("ts", "ascending")], 4)
            .to_pandas().sort_values(["k", "ts"]).reset_index(drop=True))
    for nparts in (1, 7):
        ds = ray.data.from_arrow(t).repartition(nparts)
        got = (top_k_per_key(ds, key_col="k", order_by=[("ts", "ascending")],
                             k=4, num_partitions=3)
               .to_pandas()[["k", "ts"]]
               .sort_values(["k", "ts"]).reset_index(drop=True))
        assert got.equals(want), nparts


def test_domain_extraction_cases():
    """Host grammar: lowercased, stops at port/path/query/fragment; null for
    relative or schemeless values; DuckDB regexp_extract agrees (shared RE2)."""
    from org_dharts_dia_tesseract_ray.functions.capping import (
        add_domain_batch, domain_sql_expr)
    urls = ["https://Example.COM/path", "http://a.b.c:8080/x?q=1",
            "https://host.test#frag", "ftp://files.test/",
            "not a url", "/relative/only", ""]
    t = pa.table({"url": pa.array(urls, pa.string())})
    got = add_domain_batch(t)["domain"].to_pylist()
    assert got == ["example.com", "a.b.c", "host.test", "files.test",
                   None, None, None]
    con = duckdb.connect()
    con.register("u", t)
    sql = con.sql(
        f"SELECT {domain_sql_expr('url')} AS d FROM u"
    )["d"].to_df()["d"].tolist()
    assert [x if isinstance(x, str) else None for x in sql] == got


def test_budget_cap_combiner_summary_rows():
    """The adversarial split that broke the summary-less combiner: batch A
    holds a key's prefix plus its FIRST over-budget row, batch B a later
    over-budget row.  Without the summary row, A's early drop deflates the
    reduce cumsum and B's loser sneaks back under the budget."""
    from org_dharts_dia_tesseract_ray.functions.capping import (
        first_budget_per_key)
    ob = [("id", "ascending")]
    a = pa.table({"k": ["0"] * 3, "id": [1, 2, 3],
                  "w": pa.array([60, 30, 20], pa.int64())})
    b = pa.table({"k": ["0"], "id": [4], "w": pa.array([10], pa.int64())})
    ca = first_budget_per_key(a, "k", ob, "w", 100, with_summaries=True)
    cb = first_budget_per_key(b, "k", ob, "w", 100, with_summaries=True)
    # A keeps its 90-weight prefix and a 20-weight summary AT id 3
    assert ca.to_pydict() == {"k": ["0"] * 3, "id": [1, 2, 3],
                              "w": [60, 30, 20]}
    out = first_budget_per_key(pa.concat_tables([ca, cb]), "k", ob, "w", 100)
    # id 4's true cum is 120 -> it must NOT survive
    assert out["id"].to_pylist() == [1, 2]
    # multi-row dropped suffix collapses into one summary carrying its total
    c = pa.table({"k": ["x"] * 4, "id": [1, 2, 3, 4],
                  "w": pa.array([99, 5, 6, 7], pa.int64())})
    cc = first_budget_per_key(c, "k", ob, "w", 100, with_summaries=True)
    assert cc.to_pydict() == {"k": ["x", "x"], "id": [1, 2], "w": [99, 18]}


def test_budget_cap_kernel_and_combiner_safety(ray_session):
    """Inclusive-cumsum quota kernel == window-SQL semantics; distributed
    result invariant under input partitioning (the summary-row combiner
    neither evicts a global survivor nor admits a global loser)."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.capping import (
        budget_cap_per_key, first_budget_per_key)
    rng = np.random.RandomState(3)
    t = pa.table({
        "k": rng.randint(0, 4, 120).astype("int64").astype(str),
        "id": np.arange(120, dtype="int64"),
        "w": rng.randint(0, 30, 120).astype("int64"),  # zeros included
    })
    want = first_budget_per_key(t, "k", [("id", "ascending")], "w", 100)
    # oracle: pandas window cumsum
    df = t.to_pandas().sort_values(["k", "id"])
    df["cum"] = df.groupby("k")["w"].cumsum()
    ref = df[df["cum"] <= 100].drop(columns="cum").reset_index(drop=True)
    got = want.to_pandas().sort_values(["k", "id"]).reset_index(drop=True)
    assert got.equals(ref)
    for nparts in (1, 4, 6, 13):
        ds = ray.data.from_arrow(t).repartition(nparts)
        out = (budget_cap_per_key(ds, key_col="k",
                                  order_by=[("id", "ascending")],
                                  weight_col="w", budget=100,
                                  num_partitions=3)
               .to_pandas().sort_values(["k", "id"]).reset_index(drop=True))
        assert out[["k", "id", "w"]].equals(ref), nparts


def test_weighted_mix_respects_weights(ray_session):
    """Mixture membership is per-group bucket < weight and is a SUBSET
    relation across weights (bucket sampling is nested)."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.sampling import weighted_mix
    t = pa.table({
        "doc_id": np.arange(400, dtype="int64"),
        "lang": (["en", "de", "fr", "xx"] * 100),
        "text": [f"document number {i} body" for i in range(400)],
    })
    ds = ray.data.from_arrow(t).repartition(4)
    out = weighted_mix(ds, {"en": 50, "de": 20, "fr": 0},
                       default_percent=100).to_pandas()
    by = out.groupby("lang")["doc_id"].count().to_dict()
    assert by.get("fr", 0) == 0           # weight 0 -> nothing survives
    assert by["xx"] == 100                # default 100 -> everything
    assert 0 < by["de"] < by["en"] < 100  # weights order respected
    # nested property: the 20% en-sample is a subset of the 50% one
    out20 = weighted_mix(ray.data.from_arrow(t), {"en": 20},
                         default_percent=0).to_pandas()
    assert set(out20["doc_id"]) <= set(out[out["lang"] == "en"]["doc_id"])


def test_decontaminate_flags_exact_ngram_overlap(ray_session):
    """Docs sharing an n-token phrase with the benchmark set are flagged;
    shorter overlaps and clean docs are not; counts are per-position."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.decontam import (
        build_ngram_blocklist, decontaminate)
    bench = pa.table({
        "doc_id": [100],
        "text": ["alpha beta gamma delta epsilon zeta"],
    })
    corpus = pa.table({
        "doc_id": [0, 1, 2, 3, 4],
        "text": [
            "alpha beta gamma delta epsilon",        # full 5-gram leak
            "x alpha beta gamma delta y",            # only 4-token overlap
            "clean document with no overlap at all",
            "alpha beta gamma delta epsilon zeta",   # 2 leaked 5-grams
            None,                                    # null text
        ],
    })
    bl = build_ngram_blocklist(ray.data.from_arrow(bench), n=5)
    out = (decontaminate(ray.data.from_arrow(corpus).repartition(2), bl, n=5)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["contaminated"].tolist() == [True, False, False, True, False]
    assert out["n_contaminated"].tolist() == [1, 0, 0, 2, 0]
    assert out["n_grams"].tolist() == [1, 2, 3, 2, 0]


def test_budget_cap_null_weights_and_schema(ray_session):
    """Null weights cost 0 against the budget (SUM(COALESCE(w,0)) OVER
    semantics), survive with value preserved, and never poison the cumsum;
    the weight column is int64 on EVERY output block, dropped-suffix or
    not (int32 input, mixed batches)."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.capping import (
        budget_cap_per_key, first_budget_per_key)
    ob = [("id", "ascending")]
    t = pa.table({"k": ["a"] * 4, "id": [1, 2, 3, 4],
                  "w": pa.array([5, None, 90, 10], pa.int32())})
    out = first_budget_per_key(t, "k", ob, "w", 100)
    assert out["id"].to_pylist() == [1, 2, 3]     # cum: 5, 5, 95, 105
    assert out["w"].to_pylist() == [5, None, 90]  # null preserved
    assert out.schema.field("w").type == pa.int64()
    # combiner mode on an all-fits batch must ALSO widen (fast path)
    small = first_budget_per_key(
        pa.table({"k": ["a"], "id": [1], "w": pa.array([1], pa.int32())}),
        "k", ob, "w", 100, with_summaries=True)
    assert small.schema.field("w").type == pa.int64()
    # leading null: survives at cost 0 (combiner crash regression)
    lead = pa.table({"k": ["z", "z"], "id": [1, 2],
                     "w": pa.array([None, 7], pa.int64())})
    c = first_budget_per_key(lead, "k", ob, "w", 5, with_summaries=True)
    assert c["id"].to_pylist() == [1, 2] and c["w"].to_pylist() == [None, 7]
    # end-to-end with nulls scattered across partitions
    big = pa.table({"k": ["a"] * 6, "id": [1, 2, 3, 4, 5, 6],
                    "w": pa.array([40, None, 40, 40, None, 1], pa.int32())})
    got = (budget_cap_per_key(ray.data.from_arrow(big).repartition(3),
                              key_col="k", order_by=ob, weight_col="w",
                              budget=100, num_partitions=2)
           .to_pandas().sort_values("id"))
    assert got["id"].tolist() == [1, 2, 3]        # cum 40,40,80,120 stops


def test_weighted_mix_null_group_gets_default(ray_session):
    """A null group value falls through the CASE chain to default_percent
    (SQL CASE parity) instead of being dropped by a null filter mask."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.sampling import weighted_mix
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "lang": pa.array(["en", None, None], pa.string()),
        "text": ["doc zero body", "doc one body", "doc two body"],
    })
    keep_all = weighted_mix(ray.data.from_arrow(t), {"en": 100},
                            default_percent=100).to_pandas()
    assert sorted(keep_all["doc_id"]) == [0, 1, 2]
    drop_null = weighted_mix(ray.data.from_arrow(t), {"en": 100},
                             default_percent=0).to_pandas()
    assert sorted(drop_null["doc_id"]) == [0]


def test_direction_null_text_matches_sql():
    """Null text → null counts and null direction on BOTH sides (the SQL
    CASE mirrors Arrow null propagation explicitly)."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        direction_batch, direction_sql)
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["hello", None], pa.string())})
    got = direction_batch(t).to_pandas()
    assert got["direction"].tolist()[0] == "ltr"
    assert got["direction"].isna().tolist() == [False, True]
    con = duckdb.connect()
    con.register("documents", t)
    sql = con.sql(direction_sql()).df().sort_values("doc_id")
    assert sql["direction"].tolist()[0] == "ltr"
    assert sql["direction"].isna().tolist() == [False, True]
    assert sql["n_rtl"].isna().tolist() == [False, True]


def test_pii_redaction_cases(ray_session):
    """Each PII category redacts with exact counts; sequential order means
    a phone never re-matches inside a replaced email; nulls propagate;
    distributed result equals the single-batch kernel."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.pii import (apply_redact_pii,
                                                            pii_sql,
                                                            redact_pii_batch)
    t = pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": [
            "write a.b-c_d%e+f@sub.domain.example thanks",
            "call +44 (0) 1632 960983 or +1-555-010-2222 now",
            "ips 10.0.0.1 and 255.255.255.255, not 1234.5.6.7",
            None,
            "clean text with no personal data at all",
        ],
    })
    out = redact_pii_batch(t)
    assert out["n_emails"].to_pylist() == [1, 0, 0, None, 0]
    assert out["n_phones"].to_pylist() == [0, 2, 0, None, 0]
    # 1234.5.6.7 must NOT match (\b + 1-3 digit octets)
    assert out["n_ips"].to_pylist() == [0, 0, 2, None, 0]
    assert out["redacted"].to_pylist()[0] == "write <EMAIL> thanks"
    assert out["redacted"].to_pylist()[1] == "call <PHONE> or <PHONE> now"
    assert out["has_pii"].to_pylist() == [True, True, True, None, False]
    con = duckdb.connect()
    con.register("documents", t)
    sql = con.sql(pii_sql()).arrow()
    for c in out.column_names:
        assert out[c].to_pylist() == sql[c].to_pylist(), c
    dist = (apply_redact_pii(ray.data.from_arrow(t).repartition(3))
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert dist["redacted"].tolist()[:3] == out["redacted"].to_pylist()[:3]


def test_line_filter_c4_rules(ray_session):
    """Terminal-punctuation, min-words and blacklist rules per line; doc
    reassembled in order; keep_doc threshold; null propagation; DuckDB
    parity on the exact same RE2 rules."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.linefilter import (
        apply_line_filter, line_filter_batch, line_filter_sql)
    t = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": [
            "A good long sentence here.\nshort.\n"
            "this has javascript in it.\nAnother fine sentence stands!\n"
            "no terminal punct here",
            "Only one good line survives this one.",
            None,
            'He said "stop right there."\nends with quote marks."\n{ code }',
        ],
    })
    out = line_filter_batch(t)
    assert out["text_kept"].to_pylist() == [
        "A good long sentence here.\nAnother fine sentence stands!",
        "Only one good line survives this one.",
        None,
        'He said "stop right there."\nends with quote marks."',
    ]
    assert out["n_lines"].to_pylist() == [5, 1, None, 3]
    assert out["n_kept"].to_pylist() == [2, 1, None, 2]
    assert out["keep_doc"].to_pylist() == [True, False, None, True]
    con = duckdb.connect()
    con.register("documents", t)
    sql = con.sql(line_filter_sql()).arrow()
    for c in out.column_names:
        assert out[c].to_pylist() == sql[c].to_pylist(), c
    dist = (apply_line_filter(ray.data.from_arrow(t).repartition(2))
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert dist["n_kept"].tolist()[0] == 2


def test_pack_sequences_prefix_sum(ray_session):
    """Global token offsets are a true prefix sum in id order, invariant
    under input partitioning/bucket count; zero/null-weight docs span no
    sequence; a doc straddling a boundary spans both sequences."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.packing import pack_sequences
    rng = np.random.RandomState(7)
    n = 300
    w = rng.randint(0, 40, n).astype("int64")
    w[5] = 0
    t = pa.table({"doc_id": np.arange(n, dtype="int64"),
                  "n_tokens": pa.array(w, pa.int64())})
    t = t.set_column(1, "n_tokens",
                     pa.array([None if i == 7 else int(x)
                               for i, x in enumerate(w)], pa.int64()))
    w2 = w.copy()
    w2[7] = 0
    start = np.cumsum(w2) - w2
    L = 64
    ref_first = [None if x == 0 else int(s // L)
                 for s, x in zip(start, w2)]
    ref_last = [None if x == 0 else int((s + x - 1) // L)
                for s, x in zip(start, w2)]
    for nparts, nbuckets in ((1, 4), (5, 3), (13, 8)):
        ds = ray.data.from_arrow(t).repartition(nparts)
        out = (pack_sequences(ds, seq_len=L, num_buckets=nbuckets)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert out["tok_start"].tolist() == start.tolist(), (nparts, nbuckets)
        got_first = [None if pd_isna(x) else int(x)
                     for x in out["seq_first"]]
        got_last = [None if pd_isna(x) else int(x) for x in out["seq_last"]]
        assert got_first == ref_first
        assert got_last == ref_last
    # boundary straddle: doc with tok_start just under L and weight 3
    t2 = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                   "n_tokens": pa.array([L - 1, 3], pa.int64())})
    out2 = (pack_sequences(ray.data.from_arrow(t2), seq_len=L,
                           num_buckets=2)
            .to_pandas().sort_values("doc_id"))
    assert out2["seq_first"].tolist() == [0, 0]
    assert out2["seq_last"].tolist() == [0, 1]


def pd_isna(x):
    import pandas as pd
    return pd.isna(x)


def test_unigram_score_model_and_oov(ray_session):
    """Deterministic top-V model; OOV counted; integer sums exact; DuckDB
    oracle parity on a corpus with rare and common tokens."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        build_unigram_model, score_unigram, unigram_score_sql)
    t = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": [
            "the the the cat",          # common-heavy
            "zyzzyva qwerty the",       # rare-heavy (OOV under V=2)
            None,
            "cat cat the",
        ],
    })
    ds = ray.data.from_arrow(t)
    model = build_unigram_model(ds, vocab_size=2)
    # counts: the=5, cat=3 -> model keeps exactly those two
    assert model["token"].to_pylist() == ["the", "cat"]
    assert model["n"].to_pylist() == [5, 3]
    out = (score_unigram(ray.data.from_arrow(t).repartition(2), model)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_tokens"].tolist() == [4, 3, 0, 3]
    assert out["n_oov"].tolist() == [0, 2, 0, 0]
    # doc0: 3*5 + 3 = 18; doc1: 5; doc3: 3+3+5 = 11
    assert out["sum_freq"].tolist() == [18, 5, 0, 11]
    assert out["mean_freq"].tolist()[0] == 4.5
    assert pd_isna(out["mean_freq"].tolist()[2])
    con = duckdb.connect()
    con.register("documents", t)
    sql = (con.sql(unigram_score_sql(2)).df()
           .sort_values("doc_id").reset_index(drop=True))
    for c in ["n_tokens", "n_oov", "sum_freq"]:
        assert out[c].tolist() == sql[c].tolist(), c


def test_unit_dedup_keep_first_global(ray_session):
    """Each distinct line survives only at its min-(doc,pos) occurrence;
    fully-duplicated docs drop entirely; within-doc repeats keep only the
    first; result invariant under input partitioning; DuckDB parity."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.unitdedup import (
        unit_dedup, unit_dedup_sql)
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": [
            "boiler plate line\nunique alpha",
            "boiler plate line\nunique beta\nboiler plate line",
            "boiler plate line",                      # fully duplicated
            None,
            "unique gamma\nunique gamma",             # within-doc repeat
        ],
    })
    con = duckdb.connect()
    con.register("documents", t)
    want = (con.sql(unit_dedup_sql() + " ORDER BY doc_id").df()
            .reset_index(drop=True))
    assert want["doc_id"].tolist() == [0, 1, 4]
    assert want["text_kept"].tolist() == [
        "boiler plate line\nunique alpha", "unique beta", "unique gamma"]
    for nparts in (1, 3):
        out = (unit_dedup(ray.data.from_arrow(t).repartition(nparts),
                          num_partitions=4)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        import pandas.testing as pdt
        pdt.assert_frame_equal(out, want, check_dtype=False)


def test_unit_dedup_rejects_repeated_doc_id(ray_session):
    """unit_dedup's unique-id contract is enforced: two rows sharing one
    doc_id raise ValueError instead of silently misassigning units."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.unitdedup import unit_dedup
    t = pa.table({"doc_id": pa.array([7, 7], pa.int64()),
                  "text": ["shared line\nfirst", "shared line\nsecond"]})
    with pytest.raises(Exception, match="doc_id is not unique"):
        unit_dedup(ray.data.from_arrow(t), num_partitions=2).take_all()


def test_doc_frequency_edge_whitespace_matches_oracle(ray_session):
    """Text that starts or ends with newlines/tabs tokenizes identically
    in the operator (``utf8_trim_whitespace``) and the DuckDB oracle
    (``trim_sql``): no empty token in either."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.vocab import (
        doc_frequency, doc_frequency_sql)
    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": ["\nalpha beta\n", "\t beta gamma \n\n",
                           "gamma\u3000"]})
    got = sorted(tuple(r.values()) for r in doc_frequency(
        ray.data.from_arrow(t)).select_columns(
            ["token", "n_docs", "min_doc", "max_doc"]).take_all())
    con = duckdb.connect()
    con.register("documents", t)
    want = sorted(con.execute(doc_frequency_sql()).fetchall())
    assert got == want
    assert [r[0] for r in want] == ["alpha", "beta", "gamma"]


def test_token_stats_and_quality_edge_whitespace_match_oracle():
    """Text that starts or ends with newlines, tabs or U+3000 gives the
    same whitespace-token count (and so the same quality score) from the
    operators and their DuckDB oracles; empty and whitespace-only text
    has no tokens, null text a null count."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        quality_batch, quality_sql, token_stats_batch, token_stats_sql)
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                  "text": ["\nalpha beta\n", "\t the cat \n\n",
                           "gamma\u3000", "", " \n ", None]})
    con = duckdb.connect()
    con.register("documents", t)
    for op, sql in ((token_stats_batch, token_stats_sql),
                    (quality_batch, quality_sql)):
        got = op(t).to_pylist()
        assert got == con.execute(sql()).fetch_arrow_table().to_pylist()
        assert [r["n_tokens_ws"] for r in got] == [2, 2, 1, 0, 0, None]
    assert quality_batch(t)["quality_score"][0].as_py() == 40.4


def test_unigram_score_matches_oracle(ray_session):
    """``score_unigram`` over a ``build_unigram_model`` model equals
    ``unigram_score_sql``: edge newlines add no empty token, a top-3 model
    leaves some tokens out of vocabulary, and null text scores like the
    oracle."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        build_unigram_model, score_unigram, unigram_score_sql)
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                  "text": ["\nalpha beta\n", "\t beta gamma \n\n",
                           "alpha beta delta", None, "gamma\talpha\u3000\n"]})
    ds = ray.data.from_arrow(t)
    model = build_unigram_model(ds, vocab_size=3)
    got = sorted(tuple(r.values()) for r in score_unigram(
        ds, model).select_columns(
            ["doc_id", "n_tokens", "n_oov", "sum_freq", "mean_freq"]).take_all())
    con = duckdb.connect()
    con.register("documents", t)
    want = sorted(con.execute(unigram_score_sql(3)).fetchall())
    assert got == want
    assert [r[1] for r in want] == [2, 2, 3, 0, 2]


def test_text_without_tokens_matches_oracles(ray_session, tmp_path):
    """Empty, whitespace-only and null text have no whitespace tokens on
    either side: ``score_unigram``, ``tokenize_ids`` (the row is kept with
    zero counts) and the token_budget and pack_sequences queries equal
    their DuckDB oracles, and an interior U+3000 does not split a token."""
    import ray.data

    import __ray_entry__ as entry
    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        build_unigram_model, score_unigram, unigram_score_sql)
    from org_dharts_dia_tesseract_ray.functions.vocab import (
        tokenize_ids, tokenize_ids_sql)
    t = pa.table({"doc_id": pa.array(range(1, 7), pa.int64()),
                  "lang": ["en", "en", "de", "de", "en", "de"],
                  "text": ["alpha beta", "", " \n ", None,
                           "gamma\u3000alpha beta", "\tbeta\n"]})
    con = duckdb.connect()
    con.register("documents", t)
    ds = ray.data.from_arrow(t).repartition(2)

    def rows(out, cols=None):
        return sorted(tuple(r[c] for c in (cols or r)) for r in out)

    model = build_unigram_model(ds, vocab_size=2)
    got = rows(score_unigram(ds, model).take_all(),
               ["doc_id", "n_tokens", "n_oov", "sum_freq", "mean_freq"])
    assert got == sorted(con.execute(unigram_score_sql(2)).fetchall())
    assert [r[1] for r in got] == [2, 0, 0, 0, 2, 1]
    got = sorted((r["doc_id"], r["n_tokens"], r["n_oov"],
                  ",".join(str(i) for i in r["ids"]))
                 for r in tokenize_ids(ds, model).take_all())
    assert got == sorted(con.execute(tokenize_ids_sql(2)).fetchall())
    assert got[1:4] == [(2, 0, 0, ""), (3, 0, 0, ""), (4, 0, 0, "")]
    pq.write_table(t, tmp_path / "documents.parquet")
    table = {row.name: row for row in entry.rows()}
    for name in ("token_budget", "pack_sequences"):
        row = table[name]
        assert rows(row.query(str(tmp_path)).take_all()) \
            == sorted(con.execute(row.sql()).fetchall())


def test_whitespace_tokenizer_lives_in_vocab_only():
    """The whitespace split and its edge trim are written once, in
    ``functions/vocab.py``; every other module, ``__ray_entry__`` and the
    ``harness`` query modules tokenize through
    ``vocab.ws_tokens``/``ws_tokens_sql``.  The only other uses are
    linefilter's line split on newlines and normalize_text's trim."""
    import inspect
    import pathlib

    from org_dharts_dia_tesseract_ray.functions import linefilter
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        normalize_text_batch)
    repo = pathlib.Path(__file__).resolve().parent.parent
    pkg = repo / "org_dharts_dia_tesseract_ray"
    files = {str(f.relative_to(pkg)): f for f in pkg.rglob("*.py")}
    files["__ray_entry__.py"] = repo / "__ray_entry__.py"
    harness = sorted((repo / "harness").glob("*.py"))
    assert len(harness) >= 7
    files.update((f"harness/{f.name}", f) for f in harness)
    names = ("split_pattern_regex", "regexp_split_to_array",
             "utf8_trim_whitespace", "WS_PATTERN", "trim_sql")
    found = {(rel, name): f.read_text().count(name)
             for rel, f in files.items() if rel != "functions/vocab.py"
             for name in names}
    assert {k: n for k, n in found.items() if n} == {
        ("functions/linefilter.py", "regexp_split_to_array"): 1,
        ("functions/text_stats.py", "utf8_trim_whitespace"): 1}
    assert "regexp_split_to_array({c}, '\\n')" in inspect.getsource(
        linefilter)
    assert "utf8_trim_whitespace" in inspect.getsource(normalize_text_batch)


# ---------------------------------------------------------------------------
# Bloom-filter incremental dedup


def test_bloom_roundtrip_string_keys(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.bloomdedup import (
        bloom_build, bloom_filter_new)

    ref = ray.data.from_arrow(pa.table({
        "url": [f"https://seen.example/{i}" for i in range(200)],
    })).repartition(4)
    bloom = bloom_build(ref, key_col="url", bits=1 << 18)
    new = ray.data.from_arrow(pa.table({
        "url": ([f"https://seen.example/{i}" for i in range(0, 200, 2)]
                + [f"https://new.example/{i}" for i in range(50)]
                + [None, None]),
        "rank": list(range(152)),
    })).repartition(3)
    kept = bloom_filter_new(new, bloom, key_col="url").to_pandas()
    # no false negatives: every seen url dropped
    assert not kept["url"].str.startswith("https://seen.").any()
    # null keys pass through; new urls survive (FP odds ~1e-20 at this m)
    assert kept["url"].isna().sum() == 2
    assert (kept["url"].dropna().str.startswith("https://new.")).all()
    assert len(kept) == 52


def test_bloom_integer_keys_deterministic(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.bloomdedup import (
        bloom_build, bloom_filter_new)

    ref = ray.data.from_arrow(pa.table({"k": list(range(0, 3000, 3))}))
    b1 = bloom_build(ref, key_col="k", bits=1 << 18)
    b2 = bloom_build(ref.repartition(7), key_col="k", bits=1 << 18)
    # bitmap is a pure function of the key set, not the partitioning
    assert np.array_equal(b1.bitmap, b2.bitmap) and b1.k == b2.k
    new = ray.data.from_arrow(pa.table({"k": list(range(3000))}))
    kept = bloom_filter_new(new, b1, key_col="k").to_pandas()
    assert set(kept["k"]) == set(range(3000)) - set(range(0, 3000, 3))


def test_bloom_rejects_bad_bits():
    from org_dharts_dia_tesseract_ray.functions.bloomdedup import (
        Bloom, bloom_build, bloom_filter_new)
    with pytest.raises(ValueError):
        bloom_build(None, key_col="k", bits=3 << 20)   # not a power of two
    with pytest.raises(ValueError):                    # truncated bitmap
        bloom_filter_new(None, Bloom(np.zeros(3, np.uint8), 7), key_col="k")


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters


def test_mg_compress_bound():
    from org_dharts_dia_tesseract_ray.functions.heavyhitters import (
        mg_compress)
    counts = pa.table({
        "token": [f"t{i}" for i in range(10)],
        "partial": [100, 90, 80, 5, 4, 3, 3, 2, 2, 1],
    })
    out, t = mg_compress(counts, capacity=3)
    assert t == 5                       # (capacity+1)-th largest
    assert out.num_rows <= 3
    got = dict(zip(out["token"].to_pylist(), out["partial"].to_pylist()))
    assert got == {"t0": 95, "t1": 85, "t2": 75}
    # under capacity: untouched
    out2, t2 = mg_compress(counts, capacity=50)
    assert t2 == 0 and out2 is counts


def test_heavy_hitters_capacity_path(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.heavyhitters import (
        heavy_hitters)

    # zipf-ish corpus: 'alpha' dominates, long tail forces decrements
    docs = pa.table({"text": (["alpha " * 30] * 20
                              + [f"tail{i} tail{i + 1} beta beta beta"
                                 for i in range(40)])})
    out = heavy_hitters(ray.data.from_arrow(docs).repartition(4),
                        k=3, capacity=4).to_pandas()
    assert out.iloc[0]["token"] == "alpha"
    err = int(out["err_bound"].iloc[0])
    assert err > 0                      # the capacity path actually fired
    # MG guarantee: estimate <= true count <= estimate + err_bound
    assert int(out.iloc[0]["n"]) <= 600
    assert 600 <= int(out.iloc[0]["n"]) + err


def test_heavy_hitters_exact_when_under_capacity(ray_session):
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.heavyhitters import (
        heavy_hitters)

    docs = pa.table({"text": ["a a a b b c", "b a", None, "  "]})
    out = heavy_hitters(ray.data.from_arrow(docs).repartition(2),
                        k=10).to_pandas()
    assert out["err_bound"].eq(0).all()
    got = dict(zip(out["token"], out["n"]))
    # the whitespace-only doc has no tokens (vocab.ws_tokens)
    assert got == {"a": 4, "b": 3, "c": 1}


def test_bloom_probe_positions_properties():
    """Hypothesis sweep: probe positions are deterministic, in-range, and
    the double-hash stride actually varies per key."""
    import hypothesis.strategies as st
    from hypothesis import given, settings

    from org_dharts_dia_tesseract_ray.functions.bloomdedup import (
        _probe_positions)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=30),
                              st.integers(0, 2**40)),
                    min_size=1, max_size=40),
           st.sampled_from([1 << 12, 1 << 16, 1 << 20]),
           st.integers(1, 12))
    def inner(keys, bits, k):
        col = pa.array([str(x) for x in keys], pa.string())
        p1 = _probe_positions(col, bits, k)
        p2 = _probe_positions(col, bits, k)
        assert np.array_equal(p1, p2)               # deterministic
        assert p1.shape == (len(keys), k)
        assert (p1 >= 0).all() and (p1 < bits).all()
        # distinct keys rarely share their FULL probe set — only a valid
        # property at k >= 2: with a single probe, two keys colliding in
        # one position is a legitimate 1/bits event hypothesis CAN find
        # (it did: two strings sharing their k=1 slot at bits=4096)
        if k >= 2:
            uniq = {tuple(r) for r in p1}
            assert len(uniq) >= len(set(str(x) for x in keys)) * 0.9

    inner()


def test_mg_compress_properties():
    """Hypothesis sweep of the MG invariants: size cap, underestimate
    bounded by the decrement, dropped mass bounded by t per token."""
    import hypothesis.strategies as st
    from hypothesis import given, settings

    from org_dharts_dia_tesseract_ray.functions.heavyhitters import (
        mg_compress)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=200),
           st.integers(1, 50))
    def inner(counts, capacity):
        t_in = pa.table({
            "token": [f"w{i}" for i in range(len(counts))],
            "partial": counts,
        })
        out, t = mg_compress(t_in, capacity)
        assert out.num_rows <= capacity
        got = dict(zip(out["token"].to_pylist(),
                       out["partial"].to_pylist()))
        for i, c in enumerate(counts):
            est = got.get(f"w{i}", 0)
            assert est <= c                  # never overestimates
            assert c - est <= t              # underestimate bounded by t
            if est:
                assert est == c - t          # survivors: exactly c - t

    inner()


# ---------------------------------------------------------------------------
# WARC container source


def _warc_pages_table():
    import datetime as dt
    ts = dt.datetime(2024, 3, 1, 12, 0, 0, tzinfo=dt.timezone.utc)
    return pa.table({
        "url": ["https://a.example/1", "https://b.example/2",
                "https://c.example/3", "https://d.example/4"],
        "warc_ts": pa.array([ts, ts.replace(microsecond=250_000), ts, ts],
                            pa.timestamp("us", tz="UTC")),
        # record 2's payload embeds the WARC magic + CRLFCRLF — framing
        # must come from Content-Length, not delimiter scanning
        "html": [b"<p>hi</p>", b"x\r\n\r\nWARC/1.0\r\nfake: y\r\n\r\nz",
                 b"", None],
        "text": ["hi", None, "", "t"],
        "lang": ["en", "de", None, "fr"],
    })


def test_warc_roundtrip(ray_session, tmp_path):
    from org_dharts_dia_tesseract_ray.sources.warc import (read_warc,
                                                           write_warc)
    pages = _warc_pages_table()
    paths = write_warc(pages, str(tmp_path), shards=2)
    assert len(paths) == 2
    got = (read_warc(paths).to_pandas()
           .sort_values("url").reset_index(drop=True))
    want = pages.to_pandas().sort_values("url").reset_index(drop=True)
    # null html serializes as the empty payload — the one lossy cell
    want.loc[want["html"].isna(), "html"] = b""
    import pandas.testing as pdt
    pdt.assert_frame_equal(got, want)


def test_warc_malformed_record_degrades(ray_session, tmp_path):
    from org_dharts_dia_tesseract_ray.sources.warc import (read_warc,
                                                           write_warc)
    pages = _warc_pages_table()
    [path] = write_warc(pages, str(tmp_path), shards=1)
    raw = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(raw[:len(raw) - 30])      # truncate the final record
    ok = read_warc([path]).to_pandas()
    assert len(ok) == 3                   # intact records survive
    witherr = read_warc([path], include_errors=True).to_pandas()
    assert len(witherr) == 4
    assert witherr["error"].notna().sum() == 1


def test_warc_feeds_extraction(ray_session, tmp_path):
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages)
    from org_dharts_dia_tesseract_ray.sources.gen_corpus import (
        gen_rows, rows_to_table)
    from org_dharts_dia_tesseract_ray.sources.warc import (read_warc,
                                                           write_warc)
    pages = rows_to_table(list(gen_rows(40, seed=7)))
    paths = write_warc(pages, str(tmp_path), shards=3)
    out = extract_pages(read_warc(paths)).to_pandas()
    assert len(out) == 40
    assert out["extracted_text"].notna().any()


def test_warc_gzip_member_per_record(ray_session, tmp_path):
    from org_dharts_dia_tesseract_ray.sources.warc import (read_warc,
                                                           write_warc)
    pages = _warc_pages_table()
    paths = write_warc(pages, str(tmp_path), shards=2, gzip_records=True)
    assert all(p.endswith(".warc.gz") for p in paths)
    got = (read_warc(paths).to_pandas()
           .sort_values("url").reset_index(drop=True))
    want = pages.to_pandas().sort_values("url").reset_index(drop=True)
    want.loc[want["html"].isna(), "html"] = b""
    import pandas.testing as pdt
    pdt.assert_frame_equal(got, want)


def test_warc_microsecond_exact_and_real_crawl_shape(ray_session, tmp_path):
    """µs values that float-truncate (935922), a leading warcinfo record,
    interleaved request records, CRLF-bearing urls, null url/ts rows."""
    import datetime as dt

    from org_dharts_dia_tesseract_ray.sources.warc import (read_warc,
                                                           write_warc)
    ts = dt.datetime(2004, 7, 20, 19, 48, 54, 935922,
                     tzinfo=dt.timezone.utc)
    pages = pa.table({
        "url": ["https://x.example/ok", "https://evil.example/a\r\nX: y",
                None, "https://y.example/nullts"],
        "warc_ts": pa.array([ts, ts, ts, None],
                            pa.timestamp("us", tz="UTC")),
        "html": [b"<p>a</p>", b"<p>b</p>", b"<p>skip</p>", b"<p>c</p>"],
        "text": ["a", "b", "c", "d"],
        "lang": ["en", "en", "en", "en"],
    })
    [path] = write_warc(pages, str(tmp_path), shards=1)
    # splice real-crawl noise in front: warcinfo + request records
    noise = (b"WARC/1.0\r\nWARC-Type: warcinfo\r\nContent-Length: 4\r\n"
             b"\r\nnois\r\n\r\n"
             b"WARC/1.0\r\nWARC-Type: request\r\n"
             b"WARC-Target-URI: https://x.example/ok\r\n"
             b"Content-Length: 2\r\n\r\nGE\r\n\r\n")
    raw = open(path, "rb").read()
    open(path, "wb").write(noise + raw)
    got = (read_warc([path]).to_pandas()
           .sort_values("url").reset_index(drop=True))
    assert len(got) == 3                       # null-url row skipped
    row = got[got["url"] == "https://x.example/ok"].iloc[0]
    assert row["warc_ts"].microsecond == 935922   # integer-exact
    # CRLF in url percent-encoded, framing intact
    assert "https://evil.example/a%0DX: y" in set(got["url"]) or \
        "https://evil.example/a%0D%0AX: y" in set(got["url"])
    import pandas as pd
    nullts = got[got["url"] == "https://y.example/nullts"].iloc[0]
    assert nullts["warc_ts"] == pd.Timestamp("1970-01-01", tz="UTC")


def _gzip_member_spans(raw: bytes) -> list:
    """(offset, length) of each gzip member of a member-per-record file."""
    import zlib
    spans, pos = [], 0
    while pos < len(raw):
        d = zlib.decompressobj(31)
        d.decompress(raw[pos:])
        n = len(raw) - pos - len(d.unused_data)
        spans.append((pos, n))
        pos += n
    return spans


def _warc_rows(t: pa.Table) -> list:
    """The non-error rows of a read as tuples, in row order."""
    import pyarrow.compute as pc
    if "error" in t.column_names:
        t = t.filter(pc.is_null(t["error"]))
    return list(zip(*[t[c].to_pylist() for c in
                      ["url", "warc_ts", "html", "text", "lang"]]))


def _warc_errors(t: pa.Table) -> list:
    return [e for e in t["error"].to_pylist() if e is not None]


def _damaged_gzip_warc(tmp_path, damage):
    """A 12-record ``.warc.gz`` (one member per record) with ``damage(raw,
    members) -> (raw, k)`` applied to member ``k``; returns the path and
    the source rows of every other member."""
    from org_dharts_dia_tesseract_ray.sources.gen_corpus import (
        gen_rows, rows_to_table)
    from org_dharts_dia_tesseract_ray.sources.warc import write_warc
    pages = rows_to_table(list(gen_rows(12, seed=11)))
    [path] = write_warc(pages, str(tmp_path), shards=1, gzip_records=True)
    raw = open(path, "rb").read()
    members = _gzip_member_spans(raw)
    assert len(members) == pages.num_rows
    raw, k = damage(raw, members)
    open(path, "wb").write(raw)
    rows = _warc_rows(pages)
    return path, rows[:k] + rows[k + 1:]


def _read_all(paths, **kwargs):
    import ray

    from org_dharts_dia_tesseract_ray.sources.warc import read_warc
    return pa.concat_tables(
        ray.get(read_warc(paths, **kwargs).to_arrow_refs()))


def test_warc_corrupt_gzip_member_is_one_error_row(ray_session, tmp_path):
    def zero_middle_member(raw, members):
        k = len(members) // 2
        at, n = members[k]
        cut = at + n // 2 - 32           # inside the member's deflate data
        return raw[:cut] + bytes(64) + raw[cut + 64:], k
    path, want = _damaged_gzip_warc(tmp_path, zero_middle_member)
    t = _read_all([path], include_errors=True)
    [error] = _warc_errors(t)
    assert error.startswith("warc:gzip_member")
    assert _warc_rows(t) == want


def test_warc_truncated_last_gzip_member_is_one_error_row(ray_session,
                                                          tmp_path):
    def cut_last_member(raw, members):
        at, n = members[-1]
        return raw[:at + n // 2], len(members) - 1
    path, want = _damaged_gzip_warc(tmp_path, cut_last_member)
    t = _read_all([path], include_errors=True)
    [error] = _warc_errors(t)
    assert error.startswith("warc:gzip_member")
    assert _warc_rows(t) == want


def test_warc_gzip_detected_by_magic_not_name(ray_session, tmp_path):
    import shutil
    from org_dharts_dia_tesseract_ray.sources.gen_corpus import (
        gen_rows, rows_to_table)
    from org_dharts_dia_tesseract_ray.sources.warc import write_warc
    pages = rows_to_table(list(gen_rows(12, seed=11)))
    [gz] = write_warc(pages, str(tmp_path), shards=1, gzip_records=True)
    plain = str(tmp_path / "crawl-renamed.warc")
    shutil.copy(gz, plain)
    want = _read_all([gz])
    assert want.num_rows == pages.num_rows
    assert _read_all([plain]).equals(want)


def _read_stream(path, include_errors=True) -> list:
    """The datasource's tables for one file, read in-process (no Ray)."""
    import types

    from org_dharts_dia_tesseract_ray.sources.warc import WarcDatasource
    stub = types.SimpleNamespace(_include_errors=include_errors)
    with open(path, "rb", buffering=0) as f:
        return list(WarcDatasource._read_stream(stub, f, path))


@pytest.mark.parametrize("gzip_records", [False, True])
def test_warc_record_over_budget_is_limit_row(monkeypatch, tmp_path,
                                              gzip_records):
    from org_dharts_dia_tesseract_ray.sources import warc
    pages = pa.table({
        "url": ["https://a.example/small", "https://b.example/big",
                "https://c.example/next"],
        "warc_ts": pa.array([0, 1, 2], pa.timestamp("us", tz="UTC")),
        "html": [b"<p>a</p>", b"<p>" + b"b" * 5000 + b"</p>", b"<p>c</p>"],
        "text": ["a", None, "c"],
        "lang": ["en", "de", None],
    })
    [path] = warc.write_warc(pages, str(tmp_path), shards=1,
                             gzip_records=gzip_records)
    monkeypatch.setattr(warc, "MAX_WARC_RECORD_BYTES", 1000)
    monkeypatch.setattr(warc, "READ_CHUNK", 512)   # the payload spans reads
    t = pa.concat_tables(_read_stream(path))
    [error] = _warc_errors(t)
    assert error.startswith("limit:warc_record_bytes")
    assert t["url"].to_pylist() == pages["url"].to_pylist()
    rows = _warc_rows(pages)
    assert _warc_rows(t) == [rows[0], rows[2]]


@pytest.mark.parametrize("gzip_records", [False, True])
def test_warc_read_memory_bounded_by_morsel(monkeypatch, tmp_path,
                                            gzip_records):
    """~16 MiB inflated through 1 MiB morsels: the reader's Python heap
    peaks at a few morsels, not at the file."""
    import random
    import tracemalloc

    from org_dharts_dia_tesseract_ray.sources import warc
    rng = random.Random(5)
    words = [("w%d" % i).encode() for i in range(2000)]
    n = 400
    html = [b"<p>" + b" ".join(rng.choice(words) for _ in range(8000))
            + b"</p>" for _ in range(n)]
    pages = pa.table({
        "url": [f"https://m.example/{i}" for i in range(n)],
        "warc_ts": pa.array(list(range(n)), pa.timestamp("us", tz="UTC")),
        "html": html, "text": [None] * n, "lang": ["en"] * n,
    })
    inflated = sum(map(len, html))
    assert 15 << 20 < inflated < 18 << 20
    [path] = warc.write_warc(pages, str(tmp_path), shards=1,
                             gzip_records=gzip_records)
    del html, pages
    monkeypatch.setattr(warc, "MORSEL_RECORDS", 1 << 20)
    monkeypatch.setattr(warc, "MORSEL_BYTES", 1 << 20)
    tables = rows = 0
    tracemalloc.start()
    try:
        for t in _read_stream(path, include_errors=False):
            tables += 1
            rows += t.num_rows
            del t
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == n
    assert tables > 8
    assert peak < 3 << 20, peak


def test_warc_extract_plan_is_one_fused_operator(ray_session, tmp_path):
    """read → sniff → split → extract run as one operator, one task per
    file, with no block splitting between them."""
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extract_pages)
    from org_dharts_dia_tesseract_ray.sources.gen_corpus import (
        gen_rows, rows_to_table)
    from org_dharts_dia_tesseract_ray.sources.warc import (read_warc,
                                                           write_warc)
    pages = rows_to_table(list(gen_rows(30, seed=7)))
    paths = write_warc(pages, str(tmp_path), shards=3, gzip_records=True)
    ds = extract_pages(read_warc(paths)).materialize()
    assert ds.count() == 30
    stats = ds.stats()
    ops = [line for line in stats.splitlines()
           if line.startswith("Operator ")]
    assert len(ops) == 1, stats
    assert "ReadWarc" in ops[0] and "HtmlExtractor" in ops[0]
    assert "3 tasks executed" in ops[0]
    assert "SplitBlocks" not in stats


# ---------------------------------------------------------------------------
# Mergeable quantile summaries


def test_qsketch_exact_path_matches_numpy():
    from org_dharts_dia_tesseract_ray.functions.qsketch import (
        quantile_from_summary, summarize_run)
    rng = np.random.default_rng(3)
    vals = rng.normal(100, 25, size=500)
    v, w = summarize_run(vals, capacity=1000)      # under capacity: exact
    assert w.sum() == 500 and (w == 1).all()
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert quantile_from_summary(v, w, q) == \
            float(np.percentile(vals, q * 100, method="linear"))


def test_qsketch_compressed_rank_error_bound():
    from org_dharts_dia_tesseract_ray.functions.qsketch import (
        quantile_from_summary, summarize_run, thin_summary)
    rng = np.random.default_rng(5)
    half1 = rng.lognormal(3, 1, size=20_000)
    half2 = rng.lognormal(3, 1, size=20_000)
    cap = 256
    v, w = summarize_run(half1, capacity=cap)
    assert len(v) <= cap and w.sum() == len(half1)
    # merge two compressed halves (weighted re-thin — the intermediate
    # tree-level path where input weights are NOT all 1), then check the
    # MERGED summary's quantile rank error against the exact pool
    v2, w2 = summarize_run(half2, capacity=cap)
    allv = np.concatenate([v, v2]); allw = np.concatenate([w, w2])
    order = np.argsort(allv, kind="stable")
    mv, mw = thin_summary(allv[order], allw[order], cap)
    assert mw.sum() == 40_000 and len(mv) <= cap
    exact_pool = np.sort(np.concatenate([half1, half2]))
    for q in (0.1, 0.5, 0.9):
        est = quantile_from_summary(mv, mw, q)
        rank = np.searchsorted(exact_pool, est) / len(exact_pool)
        # two compressions (batch + merge), each <= n/(2*cap) rank error
        assert abs(rank - q) <= 2.0 / cap + 0.01


def test_qsketch_grouped_matches_exact_operator(ray_session):
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.qsketch import (
        grouped_quantiles_sketch)
    from org_dharts_dia_tesseract_ray.functions.stats import (
        grouped_quantiles)
    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["lang", "n_chars"])
    ds = ray.data.from_arrow(t).repartition(4)
    a = (grouped_quantiles_sketch(ds, key="lang", value_col="n_chars")
         .to_pandas().sort_values("lang").reset_index(drop=True))
    b = (grouped_quantiles(ray.data.from_arrow(t).repartition(4),
                           key="lang", value_col="n_chars")
         .to_pandas().sort_values("lang").reset_index(drop=True))
    import pandas.testing as pdt
    pdt.assert_frame_equal(a, b)                   # bit-identical when exact


def test_qsketch_null_keys_form_their_own_group(ray_session):
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.qsketch import (
        grouped_quantiles_sketch)
    from org_dharts_dia_tesseract_ray.functions.stats import (
        grouped_quantiles)
    t = pa.table({"lang": ["a", None, "a", None, "b", "a"],
                  "n": [1.0, 10.0, 3.0, 30.0, 5.0, 2.0]})
    a = (grouped_quantiles_sketch(ray.data.from_arrow(t).repartition(3),
                                  key="lang", value_col="n")
         .to_pandas().sort_values("lang", na_position="last")
         .reset_index(drop=True))
    b = (grouped_quantiles(ray.data.from_arrow(t).repartition(3),
                           key="lang", value_col="n")
         .to_pandas().sort_values("lang", na_position="last")
         .reset_index(drop=True))
    import pandas.testing as pdt
    pdt.assert_frame_equal(a, b)          # incl. the None-key row


# ---------------------------------------------------------------------------
# Integer PageRank


def _pr_numpy_reference(n, src, dst, iters, scale=10 ** 12, D=85):
    init = scale // n
    base = ((100 - D) * init) // 100
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, src, 1)
    rank = np.full(n, init, dtype=np.int64)
    for _ in range(iters):
        inflow = np.zeros(n, dtype=np.int64)
        np.add.at(inflow, dst, rank[src] // deg[src])
        rank = base + (D * inflow) // 100
    return rank


def _pr_fixture():
    rng = np.random.default_rng(11)
    n = 50
    src = rng.integers(0, n, size=150).astype(np.int64)
    dst = rng.integers(0, n, size=150).astype(np.int64)
    # every node needs out-edges for the reference formula (dangling
    # nodes divide by zero in the numpy oracle); add a self-cycle ring
    ring_src = np.arange(n, dtype=np.int64)
    src = np.concatenate([src, ring_src])
    dst = np.concatenate([dst, (ring_src + 1) % n])
    return n, src, dst


def test_pagerank_broadcast_matches_numpy_reference(ray_session):
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.graph import (
        pagerank_broadcast)
    n, src, dst = _pr_fixture()
    nodes = ray.data.from_arrow(pa.table({"node": np.arange(n)}))
    edges = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    got = (pagerank_broadcast(nodes.repartition(3), edges.repartition(4),
                              iterations=5)
           .to_pandas().sort_values("node").reset_index(drop=True))
    want = _pr_numpy_reference(n, src, dst, iters=5)
    assert got["rank"].to_numpy().tolist() == want.tolist()


def test_pagerank_partitioned_matches_broadcast(ray_session):
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.graph import (
        pagerank_broadcast, pagerank_int)
    n, src, dst = _pr_fixture()
    nodes = ray.data.from_arrow(pa.table({"node": np.arange(n)}))
    edges = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    a = (pagerank_int(nodes, edges, iterations=2)
         .to_pandas().sort_values("node").reset_index(drop=True))
    b = (pagerank_broadcast(nodes, edges, iterations=2)
         .to_pandas().sort_values("node").reset_index(drop=True))
    import pandas.testing as pdt
    pdt.assert_frame_equal(a, b)       # integer arithmetic: bit-equal


def test_pagerank_int_block_count_bounded_across_rounds(ray_session):
    """The iterative-loop scale guard: pinned ranks must not gain blocks
    round over round (uncapped, each sort-shuffle emitted ~input-many
    blocks → linearly more tasks per round → quadratic total wall).  With
    the cap, many iterations end at ≤ num_partitions blocks and per-round
    cost stays flat."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.graph import (
        pagerank_broadcast, pagerank_int)
    n, src, dst = _pr_fixture()
    nodes = ray.data.from_arrow(pa.table({"node": np.arange(n)}))
    edges = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    out = pagerank_int(nodes, edges, iterations=7, num_partitions=4)
    assert out.materialize().num_blocks() <= 4
    # and the capped/pinned path is still bit-equal to broadcast
    a = out.to_pandas().sort_values("node").reset_index(drop=True)
    b = (pagerank_broadcast(nodes, edges, iterations=7)
         .to_pandas().sort_values("node").reset_index(drop=True))
    import pandas.testing as pdt
    pdt.assert_frame_equal(a, b)


def test_pagerank_broadcast_rejects_foreign_endpoints(ray_session):
    import pytest as _pytest
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.graph import (
        pagerank_broadcast)
    nodes = ray.data.from_arrow(pa.table({"node": [0, 1, 2]}))
    edges = ray.data.from_arrow(pa.table({"src": [0, 1], "dst": [1, 99]}))
    with _pytest.raises(Exception, match="endpoint not in node set"):
        pagerank_broadcast(nodes, edges, iterations=1).to_pandas()


def test_pagerank_empty_node_set_typed(ray_session):
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.graph import (
        pagerank_broadcast, pagerank_int)
    nodes = ray.data.from_arrow(pa.table({"node": pa.array([], pa.int64())}))
    edges = ray.data.from_arrow(pa.table({"src": pa.array([], pa.int64()),
                                          "dst": pa.array([], pa.int64())}))
    for fn in (pagerank_broadcast, pagerank_int):
        out = fn(nodes, edges, iterations=1)
        # Dataset-level schema is the contract (Ray's to_pandas drops
        # columns entirely on empty datasets)
        assert out.schema().names == ["node", "rank"]
        assert out.count() == 0


def test_substr_dedup_crafted(ray_session):
    """Exact-substring dedup on a crafted corpus: a shared 10-token
    sentence across docs 0/2 is found and cut; a WITHIN-doc repeat is not
    a duplicate (cross-doc contract); overlapping windows merge into one
    maximal span; result is partitioning-invariant."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        dedup_substrings, duplicated_spans)
    shared = "the quick brown fox jumps over the lazy sleeping dog"  # 10 toks
    uniq = ["alpha beta gamma delta", "epsilon zeta eta theta"]
    within = "one two three four five six seven eight"               # 8 toks
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            f"{uniq[0]} {shared}",
            f"{within} padding {within}",         # same doc twice only
            f"{shared} {uniq[1]}",
            "short text",
        ], pa.string()),
    })
    for parts in (1, 5):
        ds = ray.data.from_arrow(docs).repartition(parts)
        spans = (duplicated_spans(ds, w=8).to_pandas()
                 .sort_values(["doc_id", "tok_start"])
                 .reset_index(drop=True))
        # doc 0: shared occupies tokens 4..14 (3 windows merge to one span)
        # doc 2: tokens 0..10; doc 1/3: nothing
        assert spans.values.tolist() == [[0, 4, 14, 3], [2, 0, 10, 3]]
        clean = (dedup_substrings(ds, w=8).to_pandas()
                 .sort_values("doc_id").reset_index(drop=True))
        assert clean.loc[0, "clean_text"] == uniq[0]
        assert clean.loc[0, "n_removed"] == 10
        assert clean.loc[2, "clean_text"] == uniq[1]
        assert clean.loc[1, "clean_text"] == f"{within} padding {within}"
        assert clean.loc[3, "n_removed"] == 0


def test_substr_dedup_no_duplicates_and_nulls(ray_session):
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        dedup_substrings, duplicated_spans)
    docs = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["just some plain words here", None], pa.string()),
    })
    ds = ray.data.from_arrow(docs)
    assert duplicated_spans(ds, w=8).count() == 0
    clean = (dedup_substrings(ds, w=8).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    assert clean["clean_text"].tolist() == ["just some plain words here", ""]
    assert clean["n_removed"].tolist() == [0, 0]


def test_quality_buckets_terciles(ray_session):
    """CCNet bucketing: tercile thresholds t1=round(q33), t2=round(q66);
    <= goes down-bucket; nulls land in tail; partitioning-invariant."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        quality_buckets)
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, None]
    scored = pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "mean_freq": pa.array(vals, pa.float64()),
    })
    import numpy as np
    arr = np.array([v for v in vals if v is not None])
    t1 = round(float(np.percentile(arr, 100 / 3)), 4)
    t2 = round(float(np.percentile(arr, 200 / 3)), 4)
    for parts in (1, 4):
        ds = ray.data.from_arrow(scored).repartition(parts)
        out = (quality_buckets(ds).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        want = ["tail" if v is None or v <= t1
                else "middle" if v <= t2 else "head" for v in vals]
        assert out["bucket"].tolist() == want
    # degenerate: all-null scores -> everything tail
    nulls = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "mean_freq": pa.array([None, None], pa.float64())})
    out = quality_buckets(ray.data.from_arrow(nulls)).to_pandas()
    assert out["bucket"].tolist() == ["tail", "tail"]


def test_substr_dedup_and_buckets_empty_input_typed(ray_session):
    """Code-review regression: a 0-row input must still yield the
    documented output schema (Ray never invokes map_batches UDFs on empty
    blocks — the pack_sequences hazard)."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.lm_score import (
        quality_buckets)
    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        dedup_substrings, duplicated_spans)
    empty_docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    out = duplicated_spans(empty_docs, w=8)
    assert out.schema().names == ["doc_id", "tok_start", "tok_end",
                                  "n_dup_grams"]
    assert out.count() == 0
    out = dedup_substrings(empty_docs, w=8)
    assert out.schema().names == ["doc_id", "clean_text", "n_removed"]
    assert out.count() == 0
    empty_scored = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "mean_freq": pa.array([], pa.float64()),
    }))
    out = quality_buckets(empty_scored)
    assert out.schema().names == ["doc_id", "mean_freq", "bucket"]
    assert out.count() == 0


def test_rollup_counts_matches_manual(ray_session):
    """rollup_counts == the three ROLLUP grains computed by hand; empty
    input yields SQL's single grand-total row (count 0, NULL sum)."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import rollup_counts

    t = pa.table({
        "lang": pa.array(["en", "en", "de", "de", "de"]),
        "source": pa.array(["a", "b", "a", "a", "b"]),
        "n_chars": pa.array([10, 20, 1, 2, 4], pa.int64())})
    out = (rollup_counts(ray.data.from_arrow(t))
           .to_pandas()
           .sort_values(["lang", "source"], na_position="first")
           .reset_index(drop=True))
    got = [(r.lang if r.lang == r.lang else None,
            r.source if r.source == r.source else None,
            int(r.n_docs), int(r.total_chars))
           for r in out.itertuples()]
    assert got == [(None, None, 5, 37),
                   ("de", None, 3, 7), ("de", "a", 2, 3), ("de", "b", 1, 4),
                   ("en", None, 2, 30), ("en", "a", 1, 10),
                   ("en", "b", 1, 20)]

    empty = ray.data.from_arrow(pa.table({
        "lang": pa.array([], pa.string()),
        "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64())}))
    erows = rollup_counts(empty).take_all()
    assert len(erows) == 1
    assert erows[0]["lang"] is None and erows[0]["n_docs"] == 0 \
        and erows[0]["total_chars"] is None

    # null group keys and null values: n_docs is count(*) (nulls counted),
    # total_chars is SUM (nulls skipped), null k1 is its own rolled group
    nt = pa.table({
        "lang": pa.array(["en", None, None], pa.string()),
        "source": pa.array(["a", "a", "a"], pa.string()),
        "n_chars": pa.array([10, None, 5], pa.int64())})
    rows = sorted(
        ((r["lang"], r["source"], r["n_docs"], r["total_chars"])
         for r in rollup_counts(ray.data.from_arrow(nt)).take_all()),
        key=str)
    # count(*) counts null values, SUM skips them; the null-k1 subtotal
    # and the grand total are distinct rows that happen to share NULL keys
    # (exactly what SQL ROLLUP emits)
    assert rows == sorted([("en", "a", 1, 10), ("en", None, 1, 10),
                           (None, "a", 2, 5), (None, None, 2, 5),
                           (None, None, 3, 15)], key=str)

    # ADVICE r4: a group whose values are ALL null must carry a NULL sum
    # through every grain (SQL SUM semantics), not crash on int(None)
    an = pa.table({
        "lang": pa.array(["fr", "fr", "en"], pa.string()),
        "source": pa.array(["a", "a", "b"], pa.string()),
        "n_chars": pa.array([None, None, 7], pa.int64())})
    rows = sorted(
        ((r["lang"], r["source"], r["n_docs"], r["total_chars"])
         for r in rollup_counts(ray.data.from_arrow(an)).take_all()),
        key=str)
    assert rows == sorted([("fr", "a", 2, None), ("fr", None, 2, None),
                           ("en", "b", 1, 7), ("en", None, 1, 7),
                           (None, None, 3, 7)], key=str)


def test_rollup_counts_high_cardinality_distributed(ray_session):
    """ADVICE r4 guard: rollup over a HIGH-cardinality key pair (every row
    its own (k1,k2) group) must stay correct — the coarser grains are
    derived by distributed groupbys, not a driver take_all of the finest
    grain."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import rollup_counts

    n = 5000
    t = pa.table({
        "lang": pa.array([f"k{i}" for i in range(n)], pa.string()),
        "source": pa.array([f"s{i}" for i in range(n)], pa.string()),
        "n_chars": pa.array([i for i in range(n)], pa.int64())})
    out = rollup_counts(ray.data.from_arrow(t).repartition(8))
    # n finest + n per-k1 subtotals + 1 grand total
    assert out.count() == 2 * n + 1
    df = out.to_pandas()
    grand = df[df["lang"].isna() & df["source"].isna()]
    assert len(grand) == 1
    assert int(grand["n_docs"].iloc[0]) == n
    assert int(grand["total_chars"].iloc[0]) == n * (n - 1) // 2


def test_sample_n_per_key_deterministic(ray_session):
    """sample_n_per_key: ≤n rows per group, smallest buckets win, stable
    under reshard AND under corpus growth (old picks only displaced from
    the tail)."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.sampling import (
        sample_n_per_key)
    n_docs = 2000
    t = pa.table({
        "doc_id": pa.array(range(n_docs), pa.int64()),
        "lang": pa.array([f"l{i % 3}" for i in range(n_docs)], pa.string()),
        "text": pa.array([f"body {i}" for i in range(n_docs)], pa.string()),
    })
    ds = ray.data.from_arrow(t)
    s1 = sorted((r["lang"], r["doc_id"]) for r in
                sample_n_per_key(ds, n=5).take_all())
    s2 = sorted((r["lang"], r["doc_id"]) for r in
                sample_n_per_key(ds.repartition(7), n=5).take_all())
    assert s1 == s2 and len(s1) == 15            # reshard-invariant, 5×3
    # growth: doubling the corpus never ADDS an old doc to the sample
    t2 = pa.table({
        "doc_id": pa.array(range(n_docs, 2 * n_docs), pa.int64()),
        "lang": pa.array([f"l{i % 3}" for i in range(n_docs)], pa.string()),
        "text": pa.array([f"extra {i}" for i in range(n_docs)], pa.string()),
    })
    grown = ray.data.from_arrow(pa.concat_tables([t, t2]))
    s3 = {(r["lang"], r["doc_id"]) for r in
          sample_n_per_key(grown, n=5).take_all()}
    old_picks = {x for x in s3 if x[1] < n_docs}
    assert old_picks <= set(s1)


def test_sample_n_per_key_and_ntile_match_sql(ray_session):
    """The two shipped oracles no harness query runs, against their
    operators over the sf0.01 documents: sample_n_per_key_sql and
    ntile_sql give the same rows (values and ranks/tiles)."""
    import os

    import ray.data

    from org_dharts_dia_tesseract_ray.functions.sampling import (
        sample_n_per_key, sample_n_per_key_sql)
    from org_dharts_dia_tesseract_ray.functions.stats import (
        ntile_per_key, ntile_sql)
    docs = pq.read_table(os.path.join(os.path.dirname(SF_DIR), "sf0.01",
                                      "documents.parquet"))
    con = duckdb.connect()
    con.register("documents", docs)

    def rows(records):
        return sorted(tuple(r.values()) for r in records)

    ds = ray.data.from_arrow(docs).repartition(4)
    got = rows(sample_n_per_key(ds, n=5, num_partitions=4).take_all())
    assert len(got) == 25
    assert got == rows(
        con.execute(sample_n_per_key_sql(n=5)).arrow().to_pylist())

    got = rows(ntile_per_key(
        ds.select_columns(["doc_id", "lang", "n_chars"]), key="lang",
        value_col="n_chars", id_col="doc_id", num_partitions=4).take_all())
    assert len(got) == docs.num_rows
    assert got == rows(con.execute(ntile_sql()).arrow().to_pylist())
    con.close()


def test_pivot_counts_matches_manual(ray_session):
    """pivot_counts == manual crosstab across multiple batches, unknown
    categories ignored, missing combinations zero."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import pivot_counts

    t = pa.table({
        "u": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "e": pa.array(["a", "a", "b", "b", "zz", "a"], pa.string())})
    out = (pivot_counts(ray.data.from_arrow(t).repartition(3),
                        key="u", pivot_col="e", categories=("a", "b"))
           .to_pandas().sort_values("u").reset_index(drop=True))
    got = [(int(r.u), int(r.n_a), int(r.n_b)) for r in out.itertuples()]
    assert got == [(1, 2, 1), (2, 0, 1), (3, 1, 0)]


def test_histogram_per_key_matches_manual(ray_session):
    """histogram_per_key == manual fixed-width binning across multiple
    batches (combiner merge exercised by repartition)."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.stats import (
        histogram_per_key)
    t = pa.table({
        "lang": pa.array(["en"] * 5 + ["de"] * 3),
        "n_chars": pa.array([0, 9, 10, 19, 20, 5, 5, 25], pa.int64())})
    out = (histogram_per_key(ray.data.from_arrow(t).repartition(3),
                             key="lang", value_col="n_chars", bin_width=10)
           .to_pandas().sort_values(["lang", "bin"]).reset_index(drop=True))
    got = [(r.lang, int(r.bin), int(r.n)) for r in out.itertuples()]
    assert got == [("de", 0, 2), ("de", 2, 1),
                   ("en", 0, 2), ("en", 1, 2), ("en", 2, 1)]


def test_throttle_and_transitions_null_semantics(ray_session):
    """SQL-exact null handling: null ts rows (and their successors) are
    KEPT by throttle; null successor labels drop the pair in
    transition_counts while null FROM labels group normally."""
    import ray.data

    from org_dharts_dia_tesseract_ray.functions.windows import (
        US_PER_MIN, throttle, transition_counts)
    ev = pa.table({
        "user_id": pa.array([1, 1, 1, 1], pa.int64()),
        "event_type": pa.array(["a", None, "b", "a"], pa.string()),
        "ts": pa.array([0, 10 * US_PER_MIN, None, 11 * US_PER_MIN],
                       pa.timestamp("us")),
        "event_id": pa.array([0, 1, 2, 3], pa.int64())})
    ds = ray.data.from_arrow(ev)
    # throttle partitions by (user, type): null-ts row 2 in ('b') group is
    # its group's first -> kept anyway; same-type rows 0/3 of 'a' are 11
    # min apart -> both kept with gap 10
    kept = sorted(r["event_id"] for r in
                  throttle(ds, min_gap_minutes=10,
                           num_partitions=2).take_all())
    assert kept == [0, 1, 2, 3]
    # transitions order by (ts, id) with nulls last: a@0, None@10min,
    # a@11min, b@null-ts => pairs (a,None) dropped as null TO,
    # (None,a) kept with null FROM, (a,b) kept
    got = {(r["from_type"], r["to_type"]): r["n"] for r in
           transition_counts(ds, num_partitions=2).take_all()}
    assert got == {(None, "a"): 1, ("a", "b"): 1}
    # explicit null-successor case
    ev2 = pa.table({
        "user_id": pa.array([1, 1, 1], pa.int64()),
        "event_type": pa.array(["a", None, "b"], pa.string()),
        "ts": pa.array([0, 1000, 2000], pa.timestamp("us")),
        "event_id": pa.array([0, 1, 2], pa.int64())})
    got2 = {(r["from_type"], r["to_type"]): r["n"] for r in
            transition_counts(ray.data.from_arrow(ev2),
                              num_partitions=2).take_all()}
    assert got2 == {(None, "b"): 1}     # (a, NULL) dropped, (NULL, b) kept


def test_deterministic_sample_matches_bucket_rule(ray_session):
    """r5 registry curation moved sample_10pct out of the oracle window;
    this checks deterministic_sample against its own SQL oracle, run in
    DuckDB, reshard-invariant.  A NULL text is bucketed as '' (bucket 93)
    on both sides, so percent=94 is the first to keep it; a non-ASCII text
    hashes its UTF-8 bytes on both sides."""
    import duckdb
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.sampling import (
        deterministic_sample, deterministic_sample_sql)

    docs = pa.table({
        "doc_id": pa.array(list(range(202)), pa.int64()),
        "text": pa.array([f"document body {i} " * (1 + i % 3)
                          for i in range(200)]
                         + [None, "naïve café — 東京 ✓"], pa.string())})
    con = duckdb.connect()
    con.register("documents", docs)
    for percent in (10, 93, 94, 100):
        expected_ids = sorted(r[0] for r in con.execute(
            deterministic_sample_sql(percent)).fetchall())
        assert (200 in expected_ids) == (percent > 93)   # the NULL row
        for parts in (1, 7):
            ds = ray.data.from_arrow(docs).repartition(parts)
            got = sorted(r["doc_id"] for r in
                         deterministic_sample(ds, percent=percent).take_all())
            assert got == expected_ids, (percent, parts)
    assert len(expected_ids) == 202


def test_parse_init_languages_grammar():
    """The [~]lang[+[~]lang]* init-string grammar
    (ImageAnalyzerFactory.java:85-104): positive lists load in written
    order (the tie-break priority), exclusion-only strings subtract from
    the default set, unknown names and empty results fail init."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        LANG_STOPWORDS, SCRIPT_LANGS, parse_init_languages)

    full = tuple(LANG_STOPWORDS) + SCRIPT_LANGS
    assert parse_init_languages(None) == full
    assert parse_init_languages("fr+en") == ("fr", "en")     # written order
    assert parse_init_languages("en+zh") == ("en", "zh")
    assert parse_init_languages("~de") == tuple(
        l for l in full if l != "de")
    assert parse_init_languages("en+fr+~fr") == ("en",)      # mixed form
    assert "+".join(parse_init_languages("fr+en")) == "fr+en"  # GetInit...
    for bad in ("xx", "en+", "~en+~de+~es+~fr+~zh+~ar", "en+qq"):
        with pytest.raises(ValueError):
            parse_init_languages(bad)


def test_langid_multi_restricts_candidates_and_shortcircuits(ray_session):
    """init_langs gates both the stopword profiles and the script
    short-circuits, and tie-break priority follows init order."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        langid_batch)

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "der die und das ist nicht",          # German stopwords
            "你好世界",           # CJK
            "the cat and the dog is in it",       # English
            None,
        ], pa.string())})
    base = {r["doc_id"]: r["pred_lang"]
            for r in langid_batch(t).to_pylist()}
    assert base == {1: "de", 2: "zh", 3: "en", 4: None}

    no_de_zh = {r["doc_id"]: r["pred_lang"]
                for r in langid_batch(t, init_langs="en+es+fr+ar")
                .to_pylist()}
    assert no_de_zh[1] != "de" and no_de_zh[2] != "zh"
    assert no_de_zh[2] == "und"          # CJK text, zh not loaded, no hits
    assert no_de_zh[3] == "en"
    assert no_de_zh[4] is None

    # exclusion form drops exactly the tilde'd language
    no_en = {r["doc_id"]: r["pred_lang"]
             for r in langid_batch(t, init_langs="~en").to_pylist()}
    assert no_en[1] == "de" and no_en[2] == "zh" and no_en[3] != "en"

    # tie-break follows init order: a text hitting en and fr equally
    tie = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "text": pa.array(["the est"], pa.string())})
    assert langid_batch(tie, init_langs="en+fr")[1][0].as_py() == "en"
    assert langid_batch(tie, init_langs="fr+en")[1][0].as_py() == "fr"


def test_langid_multi_matches_sql_oracle(ray_session):
    """langid_sql(init_langs=...) replicates langid_batch exactly over a
    mixed-language corpus incl. script docs and nulls (both init forms)."""
    from org_dharts_dia_tesseract_ray.functions.text_stats import (
        langid_batch, langid_sql)

    texts = ["the cat and the dog", "der die und das",
             "el la los las es una", "le les des est une",
             "你好世界", "مرحبا",
             "zzz qqq", None, "the est", "der el le the"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    # "en" and "en+zh" pin the r5-review fix: a degenerate single-profile
    # cascade (`WHEN TRUE`) must still yield NULL for NULL text
    for init in ("~de", "fr+en+zh", "en+es+fr+ar", "en", "en+zh", None):
        got = langid_batch(t, init_langs=init).sort_by("doc_id")
        con = duckdb.connect()
        con.register("documents", t)
        want = con.execute(
            langid_sql(init_langs=init) + " ORDER BY doc_id").arrow()
        con.close()
        assert got.equals(want.cast(got.schema)), init


def test_config_dump_variables():
    """PrintVariables-analogue dump: canonical rendering + typed readback
    round-trip through get_variable."""
    from org_dharts_dia_tesseract_ray.config import ExtractConfig

    cfg = ExtractConfig(char_whitelist="0123456789-.",
                        emit_word_spans=False,
                        variables=(("tessedit_zero_rejection", "T"),
                                   ("classify_bln_numeric_mode", "1")))
    d = cfg.dump_variables()
    rows = {r["name"]: (r["value"], r["source"]) for r in d.to_pylist()}
    assert rows["mode"] == ("auto", "field")
    assert rows["selector_tag"] == (None, "field")
    assert rows["char_whitelist"] == ("0123456789-.", "field")
    assert rows["emit_word_spans"] == ("0", "field")
    assert rows["max_link_density"] == ("0.5", "field")
    assert rows["block_rules"] == ("0", "field")
    assert rows["tessedit_zero_rejection"] == ("T", "variable")
    assert rows["classify_bln_numeric_mode"] == ("1", "variable")
    assert "variables" not in rows
    # order: fields (declaration order) then variables (registration order)
    assert d["name"].to_pylist()[0] == "mode"
    assert d["name"].to_pylist()[-2:] == ["tessedit_zero_rejection",
                                          "classify_bln_numeric_mode"]
    # readback agrees with the dump
    assert cfg.get_variable("classify_bln_numeric_mode", type=bool) is True


def test_extract_links_contract_edge_cases():
    """Resolution + regex-parity contract of the link extractor: absolute
    pass-through, root-relative resolution, protocol-relative/mailto/
    relative -> NULL resolved, root-relative under a non-http source ->
    NULL resolved, unterminated href dropped (RE2 parity), null payload
    -> no rows, invalid utf-8 degrades instead of raising.  The oracles'
    ``resolved_sql`` agrees with the operator on every edge row."""
    from org_dharts_dia_tesseract_ray.functions.links import (
        extract_links_batch, resolved_sql)

    html = (b'<a href="https://other.example/x">a</a>'
            b'<a href="/rel">b</a>'
            b'<a href="//cdn.example/y">c</a>'
            b'<a href="mailto:x@example.com">d</a>'
            b'<a href="relative/path">e</a>'
            b'<a href="unterminated')
    t = pa.table({
        "url": pa.array(["http://src.example:8080/page", "http://n.example/",
                         "http://b.example/", "ftp://x/y"], pa.string()),
        "html": pa.array([html, None, b"<p>\xff\xfe no links</p>",
                          b'<a href="/rel">f</a>'], pa.binary())})
    got = extract_links_batch(t).to_pylist()
    assert [r["href"] for r in got] == [
        "https://other.example/x", "/rel", "//cdn.example/y",
        "mailto:x@example.com", "relative/path", "/rel"]
    assert [r["pos"] for r in got] == [0, 1, 2, 3, 4, 0]
    assert [r["resolved"] for r in got] == [
        "https://other.example/x", "http://src.example:8080/rel",
        None, None, None, None]
    assert [r["src"] for r in got] == \
        ["http://src.example:8080/page"] * 5 + ["ftp://x/y"]
    con = duckdb.connect()
    con.register("edges", pa.Table.from_pylist(got))
    want = con.execute(f"SELECT {resolved_sql('src', 'href')} FROM edges"
                       ).fetchall()
    assert [r[0] for r in want] == [r["resolved"] for r in got]


def test_extract_links_matches_sql_oracle_and_meta(ray_session):
    """Operator vs the independent DuckDB regexp replica on the wrapped
    corpus, plus the meta head-projection — both value-identical."""
    from org_dharts_dia_tesseract_ray.functions.links import (
        extract_links_batch, extract_meta_batch)
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        _TEMPLATE_META, links_sql, meta_sql, wrap_documents_batch)

    docs = pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array([f"body text {i} with 'quotes' and <tags>"
                          for i in range(40)], pa.string()),
        "lang": pa.array(["en"] * 40, pa.string())})
    con = duckdb.connect()
    con.register("documents", docs)

    got = extract_links_batch(wrap_documents_batch(docs)).sort_by(
        [("src", "ascending"), ("pos", "ascending")])
    want = con.execute(links_sql() + " ORDER BY src, pos").arrow()
    assert got.equals(want.cast(got.schema))

    gotm = extract_meta_batch(
        wrap_documents_batch(docs, _TEMPLATE_META)).sort_by("url")
    wantm = con.execute(meta_sql() + " ORDER BY url").arrow()
    con.close()
    assert gotm.equals(wantm.cast(gotm.schema))


def test_grouped_arrow_aggregate_matches_native(ray_session):
    """The hash-partition + Arrow group_by reduce is value-identical to
    Ray's native aggregate on every supported fn, incl. composite keys."""
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Max, Min, Sum
    from org_dharts_dia_tesseract_ray.util import grouped_arrow_aggregate

    rng = np.random.RandomState(7)
    t = pa.table({
        "k": pa.array(rng.randint(0, 997, 20_000), pa.int64()),
        "k2": pa.array([f"g{i % 13}" for i in range(20_000)], pa.string()),
        "v": pa.array(rng.randint(-5_000, 5_000, 20_000), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(8)

    got = grouped_arrow_aggregate(
        ds, "k", [("v", "sum", "s"), ("v", "min", "lo"),
                  ("v", "max", "hi"), ("v", "count", "n")],
        num_partitions=16).to_pandas().sort_values("k").reset_index(drop=True)
    want = (ds.groupby("k")
            .aggregate(Sum("v", alias_name="s"), Min("v", alias_name="lo"),
                       Max("v", alias_name="hi"))
            .to_pandas().sort_values("k").reset_index(drop=True))
    assert (got["k"] == want["k"]).all()
    for c in ("s", "lo", "hi"):
        assert (got[c].astype("int64") == want[c].astype("int64")).all(), c
    counts = t.group_by("k").aggregate([("v", "count")]).to_pandas()
    counts = counts.sort_values("k").reset_index(drop=True)
    assert (got["n"].astype("int64")
            == counts["v_count"].astype("int64")).all()

    # composite key: co-hashed, globally exact per (k2, bucket)
    got2 = grouped_arrow_aggregate(
        ds.map_batches(lambda b: b.append_column(
            "kb", pc.bit_wise_and(b["k"], 7)), batch_format="pyarrow"),
        ["k2", "kb"], [("v", "sum", "s")],
        num_partitions=16).to_pandas()
    want2 = (t.append_column("kb", pc.bit_wise_and(t["k"], 7))
             .group_by(["k2", "kb"]).aggregate([("v", "sum")]).to_pandas())
    key = lambda df: df.sort_values(["k2", "kb"]).reset_index(drop=True)
    got2, want2 = key(got2), key(want2)
    assert (got2["s"].astype("int64")
            == want2["v_sum"].astype("int64")).all()


def test_bm25_topk_matches_reference(ray_session):
    """Operator vs a direct Python BM25 over a corpus with repeated
    terms, score ties, null text and a query term absent from the
    corpus; rank tiebreak (score desc, id asc) pinned."""
    import math

    import ray.data
    from org_dharts_dia_tesseract_ray.functions.retrieval import bm25_topk

    texts = ["data spark data", "spark table", "data data data table",
             "sort sort merge", None, "spark data table", "zzz qqq",
             "data spark", "data spark"]          # two identical docs: tie
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    queries = ["data spark", "table nosuchterm"]
    k1, b = 1.2, 0.75

    docs = [(i, x.split()) for i, x in enumerate(texts) if x is not None]
    n = len(docs)
    avg = sum(len(ws) for _, ws in docs) / n
    def df(term): return sum(term in ws for _, ws in docs)
    def score(ws, q):
        s = 0.0
        for term in sorted(set(q.split())):
            d = df(term)
            tf = ws.count(term)
            if tf == 0:
                continue
            s += (math.log(1 + (n - d + 0.5) / (d + 0.5)) * tf * (k1 + 1)
                  / (tf + k1 * (1 - b + b * len(ws) / avg)))
        return math.floor(s * 10000 + 0.5) / 10000
    want = {}
    for qi, q in enumerate(queries):
        rows = sorted(((score(ws, q), i) for i, ws in docs
                       if score(ws, q) > 0), key=lambda r: (-r[0], r[1]))
        want[qi] = [(i, s, r + 1) for r, (s, i) in enumerate(rows[:3])]

    got = bm25_topk(ray.data.from_arrow(t).repartition(3), queries,
                    k=3, k1=k1, b=b).to_pandas()
    for qi in want:
        sub = got[got["query_id"] == qi].sort_values("rank")
        assert [(int(r.doc_id), float(r.score), int(r.rank))
                for r in sub.itertuples()] == want[qi], qi
    # the tie pair (docs 7 and 8, identical text) breaks on doc id
    q0 = want[0]
    tie_ids = [i for i, s, _ in q0 if s == q0[0][1]]
    assert tie_ids == sorted(tie_ids)


def test_substr_dedup_repeated_id_raises(ray_session):
    """Both substring operators meet rows by id after their shuffles, so
    ``id_col`` must be unique: dedup_substrings, where every text row of
    an id meets, raises instead of cutting one row's spans out of the
    other; only the "join" plan is accepted."""
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        dedup_substrings, duplicated_spans)

    dup8 = "a b c d e f g h"              # the shared 8-gram
    t = pa.table({
        "doc_id": pa.array([1, 1, 2], pa.int64()),
        "text": pa.array([f"x0 x1 x2 x3 x4 x5 {dup8}", f"{dup8} y0 y1",
                          f"{dup8} z0"], pa.string())})
    for parts in (1, 3):
        ds = ray.data.from_arrow(t).repartition(parts)
        with pytest.raises(Exception, match="doc_id is not unique"):
            dedup_substrings(ds, w=8, num_partitions=4).materialize()
    for op in (dedup_substrings, duplicated_spans):
        with pytest.raises(ValueError, match="unknown strategy"):
            op(ray.data.from_arrow(t), strategy="broadcast")


def test_keyed_coshuffle_guards_and_merge(ray_session):
    """keyed_coshuffle: key-type and shared-non-key-type mismatches are
    rejected up front; a same-type shared column passes and each side's
    rows arrive intact in the per-partition merge."""
    import ray.data
    from org_dharts_dia_tesseract_ray.util import keyed_coshuffle

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "v": pa.array([10, 20, 30], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 1, 3], pa.int64()),
        "v": pa.array([7, 8, 9], pa.int64())}))
    ls = pa.schema([("k", pa.int64()), ("v", pa.int64())])

    with pytest.raises(TypeError):
        keyed_coshuffle(left, right, "k", ls,
                        pa.schema([("k", pa.int32()), ("v", pa.int64())]),
                        lambda a, b: a)
    with pytest.raises(TypeError):
        keyed_coshuffle(left, right, "k", ls,
                        pa.schema([("k", pa.int64()), ("v", pa.float64())]),
                        lambda a, b: a)

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lsum = {r["k"]: r["v"] for r in lt.to_pylist()}
        out = [(k, lsum[k] + sum(r["v"] for r in rt.to_pylist()
                                 if r["k"] == k)) for k in sorted(lsum)]
        return pa.table({"k": pa.array([k for k, _ in out], pa.int64()),
                         "tot": pa.array([v for _, v in out], pa.int64())})

    got = sorted((r["k"], r["tot"]) for r in keyed_coshuffle(
        left, right, "k", ls, ls, merge, num_partitions=4).take_all())
    assert got == [(1, 25), (2, 20), (3, 39)]
