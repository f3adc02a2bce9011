"""The hash-exchange primitive (``util.hash_exchange``) and its users:
typed results on empty, one-sided and single-key inputs, and a pinned
exchange count per flagship operator so that no change can add a barrier
without failing here."""

import numpy as np
import pyarrow as pa
import pytest

I64 = pa.int64()


def _exchanges(ds) -> int:
    """All-to-all exchanges an executed dataset ran, read from Ray's
    statistics summary: an exchange shows as a ``<Kind>Map`` +
    ``<Kind>Reduce`` sub-operator pair, so the map halves are counted
    (as of Ray 2.49; the summary objects are private accessors)."""
    todo, n = [ds.materialize()._get_stats_summary()], 0
    while todo:
        summary = todo.pop()
        n += sum(op.is_sub_operator and op.operator_name.endswith("Map")
                 for op in summary.operators_stats)
        todo.extend(summary.parents)
    return n


def _docs():
    import ray.data
    dup = "a b c d e f g h i j"
    texts = [f"{dup} one\nshared line\nx1", f"{dup} two\nshared line",
             "solo words only here\nx1", "shared line"]
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), I64),
        "text": pa.array(texts, pa.string())})).repartition(2)


def _pages():
    import ray.data
    return ray.data.from_arrow(pa.table({
        "url": ["a", "a", "b"],
        "warc_ts": pa.array([1, 2, 3], pa.timestamp("us", tz="UTC")),
        "html": pa.array([b"x", b"y", b"z"], pa.binary()),
        "text": pa.array([None] * 3, pa.string()),
        "lang": pa.array(["en"] * 3, pa.string())})).repartition(2)


def _asof():
    import ray.data
    from org_dharts_dia_tesseract_ray.functions.joins import asof_join
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 1, 2], I64), "ts": pa.array([5, 9, 5], I64)}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], I64), "rts": pa.array([4, 6], I64),
        "v": pa.array([10, 20], I64)}))
    return asof_join(left, right, key="k", left_ts="ts", right_ts="rts",
                     value_col="v", num_partitions=4)


def _build(name):
    from org_dharts_dia_tesseract_ray.functions import (dedup, substrdedup,
                                                       unitdedup, vocab)
    from org_dharts_dia_tesseract_ray.stages.dedup import dedup_pages
    return {
        "dedup_pages": lambda: dedup_pages(_pages(), num_partitions=4),
        "exact_dedup": lambda: dedup.exact_dedup(_docs()),
        "unit_dedup": lambda: unitdedup.unit_dedup(_docs(),
                                                   num_partitions=4),
        "doc_frequency": lambda: vocab.doc_frequency(_docs()),
        "dedup_substrings": lambda: substrdedup.dedup_substrings(
            _docs(), w=4, num_partitions=4),
        "duplicated_spans": lambda: substrdedup.duplicated_spans(
            _docs(), w=4, num_partitions=4),
        "simhash_pairs": lambda: dedup.simhash_pairs(_docs(),
                                                     num_partitions=4),
        "asof_join": _asof,
    }[name]()


#: exchanges per operator — pinned; a migration or rewrite that adds a
#: barrier fails here
EXCHANGES = {"dedup_pages": 1, "exact_dedup": 1, "unit_dedup": 2,
             "doc_frequency": 1, "dedup_substrings": 2,
             "duplicated_spans": 2, "simhash_pairs": 2, "asof_join": 1}


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_exchange_count_pinned(ray_session, name):
    assert _exchanges(_build(name)) == EXCHANGES[name]


# ---------------------------------------------------------------------------
# typed results: empty input, one empty side, one key over many partitions


def _typed(ds, schema: pa.Schema) -> list:
    """Rows of ``ds`` after checking that its schema and EVERY block's
    schema equal ``schema`` (names and types): no zero-column block from
    an empty shuffle partition and no ``None`` schema on empty input."""
    def sig(s):
        return list(zip(s.names, [str(t) for t in s.types]))
    assert ds.schema() is not None
    assert sig(ds.schema()) == sig(schema)
    rows = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        assert sig(b.schema) == sig(schema)
        rows += b.to_pylist()
    return rows


KV = pa.schema([("k", I64), ("v", I64)])
KW = pa.schema([("k", I64), ("w", pa.string())])


def _ds(schema, **cols):
    import ray.data
    return ray.data.from_arrow(pa.table(cols, schema=schema)
                               if cols else schema.empty_table())


def test_grouped_arrow_aggregate_typed(ray_session):
    from org_dharts_dia_tesseract_ray.util import grouped_arrow_aggregate
    out = pa.schema([("k", I64), ("s", I64), ("n", I64)])
    aggs = [("v", "sum", "s"), ("v", "count", "n")]
    assert _typed(grouped_arrow_aggregate(_ds(KV), "k", aggs), out) == []
    one_key = _ds(KV, k=[7] * 5, v=[1, 2, 3, 4, 5])
    assert _typed(grouped_arrow_aggregate(one_key, "k", aggs,
                                          num_partitions=8), out) \
        == [{"k": 7, "s": 15, "n": 5}]
    # the (dataset, schema) form needs no execution to learn the schema
    assert _typed(grouped_arrow_aggregate((_ds(KV), KV), "k", aggs),
                  out) == []


def test_keyed_coshuffle_typed(ray_session):
    from org_dharts_dia_tesseract_ray.util import keyed_coshuffle

    def merge(lt, rt):
        return lt.append_column(
            "n_right", pa.array(np.full(lt.num_rows, rt.num_rows), I64))

    out = pa.schema([("k", I64), ("v", I64), ("n_right", I64)])
    left = _ds(KV, k=[7, 7], v=[1, 2])
    right = _ds(KW, k=[7], w=["x"])
    for lds, rds, want in ((_ds(KV), _ds(KW), []),
                           (left, _ds(KW), [0, 0]),
                           (_ds(KV), right, []),
                           (left, right, [1, 1])):
        got = _typed(keyed_coshuffle(lds, rds, "k", KV, KW, merge,
                                     num_partitions=8), out)
        assert [r["n_right"] for r in got] == want


@pytest.mark.parametrize("join_type", [
    "inner", "left outer", "right outer", "left semi", "left anti",
    "full outer"])
def test_schema_pinned_join_typed(ray_session, join_type):
    from org_dharts_dia_tesseract_ray.util import schema_pinned_join
    out = KV if join_type in ("left semi", "left anti") else \
        pa.schema([("k", I64), ("v", I64), ("w", pa.string())])
    left = _ds(KV, k=[7, 7], v=[1, 2])
    right = _ds(KW, k=[7], w=["x"])
    keeps_left = join_type in ("left outer", "left anti", "full outer")
    keeps_right = join_type in ("right outer", "full outer")
    for lds, rds, n in ((_ds(KV), _ds(KW), 0),
                        (left, _ds(KW), 2 if keeps_left else 0),
                        (_ds(KV), right, 1 if keeps_right else 0),
                        (left, right, 0 if join_type == "left anti" else 2)):
        got = _typed(schema_pinned_join(
            lds, rds, on=("k",), num_partitions=8, left_schema=KV,
            right_schema=KW, join_type=join_type), out)
        assert len(got) == n, (join_type, got)


def test_exact_dedup_typed(ray_session):
    from org_dharts_dia_tesseract_ray.functions.dedup import exact_dedup
    docs = pa.schema([("doc_id", I64), ("text", pa.string())])
    out = pa.schema([("fp", pa.string()), ("doc_id", I64)])
    assert _typed(exact_dedup(_ds(docs)), out) == []
    same = _ds(docs, doc_id=[3, 1, 2], text=["t", "t", "t"])
    assert [r["doc_id"] for r in _typed(exact_dedup(same), out)] == [1]


def test_substr_dedup_typed(ray_session):
    from org_dharts_dia_tesseract_ray.functions.substrdedup import (
        dedup_substrings, duplicated_spans)
    docs = pa.schema([("doc_id", I64), ("text", pa.string())])
    spans = pa.schema([("doc_id", I64), ("tok_start", I64),
                       ("tok_end", I64), ("n_dup_grams", I64)])
    clean = pa.schema([("doc_id", I64), ("clean_text", pa.string()),
                       ("n_removed", I64)])
    kw = dict(w=4, num_partitions=8)
    assert _typed(duplicated_spans(_ds(docs), **kw), spans) == []
    assert _typed(dedup_substrings(_ds(docs), **kw), clean) == []
    shared = _ds(docs, doc_id=[1, 2], text=["a b c d x", "y a b c d"])
    assert sorted(tuple(r.values()) for r in _typed(
        duplicated_spans(shared, **kw), spans)) == [(1, 0, 4, 1),
                                                     (2, 1, 5, 1)]
    assert sorted((r["doc_id"], r["clean_text"]) for r in _typed(
        dedup_substrings(shared, **kw), clean)) == [(1, "x"), (2, "y")]


def test_running_total_per_key_typed(ray_session):
    from org_dharts_dia_tesseract_ray.functions.stats import (
        running_total_per_key)
    ev = pa.schema([("user", pa.string()), ("ts", I64), ("id", I64),
                    ("c", I64)])
    out = ev.append(pa.field("running_total", I64))
    kw = dict(key="user", order_col="ts", id_col="id", value_col="c",
              num_partitions=8)
    assert _typed(running_total_per_key(_ds(ev), **kw), out) == []
    one = _ds(ev, user=["u"] * 3, ts=[3, 1, 2], id=[0, 1, 2], c=[1, 2, 3])
    got = _typed(running_total_per_key(one, **kw), out)
    assert sorted(r["running_total"] for r in got) == [2, 5, 6]
