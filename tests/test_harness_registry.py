"""The harness registry (``harness/*.py`` rows behind ``__ray_entry__``):
every row has an oracle, every Dataset operator in ``functions/`` is
reached, each name is written once, and the driver's window holds the
stalest verdicts; plus ``bench.py``'s final line fits the driver's tail."""

import ast
import json
import pathlib
import re
import shutil

import pytest

import __ray_entry__ as entry

REPO = pathlib.Path(__file__).resolve().parent.parent
HARNESS = sorted((REPO / "harness").glob("*.py"))
WINDOW = 50


def _rounds(repo: pathlib.Path) -> dict:
    last = {}
    for f in repo.glob("CORRECTNESS_r*.json"):
        r = int(f.stem[len("CORRECTNESS_r"):])
        for name in json.loads(f.read_text()):
            last[name] = max(last.get(name, 0), r)
    return last


def test_every_row_has_an_oracle():
    rows = entry.rows()
    names = [r.name for r in rows]
    assert len(names) == len(set(names)) == 105
    oracles = entry.oracle_sql()
    assert list(oracles) == names
    assert sorted(entry.queries()) == sorted(names)
    for row in rows:
        assert callable(row.query), row.name
        sql = oracles[row.name]
        assert isinstance(sql, str) and "SELECT" in sql.upper(), row.name
        for path in re.findall(r"read_parquet\('([^']+)'\)", sql):
            assert pathlib.Path(path).is_file(), (row.name, path)


def test_each_query_name_is_one_string_literal():
    names = {r.name for r in entry.rows()}
    count = dict.fromkeys(names, 0)
    for f in [REPO / "__ray_entry__.py", *HARNESS]:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Constant) and node.value in count:
                count[node.value] += 1
    assert {n: c for n, c in count.items() if c != 1} == {}


def _dataset_operators() -> dict:
    """Public functions of ``functions/*.py`` whose first parameter is the
    input Dataset ``ds`` → the names their bodies use."""
    ops = {}
    for f in sorted((REPO / "org_dharts_dia_tesseract_ray" / "functions")
                    .glob("*.py")):
        for node in ast.parse(f.read_text()).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_") and node.args.args
                    and node.args.args[0].arg == "ds"):
                ops[f"{f.stem}.{node.name}"] = {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))}
    return ops


def test_every_dataset_operator_is_reached():
    """Each operator is named in a harness module or a test file, or is
    called by an operator that is (``dedup.apply_minhash`` through
    ``minhash_lsh_pairs``)."""
    ops = _dataset_operators()
    assert len(ops) >= 75
    text = "\n".join(f.read_text() for f in
                     [*HARNESS, *sorted((REPO / "tests").glob("*.py"))]
                     if f.name != pathlib.Path(__file__).name)
    reached = {op for op in ops
               if re.search(rf"\b{op.split('.')[1]}\b", text)}
    grew = True
    while grew:
        more = {op for op in ops if op not in reached and any(
            op.split(".")[1] in ops[r] for r in reached)}
        reached |= more
        grew = bool(more)
    assert sorted(set(ops) - reached) == []


def test_window_is_the_stalest_first():
    """``queries()`` orders rows by their last verdict round in
    ``CORRECTNESS_r*.json`` (0 for none), table order within a round."""
    last = _rounds(REPO)
    table = [r.name for r in entry.rows()]
    order = list(entry.queries())
    assert order == sorted(table, key=lambda n: last.get(n, 0))
    window = order[:WINDOW]
    edge = last.get(window[-1], 0)
    assert {n for n in table if last.get(n, 0) < edge} <= set(window)
    assert all(last.get(n, 0) >= edge for n in order[WINDOW:])


def test_window_over_rounds_one_to_five(tmp_path, monkeypatch):
    """Against the r01-r05 verdicts: the never-checked query leads and the
    13 queries last checked in r2 all sit in the window, ahead of r3."""
    for r in range(1, 6):
        shutil.copy(REPO / f"CORRECTNESS_r0{r}.json", tmp_path)
    monkeypatch.setattr(entry, "_REPO", str(tmp_path))
    window = list(entry.queries())[:WINDOW]
    r2 = {"approx_distinct_tokens", "neardup_cosine",
          "neardup_cosine_bucketed", "ann_brute_topk", "events_windowed",
          "embeddings_pca", "media_frame_sample", "ann_ivf_topk",
          "neardup_jaccard_brute", "events_sliding_window",
          "lineitem_sessions", "skew_topk", "doc_stats_by_lang"}
    assert window[0] == "neardup_keep_one"
    assert set(window[1:14]) == r2
    last = _rounds(tmp_path)
    assert [last[n] for n in window[14:]] == sorted(
        last[n] for n in window[14:])
    assert max(last.get(n, 0) for n in window) == 4


def test_no_verdict_files_keep_table_order(tmp_path, monkeypatch):
    monkeypatch.setattr(entry, "_REPO", str(tmp_path))
    table = [r.name for r in entry.rows()]
    assert list(entry.queries()) == table
    (tmp_path / "CORRECTNESS_r07.json").write_text(
        json.dumps({table[0]: {}, table[5]: {}}))
    (tmp_path / "CORRECTNESS_r6.json").write_text(
        json.dumps({table[1]: {}, table[5]: {}}))
    rest = [n for n in table if n not in (table[0], table[1], table[5])]
    assert list(entry.queries()) == rest + [table[1], table[0], table[5]]


@pytest.mark.parametrize("failing", [0, 105])
def test_bench_final_line_fits_the_driver_tail(failing):
    import bench
    names = [r.name for r in entry.rows()]
    suite = {n: round(0.25 + 0.37 * i, 3) for i, n in enumerate(names)}
    for n in names[:failing]:
        suite[n] = {"sec": 12.5, "ok": False,
                    "err": "RuntimeError: " + "x" * 300}
    headline = {"wall_sec": 61.234, "docs": 300000, "mb_html": 1234.56,
                "docs_per_sec": 4899.1, "mb_per_sec": 20.16,
                "total_blocks": 600000, "eff_cores_before": 3.9,
                "eff_cores_after": 3.8}
    record = {"metric": "extract_throughput_docs_per_sec",
              "value": headline["docs_per_sec"], "unit": "docs/s",
              "queries": {"headline_extract": headline,
                          "realistic_extract": dict(headline)},
              "total_wall_sec": 2345.678, "sf": "/root/testdata/sf0.1",
              "num_cpus": 4, "effective_cores": 3.9, "replicate": 60}
    detail = "bench_results/bench-20260101T000000Z.json"
    line = bench.summary_line(record, suite, detail)
    assert len(line) <= bench.MAX_LINE_CHARS
    parsed = json.loads(line)
    assert parsed["detail"] == detail
    assert parsed["queries"] == record["queries"]
    s = parsed["suite"]
    assert (s["n"], s["ok"]) == (105, 105 - failing)
    if failing:
        # as many failed names as fit, in suite order; the rest are in
        # the detail file
        assert s["failed"] and s["failed"] == names[:len(s["failed"])]
    else:
        assert s["failed"] == []
        assert list(s["slowest"]) == names[::-1][:bench.N_SLOWEST]
        assert s["sec"] == round(sum(suite.values()), 3)
