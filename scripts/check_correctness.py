"""Local emulation of the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` entry at the given sf_dir, converts to
pandas, and for each key with an ``oracle_sql()`` entry compares row count,
column names, and order-insensitive values against DuckDB over the same
parquet views.  Usage::

    python scripts/check_correctness.py [sf_dir]
"""

from __future__ import annotations

import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# Ray workers import the package from disk: they must find it whatever
# directory this script is run from
os.environ["PYTHONPATH"] = REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa
    try:
        import ray.data
        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    assert isinstance(res, pd.DataFrame)
    return res


def canon(df):
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(by=list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def main(sf_dir: str, only: list[str] | None = None) -> int:
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("CHECK_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod

    con = duckdb.connect()
    for t in TABLES:
        p = f"{sf_dir}/{t}.parquet"
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    if only:
        unknown = sorted(set(only) - set(qs))
        if unknown:
            # a typo'd name must FAIL, not silently check 0 queries
            print(f"ERROR: unknown query name(s): {unknown}")
            return 1
        qs = {k: v for k, v in qs.items() if k in only}
    n_fail = 0
    for name, fn in qs.items():
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(mine)} (rows-only) [{dt:.1f}s]")
            continue
        if "op_goldens" in oracles[name] and "sf0.01" not in sf_dir:
            # golden-parquet oracles are pinned serial runs over sf0.01 —
            # at any other scale the comparison is meaningless by
            # construction (the engine result is still executed above)
            print(f"ok   {name}: rows={len(mine)} (golden pinned at "
                  f"sf0.01 — value check skipped at this sf) [{dt:.1f}s]")
            continue
        want = canon(con.sql(oracles[name]).df())
        status = []
        if len(mine) != len(want):
            status.append(f"rowcount {len(mine)} != {len(want)}")
        if list(mine.columns) != list(want.columns):
            status.append(f"columns {list(mine.columns)} != {list(want.columns)}")
        if not status:
            # the driver's value-hash is dtype-sensitive: int64 12 vs
            # float64/decimal 12.0 hash differently even when values
            # compare equal — flag numeric-kind mismatches explicitly
            # (this is what masked the r03 HUGEINT window-sum red rows)
            for c in mine.columns:
                mk = getattr(mine[c].dtype, "kind", "O")
                wk = getattr(want[c].dtype, "kind", "O")
                grp = lambda k: "int" if k in "iu" else (
                    "float" if k == "f" else "other")
                if grp(mk) != grp(wk):
                    status.append(
                        f"dtype kind mismatch on {c}: "
                        f"engine {mine[c].dtype} vs oracle {want[c].dtype}")
        if not status:
            try:
                import pandas.testing as pdt
                pdt.assert_frame_equal(mine, want, check_dtype=False,
                                       check_exact=True)
            except AssertionError as e:
                status.append(f"values differ: {str(e)[:300]}")
        if status:
            print(f"FAIL {name}: {'; '.join(status)}")
            n_fail += 1
        else:
            print(f"ok   {name}: rows={len(mine)} MATCH [{dt:.1f}s]")
    print(f"\n{len(qs) - n_fail}/{len(qs)} queries ok")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    rc = main(sf, only=sys.argv[2:] or None)
    import ray
    ray.shutdown()
    sys.exit(rc)
