"""The harness registry: one row per query, declared next to its oracle.

Each family module (``extract``, ``dedup``, ``text``, ``relational``,
``sampling``, ``multimodal``) holds a ``ROWS`` list of :class:`Query` rows.
A row names the query once, points at the function that builds its result
from an sf_dir, and carries its DuckDB oracle: SQL over the test-data
tables, or :data:`GOLDEN` for a pinned serial run stored as
``fixtures/op_goldens/<name>.parquet`` (``scripts/make_op_goldens.py``).
``__ray_entry__`` derives ``queries()`` and ``oracle_sql()`` from the rows.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any, NamedTuple

from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
    read_testdata as read)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: oracle of a row checked against the golden parquet of its own name
GOLDEN = object()


def mapped(ds, fn):
    """``ds.map_batches(fn)`` over zero-copy pyarrow batches."""
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


class Query(NamedTuple):
    name: str
    query: Callable[[str], Any]
    oracle: Any

    def sql(self) -> str:
        if self.oracle is GOLDEN:
            return (f"SELECT * FROM read_parquet('{REPO}/fixtures/op_goldens/"
                    f"{self.name}.parquet')")
        return self.oracle


__all__ = ["GOLDEN", "Query", "REPO", "mapped", "read"]
