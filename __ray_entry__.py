"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing here
(or in the library) calls ``ray.init``/``ray.shutdown``.

``queries()`` and ``oracle_sql()`` are derived from one table: the ``ROWS``
of the family modules in :mod:`harness`, each row a query name, the
function that runs it over an sf_dir, and its DuckDB oracle.  The
extraction pipeline itself is SQL-checked through the deterministic
documents→pages wrap
(:mod:`org_dharts_dia_tesseract_ray.pipelines.docs_pipeline`), making the
byte-identical-text gate part of the harness, not just pytest.
"""

from __future__ import annotations

import glob
import json
import os
import re
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)
_prev_pp = os.environ.get("PYTHONPATH")
# no trailing empty entry: "repo:" would put each WORKER's cwd on sys.path
os.environ["PYTHONPATH"] = (_REPO if not _prev_pp
                            else _REPO + os.pathsep + _prev_pp)

# the near-dup parameters scripts/make_op_goldens.py pins its goldens with
from harness.dedup import (  # noqa: E402,F401
    MINHASH_THRESHOLD, SIMHASH_MAX_HAMMING)


def _register_by_value():
    """Ship the package and the harness by value so Ray workers import
    them regardless of the driver's cwd (the driver may import this module
    from anywhere, and workers spawned by a raylet that never saw the repo
    on PYTHONPATH cannot import it by reference).

    ``register_pickle_by_value`` is NOT recursive — registering only the
    top package still lets a worker-side ``from ..util import …`` die with
    ModuleNotFoundError (measured: driver run from /tmp).  So the whole
    module tree is imported eagerly and every submodule registered.

    Honest limit: by-value shipping re-EXECUTES module code in the worker,
    so a deferred ``from ..x import y`` inside a UDF body still performs a
    real import there.  Full cwd-independence therefore needs the repo on
    the worker's import path — i.e. the driver process runs with
    cwd=/root/repo (as the correctness driver does) or exports PYTHONPATH
    before ``ray.init`` (as bench.py does).  This registration remains the
    best-effort layer for closure-referenced kernels."""
    try:
        import importlib
        import pkgutil

        from ray import cloudpickle as rcp

        import harness
        import org_dharts_dia_tesseract_ray
        for pkg in (org_dharts_dia_tesseract_ray, harness):
            rcp.register_pickle_by_value(pkg)   # top package first, always
            # onerror=ignore: walk_packages RE-RAISES non-ImportError from a
            # subpackage __init__ otherwise, which would abort registration
            for info in pkgutil.walk_packages(pkg.__path__,
                                              pkg.__name__ + ".",
                                              onerror=lambda _n: None):
                try:
                    rcp.register_pickle_by_value(
                        importlib.import_module(info.name))
                except Exception:
                    pass
            for name, mod in list(sys.modules.items()):
                if mod is not None and name.startswith(pkg.__name__ + "."):
                    try:
                        rcp.register_pickle_by_value(mod)
                    except Exception:
                        pass
    except Exception:
        pass


def entry() -> Any:
    """Flagship: sf0.001 documents wrapped as web pages → full extraction
    pipeline (sniff → skew-routed task-pool extract) → extracted table."""
    _register_by_value()
    from org_dharts_dia_tesseract_ray.pipelines.docs_pipeline import (
        roundtrip_extract)
    from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
        extracted_view)
    combined = roundtrip_extract("/root/testdata/sf0.001")
    return extracted_view(combined)


def rows() -> list:
    """Every harness row (``harness.Query``), family by family."""
    from harness import (dedup, extract, multimodal, relational, sampling,
                         text)
    return [row for family in (extract, dedup, text, relational, sampling,
                               multimodal)
            for row in family.ROWS]


def last_verdicts() -> dict[str, int]:
    """Query name → the latest round ``r`` whose ``CORRECTNESS_r<r>.json``
    in the repo root holds a driver verdict for it."""
    last: dict[str, int] = {}
    for path in glob.glob(os.path.join(_REPO, "CORRECTNESS_r*.json")):
        m = re.fullmatch(r"CORRECTNESS_r(\d+)\.json", os.path.basename(path))
        if m:
            with open(path) as f:
                for name in json.load(f):
                    last[name] = max(last.get(name, 0), int(m.group(1)))
    return last


def queries() -> dict[str, Callable[[str], Any]]:
    """Checked by the driver in dict order, and a budget-limited run may
    not reach the tail, so the stalest evidence goes first: rows sorted by
    their last verdict round (0 for none), table order within a round."""
    _register_by_value()
    last = last_verdicts()
    return {row.name: row.query
            for row in sorted(rows(), key=lambda r: last.get(r.name, 0))}


def oracle_sql() -> dict[str, str]:
    return {row.name: row.sql() for row in rows()}
