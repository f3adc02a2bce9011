"""Deterministic inputs for every workload, made from ``--seed`` alone.

Pages come from ``sources.gen_corpus.gen_rows``.  Rather than take its
first N rows, which leaves the family mix (and with it the cost per
document) to chance, the pages are drawn to a fixed per-family quota: a
different seed changes every byte of content but not how much work of each
kind a run does.  That keeps docs/s comparable across seeds.
"""

from __future__ import annotations

import random

import pyarrow as pa

from org_dharts_dia_tesseract_ray.pipelines.extract_pipeline import (
    OVERSIZED_BYTES)
from org_dharts_dia_tesseract_ray.sources import gen_corpus
from org_dharts_dia_tesseract_ray.sources.gen_corpus import gen_rows

#: documents per family in one "unit" of 105 pages: the generator's own
#: steady-state family weights (the crawl's tail: oversized, broken and PDF
#: pages are rare; PDFs are 4 in 105)
PAGE_MIX = dict(gen_corpus._WEIGHTS)


def family(url: str) -> str:
    return url.split("//", 1)[1].split(".", 1)[0]


def pages(seed: int, units: int) -> list[dict]:
    """``units × PAGE_MIX`` pages in generation order; ``dup_urls`` rows
    come in same-url pairs (two captures an hour apart)."""
    quota = {f: w * units for f, w in PAGE_MIX.items()}
    out: list[dict] = []
    pending = None
    for row in gen_rows(1 << 40, seed=seed):
        fam = family(row["url"])
        if fam == "dup_urls":
            # gen_rows yields the two captures of one url back to back
            if pending is None:
                pending = row
                continue
            pair, pending = [pending, row], None
            if quota[fam] >= 2:
                quota[fam] -= 2
                out.extend(pair)
        elif quota[fam] > 0:
            quota[fam] -= 1
            out.append(row)
        if not any(quota.values()):
            return out
    raise AssertionError("unreachable: gen_rows is unbounded")


def oversize(row: dict, seed: int) -> dict:
    """``row`` with an inline script of base64 data added to its head, so
    its payload passes ``OVERSIZED_BYTES``, the skew-routing threshold of
    ``pipelines.extract_pipeline`` (an embedded blob is the usual reason a
    real page is that large).  ``gen_rows`` can also make its ``oversized``
    family that large, but with 2 MiB of visible text, which costs about
    five seconds in the pipeline and would drown the rest of the mix."""
    import base64

    rng = random.Random(f"{seed}:big:{row['url']}")
    blob = base64.b64encode(rng.randbytes(OVERSIZED_BYTES * 3 // 4 + 4096))
    html = row["html"].replace(
        b"</head>", b'<script>var img="' + blob + b'";</script></head>', 1)
    return dict(row, html=html)


def documents(seed: int, texts: list[str], *, exact_share: float,
              line_share: float) -> pa.Table:
    """``(doc_id, text)`` rows over ``texts`` with planted duplicates:
    ``exact_share`` of the docs repeat an earlier doc's text verbatim and
    ``line_share`` carry two lines copied from an earlier doc.  Copied
    lines are non-empty, like every line of extracted text, so a text
    never starts or ends with a newline."""
    rng = random.Random(f"{seed}:docs")
    out: list[str] = []
    for i, text in enumerate(texts):
        r = rng.random()
        if i and r < exact_share:
            text = out[rng.randrange(i)]
        elif i and r < exact_share + line_share:
            donor = [ln for ln in out[rng.randrange(i)].split("\n") if ln]
            lines = text.split("\n")
            for _ in range(2):
                lines.insert(rng.randint(0, len(lines)), rng.choice(donor))
            text = "\n".join(lines)
        out.append(text)
    return pa.table({"doc_id": pa.array(range(len(out)), pa.int64()),
                     "text": pa.array(out, pa.string())})
