"""Mergeable sketches — HyperLogLog approximate distinct counting.

The sketch pattern for corpus-scale cardinality (distinct tokens / urls /
shingles per group): each batch emits ONE serialized sketch row per key
(ray_guide.md "Aggregation at scale"), the groupby merges register-wise —
shuffle volume is O(keys × batches × 4 KiB) regardless of corpus size,
where exact counting would shuffle every distinct value.

Flajolet et al. HLL with 2^12 registers (~1.6 % standard error) +
linear-counting small-range correction.  Deterministic: the batch kernel
(:func:`sketch_table`) hashes the whitespace tokens (``vocab.ws_tokens``)
with the repo's vectorized byte-polynomial (util._string_hash64).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .vocab import doc_ngrams_batch

P = 12
M = 1 << P                    # 4096 registers
_ALPHA = 0.7213 / (1 + 1.079 / M)


def _clz64(x: np.ndarray) -> np.ndarray:
    """Exact leading-zero count for uint64 via binary search over bit masks
    (float log2 mis-rounds values within an ulp of a power of two)."""
    n = np.zeros(x.shape, dtype=np.int8)
    x = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = x >> np.uint64(64 - shift) == 0
        n = np.where(mask, n + shift, n)
        x = np.where(mask, x << np.uint64(shift), x)
    return np.where(x == 0, np.int8(64), n)


def _ranks(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """register index + rank (leading-zero run of the remaining bits + 1)."""
    idx = (hashes >> np.uint64(64 - P)).astype(np.int64)
    rest = (hashes << np.uint64(P)).astype(np.uint64)
    rank = np.where(rest > 0, _clz64(rest) + np.int8(1),
                    np.int8(64 - P + 1)).astype(np.int8)
    return idx, rank


def hll_add(registers: np.ndarray, hashes: np.ndarray) -> None:
    idx, rank = _ranks(hashes)
    np.maximum.at(registers, idx, rank)


def hll_estimate(registers: np.ndarray) -> float:
    inv = np.power(2.0, -registers.astype(np.float64))
    raw = _ALPHA * M * M / inv.sum()
    zeros = int((registers == 0).sum())
    if raw <= 2.5 * M and zeros:
        return M * np.log(M / zeros)                  # linear counting
    return raw


def sketch_table(batch: pa.Table, *, key_col: str = "lang",
                 text_col: str = "text") -> pa.Table:
    """(key, sketch) — ONE vectorized pass over a whole table: Arrow
    tokenize + flatten, the repo's vectorized byte-polynomial hash over the
    flat token array, and a single 2-D ``np.maximum.at`` scatter into a
    (keys × M) register matrix.  No Python per token (the previous version
    hashed every token with a Python rolling-hash call — the slow part of
    the sketch path at corpus scale)."""
    from ..util import _string_hash64, as_array

    flat, parents, _ = doc_ngrams_batch(batch[text_col], 1)
    keys_tok = pc.take(batch[key_col], parents)
    # every key present in the batch gets a row — a key whose documents are
    # all empty still contributes a zero sketch (estimate 0), matching the
    # per-row accumulation semantics this kernel replaced
    all_keys = pc.unique(as_array(batch[key_col]))
    if len(flat) == 0:
        out_keys = all_keys
        regs = np.zeros((len(all_keys), M), dtype=np.int8)
    else:
        h = _string_hash64(as_array(flat))
        idx, rank = _ranks(h)
        enc = as_array(keys_tok).dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        regs = np.zeros((len(enc.dictionary), M), dtype=np.int8)
        np.maximum.at(regs, (codes, idx), rank)
        missing = all_keys.filter(
            pc.invert(pc.is_in(all_keys, value_set=enc.dictionary)))
        out_keys = enc.dictionary
        if len(missing):
            out_keys = pa.concat_arrays(
                [out_keys.cast(missing.type), missing])
            regs = np.vstack([regs,
                              np.zeros((len(missing), M), dtype=np.int8)])
    return pa.table({
        key_col: out_keys,
        "sketch": pa.array([r.tobytes() for r in regs], pa.binary()),
    })


def approx_distinct_tokens(ds, *, key_col: str = "lang",
                           text_col: str = "text"):
    """(key, approx_distinct) — distinct whitespace tokens per key.

    Per-batch partial sketches (one 4 KiB row per key per batch) →
    groupby(key) register-max merge → estimate.
    """
    def partial(b: pa.Table) -> pa.Table:
        return sketch_table(b, key_col=key_col, text_col=text_col)

    def merge(group: pa.Table) -> pa.Table:
        reg = np.zeros(M, dtype=np.int8)
        for blob in group["sketch"].to_pylist():
            np.maximum(reg, np.frombuffer(blob, dtype=np.int8), out=reg)
        return pa.table({
            key_col: group[key_col].slice(0, 1),
            "approx_distinct": pa.array([int(round(hll_estimate(reg)))],
                                        pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partials.groupby(key_col).map_groups(merge,
                                                batch_format="pyarrow")
