"""Sampling queries: content-hash splits and samples, stratified and
weighted corpus mixing, temperature and language-balanced resampling."""

from __future__ import annotations

from org_dharts_dia_tesseract_ray.functions.sampling import (
    lang_balanced_sample, lang_balanced_sample_sql, split_sql,
    stratified_sample, stratified_sample_sql, temperature_sample,
    temperature_sample_sql, train_val_test_split, weighted_mix,
    weighted_mix_sql)

from . import Query, read

#: corpus-mixing weights for the weighted_mix query (percent kept per lang)
_MIX_WEIGHTS = {"en": 60, "de": 40, "fr": 25, "zh": 10, "ar": 10}


def _docs(sf_dir: str):
    return read(sf_dir, "documents", ["doc_id", "lang", "text"])


def _q_split(sf_dir: str):
    ds = train_val_test_split(read(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(["doc_id", "split"])


def _q_stratified(sf_dir: str):
    ds = stratified_sample(_docs(sf_dir), group_col="lang")
    return ds.select_columns(["doc_id", "lang"])


def _q_weighted_mix(sf_dir: str):
    """Corpus mixing by per-source weights: assemble a deterministic
    mixture keeping weights[lang]% of each language by content bucket."""
    ds = weighted_mix(_docs(sf_dir), _MIX_WEIGHTS)
    return ds.select_columns(["doc_id", "lang"])


def _q_temperature_sample(sf_dir: str):
    """Temperature-scaled multilingual resampling (T=2): kept counts
    proportional to sqrt(count) — the n^(1/T) mixing rule between natural
    proportions and equal share."""
    return temperature_sample(_docs(sf_dir))


def _q_lang_balanced_sample(sf_dir: str):
    """Multilingual rebalancing: every language downsampled to the smallest
    language's share via integer basis-point rates from one tiny groupby +
    the deterministic content-bucket rule (partitioning-invariant)."""
    return lang_balanced_sample(_docs(sf_dir))


ROWS = [
    Query("train_val_test_split", _q_split, split_sql()),
    Query("stratified_sample", _q_stratified, stratified_sample_sql()),
    Query("weighted_mix", _q_weighted_mix, weighted_mix_sql(_MIX_WEIGHTS)),
    Query("temperature_sample", _q_temperature_sample,
          temperature_sample_sql()),
    Query("lang_balanced_sample", _q_lang_balanced_sample,
          lang_balanced_sample_sql()),
]
