"""Vectorized text-analysis operators over a documents table.

These are the training-data-pipeline analytics the engine provides beyond the
reference's surface (the reference's only per-token analytics are the word
predicates ``TessBaseAPIIsValidWord`` / ``isNumeric``,
/root/reference/src/.../TessAPI.java:566 and
RecognitionResultsIterator.java:128-136 — here generalized to corpus-scale,
batch-vectorized statistics).

Every kernel is a pure ``pyarrow.compute`` expression over zero-copy Arrow
batches (RE2 regexes — the same engine DuckDB uses, which is what makes the
SQL oracles in ``harness/`` bit-exact).  SQL-checked outputs are
integers/strings only; ratio-valued scores are continuous doubles rounded at
4 dp (decimal-boundary collisions have measure zero there).

Scale notes: stateless ``map_batches`` tasks, no shuffle, column-pruned input
(``text`` + id only) — at 100 TB this stage is embarrassingly parallel and
reads only the columns it needs.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .vocab import doc_ngrams_batch, join_ngrams, ws_tokens, ws_tokens_sql

# ---------------------------------------------------------------------------
# shared regex vocabulary (RE2 syntax — valid in pyarrow AND DuckDB)

#: BPE-ish word/number/punct tokenizer (GPT-2-style coarse classes).
TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

DIGIT_PATTERN = r"[0-9]"
UPPER_PATTERN = r"[A-Z]"

# tiny built-in stopword tables — per-language n-gram/stopword profiles for
# the language-ID heuristic.  Kept deliberately small so the profile regex
# stays cheap; listed in PRIORITY ORDER (first-max tie-break).
LANG_STOPWORDS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "in", "is", "that", "it", "was", "for",
           "with", "are", "this", "not"),
    "de": ("der", "die", "und", "das", "ist", "nicht", "ein", "eine", "mit",
           "den", "von", "für", "auf", "sich"),
    "es": ("el", "la", "los", "las", "es", "una", "por", "con", "para",
           "del", "como", "más", "pero", "sus"),
    "fr": ("le", "les", "des", "est", "une", "dans", "qui", "pas", "pour",
           "sur", "avec", "mais", "aux", "être"),
}

#: CJK unified ideographs — presence short-circuits language ID to "zh"
CJK_PATTERN = r"[\x{4E00}-\x{9FFF}]"
#: Arabic block — presence short-circuits language ID to "ar"
ARABIC_PATTERN = r"[\x{0600}-\x{06FF}]"

UND = "und"

#: script-detected languages (no stopword profile; matched by codepoint
#: ranges) — part of the loadable language set alongside LANG_STOPWORDS
SCRIPT_LANGS = ("zh", "ar")


def stopword_pattern(lang: str) -> str:
    """Word-boundary alternation regex over the language's stopword list."""
    return r"\b(" + "|".join(LANG_STOPWORDS[lang]) + r")\b"


def parse_init_languages(init: str | None) -> tuple[str, ...]:
    """Parse the reference's init-language string — the
    ``[~]<lang>[+[~]<lang>]*`` grammar of
    ``ImageAnalyzerFactory.createFactory(datapath, language, …)``
    (/root/reference/src/.../ImageAnalyzerFactory.java:85-104: "Multiple
    languages may be specified, separated by plus characters …  To skip
    loading a language, prefix its name with a tilde"), and the source of
    ``TessBaseAPIGetLoadedLanguagesAsVector`` (TessAPI.java:~560, decl-only
    in the reference).

    Returns the LOADED language tuple in tie-break priority order: positive
    entries in the order written; when the string contains ONLY exclusions
    (or is None/empty) the default full set (``LANG_STOPWORDS`` order then
    ``SCRIPT_LANGS``) stands in for the config-loaded baseline the tilde
    subtracts from.  Unknown names and an all-excluded result raise
    ``ValueError`` — the init-failure analogue (a missing traineddata file
    fails ``TessBaseAPIInit2``).  ``"+".join(result)`` is the
    ``GetInitLanguagesAsString`` readback."""
    known = tuple(LANG_STOPWORDS) + SCRIPT_LANGS
    if not init:
        return known
    pos: list[str] = []
    neg: set[str] = set()
    for part in init.split("+"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty language in init string {init!r}")
        name = part[1:] if part.startswith("~") else part
        if name not in known:
            raise ValueError(
                f"unknown language {name!r} in init string {init!r} "
                f"(loadable: {'+'.join(known)})")
        if part.startswith("~"):
            neg.add(name)
        elif name not in pos:
            pos.append(name)
    base = pos if pos else list(known)
    loaded = tuple(l for l in base if l not in neg)
    if not loaded:
        raise ValueError(f"init string {init!r} loads no languages")
    return loaded


# ---------------------------------------------------------------------------
# kernels


def _utf8_length(col):
    return pc.utf8_length(col).cast(pa.int64())


def _count_re(col, pattern):
    return pc.count_substring_regex(col, pattern).cast(pa.int64())


def token_stats_batch(batch: pa.Table, *, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """Per-document token/character counters (all exact integers).

    Columns: ``n_chars2`` (codepoints), ``n_tokens_ws`` (whitespace tokens),
    ``n_tokens_re`` (BPE-ish regex tokens), ``n_digits``, ``n_upper``,
    ``n_stop_en`` (English stopword hits).
    """
    text = batch[text_col]
    return pa.table({
        id_col: batch[id_col],
        "n_chars2": _utf8_length(text),
        "n_tokens_ws": pc.list_value_length(ws_tokens(text)).cast(pa.int64()),
        "n_tokens_re": _count_re(text, TOKEN_PATTERN),
        "n_digits": _count_re(text, DIGIT_PATTERN),
        "n_upper": _count_re(text, UPPER_PATTERN),
        "n_stop_en": _count_re(text, stopword_pattern("en")),
    })


def quality_batch(batch: pa.Table, *, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """Heuristic document-quality features + composite score.

    The corpus-scale generalization of the reference's per-node confidence
    (ResultHandle.java:84-89): stopword rate, alphabetic density and length
    saturation folded into one 0–100 score (continuous double, 4 dp).
    """
    text = batch[text_col]
    n_chars = _utf8_length(text)
    n_chars_f = n_chars.cast(pa.float64())
    safe_chars = pc.max_element_wise(n_chars_f, pa.scalar(1.0))
    n_tokens = pc.list_value_length(ws_tokens(text)).cast(pa.float64())
    safe_tokens = pc.max_element_wise(n_tokens, pa.scalar(1.0))
    stop = _count_re(text, stopword_pattern("en")).cast(pa.float64())
    alpha = _count_re(text, r"[A-Za-z]").cast(pa.float64())
    digits = _count_re(text, DIGIT_PATTERN).cast(pa.float64())

    stop_ratio = pc.divide(stop, safe_tokens)
    alpha_ratio = pc.divide(alpha, safe_chars)
    digit_ratio = pc.divide(digits, safe_chars)
    len_sat = pc.min_element_wise(pc.divide(n_tokens, pa.scalar(100.0)),
                                  pa.scalar(1.0))
    score = pc.multiply(
        pa.scalar(100.0),
        pc.add(
            pc.add(pc.multiply(pa.scalar(0.3), pc.min_element_wise(
                pc.multiply(pa.scalar(4.0), stop_ratio), pa.scalar(1.0))),
                   pc.multiply(pa.scalar(0.4), alpha_ratio)),
            pc.add(pc.multiply(pa.scalar(0.2), len_sat),
                   pc.multiply(pa.scalar(0.1),
                               pc.subtract(pa.scalar(1.0), digit_ratio))),
        ),
    )
    def r4(x):
        # Quantize via integer rounding: round(x*1e4)/1e4 yields the SAME
        # double on every engine (pc.round(x, 4) and DuckDB round(x, 4) pick
        # representation-different doubles for e.g. 56.2).  Non-negative
        # inputs ⇒ half_towards_infinity == DuckDB's half-away-from-zero.
        scaled = pc.round(pc.multiply(x, pa.scalar(10000.0)), 0,
                          round_mode="half_towards_infinity")
        return pc.divide(scaled, pa.scalar(10000.0))

    return pa.table({
        id_col: batch[id_col],
        "n_chars2": n_chars,
        "n_tokens_ws": n_tokens.cast(pa.int64()),
        "stop_ratio": r4(stop_ratio),
        "alpha_ratio": r4(alpha_ratio),
        "digit_ratio": r4(digit_ratio),
        "quality_score": r4(score),
    })


def langid_batch(batch: pa.Table, *, text_col: str = "text",
                 id_col: str = "doc_id",
                 init_langs: str | None = None) -> pa.Table:
    """n-gram/stopword-profile language identification (deterministic).

    Script short-circuits (CJK → zh, Arabic script → ar), else the language
    whose stopword profile hits most, first-max tie-break in the fixed
    priority order of :data:`LANG_STOPWORDS`; no hits at all → ``und``.
    Pure RE2 count kernels — the DuckDB oracle replicates it exactly.

    ``init_langs`` restricts the candidate set with the reference's
    init-string grammar (``"en+fr"`` loads two profiles, ``"~de"`` loads
    the default set minus German — :func:`parse_init_languages`); a script
    short-circuit only fires when its language is loaded, and the
    STOPWORD-PROFILE tie-break follows the init string's own order.  The
    two script short-circuits keep their fixed precedence (ar over zh,
    matching the base classifier and the SQL oracle) regardless of init
    order — script detection is a codepoint test, not a model lookup, so
    "load order" has no analogue there.
    """
    text = batch[text_col]
    loaded = parse_init_languages(init_langs)
    cjk = _count_re(text, CJK_PATTERN)
    arab = _count_re(text, ARABIC_PATTERN)
    langs = [l for l in loaded if l in LANG_STOPWORDS]
    import numpy as np
    if langs:
        hits = {l: _count_re(text, stopword_pattern(l)) for l in langs}
        h = np.stack([np.asarray(hits[l]) for l in langs])  # (L, n)
        best_idx = h.argmax(axis=0)                          # first max wins
        best_val = h.max(axis=0)
        pred = np.array(langs, dtype=object)[best_idx]
        pred[best_val == 0] = UND
    else:
        pred = np.full(batch.num_rows, UND, dtype=object)
    if "zh" in loaded:
        pred = np.where(np.asarray(cjk) > 0, "zh", pred)
    if "ar" in loaded:
        pred = np.where(np.asarray(arab) > 0, "ar", pred)
    # null text → null prediction (the SQL oracle's CASE yields NULL when
    # every count is NULL; without this mask the NaN hit rows argmax to
    # index 0 and mislabel null docs as the first profile language)
    valid = np.asarray(pc.is_valid(
        text.combine_chunks() if isinstance(text, pa.ChunkedArray)
        else text))
    out = [p if v else None for p, v in zip(pred.tolist(), valid.tolist())]
    return pa.table({
        id_col: batch[id_col],
        "pred_lang": pa.array(out, pa.string()),
    })


# ---------------------------------------------------------------------------
# Dataset wrappers (column-pruned, stateless tasks)


def apply_token_stats(ds, **kw):
    return ds.map_batches(lambda b: token_stats_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def apply_quality(ds, **kw):
    return ds.map_batches(lambda b: quality_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def apply_langid(ds, **kw):
    return ds.map_batches(lambda b: langid_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def compression_ratio_batch(batch: pa.Table, *, text_col: str = "text",
                            id_col: str = "doc_id",
                            level: int = 6) -> pa.Table:
    """(id, raw_len, comp_len, comp_ratio) — the deflate-compression
    quality signal (Gopher/CCNet-family practice: highly repetitive or
    templated text compresses far below prose; boilerplate/filler filters
    threshold on the ratio).  zlib level pinned at 6 for byte-reproducible
    outputs (the make_pdf_payload convention); per-row C calls, the only
    Python is the loop shell.  Empty text → null ratio."""
    import zlib

    from ..util import round_half_away

    texts = batch[text_col].to_pylist()
    raw_len, comp_len, ratio = [], [], []
    for t in texts:
        raw = (t or "").encode("utf-8")
        rl = len(raw)
        cl = len(zlib.compress(raw, level))
        raw_len.append(rl)
        comp_len.append(cl)
        # 4 dp half-away quantization — the repo's float-parity convention
        ratio.append(None if rl == 0 else round_half_away(cl / rl))
    return pa.table({
        id_col: batch[id_col],
        "raw_len": pa.array(raw_len, pa.int64()),
        "comp_len": pa.array(comp_len, pa.int64()),
        "comp_ratio": pa.array(ratio, pa.float64()),
    })


def apply_compression_ratio(ds, **kw):
    return ds.map_batches(lambda b: compression_ratio_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


#: strong right-to-left codepoints: Hebrew, Arabic (+ extended ranges and
#: presentation forms)
RTL_PATTERN = r"[\x{0590}-\x{08FF}\x{FB1D}-\x{FDFD}\x{FE70}-\x{FEFC}]"
#: strong left-to-right codepoints: Latin (+ extensions), CJK, Kana, Hangul
LTR_PATTERN = (r"[A-Za-z\x{00C0}-\x{024F}\x{3040}-\x{30FF}"
               r"\x{4E00}-\x{9FFF}\x{AC00}-\x{D7AF}]")


def direction_batch(batch: pa.Table, *, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Per-document writing direction — the ``getOrientation`` /
    text-direction analogue (reference LayoutIterator.java:318-354,
    PublicTypes ORIENTATION_/DIR_*): 2-D page orientation is meaningless
    for extracted text, but writing DIRECTION is real and detectable.

    Majority vote over strong-directional codepoints (RTL blocks vs LTR
    scripts), neutral characters ignored — ``rtl`` when strict-majority
    RTL, else ``ltr`` (the reference's default orientation).  Exact integer
    counts + a CASE, so the SQL oracle is bit-exact.  Null text yields
    null counts and a null direction (Arrow null propagation; the oracle
    CASE mirrors it explicitly)."""
    text = batch[text_col]
    n_rtl = _count_re(text, RTL_PATTERN)
    n_ltr = _count_re(text, LTR_PATTERN)
    direction = pc.if_else(pc.greater(n_rtl, n_ltr),
                           pa.scalar("rtl"), pa.scalar("ltr"))
    return pa.table({
        id_col: batch[id_col],
        "n_rtl": n_rtl,
        "n_ltr": n_ltr,
        "direction": direction,
    })


def apply_direction(ds, **kw):
    return ds.map_batches(lambda b: direction_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# DuckDB oracle SQL generators (same regex constants ⇒ stays in sync)


def direction_sql(table: str = "documents", text_col: str = "text",
                  id_col: str = "doc_id") -> str:
    c = text_col
    return f"""
SELECT {id_col},
  len(regexp_extract_all({c}, '{RTL_PATTERN}')) AS n_rtl,
  len(regexp_extract_all({c}, '{LTR_PATTERN}')) AS n_ltr,
  CASE WHEN {c} IS NULL THEN NULL
       WHEN len(regexp_extract_all({c}, '{RTL_PATTERN}')) >
            len(regexp_extract_all({c}, '{LTR_PATTERN}'))
       THEN 'rtl' ELSE 'ltr' END AS direction
FROM {table}"""


def token_stats_sql(table: str = "documents", text_col: str = "text",
                    id_col: str = "doc_id") -> str:
    t, c = table, text_col
    return f"""
SELECT {id_col},
  length({c}) AS n_chars2,
  len({ws_tokens_sql(c)}) AS n_tokens_ws,
  len(regexp_extract_all({c}, '{TOKEN_PATTERN}')) AS n_tokens_re,
  len(regexp_extract_all({c}, '{DIGIT_PATTERN}')) AS n_digits,
  len(regexp_extract_all({c}, '{UPPER_PATTERN}')) AS n_upper,
  len(regexp_extract_all({c}, '{stopword_pattern("en")}')) AS n_stop_en
FROM {t}"""


def quality_sql(table: str = "documents", text_col: str = "text",
                id_col: str = "doc_id") -> str:
    """Oracle replicating :func:`quality_batch` with the identical IEEE op
    tree (division of int-valued doubles, same multiply/add/min order), so
    values are bit-exact before the shared half-away 4 dp rounding."""
    t, c = table, text_col
    return f"""
WITH f AS (
  SELECT {id_col},
    length({c}) AS n_chars2,
    greatest(CAST(length({c}) AS DOUBLE), 1.0) AS safe_chars,
    CAST(len({ws_tokens_sql(c)}) AS DOUBLE) AS toks,
    greatest(CAST(len({ws_tokens_sql(c)}) AS DOUBLE), 1.0) AS safe_toks,
    CAST(len(regexp_extract_all({c}, '{stopword_pattern("en")}')) AS DOUBLE) AS stop,
    CAST(len(regexp_extract_all({c}, '[A-Za-z]')) AS DOUBLE) AS alpha,
    CAST(len(regexp_extract_all({c}, '{DIGIT_PATTERN}')) AS DOUBLE) AS digits
  FROM {t}
)
SELECT {id_col},
  n_chars2,
  CAST(toks AS BIGINT) AS n_tokens_ws,
  round(stop / safe_toks * 10000.0) / 10000.0 AS stop_ratio,
  round(alpha / safe_chars * 10000.0) / 10000.0 AS alpha_ratio,
  round(digits / safe_chars * 10000.0) / 10000.0 AS digit_ratio,
  round(100.0 * ((0.3 * least(4.0 * (stop / safe_toks), 1.0)
                  + 0.4 * (alpha / safe_chars))
                 + (0.2 * least(toks / 100.0, 1.0)
                    + 0.1 * (1.0 - digits / safe_chars))) * 10000.0) / 10000.0
    AS quality_score
FROM f"""


def langid_sql(table: str = "documents", text_col: str = "text",
               id_col: str = "doc_id",
               init_langs: str | None = None) -> str:
    loaded = parse_init_languages(init_langs)
    langs = [l for l in loaded if l in LANG_STOPWORDS]
    hits = ",\n    ".join(
        f"len(regexp_extract_all({text_col}, '{stopword_pattern(l)}')) AS h_{l}"
        for l in langs)
    # first-max tie-break: lang i wins iff h_i >= h_j for all j > i and
    # h_i > h_j for all j < i is NOT needed — argmax-first == h_i >= all later
    # and strictly greater than no earlier max ⇔ simple cascade below.
    cases = []
    for i, l in enumerate(langs):
        conds = [f"h_{l} >= h_{m}" for m in langs[i + 1:]]
        conds += [f"h_{l} > h_{m}" for m in langs[:i]]
        cases.append(f"WHEN {' AND '.join(conds) or 'TRUE'} THEN '{l}'")
    case_sql = "\n      ".join(cases)
    # the explicit NULL arm is REQUIRED whenever the profile cascade can
    # degenerate to `WHEN TRUE` (0 or 1 loaded profiles): without it a
    # NULL-text row falls through to the unconditional arm and gets
    # labeled, while langid_batch returns NULL.  Multi-profile cascades
    # happen to yield NULL via NULL comparisons, but the arm is kept
    # unconditionally so the guarantee is structural, not accidental.
    profile_case = (f"""
    WHEN h_cjk IS NULL THEN NULL
    WHEN {" AND ".join(f"h_{l} = 0" for l in langs)} THEN '{UND}'
    ELSE CASE
      {case_sql}
    END""" if langs else f"""
    WHEN h_cjk IS NULL THEN NULL
    ELSE '{UND}'""")
    script_arms = ""
    if "ar" in loaded:
        script_arms += "\n    WHEN h_arab > 0 THEN 'ar'"
    if "zh" in loaded:
        script_arms += "\n    WHEN h_cjk > 0 THEN 'zh'"
    return f"""
WITH h AS (
  SELECT {id_col},
    len(regexp_extract_all({text_col}, '{CJK_PATTERN}')) AS h_cjk,
    len(regexp_extract_all({text_col}, '{ARABIC_PATTERN}')) AS h_arab,
    {hits or "0 AS h__none"}
  FROM {table}
)
SELECT {id_col},
  CASE{script_arms}{profile_case}
  END AS pred_lang
FROM h"""


# ---------------------------------------------------------------------------
# repetition signals (Gopher-style quality rules, Rae et al. 2021)


def repetition_stats_batch(batch: pa.Table, *, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Per-document repetition signals — the Gopher repetition filters for
    web text: duplicate-token mass and most-common n-gram mass.

    (doc_id, n_words, distinct_frac, top_word_frac, top_bigram_frac),
    fractions quantized 4 dp.  Fully vectorized: one Arrow tokenize, one
    ``group_by`` per n-gram order, numpy scatter reductions — no Python
    per document.  Text without tokens (null, empty or whitespace-only)
    gives no row, as in the SQL oracle, where unnest of an empty or null
    token array emits nothing for the document.
    """
    import numpy as np

    flat, tok_parents, n = doc_ngrams_batch(batch[text_col], 1)
    parents = np.asarray(tok_parents, dtype=np.int64)
    n_words = np.bincount(parents, minlength=n)

    g = (pa.table({"d": pa.array(parents), "w": flat})
         .group_by(["d", "w"]).aggregate([("w", "count")]))
    gd = np.asarray(g["d"], dtype=np.int64)
    gc = np.asarray(g["w_count"], dtype=np.int64)
    n_distinct = np.bincount(gd, minlength=n)
    max_word = np.zeros(n, dtype=np.int64)
    np.maximum.at(max_word, gd, gc)

    # adjacent bigrams within documents
    grams, gram_parents = join_ngrams(flat, tok_parents, 2)
    bparents = np.asarray(gram_parents, dtype=np.int64)
    n_big = np.bincount(bparents, minlength=n)
    max_big = np.zeros(n, dtype=np.int64)
    if len(bparents):
        bg = (pa.table({"d": gram_parents, "g": grams})
              .group_by(["d", "g"]).aggregate([("g", "count")]))
        np.maximum.at(max_big, np.asarray(bg["d"], dtype=np.int64),
                      np.asarray(bg["g_count"], dtype=np.int64))

    def frac(num, den):
        with np.errstate(invalid="ignore", divide="ignore"):
            f = np.where(den > 0, num / np.maximum(den, 1), 0.0)
        return np.floor(f * 10000.0 + 0.5) / 10000.0

    return pa.table({
        id_col: batch[id_col],
        "n_words": pa.array(n_words, pa.int64()),
        "distinct_frac": pa.array(frac(n_distinct, n_words), pa.float64()),
        "top_word_frac": pa.array(frac(max_word, n_words), pa.float64()),
        "top_bigram_frac": pa.array(frac(max_big, n_big), pa.float64()),
    }).filter(pa.array(n_words > 0))


def apply_repetition_stats(ds, **kw):
    return ds.map_batches(lambda b: repetition_stats_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def repetition_stats_sql(table: str = "documents", text_col: str = "text",
                         id_col: str = "doc_id") -> str:
    return f"""
WITH toks AS (
  SELECT {id_col},
         unnest({ws_tokens_sql(text_col)}) AS w
  FROM {table}
),
cnt AS (SELECT {id_col}, w, count(*) AS c FROM toks GROUP BY 1, 2),
agg AS (SELECT {id_col}, CAST(sum(c) AS BIGINT) AS n_words,
               count(*) AS n_distinct, max(c) AS max_c
        FROM cnt GROUP BY 1),
bt AS (
  SELECT {id_col},
         unnest(list_transform(range(1, len(a)),
                               i -> a[i] || ' ' || a[i + 1])) AS g
  FROM (SELECT {id_col}, {ws_tokens_sql(text_col)} AS a FROM {table})
),
bc AS (SELECT {id_col}, g, count(*) AS c FROM bt GROUP BY 1, 2),
bagg AS (SELECT {id_col}, CAST(sum(c) AS BIGINT) AS n_big, max(c) AS max_bc
         FROM bc GROUP BY 1)
SELECT a.{id_col}, a.n_words,
       round(a.n_distinct / a.n_words * 10000.0) / 10000.0
         AS distinct_frac,
       round(a.max_c / a.n_words * 10000.0) / 10000.0 AS top_word_frac,
       CASE WHEN b.n_big > 0
            THEN round(b.max_bc / b.n_big * 10000.0) / 10000.0
            ELSE 0.0 END AS top_bigram_frac
FROM agg a LEFT JOIN bagg b USING ({id_col})"""


def normalize_text_batch(batch: pa.Table, *, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Canonical text normalization — the dedup/matching preprocessor:
    Unicode NFC, lowercase, whitespace runs collapsed to single spaces,
    trimmed — bit-identical to DuckDB's ``nfc_normalize``/``lower`` so
    normalized text can feed EXACT digests on either engine.

    NFC caveat (measured, pyarrow 16.1): ``pc.utf8_normalize`` performs
    the decomposition/compatibility mapping but NEVER composes — NFC of
    ``e + COMBINING ACUTE`` stays two codepoints, while DuckDB/CPython
    compose to ``é``.  True NFC therefore runs through
    ``unicodedata.normalize``, but only for the rows that can need it:
    ASCII rows (the vast majority of web text) are proven NFC by
    ``pc.string_is_ascii`` and skip the Python path entirely."""
    import unicodedata

    import numpy as np

    from ..util import as_array
    text = as_array(batch[text_col])
    ascii_mask = np.asarray(pc.fill_null(pc.string_is_ascii(text), True))
    if not ascii_mask.all():
        idx = np.flatnonzero(~ascii_mask)
        fixed = pa.array(
            [None if s is None else unicodedata.normalize("NFC", s)
             for s in text.take(pa.array(idx, pa.int64())).to_pylist()],
            text.type)      # match the column (string OR large_string)
        # scatter the normalized minority back into the column
        order = np.empty(len(text), np.int64)
        order[ascii_mask] = np.arange(int(ascii_mask.sum()))
        order[~ascii_mask] = len(text) - len(idx) + np.arange(len(idx))
        text = pc.take(
            pa.concat_arrays([text.filter(pa.array(ascii_mask)), fixed]),
            pa.array(order, pa.int64()))
    norm = pc.utf8_trim_whitespace(pc.replace_substring_regex(
        pc.utf8_lower(text), r"\s+", " "))
    return pa.table({id_col: batch[id_col], "norm_text": norm})


def apply_normalize_text(ds, **kw):
    return ds.map_batches(lambda b: normalize_text_batch(b, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def normalize_text_sql(table: str = "documents", text_col: str = "text",
                       id_col: str = "doc_id") -> str:
    return f"""
SELECT {id_col},
       trim(regexp_replace(lower(nfc_normalize({text_col})),
                           '\\s+', ' ', 'g')) AS norm_text
FROM {table}"""
