"""Span masking for the word-level objective, with the fixed recipe of
BERT and SpanBERT. Span lengths follow Geo(P_GEOM) truncated and
renormalized to {1..MAX_SPAN}: (0.40984, 0.32787, 0.26230). Spans cover
about MASK_RATE of the word positions and never [CLS], [SEP], [SENT] or
padding: starts are drawn from word positions only and a span is
clipped at its sentence's end. A selected position becomes [MASK]
(REPLACE_MASK), a random non-special id (REPLACE_RANDOM) or stays.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import RunConfig
from .textpipe import MASK, NUM_SPECIALS, PackedExample

IGNORE = -1

P_GEOM = 0.2
MAX_SPAN = 3
MASK_RATE = 0.15
REPLACE_MASK = 0.8
REPLACE_RANDOM = 0.1


def span_length_pmf() -> np.ndarray:
    """Probability of each span length 1..MAX_SPAN."""
    k = np.arange(1, MAX_SPAN + 1)
    w = P_GEOM * (1 - P_GEOM) ** (k - 1)
    return w / w.sum()


# a draw u below _SPAN_CDF[i] (and no earlier bound) means length i + 1
_SPAN_CDF = tuple(np.cumsum(span_length_pmf()).tolist())


def sample_span_length(rng) -> int:
    """Draw a span length from the truncated, renormalized geometric."""
    u = rng.random()
    for length, bound in enumerate(_SPAN_CDF, 1):
        if u < bound:
            return length
    return MAX_SPAN


def apply_span_masking(ex: PackedExample, cfg: RunConfig,
                       rng) -> PackedExample:
    """Return a copy of ``ex`` with masked tokens and MLM labels.

    Repeatedly samples a span length and a uniform start among the word
    positions (in memory order, as packed) until about MASK_RATE of them
    are selected (the final span may overshoot the budget by at most
    MAX_SPAN - 1). Overlapping candidates are resampled rather than
    clipped so the budget is never double-counted.
    """
    sent_end = np.zeros(ex.token_ids.shape, dtype=np.int64)  # 0: no word
    for _, start, end in ex.sentence_spans:
        sent_end[start:end] = end
    words = np.flatnonzero(sent_end)
    eligible = len(words)
    budget = int(round(MASK_RATE * eligible))   # a budget of 0 draws nothing
    selected = np.zeros(ex.token_ids.shape, dtype=bool)
    count = 0
    for _ in range(20 * eligible + 100):
        if count >= budget:
            break
        length = sample_span_length(rng)
        start = int(words[rng.integers(0, eligible)])
        end = min(start + length, int(sent_end[start]))
        if selected[start:end].any():
            continue
        selected[start:end] = True
        count += end - start

    tokens = ex.token_ids.copy()
    labels = np.full(ex.token_ids.shape, IGNORE, dtype=np.int64)
    labels[selected] = ex.token_ids[selected]
    for p in np.flatnonzero(selected):
        u = rng.random()
        if u < REPLACE_MASK:
            tokens[p] = MASK
        elif u < REPLACE_MASK + REPLACE_RANDOM:
            tokens[p] = int(rng.integers(NUM_SPECIALS, cfg.vocab_size))
        # else: keep the original token

    return replace(ex, token_ids=tokens, mlm_labels=labels)
