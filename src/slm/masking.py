"""Span masking for the word-level objective.

Span lengths follow a geometric distribution Geo(p) truncated and
renormalized to {1..max_span}; with the defaults p=0.2, max_span=3 the
mass is (0.40984, 0.32787, 0.26230). Spans never cover [CLS], [SEP],
[SENT] or padding: starts are drawn from word positions only and a span
is clipped at its sentence's word boundary. Selected positions receive
the usual 80/10/10 treatment ([MASK] / random non-special id / kept).

Every function reads a ``RunConfig`` and trusts the ranges that
``RunConfig.validate`` checked when the config was built.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import RunConfig
from .textpipe import MASK, NUM_SPECIALS, PackedExample

IGNORE = -1


def span_length_pmf(cfg: RunConfig) -> np.ndarray:
    """Probability of each span length 1..max_span."""
    k = np.arange(1, cfg.max_span + 1)
    w = cfg.p_geom * (1 - cfg.p_geom) ** (k - 1)
    return w / w.sum()


def sample_span_length(cfg: RunConfig, rng) -> int:
    """Draw a span length from the truncated, renormalized geometric."""
    pmf = span_length_pmf(cfg)
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(pmf):
        acc += p
        if u < acc:
            return i + 1
    return cfg.max_span


def apply_span_masking(ex: PackedExample, cfg: RunConfig,
                       rng) -> PackedExample:
    """Return a copy of ``ex`` with masked tokens and MLM labels.

    Repeatedly samples a span length and a uniform eligible start until
    about mask_rate of the word positions are selected (the final span
    may overshoot the budget by at most max_span - 1). Overlapping
    candidates are resampled rather than clipped so the budget is never
    double-counted.
    """
    word_positions = []
    sentence_of = {}
    for si, (_, start, end) in enumerate(ex.sentence_spans):
        for p in range(start, end):
            sentence_of[p] = si
            word_positions.append(p)
    eligible = len(word_positions)
    tokens = ex.token_ids.copy()
    labels = np.full(ex.token_ids.shape, IGNORE, dtype=np.int64)
    if eligible == 0:
        return replace(ex, token_ids=tokens, mlm_labels=labels)

    budget = int(round(cfg.mask_rate * eligible))
    selected: set[int] = set()
    attempts = 0
    max_attempts = 20 * eligible + 100
    while len(selected) < budget and attempts < max_attempts:
        attempts += 1
        length = sample_span_length(cfg, rng)
        start = word_positions[int(rng.integers(0, eligible))]
        si = sentence_of[start]
        sent_end = ex.sentence_spans[si][2]
        span = range(start, min(start + length, sent_end))
        if any(p in selected for p in span):
            continue
        selected.update(span)

    for p in sorted(selected):
        labels[p] = ex.token_ids[p]
        u = rng.random()
        if u < cfg.replace_mask:
            tokens[p] = MASK
        elif u < cfg.replace_mask + cfg.replace_random:
            tokens[p] = int(rng.integers(NUM_SPECIALS, cfg.vocab_size))
        # else: keep the original token

    return replace(ex, token_ids=tokens, mlm_labels=labels)
