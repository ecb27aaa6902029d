from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from slm.config import RunConfig, resolve_config
from slm.errors import ContractError
from slm.masking import (IGNORE, apply_span_masking, sample_span_length,
                         span_length_pmf)
from slm.textpipe import MASK, NUM_SPECIALS, SENT, Document, pack_example

from util import random_document

V = 60


def make_example(n_sents=4, words_per=20, seed=0):
    r = np.random.default_rng(seed)
    doc = Document([[int(x) for x in r.integers(NUM_SPECIALS, V, size=words_per)]
                    for _ in range(n_sents)])
    return pack_example(doc, n_sents * (words_per + 1) + 2, 8, r)


def test_pmf_frozen_values():
    pmf = span_length_pmf()
    np.testing.assert_allclose(pmf, [0.40984, 0.32787, 0.26230], atol=1e-5)


def test_pmf_sums_to_one():
    assert abs(span_length_pmf().sum() - 1.0) < 1e-12


def test_sample_lengths_match_pmf_100k():
    r = np.random.default_rng(42)
    draws = np.array([sample_span_length(r) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=4)[1:4]
    freqs = counts / draws.size
    np.testing.assert_allclose(freqs, [0.40984, 0.32787, 0.26230], atol=0.01)
    chi = stats.chisquare(counts, f_exp=span_length_pmf() * draws.size)
    assert chi.pvalue > 0.01


def test_budget_window_100_eligible():
    cfg = RunConfig(vocab_size=V)
    r = np.random.default_rng(3)
    for seed in range(50):
        ex = make_example(n_sents=5, words_per=20, seed=seed)
        masked = apply_span_masking(ex, cfg, r)
        n = int((masked.mlm_labels != IGNORE).sum())
        assert 15 <= n <= 17  # budget 15, overshoot at most max_span-1


def test_specials_never_masked_10k():
    cfg = RunConfig(vocab_size=V)
    r = np.random.default_rng(9)
    hits = 0
    for i in range(10_000):
        ex = make_example(n_sents=2, words_per=6, seed=i % 37)
        masked = apply_span_masking(ex, cfg, r)
        special_pos = masked.token_ids[ex.token_ids < NUM_SPECIALS]
        labeled_specials = (masked.mlm_labels != IGNORE) & (ex.token_ids < NUM_SPECIALS)
        hits += int(labeled_specials.sum())
        # replacement must never write [SENT]/[CLS]/[SEP]/[PAD] over words
        assert np.array_equal(masked.token_ids[ex.token_ids == SENT],
                              ex.token_ids[ex.token_ids == SENT])
    assert hits == 0


def test_masked_fraction_in_window_10k():
    cfg = RunConfig(vocab_size=V)
    r = np.random.default_rng(17)
    labeled = total = 0
    for i in range(10_000):
        ex = make_example(n_sents=3, words_per=12, seed=i % 53)
        masked = apply_span_masking(ex, cfg, r)
        labeled += int((masked.mlm_labels != IGNORE).sum())
        total += sum(end - start for _, start, end in ex.sentence_spans)
    assert 0.13 <= labeled / total <= 0.17


def test_labels_carry_original_ids():
    cfg = RunConfig(vocab_size=V)
    r = np.random.default_rng(5)
    ex = make_example()
    masked = apply_span_masking(ex, cfg, r)
    sel = masked.mlm_labels != IGNORE
    np.testing.assert_array_equal(masked.mlm_labels[sel], ex.token_ids[sel])
    np.testing.assert_array_equal(masked.token_ids[~sel], ex.token_ids[~sel])


def test_replacement_mix_80_10_10():
    cfg = RunConfig(vocab_size=V)
    r = np.random.default_rng(23)
    n_mask = n_keep = n_rand = 0
    for i in range(4000):
        ex = make_example(n_sents=3, words_per=12, seed=i % 31)
        masked = apply_span_masking(ex, cfg, r)
        sel = masked.mlm_labels != IGNORE
        got, orig = masked.token_ids[sel], ex.token_ids[sel]
        n_mask += int((got == MASK).sum())
        same = got == orig
        n_keep += int(same.sum())
        n_rand += int((~same & (got != MASK)).sum())
    total = n_mask + n_keep + n_rand
    assert abs(n_mask / total - 0.8) < 0.02
    # random replacement can coincide with the original id, shifting a
    # sliver of mass from "random" into "kept"
    assert abs(n_rand / total - 0.1) < 0.02
    assert abs(n_keep / total - 0.1) < 0.02
    assert np.all((masked.token_ids[sel] >= NUM_SPECIALS) | (masked.token_ids[sel] == MASK))


def test_zero_word_example_masks_nothing():
    cfg = RunConfig(vocab_size=V)
    ex = make_example(n_sents=1, words_per=1)
    ex2 = apply_span_masking(ex, cfg, np.random.default_rng(0))
    assert int((ex2.mlm_labels != IGNORE).sum()) <= 1


def test_spans_stay_within_sentences():
    cfg = RunConfig(vocab_size=V)
    r = np.random.default_rng(29)
    ends_reached = 0
    for i in range(2000):
        ex = make_example(n_sents=4, words_per=3, seed=i)
        masked = apply_span_masking(ex, cfg, r)
        for pos in np.flatnonzero(masked.mlm_labels != IGNORE):
            ok = any(start <= pos < end for _, start, end in ex.sentence_spans)
            assert ok
            ends_reached += any(pos == end - 1
                                for _, _, end in ex.sentence_spans)
    # three-word sentences: many spans run into a sentence's end
    assert ends_reached > 1000


def test_invalid_config_rejected():
    """The recipe is fixed: each of its former keys is an unknown key."""
    for pair in ("p_geom=0.0", "max_span=5", "mask_rate=0.5",
                 "replace_mask=0.5", "replace_random=0.1",
                 "replace_keep=0.1"):
        with pytest.raises(ContractError, match="unknown config key"):
            resolve_config(overrides=[pair])


def reference_masking(ex, vocab_size, rng):
    """Span masking with a per-position sentence dict and a set of
    selected positions, the recipe's values written out and the span
    table rebuilt for every span: the oracle the array version must
    match draw for draw. Returns (token_ids, mlm_labels)."""
    def span_length():
        k = np.arange(1, 4)
        w = 0.2 * (1 - 0.2) ** (k - 1)
        u = rng.random()
        acc = 0.0
        for i, p in enumerate(w / w.sum()):
            acc += p
            if u < acc:
                return i + 1
        return 3

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
        return tokens, labels
    budget = int(round(0.15 * eligible))
    selected = set()
    attempts = 0
    while len(selected) < budget and attempts < 20 * eligible + 100:
        attempts += 1
        length = span_length()
        start = word_positions[int(rng.integers(0, eligible))]
        sent_end = ex.sentence_spans[sentence_of[start]][2]
        span = range(start, min(start + length, sent_end))
        if any(p in selected for p in span):
            continue
        selected.update(span)
    for p in sorted(selected):
        labels[p] = ex.token_ids[p]
        u = rng.random()
        if u < 0.8:
            tokens[p] = MASK
        elif u < 0.8 + 0.1:
            tokens[p] = int(rng.integers(NUM_SPECIALS, vocab_size))
    return tokens, labels


def test_matches_the_reference_draw_for_draw():
    r = np.random.default_rng(31)
    checked = zero_words = single_words = 0
    for i in range(3000):
        vocab_size = int(r.integers(NUM_SPECIALS + 1, 200))
        doc = random_document(r, n_sents=int(r.integers(1, 9)),
                              max_words=int(r.integers(1, 8)),
                              vocab_size=vocab_size)
        ex = pack_example(doc, 64, 8, r, use_sentence_tokens=bool(i % 2))
        if i % 50 == 0:     # every sentence emptied: no word to mask
            ex = replace(ex, sentence_spans=[
                (sent_pos, start, start)
                for sent_pos, start, _ in ex.sentence_spans])
        zero_words += all(s == e for _, s, e in ex.sentence_spans)
        single_words += any(e - s == 1 for _, s, e in ex.sentence_spans)
        got_rng, want_rng = (np.random.default_rng([i, 7]) for _ in range(2))
        got = apply_span_masking(ex, RunConfig(vocab_size=vocab_size),
                                 got_rng)
        tokens, labels = reference_masking(ex, vocab_size, want_rng)
        assert np.array_equal(got.token_ids, tokens), i
        assert np.array_equal(got.mlm_labels, labels), i
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        checked += 1
    assert checked == 3000 and zero_words >= 60 and single_words > 300
