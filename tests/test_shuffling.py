import numpy as np
import pytest

from slm.errors import ContractError
from slm.shuffling import (apply_shuffle, batch_shuffle_mask, identity_record,
                           order_targets, sample_permutation,
                           summary_positions)
from slm.textpipe import Document, pack_example


def rng(seed=0):
    return np.random.default_rng(seed)


def example(sent_lens, seq_len=32, m=8, seed=0):
    doc = Document([[10 + i] * n for i, n in enumerate(sent_lens)])
    return pack_example(doc, seq_len, m, rng(seed))


# -- permutation sampling ---------------------------------------------------

def test_single_sentence_identity():
    assert sample_permutation(1, rng()).tolist() == [0]


def test_two_sentences_near_half_swap():
    r = rng(1)
    swaps = sum(sample_permutation(2, r)[0] == 1 for _ in range(10_000))
    assert abs(swaps / 10_000 - 0.5) < 0.02


def test_permutations_are_bijections():
    r = rng(2)
    for _ in range(300):
        n = int(r.integers(1, 20))
        p = sample_permutation(n, r)
        assert sorted(p.tolist()) == list(range(n))


# -- order targets ------------------------------------------------------------

def test_targets_swap_spec_example():
    assert order_targets(np.array([1, 0]), 2).tolist() == [2, 1, 3]


def test_targets_identity():
    assert order_targets(np.arange(3), 3).tolist() == [1, 2, 3, 4]


def test_targets_terminal_always_sep():
    r = rng(3)
    for _ in range(50):
        n = int(r.integers(1, 12))
        t = order_targets(sample_permutation(n, r), n)
        assert t[-1] == n + 1
        assert 0 not in t  # row 0 is [CLS], never a valid target


def test_targets_reject_non_permutation():
    with pytest.raises(ContractError):
        order_targets(np.array([0, 0]), 2)


# -- applying a shuffle ------------------------------------------------------

def test_paper_swap_positions():
    # memory sentences of lengths 3 and 4 counting [SENT]; after the swap
    # the first-in-memory sentence occupies the later slot (positions 5-7)
    ex = example([2, 3], seq_len=12)
    sh = apply_shuffle(ex, np.array([1, 0]))
    s0_first, _, s0_end = ex.sentence_spans[0]
    s1_first, _, s1_end = ex.sentence_spans[1]
    assert sh.position_ids[s0_first:s0_end].tolist() == [5, 6, 7]
    assert sh.position_ids[s1_first:s1_end].tolist() == [1, 2, 3, 4]
    assert sh.position_ids[0] == 0
    assert sh.position_ids[ex.attention_len - 1] == ex.attention_len - 1


def test_identity_perm_changes_nothing():
    ex = example([3, 2, 4])
    sh = apply_shuffle(ex, np.arange(3))
    np.testing.assert_array_equal(sh.position_ids, ex.position_ids)
    np.testing.assert_array_equal(sh.sentence_ids, ex.sentence_ids)


def test_tokens_never_move():
    ex = example([3, 2, 4])
    r = rng(5)
    for _ in range(20):
        sh = apply_shuffle(ex, sample_permutation(3, r))
        np.testing.assert_array_equal(sh.token_ids, ex.token_ids)


def test_position_multiset_conserved():
    r = rng(7)
    for _ in range(100):
        lens = [int(x) for x in r.integers(1, 5, size=r.integers(1, 6))]
        ex = example(lens, seq_len=48)
        sh = apply_shuffle(ex, sample_permutation(ex.num_sentences, r))
        got = sorted(sh.position_ids[:ex.attention_len].tolist())
        assert got == list(range(ex.attention_len))


def test_sentence_ids_take_slot_index():
    ex = example([2, 2, 2])
    sh = apply_shuffle(ex, np.array([2, 0, 1]))
    for s, (sent_pos, start, end) in enumerate(ex.sentence_spans):
        assert set(sh.sentence_ids[sent_pos:end].tolist()) == {[2, 0, 1][s]}


def test_summary_rows_follow_display_order():
    ex = example([2, 3, 1])
    sh = apply_shuffle(ex, np.array([2, 0, 1]))
    rows = summary_positions(sh)
    # slot 0 shows sentence 1, slot 1 shows sentence 2, slot 2 sentence 0
    assert rows.tolist() == [0, ex.sentence_spans[1][0], ex.sentence_spans[2][0],
                             ex.sentence_spans[0][0], ex.attention_len - 1]
    ident = summary_positions(identity_record(ex))
    assert ident.tolist() == [0] + [sp[0] for sp in ex.sentence_spans] + [
        ex.attention_len - 1]


def test_oracle_decoder_recovers_original_order():
    # a scorer that can read sentence identity off C rows must be able to
    # reproduce the original order by following the targets
    r = rng(11)
    for _ in range(50):
        n = int(r.integers(1, 9))
        ex = example([2] * n, seq_len=64)
        perm = sample_permutation(n, r)
        sh = apply_shuffle(ex, perm)
        rows = summary_positions(sh)
        targets = order_targets(sh.perm, n)
        # C row k+1 holds the sentence displayed in slot k; an oracle
        # following targets reads out original sentences 0..n-1
        occupant = np.empty(n, dtype=int)
        occupant[perm] = np.arange(n)
        decoded = [occupant[t - 1] for t in targets[:n]]
        assert decoded == list(range(n))
        # and the row the target points at is that sentence's [SENT]
        for i, t in enumerate(targets[:n]):
            assert rows[t] == ex.sentence_spans[i][0]


def test_apply_shuffle_rejects_bad_perm():
    """apply_shuffle and order_targets refuse a bad perm alike."""
    ex = example([2, 2])
    for bad in ([0, 2], [0, 0], [1, 0, 2]):
        with pytest.raises(ContractError) as shuffled:
            apply_shuffle(ex, np.array(bad))
        with pytest.raises(ContractError) as targeted:
            order_targets(np.array(bad), 2)
        assert str(shuffled.value) == str(targeted.value) == (
            "perm must be a permutation of 0..n-1")


def test_apply_shuffle_refuses_an_example_without_markers():
    doc = Document([[10, 11], [12]])
    ex = pack_example(doc, 32, 8, rng(), use_sentence_tokens=False)
    with pytest.raises(ContractError) as shuffled:
        apply_shuffle(ex, np.array([1, 0]))
    with pytest.raises(ContractError) as summarised:
        summary_positions(ex)
    assert str(shuffled.value) == str(summarised.value) == (
        "example was packed without sentence tokens")


# -- batch gate ---------------------------------------------------------------

def test_batch_mask_extremes():
    r = rng(13)
    assert not any(batch_shuffle_mask(0.0, r) for _ in range(100))
    assert all(batch_shuffle_mask(1.0, r) for _ in range(100))


def test_batch_mask_half_within_3_sigma():
    r = rng(17)
    hits = sum(batch_shuffle_mask(0.5, r) for _ in range(10_000))
    sigma = (10_000 * 0.25) ** 0.5
    assert abs(hits - 5000) <= 3 * sigma
