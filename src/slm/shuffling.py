"""Sentence shuffling without moving tokens.

A permutation assigns each memory sentence s to a display slot perm[s].
Tokens stay where they are; the model perceives the rearrangement only
through its embeddings. Each sentence receives the consecutive position
ids its slot occupies in the rearranged sequence and its slot as
sentence id, so nothing reveals the original order.

Reconstruction targets index the candidate matrix C, whose rows follow
the display order: row 0 is [CLS], row k+1 is the sentence shown in
slot k, the last row is [SEP]. The sentence originally at position i
sits in slot perm[i], hence target perm[i] + 1; the final step targets
[SEP]. Physically reordering the sentence blocks in memory and
numbering positions sequentially is the equivalent formulation, and the
two must produce identical losses. A shuffled example records only
``perm``; its targets are ``order_targets(perm, N)``.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ContractError
from .textpipe import PackedExample


def sample_permutation(n: int, rng) -> np.ndarray:
    """Uniform permutation of {0..n-1}; n=1 gives the identity."""
    if n < 1:
        raise ContractError("need at least one sentence to permute")
    return rng.permutation(n)


def _check_perm(perm, n: int) -> np.ndarray:
    """``perm`` as an array, which must be a permutation of 0..n-1."""
    perm = np.asarray(perm)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ContractError("perm must be a permutation of 0..n-1")
    return perm


def order_targets(perm: np.ndarray, n: int) -> np.ndarray:
    """Pointer targets per reconstruction step, 1-based into C.

    targets[i] = slot of the sentence originally at position i, shifted
    past the leading [CLS] row; targets[n] points at the [SEP] row n+1.
    Pointing a step at row 0 ([CLS]) is never correct.
    """
    perm = _check_perm(perm, n)
    targets = np.empty(n + 1, dtype=np.int64)
    targets[:n] = perm + 1
    targets[n] = n + 1
    return targets


def apply_shuffle(ex: PackedExample, perm: np.ndarray) -> PackedExample:
    """Re-identify an example's sentences according to ``perm``.

    Token memory (and MLM labels) never move. [CLS] keeps position 0
    and [SEP] its final position. Each sentence moves with its [SENT]
    marker, so an example packed without markers is refused.
    """
    perm = _check_perm(perm, ex.num_sentences)
    ends = np.array([end for _, _, end in ex.sentence_spans], dtype=np.int64)
    lengths = ends - _sentence_markers(ex)     # [SENT] and words
    slot_lengths = np.empty_like(lengths)
    slot_lengths[perm] = lengths
    # slot k starts after [CLS] and the sentences shown in slots before k
    slot_starts = 1 + np.cumsum(slot_lengths) - slot_lengths

    position_ids = ex.position_ids.copy()
    sentence_ids = ex.sentence_ids.copy()
    for s, (first, _, end) in enumerate(ex.sentence_spans):
        start = slot_starts[perm[s]]
        position_ids[first:end] = np.arange(start, start + lengths[s])
        sentence_ids[first:end] = perm[s]
    return replace(ex, position_ids=position_ids, sentence_ids=sentence_ids,
                   perm=perm.copy())


def _sentence_markers(ex: PackedExample) -> np.ndarray:
    """Position of each sentence's [SENT] marker, in sentence order."""
    markers = np.array([sp[0] for sp in ex.sentence_spans], dtype=np.int64)
    if np.any(markers < 0):
        raise ContractError("example was packed without sentence tokens")
    return markers


def identity_record(ex: PackedExample) -> PackedExample:
    """Unshuffled view: the identity permutation, targets still defined."""
    return apply_shuffle(ex, np.arange(ex.num_sentences))


def batch_shuffle_mask(fraction: float, rng) -> bool:
    """Seeded Bernoulli(fraction) decision for one batch; the caller's
    rng stream encodes the batch; RunConfig.validate checks the range."""
    return bool(rng.random() < fraction)


def summary_positions(ex: PackedExample) -> np.ndarray:
    """Row positions of [CLS], slot-ordered [SENT] markers, and [SEP].

    Slot k's marker is the [SENT] of the sentence with perm[s] = k; an
    unshuffled example yields memory order.
    """
    perm = ex.perm if ex.perm is not None else np.arange(ex.num_sentences)
    occupant = np.argsort(perm)     # the sentence shown in each slot
    return np.concatenate(
        [[0], _sentence_markers(ex)[occupant], [ex.attention_len - 1]])
