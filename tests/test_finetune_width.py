"""Fine-tuning and pretraining encode each batch at its longest real
sequence, and classification fine-tuning runs the last encoder layer at
the feature rows only.

Each check runs one optimizer step (or one pretraining forward and
backward) twice on a float64 model and a batch of mixed lengths: once
as shipped (trimmed to ``max(attention_len)``) and once with the
encoder replaced by the full-``seq_len`` oracle
``util.encode_full_length``. The loss and every parameter gradient must
agree to float64 round-off. Classification fine-tuning is also checked
against ``util.encode_all_rows``, which runs every row through the last
layer. Dropout is off because its masks are drawn per position, so the
two widths draw different masks: every dropout draws the masks of the
rows it computes, and the row-selected last layer those of its rows
only, which a counting rng checks.
"""
import math

import numpy as np
import pytest

import util
from slm import encoder, heads, objectives
from slm import tensor as T
from slm.heads import finetune_cls, finetune_qa, pack_pair, pack_qa
from slm.objectives import equal_n_groups, pretrain_bundle, read_rows
from slm.shuffling import apply_shuffle, sample_permutation
from slm.textpipe import SPECIAL_TOKENS, Vocab

from util import (build_params, encode_all_rows, encode_full_length,
                  masked_example, small_config)

WORDS = ["the", "cat", "sat", "dog", "ran", "fast", "sun", "rose", "red",
         "blue", "one", "two", "bird", "flew", "home", "now"]


def setup():
    vocab = Vocab(SPECIAL_TOKENS + WORDS)
    cfg = small_config(vocab_size=len(vocab.id_to_token), seq_len=48,
                       batch_size=4)
    return vocab, cfg


def fresh_params(cfg):
    # each run needs its own: the fine-tuning loops update them in place
    return build_params(cfg, seed=11, dtype=np.float64)


def one_step(monkeypatch, run, stand_in=None):
    """Run one fine-tuning step, with ``stand_in`` in place of
    ``heads.encode_batch`` if given; return (encoder widths, loss, grads).

    The width is that of the embedded input, since classification asks
    the encoder for its feature rows only."""
    widths, losses, grads = [], [], {}
    backward, clip, embed = (heads.backward, heads.clip_global_norm,
                             encoder.embed)

    def spy_embed(*args, **kwargs):
        h0 = embed(*args, **kwargs)
        widths.append(h0.shape[1])
        return h0

    def spy_backward(loss):
        losses.append(float(loss.data))
        return backward(loss)

    def spy_clip(params):
        grads.update({n: p.grad.copy() for n, p in params.items()
                      if p.grad is not None})
        return clip(params)

    with monkeypatch.context() as m:
        if stand_in:
            m.setattr(heads, "encode_batch", stand_in)
        m.setattr(encoder, "embed", spy_embed)
        m.setattr(util, "embed", spy_embed)
        m.setattr(heads, "backward", spy_backward)
        m.setattr(heads, "clip_global_norm", spy_clip)
        run()
    return widths, losses, grads


def assert_same_step(trim, full, lengths, seq_len):
    """Compare (widths, loss, grads) of a trimmed and a full-width run."""
    assert len(set(lengths)) > 1
    assert max(lengths) < seq_len
    assert trim[0] == [max(lengths)] and full[0] == [seq_len]
    np.testing.assert_allclose(trim[1], full[1], rtol=0, atol=1e-10)
    assert set(trim[2]) == set(full[2]) and full[2]
    for name, grad in full[2].items():
        np.testing.assert_allclose(trim[2][name], grad, rtol=0, atol=1e-10,
                                   err_msg=name)


def assert_finetune_step(monkeypatch, make_run, examples, seq_len):
    assert_same_step(one_step(monkeypatch, make_run()),
                     one_step(monkeypatch, make_run(),
                              stand_in=encode_full_length),
                     [ex.packed.attention_len for ex in examples], seq_len)


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
def test_finetune_cls_step_matches_full_width(monkeypatch, pair):
    vocab, cfg = setup()
    texts = [("the cat sat", "the dog ran fast now"),
             ("one red sun rose. the bird flew home now.", "two"),
             ("blue", "the cat sat home. one dog ran."),
             ("the sun rose fast", "red bird")]
    examples = []
    for i, (a, b) in enumerate(texts):
        ex = pack_pair(a, b if pair else None, vocab, cfg)
        ex.label = float(i % 3)
        examples.append(ex)

    def make_run():
        params = fresh_params(cfg)
        return lambda: finetune_cls(params, cfg, examples, 3, steps=1, seed=4)

    assert_finetune_step(monkeypatch, make_run, examples, cfg.seq_len)


@pytest.mark.parametrize("reps", [True, False], ids=["reps", "no-reps"])
@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
@pytest.mark.parametrize("layers", [0, 1, 2])
def test_finetune_cls_step_matches_every_row_encode(monkeypatch, layers,
                                                     pair, reps):
    """Classification fine-tuning runs the last layer at the feature rows
    only: [CLS] and one [SENT] per text, or [CLS] alone without sentence
    representations, which encodes two rows. On random batches of mixed
    widths, the loss and every gradient equal those of the path that runs
    every row through every layer and then keeps the feature rows."""
    vocab = Vocab(SPECIAL_TOKENS + WORDS)
    rng = np.random.default_rng(100 * layers + 10 * pair + reps)

    def text():
        return " ".join(
            " ".join(rng.choice(WORDS, size=int(rng.integers(1, 5)))) + "."
            for _ in range(int(rng.integers(1, 4))))

    compared = 0
    for trial in range(3):
        cfg = small_config(vocab_size=len(vocab.id_to_token), seq_len=48,
                           encoder_layers=layers, sentence_reps_enabled=reps,
                           sr_enabled=reps,
                           batch_size=int(rng.integers(2, 6)))
        examples = []
        for i in range(cfg.batch_size):
            ex = pack_pair(text(), text() if pair else None, vocab, cfg)
            ex.label = float(i % 3)
            examples.append(ex)
        lengths = [ex.packed.attention_len for ex in examples]
        if len(set(lengths)) == 1:
            continue

        def make_run():
            params = fresh_params(cfg)
            return lambda: finetune_cls(params, cfg, examples, 3, steps=1,
                                        seed=trial)

        rows = one_step(monkeypatch, make_run())
        every = one_step(monkeypatch, make_run(), stand_in=encode_all_rows)
        assert rows[0] == every[0] == [max(lengths)]
        np.testing.assert_allclose(rows[1], every[1], rtol=0, atol=1e-10)
        assert set(rows[2]) == set(every[2])
        assert {"cls.w", "cls.b"} <= set(every[2])
        if layers:
            assert f"enc.{layers - 1}.ffn.w1" in every[2]
        for name, grad in every[2].items():
            np.testing.assert_allclose(rows[2][name], grad, rtol=0,
                                       atol=1e-10, err_msg=name)
        compared += 1
    assert compared


def test_finetune_cls_step_at_the_tiny_profile_is_the_every_row_encode(
        monkeypatch):
    """The tiny profile, dropout off, two steps on sentence pairs of mixed
    widths: the losses and every gradient of the last step equal those
    of the every-row encode, bit for bit."""
    from dataclasses import replace

    from slm.config import resolve_config

    vocab = Vocab(SPECIAL_TOKENS + WORDS)
    cfg = replace(resolve_config("tiny"), vocab_size=len(vocab.id_to_token),
                  batch_size=4, dropout=0.0).validate()
    assert cfg.hidden == 64
    rng = np.random.default_rng(6)

    def text():
        return " ".join(
            " ".join(rng.choice(WORDS, size=int(rng.integers(2, 7)))) + "."
            for _ in range(int(rng.integers(1, 5))))

    examples = []
    for i in range(cfg.batch_size):
        examples.append(pack_pair(text(), text(), vocab, cfg))
        examples[-1].label = float(i % 3)
    assert len({ex.packed.attention_len for ex in examples}) > 1

    def make_run():
        params = build_params(cfg, seed=7)
        return lambda: finetune_cls(params, cfg, examples, 3, steps=2, seed=8)

    rows = one_step(monkeypatch, make_run())
    every = one_step(monkeypatch, make_run(), stand_in=encode_all_rows)
    assert len(rows[1]) == 2 and rows[1] == every[1]
    assert rows[2].keys() == every[2].keys()
    assert "enc.1.ffn.w1" in every[2]
    for name, grad in every[2].items():
        np.testing.assert_array_equal(rows[2][name], grad, err_msg=name)


class CountingRng:
    """An rng that records how many raw 64-bit words each draw takes, in
    the one call every dropout makes (``tensor._keep_mask``'s
    ``bit_generator.random_raw``)."""

    def __init__(self, rng):
        self.rng, self.words = rng, []
        self.bit_generator = self

    def random_raw(self, size=None):
        self.words.append(size)
        return self.rng.bit_generator.random_raw(size)


def raw_words(shapes):
    """The raw words the masks of ``shapes`` take: ceil(n / 2) for n
    elements, one 32-bit lane each."""
    return [-(-math.prod(shape) // 2) for shape in shapes]


def encoder_draws(cfg, bsz, width, rows):
    """The dropout draws of an encode of ``bsz`` examples ``width``
    positions wide whose last layer runs at ``rows`` per example: the
    embedding's and, per layer, the attention probabilities' (its
    (example, head) slices in one block) and the two post-norms'."""
    h, nh = cfg.hidden, cfg.heads
    shapes = [(bsz, width, h)]
    for i in range(cfg.encoder_layers):
        r = rows if i == cfg.encoder_layers - 1 else width
        shapes += [(bsz * nh, r, width), (bsz, r, h), (bsz, r, h)]
    return shapes


@pytest.mark.parametrize("run", ["pretrain", "finetune-cls"])
def test_dropout_draws_exactly_the_masks_it_applies(monkeypatch, run):
    """Every dropout draws the lanes of the masks it applies, in the
    order the pass runs: the last encoder layer B * H * R * Lk for its
    attention and B * R * hidden for each post-norm, the other layers
    and each group's decoder layers their full shapes; each draw takes
    the raw words of its lanes and no more."""
    monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", 1 << 40)
    if run == "pretrain":
        cfg = small_config(decoder_layers=2, dropout=0.1)
        rng = np.random.default_rng(9)
        batch = [apply_shuffle(ex, sample_permutation(n, rng))
                 for n in (3, 1, 3, 2)
                 for ex in [masked_example(cfg, rng, n_sents=n)]]
        drop = CountingRng(np.random.default_rng(10))
        pretrain_bundle(build_params(cfg), cfg, batch, drop)
        rows, _ = read_rows(cfg, batch)
        width = max(ex.attention_len for ex in batch)
        want = encoder_draws(cfg, len(batch), width, rows.shape[1])
        for idx in equal_n_groups(batch):
            k, n = len(idx), batch[idx[0]].num_sentences + 1
            want += [(k * cfg.heads, n, n), (k, n, cfg.hidden),
                     (k * cfg.heads, n, n + 1), (k, n, cfg.hidden),
                     (k, n, cfg.hidden)] * cfg.decoder_layers
    else:
        vocab = Vocab(SPECIAL_TOKENS + WORDS)
        cfg = small_config(vocab_size=len(vocab.id_to_token), seq_len=48,
                           batch_size=3, dropout=0.1)
        examples = [pack_pair(a, b, vocab, cfg) for a, b in (
            ("the cat sat. the dog ran fast.", "one red sun rose"),
            ("blue", "the bird flew home now"),
            ("two birds", "the sun rose. the cat sat. one dog ran."))]
        for i, ex in enumerate(examples):
            ex.label = float(i % 2)
        draws = []

        def counting(params, cfg, batch, rng=None, training=False, *,
                     rows=None):
            draws.append(CountingRng(rng))
            return encoder.encode_batch(params, cfg, batch, draws[-1],
                                        training, rows=rows)

        monkeypatch.setattr(heads, "encode_batch", counting)
        finetune_cls(build_params(cfg), cfg, examples, 2, steps=1)
        drop = draws[0]
        rows = heads.feature_rows(examples)
        assert rows.shape[1] == 3
        width = max(ex.packed.attention_len for ex in examples)
        want = encoder_draws(cfg, len(examples), width, rows.shape[1])
    assert rows.shape[1] < width
    assert drop.words == raw_words(want)


def test_finetune_qa_step_matches_full_width(monkeypatch):
    vocab, cfg = setup()
    data = [("the cat sat. the dog ran.", "the cat", 1, 1),
            ("the sun rose. the bird flew home now. one red sun.",
             "the sun", 4, 6),
            ("red sun home.", "red sun", 2, 2),
            ("blue bird now. the cat sat fast.", "the cat", 3, 5)]
    examples = [pack_qa(c, q, s, e, vocab, cfg) for c, q, s, e in data]

    def make_run():
        params = fresh_params(cfg)
        return lambda: finetune_qa(params, cfg, examples, steps=1, seed=4)

    assert_finetune_step(monkeypatch, make_run, examples, cfg.seq_len)


def test_pretraining_step_matches_full_width(monkeypatch):
    cfg = small_config(seq_len=48)
    rng = np.random.default_rng(5)
    batch = []
    for n in (1, 2, 4):
        ex = masked_example(cfg, rng, n_sents=n)
        batch.append(apply_shuffle(ex, sample_permutation(n, rng)))

    def run(encode):
        params = build_params(cfg, seed=2, dtype=np.float64)
        for p in params.values():
            p.requires_grad = True
        widths, embed = [], encoder.embed

        # the embedded width, since pretraining asks the encoder for the
        # rows its losses read
        def spy_embed(*args, **kwargs):
            h0 = embed(*args, **kwargs)
            widths.append(h0.shape[1])
            return h0

        with monkeypatch.context() as m:
            m.setattr(objectives, "encode_batch", encode)
            m.setattr(encoder, "embed", spy_embed)
            m.setattr(util, "embed", spy_embed)
            bundle = pretrain_bundle(params, cfg, batch,
                                     np.random.default_rng(0))
        T.backward(bundle.loss)
        grads = {n: p.grad for n, p in params.items() if p.grad is not None}
        return widths, float(bundle.loss.data), grads

    assert_same_step(run(objectives.encode_batch), run(encode_full_length),
                     [ex.attention_len for ex in batch], cfg.seq_len)


def loop_best_span(start_logits, end_logits, max_answer_len):
    """The original scan: first pair with strictly the highest score."""
    best, pair = -np.inf, (0, 0)
    for i in range(len(start_logits)):
        j_hi = min(len(end_logits), i + max_answer_len)
        for j in range(i, j_hi):
            score = start_logits[i] + end_logits[j]
            if score > best:
                best, pair = score, (i, j)
    return pair


def test_best_span_picks_the_loop_pair_including_ties():
    rng = np.random.default_rng(0)
    for trial in range(3000):
        n = int(rng.integers(0, 14))
        window = int(rng.integers(-1, 16))
        dtype = (np.float32, np.float64)[trial % 2]
        if trial % 3 == 0:  # few distinct values: many tied pairs
            s, e = rng.integers(-2, 3, size=(2, n)).astype(dtype)
        else:
            s, e = rng.normal(size=(2, n)).astype(dtype)
        if trial % 5 == 0 and n:
            e[rng.integers(n)] = -np.inf
        if trial % 7 == 0 and n:
            s[rng.integers(n)] = np.nan
        assert heads.best_span(s, e, window) == loop_best_span(s, e, window)
    assert heads.best_span(np.full(3, -np.inf), np.zeros(3), 5) == (0, 0)
