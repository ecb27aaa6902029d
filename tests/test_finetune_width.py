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
two widths draw different masks. The row-selected last layer draws the
masks of every row and keeps the selected rows' bits, so at the tiny
profile a classification step with dropout on equals the every-row
encode's bit for bit.
"""
import numpy as np
import pytest

import util
from slm import encoder, heads, objectives
from slm import tensor as T
from slm.heads import finetune_cls, finetune_qa, pack_pair, pack_qa
from slm.objectives import pretrain_bundle
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


def test_finetune_cls_step_with_dropout_is_the_every_row_encode_bit_for_bit(
        monkeypatch):
    """The tiny profile, dropout on, two steps on sentence pairs of mixed
    widths: the losses and every gradient of the last step equal those
    of the every-row encode, bit for bit."""
    from dataclasses import replace

    from slm.config import resolve_config

    vocab = Vocab(SPECIAL_TOKENS + WORDS)
    cfg = replace(resolve_config("tiny"), vocab_size=len(vocab.id_to_token),
                  batch_size=4).validate()
    assert cfg.dropout > 0 and cfg.hidden == 64
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
