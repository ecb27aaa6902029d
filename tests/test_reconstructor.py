import numpy as np
import pytest

from slm import reconstructor
from slm import tensor as T
from slm.errors import ContractError
from slm.reconstructor import (causal_bias, decode_sequence, decoder_stack,
                               greedy_unshuffle, pointer_logits, pointer_nll)
from slm.shuffling import apply_shuffle, order_targets, sample_permutation
from slm.tensor import Tensor, grad_check

from util import build_params, masked_example, small_config


def rand_c(n, hidden=16, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(1, n + 2, hidden)).astype(dtype))


def test_decode_n1_gives_two_steps():
    cfg = small_config()
    params = build_params(cfg)
    c = rand_c(1, cfg.hidden)
    w = decode_sequence(params, cfg, c, order_targets(np.array([0]), 1)[None])
    assert w.shape == (1, 2, cfg.hidden)


def test_zero_layer_decoder_returns_inputs():
    cfg = small_config(decoder_layers=0)
    params = build_params(cfg)
    c = rand_c(3, cfg.hidden, seed=1)
    targets = order_targets(np.array([2, 0, 1]), 3)
    w = decode_sequence(params, cfg, c, targets[None])
    expect = c.data[0][np.concatenate([[0], targets[:3]])]
    np.testing.assert_array_equal(w.data[0], expect)


def test_causal_mask_blocks_future_inputs():
    # with cross-attention output projection zeroed, step i may depend
    # only on decoder inputs 0..i; perturbing the row that enters at a
    # later step must leave earlier outputs bitwise unchanged
    cfg = small_config(decoder_layers=1)
    params = build_params(cfg)
    params["dec.0.cross.wo"].data[:] = 0.0
    params["dec.0.cross.bo"].data[:] = 0.0
    n = 3
    targets = order_targets(np.array([1, 2, 0]), n)
    c1 = rand_c(n, cfg.hidden, seed=2)
    c2 = Tensor(c1.data.copy())
    late_row = targets[n - 1]  # enters the input sequence at step n only
    c2.data[0, late_row] += 1.0
    w1 = decode_sequence(params, cfg, c1, targets[None])
    w2 = decode_sequence(params, cfg, c2, targets[None])
    np.testing.assert_array_equal(w1.data[0, :n], w2.data[0, :n])
    assert not np.allclose(w1.data[0, n], w2.data[0, n])


def test_pointer_uniform_when_c_is_zero():
    cfg = small_config()
    c = Tensor(np.zeros((1, 4, cfg.hidden), dtype=np.float32))
    w = Tensor(np.random.default_rng(0).normal(size=(1, 3, cfg.hidden)).astype(np.float32))
    np.testing.assert_array_equal(pointer_logits(w, c).data,
                                  np.zeros((1, 3, 4)))
    loss = pointer_nll(w, c, np.array([[1, 2, 3]]))
    assert loss.shape == (1,)
    np.testing.assert_allclose(loss.data, np.log(4.0), atol=1e-6)


def test_pointer_scores_match_numpy_oracle():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(1, 3, 8)).astype(np.float32))
    c = Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32))
    targets = np.array([2, 1, 3])
    logits = pointer_logits(w, c).data[0]
    assert pointer_logits(w, c).shape == (1, 3, 4)
    np.testing.assert_allclose(logits, w.data[0] @ c.data[0].T, atol=1e-6)
    x = logits.astype(np.float64)
    logp = x - x.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    want = -logp[np.arange(3), targets].mean()
    got = float(pointer_nll(w, c, targets[None]).data[0])
    np.testing.assert_allclose(got, want, atol=1e-6)


def eye_c(n_plus_2, dtype=np.float64):
    """An identity C: ``pointer_logits(w, eye_c(k))`` is exactly ``w``'s
    rows, so a test can hand ``pointer_nll`` the logits it wants."""
    return Tensor(np.eye(n_plus_2, dtype=dtype)[None])


# the SLM loss below is pointer_nll, the training objective on logits
def test_slm_loss_perfect_prediction_is_zero():
    logits = np.array([[0.0, 50.0, 0.0], [0.0, 0.0, 50.0]], dtype=np.float32)
    loss = pointer_nll(Tensor(logits[None]), eye_c(3, np.float32),
                       np.array([[1, 2]]))
    np.testing.assert_allclose(loss.data, 0.0, atol=1e-7)


def test_slm_loss_uniform_n1_is_ln3():
    w = Tensor(np.zeros((1, 2, 3), dtype=np.float32))
    loss = pointer_nll(w, eye_c(3, np.float32), np.array([[1, 2]]))
    np.testing.assert_allclose(loss.data, np.log(3.0), atol=1e-6)


def test_slm_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        logits = rng.normal(scale=2.0, size=(n + 1, n + 2))
        targets = np.append(rng.integers(1, n + 2, size=n), n + 1)
        got = float(pointer_nll(Tensor(logits[None].astype(np.float32)),
                                eye_c(n + 2, np.float32),
                                targets[None]).data[0])
        acc = 0.0
        for i in range(n + 1):
            lse = np.log(np.exp(logits[i]).sum())
            for j in range(n + 2):
                if j == targets[i]:
                    acc -= logits[i, j] - lse
        np.testing.assert_allclose(got, acc / (n + 1), rtol=1e-5)


def test_slm_loss_rejects_cls_target():
    w = Tensor(np.zeros((1, 2, 3), dtype=np.float32))
    with pytest.raises(ContractError):
        pointer_nll(w, eye_c(3, np.float32), np.array([[0, 2]]))


def test_loss_invariant_under_candidate_reordering():
    # swapping two sentence rows of C while remapping targets must not
    # change the loss: the pointer reads content, not row position
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(11)
    c1 = rand_c(3, cfg.hidden, seed=12)
    targets1 = order_targets(np.array([1, 2, 0]), 3)
    swap = np.array([0, 2, 1, 3, 4])  # exchange candidate rows 1 and 2
    c2 = Tensor(c1.data[:, swap, :].copy())
    remap = np.argsort(swap)
    targets2 = remap[targets1]
    targets1, targets2 = targets1[None], targets2[None]
    l1 = pointer_nll(decode_sequence(params, cfg, c1, targets1), c1, targets1)
    l2 = pointer_nll(decode_sequence(params, cfg, c2, targets2), c2, targets2)
    np.testing.assert_allclose(l1.data, l2.data, atol=1e-6)


def test_full_loss_gradients_match_finite_differences():
    # miniature end-to-end check in float64; the acceptance suite runs
    # the profile-sized version
    cfg = small_config(encoder_layers=1, decoder_layers=1, hidden=8, ffn=16,
                       seq_len=16, vocab_size=20, heads=2, max_sentences=4)
    params = build_params(cfg, dtype=np.float64)
    rng = np.random.default_rng(13)
    ex = masked_example(cfg, rng, n_sents=2)
    ex = apply_shuffle(ex, sample_permutation(2, rng))

    from slm.objectives import pretrain_bundle

    def f():
        return pretrain_bundle(params, cfg, [ex]).loss

    # eps sits at the float64 central-difference sweet spot: larger
    # steps pick up curvature, smaller ones amplify roundoff against
    # near-zero gradient entries
    names = list(params)
    assert grad_check(f, [params[n] for n in names], eps=1e-4) < 1e-3


def test_grouped_loss_gradients_match_finite_differences():
    # a batch of two groups, N = 2 and N = 1, with the N = 2 examples on
    # both sides of the other: every decoder parameter reaches the
    # groups through fan_out views
    cfg = small_config(encoder_layers=1, decoder_layers=1, hidden=8, ffn=16,
                       seq_len=16, vocab_size=20, heads=2, max_sentences=4)
    params = build_params(cfg, dtype=np.float64)
    rng = np.random.default_rng(14)
    batch = []
    for n in (2, 1, 2):
        ex = masked_example(cfg, rng, n_sents=n)
        batch.append(apply_shuffle(ex, sample_permutation(n, rng)))

    from slm.objectives import pretrain_bundle

    def f():
        return pretrain_bundle(params, cfg, batch).loss

    assert grad_check(f, list(params.values()), eps=1e-4) < 1e-3


def test_greedy_unshuffle_single_sentence():
    cfg = small_config()
    params = build_params(cfg)
    c = rand_c(1, cfg.hidden, seed=14)
    assert greedy_unshuffle(params, cfg, c).tolist() == [0]


def test_greedy_unshuffle_outputs_permutations():
    cfg = small_config()
    params = build_params(cfg, seed=3)
    rng = np.random.default_rng(15)
    for i in range(40):
        n = int(rng.integers(1, 7))
        order = greedy_unshuffle(params, cfg, rand_c(n, cfg.hidden, seed=i))
        assert sorted(order.tolist()) == list(range(n))


def test_greedy_unshuffle_untrained_is_not_already_solved():
    # an untrained decoder has architectural biases, so it beats uniform
    # chance on the identity order; it must still be far from solving
    # the task, and it must not collapse to a single constant output
    cfg = small_config(decoder_layers=1)
    params = build_params(cfg, seed=5)
    hits = 0
    seen = set()
    trials = 300
    for i in range(trials):
        order = greedy_unshuffle(params, cfg, rand_c(4, cfg.hidden, seed=1000 + i))
        hits += order.tolist() == [0, 1, 2, 3]
        seen.add(tuple(order.tolist()))
    assert hits / trials < 0.6
    assert len(seen) > 3


def full_prefix_greedy(params, cfg, c):
    """Greedy decode of one document without a cache: every step re-runs
    the decoder over the whole fed-back prefix under a causal mask.
    Returns the order and the decoder's last output row of each step."""
    n = c.shape[1] - 2
    chosen, rows = [], []
    with T.no_grad():
        input_idx = [0]
        for _ in range(n):
            x = T.take(c.reshape(n + 2, -1), np.asarray(
                input_idx)).reshape(1, len(input_idx), -1)
            bias = causal_bias(len(input_idx), dtype=c.data.dtype)
            w = decoder_stack(params, cfg, x, c, bias)
            rows.append(w.data[0, -1])
            scores = w.data[0, -1] @ c.data[0].T
            scores[0] = -np.inf
            scores[chosen] = -np.inf
            pick = int(np.argmax(scores))
            if pick == n + 1:
                break
            chosen.append(pick)
            input_idx.append(pick)
    order = [row - 1 for row in chosen]
    order += [slot for slot in range(n) if slot not in order]
    return order, rows


def padded_batch(summaries, pad=None):
    """The summaries as one [B, W, hidden] batch, and their sentence
    counts. Rows past a document's own repeat its [CLS] row, or are
    those of ``pad`` if given."""
    counts = [s.shape[1] - 2 for s in summaries]
    width = max(counts) + 2
    if pad is None:
        pad = np.stack([np.repeat(s.data[0, :1], width, axis=0)
                        for s in summaries])
    batch = pad.copy()
    for b, s in enumerate(summaries):
        batch[b, :counts[b] + 2] = s.data[0]
    return Tensor(batch), counts


def recorded_decode(params, cfg, c, counts, monkeypatch):
    """The batch's orders, and the decoder's output rows of each step."""
    steps = []

    def recording(*args, **kwargs):
        w = decoder_stack(*args, **kwargs)
        steps.append(w.data[:, 0].copy())
        return w

    monkeypatch.setattr(reconstructor, "decoder_stack", recording)
    orders = greedy_unshuffle(params, cfg, c, counts)
    monkeypatch.undo()
    return orders, steps


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_cached_batch_decode_matches_full_prefix_oracle(layers, monkeypatch):
    cfg = small_config(decoder_layers=layers, max_sentences=20)
    params = build_params(cfg, seed=layers, dtype=np.float64)
    summaries = [rand_c(n, cfg.hidden, seed=30 + n, dtype=np.float64)
                 for n in (1, 20, 7, 2)]
    orders, steps = recorded_decode(params, cfg, *padded_batch(summaries),
                                    monkeypatch)
    lengths = []
    for b, c in enumerate(summaries):
        order, rows = full_prefix_greedy(params, cfg, c)
        assert orders[b].tolist() == order
        for t, row in enumerate(rows):
            np.testing.assert_allclose(steps[t][b], row, rtol=0, atol=1e-10)
        lengths.append(len(rows))
    # the batch runs until its longest document stops
    assert len(steps) == max(lengths)


@pytest.mark.parametrize("layers", [1, 2])
def test_pad_rows_of_the_batch_leave_the_decode_unchanged(layers, monkeypatch):
    # pad keys carry NEG_INF in cross-attention and pad candidates are
    # blocked, so even large finite pad rows weigh exactly nothing
    cfg = small_config(decoder_layers=layers, max_sentences=20)
    params = build_params(cfg, seed=10 + layers)
    summaries = [rand_c(n, cfg.hidden, seed=50 + n) for n in (3, 20, 1, 9)]
    c, counts = padded_batch(summaries)
    noise = np.random.default_rng(layers).uniform(-1e4, 1e4, size=c.shape)
    loud, _ = padded_batch(summaries, noise.astype(np.float32))
    orders, steps = recorded_decode(params, cfg, c, counts, monkeypatch)
    loud_orders, loud_steps = recorded_decode(params, cfg, loud, counts,
                                              monkeypatch)
    assert [o.tolist() for o in loud_orders] == [o.tolist() for o in orders]
    assert len(loud_steps) == len(steps)
    for quiet_rows, loud_rows in zip(steps, loud_steps):
        np.testing.assert_array_equal(loud_rows, quiet_rows)
