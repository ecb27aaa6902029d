import logging

import numpy as np
import pytest

from slm.encoder import encode_batch, extract_summary
from slm.masking import IGNORE
from slm.objectives import (_pointer_signals, equal_n_groups, mlm_loss,
                            pretrain_bundle, read_rows)
from slm.reconstructor import decode_sequence
from slm.shuffling import (apply_shuffle, identity_record, order_targets,
                           sample_permutation, summary_positions)
from slm.tensor import Tensor, backward

from util import build_params, masked_example, small_config


def bundle_inputs(cfg, seed=0, n_examples=2, shuffle=True):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_examples):
        ex = masked_example(cfg, rng, n_sents=3)
        if shuffle:
            ex = apply_shuffle(ex, sample_permutation(3, rng))
        else:
            ex = identity_record(ex)
        out.append(ex)
    return out


def test_mlm_uniform_logits_give_log_vocab():
    # zeroed token table and bias make every logit 0, so the loss is
    # exactly log V no matter which rows are labeled
    cfg = small_config()
    params = build_params(cfg)
    params["emb.token"].data[:] = 0.0
    rng = np.random.default_rng(1)
    ex = masked_example(cfg, rng)
    h = encode_batch(params, cfg, [ex])
    loss, count = mlm_loss(h, params, np.stack([ex.mlm_labels]))
    assert count == int((ex.mlm_labels != IGNORE).sum()) > 0
    np.testing.assert_allclose(float(loss.data), np.log(cfg.vocab_size),
                               rtol=1e-6)


def test_mlm_single_label_equals_row_cross_entropy():
    from slm import tensor as T
    cfg = small_config()
    params = build_params(cfg, seed=2)
    rng = np.random.default_rng(3)
    ex = masked_example(cfg, rng)
    labels = np.full_like(ex.token_ids, IGNORE)
    pos = int(np.flatnonzero(ex.mlm_labels != IGNORE)[0])
    labels[pos] = ex.mlm_labels[pos]
    h = encode_batch(params, cfg, [ex])
    loss, count = mlm_loss(h, params, np.stack([labels]))
    assert count == 1
    row = Tensor(h.data[0, pos])
    logits = T.matmul(row.reshape(1, -1),
                      params["emb.token"].swapaxes(0, 1)) + params["mlm.bias"]
    expect = T.cross_entropy(logits.reshape(-1), int(labels[pos]))
    np.testing.assert_allclose(float(loss.data), float(expect.data), rtol=1e-6)


def test_mlm_no_labels_returns_zero_and_warns(caplog):
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(4)
    ex = masked_example(cfg, rng)
    labels = np.full((1, cfg.seq_len), IGNORE)
    h = encode_batch(params, cfg, [ex])
    with caplog.at_level(logging.WARNING):
        loss, count = mlm_loss(h, params, labels)
    assert count == 0
    assert float(loss.data) == 0.0
    assert any("no labeled positions" in r.message for r in caplog.records)


def test_bundle_totals_are_consistent():
    cfg = small_config(sr_enabled=True)
    params = build_params(cfg, seed=5)
    bundle = pretrain_bundle(params, cfg, bundle_inputs(cfg, seed=6))
    assert bundle.total == np.float32(bundle.l_mlm) + np.float32(bundle.l_slm)
    assert bundle.l_slm > 0.0
    assert float(bundle.loss.data) == bundle.total


def test_sr_disabled_total_is_mlm_and_decoder_gets_no_gradient():
    cfg = small_config(sr_enabled=False)
    params = build_params(cfg, seed=7)
    for p in params.values():
        p.requires_grad = True
    bundle = pretrain_bundle(params, cfg, bundle_inputs(cfg, seed=8))
    assert bundle.l_slm == 0.0
    assert bundle.total == bundle.l_mlm
    assert np.isnan(bundle.pointer_acc) and np.isnan(bundle.pointer_entropy)
    assert np.isnan(bundle.pointer_self)
    backward(bundle.loss)
    for name, p in params.items():
        if name.startswith("dec."):
            assert p.grad is None or not np.any(p.grad), name
        if name.startswith("emb.token"):
            assert p.grad is not None and np.any(p.grad)


def test_gradient_splits_additively_across_heads():
    # linearity of backward: grad(mlm + slm) equals grad(mlm alone) plus
    # grad(slm alone); the lone terms come from switching the
    # reconstructor off and from stripping the word labels
    import dataclasses

    cfg = small_config(sr_enabled=True)
    examples = bundle_inputs(cfg, seed=9, n_examples=1)
    no_labels = [dataclasses.replace(ex, mlm_labels=None) for ex in examples]

    def grads(run_cfg, batch, warn_ok=False):
        params = build_params(cfg, seed=10)
        for p in params.values():
            p.requires_grad = True
        bundle = pretrain_bundle(params, run_cfg, batch)
        backward(bundle.loss)
        return {n: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for n, p in params.items()}

    g_total = grads(cfg, examples)
    g_mlm = grads(small_config(sr_enabled=False), examples)
    g_slm = grads(cfg, no_labels)

    for n in g_total:
        np.testing.assert_allclose(g_total[n], g_mlm[n] + g_slm[n],
                                   rtol=1e-4, atol=1e-6, err_msg=n)
    # word prediction never reaches the decoder
    for n in g_mlm:
        if n.startswith("dec."):
            np.testing.assert_array_equal(g_mlm[n], 0.0)


def test_initial_mlm_loss_near_log_vocab():
    cfg = small_config(vocab_size=200, seq_len=64, max_sentences=8)
    params = build_params(cfg, seed=11)
    rng = np.random.default_rng(12)
    examples = []
    for _ in range(8):
        ex = masked_example(cfg, rng, n_sents=4)
        examples.append(identity_record(ex))
    bundle = pretrain_bundle(params, cfg, examples)
    assert abs(bundle.l_mlm - np.log(cfg.vocab_size)) < 0.1 * np.log(cfg.vocab_size)


def test_unshuffled_batch_still_trains_pointer():
    # identity permutations keep the reconstruction term active with
    # targets 1..N then SEP, so a fraction-0 run still defines l_slm
    cfg = small_config(sr_enabled=True)
    params = build_params(cfg, seed=13)
    bundle = pretrain_bundle(params, cfg, bundle_inputs(cfg, seed=14, shuffle=False))
    assert bundle.l_slm > 0.0
    for ex in bundle_inputs(cfg, seed=14, shuffle=False):
        np.testing.assert_array_equal(
            order_targets(ex.perm, ex.num_sentences), [1, 2, 3, 4])


def test_no_grad_bundle_matches_graph_recording_bundle():
    """Under no_grad the encoder output is cut to the longest real row;
    the MLM labels follow it and the losses agree with the full pass."""
    from slm import tensor as T
    cfg = small_config()
    params = build_params(cfg, seed=2)
    rng = np.random.default_rng(9)
    batch = []
    for n in (1, 3, 2):
        ex = masked_example(cfg, rng, n_sents=n)
        batch.append(apply_shuffle(ex, sample_permutation(n, rng)))
    full = pretrain_bundle(params, cfg, batch)
    with T.no_grad():
        short = pretrain_bundle(params, cfg, batch)
    assert short.masked_count == full.masked_count
    np.testing.assert_allclose(short.l_mlm, full.l_mlm, atol=1e-5)
    np.testing.assert_allclose(short.l_slm, full.l_slm, atol=1e-5)


def direct_signals(w_rows, c_rows, targets):
    """Hits on the target, hits on the row fed in, and summed entropy of
    one example's pointer rows, row by row in float64."""
    hits = selfs = 0
    entropy = 0.0
    fed = [0] + list(targets[:-1])
    for row, target, fed_row in zip(w_rows, targets, fed):
        logits = c_rows.astype(np.float64) @ row.astype(np.float64)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        hits += int(np.argmax(logits)) == target
        selfs += int(np.argmax(logits)) == fed_row
        entropy -= sum(q * np.log(q) for q in p if q > 0)
    return hits, selfs, entropy


def test_pointer_signals_match_direct_numpy():
    """pointer_acc, pointer_self and pointer_entropy equal argmax hits
    on the target and on the row fed in, and entropy, taken by hand from
    each example's teacher-forced pointer rows; ``_pointer_signals``
    gives each example of a group its own figures."""
    cfg = small_config()
    params = build_params(cfg, seed=4, dtype=np.float64)
    rng = np.random.default_rng(21)
    batch = []
    for n in (1, 3, 2, 3, 1):
        ex = masked_example(cfg, rng, n_sents=n)
        batch.append(apply_shuffle(ex, sample_permutation(n, rng)))
    bundle = pretrain_bundle(params, cfg, batch)

    h = encode_batch(params, cfg, batch)
    hits, selfs, entropies, steps = 0, 0, [], 0
    for idx in equal_n_groups(batch):
        group = [batch[b] for b in idx]
        assert len({ex.num_sentences for ex in group}) == 1
        c = extract_summary(h, group, idx)
        targets = np.stack([order_targets(ex.perm, ex.num_sentences)
                            for ex in group])
        w = decode_sequence(params, cfg, c, targets)
        g_hits, g_selfs, g_entropy = _pointer_signals(w, c, targets)
        for j in range(len(idx)):
            want = direct_signals(w.data[j], c.data[j], targets[j])
            assert (g_hits[j], g_selfs[j]) == want[:2]
            assert g_entropy[j] == pytest.approx(want[2], rel=1e-9)
            hits += want[0]
            selfs += want[1]
            entropies.append(want[2])
        steps += targets.size
    assert steps == 15
    # an untrained pointer is saturated on a wrong row: no step hits
    assert bundle.pointer_acc == hits / steps == 0.0
    assert bundle.pointer_self == selfs / steps
    assert bundle.pointer_entropy == pytest.approx(sum(entropies) / steps,
                                                   rel=1e-9)


def test_pointer_signals_on_hand_built_rows():
    # example 0: step 0 is uniform over the four candidates (entropy
    # ln 4) and its argmax, row 0, misses; step 1 hits row 1; step 2
    # prefers row 2 over its target, row 3. The rows fed in are 0, 1 and
    # 1: steps 0 and 1 point at their own input, step 2 does not.
    # Example 1 has the same rows and targets 2, 3, 2: only step 2 hits,
    # and of the rows fed in (0, 2, 3) only step 0's is its argmax
    c = Tensor(np.array([[[0, 0], [1, 0], [0, 1], [-1, -1]]] * 2,
                        dtype=np.float32))
    w = Tensor(np.array([[[0, 0], [3, 0], [0, 3]]] * 2, dtype=np.float32))
    hits, self_hits, entropy = _pointer_signals(
        w, c, np.array([[1, 1, 3], [2, 3, 2]]))

    def h(logits):
        p = np.exp(logits) / np.exp(logits).sum()
        return -np.sum(p * np.log(p))
    assert list(hits) == [1, 1]
    assert list(self_hits) == [2, 1]
    want = np.log(4) + h(np.array([0, 3, 0, -3.0])) + h(np.array([0, 0, 3, -3.0]))
    assert entropy == [pytest.approx(want, rel=1e-12)] * 2


def per_example_bundle(params, cfg, examples, rng=None):
    """``pretrain_bundle`` with every group a single example, in example
    order: one summary gather, one decoder pass, one pointer
    cross-entropy and one pass of signals per example, the terms added
    in example order. The decoder runs on one-example ``fan_out`` views
    of its parameters, as the bundle's groups do, so its input gradients
    multiply by the stacks' transposed views. The encoder runs as the
    bundle runs it, at the rows its losses read. Returns the loss and
    the float fields a bundle reports."""
    from slm import tensor as T
    from slm.reconstructor import causal_bias, decoder_stack

    # the encode the bundle asks for: the last layer at the read rows
    rows, labels = read_rows(cfg, examples)
    h = encode_batch(params, cfg, examples, rng, rng is not None, rows=rows)
    l_mlm, _ = mlm_loss(h, params, labels)
    bsz, length, hidden = h.shape
    names = [name for name in params if name.startswith("dec.")]
    views = T.fan_out([params[name] for name in names],
                      [[b] for b in range(bsz)])
    per_example = []
    hits, self_hits, entropy, slm_steps = 0, 0, 0.0, 0
    for b, ex in enumerate(examples):
        n = ex.num_sentences
        targets = order_targets(ex.perm, n)
        at = [list(rows[b]).index(p) for p in summary_positions(ex)]
        c = T.take(h.reshape(bsz * length, hidden),
                   b * length + np.asarray(at)).reshape(1, n + 2, hidden)
        x = T.take(c.reshape(n + 2, hidden), np.concatenate(
            [[0], targets[:n]])).reshape(1, n + 1, hidden)
        w = decoder_stack({name: v[b] for name, v in zip(names, views)},
                          cfg, x, c, causal_bias(n + 1), rng)
        logits = T.matmul(w, c.swapaxes(-1, -2)).reshape(n + 1, n + 2)
        per_example.append(T.cross_entropy(logits, targets))
        slm_steps += len(targets)
        direct = np.matmul(w.data[0], c.data[0].T).astype(np.float64)
        shifted = direct - direct.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        best = direct.argmax(axis=1)
        hits += int(np.count_nonzero(best == targets))
        fed = np.concatenate([[0], targets[:-1]])
        self_hits += int(np.count_nonzero(best == fed))
        entropy += float(-(np.exp(logp) * logp).sum())
    acc = per_example[0]
    for term in per_example[1:]:
        acc = acc + term
    l_slm = T.mul(acc, 1.0 / len(per_example))
    loss = l_mlm + l_slm
    return loss, (float(l_slm.data), float(loss.data), hits / slm_steps,
                  entropy / slm_steps, self_hits / slm_steps)


def _assert_grouped_is_the_loop(params, cfg, micro):
    """The bundle and the per-example loop over ``micro``, gradients
    accumulated, give the same bytes and rng states."""
    def run(step):
        for p in params.values():
            p.grad = None
        drop = np.random.default_rng(32)
        seen = []
        for batch in micro:
            loss, fields = step(batch, drop)
            backward(loss)
            seen.append((loss.data.tobytes(), np.float64(fields).tobytes(),
                         [params[n].grad.tobytes() for n in sorted(params)],
                         drop.bit_generator.state))
        return seen

    def grouped(batch, drop):
        bundle = pretrain_bundle(params, cfg, batch, drop)
        return bundle.loss, (bundle.l_slm, bundle.total, bundle.pointer_acc,
                             bundle.pointer_entropy, bundle.pointer_self)

    got = run(grouped)
    want = run(lambda batch, drop: per_example_bundle(params, cfg, batch,
                                                      drop))
    for g, w in zip(got, want):
        assert g[0] == w[0]
        assert g[1] == w[1]
        bad = [n for n, a, b in zip(sorted(params), g[2], w[2]) if a != b]
        assert not bad
        assert g[3] == w[3]


def test_grouped_bundle_is_the_per_example_loop_bit_for_bit():
    """Two micro-batches, gradients accumulated over both: the grouped
    bundle and backward give the per-example loop's losses, pointer
    signals, every parameter gradient and dropout rng state, bit for
    bit. Without dropout the micro-batches mix N out of order; with
    dropout on each group is one example, in example order, so the
    groups draw the decoder's masks as the loop does."""
    for dropout, counts in ((0.0, ((3, 2, 3, 1, 2, 3, 4, 1),
                                   (4, 2, 4, 4, 1))),
                            (0.1, ((3, 1, 4, 2), (2, 4, 1)))):
        cfg = small_config(decoder_layers=2, dropout=dropout, accum_steps=2)
        params = build_params(cfg, seed=30)
        rng = np.random.default_rng(33)
        micro = []
        for sizes in counts:
            batch = []
            for n in sizes:
                ex = masked_example(cfg, rng, n_sents=n)
                batch.append(apply_shuffle(ex, sample_permutation(n, rng)))
            micro.append(batch)
        _assert_grouped_is_the_loop(params, cfg, micro)


def bundle_steps(params, cfg, micro, monkeypatch, full=False):
    """Each micro-batch's bundle and backward, given a dropout rng,
    gradients accumulated over the micro-batches. ``full`` stands a full encode
    followed by ``select_rows`` (``util.encode_all_rows``) in for the
    bundle's row-selected one. Returns, per micro-batch, the bundle's
    losses and pointer signals, every gradient and the rng's state."""
    import util
    from slm import objectives

    for p in params.values():
        p.requires_grad = True
        p.grad = None
    drop = np.random.default_rng(34)
    seen = []
    with monkeypatch.context() as m:
        if full:
            m.setattr(objectives, "encode_batch", util.encode_all_rows)
        for batch in micro:
            bundle = pretrain_bundle(params, cfg, batch, drop)
            backward(bundle.loss)
            seen.append((
                [bundle.loss.data, bundle.l_mlm, bundle.l_slm, bundle.total,
                 bundle.masked_count, bundle.pointer_acc,
                 bundle.pointer_entropy, bundle.pointer_self],
                {n: p.grad.copy() for n, p in params.items()},
                drop.bit_generator.state))
    return seen


def story_batches(long_docs: bool):
    """The tiny profile with dropout off and two micro-batches as training
    prepares them, of stories like the benchmark's, or at the long-docs
    shape of documents of five stories run together. Every fourth
    sentence loses its last word, which makes the batches' widths odd
    (49 and 233), a width where a product of a few rows can round
    unlike the full product's rows."""
    from dataclasses import replace

    from corpus_gen import corpus_assets
    from slm.config import resolve_config
    from slm.textpipe import Document
    from slm.trainer import pack_corpus, prepare_batch

    docs, _, vocab = corpus_assets(40, 1, 0)
    docs = [Document([s[:-1] if (k + j) % 4 == 0 else s
                      for j, s in enumerate(d.sentences)])
            for k, d in enumerate(docs)]
    cfg = replace(resolve_config("tiny"), vocab_size=len(vocab.id_to_token),
                  accum_steps=2, shuffle_fraction=1.0, dropout=0.0)
    if long_docs:
        cfg = replace(cfg, seq_len=256, max_sentences=20)
        docs = [Document([s for d in docs[k:k + 5] for s in d.sentences])
                for k in range(0, 40, 5)]
    cfg = cfg.validate()
    packed = pack_corpus(docs, cfg)
    return cfg, [prepare_batch(packed, step, cfg)[0] for step in range(2)]


@pytest.mark.parametrize("long_docs", [False, True], ids=["stories",
                                                          "long-docs"])
def test_bundle_at_the_read_rows_is_the_full_encode_bit_for_bit(long_docs,
                                                                monkeypatch):
    """The tiny profile, dropout off, two micro-batches: the bundle, whose
    last encoder layer runs only at the rows its losses read, gives the
    losses, pointer signals and every accumulated gradient of a full
    encode that then keeps those rows. With dropout on the two draw
    different masks: the row path draws those of the rows only."""
    cfg, micro = story_batches(long_docs)
    assert cfg.dropout == 0.0 and cfg.hidden == 64 and cfg.ffn == 256
    rows, _ = read_rows(cfg, micro[0])
    width = max(ex.attention_len for ex in micro[0])
    assert rows.shape[1] < width / 2
    assert width % 2
    if long_docs:
        assert width > 200 and micro[0][0].num_sentences >= 18
    params = build_params(cfg, seed=35)
    got = bundle_steps(params, cfg, micro, monkeypatch)
    want = bundle_steps(params, cfg, micro, monkeypatch, full=True)
    for (g_fields, g_grads, g_state), (w_fields, w_grads, w_state) in zip(
            got, want):
        np.testing.assert_array_equal(np.float64(g_fields),
                                      np.float64(w_fields))
        assert g_grads.keys() == w_grads.keys()
        for name in w_grads:
            np.testing.assert_array_equal(g_grads[name], w_grads[name],
                                          err_msg=name)
        assert g_state == w_state


def test_bundle_at_the_read_rows_matches_the_full_encode_in_float64(
        monkeypatch):
    """At the suite's small model (hidden 16) the last layer's attention
    gradients round differently in the last bits, so there the bundle
    matches the full encode to float64 round-off: losses, signals and
    every gradient, dropout off."""
    cfg = small_config(dropout=0.0, accum_steps=2)
    rng = np.random.default_rng(36)
    micro = []
    for counts in ((3, 1, 4, 2), (2, 4, 1)):
        micro.append([apply_shuffle(ex, sample_permutation(n, rng))
                      for n in counts
                      for ex in [masked_example(cfg, rng, n_sents=n)]])
    params = build_params(cfg, seed=37, dtype=np.float64)
    got = bundle_steps(params, cfg, micro, monkeypatch)
    want = bundle_steps(params, cfg, micro, monkeypatch, full=True)
    for (g_fields, g_grads, g_state), (w_fields, w_grads, w_state) in zip(
            got, want):
        np.testing.assert_allclose(np.float64(g_fields),
                                   np.float64(w_fields), rtol=1e-12)
        for name in w_grads:
            np.testing.assert_allclose(g_grads[name], w_grads[name],
                                       rtol=0, atol=1e-12, err_msg=name)
        assert g_state == w_state


def test_read_rows_are_the_labelled_and_summary_positions():
    cfg = small_config()
    examples = bundle_inputs(cfg, seed=38, n_examples=3)
    rows, labels = read_rows(cfg, examples)
    for b, ex in enumerate(examples):
        want = sorted({0, *np.flatnonzero(ex.mlm_labels != IGNORE),
                       *summary_positions(ex)})
        np.testing.assert_array_equal(rows[b, :len(want)], want)
        # the padding: the smallest positions the example does not read
        pad = np.setdiff1d(np.arange(rows.shape[1]), want)
        np.testing.assert_array_equal(rows[b, len(want):],
                                      pad[:rows.shape[1] - len(want)])
        np.testing.assert_array_equal(labels[b, :len(want)],
                                      ex.mlm_labels[want])
        assert (labels[b, len(want):] == IGNORE).all()
    no_sr = small_config(sr_enabled=False)
    rows, _ = read_rows(no_sr, examples)
    assert rows.shape[1] == max(
        len({0, *np.flatnonzero(ex.mlm_labels != IGNORE)}) for ex in examples)
