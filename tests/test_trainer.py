import gc
import tracemalloc

import numpy as np
import pytest

from slm import trainer
from slm.config import RunConfig
from slm.errors import ContractError, DataError
from slm.textpipe import Document
from slm.trainer import (METRICS_COLUMNS, evaluate_unshuffle, kendall_tau,
                         pack_corpus, prepare_batch, train_loop)

from util import build_params, random_document, small_config


def tiny_corpus(n_docs=4, seed=0, vocab_size=40, n_sents=None):
    rng = np.random.default_rng(seed)
    return [random_document(rng, n_sents=n_sents, vocab_size=vocab_size)
            for _ in range(n_docs)]


def run_config(**kw):
    base = dict(steps=10, warmup=2, batch_size=4, checkpoint_every=0,
                peak_lr=1e-3, seed=3)
    base.update(kw)
    return small_config(**base)


def read_metrics(path):
    header, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif line == METRICS_COLUMNS:
                continue
            else:
                rows.append(line.split(","))
    return header, rows


def test_ten_steps_write_ten_rows_and_one_checkpoint(tmp_path):
    out = str(tmp_path / "run")
    result = train_loop(tiny_corpus(), run_config(), out)
    header, rows = read_metrics(result["metrics"])
    assert len(rows) == 10
    assert [int(r[0]) for r in rows] == list(range(10))
    assert any(line.startswith("# seed=") for line in header)
    ckpts = sorted(p.name for p in (tmp_path / "run").glob("*.bin"))
    assert ckpts == ["ckpt-final.bin"]


def test_periodic_checkpoints(tmp_path):
    out = str(tmp_path / "run")
    train_loop(tiny_corpus(), run_config(steps=9, checkpoint_every=4), out)
    names = sorted(p.name for p in (tmp_path / "run").glob("*.bin"))
    assert names == ["ckpt-4.bin", "ckpt-8.bin", "ckpt-final.bin"]


def test_same_seed_runs_are_byte_identical(tmp_path):
    docs = tiny_corpus()
    cfg = run_config()
    a = train_loop(docs, cfg, str(tmp_path / "a"))
    b = train_loop(docs, cfg, str(tmp_path / "b"))
    assert open(a["metrics"], "rb").read() == open(b["metrics"], "rb").read()
    assert open(a["checkpoint"], "rb").read() == open(b["checkpoint"], "rb").read()


def test_different_seeds_diverge(tmp_path):
    docs = tiny_corpus()
    a = train_loop(docs, run_config(seed=1), str(tmp_path / "a"))
    b = train_loop(docs, run_config(seed=2), str(tmp_path / "b"))
    assert open(a["metrics"], "rb").read() != open(b["metrics"], "rb").read()


def test_timing_column_zero_when_disabled(tmp_path):
    result = train_loop(tiny_corpus(), run_config(), str(tmp_path / "run"))
    _, rows = read_metrics(result["metrics"])
    assert all(float(r[6]) == 0.0 for r in rows)


def test_timing_column_positive_when_enabled(tmp_path):
    cfg = run_config(steps=3, timing_enabled=True)
    result = train_loop(tiny_corpus(), cfg, str(tmp_path / "run"))
    _, rows = read_metrics(result["metrics"])
    assert all(float(r[6]) > 0.0 for r in rows)


def test_lr_column_follows_schedule(tmp_path):
    cfg = run_config(steps=10, warmup=5, peak_lr=1e-3)
    result = train_loop(tiny_corpus(), cfg, str(tmp_path / "run"))
    _, rows = read_metrics(result["metrics"])
    lrs = [float(r[1]) for r in rows]
    assert lrs[0] == 0.0
    assert lrs[5] == pytest.approx(1e-3)
    assert lrs[9] < lrs[5]


def test_sr_disabled_reports_zero_slm(tmp_path):
    cfg = run_config(sr_enabled=False)
    result = train_loop(tiny_corpus(), cfg, str(tmp_path / "run"))
    _, rows = read_metrics(result["metrics"])
    assert all(float(r[3]) == 0.0 for r in rows)
    assert all(float(r[4]) == float(r[2]) for r in rows)


def test_shuffled_column_tracks_fraction():
    cfg = run_config(steps=400, shuffle_fraction=0.5)
    packed = pack_corpus(tiny_corpus(), cfg)
    flags = [prepare_batch(packed, s, cfg)[1] for s in range(400)]
    k = sum(flags)
    # binomial 3 sigma around 200
    assert abs(k - 200) <= 3 * np.sqrt(400 * 0.25)


def test_shuffle_fraction_extremes():
    packed = pack_corpus(tiny_corpus(), run_config())
    all_on = run_config(shuffle_fraction=1.0)
    all_off = run_config(shuffle_fraction=0.0)
    assert all(prepare_batch(packed, s, all_on)[1] for s in range(50))
    assert not any(prepare_batch(packed, s, all_off)[1]
                   for s in range(50))


def test_batches_cycle_through_epochs():
    cfg = run_config(batch_size=3)
    packed = pack_corpus(tiny_corpus(n_docs=4), cfg)
    # 4 examples, batch 3: step 1 wraps into the second epoch
    batch0, _ = prepare_batch(packed, 0, cfg)
    batch1, _ = prepare_batch(packed, 1, cfg)
    assert np.array_equal(batch1[0].position_ids, packed[3].position_ids)
    assert len(batch0) == len(batch1) == 3


def test_epochs_redraw_masks():
    cfg = run_config(batch_size=4)
    packed = pack_corpus(tiny_corpus(n_docs=4), cfg)
    # steps 0 and 1 both start at example 0 but sit in different epochs
    first, _ = prepare_batch(packed, 0, cfg)
    second, _ = prepare_batch(packed, 1, cfg)
    assert not np.array_equal(first[0].token_ids, second[0].token_ids) or \
        not np.array_equal(first[0].mlm_labels, second[0].mlm_labels)


def test_pack_corpus_rejects_unusable_corpus():
    # documents whose sentences are all empty cannot be packed at all
    with pytest.raises(DataError):
        pack_corpus([Document([[]]), Document([])], run_config())


def test_pack_corpus_skips_empty_documents_without_drawing():
    # merging five sentences down to two draws from the packing rng; an
    # empty document in between must not shift those draws
    cfg = run_config(max_sentences=2)
    docs = tiny_corpus(n_docs=4, n_sents=5)
    empty = Document([])
    plain = pack_corpus(docs, cfg)
    padded = pack_corpus([empty] + docs[:2] + [empty] + docs[2:], cfg)
    assert len(plain) == len(padded) == 4
    for a, b in zip(plain, padded):
        np.testing.assert_array_equal(a.token_ids, b.token_ids)
        np.testing.assert_array_equal(a.sentence_ids, b.sentence_ids)


def test_pack_corpus_truncates_rather_than_drops():
    cfg = run_config(seq_len=4)
    doc = Document([[10, 11, 12, 13, 14, 15, 16, 17]])
    packed = pack_corpus([doc], cfg)
    assert len(packed) == 1
    assert packed[0].attention_len == 4  # [CLS] [SENT] w [SEP]


def test_accumulation_changes_effective_batch(tmp_path):
    docs = tiny_corpus(n_docs=8)
    a = train_loop(docs, run_config(steps=4, accum_steps=2), str(tmp_path / "a"))
    b = train_loop(docs, run_config(steps=4, accum_steps=1), str(tmp_path / "b"))
    assert open(a["metrics"], "rb").read() != open(b["metrics"], "rb").read()


def test_kendall_tau_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = rng.permutation(n)
        b = rng.permutation(n)
        expect = scipy_stats.kendalltau(a, b).statistic
        assert kendall_tau(a, b) == pytest.approx(expect, abs=1e-9)
    assert kendall_tau(np.array([0]), np.array([0])) == 1.0
    assert kendall_tau(np.arange(5), np.arange(5)) == 1.0
    assert kendall_tau(np.arange(5), np.arange(5)[::-1]) == -1.0


def double_loop_tau(pred, gold):
    """Kendall tau as a count over every pair, one pair at a time."""
    concordant = total = 0
    for i in range(len(pred)):
        for j in range(i + 1, len(pred)):
            total += 1
            concordant += int((pred[i] < pred[j]) == (gold[i] < gold[j]))
    return (2.0 * concordant - total) / total if total else 1.0


def test_kendall_tau_equals_the_double_loop():
    rng = np.random.default_rng(4)
    for n in range(1, 26):
        for _ in range(5):
            pred, gold = rng.permutation(n), rng.permutation(n)
            assert kendall_tau(pred, gold) == double_loop_tau(pred, gold)


def test_evaluate_unshuffle_bounds():
    cfg = run_config()
    params = build_params(cfg)
    packed = pack_corpus(tiny_corpus(n_docs=6, n_sents=3), cfg)
    scores = evaluate_unshuffle(params, cfg, packed, seed=1)
    assert scores["n"] == 6
    assert 0.0 <= scores["em"] <= 1.0
    assert -1.0 <= scores["tau"] <= 1.0


def test_evaluate_unshuffle_of_no_examples_is_a_contract_error():
    cfg = run_config()
    with pytest.raises(ContractError, match="evaluate_unshuffle"):
        evaluate_unshuffle(build_params(cfg), cfg, [])


def test_evaluate_unshuffle_breaks_scores_down(monkeypatch):
    # the gold orders are the identity and the decoded orders are set by
    # hand, so every score is counted by hand: slots right 3 + 1 + 0 of
    # 8, taus 1, 1/3 and -1
    cfg = run_config()
    rng = np.random.default_rng(5)
    packed = pack_corpus([random_document(rng, n_sents=k)
                          for k in (3, 3, 2)], cfg)
    decoded = iter([[0, 1, 2], [1, 0, 2], [1, 0]])
    monkeypatch.setattr(trainer, "sample_permutation",
                        lambda n, rng: np.arange(n))
    monkeypatch.setattr(trainer, "greedy_unshuffle",
                        lambda params, cfg, c, counts: [
                            np.array(next(decoded)) for _ in counts])
    scores = evaluate_unshuffle(build_params(cfg), cfg, packed)
    assert scores["n"] == 3
    assert scores["em"] == pytest.approx(1 / 3)
    assert scores["tau"] == pytest.approx((1 + 1 / 3 - 1) / 3)
    assert scores["pos_acc"] == 0.5
    assert scores["by_n"] == {
        2: {"n": 1, "em": 0.0, "tau": -1.0},
        3: {"n": 2, "em": 0.5, "tau": pytest.approx(2 / 3)}}


def test_loss_moves_within_a_short_run(tmp_path):
    # not a convergence claim, just that optimization is wired through:
    # parameters move and the loss at the end differs from the start
    docs = tiny_corpus(n_docs=8, seed=4)
    cfg = run_config(steps=30, warmup=3, peak_lr=1e-3, seed=5)
    result = train_loop(docs, cfg, str(tmp_path / "run"))
    _, rows = read_metrics(result["metrics"])
    first, final = float(rows[0][4]), float(rows[-1][4])
    assert first != final
    assert np.isfinite(final)


def test_accumulated_rows_report_mean_losses_and_shuffled_count(tmp_path):
    from slm.model import init_params
    from slm.objectives import pretrain_bundle
    from slm.trainer import _DROPOUT
    docs = tiny_corpus(n_docs=8, seed=6)
    cfg = run_config(steps=6, accum_steps=3, shuffle_fraction=0.5)
    result = train_loop(docs, cfg, str(tmp_path / "run"))
    _, rows = read_metrics(result["metrics"])

    # the shuffled column counts the step's shuffled micro-batches
    packed = pack_corpus(docs, cfg)
    counts = [sum(prepare_batch(packed, step * 3 + micro, cfg)[1]
                  for micro in range(3)) for step in range(cfg.steps)]
    assert [int(r[5]) for r in rows] == counts
    assert result["shuffled_batches"] == sum(counts)
    assert any(0 < c < 3 for c in counts)

    # step 0 starts from the initial parameters: its losses are the
    # means of the three micro-batch losses
    params = init_params(cfg, np.random.default_rng(cfg.seed))
    drop_rng = np.random.default_rng([cfg.seed, _DROPOUT, 0])
    bundles = [pretrain_bundle(params, cfg,
                               prepare_batch(packed, micro, cfg)[0],
                               drop_rng)
               for micro in range(3)]
    columns = METRICS_COLUMNS.split(",")
    for attr in ("l_mlm", "l_slm", "total", "pointer_acc", "pointer_entropy",
                 "pointer_self"):
        mean = np.mean([getattr(b, attr) for b in bundles])
        assert float(rows[0][columns.index(attr)]) == pytest.approx(
            mean, abs=2e-6)
    assert int(rows[0][columns.index("masked_count")]) == sum(
        b.masked_count for b in bundles)
    assert float(rows[-1][4]) == pytest.approx(result["total"], abs=1e-6)


def test_grad_norm_column_is_the_pre_clip_norm(tmp_path, monkeypatch):
    from slm import optim
    from slm.model import init_params
    from slm.objectives import pretrain_bundle
    from slm.tensor import backward
    from slm.trainer import _DROPOUT

    docs = tiny_corpus()
    cfg = run_config()
    _, rows = read_metrics(train_loop(docs, cfg, str(tmp_path / "a"))["metrics"])
    col = METRICS_COLUMNS.split(",").index("grad_norm")
    norms = [float(r[col]) for r in rows]
    assert len(norms) == cfg.steps
    assert all(np.isfinite(n) and n > 0 for n in norms)

    # one step, with the norm taken by hand from the same batch and init;
    # a small clipping norm makes sure the step clips
    monkeypatch.setattr(optim, "GRAD_CLIP", 0.01)
    one = run_config(steps=1, warmup=0)
    _, rows = read_metrics(train_loop(docs, one, str(tmp_path / "b"))["metrics"])
    params = init_params(one, np.random.default_rng(one.seed))
    for p in params.values():
        p.requires_grad = True
    batch, _ = prepare_batch(pack_corpus(docs, one), 0, one)
    bundle = pretrain_bundle(params, one, batch,
                             np.random.default_rng([one.seed, _DROPOUT, 0]))
    backward(bundle.loss)
    grads = [p.grad.astype(np.float64).ravel() for p in params.values()
             if p.grad is not None]
    expected = float(np.linalg.norm(np.concatenate(grads)))
    assert expected > optim.GRAD_CLIP  # the row reports the pre-clip norm
    assert float(rows[0][col]) == pytest.approx(expected, rel=1e-6)


def test_pointer_columns_are_nan_without_the_ordering_objective(tmp_path):
    cfg = run_config(steps=2, sr_enabled=False)
    _, rows = read_metrics(train_loop(tiny_corpus(), cfg,
                                      str(tmp_path / "run"))["metrics"])
    columns = METRICS_COLUMNS.split(",")
    assert columns[-5:] == ["grad_norm", "masked_count", "pointer_acc",
                            "pointer_entropy", "pointer_self"]
    for row in rows:
        assert len(row) == len(columns)
        assert int(row[columns.index("masked_count")]) > 0
        assert row[-3:] == ["nan", "nan", "nan"]


def _buffer_bytes(arrays):
    """Bytes of the data buffers behind the arrays, each counted once."""
    buffers = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        buffers[id(a)] = a.nbytes
    return sum(buffers.values())


def test_backward_frees_the_graph_it_walks():
    """Traced memory of one pretraining batch with dropout on: backward
    peaks near what the forward graph holds, since the sweep releases
    the graph as it walks it (1.08 times here), and afterwards the only
    array data still held is the parameter gradients and the loss.
    Keeping the graph until the loss went read a peak 1.9 times the
    forward graph and left all of it held."""
    from slm.objectives import pretrain_bundle
    from slm.tensor import backward
    from slm.trainer import _DROPOUT

    cfg = small_config(batch_size=4, dropout=0.1)
    params = build_params(cfg)
    for p in params.values():
        p.requires_grad = True
    batch, _ = prepare_batch(pack_corpus(tiny_corpus(n_docs=8), cfg), 0, cfg)

    def step():
        for p in params.values():
            p.grad = None
        drop = np.random.default_rng([cfg.seed, _DROPOUT, 0])
        return pretrain_bundle(params, cfg, batch, drop)

    backward(step().loss)  # first calls fill numpy's and Python's caches
    gc.collect()
    tracemalloc.start()
    try:
        bundle = step()
        graph = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(bundle.loss)
        peak = tracemalloc.get_traced_memory()[1]
        # numpy traces its data buffers in a domain of their own
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * graph
    held = sum(trace.size for trace in arrays.traces)
    grads = _buffer_bytes(p.grad for p in params.values())
    assert held <= grads + bundle.loss.data.nbytes
