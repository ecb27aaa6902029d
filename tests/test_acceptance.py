"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL verdict on the real stdout so the
lines stay visible under pytest's capture. The learning check (criterion
5) trains a real model for several minutes and runs last; everything
else finishes in seconds.
"""
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from slm import tensor as T
from slm.config import config_echo, resolve_config
from slm.encoder import encode_batch
from slm.heads import (cls_accuracy, finetune_cls, init_qa_head, pack_pair,
                       pack_qa, qa_forward)
from slm.masking import apply_span_masking, sample_span_length
from slm.model import parameter_counts
from slm.objectives import pretrain_bundle
from slm.probe import EmbeddingIndex, nearest_neighbors
from slm.reconstructor import pointer_nll
from slm.shuffling import apply_shuffle, sample_permutation
from slm.tensor import Tensor, grad_check
from slm.textpipe import SPECIAL_TOKENS, Vocab, pack_example
from slm.trainer import train_loop

from escape_legs import LEG_BUDGET
from util import (build_params, masked_example, physical_shuffle,
                  random_document, small_config)

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
ESCAPE_LEGS = os.path.join(TESTS, "escape_legs.py")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


@contextmanager
def criterion(num: int, desc: str):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"FAIL criterion {num}: {desc}", file=sys.__stdout__, flush=True)
        raise
    detail = f" ({info['detail']})" if info.get("detail") else ""
    print(f"PASS criterion {num}: {desc}{detail}",
          file=sys.__stdout__, flush=True)


def test_criterion_1_gradient_correctness():
    with criterion(1, "joint-loss gradients match finite differences") as info:
        cfg = small_config(vocab_size=32, max_sentences=4)
        rng = np.random.default_rng(0)
        params = build_params(cfg, seed=0, dtype=np.float64)
        ex = masked_example(cfg, rng, n_sents=4)
        ex = apply_shuffle(ex, sample_permutation(ex.num_sentences, rng))

        def f():
            return pretrain_bundle(params, cfg, [ex]).loss

        t0 = time.monotonic()
        # float64 end to end; 1e-4 balances curvature against roundoff
        err = grad_check(f, list(params.values()), eps=1e-4)
        dt = time.monotonic() - t0
        info["detail"] = f"max rel err {err:.3e} in {dt:.1f}s"
        assert err < 1e-3
        assert dt < 60.0


def test_criterion_2_ordering_loss_oracle():
    with criterion(2, "ordering loss matches scalar double-loop oracle") as info:
        # an identity C in float64 makes pointer_logits(w, c) equal the
        # drawn logits exactly, so the loss training runs sees them as is
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            logits = rng.normal(scale=3.0, size=(n + 1, n + 2))
            targets = rng.integers(1, n + 2, size=n + 1)
            c = Tensor(np.eye(n + 2)[None])
            got = float(pointer_nll(Tensor(logits[None]), c, targets).data)
            want = 0.0
            for i in range(n + 1):
                top = max(logits[i])
                lse = top + math.log(sum(math.exp(x - top) for x in logits[i]))
                for j in range(1, n + 2):
                    if j == targets[i]:
                        want -= logits[i, j] - lse
            want /= n + 1
            worst = max(worst, abs(got - want))

        uniform = Tensor(np.zeros((1, 2, 3)))
        u = float(pointer_nll(uniform, Tensor(np.eye(3)[None]),
                              np.array([1, 2])).data)
        u_err = abs(u - math.log(3.0))
        info["detail"] = f"worst |diff| {worst:.2e}, uniform N=1 off by {u_err:.2e}"
        assert worst <= 1e-6
        assert u_err <= 1e-6


def test_criterion_3_shuffle_semantics_equivalence():
    with criterion(3, "id-reassignment equals physical block permutation") as info:
        cfg = small_config()
        params = build_params(cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(3)
        worst_loss = worst_rows = 0.0
        for _ in range(100):
            ex = masked_example(cfg, rng, n_sents=int(rng.integers(2, 6)))
            perm = sample_permutation(ex.num_sentences, rng)
            virt = apply_shuffle(ex, perm)
            phys = physical_shuffle(ex, perm)

            bv = pretrain_bundle(params, cfg, [virt])
            bp = pretrain_bundle(params, cfg, [phys])
            for a, b in ((bv.l_mlm, bp.l_mlm), (bv.l_slm, bp.l_slm),
                         (bv.total, bp.total)):
                worst_loss = max(worst_loss, abs(a - b))

            hv = encode_batch(params, cfg, [virt])
            hp = encode_batch(params, cfg, [phys])
            q = virt.position_ids[:virt.attention_len]
            diff = np.abs(hp.data[0][q] - hv.data[0][:virt.attention_len])
            worst_rows = max(worst_rows, float(diff.max()))
        info["detail"] = (f"worst loss diff {worst_loss:.2e}, "
                          f"worst row diff {worst_rows:.2e} over 100 examples")
        assert worst_loss <= 1e-6
        assert worst_rows <= 1e-5


def test_criterion_4_masking_statistics():
    with criterion(4, "span masking statistics") as info:
        # long documents keep the integer span budget close to the rate;
        # a ten-word example cannot hit 15% with whole spans
        cfg = small_config(seq_len=128, max_sentences=8)
        rng = np.random.default_rng(4)

        counts = np.zeros(3)
        for _ in range(100_000):
            counts[sample_span_length(rng) - 1] += 1
        pmf = counts / counts.sum()
        pmf_dev = float(np.abs(pmf - (0.40984, 0.32787, 0.26230)).max())

        masked = maskable = specials_hit = 0
        for i in range(10_000):
            ex = pack_example(random_document(rng, n_sents=6, max_words=12),
                              cfg.seq_len, cfg.max_sentences, rng)
            before = ex.token_ids.copy()
            mx = apply_span_masking(ex, cfg, rng)
            word = np.zeros(cfg.seq_len, dtype=bool)
            for _, start, end in mx.sentence_spans:
                word[start:end] = True
            labeled = mx.mlm_labels != -1
            specials_hit += int((labeled & ~word).sum())
            specials_hit += int((mx.token_ids != before)[~word].sum())
            if i < 2000:
                masked += int(labeled.sum())
                maskable += int(word.sum())
        fraction = masked / maskable
        info["detail"] = (f"pmf max dev {pmf_dev:.4f}, masked fraction "
                          f"{fraction:.3f}, specials touched {specials_hit}")
        assert pmf_dev <= 0.01
        assert 0.13 <= fraction <= 0.17
        assert specials_hit == 0


def test_criterion_6_ablation_plumbing(tmp_path):
    with criterion(6, "ablation grid completes with distinct metrics") as info:
        rng = np.random.default_rng(6)
        docs = [random_document(rng, n_sents=3) for _ in range(30)]
        grid = [(0.5, True, True), (1.0, True, True), (1.0, False, True),
                (0.0, False, True), (0.0, False, False)]
        blobs = []
        for i, (frac, sr, reps) in enumerate(grid):
            cfg = small_config(encoder_layers=1, max_sentences=4, steps=6,
                               warmup=2, batch_size=4, checkpoint_every=0,
                               shuffle_fraction=frac, sr_enabled=sr,
                               sentence_reps_enabled=reps)
            train_loop(docs, cfg, str(tmp_path / f"run{i}"))
            blobs.append((tmp_path / f"run{i}" / "metrics.csv").read_bytes())
        distinct = all(a != b for k, a in enumerate(blobs)
                       for b in blobs[k + 1:])

        cfg_off = small_config(max_sentences=4, sr_enabled=False)
        params = build_params(cfg_off, seed=6)
        for p in params.values():
            p.requires_grad = True
        ex = masked_example(cfg_off, rng, n_sents=3)
        ex = apply_shuffle(ex, sample_permutation(ex.num_sentences, rng))
        bundle = pretrain_bundle(params, cfg_off, [ex])
        T.backward(bundle.loss)
        dec_zero = all(p.grad is None or not p.grad.any()
                       for name, p in params.items()
                       if name.startswith("dec."))
        enc_live = params["emb.token"].grad is not None and \
            params["emb.token"].grad.any()
        info["detail"] = "5 runs, 10 distinct pairs, decoder grads zero"
        assert distinct
        assert dec_zero and enc_live


def test_criterion_7_config_fidelity():
    with criterion(7, "large-profile config echo and decoder size") as info:
        cfg = resolve_config("paper")
        echo = dict(config_echo(cfg))
        assert int(echo["encoder_layers"]) == 12
        assert int(echo["decoder_layers"]) == 3
        assert int(echo["hidden"]) == 768
        assert int(echo["vocab_size"]) == 30522
        assert int(echo["warmup"]) == 10_000
        assert float(echo["peak_lr"]) == 1.5e-4
        assert float(echo["adam_eps"]) == 1e-6
        assert float(echo["dropout"]) == 0.1
        enc, dec = parameter_counts(cfg)
        info["detail"] = f"decoder/encoder ratio {dec / enc:.3f}"
        assert dec / enc < 0.30


def test_criterion_8_heads_and_probe():
    with criterion(8, "fine-tuning heads and representation probe") as info:
        words = ["cat", "dog", "sun", "bird", "home", "fast", "now", "rose",
                 "red", "blue"]
        vocab = Vocab(SPECIAL_TOKENS + words)
        cfg = small_config(vocab_size=len(vocab.id_to_token), max_sentences=4,
                           batch_size=8, finetune_lr=5e-3)
        params = build_params(cfg, seed=8)
        examples = []
        for a in ("cat", "dog", "sun", "bird"):
            for b in ("home", "fast", "now", "rose"):
                for label, marker in enumerate(("red", "blue")):
                    ex = pack_pair(f"{a} {b} {marker}", None, vocab, cfg)
                    ex.label = float(label)
                    examples.append(ex)
        assert len(examples) == 32
        head = finetune_cls(params, cfg, examples, 2, steps=200, seed=8)
        acc = cls_accuracy(params, head, cfg, examples)

        qa_vocab = Vocab(SPECIAL_TOKENS + ["the", "cat", "sat", "dog",
                                           "ran", "fast", "home"])
        qa_cfg = small_config(vocab_size=len(qa_vocab.id_to_token),
                              max_sentences=4)
        qa_ex = pack_qa("the cat sat home. the dog ran fast.", "the cat",
                        3, 4, qa_vocab, qa_cfg)
        qa_params = build_params(qa_cfg, seed=9)
        qa_head = init_qa_head(qa_cfg, np.random.default_rng(9))
        h = encode_batch(qa_params, qa_cfg, [qa_ex.packed])
        loss, _ = qa_forward(h, [qa_ex], qa_head)
        flat = h.data.reshape(-1, qa_cfg.hidden)
        terms = []
        for vec, rows, gold in (
                (qa_head["qa.start"], qa_ex.word_positions, qa_ex.gold_start),
                (qa_head["qa.end"], qa_ex.word_positions, qa_ex.gold_end),
                (qa_head["qa.sent"], qa_ex.marker_positions,
                 qa_ex.gold_sentence)):
            logits = flat[rows] @ vec.data.reshape(-1)
            shifted = logits - logits.max()
            terms.append(float(np.log(np.exp(shifted).sum()) - shifted[gold]))
        qa_diff = abs(float(loss.data) - sum(terms))

        rng = np.random.default_rng(88)
        matrix = rng.normal(size=(40, 16)).astype(np.float32)
        records = [{"doc": 0, "sent": i, "text": str(i), "prev": ""}
                   for i in range(40)]
        index = EmbeddingIndex(matrix=matrix, records=records)
        m = matrix.astype(np.float64)
        probe_ok = True
        for _ in range(100):
            q = int(rng.integers(0, 40))
            k = int(rng.integers(1, 10))
            hits = nearest_neighbors(index, q, k)
            sims = np.array([
                np.dot(m[i], m[q]) / (np.linalg.norm(m[i]) *
                                      np.linalg.norm(m[q]))
                if i != q else -np.inf for i in range(40)])
            expect = np.argsort(-sims, kind="stable")[:k].tolist()
            probe_ok &= [h[0] for h in hits] == expect
        info["detail"] = (f"train acc {acc:.2f}, qa loss diff {qa_diff:.1e}, "
                          f"probe oracle {'agrees' if probe_ok else 'differs'}")
        assert acc == 1.0
        assert qa_diff <= 1e-6
        assert probe_ok


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical runs produce byte-identical metrics") as info:
        rng = np.random.default_rng(9)
        docs = [random_document(rng, n_sents=3) for _ in range(20)]
        cfg = small_config(encoder_layers=1, max_sentences=4, steps=8,
                           warmup=2, batch_size=4, checkpoint_every=0)
        train_loop(docs, cfg, str(tmp_path / "a"))
        train_loop(docs, cfg, str(tmp_path / "b"))
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        info["detail"] = f"{len(a)} bytes each"
        assert a == b


@pytest.mark.slow
def test_criterion_5_learning_check():
    with criterion(5, "unshuffling is learned on ordered narratives") as info:
        # a child process with one BLAS thread: its CPU time counts the
        # program, not the size of numpy's thread pool
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["SLM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, ESCAPE_LEGS, "--json", "--corpus-seed", "0",
             "--offsets", "0", "--max-legs", str(LEG_BUDGET)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-4000:]
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        minutes = r["cpu_min"]
        bound = 0.8 * math.log(r["vocab_size"])
        escape = ("none" if r["escape_leg"] is None
                  else f"leg {r['escape_leg']}")
        info["detail"] = (f"em {r['em']:.3f}, tau {r['tau']:.3f} "
                          f"after {r['legs'] * r['steps']} steps, escape "
                          f"{escape} of {LEG_BUDGET}, l_mlm {r['l_mlm']:.3f}"
                          f" vs {bound:.3f}, {minutes:.1f} cpu min")
        assert r["em"] >= 0.90
        assert r["tau"] >= 0.90
        assert r["l_mlm"] < bound
        assert minutes < 30.0
