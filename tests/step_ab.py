"""Alternate two source trees' pretraining steps in one process.

    python tests/step_ab.py OTHER/src src --workload stories

loads ``slm`` from each ``src`` directory as a package of its own,
builds a benchmark workload's pretraining run in each (perfbench's
seeded inputs, its vocab cap and its config keys on the tiny profile)
from the same initial parameters, and runs the two trees' optimizer
steps in turn, the order swapped every step. Each step times its
forward passes (``pretrain_bundle`` per micro-batch), its backward
sweeps and its optimizer (gradient clip and Adam) apart, as
``train_loop`` runs them; batch preparation is left out. It prints each
tree's median forward, backward, optimizer and step ms over the steps
after the first two, the second tree's change against the first, and
whether the two trees' losses agreed bit for bit at every step.

The figures are raw wall time of the steps themselves, with no speed
probe scaling them, and both trees share one process, its heap and its
cache, so a change of the program shows apart from the host's drift.
It caps BLAS at one thread, as the benchmark does. pytest does not
collect this file.
"""
from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

# perfbench's workload shapes, vocab cap, training-corpus seed and the
# config keys every workload sets on top of the tiny profile
SHAPES = {"stories": ("story", 1000, ("seq_len=128", "max_sentences=8")),
          "long-docs": ("long", 400, ("seq_len=256", "max_sentences=20"))}
VOCAB_CAP = 1000
TRAIN_SEED = 0
COMMON = ("peak_lr=1e-3", "checkpoint_every=0", "log_every=0")
WARM_STEPS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("config", "model", "objectives", "optim", "tensor", "textpipe",
           "trainer")


def load_tree(src: str) -> dict:
    """The modules of the ``slm`` package under ``src``, imported apart
    from any other copy: its modules hold each other, so they keep
    working once they leave ``sys.modules``."""
    def ours(name):
        return name == "slm" or name.startswith("slm.")

    saved = {name: sys.modules.pop(name) for name in list(sys.modules)
             if ours(name)}
    sys.path.insert(0, os.path.abspath(src))
    try:
        return {name: importlib.import_module(f"slm.{name}")
                for name in MODULES}
    finally:
        sys.path.pop(0)
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


class Side:
    """One tree's run: its config, packed corpus, parameters and Adam
    state, and the times of its steps."""

    def __init__(self, mods: dict, train_txt: str, workload: str,
                 steps: int):
        import numpy as np

        self.m = mods
        text = mods["textpipe"]
        shape, _, overrides = SHAPES[workload]
        vocab = text.build_vocab(text.read_corpus(train_txt), VOCAB_CAP)
        self.cfg = mods["config"].resolve_config(
            "tiny", None, list(COMMON + overrides) + [
                f"vocab_size={len(vocab)}", f"steps={steps}",
                f"warmup={max(1, steps // 10)}"], TRAIN_SEED)
        docs = [text.document_from_sentences(s, vocab)
                for s in text.read_prepared(train_txt)]
        self.packed = mods["trainer"].pack_corpus(
            [d for d in docs if d.sentences], self.cfg)
        self.params = mods["model"].init_params(
            self.cfg, np.random.default_rng(self.cfg.seed))
        for p in self.params.values():
            p.requires_grad = True
        self.state = mods["optim"].AdamState()
        self.times = {"forward": [], "backward": [], "optimizer": [],
                      "step": []}
        self.losses: list[bytes] = []

    def step(self, step: int) -> None:
        import numpy as np

        m, cfg, params = self.m, self.cfg, self.params
        trainer, optim = m["trainer"], m["optim"]
        batches = [trainer.prepare_batch(
            self.packed, step * cfg.accum_steps + micro, cfg)[0]
            for micro in range(cfg.accum_steps)]
        optim.zero_grads(params)
        drop = np.random.default_rng([cfg.seed, trainer._DROPOUT, step])
        forward = backward = 0.0
        start = time.perf_counter()
        for batch in batches:
            t0 = time.perf_counter()
            bundle = m["objectives"].pretrain_bundle(params, cfg, batch, drop)
            t1 = time.perf_counter()
            m["tensor"].backward(bundle.loss)
            forward += t1 - t0
            backward += time.perf_counter() - t1
            self.losses.append(bundle.loss.data.tobytes())
        t0 = time.perf_counter()
        if cfg.accum_steps > 1:
            for p in params.values():
                if p.grad is not None:
                    p.grad /= cfg.accum_steps
        optim.clip_global_norm(params)
        optim.adam_update(params, self.state, optim.lr_schedule(step, cfg),
                          cfg)
        end = time.perf_counter()
        for name, took in (("forward", forward), ("backward", backward),
                           ("optimizer", end - t0), ("step", end - start)):
            self.times[name].append(1000.0 * took)

    def medians(self) -> dict:
        return {name: statistics.median(ms[WARM_STEPS:])
                for name, ms in self.times.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("first", help="the first tree's src directory")
    p.add_argument("second", help="the second tree's src directory")
    p.add_argument("--workload", choices=sorted(SHAPES), default="stories")
    p.add_argument("--steps", type=int, default=40)
    args = p.parse_args(argv)
    if args.steps <= WARM_STEPS:
        p.error(f"--steps must exceed {WARM_STEPS}")

    # before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, PERFBENCH)
    import gen

    shape, n_train, _ = SHAPES[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.write_inputs(tmp, shape, 1, TRAIN_SEED, n_train, 1, 1, 1)
        sides = [Side(load_tree(src), paths["train.txt"], args.workload,
                      args.steps) for src in (args.first, args.second)]
    for step in range(args.steps):
        for side in (sides if step % 2 == 0 else sides[::-1]):
            side.step(step)

    first, second = (side.medians() for side in sides)
    print(f"{args.workload}: {args.steps} steps, medians over the last "
          f"{args.steps - WARM_STEPS}, ms")
    print(f"{'':10s} {'first':>9s} {'second':>9s} {'change':>8s}")
    for name in first:
        a, b = first[name], second[name]
        print(f"{name:10s} {a:9.2f} {b:9.2f} {100.0 * (b / a - 1):+7.1f}%")
    same = sides[0].losses == sides[1].losses
    print(f"losses bit for bit: {'same' if same else 'differ'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
