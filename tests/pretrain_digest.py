"""Digests that show whether a change moved pretraining's bits.

Two short pretraining runs on the ``corpus_gen`` stories, each followed
by held-out greedy unshuffling:

- ``learning``: the first leg of the learning check (acceptance
  criterion 5): its config, corpus seed 0 and leg seed 0, dropout off.
- ``tiny-dropout``: the tiny profile on the same stories, with its
  dropout and attention dropout on, for 40 steps.

For each run it prints the sha256 of ``metrics.csv``, of
``ckpt-final.bin`` and of the orders ``evaluate_unshuffle`` predicts for
the held-out stories with the trained parameters, plus that eval's em.
Run it from the repository root at two commits and compare the lines:

    PYTHONPATH=src SLM_THREADS=1 python tests/pretrain_digest.py

Equal digests mean the change left every float of pretraining and
greedy decoding as it was, so criterion 5 escapes at the same leg and
needs no escape-leg rerun. Digests match only on the same Python,
numpy and BLAS. pytest does not collect this file.
"""
from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import replace


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def unshuffle_orders(params, cfg, held) -> tuple[str, float]:
    """Digest of the orders ``evaluate_unshuffle`` predicts, and its em."""
    import numpy as np

    from slm import trainer

    orders = []
    greedy = trainer.greedy_unshuffle

    def recording(*args, **kwargs):
        preds = greedy(*args, **kwargs)
        orders.extend(preds)
        return preds

    trainer.greedy_unshuffle = recording
    try:
        scores = trainer.evaluate_unshuffle(
            params, cfg, trainer.pack_corpus(held, cfg), seed=9)
    finally:
        trainer.greedy_unshuffle = greedy
    h = hashlib.sha256()
    for order in orders:
        order = np.asarray(order, dtype=np.int64)
        h.update(np.int64(order.size).tobytes())
        h.update(order.tobytes())
    return h.hexdigest(), scores["em"]


def main() -> None:
    from slm.config import resolve_config
    from slm.trainer import train_loop

    from escape_legs import learning_setup

    train, held, base = learning_setup(corpus_seed=0)
    runs = [
        ("learning", replace(base, seed=0)),
        ("tiny-dropout", replace(resolve_config("tiny"),
                                 vocab_size=base.vocab_size, steps=40,
                                 warmup=10, checkpoint_every=0,
                                 log_every=10, seed=0)),
    ]
    for name, cfg in runs:
        cfg = cfg.validate()
        with tempfile.TemporaryDirectory() as tmp:
            res = train_loop(train, cfg, tmp)
            for fname in ("metrics.csv", "ckpt-final.bin"):
                print(f"{name} {fname} "
                      f"{file_digest(os.path.join(tmp, fname))}", flush=True)
        digest, em = unshuffle_orders(res["params"], cfg, held)
        print(f"{name} unshuffle-orders {digest} em={em:.3f}", flush=True)


if __name__ == "__main__":
    from slm.cli import _cap_threads

    _cap_threads()
    main()
