"""Digests that show whether a change moved the bits of pretraining,
of fine-tuning or of what eval, probe export and classification scoring
read from the encoder.

Three short pretraining runs, each followed by held-out greedy
unshuffling:

- ``learning``: the first leg of the learning check (acceptance
  criterion 5): its config, corpus seed 0 and leg seed 0, dropout off.
- ``tiny-dropout``: the tiny profile on the same ``corpus_gen``
  stories, with its dropout on (attention dropout runs at the same
  rate), for 40 steps.
- ``long-dropout``: the tiny profile at the long-docs benchmark's shape
  (seq_len 256, max_sentences 20), dropout on, for 10 steps, on
  documents of 20 to 28 sentences that ``long_stories`` runs together
  from the stories. Its attention walks several blocks of slices, with
  dropout, and its eval and export select rows from encodes about 250
  positions wide; the two story legs (about 52 positions) run attention
  in one block.

Every pretraining step runs the encoder's last layer only at the rows
its losses read (``objectives.read_rows``): about 14 of 52 rows in the
story legs and about 58 of 256 in ``long-dropout``, so the three legs
cover the row path's dropout draws and gradients in one block and in
several.

For each run it prints the sha256 of ``metrics.csv`` and of
``ckpt-final.bin``, and two digests that leave out the config echo:
``metrics-rows`` (the CSV without its ``#`` header lines) and
``ckpt-tensors`` (the step, every tensor, the Adam step and every Adam
moment, as ``load_checkpoint`` reads them). Then it prints the digest
of the orders ``evaluate_unshuffle`` predicts for the held-out stories
with the trained parameters, plus that eval's em, and three digests of
what the readers of the encoder read: every document's summary C in
the padded batches ``greedy_unshuffle`` receives in that eval, its
first N+2 rows as [1, N+2, hidden] (``unshuffle-c``), the
``export_reps`` matrix of the held-out documents (``export``), and
the feature rows that ``cls_accuracy`` hands ``classify`` to score with
a fresh head on sentence pairs from those documents, side by side as
[B, rows * hidden] (``cls-features``).

A fourth leg, ``finetune``, loads the ``tiny-dropout`` checkpoint twice
and runs ``finetune_cls`` and ``finetune_qa`` on pairs and questions
built from held-out stories, dropout still on. It prints a digest of
each returned head and of the encoder tensors each one trained, and the
``qa_metrics`` scores of the trained QA head on its questions.
``finetune_cls`` runs the last layer at the feature rows, with the
dropout draws and gradients of the full encode; ``finetune_qa`` runs
the full encode.

Run it from the repository root at two commits and compare the lines:

    PYTHONPATH=src SLM_THREADS=1 python tests/pretrain_digest.py > parent.txt
    PYTHONPATH=src SLM_THREADS=1 python tests/pretrain_digest.py \
        --against parent.txt

With ``--against`` it then prints each line's label (``learning
metrics.csv``, ``finetune qa scores``, ...) with ``same`` or ``moved``
and exits 1 if any line moved. For a commit whose copy of this file
lacks a leg, run this file against that commit's ``src`` to get the
leg's lines there:

    PYTHONPATH=<that commit>/src SLM_THREADS=1 \
        python tests/pretrain_digest.py > parent.txt

Equal digests mean the change left every float of pretraining, greedy
decoding, the readers above and fine-tuning as it was, so criterion 5
escapes at the same leg and needs no escape-leg rerun. The config echo
enters only the two file digests, so a change that only adds or retires
a config key moves the ``metrics.csv`` and ``ckpt-final.bin`` lines of
each pretraining run and none of the others.
Digests match only on the same Python, numpy and BLAS. pytest does not
collect this file.
"""
from __future__ import annotations

import hashlib
import os
import re
import tempfile
from dataclasses import replace


def label(line: str) -> str:
    """What a line reports on: its words up to the first digest, or its
    words without ``=`` when it holds no digest (the QA scores)."""
    words = line.split()
    for k, word in enumerate(words):
        if re.fullmatch(r"[0-9a-f]{64}", word):
            return " ".join(words[:k])
    return " ".join(w for w in words if "=" not in w)


def compare(lines: list[str], saved: list[str]) -> int:
    """Print each line's label with ``same`` or ``moved`` against the
    saved lines (a label only the saved run has is ``gone``); 1 if any
    line moved or went, else 0."""
    before = {label(line): line for line in saved
              if label(line) != line.strip()}   # digest lines only
    moved = 0
    print("--- against the saved run")
    for line in lines:
        same = before.pop(label(line), None) == line
        moved += not same
        print(f"{label(line)} {'same' if same else 'moved'}")
    for gone in before:
        print(f"{gone} gone")
    return 1 if moved or before else 0


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def metrics_rows_digest(path: str) -> str:
    """Digest of metrics.csv without its ``# key=value`` header."""
    with open(path, "rb") as f:
        rows = [line for line in f if not line.startswith(b"#")]
    return hashlib.sha256(b"".join(rows)).hexdigest()


def arrays_digest(named) -> str:
    """Digest of (name, array) pairs: names, shapes and bytes."""
    import numpy as np

    h = hashlib.sha256()
    for name, arr in named:
        arr = np.ascontiguousarray(arr)
        h.update(name.encode())
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


def checkpoint_tensors_digest(path: str) -> str:
    """Digest of a checkpoint's step, tensors and Adam state, read back
    with ``load_checkpoint``; the stored config does not enter it."""
    import numpy as np

    from slm.checkpoint import load_checkpoint

    ck = load_checkpoint(path)
    named = [("step", np.int64(ck.step))]
    named += [(name, ck.params[name].data) for name in sorted(ck.params)]
    if ck.opt_state is not None:
        state = ck.opt_state
        named.append(("adam.t", np.int64(state.t)))
        for name in sorted(state.m):
            named += [("m:" + name, state.m[name]),
                      ("v:" + name, state.v[name])]
    return arrays_digest(named)


def unshuffle_orders(params, cfg, held) -> tuple[str, str, float]:
    """Digests of the orders ``evaluate_unshuffle`` predicts and of every
    summary C it decodes, and its em."""
    import numpy as np

    from slm import trainer

    orders, summaries = [], []
    greedy = trainer.greedy_unshuffle

    def recording(params, cfg, c, counts):
        # each document's own rows, [1, N+2, hidden] as a single C
        summaries.extend(c.data[b:b + 1, :n + 2]
                         for b, n in enumerate(counts))
        preds = greedy(params, cfg, c, counts)
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
    c_digest = arrays_digest((f"c{k}", c) for k, c in enumerate(summaries))
    return h.hexdigest(), c_digest, scores["em"]


def pair_examples(stories, vocab, cfg) -> list:
    """Sentence pairs of each story's first two sentences, every other
    one swapped and labelled 1."""
    from slm import heads

    pairs = []
    for k, story in enumerate(stories):
        a, b = (story[0], story[1]) if k % 2 else (story[1], story[0])
        ex = heads.pack_pair(a, b, vocab, cfg)
        ex.label = float(k % 2)
        pairs.append(ex)
    return pairs


def reader_digests(params, cfg, stories, vocab) -> tuple[str, str]:
    """Digests of the ``export_reps`` matrix of ``stories`` and of the
    feature rows ``cls_accuracy`` hands ``classify`` for their pairs,
    each batch as [B, rows * hidden]."""
    import numpy as np

    from slm import heads
    from slm.probe import export_reps

    index = export_reps(params, cfg, stories, vocab)
    features = []
    classify = heads.classify

    def recording(h, *args):
        features.append(h.data.reshape(h.shape[0], -1))
        return classify(h, *args)

    head = heads.init_cls_head(cfg, 2, 3, np.random.default_rng(5))
    heads.classify = recording
    try:
        heads.cls_accuracy(params, head, cfg,
                           pair_examples(stories, vocab, cfg))
    finally:
        heads.classify = classify
    return (arrays_digest([("export", index.matrix)]),
            arrays_digest((f"f{k}", f) for k, f in enumerate(features)))


def qa_questions(stories, vocab, cfg) -> list:
    """One question per story, its answer the story's first object
    word."""
    from corpus_gen import OBJECTS

    from slm import heads
    from slm.textpipe import tokenize

    questions = []
    for k, story in enumerate(stories):
        context = " ".join(story)
        words = tokenize(context)
        start = next(i for i, w in enumerate(words) if w in OBJECTS)
        questions.append(heads.pack_qa(context, f"what came {k % 4}?",
                                       start, start, vocab, cfg))
    return questions


def finetune_leg(ckpt_path: str, vocab, stories, report) -> None:
    """Fine-tune both heads from one checkpoint, dropout on, and
    ``report`` digests of each head and of the encoder tensors it
    trained, then the QA head's ``qa_metrics`` scores."""
    from slm import heads
    from slm.checkpoint import load_checkpoint

    cfg = load_checkpoint(ckpt_path).config
    assert cfg.dropout > 0

    pairs = pair_examples(stories, vocab, cfg)
    questions = qa_questions(stories, vocab, cfg)

    legs = [
        ("cls", lambda p: heads.finetune_cls(p, cfg, pairs, 2, steps=6,
                                             seed=3)),
        ("qa", lambda p: heads.finetune_qa(p, cfg, questions, steps=6,
                                           seed=3)),
    ]
    for name, run in legs:
        params = load_checkpoint(ckpt_path).params
        head = run(params)
        report(f"finetune {name} head "
               f"{arrays_digest((n, head[n].data) for n in sorted(head))}")
        encoder = sorted(n for n in params if not n.startswith("dec."))
        report(f"finetune {name} encoder "
               f"{arrays_digest((n, params[n].data) for n in encoder)}")
        if name == "qa":
            scores = heads.qa_metrics(params, head, cfg, questions)
            report("finetune qa scores " + " ".join(
                f"{k}={v!r}" for k, v in scores.items()))


def long_stories(n_docs: int, seed: int) -> list[list[str]]:
    """Documents of 20 to 28 sentences: the k-th runs ``5 + k % 3``
    consecutive stories of ``make_corpus`` together."""
    from corpus_gen import make_corpus

    sizes = [5 + k % 3 for k in range(n_docs)]
    stories = make_corpus(sum(sizes), seed)
    docs, at = [], 0
    for n in sizes:
        docs.append([s for story in stories[at:at + n] for s in story])
        at += n
    return docs


def pretraining_runs():
    """The three pretraining legs, each as (name, config, training
    documents, held-out documents, held-out texts), and the vocab."""
    from slm.config import resolve_config
    from slm.textpipe import document_from_sentences

    from corpus_gen import corpus_assets, make_corpus
    from escape_legs import learning_setup

    train, held, base = learning_setup(corpus_seed=0)
    vocab = corpus_assets(5000, 200, 0)[2]
    held_texts = make_corpus(200, 1)    # the sentences of ``held``
    long_train, long_held = long_stories(48, 2), long_stories(12, 3)
    tiny = replace(resolve_config("tiny"), vocab_size=base.vocab_size,
                   checkpoint_every=0, seed=0)
    runs = [
        ("learning", replace(base, seed=0), train, held, held_texts),
        ("tiny-dropout", replace(tiny, steps=40, warmup=10, log_every=10),
         train, held, held_texts),
        ("long-dropout", replace(tiny, seq_len=256, max_sentences=20,
                                 steps=10, warmup=2, log_every=5),
         [document_from_sentences(d, vocab) for d in long_train],
         [document_from_sentences(d, vocab) for d in long_held],
         long_held),
    ]
    return runs, vocab


def main() -> list[str]:
    """Print every digest line as it is computed; return the lines."""
    lines = []

    def report(line: str) -> None:
        print(line, flush=True)
        lines.append(line)

    from slm.trainer import train_loop

    from corpus_gen import make_corpus

    runs, vocab = pretraining_runs()
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg, docs, held_docs, texts in runs:
            cfg = cfg.validate()
            out = os.path.join(tmp, name)
            res = train_loop(docs, cfg, out)
            metrics = os.path.join(out, "metrics.csv")
            ckpt = os.path.join(out, "ckpt-final.bin")
            for fname in ("metrics.csv", "ckpt-final.bin"):
                report(f"{name} {fname} "
                       f"{file_digest(os.path.join(out, fname))}")
            report(f"{name} metrics-rows {metrics_rows_digest(metrics)}")
            report(f"{name} ckpt-tensors {checkpoint_tensors_digest(ckpt)}")
            orders, summaries, em = unshuffle_orders(res["params"], cfg,
                                                     held_docs)
            report(f"{name} unshuffle-orders {orders} em={em:.3f}")
            report(f"{name} unshuffle-c {summaries}")
            export, features = reader_digests(res["params"], cfg,
                                              texts, vocab)
            report(f"{name} export {export}")
            report(f"{name} cls-features {features}")

        finetune_leg(os.path.join(tmp, "tiny-dropout", "ckpt-final.bin"),
                     vocab, make_corpus(16, 1), report)
    return lines


if __name__ == "__main__":
    import argparse
    import sys

    from slm.cli import _cap_threads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="saved output of a run at another commit")
    args = parser.parse_args()
    _cap_threads()
    lines = main()
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            sys.exit(compare(lines, fh.read().splitlines()))
