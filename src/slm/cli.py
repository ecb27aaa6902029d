"""Command-line entry point.

Subcommands: prepare, build-vocab, pretrain, eval-unshuffle,
finetune-cls, finetune-qa, probe, gradcheck. Only pretrain takes
``--profile`` and ``--out``. Exit codes: 0 success; 1 data problems
(missing/bad files), training aborted on a non-finite loss or gradient,
and running out of memory; 2 contract or format violations: a malformed
checkpoint or probe index or one holding NaN/Inf, a malformed vocab
file or one with more tokens than ``vocab_size`` (pretrain: any other
count), and argparse's usage errors, such as a flag the command does
not take. ``-v`` / ``--log-level LEVEL`` on any subcommand sends log
records (the trainer's step lines at ``info``) to stderr; the default,
``warning``, keeps a run quiet. A file the system refuses to create or
write, such as an ``--out`` under a regular file or a write to a full
disk, is ``error: <path>: <reason>`` with exit 1.

Heavy imports happen inside main() so SLM_THREADS can cap the BLAS
thread pools before numpy loads.
"""
from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys

from .errors import ContractError, DataError, FormatError, TrainingAbort


# the thread-pool variables of OpenMP, OpenBLAS, MKL, numexpr, Apple
# Accelerate and BLIS: whichever one numpy's BLAS reads, SLM_THREADS caps it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def _cap_threads() -> None:
    cap = os.environ.get("SLM_THREADS")
    if not cap:
        return
    for var in THREAD_VARS:
        os.environ[var] = cap


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     dest="overrides", help="override one config key")
    sub.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slm",
        description="sentence-shuffling language model pretraining tools")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("prepare", help="segment raw text into sentences")
    p.add_argument("input")
    p.add_argument("output")

    p = subs.add_parser("build-vocab", help="frequency vocabulary from text")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--size", type=int, default=2000)

    for name in ("pretrain", "eval-unshuffle", "finetune-cls",
                 "finetune-qa", "probe", "gradcheck"):
        _add_common(subs.add_parser(name))
    # the checkpoint commands start from the stored config and gradcheck
    # from its own small model, so only pretrain reads a profile
    subs.choices["pretrain"].add_argument("--profile", default="tiny",
                                          help="config profile name")
    subs.choices["pretrain"].add_argument("--out", default="runs/latest",
                                          help="output directory")
    for sub in subs.choices.values():
        sub.add_argument("-v", "--log-level", nargs="?", const="info",
                         default="warning",
                         choices=("debug", "info", "warning", "error"),
                         help="log to stderr at this level (-v alone: info)")
    return parser


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Send the package's log records at ``level`` and up to stderr for
    the duration of one command."""
    logger = logging.getLogger("slm")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.addHandler(handler)
    logger.setLevel(level.upper())
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


def _load_corpus_documents(path: str, vocab):
    from .textpipe import document_from_sentences, read_prepared
    return [document_from_sentences(sents, vocab)
            for sents in read_prepared(path)]


def _require(cfg, field: str) -> str:
    value = getattr(cfg, field)
    if not value:
        raise ContractError(f"this command needs --set {field}=PATH")
    return value


def _load_vocab(cfg, exact: bool = False):
    """The vocab file ``cfg.vocab`` names. It may not hold more tokens
    than ``vocab_size``; ``exact`` (pretrain) also rejects fewer. A
    checkpoint trained on a smaller vocab file still loads."""
    from .textpipe import Vocab
    path = _require(cfg, "vocab")
    vocab = Vocab.load(path)
    if len(vocab) > cfg.vocab_size or (exact and len(vocab) != cfg.vocab_size):
        raise ContractError(f"{path} holds {len(vocab)} tokens but "
                            f"vocab_size is {cfg.vocab_size}")
    return vocab


def _load_checkpoint_and_config(args):
    """Model and config from the checkpoint, with the command line on top.

    The stored config takes the place of the profile: every key that
    ``--config``, ``--set`` or ``--seed`` names is laid on it, in that
    order, as pretrain lays them on the profile. The result must name
    and shape the stored tensors exactly, else FormatError.
    """
    from dataclasses import replace

    from .checkpoint import check_param_shapes, load_checkpoint
    from .config import command_line_keys
    from .model import param_shapes

    keys = command_line_keys(args.config, args.overrides, args.seed)
    if not keys.get("checkpoint"):
        raise ContractError("this command needs --set checkpoint=PATH")
    ck = load_checkpoint(keys["checkpoint"])
    cfg = replace(ck.config, **keys).validate()
    check_param_shapes(cfg.checkpoint, ck, param_shapes(cfg))
    return ck, cfg


def cmd_prepare(args) -> int:
    from .textpipe import read_corpus, segment_sentences, write_corpus
    docs = [segment_sentences(doc) for doc in read_corpus(args.input)]
    docs = [d for d in docs if d]
    if not docs:
        raise DataError(f"{args.input}: no documents found")
    write_corpus(args.output, docs)
    print(f"wrote {len(docs)} documents to {args.output}")
    return 0


def cmd_build_vocab(args) -> int:
    from .textpipe import build_vocab, read_corpus
    docs = read_corpus(args.input)
    if not docs:
        raise DataError(f"{args.input}: no documents found")
    vocab = build_vocab(docs, args.size)
    vocab.save(args.output)
    print(f"wrote {len(vocab.id_to_token)} tokens to {args.output}")
    return 0


def cmd_pretrain(args) -> int:
    from .config import resolve_config
    from .trainer import train_loop
    cfg = resolve_config(args.profile, args.config, args.overrides, args.seed)
    vocab = _load_vocab(cfg, exact=True)
    docs = _load_corpus_documents(_require(cfg, "corpus"), vocab)
    result = train_loop(docs, cfg, args.out)
    print(f"finished {cfg.steps} steps; total {result['total']:.4f} "
          f"(mlm {result['l_mlm']:.4f}, slm {result['l_slm']:.4f})")
    print(f"metrics: {result['metrics']}")
    print(f"checkpoint: {result['checkpoint']}")
    return 0


def cmd_eval_unshuffle(args) -> int:
    from .trainer import evaluate_unshuffle, pack_corpus
    ck, cfg = _load_checkpoint_and_config(args)
    vocab = _load_vocab(cfg)
    docs = _load_corpus_documents(_require(cfg, "eval_corpus"), vocab)
    packed = pack_corpus(docs, cfg)
    scores = evaluate_unshuffle(ck.params, cfg, packed, seed=cfg.seed)
    print(f"n={scores['n']} em={scores['em']:.4f} tau={scores['tau']:.4f}")
    print(f"pos_acc={scores['pos_acc']:.4f}")
    for n, part in scores["by_n"].items():
        print(f"  N={n}: n={part['n']} em={part['em']:.4f} "
              f"tau={part['tau']:.4f}")
    return 0


def _finetune_steps(cfg, n_examples: int) -> int:
    per_epoch = max(1, -(-n_examples // cfg.batch_size))
    return cfg.finetune_epochs * per_epoch


def cmd_finetune_cls(args) -> int:
    from .heads import cls_accuracy, finetune_cls, read_cls_tsv
    ck, cfg = _load_checkpoint_and_config(args)
    vocab = _load_vocab(cfg)
    examples, label_names = read_cls_tsv(_require(cfg, "train_file"),
                                         vocab, cfg)
    n_outputs = 1 if cfg.task_type == "regression" else len(label_names)
    steps = _finetune_steps(cfg, len(examples))
    head = finetune_cls(ck.params, cfg, examples, n_outputs, steps,
                        seed=cfg.seed)
    if cfg.task_type == "regression":
        print(f"trained regression head for {steps} steps "
              f"on {len(examples)} examples")
    else:
        acc = cls_accuracy(ck.params, head, cfg, examples)
        print(f"train accuracy {acc:.4f} after {steps} steps "
              f"({len(examples)} examples, {n_outputs} classes)")
    return 0


def cmd_finetune_qa(args) -> int:
    from .heads import finetune_qa, qa_metrics, read_qa_jsonl
    ck, cfg = _load_checkpoint_and_config(args)
    vocab = _load_vocab(cfg)
    examples = read_qa_jsonl(_require(cfg, "train_file"), vocab, cfg)
    steps = _finetune_steps(cfg, len(examples))
    head = finetune_qa(ck.params, cfg, examples, steps, seed=cfg.seed)
    scores = qa_metrics(ck.params, head, cfg, examples)
    print(f"train em {scores['em']:.4f} sentence-consistency "
          f"{scores['sentence_consistency']:.4f} after {steps} steps")
    return 0


def cmd_probe(args) -> int:
    from .probe import (export_reps, load_index, neighbor_report,
                        nearest_neighbors, save_index)
    from .textpipe import read_prepared
    ck, cfg = _load_checkpoint_and_config(args)
    index_path = _require(cfg, "index")
    if os.path.exists(index_path):
        index = load_index(index_path)
    else:
        vocab = _load_vocab(cfg)
        docs = read_prepared(_require(cfg, "corpus"))
        index = export_reps(ck.params, cfg, docs, vocab)
        save_index(index_path, index)
        print(f"exported {index.matrix.shape[0]} sentence rows "
              f"to {index_path}")
    if cfg.query_row >= 0:
        hits = nearest_neighbors(index, cfg.query_row, cfg.top_k)
        print(neighbor_report(index, cfg.query_row, hits))
    return 0


GRADCHECK_TOL = 1e-3     # gradcheck passes when its max rel err is below


def cmd_gradcheck(args) -> int:
    import numpy as np

    from .config import resolve_config
    from .masking import apply_span_masking
    from .model import init_params
    from .objectives import pretrain_bundle
    from .shuffling import apply_shuffle, sample_permutation
    from .tensor import grad_check
    from .textpipe import NUM_SPECIALS, Document, pack_example

    # the check instance stays small so the finite-difference sweep over
    # every parameter finishes quickly; --set can resize it
    check_defaults = ["encoder_layers=2", "decoder_layers=1", "heads=2",
                      "hidden=16", "ffn=32", "seq_len=32", "max_sentences=4",
                      "vocab_size=32", "dropout=0"]
    cfg = resolve_config("tiny", args.config,
                         check_defaults + list(args.overrides), args.seed)
    rng = np.random.default_rng(cfg.seed)
    # float64 only: float32 differencing is too rough for the tolerance
    params = init_params(cfg, rng, np.float64)

    doc = Document([
        [int(w) for w in rng.integers(NUM_SPECIALS, cfg.vocab_size,
                                      size=int(rng.integers(3, 7)))]
        for _ in range(cfg.max_sentences)])
    # as pretraining: no markers and no shuffle without sentence reps
    ex = pack_example(doc, cfg.seq_len, cfg.max_sentences, rng,
                      use_sentence_tokens=cfg.sentence_reps_enabled)
    ex = apply_span_masking(ex, cfg, rng)
    if cfg.sentence_reps_enabled:
        ex = apply_shuffle(ex, sample_permutation(ex.num_sentences, rng))

    def f():
        return pretrain_bundle(params, cfg, [ex]).loss

    err = grad_check(f, list(params.values()), eps=1e-4)
    print(f"gradcheck max rel err {err:.3e} "
          f"(tolerance {GRADCHECK_TOL:g}, float64)")
    return 0 if err < GRADCHECK_TOL else 1


_COMMANDS = {
    "prepare": cmd_prepare,
    "build-vocab": cmd_build_vocab,
    "pretrain": cmd_pretrain,
    "eval-unshuffle": cmd_eval_unshuffle,
    "finetune-cls": cmd_finetune_cls,
    "finetune-qa": cmd_finetune_qa,
    "probe": cmd_probe,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    _cap_threads()
    args = build_parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return _COMMANDS[args.command](args)
        except (DataError, TrainingAbort) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            where = f"{exc.filename}: " if exc.filename else ""
            print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
            return 1
        except (ContractError, FormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
