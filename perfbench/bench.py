"""Workloads, their phases, output checks and the metrics they yield.

A run drives the system through the public entry points the ``slm``
CLI uses, in the order a user would: set up and pretrain, reload the
checkpoint, unshuffle held-out documents, export and query sentence
representations, then fine-tune the classification and QA heads from
the checkpoint and score QA. Every workload runs every phase, so every
end-to-end metric exists on every workload; the workloads differ in
the documents they feed and in how much of the run each phase gets.

The amount of work is fixed by ``--seconds`` through per-phase rates
(items per second of run time), never by a clock, so two commits always
do identical work and the pretraining loss repeats bit for bit. Times
are scaled to the machine's usual speed by ``SpeedProbe``.
"""
from __future__ import annotations

import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from slm import (checkpoint, encoder, heads, model, probe, reconstructor,
                 shuffling, trainer)
from slm.config import config_echo, resolve_config
from slm.model import param_shapes
from slm.textpipe import (build_vocab, document_from_sentences, read_corpus,
                          read_prepared)

import gen
from spans import Patches, StepClock, Tracer

ROUNDS = 8
CHUNK = 8               # docs or examples per timed eval, export, QA call
QUERY_BATCH = 25        # queries per timed batch
NEAREST = 7             # probe samples that set the speed of an interval
PROBE_REPS = 2          # kernel passes per speed sample
REF_SECONDS = 2.5e-3    # usual probe sample: its median on an x86-64 core
                        # (numpy 2.4, OpenBLAS 0.3.31) at its common speed
WARM_STEPS = 2          # first pretraining steps left out of step statistics
CHECK_DOCS = 8          # held-out docs whose greedy order is checked
TOP_K = 5
VOCAB_CAP = 1000
N_PAIRS = N_QA = 256    # fine-tuning examples read during set-up
# printed, but too unsteady on a shared machine to hold a bound: the 90th
# percentile of a 0.2 ms call moves by a tenth to a half between runs
UNREPORTED = ("probe_query_ms.p90",)

# Pretraining is the same for every --seed: the training corpus and the
# model's own seed (init, masks, shuffles, dropout) come from TRAIN_SEED,
# and --seed draws the held-out, probe, classification and QA inputs.
# A short run leaves the model with a greedy stopping habit that differs
# from one training draw to the next (7.3 or 12.8 decoder passes per
# long document, 2.5 or 4 per story), which would make eval throughput a
# property of the seed rather than of the program.
TRAIN_SEED = 0

# settings every workload shares on top of the tiny profile; the higher
# peak rate lets a run of a hundred steps visibly lower the loss
COMMON = ("peak_lr=1e-3", "checkpoint_every=0", "log_every=0")


@dataclass(frozen=True)
class Workload:
    shape: str                      # gen document shape
    overrides: tuple[str, ...]      # config keys on top of COMMON
    n_train: int                    # training documents
    index_docs: int                 # held-out docs in the queried index
    rates: dict                     # phase -> items per second of run
    primary: tuple[str, ...]        # runs that per-step layer metrics use


# rates give each phase a fixed share of the run at the speed the
# program had when the benchmark was defined (about 120 ms per stories
# step and 260 ms per long-docs step on one x86-64 core)
WORKLOADS = {
    "stories": Workload(
        shape="story", overrides=("seq_len=128", "max_sentences=8"),
        n_train=1000, index_docs=128, primary=("pretrain",),
        rates={"pretrain": 3.5, "eval": 8.0, "export": 7.0, "query": 100.0,
               "cls": 0.8, "qa": 0.8, "qa_eval": 8.0}),
    "long-docs": Workload(
        shape="long", overrides=("seq_len=256", "max_sentences=20"),
        n_train=400, index_docs=32, primary=("pretrain",),
        rates={"pretrain": 1.8, "eval": 4.5, "export": 4.0, "query": 80.0,
               "cls": 0.27, "qa": 0.27, "qa_eval": 1.8}),
    "finetune": Workload(
        shape="story", overrides=("seq_len=128", "max_sentences=8"),
        n_train=1000, index_docs=128,
        primary=("finetune_cls", "finetune_qa"),
        rates={"pretrain": 1.4, "eval": 5.0, "export": 4.4, "query": 100.0,
               "cls": 2.5, "qa": 2.5, "qa_eval": 10.0}),
}

# minimum work per phase, so the shortest run still exercises and
# checks every phase
FLOORS = {"pretrain": 2 * WARM_STEPS + 4, "eval": ROUNDS, "export": ROUNDS,
          "query": 2 * ROUNDS, "cls": ROUNDS, "qa": ROUNDS,
          "qa_eval": ROUNDS}


def work_counts(wl: Workload, seconds: int) -> dict:
    return {phase: max(FLOORS[phase], round(rate * seconds))
            for phase, rate in wl.rates.items()}


class SpeedProbe:
    """A fixed numpy and Python kernel, timed all through a run.

    A machine shared with other work runs the same code up to a fifth
    faster or slower from one second to the next. The probe does not
    touch the program, so its time near a moment, over REF_SECONDS, says
    how slow the machine was then. Each timed interval of the run is
    divided by the median of the NEAREST probe samples around it, which
    takes that swing out and leaves the program's own speed, in the time
    it would take on the machine at its usual speed. The probe runs at
    every pretraining step boundary and every phase entry, outside all
    timed intervals. Raw values are printed beside the reported ones.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((8, 48, 64)).astype(np.float32)
        self.w = rng.standard_normal((64, 256)).astype(np.float32)
        self.tiny = rng.standard_normal((4, 16)).astype(np.float32)
        self.at: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            h = self.x @ self.w
            g = 0.5 * h * (1.0 + np.tanh(0.8 * (h + 0.045 * h * h * h)))
            s = g @ self.w.T
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)
            t = self.tiny
            for _ in range(20):
                t = np.tanh(t * 0.5 + 0.1)
                t.sum(axis=-1)
            {i: [i] * 2 for i in range(200)}
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def scale(self, spans) -> list[float]:
        """Durations of (start, end, items) spans at the usual speed."""
        at = np.asarray(self.at)
        took = np.asarray(self.samples)
        out = []
        for t0, t1, _ in spans:
            dist = np.abs(at - (t0 + t1) / 2)
            near = (np.argpartition(dist, NEAREST)[:NEAREST]
                    if len(at) > NEAREST else slice(None))
            out.append((t1 - t0) * REF_SECONDS / float(np.median(took[near])))
        return out


class Outcome:
    """Metrics, inputs' properties and the operation ledger of one run."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.raw: dict[str, float] = {}
        self.unreported: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.inputs: dict[str, float] = {}
        self.phase_s: dict[str, float] = {}
        self.echo: dict[str, str] = {}

    def metric(self, name: str, value: float, unit: str, n: int = 1,
               raw: float | None = None, report: bool = True) -> None:
        """Record a metric; ``report=False`` ones are printed but left out
        of the result line."""
        self.metrics[name] = (float(value), unit, n)
        self.raw[name] = float(value if raw is None else raw)
        if not report:
            self.unreported.add(name)

    def ops(self, n: int) -> None:
        self.attempted += n

    def fail(self, n: int, why: str) -> None:
        self.failed += max(n, 1)
        self.problems.append(why)

    def check(self, ok: bool, why: str, n: int = 1) -> None:
        if not ok:
            self.fail(n, why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _finite(tensors) -> bool:
    return all(np.all(np.isfinite(t.data)) for t in tensors)


def _read_losses(metrics_path: str) -> list[float]:
    """Per-step joint loss from the metrics CSV train_loop writes."""
    with open(metrics_path, encoding="utf-8") as fh:
        rows = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    header = rows[0].strip().split(",")
    col = header.index("total")
    return [float(r.split(",")[col]) for r in rows[1:]]


def _pad_stats(packed, seq_len: int) -> tuple[float, float]:
    used = sum(ex.attention_len for ex in packed)
    pad = 1.0 - used / (len(packed) * seq_len)
    return pad, float(np.mean([ex.num_sentences for ex in packed]))


class Run:
    """One workload at one seed: inputs, phases, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: int, work_dir: str,
                 tracer: Tracer | None = None):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work_counts(self.wl, seconds)
        self.dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.tracer = tracer
        self.out = Outcome()
        self.patches = Patches()
        if tracer is not None:
            tracer.install(self.patches)
        # outermost, so the probe between steps sits in no layer's span
        self.speed = SpeedProbe()
        self.clock = StepClock(self.patches, self.speed.sample)
        n_heldout = max(self.work["eval"], self.work["export"], CHECK_DOCS,
                        self.wl.index_docs)
        self.paths = gen.write_inputs(work_dir, self.wl.shape, seed,
                                      TRAIN_SEED, self.wl.n_train, n_heldout,
                                      N_PAIRS, N_QA)
        self.losses: list[float] = []
        # phase -> (start, end, items) of every timed interval
        self.spans: dict[str, list[tuple[float, float, int]]] = {}
        self._stage = ("inputs", time.perf_counter())

    def close(self) -> None:
        self.stage("done")
        self.patches.undo()

    def stage(self, run: str) -> None:
        """Enter a phase: a speed sample, the tracer's run id, and wall
        time per phase."""
        self.speed.sample()
        now = time.perf_counter()
        prev, since = self._stage
        self.out.phase_s[prev] = self.out.phase_s.get(prev, 0.0) + now - since
        self._stage = (run, now)
        if self.tracer is not None:
            self.tracer.set_run(run)

    def timed(self, phase: str, fn, items: int = 1):
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.spans.setdefault(phase, []).append((t0, t1, items))
        return result

    # -- set-up --------------------------------------------------------

    def pretrain_setup(self):
        """Corpus read and tokenize, vocab, packing, parameter init."""
        vocab = build_vocab(read_corpus(self.paths["train.txt"]), VOCAB_CAP)
        steps = self.work["pretrain"]
        cfg = resolve_config("tiny", None, list(COMMON + self.wl.overrides) + [
            f"vocab_size={len(vocab)}", f"steps={steps}",
            f"warmup={max(1, steps // 10)}"], TRAIN_SEED)
        docs = [document_from_sentences(s, vocab)
                for s in read_prepared(self.paths["train.txt"])]
        docs = [d for d in docs if d.sentences]
        packed = trainer.pack_corpus(docs, cfg)
        model.init_params(cfg, np.random.default_rng(cfg.seed))
        return vocab, cfg, docs, packed

    def finetune_setup(self, ckpt_path: str):
        """Checkpoint load and pair/QA packing."""
        ck = checkpoint.load_checkpoint(
            ckpt_path, expected_names=[n for n, _ in param_shapes(self.cfg)])
        cls_examples, labels = heads.read_cls_tsv(
            self.paths["pairs.tsv"], self.vocab, self.cfg)
        qa_examples = heads.read_qa_jsonl(
            self.paths["qa.jsonl"], self.vocab, self.cfg)
        return ck, cls_examples, labels, qa_examples

    def load(self, ckpt_path: str) -> dict:
        return checkpoint.load_checkpoint(
            ckpt_path,
            expected_names=[n for n, _ in param_shapes(self.cfg)]).params

    # -- pretraining ---------------------------------------------------

    def pretrain(self) -> str:
        self.stage("setup")
        self.out.ops(1)
        self.vocab, self.cfg, self.docs, packed = self.timed(
            "setup_pretrain", self.pretrain_setup)
        self.out.echo = dict(config_echo(self.cfg))
        pad, sents = _pad_stats(packed, self.cfg.seq_len)
        if "pretrain" in self.wl.primary:
            self.out.inputs.update(pad_fraction=pad, sentences_per_doc=sents)
        self.out.inputs.update(train_examples=len(packed))

        self.stage("pretrain")
        steps = self.cfg.steps
        self.out.ops(steps)
        result = trainer.train_loop(self.docs, self.cfg,
                                    os.path.join(self.dir, "pretrain"))
        self.losses = _read_losses(result["metrics"])
        clock = self.clock
        self.spans["step"] = list(zip(clock.starts, clock.ends,
                                      clock.tokens))[WARM_STEPS:]
        bad = sum(not math.isfinite(x) for x in self.losses)
        self.out.check(len(self.losses) == steps,
                       f"metrics has {len(self.losses)} rows for {steps} steps")
        self.out.check(bad == 0, f"{bad} non-finite pretraining losses", bad)
        self.out.check(len(clock.ends) == steps == len(clock.tokens),
                       f"timed {len(clock.ends)} of {steps} steps")
        final = self.final_loss()
        self.out.check(final < self.losses[0],
                       f"final loss {final} not below step-0 {self.losses[0]}")
        self.out.metric("train_loss_final", final, "nats", len(self.losses))
        self.out.inputs.update(
            checkpoint_bytes=os.path.getsize(result["checkpoint"]))
        return result["checkpoint"]

    def final_loss(self) -> float:
        """Mean joint loss over the last tenth of the steps.

        A single step's loss swings with that batch's shuffle coin, so
        the tail mean is the steadier figure; like every loss here it
        repeats exactly on one commit.
        """
        tail = self.losses[-max(1, len(self.losses) // 10):]
        return float(np.mean(tail))

    # -- untimed output checks -----------------------------------------

    def check_greedy(self, params: dict, heldout) -> None:
        """greedy_unshuffle must return a permutation."""
        self.stage("checks")
        docs = [document_from_sentences(s, self.vocab)
                for s in heldout[:CHECK_DOCS]]
        packed = trainer.pack_corpus(docs, self.cfg)
        rng = np.random.default_rng([self.seed, 40])
        self.out.ops(len(packed))
        for ex in packed:
            ex = shuffling.apply_shuffle(
                ex, shuffling.sample_permutation(ex.num_sentences, rng))
            h = encoder.encode_batch(params, self.cfg, [ex])
            order = reconstructor.greedy_unshuffle(
                params, self.cfg, encoder.extract_summary(h, ex, 0))
            self.out.check(sorted(order.tolist()) == list(range(
                ex.num_sentences)), f"greedy order {order} is no permutation")

    def query_index(self, params: dict, texts):
        """The index the queries search, exported once before the rounds."""
        self.stage("probe_index")
        self.out.ops(len(texts))
        index = probe.export_reps(params, self.cfg, texts, self.vocab)
        self.out.inputs.update(index_rows=index.matrix.shape[0])
        self.out.check(bool(np.all(np.isfinite(index.matrix))),
                       "non-finite sentence representation", len(texts))
        return index

    # -- one round of each post-pretraining phase ----------------------

    def chunks(self, items, size: int):
        """Consecutive slices of ``items``, each after a speed sample, so
        every timed call has probe samples close on both sides."""
        for lo in range(0, len(items), size):
            self.speed.sample()
            yield items[lo:lo + size]

    def eval_round(self, params: dict, packed) -> None:
        self.stage("eval")
        self.out.ops(len(packed))
        for chunk in self.chunks(packed, CHUNK):
            scores = self.timed("eval", lambda: trainer.evaluate_unshuffle(
                params, self.cfg, chunk, seed=self.cfg.seed), len(chunk))
            ok = (scores["n"] == len(chunk) and 0.0 <= scores["em"] <= 1.0
                  and -1.0 <= scores["tau"] <= 1.0)
            self.out.check(ok, f"unshuffle scores out of range: {scores}",
                           len(chunk))

    def export_round(self, params: dict, texts) -> None:
        self.stage("probe")
        self.out.ops(len(texts))
        for chunk in self.chunks(texts, CHUNK):
            t0 = time.perf_counter()
            index = probe.export_reps(params, self.cfg, chunk, self.vocab)
            t1 = time.perf_counter()
            self.spans.setdefault("export", []).append(
                (t0, t1, index.matrix.shape[0]))
            self.out.check(bool(np.all(np.isfinite(index.matrix))),
                           "non-finite sentence representation", len(chunk))

    def query_round(self, index, rows) -> None:
        """Queries timed in batches: one query is too short to time
        steadily on a shared machine."""
        self.stage("probe_query")
        self.out.ops(len(rows))
        n = index.matrix.shape[0]
        for batch in self.chunks(rows, QUERY_BATCH):
            hits = self.timed("query", lambda: [
                probe.nearest_neighbors(index, int(q), TOP_K) for q in batch],
                len(batch))
            for q, found in zip(batch, hits):
                ids = [i for i, _ in found]
                sims = [s for _, s in found]
                ok = (len(ids) == TOP_K and len(set(ids)) == TOP_K
                      and q not in ids and all(0 <= i < n for i in ids)
                      and all(math.isfinite(s) for s in sims)
                      and sims == sorted(sims, reverse=True))
                self.out.check(ok, f"bad neighbor list for row {q}: {found}")

    def cls_round(self, params: dict, examples, n_labels: int,
                  steps: int) -> None:
        self.stage("finetune_cls")
        self.out.ops(steps)
        head = self.timed("cls", lambda: heads.finetune_cls(
            params, self.cfg, examples, n_labels, steps, seed=self.cfg.seed),
            steps)
        self.out.check(_finite(head.values()), "non-finite classifier head",
                       steps)

    def qa_round(self, params: dict, examples, steps: int) -> dict:
        self.stage("finetune_qa")
        self.out.ops(steps)
        head = self.timed("qa", lambda: heads.finetune_qa(
            params, self.cfg, examples, steps, seed=self.cfg.seed), steps)
        self.out.check(_finite(head.values()), "non-finite QA head", steps)
        return head

    def qa_eval_round(self, params: dict, head: dict, examples) -> None:
        self.stage("qa_eval")
        self.out.ops(len(examples))
        for chunk in self.chunks(examples, CHUNK):
            scores = self.timed("qa_eval", lambda: heads.qa_metrics(
                params, head, self.cfg, chunk), len(chunk))
            ok = (scores["n"] == len(chunk) and 0.0 <= scores["em"] <= 1.0
                  and 0.0 <= scores["sentence_consistency"] <= 1.0)
            self.out.check(ok, f"QA scores out of range: {scores}",
                           len(chunk))

    def rounds(self, ckpt_path: str) -> None:
        """Every phase after pretraining, interleaved over ROUNDS rounds,
        so a stretch of slow machine hits a few rounds of every phase
        rather than all of one; each rate is the median over rounds."""
        params = self.load(ckpt_path)
        heldout = read_prepared(self.paths["heldout.txt"])
        self.check_greedy(params, heldout)
        index = self.query_index(params, heldout[:self.wl.index_docs])
        eval_docs = [document_from_sentences(s, self.vocab)
                     for s in heldout[:self.work["eval"]]]
        eval_packed = trainer.pack_corpus(eval_docs, self.cfg)
        rng = np.random.default_rng([self.seed, 41])
        queries = rng.integers(0, index.matrix.shape[0],
                               size=self.work["query"])
        _, cls_examples, labels, qa_examples = self.finetune_setup(ckpt_path)
        if "pretrain" not in self.wl.primary:
            packed = ([ex.packed for ex in cls_examples]
                      + [ex.packed for ex in qa_examples])
            pad, sents = _pad_stats(packed, self.cfg.seq_len)
            self.out.inputs.update(pad_fraction=pad, sentences_per_doc=sents)
        cls_params = self.load(ckpt_path)
        qa_params = self.load(ckpt_path)

        part = {p: _split(self.work[p], ROUNDS) for p in
                ("eval", "export", "query", "cls", "qa", "qa_eval")}
        batch = self.cfg.batch_size
        for r in range(ROUNDS):
            self.stage("setup")
            self.out.ops(2)
            self.timed("setup_pretrain", self.pretrain_setup)
            self.timed("setup_finetune", lambda: self.finetune_setup(ckpt_path))
            lo, hi = part["eval"][r]
            self.eval_round(params, eval_packed[lo:hi])
            lo, hi = part["export"][r]
            self.export_round(params, heldout[lo:hi])
            lo, hi = part["query"][r]
            self.query_round(index, queries[lo:hi])
            lo, hi = part["cls"][r]
            self.cls_round(cls_params, _rotate(cls_examples, lo * batch),
                           len(labels), hi - lo)
            lo, hi = part["qa"][r]
            head = self.qa_round(qa_params, _rotate(qa_examples, lo * batch),
                                 hi - lo)
            lo, hi = part["qa_eval"][r]
            self.qa_eval_round(qa_params, head, _cycle(qa_examples, lo, hi))

    def all_phases(self) -> None:
        self.rounds(self.pretrain())

    # -- metrics -------------------------------------------------------

    def timing_metrics(self) -> None:
        """Times and rates from the recorded intervals, each computed from
        the probe-scaled durations and, for the record, from raw ones."""
        for name, unit, phase, stat in TIMINGS:
            spans = self.spans.get(phase)
            if spans:
                items = [n for _, _, n in spans]
                raw = [t1 - t0 for t0, t1, _ in spans]
                self.out.metric(name, stat(self.speed.scale(spans), items),
                                unit, len(spans), stat(raw, items),
                                report=name not in UNREPORTED)
        if self.spans.get("setup_finetune"):
            parts = [self.spans[p] for p in ("setup_pretrain", "setup_finetune")]
            self.out.metric(
                "setup_s",
                sum(statistics.median(self.speed.scale(p)) for p in parts),
                "s", len(parts[1]),
                sum(statistics.median(t1 - t0 for t0, t1, _ in p)
                    for p in parts))


def _ms(q: float):
    """q-th percentile of the durations, in ms."""
    return lambda took, items: float(np.percentile(np.asarray(took) * 1e3, q))


def _ms_per_item(q: float):
    """q-th percentile of duration per item, in ms."""
    return lambda took, items: float(np.percentile(
        [1e3 * s / n for s, n in zip(took, items)], q))


def _rate(took, items) -> float:
    """Median of items per second over the intervals."""
    return statistics.median(n / s for n, s in zip(items, took))


# (metric, unit, phase whose intervals it summarizes, statistic)
TIMINGS = [
    ("train_step_ms.p50", "ms", "step", _ms(50)),
    ("train_step_ms.p90", "ms", "step", _ms(90)),
    ("train_tokens_per_s", "tok/s", "step", _rate),
    ("eval_docs_per_s", "doc/s", "eval", _rate),
    ("probe_export_sents_per_s", "rows/s", "export", _rate),
    ("probe_query_ms.p50", "ms", "query", _ms_per_item(50)),
    ("probe_query_ms.p90", "ms", "query", _ms_per_item(90)),
    ("finetune_cls_steps_per_s", "step/s", "cls", _rate),
    ("finetune_qa_steps_per_s", "step/s", "qa", _rate),
    ("qa_eval_examples_per_s", "ex/s", "qa_eval", _rate),
]


def _split(total: int, parts: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of ``parts`` near-equal consecutive slices."""
    edges = [round(total * k / parts) for k in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _rotate(items: list, start: int) -> list:
    start %= len(items)
    return items[start:] + items[:start]


def _cycle(items: list, lo: int, hi: int) -> list:
    return [items[i % len(items)] for i in range(lo, hi)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _guarded(run: Run, phases) -> None:
    """Run phases; an error ends the run as a counted failure."""
    try:
        phases()
    except Exception as exc:  # report what broke with the run's ledger
        traceback.print_exc()
        run.out.fail(1, f"{type(exc).__name__}: {exc}")
    finally:
        run.close()


def run_untraced(name: str, seed: int, seconds: int, work_dir: str) -> Run:
    run = Run(name, seed, seconds, work_dir)
    _guarded(run, run.all_phases)
    run.timing_metrics()
    run.out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return run


def run_traced(name: str, seed: int, seconds: int, work_dir: str,
               dump_path: str):
    """Untraced pretraining, then the whole workload under the tracer.

    The untraced pass gives the base of ``trace.overhead_ratio`` and the
    losses the traced pass must reproduce exactly.
    """
    base = Run(name, seed, seconds, os.path.join(work_dir, "untraced"))
    _guarded(base, base.pretrain)
    base.timing_metrics()
    tracer = Tracer()
    run = Run(name, seed, seconds, os.path.join(work_dir, "traced"), tracer)
    _guarded(run, run.all_phases)
    run.timing_metrics()
    run.out.check(base.out.correct, "untraced pretraining failed")
    run.out.check(run.losses == base.losses,
                  "traced pretraining losses differ from untraced ones")
    tracer.dump(dump_path)
    base_p50 = base.out.raw.get("train_step_ms.p50", float("nan"))
    return run, tracer, base_p50

OPS = ("matmul", "gelu", "layer_norm", "softmax_rows", "cross_entropy",
       "take", "add", "mul", "dropout", "reshape", "swapaxes")

# every per-step figure divides by the optimizer steps of the workload's
# primary runs (pretraining on stories and long-docs, both fine-tuning
# loops on finetune); a layer those runs never enter reads 0
PER_STEP = [
    ("trainer.prepare_batch", "trainer.prepare_batch"),
    ("masking.apply_span_masking", "masking.apply_span_masking"),
    ("shuffling.apply_shuffle", "shuffling.apply_shuffle"),
    ("encoder.embed", "encoder.embed"),
    ("encoder.attn", "encoder.attn"),
    ("encoder.ffn", "encoder.ffn"),
    ("encoder.norm", "encoder.norm"),
    ("objectives.pretrain_bundle", "objectives.pretrain_bundle"),
    ("objectives.mlm_loss", "objectives.mlm_loss"),
    ("reconstructor.decode_sequence", "reconstructor.decode_sequence"),
    ("reconstructor.pointer_nll", "reconstructor.pointer_nll"),
] + [(f"tensor.{d}.{op}", f"tensor.{d}.{op}")
     for d in ("fwd", "bwd") for op in OPS] + [
    ("tensor.backward", "tensor.backward"),
    ("optim.clip_global_norm", "optim.clip_global_norm"),
    ("optim.adam_update", "optim.adam_update"),
    ("heads.encode_batch", "encoder.encode_batch.train"),
    ("heads.backward", "tensor.backward"),
]

# what the hooks cannot separate or see, printed with every traced run
NOTES = [
    "textpipe.pack_corpus.s: pack_corpus is defined in trainer.py; the "
    "span wraps trainer.pack_corpus.",
    "tensor.fwd.*: each op's time includes the non-finite scan and graph "
    "bookkeeping in tensor._make, which sit inside the op and cannot be "
    "split off from outside.",
    "tensor.fwd.take: take_rows calls take, so it is counted there.",
    "encoder.norm: post_norm is dropout, residual add and layer norm "
    "together; the per-op rows split it.",
    "reconstructor.greedy_*: counted from the causal_bias mask that "
    "greedy_unshuffle builds once per decoder pass over the prefix it "
    "feeds back; rows is the sum of those prefix lengths.",
    "heads.qa_forward includes best_span; heads.encode_batch and "
    "heads.backward are the encode_batch and backward calls of the "
    "fine-tuning loops.",
    "time a step spends between wrapped calls (the metrics CSV write, "
    "loss conversions) shows only as self time of trainer.train_loop, "
    "together with the benchmark's speed probe between steps.",
]


def layer_metrics(run: Run, tracer: Tracer, base_p50: float) -> dict:
    """The per-layer metrics of a traced run: name -> (value, unit)."""
    t = tracer.table()
    primary = run.wl.primary
    steps = max(1, t.calls("optim.adam_update", primary))
    out = {
        "input.pad_fraction": (run.out.inputs["pad_fraction"], "ratio"),
        "input.sentences_per_doc": (run.out.inputs["sentences_per_doc"],
                                    "count"),
    }

    def per_call(name, runs):
        return t.seconds(name, runs) / max(1, t.calls(name, runs))

    out["textpipe.pack_corpus.s"] = (per_call("textpipe.pack_corpus",
                                              ["setup"]), "s")
    for metric, span in PER_STEP:
        runs = primary
        if metric.startswith("heads."):
            runs = [r for r in primary if r in ("finetune_cls", "finetune_qa")]
        out[f"{metric}.ms_per_step"] = (
            1e3 * t.seconds(span, runs) / steps, "ms")
    out["tensor.graph_nodes_per_step"] = (
        sum(tracer.counts.get((r, "tensor.graph_nodes"), 0.0)
            for r in primary) / steps, "count")
    out["reconstructor.decode_sequence.calls_per_step"] = (
        t.calls("reconstructor.decode_sequence", primary) / steps, "count")

    all_runs = [r for r in tracer.runs if r != "checks"]
    out["encoder.encode_batch.ms_per_call.train"] = (
        1e3 * per_call("encoder.encode_batch.train", all_runs), "ms")
    out["encoder.encode_batch.ms_per_call.eval"] = (
        1e3 * per_call("encoder.encode_batch.eval", all_runs), "ms")

    docs = max(1, t.calls("reconstructor.greedy_unshuffle", ["eval"]))
    out["reconstructor.greedy_unshuffle.ms_per_doc"] = (
        1e3 * t.seconds("reconstructor.greedy_unshuffle", ["eval"]) / docs,
        "ms")
    out["reconstructor.greedy_steps_per_doc"] = (
        tracer.counts.get(("eval", "reconstructor.decoder_passes"), 0.0)
        / docs, "count")
    out["reconstructor.greedy_decoder_rows_per_doc"] = (
        tracer.counts.get(("eval", "reconstructor.decoder_rows"), 0.0)
        / docs, "count")

    out["checkpoint.save.ms"] = (1e3 * per_call("checkpoint.save",
                                                ["pretrain"]), "ms")
    out["checkpoint.load.ms"] = (1e3 * per_call("checkpoint.load",
                                                all_runs), "ms")
    out["checkpoint.bytes"] = (run.out.inputs["checkpoint_bytes"], "bytes")
    out["probe.export_reps.ms_per_doc"] = (
        1e3 * t.seconds("probe.export_reps", ["probe"])
        / run.work["export"], "ms")
    out["probe.nearest_neighbors.ms_per_query"] = (
        1e3 * per_call("probe.nearest_neighbors", ["probe_query"]), "ms")
    out["probe.index_rows"] = (run.out.inputs["index_rows"], "rows")
    out["heads.qa_forward.ms_per_call"] = (
        1e3 * per_call("heads.qa_forward", all_runs), "ms")
    out["heads.best_span.ms_per_call"] = (
        1e3 * per_call("heads.best_span", all_runs), "ms")
    out["trace.overhead_ratio"] = (
        run.out.raw["train_step_ms.p50"] / base_p50, "ratio")
    return out
