"""What the recorded graph of one training batch holds, op by op.

Between forward and backward the graph of a batch is alive whole, and
the backward's gradients come on top of what is left of it, so the
graph sets the peak memory of a training step. This tool builds three
batches, each with dropout on, and walks the graph from the loss
before any backward:

- the first pretraining batch (``pretrain_bundle``) of the
  ``tiny-dropout`` and ``long-dropout`` legs of ``pretrain_digest.py``;
- ``qa``: the first batch of ``finetune_qa`` at the ``long-dropout``
  shape (seq_len 256, max_sentences 20), on questions about that leg's
  held-out documents, from freshly initialised parameters. QA
  fine-tuning runs only the encoder and three pointer products, so
  this graph is the encoder's.

For each op it prints the nodes that op recorded and the MiB of array
data they hold: each node's output and every array its backward
closure keeps, itself or through a nested helper function the closure
calls. Then it walks the graph and prints the step's traced memory
(tracemalloc) after the forward and at its peak over the forward and
the backward; ``peak_rss_mb`` follows that peak, not what the graph
holds after the forward. Last it names the op whose backward closure
reaches the highest traced memory, with the MiB traced when that
closure starts and its transient above that.

Each buffer counts once, for the first op that holds it: outputs
before closure arrays, inputs before the ops that read them, so a view
(a ``reshape`` output, a closure's reshaped input) counts for the op
that made its buffer. Leaves (the parameters and constants such as
the attention mask) count for none.

Run from the repository root:

    PYTHONPATH=src python tests/graph_census.py

and with ``PYTHONPATH=<other tree>/src`` to census another tree's ops
on the same batches. Counts and bytes do not depend on the BLAS or the
thread count. pytest does not collect this file; ``test_tensor.py``
checks ``census`` on small graphs, so it fails when the internals it
reads (``_prev``, the backward closures and their names) change.
"""
from __future__ import annotations

import gc
import tracemalloc
import types
from collections import Counter
from typing import NamedTuple

import numpy as np


def topo_nodes(loss) -> list:
    """Every tensor reachable from ``loss``, inputs before outputs."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._prev)
    return order


def op_name(closure) -> str:
    """The op that recorded a backward closure: the function it is
    nested in."""
    return closure.__qualname__.split(".")[0]


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s buffer."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _closure_arrays(fn, seen: set):
    """The arrays in ``fn``'s closure cells, and in those of every
    function a cell holds (a nested helper the backward calls), each
    function read once."""
    if id(fn) in seen:
        return
    seen.add(id(fn))
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:      # a variable the op never assigned
            continue
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, types.FunctionType):
            yield from _closure_arrays(value, seen)


def census(loss) -> tuple[Counter, Counter]:
    """(nodes per op, held bytes per op) of the graph under ``loss``."""
    nodes = topo_nodes(loss)
    ops = [n for n in nodes if n._backward is not None]
    seen = {id(_owner(n.data)) for n in nodes if n._backward is None}
    count, held = Counter(), Counter()

    def hold(op: str, arr: np.ndarray) -> None:
        owner = _owner(arr)
        if id(owner) not in seen:
            seen.add(id(owner))
            held[op] += owner.nbytes

    def name(node) -> str:
        return op_name(node._backward)

    for node in ops:
        count[name(node)] += 1
        hold(name(node), node.data)
    helpers = set()
    for node in ops:
        for value in _closure_arrays(node._backward, helpers):
            hold(name(node), value)
    return count, held


def pretraining_run(cfg, docs):
    """``run(step)`` for the first pretraining batch of ``train_loop``
    on ``docs``: it records the batch's graph and hands its loss to
    ``step``."""
    from slm.model import init_params
    from slm.objectives import pretrain_bundle
    from slm.trainer import _DROPOUT, pack_corpus, prepare_batch

    params = init_params(cfg, np.random.default_rng(cfg.seed))
    batch, _ = prepare_batch(pack_corpus(docs, cfg), 0, cfg)
    rng = np.random.default_rng([cfg.seed, _DROPOUT, 0])

    def run(step):
        step(pretrain_bundle(params, cfg, batch, rng).loss)

    return run


def qa_run(cfg, questions):
    """``run(step)`` for the first batch of ``finetune_qa`` on
    ``questions``, from parameters initialised with ``cfg.seed``:
    ``step`` takes the place of the loop's ``backward``."""
    from slm import heads
    from slm.model import init_params

    params = init_params(cfg, np.random.default_rng(cfg.seed))

    def run(step):
        backward = heads.backward
        heads.backward = step
        try:
            heads.finetune_qa(params, cfg, questions, steps=1)
        finally:
            heads.backward = backward

    return run


class PeakClosure(NamedTuple):
    """The backward closure that reaches the highest traced memory."""

    op: str
    start: int       # bytes traced when the closure starts
    transient: int   # its traced peak above ``start``


def traced_backward(loss) -> tuple[int, PeakClosure]:
    """``backward(loss)`` while tracemalloc traces: (the traced peak since
    tracing or its last peak reset, up to the sweep's end; the closure
    whose own traced peak is the highest). Each closure runs wrapped:
    its traced peak is read from a peak reset at its start."""
    from slm.tensor import backward

    peak = tracemalloc.get_traced_memory()[1]
    best = None

    def wrap(closure):
        def run(node):
            nonlocal peak, best
            start, before = tracemalloc.get_traced_memory()
            peak = max(peak, before)
            tracemalloc.reset_peak()
            closure(node)
            top = tracemalloc.get_traced_memory()[1]
            if best is None or top > best.start + best.transient:
                best = PeakClosure(op_name(closure), start, top - start)
        return run

    for node in topo_nodes(loss):
        if node._backward is not None:
            node._backward = wrap(node._backward)
    backward(loss)
    return max(peak, tracemalloc.get_traced_memory()[1]), best


class _Measured(Exception):
    """Stops a batch's run once its backward has run."""


def measure(run):
    """Census the graph ``run`` records, then walk it, under tracemalloc:
    (nodes per op, held bytes per op, bytes traced after the forward,
    traced peak over the forward and the backward, the peak closure).
    Traced bytes are the step's own allocations, numpy's buffers and
    Python objects: the parameters (and a pretraining batch) are made
    before tracing starts, and the parameters' gradients count."""
    found = []

    def step(loss):
        found.append(tracemalloc.get_traced_memory()[0])
        found.extend(census(loss))
        found.extend(traced_backward(loss))
        raise _Measured

    gc.collect()
    tracemalloc.start()
    try:
        run(step)
    except _Measured:
        pass
    finally:
        tracemalloc.stop()
    forward, count, held, peak, closure = found
    return count, held, forward, peak, closure


def batches():
    """(name, config, run) of each censused batch."""
    from pretrain_digest import pretraining_runs, qa_questions

    runs, vocab = pretraining_runs()
    for name, cfg, docs, _, texts in runs:
        if name not in ("tiny-dropout", "long-dropout"):
            continue
        cfg = cfg.validate()
        yield name, cfg, pretraining_run(cfg, docs)
        if name == "long-dropout":
            questions = qa_questions(texts, vocab, cfg)
            yield "qa", cfg, qa_run(cfg, questions)


def main() -> None:
    mib = 1024.0 * 1024.0
    for name, cfg, run in batches():
        count, held, forward, peak, closure = measure(run)
        print(f"{name}: batch {cfg.batch_size}, seq_len {cfg.seq_len}, "
              f"dropout {cfg.dropout}")
        print(f"  {'op':<18}{'nodes':>7}{'held MiB':>10}")
        for op in sorted(count, key=lambda o: (-held[o], o)):
            print(f"  {op:<18}{count[op]:>7}{held[op] / mib:>10.2f}")
        print(f"  {'total':<18}{sum(count.values()):>7}"
              f"{sum(held.values()) / mib:>10.2f}")
        print(f"  traced MiB: {forward / mib:.2f} after the forward, "
              f"{peak / mib:.2f} at the step's peak")
        print(f"  peak closure: {closure.op}, {closure.start / mib:.2f} MiB "
              f"traced at its start, {closure.transient / mib:.2f} MiB "
              f"transient above it")


if __name__ == "__main__":
    main()
