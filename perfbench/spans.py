"""Spans and counters taken from outside the program.

Every hook here replaces a public function, as bound in the module that
calls it, with a wrapper; ``Patches.undo`` puts the originals back. The
program's own code is never edited, so a traced run executes exactly
the arithmetic of an untraced one.

``StepClock`` is the only hook an untraced run installs: it notes the
time at each ``zero_grads`` call of ``train_loop`` (one per optimizer
step) and the tokens of each prepared batch. ``Tracer`` records a span
(name, start, end, parent span, run, layer) around every wrapped call
and every backward closure a tensor op returns, keeps them in memory in
flat arrays, and writes them out when the run ends.
"""
from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import numpy as np

from slm import (checkpoint, encoder, heads, model, objectives, probe,
                 reconstructor, shuffling, tensor, trainer)

# tensor ops whose forward call and backward closure both get a span
TENSOR_OPS = ("matmul", "add", "mul", "reshape", "swapaxes", "take",
              "gather_elements", "tsum", "tmean", "log", "softmax_rows",
              "layer_norm", "gelu", "cross_entropy", "dropout")

# (module, attribute as the caller looks it up, span name)
SPANS = [
    (trainer, "pack_corpus", "textpipe.pack_corpus"),
    (trainer, "pack_example", "textpipe.pack_example"),
    (probe, "pack_example", "textpipe.pack_example"),
    (trainer, "init_params", "model.init_params"),
    (model, "init_params", "model.init_params"),
    (trainer, "train_loop", "trainer.train_loop"),
    (trainer, "prepare_batch", "trainer.prepare_batch"),
    (trainer, "evaluate_unshuffle", "trainer.evaluate_unshuffle"),
    (trainer, "kendall_tau", "trainer.kendall_tau"),
    (trainer, "apply_span_masking", "masking.apply_span_masking"),
    (trainer, "apply_shuffle", "shuffling.apply_shuffle"),
    (shuffling, "apply_shuffle", "shuffling.apply_shuffle"),
    (trainer, "identity_record", "shuffling.identity_record"),
    (trainer, "sample_permutation", "shuffling.sample_permutation"),
    (encoder, "embed", "encoder.embed"),
    (encoder, "attention_bias", "encoder.attention_bias"),
    (encoder, "multi_head_attention", "encoder.attn"),
    (encoder, "feed_forward", "encoder.ffn"),
    (encoder, "post_norm", "encoder.norm"),
    (objectives, "extract_summary", "encoder.extract_summary"),
    (trainer, "extract_summary", "encoder.extract_summary"),
    (trainer, "pretrain_bundle", "objectives.pretrain_bundle"),
    (objectives, "mlm_loss", "objectives.mlm_loss"),
    (objectives, "decode_sequence", "reconstructor.decode_sequence"),
    (objectives, "pointer_nll", "reconstructor.pointer_nll"),
    (trainer, "greedy_unshuffle", "reconstructor.greedy_unshuffle"),
    (reconstructor, "multi_head_attention", "reconstructor.attn"),
    (reconstructor, "feed_forward", "reconstructor.ffn"),
    (reconstructor, "post_norm", "reconstructor.norm"),
    (trainer, "zero_grads", "optim.zero_grads"),
    (heads, "zero_grads", "optim.zero_grads"),
    (trainer, "clip_global_norm", "optim.clip_global_norm"),
    (heads, "clip_global_norm", "optim.clip_global_norm"),
    (trainer, "adam_update", "optim.adam_update"),
    (heads, "adam_update", "optim.adam_update"),
    (trainer, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (probe, "export_reps", "probe.export_reps"),
    (probe, "nearest_neighbors", "probe.nearest_neighbors"),
    (heads, "read_cls_tsv", "heads.read_cls_tsv"),
    (heads, "read_qa_jsonl", "heads.read_qa_jsonl"),
    (heads, "finetune_cls", "heads.finetune_cls"),
    (heads, "finetune_qa", "heads.finetune_qa"),
    (heads, "qa_metrics", "heads.qa_metrics"),
    (heads, "classify", "heads.classify"),
    (heads, "qa_forward", "heads.qa_forward"),
    (heads, "best_span", "heads.best_span"),
]

# modules whose encode_batch calls get a span named by the training flag
ENCODE_CALLERS = (objectives, trainer, probe, heads)
# modules whose backward() calls get a span and a graph-size count
BACKWARD_CALLERS = (trainer, heads)


class Patches:
    """Module attributes replaced by wrappers, restorable in reverse."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make) -> None:
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._saved.append((module, attr, original))

    def undo(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class StepClock:
    """Optimizer-step boundaries of ``train_loop``, seen from outside.

    A step runs from one ``zero_grads`` call to the next; the last one
    ends when ``train_loop`` saves its final checkpoint. ``between`` runs
    at each boundary, outside every step's time.
    """

    def __init__(self, patches: Patches, between=lambda: None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tokens: list[int] = []

        def on_zero(fn):
            def hook(params):
                if len(self.ends) < len(self.starts):
                    self.ends.append(time.perf_counter())
                between()
                self.starts.append(time.perf_counter())
                return fn(params)
            return hook

        def on_batch(fn):
            def hook(*args, **kwargs):
                batch, shuffled = fn(*args, **kwargs)
                self.tokens.append(sum(ex.attention_len for ex in batch))
                return batch, shuffled
            return hook

        def on_save(fn):
            def hook(*args, **kwargs):
                if len(self.ends) < len(self.starts):
                    self.ends.append(time.perf_counter())
                return fn(*args, **kwargs)
            return hook

        patches.replace(trainer, "zero_grads", on_zero)
        patches.replace(trainer, "prepare_batch", on_batch)
        patches.replace(trainer, "save_checkpoint", on_save)


def graph_size(loss) -> int:
    """Nodes reachable from the loss, walked the way backward() walks."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._prev)
    return len(seen)


class Tracer:
    """In-memory span recorder with wrappers for the slm modules."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self._run_id = self._intern_run("setup")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_layer = array("i")
        self._stack: list[int] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _intern_run(self, run: str) -> int:
        if run not in self.runs:
            self.runs.append(run)
        return self.runs.index(run)

    def set_run(self, run: str) -> None:
        self._run_id = self._intern_run(run)

    @property
    def run(self) -> str:
        return self.runs[self._run_id]

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.run, name)] += amount

    def open(self, nid: int, layer: int = -1) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_run.append(self._run_id)
        self.span_layer.append(layer)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def layer(self) -> int:
        """Innermost open span that is not a tensor op (-1 if none)."""
        for idx in reversed(self._stack):
            nid = self.span_name[idx]
            if not self.names[nid].startswith("tensor."):
                return nid
        return -1

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name: str):
        nid = self._intern(name)

        def make(fn):
            def traced(*args, **kwargs):
                idx = self.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
            return traced
        return make

    def _op(self, op: str):
        fwd = self._intern(f"tensor.fwd.{op}")
        bwd = self._intern(f"tensor.bwd.{op}")

        def make(fn):
            def traced(*args, **kwargs):
                idx = self.open(fwd)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                closure = out._backward
                # dropout at p=0 hands back its input, whose closure
                # belongs to the op that made it
                if closure is not None and not any(out is a for a in args):
                    layer = self.layer()

                    def traced_backward(node):
                        j = self.open(bwd, layer)
                        try:
                            closure(node)
                        finally:
                            self.close(j)
                    out._backward = traced_backward
                return out
            return traced
        return make

    def _encode(self):
        train = self._intern("encoder.encode_batch.train")
        evl = self._intern("encoder.encode_batch.eval")

        def make(fn):
            def traced(*args, **kwargs):
                training = kwargs.get("training",
                                      args[4] if len(args) > 4 else False)
                idx = self.open(train if training else evl)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
            return traced
        return make

    def _backward(self):
        nid = self._intern("tensor.backward")

        def make(fn):
            def traced(loss):
                self.count("tensor.graph_nodes", graph_size(loss))
                idx = self.open(nid)
                try:
                    return fn(loss)
                finally:
                    self.close(idx)
            return traced
        return make

    def _causal_bias(self, fn):
        """Greedy decoding builds one causal mask per decoder pass, over
        the prefix it feeds back; count both."""
        def traced(steps, *args, **kwargs):
            self.count("reconstructor.decoder_passes")
            self.count("reconstructor.decoder_rows", steps)
            return fn(steps, *args, **kwargs)
        return traced

    def install(self, patches: Patches) -> None:
        for op in TENSOR_OPS:
            patches.replace(tensor, op, self._op(op))
        for module, attr, name in SPANS:
            patches.replace(module, attr, self._spanned(name))
        for module in ENCODE_CALLERS:
            patches.replace(module, "encode_batch", self._encode())
        for module in BACKWARD_CALLERS:
            patches.replace(module, "backward", self._backward())
        patches.replace(reconstructor, "causal_bias", self._causal_bias)

    # -- analysis ------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def dump(self, path: str) -> None:
        """Spans as .npz columns plus the name and run tables."""
        np.savez(path,
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 run=np.frombuffer(self.span_run, dtype=np.int32),
                 layer=np.frombuffer(self.span_layer, dtype=np.int32),
                 names=np.asarray(json.dumps(self.names)),
                 runs=np.asarray(json.dumps(self.runs)))


class SpanTable:
    """Per-(run, name) call counts, inclusive and self seconds."""

    def __init__(self, tracer: Tracer):
        name = np.frombuffer(tracer.span_name, dtype=np.int32)
        start = np.frombuffer(tracer.span_start, dtype=np.float64)
        end = np.frombuffer(tracer.span_end, dtype=np.float64)
        parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
        run = np.frombuffer(tracer.span_run, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        self.names = tracer.names
        self.runs = tracer.runs
        n_names, n_runs = len(tracer.names), len(tracer.runs)
        key = run.astype(np.int64) * n_names + name
        size = n_runs * n_names
        self._calls = np.bincount(key, minlength=size).reshape(n_runs, n_names)
        self._incl = np.bincount(key, weights=dur, minlength=size).reshape(
            n_runs, n_names)
        self._self = np.bincount(key, weights=self_time,
                                 minlength=size).reshape(n_runs, n_names)
        layer = np.frombuffer(tracer.span_layer, dtype=np.int32)
        is_bwd = np.array([n.startswith("tensor.bwd.") for n in self.names],
                          dtype=bool)
        sel = is_bwd[name] & (layer >= 0)
        key = run[sel].astype(np.int64) * n_names + layer[sel]
        self._bwd = np.bincount(key, weights=dur[sel], minlength=size).reshape(
            n_runs, n_names)

    def _rows(self, runs):
        return [self.runs.index(r) for r in runs if r in self.runs]

    def calls(self, name: str, runs) -> int:
        if name not in self.names:
            return 0
        j = self.names.index(name)
        return int(sum(self._calls[r, j] for r in self._rows(runs)))

    def seconds(self, name: str, runs, self_only: bool = False) -> float:
        if name not in self.names:
            return 0.0
        j = self.names.index(name)
        src = self._self if self_only else self._incl
        return float(sum(src[r, j] for r in self._rows(runs)))

    def backward_by_layer(self, runs) -> dict[str, float]:
        """Backward seconds of the ops each layer span created."""
        total = self._bwd[self._rows(runs)].sum(axis=0)
        return {self.names[j]: float(total[j]) for j in np.flatnonzero(total)}

    def listing(self, runs) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive s, self s), largest self time first."""
        rows = self._rows(runs)
        calls = self._calls[rows].sum(axis=0)
        incl = self._incl[rows].sum(axis=0)
        own = self._self[rows].sum(axis=0)
        out = [(self.names[j], int(calls[j]), float(incl[j]), float(own[j]))
               for j in range(len(self.names)) if calls[j]]
        return sorted(out, key=lambda row: -row[3])
