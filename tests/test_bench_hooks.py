"""The benchmark wraps program functions by module attribute name
(``perfbench/spans.py``) and calls the program's API (``perfbench/bench.py``).
A renamed or deleted attribute would crash a traced run, and a renamed
parameter any run, so every name it hooks must exist in the module it
names and every call it makes must bind to the current signature."""
import ast
import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

from slm import reconstructor, tensor, trainer

from util import random_document, small_config

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"
BENCH_PATH = PERFBENCH / "bench.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_attribute_exists():
    spans = load_spans()
    hooks = [(module, attr) for module, attr, _ in spans.SPANS]
    hooks += [(tensor, op) for op in spans.TENSOR_OPS]
    hooks += [(module, "encode_batch") for module in spans.ENCODE_CALLERS]
    hooks += [(module, "backward") for module in spans.BACKWARD_CALLERS]
    hooks += [(reconstructor, "causal_bias"), (trainer, "zero_grads")]
    missing = [f"{module.__name__}.{attr}" for module, attr in hooks
               if not callable(getattr(module, attr, None))]
    assert not missing, missing


def slm_calls(tree):
    """(line, dotted name, function, call node) for every call the file
    makes to a name it imports from the ``slm`` package."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "slm"):
            source = importlib.import_module(node.module)
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                target = getattr(source, alias.name, None)
                if target is None:  # a submodule not imported yet
                    target = importlib.import_module(dotted)
                names[alias.asname or alias.name] = (dotted, target)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            dotted, fn = names[func.id]
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id in names
              and inspect.ismodule(names[func.value.id][1])):
            dotted, module = names[func.value.id]
            dotted = f"{dotted}.{func.attr}"
            fn = getattr(module, func.attr, None)
        else:
            continue
        yield node.lineno, dotted, fn, node


def test_every_benchmark_call_binds_to_the_current_signature():
    tree = ast.parse(BENCH_PATH.read_text(encoding="utf-8"))
    calls = list(slm_calls(tree))
    assert any(name == "slm.checkpoint.load_checkpoint"
               for _, name, _, _ in calls)
    broken = []
    for line, name, fn, call in calls:
        if not callable(fn):
            broken.append(f"bench.py:{line}: {name} does not exist")
            continue
        # a starred argument's length is unknown, so such a call is only
        # checked for the existence of its target
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            continue
        try:
            inspect.signature(fn).bind(*[None] * len(call.args),
                                       **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            broken.append(f"bench.py:{line}: {name}: {exc}")
    assert not broken, broken


def test_traced_steps_keep_every_gradient(tmp_path):
    """The tracer wraps each backward closure when the op runs, and the
    sweep swaps the closure for its consumed marker once it has run: two
    traced pretraining steps record backward spans and end with the
    parameters and gradients of two untraced ones, bit for bit."""
    spans = load_spans()
    cfg = small_config(steps=2, warmup=1, batch_size=2, dropout=0.1,
                       checkpoint_every=0)
    rng = np.random.default_rng(0)
    docs = [random_document(rng, vocab_size=cfg.vocab_size) for _ in range(4)]
    untraced = trainer.train_loop(docs, cfg, str(tmp_path / "untraced"))
    tracer, patches = spans.Tracer(), spans.Patches()
    tracer.install(patches)
    try:
        traced = trainer.train_loop(docs, cfg, str(tmp_path / "traced"))
    finally:
        patches.undo()
    table = tracer.table()
    assert table.calls("tensor.bwd.matmul", tracer.runs) > 0
    assert table.calls("tensor.backward", tracer.runs) == cfg.steps
    assert tracer.counts[("setup", "tensor.graph_nodes")] > 0
    for name, p in untraced["params"].items():
        q = traced["params"][name]
        assert p.grad.tobytes() == q.grad.tobytes(), name
        assert p.data.tobytes() == q.data.tobytes(), name
