"""The traced benchmark wraps program functions by module attribute name
(``perfbench/spans.py``). A renamed or deleted attribute would crash a
traced run, so every name it hooks must exist in the module it names."""
import importlib.util
import pathlib

from slm import reconstructor, tensor, trainer

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
