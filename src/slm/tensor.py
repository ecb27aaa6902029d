"""Dense tensors with reverse-mode automatic differentiation.

The kernel set is what the model needs: elementwise arithmetic with
broadcasting, (stacked) matmul, shape moves, gathers, the fused
attention softmax (``attention_softmax``: scale, mask and row softmax as
one op), layer norm, gelu, reductions, fused cross-entropy and dropout.
Every op records a backward closure on its output; calling
``backward(loss)`` walks the recorded graph once in reverse topological
order and accumulates gradients into the leaves.

Four ops have no caller in the package: ``log``, ``gather_elements``,
``softmax_rows`` and ``tsum``. They stay only because the benchmark's
tracer (``TENSOR_OPS`` in ``perfbench/spans.py``) hooks each of them by
name and fails on a missing one; they go when the tracer drops them.

The heavy kernels (softmax, attention softmax, gelu, layer norm and
dropout) write their arithmetic into buffers they allocate themselves
(``out=``, ``*=``, ``+=``), never into an input's ``.data`` or another
node's ``.grad``. Each element goes through the same ufuncs in the same
order as the plain expression would, so results keep its bits while
making fewer temporaries and passes over memory.

Arrays stay in 32-bit floats by default; passing float64 arrays into
the leaves promotes the whole graph, which the finite-difference
checker uses to keep its own roundoff below the tolerance it asserts.
A Python or numpy scalar operand becomes a constant of the other
operand's dtype, so it neither promotes a float32 graph nor rounds a
float64 one. Each op has one kernel: 1-D ``cross_entropy`` is its
one-row case and ``gather_elements`` a ``take`` over the flattened rows.
Forward results are deterministic for fixed inputs: all reductions run
through sequential numpy kernels with a fixed ordering.

``grad_enabled`` is the engine's one module switch, and it only skips
the graph record: an op computes the same values with and without a
graph. Ops do not scan their outputs for NaN or Inf: a
non-finite value is caught once, at the training loss
(``objectives.pretrain_bundle``), at the gradients
(``optim.adam_update``) and where a checkpoint or probe index is read.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError

# The one module switch: grad_enabled=False skips graph recording
# entirely (used by finite-difference probes and eval).
grad_enabled = True


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        global grad_enabled
        self._saved = grad_enabled
        grad_enabled = False
        return self

    def __exit__(self, *exc):
        global grad_enabled
        grad_enabled = self._saved
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray):
            if data.dtype == np.float32 or data.dtype == np.float64:
                self.data = data
            else:
                self.data = data.astype(np.float32)
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # -- graph plumbing -------------------------------------------------

    def _accumulate(self, g):
        # the first gradient is written into a fresh array of the data's
        # layout, not copied with g's (possibly transposed) strides:
        # matmul rounding follows operand layout
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape)

    def swapaxes(self, ax1, ax2):
        return swapaxes(self, ax1, ax2)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self, axis=None):
        return tmean(self, axis)


def _wrap(other, like: Tensor) -> Tensor:
    """A constant Tensor for a non-Tensor operand. A Python or numpy
    scalar takes ``like``'s dtype, so a float32 graph stays float32 and a
    float64 one keeps the constant exact; arrays keep their own dtype."""
    if isinstance(other, Tensor):
        return other
    if np.isscalar(other):
        return Tensor(np.asarray(other, dtype=like.data.dtype))
    return Tensor(other)


def _make(data: np.ndarray, prev, backward) -> Tensor:
    """Build an op output, attaching the graph record when needed."""
    # 0-d numpy results come back as numpy scalars; keep their dtype
    # instead of letting the Tensor constructor default them to float32
    data = np.asarray(data)
    needs = grad_enabled and any(p.requires_grad for p in prev)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._prev = tuple(prev)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ---------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    out_data = a.data + b.data

    def bw(out):
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad, b.shape))

    return _make(out_data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    out_data = a.data * b.data

    def bw(out):
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

    return _make(out_data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    b = _wrap(b, a)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError("matmul operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(
            f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def bw(out):
        g = out.grad
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), bw)


# -- shape moves --------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def bw(out):
        if a.requires_grad:
            a._accumulate(out.grad.reshape(old))

    return _make(a.data.reshape(shape), (a,), bw)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def bw(out):
        if a.requires_grad:
            a._accumulate(np.swapaxes(out.grad, ax1, ax2))

    # copy keeps downstream matmuls on contiguous memory
    return _make(np.ascontiguousarray(np.swapaxes(a.data, ax1, ax2)), (a,), bw)


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices along an axis; repeated indices accumulate in backward."""
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ContractError("take expects a 1-D index array")
    out_data = np.take(a.data, idx, axis=axis)

    def bw(out):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            if not idx.size:
                return
            # sum each index's slices in one reduceat over a stable
            # sort, then add the sums into their rows once (np.add.at
            # is several times slower); slices of one index keep their
            # order
            rows = idx % a.shape[axis]
            order = np.argsort(rows, kind="stable")
            rows = rows[order]
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            g = np.moveaxis(out.grad, axis, 0)[order]
            np.moveaxis(a.grad, axis, 0)[rows[starts]] += np.add.reduceat(
                g, starts, axis=0)

    return _make(out_data, (a,), bw)


def gather_elements(a: Tensor, col_idx) -> Tensor:
    """out[i] = a[i, col_idx[i]] for a 2-D tensor."""
    idx = np.asarray(col_idx)
    if a.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise ContractError("gather_elements expects [m,n] data and [m] indices")
    m, n = a.shape
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError("gather_elements index out of range")
    return take(reshape(a, (m * n,)), np.arange(m) * n + idx)


# -- reductions ---------------------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    def bw(out):
        if a.requires_grad:
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(np.asarray(a.data.sum(axis=axis)), (a,), bw)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]

    def bw(out):
        if a.requires_grad:
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape) / n)

    return _make(np.asarray(a.data.mean(axis=axis)), (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(out):
        if a.requires_grad:
            a._accumulate(out.grad / a.data)

    return _make(np.log(a.data), (a,), bw)


# -- neural kernels -----------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by per-row max subtraction;
    ``attention_softmax`` with scale 1, which is exact."""
    return attention_softmax(x, 1.0)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(g - sum(g * y)) * y over the last axis, in one fresh buffer."""
    gx = g * y
    dot = gx.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=gx)
    gx *= y
    return gx


def attention_softmax(scores: Tensor, scale,
                      bias: Tensor | None = None) -> Tensor:
    """Row softmax of ``scores * scale + bias`` in one buffer.

    ``scale`` is a scalar, cast to the scores' dtype as ``mul`` casts
    it; ``bias`` (None for no mask) broadcasts onto the scores' shape.
    Each element goes through the same ufuncs in the same order as the
    three-op chain, so the values and gradients are the chain's bits,
    without its intermediate arrays and graph nodes.
    """
    scale = np.asarray(scale, dtype=scores.data.dtype)
    y = scores.data * scale
    if bias is not None:
        y += bias.data
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bw(out):
        gx = _softmax_grad(out.grad, y)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(gx, bias.shape))
        if scores.requires_grad:
            gx *= scale
            scores._accumulate(gx)

    prev = (scores,) if bias is None else (scores, bias)
    return _make(y, prev, bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    sq = xhat * xhat
    var = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = xhat * gamma.data
    out_data += beta.data
    d = x.shape[-1]

    def bw(out):
        g = out.grad
        red = tuple(range(g.ndim - 1))
        buf = g * xhat
        if gamma.requires_grad:
            gamma._accumulate(buf.sum(axis=red))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=red))
        if x.requires_grad:
            gh = g * gamma.data
            t1 = gh.sum(axis=-1, keepdims=True)
            t2 = np.multiply(gh, xhat, out=buf).sum(axis=-1, keepdims=True)
            # (gh - t1/d - xhat*t2/d) * inv, term by term
            gh -= t1 / d
            np.multiply(xhat, t2, out=buf)
            buf /= d
            gh -= buf
            gh *= inv
            x._accumulate(gh)

    return _make(out_data, (x, gamma, beta), bw)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form (matches x*Phi(x) to ~1e-3)."""
    xd = x.data
    # C * (x + 0.044715 * x^3), cubed by multiplying: numpy's float32
    # power takes a slow scalar path for negative bases, about 100x the
    # product
    th = xd * xd
    th *= xd
    th *= 0.044715
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    out_data = 0.5 * xd
    out_data *= 1.0 + th

    def bw(out):
        if x.requires_grad:
            # local = 0.5 * (1 + th)
            #         + 0.5 * x * sech2 * C * (1 + 3 * 0.044715 * x^2)
            sech2 = th * th
            np.subtract(1.0, sech2, out=sech2)
            local = 0.5 * xd
            local *= sech2
            local *= _GELU_C
            poly = np.square(xd, out=sech2)
            poly *= 3 * 0.044715
            poly += 1.0
            local *= poly
            half = np.add(th, 1.0, out=poly)
            half *= 0.5
            local += half
            local *= out.grad
            x._accumulate(local)

    return _make(out_data, (x,), bw)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Softmax cross-entropy, fused for numerical stability.

    With [m, n] logits and [m] targets, returns the mean loss over rows.
    1-D logits with an int target are the one-row case: the loss is
    -log softmax(logits)[target]. Gradient w.r.t. logits is softmax minus
    one-hot (scaled by the mean).
    """
    if logits.ndim == 1:
        logits = reshape(logits, (1, logits.shape[0]))
        target = [int(target)]
    if logits.ndim != 2:
        raise ContractError("cross_entropy expects 1-D or 2-D logits")
    tgt = np.asarray(target)
    m, n = logits.shape
    if tgt.shape != (m,):
        raise ContractError("cross_entropy targets must be [m] for [m,n] logits")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= n):
        raise IndexError("cross_entropy target out of range")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    losses = lse - shifted[np.arange(m), tgt]
    out_data = np.asarray(losses.mean(), dtype=logits.data.dtype)

    def bw(out):
        if logits.requires_grad:
            p = np.exp(shifted - lse[:, None])
            p[np.arange(m), tgt] -= 1.0
            logits._accumulate(out.grad * p / m)

    return _make(out_data, (logits,), bw)


def dropout(x: Tensor, p: float, rng) -> Tensor:
    """Inverted dropout, run exactly when an rng is given and p > 0."""
    if rng is None or p <= 0.0:
        return x
    # the float64 draw fixes the masks; the comparison writes 0/1
    # straight into the scaled mask's buffer
    keep = np.empty(x.shape, dtype=x.data.dtype)
    np.greater_equal(rng.random(x.shape), p, out=keep)
    keep /= 1.0 - p

    def bw(out):
        if x.requires_grad:
            x._accumulate(out.grad * keep)

    return _make(x.data * keep, (x,), bw)


# -- backward and checking ---------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss over the recorded graph."""
    if loss.data.size != 1:
        raise ContractError("backward requires a scalar loss")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node)


def grad_check(f, params, eps: float = 1e-3) -> float:
    """Compare backward() against central finite differences, elementwise.

    ``f`` rebuilds and returns the scalar loss from the current parameter
    values. Returns the worst relative error, with the denominator
    max(|analytic|, |numeric|, 1e-8). Run the parameters in float64 when
    the loss itself is too rough for float32 differencing.
    """
    for p in params:
        p.grad = None
    out = f()
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    with no_grad():
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = a.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f1 = float(f().data)
                flat[i] = orig - eps
                f2 = float(f().data)
                flat[i] = orig
                num = (f1 - f2) / (2.0 * eps)
                denom = max(abs(float(aflat[i])), abs(num), 1e-8)
                rel = abs(float(aflat[i]) - num) / denom
                if rel > worst:
                    worst = rel
    return worst
