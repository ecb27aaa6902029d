"""Dense tensors with reverse-mode automatic differentiation.

The kernel set is what the model needs: elementwise arithmetic with
broadcasting, (stacked) matmul, an affine layer as one op (``linear``:
``x @ w + b``, optionally written split into attention heads), shape
moves, gathers, attention as one op (``attention``: scores, row
gather, scale, mask, row softmax, dropout and the weighted values), the
FFN as one op (``feed_forward``: linear, gelu, linear), the input
embedding as one op (``embedding``: table rows summed, layer norm and
dropout), the post-norm residual step as one op (``residual_norm``:
dropout, residual add and layer norm), reductions and fused
cross-entropy. ``attention`` walks its (example, head) slices in
blocks of at most ``ATTENTION_BLOCK_BYTES`` (256 KiB) of scores, so a
block's intermediates stay in cache and none is stored whole.

The fused ops keep, for the backward, only their inputs, one-byte
dropout masks and per-row statistics (attention's softmax max and sum,
layer norm's mean and ``inv``); each backward rebuilds what else it
reads from them with the forward's own calls, so the rebuilt arrays
have the forward's bits. This relies on no op writing into an input's
``.data``. Every dropout keeps its mask as one byte per element and
rebuilds the scaled float mask (``_scaled_mask``) where it multiplies.

Every op records a backward closure on its output; calling
``backward(loss)`` walks the recorded graph once in reverse topological
order and accumulates gradients into the leaves. The sweep frees the
graph as it goes: each node drops its gradient, its closure and its
inputs once its closure has run, so a step's activations go as the
sweep passes them and only the leaves' gradients outlive it. A graph
can therefore be walked once; a second ``backward`` over it raises
``ContractError``, and so does a node that the sweep reaches with no
gradient, since a consumer's backward left it out.

A batch can run as groups of examples stacked on a leading axis, each
slice computed as that example alone would be: ``linear``,
``feed_forward`` and ``residual_norm`` take stacked weights [k, h, f]
and stacked biases, gains and shifts [k, 1, f], and reduce their
gradients over each entry's rows apart; 3-D ``cross_entropy`` gives
each entry its own mean; ``take`` with [B, R] indices gathers rows per
example. ``fan_out`` hands a parameter to the groups as zero-copy
stacked views and adds the examples' gradients to it in example order.

Seven ops have no caller in the package: ``log``,
``gather_elements``, ``softmax_rows``, ``tsum``, ``gelu``,
``layer_norm`` and ``dropout``. They stay only because the benchmark's
tracer (``TENSOR_OPS`` in ``perfbench/spans.py``) hooks each of them by
name and fails on a missing one; they go when the tracer drops them.
The fused ``attention_softmax`` (scale, mask and row softmax) now
serves only ``softmax_rows`` and the tests, and goes with it. The
kernels of ``gelu``, ``layer_norm`` and ``dropout`` live on in the
fused ops, which share them (``_gelu_tanh``, ``_norm``,
``_keep_mask``).

The heavy kernels (softmax, attention, ``linear``, ``feed_forward``,
``embedding``, gelu, layer norm, ``residual_norm`` and dropout) write
their arithmetic into buffers they allocate themselves (``out=``,
``*=``, ``+=``), never into an input's ``.data`` or another node's
``.grad``. Each element goes
through the same ufuncs in the same order as the plain expression (or
the chain of ops a fused op replaces) would, so results keep its bits
while making fewer temporaries and passes over memory. A gradient
buffer an op allocates for one input alone is kept as that input's
``.grad`` when it already has the data's layout, instead of being
copied; so is the output's own gradient that ``reshape`` and ``add``'s
left operand pass on, since the sweep drops it once their closure has
run.

Arrays stay in 32-bit floats by default; passing float64 arrays into
the leaves promotes the whole graph, which the finite-difference
checker uses to keep its own roundoff below the tolerance it asserts.
A Python or numpy scalar operand becomes a constant of the other
operand's dtype, so it neither promotes a float32 graph nor rounds a
float64 one. ``Tensor`` itself keeps the dtype of a float32 or float64
array or numpy scalar and makes anything else float32. Each op has one
kernel: 1-D ``cross_entropy`` is its one-row case, 3-D its stack of 2-D
cases, and ``gather_elements`` a ``take`` over the flattened rows.
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

# Score bytes of one block of ``attention``: its (example, head) slices
# are scored, normalised, dropped out and weighted while their scores
# stay in cache.
ATTENTION_BLOCK_BYTES = 256 * 1024

# Bytes of one row block of ``feed_forward``'s elementwise gelu work.
FFN_BLOCK_BYTES = 256 * 1024


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
        if isinstance(data, (np.float32, np.float64)):
            # a numpy scalar keeps its dtype, as a 0-d array would
            data = np.asarray(data)
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # -- graph plumbing -------------------------------------------------

    def _accumulate(self, g, owned: bool = False):
        # the first gradient is written into a fresh array of the data's
        # layout, not copied with g's (possibly transposed) strides:
        # matmul rounding follows operand layout. An ``owned`` g is one
        # no other node holds or reads later: a buffer the op allocated
        # and hands to this input alone, or the op output's own gradient,
        # which the sweep drops once the closure has run. It is kept as
        # it is when it already has that layout.
        if self.grad is None:
            if owned and _c_layout_of(g, self.data):
                self.grad = g
            else:
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


def _c_layout_of(g, data: np.ndarray) -> bool:
    """Whether ``g`` is an array of ``data``'s dtype and shape, both in C
    order: the layout a copy into ``np.empty_like(data)`` would give. A
    ``data`` that repeats along a stride-0 axis (a ``fan_out`` view) has
    no layout a product could follow, and takes a C-order ``g`` as is."""
    return (isinstance(g, np.ndarray) and g.dtype == data.dtype
            and g.shape == data.shape and g.flags.c_contiguous
            and (data.flags.c_contiguous or 0 in data.strides))


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
        # the sweep drops out.grad once this closure has run, so ``a``
        # may keep it; ``b`` copies, which keeps ``a + a`` right
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad, b.shape))

    return _make(out_data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    out_data = a.data * b.data

    def bw(out):
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * a.data, b.shape), owned=True)

    return _make(out_data, (a, b), bw)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError("matmul operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(
            f"matmul dimension mismatch: {a.shape} @ {b.shape}")


def _matmul_grads(g: np.ndarray, a: Tensor, b: Tensor,
                  selected: bool = False) -> None:
    """Accumulate the gradients of ``a @ b`` from its output's ``g``.
    ``selected`` is ``_transpose``'s."""
    if a.requires_grad:
        ga = np.matmul(g, _transpose(b.data, selected))
        a._accumulate(_unbroadcast(ga, a.shape), owned=True)
    if b.requires_grad:
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        b._accumulate(_unbroadcast(gb, b.shape), owned=True)


def _transpose(w: np.ndarray, selected: bool = False) -> np.ndarray:
    """``w`` with its last two axes swapped, for an input's gradient
    ``g @ w^T``: a view, or with ``selected`` a contiguous copy.

    ``selected`` marks ``g`` as the gradient of selected rows of a
    product that a full pass takes over every row (the last encoder
    layer at the rows its readers ask for). Against the copy each of two
    or more rows rounds as the full product's rows round against the
    view; against the view a product of a few rows rounds differently.
    """
    wt = np.swapaxes(w, -1, -2)
    return np.ascontiguousarray(wt) if selected else wt


def matmul(a: Tensor, b: Tensor) -> Tensor:
    b = _wrap(b, a)
    _check_matmul(a, b)

    def bw(out):
        _matmul_grads(out.grad, a, b)

    return _make(np.matmul(a.data, b.data), (a, b), bw)


def _check_linear(x, w, b: Tensor) -> None:
    """``x @ w + b`` needs matching inner widths and one bias per output:
    [f], or [k, 1, f] beside a stack of k weights [k, h, f] (one
    ``fan_out`` view each); ``x`` may be a Tensor or an array."""
    _check_matmul(x, w)
    stacked = w.shape[:-2] + (1,) + w.shape[-1:]
    if b.shape != w.shape[-1:] and (w.ndim < 3 or b.shape != stacked):
        raise ContractError(f"linear bias must be [{w.shape[-1]}], "
                            f"got shape {b.shape}")


def _linear_grads(g: np.ndarray, x: Tensor, w: Tensor, b: Tensor,
                  selected: bool = False) -> None:
    """Accumulate the gradients of ``x @ w + b`` from its output's ``g``:
    ``add``'s bias reduction, then ``matmul``'s two products."""
    if b.requires_grad:
        # a fresh sum, or, for a stacked bias beside one row per entry,
        # ``g`` itself, which the closures here only read
        b._accumulate(_unbroadcast(g, b.shape), owned=True)
    _matmul_grads(g, x, w, selected)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """[B, L, H * dh] as a contiguous [B, H, L, dh] copy."""
    bsz, length, width = a.shape
    return np.ascontiguousarray(
        a.reshape(bsz, length, heads, width // heads).swapaxes(1, 2))


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """[B, H, L, dh] as a contiguous [B, L, H * dh] copy."""
    bsz, heads, length, dh = a.shape
    return np.ascontiguousarray(a.swapaxes(1, 2)).reshape(
        bsz, length, heads * dh)


def linear(x: Tensor, w: Tensor, b: Tensor, heads: int | None = None,
           selected: bool = False) -> Tensor:
    """An affine layer, ``x @ w + b``, as one op.

    ``b`` is [w.shape[-1]]. The product is ``matmul``'s and the bias is
    added into its buffer, so the output has the bits of
    ``matmul(x, w) + b``. The backward runs ``add``'s bias reduction,
    then ``matmul``'s two products, on the same gradient. The graph
    keeps no intermediate: the chain held the product until the sweep
    passed it, though no backward reads it.

    With ``heads``, ``x`` is [B, L, h] and the output comes split into
    heads, [B, heads, L, h / heads], the copy the chain's ``reshape``
    and ``swapaxes`` made; the backward merges the heads of its
    gradient as the chain's did. The [B, L, h] product is not kept.

    ``selected`` marks ``x`` as selected rows of an input a full pass
    would run whole: the backward then takes ``x``'s gradient against
    ``_transpose``'s copy, so each row keeps the full pass's bits.
    """
    _check_linear(x, w, b)
    if heads is not None and (x.ndim != 3 or w.shape[-1] % heads):
        raise ContractError(f"a heads-split linear needs [B, L, h] input "
                            f"and {heads} heads to divide its "
                            f"{w.shape[-1]} outputs, got {x.shape}")
    out_data = np.matmul(x.data, w.data)
    out_data += b.data
    if heads is not None:
        out_data = _split_heads(out_data, heads)

    def bw(out):
        g = out.grad if heads is None else _merge_heads(out.grad)
        _linear_grads(g, x, w, b, selected)

    # the chain's input order, so the sweep visits the inputs as before
    return _make(out_data, (x, w, b), bw)


def fan_out(tensors, groups) -> list[list[Tensor]]:
    """Each of ``tensors`` once for every example of a batch that runs in
    groups: per tensor, one read-only [k, ...] view of its data for each
    group of k examples, with no copy. ``groups`` holds each group's
    example indices; together they name 0..B-1 once each. A 1-D tensor
    comes as [k, 1, n], so that it broadcasts over each example's rows
    as a bias, gain or shift.

    A tensor's views share one node, which keeps each example's gradient
    unsummed in a [B, ...] buffer. Once every view has passed its
    gradient on, that node adds the rows to the tensor's gradient one by
    one, example 0 first: the order, and so the bits, of a batch that
    ran one example at a time. A sum over the batch axis would add them
    in numpy's pairwise order instead.
    """
    groups = [np.asarray(idx) for idx in groups]
    total = sum(len(idx) for idx in groups)
    if total and not np.array_equal(np.sort(np.concatenate(groups)),
                                    np.arange(total)):
        raise ContractError("fan_out groups must name 0..B-1 once each")
    # a group that is the whole batch in example order
    wholes = [np.array_equal(idx, np.arange(total)) for idx in groups]

    def views(a: Tensor) -> list[Tensor]:
        data = a.data if a.ndim > 1 else a.data.reshape(1, -1)

        def add_in_order(out):
            for g in out.grad:
                a._accumulate(g.reshape(a.shape))

        hub = _make(np.broadcast_to(data, (total,) + data.shape), (a,),
                    add_in_order)

        def view(idx, whole):
            def bw(out):
                if whole:
                    # the gradient is the hub's buffer as it stands
                    hub._accumulate(out.grad, owned=True)
                    return
                if hub.grad is None:
                    hub.grad = np.zeros(hub.shape, data.dtype)
                hub.grad[idx] = out.grad

            # any k rows of the stride-0 stack are the tensor k times
            return _make(hub.data[:len(idx)], (hub,), bw)

        return [view(idx, whole) for idx, whole in zip(groups, wholes)]

    return [views(a) for a in tensors]


# -- shape moves --------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def bw(out):
        if a.requires_grad:
            a._accumulate(out.grad.reshape(old), owned=True)

    return _make(a.data.reshape(shape), (a,), bw)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def bw(out):
        if a.requires_grad:
            a._accumulate(np.swapaxes(out.grad, ax1, ax2))

    # copy keeps downstream matmuls on contiguous memory
    return _make(np.ascontiguousarray(np.swapaxes(a.data, ax1, ax2)), (a,), bw)


def _scatter_add(dst: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """``dst[idx] += g`` along axis 0 for non-negative ``idx``, repeats
    summed: each index's slices in one reduceat over a stable sort, in
    their order, then added into their row once (np.add.at is several
    times slower)."""
    if not idx.size:
        return
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    dst[idx[starts]] += np.add.reduceat(g[order], starts, axis=0)


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices along an axis; repeated indices accumulate in backward.

    ``indices`` is 1-D, or [B, R] with ``axis=1``: then each example
    ``a[b]`` gives its own R slices, ``indices[b]``, and its backward
    scatters into ``a[b]``'s gradient as a 1-D take on ``a[b]`` would.
    """
    idx = np.asarray(indices)
    per_example = idx.ndim == 2 and axis == 1 and len(idx) == a.shape[0]
    if idx.ndim != 1 and not per_example:
        raise ContractError("take expects a 1-D index array, or [B, R] "
                            "rows of each example on axis 1")
    if per_example:
        out_data = np.take_along_axis(
            a.data, idx.reshape(idx.shape + (1,) * (a.ndim - 2)), axis=1)
    else:
        out_data = np.take(a.data, idx, axis=axis)

    def bw(out):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            rows = idx % a.shape[axis]
            if per_example:
                for dst, r, g in zip(a.grad, rows, out.grad):
                    _scatter_add(dst, r, g)
            else:
                _scatter_add(np.moveaxis(a.grad, axis, 0), rows,
                             np.moveaxis(out.grad, axis, 0))

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
            scores._accumulate(gx, owned=True)

    prev = (scores,) if bias is None else (scores, bias)
    return _make(y, prev, bw)


def _scaled_mask(keep: np.ndarray, p: float, dtype,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Inverted dropout's multiplier from a one-byte keep mask: the mask
    as 0/1 in ``dtype``, divided by 1 - p (into ``out`` when given).
    Every dropout builds its multiplier here, in its forward and again
    in its backward, so the graph keeps one byte per element."""
    if out is None:
        out = keep.astype(dtype)
    else:
        out[...] = keep
    out /= 1.0 - p
    return out


def _keep_mask(rng, shape, p: float, rows=None) -> np.ndarray:
    """The one-byte keep mask of a hidden dropout: one float64 draw per
    element, kept where it is at least ``p``. With ``rows`` ([B, R]
    positions on axis 1 of ``shape``) the whole shape is drawn and only
    those rows are kept, [B, R, ...]."""
    draw = rng.random(shape)
    if rows is not None:
        draw = np.take_along_axis(
            draw, rows.reshape(rows.shape + (1,) * (len(shape) - 2)), axis=1)
    return draw >= p


def _dropped(keep: np.ndarray, p: float, a: np.ndarray) -> np.ndarray:
    """``a`` times inverted dropout's multiplier, in a fresh buffer: the
    scaled float mask times ``a``, as ``dropout`` multiplies."""
    out = _scaled_mask(keep, p, a.dtype)
    out *= a
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, scale,
              bias: Tensor | None = None, p: float = 0.0, rng=None,
              rows=None) -> Tensor:
    """Scaled dot-product attention as one op, walked in cache-sized blocks.

    ``q`` is [B, H, Lq, dh], ``k`` and ``v`` [B, H, Lk, dh]. Returns the
    heads-merged context ``softmax(q @ k^T * scale + bias) @ v`` as
    [B, Lq, H * dh]; the probabilities drop out at rate ``p`` exactly
    when an rng is given and p > 0. ``scale`` is cast to q's dtype as
    ``mul`` casts a scalar. ``bias`` (None for no mask) is a constant
    that every head shares, [B or 1, 1, Lq or 1, Lk], added to the
    scores: a key-padding or a causal mask. ``rows`` ([B, R]
    positions below Lq) scores every query row and keeps only those
    rows from the softmax on: [B, R, H * dh].

    The kept rows are the whole op's rows, gradients and dropout
    included, wherever the selected rows' upstream gradient is that of
    the whole op with zeros elsewhere: the dropout draws every row's
    uniforms, as the whole op does, and keeps the rows' bits; the
    gradient through the values, ``g @ V^T``, is the full-width
    product of the rows' gradients scattered into zeros, then its rows,
    since a product of the R rows alone rounds differently. An entry
    that repeats an earlier entry's position (the [CLS] tail that
    ``encoder.pad_rows`` adds) hands its gradient to that entry there,
    and its own is zero; the values' gradient still adds each entry's
    gradient apart, so a repeated entry whose gradient is not zero
    moves that gradient's last bits.

    The B * H (example, head) slices run in blocks whose scores fit
    ``ATTENTION_BLOCK_BYTES`` (one slice at least). Each block runs the
    steps of the unfused op chain with the same ufuncs in the same
    order: the scores matmul against contiguous transposed keys, the
    row gather, scale, mask and row softmax, the dropout draw (block by
    block, the C order of one whole draw) and the context matmul. The
    output, the gradients and the rng's state are therefore the chain's
    bits. For the backward the op keeps each query row's softmax max
    and sum (two floats per row) and a one-byte keep mask, not the
    probabilities: the backward rebuilds each block's probabilities
    with the forward's routine (``probs``), subtracting the kept max
    and dividing by the kept sum, so they are the forward's bits, and
    rebuilds its float mask from the byte mask. The forward and the
    backward each score and normalise in block buffers of their own.
    """
    if q.ndim != 4 or k.ndim != 4 or v.shape != k.shape \
            or k.shape[:2] + k.shape[3:] != q.shape[:2] + q.shape[3:]:
        raise ContractError("attention expects q [B, H, Lq, dh] and k, v "
                            f"[B, H, Lk, dh], got {q.shape}, {k.shape}, "
                            f"{v.shape}")
    bsz, heads, lq, dh = q.shape
    lk = k.shape[2]
    if rows is None:
        r = lq
    else:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != bsz:
            raise ContractError(f"rows must be [{bsz}, R] positions, "
                                f"got shape {rows.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= lq):
            raise ContractError(f"row positions must lie in [0, {lq})")
        r = rows.shape[1]
    if bias is not None:
        if bias.requires_grad:
            raise ContractError("attention takes a constant bias")
        bb, bh, br, bk = bias.shape if bias.ndim == 4 else (0, 0, 0, 0)
        if bb not in (1, bsz) or bh != 1 or br not in (1, r) or bk != lk:
            raise ContractError(f"bias must be [{bsz} or 1, 1, {r} or 1, "
                                f"{lk}], got shape {bias.shape}")
        # one mask that every slice shares, or one per example
        bias_n = bias.data[:, 0]
    dtype = q.data.dtype
    scale = np.asarray(scale, dtype=dtype)
    drop = rng is not None and p > 0.0
    slices = bsz * heads
    qd = q.data.reshape(slices, lq, dh)
    kd = k.data.reshape(slices, lk, dh)
    vd = v.data.reshape(slices, lk, dh)
    step = max(1, ATTENTION_BLOCK_BYTES // max(1, lq * lk * dtype.itemsize))
    n0 = min(step, slices)
    blocks = [(a, min(a + step, slices)) for a in range(0, slices, step)]
    if rows is not None:
        # each slice's rows as rows of its block's [n * Lq, Lk] scores
        local = ((np.arange(slices) % step)[:, None] * lq
                 + np.repeat(rows, heads, axis=0)).reshape(-1)
        # the entries whose position an earlier entry of the example
        # holds: the backward hands their gradient to that entry
        repeat = np.ones(rows.shape, bool)
        for e, positions in zip(repeat, rows):
            e[np.unique(positions, return_index=True)[1]] = False
        repeat = np.repeat(repeat, heads, axis=0).reshape(-1)
    # each query row's softmax max and sum, taken by the forward
    row_max = np.empty((slices, r, 1), dtype)
    row_sum = np.empty_like(row_max)

    def probs(first: bool):
        """Yield each block's slice range, its contiguous transposed keys
        and its probabilities, scored and normalised in block buffers
        this call allocates. ``first`` (the forward) takes each row's max
        and sum into ``row_max`` and ``row_sum``; later calls reuse them,
        so every call yields the same bits."""
        scores = np.empty((n0, lq, lk), dtype)
        buf = np.empty((n0, r, lk), dtype)
        for a, b in blocks:
            n = b - a
            kt = np.ascontiguousarray(np.swapaxes(kd[a:b], 1, 2))
            s = np.matmul(qd[a:b], kt, out=scores[:n])
            y = buf[:n]
            if rows is None:
                np.multiply(s, scale, out=y)
            else:
                np.take(s.reshape(n * lq, lk), local[a * r:b * r], axis=0,
                        out=y.reshape(n * r, lk), mode="clip")
                y *= scale
            if bias is not None:
                y += bias_n if len(bias_n) == 1 else \
                    bias_n[np.arange(a, b) // heads]
            mx, total = row_max[a:b], row_sum[a:b]
            # the ufuncs behind y.max and y.sum, without their Python
            # wrappers
            if first:
                np.maximum.reduce(y, axis=-1, keepdims=True, out=mx)
            y -= mx
            np.exp(y, out=y)
            if first:
                np.add.reduce(y, axis=-1, keepdims=True, out=total)
            y /= total
            yield a, b, kt, y

    if drop:
        keep = np.empty((slices, r, lk), bool)
        draw = np.empty((n0, lq, lk))
        wbuf = np.empty((n0, r, lk), dtype)
    ctx = np.empty((slices, r, dh), dtype)
    for a, b, _, y in probs(True):
        if drop:
            n = b - a
            # every row's draw, as the whole op draws; the rows' bits kept
            u = rng.random(out=draw[:n])
            if rows is not None:
                u = u.reshape(n * lq, lk)[local[a * r:b * r]]
            np.greater_equal(u.reshape(n, r, lk), p, out=keep[a:b])
            w = _scaled_mask(keep[a:b], p, dtype, out=wbuf[:n])
            w *= y
            y = w
        np.matmul(y, vd[a:b], out=ctx[a:b])
    out_data = _merge_heads(ctx.reshape(bsz, heads, r, dh))

    def bw(out):
        g = _split_heads(out.grad, heads).reshape(slices, r, dh)
        dq = np.empty_like(qd) if q.requires_grad else None
        dk = np.empty_like(kd) if k.requires_grad else None
        dv = np.empty_like(vd) if v.requires_grad else None
        for a, b, kt, y in probs(False):
            gb = g[a:b]
            if drop:
                w = _scaled_mask(keep[a:b], p, dtype)
            if dv is not None:
                np.matmul(np.swapaxes(y * w if drop else y, 1, 2), gb,
                          out=dv[a:b])
            if dq is None and dk is None:
                continue
            vt = np.swapaxes(vd[a:b], 1, 2)
            if rows is None:
                gy = np.matmul(gb, vt)
            else:
                # the rows of the whole op's product, which a product of
                # the R rows alone does not round alike; a repeated
                # entry's gradient is its first entry's
                n = b - a
                sel, rep = local[a * r:b * r], repeat[a * r:b * r]
                gfull = np.zeros((n * lq, dh), dtype)
                _scatter_add(gfull, sel, gb.reshape(n * r, dh))
                gy = np.matmul(gfull.reshape(n, lq, dh), vt).reshape(
                    n * lq, lk)[sel]
                gy[rep] = 0.0
                gy = gy.reshape(n, r, lk)
            if drop:
                gy *= w
            gx = _softmax_grad(gy, y)
            gx *= scale
            if rows is not None:
                n = b - a
                gs = np.zeros((n * lq, lk), dtype)
                _scatter_add(gs, local[a * r:b * r], gx.reshape(n * r, lk))
                gx = gs.reshape(n, lq, lk)
            if dq is not None:
                np.matmul(gx, np.swapaxes(kt, 1, 2), out=dq[a:b])
            if dk is not None:
                dk[a:b] = np.swapaxes(
                    np.matmul(np.swapaxes(qd[a:b], 1, 2), gx), 1, 2)
        for t, d in ((q, dq), (k, dk), (v, dv)):
            if d is not None:
                t._accumulate(d.reshape(t.shape), owned=True)

    return _make(out_data, (q, k, v), bw)


def _norm(xd: np.ndarray, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Layer norm's forward over the last axis of ``xd``: the output,
    ``xhat``, and the per-row mean ``mu`` and ``inv`` from which
    ``_xhat`` rebuilds ``xhat``."""
    mu = xd.mean(axis=-1, keepdims=True)
    xhat = xd - mu
    sq = xhat * xhat
    var = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = xhat * gamma.data
    out_data += beta.data
    return out_data, xhat, mu, inv


def _xhat(xd: np.ndarray, mu: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """``_norm``'s ``xhat`` of ``xd``, rebuilt with its ufuncs from the
    row statistics it returned, so it has the forward's bits. ``xd`` is
    a fresh buffer of the caller's, overwritten."""
    xd -= mu
    xd *= inv
    return xd


def _norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                gamma: Tensor, beta: Tensor, want_x: bool):
    """Layer norm's backward: accumulate the gain and shift gradients
    and return the input's gradient in a fresh buffer (None unless
    ``want_x``)."""
    buf = g * xhat
    if gamma.requires_grad:
        # summed over the rows of each stack entry for a stacked gain and
        # shift, over all rows for 1-D ones; ``buf`` is reused below
        gg = _unbroadcast(buf, gamma.shape)
        gamma._accumulate(gg, owned=gg is not buf)
    if beta.requires_grad:
        beta._accumulate(_unbroadcast(g, beta.shape), owned=True)
    if not want_x:
        return None
    d = xhat.shape[-1]
    gh = g * gamma.data
    t1 = gh.sum(axis=-1, keepdims=True)
    t2 = np.multiply(gh, xhat, out=buf).sum(axis=-1, keepdims=True)
    # (gh - t1/d - xhat*t2/d) * inv, term by term
    gh -= t1 / d
    np.multiply(xhat, t2, out=buf)
    buf /= d
    gh -= buf
    gh *= inv
    return gh


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    out_data, xhat, _, inv = _norm(x.data, gamma, beta, eps)

    def bw(out):
        gx = _norm_grads(out.grad, xhat, inv, gamma, beta, x.requires_grad)
        if gx is not None:
            x._accumulate(gx, owned=True)

    return _make(out_data, (x, gamma, beta), bw)


def residual_norm(residual: Tensor, out: Tensor, gamma: Tensor,
                  beta: Tensor, p: float = 0.0, rng=None, rows=None,
                  length: int | None = None) -> Tensor:
    """The post-norm residual step as one op: ``layer_norm(residual +
    dropout(out, p, rng), gamma, beta)``.

    ``out`` drops out exactly when an rng is given and p > 0, with the
    draw ``dropout`` makes, so the rng ends in the same state. Each
    element goes through the chain's ufuncs in its order, so the output
    and the gradients are the chain's bits. The graph keeps a one-byte
    keep mask and layer norm's per-row mean and ``inv``: the backward
    rebuilds the sum with the forward's calls from the inputs and
    ``xhat`` from it (``_xhat``), and the scaled float mask from the
    byte mask. The chain kept the dropped output, a float32 mask, the
    sum and ``xhat``.

    With ``rows`` ([B, R] positions below ``length``) the operands,
    [B, R, h], are those rows of a [B, ``length``, h] step: the dropout
    draws the whole step's uniforms and keeps the rows' bits, so the rng
    ends where the whole step leaves it and each row drops out as there.
    """
    if residual.shape != out.shape:
        raise ContractError(f"residual_norm operands differ in shape: "
                            f"{residual.shape} and {out.shape}")
    if rows is not None:
        rows = np.asarray(rows)
        if (rows.shape != out.shape[:2] or length is None or rows.size
                and (rows.min() < 0 or rows.max() >= length)):
            raise ContractError(f"rows must be {out.shape[:2]} positions "
                                f"below the step's length {length}")
    keep = None
    if rng is not None and p > 0.0:
        shape = out.shape if rows is None else \
            (out.shape[0], length) + out.shape[2:]
        keep = _keep_mask(rng, shape, p, rows)

    def summed():
        if keep is None:
            return residual.data + out.data
        s = _dropped(keep, p, out.data)
        s += residual.data
        return s

    out_data, _, mu, inv = _norm(summed(), gamma, beta)

    def bw(node):
        gh = _norm_grads(node.grad, _xhat(summed(), mu, inv), inv, gamma,
                         beta, residual.requires_grad or out.requires_grad)
        if gh is None:
            return
        gout = gh
        if out.requires_grad and keep is not None:
            gout = _dropped(keep, p, gh)
        if residual.requires_grad:
            residual._accumulate(gh, owned=True)
        if out.requires_grad:
            # without dropout ``residual`` may own gh, so ``out`` copies
            out._accumulate(gout, owned=keep is not None
                            or not residual.requires_grad)

    return _make(out_data, (residual, out, gamma, beta), bw)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_tanh(xd: np.ndarray) -> np.ndarray:
    """``th``, the tanh in gelu's tanh form, in a fresh buffer."""
    # C * (x + 0.044715 * x^3), cubed by multiplying: numpy's float32
    # power takes a slow scalar path for negative bases, about 100x the
    # product
    th = xd * xd
    th *= xd
    th *= 0.044715
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    return th


def _gelu_out(xd: np.ndarray, th: np.ndarray, out=None) -> np.ndarray:
    """Gelu's output, ``0.5 * x * (1 + th)`` (into ``out`` when given)."""
    out = np.multiply(0.5, xd, out=out)
    out *= 1.0 + th
    return out


def _gelu_local(xd: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Gelu's derivative at ``xd`` from ``th``, in a fresh buffer."""
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
    return local


def _gelu_parts(xd: np.ndarray, out: np.ndarray) -> None:
    """Gelu's output at ``xd`` into ``out``, then its derivative over
    ``xd``. The steps are ``_gelu_tanh``'s, ``_gelu_out``'s and
    ``_gelu_local``'s, with ``x^2``, ``0.5 * x`` and ``1 + th`` taken once
    for both (``np.square`` rounds as ``x * x`` does, and a product or
    sum of two operands rounds alike in either order), so both keep
    their bits. A function of its own, so one block's temporaries are
    freed before the next block's are made."""
    sq = xd * xd
    th = sq * xd
    th *= 0.044715
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    half_x = 0.5 * xd
    one_th = 1.0 + th
    np.multiply(half_x, one_th, out=out)
    # local = 0.5 * x * sech2 * C * (1 + 3 * 0.044715 * x^2)
    #         + 0.5 * (1 + th)
    np.multiply(th, th, out=th)
    np.subtract(1.0, th, out=th)
    half_x *= th
    half_x *= _GELU_C
    sq *= 3 * 0.044715
    sq += 1.0
    half_x *= sq
    one_th *= 0.5
    np.add(half_x, one_th, out=xd)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form (matches x*Phi(x) to ~1e-3)."""
    th = _gelu_tanh(x.data)

    def bw(out):
        if x.requires_grad:
            local = _gelu_local(x.data, th)
            local *= out.grad
            x._accumulate(local, owned=True)

    return _make(_gelu_out(x.data, th), (x,), bw)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor, selected: bool = False) -> Tensor:
    """The position-wise FFN as one op: ``linear(gelu(linear(x, w1, b1)),
    w2, b2)``.

    The products are ``linear``'s and the gelu steps ``gelu``'s, so the
    output and the gradients are the chain's bits. The graph keeps
    nothing beyond the inputs, where the chain kept the pre-activation
    ``u``, gelu's output and its tanh. The backward recomputes ``u``
    with the forward's calls and builds gelu's output into a second
    buffer and its derivative over ``u`` (``_gelu_parts``). It takes
    w2's gradient, then writes gelu's output gradient over gelu's
    output, so beside ``u`` one [.., ffn] array is alive. The
    elementwise gelu work runs in row blocks of at most
    ``FFN_BLOCK_BYTES`` that stay in cache; the forward writes gelu's
    output over ``u``. Inputs are listed, and their gradients
    accumulated, in the chain's order: ``b2``, ``w2``, then ``b1``,
    ``x``, ``w1``. ``selected`` is ``linear``'s: both input gradients,
    gelu's output's and ``x``'s, multiply by ``_transpose``'s copy.
    """
    _check_linear(x, w1, b1)

    def pre_activation():
        u = np.matmul(x.data, w1.data)
        u += b1.data
        return u, u.reshape(-1, u.shape[-1])

    u, rows = pre_activation()
    _check_linear(u, w2, b2)
    step = max(1, FFN_BLOCK_BYTES // max(1, rows.shape[1] * u.itemsize))
    blocks = [slice(i, i + step) for i in range(0, len(rows), step)]
    for blk in blocks:
        _gelu_out(rows[blk], _gelu_tanh(rows[blk]), out=rows[blk])
    out_data = np.matmul(u, w2.data)
    out_data += b2.data

    def bw(out):
        g = out.grad
        if b2.requires_grad:
            b2._accumulate(_unbroadcast(g, b2.shape), owned=True)
        # u becomes gelu's derivative block by block while hg takes
        # gelu's output, then gelu's output gradient as ``matmul``'s
        # backward makes it, then u's gradient: ``g * local`` (a product
        # commutes exactly, so this is gelu's ``local * g``)
        u, rows = pre_activation()
        hg = np.empty_like(u)
        h_rows = hg.reshape(rows.shape)
        for blk in blocks:
            _gelu_parts(rows[blk], h_rows[blk])
        if w2.requires_grad:
            gw = np.matmul(np.swapaxes(hg, -1, -2), g)
            w2._accumulate(_unbroadcast(gw, w2.shape), owned=True)
        gu = np.matmul(g, _transpose(w2.data, selected), out=hg)
        gu *= u
        del u, rows
        _linear_grads(gu, x, w1, b1, selected)

    return _make(out_data, (x, w1, b1, w2, b2), bw)


def embedding(tables, ids, gamma: Tensor, beta: Tensor, p: float = 0.0,
              rng=None) -> Tensor:
    """The input embedding as one op: the rows of each table at its ids,
    summed in order, layer-normalized, then dropped out.

    ``tables`` are [rows, h] Tensors and ``ids`` one integer array per
    table, all of one shape, each id in [0, rows) of its table; the
    output is ids.shape + [h]. The output drops out exactly when an rng
    is given and p > 0, with ``dropout``'s draw. The sum, the norm and
    the dropout are the kernels of the chain of ``take``, ``add``,
    ``layer_norm`` and ``dropout``, so the output, the gradients and the
    rng's state are its bits. The graph keeps a one-byte keep mask and
    layer norm's per-row mean and ``inv``: the backward gathers and sums
    the table rows again with the forward's calls and rebuilds ``xhat``
    from the sum (``_xhat``). The chain kept every row gather, every
    partial sum, the normalized sum and ``xhat``. The backward scatters
    the sum's gradient into each table in the tables' order, repeated
    ids summed as ``take`` sums them.
    """
    ids = [np.asarray(i) for i in ids]
    width = tables[0].shape[-1] if tables else 0
    if not tables or len(ids) != len(tables) or any(
            t.ndim != 2 or t.shape[1] != width or i.shape != ids[0].shape
            for t, i in zip(tables, ids)):
        raise ContractError("embedding expects [rows, h] tables of one "
                            "width and one id array of one shape for each")
    flat = [i.reshape(-1) for i in ids]

    def summed():
        s = np.take(tables[0].data, flat[0], axis=0)
        for table, idx in zip(tables[1:], flat[1:]):
            s += np.take(table.data, idx, axis=0)
        return s.reshape(ids[0].shape + (width,))

    out_data, _, mu, inv = _norm(summed(), gamma, beta)
    keep = None
    if rng is not None and p > 0.0:
        keep = _keep_mask(rng, out_data.shape, p)
        out_data = _dropped(keep, p, out_data)

    def bw(out):
        g = out.grad if keep is None else _dropped(keep, p, out.grad)
        gx = _norm_grads(g, _xhat(summed(), mu, inv), inv, gamma, beta,
                         any(t.requires_grad for t in tables))
        if gx is None:
            return
        gx = gx.reshape(-1, width)
        for table, idx in zip(tables, flat):
            if table.requires_grad:
                if table.grad is None:
                    table.grad = np.zeros_like(table.data)
                _scatter_add(table.grad, idx, gx)

    return _make(out_data, (*tables, gamma, beta), bw)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Softmax cross-entropy, fused for numerical stability.

    With [m, n] logits and [m] targets, returns the mean loss over rows.
    1-D logits with an int target are the one-row case: the loss is
    -log softmax(logits)[target]. [k, m, n] logits with [k, m] targets
    are k such losses in one op, each entry's mean over its own m rows,
    returned as [k, 1, 1] so that their gradient broadcasts onto each
    entry's logits; every row and every mean runs the 2-D case's
    kernels, so entry j has the bits of the 2-D loss of slice j.
    Gradient w.r.t. logits is softmax minus one-hot (scaled by the mean).
    """
    if logits.ndim == 1:
        logits = reshape(logits, (1, logits.shape[0]))
        target = [int(target)]
    if logits.ndim not in (2, 3):
        raise ContractError("cross_entropy expects 1-D, 2-D or 3-D logits")
    tgt = np.asarray(target)
    *lead, m, n = logits.shape
    if tgt.shape != (*lead, m):
        raise ContractError("cross_entropy targets must be [m] for [m,n] "
                            "logits and [k, m] for [k, m, n]")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= n):
        raise IndexError("cross_entropy target out of range")
    # each row's entry at its target
    pick = (*np.indices(tgt.shape, sparse=True), tgt)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    losses = lse - shifted[pick]
    out_data = np.asarray(losses.mean(axis=-1), dtype=logits.data.dtype)
    out_data = out_data.reshape(out_data.shape + (1, 1) * len(lead))

    def bw(out):
        if logits.requires_grad:
            p = np.exp(shifted - lse[..., None])
            p[pick] -= 1.0
            logits._accumulate(out.grad * p / m, owned=True)

    return _make(out_data, (logits,), bw)


def dropout(x: Tensor, p: float, rng) -> Tensor:
    """Inverted dropout, run exactly when an rng is given and p > 0."""
    if rng is None or p <= 0.0:
        return x
    # the graph keeps the one-byte mask; forward and backward each
    # multiply by the scaled float mask rebuilt from it
    keep = _keep_mask(rng, x.shape, p)

    def bw(out):
        if x.requires_grad:
            x._accumulate(_dropped(keep, p, out.grad), owned=True)

    return _make(_dropped(keep, p, x.data), (x,), bw)


# -- backward and checking ---------------------------------------------


def _consumed(node: Tensor) -> None:
    """The backward of a node whose graph a sweep has already walked."""
    raise ContractError("backward over a graph it already consumed")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss over the recorded graph.

    The sweep frees the graph as it goes: once a node's closure has run,
    the node drops its ``.grad``, its closure and its links to its
    inputs, so its activations and gradient go as soon as no later
    closure needs them. Leaves (the parameters) keep their gradients. A
    graph can be walked once: a second sweep that reaches a consumed
    node raises ``ContractError`` before any closure runs, so every leaf
    gradient stays as the first sweep left it. A node the sweep reaches
    with a closure but no gradient, which a consumer's backward left
    out, raises ``ContractError`` naming the node's op (its closure's
    ``__qualname__``), before that closure runs.
    """
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
        if node._backward is _consumed:
            _consumed(node)  # raises
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    # popping walks the topological order in reverse, so the list never
    # holds a node whose closure has run
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        if node.grad is None:
            # every consumer has run: one of them left this input out
            name = getattr(node._backward, "__qualname__", "an op")
            raise ContractError(f"backward reached the output of {name} "
                                "with no gradient: an op's backward left "
                                "out an input that needs one")
        node._backward(node)
        node.grad = None
        node._backward = _consumed
        node._prev = ()


# ``grad_check`` results pass below this max relative error; an entry
# the two-point difference puts at or above it is differenced again
GRADCHECK_TOL = 1e-3

# central differences as (k, weight) pairs over f(x+kh) - f(x-kh) and
# a divisor of h: the two-point and the fourth-order four-point formula
_TWO_POINT = ((1, 1.0),), 2.0
_FOUR_POINT = ((1, 8.0), (2, -1.0)), 12.0


def _difference(f, flat: np.ndarray, i: int, h: float, stencil) -> float:
    """``stencil``'s central difference of ``f`` along ``flat[i]``."""
    pairs, divisor = stencil
    orig = flat[i]
    total = 0.0
    for k, weight in pairs:
        flat[i] = orig + k * h
        up = float(f().data)
        flat[i] = orig - k * h
        total += weight * (up - float(f().data))
    flat[i] = orig
    return total / (divisor * h)


def grad_check(f, params, eps: float = 1e-3) -> float:
    """Compare backward() against central finite differences, elementwise.

    ``f`` rebuilds and returns the scalar loss from the current parameter
    values. Returns the worst relative error, with the denominator
    max(|analytic|, |numeric|, 1e-8). Each entry is differenced with the
    two-point formula at ``eps``; an entry whose error is not below
    ``GRADCHECK_TOL`` is differenced again with the four-point formula
    at ``10 * eps``, whose error is smaller on a strongly curved loss,
    and that error is the one counted. Run the parameters in float64
    when the loss itself is too rough for float32 differencing.
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
                ai = float(aflat[i])
                for h, stencil in ((eps, _TWO_POINT), (10 * eps, _FOUR_POINT)):
                    num = _difference(f, flat, i, h, stencil)
                    rel = abs(ai - num) / max(abs(ai), abs(num), 1e-8)
                    if rel < GRADCHECK_TOL:
                        break
                if rel > worst:
                    worst = rel
    return worst
