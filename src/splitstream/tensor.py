"""Minimal deterministic tensor library with reverse-mode autodiff.

Dense float32 arrays plus just enough operators for small convolutional
denoisers and gradient-based reconstruction attacks: conv2d, dense layers,
attention, dropout, pointwise nonlinearities, and reductions. Reductions
accumulate in float64 before casting back so summed losses are stable.
conv2d runs one of three formulations, chosen from the shape:
- kn2row, for a stride-1 convolution whose output is at most half as wide
  as its input (2*o <= c) over at least 1024 positions in the batch
  (n*h*w): one GEMM per sample of the kernel's taps (kh*kw*o, c) by the
  input as it is (c, h*w), then each tap's plane added at its shift. The
  backward lays the output gradient out once per sample as (kh*kw*o, h*w)
  and takes both gradients from it by GEMM, so no c*kh*kw columns are ever
  copied and nothing but the input is kept between the two directions.
- im2col otherwise: the whole batch unfolded into one column matrix, so each
  direction is one float32 GEMM: the forward multiplies it by the kernel,
  the weight gradient multiplies the output gradient by it (summing over all
  n*ho*wo positions), and the input gradient is the forward correlation
  again, of the stride-dilated output gradient with the flipped kernel.
  Each unfold picks its layout from the shape:
  - channels-last rows (n*ho*wo, kh*kw*c) from an NHWC copy when kw*c is
    at least 3*wo and the columns hold at most 2**18 floats, so that wide
    channel counts over small maps are copied in long runs;
  - channels-first columns (c*kh*kw, n*ho*wo) for every other shape.
The kernel is reordered to match. A frozen kernel (requires_grad False) is
reordered once per layout: the packed matrices stay on its Tensor and are
reused while its `data` is the array they were packed from; a trainable
kernel is reordered on every call. conv2d takes an optional bias, added
while the output is written.
upsample_conv2d is a fourth formulation, of conv2d(upsample2x(x), k, 1, 1)
for a 3x3 kernel (a resize-convolution), computed at x's resolution: each
output phase y[:, :, i::2, j::2] is a 2x2 correlation of x whose taps each
sum the 3x3 taps that read the same input sample (the sub-pixel identity),
run kn2row-style with (16*o, c) phase taps and 16 shifted adds. It is exact
in exact arithmetic and does 16/36 of the multiply-adds; in float32 its
bits differ from the composed ops' by a few ulps, because the taps are
summed before the multiply and each output sums 4*c products, not 9*c.
upsample2x remains as its oracle.
self_attention is a map plus the attention of its tokens over themselves,
and cross_attention a map plus the attention of its projected tokens over a
projected context (the prompt), each as one node whose hand-written backward
is bit-equal to the composed ops'. cross_attention computes a gradient only
for the operands that need one, and keeps nothing when none does.
Four gradients zero the subnormal values (below 2**-126) their underflow
makes, because BLAS multiplies subnormals many times slower: the backward of
sigmoid and silu where they saturate, mse's where a saturated output meets
its target, and the softmax gradient of softmax_last and both fused
attention nodes. Outputs stay bit-identical: a zeroed value could move a
sum it joins only when the sum is itself near 2**-126, and it reaches a
weight only through an Adam step, whose denominator sqrt(v) + 1e-8 keeps its
share of the step orders of magnitude under half an ulp of any weight the
runs hold. The digest table (tests/output_digests.json) pins this on runs
whose inverse net saturates.
Every gradient is checked against its tensor's shape; a node's first
gradient is stored as a copy, never added onto zeros; later ones add onto it.

Broadcasting is deliberately restricted: the only implicit broadcasts are
bias_add, which adds a tensor whose shape equals the trailing dims of the
input (per-channel conv bias and per-feature dense bias are special cases),
and conv2d's (o,) bias. Everything else requires exact shape agreement and
raises ShapeError.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .rng import RngState


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph (e.g. backward from a non-scalar)."""


def _as_f32(data) -> np.ndarray:
    # order="C" keeps 0-d arrays 0-d (ascontiguousarray would promote to 1-d)
    return np.asarray(data, dtype=np.float32, order="C")


class Tensor:
    """Dense float32 array with optional gradient tracking.

    Tensors are immutable once produced by an op; optimizers update
    parameter tensors in place through their `data` buffer, which is the
    only sanctioned mutation. An optimizer rebinds each parameter's `data`
    once, at construction, to a same-shape view of its own flat buffer; code
    that holds a parameter reads `p.data` afresh rather than keeping an
    earlier array. Nothing writes a frozen tensor's `data` in place:
    conv2d and upsample_conv2d keep a frozen kernel's packed layouts for as
    long as `data` is the same array, and drop them only on a call with the
    kernel trainable.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_packs")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f32(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        # a frozen conv kernel's GEMM layouts: (the data they were packed from, {layout: matrix})
        self._packs: tuple[np.ndarray, dict] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray) -> None:
        # every gradient, not only the first: += would broadcast a wrong one
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != tensor shape {self.shape}")
        if self.grad is None:
            # a copy, never a view: ops hand on views of their output gradient
            self.grad = np.array(g, dtype=np.float32, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _out(data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    t = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if t.requires_grad:
        t._parents = parents
        t._backward = backward_fn
    return t


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def backward(loss: Tensor, seed_grad: np.ndarray | None = None) -> None:
    """Populate grads on every tensor reachable from `loss`.

    Without `seed_grad` the root must be scalar and is seeded with 1.
    A seed gradient of the root's shape starts backprop mid-graph (used by
    the split protocol to continue a cut-off graph on the client).
    Grads accumulate across calls until an optimizer's zero_grad() clears them.
    """
    if seed_grad is None:
        if loss.data.size != 1:
            raise GraphError(f"backward() needs a scalar loss, got shape {loss.shape}")
    elif seed_grad.shape != loss.shape:
        raise ShapeError(f"seed grad shape {seed_grad.shape} != root shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    on_path: set[int] = set()
    while stack:
        node, processed = stack.pop()
        if processed:
            on_path.discard(id(node))
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if id(node) in on_path:
            raise GraphError("cycle in computation graph")
        visited.add(id(node))
        on_path.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss._accumulate(np.ones_like(loss.data) if seed_grad is None else _as_f32(seed_grad))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _out(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _out(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * np.float32(s))

    return _out(a.data * np.float32(s), (a,), bwd)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add `b` broadcast over the leading dims of `x`.

    Two sanctioned forms: b.shape == x.shape[1:] (per-sample constant, e.g.
    a secret offset map), and rank-1 b matching the channel dim of a NCHW
    map (a per-channel offset such as a conv bias). Dense bias (N,F)+(F,)
    is the first form.
    """
    if b.shape == x.shape[1:]:
        bview = b.data.reshape((1,) + b.shape)
        reduce_axes = (0,)
    elif x.ndim == 4 and b.ndim == 1 and b.shape[0] == x.shape[1]:
        bview = b.data.reshape(1, -1, 1, 1)
        reduce_axes = (0, 2, 3)
    else:
        raise ShapeError(f"bias_add: cannot broadcast {b.shape} onto {x.shape}")

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=reduce_axes, dtype=np.float64).astype(np.float32).reshape(b.shape))

    return _out(x.data + bview, (x, b), bwd)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


_F32_TINY = np.finfo(np.float32).tiny


def _flush_subnormals(a: np.ndarray) -> np.ndarray:
    """a with its subnormal values zeroed. BLAS multiplies subnormals many
    times slower; each zeroed value is below the smallest normal float32."""
    return np.where(np.abs(a) < _F32_TINY, np.float32(0), a)


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # exp overflow for very negative x saturates to the correct limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x, dtype=np.float32))


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_data(x.data)

    def bwd(g):
        if x.requires_grad:
            # the slope underflows where the output saturates
            x._accumulate(_flush_subnormals(g * y * (1.0 - y)))

    return _out(y, (x,), bwd)


def silu(x: Tensor) -> Tensor:
    s = _sigmoid_data(x.data)
    y = x.data * s

    def bwd(g):
        if x.requires_grad:
            # the slope underflows over very negative inputs; its subnormal
            # products would slow every GEMM downstream
            x._accumulate(_flush_subnormals(g * (s + x.data * s * (1.0 - s))))

    return _out(y, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return _out(x.data * mask, (x,), bwd)


def abs_(x: Tensor) -> Tensor:
    # subgradient at 0 fixed to 0
    sign = np.sign(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * sign)

    return _out(np.abs(x.data), (x,), bwd)


def dropout(x: Tensor, p: float, rng: RngState, training: bool = True) -> Tensor:
    """Zero each element with prob p and scale survivors by 1/(1-p).

    Zeroed positions propagate zero gradient. Identity in eval mode.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout prob must be in [0, 1), got {p}")
    if not training or p == 0.0:
        def bwd_id(g):
            if x.requires_grad:
                x._accumulate(g)

        return _out(x.data, (x,), bwd_id)
    keep = (rng.uniform(x.shape) >= p).astype(np.float32) / np.float32(1.0 - p)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * keep)

    return _out(x.data * keep, (x,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _out(a.data @ b.data, (a, b), bwd)


def dense(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map x @ weight (+ bias)."""
    y = matmul(x, weight)
    if bias is not None:
        y = bias_add(y, bias)
    return y


def bmm(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm: {a.shape} @ {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.transpose(0, 2, 1))
        if b.requires_grad:
            b._accumulate(a.data.transpose(0, 2, 1) @ g)

    return _out(a.data @ b.data, (a, b), bwd)


def transpose_last2(x: Tensor) -> Tensor:
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got {x.shape}")
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g.transpose(axes))

    return _out(np.ascontiguousarray(x.data.transpose(axes)), (x,), bwd)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for rank {x.ndim}")
    inv = tuple(np.argsort(axes))

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.ascontiguousarray(g.transpose(inv)))

    return _out(np.ascontiguousarray(x.data.transpose(axes)), (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"reshape {x.shape} -> {shape}")

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    return _out(x.data.reshape(shape), (x,), bwd)


def concat(parts, axis: int) -> Tensor:
    """`parts` joined along `axis`, every other axis equal: 1 joins channels
    (the denoiser's skip connections), 0 joins rows (the chunks of a
    whole-split client pass). Each part's gradient is its slice of the
    output's."""
    parts = tuple(parts)
    rest = {p.shape[:axis] + p.shape[axis + 1:] for p in parts}
    if not parts or len(rest) != 1 or any(p.ndim <= axis for p in parts):
        raise ShapeError(f"concat on axis {axis}: {[p.shape for p in parts]}")
    edges = np.cumsum([0] + [p.shape[axis] for p in parts])
    lead = (slice(None),) * axis

    def bwd(g):
        for p, lo, hi in zip(parts, edges, edges[1:]):
            if p.requires_grad:
                p._accumulate(g[lead + (slice(lo, hi),)])

    return _out(np.concatenate([p.data for p in parts], axis=axis), parts, bwd)


def _softmax(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=-1, keepdims=True)
    e = np.exp(a - m, dtype=np.float32)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the softmax input, given its output y and output gradient g."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return _flush_subnormals(y * (g - dot))


def softmax_last(x: Tensor) -> Tensor:
    y = _softmax(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(_softmax_grad(y, g))

    return _out(y, (x,), bwd)


def attention(query: Tensor, key: Tensor, value: Tensor) -> Tensor:
    """softmax(Q Kᵀ / sqrt(D)) V over (N, L, D) / (N, M, D) operands.

    The fused self_attention and cross_attention nodes do not call it: it
    remains, with bmm, softmax_last, transpose_last2 and permute, as the
    primitives of the composed graphs those nodes are checked against.
    """
    for name, t in (("query", query), ("key", key), ("value", value)):
        if t.ndim != 3:
            raise ShapeError(f"attention: {name} must be rank 3, got {t.shape}")
    if not (query.shape[0] == key.shape[0] == value.shape[0]):
        raise ShapeError("attention: batch dims differ")
    if query.shape[2] != key.shape[2]:
        raise ShapeError(f"attention: q/k feature dims differ {query.shape} vs {key.shape}")
    if key.shape[1] != value.shape[1]:
        raise ShapeError(f"attention: k/v length dims differ {key.shape} vs {value.shape}")
    scores = scale(bmm(query, transpose_last2(key)), 1.0 / math.sqrt(query.shape[2]))
    return bmm(softmax_last(scores), value)


def self_attention(x: Tensor) -> Tensor:
    """x + softmax(T Tᵀ / sqrt(c)) T over the tokens T (n, h*w, c) of an
    NCHW map x, as one node.

    Bit for bit the composed graph permute, reshape, attention(T, T, T),
    add, reshape, permute: forward and backward make that graph's numpy
    calls on the same operand layouts, and the token gradient is summed in
    its order: residual, value, query, key.
    """
    if x.ndim != 4:
        raise ShapeError(f"self_attention: need a rank-4 map, got {x.shape}")
    n, c, h, w = x.shape
    tok = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)).reshape(n, h * w, c)
    tok_t = np.ascontiguousarray(tok.transpose(0, 2, 1))
    s = np.float32(1.0 / math.sqrt(c))
    p = _softmax((tok @ tok_t) * s)
    y = tok + p @ tok

    def bwd(g):
        if x.requires_grad:
            gy = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n, h * w, c)
            gs = _softmax_grad(p, gy @ tok.transpose(0, 2, 1)) * s
            gt = gy + p.transpose(0, 2, 1) @ gy
            gt += gs @ tok_t.transpose(0, 2, 1)
            gt += (tok.transpose(0, 2, 1) @ gs).transpose(0, 2, 1)
            x._accumulate(np.ascontiguousarray(gt.reshape(n, h, w, c).transpose(0, 3, 1, 2)))

    return _out(np.ascontiguousarray(y.reshape(n, h, w, c).transpose(0, 3, 1, 2)), (x,), bwd)


def cross_attention(x: Tensor, context: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                    wo: Tensor) -> Tensor:
    """x + attention(T wq, context wk, context wv) wo over the tokens T
    (n, h*w, c) of an NCHW map x and a context (n, m, d), as one node.

    Bit for bit the composed graph permute, reshape, the four projections
    (reshape, matmul, reshape), attention, add, reshape, permute: forward and
    backward make that graph's numpy calls on the same operand layouts, and
    the token gradient is summed in its order: residual, query. A gradient
    is computed only for the operands that need one. The context is data:
    one that requires grad is refused, not silently cut off.
    """
    if context.requires_grad:
        raise GraphError("cross_attention: the context must not require grad")
    if x.ndim != 4 or context.ndim != 3 or context.shape[0] != x.shape[0]:
        raise ShapeError(f"cross_attention: map {x.shape} with context {context.shape}")
    n, c, h, w = x.shape
    l, (m, d), a = h * w, context.shape[1:], wq.shape[-1]
    if (wq.shape, wk.shape, wv.shape, wo.shape) != ((c, a), (d, a), (d, a), (a, c)):
        raise ShapeError(f"cross_attention: weights {wq.shape} {wk.shape} {wv.shape} {wo.shape} "
                         f"for {c} channels and {d} context features")
    keep = any(t.requires_grad for t in (x, wq, wk, wv, wo))
    tok = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)).reshape(n * l, c)
    ctx = context.data.reshape(n * m, d)
    q = (tok @ wq.data).reshape(n, l, a)
    kt = np.ascontiguousarray((ctx @ wk.data).reshape(n, m, a).transpose(0, 2, 1))
    v = (ctx @ wv.data).reshape(n, m, a)
    s = np.float32(1.0 / math.sqrt(a))
    p = _softmax((q @ kt) * s)
    if not keep:
        del q, kt
    o = (p @ v).reshape(n * l, a)
    if not keep:
        del p, v
    y = tok + o @ wo.data
    if not keep:
        del tok, o
    out = np.ascontiguousarray(y.reshape(n, h, w, c).transpose(0, 3, 1, 2))
    if not keep:
        return Tensor(out)

    def bwd(g):
        gy = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * l, c)
        if wo.requires_grad:
            wo._accumulate(o.T @ gy)
        to_scores = x.requires_grad or wq.requires_grad or wk.requires_grad
        if not (to_scores or wv.requires_grad):
            return
        go = (gy @ wo.data.T).reshape(n, l, a)
        if wv.requires_grad:
            wv._accumulate(ctx.T @ (p.transpose(0, 2, 1) @ go).reshape(n * m, a))
        if not to_scores:
            return
        gs = _softmax_grad(p, go @ v.transpose(0, 2, 1)) * s
        if wk.requires_grad:
            gk = np.ascontiguousarray((q.transpose(0, 2, 1) @ gs).transpose(0, 2, 1))
            wk._accumulate(ctx.T @ gk.reshape(n * m, a))
        if x.requires_grad or wq.requires_grad:
            gq = (gs @ kt.transpose(0, 2, 1)).reshape(n * l, a)
            if wq.requires_grad:
                wq._accumulate(tok.T @ gq)
            if x.requires_grad:
                gt = gy + gq @ wq.data.T
                x._accumulate(np.ascontiguousarray(gt.reshape(n, h, w, c).transpose(0, 3, 1, 2)))

    return _out(out, (x, context, wq, wk, wv, wo), bwd)


# ---------------------------------------------------------------------------
# convolution and resampling


def _axis_slices(length: int, lo: int, size: int, dilate: int):
    """Source and destination slices of one axis when `length` samples are
    spread `dilate` apart and shifted by `lo` into `size` slots (a negative
    `lo` crops the samples that fall before slot 0)."""
    first = -(min(lo, 0) // dilate)
    last = max(first - 1, min(length - 1, (size - 1 - lo) // dilate))
    start = lo + dilate * first
    return slice(first, last + 1), slice(start, start + dilate * (last - first + 1), dilate)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pads, dilate: int = 1):
    """Columns of a kh x kw correlation over NCHW x, the whole batch side by
    side, as (cols, ho, wo, channels_last).

    Channels-first columns are (c*kh*kw, n*ho*wo). Channels-last columns are
    (n*ho*wo, kh*kw*c), each row in (kh, kw, c) order, unfolded from an NHWC
    copy of x. Copying the strided view into the columns moves runs of wo
    floats channels-first and of kw*c floats channels-last; channels-last is
    taken when its run is at least three times as long and the columns hold
    at most 2**18 floats (1 MiB). Channels-last columns are the left operand
    of their GEMM, which a multithreaded OpenBLAS packs whole into its own
    buffer, and the pages it touches there stay resident; the cap bounds
    that at 1 MiB.

    x is first dilated (dilate - 1 zeros between samples) and padded by
    pads = (top, bottom, left, right), all in one zero buffer; a negative
    pad crops.
    """
    n, c, h, w = x.shape
    top, bottom, left, right = pads
    hp = (h - 1) * dilate + 1 + top + bottom
    wp = (w - 1) * dilate + 1 + left + right
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    last = kw * c >= 3 * wo and n * ho * wo * kh * kw * c <= 1 << 18
    if dilate != 1 or any(pads):
        src_h, dst_h = _axis_slices(h, top, hp, dilate)
        src_w, dst_w = _axis_slices(w, left, wp, dilate)
        if last:
            buf = np.zeros((n, hp, wp, c), dtype=np.float32)
            buf[:, dst_h, dst_w] = x[:, :, src_h, src_w].transpose(0, 2, 3, 1)
        else:
            buf = np.zeros((n, c, hp, wp), dtype=np.float32)
            buf[:, :, dst_h, dst_w] = x[:, :, src_h, src_w]
        x = buf
    elif last:
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    # a strided view over x (C-contiguous here: a tensor's data, a gradient or
    # a copy made above); the reshape copies it into the columns
    s0, s1, s2, s3 = x.strides
    if last:
        cols = np.ndarray((n, ho, wo, kh, kw, c), np.float32, x, 0,
                          (s0, s1 * stride, s2 * stride, s1, s2, s3))
        return cols.reshape(n * ho * wo, kh * kw * c), ho, wo, True
    cols = np.ndarray((c, kh, kw, n, ho, wo), np.float32, x, 0,
                      (s1, s2, s3, s0, s2 * stride, s3 * stride))
    return cols.reshape(c * kh * kw, n * ho * wo), ho, wo, False


def _packed(kernel: Tensor, key, pack) -> np.ndarray:
    """pack(kernel.data), a GEMM operand of the kernel. A frozen kernel keeps
    each operand under its key in its `_packs` and reuses it while its `data`
    is the array it was packed from; a trainable kernel is reordered on every
    call and drops what it kept."""
    w = kernel.data
    packs = kernel._packs
    if kernel.requires_grad:
        kernel._packs = packs = None
    elif packs is None or packs[0] is not w:
        kernel._packs = packs = (w, {})
    elif key in packs[1]:
        return packs[1][key]
    m = pack(w)
    if packs is not None:
        packs[1][key] = m
    return m


def _kernel_matrix(kernel: Tensor, last: bool, flip: bool = False) -> np.ndarray:
    """kernel (o, c, kh, kw) as the GEMM operand of _im2col's columns:
    (kh*kw*c, o) for channels-last columns, (o, c*kh*kw) for channels-first.
    With flip, the kernel of the input gradient: flipped in space, in and
    out channels swapped. Packed once for a frozen kernel (_packed)."""

    def pack(w):
        if flip:
            w = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        o, c, kh, kw = w.shape
        return w.transpose(2, 3, 1, 0).reshape(kh * kw * c, o) if last else w.reshape(o, c * kh * kw)

    return _packed(kernel, (last, flip), pack)


def _correlate(x: np.ndarray, kernel: Tensor, stride: int, pads, dilate: int = 1,
               flip: bool = False):
    """x (n, c, h, w) correlated with kernel (o, c, kh, kw), or with flip
    with its flipped, channel-swapped twin, as one GEMM over _im2col's
    columns and _kernel_matrix's operand. Returns an (n, o, ho, wo) view of
    the result and a function that maps its gradient to the kernel's, in the
    kernel's (o, c, kh, kw) order (unflipped only)."""
    o, c, kh, kw = kernel.shape
    if flip:
        o, c = c, o
    n = x.shape[0]
    cols, ho, wo, last = _im2col(x, kh, kw, stride, pads, dilate)
    if last:
        flat = cols @ _kernel_matrix(kernel, last, flip)
        y = flat.reshape(n, ho, wo, o).transpose(0, 3, 1, 2)
    else:
        flat = _kernel_matrix(kernel, last, flip) @ cols
        y = flat.reshape(o, n, ho, wo).transpose(1, 0, 2, 3)

    def kernel_grad(g):
        gflat = g.transpose(1, 0, 2, 3).reshape(o, -1)
        if last:
            return (gflat @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
        return (gflat @ cols.T).reshape(o, c, kh, kw)

    return y, kernel_grad


def _kn2row_fits(n: int, c: int, o: int, stride: int, h: int, w: int) -> bool:
    """Whether conv2d takes the kn2row path: stride 1, an output at most
    half as wide as the input (2*o <= c), and at least 1024 positions over
    the batch (n*h*w), where copying im2col's c*kh*kw rows costs more than
    kn2row's o*kh*kw planes, its per-sample GEMMs and its kh*kw adds."""
    return stride == 1 and 2 * o <= c and n * h * w >= 1024


def _tap_slices(kh: int, kw: int, h: int, w: int, ho: int, wo: int, padding: int):
    """(u, v, input rows, input columns, output rows, output columns) for each
    tap of a stride-1 kh x kw correlation: tap (u, v) reads input (a, b)
    into output (a + padding - u, b + padding - v)."""
    for u in range(kh):
        src_h, dst_h = _axis_slices(h, padding - u, ho, 1)
        for v in range(kw):
            src_w, dst_w = _axis_slices(w, padding - v, wo, 1)
            yield u, v, src_h, src_w, dst_h, dst_w


def _kn2row(x: Tensor, kernel: Tensor, padding: int, bias: Tensor | None):
    """A stride-1 conv2d as one GEMM per sample over x as it is, then a
    shifted add of each tap's plane (kn2row). Returns the output and a
    function that maps its gradient to the input's and the kernel's, each
    only where it is wanted; it keeps x and the taps, no columns.

    The taps are (kh*kw*o, c), rows in (kh, kw, o) order, packed once for a
    frozen kernel: taps @ x[n] (c, h*w) gives every tap's output plane, and
    the output starts from the bias and adds each plane at its shift. The
    output gradient is laid out once as gz[n] (kh*kw*o, h*w), each tap's rows
    the output gradient at that tap's shift (zero where the tap falls in the
    padding): the kernel gradient is sum_n gz[n] @ x[n].T and the input
    gradient taps.T @ gz[n], already NCHW.
    """
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    ho, wo = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    xs = x.data.reshape(n, c, h * w)
    taps = _packed(kernel, "taps", lambda k: k.transpose(2, 3, 0, 1).reshape(kh * kw * o, c))
    planes = np.matmul(taps, xs).reshape(n, kh, kw, o, h, w)
    y = np.empty((n, o, ho, wo), dtype=np.float32)
    y[...] = 0 if bias is None else bias.data.reshape(1, o, 1, 1)
    for u, v, src_h, src_w, dst_h, dst_w in _tap_slices(kh, kw, h, w, ho, wo, padding):
        y[:, :, dst_h, dst_w] += planes[:, u, v, :, src_h, src_w]

    def input_and_kernel_grad(g):
        if not (x.requires_grad or kernel.requires_grad):
            return
        gz = np.zeros((n, kh, kw, o, h, w), dtype=np.float32)
        for u, v, src_h, src_w, dst_h, dst_w in _tap_slices(kh, kw, h, w, ho, wo, padding):
            gz[:, u, v, :, src_h, src_w] = g[:, :, dst_h, dst_w]
        gz = gz.reshape(n, kh * kw * o, h * w)
        if kernel.requires_grad:
            gw = np.matmul(gz, xs.transpose(0, 2, 1)).sum(axis=0)
            kernel._accumulate(gw.reshape(kh, kw, o, c).transpose(2, 3, 0, 1))
        if x.requires_grad:
            x._accumulate(np.matmul(taps.T, gz).reshape(n, c, h, w))

    return y, input_and_kernel_grad


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """Cross-correlation of NCHW input with OCkhkw kernel, plus a per-channel
    bias (o,) when one is given.

    Three formulations, picked from the shape:
    - kn2row (_kn2row) where _kn2row_fits: stride 1, 2*o <= c and
      n*h*w >= 1024, as for a type-1 inverse net's last conv at 32x32 and
      enc_block_1's 32->4 conv over 16 whitebox rows at 8x8. Per sample, taps
      (kh*kw*o, c) @ x[n] (c, h*w), each tap's plane added at its shift
      onto the bias. The backward lays the output gradient out as gz[n]
      (kh*kw*o, h*w): the kernel gradient is sum_n gz[n] @ x[n].T, the
      input gradient taps.T @ gz[n].
    - im2col with channels-last rows, where _im2col's rule picks them for
      an unfold (kw*c >= 3*wo and at most 2**18 floats);
    - im2col with channels-first columns for every other unfold.

    Under im2col the input gradient is itself a correlation: the output
    gradient, dilated by the stride and padded by k-1-padding (plus the rows
    and columns the forward never read), against the flipped kernel with in
    and out channels swapped. Each of the two unfolds picks its own column
    layout. The bias is added while the GEMM's result is copied into the
    C-contiguous output, and its gradient is summed in float64 as
    bias_add's is.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d: need rank-4 input/kernel, got {x.shape}, {kernel.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: need stride >= 1 and padding >= 0, got {stride}, {padding}")
    n, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {ck}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv2d: bias {bias.shape} for {o} output channels")
    if _kn2row_fits(n, c, o, stride, h, w):
        y, input_and_kernel_grad = _kn2row(x, kernel, padding, bias)
    else:
        y, kernel_grad = _correlate(x.data, kernel, stride, (padding,) * 4)
        if bias is not None:
            y = np.add(y, bias.data.reshape(1, o, 1, 1), out=np.empty(y.shape, dtype=np.float32))

        def input_and_kernel_grad(g):
            if kernel.requires_grad:
                kernel._accumulate(kernel_grad(g))
            if x.requires_grad:
                top, left = kh - 1 - padding, kw - 1 - padding
                unread_h = (h + 2 * padding - kh) % stride
                unread_w = (w + 2 * padding - kw) % stride
                gx, _ = _correlate(g, kernel, 1, (top, top + unread_h, left, left + unread_w),
                                   stride, flip=True)
                x._accumulate(gx)

    def bwd(g):
        input_and_kernel_grad(g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32))

    return _out(y, (x, kernel) if bias is None else (x, kernel, bias), bwd)


def _phase_matrix() -> np.ndarray:
    """(16, 9) 0/1 matrix: row (i, j, r, s) marks the 3x3 taps that phase
    (i, j)'s 2x2 tap (r, s) sums. Up-sampled row 2m + i + u - 1 (3x3 tap u,
    padding 1) is input row m + (i + u - 1) // 2, so output phase i reads
    input rows m + i - 1 (r = 0) and m + i (r = 1): phase 0 takes taps {0}
    and {1, 2}, phase 1 taps {0, 1} and {2}; columns alike."""
    rows = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
    return np.einsum("iru,jsv->ijrsuv", rows, rows).reshape(16, 9)


_PHASES = _phase_matrix()


@functools.lru_cache(maxsize=None)
def _phase_slices(h: int, w: int) -> tuple:
    """(i, j, r, s, input rows, input columns, output rows, output columns)
    for each 2x2 tap of each output phase: tap (r, s) of phase (i, j) reads
    input (a, b) into the phase plane's (a + 1 - i - r, b + 1 - j - s).
    Kept per map size: the models call it at a handful of sizes."""
    out = []
    for i, j, r, s in itertools.product((0, 1), repeat=4):
        src_h, dst_h = _axis_slices(h, 1 - i - r, h, 1)
        src_w, dst_w = _axis_slices(w, 1 - j - s, w, 1)
        out.append((i, j, r, s, src_h, src_w, dst_h, dst_w))
    return tuple(out)


def upsample_conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """conv2d(upsample2x(x), kernel, 1, 1, bias) for a 3x3 kernel, computed
    at x's resolution: output phase (i, j), y[:, :, i::2, j::2], is a 2x2
    correlation of x, whose taps each sum the 3x3 taps they read
    (_phase_matrix).

    The phase taps are (16*o, c), rows in (i, j, r, s, o) order, summed in
    float64 and rounded once, and packed once for a frozen kernel. Per
    sample, taps @ x[n] (c, h*w) gives every tap's plane; the output starts
    from the bias and adds each plane at its shift into its phase. The
    backward lays the output gradient out once as gz[n] (16*o, h*w) from
    the phase views: the phase-tap gradient sum_n gz[n] @ x[n].T maps back
    to the 3x3 taps through the same matrix, and the input gradient is
    taps.T @ gz[n], already at x's resolution. It does 16/36 of the
    composed ops' multiply-adds and never builds the up-sampled map; it
    equals them in exact arithmetic and differs by float32 rounding.
    """
    if x.ndim != 4 or kernel.ndim != 4 or kernel.shape[1:] != (x.shape[1], 3, 3):
        raise ShapeError(f"upsample_conv2d: need a rank-4 input and a 3x3 kernel over its "
                         f"channels, got {x.shape}, {kernel.shape}")
    n, c, h, w = x.shape
    o = kernel.shape[0]
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"upsample_conv2d: bias {bias.shape} for {o} output channels")
    xs = x.data.reshape(n, c, h * w)

    def pack(k):
        return (_PHASES @ k.reshape(o * c, 9).T).astype(np.float32).reshape(16 * o, c)

    taps = _packed(kernel, "phase_taps", pack)
    planes = np.matmul(taps, xs).reshape(n, 2, 2, 2, 2, o, h, w)
    y = np.empty((n, o, 2 * h, 2 * w), dtype=np.float32)
    y[...] = 0 if bias is None else bias.data.reshape(1, o, 1, 1)
    for i, j, r, s, src_h, src_w, dst_h, dst_w in _phase_slices(h, w):
        y[:, :, i::2, j::2][:, :, dst_h, dst_w] += planes[:, i, j, r, s, :, src_h, src_w]

    def bwd(g):
        if x.requires_grad or kernel.requires_grad:
            gz = np.zeros((n, 2, 2, 2, 2, o, h, w), dtype=np.float32)
            for i, j, r, s, src_h, src_w, dst_h, dst_w in _phase_slices(h, w):
                gz[:, i, j, r, s, :, src_h, src_w] = g[:, :, i::2, j::2][:, :, dst_h, dst_w]
            gz = gz.reshape(n, 16 * o, h * w)
            if kernel.requires_grad:
                gt = np.matmul(gz, xs.transpose(0, 2, 1)).sum(axis=0).reshape(16, o * c)
                gk = (_PHASES.T @ gt).astype(np.float32)
                kernel._accumulate(np.ascontiguousarray(gk.T).reshape(o, c, 3, 3))
            if x.requires_grad:
                x._accumulate(np.matmul(taps.T, gz).reshape(n, c, h, w))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32))

    return _out(y, (x, kernel) if bias is None else (x, kernel, bias), bwd)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of an NCHW map. No model
    calls it: upsample_conv2d runs every resize-convolution, and this op
    remains as its oracle."""
    if x.ndim != 4:
        raise ShapeError(f"upsample2x: need rank-4 input, got {x.shape}")
    y = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def bwd(g):
        if x.requires_grad:
            # four strided slices, summed in the order the 2x2 reduction
            # over a (n, c, h, 2, w, 2) view sums them
            x._accumulate((g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2])
                          + (g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2]))

    return _out(y, (x,), bwd)


# ---------------------------------------------------------------------------
# reductions (float64 accumulation)


def sum_all(x: Tensor) -> Tensor:
    val = np.float32(x.data.sum(dtype=np.float64))

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.full(x.shape, g.reshape(()), dtype=np.float32))

    return _out(val, (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    inv = 1.0 / x.data.size
    val = np.float32(x.data.sum(dtype=np.float64) * inv)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.full(x.shape, g.reshape(()) * np.float32(inv), dtype=np.float32))

    return _out(val, (x,), bwd)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    return _mse(a, b, ())


def row_mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error of each row (leading index), shape (N,): row i's
    value and gradient are bit-equal to those of mse on row i alone."""
    return _mse(a, b, a.shape[:1])


def _mse(a: Tensor, b: Tensor, out_shape: tuple) -> Tensor:
    _check_same_shape("mse", a, b)
    diff = (a.data.astype(np.float64) - b.data).reshape(math.prod(out_shape), -1)
    val = np.mean(diff * diff, axis=1).astype(np.float32).reshape(out_shape)
    k = np.float32(2.0 / diff.shape[1])
    d32 = (a.data - b.data)
    lead = out_shape + (1,) * (a.ndim - len(out_shape))

    def bwd(g):
        # the error underflows where a saturated output meets its target
        gd = _flush_subnormals(g.reshape(lead) * k * d32)
        if a.requires_grad:
            a._accumulate(gd)
        if b.requires_grad:
            b._accumulate(-gd)

    return _out(val, (a, b), bwd)


def sum_squares(x: Tensor) -> Tensor:
    val = np.float32(np.sum(x.data.astype(np.float64) ** 2))

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g.reshape(()) * 2.0 * x.data)

    return _out(val, (x,), bwd)
