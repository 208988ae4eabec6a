"""Minimal deterministic tensor library with reverse-mode autodiff.

Dense float32 arrays plus just enough operators for small convolutional
denoisers and gradient-based reconstruction attacks: conv2d, dense layers,
attention, dropout, pointwise nonlinearities, and reductions. Reductions
accumulate in float64 before casting back so summed losses are stable.
conv2d lays the whole batch out as one im2col matrix of shape
(c*kh*kw, n*ho*wo), so each direction is one float32 GEMM: the forward
multiplies it by the kernel, the weight gradient multiplies the output
gradient by its transpose (summing over all n*ho*wo positions), and the input
gradient is the forward correlation again, of the stride-dilated output
gradient with the flipped kernel. silu's backward zeroes the subnormal
gradients its underflowing slope makes.

Broadcasting is deliberately restricted: the only implicit broadcast is
bias_add, which adds a tensor whose shape equals the trailing dims of the
input (per-channel conv bias and per-feature dense bias are special cases).
Everything else requires exact shape agreement and raises ShapeError.
"""

from __future__ import annotations

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
    only sanctioned mutation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f32(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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
    map (conv bias). Dense bias (N,F)+(F,) is the first form.
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
            x._accumulate(g * y * (1.0 - y))

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


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 4 or b.ndim != 4 or a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels: {a.shape} vs {b.shape}")
    ca = a.shape[1]

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g[:, :ca])
        if b.requires_grad:
            b._accumulate(g[:, ca:])

    return _out(np.concatenate([a.data, b.data], axis=1), (a, b), bwd)


def softmax_last(x: Tensor) -> Tensor:
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m, dtype=np.float32)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            x._accumulate(y * (g - dot))

    return _out(y, (x,), bwd)


def attention(query: Tensor, key: Tensor, value: Tensor) -> Tensor:
    """softmax(Q Kᵀ / sqrt(D)) V over (N, L, D) / (N, M, D) operands.

    Self-attention is the call with key=value=query.
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


# ---------------------------------------------------------------------------
# convolution and resampling


def _axis_slices(length: int, lo: int, size: int, dilate: int):
    """Source and destination slices of one axis when `length` samples are
    spread `dilate` apart and shifted by `lo` into `size` slots (a negative
    `lo` crops the samples that fall before slot 0)."""
    first = -(min(lo, 0) // dilate)
    last = min(length - 1, (size - 1 - lo) // dilate)
    start = lo + dilate * first
    return slice(first, last + 1), slice(start, start + dilate * (last - first) + 1, dilate)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pads, dilate: int = 1):
    """Columns (c*kh*kw, n*ho*wo) of a kh x kw correlation over x, the whole
    batch side by side.

    x is first dilated (dilate - 1 zeros between samples) and padded by
    pads = (top, bottom, left, right), all in one zero buffer; a negative
    pad crops.
    """
    n, c, h, w = x.shape
    top, bottom, left, right = pads
    hp = (h - 1) * dilate + 1 + top + bottom
    wp = (w - 1) * dilate + 1 + left + right
    if dilate != 1 or any(pads):
        src_h, dst_h = _axis_slices(h, top, hp, dilate)
        src_w, dst_w = _axis_slices(w, left, wp, dilate)
        buf = np.zeros((n, c, hp, wp), dtype=np.float32)
        buf[:, :, dst_h, dst_w] = x[:, :, src_h, src_w]
        x = buf
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    # a strided view over x (C-contiguous here: a tensor's data, a gradient or
    # the zero buffer); the reshape copies it into the columns
    s0, s1, s2, s3 = x.strides
    cols = np.ndarray((c, kh, kw, n, ho, wo), np.float32, x, 0,
                      (s1, s2, s3, s0, s2 * stride, s3 * stride))
    return cols.reshape(c * kh * kw, n * ho * wo), ho, wo


def _batch_first(flat: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """A (ch, n*h*w) GEMM result as an (n, ch, h, w) view."""
    return flat.reshape(-1, n, h, w).transpose(1, 0, 2, 3)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with OCkhkw kernel.

    The input gradient is itself a correlation: the output gradient, dilated
    by the stride and padded by k-1-padding (plus the rows and columns the
    forward never read), against the flipped kernel with in and out channels
    swapped.
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
    cols, ho, wo = _im2col(x.data, kh, kw, stride, (padding,) * 4)
    y = _batch_first(kernel.data.reshape(o, c * kh * kw) @ cols, n, ho, wo)

    def bwd(g):
        if kernel.requires_grad:
            gflat = g.transpose(1, 0, 2, 3).reshape(o, n * ho * wo)
            kernel._accumulate((gflat @ cols.T).reshape(kernel.shape))
        if x.requires_grad:
            top, left = kh - 1 - padding, kw - 1 - padding
            unread_h = (h + 2 * padding - kh) % stride
            unread_w = (w + 2 * padding - kw) % stride
            gcols, _, _ = _im2col(g, kh, kw, 1, (top, top + unread_h, left, left + unread_w), stride)
            wflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
            x._accumulate(_batch_first(wflip @ gcols, n, h, w))

    return _out(y, (x, kernel), bwd)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of an NCHW map."""
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
    _check_same_shape("mse", a, b)
    diff = a.data.astype(np.float64) - b.data
    val = np.float32(np.mean(diff * diff))
    k = np.float32(2.0 / a.data.size)
    d32 = (a.data - b.data)

    def bwd(g):
        gd = g.reshape(()) * k * d32
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
