"""Adam over one flat parameter buffer, at the fixed betas and eps below.

At construction the optimizer copies its parameters into one contiguous
float32 buffer and rebinds each parameter's `data` to its view of that
buffer, once. The moments `m` and `v` (zero at construction), a gradient
buffer and one scratch buffer are flat arrays of the same length. A step
gathers the gradients into the gradient buffer with one concatenate and runs
the update as 14 in-place ufunc calls over the whole buffer. The operations
and their order per element are those of the per-tensor update, so the
result is bit-identical to it; the `out=` buffers keep the step from
allocating a temporary per operation.

Deterministic given (params, grads, state). A parameter whose `data` is
rebound after construction (say, by a second optimizer packing the same
tensors) is no longer updated by this one, so `step` refuses it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999  # moment decay rates
EPS = 1e-8  # added to the denominator


class AdamW:
    """Adam at BETA1, BETA2 and EPS: AdamW with a weight decay of zero."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        if not self.params:
            raise ValueError("AdamW: empty parameter list")
        seen: dict[int, int] = {}
        for i, p in enumerate(self.params):
            j = seen.setdefault(id(p), i)
            if j != i:
                raise ValueError(f"AdamW: parameter {i} repeats parameter {j}")
        self.lr = float(lr)
        self.step_count = 0
        self._flat = np.concatenate([p.data for p in self.params], axis=None, dtype=np.float32)
        offset = 0
        for p in self.params:
            n = p.data.size
            p.data = self._flat[offset : offset + n].reshape(p.data.shape)
            offset += n
        self._views = [p.data for p in self.params]
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._g = np.empty_like(self._flat)
        self._scratch = np.empty_like(self._flat)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        missing = [i for i, p in enumerate(self.params) if p.grad is None]
        if missing:
            raise RuntimeError(f"AdamW.step: {len(missing)} params have no grad (first index {missing[0]})")
        for i, (p, view) in enumerate(zip(self.params, self._views)):
            if p.data is not view:
                raise RuntimeError(f"AdamW.step: parameter {i}'s data is no longer a view of "
                                   "this optimizer's buffer")
        self.step_count += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        w, m, v, g, s = self._flat, self._m, self._v, self._g, self._scratch
        np.concatenate([p.grad for p in self.params], axis=None, out=g)
        np.multiply(m, b1, out=m)
        np.multiply(1.0 - b1, g, out=s)
        np.add(m, s, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, g, out=g)
        np.multiply(1.0 - b2, g, out=g)
        np.add(v, g, out=v)
        # the gradient is spent: g holds the denominator, s the numerator
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        np.add(g, EPS, out=g)
        np.divide(m, bc1, out=s)
        np.multiply(self.lr, s, out=s)
        np.divide(s, g, out=s)
        np.subtract(w, s, out=w)
        if not np.isfinite(w).all():
            raise FloatingPointError("AdamW.step produced non-finite parameters")
