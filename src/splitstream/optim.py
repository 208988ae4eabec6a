"""AdamW with decoupled weight decay.

Deterministic given (params, grads, state); moment buffers are allocated
per parameter on first step and shape-match it thereafter.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AdamW:
    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        missing = [i for i, p in enumerate(self.params) if p.grad is None]
        if missing:
            raise RuntimeError(f"AdamW.step: {len(missing)} params have no grad (first index {missing[0]})")
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if self.weight_decay:
                p.data -= np.float32(self.lr * self.weight_decay) * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(np.float32)
            if not np.isfinite(p.data).all():
                raise FloatingPointError("AdamW.step produced non-finite parameters")

