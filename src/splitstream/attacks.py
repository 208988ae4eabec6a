"""Honest-but-curious server attacks against recorded partition features.

Three families: UnSplit-style alternating optimization over a guessed
client model and its input, white-box gradient descent against known
client weights, and trained inverse networks (type 1 reconstructs the
original image, type 2 the condition image). The attacks here are generic:
they take explicit settings and return reconstructions, and score nothing.
Each cell of the experiment's attack grid (`experiment.run_attack_suite`,
which `splitstream run` runs whole and `splitstream attack` on one cell)
reads its settings from `[attacks]` and runs one of them over the captured
packets; `experiment.run_attack` scores the reconstructions with PSNR/SSIM
on the 0..255 scale against the private ground truth and builds the cell's
metrics row.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .models import Conv, Module
from .optim import AdamW
from .rng import RngState
from .tensor import Tensor


# ---------------------------------------------------------------------------
# gradient-descent attacks


WHITEBOX_INIT_SCALE = 0.1  # std of the normal draw each row starts from


def whitebox_gd_attack(target_feats: np.ndarray, model_fn, x_shape: tuple, rngs: list[RngState],
                       *, iters: int, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimize a batch of inputs so the known client model reproduces the
    observed features, every row on its own; returns the reconstructions and,
    per row, whether its loss went non-finite.

    `model_fn(x: Tensor) -> Tensor` is the attacker's copy of the client
    computation (true weights; any secrets it lacks are its problem), and
    must compute each row from that row alone. Row i starts from a normal
    draw of `rngs[i]`, scaled by WHITEBOX_INIT_SCALE, and descends its own
    mean squared error, unclipped, so its gradient, its Adam update and its
    result are bit-equal to a one-row descent's. A row whose loss goes
    non-finite keeps the value it had then; the others go on.
    """
    if len(rngs) != x_shape[0]:
        raise ValueError(f"whitebox_gd_attack: {len(rngs)} seeds for {x_shape[0]} rows")
    row_shape = (1, *x_shape[1:])
    x = Tensor(np.concatenate([rng.normal(row_shape) * np.float32(WHITEBOX_INIT_SCALE)
                               for rng in rngs]), requires_grad=True)
    opt = AdamW([x], lr=lr)
    target = Tensor(np.asarray(target_feats, dtype=np.float32))
    diverged = np.zeros(len(rngs), dtype=bool)
    kept = np.empty_like(x.data)
    for _ in range(int(iters)):
        loss = tt.row_mse(model_fn(x), target)
        stop = ~diverged & ~np.isfinite(loss.data)
        kept[stop] = x.data[stop]
        diverged |= stop
        if diverged.all():
            break
        opt.zero_grad()
        with np.errstate(invalid="ignore", over="ignore"):
            # a stopped row's gradient may be non-finite; it is zeroed before the step
            tt.backward(loss, seed_grad=np.ones_like(loss.data))
        x.grad[diverged] = 0.0
        opt.step()
        x.data[diverged] = kept[diverged]
    return x.data.copy(), diverged


UNSPLIT_L2_WEIGHT = 1e-4  # input penalty of the inner input loop; no config sets it


def unsplit_attack(target_feats: np.ndarray, make_guess_model, x_shape: tuple, rng: RngState,
                   *, outer: int, inner_x: int, inner_theta: int,
                   lr: float) -> tuple[np.ndarray, bool]:
    """Alternating optimization of a guessed client model and its input;
    returns the reconstruction and whether the loss went non-finite.

    `make_guess_model(rng)` returns (forward_fn, params): a randomly
    initialized stand-in for the unknown client model. Inner loops update
    the input against L_MSE + L2, then the guessed weights against L_MSE.
    """
    forward_fn, params = make_guess_model(rng.split("model"))
    target = Tensor(np.asarray(target_feats, dtype=np.float32))
    x = Tensor(rng.split("input").uniform(x_shape), requires_grad=True)
    opt_x = AdamW([x], lr=lr)
    opt_theta = AdamW(list(params), lr=lr)
    diverged = False
    for _ in range(int(outer)):
        for _ in range(int(inner_x)):
            loss = tt.add(tt.mse(forward_fn(x), target),
                          tt.scale(tt.mean_all(tt.mul(x, x)), UNSPLIT_L2_WEIGHT))
            if not np.isfinite(loss.data):
                diverged = True
                break
            opt_x.zero_grad()
            loss.backward()
            opt_x.step()
            np.clip(x.data, 0.0, 1.0, out=x.data)
        for _ in range(int(inner_theta)):
            loss = tt.mse(forward_fn(x), target)
            if not np.isfinite(loss.data):
                diverged = True
                break
            opt_theta.zero_grad()
            loss.backward()
            opt_theta.step()
        if diverged:
            break
    return x.data.copy(), diverged


# ---------------------------------------------------------------------------
# inverse networks


class InverseNet(Module):
    """Feature-to-image decoder mirroring the reference attack stack at toy
    scale (conv + nearest upsample + SiLU trunk, Sigmoid head). Both types
    process at the latent resolution before upsampling, which the
    disentangling needs at 8x8. The conv after each up-sample (after convs
    1 and 2) is a resize-conv (`Conv.after_upsample`), computed at its
    input's resolution."""

    def __init__(self, net_type: str, rng: RngState, in_ch: int = 4):
        if net_type not in ("type1_raw_image", "type2_condition"):
            raise ValueError(f"unknown inverse net type {net_type!r}")
        self.up_after = {1, 2}
        if net_type == "type1_raw_image":
            self.convs = [
                Conv(in_ch, 24, 3, rng.split("c0"), padding=1),
                Conv(24, 24, 3, rng.split("c1"), padding=1),
                Conv(24, 16, 3, rng.split("c2"), padding=1),
                Conv(16, 8, 3, rng.split("c3"), padding=1),
                Conv(8, 3, 3, rng.split("c4"), padding=1),
            ]
        else:
            self.convs = [
                Conv(in_ch, 32, 3, rng.split("c0"), padding=1),
                Conv(32, 32, 3, rng.split("c1"), padding=1),
                Conv(32, 16, 3, rng.split("c2"), padding=1),
                Conv(16, 3, 3, rng.split("c3"), padding=1),
            ]

    def __call__(self, feat: Tensor) -> Tensor:
        h = feat
        for i, conv in enumerate(self.convs):
            h = conv.after_upsample(h) if i - 1 in self.up_after else conv(h)
            if i < len(self.convs) - 1:
                h = tt.silu(h)
        return tt.sigmoid(h)


class FeatureScaler:
    """Per-channel standardization fitted on the attacker's own feature set.

    Unnormalized partition features have mixed scales that stall the inverse
    net's optimization; the attacker fixes that from public data alone.
    """

    def __init__(self, features: np.ndarray):
        self.mean = features.mean(axis=(0, 2, 3), keepdims=True).astype(np.float32)
        self.std = (features.std(axis=(0, 2, 3), keepdims=True) + 1e-6).astype(np.float32)

    def __call__(self, features: np.ndarray) -> np.ndarray:
        return ((features - self.mean) / self.std).astype(np.float32)


def train_inverse_network(features: np.ndarray, targets: np.ndarray, net: InverseNet,
                          rng: RngState, *, lr: float, iters: int, batch: int) -> list[float]:
    """Fit `net` feature -> image by MSE on attacker-generated pairs; returns
    the loss of every iteration."""
    if len(features) != len(targets):
        raise ValueError("features/targets length mismatch")
    opt = AdamW(list(net.named_parameters().values()), lr=lr)
    losses = []
    for _ in range(int(iters)):
        idx = np.asarray(rng.integers(0, len(features) - 1, (int(batch),)))
        pred = net(Tensor(features[idx]))
        loss = tt.mse(pred, Tensor(targets[idx]))
        if not np.isfinite(loss.data):
            raise FloatingPointError("inverse network training diverged")
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(loss.item())
    return losses
