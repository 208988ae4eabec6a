"""Local differential privacy calibration for diffusion timestep sampling.

The per-step forward process adds noise of variance beta_t/(1-beta_t) to
the latent, which is exactly a Gaussian mechanism whose budget follows from
the schedule:

    epsilon(t) = sqrt(H * (1/(k*t + beta0) - 1)),   H = 2*ln(1.25/delta)*alpha^2

so a minimum sampled timestep t_s is equivalent to a worst-case budget
epsilon_s = epsilon(t_s). The randomized-response mechanism here is the
baseline defense, not part of that calibration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule
from .rng import RngState
from .tensor import Tensor


class CalibrationError(ValueError):
    """A calibration argument out of range; `param` names the argument at
    fault, when one is."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


def hyperparameter(delta: float, alpha_sens: float) -> float:
    """H = 2 ln(1.25/delta) alpha^2, the variance scale of the mechanism."""
    if not 0.0 < delta < 1.0:
        raise CalibrationError(f"delta must be in (0,1), got {delta}", "delta")
    if alpha_sens <= 0:
        raise CalibrationError(f"sensitivity must be > 0, got {alpha_sens}", "alpha_sens")
    return 2.0 * math.log(1.25 / delta) * alpha_sens * alpha_sens


def gaussian_sigma(epsilon: float, delta: float, alpha_sens: float) -> float:
    """Std of the Gaussian calibrated for an (epsilon, delta) guarantee."""
    if epsilon <= 0:
        raise CalibrationError(f"epsilon must be > 0, got {epsilon}", "epsilon")
    return math.sqrt(hyperparameter(delta, alpha_sens)) / epsilon


def epsilon_for_timestep(t: int, sched: NoiseSchedule, delta: float, alpha_sens: float) -> float:
    """Worst-case budget spent when the forward process runs to timestep t."""
    t = sched.check_t(t)
    beta = float(sched.beta[t])
    if not 0.0 < beta < 1.0:
        raise CalibrationError(f"beta_{t} = {beta:.6g} outside (0,1)")
    return math.sqrt(hyperparameter(delta, alpha_sens) * (1.0 / beta - 1.0))


def timestep_for_epsilon(epsilon: float, sched: NoiseSchedule, delta: float, alpha_sens: float) -> int:
    """Smallest t whose budget epsilon(t) is within the requested epsilon."""
    if epsilon <= 0:
        raise CalibrationError(f"epsilon must be > 0, got {epsilon}")
    eps_top = epsilon_for_timestep(0, sched, delta, alpha_sens)
    eps_floor = epsilon_for_timestep(sched.T, sched, delta, alpha_sens)
    if epsilon < eps_floor:
        raise CalibrationError(
            f"epsilon {epsilon:.4g} unachievable: schedule floor is {eps_floor:.4g} at t={sched.T}"
        )
    if epsilon > eps_top:
        warnings.warn(
            f"requested epsilon {epsilon:.4g} exceeds epsilon(0) = {eps_top:.4g}; "
            "no timestep floor is needed for that budget",
            stacklevel=2,
        )
        return 0
    if sched.k == 0.0:
        return 0
    h = hyperparameter(delta, alpha_sens)
    beta_target = h / (h + epsilon * epsilon)
    t = math.ceil((beta_target - sched.beta0) / sched.k)
    t = min(max(t, 0), sched.T)
    # closed form can be off by one step at fp boundaries; settle against the forward map
    while t < sched.T and epsilon_for_timestep(t, sched, delta, alpha_sens) > epsilon:
        t += 1
    while t > 0 and epsilon_for_timestep(t - 1, sched, delta, alpha_sens) <= epsilon:
        t -= 1
    return t


@dataclass(frozen=True)
class PrivacyParams:
    """Calibration state binding a budget to a timestep sampling range."""

    epsilon: float
    delta: float
    alpha_sens: float
    t_s: int
    t_max: int

    def __post_init__(self):
        if not 0 <= self.t_s <= self.t_max:
            raise CalibrationError(f"invalid timestep range [{self.t_s}, {self.t_max}]", "t_max")

    @property
    def H(self) -> float:
        return hyperparameter(self.delta, self.alpha_sens)

    @classmethod
    def from_ts(cls, sched: NoiseSchedule, delta: float, alpha_sens: float,
                t_s: int, t_max: int | None = None) -> "PrivacyParams":
        t_max = sched.T if t_max is None else sched.check_t(t_max, "t_max")
        return cls(
            epsilon=epsilon_for_timestep(sched.check_t(t_s, "t_s"), sched, delta, alpha_sens),
            delta=delta, alpha_sens=alpha_sens, t_s=int(t_s), t_max=int(t_max),
        )


def sample_private_timestep(params: PrivacyParams, rng: RngState) -> int:
    """Uniform draw from [t_s, t_max]; every draw spends at most epsilon(t_s)."""
    if params.t_s > params.t_max:
        raise CalibrationError(f"empty timestep range [{params.t_s}, {params.t_max}]")
    return int(rng.integers(params.t_s, params.t_max))


def estimate_sensitivity(latents, clip_norm: float | None = None) -> float:
    """Max pairwise L2 distance over a set of latents, optionally norm-clipped."""
    arrs = [np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64).ravel()
            for x in latents]
    if not arrs:
        raise ValueError("estimate_sensitivity: empty latent set")
    dim = arrs[0].size
    if any(a.size != dim for a in arrs):
        raise ValueError("estimate_sensitivity: inconsistent latent shapes")
    stack = np.stack(arrs)
    if clip_norm is not None:
        norms = np.sqrt(np.sum(stack * stack, axis=1))
        factor = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-12))
        stack = stack * factor[:, None]
    best = 0.0
    for i in range(len(stack) - 1):
        d = np.sqrt(np.sum((stack[i + 1 :] - stack[i]) ** 2, axis=1))
        m = float(d.max())
        if m > best:
            best = m
    return best


def randomized_response(features, epsilon: float, bits: int, rng: RngState):
    """Bit-flipping LDP baseline: quantize, flip each bit, dequantize.

    Each bit is kept with prob e^eps/(1+e^eps), i.e. flipped with prob
    1/(1+e^eps), which is eps-LDP per bit.
    """
    if not 1 <= bits <= 16:
        raise CalibrationError(f"bits must be in [1,16], got {bits}", "bits")
    if epsilon <= 0:
        raise CalibrationError(f"epsilon must be > 0, got {epsilon}", "epsilon")
    was_tensor = isinstance(features, Tensor)
    x = features.data if was_tensor else np.asarray(features, dtype=np.float32)
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        warnings.warn("randomized_response: degenerate (constant) range, returning input", stacklevel=2)
        out = x.copy()
        return Tensor(out) if was_tensor else out
    levels = (1 << bits) - 1
    q = np.rint((x - lo) / (hi - lo) * levels).astype(np.uint32)
    p_flip = flip_probability(epsilon)
    flips = rng.uniform(x.shape + (bits,)) < p_flip
    for b in range(bits):
        q ^= flips[..., b].astype(np.uint32) << b
    out = (lo + q.astype(np.float32) / levels * (hi - lo)).astype(np.float32)
    return Tensor(out) if was_tensor else out


def flip_probability(epsilon: float) -> float:
    if epsilon > 700.0:  # exp overflow guard; flip prob is 0 to fp precision
        return 0.0
    return 1.0 / (1.0 + math.exp(epsilon))


def solve_slope_for_budget(epsilon: float, t_s: int, beta0: float,
                           delta: float, alpha_sens: float) -> float:
    """Schedule slope k making epsilon(t_s) equal the requested budget.

    This is the budget-ablation knob that varies k at fixed beta0. Note the
    result can push beta past 1 before t = 1000 for small budgets; the
    schedule constructor enforces validity, so pick T accordingly.
    """
    if t_s < 1:
        raise CalibrationError("t_s must be >= 1 to solve for the slope")
    h = hyperparameter(delta, alpha_sens)
    beta_ts = h / (h + epsilon * epsilon)
    k = (beta_ts - beta0) / t_s
    if k < 0:
        raise CalibrationError(
            f"budget {epsilon:.4g} at t_s={t_s} needs beta below beta0={beta0:.4g}"
        )
    return k


def solve_intercept_for_budget(epsilon: float, t_s: int, k: float,
                               delta: float, alpha_sens: float) -> float:
    """Schedule intercept beta0 making epsilon(t_s) equal the requested budget
    (the ablation knob that varies beta0 at fixed k)."""
    h = hyperparameter(delta, alpha_sens)
    beta0 = h / (h + epsilon * epsilon) - k * t_s
    if beta0 <= 0:
        raise CalibrationError(
            f"budget {epsilon:.4g} at t_s={t_s} unreachable by intercept at k={k:.4g}"
        )
    return beta0

