"""Noise schedules, forward diffusion, sampling, and the denoising loss.

The forward process exists in two readings that differ in their noise
coefficient at timestep t:

    per_step:   z_t = sqrt(1 - beta_t) z0 + sqrt(beta_t) n_hat
    cumulative: z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) n_hat

The per-step form is what the privacy calibration is derived from; the
cumulative form is the standard trainable process. Both are implemented
behind the `variant` flag. abar_0 is defined as 1 so the final sampling
step is well-posed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .rng import RngState
from .tensor import Tensor, mse

VARIANTS = ("per_step", "cumulative")


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear variance schedule beta_t = k*t + beta0 on t in [0, T]."""

    T: int
    k: float
    beta0: float
    beta: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)

    def coeff(self, t: int, variant: str) -> float:
        """Signal coefficient A_t for the chosen variant (abar_t or 1-beta_t)."""
        if variant == "cumulative":
            return float(self.alpha_bar[t])
        if variant == "per_step":
            return float(self.alpha[t])
        raise ValueError(f"unknown variant {variant!r}")

    def check_t(self, t: int) -> int:
        t = int(t)
        if not 0 <= t <= self.T:
            raise ScheduleError(f"timestep {t} outside [0, {self.T}]")
        return t


def make_linear_schedule(T: int, k: float, beta0: float, lam: float = 0.0) -> NoiseSchedule:
    if T < 1:
        raise ScheduleError(f"T must be >= 1, got {T}")
    if beta0 <= 0:
        raise ScheduleError(f"beta0 must be > 0, got {beta0}")
    if k < 0:
        raise ScheduleError(f"slope k must be >= 0, got {k}")
    if lam < 0:
        raise ScheduleError(f"noise coefficient must be >= 0, got {lam}")
    t = np.arange(T + 1, dtype=np.float64)
    beta = k * t + beta0
    if beta[-1] >= 1.0:
        raise ScheduleError(f"schedule leaves (0,1): beta[{T}] = {beta[-1]:.6g}")
    alpha = 1.0 - beta
    # abar_0 := 1; the cumulative product starts at t = 1
    alpha_bar = np.empty(T + 1, dtype=np.float64)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = np.cumprod(alpha[1:])
    return NoiseSchedule(
        T=T, k=float(k), beta0=float(beta0),
        beta=beta, alpha=alpha, alpha_bar=alpha_bar,
        lam=np.full(T + 1, float(lam)),
    )


@dataclass
class LatentState:
    """One noising event: the noisy latent and the noise drawn for it."""

    zt: np.ndarray
    n_hat: np.ndarray


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)


def forward_diffuse(
    z0, t: int, sched: NoiseSchedule, rng: RngState, variant: str = "cumulative"
) -> LatentState:
    """Draw n_hat ~ N(0,1) and produce the noisy latent for timestep t."""
    t = sched.check_t(t)
    z0 = _data(z0)
    n_hat = rng.normal(z0.shape)
    a = sched.coeff(t, variant)
    zt = np.float32(np.sqrt(a)) * z0 + np.float32(np.sqrt(1.0 - a)) * n_hat
    return LatentState(zt=zt, n_hat=n_hat)


def predict_x0(zt, n, t: int, sched: NoiseSchedule, variant: str = "cumulative"):
    """Invert the forward map: estimate z0 from (z_t, noise estimate)."""
    t = sched.check_t(t)
    a = sched.coeff(t, variant)
    zt_d, n_d = _data(zt), _data(n)
    if zt_d.shape != n_d.shape:
        raise ValueError(f"predict_x0: shape mismatch {zt_d.shape} vs {n_d.shape}")
    return (zt_d - np.float32(np.sqrt(1.0 - a)) * n_d) / np.float32(np.sqrt(a))


def sample_step(
    zt, n, t: int, sched: NoiseSchedule, rng: RngState, variant: str = "cumulative"
) -> np.ndarray:
    """One reverse step z_t -> z_{t-1} given the noise estimate n."""
    t = sched.check_t(t)
    if t < 1:
        raise ScheduleError("sample_step needs t >= 1")
    x0 = predict_x0(zt, n, t, sched, variant)
    a_prev = sched.coeff(t - 1, variant)
    lam = float(sched.lam[t])
    resid = 1.0 - a_prev - lam * lam
    if resid < 0:
        raise ScheduleError(
            f"sample_step: 1 - A_{t-1} - lambda^2 = {resid:.3g} < 0 (lambda too large)"
        )
    z_prev = np.float32(np.sqrt(a_prev)) * x0 + np.float32(np.sqrt(resid)) * _data(n)
    if lam > 0:
        z_prev = z_prev + np.float32(lam) * rng.normal(z_prev.shape)
    return z_prev


def training_loss(n_hat, n_pred) -> Tensor:
    """Mean squared error between the injected and the estimated noise."""
    a = n_hat if isinstance(n_hat, Tensor) else Tensor(n_hat)
    b = n_pred if isinstance(n_pred, Tensor) else Tensor(n_pred)
    return mse(a, b)


def write_schedule_csv(sched: NoiseSchedule, file, epsilon_fn=None) -> None:
    """Dump t, beta, alpha, alpha_bar (and epsilon(t) if a mapping is given)."""
    w = csv.writer(file)
    w.writerow(["t", "beta", "alpha", "alpha_bar", "epsilon"])
    for t in range(sched.T + 1):
        eps = f"{epsilon_fn(t):.6g}" if epsilon_fn is not None else ""
        w.writerow([t, f"{sched.beta[t]:.10g}", f"{sched.alpha[t]:.10g}",
                    f"{sched.alpha_bar[t]:.10g}", eps])
