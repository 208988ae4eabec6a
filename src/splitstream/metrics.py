"""Reconstruction scoring: PSNR and windowed SSIM on 0..255 pixel values.

Lower scores against the private ground truth mean a defense worked.
SSIM uses flat 8x8 windows with stride 4 and the conventional stabilizers
C1=(0.01*255)^2, C2=(0.03*255)^2, C3=C2/2, multiplying the luminance,
contrast, and structure terms per window and averaging over windows and
channels.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PEAK = 255.0
C1 = (0.01 * PEAK) ** 2
C2 = (0.03 * PEAK) ** 2
C3 = C2 / 2.0


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(255^2 / MSE); identical images return +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    err = np.mean((a - b) ** 2)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / err)


def _windows(x: np.ndarray, win: int, stride: int) -> np.ndarray:
    """Every stride-th win x win window of (C,H,W) x, as one contiguous
    (C, nh, nw, win*win) array: a reduction over its last axis sums each
    window in the same order as reducing the window on its own."""
    v = sliding_window_view(x, (win, win), axis=(1, 2))[:, ::stride, ::stride]
    return v.reshape(*v.shape[:3], win * win)


def _squares(m: np.ndarray) -> np.ndarray:
    # Python float ** goes through C pow, as the scalar per-window formula did;
    # m*m and np.power round differently in the last bit for some values
    return np.array([x**2 for x in m.ravel().tolist()]).reshape(m.shape)


def ssim(a: np.ndarray, b: np.ndarray, win: int = 8, stride: int = 4) -> float:
    """Mean local SSIM over channels and sliding windows."""
    if win < 1 or stride < 1:
        raise ValueError(f"ssim: win and stride must be >= 1, got win={win}, stride={stride}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    if a.ndim != 3:
        raise ValueError(f"ssim: expected (C,H,W) or (H,W), got {a.shape}")
    if a.shape[-1] < win or a.shape[-2] < win:
        raise ValueError(f"ssim: image {a.shape} smaller than window {win}")
    wa = _windows(a, win, stride)
    wb = _windows(b, win, stride)
    mu_a = wa.mean(axis=-1)
    mu_b = wb.mean(axis=-1)
    var_a = wa.var(axis=-1)
    var_b = wb.var(axis=-1)
    cov = ((wa - mu_a[..., None]) * (wb - mu_b[..., None])).mean(axis=-1)
    sd_a = np.sqrt(var_a)
    sd_b = np.sqrt(var_b)
    lum = (2 * mu_a * mu_b + C1) / (_squares(mu_a) + _squares(mu_b) + C1)
    con = (2 * sd_a * sd_b + C2) / (var_a + var_b + C2)
    struct = (cov + C3) / (sd_a * sd_b + C3)
    return float((lum * con * struct).mean())
