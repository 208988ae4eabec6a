"""Comparison defenses applied at the client before transmission.

Raw-data defenses (add_raw, mixup, patch_shuffle) run on the image/condition
batch before encoding; feature defenses (ldp_gauss, ldp_rr) perturb the
transmitted activations. The proposed mechanisms are flags consumed by the
client step itself: a timestep floor, the noise-confounding activation, and
prompt hiding. Both hooks run in `protocol.client_packet`, which builds the
training packets and the evaluation packets the attacks score, so attack
comparisons are like-for-like. The batch-mixing kinds need several samples
per batch, so they can train but are not attack arms: an evaluation packet
holds one sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .privacy import gaussian_sigma, randomized_response
from .rng import RngState

KINDS = (
    "none", "ldp_gauss", "ldp_rr", "add_raw", "mixup", "patch_shuffle",
    "ours_t", "ours_c", "ours_plus_plus",
)
BATCH_MIXING = ("mixup", "patch_shuffle")  # need a batch of several samples
TIMESTEP_FLOOR = ("ours_c", "ours_plus_plus")  # floor t at t_s, with the confound activation


@dataclass
class DefenseConfig:
    kind: str = "none"
    epsilon: float = 0.3        # ldp_gauss / ldp_rr budget
    rr_bits: int = 8
    sigma2: float = 1.0         # add_raw variance on the 0..255 pixel scale
    mix_count: int = 4
    patch: int = 4
    t_s: int = 536              # timestep floor for ours_c / ours_plus_plus

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown defense kind {self.kind!r}, have {KINDS}")

    @property
    def uses_confound(self) -> bool:
        return self.kind in TIMESTEP_FLOOR

    @property
    def hides_prompt(self) -> bool:
        return self.kind in ("ours_t", "ours_plus_plus")

    @property
    def timestep_floor(self) -> int:
        return self.t_s if self.kind in TIMESTEP_FLOOR else 1


def ldp_gauss_features(feat: np.ndarray, epsilon: float, delta: float,
                       alpha_sens: float, rng: RngState) -> np.ndarray:
    """Calibrated Gaussian mechanism on an activation tensor."""
    sigma = gaussian_sigma(epsilon, delta, alpha_sens)
    return feat + np.float32(sigma) * rng.normal(feat.shape)


def add_raw_noise(image: np.ndarray, sigma2: float, rng: RngState) -> np.ndarray:
    """Gaussian pixel noise; sigma2 is specified on the 0..255 scale while
    images live in [0,1], so the applied std is sqrt(sigma2)/255."""
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    if sigma2 == 0:
        return image.copy()
    return image + np.float32(np.sqrt(sigma2) / 255.0) * rng.normal(image.shape)


def mixup_indices(batch_size: int, rng: RngState) -> np.ndarray:
    """Shared base permutation so paired tensors mix identically."""
    return rng.shuffle(batch_size)


def mixup_apply(batch: np.ndarray, perm: np.ndarray, mix_count: int) -> np.ndarray:
    b = batch.shape[0]
    if not 1 <= mix_count <= b:
        raise ValueError(f"mixup averages 1 to batch = {b} samples, not mix_count = {mix_count}")
    out = np.zeros_like(batch)
    w = np.float32(1.0 / mix_count)
    for j in range(mix_count):
        out += w * batch[perm[(np.arange(b) + j) % b]]
    return out


def patch_shuffle_perms(batch_size: int, h: int, w: int, patch: int, rng: RngState) -> np.ndarray:
    if patch < 1 or h % patch or w % patch:
        raise ValueError(f"spatial dims {h}x{w} not divisible by patch {patch}")
    th, tw = h // patch, w // patch
    perms = np.empty((th, tw, batch_size), dtype=np.int64)
    for i in range(th):
        for j in range(tw):
            perms[i, j] = rng.shuffle(batch_size)
    return perms


def patch_shuffle_apply(batch: np.ndarray, perms: np.ndarray, patch: int) -> np.ndarray:
    out = np.empty_like(batch)
    th, tw = perms.shape[:2]
    for i in range(th):
        for j in range(tw):
            tile = np.s_[:, :, i * patch : (i + 1) * patch, j * patch : (j + 1) * patch]
            out[tile] = batch[tile][perms[i, j]]
    return out


def preprocess_batch(images: np.ndarray, conds: np.ndarray, cfg: DefenseConfig,
                     rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Raw-data defenses; images and conditions transform in lockstep."""
    if cfg.kind == "add_raw":
        return (add_raw_noise(images, cfg.sigma2, rng),
                add_raw_noise(conds, cfg.sigma2, rng))
    if cfg.kind == "mixup":
        perm = mixup_indices(images.shape[0], rng)
        return (mixup_apply(images, perm, cfg.mix_count),
                mixup_apply(conds, perm, cfg.mix_count))
    if cfg.kind == "patch_shuffle":
        b, _, h, w = images.shape
        perms = patch_shuffle_perms(b, h, w, cfg.patch, rng)
        return (patch_shuffle_apply(images, perms, cfg.patch),
                patch_shuffle_apply(conds, perms, cfg.patch))
    return images, conds


def postprocess_features(feat_unet: np.ndarray, feat_control: np.ndarray,
                         cfg: DefenseConfig, delta: float, alpha_sens: float,
                         rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Feature defenses, applied to both transmitted activations."""
    if cfg.kind == "ldp_gauss":
        return (ldp_gauss_features(feat_unet, cfg.epsilon, delta, alpha_sens, rng),
                ldp_gauss_features(feat_control, cfg.epsilon, delta, alpha_sens, rng))
    if cfg.kind == "ldp_rr":
        return (randomized_response(feat_unet, cfg.epsilon, cfg.rr_bits, rng),
                randomized_response(feat_control, cfg.epsilon, cfg.rr_bits, rng))
    return feat_unet, feat_control
