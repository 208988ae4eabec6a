"""Defense kinds, and the comparison defenses applied at the client before transmission.

A kind is the mechanisms it runs, written once in the `KINDS` table; other
modules ask `DefenseConfig.runs`, never a kind's name. The proposed three
run in the client step itself: a timestep floor, the noise-confounding
activation and prompt hiding. The raw-data defense (add_raw) runs on the
image/condition batch before encoding; feature defenses (ldp_gauss, ldp_rr)
perturb the transmitted activations. Both hooks run in
`protocol.client_packet`, which builds the training packets and the
evaluation packets the attacks score, so attack comparisons are
like-for-like. Every defense acts on each sample alone, so every kind is an
attack arm: an evaluation packet holds one sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .privacy import gaussian_sigma, randomized_response
from .rng import RngState

# each kind -> the mechanisms it runs: of the proposed "floor", "confound" and "prompt",
# and at most one comparison defense
KINDS = {"none": (), "ldp_gauss": ("ldp_gauss",), "ldp_rr": ("ldp_rr",), "add_raw": ("add_raw",),
         "ours_t": ("prompt",), "ours_c": ("floor", "confound"),
         "ours_plus_plus": ("floor", "confound", "prompt")}


@dataclass
class DefenseConfig:
    kind: str = "none"
    # the ldp_gauss budget; ldp_rr's is per bit (privacy.randomized_response),
    # so a value's budget is rr_bits * epsilon
    epsilon: float = 0.3
    rr_bits: int = 8
    sigma2: float = 1.0         # add_raw variance on the 0..255 pixel scale
    t_s: int = 536              # timestep floor of a kind that runs "floor" in KINDS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown defense kind {self.kind!r}, have {tuple(KINDS)}")

    def runs(self, mechanism: str) -> bool:
        return mechanism in KINDS[self.kind]


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


def preprocess_batch(images: np.ndarray, conds: np.ndarray, cfg: DefenseConfig,
                     rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """The raw-data defense; images, then conditions, draw from `rng`."""
    if cfg.runs("add_raw"):
        return (add_raw_noise(images, cfg.sigma2, rng),
                add_raw_noise(conds, cfg.sigma2, rng))
    return images, conds


def postprocess_features(feat_unet: np.ndarray, feat_control: np.ndarray,
                         cfg: DefenseConfig, delta: float, alpha_sens: float,
                         rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Feature defenses, applied to both transmitted activations."""
    if cfg.runs("ldp_gauss"):
        return (ldp_gauss_features(feat_unet, cfg.epsilon, delta, alpha_sens, rng),
                ldp_gauss_features(feat_control, cfg.epsilon, delta, alpha_sens, rng))
    if cfg.runs("ldp_rr"):
        return (randomized_response(feat_unet, cfg.epsilon, cfg.rr_bits, rng),
                randomized_response(feat_control, cfg.epsilon, cfg.rr_bits, rng))
    return feat_unet, feat_control
