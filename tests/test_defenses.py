"""Comparison defenses: calibration, conservation laws, hook plumbing."""

import numpy as np
import pytest

from splitstream.defenses import (DefenseConfig, add_raw_noise, ldp_gauss_features,
                                  postprocess_features, preprocess_batch)
from splitstream.metrics import psnr
from splitstream.rng import RngState

DELTA, ALPHA = 1e-4, 0.16


class TestLdpGauss:
    def test_huge_epsilon_is_near_identity(self):
        rng = RngState(1)
        x = rng.normal((1000,))
        out = ldp_gauss_features(x, 1e6, DELTA, ALPHA, rng)
        assert np.abs(out - x).max() < 1e-3

    def test_sigma_squared_at_eps_point_one(self):
        from splitstream.privacy import gaussian_sigma

        assert abs(gaussian_sigma(0.1, DELTA, ALPHA) ** 2 - 48.30) < 0.01

    def test_empirical_variance(self):
        rng = RngState(2)
        x = np.zeros(100_000, dtype=np.float32)
        out = ldp_gauss_features(x, 0.5, DELTA, ALPHA, rng)
        from splitstream.privacy import gaussian_sigma

        want = gaussian_sigma(0.5, DELTA, ALPHA) ** 2
        assert abs(out.var() - want) / want < 0.05


class TestAddRaw:
    def test_zero_sigma_identity(self):
        x = RngState(3).uniform((3, 8, 8))
        assert np.array_equal(add_raw_noise(x, 0.0, RngState(4)), x)

    def test_empirical_variance_on_pixel_scale(self):
        rng = RngState(5)
        x = np.zeros((100, 3, 32, 32), dtype=np.float32)
        out = add_raw_noise(x, 1.0, rng)
        # sigma2 = 1 on the 0..255 scale
        assert abs((out * 255).var() - 1.0) < 0.05

    def test_sigma2_50_psnr_closed_form(self):
        rng = RngState(6)
        x = RngState(7).uniform((3, 128, 128)) * 0.6 + 0.2
        out = add_raw_noise(x, 50.0, rng)
        # PSNR(in,out) = 10*log10(255^2/50) = 31.14 dB
        got = psnr(x * 255, out * 255)
        assert abs(got - 31.14) < 0.3


class TestConfigAndHooks:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            DefenseConfig(kind="shredder")

    def test_flags(self):
        assert DefenseConfig("ours_plus_plus").uses_confound
        assert DefenseConfig("ours_plus_plus").hides_prompt
        assert DefenseConfig("ours_c").uses_confound
        assert not DefenseConfig("ours_c").hides_prompt
        assert DefenseConfig("ours_t").hides_prompt
        assert not DefenseConfig("ours_t").uses_confound
        assert DefenseConfig("ours_c", t_s=536).timestep_floor == 536
        assert DefenseConfig("ldp_gauss", t_s=536).timestep_floor == 1

    def test_preprocess_lockstep(self):
        # add_raw noises the images, then the conditions, from the one stream
        rng = RngState(23)
        imgs, conds = rng.normal((4, 3, 8, 8)), rng.normal((4, 3, 8, 8))
        oi, oc = preprocess_batch(imgs, conds, DefenseConfig("add_raw", sigma2=50.0),
                                  RngState(24))
        want = RngState(24)
        assert np.array_equal(oi, add_raw_noise(imgs, 50.0, want))
        assert np.array_equal(oc, add_raw_noise(conds, 50.0, want))

    def test_none_is_passthrough(self):
        rng = RngState(25)
        imgs, conds = rng.normal((2, 3, 8, 8)), rng.normal((2, 3, 8, 8))
        oi, oc = preprocess_batch(imgs, conds, DefenseConfig("none"), RngState(26))
        assert oi is imgs and oc is conds
        fu, fc = rng.normal((2, 4, 8, 8)), rng.normal((2, 4, 8, 8))
        ou, oc2 = postprocess_features(fu, fc, DefenseConfig("none"), DELTA, ALPHA, RngState(27))
        assert ou is fu and oc2 is fc

    def test_feature_hooks_perturb_both(self):
        rng = RngState(28)
        fu, fc = rng.normal((2, 4, 8, 8)), rng.normal((2, 4, 8, 8))
        for kind in ("ldp_gauss", "ldp_rr"):
            cfg = DefenseConfig(kind, epsilon=0.5)
            ou, oc = postprocess_features(fu, fc, cfg, DELTA, ALPHA, RngState(29))
            assert not np.array_equal(ou, fu)
            assert not np.array_equal(oc, fc)
