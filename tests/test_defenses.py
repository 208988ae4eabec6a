"""Comparison defenses: calibration, conservation laws, hook plumbing."""

import numpy as np
import pytest

from splitstream.defenses import (DefenseConfig, add_raw_noise, ldp_gauss_features,
                                  mixup_apply, mixup_indices, patch_shuffle_apply,
                                  patch_shuffle_perms, postprocess_features,
                                  preprocess_batch)
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


class TestMixup:
    def test_mix_count_one_is_permutation(self):
        rng = RngState(8)
        batch = rng.normal((6, 3, 4, 4))
        perm = mixup_indices(6, RngState(9))
        out = mixup_apply(batch, perm, 1)
        assert np.array_equal(out, batch[perm])

    def test_identical_members_fixed_point(self):
        one = RngState(10).normal((3, 4, 4))
        batch = np.broadcast_to(one, (5, 3, 4, 4)).copy()
        out = mixup_apply(batch, mixup_indices(5, RngState(11)), 4)
        assert np.abs(out - one).max() < 1e-6

    def test_batch_mean_preserved(self):
        rng = RngState(12)
        batch = rng.normal((8, 3, 8, 8))
        out = mixup_apply(batch, mixup_indices(8, RngState(13)), 4)
        assert np.abs(out.mean(axis=0) - batch.mean(axis=0)).max() < 1e-5

    def test_coefficients_sum_to_one(self):
        # constant-one batch stays exactly one if coefficients sum to 1
        batch = np.ones((4, 1, 2, 2), dtype=np.float32)
        out = mixup_apply(batch, mixup_indices(4, RngState(14)), 4)
        assert np.abs(out - 1.0).max() < 1e-6

    def test_too_small_batch(self):
        with pytest.raises(ValueError, match="batch"):
            mixup_apply(np.ones((2, 1, 2, 2)), mixup_indices(2, RngState(15)), 4)


class TestPatchShuffle:
    def test_single_sample_identity(self):
        x = RngState(16).normal((1, 3, 8, 8))
        perms = patch_shuffle_perms(1, 8, 8, 4, RngState(17))
        assert np.array_equal(patch_shuffle_apply(x, perms, 4), x)

    def test_tile_multiset_preserved(self):
        rng = RngState(18)
        x = rng.normal((4, 2, 8, 8))
        out = patch_shuffle_apply(x, patch_shuffle_perms(4, 8, 8, 4, RngState(19)), 4)
        def tiles(arr):
            t = []
            for b in range(4):
                for i in range(2):
                    for j in range(2):
                        t.append(arr[b, :, i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4].tobytes())
            return sorted(t)
        assert tiles(out) == tiles(x)

    def test_known_permutation_roundtrip(self):
        rng = RngState(20)
        x = rng.normal((5, 3, 8, 8))
        perms = patch_shuffle_perms(5, 8, 8, 4, RngState(21))
        inv = np.empty_like(perms)
        for i in range(perms.shape[0]):
            for j in range(perms.shape[1]):
                inv[i, j] = np.argsort(perms[i, j])
        back = patch_shuffle_apply(patch_shuffle_apply(x, perms, 4), inv, 4)
        assert np.array_equal(back, x)

    def test_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            patch_shuffle_perms(2, 10, 10, 4, RngState(22))


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
        rng = RngState(23)
        imgs = rng.normal((4, 3, 8, 8))
        conds = imgs.copy()  # identical inputs shuffle identically
        for kind in ("mixup", "patch_shuffle"):
            cfg = DefenseConfig(kind, patch=4)
            oi, oc = preprocess_batch(imgs, conds, cfg, RngState(24))
            assert np.array_equal(oi, oc)

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
