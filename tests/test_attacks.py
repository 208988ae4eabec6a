"""Attack harness: sanity oracles on toy clients, degradation orderings,
inverse-network training."""

import numpy as np
import pytest

from splitstream import tensor as tt
from splitstream.attacks import (FeatureScaler, InverseNet, ReconstructionReport,
                                 apply_inverse_net, train_inverse_network, unsplit_attack,
                                 whitebox_gd_attack)
from splitstream.metrics import psnr, ssim
from splitstream.models import NoiseConfoundingActivation, noise_confound
from splitstream.rng import RngState
from splitstream.tensor import Tensor


def scale_aligned_psnr(recon, truth):
    """PSNR after least-squares scale alignment (recovery up to scale)."""
    a = recon.astype(np.float64).ravel()
    b = truth.astype(np.float64).ravel()
    alpha = float(a @ b / max(a @ a, 1e-12))
    return psnr(np.clip(alpha * recon, 0, 1) * 255, truth * 255)


class TestUnsplit:
    def setup_method(self):
        self.rng = RngState(600)
        self.x_true = self.rng.uniform((1, 1, 8, 8)) * 0.8 + 0.1

    def _linear_client(self, w=0.8):
        weight = Tensor(np.full((1, 1, 1, 1), w, dtype=np.float32))
        return lambda x: tt.conv2d(x, weight)

    def _make_guess(self, rng):
        weight = Tensor(rng.normal((1, 1, 1, 1)) * 0.3 + 0.5, requires_grad=True)
        return (lambda x: tt.conv2d(x, weight)), [weight]

    def test_linear_client_recovered_up_to_scale(self):
        target = self._linear_client()(Tensor(self.x_true)).data
        rep = unsplit_attack(target, self._make_guess, self.x_true.shape,
                             {"outer": 25, "inner_x": 40, "inner_theta": 40,
                              "lr": 2e-2, "l2_weight": 1e-6},
                             RngState(601))
        assert not rep.diverged
        assert scale_aligned_psnr(rep.recons, self.x_true) > 30

    def test_dropout_target_degrades_recovery(self):
        clean = self._linear_client()(Tensor(self.x_true)).data
        dropped = self._linear_client()(
            tt.dropout(Tensor(self.x_true), 0.3, RngState(602), training=True)).data
        cfg = {"outer": 25, "inner_x": 40, "inner_theta": 40, "lr": 2e-2,
               "l2_weight": 1e-6}
        rep_clean = unsplit_attack(clean, self._make_guess, self.x_true.shape,
                                   cfg, RngState(603))
        rep_drop = unsplit_attack(dropped, self._make_guess, self.x_true.shape,
                                  cfg, RngState(603))
        a = scale_aligned_psnr(rep_clean.recons, self.x_true)
        b = scale_aligned_psnr(rep_drop.recons, self.x_true)
        assert b < a

    def test_zero_target_converges_to_null_set(self):
        def make_nonneg(rng):
            weight = Tensor(rng.normal((1, 1, 1, 1)) * 0.3 + 1.0, requires_grad=True)
            return (lambda x: tt.relu(tt.conv2d(x, weight))), [weight]

        target = np.zeros((1, 1, 8, 8), dtype=np.float32)
        rep = unsplit_attack(target, make_nonneg, (1, 1, 8, 8),
                             {"outer": 10, "inner_x": 50, "inner_theta": 10,
                              "lr": 5e-2, "l2_weight": 1e-6},
                             RngState(604))
        fwd, params = make_nonneg(RngState(604).split("model"))
        # the converged input maps (under its own converged model) to ~zero;
        # verify via a fresh forward of the attack's reconstruction through a
        # nonnegative model fitted to zero output: feature mse must be tiny
        feat = tt.relu(tt.conv2d(Tensor(rep.recons), Tensor(np.ones((1, 1, 1, 1), np.float32))))
        assert float(np.mean(feat.data**2)) < 1e-4 or rep.recons.max() < 1e-2


class TestWhitebox:
    def test_invertible_client_near_perfect(self):
        rng = RngState(610)
        x_true = rng.uniform((1, 3, 16, 16))
        w = Tensor(np.full((3, 3, 1, 1), 0.0, dtype=np.float32))
        for c in range(3):
            w.data[c, c, 0, 0] = 0.9
        target = tt.conv2d(Tensor(x_true), w).data

        rep = whitebox_gd_attack(target, lambda x: tt.conv2d(x, w), x_true.shape,
                                 {"iters": 400, "lr": 0.05}, RngState(611),
                                 ground_truth=x_true)
        assert rep.ssim[0] > 0.9

    def test_dropout_at_attack_time_degrades(self):
        rng = RngState(612)
        x_true = rng.uniform((1, 3, 16, 16))
        w = Tensor(np.full((3, 3, 1, 1), 0.0, dtype=np.float32))
        for c in range(3):
            w.data[c, c, 0, 0] = 0.9
        clean = tt.conv2d(Tensor(x_true), w).data
        noisy = tt.conv2d(tt.dropout(Tensor(x_true), 0.3, RngState(613), training=True), w).data
        cfg = {"iters": 300, "lr": 0.05}
        rep_clean = whitebox_gd_attack(clean, lambda x: tt.conv2d(x, w),
                                       x_true.shape, cfg, RngState(614), x_true)
        rep_noisy = whitebox_gd_attack(noisy, lambda x: tt.conv2d(x, w),
                                       x_true.shape, cfg, RngState(614), x_true)
        assert rep_noisy.ssim[0] < rep_clean.ssim[0]

    def test_confound_defense_drops_ssim(self):
        # feature-space mirror of the defended arm: secret offset unknown to
        # the attacker model
        rng = RngState(615)
        x_true = rng.uniform((1, 3, 16, 16))
        w = Tensor(rng.normal((4, 3, 3, 3)) * 0.4)
        act_secret = NoiseConfoundingActivation(delta=rng.normal((4, 14, 14)))
        act_guess = NoiseConfoundingActivation(delta=np.zeros((4, 14, 14), np.float32))

        plain = tt.conv2d(Tensor(x_true), w).data
        defended = noise_confound(tt.conv2d(Tensor(x_true), w), act_secret).data

        cfg = {"iters": 400, "lr": 0.05}
        rep_plain = whitebox_gd_attack(plain, lambda x: tt.conv2d(x, w),
                                       x_true.shape, cfg, RngState(616), x_true)
        rep_def = whitebox_gd_attack(
            defended, lambda x: noise_confound(tt.conv2d(x, w), act_guess),
            x_true.shape, cfg, RngState(616), x_true)
        assert rep_def.ssim[0] <= rep_plain.ssim[0] - 0.1

    def test_divergence_flagged(self):
        target = np.ones((1, 1, 4, 4), dtype=np.float32)

        def explode(x):
            return tt.scale(x, float("nan"))

        rep = whitebox_gd_attack(target, explode, (1, 1, 4, 4),
                                 {"iters": 5, "lr": 0.1}, RngState(617))
        assert rep.diverged


class TestInverseNet:
    def test_upsample_identity_task_sanity(self):
        # features that already contain the target (modulo the fixed 4x
        # upsampling) must be learnable to tiny loss
        rng = RngState(620)
        feats = rng.uniform((64, 3, 8, 8)) * 0.6 + 0.2
        targets = feats.repeat(4, axis=2).repeat(4, axis=3)
        net = InverseNet("type2_condition", RngState(621), in_ch=3)
        net, losses = train_inverse_network(feats, targets, net,
                                            {"lr": 1e-2, "iters": 600, "batch": 8},
                                            RngState(622))
        assert losses[-1] < 1e-3

    def test_output_bounded_and_shaped(self):
        net = InverseNet("type1_raw_image", RngState(623), in_ch=4)
        out = net(Tensor(RngState(624).normal((2, 4, 8, 8)) * 5))
        assert out.shape == (2, 3, 32, 32)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="type"):
            InverseNet("type3", RngState(625))

    def test_mismatched_lengths(self):
        net = InverseNet("type2_condition", RngState(626))
        with pytest.raises(ValueError, match="length"):
            train_inverse_network(np.zeros((4, 4, 8, 8)), np.zeros((5, 3, 32, 32)),
                                  net, None, RngState(627))

    def test_feature_scaler(self):
        rng = RngState(628)
        feats = rng.normal((32, 6, 8, 8)) * 40 + 3
        scaler = FeatureScaler(feats)
        out = scaler(feats)
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-4
        assert np.abs(out.std(axis=(0, 2, 3)) - 1).max() < 1e-3


class TestReport:
    def test_score_against(self):
        rng = RngState(640)
        truth = rng.uniform((3, 3, 32, 32))
        rep = ReconstructionReport(method="x", recons=truth.copy())
        rep.score_against(truth)
        assert all(s == pytest.approx(1.0) for s in rep.ssim)
        assert all(np.isinf(p) for p in rep.psnr)

    def test_score_against_rejects_a_length_mismatch(self):
        truth = RngState(641).uniform((3, 3, 32, 32))
        rep = ReconstructionReport(method="x", recons=truth[:2].copy())
        with pytest.raises(ValueError, match="2 reconstructions against 3"):
            rep.score_against(truth)

    def test_summary_row(self):
        rep = ReconstructionReport(method="m", recons=np.zeros((1, 3, 8, 8)),
                                   psnr=[10.0], ssim=[0.5],
                                   attack_config={"iters": 3},
                                   defense_config={"kind": "none"})
        row = rep.summary_row()
        assert row["method"] == "m"
        assert row["ssim_mean"] == 0.5
        assert row["defense_config"] == {"kind": "none"}

    def test_apply_inverse_net_scores(self):
        rng = RngState(641)
        net = InverseNet("type2_condition", RngState(642), in_ch=4)
        feats = rng.normal((2, 4, 8, 8))
        truth = rng.uniform((2, 3, 32, 32))
        rep = apply_inverse_net(net, feats, ground_truth=truth)
        assert len(rep.psnr) == 2 and len(rep.ssim) == 2
        assert rep.recons.shape == (2, 3, 32, 32)
