"""Attack harness: sanity oracles on toy clients, degradation orderings,
inverse-network training."""

import numpy as np
import pytest

from splitstream import tensor as tt
from splitstream.attacks import (WHITEBOX_INIT_SCALE, FeatureScaler, InverseNet,
                                 ReconstructionReport, train_inverse_network, unsplit_attack,
                                 whitebox_gd_attack)
from splitstream.metrics import psnr, ssim
from splitstream.models import NoiseConfoundingActivation, noise_confound
from splitstream.optim import AdamW
from splitstream.rng import RngState
from splitstream.tensor import Tensor


def scale_aligned_psnr(recon, truth):
    """PSNR after least-squares scale alignment (recovery up to scale)."""
    a = recon.astype(np.float64).ravel()
    b = truth.astype(np.float64).ravel()
    alpha = float(a @ b / max(a @ a, 1e-12))
    return psnr(np.clip(alpha * recon, 0, 1) * 255, truth * 255)


def ssim01(recon, truth):
    """SSIM of one reconstruction on the 0..255 scale."""
    return ssim(recon[0] * 255.0, truth[0] * 255.0)


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
        recons, diverged = unsplit_attack(target, self._make_guess, self.x_true.shape,
                                          RngState(601), outer=25, inner_x=40, inner_theta=40,
                                          lr=2e-2)
        assert not diverged
        assert scale_aligned_psnr(recons, self.x_true) > 30

    def test_dropout_target_degrades_recovery(self):
        clean = self._linear_client()(Tensor(self.x_true)).data
        dropped = self._linear_client()(
            tt.dropout(Tensor(self.x_true), 0.3, RngState(602), training=True)).data
        settings = {"outer": 25, "inner_x": 40, "inner_theta": 40, "lr": 2e-2}
        rec_clean, _ = unsplit_attack(clean, self._make_guess, self.x_true.shape,
                                      RngState(603), **settings)
        rec_drop, _ = unsplit_attack(dropped, self._make_guess, self.x_true.shape,
                                     RngState(603), **settings)
        a = scale_aligned_psnr(rec_clean, self.x_true)
        b = scale_aligned_psnr(rec_drop, self.x_true)
        assert b < a

    def test_zero_target_converges_to_null_set(self):
        def make_nonneg(rng):
            weight = Tensor(rng.normal((1, 1, 1, 1)) * 0.3 + 1.0, requires_grad=True)
            return (lambda x: tt.relu(tt.conv2d(x, weight))), [weight]

        target = np.zeros((1, 1, 8, 8), dtype=np.float32)
        recons, _ = unsplit_attack(target, make_nonneg, (1, 1, 8, 8), RngState(604),
                                   outer=10, inner_x=50, inner_theta=10, lr=5e-2)
        fwd, params = make_nonneg(RngState(604).split("model"))
        # the converged input maps (under its own converged model) to ~zero;
        # verify via a fresh forward of the attack's reconstruction through a
        # nonnegative model fitted to zero output: feature mse must be tiny
        feat = tt.relu(tt.conv2d(Tensor(recons), Tensor(np.ones((1, 1, 1, 1), np.float32))))
        assert float(np.mean(feat.data**2)) < 1e-4 or recons.max() < 1e-2


class TestWhitebox:
    def test_invertible_client_near_perfect(self):
        rng = RngState(610)
        x_true = rng.uniform((1, 3, 16, 16))
        w = Tensor(np.full((3, 3, 1, 1), 0.0, dtype=np.float32))
        for c in range(3):
            w.data[c, c, 0, 0] = 0.9
        target = tt.conv2d(Tensor(x_true), w).data

        recons, _ = whitebox_gd_attack(target, lambda x: tt.conv2d(x, w), x_true.shape,
                                       [RngState(611)], iters=400, lr=0.05)
        assert ssim01(recons, x_true) > 0.9

    def test_dropout_at_attack_time_degrades(self):
        rng = RngState(612)
        x_true = rng.uniform((1, 3, 16, 16))
        w = Tensor(np.full((3, 3, 1, 1), 0.0, dtype=np.float32))
        for c in range(3):
            w.data[c, c, 0, 0] = 0.9
        clean = tt.conv2d(Tensor(x_true), w).data
        noisy = tt.conv2d(tt.dropout(Tensor(x_true), 0.3, RngState(613), training=True), w).data
        rec_clean, _ = whitebox_gd_attack(clean, lambda x: tt.conv2d(x, w),
                                          x_true.shape, [RngState(614)], iters=300, lr=0.05)
        rec_noisy, _ = whitebox_gd_attack(noisy, lambda x: tt.conv2d(x, w),
                                          x_true.shape, [RngState(614)], iters=300, lr=0.05)
        assert ssim01(rec_noisy, x_true) < ssim01(rec_clean, x_true)

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

        rec_plain, _ = whitebox_gd_attack(plain, lambda x: tt.conv2d(x, w),
                                          x_true.shape, [RngState(616)], iters=400, lr=0.05)
        rec_def, _ = whitebox_gd_attack(
            defended, lambda x: noise_confound(tt.conv2d(x, w), act_guess),
            x_true.shape, [RngState(616)], iters=400, lr=0.05)
        assert ssim01(rec_def, x_true) <= ssim01(rec_plain, x_true) - 0.1

    def test_divergence_flagged(self):
        target = np.ones((1, 1, 4, 4), dtype=np.float32)

        def explode(x):
            return tt.scale(x, float("nan"))

        _, diverged = whitebox_gd_attack(target, explode, (1, 1, 4, 4), [RngState(617)],
                                         iters=5, lr=0.1)
        assert diverged


def one_sample_descent(target_feats, model_fn, x_shape, rng, *, iters, lr):
    """The whitebox descent of one sample as the library ran it before the
    descents of a batch ran as one: the oracle for each row of the batch."""
    x = Tensor(rng.normal(x_shape) * np.float32(WHITEBOX_INIT_SCALE), requires_grad=True)
    opt = AdamW([x], lr=lr)
    target = Tensor(np.asarray(target_feats, dtype=np.float32))
    diverged = False
    for _ in range(int(iters)):
        loss = tt.mse(model_fn(x), target)
        if not np.isfinite(loss.data):
            diverged = True
            break
        opt.zero_grad()
        loss.backward()
        opt.step()
    return x.data.copy(), diverged


class TestBatchedWhitebox:
    """The whitebox arm's model over three rows, a batch that is not a power
    of two: z_t plus the input, through a confound with a guessed offset."""

    N = 3

    def setup_method(self):
        rng = RngState(650)
        self.zt = rng.normal((self.N, 4, 8, 8))
        self.target = rng.normal((self.N, 4, 8, 8))
        self.act = NoiseConfoundingActivation(delta=np.zeros((4, 8, 8), np.float32))
        self.rngs = lambda: [RngState(651 + i).split("whitebox") for i in range(self.N)]

    def model(self, rows, poisoned=(), at=None):
        """`model_fn` over the given rows of z_t; from call `at` on (0-based),
        the rows at the `poisoned` positions of its batch read +inf."""
        calls = [0]
        zt = Tensor(self.zt[rows])

        def model_fn(u):
            out = noise_confound(tt.add(zt, u), self.act)
            calls[0] += 1
            if at is not None and calls[0] > at:
                bad = np.zeros(out.shape, np.float32)
                bad[list(poisoned)] = np.inf
                out = tt.add(out, Tensor(bad))
            return out

        return model_fn

    def test_every_row_is_bit_equal_to_its_own_descent(self):
        settings = {"iters": 40, "lr": 0.05}
        batch, diverged = whitebox_gd_attack(self.target, self.model(slice(None)),
                                             self.target.shape, self.rngs(), **settings)
        assert not diverged.any()
        for i, rng in enumerate(self.rngs()):
            row, div = one_sample_descent(self.target[i : i + 1], self.model(slice(i, i + 1)),
                                          (1, 4, 8, 8), rng, **settings)
            assert not div
            assert batch[i : i + 1].tobytes() == row.tobytes(), i

    def test_a_row_that_goes_non_finite_stops_alone(self):
        settings = {"iters": 30, "lr": 0.05}
        k, bad = 12, 1
        batch, diverged = whitebox_gd_attack(self.target, self.model(slice(None), [bad], k),
                                             self.target.shape, self.rngs(), **settings)
        assert diverged.tolist() == [False, True, False]
        for i, rng in enumerate(self.rngs()):
            row, div = one_sample_descent(
                self.target[i : i + 1], self.model(slice(i, i + 1), [0] if i == bad else (), k),
                (1, 4, 8, 8), rng, **settings)
            assert div == (i == bad)
            assert batch[i : i + 1].tobytes() == row.tobytes(), i
        # the stopped row kept its value after k steps; the others ran all 30
        at_k, _ = one_sample_descent(self.target[bad : bad + 1], self.model(slice(bad, bad + 1)),
                                     (1, 4, 8, 8), self.rngs()[bad], **{**settings, "iters": k})
        assert batch[bad : bad + 1].tobytes() == at_k.tobytes()

    def test_one_seed_per_row(self):
        with pytest.raises(ValueError, match="2 seeds for 3 rows"):
            whitebox_gd_attack(self.target, self.model(slice(None)), self.target.shape,
                               self.rngs()[:2], iters=1, lr=0.05)


class TestInverseNet:
    def test_upsample_identity_task_sanity(self):
        # features that already contain the target (modulo the fixed 4x
        # upsampling) must be learnable to tiny loss
        rng = RngState(620)
        feats = rng.uniform((64, 3, 8, 8)) * 0.6 + 0.2
        targets = feats.repeat(4, axis=2).repeat(4, axis=3)
        net = InverseNet("type2_condition", RngState(621), in_ch=3)
        losses = train_inverse_network(feats, targets, net, RngState(622),
                                       lr=1e-2, iters=600, batch=8)
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
                                  net, RngState(627), lr=1e-2, iters=1, batch=1)

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
        assert row["psnr"] == [10.0] and row["ssim"] == [0.5]
