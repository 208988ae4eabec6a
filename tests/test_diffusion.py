"""Noise schedule construction, forward/inverse consistency, sampling."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstream.diffusion import (LatentState, ScheduleError, forward_diffuse,
                                   make_linear_schedule, predict_x0, sample_step,
                                   training_loss, write_schedule_csv)
from splitstream.rng import RngState

REFERENCE = dict(T=1000, k=1.115e-5, beta0=8.85e-4)


@pytest.fixture(scope="module")
def sched():
    return make_linear_schedule(**REFERENCE)


class TestSchedule:
    def test_reference_beta_536(self, sched):
        # direct substitution: 1.115e-5 * 536 + 8.85e-4
        assert abs(sched.beta[536] - 6.8614e-3) < 1e-8

    def test_constant_schedule_with_zero_slope(self):
        s = make_linear_schedule(100, 0.0, 0.01)
        assert np.all(s.beta == 0.01)

    def test_alpha_bar_strictly_decreasing(self, sched):
        assert np.all(np.diff(sched.alpha_bar) < 0)

    def test_alpha_bar_boundary_is_one(self, sched):
        assert sched.alpha_bar[0] == 1.0

    def test_beta_strictly_increasing_for_positive_slope(self, sched):
        assert np.all(np.diff(sched.beta) > 0)

    def test_rejects_schedule_leaving_unit_interval(self):
        with pytest.raises(ScheduleError, match="leaves"):
            make_linear_schedule(1000, 1e-3, 0.5)
        with pytest.raises(ScheduleError):
            make_linear_schedule(1000, 1e-5, 0.0)
        with pytest.raises(ScheduleError):
            make_linear_schedule(1000, -1e-5, 0.1)

    def test_timestep_bounds(self, sched):
        with pytest.raises(ScheduleError):
            sched.check_t(1001)
        with pytest.raises(ScheduleError):
            sched.check_t(-1)


class TestForwardDiffuse:
    def test_cumulative_t0_is_identity(self, sched):
        z0 = RngState(1).normal((4, 8, 8))
        st_ = forward_diffuse(z0, 0, sched, RngState(2), "cumulative")
        assert np.array_equal(st_.zt, z0)

    def test_tiny_beta_limit(self):
        s = make_linear_schedule(10, 0.0, 1e-12)
        z0 = RngState(3).normal((4, 8, 8))
        st_ = forward_diffuse(z0, 1, s, RngState(4), "per_step")
        assert np.abs(st_.zt - z0).max() < 1e-5

    def test_per_step_zero_signal_variance(self, sched):
        # z0 = 0 makes zt pure injected noise with variance beta_t
        z0 = np.zeros((100_000,), dtype=np.float32)
        st_ = forward_diffuse(z0, 536, sched, RngState(5), "per_step")
        beta = sched.beta[536]
        assert abs(st_.zt.var() - beta) / beta < 0.05

    def test_reference_variance_term_at_536(self, sched):
        # the exact noise-to-signal variance the calibration uses
        beta = sched.beta[536]
        assert abs(beta / (1 - beta) - 6.9088e-3) < 1e-7

    def test_stores_noise_label(self, sched):
        st_ = forward_diffuse(np.zeros((2, 2)), 10, sched, RngState(6))
        assert isinstance(st_, LatentState)
        assert st_.n_hat.shape == st_.zt.shape == (2, 2)

    def test_t_out_of_range(self, sched):
        with pytest.raises(ScheduleError):
            forward_diffuse(np.zeros(4), 1001, sched, RngState(7))


class TestPredictX0:
    @pytest.mark.parametrize("variant", ["per_step", "cumulative"])
    def test_inverts_forward_exactly(self, sched, variant):
        rng = RngState(8)
        z0 = rng.normal((4, 8, 8))
        for t in (1, 100, 536, 1000):
            st_ = forward_diffuse(z0, t, sched, rng, variant)
            back = predict_x0(st_.zt, st_.n_hat, t, sched, variant)
            assert np.abs(back - z0).max() < 1e-5

    def test_zero_noise_estimate(self, sched):
        z0 = RngState(9).normal((4, 4))
        t = 300
        a = sched.coeff(t, "cumulative")
        zt = np.float32(np.sqrt(a)) * z0
        assert np.abs(predict_x0(zt, np.zeros_like(z0), t, sched, "cumulative") - z0).max() < 1e-5

    def test_matches_symbolic_rearrangement(self, sched):
        rng = RngState(10)
        zt, n = rng.normal((3, 3)), rng.normal((3, 3))
        t = 444
        a = sched.coeff(t, "cumulative")
        want = (zt.astype(np.float64) - np.sqrt(1 - a) * n) / np.sqrt(a)
        got = predict_x0(zt, n, t, sched, "cumulative")
        assert np.abs(got - want).max() < 1e-5


class TestSampleStep:
    def test_one_step_inversion_at_t1(self, sched):
        rng = RngState(11)
        z0 = rng.normal((4, 8, 8))
        st_ = forward_diffuse(z0, 1, sched, rng, "cumulative")
        z_prev = sample_step(st_.zt, st_.n_hat, 1, sched, rng, "cumulative")
        assert np.abs(z_prev - z0).max() < 1e-5

    def test_deterministic_at_lambda_zero(self, sched):
        rng = RngState(12)
        zt, n = rng.normal((4, 4)), rng.normal((4, 4))
        a = sample_step(zt, n, 500, sched, RngState(1))
        b = sample_step(zt, n, 500, sched, RngState(2))
        assert np.array_equal(a, b)

    def test_oracle_denoiser_full_loop_recovers_z0(self, sched):
        rng = RngState(13)
        z0 = rng.normal((4, 8, 8))
        st_ = forward_diffuse(z0, sched.T, sched, rng, "cumulative")
        z = st_.zt
        for t in range(sched.T, 0, -1):
            z = sample_step(z, st_.n_hat, t, sched, rng, "cumulative")
        assert float(np.mean((z - z0) ** 2)) < 1e-6

    def test_lambda_noise_changes_output(self):
        s = make_linear_schedule(100, 1e-4, 1e-3, lam=0.05)
        rng = RngState(14)
        zt, n = rng.normal((8, 8)), rng.normal((8, 8))
        a = sample_step(zt, n, 50, s, RngState(1))
        b = sample_step(zt, n, 50, s, RngState(2))
        assert not np.array_equal(a, b)
        diff_var = np.var(a.astype(np.float64) - b.astype(np.float64))
        # difference of two independent lambda*o draws has variance 2*lambda^2
        assert abs(diff_var - 2 * 0.05**2) / (2 * 0.05**2) < 0.9

    def test_lambda_too_large_errors(self):
        s = make_linear_schedule(10, 0.0, 0.5, lam=2.0)
        with pytest.raises(ScheduleError, match="lambda"):
            sample_step(np.zeros(4), np.zeros(4), 5, s, RngState(1))

    def test_needs_t_at_least_one(self, sched):
        with pytest.raises(ScheduleError):
            sample_step(np.zeros(4), np.zeros(4), 0, sched, RngState(1))


class TestTrainingLoss:
    def test_zero_when_equal(self):
        x = RngState(15).normal((4, 4))
        assert training_loss(x, x).item() == 0.0

    def test_hand_computed(self):
        val = training_loss(np.ones(2, np.float32), np.zeros(2, np.float32)).item()
        assert val == 1.0

    def test_matches_loop_oracle(self):
        rng = RngState(16)
        a, b = rng.normal((5, 7)), rng.normal((5, 7))
        want = 0.0
        for i in range(5):
            for j in range(7):
                want += (float(a[i, j]) - float(b[i, j])) ** 2
        want /= 35.0
        assert abs(training_loss(a, b).item() - want) < 1e-7

    def test_shape_mismatch(self):
        from splitstream.tensor import ShapeError

        with pytest.raises(ShapeError):
            training_loss(np.zeros(3), np.zeros(4))

    def test_gradient_reaches_prediction(self):
        from splitstream.tensor import Tensor

        pred = Tensor(np.zeros(4, np.float32), requires_grad=True)
        training_loss(np.ones(4, np.float32), pred).backward()
        assert np.allclose(pred.grad, -0.5)  # 2(n_pred - n_hat)/K


@given(st.integers(1, 999))
@settings(max_examples=40, deadline=None)
def test_forward_inverse_consistency_property(t):
    sched = make_linear_schedule(**REFERENCE)
    rng = RngState(t)
    z0 = rng.normal((2, 3, 3))
    for variant in ("per_step", "cumulative"):
        st_ = forward_diffuse(z0, t, sched, rng, variant)
        assert np.abs(predict_x0(st_.zt, st_.n_hat, t, sched, variant) - z0).max() < 1e-5


def test_schedule_csv_dump(sched):
    buf = io.StringIO()
    write_schedule_csv(sched, buf, epsilon_fn=lambda t: 1.0 / (t + 1))
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,beta,alpha,alpha_bar,epsilon"
    assert len(lines) == sched.T + 2
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 1.0
