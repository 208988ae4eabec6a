"""Privacy calibration: Gaussian mechanism, budget/timestep maps, sampler,
sensitivity estimation, randomized response."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstream.diffusion import make_linear_schedule
from splitstream.privacy import (CalibrationError, PrivacyParams,
                                 epsilon_for_timestep, estimate_sensitivity,
                                 flip_probability, gaussian_sigma, hyperparameter,
                                 randomized_response, sample_private_timestep,
                                 solve_intercept_for_budget, solve_slope_for_budget,
                                 timestep_for_epsilon)
from splitstream.rng import RngState

DELTA = 1e-4
ALPHA = 0.16
REFERENCE = dict(T=1000, k=1.115e-5, beta0=8.85e-4)


@pytest.fixture(scope="module")
def sched():
    return make_linear_schedule(**REFERENCE)


class TestGaussianSigma:
    def test_reference_constants(self):
        # H = 2 ln(1.25/1e-4) * 0.16^2 = 0.48300, sigma^2 = H / 64
        assert abs(hyperparameter(DELTA, ALPHA) - 0.48300) < 1e-4
        sigma = gaussian_sigma(8.0, DELTA, ALPHA)
        assert abs(sigma * sigma - 7.5469e-3) < 1e-6
        assert abs(sigma - 0.08688) < 1e-4

    def test_doubling_epsilon_quarters_variance(self):
        s1 = gaussian_sigma(1.0, DELTA, ALPHA)
        s2 = gaussian_sigma(2.0, DELTA, ALPHA)
        assert abs(s1 * s1 / (s2 * s2) - 4.0) < 1e-9

    def test_sensitivity_scales_sigma_linearly(self):
        assert abs(gaussian_sigma(3.0, DELTA, 2 * ALPHA) / gaussian_sigma(3.0, DELTA, ALPHA) - 2.0) < 1e-9

    def test_domain_violations(self):
        with pytest.raises(CalibrationError):
            gaussian_sigma(0.0, DELTA, ALPHA)
        with pytest.raises(CalibrationError):
            gaussian_sigma(1.0, 1.5, ALPHA)
        with pytest.raises(CalibrationError):
            gaussian_sigma(1.0, DELTA, -1.0)


class TestEpsilonForTimestep:
    def test_reference_epsilon_at_536(self, sched):
        # exact substitution gives ~8.36; the headline budget rounds to 8
        eps = epsilon_for_timestep(536, sched, DELTA, ALPHA)
        assert 7.5 <= eps <= 8.6
        assert abs(eps - 8.3612) < 1e-3

    def test_strictly_decreasing_over_schedule(self, sched):
        eps = [epsilon_for_timestep(t, sched, DELTA, ALPHA) for t in range(0, 1001)]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_beta_near_one_limit(self):
        s = make_linear_schedule(10, 0.0, 0.999)
        eps = epsilon_for_timestep(5, s, DELTA, ALPHA)
        assert eps < 0.03  # -> 0 as beta -> 1


class TestTimestepForEpsilon:
    def test_roundtrip_at_536(self, sched):
        eps = epsilon_for_timestep(536, sched, DELTA, ALPHA)
        assert timestep_for_epsilon(eps, sched, DELTA, ALPHA) == 536

    def test_roundtrip_everywhere(self, sched):
        for t in range(0, 1001, 13):
            eps = epsilon_for_timestep(t, sched, DELTA, ALPHA)
            assert abs(timestep_for_epsilon(eps, sched, DELTA, ALPHA) - t) <= 1

    def test_epsilon_at_zero_boundary(self, sched):
        eps0 = epsilon_for_timestep(0, sched, DELTA, ALPHA)
        assert timestep_for_epsilon(eps0, sched, DELTA, ALPHA) == 0

    def test_reference_ablation_budgets(self):
        # The ablation budgets 0.3 and 2 are below the default schedule's
        # floor epsilon(1000) ~ 6.3, so they are reached by altering k or
        # beta0 while keeping t_s at 536, not by moving t_s.
        t_ref = 536
        k2 = solve_slope_for_budget(2.0, t_ref, REFERENCE["beta0"], DELTA, ALPHA)
        s_k = make_linear_schedule(1000, k2, REFERENCE["beta0"])
        assert abs(epsilon_for_timestep(t_ref, s_k, DELTA, ALPHA) - 2.0) < 1e-6
        b03 = solve_intercept_for_budget(0.3, t_ref, REFERENCE["k"], DELTA, ALPHA)
        s_b = make_linear_schedule(1000, REFERENCE["k"], b03)
        assert abs(epsilon_for_timestep(t_ref, s_b, DELTA, ALPHA) - 0.3) < 1e-6
        for budget, s in ((2.0, s_k), (0.3, s_b)):
            t_s = timestep_for_epsilon(budget, s, DELTA, ALPHA)
            assert epsilon_for_timestep(t_s, s, DELTA, ALPHA) <= budget
            assert epsilon_for_timestep(t_s - 1, s, DELTA, ALPHA) > budget

    def test_default_schedule_floor_excludes_small_budgets(self, sched):
        # documents why the ablation must move k/beta0: the floor is ~6.3
        floor = epsilon_for_timestep(1000, sched, DELTA, ALPHA)
        assert 6.0 < floor < 6.6
        with pytest.raises(CalibrationError, match="unachievable"):
            timestep_for_epsilon(2.0, sched, DELTA, ALPHA)

    def test_oversized_budget_warns_and_returns_zero(self, sched):
        eps0 = epsilon_for_timestep(0, sched, DELTA, ALPHA)
        with pytest.warns(UserWarning, match="exceeds"):
            assert timestep_for_epsilon(eps0 * 2, sched, DELTA, ALPHA) == 0

    def test_unachievable_budget_errors(self, sched):
        eps_floor = epsilon_for_timestep(1000, sched, DELTA, ALPHA)
        with pytest.raises(CalibrationError, match="unachievable"):
            timestep_for_epsilon(eps_floor / 2, sched, DELTA, ALPHA)


class TestCalibrationEquivalence:
    def test_sigma_squared_equals_noise_variance(self, sched):
        # gaussian_sigma(eps(t))^2 == beta_t/(1-beta_t) by construction
        for t in range(1, 1001):
            eps = epsilon_for_timestep(t, sched, DELTA, ALPHA)
            sigma2 = gaussian_sigma(eps, DELTA, ALPHA) ** 2
            want = sched.beta[t] / (1 - sched.beta[t])
            assert abs(sigma2 - want) / want < 1e-6


class TestPrivacyParams:
    def test_from_ts(self, sched):
        p = PrivacyParams.from_ts(sched, DELTA, ALPHA, 536)
        assert p.t_max == 1000
        assert p.H == hyperparameter(DELTA, ALPHA)
        assert abs(p.epsilon - 8.3612) < 1e-3

    def test_bad_range(self):
        with pytest.raises(CalibrationError):
            PrivacyParams(epsilon=1.0, delta=DELTA, alpha_sens=ALPHA, t_s=10, t_max=5)


class TestSampler:
    def test_degenerate_range(self, sched):
        p = PrivacyParams.from_ts(sched, DELTA, ALPHA, 536, t_max=536)
        rng = RngState(1)
        assert all(sample_private_timestep(p, rng) == 536 for _ in range(50))

    def test_uniformity(self, sched):
        p = PrivacyParams.from_ts(sched, DELTA, ALPHA, 536, t_max=1000)
        rng = RngState(2)
        n = 100_000
        draws = np.array([sample_private_timestep(p, rng) for _ in range(n)])
        assert draws.min() >= 536 and draws.max() <= 1000
        counts = np.bincount(draws - 536, minlength=465)
        expected = n / 465
        sd = math.sqrt(n * (1 / 465) * (1 - 1 / 465))
        assert np.all(np.abs(counts - expected) < 4 * sd)

    def test_every_draw_within_budget(self, sched):
        p = PrivacyParams.from_ts(sched, DELTA, ALPHA, 536)
        eps_s = epsilon_for_timestep(p.t_s, sched, DELTA, ALPHA)
        rng = RngState(3)
        for _ in range(2000):
            t = sample_private_timestep(p, rng)
            assert epsilon_for_timestep(t, sched, DELTA, ALPHA) <= eps_s + 1e-12


class TestSensitivity:
    def test_single_element(self):
        assert estimate_sensitivity([np.ones((4, 4))]) == 0.0

    def test_two_elements_exact_distance(self):
        a = np.zeros(3)
        b = np.array([3.0, 4.0, 0.0])
        assert abs(estimate_sensitivity([a, b]) - 5.0) < 1e-12

    def test_matches_pairwise_scan_oracle(self):
        rng = RngState(4)
        latents = [rng.normal((4, 8, 8)) for _ in range(100)]
        best = 0.0
        flat = [x.astype(np.float64).ravel() for x in latents]
        for i in range(100):
            for j in range(i + 1, 100):
                best = max(best, float(np.sqrt(np.sum((flat[j] - flat[i]) ** 2))))
        assert estimate_sensitivity(latents) == best

    def test_clipping_bounds_result(self):
        rng = RngState(5)
        latents = [rng.normal((16,)) * 10 for _ in range(20)]
        c = 0.5
        assert estimate_sensitivity(latents, clip_norm=c) <= 2 * c + 1e-9

    def test_empty_set(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_sensitivity([])


class TestRandomizedResponse:
    def test_flip_probability_at_2(self):
        assert abs(flip_probability(2.0) - 0.11920) < 1e-5

    def test_huge_epsilon_is_identity_after_quantization(self):
        rng = RngState(6)
        x = rng.normal((64,))
        out = randomized_response(x, 1e9, 8, rng)
        # output equals the quantized input: within half a quantization step
        lo, hi = x.min(), x.max()
        step = (hi - lo) / 255
        assert np.abs(out - x).max() <= step / 2 + 1e-6

    def test_empirical_flip_rate(self):
        rng = RngState(7)
        n_bits = 10**6
        x = np.linspace(0.0, 1.0, n_bits // 1, dtype=np.float32)
        out = randomized_response(x, 2.0, 1, rng)
        # 1-bit quantization: flip rate is directly observable
        q = np.rint((x - x.min()) / (x.max() - x.min())).astype(np.uint8)
        qo = np.rint((out - out.min()) / (out.max() - out.min())).astype(np.uint8)
        rate = np.mean(q != qo)
        assert abs(rate - 0.11920) < 0.01 * 1.0

    def test_degenerate_range_warns(self):
        with pytest.warns(UserWarning, match="degenerate"):
            out = randomized_response(np.ones(8, np.float32), 2.0, 8, RngState(8))
        assert np.array_equal(out, np.ones(8, np.float32))

    def test_bits_domain(self):
        with pytest.raises(ValueError):
            randomized_response(np.arange(4.0), 2.0, 0, RngState(9))
        with pytest.raises(ValueError):
            randomized_response(np.arange(4.0), 2.0, 17, RngState(9))


@given(st.floats(0.05, 50.0))
@settings(max_examples=50, deadline=None)
def test_budget_roundtrip_property(epsilon):
    sched = make_linear_schedule(**REFERENCE)
    eps_floor = epsilon_for_timestep(1000, sched, DELTA, ALPHA)
    eps_top = epsilon_for_timestep(0, sched, DELTA, ALPHA)
    if not eps_floor <= epsilon <= eps_top:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t = timestep_for_epsilon(epsilon, sched, DELTA, ALPHA)
    assert epsilon_for_timestep(t, sched, DELTA, ALPHA) <= epsilon
    if t > 0:
        assert epsilon_for_timestep(t - 1, sched, DELTA, ALPHA) > epsilon


def test_h_recompute_bit_exact(sched):
    p = PrivacyParams.from_ts(sched, DELTA, ALPHA, 536)
    assert p.H == hyperparameter(p.delta, p.alpha_sens)
