"""PSNR / SSIM scoring behavior."""

import math

import numpy as np
import pytest

from splitstream.metrics import psnr, ssim
from splitstream.rng import RngState


def psnr_oracle(a, b):
    mse = np.mean((np.asarray(a, np.float64) - b) ** 2)
    return 10 * math.log10(255.0**2 / mse)


def ssim_oracle(a, b, win=8, stride=4):
    """Direct per-window implementation of the three-term product."""
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    c3 = c2 / 2
    vals = []
    for ca, cb in zip(a, b):
        h, w = ca.shape
        for i in range(0, h - win + 1, stride):
            for j in range(0, w - win + 1, stride):
                wa = ca[i : i + win, j : j + win].astype(np.float64)
                wb = cb[i : i + win, j : j + win].astype(np.float64)
                mu_a, mu_b = wa.mean(), wb.mean()
                va, vb = wa.var(), wb.var()
                cov = ((wa - mu_a) * (wb - mu_b)).mean()
                lum = (2 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
                con = (2 * math.sqrt(va) * math.sqrt(vb) + c2) / (va + vb + c2)
                stc = (cov + c3) / (math.sqrt(va) * math.sqrt(vb) + c3)
                vals.append(lum * con * stc)
    return float(np.mean(vals))


@pytest.fixture
def images():
    rng = RngState(31)
    a = rng.uniform((3, 32, 32)) * 255.0
    b = np.clip(a + rng.normal((3, 32, 32)) * 20.0, 0, 255)
    return a, b


class TestPsnr:
    def test_identical_is_infinite(self, images):
        a, _ = images
        assert psnr(a, a) == math.inf

    def test_uniform_offset_closed_form(self):
        a = np.full((3, 32, 32), 100.0)
        b = a + 16.0
        # 10*log10(255^2/256)
        assert abs(psnr(a, b) - 24.0489) < 1e-3

    def test_matches_oracle(self, images):
        a, b = images
        assert abs(psnr(a, b) - psnr_oracle(a, b)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((3, 4, 4)), np.zeros((3, 5, 5)))

    def test_permutation_invariance(self, images):
        a, b = images
        perm = RngState(5).shuffle(a.size)
        ap = a.reshape(-1)[perm].reshape(a.shape)
        bp = b.reshape(-1)[perm].reshape(b.shape)
        assert abs(psnr(a, b) - psnr(ap, bp)) < 1e-9


class TestSsim:
    def test_self_similarity_is_one(self, images):
        a, _ = images
        assert abs(ssim(a, a) - 1.0) < 1e-12

    def test_inverted_midcontrast_negative(self):
        rng = RngState(32)
        # mid-contrast image: structure term goes to -1, luminance stays high
        a = 128.0 + 80.0 * np.sign(rng.normal((3, 32, 32)))
        assert ssim(a, 255.0 - a) < 0.0

    def test_matches_window_oracle(self, images):
        # the vectorized windows reproduce the per-window formula bit for bit
        a, b = images
        cases = [(a, b, 8, 4), (a, b, 5, 1)]
        rng = np.random.default_rng(34)
        for i in range(240):
            win = (3, 5, 8, 12)[i % 4]
            h, w = ((32, 32), (17, 23), (40, 36))[i // 4 % 3]
            shape = (h, w) if i // 12 % 2 else (3, h, w)
            if i // 24 % 2:  # integer-valued pixels
                x = rng.integers(0, 256, shape).astype(np.float64)
                y = rng.integers(0, 256, shape).astype(np.float64)
            else:
                x = rng.uniform(0, 255, shape)
                y = np.clip(x + rng.normal(0, 25, shape), 0, 255)
            cases.append((x, y, win, int(rng.integers(2, 7))))
        for x, y, win, stride in cases:
            oracle = ssim_oracle(x[None] if x.ndim == 2 else x,
                                 y[None] if y.ndim == 2 else y, win, stride)
            assert ssim(x, y, win, stride) == oracle, (x.shape, win, stride)

    def test_image_smaller_than_window(self):
        with pytest.raises(ValueError, match="window"):
            ssim(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))

    @pytest.mark.parametrize("win,stride", [(0, 4), (-2, 4), (8, 0), (8, -1)])
    def test_nonpositive_window_or_stride(self, images, win, stride):
        a, b = images
        with pytest.raises(ValueError, match="stride"):
            ssim(a, b, win, stride)

    def test_isometry_invariance(self, images):
        # flips map the window grid onto itself, so scores are unchanged
        a, b = images
        for flip in (lambda x: x[:, ::-1, :], lambda x: x[:, :, ::-1],
                     lambda x: np.transpose(x, (0, 2, 1))):
            assert abs(ssim(a, b) - ssim(flip(a), flip(b))) < 1e-9
            assert abs(psnr(a, b) - psnr(flip(a), flip(b))) < 1e-9

    def test_grayscale_2d_accepted(self):
        rng = RngState(33)
        a = rng.uniform((16, 16)) * 255
        assert abs(ssim(a, a) - 1.0) < 1e-12
