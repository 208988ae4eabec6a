"""Tensor core: op semantics against brute-force oracles, autodiff against
finite differences, optimizer and RNG determinism."""

import itertools
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstream import tensor as tt
from splitstream.checkpoint import CheckpointError, dump_checkpoint, parse_checkpoint
from splitstream.optim import AdamW
from splitstream.rng import RngState
from splitstream.tensor import GraphError, ShapeError, Tensor


def _conv_taps(x_shape, w_shape, stride, padding):
    """Every (output, padded input, kernel) index triple a cross-correlation multiplies."""
    n, c, h, wid = x_shape
    o, _, kh, kw = w_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wid + 2 * padding - kw) // stride + 1
    for b, oc, i, j, ic, u, v in itertools.product(range(n), range(o), range(ho), range(wo),
                                                   range(c), range(kh), range(kw)):
        yield (b, oc, i, j), (b, ic, i * stride + u, j * stride + v), (oc, ic, u, v)


def _pad(x, padding):
    return np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def conv2d_oracle(x, w, stride, padding):
    """Naive loop cross-correlation in float64."""
    n, c, h, wid = x.shape
    o, _, kh, kw = w.shape
    xp = _pad(x, padding)
    out = np.zeros((n, o, (h + 2 * padding - kh) // stride + 1,
                    (wid + 2 * padding - kw) // stride + 1), dtype=np.float64)
    for yi, xi, wi in _conv_taps(x.shape, w.shape, stride, padding):
        out[yi] += xp[xi] * w[wi]
    return out


def conv2d_grad_oracle(x, w, stride, padding, g):
    """Input and kernel gradients of sum(g * conv2d_oracle(x, w)), by the same loop."""
    h, wid = x.shape[2:]
    xp = _pad(x, padding)
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape, dtype=np.float64)
    for yi, xi, wi in _conv_taps(x.shape, w.shape, stride, padding):
        gxp[xi] += g[yi] * w[wi]
        gw[wi] += g[yi] * xp[xi]
    return gxp[:, :, padding:padding + h, padding:padding + wid], gw


def conv2d_tap_oracle(x, w, padding, g):
    """Output, input gradient and kernel gradient of a stride-1 correlation
    in float64, one kernel tap at a time: the loop oracle's sums, with the
    batch, channel and position loops left to einsum."""
    n, c, h, wid = x.shape
    o, _, kh, kw = w.shape
    xp, w64, g64 = _pad(x, padding), w.astype(np.float64), g.astype(np.float64)
    ho, wo = h + 2 * padding - kh + 1, wid + 2 * padding - kw + 1
    y, gxp, gw = np.zeros((n, o, ho, wo)), np.zeros_like(xp), np.zeros(w.shape)
    for u, v in itertools.product(range(kh), range(kw)):
        window = xp[:, :, u:u + ho, v:v + wo]
        y += np.einsum("ncij,oc->noij", window, w64[:, :, u, v])
        gw[:, :, u, v] = np.einsum("noij,ncij->oc", g64, window)
        gxp[:, :, u:u + ho, v:v + wo] += np.einsum("noij,oc->ncij", g64, w64[:, :, u, v])
    return y, gxp[:, :, padding:padding + h, padding:padding + wid], gw


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        k = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        y = tt.conv2d(x, k, stride=1, padding=0)
        assert np.array_equal(y.data, x.data)

    def test_all_ones_sum(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        k = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        y = tt.conv2d(x, k)
        assert y.data.reshape(()) == 9.0

    def test_matches_loop_oracle(self):
        rng = RngState(11)
        x = rng.normal((1, 2, 4, 4))
        w = rng.normal((3, 2, 3, 3))
        got = tt.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        want = conv2d_oracle(x, w, 1, 1)
        assert np.abs(got - want).max() < 1e-6

    def test_strided_matches_oracle(self):
        rng = RngState(12)
        x = rng.normal((2, 3, 8, 8))
        w = rng.normal((4, 3, 3, 3))
        got = tt.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        want = conv2d_oracle(x, w, 2, 1)
        assert np.abs(got - want).max() < 1e-5

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="channels"):
            tt.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))
        with pytest.raises(ShapeError, match="larger than padded"):
            tt.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    @pytest.mark.parametrize("stride,padding", [(0, 0), (-1, 0), (1, -1), (2, -2)])
    def test_bad_stride_or_padding_rejected_before_any_work(self, stride, padding, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("conv2d did work before validating stride and padding")

        monkeypatch.setattr(tt, "_im2col", no_work)
        monkeypatch.setattr(tt, "_kn2row", no_work)
        with pytest.raises(ShapeError, match="stride >= 1 and padding >= 0"):
            tt.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), stride, padding)

    @pytest.mark.parametrize("trainable", ["both", "kernel", "input"])
    @pytest.mark.parametrize("c,o,k,stride,padding,hw,layouts", [
        # 6x7 and 7x6 at stride 2 leave an unread row or column, as 8x8 with k3 s2 p1 does
        pytest.param(2, 3, k, s, p, hw, None,
                     id="-".join(map(str, (k, s, p))) + ("" if hw == (5, 5) else "-%dx%d" % hw))
        for hw in ((5, 5), (6, 7), (7, 6))
        for k, s, p in itertools.product((1, 3), (1, 2), (0, 1))
    ] + [
        # kw*c against 3*wo picks each unfold's layout (forward, input gradient):
        # 16 channels at the server's 4x4 and 8x8 maps go channels-last
        pytest.param(16, 16, 3, 1, 1, (4, 4), ("last", "last"), id="c16-o16-3-1-1-4x4"),
        pytest.param(16, 16, 3, 1, 1, (8, 8), ("last", "last"), id="c16-o16-3-1-1-8x8"),
        pytest.param(16, 16, 3, 2, 1, (8, 8), ("last", "last"), id="c16-o16-3-2-1-8x8"),
        # 2 input channels stay channels-first, the 16-channel output gradient does not
        pytest.param(2, 16, 3, 1, 1, (4, 4), ("first", "last"), id="c2-o16-3-1-1-4x4"),
        # 1x1 kernels: no padding at all, and a padding the input gradient crops
        pytest.param(32, 32, 1, 1, 0, (4, 4), ("last", "last"), id="c32-o32-1-1-0-4x4"),
        pytest.param(32, 32, 1, 1, 1, (4, 4), ("last", "last"), id="c32-o32-1-1-1-4x4"),
    ])
    def test_gradients_match_loop_oracle(self, c, o, k, stride, padding, hw, layouts, trainable,
                                         monkeypatch):
        taken = []
        im2col = tt._im2col

        def spy(*args):
            out = im2col(*args)
            taken.append("last" if out[3] else "first")
            return out

        monkeypatch.setattr(tt, "_im2col", spy)
        rng = RngState(100 * k + 10 * stride + padding)
        x_np, w_np = rng.normal((4, c) + hw), rng.normal((o, c, k, k))
        x = Tensor(x_np, requires_grad=trainable != "kernel")
        w = Tensor(w_np, requires_grad=trainable != "input")
        y = tt.conv2d(x, w, stride=stride, padding=padding)
        g = rng.normal(y.shape)
        tt.backward(y, seed_grad=g)
        want_x, want_w = conv2d_grad_oracle(x_np, w_np, stride, padding, g)
        for t, want in ((x, want_x), (w, want_w)):
            if not t.requires_grad:
                assert t.grad is None
            else:
                assert t.grad.dtype == np.float32 and t.grad.shape == want.shape
                assert np.abs(t.grad - want).max() < 1e-5 * max(1.0, np.abs(want).max())
        # the input-gradient unfold runs only for a trainable input
        if layouts is not None:
            assert tuple(taken) == (layouts if x.requires_grad else layouts[:1])

    @pytest.mark.parametrize("n,last", [
        (14, True),    # 14*8*8 x 288 = 258048 floats, under the 2**18 cap
        (15, False),   # 276480 floats, over it
        (256, False),  # the 256-sample evaluation encode's 16384 x 288 columns
    ])
    def test_channels_last_columns_are_capped(self, n, last):
        # 32 channels at 8x8 out: kw*c = 96 >= 3*wo = 24 picks channels-last
        # wherever the columns fit under the cap
        x = np.zeros((n, 32, 16, 16), dtype=np.float32)
        cols, ho, wo, got = tt._im2col(x, 3, 3, 2, (1, 1, 1, 1))
        assert (ho, wo, got) == (8, 8, last)
        assert cols.shape == ((n * 64, 288) if last else (288, n * 64))

    def test_subnormal_output_gradient_reaches_the_kernel_gradient(self):
        rng = RngState(7)
        x_np, w_np = rng.normal((2, 2, 4, 4)) * 1e6, rng.normal((3, 2, 3, 3))
        x, w = Tensor(x_np, requires_grad=True), Tensor(w_np, requires_grad=True)
        y = tt.conv2d(x, w, stride=1, padding=1)
        g = np.full(y.shape, 1e-39, dtype=np.float32)
        assert 0 < g.flat[0] < np.finfo(np.float32).tiny
        tt.backward(y, seed_grad=g)
        want_w = conv2d_grad_oracle(x_np, w_np, 1, 1, g)[1]
        assert np.abs(w.grad - want_w).max() < 1e-5 * np.abs(want_w).max()

    def test_weight_gradient_at_the_largest_training_shape(self):
        # the autoencoder decoder's last conv, 16->3 at 32x32 over a batch of
        # 8: each entry sums 8*32*32 = 8192 float32 products
        rng = RngState(32)
        x_np, w_np = rng.normal((8, 16, 32, 32)), rng.normal((3, 16, 3, 3)) * 0.1
        w = Tensor(w_np, requires_grad=True)
        y = tt.conv2d(Tensor(x_np), w, stride=1, padding=1)
        g = rng.normal(y.shape)
        tt.backward(y, seed_grad=g)
        # float64 oracle, one kernel tap at a time
        xp, want = _pad(x_np, 1), np.zeros(w_np.shape)
        for u, v in itertools.product(range(3), range(3)):
            want[:, :, u, v] = np.einsum("noij,ncij->oc", g.astype(np.float64),
                                         xp[:, :, u:u + 32, v:v + 32])
        assert w.grad.dtype == np.float32
        assert np.abs(w.grad - want).max() < 1e-5 * np.abs(want).max()


    def test_tap_oracle_matches_loop_oracle(self):
        rng = RngState(41)
        for k, padding in itertools.product((1, 3), (0, 1)):
            x, w = rng.normal((2, 3, 5, 6)), rng.normal((2, 3, k, k))
            g = rng.normal(conv2d_oracle(x, w, 1, padding).shape)
            y, gx, gw = conv2d_tap_oracle(x, w, padding, g)
            want_gx, want_gw = conv2d_grad_oracle(x, w, 1, padding, g)
            # the loop oracle's gradient products of float32 g and w are float32
            for have, want in ((y, conv2d_oracle(x, w, 1, padding)), (gx, want_gx), (gw, want_gw)):
                assert np.abs(have - want).max() < 1e-6

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("k,padding", [(1, 0), (1, 1), (3, 0), (3, 1)])
    @pytest.mark.parametrize("c,o,hw", [(16, 3, 32), (32, 16, 16)],
                             ids=["c16-o3-32x32", "c32-o16-16x16"])
    def test_kn2row_matches_tap_oracle(self, c, o, hw, k, padding, frozen, with_bias, monkeypatch):
        # the autoencoder decoder's and the inverse net's narrow convolutions
        # at batch 8 take kn2row: no columns are unfolded in either direction
        def no_columns(*args):
            raise AssertionError("_im2col ran on a kn2row shape")

        monkeypatch.setattr(tt, "_im2col", no_columns)
        rng = RngState(10 * c + o + k + padding)
        x_np, w_np, b_np = rng.normal((8, c, hw, hw)), rng.normal((o, c, k, k)) * 0.2, rng.normal((o,))
        x = Tensor(x_np, requires_grad=True)
        w = Tensor(w_np, requires_grad=not frozen)
        b = Tensor(b_np, requires_grad=not frozen) if with_bias else None
        y = tt.conv2d(x, w, stride=1, padding=padding, bias=b)
        g = rng.normal(y.shape)
        tt.backward(y, seed_grad=g)
        want_y, want_x, want_w = conv2d_tap_oracle(x_np, w_np, padding, g)
        got = [(y.data, want_y + (b_np.reshape(1, o, 1, 1) if with_bias else 0)), (x.grad, want_x)]
        if frozen:
            assert w.grad is None and (b is None or b.grad is None)
            assert list(w._packs[1]) == ["taps"]
        else:
            got.append((w.grad, want_w))
            if with_bias:
                got.append((b.grad, g.astype(np.float64).sum(axis=(0, 2, 3))))
        assert y.data.flags.c_contiguous and x.grad.flags.c_contiguous
        for have, want in got:
            assert have.dtype == np.float32 and have.shape == want.shape
            assert np.abs(have - want).max() < 1e-5 * max(1.0, np.abs(want).max())

    def test_kn2row_tap_that_reads_only_padding(self):
        # an 8x3 kernel over 4 rows padded by 2: ho = 1, and the first and last
        # two kernel rows read only padding (out of the map by two rows or more)
        rng = RngState(43)
        x_np, w_np = rng.normal((1, 4, 4, 256)), rng.normal((2, 4, 8, 3))
        x, w = Tensor(x_np, requires_grad=True), Tensor(w_np, requires_grad=True)
        y = tt.conv2d(x, w, stride=1, padding=2)
        assert y.shape == (1, 2, 1, 258)
        g = rng.normal(y.shape)
        tt.backward(y, seed_grad=g)
        for have, want in zip((y.data, x.grad, w.grad), conv2d_tap_oracle(x_np, w_np, 2, g)):
            assert np.abs(have - want).max() < 1e-5 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("length,lo,size,dilate", [
        (4, 0, 4, 1), (4, 2, 6, 1), (4, -2, 2, 1), (4, -5, 3, 1), (4, 7, 3, 1),
        (4, 1, 9, 2), (4, -3, 5, 2), (4, -8, 3, 2), (3, -6, 6, 3), (4, 4, 3, 2),
    ])
    def test_axis_slices_place_each_sample_that_lands_in_a_slot(self, length, lo, size, dilate):
        # sample i goes to slot lo + dilate*i; those outside the slots are cropped
        kept = [i for i in range(length) if 0 <= lo + dilate * i < size]
        src, dst = tt._axis_slices(length, lo, size, dilate)
        assert np.arange(length)[src].tolist() == kept
        assert np.arange(size)[dst].tolist() == [lo + dilate * i for i in kept]

    @pytest.mark.parametrize("n,c,o,hw,stride,kn2row", [
        (8, 16, 3, 32, 1, True),     # the decoder's last conv while pretraining
        (1, 16, 3, 32, 1, True),     # the same over one sample: 1024 positions
        (8, 32, 16, 16, 1, True),
        (2, 32, 16, 16, 1, False),   # 512 positions
        (256, 32, 4, 8, 1, True),    # a 256-sample encode's 32->4 conv at 8x8
        (4, 32, 4, 8, 1, False),     # the server's 32->4 conv at 8x8
        (8, 32, 24, 16, 1, False),   # 2*o > c
        (8, 32, 16, 16, 2, False),   # stride 2
    ])
    def test_kn2row_rule(self, n, c, o, hw, stride, kn2row):
        assert tt._kn2row_fits(n, c, o, stride, hw, hw) is kn2row


def test_first_gradients_are_copies_not_views():
    # add hands the same array to both operands; reshape and the two
    # concat slices hand on views of their output gradient
    rng = RngState(23)
    x = Tensor(rng.normal((2, 8, 3, 3)), requires_grad=True)
    r = Tensor(rng.normal((2, 72)), requires_grad=True)
    a = Tensor(rng.normal((2, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal((2, 5, 3, 3)), requires_grad=True)
    s = tt.add(tt.add(x, x), tt.reshape(r, (2, 8, 3, 3)))
    y = tt.add(s, tt.concat([a, b], 1))
    g = rng.normal(y.shape)
    g_before = g.copy()
    tt.backward(y, seed_grad=g)
    assert x.grad.tobytes() == (g + g).tobytes()
    assert r.grad.tobytes() == g.reshape(2, 72).tobytes()
    assert a.grad.tobytes() == np.ascontiguousarray(g[:, :3]).tobytes()
    assert b.grad.tobytes() == np.ascontiguousarray(g[:, 3:]).tobytes()
    assert g.tobytes() == g_before.tobytes()
    grads = [t.grad for t in (x, r, a, b, s, y)]
    for i, gi in enumerate(grads):
        assert gi.dtype == np.float32 and gi.flags.c_contiguous
        assert not np.shares_memory(gi, g)
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)


class TestConcat:
    def test_row_gradient_is_each_parts_slice(self):
        # the batch axis joins the row chunks of a whole-split client pass
        rng = RngState(29)
        parts = [Tensor(rng.normal((rows, 3, 2, 2)), requires_grad=grad)
                 for rows, grad in ((2, True), (3, False), (1, True))]
        y = tt.concat(parts, 0)
        assert y.data.tobytes() == np.concatenate([p.data for p in parts]).tobytes()
        g = rng.normal(y.shape)
        tt.backward(y, seed_grad=g)
        assert parts[0].grad.tobytes() == g[:2].tobytes()
        assert parts[1].grad is None
        assert parts[2].grad.tobytes() == g[5:].tobytes()

    @pytest.mark.parametrize("shapes, axis", [
        ([(2, 3, 2, 2), (2, 4, 2, 2)], 0),   # rows joined, channels differ
        ([(2, 3, 2, 2), (1, 3, 2, 2)], 1),   # channels joined, rows differ
        ([(2, 3, 2, 2), (2, 3, 2)], 0),
        ([(2, 3)], 2),
        ([], 0),
    ])
    def test_parts_that_do_not_fit_are_refused(self, shapes, axis):
        with pytest.raises(ShapeError, match="concat"):
            tt.concat([Tensor(np.zeros(s)) for s in shapes], axis)


def test_first_gradient_of_another_shape_is_refused():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match="gradient shape"):
        x._accumulate(np.zeros((3,), dtype=np.float32))


def test_later_gradient_that_broadcasts_is_refused():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    x._accumulate(np.ones((4, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="gradient shape"):
        x._accumulate(np.ones((1, 3), dtype=np.float32))
    assert np.array_equal(x.grad, np.ones((4, 3), dtype=np.float32))


@pytest.mark.parametrize("n,c,o,hw,stride", [
    (4, 64, 64, 4, 1),   # channels-last unfolds both ways
    (4, 4, 32, 8, 1),    # channels-first forward, channels-last input gradient
    (4, 4, 64, 8, 2),
    (2, 3, 5, 6, 2),
])
@pytest.mark.parametrize("frozen", [False, True])
def test_conv2d_bias_equals_bias_add(n, c, o, hw, stride, frozen):
    rng = RngState(n * c + o)
    x_np, w_np, b_np = rng.normal((n, c, hw, hw)), rng.normal((o, c, 3, 3)) * 0.1, rng.normal((o,))
    runs = []
    for fused in (False, True):
        x = Tensor(x_np, requires_grad=True)
        w = Tensor(w_np, requires_grad=not frozen)
        b = Tensor(b_np, requires_grad=True)
        if fused:
            y = tt.conv2d(x, w, stride=stride, padding=1, bias=b)
        else:
            y = tt.bias_add(tt.conv2d(x, w, stride=stride, padding=1), b)
        tt.backward(y, seed_grad=RngState(3).normal(y.shape))
        assert y.data.flags.c_contiguous
        runs.append([y.data.tobytes(), x.grad.tobytes(), b.grad.tobytes(),
                     None if frozen else w.grad.tobytes()])
    assert runs[0] == runs[1]


def test_conv2d_rejects_a_bias_of_another_length():
    with pytest.raises(ShapeError, match="bias"):
        tt.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))),
                  bias=Tensor(np.zeros(2)))


def conv_with_grads(x_np, w: Tensor, g):
    """Output and input gradient of conv2d(x, w) (stride 1, padding 1) under seed g."""
    x = Tensor(x_np, requires_grad=True)
    y = tt.conv2d(x, w, padding=1)
    tt.backward(y, seed_grad=g)
    return y.data.tobytes() + x.grad.tobytes()


class TestKernelPacks:
    """A frozen kernel's GEMM layouts are packed once and never go stale."""

    # 64 channels at 4x4 unfold channels-last; 4 channels at 8x8 forward
    # channels-first with a channels-last input gradient
    SHAPES = [((4, 64, 4, 4), (64, 64, 3, 3)), ((4, 4, 8, 8), (32, 4, 3, 3))]

    @pytest.mark.parametrize("x_shape,w_shape", SHAPES)
    def test_frozen_kernel_is_packed_once_per_layout(self, x_shape, w_shape):
        rng = RngState(31)
        x_np, w = rng.normal(x_shape), Tensor(rng.normal(w_shape) * 0.1)
        g = rng.normal((x_shape[0], w_shape[0]) + x_shape[2:])
        want = conv_with_grads(x_np, Tensor(w.data.copy()), g)
        assert conv_with_grads(x_np, w, g) == want
        packed_from, packs = w._packs
        assert packed_from is w.data and len(packs) == 2  # forward and input gradient
        kept = dict(packs)
        for _ in range(3):
            assert conv_with_grads(x_np, w, g) == want
        assert w._packs[1].keys() == kept.keys()
        assert all(w._packs[1][k] is m for k, m in kept.items())

    @pytest.mark.parametrize("x_shape,w_shape", SHAPES)
    def test_trainable_kernel_is_never_served_a_pack(self, x_shape, w_shape, monkeypatch):
        rng = RngState(32)
        x_np, w = rng.normal(x_shape), Tensor(rng.normal(w_shape) * 0.1)
        g = rng.normal((x_shape[0], w_shape[0]) + x_shape[2:])
        conv_with_grads(x_np, w, g)
        assert w._packs is not None
        kept = []
        kernel_matrix = tt._kernel_matrix

        def spy(kernel, last, flip=False):
            m = kernel_matrix(kernel, last, flip)
            if kernel is w:
                kept.append(kernel._packs)
            return m

        monkeypatch.setattr(tt, "_kernel_matrix", spy)
        w.requires_grad = True
        for _ in range(2):
            w.data[...] += np.float32(0.5)  # as an optimizer would, in place
            assert conv_with_grads(x_np, w, g) == conv_with_grads(x_np, Tensor(w.data.copy()), g)
            assert w._packs is None
        assert len(kept) == 4 and all(packs is None for packs in kept)

    def test_no_pack_is_stale(self):
        rng = RngState(33)
        (x_shape, w_shape), _ = self.SHAPES
        x_np, w = rng.normal(x_shape), Tensor(rng.normal(w_shape) * 0.1)
        g = rng.normal(x_shape[:1] + w_shape[:1] + x_shape[2:])

        def fresh():
            return conv_with_grads(x_np, Tensor(w.data.copy()), g)

        conv_with_grads(x_np, w, g)
        # trainable for a while, changed in place, then frozen again
        w.requires_grad = True
        conv_with_grads(x_np, w, g)
        w.data[...] *= np.float32(2.0)
        w.requires_grad = False
        assert conv_with_grads(x_np, w, g) == fresh()
        # data rebound to another array
        w.data = w.data * np.float32(-1.0)
        assert conv_with_grads(x_np, w, g) == fresh()
        assert w._packs[0] is w.data

    def test_kn2row_taps_are_packed_once_and_never_stale(self):
        rng = RngState(34)
        x_np, w = rng.normal((8, 16, 32, 32)), Tensor(rng.normal((3, 16, 3, 3)) * 0.1)
        g = rng.normal((8, 3, 32, 32))

        def fresh():
            return conv_with_grads(x_np, Tensor(w.data.copy()), g)

        want = fresh()
        assert conv_with_grads(x_np, w, g) == want
        taps = w._packs[1]["taps"]
        assert list(w._packs[1]) == ["taps"] and taps.shape == (27, 16)
        assert conv_with_grads(x_np, w, g) == want and w._packs[1]["taps"] is taps
        w.requires_grad = True
        w.data[...] *= np.float32(2.0)
        assert conv_with_grads(x_np, w, g) == fresh() and w._packs is None
        w.requires_grad = False
        assert conv_with_grads(x_np, w, g) == fresh() and w._packs[1]["taps"] is not taps


@pytest.mark.parametrize("shape", [(4, 64, 8, 8), (8, 32, 16, 16), (8, 16, 32, 32), (3, 5, 6, 7)])
def test_upsample2x_gradient_matches_the_2x2_reduction(shape):
    n, c, h, w = shape
    x = Tensor(np.zeros(shape), requires_grad=True)
    g = RngState(sum(shape)).normal((n, c, 2 * h, 2 * w))
    tt.backward(tt.upsample2x(x), seed_grad=g)
    want = g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
    assert x.grad.dtype == np.float32
    assert x.grad.tobytes() == want.tobytes()


def conv2d_grad_bytes():
    """Gradient bytes of one conv2d forward and backward at three training
    shapes: the 64->64 mid block at 4x4 (batch 4), the 32->16 decoder conv at
    32x32 (batch 16) and the stride-2 4->64 control-branch conv at 8x8
    (batch 4)."""
    out = b""
    for n, c, hw, o, stride in ((4, 64, 4, 64, 1), (16, 32, 32, 16, 1), (4, 4, 8, 64, 2)):
        rng = RngState(hw)
        x = Tensor(rng.normal((n, c, hw, hw)), requires_grad=True)
        w = Tensor(rng.normal((o, c, 3, 3)) * 0.1, requires_grad=True)
        y = tt.conv2d(x, w, stride=stride, padding=1)
        tt.backward(y, seed_grad=rng.normal(y.shape))
        out += y.data.tobytes() + x.grad.tobytes() + w.grad.tobytes()
    return out


def test_conv2d_gradients_independent_of_blas_threads():
    # the default BLAS thread count here against one thread in a fresh process
    src = str(Path(tt.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = [src, tests] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    code = "import sys, test_tensor; sys.stdout.buffer.write(test_tensor.conv2d_grad_bytes())"
    one_thread = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                check=True, timeout=120).stdout
    assert one_thread == conv2d_grad_bytes()


class TestDense:
    def test_identity(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        w = Tensor(np.eye(2, dtype=np.float32))
        y = tt.dense(x, w)
        assert np.array_equal(y.data, x.data)

    def test_affine_by_hand(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        w = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor(np.array([3.0, 3.0], dtype=np.float32))
        y = tt.dense(x, w, b)
        assert np.array_equal(y.data, np.array([[4.0, 5.0]], dtype=np.float32))

    def test_matches_loop_oracle(self):
        rng = RngState(13)
        x = rng.normal((4, 8))
        w = rng.normal((8, 3))
        got = tt.matmul(Tensor(x), Tensor(w)).data
        want = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(8):
                    want[i, j] += x[i, k] * w[k, j]
        assert np.abs(got - want).max() < 1e-6

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestPointwise:
    def test_sigmoid_zero(self):
        assert tt.sigmoid(Tensor(np.zeros(1, np.float32))).data[0] == 0.5

    def test_silu_zero(self):
        assert tt.silu(Tensor(np.zeros(1, np.float32))).data[0] == 0.0

    def test_silu_one(self):
        y = tt.silu(Tensor(np.ones(1, np.float32))).data[0]
        assert abs(y - 0.7310585786300049) < 1e-6

    def test_silu_gradient_zeroes_only_subnormal_values(self):
        # at x = -85 the slope is about -1e-35; times 1e-4 it is subnormal
        x = Tensor(np.array([-85.0, -85.0, 0.5], dtype=np.float32), requires_grad=True)
        g = np.array([1e-4, 1.0, 1.0], dtype=np.float32)
        tt.backward(tt.silu(x), seed_grad=g)
        s = 1.0 / (1.0 + np.exp(-x.data.astype(np.float64)))
        slope = s + x.data * s * (1.0 - s)
        assert 0 < abs(1e-4 * slope[0]) < np.finfo(np.float32).tiny
        assert x.grad[0] == 0.0
        assert np.abs(x.grad[1:] - slope[1:]).max() < 1e-6 * np.abs(slope[1:]).max()

    def test_abs_and_relu(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0], dtype=np.float32))
        assert np.array_equal(tt.abs_(x).data, [2.0, 0.0, 3.0])
        assert np.array_equal(tt.relu(x).data, [0.0, 0.0, 3.0])


_TINY = np.finfo(np.float32).tiny


def _subnormal(a: np.ndarray) -> np.ndarray:
    return (a != 0) & (np.abs(a) < _TINY)


class TestSubnormalFlush:
    """Where a saturating op's gradient underflows, the op zeroes the
    subnormal values and leaves every normal one as it was."""

    @staticmethod
    def _grads(monkeypatch, op, x, capture=None):
        """The gradient `op` hands its input, unflushed and as the op makes
        it, from a backward seeded with random values; with `capture` named,
        the values that tensor function returns instead."""

        def run():
            seen = []
            if capture is not None:
                fn = getattr(tt, capture)
                monkeypatch.setattr(tt, capture, lambda *a: seen.append(fn(*a)) or seen[-1])
            xt = Tensor(x, requires_grad=True)
            out = op(xt)
            tt.backward(out, seed_grad=RngState(5).normal(out.shape))
            monkeypatch.undo()
            return (seen[0] if seen else xt.grad), xt.grad

        monkeypatch.setattr(tt, "_flush_subnormals", lambda a: a)
        raw, raw_x = run()
        flushed, flushed_x = run()
        return raw, flushed, raw_x, flushed_x

    @staticmethod
    def _check(raw, flushed):
        sub = _subnormal(raw)
        assert sub.any(), "the inputs do not saturate"
        assert not _subnormal(flushed).any()
        assert not flushed[sub].any()
        assert np.array_equal(flushed[~sub], raw[~sub])

    def test_sigmoid(self, monkeypatch):
        x = np.linspace(-110.0, 20.0, 4096, dtype=np.float32).reshape(4, 1024)
        raw, flushed, _, _ = self._grads(monkeypatch, tt.sigmoid, x)
        self._check(raw, flushed)

    @pytest.mark.parametrize("op", [tt.mse, tt.row_mse])
    def test_mse(self, monkeypatch, op):
        # a saturated sigmoid output against a black target
        x = np.exp(-np.linspace(0.0, 100.0, 3 * 256, dtype=np.float32)).reshape(3, 4, 8, 8)
        target = Tensor(np.zeros_like(x))
        raw, flushed, _, _ = self._grads(monkeypatch, lambda a: op(a, target), x)
        self._check(raw, flushed)

    def test_softmax_last(self, monkeypatch):
        x = RngState(6).normal((4, 16, 16)) * np.float32(30.0)
        raw, flushed, _, _ = self._grads(monkeypatch, tt.softmax_last, x)
        self._check(raw, flushed)

    def test_self_attention(self, monkeypatch):
        # long tokens: the attention of each over the others underflows
        x = RngState(7).normal((2, 4, 4, 4)) * np.float32(6.0)
        raw, flushed, raw_x, flushed_x = self._grads(monkeypatch, tt.self_attention, x,
                                                     capture="_softmax_grad")
        self._check(raw, flushed)
        assert np.array_equal(flushed_x, raw_x)


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.arange(8, dtype=np.float32))
        y = tt.dropout(x, 0.0, RngState(1), training=True)
        assert np.array_equal(y.data, x.data)

    def test_eval_identity(self):
        x = Tensor(np.arange(8, dtype=np.float32))
        y = tt.dropout(x, 0.9, RngState(1), training=False)
        assert np.array_equal(y.data, x.data)

    def test_survivor_fraction(self):
        x = Tensor(np.ones(100_000, dtype=np.float32))
        y = tt.dropout(x, 0.5, RngState(2), training=True)
        frac = np.count_nonzero(y.data) / y.data.size
        assert abs(frac - 0.5) < 0.01

    def test_zeroed_positions_block_gradient(self):
        x = Tensor(np.ones(1000, dtype=np.float32), requires_grad=True)
        y = tt.dropout(x, 0.5, RngState(3), training=True)
        tt.sum_all(y).backward()
        dead = y.data == 0
        assert np.all(x.grad[dead] == 0.0)
        assert np.all(x.grad[~dead] == 2.0)  # survivors scaled by 1/(1-p)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            tt.dropout(Tensor(np.zeros(2)), 1.0, RngState(1))


def attention_oracle(q, k, v):
    n, l, d = q.shape
    m = k.shape[1]
    out = np.zeros((n, l, v.shape[2]))
    for b in range(n):
        for i in range(l):
            scores = np.array([np.dot(q[b, i], k[b, j]) / np.sqrt(d) for j in range(m)])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            out[b, i] = sum(w[j] * v[b, j] for j in range(m))
    return out


class TestAttention:
    def test_single_key_broadcasts_value(self):
        rng = RngState(14)
        q = rng.normal((1, 5, 4))
        v = rng.normal((1, 1, 4))
        out = tt.attention(Tensor(q), Tensor(rng.normal((1, 1, 4))), Tensor(v)).data
        assert np.abs(out - np.broadcast_to(v, (1, 5, 4))).max() < 1e-6

    def test_identical_keys_uniform_weights(self):
        rng = RngState(15)
        q = rng.normal((1, 2, 4))
        k = np.broadcast_to(rng.normal((1, 1, 4)), (1, 3, 4)).copy()
        v = rng.normal((1, 3, 4))
        out = tt.attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.abs(out - v.mean(axis=1, keepdims=True)).max() < 1e-6

    def test_matches_loop_oracle(self):
        rng = RngState(16)
        q = rng.normal((1, 2, 4))
        k = rng.normal((1, 3, 4))
        v = rng.normal((1, 3, 4))
        got = tt.attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.abs(got - attention_oracle(q, k, v)).max() < 1e-6

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            tt.attention(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 3, 5))),
                         Tensor(np.zeros((1, 3, 5))))


class TestBackward:
    def test_sum_gradient(self):
        w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        tt.sum_all(w).backward()
        assert np.array_equal(w.grad, np.ones(3, dtype=np.float32))

    def test_square_sum_gradient(self):
        w = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
        tt.sum_squares(w).backward()
        assert np.array_equal(w.grad, np.array([2.0, 4.0, 6.0], dtype=np.float32))

    def test_non_scalar_loss_raises(self):
        w = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            tt.backward(tt.scale(w, 2.0))

    def test_grads_accumulate(self):
        w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        tt.sum_all(w).backward()
        tt.sum_all(w).backward()
        assert np.array_equal(w.grad, np.full(2, 2.0, dtype=np.float32))

    def test_seeded_backward_mid_graph(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = tt.scale(w, 3.0)
        seed = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        tt.backward(y, seed_grad=seed)
        assert np.array_equal(w.grad, 3.0 * seed)


def numeric_grad(f, x, h=1e-3):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def assert_grad_close(analytic, numeric, tol=1e-3):
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert np.max(np.abs(analytic - numeric) / denom) < tol


OPS = {
    "conv2d": lambda x, rng: tt.conv2d(x, Tensor(rng.normal((2, 2, 2, 2)) * 0.5), 1, 1),
    "silu": lambda x, rng: tt.silu(x),
    "sigmoid": lambda x, rng: tt.sigmoid(x),
    "relu": lambda x, rng: tt.relu(x),
    "abs": lambda x, rng: tt.abs_(x),
    "softmax": lambda x, rng: tt.softmax_last(tt.reshape(x, (2, 9))),
    "upsample": lambda x, rng: tt.upsample2x(x),
    "permute": lambda x, rng: tt.permute(x, (0, 2, 3, 1)),
    "mul_self": lambda x, rng: tt.mul(x, x),
    # halved so that the residual's float32 rounding stays out of the quotient
    "self_attention": lambda x, rng: tt.self_attention(tt.scale(x, 0.5)),
    "cross_attention": lambda x, rng: tt.cross_attention(
        x, Tensor(rng.normal((1, 4, 3))), *(Tensor(rng.normal(s) * 0.5)
                                            for s in ((2, 5), (3, 5), (3, 5), (5, 2)))),
    "concat_rows": lambda x, rng: tt.concat([tt.scale(x, 2.0), tt.silu(x), x], 0),
    "conv2d_bias": lambda x, rng: tt.conv2d(x, Tensor(rng.normal((2, 2, 2, 2)) * 0.5), 1, 1,
                                            bias=Tensor(rng.normal((2,)) * 0.5)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_finite_difference_gradients(name):
    # small shapes keep fp32 rounding noise in the difference quotient
    # well under the 1e-3 tolerance
    rng = RngState(zlib.crc32(name.encode()) & 0xFFFF)
    x_np = rng.normal((1, 2, 3, 3)) * 0.7 + 0.1
    x = Tensor(x_np, requires_grad=True)
    op = OPS[name]

    y = op(x, RngState(5))
    tt.sum_squares(y).backward()
    analytic = x.grad.copy()

    def f():
        out = op(Tensor(x_np), RngState(5))
        return float(np.sum(out.data.astype(np.float64) ** 2))

    assert_grad_close(analytic, numeric_grad(f, x_np))


def test_attention_gradients():
    rng = RngState(77)
    q_np, k_np, v_np = rng.normal((1, 3, 4)), rng.normal((1, 2, 4)), rng.normal((1, 2, 4))
    q = Tensor(q_np, requires_grad=True)
    k = Tensor(k_np, requires_grad=True)
    v = Tensor(v_np, requires_grad=True)
    tt.sum_squares(tt.attention(q, k, v)).backward()

    for target, name in ((q_np, "q"), (k_np, "k"), (v_np, "v")):
        def f():
            out = tt.attention(Tensor(q_np), Tensor(k_np), Tensor(v_np))
            return float(np.sum(out.data.astype(np.float64) ** 2))

        analytic = {"q": q.grad, "k": k.grad, "v": v.grad}[name]
        assert_grad_close(analytic, numeric_grad(f, target))


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW([p], lr=0.1)
        p.grad = np.zeros_like(p.data)
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_hand_computed(self):
        # m_hat = g, v_hat = g^2 after bias correction, so the update is
        # -lr * g / (|g| + eps) ~= -lr * sign(g)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamW([p], lr=0.01)
        p.grad = np.array([0.5], dtype=np.float32)
        opt.step()
        expected = 1.0 - 0.01 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert abs(p.data[0] - expected) < 1e-7
        assert p.data[0] < 1.0  # moved against the gradient sign

    def test_missing_grad_raises(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = AdamW([p])
        with pytest.raises(RuntimeError, match="no grad"):
            opt.step()

    def test_determinism_100_steps(self):
        def run():
            rng = RngState(99)
            p = Tensor(rng.normal((4, 4)), requires_grad=True)
            opt = AdamW([p], lr=1e-2)
            grad_rng = RngState(100)
            for _ in range(100):
                p.grad = grad_rng.normal(p.shape)
                opt.step()
            return p.data.tobytes()

        assert run() == run()


class TestRng:
    def test_identical_streams(self):
        a = RngState(1234)
        b = RngState(1234)
        assert a.normal((16,)).tobytes() == b.normal((16,)).tobytes()
        assert a.integers(0, 100, (8,)).tolist() == b.integers(0, 100, (8,)).tolist()

    def test_split_independent_of_draw_order(self):
        a = RngState(7)
        child_before = a.split("x")
        a.normal((100,))
        child_after = a.split("x")
        assert child_before.normal((4,)).tobytes() == child_after.normal((4,)).tobytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self):
        rng = RngState(21)
        tensors = {
            "enc.w": rng.normal((4, 3, 3, 3)),
            "enc.b": rng.normal((4,)),
            "scalarish": rng.normal(()),
        }
        back = parse_checkpoint(dump_checkpoint(tensors))
        assert set(back) == set(tensors)
        for k in tensors:
            assert back[k].tobytes() == np.ascontiguousarray(tensors[k], dtype="<f4").tobytes()
            assert back[k].shape == np.asarray(tensors[k]).shape

    def test_bad_magic(self):
        from splitstream.checkpoint import CheckpointError

        with pytest.raises(CheckpointError, match="magic"):
            parse_checkpoint(b"NOPE" + b"\x00" * 16)

    def test_truncation(self):
        from splitstream.checkpoint import CheckpointError

        blob = dump_checkpoint({"w": np.ones((4, 4), dtype=np.float32)})
        with pytest.raises(CheckpointError, match="truncated"):
            parse_checkpoint(blob[:-8])

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (65536,) * 4])
    def test_wrapped_dims(self, dims):
        # both element counts wrap to 0 in int64
        with pytest.raises(CheckpointError, match="implausible tensor dims"):
            parse_checkpoint(_checkpoint((b"w", dims, b"")))

    def test_name_that_is_not_utf8(self):
        with pytest.raises(CheckpointError, match="UTF-8"):
            parse_checkpoint(_checkpoint((b"\xffw", (2,), bytes(8))))

    def test_trailing_bytes(self):
        blob = dump_checkpoint({"w": np.ones((4, 4), dtype=np.float32)})
        with pytest.raises(CheckpointError, match="1 trailing"):
            parse_checkpoint(blob + b"\x00")

    def test_duplicate_name(self):
        record = (b"w", (2,), bytes(8))
        assert parse_checkpoint(_checkpoint(record))["w"].shape == (2,)
        with pytest.raises(CheckpointError, match="duplicate"):
            parse_checkpoint(_checkpoint(record, record))


def _checkpoint(*records) -> bytes:
    """A TCKP blob of (name bytes, declared dims, data bytes) records, unchecked."""
    return b"TCKP" + struct.pack("<BI", 1, len(records)) + b"".join(
        struct.pack(f"<H{len(name)}sB{len(dims)}I", len(name), name, len(dims), *dims) + data
        for name, dims, data in records)


CHECKPOINT_BLOB = dump_checkpoint({"enc.w": RngState(22).normal((2, 3)),
                                   "enc.b": RngState(23).normal((2,)), "s": RngState(24).normal(())})


@st.composite
def mutated_checkpoints(draw):
    """A valid checkpoint with a few bytes, u32 words or its tail changed."""
    blob = bytearray(CHECKPOINT_BLOB)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob) - 1))
        kind = draw(st.sampled_from(["byte", "u32", "cut", "append"]))
        if kind == "byte":
            blob[pos] = draw(st.integers(0, 255))
        elif kind == "u32":  # lands on counts, lengths or dims
            word = draw(st.one_of(st.sampled_from([0, 1, 65536, 2**31, 2**32 - 1]),
                                  st.integers(0, 2**32 - 1)))
            blob[pos : pos + 4] = struct.pack("<I", word)
        elif kind == "cut":
            del blob[pos:]
        else:
            blob += draw(st.binary(min_size=1, max_size=8))
        if not blob:
            break
    return bytes(blob)


@st.composite
def forged_checkpoints(draw):
    """Checkpoints with a valid header whose records hold any name and any tensor header."""
    dims = st.lists(st.one_of(st.integers(0, 4), st.sampled_from([65536, 2**31, 2**32 - 1])),
                    max_size=9)
    records = draw(st.lists(st.tuples(st.binary(max_size=6), dims, st.binary(max_size=64)),
                            min_size=1, max_size=3))
    return _checkpoint(*records)


@given(st.one_of(st.binary(max_size=96), st.binary(max_size=96).map(lambda b: b"TCKP" + b),
                 mutated_checkpoints(), forged_checkpoints()))
@settings(max_examples=400, deadline=None)
def test_checkpoint_parser_raises_only_checkpoint_error(blob):
    try:
        parse_checkpoint(blob)
    except CheckpointError:
        pass


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=25, deadline=None)
def test_rng_streams_reproducible(seed):
    assert RngState(seed).normal((8,)).tobytes() == RngState(seed).normal((8,)).tobytes()


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=32))
@settings(max_examples=50, deadline=None)
def test_add_mul_shape_and_values(vals):
    x = np.array(vals, dtype=np.float32)
    a, b = Tensor(x), Tensor(x)
    assert np.allclose(tt.add(a, b).data, 2 * x, atol=1e-4)
    assert np.allclose(tt.mul(a, b).data, x * x, rtol=1e-5, atol=1e-6)


def test_shape_error_mentions_offending_dims():
    try:
        tt.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    except ShapeError as e:
        assert "(2, 3)" in str(e) and "(3, 2)" in str(e)
    else:
        pytest.fail("expected ShapeError")
