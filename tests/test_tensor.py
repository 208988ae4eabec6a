"""Tensor core: op semantics against brute-force oracles, autodiff against
finite differences, optimizer and RNG determinism."""

import itertools
import os
import struct
import subprocess
import sys
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
        with pytest.raises(ShapeError, match="stride >= 1 and padding >= 0"):
            tt.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), stride, padding)

    @pytest.mark.parametrize("trainable", ["both", "kernel", "input"])
    @pytest.mark.parametrize("k,stride,padding,hw", [
        # 6x7 and 7x6 at stride 2 leave an unread row or column, as 8x8 with k3 s2 p1 does
        pytest.param(k, s, p, hw,
                     id="-".join(map(str, (k, s, p))) + ("" if hw == (5, 5) else "-%dx%d" % hw))
        for hw in ((5, 5), (6, 7), (7, 6))
        for k, s, p in itertools.product((1, 3), (1, 2), (0, 1))
    ])
    def test_gradients_match_loop_oracle(self, k, stride, padding, hw, trainable):
        rng = RngState(100 * k + 10 * stride + padding)
        x_np, w_np = rng.normal((4, 2) + hw), rng.normal((3, 2, k, k))
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
        # 8: one float32 GEMM sums K = 8*32*32 = 8192 products per entry
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
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_finite_difference_gradients(name):
    # small shapes keep fp32 rounding noise in the difference quotient
    # well under the 1e-3 tolerance
    rng = RngState(hash(name) & 0xFFFF)
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
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros_like(p.data)
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_hand_computed(self):
        # m_hat = g, v_hat = g^2 after bias correction, so the update is
        # -lr * g / (|g| + eps) ~= -lr * sign(g)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamW([p], lr=0.01, weight_decay=0.0)
        p.grad = np.array([0.5], dtype=np.float32)
        opt.step()
        expected = 1.0 - 0.01 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert abs(p.data[0] - expected) < 1e-7
        assert p.data[0] < 1.0  # moved against the gradient sign

    def test_weight_decay_decoupled(self):
        p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert abs(p.data[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-6

    def test_missing_grad_raises(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = AdamW([p])
        with pytest.raises(RuntimeError, match="no grad"):
            opt.step()

    def test_determinism_100_steps(self):
        def run():
            rng = RngState(99)
            p = Tensor(rng.normal((4, 4)), requires_grad=True)
            opt = AdamW([p], lr=1e-2, weight_decay=1e-2)
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
