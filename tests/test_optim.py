"""The optimizer over one flat buffer: bit-identity with the per-tensor update, and
the guards on its parameter list and on parameters rebound after packing."""

import numpy as np
import pytest

from splitstream.optim import AdamW
from splitstream.rng import RngState
from splitstream.tensor import Tensor

SHAPES = [(4, 3, 3, 3), (4,), (), (5, 7), (1,), (2, 1, 8)]


def per_tensor_step(datas, grads, ms, vs, t, lr, b1, b2, eps):
    """The update one tensor at a time, as it ran before the flat buffer."""
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for d, g, m, v in zip(datas, grads, ms, vs):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        d -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(np.float32)


def make_params(seed):
    rng = RngState(seed)
    return [Tensor(rng.normal(s), requires_grad=True) for s in SHAPES]


def test_matches_per_tensor_oracle():
    params = make_params(41)
    datas = [p.data.copy() for p in params]
    ms = [np.zeros_like(d) for d in datas]
    vs = [np.zeros_like(d) for d in datas]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = AdamW(params, lr=lr)
    rng = RngState(42)
    for t in range(1, 41):
        # gradients shrink over time, so v reaches small magnitudes too
        grads = [rng.normal(p.shape) * np.float32(10.0 ** -(t % 7)) for p in params]
        opt.zero_grad()
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        per_tensor_step(datas, grads, ms, vs, t, lr, b1, b2, eps)
        for p, d in zip(params, datas):
            assert p.data.dtype == np.float32 and p.data.shape == d.shape
            assert p.data.tobytes() == d.tobytes(), f"step {t}"
    assert opt.step_count == 40


def test_packing_keeps_values_and_shares_one_buffer():
    params = make_params(43)
    before = [p.data.copy() for p in params]
    opt = AdamW(params)
    for p, d in zip(params, before):
        assert np.shares_memory(p.data, opt._flat)
        assert p.data.tobytes() == d.tobytes()


def test_empty_parameter_list_rejected():
    with pytest.raises(ValueError, match="empty"):
        AdamW([])


def test_duplicated_parameter_rejected():
    params = make_params(44)
    with pytest.raises(ValueError, match="parameter 3 repeats parameter 1"):
        AdamW(params[:3] + [params[1]])


def test_step_refuses_a_parameter_packed_by_another_optimizer():
    params = make_params(45)
    first = AdamW(params)
    second = AdamW(params[2:])
    for p in params:
        p.grad = np.ones_like(p.data)
    second.step()
    with pytest.raises(RuntimeError, match="parameter 2"):
        first.step()


def test_step_refuses_a_rebound_parameter():
    params = make_params(46)
    opt = AdamW(params)
    params[4].data = params[4].data.copy()
    for p in params:
        p.grad = np.ones_like(p.data)
    with pytest.raises(RuntimeError, match="parameter 4"):
        opt.step()
