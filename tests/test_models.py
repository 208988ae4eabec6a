"""Toy conditional diffusion model: zero-conv neutrality, the
noise-confounding activation's identities, prompt hiding, frozen-weight
conservation."""

import numpy as np
import pytest

from splitstream import models as M
from splitstream import tensor as tt
from splitstream.diffusion import training_loss
from splitstream.models import (ControlBranch, NoiseConfoundingActivation,
                                PromptEncoder, ToyAutoencoder, ToyUNet,
                                noise_confound, param_fingerprint, pretrain_autoencoder,
                                timestep_embedding, unet_denoise)
from splitstream.optim import AdamW
from splitstream.rng import RngState
from splitstream.tensor import Tensor


def server_blocks(unet: ToyUNet) -> tuple:
    """The denoiser blocks behind the cut, in the order the server runs them."""
    return (unet.enc_block_2, unet.mid, unet.dec_block_2, unet.dec_block_1)


def graph_ops(y: Tensor) -> set[str]:
    """Names of the ops (their backward closures' functions) in y's graph."""
    ops, seen, stack = set(), set(), [y]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops.add(node._backward.__qualname__.split(".")[0])
        stack.extend(node._parents)
    return ops


def _dense3(tokens: Tensor, w: Tensor) -> Tensor:
    """(N, L, C) @ (C, A) -> (N, L, A)."""
    n, l, c = tokens.shape
    return tt.reshape(tt.matmul(tt.reshape(tokens, (n * l, c)), w), (n, l, w.shape[1]))


def _plus_on_tokens(h: Tensor, attend) -> Tensor:
    """h + attend(h), with the map h (n, c, hh, ww) seen as n sequences of
    hh*ww tokens of c features."""
    n, c, hh, ww = h.shape
    tok = tt.reshape(tt.permute(h, (0, 2, 3, 1)), (n, hh * ww, c))
    tok = tt.add(tok, attend(tok))
    return tt.permute(tt.reshape(tok, (n, hh, ww, c)), (0, 3, 1, 2))


def composed_cross_attention(h, ctx, wq, wk, wv, wo) -> Tensor:
    """The graph tt.cross_attention replaces, built from the primitive ops."""
    return _plus_on_tokens(h, lambda tok: _dense3(
        tt.attention(_dense3(tok, wq), _dense3(ctx, wk), _dense3(ctx, wv)), wo))


@pytest.fixture(scope="module")
def world():
    rng = RngState(1001)
    unet = ToyUNet(rng.split("unet"))
    unet.freeze()
    ae = ToyAutoencoder(rng.split("ae"))
    ae.freeze()
    branch = ControlBranch(unet)
    pe = PromptEncoder(["one", "red", "circle", "blue", "rect"], rng.split("pe"))
    return unet, ae, branch, pe


class TestNoiseConfound:
    def test_zero_input_returns_delta(self):
        act = NoiseConfoundingActivation.create(RngState(1))
        y = noise_confound(Tensor(np.zeros((2, 4, 8, 8), np.float32)), act).data
        assert np.array_equal(y, np.broadcast_to(act.delta, (2, 4, 8, 8)))

    def test_symmetry_identity(self):
        act = NoiseConfoundingActivation.create(RngState(2))
        x = RngState(3).normal((4, 4, 8, 8)) * 3.0
        lhs = noise_confound(Tensor(x), act).data + noise_confound(Tensor(-x), act).data
        rhs = 2.0 * np.abs(x) + 2.0 * act.delta[None]
        assert np.abs(lhs - rhs).max() < 1e-5

    def test_value_at_one(self):
        act = NoiseConfoundingActivation(delta=np.zeros((1, 1, 1), np.float32))
        y = noise_confound(Tensor(np.ones((1, 1, 1, 1), np.float32)), act).data
        assert abs(float(y.reshape(-1)[0]) - 1.4621171572600098) < 1e-6

    def test_non_injectivity_witness(self):
        # |silu| is not injective on the negatives: the lobe has an interior
        # minimum near -1.2785, so some value is hit twice
        def y(x):
            return 2.0 * abs(x) / (1.0 + np.exp(-x))

        target = y(-0.5)

        def bisect(lo, hi):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if (y(mid) - target) * (y(lo) - target) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        x1 = -0.5
        x2 = bisect(-8.0, -1.2785)
        assert x1 != x2
        assert abs(y(x1) - y(x2)) < 1e-6

    def test_shape_mismatch(self):
        act = NoiseConfoundingActivation.create(RngState(4))
        with pytest.raises(tt.ShapeError):
            noise_confound(Tensor(np.zeros((1, 2, 2, 2), np.float32)), act)

    def test_delta_fixed_across_calls(self):
        act = NoiseConfoundingActivation.create(RngState(5))
        x = RngState(6).normal((1, 4, 8, 8))
        assert np.array_equal(noise_confound(Tensor(x), act).data,
                              noise_confound(Tensor(x), act).data)

    def test_gradient_flows_through(self):
        act = NoiseConfoundingActivation.create(RngState(7))
        x = Tensor(RngState(8).normal((1, 4, 8, 8)), requires_grad=True)
        tt.sum_all(noise_confound(x, act)).backward()
        assert x.grad is not None and np.abs(x.grad).max() > 0


class TestZeroConvNeutrality:
    def test_conditional_equals_unconditional_bit_exact(self, world):
        unet, ae, branch, pe = world
        rng = RngState(9)
        for _ in range(10):
            zt = rng.normal((2, 4, 8, 8))
            prompt = pe.encode([["one", "red"], ["circle"]])
            cond = rng.uniform((2, 3, 32, 32))
            cf = ae.E(Tensor(cond), rng, training=False)
            taps = branch.server_forward(tt.add(Tensor(zt), cf), 100, Tensor(prompt))
            assert all(np.all(t.data == 0.0) for t in taps)
            uncond = unet_denoise(Tensor(zt), 100, Tensor(prompt), [], unet)
            cond_out = unet_denoise(Tensor(zt), 100, Tensor(prompt), taps, unet)
            assert uncond.data.tobytes() == cond_out.data.tobytes()

    def test_tap_count_checked(self, world):
        unet, _, _, pe = world
        zt = RngState(10).normal((1, 4, 8, 8))
        prompt = pe.encode([["one"]])
        with pytest.raises(ValueError, match="taps"):
            unet_denoise(Tensor(zt), 5, Tensor(prompt), [Tensor(np.zeros((1, 4, 8, 8)))], unet)


class TestControlForward:
    def test_zero_condition_runs_copied_encoder_on_zt(self, world):
        unet, _, _, pe = world
        rng = RngState(11)
        branch = ControlBranch(unet)
        # make the zero convs identity so the taps expose the encoder output
        for zc in (branch.zero_conv_1,):
            eye = np.zeros_like(zc.w.data)
            for c in range(eye.shape[0]):
                eye[c, c, 0, 0] = 1.0
            zc.w.data[...] = eye
        zt = rng.normal((1, 4, 8, 8))
        prompt = pe.encode([["one"]])
        taps = branch.server_forward(tt.add(Tensor(zt), Tensor(np.zeros_like(zt))), 7,
                                     Tensor(prompt))
        want = branch.enc_block_1(Tensor(zt), 7, Tensor(prompt))
        assert np.abs(taps[0].data - want.data).max() < 1e-6

    def test_deterministic_with_fixed_act(self, world):
        unet, ae, branch, pe = world
        rng = RngState(12)
        act = NoiseConfoundingActivation.create(rng.split("act"))
        zt = rng.normal((1, 4, 8, 8))
        cond_feat = rng.normal((1, 4, 8, 8))
        prompt = pe.encode([["one"]])

        def taps():
            s = noise_confound(tt.add(Tensor(zt), Tensor(cond_feat)), act)
            return branch.server_forward(s, 9, Tensor(prompt))

        for x, y in zip(taps(), taps()):
            assert x.data.tobytes() == y.data.tobytes()

    def test_gradients_reach_branch_after_one_step(self, world):
        unet, _, _, pe = world
        rng = RngState(13)
        branch = ControlBranch(unet)
        params = list(branch.named_parameters().values())
        opt = AdamW(params, lr=1e-2)
        prompt = pe.encode([["one"]])

        def step():
            zt = rng.normal((1, 4, 8, 8))
            cf = rng.normal((1, 4, 8, 8))
            taps = branch.server_forward(tt.add(Tensor(zt), Tensor(cf)), 50, Tensor(prompt))
            out = unet_denoise(Tensor(zt), 50, Tensor(prompt), taps, unet)
            loss = training_loss(rng.normal((1, 4, 8, 8)), out)
            opt.zero_grad()
            loss.backward()
            opt.step()

        step()  # zero convs move off zero
        zt = rng.normal((1, 4, 8, 8))
        cf = rng.normal((1, 4, 8, 8))
        taps = branch.server_forward(tt.add(Tensor(zt), Tensor(cf)), 50, Tensor(prompt))
        out = unet_denoise(Tensor(zt), 50, Tensor(prompt), taps, unet)
        loss = training_loss(rng.normal((1, 4, 8, 8)), out)
        opt.zero_grad()
        loss.backward()
        interior = branch.enc_block_1.conv1.w.grad
        assert interior is not None and np.abs(interior).max() > 0


class TestPromptHiding:
    def test_self_attention_matches_oracle(self):
        # the fused op against the graph it replaces, at the control
        # branch's two attention shapes: output and input gradient equal
        # bit for bit
        rng = RngState(15)
        for shape in ((4, 32, 8, 8), (4, 64, 4, 4)):
            h_np, g = rng.normal(shape), rng.normal(shape)
            runs = []
            for attend in (M.SelfAttention(),
                           lambda h: _plus_on_tokens(h, lambda t: tt.attention(t, t, t))):
                h = Tensor(h_np, requires_grad=True)
                y = attend(h)
                tt.backward(y, seed_grad=g)
                runs.append((y.data.tobytes(), h.grad.tobytes()))
            assert runs[0] == runs[1], shape
            assert graph_ops(M.SelfAttention()(Tensor(h_np, requires_grad=True))) == {"self_attention"}

    def test_cross_attention_matches_oracle(self):
        # the fused op against the graph it replaces: output, input gradient
        # and all four weight gradients equal bit for bit, at the server's
        # attention shapes and at batch 1, with trainable and frozen weights,
        # an input that needs no gradient, nothing needing one, and
        # zero-padded prompts
        rng = RngState(20)
        pe = PromptEncoder(["one", "red", "circle", "blue", "rect"], rng.split("pe"))
        cases = [((4, 32, 8, 8), True, True), ((4, 64, 4, 4), True, True),
                 ((1, 32, 8, 8), True, True), ((4, 64, 4, 4), True, False),
                 ((4, 32, 8, 8), False, True), ((1, 64, 4, 4), True, False),
                 ((4, 32, 8, 8), False, False)]
        for shape, x_grad, w_grad in cases:
            n, c = shape[:2]
            attn = M.CrossAttention(c, M.D_PROMPT, 32, rng.split(f"attn{c}"))
            weights = [attn.wq, attn.wk, attn.wv, attn.wo]
            x_np, g = rng.normal(shape), rng.normal(shape)
            prompts = [["red", "circle"], ["blue"], ["one", "rect", "red"], []][:n]
            ctx = Tensor(pe.encode(prompts))
            runs = []
            for op in (tt.cross_attention, composed_cross_attention):
                x = Tensor(x_np, requires_grad=x_grad)
                ws = [Tensor(w.data, requires_grad=w_grad) for w in weights]
                y = op(x, ctx, *ws)
                if y.requires_grad:
                    tt.backward(y, seed_grad=g)
                runs.append([y.data.tobytes()] + [None if t.grad is None else t.grad.tobytes()
                                                  for t in [x] + ws])
            assert runs[0] == runs[1], (shape, x_grad, w_grad)
            want = [x_grad] + [w_grad] * 4
            assert [gr is not None for gr in runs[0][1:]] == want
        y = tt.cross_attention(Tensor(x_np, requires_grad=True), ctx, *weights)
        assert graph_ops(y) == {"cross_attention"}

    def test_cross_attention_refuses_a_context_that_requires_grad(self):
        rng = RngState(23)
        attn = M.CrossAttention(4, M.D_PROMPT, 32, rng)
        ctx = Tensor(rng.normal((1, 3, M.D_PROMPT)), requires_grad=True)
        with pytest.raises(tt.GraphError, match="context"):
            tt.cross_attention(Tensor(rng.normal((1, 4, 2, 2))), ctx,
                               attn.wq, attn.wk, attn.wv, attn.wo)

    def test_a_block_given_no_prompt_equals_zero_prompt_attention(self):
        # a block given no prompt skips its cross-attention; given the zero
        # prompt, the same block attends to it, and output and input gradient
        # must not move by a bit
        rng = RngState(18)
        unet = ToyUNet(rng.split("u"))
        unet.freeze()
        shapes = ((3, 4, 8, 8), (3, 64, 4, 4), (3, 128, 4, 4), (3, 36, 8, 8))
        for blk, shape in zip(server_blocks(unet), shapes):
            x_np = rng.normal(shape)
            prompt = Tensor(np.zeros((shape[0], 1, M.D_PROMPT), np.float32))
            runs = []
            for p in (None, prompt):
                x = Tensor(x_np, requires_grad=True)
                y = blk(x, 11, p)
                # without a prompt, the block builds no attention node
                assert ("cross_attention" in graph_ops(y)) == (p is not None)
                tt.backward(y, seed_grad=RngState(19).normal(y.shape))
                runs.append((y.data.tobytes(), x.grad.tobytes()))
            assert runs[0] == runs[1]

    def test_zeroed_value_path_makes_prompt_irrelevant(self):
        rng = RngState(16)
        unet = ToyUNet(rng.split("u"))
        pe = PromptEncoder(["one", "red"], rng.split("p"))
        # zero the value path of every cross-attention: no prompt influence
        for blk in (unet.enc_block_1, *server_blocks(unet)):
            blk.attn.wv.data[...] = 0.0
        zt = rng.normal((1, 4, 8, 8))
        a = unet_denoise(Tensor(zt), 5, Tensor(pe.encode([["one"]])), [], unet)
        b = unet_denoise(Tensor(zt), 5, Tensor(pe.encode([["red", "red"]])), [], unet)
        assert a.data.tobytes() == b.data.tobytes()


class TestFrozenConservation:
    def test_finetuning_never_touches_frozen_weights(self, world):
        unet, ae, _, pe = world
        rng = RngState(17)
        branch = ControlBranch(unet)
        frozen_before = param_fingerprint({**unet.named_parameters("unet."),
                                           **ae.named_parameters("ae.")})
        opt = AdamW(list(branch.named_parameters().values()), lr=5e-3)
        prompt = pe.encode([["one"], ["red", "circle"]])
        for _ in range(20):
            zt = rng.normal((2, 4, 8, 8))
            cf = ae.E(Tensor(rng.uniform((2, 3, 32, 32))), rng, training=True)
            taps = branch.server_forward(tt.add(Tensor(zt), cf), 30, Tensor(prompt))
            out = unet_denoise(Tensor(zt), 30, Tensor(prompt), taps, unet)
            loss = training_loss(rng.normal((2, 4, 8, 8)), out)
            opt.zero_grad()
            loss.backward()
            opt.step()
        frozen_after = param_fingerprint({**unet.named_parameters("unet."),
                                          **ae.named_parameters("ae.")})
        assert frozen_before == frozen_after


class TestParameterTree:
    def test_named_parameters_order_is_the_checkpoint_layout(self):
        rng = RngState(21)
        unet = ToyUNet(rng.split("u"))
        unet.freeze()
        branch = ControlBranch(unet)
        block = ("conv1.w", "conv1.b", "temb.w", "temb.b", "attn.wq", "attn.wk",
                 "attn.wv", "attn.wo", "conv2.w", "conv2.b")
        want = ([f"{b}.{k}" for b in ("enc_block_1", "enc_block_2", "mid") for k in block]
                + [f"zero_conv_{z}.{k}" for z in ("1", "2", "mid") for k in ("w", "b")])
        assert list(branch.named_parameters()) == want
        assert all(p.requires_grad for p in branch.named_parameters().values())

    def test_clone_of_prompt_hidden_blocks(self):
        rng = RngState(22)
        unet = ToyUNet(rng.split("u"))
        unet.freeze()
        branch = ControlBranch(unet, self_attend=True)
        x = Tensor(rng.normal((1, 64, 4, 4)))
        for blk in (branch.mid, unet.mid):
            twin = blk.clone()
            assert type(twin.attn) is type(blk.attn)
            assert twin(x, 7, None).data.tobytes() == blk(x, 7, None).data.tobytes()
            mine, theirs = twin.named_parameters(), blk.named_parameters()
            assert list(mine) == list(theirs)
            for name, p in mine.items():
                assert p.requires_grad
                assert not np.shares_memory(p.data, theirs[name].data), name
        assert isinstance(branch.mid.clone().attn, M.SelfAttention)
        # a frozen kernel's packed layouts stay behind
        assert unet.mid.conv1.w._packs is not None
        assert all(p._packs is None for p in unet.mid.clone().named_parameters().values())

    def test_frozen_follows_freeze(self):
        ae = ToyAutoencoder(RngState(23))
        assert not ae.frozen
        ae.freeze()
        assert ae.frozen
        twin = ae.clone()
        assert not twin.frozen and ae.frozen


class TestAutoencoder:
    def test_zero_epochs_returns_frozen_random_init(self):
        imgs = RngState(18).uniform((4, 3, 32, 32))
        ae = pretrain_autoencoder(imgs, epochs=0, rng=RngState(19))
        assert ae.frozen
        assert ae.pretrain_losses == []
        assert all(not p.requires_grad for p in ae.named_parameters().values())

    def test_constant_dataset_converges(self):
        imgs = np.full((8, 3, 32, 32), 0.5, dtype=np.float32)
        ae = pretrain_autoencoder(imgs, epochs=40, rng=RngState(20), lr=3e-3)
        assert ae.pretrain_losses[-1] < 0.01
        assert ae.pretrain_losses[-1] < ae.pretrain_losses[0]

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            pretrain_autoencoder(np.zeros((0, 3, 32, 32)), 1, RngState(21))

    def test_latent_shape(self, world):
        _, ae, _, _ = world
        z = ae.E(Tensor(RngState(22).uniform((2, 3, 32, 32))), RngState(23), training=False)
        assert z.shape == (2, 4, 8, 8)
        img = ae.D(z)
        assert img.shape == (2, 3, 32, 32)
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0


class TestPromptEncoder:
    def test_padded_encoding(self, world):
        *_, pe = world
        out = pe.encode([["one", "red"], ["circle"]])
        assert out.shape == (2, M.MAX_PROMPT_LEN, 32)
        assert np.all(out[0, 2:] == 0.0)  # padding is zero
        assert np.any(out[0, 0] != 0.0)

    def test_vocab_cap(self):
        with pytest.raises(ValueError, match="vocab"):
            PromptEncoder([f"tok{i}" for i in range(65)], RngState(24))

    def test_unknown_token(self, world):
        *_, pe = world
        with pytest.raises(KeyError):
            pe.encode([["nonexistent"]])

    def test_too_long_prompt(self, world):
        *_, pe = world
        with pytest.raises(ValueError, match="longer"):
            pe.encode([["one"] * 100])


def test_timestep_embedding_distinct_and_bounded():
    embs = np.stack([timestep_embedding(t) for t in range(0, 1001, 50)])
    assert embs.shape[1] == M.D_TEMB
    assert np.abs(embs).max() <= 1.0
    assert len(np.unique(embs.round(6), axis=0)) == embs.shape[0]


def test_timestep_embedding_is_computed_once_and_read_only():
    emb = timestep_embedding(123)
    assert timestep_embedding(123) is emb
    assert not emb.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        emb[0] = 2.0


def test_checkpoint_roundtrip_of_model(tmp_path):
    from splitstream.checkpoint import load_checkpoint, save_checkpoint

    rng = RngState(25)
    unet = ToyUNet(rng)
    path = tmp_path / "unet.tckp"
    named = unet.named_parameters()
    save_checkpoint(path, {name: p.data for name, p in named.items()})
    back = load_checkpoint(path)
    assert set(back) == set(named)
    for k, v in named.items():
        assert back[k].tobytes() == v.data.tobytes()
