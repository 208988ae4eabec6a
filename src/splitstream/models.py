"""Desk-scale conditional latent diffusion model with a control branch.

Topology (images 3x32x32, latents 4x8x8):

    autoencoder   E: image -> latent (dropout in the encoder), D: latent -> image
    denoiser      enc_block_1 -> enc_block_2 -> mid -> dec_block_2 -> dec_block_1,
                  decoder blocks consume jump connections from their encoder twins
    condition     CondEncoder: condition image -> latent, on the client (the
                  frozen autoencoder E in gradient-free mode, a scratch encoder
                  the client trains in classic mode)
    control       copies of (enc_block_1, enc_block_2, mid), each copy's output
                  projected by a zero-initialized 1x1 conv and added to the
                  corresponding jump connection / mid output

The cut between client and server falls right after the denoiser's
enc_block_1 and after the condition encoder: the client ships the block-1
activation and the (optionally noise-confounded) sum of noisy latent and
encoded condition; every block downstream, the whole control branch
included, runs on the server. Under prompt hiding the server gives its
blocks no prompt, and a block given none skips its cross-attention.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .optim import AdamW
from .rng import RngState
from .tensor import Tensor

LATENT_SHAPE = (4, 8, 8)
D_PROMPT = 32
D_TEMB = 32
MAX_PROMPT_LEN = 77
N_TAPS = 3


# ---------------------------------------------------------------------------
# parameter containers


class Module:
    """Parameter tree: every Tensor attribute is a parameter, found through
    child Modules and lists of them and named by its attribute path."""

    def named_parameters(self, prefix="") -> dict[str, Tensor]:
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out[prefix + name] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(f"{prefix}{name}."))
            elif isinstance(value, list):
                for i, child in enumerate(value):
                    if isinstance(child, Module):
                        out.update(child.named_parameters(f"{prefix}{name}.{i}."))
        return out

    @property
    def frozen(self) -> bool:
        return not any(p.requires_grad for p in self.named_parameters().values())

    def freeze(self):
        for p in self.named_parameters().values():
            p.requires_grad = False

    def clone(self):
        """Independent deep copy with every parameter trainable (and no
        frozen kernel's packed layouts)."""
        twin = copy.deepcopy(self)
        for p in twin.named_parameters().values():
            p.requires_grad, p.grad, p._packs = True, None, None
        return twin


class Conv(Module):
    def __init__(self, in_ch, out_ch, k, rng: RngState | None, stride=1, padding=0, zero_init=False):
        if zero_init:
            w = np.zeros((out_ch, in_ch, k, k), dtype=np.float32)
        else:
            w = rng.normal((out_ch, in_ch, k, k)) * np.float32(math.sqrt(2.0 / (in_ch * k * k)))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return tt.conv2d(x, self.w, self.stride, self.padding, bias=self.b)

    def after_upsample(self, x: Tensor) -> Tensor:
        """This conv over x up-sampled 2x nearest, computed at x's resolution
        (tensor.upsample_conv2d): the one way a model runs a resize-conv,
        for a 3x3 conv of stride 1 and padding 1 only."""
        k = self.w.shape[2:]
        if (k, self.stride, self.padding) != ((3, 3), 1, 1):
            raise tt.ShapeError(f"after_upsample: need a 3x3 conv of stride 1 and padding 1, "
                                f"got {k[0]}x{k[1]}, stride {self.stride}, padding {self.padding}")
        return tt.upsample_conv2d(x, self.w, self.b)


class Dense(Module):
    def __init__(self, in_dim, out_dim, rng: RngState):
        self.w = Tensor(rng.normal((in_dim, out_dim)) * np.float32(1.0 / math.sqrt(in_dim)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return tt.dense(x, self.w, self.b)


class CrossAttention(Module):
    """The four projections of prompt cross-attention over a block's
    spatial tokens: queries from the map (wq), keys and values from the
    prompt (wk, wv), and the output back to the map's channels (wo). The
    block applies them with `tensor.cross_attention`, residual included."""

    def __init__(self, channels, d_context, d_attn, rng: RngState):
        s_q = np.float32(1.0 / math.sqrt(channels))
        s_kv = np.float32(1.0 / math.sqrt(d_context))
        s_o = np.float32(1.0 / math.sqrt(d_attn))
        self.wq = Tensor(rng.normal((channels, d_attn)) * s_q, requires_grad=True)
        self.wk = Tensor(rng.normal((d_context, d_attn)) * s_kv, requires_grad=True)
        self.wv = Tensor(rng.normal((d_context, d_attn)) * s_kv, requires_grad=True)
        self.wo = Tensor(rng.normal((d_attn, channels)) * s_o, requires_grad=True)


class SelfAttention(Module):
    """Projection-free self-attention over the block's own tokens, with its
    residual: h (n, c, hh, ww) -> h + attention over h's hh*ww tokens."""

    def __call__(self, h: Tensor) -> Tensor:
        return tt.self_attention(h)


@functools.lru_cache(maxsize=None)
def timestep_embedding(t: int) -> np.ndarray:
    """Sinusoidal D_TEMB-wide embedding of timestep t, computed once per t
    and shared: the array is read-only."""
    half = D_TEMB // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = float(t) * freqs
    emb = np.concatenate([np.sin(ang), np.cos(ang)]).astype(np.float32)
    emb.flags.writeable = False
    return emb


class UNetBlock(Module):
    """conv -> +timestep embedding -> silu -> attention -> (upsample) -> conv.

    The attention, residual included, is one graph node: self-attention in
    a block built with SelfAttention, else cross-attention to the prompt
    (`tensor.cross_attention` with the CrossAttention weights). No prompt,
    no cross-attention: the block skips it. A block built with `upsample`
    runs its second conv as a resize-conv (`Conv.after_upsample`), so the
    up-sampled map is never built."""

    def __init__(self, in_ch, mid_ch, out_ch, rng: RngState, stride=1, upsample=False):
        self.conv1 = Conv(in_ch, mid_ch, 3, rng, stride=stride, padding=1)
        self.temb = Dense(D_TEMB, mid_ch, rng)
        self.attn = CrossAttention(mid_ch, D_PROMPT, 32, rng)
        self.conv2 = Conv(mid_ch, out_ch, 3, rng, padding=1)
        self.upsample = upsample

    def __call__(self, x: Tensor, t: int, prompt: Tensor | None) -> Tensor:
        h = self.conv1(x)
        mid_ch = h.shape[1]
        temb_row = Tensor(timestep_embedding(t)[None, :])
        h = tt.bias_add(h, tt.reshape(self.temb(temb_row), (mid_ch,)))
        h = tt.silu(h)
        if isinstance(self.attn, SelfAttention):
            h = self.attn(h)
        # no prompt, no cross-attention: K and V have no bias, so attention
        # over the zero prompt is exactly zero and the block builds no node for it
        elif prompt is not None:
            a = self.attn
            h = tt.cross_attention(h, prompt, a.wq, a.wk, a.wv, a.wo)
        return self.conv2.after_upsample(h) if self.upsample else self.conv2(h)


# ---------------------------------------------------------------------------
# autoencoder


class CondEncoder(Module):
    """3x32x32 -> 4x8x8 conv encoder with dropout; also serves as E."""

    def __init__(self, rng: RngState, dropout_p: float = 0.1):
        self.conv1 = Conv(3, 32, 3, rng, stride=2, padding=1)
        self.conv2 = Conv(32, 4, 3, rng, stride=2, padding=1)
        self.dropout_p = dropout_p

    def __call__(self, img: Tensor, rng: RngState, training: bool = True) -> Tensor:
        h = tt.silu(self.conv1(img))
        h = tt.dropout(h, self.dropout_p, rng, training)
        return self.conv2(h)


class Decoder(Module):
    """4x8x8 latent -> 3x32x32 image: a conv at 8x8, then two resize-convs
    (`Conv.after_upsample`, to 16x16 and 32x32), each computed at its
    input's resolution, and a sigmoid."""

    def __init__(self, rng: RngState):
        self.conv1 = Conv(4, 32, 3, rng, padding=1)
        self.conv2 = Conv(32, 16, 3, rng, padding=1)
        self.conv3 = Conv(16, 3, 3, rng, padding=1)

    def __call__(self, z: Tensor) -> Tensor:
        h = tt.silu(self.conv1(z))
        h = tt.silu(self.conv2.after_upsample(h))
        return tt.sigmoid(self.conv3.after_upsample(h))


class ToyAutoencoder(Module):
    def __init__(self, rng: RngState, dropout_p: float = 0.1):
        self.E = CondEncoder(rng.split("encoder"), dropout_p)
        self.D = Decoder(rng.split("decoder"))
        self.pretrain_losses: list[float] = []


def pretrain_autoencoder(images: np.ndarray, epochs: int, rng: RngState,
                         lr: float = 1e-3, batch: int = 8, dropout_p: float = 0.1) -> ToyAutoencoder:
    """Reconstruction-MSE pretraining; the returned autoencoder is frozen."""
    if len(images) == 0:
        raise ValueError("pretrain_autoencoder: empty dataset")
    ae = ToyAutoencoder(rng.split("init"), dropout_p)
    if epochs > 0:
        opt = AdamW(list(ae.named_parameters().values()), lr=lr)
        order_rng = rng.split("order")
        drop_rng = rng.split("dropout")
        for _ in range(epochs):
            order = order_rng.shuffle(len(images))
            for start in range(0, len(images), batch):
                idx = order[start : start + batch]
                x = Tensor(images[idx])
                recon = ae.D(ae.E(x, drop_rng, training=True))
                loss = tt.mse(recon, x)
                if not np.isfinite(loss.data):
                    raise FloatingPointError("autoencoder pretraining diverged (NaN loss)")
                opt.zero_grad()
                loss.backward()
                opt.step()
                ae.pretrain_losses.append(loss.item())
    ae.freeze()
    return ae


# ---------------------------------------------------------------------------
# denoiser and control branch


class ToyUNet(Module):
    def __init__(self, rng: RngState):
        self.enc_block_1 = UNetBlock(4, 32, 4, rng.split("enc1"))
        self.enc_block_2 = UNetBlock(4, 64, 64, rng.split("enc2"), stride=2)
        self.mid = UNetBlock(64, 64, 64, rng.split("mid"))
        self.dec_block_2 = UNetBlock(128, 64, 32, rng.split("dec2"), upsample=True)
        self.dec_block_1 = UNetBlock(36, 32, 4, rng.split("dec1"))

    def server_forward(self, h1: Tensor, t: int, prompt, control_taps) -> Tensor:
        """Everything after the cut. Empty taps = unconditional denoiser."""
        if control_taps and len(control_taps) != N_TAPS:
            raise ValueError(f"expected {N_TAPS} control taps, got {len(control_taps)}")
        h2 = self.enc_block_2(h1, t, prompt)
        m = self.mid(h2, t, prompt)
        skip1, skip2 = h1, h2
        if control_taps:
            tap1, tap2, tap_mid = control_taps
            skip1 = tt.add(skip1, tap1)
            skip2 = tt.add(skip2, tap2)
            m = tt.add(m, tap_mid)
        d2 = self.dec_block_2(tt.concat([m, skip2], 1), t, prompt)
        return self.dec_block_1(tt.concat([d2, skip1], 1), t, prompt)


def unet_denoise(zt: Tensor, t: int, prompt_feat: Tensor | None, control_taps,
                 model: ToyUNet) -> Tensor:
    """Full denoiser pass; with all-zero taps this equals the unconditional output."""
    h1 = model.enc_block_1(zt, t, prompt_feat)
    return model.server_forward(h1, t, prompt_feat, control_taps)


class ControlBranch(Module):
    """Trainable twin of the denoiser's encoder half plus zero convolutions:
    every parameter is the server's, in checkpoint order. Built with
    `self_attend` (prompt hiding), its blocks attend over the condition
    features instead of the prompt."""

    def __init__(self, unet: ToyUNet, self_attend: bool = False):
        self.enc_block_1 = unet.enc_block_1.clone()
        self.enc_block_2 = unet.enc_block_2.clone()
        self.mid = unet.mid.clone()
        if self_attend:
            for blk in (self.enc_block_1, self.enc_block_2, self.mid):
                blk.attn = SelfAttention()
        self.zero_conv_1 = Conv(4, 4, 1, None, zero_init=True)
        self.zero_conv_2 = Conv(64, 64, 1, None, zero_init=True)
        self.zero_conv_mid = Conv(64, 64, 1, None, zero_init=True)

    def server_forward(self, s: Tensor, t: int, prompt) -> list[Tensor]:
        """Run the copied encoders on the partition feature; return projected taps."""
        c1 = self.enc_block_1(s, t, prompt)
        c2 = self.enc_block_2(c1, t, prompt)
        cm = self.mid(c2, t, prompt)
        return [self.zero_conv_1(c1), self.zero_conv_2(c2), self.zero_conv_mid(cm)]


@dataclass
class NoiseConfoundingActivation:
    """Client-secret fixed offset for the partition-layer activation.

    delta is drawn once per training run and never serialized into packets
    or server-visible checkpoints.
    """

    delta: np.ndarray

    @classmethod
    def create(cls, rng: RngState) -> "NoiseConfoundingActivation":
        return cls(delta=rng.normal(LATENT_SHAPE))


def noise_confound(x: Tensor, act: NoiseConfoundingActivation) -> Tensor:
    """y = |x| * 2*sigmoid(x) + delta, elementwise."""
    if act.delta.shape != x.shape[1:]:
        raise tt.ShapeError(f"noise_confound: delta {act.delta.shape} vs input {x.shape}")
    return tt.bias_add(tt.scale(tt.mul(tt.abs_(x), tt.sigmoid(x)), 2.0), Tensor(act.delta))


class PromptEncoder:
    """Fixed token embedding table; prompts are padded to MAX_PROMPT_LEN."""

    def __init__(self, vocab: list[str], rng: RngState):
        if len(vocab) > 64:
            raise ValueError(f"vocab too large ({len(vocab)} > 64)")
        self.index = {tok: i for i, tok in enumerate(vocab)}
        self.table = rng.normal((len(vocab), D_PROMPT)) / np.float32(math.sqrt(D_PROMPT))

    def encode(self, prompts: list[list[str]]) -> np.ndarray:
        """(N, MAX_PROMPT_LEN, D_PROMPT) features; unknown tokens are an error,
        padding is zero."""
        out = np.zeros((len(prompts), MAX_PROMPT_LEN, D_PROMPT), dtype=np.float32)
        for i, toks in enumerate(prompts):
            if len(toks) > MAX_PROMPT_LEN:
                raise ValueError(f"prompt longer than {MAX_PROMPT_LEN} tokens")
            for j, tok in enumerate(toks):
                out[i, j] = self.table[self.index[tok]]
        return out


def param_fingerprint(named: dict[str, Tensor]) -> str:
    """Order-independent hash of a parameter set (frozen-weight audits)."""
    h = hashlib.sha256()
    for name in sorted(named):
        h.update(name.encode())
        h.update(named[name].data.tobytes())
    return h.hexdigest()
