"""Desk-scale conditional latent diffusion model with a control branch.

Topology (images 3x32x32, latents 4x8x8):

    autoencoder   E: image -> latent (dropout in the encoder), D: latent -> image
    denoiser      enc_block_1 -> enc_block_2 -> mid -> dec_block_2 -> dec_block_1,
                  decoder blocks consume jump connections from their encoder twins
    control       condition encoder + copies of (enc_block_1, enc_block_2, mid),
                  each copy's output projected by a zero-initialized 1x1 conv and
                  added to the corresponding jump connection / mid output

The cut between client and server falls right after the denoiser's
enc_block_1 and after the condition encoder: the client ships the block-1
activation and the (optionally noise-confounded) sum of noisy latent and
encoded condition; every block downstream runs on the server.
"""

from __future__ import annotations

import copy
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
        """Independent deep copy with every parameter trainable."""
        twin = copy.deepcopy(self)
        for p in twin.named_parameters().values():
            p.requires_grad, p.grad = True, None
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
        return tt.bias_add(tt.conv2d(x, self.w, self.stride, self.padding), self.b)


class Dense(Module):
    def __init__(self, in_dim, out_dim, rng: RngState):
        self.w = Tensor(rng.normal((in_dim, out_dim)) * np.float32(1.0 / math.sqrt(in_dim)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return tt.dense(x, self.w, self.b)


def _dense3(tokens: Tensor, w: Tensor) -> Tensor:
    """(N, L, C) @ (C, A) -> (N, L, A)."""
    n, l, c = tokens.shape
    return tt.reshape(tt.matmul(tt.reshape(tokens, (n * l, c)), w), (n, l, w.shape[1]))


class CrossAttention(Module):
    """Prompt cross-attention over spatial tokens, returned as a residual term."""

    def __init__(self, channels, d_context, d_attn, rng: RngState):
        s_q = np.float32(1.0 / math.sqrt(channels))
        s_kv = np.float32(1.0 / math.sqrt(d_context))
        s_o = np.float32(1.0 / math.sqrt(d_attn))
        self.wq = Tensor(rng.normal((channels, d_attn)) * s_q, requires_grad=True)
        self.wk = Tensor(rng.normal((d_context, d_attn)) * s_kv, requires_grad=True)
        self.wv = Tensor(rng.normal((d_context, d_attn)) * s_kv, requires_grad=True)
        self.wo = Tensor(rng.normal((d_attn, channels)) * s_o, requires_grad=True)

    def __call__(self, tokens: Tensor, context: Tensor) -> Tensor:
        q = _dense3(tokens, self.wq)
        k = _dense3(context, self.wk)
        v = _dense3(context, self.wv)
        return _dense3(tt.attention(q, k, v), self.wo)


class SelfAttention(Module):
    """Projection-free self-attention over the block's own tokens."""

    def __call__(self, tokens: Tensor) -> Tensor:
        return tt.attention(tokens, tokens, tokens)


def timestep_embedding(t: int, dim: int = D_TEMB) -> np.ndarray:
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = float(t) * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)]).astype(np.float32)


class UNetBlock(Module):
    """conv -> +timestep embedding -> silu -> attention -> (upsample) -> conv."""

    def __init__(self, in_ch, mid_ch, out_ch, rng: RngState, stride=1, upsample=False):
        self.conv1 = Conv(in_ch, mid_ch, 3, rng, stride=stride, padding=1)
        self.temb = Dense(D_TEMB, mid_ch, rng)
        self.attn = CrossAttention(mid_ch, D_PROMPT, 32, rng)
        self.conv2 = Conv(mid_ch, out_ch, 3, rng, padding=1)
        self.upsample = upsample
        # once set, the block ignores its prompt argument (prompt hiding)
        self.bound_zero_prompt: np.ndarray | None = None

    def __call__(self, x: Tensor, t: int, prompt: Tensor | None) -> Tensor:
        h = self.conv1(x)
        mid_ch = h.shape[1]
        temb_row = Tensor(timestep_embedding(t)[None, :])
        h = tt.bias_add(h, tt.reshape(self.temb(temb_row), (mid_ch,)))
        h = tt.silu(h)
        n, c, hh, ww = h.shape
        tok = tt.reshape(tt.permute(h, (0, 2, 3, 1)), (n, hh * ww, c))
        if isinstance(self.attn, SelfAttention):
            tok = tt.add(tok, self.attn(tok))
        else:
            if self.bound_zero_prompt is not None:
                ctx = Tensor(np.broadcast_to(self.bound_zero_prompt[None], (n,) + self.bound_zero_prompt.shape).copy())
            elif prompt is None:
                raise ValueError("block needs prompt features (or a bound zero feature)")
            else:
                ctx = prompt if isinstance(prompt, Tensor) else Tensor(prompt)
            tok = tt.add(tok, self.attn(tok, ctx))
        h = tt.permute(tt.reshape(tok, (n, hh, ww, c)), (0, 3, 1, 2))
        if self.upsample:
            h = tt.upsample2x(h)
        return self.conv2(h)


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
    def __init__(self, rng: RngState):
        self.conv1 = Conv(4, 32, 3, rng, padding=1)
        self.conv2 = Conv(32, 16, 3, rng, padding=1)
        self.conv3 = Conv(16, 3, 3, rng, padding=1)

    def __call__(self, z: Tensor) -> Tensor:
        h = tt.upsample2x(tt.silu(self.conv1(z)))
        h = tt.upsample2x(tt.silu(self.conv2(h)))
        return tt.sigmoid(self.conv3(h))


class ToyAutoencoder(Module):
    def __init__(self, rng: RngState, dropout_p: float = 0.1):
        self.E = CondEncoder(rng.split("encoder"), dropout_p)
        self.D = Decoder(rng.split("decoder"))
        self.pretrain_losses: list[float] = []

    def encode(self, img, rng: RngState, training: bool = True) -> Tensor:
        x = img if isinstance(img, Tensor) else Tensor(img)
        return self.E(x, rng, training)

    def decode(self, z) -> Tensor:
        x = z if isinstance(z, Tensor) else Tensor(z)
        return self.D(x)


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
                recon = ae.decode(ae.encode(x, drop_rng, training=True))
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

    def blocks(self):
        return (self.enc_block_1, self.enc_block_2, self.mid,
                self.dec_block_2, self.dec_block_1)

    def server_blocks(self):
        return (self.enc_block_2, self.mid, self.dec_block_2, self.dec_block_1)

    def encode_block1(self, zt: Tensor, t: int, prompt) -> Tensor:
        """Client-side part: the first encoder block."""
        return self.enc_block_1(zt, t, prompt)

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
        d2 = self.dec_block_2(tt.concat_channels(m, skip2), t, prompt)
        return self.dec_block_1(tt.concat_channels(d2, skip1), t, prompt)


def unet_denoise(zt, t: int, prompt_feat, control_taps, model: ToyUNet) -> Tensor:
    """Full denoiser pass; with all-zero taps this equals the unconditional output."""
    x = zt if isinstance(zt, Tensor) else Tensor(zt)
    p = None if prompt_feat is None else (prompt_feat if isinstance(prompt_feat, Tensor) else Tensor(prompt_feat))
    h1 = model.encode_block1(x, t, p)
    return model.server_forward(h1, t, p, control_taps)


class ControlBranch(Module):
    """Trainable twin of the denoiser's encoder half plus zero convolutions."""

    def __init__(self, unet: ToyUNet, condition_encoder, rng: RngState):
        self.condition_encoder = condition_encoder
        self.enc_block_1 = unet.enc_block_1.clone()
        self.enc_block_2 = unet.enc_block_2.clone()
        self.mid = unet.mid.clone()
        self.zero_conv_1 = Conv(4, 4, 1, None, zero_init=True)
        self.zero_conv_2 = Conv(64, 64, 1, None, zero_init=True)
        self.zero_conv_mid = Conv(64, 64, 1, None, zero_init=True)

    def encode_condition(self, cond: Tensor, rng: RngState, training: bool = True) -> Tensor:
        if isinstance(self.condition_encoder, ToyAutoencoder):
            return self.condition_encoder.encode(cond, rng, training)
        return self.condition_encoder(cond, rng, training)

    def server_forward(self, s: Tensor, t: int, prompt) -> list[Tensor]:
        """Run the copied encoders on the partition feature; return projected taps."""
        c1 = self.enc_block_1(s, t, prompt)
        c2 = self.enc_block_2(c1, t, prompt)
        cm = self.mid(c2, t, prompt)
        return [self.zero_conv_1(c1), self.zero_conv_2(c2), self.zero_conv_mid(cm)]

    def server_parameters(self) -> dict[str, Tensor]:
        """The server-side trainables (condition encoder excluded)."""
        return {k: v for k, v in self.named_parameters().items()
                if not k.startswith("condition_encoder.")}


@dataclass
class NoiseConfoundingActivation:
    """Client-secret fixed offset for the partition-layer activation.

    delta is drawn once per training run and never serialized into packets
    or server-visible checkpoints.
    """

    delta: np.ndarray

    @classmethod
    def create(cls, rng: RngState, shape=LATENT_SHAPE) -> "NoiseConfoundingActivation":
        return cls(delta=rng.normal(shape))


def noise_confound(x, act: NoiseConfoundingActivation):
    """y = |x| * 2*sigmoid(x) + delta, elementwise."""
    t = x if isinstance(x, Tensor) else Tensor(x)
    if act.delta.shape != t.shape[1:]:
        raise tt.ShapeError(f"noise_confound: delta {act.delta.shape} vs input {t.shape}")
    y = tt.bias_add(tt.scale(tt.mul(tt.abs_(t), tt.sigmoid(t)), 2.0), Tensor(act.delta))
    return y if isinstance(x, Tensor) else y.data


def control_forward(zt, cond_feat, t: int, prompt_feat, branch: ControlBranch,
                    act: NoiseConfoundingActivation | None = None) -> list[Tensor]:
    """Whole control path in one call: mix, (confound), copied encoders, taps."""
    z = zt if isinstance(zt, Tensor) else Tensor(zt)
    c = cond_feat if isinstance(cond_feat, Tensor) else Tensor(cond_feat)
    s = tt.add(z, c)
    if act is not None:
        s = noise_confound(s, act)
    p = None if prompt_feat is None else (prompt_feat if isinstance(prompt_feat, Tensor) else Tensor(prompt_feat))
    return branch.server_forward(s, t, p)


class PromptEncoder:
    """Fixed token embedding table; prompts are padded to MAX_PROMPT_LEN."""

    def __init__(self, vocab: list[str], rng: RngState, dim: int = D_PROMPT,
                 max_len: int = MAX_PROMPT_LEN):
        if len(vocab) > 64:
            raise ValueError(f"vocab too large ({len(vocab)} > 64)")
        self.vocab = list(vocab)
        self.index = {tok: i for i, tok in enumerate(self.vocab)}
        self.dim = dim
        self.max_len = max_len
        self.table = rng.normal((len(vocab), dim)) / np.float32(math.sqrt(dim))

    def encode(self, prompts: list[list[str]]) -> np.ndarray:
        """(N, max_len, dim) features; unknown tokens are an error, padding is zero."""
        out = np.zeros((len(prompts), self.max_len, self.dim), dtype=np.float32)
        for i, toks in enumerate(prompts):
            if len(toks) > self.max_len:
                raise ValueError(f"prompt longer than {self.max_len} tokens")
            for j, tok in enumerate(toks):
                out[i, j] = self.table[self.index[tok]]
        return out


def prompt_hide_transform(branch: ControlBranch, unet: ToyUNet) -> tuple[ControlBranch, ToyUNet]:
    """Rewire the pipeline so no prompt ever reaches the server.

    Control-branch attention becomes self-attention over condition features;
    the frozen denoiser blocks behind the cut are permanently bound to the
    zero text feature. The client-side enc_block_1 is untouched.
    """
    for blk in (branch.enc_block_1, branch.enc_block_2, branch.mid):
        blk.attn = SelfAttention()
    zero = np.zeros((1, D_PROMPT), dtype=np.float32)
    for blk in unet.server_blocks():
        blk.bound_zero_prompt = zero
    return branch, unet


def param_fingerprint(named: dict[str, Tensor]) -> str:
    """Order-independent hash of a parameter set (frozen-weight audits)."""
    h = hashlib.sha256()
    for name in sorted(named):
        h.update(name.encode())
        h.update(named[name].data.tobytes())
    return h.hexdigest()
