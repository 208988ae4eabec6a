"""End-to-end experiment orchestration.

Stages: synthesize data (train / public / private from disjoint seed
ranges, each drawn on first read as `data.generate_dataset`'s arrays, in
the configured condition kind only, its maps held as codes),
pretrain and freeze the autoencoder, calibrate the privacy
budget, run split training with the configured mode and defense (whose
files `record_training` writes, for `splitstream train` too), capture
worst-case evaluation packets (timestep pinned to t_s, defense hooks run),
attack every defended and undefended arm on the same seeds, and emit a
report directory: metrics JSONL, budget CSV, reconstruction PPMs, and a
manifest with every seed and calibration constant. The whole pipeline is
a pure function of the config, so reruns are byte-identical.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from . import data as dtt
from . import tensor as tt
from .attacks import (UNSPLIT_L2_WEIGHT, FeatureScaler, InverseNet, train_inverse_network,
                      unsplit_attack, whitebox_gd_attack)
from .checkpoint import save_checkpoint
from .config import ExperimentConfig, config_to_dict
from .metrics import psnr, ssim
from .models import (CondEncoder, ControlBranch, NoiseConfoundingActivation,
                     PromptEncoder, ToyAutoencoder, ToyUNet, noise_confound,
                     param_fingerprint, pretrain_autoencoder)
from .privacy import estimate_sensitivity, write_budget_csv
from .protocol import (ClientDataset, ClientEncodings, ProtocolConfig, SimClock, SplitResult,
                       SplitWorld, client_packet, encode_inputs, encode_rows, features_at,
                       run_split_training)
from .rng import RngState
from .tensor import Tensor
from .wire import FeaturePacket, frame_message


# every seed the pipeline derives, as its offset from [experiment] seed;
# the manifest records them all
SEED_OFFSETS = {"train_data": 1, "public_data": 2, "private_data": 3, "eval_packets": 7,
                "attacker_features": 11}


def derived_seed(cfg: ExperimentConfig, name: str) -> int:
    return cfg.seed + SEED_OFFSETS[name]


class DataBundle:
    """The train, public and private splits of a config as (images, conds,
    prompts), each drawn from its own seed on first read: a stage that reads
    only the training split never synthesizes or holds the other two.
    `conds` is the split's `data.ConditionMaps`: uint8 codes, of which a
    reader materializes the float32 rows it reads."""

    def __init__(self, cfg: ExperimentConfig):
        d = cfg.dataset
        self._draws = {split: (n, derived_seed(cfg, f"{split}_data"), d.condition)
                       for split, n in (("train", d.n_train), ("public", d.n_public),
                                        ("private", d.n_private))}

    def _draw(self, split: str) -> tuple:
        n, seed, condition = self._draws[split]
        images, conds, prompts, _ = dtt.generate_dataset(n, seed, kinds=(condition,))
        return images, conds[condition], prompts

    train = cached_property(lambda self: self._draw("train"))
    public = cached_property(lambda self: self._draw("public"))
    private = cached_property(lambda self: self._draw("private"))


def synthesize_data(cfg: ExperimentConfig) -> DataBundle:
    """Three datasets from disjoint seed ranges, in the configured condition
    kind only; each is drawn when first read."""
    return DataBundle(cfg)


def prepare(cfg: ExperimentConfig) -> tuple[DataBundle, ToyAutoencoder, float]:
    """Everything `build_world` takes besides the defense: the data, the
    autoencoder pretrained with the config's settings, and the sensitivity."""
    data = synthesize_data(cfg)
    ae = pretrain_autoencoder(data.train[0], cfg.pretrain.ae_epochs,
                              RngState(cfg.seed).split("autoencoder"),
                              lr=cfg.pretrain.ae_lr, batch=cfg.pretrain.ae_batch,
                              dropout_p=cfg.pretrain.ae_dropout)
    return data, ae, _alpha(cfg, ae, data)


def build_world(cfg: ExperimentConfig, defense_kind: str, ae, data: DataBundle,
                alpha_sens: float) -> SplitWorld:
    """Deterministic world for one defense arm; frozen parts are identical
    across arms because they derive from the same seed labels, and no arm
    changes them: the arm shapes only its own control branch."""
    rng = RngState(cfg.seed)
    sched, defense, privacy = cfg.calibrate(defense_kind, alpha_sens)
    unet = ToyUNet(rng.split("unet"))
    unet.freeze()
    if cfg.protocol.mode == "classic":
        cond_encoder = CondEncoder(rng.split("cond-encoder"), cfg.pretrain.ae_dropout)
    else:
        cond_encoder = ae.E
    branch = ControlBranch(unet, self_attend=defense.runs("prompt"))
    pe = PromptEncoder(dtt.VOCAB, rng.split("prompt-encoder"))
    act = (NoiseConfoundingActivation.create(rng.split("confound"))
           if defense.runs("confound") else None)
    images, conds, prompts = data.train
    per = max(1, len(images) // cfg.protocol.clients)
    datasets = []
    for c in range(cfg.protocol.clients):
        sl = slice(c * per, (c + 1) * per)
        datasets.append(ClientDataset(images[sl], conds.select(sl), prompts[sl]))
    return SplitWorld(sched, cfg.schedule.variant, privacy, defense, pe, ae, cond_encoder,
                      unet, branch, act, datasets)


def protocol_config(cfg: ExperimentConfig, capture_path=None) -> ProtocolConfig:
    # declared fields only (asdict): perfbench still sets the removed condition_encoder
    return ProtocolConfig(**asdict(cfg.protocol), seed=cfg.seed, capture_path=capture_path)


# ---------------------------------------------------------------------------
# worst-case evaluation packets and attack arms


@dataclass
class EvalCapture:
    """Per-sample worst-case packets plus the internals attacks may be granted."""

    packets: list
    zt: np.ndarray          # (N, 4, 8, 8) noisy latents (whitebox side info)
    t: int
    truth_conds: dtt.ConditionMaps
    truth_images: np.ndarray


def generate_eval_packets(world: SplitWorld, data: DataBundle, seed: int) -> EvalCapture:
    """One packet per private sample at the worst-case timestep t = t_s, built
    by the training client step, so the arm's defense hooks run on it too.
    The condition goes through the pretrained `autoencoder.E` in either mode:
    the encoder the attacker's own simulation assumes."""
    images, conds, prompts = data.private
    t = world.privacy.t_s
    drop, noise, defense = (RngState(seed).split(f"eval-{name}")
                            for name in ("dropout", "noise", "defense"))
    packets, zts = [], []
    for i in range(len(images)):
        pkt, f = client_packet(world, images[i : i + 1], conds[i : i + 1], [prompts[i]], t,
                               drop, noise, defense, world.autoencoder.E, iteration=i)
        packets.append(pkt)
        zts.append(f.zt[0])
    return EvalCapture(packets=packets, zt=np.stack(zts), t=t,
                       truth_conds=conds, truth_images=images)


def _packet_matrix(packets, fields) -> np.ndarray:
    """Each packet's `fields`, stacked as channels in that order; one row a packet."""
    return np.concatenate([np.concatenate([getattr(p, name) for name in fields], axis=1)
                           for p in packets], axis=0)


def _guess_act(world: SplitWorld) -> NoiseConfoundingActivation | None:
    """The attacker's stand-in for the confound activation of an arm that
    runs it: zero offset. It knows the arm's mechanisms, never the secret."""
    zero = NoiseConfoundingActivation(np.zeros((4, 8, 8), np.float32))
    return zero if world.defense.runs("confound") else None


def public_encodings(cfg: ExperimentConfig, ae, data: DataBundle) -> ClientEncodings:
    """The attacker's encodings of its public split, images and conditions
    alike through the public `autoencoder.E`. No defense arm changes them,
    so an attack suite makes them once for all its arms."""
    images, conds, _ = data.public
    drop = RngState(derived_seed(cfg, "attacker_features")).split("atk-dropout")
    return encode_inputs(ae.E, ae.E, images, conds, drop)


def attacker_view_features(world: SplitWorld, enc: ClientEncodings, prompts, t: int,
                           seed: int, fields) -> np.ndarray:
    """The attacker's own simulation of the client pipeline on public data,
    from its encodings `enc` on, as the packet `fields`, stacked like `_packet_matrix`.

    It knows every frozen weight and the sampling policy; it does not know
    the secret confound offset and uses zero for it.
    """
    f = features_at(world, enc, prompts, t, RngState(seed).split("atk-noise"), _guess_act(world))
    return _packet_matrix([FeaturePacket(0, 0, t, f.h1, f.s.data, f.n_hat)], fields)


def run_inverse_net_attack(arm: Arm, observed, world: SplitWorld, data: DataBundle, cap: EvalCapture,
                           cfg: ExperimentConfig, public) -> tuple[np.ndarray, dict, bool]:
    """Train an inverse network on public data, from the attacker's
    simulation of the fields `arm` reads to its truth, and apply it to the
    observed fields. It never reports divergence: a diverging training raises."""
    images, conds, prompts = data.public
    feats = attacker_view_features(world, public, prompts, cap.t,
                                   derived_seed(cfg, "attacker_features"), arm.reads)
    net_type, targets = {"image": ("type1_raw_image", images),
                         "condition": ("type2_condition", conds)}[arm.truth]
    scaler = FeatureScaler(feats)
    net = InverseNet(net_type, RngState(cfg.seed).split("inverse-net"), in_ch=feats.shape[1])
    a = cfg.attacks
    losses = train_inverse_network(scaler(feats), targets, net,
                                   RngState(cfg.seed).split("inverse-train"),
                                   lr=a.inverse_lr, iters=a.inverse_iters, batch=a.inverse_batch)
    recons = net(Tensor(scaler(observed))).data
    return recons, {"net_type": net_type, "iters": a.inverse_iters, "lr": a.inverse_lr,
                    "final_train_loss": losses[-1]}, False


def run_whitebox_attack(arm: Arm, observed, world: SplitWorld, data: DataBundle, cap: EvalCapture,
                        cfg: ExperimentConfig, public) -> tuple[np.ndarray, dict, bool]:
    """Gradient descent on the condition latent of every packet, as one
    batch of per-sample descents, each from its own seed.

    The attacker knows the public encoder/decoder and is granted the noisy
    latent z_t, the strongest honest-but-curious position: without the
    confound activation it can subtract z_t from feat_control exactly and
    decode; with it, the secret offset and the folded sign are missing.
    """
    guess_act = _guess_act(world)
    zt = Tensor(cap.zt)
    a = cfg.attacks

    def model_fn(u):
        pred = tt.add(zt, u)
        return pred if guess_act is None else noise_confound(pred, guess_act)

    u, diverged = whitebox_gd_attack(
        observed, model_fn, cap.zt.shape,
        [RngState(cfg.seed + i).split("whitebox") for i in range(len(observed))],
        iters=a.whitebox_iters, lr=a.whitebox_lr)
    # one sample a decode: conv2d picks its formulation from the batch size
    recons = [world.autoencoder.D(Tensor(u[i : i + 1])).data[0] for i in range(len(u))]
    return np.stack(recons), {"iters": a.whitebox_iters, "lr": a.whitebox_lr}, bool(diverged.any())


def run_unsplit_attack_arm(arm: Arm, observed, world: SplitWorld, data: DataBundle, cap: EvalCapture,
                           cfg: ExperimentConfig, public) -> tuple[np.ndarray, dict, bool]:
    """Black-box alternating optimization against the condition-path features."""
    def make_model(rng):
        enc = CondEncoder(rng, dropout_p=0.0)
        params = list(enc.named_parameters().values())
        eval_rng = rng.split("fwd")
        return (lambda x: enc(x, eval_rng, training=False)), params

    settings = {"outer": cfg.attacks.unsplit_outer, "inner_x": cfg.attacks.unsplit_inner_x,
                "inner_theta": cfg.attacks.unsplit_inner_theta, "lr": cfg.attacks.unsplit_lr}
    recons, diverged = unsplit_attack(observed, make_model, (len(observed), 3, 32, 32),
                                      RngState(cfg.seed).split("unsplit"), **settings)
    return recons, {**settings, "l2_weight": UNSPLIT_L2_WEIGHT}, diverged


@dataclass(frozen=True)
class Arm:
    """An attack method's threat model. `run` (called by name here, so a wrapper
    swapped in by name runs) gets the `_packet_matrix` of `reads` as `observed`, reads
    `cap.zt` only if granted "zt" and `data.public` or `public` (`public_encodings`)
    only if granted "public", and returns (recons, settings, diverged) for `truth`."""

    run: Callable
    reads: tuple[str, ...]  # packet fields, in the order they stack as channels
    grants: tuple[str, ...]  # side information beyond the packets: "zt", "public"
    truth: str  # "image" or "condition"


INVERSE_NET_READS = ("feat_control", "feat_unet", "label_noise")  # all but prompt_feat
# each method of `config.ATTACK_METHODS` and its arm
ARMS = {
    "inverse_net": Arm(run_inverse_net_attack, INVERSE_NET_READS, ("public",), "condition"),
    "inverse_net_type1": Arm(run_inverse_net_attack, INVERSE_NET_READS, ("public",), "image"),
    "whitebox": Arm(run_whitebox_attack, ("feat_control",), ("zt",), "condition"),
    "unsplit": Arm(run_unsplit_attack_arm, ("feat_control",), (), "condition"),
}


def run_attack(method: str, world: SplitWorld, data: DataBundle, cap: EvalCapture,
               cfg: ExperimentConfig, out_dir: Path | None,
               public: ClientEncodings | None) -> dict:
    """Run the attack arm `method` on the packet fields its record reads,
    score each reconstruction by PSNR and SSIM on the 0..255 scale against
    the private ground truth of its truth domain, write the reconstructions
    to `out_dir/recons/<method>_<defense>_<i>.ppm` when `out_dir` is given,
    and return the cell's metrics row."""
    arm = ARMS[method]
    recons, attack_config, diverged = globals()[arm.run.__name__](
        arm, _packet_matrix(cap.packets, arm.reads), world, data, cap, cfg, public)
    truth = {"image": cap.truth_images, "condition": cap.truth_conds}[arm.truth]
    if len(recons) != len(truth):
        raise ValueError(f"{method}: {len(recons)} reconstructions for "
                         f"{len(truth)} private samples")
    psnrs = [psnr(recons[i] * 255.0, truth[i] * 255.0) for i in range(len(truth))]
    ssims = [ssim(recons[i] * 255.0, truth[i] * 255.0) for i in range(len(truth))]
    defense = world.defense.kind
    if out_dir is not None:
        rdir = out_dir / "recons"
        rdir.mkdir(exist_ok=True)
        for i, img in enumerate(recons):
            dtt.write_ppm(rdir / f"{method}_{defense}_{i:03d}.ppm", np.clip(img, 0.0, 1.0))
    return {"kind": "attack", "method": method, "defense": defense, "t_s": cap.t,
            "psnr": psnrs, "ssim": ssims, "psnr_mean": float(np.mean(psnrs)),
            "ssim_mean": float(np.mean(ssims)), "n_samples": len(truth), "diverged": diverged,
            "attack_config": attack_config}


def run_attack_suite(cfg: ExperimentConfig, ae, data: DataBundle, alpha: float,
                     out_dir: Path | None = None) -> list[dict]:
    """Attacks x defense-arms grid; every arm shares seeds, private data and
    the attacker's public encodings. `splitstream attack` runs it on a
    one-cell grid."""
    public = (public_encodings(cfg, ae, data)
              if any("public" in ARMS[m].grants for m in cfg.attacks.methods) else None)
    rows = []
    for defense_kind in cfg.attacks.defenses:
        world = build_world(cfg, defense_kind, ae, data, alpha)
        cap = generate_eval_packets(world, data, derived_seed(cfg, "eval_packets"))
        if out_dir is not None:
            with open(out_dir / f"packets_{defense_kind}.bin", "wb") as f:
                for p in cap.packets:
                    f.write(frame_message(p))
        rows.extend(run_attack(method, world, data, cap, cfg, out_dir, public)
                    for method in cfg.attacks.methods)
    return rows


def _estimated_alpha(cfg: ExperimentConfig, ae, data: DataBundle) -> float:
    """Max pairwise distance over the first 128 training latents (eval
    mode: no dropout, so the RNG is never drawn from)."""
    latents = encode_rows(ae.E, data.train[0][:128], RngState(cfg.seed).split("sensitivity"),
                          training=False)
    return estimate_sensitivity(latents)


def _alpha(cfg: ExperimentConfig, ae, data: DataBundle) -> float:
    """Sensitivity: the configured constant when given, else estimated, with
    [privacy] epsilon checked against the estimate."""
    if cfg.privacy.alpha is not None:
        return cfg.privacy.alpha
    alpha = _estimated_alpha(cfg, ae, data)
    cfg.check_epsilon(alpha)
    return alpha


# ---------------------------------------------------------------------------
# the full pipeline


def run_experiment(cfg: ExperimentConfig) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics: list[dict] = []

    data, ae, alpha = prepare(cfg)
    metrics.append({"kind": "pretrain", "epochs": cfg.pretrain.ae_epochs,
                    "final_loss": ae.pretrain_losses[-1] if ae.pretrain_losses else None})

    # the world trains under the configured mode and defense; its privacy
    # parameters are the calibration the run reports
    world = build_world(cfg, cfg.defense.kind, ae, data, alpha)
    with open(out_dir / "budget.csv", "w") as f:
        write_budget_csv(world.sched, cfg.privacy.delta, alpha, f)
    metrics.append({"kind": "calibration", "alpha_used": alpha,
                    "alpha_estimated": (alpha if cfg.privacy.alpha is None
                                        else _estimated_alpha(cfg, ae, data)),
                    "delta": cfg.privacy.delta, "t_s": world.privacy.t_s,
                    "epsilon_at_t_s": world.privacy.epsilon})

    if cfg.protocol.iterations > 0:
        frozen_before = frozen_fingerprint(world)
        pcfg = protocol_config(cfg, capture_path=str(out_dir / "packets_training.bin"))
        result = run_split_training(world, pcfg)
        metrics.extend(record_training(cfg, world, result, frozen_before, out_dir))

    # attacks over defended/undefended arms
    if cfg.attacks.methods and cfg.attacks.defenses:
        metrics.extend(run_attack_suite(cfg, ae, data, alpha, out_dir))

    manifest = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "config": config_to_dict(cfg),
        "seeds": {"root": cfg.seed,
                  **{name: derived_seed(cfg, name) for name in SEED_OFFSETS}},
        "calibration_constants": {
            "ssim_attack_floor": cfg.attacks.ssim_attack_floor,
            "ssim_drop_inverse": cfg.attacks.ssim_drop_inverse,
            "ssim_drop_whitebox": cfg.attacks.ssim_drop_whitebox,
            "note": "toy-scale thresholds; ordering is the contract, "
                    "absolute full-scale reconstruction numbers are not reproducible here",
        },
        "attacker_model": {
            **{m: {**asdict(ARMS[m]), "run": ARMS[m].run.__name__} for m in cfg.attacks.methods},
            "inverse_net_scaling": "reference stack scaled to toy dims: halved depth, "
                                   "channels divided by ~10, two convs kept at latent "
                                   "resolution before upsampling",
            "dropout_state": "eval packets keep dropout active (training-time artifact)",
        },
        "partition_point": "after denoiser enc_block_1 and after the condition encoder",
    }
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    with open(out_dir / "metrics.jsonl", "w") as f:
        for row in metrics:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    emit_report(out_dir, metrics)
    return out_dir


def frozen_fingerprint(world: SplitWorld) -> str:
    """Digest of the weights split training must leave alone."""
    return param_fingerprint({**world.unet.named_parameters("unet."),
                              **world.autoencoder.named_parameters("ae.")})


def record_training(cfg: ExperimentConfig, world: SplitWorld, result: SplitResult,
                    frozen_before: str, out_dir: Path) -> list[dict]:
    """Write what a training session leaves besides its packet capture, and
    return its `ledger` and `training` metrics rows. The model manifest names
    modules, shapes and frozen flags; the clients' confound secret is written
    only when they ran in this process (a remote client writes its own)."""
    ledger = result.ledger.to_dict(SimClock())
    with open(out_dir / "ledger.json", "w") as f:
        json.dump(ledger, f, indent=2, sort_keys=True)
    save_checkpoint(out_dir / "control_branch.tckp",
                    {name: p.data for name, p in world.branch.named_parameters().items()})
    lines = ["# model manifest", "partition_point = after enc_block_1 / condition encoder", ""]
    for name, params, frozen in (("autoencoder", world.autoencoder.named_parameters(), True),
                                 ("unet", world.unet.named_parameters(), True),
                                 ("control_branch", world.branch.named_parameters(), False)):
        lines.extend(f"{name}.{pname} shape={tuple(p.shape)} frozen={frozen}"
                     for pname, p in sorted(params.items()))
    (out_dir / "model_manifest.txt").write_text("\n".join(lines) + "\n")
    if result.clients:
        save_client_secret(world, out_dir)
    return [{"kind": "ledger", **ledger},
            {"kind": "training", "mode": cfg.protocol.mode, "defense": world.defense.kind,
             "iterations": cfg.protocol.iterations, "losses": result.loss_history,
             "frozen_unchanged": frozen_before == frozen_fingerprint(world)}]


def save_client_secret(world: SplitWorld, out_dir: Path) -> None:
    """Write the clients' confound offset to `client_secret/confound_delta.tckp`
    under `out_dir` when the arm has one; write nothing otherwise."""
    if world.act is not None:
        (out_dir / "client_secret").mkdir(parents=True, exist_ok=True)
        save_checkpoint(out_dir / "client_secret" / "confound_delta.tckp",
                        {"delta": world.act.delta})


def emit_report(out_dir: Path, metrics: list[dict]) -> None:
    """Summary table (defense x attack -> scores, bytes, time model)."""
    rows = [m for m in metrics if m.get("kind") == "attack"]
    ledger = next((m for m in metrics if m.get("kind") == "ledger"), {})
    header = ["method", "defense", "t_s", "ssim_mean", "psnr_mean", "n_samples",
              "diverged", "bytes_up", "bytes_down", "t_sequential", "t_pipelined"]

    def cell(r, k):
        if k == "bytes_up" or k == "bytes_down":
            return ledger.get(k, "")
        if k == "t_sequential":
            return ledger.get("t_total_sequential", "")
        if k == "t_pipelined":
            return ledger.get("t_total_pipelined", "")
        return r.get(k, "")

    csv_lines = [",".join(header)]
    for r in rows:
        csv_lines.append(",".join(str(cell(r, k)) for k in header))
    (out_dir / "summary.csv").write_text("\n".join(csv_lines) + "\n")

    md = ["| " + " | ".join(header) + " |",
          "|" + "|".join(["---"] * len(header)) + "|"]
    for r in rows:
        cells = []
        for k in header:
            v = cell(r, k)
            cells.append(f"{v:.4f}" if isinstance(v, float) else str(v))
        md.append("| " + " | ".join(cells) + " |")
    training = [m for m in metrics if m.get("kind") == "training"]
    if ledger and training:
        clock, t = SimClock(), training[0]
        md.append(f"\nbytes_up, bytes_down, t_sequential and t_pipelined belong to the one "
                  f"training run (mode={t['mode']} defense={t['defense']}), repeated on every "
                  f"attack row; t_* is the SimClock model in clock units (t_client="
                  f"{clock.t_client:g}, t_server={clock.t_server:g}, rate={clock.rate:g} B "
                  f"per unit), not a measured time")
    extra = []
    if training:
        t = training[0]
        losses = t["losses"]
        if losses:
            extra.append(f"\ntraining: mode={t['mode']} defense={t['defense']} "
                         f"iterations={t['iterations']} first-loss={losses[0]:.4f} "
                         f"last-loss={losses[-1]:.4f}")
    if ledger:
        extra.append(f"wire: up={ledger['bytes_up']} B, down={ledger['bytes_down']} B, "
                     f"packets up={ledger['packets_up']}, replies down={ledger['replies_down']}; "
                     f"clock model: sequential "
                     f"{ledger['t_total_sequential']:.1f}, pipelined "
                     f"{ledger['t_total_pipelined']:.1f}")
    (out_dir / "summary.md").write_text("\n".join(md) + "\n" + "\n".join(extra) + "\n")
