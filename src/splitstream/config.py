"""Experiment configuration: INI-style files with strict validation.

Every tunable of the pipeline lives here, grouped by section. Unknown
sections or keys are rejected so typos fail loudly. The SPLITSTREAM_SEED
environment variable overrides the experiment seed.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

from .defenses import KINDS as DEFENSE_KINDS, DefenseConfig

ATTACK_METHODS = ("inverse_net", "inverse_net_type1", "whitebox", "unsplit")


class ConfigError(ValueError):
    pass


@dataclass
class DatasetConfig:
    n_train: int = 256
    n_public: int = 256
    n_private: int = 16
    condition: str = "segmentation"  # canny_like | scribble | segmentation


@dataclass
class ScheduleConfig:
    T: int = 1000
    k: float = 1.115e-5
    beta0: float = 8.85e-4
    lam: float = 0.0
    variant: str = "cumulative"  # training variant; DP accounting is per-step


@dataclass
class PrivacyConfig:
    delta: float = 1e-4
    alpha: float | None = 0.16  # None -> estimate from training latents
    clip_norm: float | None = None
    epsilon: float | None = None  # alternative way to pick the floor
    t_max: int = 1000


@dataclass
class ProtocolSection:
    mode: str = "gradient_free"
    clients: int = 1
    iterations: int = 500
    batch: int = 4
    transport: str = "in_process"
    server_lr: float = 1e-3
    client_lr: float = 1e-3
    weight_decay: float = 0.0
    condition_encoder: str = "pretrained"  # pretrained | scratch (classic only)
    t_client: float = 1.0
    t_server: float = 1.0
    rate: float = 1e6


@dataclass
class PretrainConfig:
    ae_epochs: int = 25
    ae_lr: float = 2e-3
    ae_dropout: float = 0.1
    ae_batch: int = 8


@dataclass
class AttackConfig:
    methods: list[str] = field(default_factory=lambda: ["inverse_net", "whitebox"])
    defenses: list[str] = field(default_factory=lambda: ["none", "ours_plus_plus"])
    inverse_iters: int = 1500
    inverse_lr: float = 1e-2
    inverse_batch: int = 8
    whitebox_iters: int = 500
    whitebox_lr: float = 0.05
    unsplit_outer: int = 10
    unsplit_inner_x: int = 30
    unsplit_inner_theta: int = 30
    unsplit_lr: float = 1e-3
    # toy-scale calibration constants asserted by the acceptance suite
    ssim_attack_floor: float = 0.6
    ssim_drop_inverse: float = 0.2
    ssim_drop_whitebox: float = 0.1


@dataclass
class ExperimentConfig:
    seed: int = 2024
    out_dir: str = "runs/experiment"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    defense: DefenseConfig = field(default_factory=lambda: DefenseConfig("ours_plus_plus"))
    protocol: ProtocolSection = field(default_factory=ProtocolSection)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    attacks: AttackConfig = field(default_factory=AttackConfig)

    def validate(self) -> "ExperimentConfig":
        if self.dataset.condition not in ("canny_like", "scribble", "segmentation"):
            raise ConfigError(f"unknown condition kind {self.dataset.condition!r}")
        if self.schedule.variant not in ("per_step", "cumulative"):
            raise ConfigError(f"unknown forward variant {self.schedule.variant!r}")
        if self.defense.kind not in DEFENSE_KINDS:
            raise ConfigError(f"unknown defense kind {self.defense.kind!r}")
        for kind in self.attacks.defenses:
            if kind not in DEFENSE_KINDS:
                raise ConfigError(f"unknown attack-arm defense {kind!r}")
        for m in self.attacks.methods:
            if m not in ATTACK_METHODS:
                raise ConfigError(f"unknown attack method {m!r}")
        if self.protocol.mode not in ("classic", "gradient_free"):
            raise ConfigError(f"unknown protocol mode {self.protocol.mode!r}")
        if self.protocol.condition_encoder not in ("pretrained", "scratch"):
            raise ConfigError(f"unknown condition encoder {self.protocol.condition_encoder!r}")
        if self.protocol.transport not in ("in_process", "tcp"):
            raise ConfigError(f"unknown transport {self.protocol.transport!r}")
        return self


_SECTION_MAP = {
    "dataset": ("dataset", DatasetConfig),
    "schedule": ("schedule", ScheduleConfig),
    "privacy": ("privacy", PrivacyConfig),
    "defense": ("defense", DefenseConfig),
    "protocol": ("protocol", ProtocolSection),
    "pretrain": ("pretrain", PretrainConfig),
    "attacks": ("attacks", AttackConfig),
}

# INI keys that differ from the dataclass field name
_KEY_ALIASES = {"lambda": "lam"}


def _coerce(raw: str, ftype, key: str):
    raw = raw.strip()
    if raw == "":
        return None
    if ftype in (float, "float", "float | None"):
        return float(raw)
    if ftype in (int, "int"):
        return int(raw)
    if ftype in (str, "str"):
        return raw
    if ftype == "list[str]":
        return [tok.strip() for tok in raw.split(",") if tok.strip()]
    raise ConfigError(f"cannot coerce key {key!r} of declared type {ftype!r}")


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (schedule T)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section == "experiment":
            for key, raw in parser.items(section):
                if key == "seed":
                    cfg.seed = int(raw)
                elif key == "out_dir":
                    cfg.out_dir = raw.strip()
                else:
                    raise ConfigError(f"unknown key [experiment] {key!r}")
            continue
        if section not in _SECTION_MAP:
            raise ConfigError(f"unknown config section [{section}]")
        attr, cls = _SECTION_MAP[section]
        target = getattr(cfg, attr)
        ftypes = {f.name: f.type for f in fields(cls)}
        for key, raw in parser.items(section):
            name = _KEY_ALIASES.get(key, key)
            if name not in ftypes:
                raise ConfigError(f"unknown key [{section}] {key!r}")
            setattr(target, name, _coerce(raw, ftypes[name], key))
    env_seed = os.environ.get("SPLITSTREAM_SEED")
    if env_seed:
        cfg.seed = int(env_seed)
    return cfg.validate()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    def section(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}

    return {
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "dataset": section(cfg.dataset),
        "schedule": section(cfg.schedule),
        "privacy": section(cfg.privacy),
        "defense": section(cfg.defense),
        "protocol": section(cfg.protocol),
        "pretrain": section(cfg.pretrain),
        "attacks": section(cfg.attacks),
    }
