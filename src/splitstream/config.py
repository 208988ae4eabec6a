"""Experiment configuration: INI-style files with strict validation.

Every tunable of the pipeline lives here, grouped by section. Unknown
sections or keys are rejected so typos fail loudly. The SPLITSTREAM_SEED
environment variable overrides the experiment seed.
"""

from __future__ import annotations

import configparser
import os
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import CONDITION_KINDS, IMAGE_HW
from .defenses import (BATCH_MIXING, KINDS as DEFENSE_KINDS, TIMESTEP_FLOOR, DefenseConfig,
                       postprocess_features, preprocess_batch)
from .diffusion import VARIANTS, ScheduleError, make_linear_schedule
from .privacy import CalibrationError, PrivacyParams, timestep_for_epsilon
from .rng import RngState

ATTACK_METHODS = ("inverse_net", "inverse_net_type1", "whitebox", "unsplit")


class ConfigError(ValueError):
    pass


def _at_least(section: str, obj, **minimums) -> None:
    for name, low in minimums.items():
        value = getattr(obj, name)
        if value < low:
            raise ConfigError(f"needs [{section}] {name} >= {low}, got {value}")


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
    # classic: each client trains a scratch condition encoder from the gradients the
    # server returns; gradient_free: the frozen pretrained encoder, nothing comes back
    mode: str = "gradient_free"
    clients: int = 1
    iterations: int = 500
    batch: int = 4
    transport: str = "in_process"
    server_lr: float = 1e-3
    client_lr: float = 1e-3
    weight_decay: float = 0.0

    def validate(self) -> None:
        if self.mode not in ("classic", "gradient_free"):
            raise ConfigError(f"unknown protocol mode {self.mode!r}")
        if self.transport not in ("in_process", "tcp"):
            raise ConfigError(f"unknown transport {self.transport!r}")
        _at_least("protocol", self, clients=1, batch=1, iterations=0)


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
        if self.dataset.condition not in CONDITION_KINDS:
            raise ConfigError(f"unknown condition kind {self.dataset.condition!r}")
        if self.schedule.variant not in VARIANTS:
            raise ConfigError(f"unknown forward variant {self.schedule.variant!r}")
        if self.defense.kind not in DEFENSE_KINDS:
            raise ConfigError(f"unknown defense kind {self.defense.kind!r}")
        for kind in self.attacks.defenses:
            if kind not in DEFENSE_KINDS:
                raise ConfigError(f"unknown attack-arm defense {kind!r}")
            if kind in BATCH_MIXING:
                raise ConfigError(f"attack-arm defense {kind!r} mixes a batch, "
                                  "but eval packets hold one sample each")
        for m in self.attacks.methods:
            if m not in ATTACK_METHODS:
                raise ConfigError(f"unknown attack method {m!r}")
        self.protocol.validate()
        # sizes below these fail only later: in data synthesis, a batch loop or a reshape
        _at_least("dataset", self.dataset, n_public=1, n_private=1)
        _at_least("pretrain", self.pretrain, ae_epochs=0, ae_batch=1)
        _at_least("attacks", self.attacks, inverse_iters=1, inverse_batch=1, whitebox_iters=0,
                  unsplit_outer=0, unsplit_inner_x=0, unsplit_inner_theta=0)
        p = self.protocol
        if p.clients > self.dataset.n_train:
            raise ConfigError(f"[protocol] clients = {p.clients} is more than [dataset] "
                              f"n_train = {self.dataset.n_train}: a client would hold no data")
        self._check_with_owners()
        return self

    @property
    def arm_kinds(self) -> list[str]:
        """The defense kind of the training run and of every attack arm."""
        return [self.defense.kind, *(self.attacks.defenses if self.attacks.methods else ())]

    def check_epsilon(self, alpha: float) -> None:
        """[privacy] epsilon against the budgets the schedule can give at
        sensitivity `alpha` below [privacy] t_max, when an arm calibrates its
        timestep floor from it. An estimated alpha is known only after
        pretraining, so the experiment checks again then."""
        pv, s = self.privacy, self.schedule
        if pv.epsilon is None or not any(k in TIMESTEP_FLOOR for k in self.arm_kinds):
            return
        sched = make_linear_schedule(s.T, s.k, s.beta0, s.lam)
        try:
            with warnings.catch_warnings():
                # a budget above epsilon(0) is legal; build_world says so when it calibrates
                warnings.simplefilter("ignore")
                t_s = timestep_for_epsilon(pv.epsilon, sched, pv.delta, alpha)
            PrivacyParams.from_ts(sched, pv.delta, alpha, t_s, pv.t_max)
        except CalibrationError as exc:
            raise ConfigError(f"[privacy] epsilon = {pv.epsilon} at alpha = {alpha:.6g}: {exc}") from None

    def _check_with_owners(self) -> None:
        """Values that would fail only once the world is built or the clients
        run, put through the checks of the code that uses them."""
        s, pv, d = self.schedule, self.privacy, self.defense
        kinds = self.arm_kinds
        # with [privacy] epsilon the floor comes from the budget, once alpha is known
        floor = 1 if pv.epsilon is not None else max(
            replace(d, kind=k).timestep_floor for k in kinds)
        # an empty alpha is estimated after pretraining; a positive stand-in checks the rest
        alpha = 1.0 if pv.alpha is None else pv.alpha
        try:
            sched = make_linear_schedule(s.T, s.k, s.beta0, s.lam)
            PrivacyParams.from_ts(sched, pv.delta, alpha, floor, pv.t_max)
        except (ScheduleError, CalibrationError) as exc:
            raise ConfigError(f"{_OWNER_KEYS[exc.param]}: {exc}") from None
        if pv.alpha is not None:
            self.check_epsilon(pv.alpha)
        # every arm runs both defense hooks, on training or evaluation packets
        blank = np.zeros((self.protocol.batch, 3, IMAGE_HW, IMAGE_HW), np.float32)
        feat = np.arange(2, dtype=np.float32)  # not constant: ldp_rr needs a range to quantize
        for kind in dict.fromkeys(kinds):
            arm = replace(d, kind=kind)
            try:
                preprocess_batch(blank, blank, arm, RngState(0))
            except ValueError as exc:
                key = _DEFENSE_KEYS[kind]
                raise ConfigError(f"[defense] {key} = {getattr(d, key)} for kind = {kind} at "
                                  f"[protocol] batch = {self.protocol.batch}: {exc}") from None
            try:
                postprocess_features(feat, feat, arm, pv.delta, alpha, RngState(0))
            except CalibrationError as exc:
                key = _FEATURE_KEYS[exc.param]
                raise ConfigError(f"[defense] {key} = {getattr(d, key)} for kind = {kind}: "
                                  f"{exc}") from None


_EXPERIMENT_KEYS = {"seed": "int", "out_dir": "str"}
_SECTIONS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _EXPERIMENT_KEYS)

# INI keys that differ from the dataclass field name
_KEY_ALIASES = {"lambda": "lam"}

# the key behind each argument the schedule and calibration checks name
_OWNER_KEYS = {"T": "[schedule] T", "k": "[schedule] k", "beta0": "[schedule] beta0",
               "lam": "[schedule] lambda", "delta": "[privacy] delta",
               "alpha_sens": "[privacy] alpha", "t_max": "[privacy] t_max",
               "t_s": "[defense] t_s"}
# the key each raw-data defense kind reads
_DEFENSE_KEYS = {"add_raw": "sigma2", "mixup": "mix_count", "patch_shuffle": "patch"}
# the [defense] key behind each argument the feature defenses' checks name
_FEATURE_KEYS = {"epsilon": "epsilon", "bits": "rr_bits"}

_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number"),
            "float | None": (float, "a number")}


def _coerce(raw: str, ftype: str, where: str):
    """`raw` as the declared (string) annotation `ftype`; `where` names the
    key, `[section] key`, in every error."""
    raw = raw.strip()
    if raw == "":
        if ftype == "float | None":
            return None
        raise ConfigError(f"{where} is empty")
    if ftype == "str":
        return raw
    if ftype == "list[str]":
        return [tok.strip() for tok in raw.split(",") if tok.strip()]
    if ftype not in _NUMBERS:
        raise ConfigError(f"cannot coerce {where} of declared type {ftype!r}")
    kind, noun = _NUMBERS[ftype]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not {noun}") from None


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (schedule T)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section == "experiment":
            target, ftypes = cfg, _EXPERIMENT_KEYS
        elif section in _SECTIONS:
            target = getattr(cfg, section)
            ftypes = {f.name: f.type for f in fields(target)}
        else:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            name = _KEY_ALIASES.get(key, key)
            if name not in ftypes:
                raise ConfigError(f"unknown key [{section}] {key}")
            setattr(target, name, _coerce(raw, ftypes[name], f"[{section}] {key}"))
    env_seed = os.environ.get("SPLITSTREAM_SEED")
    if env_seed:
        cfg.seed = _coerce(env_seed, "int", "SPLITSTREAM_SEED")
    return cfg.validate()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)
