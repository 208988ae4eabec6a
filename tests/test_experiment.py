"""Experiment orchestration: config loading, artifact layout, determinism
hooks, edge cases."""

import hashlib
import inspect
import json
import os
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from splitstream import data as dtt
from splitstream import experiment
from splitstream.config import (ATTACK_METHODS, ConfigError, ExperimentConfig,
                                config_to_dict, load_config)
from splitstream.defenses import KINDS as DEFENSE_KINDS, postprocess_features, preprocess_batch
from splitstream.experiment import (build_world, derived_seed, generate_eval_packets,
                                    prepare, run_experiment, synthesize_data)
from splitstream.models import Module, param_fingerprint
from splitstream.privacy import timestep_for_epsilon
from splitstream.protocol import (CHUNK_ROWS, client_features, encode_inputs, features_at,
                                  run_split_training)
from splitstream.rng import RngState
from splitstream.tensor import Tensor
from splitstream.wire import FeaturePacket, frame_message, iter_frames

ROOT = Path(__file__).resolve().parents[1]


def _layout(module, prefix="") -> dict:
    """Each submodule's type and each attribute that is not a parameter,
    by attribute path."""
    out = {prefix: type(module).__name__}
    for name, value in vars(module).items():
        if isinstance(value, Module):
            out.update(_layout(value, f"{prefix}{name}."))
        elif not isinstance(value, Tensor):
            out[prefix + name] = value
    return out


def mini_cfg(tmp_path, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.seed = 11
    cfg.out_dir = str(tmp_path / "run")
    cfg.dataset.n_train = 24
    cfg.dataset.n_public = 16
    cfg.dataset.n_private = 3
    cfg.pretrain.ae_epochs = 1
    cfg.protocol.iterations = 4
    cfg.protocol.batch = 2
    cfg.attacks.methods = ["whitebox"]
    cfg.attacks.defenses = ["none", "ours_plus_plus"]
    cfg.attacks.whitebox_iters = 30
    for key, value in overrides.items():
        section, name = key.split(".") if "." in key else (None, key)
        if section:
            setattr(getattr(cfg, section), name, value)
        else:
            setattr(cfg, name, value)
    return cfg.validate()


class TestConfig:
    def test_load_bundled_reference(self):
        cfg = load_config(Path(__file__).parent.parent / "configs" / "reference.ini")
        assert cfg.schedule.k == 1.115e-5
        assert cfg.schedule.beta0 == 8.85e-4
        assert cfg.defense.t_s == 536
        assert cfg.defense.kind == "ours_plus_plus"
        assert cfg.protocol.iterations == 500
        assert cfg.dataset.n_train == 512

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[schedule]\nbeta_zero = 1e-3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[network]\nport = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_env_seed_override(self, tmp_path, monkeypatch):
        p = tmp_path / "c.ini"
        p.write_text("[experiment]\nseed = 5\n")
        monkeypatch.setenv("SPLITSTREAM_SEED", "99")
        assert load_config(p).seed == 99

    def test_every_defense_kind_is_an_attack_arm(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(f"[attacks]\ndefenses = {', '.join(DEFENSE_KINDS)}\n")
        assert load_config(p).attacks.defenses == list(DEFENSE_KINDS)

    def test_bad_values_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        for text in ("[defense]\nkind = shredder\n",
                     "[protocol]\ncondition_encoder = scrach\n",
                     # kinds that are not in defenses.KINDS
                     "[defense]\nkind = mixup\n",
                     "[attacks]\ndefenses = none, patch_shuffle\n",
                     "[schedule]\nvariant = per-step\n",
                     "[dataset]\ncondition = edges\n",
                     "[protocol]\nbatch = 0\n",
                     "[protocol]\niterations = -1\n",
                     "[protocol]\nclients = 0\n",
                     # every client needs a share of the training set
                     "[dataset]\nn_train = 32\n[protocol]\nclients = 40\n"):
            p.write_text(text)
            with pytest.raises(ConfigError):
                load_config(p)
        # malformed and empty values, and sizes that could only fail later (some after
        # a whole training run): each error names its [section] key
        for section, line in (("protocol", "batch = four"), ("experiment", "seed = x"),
                              ("privacy", "alpha = 0.1.6"), ("protocol", "batch ="),
                              ("pretrain", "ae_lr ="), ("dataset", "n_public = 0"),
                              ("dataset", "n_private = 0"), ("pretrain", "ae_batch = 0"),
                              ("pretrain", "ae_epochs = -1"), ("attacks", "inverse_batch = 0"),
                              ("attacks", "inverse_iters = 0"), ("attacks", "whitebox_iters = -1"),
                              ("attacks", "unsplit_outer = -1"),
                              ("attacks", "unsplit_inner_x = -1"),
                              ("attacks", "unsplit_inner_theta = -1"),
                              # an arm or a method listed twice would run twice
                              ("attacks", "defenses = none, none"),
                              ("attacks", "methods = whitebox, inverse_net, whitebox"),
                              # refused by the schedule's and the calibration's own checks
                              ("schedule", "T = 0"), ("schedule", "k = 0.01"),
                              ("privacy", "delta = 0"), ("privacy", "alpha = -1"),
                              # a floor above [schedule] T = 1000, and one at t = 0,
                              # where a packet carries the clean latent
                              ("defense", "t_s = 1001"), ("defense", "t_s = 0"),
                              # no budget, and one below the schedule's floor of 6.297
                              # at alpha = 0.16
                              ("privacy", "epsilon = -1"), ("privacy", "epsilon = 5")):
            p.write_text(f"[{section}]\n{line}\n")
            key = line.partition("=")[0].strip()
            with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
                load_config(p)
        # an attack arm's defense is checked as well as the training run's
        for line, arm in (("epsilon = 0", "ldp_gauss"), ("sigma2 = -1", "add_raw")):
            p.write_text(f"[defense]\nkind = none\n{line}\n[attacks]\nmethods = whitebox\n"
                         f"defenses = none, {arm}\n")
            key = line.partition("=")[0].strip()
            with pytest.raises(ConfigError, match=rf"\[defense\] {key} = \S+ for kind = {arm}"):
                load_config(p)
        # refused by the defense's own checks on one sample
        for kind, line in (("add_raw", "sigma2 = -1"),
                           # and by the feature defenses' own checks
                           ("ldp_gauss", "epsilon = 0"), ("ldp_rr", "epsilon = 0"),
                           ("ldp_rr", "rr_bits = 0")):
            p.write_text(f"[defense]\nkind = {kind}\n{line}\n")
            key = line.partition("=")[0].strip()
            with pytest.raises(ConfigError, match=re.escape(f"[defense] {key}")):
                load_config(p)
        p.write_text("[dataset]\nn_train = 32\n[protocol]\nclients = 32\niterations = 0\n")
        assert load_config(p).protocol.clients == 32
        # an empty value means "estimate" for the optional floats only
        p.write_text("[privacy]\nalpha =\nepsilon =\n")
        assert load_config(p).privacy.alpha is None

    def test_config_to_dict_roundtrips_fields(self):
        d = config_to_dict(ExperimentConfig())
        assert d["schedule"]["k"] == 1.115e-5
        assert d["attacks"]["ssim_drop_inverse"] == 0.2


class TestSynthesizeData:
    def test_disjoint_seed_ranges(self):
        cfg = ExperimentConfig()
        cfg.dataset.n_train = cfg.dataset.n_public = cfg.dataset.n_private = 4
        data = synthesize_data(cfg)
        tr = data.train[0].tobytes()
        pub = data.public[0].tobytes()
        priv = data.private[0].tobytes()
        assert tr != pub and pub != priv and tr != priv

    def test_each_split_is_drawn_through_the_module_on_first_read(self, tmp_path, monkeypatch):
        # perfbench's data.generate span wraps dtt.generate_dataset, so synthesis goes
        # through that attribute; a split is drawn once, in the configured kind only,
        # and `prepare` leaves the public and private splits undrawn
        calls = []
        generate = dtt.generate_dataset

        def counted(*args, **kwargs):
            calls.append(inspect.signature(generate).bind(*args, **kwargs).arguments)
            return generate(*args, **kwargs)

        monkeypatch.setattr(dtt, "generate_dataset", counted)
        cfg = mini_cfg(tmp_path, **{"dataset.condition": "scribble"})
        drawn = {split: {"n": n, "seed": derived_seed(cfg, f"{split}_data"),
                         "kinds": ("scribble",)}
                 for split, n in (("train", 24), ("public", 16), ("private", 3))}
        data = synthesize_data(cfg)
        assert calls == []
        assert data.train is data.train
        assert calls == [drawn["train"]]
        calls.clear()
        prepare(cfg)
        assert calls == [drawn["train"]]
        calls.clear()
        data.public, data.private
        assert calls == [drawn["public"], drawn["private"]]

    def test_a_split_is_held_once_while_drawn(self):
        # reference.ini's training split is rendered straight into its image
        # array and condition codes: traced peak 8.6 MB, 1.32x the 6.5 MB they
        # hold; the rest is one render chunk's temporaries
        cfg = load_config(Path(__file__).parent.parent / "configs" / "reference.ini")
        data = synthesize_data(cfg)
        tracemalloc.start()
        try:
            images, conds, _ = data.train
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(images) == 512
        held = images.nbytes + conds.codes.nbytes
        assert peak < 1.5 * held, peak / held


class TestEvalPackets:
    def test_defended_arms_run_their_hooks(self, tmp_path):
        cfg = mini_cfg(tmp_path, **{"attacks.defenses": ["none", "ldp_gauss", "ldp_rr",
                                                         "add_raw"]})
        data, ae, alpha = prepare(cfg)
        images, conds, prompts = data.private
        seed = derived_seed(cfg, "eval_packets")
        base = generate_eval_packets(build_world(cfg, "none", ae, data, alpha), data, seed)
        for kind in cfg.attacks.defenses[1:]:
            world = build_world(cfg, kind, ae, data, alpha)
            cap = generate_eval_packets(world, data, seed)
            drop, noise, defense = (RngState(seed).split(f"eval-{name}")
                                    for name in ("dropout", "noise", "defense"))
            for i, (pkt, undefended) in enumerate(zip(cap.packets, base.packets)):
                assert not np.array_equal(pkt.feat_unet, undefended.feat_unet), kind
                assert not np.array_equal(pkt.feat_control, undefended.feat_control), kind
                im, co = preprocess_batch(images[i : i + 1], conds[i : i + 1], world.defense,
                                          defense)
                f = client_features(world, im, co, [prompts[i]], cap.t, drop, noise,
                                    world.autoencoder.E, world.act)
                fu, fc = postprocess_features(f.h1, f.s.data, world.defense,
                                              world.privacy.delta, world.privacy.alpha_sens,
                                              defense)
                assert np.array_equal(pkt.feat_unet, fu), kind
                assert np.array_equal(pkt.feat_control, fc), kind
                assert np.array_equal(pkt.label_noise, f.n_hat), kind


    def test_frames_are_the_same_under_both_modes(self, tmp_path):
        # attack packets go through the pretrained encoder the attacker simulates,
        # whichever encoder the mode gives the training client
        cfg = mini_cfg(tmp_path)
        data, ae, alpha = prepare(cfg)
        frames = {}
        for mode in ("gradient_free", "classic"):
            cfg.protocol.mode = mode
            cap = generate_eval_packets(build_world(cfg, "none", ae, data, alpha), data, 5)
            frames[mode] = [frame_message(p) for p in cap.packets]
        assert frames["classic"] == frames["gradient_free"]


class TestAttackerView:
    def test_memory_does_not_grow_with_the_public_split(self, tmp_path):
        # traced peak of one attacker pass: 4.55 MB at CHUNK_ROWS = 32 rows,
        # 4.74 MB at 4 x CHUNK_ROWS (row chunks, each encoding only its own
        # prompts)
        cfg = mini_cfg(tmp_path)
        data, ae, alpha = prepare(cfg)
        world = build_world(cfg, "ours_plus_plus", ae, data, alpha)
        rng = RngState(4)

        def peak_mb(n):
            images, conds = rng.uniform((n, 3, 32, 32)), rng.uniform((n, 3, 32, 32))
            prompts = [["two", "red", "circle"]] * n
            tracemalloc.start()
            try:
                enc = encode_inputs(ae.E, ae.E, images, conds, RngState(5))
                experiment.attacker_view_features(world, enc, prompts, 300, 5,
                                                  experiment.ARMS["inverse_net"].reads)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        peak_mb(1)  # packs the frozen kernels once, outside the measured passes
        small, large = peak_mb(CHUNK_ROWS), peak_mb(4 * CHUNK_ROWS)
        assert large - small < 2.0, (small, large)


    def test_a_suite_encodes_the_public_split_once(self, tmp_path, monkeypatch):
        cfg = mini_cfg(tmp_path, **{"attacks.methods": ["inverse_net", "whitebox"],
                                    "attacks.inverse_iters": 2})
        data, ae, alpha = prepare(cfg)
        images, conds, _ = data.public
        conds = conds[:]  # one row chunk: the encoder sees the split's whole input
        passes = {"images": 0, "conditions": 0}
        encode = type(ae.E).__call__

        def counted(module, x, *args, **kwargs):
            for name, split in (("images", images), ("conditions", conds)):
                passes[name] += x.shape == split.shape and np.array_equal(x.data, split)
            return encode(module, x, *args, **kwargs)

        monkeypatch.setattr(type(ae.E), "__call__", counted)
        rows = experiment.run_attack_suite(cfg, ae, data, alpha)
        assert [(r["method"], r["defense"]) for r in rows] == [
            ("inverse_net", "none"), ("whitebox", "none"),
            ("inverse_net", "ours_plus_plus"), ("whitebox", "ours_plus_plus")]
        assert passes == {"images": 1, "conditions": 1}


class TestRunAttack:
    """`run_attack` scores a cell's reconstructions and builds its row,
    here with stub arms in place of the real ones."""

    ROW_FIELDS = {"kind", "method", "defense", "t_s", "psnr", "ssim", "psnr_mean", "ssim_mean",
                  "n_samples", "diverged", "attack_config"}

    @pytest.fixture
    def cell(self):
        images, conds, _, _ = dtt.generate_dataset(3, 650, kinds=("segmentation",))
        zeros = np.zeros((1, 4, 8, 8), np.float32)
        packets = [FeaturePacket(0, i, 536, zeros, zeros, zeros) for i in range(3)]
        cap = experiment.EvalCapture(packets=packets, zt=np.zeros((3, 4, 8, 8), np.float32),
                                     t=536, truth_conds=conds["segmentation"], truth_images=images)
        world = SimpleNamespace(defense=SimpleNamespace(kind="ours_plus_plus"))
        return world, cap

    def run_stub(self, monkeypatch, cell, method, recons, out_dir=None) -> dict:
        # the method's own record, its function swapped for a stub
        def run_stub_attack(*args):
            return recons, {"iters": 1}, False

        monkeypatch.setattr(experiment, "run_stub_attack", run_stub_attack, raising=False)
        monkeypatch.setitem(experiment.ARMS, method,
                            replace(experiment.ARMS[method], run=run_stub_attack))
        world, cap = cell
        return experiment.run_attack(method, world, None, cap, None, out_dir, None)

    def test_an_arm_short_of_reconstructions_is_refused(self, monkeypatch, cell):
        recons = np.zeros((2, 3, 32, 32), np.float32)
        with pytest.raises(ValueError, match="2 reconstructions for 3 private samples"):
            self.run_stub(monkeypatch, cell, "whitebox", recons)

    @pytest.mark.parametrize("method", ATTACK_METHODS)
    def test_the_row_carries_the_configured_method_name(self, monkeypatch, cell, method,
                                                          tmp_path):
        recons = np.full((3, 3, 32, 32), 0.5, np.float32)
        row = self.run_stub(monkeypatch, cell, method, recons, tmp_path)
        assert set(row) == self.ROW_FIELDS
        assert (row["kind"], row["method"], row["defense"], row["t_s"]) == (
            "attack", method, "ours_plus_plus", 536)
        assert row["n_samples"] == len(row["psnr"]) == len(row["ssim"]) == 3
        assert row["attack_config"] == {"iters": 1} and row["diverged"] is False
        assert sorted(p.name for p in (tmp_path / "recons").iterdir()) == [
            f"{method}_ours_plus_plus_{i:03d}.ppm" for i in range(3)]

    @pytest.mark.parametrize("method", ATTACK_METHODS)
    def test_perfect_reconstructions_score_ssim_1_and_psnr_inf(self, monkeypatch, cell, method):
        # the truth is the one the method's record declares
        _, cap = cell
        truth = {"image": cap.truth_images,
                 "condition": cap.truth_conds[:]}[experiment.ARMS[method].truth]
        row = self.run_stub(monkeypatch, cell, method, truth.copy())
        assert all(s == pytest.approx(1.0) for s in row["ssim"])
        assert all(np.isinf(p) for p in row["psnr"]) and np.isinf(row["psnr_mean"])


class _NoPublicSplit(experiment.DataBundle):
    """A config's splits, of which reading the public one fails."""

    @property
    def public(self):
        raise AssertionError("read the public split without the grant")


class TestArmRecords:
    """Each arm of `experiment.ARMS` reads what its record declares, and
    the records are all a run needs to know about an arm."""

    @pytest.mark.parametrize("method", sorted(experiment.ARMS))
    def test_an_arm_reads_only_what_it_declares(self, tmp_path, monkeypatch, method):
        cfg = mini_cfg(tmp_path, **{"attacks.methods": [method], "attacks.inverse_iters": 2,
                                    "attacks.whitebox_iters": 3, "attacks.unsplit_outer": 1,
                                    "attacks.unsplit_inner_x": 2,
                                    "attacks.unsplit_inner_theta": 2})
        data, ae, alpha = prepare(cfg)
        world = build_world(cfg, "ours_c", ae, data, alpha)  # confound on, prompt sent
        cap = generate_eval_packets(world, data, 5)
        public = experiment.public_encodings(cfg, ae, data)
        arm = experiment.ARMS[method]
        recons, arm_fn = [], arm.run

        def recorded(*args):
            out = arm_fn(*args)
            recons.append(out[0])
            return out

        monkeypatch.setattr(experiment, arm.run.__name__, recorded)  # as perfbench's tracer

        def poisoned(p):
            return replace(p, **{f.name: np.full_like(getattr(p, f.name), np.nan)
                                 for f in fields(p) if f.name not in arm.reads
                                 and isinstance(getattr(p, f.name), np.ndarray)})

        nan_cap = replace(cap, packets=[poisoned(p) for p in cap.packets],
                          zt=cap.zt if "zt" in arm.grants else np.full_like(cap.zt, np.nan))
        assert np.isnan(nan_cap.packets[0].prompt_feat).all()
        poisoned_run = ((data, public) if "public" in arm.grants
                        else (_NoPublicSplit(cfg), None))
        # no arm reads the clients' confound secret or their training data
        no_secrets = replace(world, act=None, datasets=[])
        rows = [experiment.run_attack(method, world, data, cap, cfg, None, public),
                experiment.run_attack(method, no_secrets, poisoned_run[0], nan_cap, cfg, None,
                                      poisoned_run[1])]
        assert json.dumps(rows[0], sort_keys=True) == json.dumps(rows[1], sort_keys=True)
        assert recons[0].tobytes() == recons[1].tobytes()

    def test_a_new_arm_is_one_record_and_one_function(self, tmp_path, monkeypatch):
        def run_echo_attack(arm, observed, world, data, cap, cfg, public):
            return cap.truth_images.copy(), {"iters": 0}, False

        def no_public_encodings(*args):
            raise AssertionError("the public split encoded for arms granted none of it")

        monkeypatch.setattr(experiment, "run_echo_attack", run_echo_attack, raising=False)
        monkeypatch.setitem(experiment.ARMS, "echo",
                            experiment.Arm(run_echo_attack, ("feat_unet",), (), "image"))
        monkeypatch.setattr(experiment, "public_encodings", no_public_encodings)
        cfg = mini_cfg(tmp_path, **{"protocol.iterations": 0})
        cfg.attacks.methods = ["echo"]  # past validation: `config.ATTACK_METHODS` lacks it
        out = Path(run_experiment(cfg))
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        attacks = [r for r in rows if r["kind"] == "attack"]
        assert [r["defense"] for r in attacks] == ["none", "ours_plus_plus"]
        for r in attacks:  # scored against the private images
            assert all(s == pytest.approx(1.0) for s in r["ssim"])
            assert all(np.isinf(p) for p in r["psnr"])
        model = json.loads((out / "manifest.json").read_text())["attacker_model"]
        assert set(model) == {"echo", "inverse_net_scaling", "dropout_state"}  # configured only
        assert model["echo"] == {"run": "run_echo_attack", "reads": ["feat_unet"], "grants": [],
                                 "truth": "image"}

    def test_the_manifest_states_each_configured_arm(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPLITSTREAM_SEED", raising=False)
        cfg = load_config(ROOT / "configs" / "classic_tiny.ini")
        cfg.out_dir = str(tmp_path / "run")
        model = json.loads((Path(run_experiment(cfg)) / "manifest.json").read_text())[
            "attacker_model"]
        assert set(model) == {*cfg.attacks.methods, "inverse_net_scaling", "dropout_state"}
        assert len(cfg.attacks.methods) == 4
        for method in cfg.attacks.methods:
            arm = experiment.ARMS[method]
            assert model[method] == {"run": arm.run.__name__, "reads": list(arm.reads),
                                     "grants": list(arm.grants), "truth": arm.truth}, method

    def test_the_inverse_net_stacks_its_declared_fields_in_order(self, tmp_path):
        # on the packets and in the attacker's simulation alike
        cfg = mini_cfg(tmp_path)
        data, ae, alpha = prepare(cfg)
        world = build_world(cfg, "none", ae, data, alpha)
        cap = generate_eval_packets(world, data, 5)
        reads = experiment.ARMS["inverse_net"].reads
        assert reads == experiment.ARMS["inverse_net_type1"].reads == (
            "feat_control", "feat_unet", "label_noise")
        observed = experiment._packet_matrix(cap.packets, reads)
        assert observed.shape == (3, 12, 8, 8)  # 4 + 4 + 4 channels
        for row, p in zip(observed, cap.packets):
            assert np.array_equal(row, np.concatenate([p.feat_control, p.feat_unet,
                                                       p.label_noise], axis=1)[0])
        enc = experiment.public_encodings(cfg, ae, data)
        prompts = data.public[2]
        simulated = experiment.attacker_view_features(world, enc, prompts, cap.t, 5, reads)
        f = features_at(world, enc, prompts, cap.t, RngState(5).split("atk-noise"), None)
        assert np.array_equal(simulated, np.concatenate([f.s.data, f.h1, f.n_hat], axis=1))


class TestBuildWorld:
    def test_mode_decides_the_condition_encoder(self, tmp_path):
        cfg = mini_cfg(tmp_path)
        data, ae, alpha = prepare(cfg)
        assert build_world(cfg, "none", ae, data, alpha).cond_encoder is ae.E
        cfg.protocol.mode = "classic"
        world = build_world(cfg, "none", ae, data, alpha)
        assert world.cond_encoder is not ae.E and not world.cond_encoder.frozen
        assert world.autoencoder is ae and ae.E.frozen

    def test_every_arm_builds_the_same_frozen_denoiser(self, tmp_path):
        # no arm changes the frozen UNet, so one object can serve every arm
        cfg = mini_cfg(tmp_path, **{"protocol.iterations": 2})
        data, ae, alpha = prepare(cfg)
        kinds = ("ours_plus_plus", "none")
        own = {k: build_world(cfg, k, ae, data, alpha) for k in kinds}
        a, b = (own[k].unet for k in kinds)
        assert param_fingerprint(a.named_parameters()) == param_fingerprint(b.named_parameters())
        assert _layout(a) == _layout(b)
        shared = build_world(cfg, "none", ae, data, alpha).unet
        layout = _layout(shared)

        def outputs(world):
            cap = generate_eval_packets(world, data, 5)
            result = run_split_training(world, experiment.protocol_config(cfg))
            return ([frame_message(p) for p in cap.packets], result.loss_history,
                    param_fingerprint(world.branch.named_parameters()))

        # the hiding arm first, so a change it left on the shared UNet would show in the next
        for k in kinds:
            on_shared = replace(build_world(cfg, k, ae, data, alpha), unet=shared)
            assert outputs(on_shared) == outputs(own[k]), k
        assert _layout(shared) == layout

    def test_protocol_config_copies_declared_fields_only(self, tmp_path):
        cfg = mini_cfg(tmp_path)
        cfg.protocol.condition_encoder = "scratch"  # declared by no field
        pcfg = experiment.protocol_config(cfg)
        assert not hasattr(pcfg, "condition_encoder")
        assert pcfg.mode == cfg.protocol.mode and pcfg.seed == cfg.seed


class TestRunExperiment:
    def test_artifacts_exist(self, tmp_path):
        out = Path(run_experiment(mini_cfg(tmp_path)))
        for name in ("manifest.json", "metrics.jsonl", "budget.csv", "ledger.json",
                     "summary.csv", "summary.md", "control_branch.tckp",
                     "model_manifest.txt", "packets_training.bin",
                     "packets_none.bin", "packets_ours_plus_plus.bin"):
            assert (out / name).exists(), name
        assert (out / "client_secret" / "confound_delta.tckp").exists()
        assert list((out / "recons").glob("*.ppm"))

    def test_epsilon_checked_against_the_estimated_alpha_before_training(self, tmp_path,
                                                                          monkeypatch):
        # validation cannot check [privacy] epsilon while alpha is still to be estimated
        cfg = mini_cfg(tmp_path, **{"privacy.alpha": None, "privacy.epsilon": 1e-3})

        def no_training(*args, **kwargs):
            raise AssertionError("training started with an unachievable epsilon")

        monkeypatch.setattr(experiment, "run_split_training", no_training)
        with pytest.raises(ConfigError, match=re.escape("[privacy] epsilon = 0.001 at alpha")):
            run_experiment(cfg)

    def test_every_attack_method_has_an_arm(self):
        assert sorted(experiment.ARMS) == sorted(ATTACK_METHODS)

    def test_manifest_records_every_derived_seed(self, tmp_path):
        cfg = mini_cfg(tmp_path, **{"protocol.iterations": 0})
        cfg.attacks.methods = []
        out = Path(run_experiment(cfg))
        seeds = json.loads((out / "manifest.json").read_text())["seeds"]
        assert seeds == {"root": 11, "train_data": 12, "public_data": 13, "private_data": 14,
                         "eval_packets": 18, "attacker_features": 22}

    def test_secret_not_in_server_manifest(self, tmp_path):
        out = Path(run_experiment(mini_cfg(tmp_path)))
        manifest = (out / "model_manifest.txt").read_text()
        assert "delta" not in manifest
        assert "client_secret" not in manifest
        assert "partition_point" in manifest

    def test_zero_iterations_valid_empty_report(self, tmp_path):
        cfg = mini_cfg(tmp_path, **{"protocol.iterations": 0})
        cfg.attacks.methods = []
        out = Path(run_experiment(cfg))
        assert (out / "manifest.json").exists()
        assert (out / "metrics.jsonl").exists()
        assert not (out / "ledger.json").exists()
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert not any(r["kind"] == "training" for r in rows)
        # empty results: header-only summary
        assert len((out / "summary.csv").read_text().strip().splitlines()) == 1

    def test_summary_carries_bytes_and_time_columns(self, tmp_path):
        out = Path(run_experiment(mini_cfg(tmp_path)))
        header = (out / "summary.csv").read_text().splitlines()[0].split(",")
        for col in ("bytes_up", "bytes_down", "t_sequential", "t_pipelined"):
            assert col in header
        # summary.md says whose bytes and time these are, and that the time is a model
        note = (out / "summary.md").read_text().splitlines()[5]
        assert "one training run (mode=gradient_free defense=ours_plus_plus)" in note
        assert "SimClock model in clock units (t_client=1, t_server=1, rate=1e+06" in note

    def test_design_decision_tunables_reachable(self):
        # every tunable the modules document must exist on the config
        cfg = ExperimentConfig()
        assert hasattr(cfg.schedule, "T") and hasattr(cfg.schedule, "k")
        assert hasattr(cfg.schedule, "beta0") and hasattr(cfg.schedule, "variant")
        for name in ("delta", "alpha", "epsilon"):
            assert hasattr(cfg.privacy, name)
        for name in ("kind", "epsilon", "rr_bits", "sigma2", "t_s"):
            assert hasattr(cfg.defense, name)
        for name in ("mode", "clients", "iterations", "batch", "transport",
                     "server_lr", "client_lr"):
            assert hasattr(cfg.protocol, name)
        for name in ("ae_epochs", "ae_lr", "ae_dropout", "ae_batch"):
            assert hasattr(cfg.pretrain, name)

    def test_budget_csv_has_reference_epsilon_line(self, tmp_path):
        cfg = mini_cfg(tmp_path)
        out = Path(run_experiment(cfg))
        lines = (out / "budget.csv").read_text().splitlines()
        assert lines[0] == "t,beta,alpha,alpha_bar,epsilon"
        row = lines[537].split(",")
        assert row[0] == "536"
        assert 7.5 <= float(row[4]) <= 8.6

    def test_calibration_reports_the_floor_trained_at(self, tmp_path):
        # with [privacy] epsilon the floor comes from the budget, not [defense] t_s
        cfg = mini_cfg(tmp_path, **{"privacy.epsilon": 8.0})
        cfg.attacks.methods = []
        out = Path(run_experiment(cfg))
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        cal = next(r for r in rows if r["kind"] == "calibration")
        sched = cfg.schedule.build()
        assert cal["t_s"] == timestep_for_epsilon(8.0, sched, cfg.privacy.delta, cfg.privacy.alpha)
        assert cal["t_s"] != cfg.defense.t_s
        assert cal["epsilon_at_t_s"] <= 8.0
        with open(out / "packets_training.bin", "rb") as f:
            timesteps = [pkt.timestep for pkt in iter_frames(f)]
        assert len(timesteps) == 4 and min(timesteps) >= cal["t_s"]

    def test_a_floor_is_never_below_1(self):
        # above epsilon(0) the budget asks for t_s = 0, where a packet carries the clean latent
        cfg = ExperimentConfig()
        cfg.privacy.epsilon = 100.0
        with pytest.warns(UserWarning, match="exceeds epsilon"):
            _, defense, privacy = cfg.calibrate("ours_c", 0.16)
        assert defense.t_s == privacy.t_s == cfg.calibrate("none", 0.16)[2].t_s == 1
        cfg.privacy.epsilon = 8.0
        sched = cfg.schedule.build()
        assert cfg.calibrate("ours_c", 0.16)[2].t_s == timestep_for_epsilon(
            8.0, sched, cfg.privacy.delta, 0.16) == 593
        # without [privacy] epsilon only a floor arm takes [defense] t_s
        cfg.privacy.epsilon = None
        assert [cfg.calibrate(kind, 0.16)[2].t_s for kind in ("ours_c", "ldp_gauss")] == [536, 1]

    def test_metrics_rows_complete(self, tmp_path):
        out = Path(run_experiment(mini_cfg(tmp_path)))
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        kinds = [r["kind"] for r in rows]
        assert "pretrain" in kinds and "calibration" in kinds and "training" in kinds
        attacks = [r for r in rows if r["kind"] == "attack"]
        # |methods| x |defense arms|
        assert len(attacks) == 2
        assert {a["defense"] for a in attacks} == {"none", "ours_plus_plus"}
        for a in attacks:
            assert len(a["ssim"]) == 3

    def test_summary_row_count(self, tmp_path):
        out = Path(run_experiment(mini_cfg(tmp_path)))
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # header + methods x defenses

    def test_training_frozen_flag_recorded(self, tmp_path):
        out = Path(run_experiment(mini_cfg(tmp_path)))
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        training = next(r for r in rows if r["kind"] == "training")
        assert training["frozen_unchanged"] is True
        assert len(training["losses"]) == 4

    def test_ledger_json_schema(self, tmp_path):
        out = Path(run_experiment(mini_cfg(tmp_path)))
        ledger = json.loads((out / "ledger.json").read_text())
        for key in ("bytes_up", "bytes_down", "packets_up", "replies_down",
                    "t_total_sequential", "t_total_pipelined"):
            assert key in ledger
        assert "packets" not in ledger  # uplink packets and replies are never summed
        assert ledger["payload_bytes_down"] == 0  # gradient-free run
        # ledger.json is pinned byte for byte by tests/output_digests.json, in both configs

    # tests/output_digests.json pins gradient-free training with prompt hiding
    # (smoke.ini) and classic training without it (classic_tiny.ini); no table
    # config trains a classic client's scratch encoder with prompt hiding
    @pytest.mark.parametrize("overrides, branch_sha256, manifest_sha256", [
        # classic alone gives the client a scratch condition encoder to train
        ({"protocol.mode": "classic"},
         "ac9b1d36f619c07e370560a793e8039457586896a833ab7432e3110c618a094d",
         "5f50f14722d6a4eecd6461501973e2f6d5ad759c3861dd9129bd1c19a1710456"),
    ], ids=["classic_scratch"])
    def test_server_checkpoint_bytes_pinned(self, tmp_path, overrides, branch_sha256,
                                            manifest_sha256):
        # the trained control branch and its manifest, byte for byte as this run has
        # always written them; the attacks run after both are written
        cfg = mini_cfg(tmp_path, **overrides)
        cfg.attacks.methods = []
        out = Path(run_experiment(cfg))

        def sha256(name):
            return hashlib.sha256((out / name).read_bytes()).hexdigest()

        assert sha256("control_branch.tckp") == branch_sha256
        assert sha256("model_manifest.txt") == manifest_sha256
