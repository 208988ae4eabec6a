"""Defense kinds and comparison defenses: the kind table, calibration,
conservation laws, hook plumbing."""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from splitstream.config import load_config
from splitstream.defenses import (KINDS, DefenseConfig, add_raw_noise, ldp_gauss_features,
                                  postprocess_features, preprocess_batch)
from splitstream.experiment import build_world, derived_seed, generate_eval_packets, prepare
from splitstream.metrics import psnr
from splitstream.rng import RngState

ROOT = Path(__file__).resolve().parents[1]
DELTA, ALPHA = 1e-4, 0.16
MECHANISMS = ("floor", "confound", "prompt", "ldp_gauss", "ldp_rr", "add_raw")
# each kind and exactly the mechanisms it runs
WANT_MECHANISMS = {
    "none": set(), "ldp_gauss": {"ldp_gauss"}, "ldp_rr": {"ldp_rr"}, "add_raw": {"add_raw"},
    "ours_t": {"prompt"}, "ours_c": {"floor", "confound"},
    "ours_plus_plus": {"floor", "confound", "prompt"},
}


class TestLdpGauss:
    def test_huge_epsilon_is_near_identity(self):
        rng = RngState(1)
        x = rng.normal((1000,))
        out = ldp_gauss_features(x, 1e6, DELTA, ALPHA, rng)
        assert np.abs(out - x).max() < 1e-3

    def test_sigma_squared_at_eps_point_one(self):
        from splitstream.privacy import gaussian_sigma

        assert abs(gaussian_sigma(0.1, DELTA, ALPHA) ** 2 - 48.30) < 0.01

    def test_empirical_variance(self):
        rng = RngState(2)
        x = np.zeros(100_000, dtype=np.float32)
        out = ldp_gauss_features(x, 0.5, DELTA, ALPHA, rng)
        from splitstream.privacy import gaussian_sigma

        want = gaussian_sigma(0.5, DELTA, ALPHA) ** 2
        assert abs(out.var() - want) / want < 0.05


class TestAddRaw:
    def test_zero_sigma_identity(self):
        x = RngState(3).uniform((3, 8, 8))
        assert np.array_equal(add_raw_noise(x, 0.0, RngState(4)), x)

    def test_empirical_variance_on_pixel_scale(self):
        rng = RngState(5)
        x = np.zeros((100, 3, 32, 32), dtype=np.float32)
        out = add_raw_noise(x, 1.0, rng)
        # sigma2 = 1 on the 0..255 scale
        assert abs((out * 255).var() - 1.0) < 0.05

    def test_sigma2_50_psnr_closed_form(self):
        rng = RngState(6)
        x = RngState(7).uniform((3, 128, 128)) * 0.6 + 0.2
        out = add_raw_noise(x, 50.0, rng)
        # PSNR(in,out) = 10*log10(255^2/50) = 31.14 dB
        got = psnr(x * 255, out * 255)
        assert abs(got - 31.14) < 0.3


class TestConfigAndHooks:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            DefenseConfig(kind="shredder")

    @pytest.mark.parametrize("kind", sorted(WANT_MECHANISMS))
    def test_a_kind_runs_exactly_its_mechanisms(self, kind):
        assert WANT_MECHANISMS.keys() == KINDS.keys()
        assert {m for m in MECHANISMS if DefenseConfig(kind).runs(m)} == WANT_MECHANISMS[kind]
        assert set(KINDS[kind]) == WANT_MECHANISMS[kind]

    def test_preprocess_lockstep(self):
        # add_raw noises the images, then the conditions, from the one stream
        rng = RngState(23)
        imgs, conds = rng.normal((4, 3, 8, 8)), rng.normal((4, 3, 8, 8))
        oi, oc = preprocess_batch(imgs, conds, DefenseConfig("add_raw", sigma2=50.0),
                                  RngState(24))
        want = RngState(24)
        assert np.array_equal(oi, add_raw_noise(imgs, 50.0, want))
        assert np.array_equal(oc, add_raw_noise(conds, 50.0, want))

    def test_none_is_passthrough(self):
        rng = RngState(25)
        imgs, conds = rng.normal((2, 3, 8, 8)), rng.normal((2, 3, 8, 8))
        oi, oc = preprocess_batch(imgs, conds, DefenseConfig("none"), RngState(26))
        assert oi is imgs and oc is conds
        fu, fc = rng.normal((2, 4, 8, 8)), rng.normal((2, 4, 8, 8))
        ou, oc2 = postprocess_features(fu, fc, DefenseConfig("none"), DELTA, ALPHA, RngState(27))
        assert ou is fu and oc2 is fc

    def test_feature_hooks_perturb_both(self):
        rng = RngState(28)
        fu, fc = rng.normal((2, 4, 8, 8)), rng.normal((2, 4, 8, 8))
        for kind in ("ldp_gauss", "ldp_rr"):
            cfg = DefenseConfig(kind, epsilon=0.5)
            ou, oc = postprocess_features(fu, fc, cfg, DELTA, ALPHA, RngState(29))
            assert not np.array_equal(ou, fu)
            assert not np.array_equal(oc, fc)


def test_prompt_hiding_is_all_that_parts_the_packets_of_each_pair():
    # why `ours_t` scores as `none` and `ours_plus_plus` as `ours_c`: no attack reads prompt_feat
    cfg = load_config(ROOT / "configs" / "attack_tiny.ini")
    data, ae, alpha = prepare(cfg)
    caps = {kind: generate_eval_packets(build_world(cfg, kind, ae, data, alpha), data,
                                        derived_seed(cfg, "eval_packets"))
            for kind in ("none", "ours_t", "ours_c", "ours_plus_plus")}
    assert caps["none"].t == 1 and caps["ours_c"].t == cfg.defense.t_s
    for sent, hidden in (("none", "ours_t"), ("ours_c", "ours_plus_plus")):
        assert caps[sent].zt.tobytes() == caps[hidden].zt.tobytes()
        for p, q in zip(caps[sent].packets, caps[hidden].packets, strict=True):
            assert p.prompt_feat is not None and q.prompt_feat is None
            for f in fields(p):
                if f.name != "prompt_feat":
                    a, b = np.asarray(getattr(p, f.name)), np.asarray(getattr(q, f.name))
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (sent, f.name)


def test_only_the_kind_table_compares_a_kind_name():
    """No comparison in `src/` or `scripts/` outside `defenses.py` has a
    name of `KINDS` as a constant operand: other modules ask
    `DefenseConfig.runs` which mechanisms an arm runs."""
    found = []
    for top in ("src", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "defenses.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare):
                    found += [f"{path.relative_to(ROOT)}:{node.lineno} {c.value!r}"
                              for operand in (node.left, *node.comparators)
                              for c in ast.walk(operand)
                              if isinstance(c, ast.Constant) and c.value in KINDS]
    assert not found
