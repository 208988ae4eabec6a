"""Acceptance criteria.

One test per criterion, run at the stated tolerance, printing one
PASS line each (visible with `pytest -s tests/test_acceptance.py`).
The heavyweight criteria (training sanity, attack ordering) share a single
reference-config experiment run.
"""

import json
import math
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from test_output_digests import TABLE, pin_outputs

from splitstream import tensor as tt
from splitstream.config import load_config
from splitstream.diffusion import forward_diffuse, make_linear_schedule, predict_x0
from splitstream.experiment import build_world, protocol_config, run_experiment, synthesize_data
from splitstream.models import (NoiseConfoundingActivation, noise_confound,
                                pretrain_autoencoder)
from splitstream.privacy import (epsilon_for_timestep, gaussian_sigma,
                                 timestep_for_epsilon)
from splitstream.protocol import SimClock, run_split_training
from splitstream.rng import RngState
from splitstream.tensor import Tensor
from splitstream.wire import (FeaturePacket, GradientPacket, WireError,
                              frame_message, parse_message)

ROOT = Path(__file__).parent.parent
DELTA, ALPHA = 1e-4, 0.16
REFERENCE = dict(T=1000, k=1.115e-5, beta0=8.85e-4)


def ok(n, msg):
    print(f"ACCEPTANCE {n:02d} PASS: {msg}")


@pytest.fixture(scope="module")
def sched():
    return make_linear_schedule(**REFERENCE)


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """One full reference-config experiment at the config's own seed, shared by
    criteria 11 and 12 and by the check of its output digests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SPLITSTREAM_SEED", raising=False)
        cfg = load_config(ROOT / "configs" / "reference.ini")
    cfg.out_dir = str(tmp_path_factory.mktemp("reference-run"))
    t0 = time.perf_counter()
    out = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    rows = [json.loads(l) for l in (Path(out) / "metrics.jsonl").read_text().splitlines()]
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    return {"out": Path(out), "rows": rows, "manifest": manifest,
            "elapsed": elapsed, "cfg": cfg}


@pytest.fixture(scope="module")
def matched_runs(tmp_path_factory):
    """Classic vs gradient-free at matched tensors and iterations."""
    results = {}
    for mode, defense in (("classic", "none"), ("gradient_free", "ours_plus_plus")):
        cfg = load_config(ROOT / "configs" / "reference.ini")
        cfg.out_dir = str(tmp_path_factory.mktemp(f"matched-{mode}"))
        cfg.dataset.n_train = 64
        cfg.pretrain.ae_epochs = 1
        cfg.protocol.mode = mode
        cfg.protocol.iterations = 30
        cfg.defense.kind = defense
        cfg.attacks.methods = []
        cfg.validate()
        data = synthesize_data(cfg)
        ae = pretrain_autoencoder(data.train[0], cfg.pretrain.ae_epochs,
                                  RngState(cfg.seed).split("autoencoder"))
        world = build_world(cfg, defense, ae, data, ALPHA)
        results[mode] = run_split_training(world, protocol_config(cfg))
    return results


def test_criterion_01_budget_calibration(sched):
    t0 = time.perf_counter()
    eps = epsilon_for_timestep(536, sched, DELTA, ALPHA)
    elapsed = time.perf_counter() - t0
    assert 7.5 <= eps <= 8.6
    assert elapsed < 1.0
    ok(1, f"epsilon(536) = {eps:.4f} in [7.5, 8.6] ({elapsed*1e3:.1f} ms)")


def test_criterion_02_calibration_equivalence(sched):
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(1, 1001):
        eps = epsilon_for_timestep(t, sched, DELTA, ALPHA)
        sigma2 = gaussian_sigma(eps, DELTA, ALPHA) ** 2
        want = sched.beta[t] / (1.0 - sched.beta[t])
        worst = max(worst, abs(sigma2 - want) / want)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 1.0
    ok(2, f"sigma^2 == beta/(1-beta) for all t, worst rel err {worst:.2e} ({elapsed*1e3:.0f} ms)")


def test_criterion_03_budget_roundtrip(sched):
    worst = 0
    for t in range(0, 1001):
        eps = epsilon_for_timestep(t, sched, DELTA, ALPHA)
        back = timestep_for_epsilon(eps, sched, DELTA, ALPHA)
        worst = max(worst, abs(back - t))
    assert worst <= 1
    ok(3, f"timestep/budget roundtrip within +-{worst} step over [0, 1000]")


def test_criterion_04_forward_noise_statistics(sched):
    t0 = time.perf_counter()
    rng = RngState(4)
    rel_errs = []
    for t in (100, 536, 1000):
        z0 = np.zeros(100_000, dtype=np.float32)
        state = forward_diffuse(z0, t, sched, rng, "per_step")
        injected = state.zt  # z0 = 0, so zt is purely the injected noise
        rel = abs(injected.var() - sched.beta[t]) / sched.beta[t]
        rel_errs.append(rel)
        assert rel < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(4, "per-step injected variance within 5% of beta_t at t=100/536/1000 "
          f"(rel errs {', '.join(f'{r:.3f}' for r in rel_errs)}; {elapsed:.1f} s)")


def test_criterion_05_activation_identities():
    rng = RngState(5)
    act = NoiseConfoundingActivation.create(rng)
    # y(0) = delta exactly
    y0 = noise_confound(Tensor(np.zeros((1, 4, 8, 8), np.float32)), act).data
    assert np.array_equal(y0[0], act.delta)
    # symmetry identity over 1e4 random inputs
    x = rng.normal((10_000,)) * 3.0
    sig = 1.0 / (1.0 + np.exp(-x))
    y = np.abs(x) * 2.0 * sig
    y_neg = np.abs(x) * 2.0 * (1.0 - sig)
    worst = np.abs((y + y_neg) - 2.0 * np.abs(x)).max()  # delta cancels in the identity
    assert worst < 1e-5
    # non-injectivity witness on the negative lobe
    def f(v):
        return 2.0 * abs(v) / (1.0 + math.exp(-v))

    target = f(-0.6)
    # f rises from 0 toward its lobe maximum as v increases over [-9, -1.2785]
    lo, hi = -9.0, -1.2785
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            hi = mid
        else:
            lo = mid
    x2 = 0.5 * (lo + hi)
    assert x2 != -0.6
    assert abs(f(-0.6) - f(x2)) < 1e-6
    ok(5, f"y(0)=delta, symmetry worst err {worst:.2e}, witness pair (-0.6, {x2:.4f})")


def test_criterion_06_zero_conv_neutrality():
    from splitstream.models import (ControlBranch, PromptEncoder, ToyAutoencoder,
                                    ToyUNet, unet_denoise)

    rng = RngState(6)
    unet = ToyUNet(rng.split("unet"))
    unet.freeze()
    ae = ToyAutoencoder(rng.split("ae"))
    ae.freeze()
    branch = ControlBranch(unet)
    pe = PromptEncoder(["one", "red", "circle"], rng.split("pe"))
    for i in range(100):
        zt = rng.normal((1, 4, 8, 8))
        prompt = pe.encode([["one", "red"]])
        cond = rng.uniform((1, 3, 32, 32))
        cf = ae.E(Tensor(cond), rng, training=False)
        taps = branch.server_forward(tt.add(Tensor(zt), cf), int(rng.integers(1, 1000)),
                                     Tensor(prompt))
        uncond = unet_denoise(Tensor(zt), 500, Tensor(prompt), [], unet)
        cond_out = unet_denoise(Tensor(zt), 500, Tensor(prompt), taps, unet)
        assert uncond.data.tobytes() == cond_out.data.tobytes()
    ok(6, "conditional == unconditional bit-exact on 100 random inputs at zero-conv init")


def _gradcheck_case(idx: int) -> float:
    """One randomized small-shape finite-difference check; returns worst rel err."""
    rng = RngState(10_000 + idx)
    n = int(rng.integers(1, 2))
    c = int(rng.integers(1, 3))
    h = int(rng.integers(2, 4))
    w = int(rng.integers(2, 4))
    x_np = rng.normal((n, c, h, w)) * 0.8 + 0.1

    ops = [
        ("conv2d", lambda x: tt.conv2d(x, Tensor(RngState(idx).normal((2, c, 2, 2)) * 0.5),
                                       1, 1)),
        ("silu", tt.silu),
        ("sigmoid", tt.sigmoid),
        ("relu", tt.relu),
        ("abs", tt.abs_),
        ("softmax", lambda x: tt.softmax_last(tt.reshape(x, (n * c, h * w)))),
        ("upsample", tt.upsample2x),
        ("mul", lambda x: tt.mul(x, x)),
        ("dropout", lambda x: tt.dropout(x, 0.3, RngState(55), training=True)),
        ("confound", lambda x: noise_confound(
            x, NoiseConfoundingActivation(delta=RngState(idx).normal((c, h, w))))),
        # moderate scales keep the fp32 difference-quotient noise well under
        # the tolerance for the attention/dense compositions
        ("attention", lambda x: tt.attention(tt.reshape(tt.scale(x, 0.5), (n, c * h, w)),
                                             tt.reshape(tt.scale(x, 0.5), (n, c * h, w)),
                                             tt.reshape(tt.scale(x, 0.5), (n, c * h, w)))),
        ("dense", lambda x: tt.dense(tt.reshape(x, (n * c, h * w)),
                                     Tensor(RngState(idx).normal((h * w, 3)) * 0.3),
                                     Tensor(RngState(idx + 1).normal((3,)) * 0.3))),
        ("bias_add", lambda x: tt.bias_add(x, Tensor(RngState(idx).normal((c,))))),
        ("concat", lambda x: tt.concat([x, tt.scale(x, 2.0)], 1)),
    ]
    # the fused attention nodes the model runs, input gradient only, scaled
    # down as above (self_attention further: its tokens also feed the
    # residual); they take cases 200 on, over a list of their own, so cases
    # 0-199 keep their ops and their draws
    fused = [
        ("self_attention", lambda x: tt.self_attention(tt.scale(x, 0.25))),
        ("cross_attention", lambda x: tt.cross_attention(
            tt.scale(x, 0.5), Tensor(RngState(idx).normal((n, 3, 4)) * 0.5),
            *(Tensor(RngState(idx + k).normal(shape) * 0.5)
              for k, shape in enumerate([(c, 2), (4, 2), (4, 2), (2, c)], 1)))),
    ]
    name, op = ops[idx % len(ops)] if idx < 200 else fused[idx % len(fused)]

    x = Tensor(x_np, requires_grad=True)
    tt.sum_squares(op(x)).backward()
    analytic = x.grad.copy()

    hstep = 1e-3
    flat = x_np.reshape(-1)
    numeric = np.zeros_like(flat, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + hstep
        fp = float(np.sum(op(Tensor(x_np)).data.astype(np.float64) ** 2))
        flat[i] = orig - hstep
        fm = float(np.sum(op(Tensor(x_np)).data.astype(np.float64) ** 2))
        flat[i] = orig
        numeric[i] = (fp - fm) / (2 * hstep)
    numeric = numeric.reshape(x_np.shape)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_07_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for idx in range(240):
        err = _gradcheck_case(idx)
        worst = max(worst, err)
        assert err < 1e-3, f"case {idx} rel err {err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(7, f"240 finite-difference cases pass, worst rel err {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_08_one_step_inversion(sched):
    rng = RngState(8)
    z0 = rng.normal((4, 8, 8))
    worst = 0.0
    for variant in ("per_step", "cumulative"):
        for t in range(1, 1001):
            state = forward_diffuse(z0, t, sched, rng, variant)
            back = predict_x0(state.zt, state.n_hat, t, sched, variant)
            worst = max(worst, float(np.mean((back - z0) ** 2)))
    assert worst < 1e-10
    ok(8, f"predict_x0 recovers z0, worst MSE {worst:.2e} across both variants, all t")


def test_criterion_09_protocol_bytes(matched_runs):
    classic = matched_runs["classic"].ledger
    free = matched_runs["gradient_free"].ledger
    ratio = classic.total_bytes() / free.total_bytes()
    assert ratio >= 2.5
    assert free.payload_bytes_down == 0
    ok(9, f"bytes(classic)/bytes(gradient_free) = {ratio:.2f} >= 2.5; "
          f"gradient-free downlink payload = {free.payload_bytes_down} bytes")


def test_criterion_10_time_model(matched_runs):
    clock = SimClock(t_client=1.0, t_server=2.0, rate=2e5)
    checks = []
    for mode, which in (("gradient_free", "pipelined"), ("classic", "sequential")):
        led = matched_runs[mode].ledger
        t_c = len(led.samples) * clock.t_client
        t_s = len(led.samples) * clock.t_server
        t_r = sum(s.bytes_up + s.bytes_down for s in led.samples) / clock.rate
        if which == "pipelined":
            got = led.t_total_pipelined(clock)
            want = max(t_c, t_s, t_r)
        else:
            got = led.t_total_sequential(clock)
            want = t_c + t_s + t_r
        rel = abs(got - want) / want
        checks.append(f"{mode}:{which} rel err {rel:.3f}")
        assert rel < 0.2
    ok(10, "simulated totals match the analytic clock model (" + "; ".join(checks) + ")")


def test_criterion_11_training_sanity(reference_run):
    training = next(r for r in reference_run["rows"] if r["kind"] == "training")
    losses = training["losses"]
    assert len(losses) == 500
    window = 50
    initial = float(np.mean(losses[:window]))
    final = float(np.mean(losses[-window:]))
    assert final < 0.7 * initial, f"smoothed loss {initial:.4f} -> {final:.4f}"
    assert training["frozen_unchanged"] is True
    assert reference_run["elapsed"] < 15 * 60
    ok(11, f"500 gradient-free iterations: smoothed loss {initial:.4f} -> {final:.4f} "
           f"({final / initial:.2f}x), frozen weights untouched, "
           f"experiment wall time {reference_run['elapsed']:.0f} s < 15 min")


def test_criterion_12_attack_defense_ordering(reference_run):
    rows = [r for r in reference_run["rows"] if r.get("kind") == "attack"]
    cfg = reference_run["cfg"]

    def mean_ssim(method, defense):
        row = next(r for r in rows if r["method"] == method and r["defense"] == defense)
        return row["ssim_mean"]

    inv_undef = mean_ssim("inverse_net", "none")
    inv_def = mean_ssim("inverse_net", "ours_plus_plus")
    wb_undef = mean_ssim("whitebox", "none")
    wb_def = mean_ssim("whitebox", "ours_plus_plus")

    assert inv_undef >= cfg.attacks.ssim_attack_floor  # the attack genuinely works
    assert inv_undef - inv_def >= cfg.attacks.ssim_drop_inverse
    assert wb_undef - wb_def >= cfg.attacks.ssim_drop_whitebox

    constants = reference_run["manifest"]["calibration_constants"]
    assert constants["ssim_drop_inverse"] == cfg.attacks.ssim_drop_inverse
    assert constants["ssim_drop_whitebox"] == cfg.attacks.ssim_drop_whitebox
    ok(12, f"inverse-net SSIM {inv_undef:.3f} -> {inv_def:.3f} "
           f"(drop {inv_undef - inv_def:.3f} >= 0.2); whitebox {wb_undef:.3f} -> "
           f"{wb_def:.3f} (drop {wb_undef - wb_def:.3f} >= 0.1); thresholds in manifest")


def test_criterion_13_wire_roundtrip():
    rng = RngState(13)
    for i in range(1000):
        if i % 3 == 0:
            msg = FeaturePacket(
                client_id=int(rng.integers(0, 2**31)),
                iteration=int(rng.integers(0, 2**40)),
                timestep=int(rng.integers(0, 1000)),
                feat_unet=rng.normal((1, 4, 8, 8)),
                feat_control=rng.normal((1, 4, 8, 8)),
                label_noise=rng.normal((1, 4, 8, 8)),
                prompt_feat=rng.normal((1, 5, 32)) if i % 2 else None,
            )
        elif i % 3 == 1:
            msg = GradientPacket(iteration=i, grad_control=rng.normal((1, 4, 8, 8)),
                                 n_pred=rng.normal((1, 4, 8, 8)) if i % 2 else None)
        else:
            from splitstream.wire import ControlMessage

            msg = ControlMessage(code=i % 2, client_id=i)
        assert parse_message(frame_message(msg)) == msg

    base = frame_message(FeaturePacket(1, 2, 3, rng.normal((1, 4, 8, 8)),
                                       rng.normal((1, 4, 8, 8)), rng.normal((1, 4, 8, 8))))
    mut_rng = RngState(14)
    errors = 0
    for i in range(100):
        framed = bytearray(base)
        kind = i % 4
        if kind == 0:
            framed = framed[: int(mut_rng.integers(0, len(framed) - 1))]
        elif kind == 1:
            framed[int(mut_rng.integers(0, 5))] ^= 0xFF
        elif kind == 2:
            framed[6:14] = struct.pack("<Q", len(framed) + int(mut_rng.integers(1, 999)))
        else:
            framed[14 + 16] = 0xFF  # tensor rank byte
        try:
            parse_message(bytes(framed))
        except WireError:
            errors += 1
    assert errors == 100
    ok(13, "1000 random messages roundtrip bit-exactly; 100 mutated frames all "
           "raise structured errors")


def test_criterion_14_determinism(tmp_path):
    cfg_path = ROOT / "configs" / "smoke.ini"
    outputs = []
    for run in ("a", "b"):
        cfg = load_config(cfg_path)
        cfg.out_dir = str(tmp_path / run)
        out = Path(run_experiment(cfg))
        outputs.append({
            "metrics": (out / "metrics.jsonl").read_bytes(),
            "checkpoint": (out / "control_branch.tckp").read_bytes(),
            "ledger": (out / "ledger.json").read_bytes(),
        })
    assert outputs[0]["metrics"] == outputs[1]["metrics"]
    assert outputs[0]["checkpoint"] == outputs[1]["checkpoint"]
    assert outputs[0]["ledger"] == outputs[1]["ledger"]
    ok(14, "two identical-config experiments produced byte-identical metrics, "
           "checkpoints, and ledgers")


def test_reference_outputs_match_the_digest_table(reference_run):
    # the only pinned run that splits a pass into row chunks and draws a 256-row
    # public split; checked here so that tier-1 runs the reference config once
    got = pin_outputs.run_digests(reference_run["out"])
    changed = pin_outputs.changes(TABLE["reference.ini"], got)
    assert not any(changed.values()), changed
