#!/usr/bin/env python3
"""splitstream benchmark: streaming vs lock-step split training, and the
experiment grid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The workload seed becomes the experiment seed, and the program gets
only the config built from it. With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
sessions and reports per-layer metrics taken from spans recorded around the
public functions of each splitstream module. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. Working
files go to `.perfbench_runs/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import splitstream
    from splitstream import (attacks, checkpoint, data, defenses, diffusion, experiment, metrics,
                             models, optim, protocol, tensor, wire)
    from splitstream.config import ConfigError, load_config
    from splitstream.rng import RngState
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import splitstream from {ROOT / 'src'}: {exc}")
if Path(splitstream.__file__).resolve().parent != ROOT / "src" / "splitstream":
    raise SystemExit(f"perfbench: splitstream was imported from {splitstream.__file__}, "
                     f"not from {ROOT / 'src'}")

import checks
import machine
from spans import Patches, Tracer, covered_time, nesting_errors, self_times, top_tables

WORKLOADS = ("train_gf_stream", "train_classic_tcp", "experiment_grid")

# Training steps per second of --seconds, measured on the reference machine
# (2 cores, Python 3.11, numpy 2.4.6, OpenBLAS): about 50 ms per streamed
# step and 58 ms per lock-step TCP step. The step count is fixed by the
# arguments, not by the clock, so every run does the same work and the
# loss history repeats exactly for a seed.
STEPS_PER_SECOND = {"train_gf_stream": 20, "train_classic_tcp": 17}
SESSIONS = 6  # training sessions per run; with --trace 1 every second one is traced
SETUP_REPEATS = 3
AE_EPOCHS = 1  # autoencoder pretraining, in every workload
LOSS_TAIL = 100  # at most; never more than the last half of the history
# The grid keeps the reference model and data sizes and cuts only epoch and
# iteration counts; one pass takes about 12 s on the reference machine. 100
# training steps keep the seed-to-seed spread of train_loss_tail near 8%.
GRID_COUNTS = {"iterations": 100, "inverse_iters": 10, "whitebox_iters": 20}
GRID_PASS_SECONDS = 12
MIN_PASSES = 3
# kernel samples (machine.py) after each grid pass; a training run takes one
# after each of its 3 set-ups and 6 sessions, and the grid has fewer phases
GRID_PROBES = 3
CONV_SIZES = ("4x4", "8x8", "16x16", "32x32")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "samples/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "wire_bytes_per_sample": "B/sample",
    "train_loss_tail": "loss",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tensor.backward_ms": "ms",
    "tensor.backward.calls": "count",
    **{f"tensor.conv2d.calls.{s}": "count" for s in CONV_SIZES},
    **{f"tensor.conv2d.fwd_ms.{s}": "ms" for s in CONV_SIZES},
    **{f"tensor.conv2d.bwd_ms.{s}": "ms" for s in CONV_SIZES},
    "models.client_forward_ms": "ms",
    "models.server_forward_ms": "ms",
    "models.pretrain_step_ms": "ms",
    "optim.step_ms": "ms",
    "optim.step.calls": "count",
    "diffusion.forward_diffuse_ms": "ms",
    "diffusion.training_loss_ms": "ms",
    "defenses.preprocess_ms": "ms",
    "defenses.postprocess_ms": "ms",
    "wire.frame_us": "us",
    "wire.parse_us": "us",
    "wire.read_frame_us": "us",
    "wire.frames_up": "count",
    "wire.frames_down": "count",
    **{f"wire.bytes.{f}": "B/sample" for f in checks.WIRE_FIELDS},
    "protocol.server_busy_share": "share",
    "protocol.server_wait_ms": "ms",
    "protocol.client_wait_ms": "ms",
    "data.generate_s": "s",
    "attacks.inverse_iter_ms": "ms",
    "attacks.inverse_train_s": "s",
    "attacks.whitebox_s": "s",
    "metrics.ssim_ms": "ms",
    "checkpoint.save_ms": "ms",
    **{f"experiment.{s}_s": "s" for s in ("synthesize", "pretrain", "train", "attack", "report")},
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}


# ---------------------------------------------------------------------------
# configs and environment


def workload_config(workload: str, seed: int, out_dir: Path):
    """The reference config with this workload's mode and reduced counts."""
    try:
        cfg = load_config(ROOT / "configs" / "reference.ini")
    except ConfigError as exc:
        raise SystemExit(f"perfbench: {exc}")
    cfg.seed = seed
    cfg.out_dir = str(out_dir)
    cfg.pretrain.ae_epochs = AE_EPOCHS
    if workload == "train_classic_tcp":
        cfg.protocol.mode = "classic"
        cfg.defense.kind = "none"
        cfg.protocol.condition_encoder = "scratch"
        cfg.protocol.transport = "tcp"
    elif workload == "experiment_grid":
        cfg.protocol.iterations = GRID_COUNTS["iterations"]
        cfg.attacks.inverse_iters = GRID_COUNTS["inverse_iters"]
        cfg.attacks.whitebox_iters = GRID_COUNTS["whitebox_iters"]
    return cfg.validate()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def frozen_fingerprint(world) -> str:
    return models.param_fingerprint({**world.unet.named_parameters("unet."),
                                     **world.autoencoder.named_parameters("ae.")})


def stamp_steps(patches: Patches, stamps: list) -> None:
    """ServerWorker.train_step plus one perf_counter read at each completion."""
    train_step = protocol.ServerWorker.train_step

    def stamped(self, pkt):
        out = train_step(self, pkt)
        stamps.append(time.perf_counter())
        return out

    patches.swap(protocol.ServerWorker, "train_step", stamped)


# ---------------------------------------------------------------------------
# tracing


def install_tracer(tracer: Tracer, downlink: list) -> None:
    """Spans around the public functions of each module, plus the experiment
    stages where `run_experiment` looks them up."""
    def iteration(args):  # of a worker method: (self, iteration)
        return args[1]

    def packet_iteration(args):  # of a worker method: (self, packet)
        return args[1].iteration

    def conv_size(args):
        return f"{args[0].shape[2]}x{args[0].shape[3]}"

    tracer.patch(tensor, "backward", "tensor.backward")
    tracer.patch(tensor, "conv2d", "tensor.conv2d.fwd", key_of=conv_size)
    conv_fwd = tensor.conv2d

    def conv2d(x, kernel, *args, **kwargs):
        # the backward closure of each conv output gets its own span
        out = conv_fwd(x, kernel, *args, **kwargs)
        if out._backward is not None:
            size = conv_size((x,))
            out._backward = tracer.wrap("tensor.conv2d.bwd", out._backward, key_of=lambda _: size)
        return out

    tracer.swap(tensor, "conv2d", conv2d)
    tracer.patch(protocol.ClientWorker, "forward_step", "models.client_forward", step_of=iteration)
    tracer.patch(protocol.ClientWorker, "apply_gradient", "protocol.apply_gradient",
                 step_of=packet_iteration)
    tracer.patch(protocol.ServerWorker, "train_step", "protocol.server_train_step",
                 step_of=packet_iteration)
    tracer.patch(models.ControlBranch, "server_forward", "models.control_server_forward")
    tracer.patch(models.ToyUNet, "server_forward", "models.unet_server_forward")
    tracer.patch(models, "pretrain_autoencoder", "models.pretrain_autoencoder")
    tracer.patch(optim.AdamW, "step", "optim.step")
    tracer.patch(diffusion, "forward_diffuse", "diffusion.forward_diffuse")
    tracer.patch(diffusion, "training_loss", "diffusion.training_loss")
    tracer.patch(defenses, "preprocess_batch", "defenses.preprocess")
    tracer.patch(defenses, "postprocess_features", "defenses.postprocess")
    tracer.patch(wire, "frame_message", "wire.frame",
                 step_of=lambda a: getattr(a[0], "iteration", None))
    tracer.patch(wire, "parse_message", "wire.parse",
                 step_of_result=lambda r: getattr(r, "iteration", None))
    tracer.patch(wire, "read_frame", "wire.read_frame")
    tracer.swap(socket.socket, "recv", tracer.wrap("socket.recv", socket.socket.recv))
    tracer.patch(data, "generate_dataset", "data.generate")
    tracer.patch(attacks, "train_inverse_network", "attacks.train_inverse_network")
    tracer.patch(attacks, "whitebox_gd_attack", "attacks.whitebox_gd")
    tracer.patch(experiment, "run_inverse_net_attack", "attacks.inverse_net_arm")
    tracer.patch(experiment, "run_whitebox_attack", "attacks.whitebox_arm")
    tracer.patch(metrics, "ssim", "metrics.ssim")
    tracer.patch(metrics, "psnr", "metrics.psnr")
    tracer.patch(checkpoint, "save_checkpoint", "checkpoint.save")
    for attr, stage in (("synthesize_data", "synthesize"), ("pretrain_autoencoder", "pretrain"),
                        ("run_split_training", "train"), ("run_attack_suite", "attack"),
                        ("emit_report", "report")):
        tracer.swap(experiment, attr,
                    tracer.wrap(f"experiment.{stage}", vars(experiment)[attr]))

    # downlink frames, as the server frames them, for the per-field byte counts
    framed = protocol.frame_message

    def frame_and_keep(msg):
        frame = framed(msg)
        if isinstance(msg, wire.GradientPacket):
            downlink.append(frame)
        return frame

    tracer.swap(protocol, "frame_message", frame_and_keep)


def per_layer_metrics(tracer: Tracer, run: Run, downlink: list) -> dict:
    """Per-layer metrics from the spans; timings are means per call unless
    the name says otherwise. Set-up spans feed only the set-up metrics."""
    timed = [sp for sp in tracer.spans if sp.phase == "timed"]
    by_name = defaultdict(list)
    for sp in timed:
        by_name[sp.name].append(sp)
    every = defaultdict(list)
    for sp in tracer.spans:
        every[sp.name].append(sp)

    def total(spans):
        return sum(sp.dur for sp in spans)

    def mean(spans, scale=1e3):
        return total(spans) / len(spans) * scale if spans else 0.0

    def per_child_step(parents):
        ids = {sp.id for sp in parents}
        steps = sum(1 for sp in tracer.spans if sp.name == "optim.step" and sp.parent in ids)
        return total(parents) / steps * 1e3 if steps else 0.0

    m = {
        "tensor.backward_ms": mean(by_name["tensor.backward"]),
        "tensor.backward.calls": len(by_name["tensor.backward"]),
    }
    for size in CONV_SIZES:
        fwd = [sp for sp in by_name["tensor.conv2d.fwd"] if sp.key == size]
        bwd = [sp for sp in by_name["tensor.conv2d.bwd"] if sp.key == size]
        m[f"tensor.conv2d.calls.{size}"] = len(fwd)
        m[f"tensor.conv2d.fwd_ms.{size}"] = mean(fwd)
        m[f"tensor.conv2d.bwd_ms.{size}"] = mean(bwd)
    server_steps = sorted(by_name["protocol.server_train_step"], key=lambda sp: sp.t1)
    m["models.client_forward_ms"] = mean(by_name["models.client_forward"])
    m["models.server_forward_ms"] = (
        (total(by_name["models.control_server_forward"]) + total(by_name["models.unet_server_forward"]))
        / len(server_steps) * 1e3 if server_steps else 0.0)
    m["models.pretrain_step_ms"] = per_child_step(every["models.pretrain_autoencoder"])
    m["optim.step_ms"] = mean(by_name["optim.step"])
    m["optim.step.calls"] = len(by_name["optim.step"])
    m["diffusion.forward_diffuse_ms"] = mean(by_name["diffusion.forward_diffuse"])
    m["diffusion.training_loss_ms"] = mean(by_name["diffusion.training_loss"])
    m["defenses.preprocess_ms"] = mean(by_name["defenses.preprocess"])
    m["defenses.postprocess_ms"] = mean(by_name["defenses.postprocess"])
    m["wire.frame_us"] = mean(by_name["wire.frame"], 1e6)
    m["wire.parse_us"] = mean(by_name["wire.parse"], 1e6)
    selfs = self_times(timed)
    reads = by_name["wire.read_frame"]
    m["wire.read_frame_us"] = (sum(selfs[sp.id] for sp in reads) / len(reads) * 1e6
                               if reads else 0.0)
    m["wire.frames_up"] = run.uplink["frames"]
    m["wire.frames_down"] = len(downlink)
    fields = dict(run.uplink["fields"])
    for frame in downlink:
        for k, v in checks.field_bytes(wire.parse_message(frame), len(frame)).items():
            fields[k] += v
    for f in checks.WIRE_FIELDS:
        m[f"wire.bytes.{f}"] = fields[f] / run.traced_samples

    # blocking path of the server: completion-to-completion step intervals
    waits, prev = [], {}
    for sp in server_steps:
        session = sp.step.split(":")[0]
        if session in prev:
            waits.append(sp.t1 - prev[session] - sp.dur)
        prev[session] = sp.t1
    m["protocol.server_busy_share"] = total(server_steps) / sum(run.traced_train_walls)
    m["protocol.server_wait_ms"] = statistics.fmean(waits) * 1e3 if waits else 0.0
    fwd_end = {sp.step: sp.t1 for sp in by_name["models.client_forward"]}
    cw = [sp.t0 - fwd_end[sp.step] for sp in by_name["protocol.apply_gradient"] if sp.step in fwd_end]
    m["protocol.client_wait_ms"] = statistics.fmean(cw) * 1e3 if cw else 0.0

    synth = every["experiment.synthesize"]
    m["data.generate_s"] = total(every["data.generate"]) / len(synth) if synth else 0.0
    m["attacks.inverse_iter_ms"] = per_child_step(by_name["attacks.train_inverse_network"])
    m["attacks.inverse_train_s"] = mean(by_name["attacks.train_inverse_network"], 1.0)
    m["attacks.whitebox_s"] = mean(by_name["attacks.whitebox_arm"], 1.0)
    m["metrics.ssim_ms"] = mean(by_name["metrics.ssim"])
    m["checkpoint.save_ms"] = mean(by_name["checkpoint.save"])
    for stage in ("synthesize", "pretrain", "train", "attack", "report"):
        m[f"experiment.{stage}_s"] = mean(every[f"experiment.{stage}"], 1.0)
    m["trace.overhead_share"] = statistics.median(run.traced_walls) / statistics.median(run.untraced_walls) - 1.0
    m["trace.unattributed_share"] = 1.0 - covered_time(timed, tracer.windows) / sum(run.traced_walls)
    return m


def thread_roles(spans) -> dict[int, str]:
    names = defaultdict(set)
    for sp in spans:
        names[sp.thread].add(sp.name)
    roles = {}
    for thread, ns in names.items():
        if "models.client_forward" in ns:
            roles[thread] = "client"
        elif "wire.read_frame" in ns and "protocol.server_train_step" not in ns:
            roles[thread] = "tcp-reader"
        else:
            roles[thread] = "main"
    return roles


# ---------------------------------------------------------------------------
# workloads


class Run:
    """What one benchmark run collects."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.train_walls: list[float] = []  # untraced training phases
        self.probe = machine.SpeedProbe()  # sampled before the first set-up and after each phase
        self.traced_train_walls: list[float] = []
        self.intervals: list[list[float]] = []  # untraced step intervals per phase, s
        self.samples_per_phase = 0
        self.wire_bytes = 0
        self.wire_samples = 0
        self.losses: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # output checks that failed
        self.errors: list[str] = []  # operations that raised
        self.uplink = {"frames": 0, "fields": {f: 0 for f in checks.WIRE_FIELDS}}
        self.traced_samples = 0

    def fail(self, ops: int, messages: list[str], raised: bool = False) -> None:
        """Count `ops` operations as failed when there is a message."""
        if messages:
            self.failed += ops
            (self.errors if raised else self.failures).extend(messages)


def timed_phase(k: int, fn, tracer: Tracer | None, downlink: list):
    """Run `fn()` as timed phase `k`, traced when a tracer is given.

    Returns (wall seconds, result, errors); a phase that raises has result
    None and is counted by the caller, not fatal. Every phase starts after a
    full garbage collection, so that no phase pays for the garbage of the
    one before it.
    """
    gc.collect()
    if tracer is not None:
        tracer.session = k
        install_tracer(tracer, downlink)
        t0 = tracer.begin_window()
    else:
        t0 = time.perf_counter()
    try:
        result, errors = fn(), []
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        result, errors = None, [f"phase {k}: {type(exc).__name__} at "
                                f"{Path(where.filename).name}:{where.lineno}: {exc}"]
    if tracer is not None:
        wall = tracer.end_window(t0)
        tracer.restore()
    else:
        wall = time.perf_counter() - t0
    return wall, result, errors


def record(run: Run, traced: bool, wall: float, train_wall: float, stamps: list[float],
           ledger, capture: Path) -> None:
    """Book one checked phase: untraced phases feed the end-to-end metrics,
    traced ones the per-layer metrics."""
    if traced:
        run.traced_walls.append(wall)
        run.traced_train_walls.append(train_wall)
        run.traced_samples += run.samples_per_phase
        frames, _, fields, _ = checks.read_capture(capture)
        run.uplink["frames"] += frames
        for k, v in fields.items():
            run.uplink["fields"][k] += v
    else:
        run.untraced_walls.append(wall)
        run.train_walls.append(train_wall)
        run.intervals.append([b - a for a, b in zip(stamps, stamps[1:])])
        run.wire_bytes += ledger.total_bytes()
        run.wire_samples += run.samples_per_phase


def run_training(workload: str, seed: int, seconds: int, out: Path,
                 tracer: Tracer | None, downlink: list) -> Run:
    run = Run()
    steps = max(SESSIONS * 20, round(seconds * STEPS_PER_SECOND[workload]))
    run.probe.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is not None:
            install_tracer(tracer, downlink)
        cfg = workload_config(workload, seed, out)
        cfg.protocol.iterations = steps // SESSIONS
        if cfg.privacy.alpha is None:
            raise SystemExit("perfbench: the reference config must fix [privacy] alpha")
        bundle = experiment.synthesize_data(cfg)
        ae = models.pretrain_autoencoder(
            bundle.train[0], cfg.pretrain.ae_epochs, RngState(cfg.seed).split("autoencoder"),
            lr=cfg.pretrain.ae_lr, batch=cfg.pretrain.ae_batch, dropout_p=cfg.pretrain.ae_dropout)
        world = experiment.build_world(cfg, cfg.defense.kind, ae, bundle, cfg.privacy.alpha)
        if tracer is not None:
            tracer.restore()
        run.setup_s.append(time.perf_counter() - t0)
        run.probe.sample()
        run.fail(0, checks.nonfinite_losses(ae.pretrain_losses, len(ae.pretrain_losses)))
    iters = cfg.protocol.iterations
    run.samples_per_phase = iters * cfg.protocol.batch * cfg.protocol.clients

    patches = Patches()
    stamps: list[float] = []
    stamp_steps(patches, stamps)
    try:
        for k in range(SESSIONS):
            traced = tracer is not None and k % 2 == 1
            capture = out / f"capture-{k}.bin"
            pcfg = experiment.protocol_config(cfg, capture_path=str(capture))
            before = frozen_fingerprint(world)
            stamps.clear()
            run.attempted += iters
            wall, result, errors = timed_phase(
                k, lambda: protocol.run_split_training(world, pcfg),
                tracer if traced else None, downlink)
            run.probe.sample()
            if result is None:
                # the steps the server finished are not failures; the call is one
                run.fail(max(1, iters - len(stamps)), errors, raised=True)
                continue
            losses = result.loss_history
            run.losses.extend(losses)
            bad = sum(1 for v in losses if not math.isfinite(v))
            session_failures = (checks.check_frozen(before, frozen_fingerprint(world), f"phase {k}")
                                + checks.check_capture(capture, result.ledger.bytes_up, iters))
            run.fail(iters if session_failures else bad,
                     session_failures + checks.nonfinite_losses(losses, iters))
            record(run, traced, wall, wall, stamps, result.ledger, capture)
            capture.unlink()
    finally:
        patches.restore()
    return run


def run_grid(seed: int, seconds: int, out: Path, tracer: Tracer | None, downlink: list) -> Run:
    run = Run()
    run_dir = out / "run"
    run.probe.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cfg = workload_config("experiment_grid", seed, run_dir)
        warm = workload_config("experiment_grid", seed, out / "warmup")
        warm.dataset.n_train, warm.dataset.n_public, warm.dataset.n_private = 16, 16, 2
        warm.protocol.iterations = 2
        warm.attacks.inverse_iters = warm.attacks.whitebox_iters = 1
        experiment.run_experiment(warm)
        run.setup_s.append(time.perf_counter() - t0)
        run.probe.sample()
    arms = len(cfg.attacks.methods) * len(cfg.attacks.defenses)
    iters = cfg.protocol.iterations
    run.samples_per_phase = iters * cfg.protocol.batch * cfg.protocol.clients
    passes = max(MIN_PASSES, math.ceil(seconds / GRID_PASS_SECONDS))

    patches = Patches()
    stamps: list[float] = []
    trained = []
    run_split_training = experiment.run_split_training

    def observed(world, pcfg):
        before = frozen_fingerprint(world)
        t0 = time.perf_counter()
        result = run_split_training(world, pcfg)
        trained.append((time.perf_counter() - t0, world, before, result))
        return result

    stamp_steps(patches, stamps)
    patches.swap(experiment, "run_split_training", observed)
    try:
        for k in range(passes):
            traced = tracer is not None and k % 2 == 1
            shutil.rmtree(run_dir, ignore_errors=True)
            stamps.clear()
            trained.clear()
            world = result = None  # the last pass's world is garbage before this pass
            run.attempted += iters + arms
            wall, _, errors = timed_phase(k, lambda: experiment.run_experiment(cfg),
                                          tracer if traced else None, downlink)
            for _ in range(GRID_PROBES):
                run.probe.sample()
            if errors or len(trained) != 1:
                run.fail(iters + arms, errors or [f"phase {k}: split training ran {len(trained)} times"],
                         raised=True)
                continue
            train_wall, world, before, result = trained[0]
            training, failed_arms, report_failures = checks.check_run_dir(
                run_dir, arms, cfg.dataset.n_private)
            capture = run_dir / "packets_training.bin"
            train_failures = (
                checks.check_frozen(before, frozen_fingerprint(world), f"phase {k}")
                + checks.check_capture(capture, result.ledger.bytes_up, iters)
                + checks.nonfinite_losses(result.loss_history, iters)
                + checks.nonfinite_losses(training.get("losses", []), iters))
            run.fail(iters if train_failures else 0, train_failures)
            run.fail(failed_arms, report_failures)
            run.losses = list(result.loss_history)
            record(run, traced, wall, train_wall, stamps, result.ledger, capture)
    finally:
        patches.restore()
    return run


# ---------------------------------------------------------------------------
# reporting


def tail_of(intervals: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (the 11th
    largest sample): (value, percentile)."""
    xs = sorted(intervals)
    n = len(xs)
    if n < 11:
        return (xs[-1] if xs else 0.0), 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end_metrics(run: Run) -> tuple[dict, dict]:
    """Every timing is taken to reference machine speed with the factor from
    all kernel samples of the run (machine.py)."""
    f = machine.scale(run.probe.samples)
    wall = statistics.median(run.untraced_walls)
    train_wall = statistics.median(run.train_walls)
    pooled = [x for phase in run.intervals for x in phase]
    tails = [tail_of(phase) for phase in run.intervals]
    sizes = sorted({len(phase) for phase in run.intervals})
    tail_n = min(LOSS_TAIL, len(run.losses) // 2)
    m = {
        "setup_s": statistics.median(run.setup_s) * f,
        "wall_s": wall * f,
        "samples_per_s": run.samples_per_phase / (train_wall * f),
        "step_ms_p50": statistics.median(pooled) * 1e3 * f,
        "step_ms_tail": statistics.median(t for t, _ in tails) * 1e3 * f,
        "wire_bytes_per_sample": run.wire_bytes / run.wire_samples,
        "train_loss_tail": statistics.fmean(run.losses[-tail_n:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = f"; times as measured, before the speed factor {f:.4f}:"
    detail = {
        "setup_s": f"median of {len(run.setup_s)} set-ups{measured} "
                   + " ".join(f"{s:.3f}" for s in run.setup_s),
        "wall_s": f"median of {len(run.untraced_walls)} untraced timed phases{measured} "
                  + " ".join(f"{w:.3f}" for w in run.untraced_walls),
        "samples_per_s": f"{run.samples_per_phase} samples per training phase, "
                         f"median of {len(run.train_walls)} phases{measured} "
                         + " ".join(f"{w:.3f}" for w in run.train_walls),
        "step_ms_p50": f"{len(pooled)} step intervals from {len(run.intervals)} phases{measured} "
                       f"{statistics.median(pooled) * 1e3:.3f}",
        "step_ms_tail": f"median over {len(tails)} phases of each phase's "
                        f"p{min(p for _, p in tails):.1f} ({sizes} intervals a phase, 10 beyond it)",
        "wire_bytes_per_sample": f"{run.wire_bytes} B over {run.wire_samples} samples",
        "train_loss_tail": f"mean of the last {tail_n} of "
                           f"{len(run.losses)} losses",
        "peak_rss_mb": "maximum resident set size of the process",
    }
    return m, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    env = environment(args.seed)
    out = ROOT / ".perfbench_runs" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    downlink: list[bytes] = []
    if args.workload == "experiment_grid":
        run = run_grid(args.seed, args.seconds, out, tracer, downlink)
    else:
        run = run_training(args.workload, args.seed, args.seconds, out, tracer, downlink)
    env["loadavg_end"] = os.getloadavg()
    env["machine_kernel_s"] = {"reference": machine.REFERENCE_S, "samples": run.probe.samples}

    complete = bool(run.untraced_walls and run.intervals
                    and (tracer is None or run.traced_walls))
    if not complete:
        run.fail(1, ["no timed phase completed"], raised=True)
    values, units = {}, (END_TO_END if tracer is None else PER_LAYER)
    if complete and tracer is None:
        values, detail = end_to_end_metrics(run)
        print("\n".join(f"{k:<24} {v:>14.6g} {units[k]:<10} {detail[k]}"
                        for k, v in values.items()))
    elif complete:
        errors = nesting_errors(tracer.spans)
        run.fail(1 if errors else 0, [f"span nesting: {e}" for e in errors[:5]])
        timed = [sp for sp in tracer.spans if sp.phase == "timed"]
        print(top_tables(timed, sum(run.traced_walls), thread_roles(timed)))
        values = per_layer_metrics(tracer, run, downlink)
        tracer.dump(out / f"spans-seed{args.seed}.jsonl")
    print("env " + json.dumps(env, sort_keys=True))
    for f in run.errors:
        print("FAILED (raised) " + f)
    for f in run.failures:
        print("FAILED (check) " + f)
    result = {
        "correct": not run.failures and len(values) == len(units),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "errors": run.errors, "failures": run.failures},
                   indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
