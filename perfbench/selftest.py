"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the benchmark agree on every metric and
unit, that a tiny run of each workload reports every metric, that each
output check fires on corrupted output, and that traced spans nest.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import unittest
from pathlib import Path

import numpy as np

import run  # first: it puts the checkout's src/ on sys.path
import checks
import machine
from spans import Span, covered_time, nesting_errors
from splitstream import protocol
from splitstream.wire import FeaturePacket, GradientPacket, frame_message

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(test: unittest.TestCase) -> None:
    """Shrink data, counts and repeats for the duration of one test."""
    real_config = run.workload_config

    def tiny_config(workload, seed, out_dir):
        cfg = real_config(workload, seed, out_dir)
        cfg.dataset.n_train, cfg.dataset.n_public, cfg.dataset.n_private = 16, 16, 2
        cfg.protocol.iterations = 12
        cfg.attacks.inverse_iters = cfg.attacks.whitebox_iters = 1
        return cfg

    for name, value in {"workload_config": tiny_config, "SESSIONS": 2, "SETUP_REPEATS": 1,
                        "MIN_PASSES": 2,
                        "STEPS_PER_SECOND": {w: 1 for w in run.STEPS_PER_SECOND}}.items():
        test.addCleanup(setattr, run, name, getattr(run, name))
        setattr(run, name, value)


def bench(*args: str) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def packet(it: int, prompt: bool = False) -> FeaturePacket:
    z = np.full((1, 4, 8, 8), it, np.float32)
    return FeaturePacket(0, it, 500, z, z, z, np.zeros((1, 77, 32), np.float32) if prompt else None)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, run.PER_LAYER)


class TinyRuns(unittest.TestCase):
    def setUp(self):
        tiny(self)

    def check_result(self, result, units):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
        for k, v in result["metrics"].items():
            self.assertTrue(math.isfinite(v["value"]), k)

    def test_every_workload_reports_every_end_to_end_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result, text = bench("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0")
                self.check_result(result, run.END_TO_END)
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0.0)
                self.assertIn('"seed": 3', text)
                self.assertIn('"nproc"', text)

    def test_traced_runs_report_every_layer_metric_and_spans_nest(self):
        for w in ("train_classic_tcp", "experiment_grid"):
            with self.subTest(workload=w):
                result, text = bench("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
                self.check_result(result, run.PER_LAYER)
                self.assertIn("self time by layer", text)
                path = run.ROOT / ".perfbench_runs" / w / "spans-seed3.jsonl"
                spans = [Span(**json.loads(line)) for line in path.read_text().splitlines()]
                self.assertTrue(spans)
                self.assertEqual(nesting_errors(spans), [])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(metrics["tensor.backward.calls"], 0)
                if w == "train_classic_tcp":
                    self.assertGreater(metrics["wire.frames_down"], 0)
                    self.assertGreater(metrics["wire.bytes.prompt_feat"], 0)
                else:
                    self.assertGreater(metrics["attacks.inverse_iter_ms"], 0)

    def test_a_corrupted_capture_fails_the_session(self):
        real = protocol.run_split_training

        def corrupting(world, pcfg):
            result = real(world, pcfg)
            with open(pcfg.capture_path, "ab") as f:
                f.write(b"SPLT\x01")
            return result

        protocol.run_split_training = corrupting
        self.addCleanup(setattr, protocol, "run_split_training", real)
        result, text = bench("--workload", "train_gf_stream", "--seed", "3", "--seconds", "1",
                             "--trace", "0")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("does not parse", text)


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.dir)
        self.frames = [frame_message(packet(i)) for i in range(3)]
        self.capture = self.dir / "capture.bin"

    def write(self, data: bytes) -> Path:
        self.capture.write_bytes(data)
        return self.capture

    def test_intact_capture_passes(self):
        data = b"".join(self.frames)
        self.assertEqual(checks.check_capture(self.write(data), len(data), 3), [])

    def test_each_capture_check_fires(self):
        data = b"".join(self.frames)
        cases = {
            "truncated": (data[:-1], len(data), "does not parse"),
            "bad magic": (b"XXXX" + data[4:], len(data), "does not parse"),
            "corrupt tensor": (data[:30] + b"\xff" + data[31:], len(data), "does not parse"),
            "extra frame": (data + self.frames[0], len(data), "ledger bytes_up"),
            "missing frame": (b"".join(self.frames[:2]), len(data), "frames, expected 3"),
            "downlink frame": (data + frame_message(GradientPacket(0, np.zeros((1, 4, 8, 8), np.float32))),
                               None, "is a GradientPacket"),
        }
        for name, (blob, ledger, expect) in cases.items():
            with self.subTest(name):
                path = self.write(blob)
                failures = checks.check_capture(path, len(blob) if ledger is None else ledger, 3)
                self.assertTrue(any(expect in f for f in failures), failures)

    def test_field_bytes_add_up_to_the_frame(self):
        frame = frame_message(packet(0, prompt=True))
        fields = checks.field_bytes(packet(0, prompt=True), len(frame))
        self.assertEqual(sum(fields.values()), len(frame))
        self.assertEqual(fields["prompt_feat"], 77 * 32 * 4)

    def test_loss_and_fingerprint_checks_fire(self):
        self.assertEqual(checks.nonfinite_losses([1.0, 2.0], 2), [])
        self.assertTrue(checks.nonfinite_losses([1.0, float("nan")], 2))
        self.assertTrue(checks.nonfinite_losses([1.0], 2))
        self.assertEqual(checks.check_frozen("ab", "ab", "s"), [])
        self.assertTrue(checks.check_frozen("ab", "ac", "s"))

    def test_run_dir_checks_fire(self):
        def report(psnr, ssim, arms=1):
            for n in checks.RUN_FILES:
                (self.dir / n).write_text("{}\n")
            rows = [{"kind": "attack", "method": "whitebox", "defense": "none",
                     "psnr": psnr, "ssim": ssim}] * arms
            (self.dir / "metrics.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
            return checks.check_run_dir(self.dir, 1, 2)

        self.assertEqual(report([10.0, 12.0], [0.5, 0.2])[1:], (0, []))
        for name, args in {"nan psnr": ([float("nan"), 1.0], [0.5, 0.2]),
                           "ssim above 1": ([10.0, 12.0], [1.5, 0.2]),
                           "missing sample": ([10.0], [0.5]),
                           "extra arm": ([10.0, 12.0], [0.5, 0.2], 2)}.items():
            with self.subTest(name):
                _, failed, failures = report(*args)
                self.assertTrue(failures)
                self.assertGreaterEqual(failed, 1)
        (self.dir / "summary.md").unlink()
        self.assertEqual(checks.check_run_dir(self.dir, 4, 2)[1], 4)


class MachineSpeed(unittest.TestCase):
    def test_the_probe_samples_the_kernel(self):
        probe = machine.SpeedProbe()
        self.assertGreater(probe.sample(), 0.0)
        self.assertEqual(len(probe.samples), 1)

    def test_timings_are_taken_to_reference_speed(self):
        ref = machine.REFERENCE_S
        self.assertAlmostEqual(machine.scale([ref / 2, ref, 2 * ref]), 1.0)
        r = run.Run()
        r.probe.samples = [2 * ref] * 3  # a machine at half the reference speed
        r.setup_s = [2.0, 4.0, 6.0]
        r.untraced_walls = r.train_walls = [1.0, 3.0]
        r.intervals = [[0.1] * 12, [0.3] * 12]
        r.samples_per_phase = 4
        r.wire_bytes, r.wire_samples = 8, 4
        r.losses = [1.0, 1.0]
        m, _ = run.end_to_end_metrics(r)
        self.assertAlmostEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["wall_s"], 1.0)
        self.assertAlmostEqual(m["samples_per_s"], 4.0)
        self.assertAlmostEqual(m["step_ms_p50"], 100.0)  # 12 intervals at 100 ms, 12 at 300 ms
        self.assertAlmostEqual(m["step_ms_tail"], 100.0)  # median of the phases' 100 and 300 ms
        self.assertEqual(m["wire_bytes_per_sample"], 2.0)


class SpanAnalysis(unittest.TestCase):
    def test_nesting_errors_fire(self):
        parent = Span(1, None, "a", None, 0.0, None, 1, "timed", t1=1.0)
        child = Span(2, 1, "b", None, 0.5, None, 1, "timed", t1=1.5)
        self.assertTrue(nesting_errors([parent, child]))
        child.t1 = 0.9
        self.assertEqual(nesting_errors([parent, child]), [])
        child.thread = 2
        self.assertTrue(nesting_errors([parent, child]))

    def test_waits_do_not_cover_the_blocking_path(self):
        read = Span(1, None, "wire.read_frame", None, 0.0, None, 1, "timed", t1=1.0)
        recv = Span(2, 1, "socket.recv", None, 0.0, None, 1, "timed", t1=0.8)
        self.assertAlmostEqual(covered_time([read, recv], [(0.0, 1.0)]), 0.2)


if __name__ == "__main__":
    unittest.main()
