"""Output checks. Each returns a list of failure messages; empty means pass.

A workload counts an operation (a training step or an attack arm) as
failed when a check on its output fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from splitstream.wire import FeaturePacket, iter_frames

UPLINK_FIELDS = ("feat_unet", "feat_control", "label_noise", "prompt_feat")
DOWNLINK_FIELDS = ("grad_control", "n_pred")
WIRE_FIELDS = ("header",) + UPLINK_FIELDS + DOWNLINK_FIELDS
RUN_FILES = ("manifest.json", "metrics.jsonl", "summary.csv", "summary.md", "ledger.json")


def field_bytes(msg, frame_len: int) -> dict[str, int]:
    """Bytes of each tensor field's f32 data in one frame; `header` is the
    rest: frame header, ids, tensor ranks and dims, presence flags."""
    names = UPLINK_FIELDS if isinstance(msg, FeaturePacket) else DOWNLINK_FIELDS
    out = {f: 0 for f in WIRE_FIELDS}
    for f in names:
        arr = getattr(msg, f)
        out[f] = 0 if arr is None else int(arr.size) * 4
    out["header"] = frame_len - sum(out.values())
    return out


def read_capture(path) -> tuple[int, int, dict[str, int], list[str]]:
    """Re-read a capture file with `wire.iter_frames`.

    Returns (frames, bytes, per-field bytes, failures). Every frame must
    parse and be an uplink FeaturePacket.
    """
    totals = {f: 0 for f in WIRE_FIELDS}
    frames, failures = 0, []
    with open(path, "rb") as f:
        pos = 0
        try:
            for msg in iter_frames(f):
                end = f.tell()
                if not isinstance(msg, FeaturePacket):
                    failures.append(f"{path}: frame {frames} is a {type(msg).__name__}")
                for k, v in field_bytes(msg, end - pos).items():
                    totals[k] += v
                frames += 1
                pos = end
        except ValueError as exc:  # WireError and the errors of a corrupt tensor header
            failures.append(f"{path}: frame {frames} does not parse: {exc}")
    return frames, pos, totals, failures


def check_capture(path, ledger_bytes_up: int, expected_frames: int) -> list[str]:
    frames, nbytes, _, failures = read_capture(path)
    if nbytes != ledger_bytes_up:
        failures.append(f"{path}: ledger bytes_up {ledger_bytes_up} != {nbytes} B of frames re-read")
    if frames != expected_frames:
        failures.append(f"{path}: {frames} frames, expected {expected_frames}")
    return failures


def nonfinite_losses(losses, expected: int) -> list[str]:
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    out = [f"loss {i} is {losses[i]}" for i in bad[:3]]
    if len(losses) != expected:
        out.append(f"{len(losses)} losses recorded, expected {expected}")
    return out


def check_frozen(before: str, after: str, what: str) -> list[str]:
    if before != after:
        return [f"{what}: frozen UNet/autoencoder fingerprint changed {before[:12]} -> {after[:12]}"]
    return []


def check_run_dir(out_dir, expected_arms: int, expected_samples: int) -> tuple[dict, int, list[str]]:
    """The report files exist and every attack arm scored every sample with a
    finite PSNR >= 0 dB and an SSIM in [-1, 1].

    Returns (the training row of metrics.jsonl, failed arms, failures); a
    missing or unreadable report fails every arm.
    """
    out_dir = Path(out_dir)
    failures = [f"{out_dir / n} was not written" for n in RUN_FILES if not (out_dir / n).is_file()]
    if failures:
        return {}, expected_arms, failures
    try:
        rows = [json.loads(line) for line in (out_dir / "metrics.jsonl").read_text().splitlines()]
        json.loads((out_dir / "manifest.json").read_text())
    except ValueError as exc:
        return {}, expected_arms, [f"{out_dir}: report does not parse: {exc}"]
    arms = [r for r in rows if r.get("kind") == "attack"]
    failed = abs(expected_arms - len(arms))
    if failed:
        failures.append(f"{len(arms)} attack arms reported, expected {expected_arms}")
    for r in arms:
        label = f"{r.get('method')}/{r.get('defense')}"
        psnr, ssim = r.get("psnr") or [], r.get("ssim") or []
        bad = []
        if len(psnr) != expected_samples or len(ssim) != expected_samples:
            bad.append(f"{len(psnr)} PSNR / {len(ssim)} SSIM values, expected {expected_samples}")
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0 for v in psnr):
            bad.append(f"PSNR out of range {psnr}")
        if not all(isinstance(v, (int, float)) and -1.0 <= v <= 1.0 for v in ssim):
            bad.append(f"SSIM out of range {ssim}")
        failed += bool(bad)
        failures += [f"{label}: {b}" for b in bad]
    training = next((r for r in rows if r.get("kind") == "training"), {})
    return training, failed, failures
