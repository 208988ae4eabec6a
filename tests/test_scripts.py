"""The scripts under scripts/ run end to end and print their tables, and the
benchmark's own self-test passes against the current package."""

import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_compare_structures(monkeypatch, capsys):
    run_script("compare_structures.py", "2", monkeypatch=monkeypatch)
    out = capsys.readouterr().out
    assert "classic" in out and "gradient_free" in out
    ratio = float(out.rsplit("=", 1)[1])
    assert ratio > 1.0  # classic sends more: the prompt up and the gradient down


def test_budget_ablation(monkeypatch, capsys):
    run_script("budget_ablation.py", monkeypatch=monkeypatch)
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        budget, eps = float(row.split()[0]), float(row.split()[-1])
        assert abs(eps - budget) < 5e-5  # each knob reaches its budget at t_s (4 decimals)


def test_perfbench_selftest():
    # the benchmark patches package functions by name; a rename must fail here
    res = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-4000:]
