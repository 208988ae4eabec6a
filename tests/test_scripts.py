"""The scripts under scripts/ run end to end and print their tables."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
