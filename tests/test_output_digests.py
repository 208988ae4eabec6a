"""Every file `splitstream run` writes for the pinned configs matches the
committed digest table (tests/output_digests.json). A change that moves
output bits on purpose rewrites the table with scripts/pin_outputs.py.
reference.ini's entry is checked in tests/test_acceptance.py, on the
reference run its criteria share."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE = json.loads((ROOT / "tests" / "output_digests.json").read_text())

_spec = importlib.util.spec_from_file_location("pin_outputs", ROOT / "scripts" / "pin_outputs.py")
pin_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_outputs)


def test_table_covers_the_pinned_configs():
    assert sorted(TABLE) == sorted(pin_outputs.CONFIGS)


@pytest.mark.parametrize("config", [c for c in pin_outputs.CONFIGS if c != "reference.ini"])
def test_outputs_match_the_digest_table(config, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPLITSTREAM_SEED", raising=False)  # the table pins each config's seed
    got = pin_outputs.output_digests(config, tmp_path / "run")
    capsys.readouterr()
    changed = pin_outputs.changes(TABLE[config], got)
    assert not any(changed.values()), f"{config}: {changed}"
