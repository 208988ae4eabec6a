"""The output-digest table: sha256 of every file `splitstream run` writes
for each pinned config, stored in tests/output_digests.json.

`tests/test_output_digests.py` reruns each config but reference.ini and
names every file whose digest differs from the table; reference.ini's
entry is checked on the run `tests/test_acceptance.py`'s criteria share,
so the tests run that config once. A change that moves output bits on
purpose rewrites the table with this script, which prints each file whose
digest moved, appeared or went against the table it replaces.
`manifest.json` is hashed with its `config.out_dir` value blanked, so the
table does not depend on where the run wrote.

Usage: python scripts/pin_outputs.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from splitstream.cli import main as splitstream

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "output_digests.json"
CONFIGS = ("smoke.ini", "classic_tiny.ini", "attack_tiny.ini", "reference.ini")  # under configs/


def output_digests(config: str, out_dir: Path) -> dict[str, str]:
    """Run `splitstream run` on configs/`config` into `out_dir` and return
    {relative path: sha256} for every file it wrote."""
    splitstream(["run", "--config", str(ROOT / "configs" / config), "--out", str(out_dir)])
    return run_digests(out_dir)


def run_digests(out_dir: Path) -> dict[str, str]:
    """{relative path: sha256} for every file of the run directory `out_dir`."""
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = data.replace(json.dumps(str(out_dir)).encode(), b'""')
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def changes(want: dict[str, str], got: dict[str, str]) -> dict[str, list[str]]:
    """The files of one config whose digest moved, that appeared or that
    went, in the digests `got` against the digests `want`."""
    return {"moved": sorted(name for name in want.keys() & got.keys() if want[name] != got[name]),
            "appeared": sorted(got.keys() - want.keys()),
            "went": sorted(want.keys() - got.keys())}


def main():
    os.environ.pop("SPLITSTREAM_SEED", None)  # the table pins each config's own seed
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = {config: output_digests(config, Path(tmp) / Path(config).stem)
                 for config in CONFIGS}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    for config, got in table.items():
        for change, names in changes(old.get(config, {}), got).items():
            for name in names:
                print(f"{config}: {change} {name}", file=sys.stderr)
    print(f"pinned {sum(map(len, table.values()))} files of {len(table)} configs -> {TABLE}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
