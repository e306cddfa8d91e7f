"""Golden records: each command's --json record and exit code, compared exactly.

Each file under tests/golden/ holds one command's argv, its exit code and
its parsed --json record.  The test runs the command in process and
compares the record key for key, with no tolerance, so a change that moves
any float of any record shows here.  A change that means to move a record
rewrites every file with

    python tests/test_golden.py

which prints, for each file, whether its content changed, and says in
CHANGES.md which records changed and why.
"""

import json
import sys
from pathlib import Path

import pytest

from greenbound.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CUSP_RADII = ["--eps", "0.05", "--eps-prime", "0.2"]
COMMANDS = {
    "bounds-exact": ["bounds", "--mode", "exact"],
    "bounds-paper": ["bounds", "--mode", "paper-arithmetic"],
    "optimize": ["optimize", "--max-iters", "25"],
    "cusp-extend-a": ["cusp-extend", "--case", "a", *CUSP_RADII],
    "cusp-extend-c": ["cusp-extend", "--case", "c", *CUSP_RADII],
    "count": ["count", "--preset", "y0", "--U", "17", "--grid", "100x100"],
    "reproduce-paper": ["reproduce-paper", "--grid", "50x50"],
    "selftest": ["selftest"],
}


def run(argv: list[str], path: Path) -> dict:
    """The golden entry of one in-process run: argv, exit code and the parsed record."""
    exit_code = main([*argv, "--json", str(path)])
    return {"argv": argv, "exit_code": exit_code, "record": json.loads(path.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("name", COMMANDS)
def test_record_matches_golden(name, tmp_path, capsys):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    entry = run(COMMANDS[name], tmp_path / "record.json")
    assert entry["argv"] == golden["argv"]
    assert entry["exit_code"] == golden["exit_code"]
    record, expected = entry["record"], golden["record"]
    assert sorted(record) == sorted(expected)
    for key in expected:
        assert record[key] == expected[key], key


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in COMMANDS.items():
            entry = run(argv, Path(scratch) / "record.json")
            path = GOLDEN / f"{name}.json"
            text = json.dumps(entry, indent=2, sort_keys=True) + "\n"
            changed = not path.exists() or path.read_text(encoding="utf-8") != text
            path.write_text(text, encoding="utf-8")
            print(f"wrote {name}.json (exit {entry['exit_code']}, {'changed' if changed else 'unchanged'})",
                  file=sys.stderr)
