"""Layout checks on the package source."""

from pathlib import Path

import greenbound

SOURCE = Path(__file__).resolve().parents[1] / "src" / "greenbound"
MAX_LINE = 120


def test_source_lines_are_at_most_120_characters():
    """Lines stay short, so `wc -l src/greenbound/*.py` cannot fall by cramming."""
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    long = [
        f"{path.name}:{number} ({len(line)})"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, long


def test_every_export_resolves():
    """A deleted name cannot linger in greenbound.__all__."""
    missing = [name for name in greenbound.__all__ if not hasattr(greenbound, name)]
    assert not missing, missing
    assert len(set(greenbound.__all__)) == len(greenbound.__all__)
