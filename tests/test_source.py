"""Layout checks on the package source."""

import ast
from pathlib import Path

import greenbound

SOURCE = Path(__file__).resolve().parents[1] / "src" / "greenbound"
MAX_LINE = 120
# Every private name one package module imports from another, as (importer, module, name).
PRIVATE_IMPORTS = {
    ("optimize", "bounds", name)
    for name in ("_certificate_end", "_enclose_one_sign", "_grid_bounds", "_upper_end")
}


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


def test_private_imports_between_modules_are_listed():
    """A module that reaches into another's private names is named in PRIVATE_IMPORTS, so a new
    coupling is a visible edit here rather than a silent one."""
    found = {
        (path.stem, node.module.removeprefix("greenbound."), alias.name)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("greenbound.")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == PRIVATE_IMPORTS
