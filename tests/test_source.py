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


def test_every_private_definition_is_used_in_the_package():
    """Every module-level private function or class is named somewhere in the package besides its
    own def (as a Name, an Attribute or an import alias), so no private helper lives only for tests."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    named = {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert not defined - named, sorted(defined - named)
