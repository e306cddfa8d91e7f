"""Layout checks on the package source."""

import ast
from pathlib import Path

import greenbound

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "greenbound"
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


def test_private_imports_between_modules_are_listed():
    """No package module imports a _-prefixed name from another: each module reaches the others
    through their public names only, so a private helper can change without a second reader."""
    found = {
        (path.stem, node.module.removeprefix("greenbound."), alias.name)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("greenbound.")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not found, sorted(found)


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


# The unit tests outside the battery guard and the acceptance criteria that take full_check, as
# (module, test).  Each asserts one check that tests/test_verify.py also asserts at full size.
FULL_CHECK_WRAPPERS = {
    ("test_cusps.py", "test_poisson_convolution_semigroup"),
    ("test_cusps.py", "test_phase_average_fourier_series"),
    ("test_cusps.py", "test_smoothing_count_bracket_grid"),
    ("test_cusps.py", "test_distance_implications_sampled_configurations"),
    ("test_geom.py", "test_u_of_gamma_matches_mobius_oracle"),
    ("test_lattice.py", "test_certificate_dominates_exact_counts"),
    ("test_transforms.py", "test_transform_series_matches_closed_form_at_one"),
}


def test_only_the_pinned_unit_tests_take_full_check():
    """tests/test_verify.py asserts every property check at full size, so a unit test that takes the
    full_check fixture to assert one again is a wrapper; a new one is a visible edit here."""
    users = {
        (path.name, node.name)
        for path in sorted(TESTS.glob("test_*.py"))
        if path.name not in {"test_verify.py", "test_acceptance.py"}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and any(arg.arg == "full_check" for arg in node.args.args)
    }
    assert users == FULL_CHECK_WRAPPERS
