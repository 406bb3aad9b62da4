"""The package exports only what it runs.

Every public module-level function and public method under src/stitsim
must be referred to somewhere else in src/ (by a name, an attribute or an
import), be named by the benchmark tracer, which wraps and reads package
functions from outside, or be allowlisted below with a reason.  A function
that only tests call belongs in tests/ (see tests/oracles.py).  A private
one (a leading underscore, not a dunder) that nothing in src/ or the
tracer names is an orphan a change left behind, and goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stitsim"
TRACER = ROOT / "perfbench" / "tracer.py"

ALLOWED = {
    "stit.halfspace_representation":
        "documented in README: a rejection tree's cells as half-spaces",
    "measure.measure_separating":
        "lambda_{P|Q}, the separating mass of the two-body avoidance law that "
        "tests use and of the k-body law planned in ROADMAP",
}


def parse_sources():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def definitions(trees, private=False):
    """(qualified name, bare name) of every public module-level function
    and public method, or with private every private one (dunders aside)."""
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members = [(f"{mod}.{node.name}", node)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{mod}.{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, ast.FunctionDef)]
            else:
                continue
            for qual, fn in members:
                if (fn.name.startswith("_") == private
                        and not fn.name.endswith("__")):
                    yield qual, fn.name


def referenced_names(trees):
    """Every name, attribute and imported name that src/ uses."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def unreferenced(private):
    """The qualified names of the functions, public or private, that
    nothing in src/ and no word of the tracer names."""
    trees = parse_sources()
    used, tracer = referenced_names(trees), TRACER.read_text()
    return [qual for qual, name in definitions(trees, private)
            if name not in used and not re.search(rf"\b{name}\b", tracer)]


def test_every_public_function_is_used_by_the_package():
    unused = [qual for qual in unreferenced(False) if qual not in ALLOWED]
    assert unused == [], f"public but used only outside src/: {unused}"


def test_allowlist_names_existing_functions():
    defined = {qual for qual, _ in definitions(parse_sources())}
    assert set(ALLOWED) <= defined


def test_every_private_function_is_used_by_the_package():
    orphans = unreferenced(True)
    assert orphans == [], f"private and used nowhere in src/: {orphans}"
