"""The package exports only what it runs.

Every public module-level function and public method under src/stitsim
must be referred to somewhere else in src/ (by a name, an attribute or an
import), be named by the benchmark tracer, which wraps and reads package
functions from outside, or be allowlisted below with a reason.  A function
that only tests call belongs in tests/ (see tests/oracles.py).
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


def public_definitions(trees):
    """(qualified name, bare name) of every public module-level function
    and public method."""
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
                if not fn.name.startswith("_"):
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


def test_every_public_function_is_used_by_the_package():
    trees = parse_sources()
    used = referenced_names(trees)
    tracer = TRACER.read_text()
    unused = [qual for qual, name in public_definitions(trees)
              if name not in used and qual not in ALLOWED
              and not re.search(rf"\b{name}\b", tracer)]
    assert unused == [], f"public but used only outside src/: {unused}"


def test_allowlist_names_existing_functions():
    trees = parse_sources()
    defined = {qual for qual, _ in public_definitions(trees)}
    assert set(ALLOWED) <= defined
