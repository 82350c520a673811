"""The package has no code that only the tests reach.

Every top-level function and class in ``src/bimine`` must be referenced from
the package or from ``bench/`` somewhere outside its own definition: as a
name, an attribute, or a string (``pipeline.METRICS`` and the benchmark's
patch table look functions up by name).  The exceptions are the named
oracles below, kept as independent checks for the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_FILES = sorted((ROOT / "src" / "bimine").glob("*.py"))
BENCH_FILES = sorted((ROOT / "bench").glob("*.py"))

# second implementations kept only as exact references for the tests
ORACLES = {"aligner.align_bruteforce", "analogy.char_profile_check", "metrics.ter"}


def _mentions(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _scan():
    """Top-level definitions of the package as (module, name, site), and for
    each name the sites that mention it; a site is (file, statement index)."""
    definitions = []
    mentions: dict[str, set[tuple[Path, int]]] = {}
    for path in PACKAGE_FILES + BENCH_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for index, node in enumerate(tree.body):
            site = (path, index)
            if path in PACKAGE_FILES and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, node.name, site))
            for name in _mentions(node):
                mentions.setdefault(name, set()).add(site)
    return definitions, mentions


def test_every_definition_is_reached_outside_the_tests():
    definitions, mentions = _scan()
    unreached = [f"{module}.{name}" for module, name, site in definitions
                 if f"{module}.{name}" not in ORACLES
                 and not mentions.get(name, set()) - {site}]
    assert unreached == []


def test_oracles_are_defined():
    definitions, _ = _scan()
    assert ORACLES <= {f"{module}.{name}" for module, name, _ in definitions}
