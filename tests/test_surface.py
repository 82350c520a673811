"""The package has no code that only the tests reach.

Every top-level function and class in ``src/bimine`` must be referenced from
the package or from ``bench/`` somewhere outside its own definition: as a
name, an attribute, or a string (``pipeline.METRICS`` and the benchmark's
patch table look functions up by name).  Every parameter with a default of a
function defined in ``src/bimine`` must be set by some call in the package
or in ``bench/``: passed as a keyword to any call (so ``functools.partial``
and lambdas count), or positionally in a direct call of the function's name
with enough arguments.  The exceptions are the named oracles below, kept as
independent checks for the tests, and the listed parameters.

Every run starts a fresh interpreter, so importing the CLI must not load the
costly modules behind ``dataclasses`` and ``typing``; the value records that
replace dataclasses keep their contracts.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from bimine.analogy import AnalogyQuadruple, QuasiParallelEntry, RewritingModel
from bimine.corpus_io import ArticlePair, BiSentence, Document, Sentence
from bimine.metrics import BootstrapResult, EvalPair, _NgramRecord
from bimine.miner import OverlapStats

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_FILES = sorted((ROOT / "src" / "bimine").glob("*.py"))
BENCH_FILES = sorted((ROOT / "bench").glob("*.py"))

# second implementations kept only as exact references for the tests
ORACLES = {"aligner.align_bruteforce", "analogy.char_profile_check", "metrics.ter"}

# parameters with a default that no package or benchmark call sets
UNSET_DEFAULTS = {
    "metrics.bleu.max_n": "acceptance criterion 7's golden values call bleu(..., max_n=1)",
    "metrics.nist.max_n": "the n-gram order of the NIST definition, named as in bleu",
}


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


def _defaulted_parameters(tree: ast.Module, module: str):
    """(function, parameter, position) of every parameter with a default of a
    function defined in ``tree``; position is the index among the arguments
    of a call (a method's ``self`` counts), None for a keyword-only
    parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        for index in range(len(positional) - len(args.defaults), len(positional)):
            yield f"{module}.{node.name}", positional[index].arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{module}.{node.name}", arg.arg, None


def _setting_calls():
    """The keyword names passed in any call, and for each called name the
    largest number of positional arguments a call passes (a starred
    argument counts as any number)."""
    keywords: set[str] = set()
    positional: dict[str, float] = {}
    for path in PACKAGE_FILES + BENCH_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            keywords.update(k.arg for k in node.keywords if k.arg is not None)
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            count = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) \
                else len(node.args)
            positional[name] = max(positional.get(name, 0), count)
    return keywords, positional


def test_every_default_is_set_outside_the_tests():
    keywords, positional = _setting_calls()
    unset = []
    for path in PACKAGE_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, parameter, index in _defaulted_parameters(tree, path.stem):
            if function in ORACLES or f"{function}.{parameter}" in UNSET_DEFAULTS:
                continue
            name = function.rsplit(".", 1)[1]
            if parameter in keywords or (
                    index is not None and positional.get(name, 0) > index):
                continue
            unset.append(f"{function}.{parameter}")
    assert unset == []


def test_unset_defaults_exist():
    found = {f"{function}.{parameter}" for path in PACKAGE_FILES
             for function, parameter, _ in _defaulted_parameters(
                 ast.parse(path.read_text(encoding="utf-8")), path.stem)}
    assert set(UNSET_DEFAULTS) <= found


def test_cli_import_loads_no_dataclasses_or_typing():
    # -S: a site .pth file may import typing before any package code runs
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bimine.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'ast', 'dis'} "
            "& set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


_TOKENS = ("ala", "ma", "kota")
# each value record; two calls make two distinct records with equal fields
RECORDS = {
    "Document": lambda: Document("pl", "Kot", "Ala ma kota."),
    "ArticlePair": lambda: ArticlePair(3, Document("pl", "Kot", "x"),
                                       Document("en", "Cat", "y")),
    "Sentence": lambda: Sentence("Ala ma kota.", _TOKENS, 1),
    "BiSentence": lambda: BiSentence("Ala ma kota.", "Ala has a cat.", 0.75,
                                     (3, 1, 2, "fwd")),
    "AnalogyQuadruple": lambda: AnalogyQuadruple(_TOKENS, _TOKENS, _TOKENS, _TOKENS,
                                                 0, 0, 0, 0, (0, 1, 2, 3)),
    "RewritingModel": lambda: RewritingModel(("ala",), (), ("alice",), (),
                                             ((_TOKENS, _TOKENS), (_TOKENS, _TOKENS))),
    "QuasiParallelEntry": lambda: QuasiParallelEntry(BiSentence("Ala ma kota.", "Ala."), True),
    "OverlapStats": lambda: OverlapStats(5, 2),
    "BootstrapResult": lambda: BootstrapResult(0.5, 0.25, -0.1, 0.75, 0.125, 100),
    "_NgramRecord": lambda: _NgramRecord(4, 4.5, (4, 3, 2, 1, 0), (2, 1, 0, 0, 0),
                                         ((0, 1, 2, 1), (0, 1), (), (), ())),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_value_records_are_immutable_hashable_and_equal_by_field(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert not hasattr(record, "__dict__")
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(twin, field))
    assert record != record._replace(**{record._fields[-1]: None})


@pytest.mark.parametrize("make, message", [
    (lambda: OverlapStats(recognized=2, overlapping=3), r"must lie in \[0, recognized=2\]"),
    (lambda: EvalPair(hypothesis=("a",), references=()), "at least one reference"),
])
def test_record_constructors_check_their_fields(make, message):
    with pytest.raises(ValueError, match=message):
        make()
