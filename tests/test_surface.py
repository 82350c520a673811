"""The package has no code that only the tests reach.

Every top-level function and class in ``src/bimine`` must be referenced from
the package or from ``bench/`` somewhere outside its own definition: as a
name, an attribute, or a string (``pipeline.METRICS`` and the benchmark's
patch table look functions up by name).  Every parameter with a default of a
function defined in ``src/bimine`` must be set by some call in the package
or in ``bench/``: passed as a keyword to any call (so ``functools.partial``
and lambdas count), or positionally in a direct call of the function's name
with enough arguments.  The exceptions are the named oracles below, kept as
independent checks for the tests, and the listed parameters.  Every such
default must also be relied on: some call in the package or in ``bench/``
leaves the parameter out, or the package refers to the function other than
by calling it.  So a setting's default is stated once, in ``PipelineConfig``,
and library functions take their settings from the caller.

Only ``corpus_io`` parses JSON, and only ``corpus_io`` states a numeric
range in an error: every other module checks a value through ``in_range``,
and every entry of ``RANGES`` is a config key or is checked somewhere.

Every run starts a fresh interpreter, so importing the CLI must not load the
costly modules behind ``dataclasses`` and ``typing``, nor the stage modules
that only the analogy, filter and eval stages use, nor ``hashlib``, which
loads OpenSSL: digests come from CPython's built-in SHA-256, and only
``corpus_io``'s fallback for a build without it imports ``hashlib``.  The
value records that replace dataclasses keep their contracts.

No module starts a process or a thread: a run, both mining directions
included, is one process on one thread, with no sharding and no async.

Every function the benchmark's tracer patches exists under the name it
patches, with the arguments its counters read.
"""

import ast
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bimine import pipeline
from bimine.analogy import AnalogyQuadruple, QuasiParallelEntry, RewritingModel, find_analogies
from bimine.corpus_io import RANGES, ArticlePair, BiSentence, Document, Sentence
from bimine.metrics import BootstrapResult, EvalPair, _NgramRecord
from bimine.miner import OverlapStats
from bimine.pipeline import PipelineConfig

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


def _bench_tracing():
    """``bench/tracing.py``, loaded by path: ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_the_benchmark_traces_exists():
    # the tracer reports a site it cannot patch as a missing layer, and a
    # hook reading a renamed argument fails the traced run
    tracing = _bench_tracing()
    for module_name, attr, _kind, _name, after in tracing.PATCHES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"
        if after is not None:
            read = re.findall(r'args\["(\w+)"\]', inspect.getsource(after))
            assert set(read) <= set(inspect.signature(fn).parameters), \
                f"{module_name}.{attr}"
    assert set(tracing.STAGES) <= set(pipeline._STAGE_FUNCS)
    assert "sentences" in inspect.signature(find_analogies).parameters


def test_only_corpus_io_parses_json():
    # corpus_io's readers own the error contract and the number rule, so a
    # module that parses JSON itself would make its own choice of both
    calls = [f"{path.name}:{node.lineno}" for path in PACKAGE_FILES if path.stem != "corpus_io"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
             and isinstance(node.value, ast.Name) and node.value.id == "json"
             or isinstance(node, ast.ImportFrom) and node.module == "json"
             and {alias.name for alias in node.names} & {"load", "loads"}]
    assert calls == []


def test_only_corpus_io_states_a_numeric_range():
    # a range written out next to its check would drift from corpus_io.RANGES
    stated = re.compile(r"must be (>=?|in [\[(]|negative)")
    raises = [f"{path.name}:{node.lineno}" for path in PACKAGE_FILES if path.stem != "corpus_io"
              for text in [path.read_text(encoding="utf-8")]
              for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)
              and stated.search(ast.get_source_segment(text, node))]
    assert raises == []


def test_every_range_is_a_config_key_or_checked():
    config_keys = {key for section in vars(PipelineConfig(workdir="")).values()
                   if isinstance(section, dict) for key in section}
    checked = {node.args[0].value for path in PACKAGE_FILES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and node.args
               and isinstance(node.args[0], ast.Constant)
               and (getattr(node.func, "id", None) == "in_range"
                    or getattr(node.func, "attr", None) == "in_range")}
    assert set(RANGES) - config_keys - checked == set()


def _defaulted_parameters(tree: ast.Module, module: str):
    """(function, called name, parameter, position) of every parameter with a
    default of a function defined in ``tree``.  A class's ``__init__`` is
    called by the class's name.  The position is the index among a call's
    positional arguments (a method's ``self`` is not one), None for a
    keyword-only parameter."""
    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                bound = owner is not None  # self or cls, which no call passes
                called = owner if node.name == "__init__" else node.name
                function = f"{module}.{owner + '.' if owner else ''}{node.name}"
                for index in range(len(positional) - len(args.defaults), len(positional)):
                    yield function, called, positional[index].arg, index - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield function, called, arg.arg, None
                yield from visit(node.body, None)
    yield from visit(tree.body, None)


def _resolver(tree: ast.Module, module: str | None):
    """A function giving the name a ``Name`` or ``Attribute`` node refers to:
    ``module.name`` for a name the file defines at top level or an attribute
    of a package module it imports (``from . import lexicon as lexicon_mod``),
    else the bare name.  So ``pipeline.train_lexicon`` and
    ``lexicon.train_lexicon`` are told apart."""
    defined = {node.name for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}

    def resolve(node) -> str | None:
        if isinstance(node, ast.Name):
            return f"{module}.{node.id}" if module and node.id in defined else node.id
        if isinstance(node, ast.Attribute):
            owner = modules.get(getattr(node.value, "id", None))
            return f"{owner}.{node.attr}" if owner else node.attr
        return None
    return resolve


def _calls_and_references():
    """For each called name (resolved as ``_resolver`` does), the calls in the
    package or ``bench/`` as (positional count, keyword names); a starred
    argument counts as any number.  Also the names the package refers to
    other than as the function of a call or in an annotation, and the string
    constants it holds."""
    calls: dict[str, list[tuple[float, set]]] = {}
    referred: set[str] = set()
    for path in PACKAGE_FILES + BENCH_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem if path in PACKAGE_FILES else None
        resolve = _resolver(tree, module)
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = resolve(node.func)
                if name is not None:
                    skipped.add(id(node.func))
                    count = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) \
                        else len(node.args)
                    calls.setdefault(name, []).append((count, {k.arg for k in node.keywords}))
            annotations = [getattr(node, "returns", None), getattr(node, "annotation", None)]
            skipped.update(id(sub) for root in annotations if root is not None
                           for sub in ast.walk(root))
        if module is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                referred.add(node.value)
            elif id(node) not in skipped and (name := resolve(node)) is not None:
                referred.add(name)
    return calls, referred


def test_every_default_is_set_outside_the_tests():
    calls, _ = _calls_and_references()
    keywords = {keyword for found in calls.values() for _, names in found for keyword in names}
    unset = []
    for path in PACKAGE_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, called, parameter, position in _defaulted_parameters(tree, path.stem):
            if function in ORACLES or f"{function}.{parameter}" in UNSET_DEFAULTS:
                continue
            found = calls.get(f"{path.stem}.{called}", []) + calls.get(called, [])
            if parameter in keywords or position is not None and any(
                    count > position for count, _ in found):
                continue
            unset.append(f"{function}.{parameter}")
    assert unset == []


def test_every_default_is_relied_on_outside_the_tests():
    # a default that every package and benchmark call overrides is a second
    # statement of a setting, which only the tests read and which can drift
    # from the config's; a function the package refers to other than by
    # calling it (functools.partial, a lookup by name) may be called with
    # its defaults
    calls, referred = _calls_and_references()
    unused = []
    for path in PACKAGE_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, called, parameter, position in _defaulted_parameters(tree, path.stem):
            names = (f"{path.stem}.{called}", called)
            if referred.intersection(names) or any(
                    parameter not in keywords and (position is None or count <= position)
                    for name in names for count, keywords in calls.get(name, [])):
                continue
            unused.append(f"{function}.{parameter}")
    assert not unused, f"defaults only the tests rely on: {unused}"


def test_unset_defaults_exist():
    found = {f"{function}.{parameter}" for path in PACKAGE_FILES
             for function, _, parameter, _ in _defaulted_parameters(
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


def test_cli_start_loads_no_optional_stage_module(tmp_path):
    # the analogy, filter and eval stages import their modules when called;
    # starting the CLI, building its parser and loading a config must not
    config = tmp_path / "config.json"
    config.write_text('{"workdir": "out", "analogy": {"max_distance": 3}}', encoding="utf-8")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bimine.cli; "
            "bimine.cli.build_parser(None); "
            "bimine.cli.pipeline.PipelineConfig.from_json(sys.argv[2]); "
            "print(sorted({'bimine.analogy', 'bimine.filtering', 'bimine.metrics', "
            "'bimine.editdistance'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), str(config)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_a_start_builds_only_the_parser_of_its_command(tmp_path):
    # argparse builds a parser per command and subcommand; `bimine pipeline`
    # needs its own and the top-level one
    config = tmp_path / "config.json"
    config.write_text('{"workdir": "out"}', encoding="utf-8")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import argparse, bimine.cli; "
            "built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
            "bimine.cli.run_pipeline = lambda config, stages: None; "
            "assert bimine.cli.main(['pipeline', '--config', sys.argv[2]]) == 0; "
            "print(len(built))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), str(config)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "2\n"


def test_a_start_and_its_digests_load_no_hashlib(tmp_path):
    # a start, a config, a manifest and a lexicon checksum: every digest a
    # run computes
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path)}), encoding="utf-8")
    (tmp_path / "seed.tsv").write_text("Ala ma kota.\tAlice has a cat.\n", encoding="utf-8")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bimine.cli; "
            "from bimine import classifier, lexicon, pipeline; "
            "config = pipeline.PipelineConfig.from_json(sys.argv[2]); "
            "seed = config.path('seed.tsv'); "
            "pipeline._write_manifest(config, 'probe', {}, [seed], [seed], {}); "
            "classifier.lexicon_checksum(lexicon.TranslationLexicon({'kot': [('cat', 1.0)]})); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), str(config)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
    assert (tmp_path / "manifest.probe.json").exists()


def _imports_hashlib(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in ("hashlib", "_hashlib") for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module in ("hashlib", "_hashlib")


def test_only_the_digest_fallback_imports_hashlib():
    # the fallback is an import inside an ``except ImportError`` handler
    fallback = set()
    imports = set()
    for path in PACKAGE_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if _imports_hashlib(node):
                imports.add((path.name, node.lineno))
            elif (isinstance(node, ast.ExceptHandler)
                  and getattr(node.type, "id", "") == "ImportError"):
                fallback.update((path.name, sub.lineno) for stmt in node.body
                                for sub in ast.walk(stmt) if _imports_hashlib(sub))
    assert len(imports) == 1 and imports == fallback
    assert {name for name, _ in imports} == {"corpus_io.py"}


# modules that start processes or threads, and the os functions that do
_CONCURRENT_MODULES = {"subprocess", "multiprocessing", "threading", "_thread", "concurrent",
                       "asyncio"}
_OS_STARTERS = re.compile(r"fork|pipe|spawn|system|popen")


def test_no_module_starts_a_process_or_a_thread():
    found = []
    for path in PACKAGE_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if node.module == "os":
                    modules += [f"os.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                modules = [f"os.{node.attr}"]
            else:
                continue
            for name in modules:
                head, _, attr = name.partition(".")
                if head in _CONCURRENT_MODULES or head == "os" and _OS_STARTERS.search(attr):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


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
