"""The three JSON documents a run reads: pipeline config, cascade config and
model file.

Each valid document here loads.  One hostile edit to it — a number replaced
by ``NaN``, ``Infinity``, ``-Infinity``, ``1e999``, a numeric string or a
boolean, a lone ``\\ud800`` put in a string, or the whole document nested
200 000 levels deep — makes the command that reads it exit 1 with one
``error:`` line naming the file, and (for ``pipeline``) create no workdir.
So does a config value outside its key's range in ``corpus_io.RANGES``; a
value inside it loads.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from bimine.classifier import FEATURE_NAMES, SimilarityModel, load_model, save_model
from bimine.cli import main
from bimine.corpus_io import RANGES
from bimine.filtering import read_cascade_config
from bimine.pipeline import PipelineConfig

NUMBERS = ["NaN", "Infinity", "-Infinity", "1e999", "true", "false", "string"]
DEPTH = 200_000


def _config_doc(root):
    return {"workdir": str(root / "out"), "seed_corpus": str(root / "seed.tsv"),
            "lexicon": {"iterations": 10, "prune_below": 1e-4},
            "classifier": {"neg_per_pos": 3, "epochs": 30, "learning_rate": 0.1,
                           "margin_reg": 1e-4, "seed": 13},
            "mining": {"threshold": 0.5, "gap_cost": 0.4, "workers": 1},
            "analogy": {"max_distance": 4, "size_guard": 4000},
            "filter": {"min_chars": 10}, "eval": {"segments": 200, "per_segment": 10}}


def _cascade_doc(root):
    return {"stages": [{"fn": "fast", "accept": 0.9, "reject": 0.2},
                       {"fn": "synonym", "accept": 0.7, "reject": 0}],
            "stop_words": ["the", "a"], "synonyms": {"big": ["large"]}}


def _model_doc(root):
    path = root / "valid.json"
    save_model(path, SimilarityModel(
        weights=[0.5] * len(FEATURE_NAMES), bias=-1.0, platt_a=-2.0, platt_b=0.25,
        direction=("pl", "en"), lexicon_checksum="0" * 64))
    return json.loads(path.read_text(encoding="utf-8"))


# document -> (valid document, its loader, the command line reading ``path``)
DOCUMENTS = {
    "config": (_config_doc, PipelineConfig.from_json,
               lambda root, path: ["pipeline", "--config", str(path)]),
    "cascade": (_cascade_doc, read_cascade_config,
                lambda root, path: ["filter", "cascade", "--in", str(root / "bitext.tsv"),
                                    "--lexicon", str(root / "lexicon.tsv"),
                                    "--config", str(path),
                                    "--kept", str(root / "kept.tsv"),
                                    "--rejected", str(root / "rejected.tsv"),
                                    "--report", str(root / "report.json")]),
    "model": (_model_doc, load_model,
              lambda root, path: ["mine", "--store", str(root / "store.jsonl"),
                                  "--model", str(path), "--lexicon", str(root / "lexicon.tsv"),
                                  "--out", str(root / "mined.tsv")]),
}


def _leaves(value, path=()):
    """(path, value) of every number and string in a JSON value, keys aside."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))
    elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
        yield path, value


def _replaced(doc, path, value):
    if not path:
        return value
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return doc


@st.composite
def _hostile_text(draw, doc):
    """The JSON text of ``doc`` with one hostile edit."""
    edit = draw(st.sampled_from(["number", "surrogate", "nesting"]))
    if edit == "nesting":
        return "[" * DEPTH + json.dumps(doc) + "]" * DEPTH
    leaves = [(p, v) for p, v in _leaves(doc) if isinstance(v, str) == (edit == "surrogate")]
    path, value = draw(st.sampled_from(leaves))
    if edit == "surrogate":
        # json.dumps writes the lone surrogate as the escape \ud800
        return json.dumps(_replaced(doc, path, value + "\ud800"))
    token = draw(st.sampled_from(NUMBERS))
    token = json.dumps(str(value)) if token == "string" else token
    marker = "\x00hostile\x00"
    return json.dumps(_replaced(doc, path, marker)).replace(json.dumps(marker), token)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """The other inputs of the three commands: a bitext, a lexicon, a store."""
    root = tmp_path_factory.mktemp("json_inputs")
    (root / "bitext.tsv").write_text("Big cat.\tLarge cat.\t1.000000\n", encoding="utf-8")
    (root / "lexicon.tsv").write_text("cat\tcat\t1\n", encoding="utf-8")
    (root / "store.jsonl").write_text("", encoding="utf-8")
    return root


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_the_valid_documents_load(root, name):
    make, load, _ = DOCUMENTS[name]
    path = root / f"{name}.json"
    path.write_text(json.dumps(make(root)), encoding="utf-8")
    load(path)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_hostile_document_fails_with_one_error_line_naming_it(root, name, data):
    make, _, command = DOCUMENTS[name]
    path = root / f"hostile-{name}.json"
    path.write_text(data.draw(_hostile_text(make(root)), "text"), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(command(root, path))
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1, lines
    assert lines[0].startswith(f"error: {path}: "), lines
    assert not (root / "out").exists()


# (section, key, default) of every config key with a range
RANGED = [(section, key, default)
          for section, values in vars(PipelineConfig(workdir="")).items()
          if isinstance(values, dict)
          for key, default in values.items() if key in RANGES]
# ints near every bound, then any finite float for a float key
_INTS = st.one_of(st.sampled_from([-1, 0, 1, 2]), st.integers(-10 ** 6, 10 ** 6))
_FLOATS = st.one_of(st.sampled_from([-0.5, -1e-9, 0.0, 1e-9, 0.4, 0.5, 0.5000001, 1.0,
                                     1.0000001, 2.0]),
                    st.floats(allow_nan=False, allow_infinity=False))


def test_the_ranged_config_keys_are_found():
    assert {f"{section}.{key}" for section, key, _ in RANGED} >= {
        "lexicon.prune_below", "classifier.margin_reg", "classifier.epochs",
        "mining.threshold", "mining.gap_cost", "mining.workers", "eval.segments",
        "analogy.max_distance", "analogy.size_guard", "filter.min_chars"}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_config_value_is_refused_at_load_exactly_outside_its_range(root, data):
    section, key, default = data.draw(st.sampled_from(RANGED), "key")
    value = data.draw(_INTS if type(default) is int else st.one_of(_INTS, _FLOATS), "value")
    loaded = value if type(default) is int else float(value)
    doc = _config_doc(root)
    doc.setdefault(section, {})[key] = value
    path = root / "ranged-config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if RANGES[key][0](value):
        assert getattr(PipelineConfig.from_json(path), section)[key] == loaded
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["pipeline", "--config", str(path)])
    lines = err.getvalue().splitlines()
    assert code == 1 and lines == [f"error: {path}: config key {section}.{key} must be "
                                   f"{RANGES[key][1]}, got {loaded!r}"], lines
    assert not (root / "out").exists()
