"""The pipeline from ingest to eval on hostile article dumps.

Tiny dumps and links files are built from pieces that break naive code:
wiki markup fragments, control and combining characters, duplicate titles,
links to missing titles, and empty and one-sentence articles.  Every run
either succeeds or stops with one ``error:`` line that names the file at
fault, an input or an artifact of the workdir (a filtered corpus too small
to sample, say); reruns write the same bytes.
"""

import contextlib
import io
import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bimine.cli import main
from bimine.corpus_io import write_bitext

from synthdata import make_parallel

STAGES = "ingest,mine,merge,analogy,filter,eval"
TRAINED = ["lexicon.tsv", "lexicon.rev.tsv", "classifier.json", "classifier.rev.json"]

MARKUP = ["{{", "}}", "{{cite|", "{|", "|}", "[[", "]]", "[[Plik:x.png|", "<ref>",
          "</ref>", "<ref name=a/>", "<!--", "-->", "'''", "==", "&nbsp;", "<br>",
          "&#x85;", "|-", "*", "#"]
ODD_CHARS = ["\x00", "\x07", "\x1b", "\x7f", "\x85", "\u2028", "\u2029", "\t", "\r",
             "\x0b", "\x0c", "\u0301", "\u0308", "\u200d", "\ufeff", "\u00a0"]
PUNCTUATION = [". ", "? ", "! ", " ", "...", "\n", "\n\n"]


@pytest.fixture(scope="module")
def trained(world, tmp_path_factory):
    """The seed corpus, and the lexicons and models of both directions
    trained from it once."""
    tmp_path = tmp_path_factory.mktemp("trained")
    seed = tmp_path / "seed.tsv"
    write_bitext(seed, make_parallel(world, random.Random(83), 300))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "workdir": str(tmp_path), "src_lang": "pl", "tgt_lang": "en",
        "seed_corpus": str(seed), "lexicon": {"iterations": 4},
        "classifier": {"epochs": 6, "seed": 2}, "mining": {"bidirectional": True},
    }), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["pipeline", "--config", str(config),
                     "--stages", "lexicon,classifier"]) == 0
    return seed, {name: (tmp_path / name).read_bytes() for name in TRAINED}


def _article_pair(world):
    """The source and target texts of one article pair: translated sentences
    with hostile pieces between them, drawn for each side on its own."""
    sentence = st.lists(st.sampled_from(world.src_vocab), min_size=3, max_size=8).map(
        lambda ws: (" ".join(ws).capitalize() + ". ",
                    " ".join(world.primary(w) for w in ws).capitalize() + ". "))
    piece = st.sampled_from(MARKUP + ODD_CHARS + PUNCTUATION)
    parts = st.lists(st.one_of(sentence, st.tuples(piece, piece)), max_size=12)
    return parts.map(lambda ps: ("".join(s for s, _ in ps), "".join(t for _, t in ps)))


# the last title is linked but has no article; "Kot\u0301" is "Kot" with a
# combining accent, and "Dom\x85" holds a C1 control, a line break to
# str.splitlines
TITLES = ["Kot", "Pies", "Dom", "Kot\u0301", "Dom\x85", "Brak"]


@st.composite
def _inputs(draw, world):
    """A source dump, a target dump and links: one linked pair per article,
    a link to a missing title, and now and then a duplicate title or link."""
    titles = draw(st.permutations(TITLES[:-1]))[:draw(st.integers(0, 5))]
    texts = [draw(_article_pair(world)) for _ in titles]
    src = [{"title": t, "text": s} for t, (s, _) in zip(titles, texts)]
    tgt = [{"title": "en-" + t, "text": x} for t, (_, x) in zip(titles, texts)]
    links = [(t, "en-" + t) for t in titles] + [(TITLES[-1], "en-" + TITLES[0])]
    duplicate = draw(st.sampled_from([None] * 5 + [src, tgt, links]))
    if titles and duplicate is not None:
        duplicate.append(duplicate[0])
    return src, tgt, links


def _directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _run(root, trained, dumps, links, ascii_only):
    """Write the inputs and run the stages in a fresh workdir; return the
    exit code, stderr and the bytes of every file the run left there."""
    seed, models = trained
    workdir = root / "out"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    for name, blob in models.items():
        (workdir / name).write_bytes(blob)
    paths = {}
    for side, dump in zip(("src", "tgt"), dumps):
        paths[side] = root / f"{side}_dump.jsonl"
        paths[side].write_text("".join(json.dumps(rec, ensure_ascii=ascii_only) + "\n"
                                       for rec in dump), encoding="utf-8")
    paths["links"] = root / "links.tsv"
    paths["links"].write_text("".join(f"{s}\t{t}\n" for s, t in links), encoding="utf-8")
    config = root / "config.json"
    config.write_text(json.dumps({
        "workdir": str(workdir), "src_lang": "pl", "tgt_lang": "en",
        "seed_corpus": str(seed),
        "ingest": {"src_dump": str(paths["src"]), "tgt_dump": str(paths["tgt"]),
                   "links": str(paths["links"])},
        "mining": {"bidirectional": True}, "eval": {"segments": 1, "per_segment": 1},
    }), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["pipeline", "--config", str(config), "--stages", STAGES])
    return code, err.getvalue(), _directory_bytes(workdir), paths


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_pipeline_on_hostile_dumps(world, trained, data):
    src_dump, tgt_dump, links = data.draw(_inputs(world), "inputs")
    ascii_only = data.draw(st.booleans(), "ascii_only")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        first = _run(root, trained, (src_dump, tgt_dump), links, ascii_only)
        code, err, artifacts, paths = first
        assert "Traceback" not in err
        errors = [line for line in err.split("\n") if line.startswith("error:")]
        if code == 0:
            assert errors == []
            assert "filtered.tsv" in first[2]
            assert "eval_report.json" in artifacts
        else:
            assert code == 1 and len(errors) == 1, err
            named = [*paths.values(), *(root / "out" / name for name in artifacts)]
            assert any(str(path) in errors[0] for path in named), errors[0]
        assert _run(root, trained, (src_dump, tgt_dump), links, ascii_only) == first


# about 100 KB of unclosed reference and comment openers, which the cleaner
# used to rescan to the end of the text from each one, and templates, file
# links and tables nested 20 000 deep, which it used to peel one level per
# pass over the whole text
HUGE = {"unclosed-ref": "<ref>x" * 17_000, "unclosed-comment": "<!--x" * 20_000,
        "nested-templates": "{{a " * 20_000 + "}}" * 20_000,
        "nested-file-links": "[[File:a.png|" * 20_000 + "]]" * 20_000,
        "nested-tables": "{| a " * 20_000 + "|}" * 20_000}


@pytest.mark.parametrize("piece", list(HUGE.values()), ids=list(HUGE))
def test_pipeline_on_huge_markup(world, trained, tmp_path, piece):
    rng = random.Random(5)
    pairs = make_parallel(world, rng, 12).pairs
    src = " ".join(p.src for p in pairs[:6]) + piece + " ".join(p.src for p in pairs[6:])
    tgt = " ".join(p.tgt for p in pairs[:6]) + piece + " ".join(p.tgt for p in pairs[6:])
    dumps = ([{"title": "Kot", "text": src}], [{"title": "en-Kot", "text": tgt}])
    first = _run(tmp_path, trained, dumps, [("Kot", "en-Kot")], False)
    code, err, artifacts, paths = first
    errors = [line for line in err.split("\n") if line.startswith("error:")]
    if code == 0:
        assert errors == [] and "eval_report.json" in artifacts
    else:
        named = [*paths.values(), *(tmp_path / "out" / name for name in artifacts)]
        assert code == 1 and len(errors) == 1 and any(str(p) in errors[0] for p in named), err
    assert _run(tmp_path, trained, dumps, [("Kot", "en-Kot")], False) == first
