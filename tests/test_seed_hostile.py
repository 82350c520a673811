"""Training and the analogy steps on hostile seed corpora.

Seeds are built from pieces that break naive code: CR, U+2028 and NUL, lone
combining marks, sides that tokenize to nothing, one-token corpora and
all-duplicate pairs, with or without real translation pairs mixed in.
``lexicon train``, ``classifier train`` and ``analogy find``, ``models`` and
``generate`` either exit 0 or print exactly one ``error:`` line, and none
runs on without end.
"""

import contextlib
import io
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bimine.cli import main
from bimine.corpus_io import ArticlePair, Document, write_article_store
from bimine.lexicon import TranslationLexicon, write_lexicon

from synthdata import ANALOGY_TEMPLATES, make_parallel, template_pair

ROOT = Path(__file__).resolve().parent.parent

PIECES = ["\r", "\u2028", "\x00", "\u0301", "\u0308", " ", "...", "--", "kot", "cat",
          "Ala ma kota.", "Alice has a cat."]

# 99 pairs whose source tokenizes to nothing, then one usable pair: training
# used to draw the negatives of that one pair forever
ONE_USABLE = ["\tfoo bar"] * 99 + ["Ala ma kota.\tAlice has a cat."]
ONE_USABLE_ERROR = "error: need at least 100 seed pairs with tokens on both sides, got 1"

_SIDE = st.lists(st.sampled_from(PIECES), max_size=4).map("".join)


@st.composite
def _hostile_lines(draw):
    """Seed lines: a few hostile pairs, repeated up to a drawn count."""
    pairs = draw(st.lists(st.tuples(_SIDE, _SIDE).map("\t".join), min_size=1, max_size=4))
    count = draw(st.sampled_from([1, 99, 100, 130]))
    return [pairs[i % len(pairs)] for i in range(count)]


class _Hung(Exception):
    """Raised by the alarm; main() reports no such error as its own."""


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise _Hung(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run(argv):
    """Exit status and stderr lines of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), _deadline(20):
        code = main(argv)
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def real(world):
    """Seed lines of real translation pairs."""
    return [f"{p.src}\t{p.tgt}" for p in make_parallel(world, random.Random(5), 120).pairs]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("seed_hostile")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lines=_hostile_lines(), n_real=st.sampled_from([0, 1, 60, 120]))
@example(lines=ONE_USABLE, n_real=0)
@example(lines=["kot\tcat"] * 130, n_real=0)  # one token a side, all duplicates
@example(lines=["Ala ma kota.\tAlice has a cat."] * 130, n_real=0)
def test_training_on_a_hostile_seed_exits_0_or_prints_one_error_line(root, real, lines,
                                                                     n_real):
    seed, lexicon, model = root / "seed.tsv", root / "lexicon.tsv", root / "model.json"
    # newline="" writes a CR as it is; reading it back ends a line there
    with open(seed, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines + real[:n_real])
    for path in (lexicon, model):
        path.unlink(missing_ok=True)
    code, err = _run(["lexicon", "train", "--seed", str(seed), "--iters", "2",
                      "--out", str(lexicon)])
    assert code in (0, 1) and len(err) == 1, err
    if code == 1:
        assert err[0].startswith("error: "), err
        return
    code, err = _run(["classifier", "train", "--seed", str(seed), "--lexicon", str(lexicon),
                      "--epochs", "3", "--out", str(model)])
    assert code in (0, 1) and len(err) == 1, err
    assert err[0].startswith("error: ") == (code == 1) == (not model.exists()), err
    if lines is ONE_USABLE:
        assert err == [ONE_USABLE_ERROR]


def test_classifier_train_on_one_usable_pair_stops(tmp_path):
    # in a child process with a timeout, so a relapse into the endless
    # negative sampling fails the test instead of stalling the suite
    seed, lexicon, model = tmp_path / "seed.tsv", tmp_path / "lexicon.tsv", tmp_path / "m.json"
    seed.write_text("".join(line + "\n" for line in ONE_USABLE), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def bimine(*argv):
        return subprocess.run([sys.executable, "-m", "bimine.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=60)

    assert bimine("lexicon", "train", "--seed", seed, "--out", lexicon).returncode == 0
    run = bimine("classifier", "train", "--seed", seed, "--lexicon", lexicon, "--out", model)
    assert (run.returncode, run.stderr.splitlines()) == (1, [ONE_USABLE_ERROR])
    assert not model.exists()


@pytest.fixture(scope="module")
def templates(world):
    """Seed lines of the analogy templates filled with three slot words, which
    make analogies, and the lexicon of those words and a fourth."""
    words = [w for w in world.src_vocab if len(world.translations[w]) == 1][:4]
    lines = ["\t".join(" ".join(side) for side in template_pair(t, w, world.primary(w)))
             for t in ANALOGY_TEMPLATES for w in words[:3]]
    return lines, words, TranslationLexicon(entries={w: [(world.primary(w), 1.0)]
                                                     for w in words})


@pytest.fixture(scope="module")
def generate_inputs(root, templates):
    """The lexicon and an article store for ``analogy generate``: each source
    article is a template filled with the fourth word among hostile pieces."""
    _, words, lex = templates
    lexicon, store = root / "analogy_lexicon.tsv", root / "analogy_store.jsonl"
    write_lexicon(lexicon, lex)
    articles = []
    for k, (piece, template) in enumerate(zip(PIECES, ANALOGY_TEMPLATES * 3)):
        src = " ".join(template_pair(template, words[3], words[3])[0])
        articles.append(ArticlePair(k, Document("pl", f"a{k}", f"{piece}{src}{piece}"),
                                    Document("en", f"a{k}", piece)))
    write_article_store(store, articles)
    return lexicon, store


def _one_line(code, err, *files):
    """The command exited 0 or 1 with one stderr line; an error names one of
    the files it read."""
    assert code in (0, 1) and len(err) == 1, err
    if code == 1:
        assert err[0].startswith("error: ") and any(str(f) in err[0] for f in files), err
    return code == 0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lines=_hostile_lines(), n_templates=st.sampled_from([0, 6, 15]))
@example(lines=["kot\tcat"] * 130, n_templates=0)  # one token a side, all duplicates
@example(lines=["Ala ma kota.\tAlice has a cat."] * 130, n_templates=15)
@example(lines=["\t"] * 10, n_templates=0)  # both sides empty
@example(lines=["\u0301\tfoo", "\x00 \u2028\t\r"], n_templates=6)
def test_analogy_steps_on_a_hostile_seed_exit_0_or_print_one_error_line(
        root, templates, generate_inputs, lines, n_templates):
    seed, quads, models, out = (root / name for name in (
        "analogy_seed.tsv", "quads.jsonl", "models.jsonl", "quasi.tsv"))
    lexicon, store = generate_inputs
    with open(seed, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines + templates[0][:n_templates])
    for path in (quads, models, out):
        path.unlink(missing_ok=True)
    if not _one_line(*_run(["analogy", "find", "--seed", str(seed), "--out", str(quads)]),
                     seed):
        return
    if not _one_line(*_run(["analogy", "models", "--seed", str(seed), "--quads", str(quads),
                            "--out", str(models)]), seed, quads):
        return
    assert _one_line(*_run(["analogy", "generate", "--models", str(models), "--store",
                            str(store), "--lexicon", str(lexicon), "--out", str(out)]),
                     models, store, lexicon)
