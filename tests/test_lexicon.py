import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bimine import lexicon
from bimine.classifier import lexicon_checksum
from bimine.corpus_io import BiSentence, BitextCorpus
from bimine.lexicon import (
    TranslationLexicon,
    gloss_translate,
    read_lexicon,
    train_lexicon,
    write_lexicon,
)


# ---------------------------------------------------------------------------
# independent EM oracle: same model (uniform init over co-occurring targets,
# no NULL word), written as plain nested loops over explicit vocabularies

def naive_em(pairs, iterations):
    table = {}
    for src, tgt in pairs:
        for s in src:
            for t in tgt:
                table.setdefault((s, t), 0.0)
    sources = sorted({s for s, _ in table})
    per_source = {s: sorted({t for s2, t in table if s2 == s}) for s in sources}
    for s in sources:
        for t in per_source[s]:
            table[(s, t)] = 1.0 / len(per_source[s])
    for _ in range(iterations):
        count = {key: 0.0 for key in table}
        total = {s: 0.0 for s in sources}
        for src, tgt in pairs:
            for t in tgt:
                z = sum(table[(s, t)] for s in src)
                for s in src:
                    count[(s, t)] += table[(s, t)] / z
                    total[s] += table[(s, t)] / z
        for (s, t) in table:
            table[(s, t)] = count[(s, t)] / total[s]
    return table


def naive_log_likelihood(table, pairs):
    ll = 0.0
    for src, tgt in pairs:
        for t in tgt:
            ll += math.log(sum(table.get((s, t), 0.0) for s in src)) \
                - math.log(len(src))
    return ll


def _tokenized(corpus):
    return [(p.src.lower().split(), p.tgt.lower().split()) for p in corpus.pairs]


# ---------------------------------------------------------------------------

def test_single_cooccurrence_forces_certainty():
    lex = train_lexicon(BitextCorpus([BiSentence("a", "x")]), iterations=10, prune_below=1e-4)
    assert lex.entries["a"] == [("x", 1.0)]


def test_das_haus_argmax():
    seed = BitextCorpus([BiSentence("das haus", "the house"),
                         BiSentence("das buch", "the book")])
    lex = train_lexicon(seed, iterations=10, prune_below=1e-4)
    assert lex.entries["das"][0][0] == "the"


def test_em_matches_naive_oracle():
    seed = BitextCorpus([
        BiSentence("das haus", "the house"),
        BiSentence("das buch", "the book"),
        BiSentence("ein buch", "a book"),
        BiSentence("ein haus ist gross", "a house is big"),
        BiSentence("das haus ist klein", "the house is small"),
    ])
    iterations = 7
    lex = train_lexicon(seed, iterations=iterations, prune_below=0.0)
    oracle = naive_em(_tokenized(seed), iterations)
    for s, row in lex.entries.items():
        for t, p in row:
            assert p == pytest.approx(oracle[(s, t)], abs=1e-9), (s, t)


# ---------------------------------------------------------------------------
# the flat-array EM loop against the earlier loop over dict rows

def dict_rows_em(seed, iterations):
    """The earlier EM loop, which kept the table, the counts and the totals
    in dicts keyed by token; returns the table handed to ``_finalize`` and
    the log-likelihood of each round."""
    pairs = list(lexicon._token_pairs(seed))
    cooc = {}
    for src, tgt in pairs:
        for s in src:
            row = cooc.setdefault(s, {})
            for t in tgt:
                row.setdefault(t, 0.0)
    table = {}
    for s, row in cooc.items():
        u = 1.0 / len(row)
        table[s] = {t: u for t in row}
    likelihoods = []
    for _ in range(iterations):
        counts = {s: {} for s in table}
        totals = {s: 0.0 for s in table}
        ll = 0.0
        for src, tgt in pairs:
            log_len = math.log(len(src))
            for t in tgt:
                z = 0.0
                for s in src:
                    z += table[s][t]
                ll += math.log(z) - log_len
                for s in src:
                    frac = table[s][t] / z
                    row = counts[s]
                    row[t] = row.get(t, 0.0) + frac
                    totals[s] += frac
        likelihoods.append(ll)
        for s, row in counts.items():
            total = totals[s]
            table[s] = {t: c / total for t, c in row.items()}
    return table, likelihoods


def _hex_rows(rows):
    """Every row in order, each entry in order, probabilities by float.hex;
    a row is a dict or a list of (target, probability)."""
    return [(s, [(t, p.hex()) for t, p in dict(row).items()]) for s, row in rows.items()]


_SIDES = st.tuples(st.lists(st.sampled_from(["ka", "to", "mi", "zu"]), min_size=1, max_size=5),
                   st.lists(st.sampled_from(["ben", "dor", "fil", "gan"]), min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(st.lists(_SIDES, min_size=1, max_size=10), st.integers(min_value=1, max_value=6),
       st.sampled_from([0.0, 1e-4, 0.3, 1.0]))
# repeated tokens on both sides, and one-token sides
@example([(["ka", "ka", "to"], ["ben", "ben"]), (["ka"], ["dor"]), (["to"], ["ben", "fil"])],
         3, 1e-4)
# a prune threshold no entry of a two-entry row reaches keeps its single best
@example([(["ka", "to"], ["ben", "dor"]), (["ka"], ["ben"])], 2, 1.0)
def test_em_equals_dict_rows_loop_bit_for_bit(sides, iterations, prune_below):
    corpus = BitextCorpus([BiSentence(" ".join(s), " ".join(t)) for s, t in sides])
    handed = []
    real_finalize = lexicon._finalize

    def spy(table, *args):
        handed.append(table)
        return real_finalize(table, *args)

    with mock.patch.object(lexicon, "_finalize", spy):
        lex = train_lexicon(corpus, iterations, prune_below)
    table, likelihoods = dict_rows_em(corpus, iterations)
    assert [x.hex() for x in lex.iteration_log_likelihood] == [x.hex() for x in likelihoods]
    assert _hex_rows(handed[0]) == _hex_rows(table)
    expected = real_finalize(table, prune_below)
    assert _hex_rows(lex.entries) == _hex_rows(expected.entries)
    assert lex.cells == sum(len(row) for row in table.values())


def test_seeded_log_likelihoods_pinned(small_lexicon):
    # float.hex of the 600-pair fixture's EM rounds (CPython 3.11, x86-64)
    assert [x.hex() for x in small_lexicon.iteration_log_likelihood] == [
        "-0x1.45e0d50990537p+14", "-0x1.c8aedb0422d1ep+13", "-0x1.6049bfd3df8dep+13",
        "-0x1.3bd3dadf00296p+13", "-0x1.317539e2e8f8cp+13", "-0x1.2d98e13fafcafp+13"]


def test_zero_iterations_error():
    with pytest.raises(ValueError):
        train_lexicon(BitextCorpus([BiSentence("a", "x")]), iterations=0, prune_below=1e-4)


@pytest.mark.parametrize("prune_below", [math.nan, -0.1, 1.5])
def test_prune_below_outside_zero_one_is_refused(prune_below):
    # no probability is >= nan: every row would keep only its best entry
    with pytest.raises(ValueError, match=rf"^prune_below must be in \[0, 1\], "
                                         rf"got {prune_below}$"):
        train_lexicon(BitextCorpus([BiSentence("a", "x")]), prune_below=prune_below, iterations=10)


def test_empty_corpus_error():
    with pytest.raises(ValueError):
        train_lexicon(BitextCorpus([]), iterations=10, prune_below=1e-4)


def test_side_without_tokens_error():
    with pytest.raises(ValueError):
        train_lexicon(BitextCorpus([BiSentence("a", "")]), iterations=10, prune_below=1e-4)


def _random_corpus(rng, n_pairs):
    src_vocab = ["ka", "to", "mi", "zu", "pro"]
    tgt_vocab = ["ben", "dor", "fil", "gan", "hul"]
    pairs = []
    for _ in range(n_pairs):
        n = rng.randint(1, 4)
        idx = [rng.randrange(5) for _ in range(n)]
        pairs.append(BiSentence(" ".join(src_vocab[i] for i in idx),
                                " ".join(tgt_vocab[i] for i in idx)))
    return BitextCorpus(pairs)


def test_log_likelihood_nondecreasing_on_random_corpora():
    rng = random.Random(17)
    for _ in range(25):
        corpus = _random_corpus(rng, rng.randint(3, 12))
        lex = train_lexicon(corpus, iterations=8, prune_below=1e-4)
        lls = lex.iteration_log_likelihood
        assert len(lls) == 8
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-9


def test_rows_normalized_after_pruning():
    rng = random.Random(31)
    for _ in range(10):
        corpus = _random_corpus(rng, rng.randint(5, 15))
        lex = train_lexicon(corpus, iterations=5, prune_below=1e-2)
        for s, row in lex.entries.items():
            mass = sum(p for _, p in row)
            assert mass == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 < p <= 1.0 for _, p in row)
            assert [p for _, p in row] == sorted((p for _, p in row), reverse=True)


def test_entries_hold_best_translation_first():
    lex = train_lexicon(BitextCorpus([BiSentence("a", "x")]), iterations=10, prune_below=1e-4)
    assert lex.entries["a"][:1] == [("x", 1.0)]


def test_entries_omit_unseen_source_word():
    lex = train_lexicon(BitextCorpus([BiSentence("a", "x")]), iterations=10, prune_below=1e-4)
    assert "qq" not in lex.entries


def test_entries_row_holds_every_cooccurring_target():
    lex = train_lexicon(BitextCorpus([BiSentence("a b", "x y")]), iterations=10, prune_below=1e-4)
    assert len(lex.entries["a"]) == 2


def test_gloss_paper_example():
    lex = TranslationLexicon(entries={"bilet": [("ticket", 1.0)]})
    assert gloss_translate(lex, ["bilet"]) == ["ticket"]


def test_gloss_unknown_marker():
    lex = TranslationLexicon(entries={})
    assert gloss_translate(lex, ["zzz"]) == ["unknown"]


def test_gloss_empty():
    lex = TranslationLexicon(entries={})
    assert gloss_translate(lex, []) == []


def test_gloss_passthrough_punctuation_and_digits():
    lex = TranslationLexicon(entries={"koc": [("blanket", 1.0)]})
    assert gloss_translate(lex, ["koc", ",", "42", "."]) == \
        ["blanket", ",", "42", "."]


def test_gloss_length_preserving():
    rng = random.Random(3)
    lex = train_lexicon(_random_corpus(rng, 10), iterations=10, prune_below=1e-4)
    for _ in range(20):
        tokens = [rng.choice(["ka", "to", "qq", ".", "7"])
                  for _ in range(rng.randint(0, 8))]
        assert len(gloss_translate(lex, tokens)) == len(tokens)


def test_lexicon_file_roundtrip(tmp_path, small_lexicon):
    path = tmp_path / "lex.tsv"
    write_lexicon(path, small_lexicon)
    back = read_lexicon(path)
    assert set(back.entries) == set(small_lexicon.entries)
    for s in small_lexicon.entries:
        for (t1, p1), (t2, p2) in zip(small_lexicon.entries[s], back.entries[s]):
            assert t1 == t2
            assert p1 == pytest.approx(p2, rel=1e-10)


def test_lexicon_checksum_is_the_sha256_of_the_file(tmp_path, small_lexicon):
    # a model names its lexicon by the file's bytes
    path = tmp_path / "lex.tsv"
    write_lexicon(path, small_lexicon)
    assert lexicon_checksum(small_lexicon) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_lexicon_file_sorted(tmp_path, small_lexicon):
    path = tmp_path / "lex.tsv"
    write_lexicon(path, small_lexicon)
    lines = path.read_text(encoding="utf-8").splitlines()
    sources = [line.split("\t")[0] for line in lines]
    assert sources == sorted(sources)


def test_read_lexicon_names_file_and_line(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("kot\tcat\t1\npies\tdog\tmany\n", encoding="utf-8")
    with pytest.raises(ValueError, match="lex.tsv: line 2: bad probability"):
        read_lexicon(path)


@pytest.mark.parametrize("line", ["kot\tcat\tnan", "kot\tdog\t-3", "pies\tdog\t7.5",
                                  "kot\tcat\tinf", "kot\tcat\t0"])
def test_read_lexicon_rejects_a_probability_outside_zero_one(tmp_path, line):
    path = tmp_path / "lex.tsv"
    path.write_text(f"kot\tcat\t0.5\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"lex\.tsv: line 2: probability .* not in \(0, 1\]"):
        read_lexicon(path)


def test_written_fixture_lexicon_loads(tmp_path, small_lexicon):
    path = tmp_path / "lex.tsv"
    write_lexicon(path, small_lexicon)
    assert len(read_lexicon(path)) == len(small_lexicon)


@settings(max_examples=100, deadline=None)
@given(st.lists(_SIDES, min_size=1, max_size=10), st.integers(min_value=1, max_value=6),
       st.sampled_from([0.0, 1e-4, 0.3, 1.0]))
def test_every_trained_lexicon_loads_after_writing(tmp_path_factory, sides, iterations,
                                                   prune_below):
    lex = train_lexicon(BitextCorpus([BiSentence(" ".join(s), " ".join(t)) for s, t in sides]),
                        iterations, prune_below)
    path = tmp_path_factory.mktemp("lex") / "lex.tsv"
    write_lexicon(path, lex)
    assert read_lexicon(path).entries.keys() == lex.entries.keys()


def _passthrough_by_scan(token):
    return not any(ch.isalpha() for ch in token)


@settings(max_examples=500, deadline=None)
@given(st.text())
@example("")
@example("ab1")
def test_passthrough_equals_the_per_character_scan(token):
    assert lexicon._passthrough(token) == _passthrough_by_scan(token)
