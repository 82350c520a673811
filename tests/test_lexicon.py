import math
import random

import pytest

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
    lex = train_lexicon(BitextCorpus([BiSentence("a", "x")]))
    assert lex.entries["a"] == [("x", 1.0)]


def test_das_haus_argmax():
    seed = BitextCorpus([BiSentence("das haus", "the house"),
                         BiSentence("das buch", "the book")])
    lex = train_lexicon(seed, iterations=10)
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


def test_zero_iterations_error():
    with pytest.raises(ValueError):
        train_lexicon(BitextCorpus([BiSentence("a", "x")]), iterations=0)


def test_empty_corpus_error():
    with pytest.raises(ValueError):
        train_lexicon(BitextCorpus([]))


def test_side_without_tokens_error():
    with pytest.raises(ValueError):
        train_lexicon(BitextCorpus([BiSentence("a", "")]))


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
        lex = train_lexicon(corpus, iterations=8)
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


def test_lookup_known_word():
    lex = train_lexicon(BitextCorpus([BiSentence("a", "x")]))
    assert lex.entries["a"][:1] == [("x", 1.0)]


def test_lookup_unknown_word():
    lex = train_lexicon(BitextCorpus([BiSentence("a", "x")]))
    assert "qq" not in lex.entries


def test_lookup_k_larger_than_entries():
    lex = train_lexicon(BitextCorpus([BiSentence("a b", "x y")]))
    assert len(lex.entries["a"][:50]) == 2


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
    lex = train_lexicon(_random_corpus(rng, 10))
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
