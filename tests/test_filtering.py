import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bimine import filtering
from bimine.corpus_io import BiSentence, BitextCorpus
from bimine.filtering import (
    CascadeConfig,
    DEFAULT_STEM_RULES,
    filter_corpus,
    read_cascade_config,
    read_stop_words,
    read_synonyms,
    remove_trivial,
    similarity_fast,
    similarity_stem,
    similarity_synonym,
    stem,
)
from bimine.lexicon import TranslationLexicon

from synthdata import make_filter_fixture, make_world


# ---------------------------------------------------------------------------
# trivial filter

def _corpus(rows):
    return BitextCorpus([BiSentence(s, t) for s, t in rows])


def test_duplicate_dropped():
    corpus = _corpus([("ala ma kota dzis", "the cat is here now")] * 2)
    kept, report = remove_trivial(corpus, min_chars=10)
    assert len(kept.pairs) == 1
    assert report.rejections == {"duplicate": 1}
    assert report.kept_count == 1


def test_short_pair_dropped():
    kept, report = remove_trivial(_corpus([("abc", "xyz")]), min_chars=10)
    assert kept.pairs == []
    assert report.rejections == {"short": 1}


def test_letter_free_pair_dropped():
    kept, report = remove_trivial(_corpus([("1234567890 12", "42 42 42 42")]), min_chars=10)
    assert kept.pairs == []
    assert report.rejections == {"non-letter": 1}


def test_good_pair_kept():
    kept, report = remove_trivial(
        _corpus([("ala ma kota w domu", "the cat lives at home")]), min_chars=10)
    assert len(kept.pairs) == 1
    assert report.rejected_count == 0


def test_report_reconciles():
    rows = [("ala ma kota w domu", "the cat lives at home"),
            ("ala ma kota w domu", "the cat lives at home"),
            ("krotki", "short"),
            ("1234567890 123", "9876543210 98"),
            ("zupa pomidorowa jest dobra", "tomato soup is good")]
    kept, report = remove_trivial(_corpus(rows), min_chars=10)
    assert report.input_count == 5
    assert report.kept_count == len(kept.pairs) == 2
    assert report.kept_count + report.rejected_count == report.input_count
    assert sum(report.rejections.values()) == report.rejected_count


# ---------------------------------------------------------------------------
# stemming

def test_stem_plural():
    assert stem("boys") == "boy"


def test_stem_no_rule():
    assert stem("boy") == "boy"


def test_stem_never_empties():
    assert stem("s") == "s"


def test_stem_idempotent_on_fixture_words():
    words = ["boys", "boy", "plays", "played", "tables", "boxes", "glasses",
             "flies", "pass", "passes", "bus", "buses", "runs", "origami",
             "dishes", "matches", "prizes", "gas", "cats", "dogs"]
    for word in words:
        once = stem(word)
        assert stem(once) == once, word


def test_stem_custom_rules():
    assert stem("singing", rules=[("ing", "")]) == "sing"


# ---------------------------------------------------------------------------
# similarity functions

STOPS = frozenset({"this", "is", "it", "the", "a"})
# the resources of a cascade with the stop words STOPS
STOPPED = CascadeConfig(stop_words=STOPS)


def test_fast_identical():
    assert similarity_fast("the cat sat".split(), "the cat sat".split(), STOPPED) == 1.0


def test_fast_disjoint():
    assert similarity_fast("cat dog".split(), "bird fish".split(), STOPPED) == 0.0


def test_fast_origami_example():
    a = "This is origami .".split()
    b = "It is origami .".split()
    assert similarity_fast(a, b, CascadeConfig(stop_words=frozenset({"this", "is", "it"}))) \
        == 1.0


def test_fast_both_sides_all_stop_words():
    assert similarity_fast(["this", "is"], ["it", "the"], STOPPED) == 1.0


def test_stem_similarity_plural_match():
    assert similarity_stem("boys play".split(), "boy plays".split(), CascadeConfig(
        stop_words=frozenset(), stem_rules=DEFAULT_STEM_RULES)) == 1.0


def test_stem_similarity_identical():
    assert similarity_stem("cat sat".split(), "cat sat".split(), STOPPED) == 1.0


def test_stem_similarity_disjoint():
    assert similarity_stem("cats run".split(), "dogo walked".split(), STOPPED) == 0.0


def test_synonym_similarity_substitution():
    synonyms = {"big": frozenset({"large"}), "large": frozenset({"big"})}
    assert similarity_synonym("big dog".split(), "large dog".split(), CascadeConfig(
        stop_words=frozenset(), stem_rules=DEFAULT_STEM_RULES, synonyms=synonyms)) == 1.0


def test_synonym_without_table_equals_stem():
    a, b = "boys eat bread".split(), "boy eats rice".split()
    config = CascadeConfig(stop_words=STOPS, stem_rules=DEFAULT_STEM_RULES, synonyms={})
    assert similarity_synonym(a, b, config) == similarity_stem(a, b, config)


def test_synonym_identical():
    assert similarity_synonym("a b c".split(), "a b c".split(), CascadeConfig(
        stop_words=frozenset(), stem_rules=DEFAULT_STEM_RULES, synonyms={})) == 1.0


@settings(max_examples=150)
@given(st.lists(st.sampled_from(["cat", "dog", "boys", "run", "the", "42", "."]),
                max_size=6),
       st.lists(st.sampled_from(["cat", "dog", "boy", "runs", "it", "42", "."]),
                max_size=6))
def test_similarity_functions_symmetric_and_bounded(a, b):
    config = CascadeConfig(stop_words=frozenset({"the", "it"}), stem_rules=DEFAULT_STEM_RULES,
                           synonyms={"cat": frozenset({"dog"})})
    for fn in (similarity_fast, similarity_stem, similarity_synonym):
        left, right = fn(a, b, config), fn(b, a, config)
        assert left == right
        assert 0.0 <= left <= 1.0
    assert similarity_fast(a, a, config) == 1.0


# ---------------------------------------------------------------------------
# cascade

def _gloss_lex():
    return TranslationLexicon(entries={
        "na": [("at", 1.0)], "początku": [("beginning", 1.0)],
        "lat": [("years", 1.0)], "ala": [("alice", 1.0)],
        "ma": [("has", 1.0)], "kota": [("cat", 1.0)],
    })


def test_gloss_equal_pair_kept_first_stage():
    lex = _gloss_lex()
    corpus = _corpus([("Ala ma kota .", "Alice has cat .")])
    kept, rejected, report = filter_corpus(corpus, lex, CascadeConfig())
    assert len(kept.pairs) == 1
    assert rejected.pairs == []
    assert report.kept_count == 1


def test_paper_mistranslation_rejected():
    lex = _gloss_lex()
    corpus = _corpus([("Na początku lat 30", "U.S. Dept.")])
    kept, rejected, report = filter_corpus(corpus, lex, CascadeConfig())
    assert kept.pairs == []
    assert len(rejected.pairs) == 1


def test_report_counts_acceptances_per_stage():
    # each default stage decides one pair to keep; two pairs are rejected
    corpus = _corpus([
        ("Ala ma kota .", "Alice has cat ."),      # fast: the gloss matches
        ("Ala ma kota .", "Alice has cats ."),     # stem: cats -> cat
        ("Ala ma kota .", "Alice has dog ."),      # synonym: cat ~ dog
        ("Ala ma kota .", "Alice has bird ."),     # no stage accepts
        ("Na początku lat 30", "U.S. Dept."),      # the fast stage rejects
    ])
    config = CascadeConfig(synonyms={"cat": frozenset({"dog"})})
    kept, rejected, report = filter_corpus(corpus, _gloss_lex(), config)
    assert [p.tgt for p in kept.pairs] == ["Alice has cat .", "Alice has cats .",
                                           "Alice has dog ."]
    assert report.as_dict() == {
        "input_count": 5, "kept_count": 3, "rejected_count": 2,
        "acceptances": {"fast": 1, "stem": 1, "synonym": 1},
        "rejections": {"fallthrough": 1, "reject-fast": 1},
    }


def test_partition_is_exact():
    fixture = make_filter_fixture(make_world(seed=7), seed=5, n=60, n_noisy=12)
    config = CascadeConfig(synonyms=fixture.synonyms)
    kept, rejected, report = filter_corpus(fixture.corpus, fixture.lexicon, config)
    assert len(kept.pairs) + len(rejected.pairs) == len(fixture.corpus.pairs)
    assert report.input_count == 60
    assert report.kept_count == len(kept.pairs)
    assert report.rejected_count == len(rejected.pairs)
    assert sum(report.rejections.values()) == report.rejected_count
    assert sum(report.acceptances.values()) == report.kept_count


def test_cascade_deterministic():
    fixture = make_filter_fixture(make_world(seed=7), seed=6, n=80, n_noisy=20)
    config = CascadeConfig(synonyms=fixture.synonyms)
    first = filter_corpus(fixture.corpus, fixture.lexicon, config)
    second = filter_corpus(fixture.corpus, fixture.lexicon, config)
    assert [(p.src, p.tgt) for p in first[0].pairs] == \
        [(p.src, p.tgt) for p in second[0].pairs]
    assert first[2].as_dict() == second[2].as_dict()


# tokens a real pair may carry: empty (doubled spaces), punctuation only,
# digits, stop words, lexicon words and words the lexicon does not know
_FUZZ_TOKENS = ["", ".", "...", "!?", "-", "(", "42", "1999", "3.5", "the", "it",
                "ala", "ma", "kota", "na", "alice", "has", "cat", "cats", "dog",
                "Kota", "xyz", "ąę"]
_fuzz_text = st.one_of(
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=6).map(" ".join),
    st.text(alphabet=" .,!?-0123456789akotcąę\t", max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_fuzz_text, _fuzz_text), max_size=8))
def test_filter_corpus_partitions_hostile_pairs_in_order(rows):
    corpus = _corpus(rows)
    config = CascadeConfig(synonyms={"cat": frozenset({"dog"})})
    kept, rejected, report = filter_corpus(corpus, _gloss_lex(), config)
    # every input pair lands in exactly one output, each in input order
    k = r = 0
    for pair in corpus.pairs:
        if k < len(kept.pairs) and kept.pairs[k] is pair:
            k += 1
        else:
            assert r < len(rejected.pairs) and rejected.pairs[r] is pair
            r += 1
    assert (k, r) == (len(kept.pairs), len(rejected.pairs))
    assert (report.input_count, report.kept_count, report.rejected_count) == \
        (len(rows), k, r)
    assert sum(report.rejections.values()) == r
    again = filter_corpus(corpus, _gloss_lex(), config)
    assert (again[0], again[1], again[2].as_dict()) == (kept, rejected, report.as_dict())


def test_stage_ordering_soundness():
    # a pair accepted at stage k is still accepted when later stages vanish
    fixture = make_filter_fixture(make_world(seed=7), seed=8, n=120, n_noisy=25)
    full = CascadeConfig(synonyms=fixture.synonyms)
    for cut in (1, 2):
        truncated = CascadeConfig(stages=full.stages[:cut],
                                  synonyms=fixture.synonyms)
        kept_full, _, _ = filter_corpus(fixture.corpus, fixture.lexicon, full)
        kept_cut, _, _ = filter_corpus(fixture.corpus, fixture.lexicon, truncated)
        full_keys = {(p.src, p.tgt) for p in kept_full.pairs}
        # everything the truncated cascade accepts, the full cascade accepts
        for key in {(p.src, p.tgt) for p in kept_cut.pairs}:
            assert key in full_keys


def test_cascade_proportions_on_fixture():
    fixture = make_filter_fixture(make_world(seed=7), seed=23, n=500, n_noisy=91)
    config = CascadeConfig(synonyms=fixture.synonyms)
    kept, rejected, _ = filter_corpus(fixture.corpus, fixture.lexicon, config)
    noisy_by_key = {}
    for pair, noisy in zip(fixture.corpus.pairs, fixture.noisy):
        noisy_by_key[(pair.src, pair.tgt)] = noisy
    rejected_noisy = sum(1 for p in rejected.pairs if noisy_by_key[(p.src, p.tgt)])
    lost_good = sum(1 for p in rejected.pairs if not noisy_by_key[(p.src, p.tgt)])
    n_noisy = sum(fixture.noisy)
    n_good = len(fixture.noisy) - n_noisy
    assert rejected_noisy / n_noisy >= 0.8
    assert lost_good / n_good <= 0.05


def test_cascade_config_validation():
    with pytest.raises(ValueError, match="reject"):
        CascadeConfig(stages=[("fast", 0.5, 0.9)])
    with pytest.raises(ValueError, match="unknown"):
        CascadeConfig(stages=[("nope", 0.9, 0.1)])
    with pytest.raises(ValueError, match="'stages' lists no stage"):
        CascadeConfig(stages=[])



@pytest.mark.parametrize("accept, reject", [(7, -3), (1.5, 0.1), (0.9, -0.1),
                                            (float("nan"), 0.1), (0.9, float("nan"))])
def test_cascade_thresholds_lie_in_zero_one(tmp_path, accept, reject):
    # outside [0, 1] a stage accepts nothing or rejects nothing
    with pytest.raises(ValueError, match=r"stage 'fast': thresholds must be 0 <= reject "):
        CascadeConfig(stages=[("fast", accept, reject)])
    if accept == accept and reject == reject:  # JSON has no NaN
        path = tmp_path / "cascade.json"
        path.write_text(json.dumps({"stages": [{"fn": "fast", "accept": accept,
                                                "reject": reject}]}), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"cascade.json: stage 'fast': thresholds "
                                             rf"must be 0 <= reject <= accept <= 1, "
                                             rf"got reject {reject} and accept {accept}$"):
            read_cascade_config(path)


# ---------------------------------------------------------------------------
# resource files

def test_stop_words_file(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("The\nis\n\nit\n", encoding="utf-8")
    assert read_stop_words(path) == {"the", "is", "it"}


def test_synonyms_file(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("big\tlarge\nfast\tquick\n", encoding="utf-8")
    table = read_synonyms(path)
    assert table["big"] == {"large"}
    assert table["large"] == {"big"}
    assert table["quick"] == {"fast"}


def test_cascade_config_resource_files(tmp_path):
    (tmp_path / "stops.txt").write_text("the\nit\n", encoding="utf-8")
    (tmp_path / "syn.tsv").write_text("big\tlarge\n", encoding="utf-8")
    path = tmp_path / "cascade.json"
    path.write_text('{"stop_words_file": "stops.txt", '
                    '"synonyms_file": "syn.tsv"}', encoding="utf-8")
    config = read_cascade_config(path)
    assert config.stop_words == {"the", "it"}
    assert config.synonyms["large"] == {"big"}


def test_cascade_config_file(tmp_path):
    path = tmp_path / "cascade.json"
    path.write_text("""{
      "stages": [{"fn": "fast", "accept": 0.95, "reject": 0.1}],
      "stop_words": ["the"],
      "synonyms": {"big": ["large"]},
      "stem_rules": [["s", ""]]
    }""", encoding="utf-8")
    config = read_cascade_config(path)
    assert config.stages == [("fast", 0.95, 0.1)]
    assert config.stop_words == {"the"}
    assert config.synonyms == {"big": frozenset({"large"})}
    assert config.stem_rules == [("s", "")]


def test_cascade_config_errors_name_the_file(tmp_path):
    path = tmp_path / "cascade.json"
    for text, detail in (('{"stages": [{"accept": 0.9, "reject": 0.1}]}', "missing field 'fn'"),
                         ('{"stages": [{"fn": "fast", "accept": "x", "reject": 0}]}',
                          "stage accept must be a number, not str"),
                         ('{"stages": [{"fn": "slow", "accept": 1, "reject": 0}]}', "slow"),
                         ('{"stages": ', "Expecting value")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"cascade.json: .*{detail}"):
            read_cascade_config(path)


@pytest.mark.parametrize("text, detail", [
    ('{"synonym_file": "x.tsv"}', r"unknown cascade config keys \['synonym_file'\]"),
    ('{"stages": [{"fn": "fast", "accept": 0.9, "reject": 0.1, "weight": 2}]}',
     r"unknown keys \['weight'\] in stage"),
    ('{"stages": [["fast", 0.9, 0.1]]}', "a stage is an object"),
    ('["stages"]', "a cascade config holds one JSON object"),
    ('{"stop_words": ["the"], "stop_words_file": "stops.txt"}',
     "give 'stop_words' or 'stop_words_file', not both"),
    ('{"synonyms": {}, "synonyms_file": "syn.tsv"}', "give 'synonyms' or 'synonyms_file', not both"),
    ('{"stages": []}', "cascade config key 'stages' lists no stage"),
    ('{"stem_rules": [["", "x"]]}', r"stem rule \['', 'x'\] has an empty suffix"),
    ('{"synonyms": [["big", "large"]]}', "'synonyms' is an object of word lists, not list"),
])
def test_cascade_config_means_what_it_says(tmp_path, text, detail):
    (tmp_path / "stops.txt").write_text("the\n", encoding="utf-8")
    (tmp_path / "syn.tsv").write_text("big\tlarge\n", encoding="utf-8")
    path = tmp_path / "cascade.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"cascade.json: {detail}"):
        read_cascade_config(path)


@pytest.mark.parametrize("doc, detail", [
    ({"stop_words": "the", "stem_rules": ["es"], "synonyms": {"big": "large"}},
     "expected a list of stop words, got 'the'"),
    ({"stem_rules": ["es"]}, "expected a list of stem rule strings, got 'es'"),
    ({"synonyms": {"big": "large"}}, "expected a list of synonyms of 'big', got 'large'"),
    ({"stop_words": ["the", 3]}, r"expected a list of stop words, got \['the', 3\]"),
])
def test_cascade_config_takes_no_string_for_a_list(tmp_path, doc, detail):
    path = tmp_path / "cascade.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"cascade.json: {detail}"):
        read_cascade_config(path)


@pytest.mark.parametrize("key, value", [("accept", "0.9"), ("reject", "0.1"),
                                        ("accept", True), ("reject", None)])
def test_cascade_config_takes_no_string_for_a_threshold(tmp_path, key, value):
    stage = {"fn": "fast", "accept": 0.9, "reject": 0.1, key: value}
    path = tmp_path / "cascade.json"
    path.write_text(json.dumps({"stages": [stage]}), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"cascade.json: stage {key} must be a number, "
                                         rf"not {type(value).__name__}$"):
        read_cascade_config(path)


def _content_tokens_by_scan(tokens, stop_words):
    out = set()
    for token in tokens:
        low = token.lower()
        if low not in stop_words and any(ch.isalnum() for ch in low):
            out.add(low)
    return out


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(), max_size=4))
@example(["", "İ", "½", "--", "the", "Ab1"])
def test_content_tokens_equal_the_per_character_scan(tokens):
    stop_words = frozenset({"the", "a"})
    assert filtering._content_tokens(tokens, stop_words) == \
        _content_tokens_by_scan(tokens, stop_words)
