import json
import math
import random
from collections import namedtuple

import pytest
from hypothesis import example, given, settings, strategies as st

from bimine import classifier
from bimine.classifier import (
    FEATURE_NAMES,
    SimilarityModel,
    calibrate,
    load_model,
    match_filter,
    pair_features,
    save_model,
    similarity,
    source_record,
    target_record,
    train_model,
)
from bimine.corpus_io import BiSentence, BitextCorpus
from bimine.lexicon import TranslationLexicon, seed_tokens


def _lex(mapping):
    return TranslationLexicon(
        entries={s: [(t, 1.0)] for s, t in mapping.items()})


# the feature tuple with named fields, for readable assertions
Features = namedtuple("Features", FEATURE_NAMES)


def _features(src_tokens, tgt_tokens, lex):
    return Features(*pair_features(source_record(src_tokens, lex),
                                   target_record(tgt_tokens)))


# ---------------------------------------------------------------------------
# features

def test_perfect_pair_features():
    lex = _lex({"ala": "ala", "ma": "ma", "kota": "kota"})
    fv = _features(["ala", "ma", "kota"], ["ala", "ma", "kota"], lex)
    assert fv.len_ratio == 1.0
    assert fv.cov_st == 1.0
    assert fv.cov_ts == 1.0
    assert fv.num_overlap == 1.0


def test_disjoint_tokens_empty_lexicon():
    fv = _features(["a", "b"], ["x", "y"], _lex({}))
    assert fv.cov_st == 0.0
    assert fv.cov_ts == 0.0


def test_len_ratio_half():
    lex = _lex({})
    fv = _features(["a"] * 4, ["x"] * 8, lex)
    assert fv.len_ratio == 0.5


def test_empty_side_errors():
    with pytest.raises(ValueError):
        _features([], ["x"], _lex({}))
    with pytest.raises(ValueError):
        _features(["a"], [], _lex({}))


def test_digit_overlap():
    lex = _lex({})
    fv = _features(["w", "1920"], ["v", "1920"], lex)
    assert fv.num_overlap == 1.0
    fv = _features(["w", "1920"], ["v", "1921"], lex)
    assert fv.num_overlap == 0.0
    fv = _features(["w"], ["v"], lex)
    assert fv.num_overlap == 1.0


def test_features_bounded():
    rng = random.Random(8)
    vocab = ["a", "b", "c", "d", "e", "7", "."]
    lex = TranslationLexicon(entries={
        "a": [("x", 0.6), ("y", 0.4)], "b": [("x", 1.0)], "c": [("z", 1.0)]})
    for _ in range(200):
        src = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        tgt = [rng.choice(["x", "y", "z", "7", "."])
               for _ in range(rng.randint(1, 6))]
        fv = _features(src, tgt, lex)
        for value in fv:
            assert 0.0 <= value <= 1.0


def _reference_features(src_tokens, tgt_tokens, lex):
    # the earlier per-pair formula, which rescans the lexicon for every pair
    def digits(tokens):
        return {t for t in tokens if any(c.isdigit() for c in t)
                and not any(c.isalpha() for c in t)}

    n_src, n_tgt = len(src_tokens), len(tgt_tokens)
    c_src = sum(len(t) for t in src_tokens)
    c_tgt = sum(len(t) for t in tgt_tokens)
    tgt_set = set(tgt_tokens)
    cov = 0.0
    for s in src_tokens:
        credit = 0.0
        for t, p in lex.entries.get(s, ()):
            if t in tgt_set:
                credit += p
        cov += min(credit, 1.0)
    cov_st = cov / n_src
    cov = 0.0
    for t in tgt_tokens:
        best = 0.0
        for s in set(src_tokens):
            for tt, p in lex.entries.get(s, ()):
                if tt == t and p > best:
                    best = p
        cov += best
    cov_ts = cov / n_tgt
    src_digits, tgt_digits = digits(src_tokens), digits(tgt_tokens)
    num_overlap = (1.0 if not src_digits and not tgt_digits else
                   len(src_digits & tgt_digits) / len(src_digits | tgt_digits))
    return (min(n_src, n_tgt) / max(n_src, n_tgt), min(c_src, c_tgt) / max(c_src, c_tgt),
            cov_st, cov_ts, num_overlap)


# source words the lexicon may or may not know, digit tokens, punctuation
_SRC_VOCAB = ["ka", "to", "mi", "zu", "pro", "7", "1920", "x1", "."]
_TGT_VOCAB = ["ben", "dor", "fil", "gan", "7", "1920", "1921", ".", "x1"]
# rows need not sum to 1 and may repeat a target, so min(credit, 1) and the
# best-probability rule both matter
_LEXICONS = st.dictionaries(
    st.sampled_from(_SRC_VOCAB),
    st.lists(st.tuples(st.sampled_from(_TGT_VOCAB),
                       st.floats(min_value=0.0, max_value=1.0)), max_size=5),
    max_size=len(_SRC_VOCAB))


@settings(max_examples=300, deadline=None)
@given(_LEXICONS,
       st.lists(st.sampled_from(_SRC_VOCAB), min_size=1, max_size=8),
       st.lists(st.sampled_from(_TGT_VOCAB), min_size=1, max_size=8))
def test_features_equal_reference_formula_bit_for_bit(entries, src, tgt):
    lex = TranslationLexicon(entries=entries)
    got = _features(src, tgt, lex)
    assert [x.hex() for x in got] == [x.hex() for x in _reference_features(src, tgt, lex)]


# every weight of either sign; platt_a < 0 as training and load_model enforce
_MODELS = st.builds(
    lambda weights, bias, a, b: SimilarityModel(list(weights), bias, a, b, ("pl", "en"),
                                                lexicon_checksum=""),
    st.tuples(*[st.floats(min_value=-8.0, max_value=8.0)] * 5),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=-6.0, max_value=-0.01), st.floats(min_value=-4.0, max_value=4.0))


# like _LEXICONS, with half the probabilities under match_filter's strong
# split of 0.1
_WEAK_LEXICONS = st.dictionaries(
    st.sampled_from(_SRC_VOCAB),
    st.lists(st.tuples(st.sampled_from(_TGT_VOCAB),
                       st.one_of(st.floats(min_value=0.0, max_value=0.1),
                                 st.floats(min_value=0.0, max_value=1.0))), max_size=5),
    max_size=len(_SRC_VOCAB))


@settings(max_examples=300, deadline=None)
@given(_WEAK_LEXICONS, _MODELS,
       st.lists(st.lists(st.sampled_from(_SRC_VOCAB), min_size=1, max_size=8),
                min_size=1, max_size=3),
       st.lists(st.lists(st.sampled_from(_TGT_VOCAB), min_size=1, max_size=8),
                min_size=1, max_size=3))
def test_match_filter_bound_never_below_similarity(entries, model, src_sents, tgt_sents):
    # with the floor at a cell's own score, a bound below the score would
    # rule the cell out
    lex = TranslationLexicon(entries=entries)
    sources = [source_record(s, lex) for s in src_sents]
    targets = [target_record(t) for t in tgt_sents]
    for i, src in enumerate(sources):
        for j, tgt in enumerate(targets):
            score = similarity(model, src, tgt)
            can_match = match_filter(model, sources, targets, score)
            assert can_match is None or can_match(i, j)


# few words, so source and target sentences repeat tokens; rows of up to four
# translations that may repeat a target, so a row's credit can pass 1
_FEW_SRC = ["ka", "to", "7", "1920"]
_FEW_TGT = ["ben", "dor", "7", "1920", "1921"]
_CREDIT_LEXICONS = st.dictionaries(
    st.sampled_from(_FEW_SRC),
    st.lists(st.tuples(st.sampled_from(_FEW_TGT), st.floats(min_value=0.0, max_value=1.0)),
             min_size=1, max_size=4),
    max_size=len(_FEW_SRC))


@settings(max_examples=300, deadline=None)
@given(_CREDIT_LEXICONS, _MODELS,
       st.lists(st.lists(st.sampled_from(_FEW_SRC), min_size=1, max_size=6),
                min_size=1, max_size=3),
       st.lists(st.lists(st.sampled_from(_FEW_TGT), min_size=1, max_size=6),
                min_size=1, max_size=3))
@example({"ka": [("ben", 0.8), ("dor", 0.7)], "7": [("7", 1.0)]},
         SimilarityModel([1.0, -1.0, 4.0, 3.0, 0.5], -2.0, -2.0, 0.5, ("pl", "en"),
                         lexicon_checksum=""),
         [["ka", "ka", "7"]], [["ben", "dor", "ben", "7"]])
@example({"ka": [("ben", 0.9)]},
         SimilarityModel([0.0, 0.0, -3.0, 5.0, 0.0], 0.0, -1.0, 0.0, ("pl", "en"),
                         lexicon_checksum=""),
         [["ka", "to"]], [["ben", "ben", "ben", "dor"]])
def test_match_filter_second_tier_never_below_similarity(entries, model, src_sents,
                                                         tgt_sents):
    # with the floor at a cell's own score the first tier passes that cell,
    # so the second tier decides: repeated tokens on both sides, credit past
    # 1, digits
    lex = TranslationLexicon(entries=entries)
    sources = [source_record(s, lex) for s in src_sents]
    targets = [target_record(t) for t in tgt_sents]
    scores = [[similarity(model, src, tgt) for tgt in targets] for src in sources]
    for floor in {score for row in scores for score in row}:
        can_match = match_filter(model, sources, targets, floor)
        if can_match is None:
            continue
        for i, row in enumerate(scores):
            for j, score in enumerate(row):
                assert score < floor or can_match(i, j)


def test_match_filter_rules_out_unrelated_pairs_only(small_model, small_lexicon,
                                                     small_seed_corpus):
    from bimine.corpus_io import tokenize

    pairs = [(tokenize(p.src), tokenize(p.tgt)) for p in small_seed_corpus.pairs[:40]]
    sources = [source_record(s, small_lexicon) for s, _ in pairs]
    targets = [target_record(t) for _, t in pairs]
    floor = 1.0 - 2 * 0.4 - 1e-9
    can_match = match_filter(small_model, sources, targets, floor)
    ruled_out = 0
    for i, src in enumerate(sources):
        for j, tgt in enumerate(targets):
            if not can_match(i, j):
                ruled_out += 1
                assert similarity(small_model, src, tgt) < floor
    assert all(can_match(i, i) for i in range(len(pairs)))
    assert ruled_out > len(pairs) ** 2 // 2


def test_match_filter_proves_nothing_at_a_floor_of_zero(small_model):
    assert match_filter(small_model, [], [], 0.0) is None
    assert match_filter(small_model, [], [], 1e-15) is None


def test_records_reused_across_pairings(small_lexicon, small_seed_corpus):
    from bimine.corpus_io import tokenize

    sentences = [(tokenize(p.src), tokenize(p.tgt)) for p in small_seed_corpus.pairs[:30]]
    sources = [source_record(s, small_lexicon) for s, _ in sentences]
    targets = [target_record(t) for _, t in sentences]
    for i, (src, _) in enumerate(sentences):
        for j, (_, tgt) in enumerate(sentences):
            assert pair_features(sources[i], targets[j]) == \
                _reference_features(src, tgt, small_lexicon)


# ---------------------------------------------------------------------------
# calibration

def test_calibrate_symmetric():
    margins = [(1.0, 1)] * 50 + [(-1.0, -1)] * 50
    a, b = calibrate(margins)
    assert a < 0
    assert abs(b) < 1e-6
    p_zero = 1.0 / (1.0 + math.exp(b))
    assert p_zero == pytest.approx(0.5, abs=1e-6)


def test_calibrate_monotone():
    rng = random.Random(4)
    margins = [(rng.gauss(1, 1), 1) for _ in range(200)]
    margins += [(rng.gauss(-1, 1), -1) for _ in range(200)]
    a, b = calibrate(margins)
    assert a < 0
    probs = [1.0 / (1.0 + math.exp(a * m + b)) for m in [-3, -1, 0, 1, 3]]
    assert probs == sorted(probs)


def test_calibrate_recovers_known_sigmoid():
    # sample labels from p(y|m) = 1/(1+exp(-2m+0.5)) and refit
    rng = random.Random(12)
    true_a, true_b = -2.0, 0.5
    margins = []
    for _ in range(10000):
        m = rng.uniform(-4, 4)
        p = 1.0 / (1.0 + math.exp(true_a * m + true_b))
        margins.append((m, 1 if rng.random() < p else -1))
    a, b = calibrate(margins)
    assert a == pytest.approx(true_a, abs=0.1)
    assert b == pytest.approx(true_b, abs=0.1)


def test_calibrate_single_class_error():
    with pytest.raises(ValueError):
        calibrate([(1.0, 1), (2.0, 1)])


# ---------------------------------------------------------------------------
# training

def _separable_corpus(n=150):
    # aligned pairs translate word-for-word under the lexicon; mismatched
    # targets share nothing
    letters = "abcdefghijklmnopqrstuvwxyz"
    src_vocab = [f"sana{letters[i % 26]}{letters[i // 26]}" for i in range(30)]
    trans = {w: "tuno" + w[4:] for w in src_vocab}
    lex = TranslationLexicon(entries={w: [(t, 1.0)] for w, t in trans.items()})
    rng = random.Random(99)
    pairs = []
    for _ in range(n):
        words = rng.sample(src_vocab, rng.randint(3, 6))
        pairs.append(BiSentence(" ".join(words),
                                " ".join(trans[w] for w in words)))
    return BitextCorpus(pairs), lex


def _perceptron_separable(examples, epochs=200):
    # simple perceptron as an independent separability check
    dim = len(examples[0][0])
    w = [0.0] * (dim + 1)
    for _ in range(epochs):
        errors = 0
        for x, y in examples:
            activation = sum(wi * xi for wi, xi in zip(w, list(x) + [1.0]))
            if y * activation <= 0:
                errors += 1
                for d in range(dim):
                    w[d] += y * x[d]
                w[dim] += y
        if errors == 0:
            return True
    return False


def test_train_accuracy_on_separable_fixture():
    corpus, lex = _separable_corpus()
    model = train_model(seed_tokens(corpus), lex, ("pl", "en"), neg_per_pos=3, epochs=15,
                        learning_rate=0.1, margin_reg=1e-4, seed_rng=7)
    rng = random.Random(7)
    examples = []
    tokenized = [(p.src.split(), p.tgt.split()) for p in corpus.pairs]
    for i, (src, tgt) in enumerate(tokenized):
        examples.append((_features(src, tgt, lex), 1))
        j = rng.randrange(len(tokenized))
        if j != i:
            examples.append(
                (_features(src, tokenized[j][1], lex), -1))
    assert _perceptron_separable(examples)
    correct = sum(
        1 for x, y in examples
        if (model.margin(x) >= 0) == (y > 0))
    assert correct / len(examples) >= 0.95


def test_train_deterministic():
    corpus, lex = _separable_corpus()
    m1 = train_model(seed_tokens(corpus), lex, ("pl", "en"), neg_per_pos=3, epochs=5,
                     learning_rate=0.1, margin_reg=1e-4, seed_rng=3)
    m2 = train_model(seed_tokens(corpus), lex, ("pl", "en"), neg_per_pos=3, epochs=5,
                     learning_rate=0.1, margin_reg=1e-4, seed_rng=3)
    assert m1.weights == m2.weights
    assert m1.bias == m2.bias
    assert (m1.platt_a, m1.platt_b) == (m2.platt_a, m2.platt_b)


def list_weights_sgd(training, rng, epochs, learning_rate, margin_reg):
    """The earlier SGD loop over a weight list, kept as the bit-exact
    reference for ``classifier._fit_hinge``."""
    dim = len(FEATURE_NAMES)
    weights = [0.0] * dim
    bias = 0.0
    step = 0
    for _ in range(epochs):
        order = list(range(len(training)))
        rng.shuffle(order)
        for idx in order:
            step += 1
            eta = learning_rate / (1.0 + margin_reg * learning_rate * step)
            x, y = training[idx]
            margin = sum(w * xi for w, xi in zip(weights, x)) + bias
            for d in range(dim):
                weights[d] -= eta * margin_reg * weights[d]
            if y * margin < 1.0:
                for d in range(dim):
                    weights[d] += eta * y * x[d]
                bias += eta * y
    return weights, bias


_EXAMPLES = st.lists(
    st.tuples(st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * len(FEATURE_NAMES)),
              st.sampled_from([1, -1])),
    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_EXAMPLES, st.integers(min_value=1, max_value=8),
       st.sampled_from([0.1, 0.5, 1.0]), st.sampled_from([1e-4, 1e-2, 0.3]))
def test_fit_hinge_equals_list_loop_bit_for_bit(training, epochs, learning_rate, margin_reg):
    rng, reference_rng = random.Random(11), random.Random(11)
    weights, bias, _ = classifier._fit_hinge(training, rng, epochs, learning_rate, margin_reg)
    ref_weights, ref_bias = list_weights_sgd(training, reference_rng, epochs,
                                             learning_rate, margin_reg)
    assert [w.hex() for w in weights + [bias]] == [w.hex() for w in ref_weights + [ref_bias]]
    # the same draws were taken from both generators
    assert rng.random() == reference_rng.random()


def test_fit_hinge_counts_the_updates():
    # with a zero margin every example is inside the hinge on the first
    # visit; a label-consistent pair then moves out of it
    training = [((1.0, 0.0, 0.0, 0.0, 0.0), 1), ((0.0, 1.0, 0.0, 0.0, 0.0), -1)]
    _, _, updates = classifier._fit_hinge(training, random.Random(0), 1, 0.1, 1e-4)
    assert updates == 2
    _, _, updates = classifier._fit_hinge(training, random.Random(0), 200, 1.0, 1e-4)
    assert 2 <= updates < 400


@pytest.mark.parametrize("length", [0, 1, 2, 7, 2000])
@pytest.mark.parametrize("seed", [0, 1, 13, 2**40 + 5])
def test_shuffle_equals_random_shuffle(length, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    items, expected = list(range(length)), list(range(length))
    for _ in range(3):
        classifier._shuffle(rng, items)
        reference_rng.shuffle(expected)
        assert items == expected
        assert rng.getstate() == reference_rng.getstate()


def test_seeded_model_weights_pinned(small_model):
    # float.hex of the 600-pair fixture's model (CPython 3.11, x86-64)
    assert [w.hex() for w in small_model.weights] == [
        "0x1.068c53ca1db97p+1", "0x1.4199534011f6fp-4", "0x1.21009f59c3152p+2",
        "0x1.016d986e9ea47p+2", "-0x1.c96eec2855dffp+1"]
    assert small_model.bias.hex() == "-0x1.14e1cd716b57bp+2"
    counts = small_model.training_counts
    assert counts["examples"] == 4 * 600
    assert counts["held_out"] == 240
    assert 0 < counts["hinge_updates"] <= 12 * (counts["examples"] - counts["held_out"])


def test_train_neg_per_pos_zero_error():
    corpus, lex = _separable_corpus()
    with pytest.raises(ValueError):
        train_model(seed_tokens(corpus), lex, ("pl", "en"), neg_per_pos=0, epochs=30,
                    learning_rate=0.1, margin_reg=1e-4, seed_rng=0)


def test_train_minimum_corpus_size():
    corpus, lex = _separable_corpus(n=50)
    with pytest.raises(ValueError, match="100"):
        train_model(seed_tokens(corpus), lex, ("pl", "en"), neg_per_pos=3, epochs=30,
                    learning_rate=0.1, margin_reg=1e-4, seed_rng=0)


# ---------------------------------------------------------------------------
# similarity

def test_similarity_separates_fixture_pairs(small_model, small_lexicon,
                                            small_seed_corpus):
    from bimine.corpus_io import tokenize

    pairs = small_seed_corpus.pairs[:50]
    good = bad = 0
    for i, pair in enumerate(pairs):
        src = tokenize(pair.src)
        true_tgt = tokenize(pair.tgt)
        other = tokenize(pairs[(i + 7) % len(pairs)].tgt)
        src_rec = source_record(src, small_lexicon)
        # 0.5 is the default mining threshold, mining.threshold
        if similarity(small_model, src_rec, target_record(true_tgt)) > 0.5:
            good += 1
        if similarity(small_model, src_rec, target_record(other)) < 0.5:
            bad += 1
    assert good >= 45
    assert bad >= 45


def test_similarity_strictly_inside_unit_interval(small_model, small_lexicon):
    rng = random.Random(2)
    vocab = ["ka", "to", "mi", "zu", ".", "42"]
    for _ in range(300):
        src = [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
        tgt = [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
        score = similarity(small_model, source_record(src, small_lexicon),
                           target_record(tgt))
        assert 0.0 < score < 1.0


def test_similarity_monotone_in_coverage(small_model):
    # higher source coverage never lowers the score when its weight is positive
    cov_weight = small_model.weights[FEATURE_NAMES.index("cov_st")]
    assert cov_weight > 0
    base = Features(1.0, 1.0, 0.2, 0.5, 1.0)
    scores = []
    for cov in [0.2, 0.5, 0.8, 1.0]:
        fv = Features(1.0, 1.0, cov, 0.5, 1.0)
        margin = small_model.margin(fv)
        scores.append(1.0 / (1.0 + math.exp(
            small_model.platt_a * margin + small_model.platt_b)))
    assert scores == sorted(scores)
    assert base  # silence linters


def test_model_roundtrip_identical_scores(tmp_path, small_model, small_lexicon):
    path = tmp_path / "model.json"
    save_model(path, small_model)
    back = load_model(path)
    assert back.weights == small_model.weights
    assert back.platt_a == small_model.platt_a
    rng = random.Random(6)
    vocab = list(small_lexicon.entries)[:40] + [".", "42", "qq"]
    for _ in range(1000):
        src = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        tgt = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        src_rec, tgt_rec = source_record(src, small_lexicon), target_record(tgt)
        assert similarity(back, src_rec, tgt_rec) == \
            similarity(small_model, src_rec, tgt_rec)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}', encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        load_model(path)


def test_model_direction_recorded(small_model):
    assert small_model.direction == ("pl", "en")


def test_load_rejects_a_non_negative_platt_slope(tmp_path, small_model):
    path = tmp_path / "model.json"
    save_model(path, small_model)
    good = json.loads(path.read_text(encoding="utf-8"))
    for slope in (0.0, 1.5):
        path.write_text(json.dumps({**good, "platt_a": slope}), encoding="utf-8")
        with pytest.raises(ValueError, match=f"model.json: platt_a must be negative, "
                                             f"got {slope}"):
            load_model(path)


def test_load_refuses_a_version_1_model_naming_the_file(tmp_path, small_model):
    # a version-1 file stored a mining threshold, which mining no longer reads
    path = tmp_path / "model.json"
    save_model(path, small_model)
    good = json.loads(path.read_text(encoding="utf-8"))
    assert good["format_version"] == 2 and "threshold" not in good
    path.write_text(json.dumps({**good, "format_version": 1, "threshold": 0.5}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"model.json: unsupported model format 1$"):
        load_model(path)


def test_load_rejects_malformed_model_naming_the_file(tmp_path, small_model):
    path = tmp_path / "model.json"
    save_model(path, small_model)
    good = json.loads(path.read_text(encoding="utf-8"))
    for doc, detail in (({k: v for k, v in good.items() if k != "weights"},
                         "missing field 'weights'"),
                        ({**good, "weights": good["weights"][:3]}, "3 weights"),
                        ({**good, "bias": "high"}, "bias must be a number, not str"),
                        ({**good, "weights": ["nan"] + good["weights"][1:]},
                         "a weight must be a number, not str"),
                        ({**good, "format_version": True}, "format_version must be a number"),
                        ({**good, "direction": ["pl"]}, "unpack"),
                        (["not", "an", "object"], "one JSON object")):
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=f"model.json: .*{detail}"):
            load_model(path)
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ValueError, match="model.json: Expecting"):
        load_model(path)


def _is_digit_token_by_scan(token):
    return any(ch.isdigit() for ch in token) and not any(ch.isalpha() for ch in token)


@settings(max_examples=500, deadline=None)
@given(st.text())
@example("")
@example("1999")
@example("³")
@example("a1")
@example("1,5")
def test_is_digit_token_equals_the_per_character_scan(token):
    assert classifier._is_digit_token(token) == _is_digit_token_by_scan(token)
