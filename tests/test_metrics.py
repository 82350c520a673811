import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bimine import metrics
from bimine.metrics import (
    BootstrapResult,
    EvalPair,
    _ter_edits,
    bleu,
    bootstrap_diff,
    corpus_meteor,
    corpus_ter,
    meteor_lite,
    nist,
    ter,
)


def _pair(hyp, *refs):
    return EvalPair(hypothesis=tuple(hyp.split()),
                    references=tuple(tuple(r.split()) for r in refs))


# ---------------------------------------------------------------------------
# TER exhaustive oracle: breadth-first search over shift sequences

def _edit_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _all_shifts(state, ref_phrases):
    for start in range(len(state)):
        for length in range(1, len(state) - start + 1):
            phrase = state[start:start + length]
            if phrase not in ref_phrases:
                continue
            removed = state[:start] + state[start + length:]
            for pos in range(len(removed) + 1):
                if pos == start:
                    continue
                yield removed[:pos] + phrase + removed[pos:]


def exhaustive_ter_edits(hyp, ref):
    """Minimum of shifts + edit distance over every shift sequence."""
    ref = tuple(ref)
    ref_phrases = {ref[i:j] for i in range(len(ref))
                   for j in range(i + 1, len(ref) + 1)}
    start = tuple(hyp)
    best = _edit_distance(start, ref)
    seen = {start}
    frontier = [start]
    shifts = 0
    while frontier and shifts + 1 < best:
        shifts += 1
        next_frontier = []
        for state in frontier:
            for shifted in _all_shifts(state, ref_phrases):
                if shifted in seen:
                    continue
                seen.add(shifted)
                best = min(best, shifts + _edit_distance(shifted, ref))
                next_frontier.append(shifted)
        frontier = next_frontier
    return best


def greedy_ter_edits(hyp, ref):
    """The greedy shift search scored by a full DP per candidate: each step
    takes the first candidate, in (start, length, destination) order, of the
    lowest distance, if that is below the current distance."""
    current = list(hyp)
    ref = list(ref)
    ref_phrases = {tuple(ref[k:k + length])
                   for length in range(1, min(10, len(ref)) + 1)
                   for k in range(len(ref) - length + 1)}
    shifts = 0
    distance = _edit_distance(current, ref)
    while distance > 0:
        best_distance = distance
        best_state = None
        for start in range(len(current)):
            for length in range(1, min(10, len(current) - start) + 1):
                phrase = tuple(current[start:start + length])
                if phrase not in ref_phrases:
                    continue
                removed = current[:start] + current[start + length:]
                for pos in range(len(removed) + 1):
                    if pos == start:
                        continue
                    candidate = removed[:pos] + list(phrase) + removed[pos:]
                    d = _edit_distance(candidate, ref)
                    if d < best_distance:
                        best_distance = d
                        best_state = candidate
        if best_state is None:
            break
        current = best_state
        distance = best_distance
        shifts += 1
    return shifts + distance


# ---------------------------------------------------------------------------
# BLEU

def test_bleu_identity():
    corpus = [_pair("the cat sat on the mat", "the cat sat on the mat")] * 3
    assert bleu(corpus) == 1.0


def test_bleu_clipping_hand_case():
    corpus = [_pair("the the the the", "the cat")]
    assert bleu(corpus, max_n=1) == pytest.approx(0.25, abs=1e-9)


def test_bleu_no_overlap_zero():
    assert bleu([_pair("aa bb cc dd", "xx yy zz ww")]) == 0.0


def test_bleu_empty_corpus_error():
    with pytest.raises(ValueError):
        bleu([])


def test_bleu_permutation_invariant():
    rng = random.Random(3)
    corpus = [
        _pair("the cat sat on the mat", "the cat sat on a mat"),
        _pair("dogs run fast", "the dogs run very fast"),
        _pair("it rains today here", "it rains here today"),
        _pair("one two three four", "one two three four"),
    ]
    base = bleu(corpus)
    for _ in range(5):
        shuffled = corpus[:]
        rng.shuffle(shuffled)
        assert bleu(shuffled) == base


def test_bleu_multiple_references_clip():
    corpus = [_pair("the cat", "the cat sat down here", "a cat")]
    assert bleu(corpus, max_n=1) == pytest.approx(
        math.exp(min(0.0, 1.0 - 2 / 2)) * 1.0, abs=1e-9)


def test_bleu_brevity_penalty():
    # hypothesis half the reference length: BP = exp(1 - 2) = e^-1
    corpus = [_pair("the cat", "the cat sat down")]
    assert bleu(corpus, max_n=1) == pytest.approx(math.exp(-1.0), abs=1e-9)


# ---------------------------------------------------------------------------
# NIST

def test_nist_empty_hypotheses_zero():
    assert nist([EvalPair(hypothesis=(), references=(("a", "b"),))]) == 0.0


def test_nist_hand_computable_two_token_case():
    # single pair, hyp = ref = "a b": info(a) = info(b) = log2(2/1) = 1,
    # unigram score (1+1)/2 = 1; bigram info log2(1/1) = 0; BP = 1 -> 1.0
    corpus = [_pair("a b", "a b")]
    assert nist(corpus) == pytest.approx(1.0, abs=1e-12)


def test_nist_nonnegative():
    rng = random.Random(11)
    vocab = ["a", "b", "c", "d"]
    for _ in range(50):
        corpus = []
        for _ in range(rng.randint(1, 5)):
            hyp = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            ref = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            corpus.append(_pair(hyp, ref))
        assert nist(corpus) >= 0.0


def test_nist_rewards_rare_ngrams():
    # matching a rare word must add more information than a common one
    base = [_pair("x x x x", "x x x x")] * 8
    common = nist(base + [_pair("x", "x")])
    rare = nist(base + [_pair("q", "q")])
    assert rare > common


def test_nist_permutation_invariant():
    rng = random.Random(7)
    corpus = [
        _pair("the cat sat", "the cat sat on a mat"),
        _pair("dogs run fast", "the dogs run very fast"),
        _pair("one two three", "one two three four"),
    ]
    base = nist(corpus)
    for _ in range(5):
        shuffled = corpus[:]
        rng.shuffle(shuffled)
        assert nist(shuffled) == base


def test_nist_empty_corpus_error():
    with pytest.raises(ValueError):
        nist([])


# ---------------------------------------------------------------------------
# TER

def test_ter_identity():
    assert ter("a b c".split(), ["a b c".split()]) == 0.0


def test_ter_single_substitution():
    assert ter("a x c d".split(), ["a b c d".split()]) == 0.25


def test_ter_shift_hand_case():
    assert ter("c a b".split(), ["a b c".split()]) == pytest.approx(1 / 3)


def test_ter_matches_exhaustive_oracle_small():
    rng = random.Random(17)
    vocab = ["a", "b", "c", "d"]
    for _ in range(300):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        mine = ter(hyp, [ref])
        oracle = exhaustive_ter_edits(hyp, ref) / len(ref)
        assert mine == pytest.approx(oracle), (hyp, ref)


_SMALL_VOCAB_TOKENS = st.integers(2, 5).flatmap(
    lambda v: st.lists(st.sampled_from("abcde"[:v]), min_size=7, max_size=16))


@settings(max_examples=80, deadline=None)
@given(_SMALL_VOCAB_TOKENS, _SMALL_VOCAB_TOKENS)
# several shifts tie for the best distance; the first one is taken
@example(list("adbdedca"), list("ecacbdba"))
@example(list("dedbadcbe"), list("acebcdebd"))
def test_greedy_ter_equals_reference_search(hyp, ref):
    # inputs over six tokens take the greedy branch; small vocabularies make
    # equal-gain shifts common, so the tie-breaking order is exercised
    assert _ter_edits(hyp, ref) == greedy_ter_edits(hyp, ref)


def _seeded_ter_corpus(n_pairs=300):
    """Hypotheses made from their references by moved blocks, substitutions
    and deletions; a third of the pairs carry a second reference."""
    rng = random.Random(2006)
    vocab = [f"w{k}" for k in range(12)]
    corpus = []
    for _ in range(n_pairs):
        refs = []
        for _ in range(1 + (rng.random() < 1 / 3)):
            refs.append(tuple(rng.choice(vocab) for _ in range(rng.randint(1, 16))))
        hyp = list(refs[0])
        for _ in range(rng.randint(0, 3)):
            if not hyp:
                break
            i = rng.randrange(len(hyp))
            j = rng.randint(i + 1, min(len(hyp), i + 4))
            block, rest = hyp[i:j], hyp[:i] + hyp[j:]
            k = rng.randint(0, len(rest))
            hyp = rest[:k] + block + rest[k:]
            op = rng.random()
            if op < 0.3:
                hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
            elif op < 0.5 and len(hyp) > 1:
                del hyp[rng.randrange(len(hyp))]
        corpus.append(EvalPair(hypothesis=tuple(hyp), references=tuple(refs)))
    return corpus


def test_corpus_ter_pinned_on_seeded_corpus():
    # computed with the per-candidate DP shift search
    assert float.hex(corpus_ter(_seeded_ter_corpus())) == "0x1.767ca0aabbd8fp-3"


def test_ter_shifts_never_hurt():
    rng = random.Random(19)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(100):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        assert ter(hyp, [ref]) <= _edit_distance(hyp, ref) / len(ref) + 1e-12


def test_ter_can_exceed_one():
    assert ter("x y z w v".split(), ["a b".split()]) > 1.0


def test_ter_multiple_references_best():
    hyp = "a b c".split()
    assert ter(hyp, ["x y z w".split(), "a b c".split()]) == 0.0


def test_ter_empty_references_error():
    with pytest.raises(ValueError):
        ter("a".split(), [[]])


def test_corpus_ter_aggregates():
    corpus = [_pair("a b c d", "a b c d"), _pair("a x c d", "a b c d")]
    assert corpus_ter(corpus) == pytest.approx(1 / 8)


# ---------------------------------------------------------------------------
# METEOR

def test_meteor_identity_formula():
    for m in (1, 2, 5, 9):
        sentence = " ".join(f"w{i}" for i in range(m))
        score = meteor_lite(sentence.split(), [sentence.split()])
        assert score == pytest.approx(1.0 - 0.5 / m ** 3, abs=1e-12)


def test_meteor_zero_matches():
    assert meteor_lite("aa bb".split(), ["xx yy".split()]) == 0.0


def _exact_only(hyp, refs):
    # with stem the identity the stem stage matches nothing new
    with mock.patch.object(metrics, "stem", lambda word: word):
        return meteor_lite(hyp, refs)


def test_meteor_stem_stage():
    score = meteor_lite("boys run".split(), ["boy runs".split()])
    assert _exact_only("boys run".split(), ["boy runs".split()]) == 0.0
    assert score == pytest.approx(1.0 - 0.5 / 8, abs=1e-12)  # 2 matches, 1 chunk


def test_meteor_monotone_in_stages():
    rng = random.Random(23)
    vocab = ["boy", "boys", "run", "runs", "dog", "cat", "big", "large"]
    for _ in range(100):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        assert meteor_lite(hyp, [ref]) >= _exact_only(hyp, [ref]) - 1e-12


def test_meteor_best_reference():
    hyp = "a b c".split()
    score = meteor_lite(hyp, ["x y".split(), "a b c".split()])
    assert score == pytest.approx(1.0 - 0.5 / 27, abs=1e-12)


def test_meteor_all_empty_references_error():
    with pytest.raises(ValueError):
        meteor_lite("a".split(), [[]])


def test_corpus_meteor_mean():
    corpus = [_pair("a b", "a b"), _pair("zz", "qq")]
    expected = (meteor_lite(("a", "b"), [("a", "b")]) + 0.0) / 2
    assert corpus_meteor(corpus) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# bootstrap significance

def _toy_systems(n=40, advantage=0.0):
    rng = random.Random(29)
    vocab = ["a", "b", "c", "d", "e", "f"]
    sys_a, sys_b = [], []
    for _ in range(n):
        ref = [rng.choice(vocab) for _ in range(6)]
        hyp_b = list(ref)
        for k in rng.sample(range(6), 3):
            hyp_b[k] = rng.choice(vocab)
        hyp_a = list(ref)
        worse = 3 - int(advantage * 3)
        for k in rng.sample(range(6), worse):
            hyp_a[k] = rng.choice(vocab)
        refs = (tuple(ref),)
        sys_a.append(EvalPair(hypothesis=tuple(hyp_a), references=refs))
        sys_b.append(EvalPair(hypothesis=tuple(hyp_b), references=refs))
    return sys_a, sys_b


def test_bootstrap_identical_systems():
    sys_a, _ = _toy_systems()
    result = bootstrap_diff(sys_a, sys_a, bleu, n_resamples=200, seed=1)
    assert result.mean_diff == 0.0
    assert result.ci_low <= 0.0 <= result.ci_high


def test_bootstrap_deterministic():
    sys_a, sys_b = _toy_systems()
    r1 = bootstrap_diff(sys_a, sys_b, bleu, n_resamples=200, seed=5)
    r2 = bootstrap_diff(sys_a, sys_b, bleu, n_resamples=200, seed=5)
    assert r1 == r2
    assert isinstance(r1, BootstrapResult)


def test_bootstrap_planted_advantage_excludes_zero():
    sys_a, sys_b = _toy_systems(advantage=1.0)  # sys_a strictly closer to refs
    result = bootstrap_diff(sys_a, sys_b, bleu, n_resamples=300, seed=7)
    assert result.observed_diff > 0
    assert result.ci_low > 0.0
    assert result.p_value < 0.05


def test_bootstrap_mismatched_lengths_error():
    sys_a, sys_b = _toy_systems()
    with pytest.raises(ValueError, match="length"):
        bootstrap_diff(sys_a, sys_b[:-1], bleu, n_resamples=1000, seed=0)


@pytest.mark.parametrize("n_resamples", [0, -3])
def test_bootstrap_needs_a_resample(n_resamples):
    sys_a, sys_b = _toy_systems()
    with pytest.raises(ValueError, match="n_resamples must be >= 1"):
        bootstrap_diff(sys_a, sys_b, bleu, n_resamples=n_resamples, seed=0)
