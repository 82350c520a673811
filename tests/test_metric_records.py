"""Corpus metrics and the paired bootstrap, pinned bit for bit.

The pinned ``float.hex`` values were computed by the implementation that
re-scored every segment on each call (n-gram Counters per metric, TER and
METEOR per segment); the oracles below are copies of it.  A change to how the
metrics are computed must reproduce them exactly.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bimine.metrics import (
    EvalPair,
    bleu,
    bootstrap_diff,
    corpus_meteor,
    corpus_ter,
    meteor_lite,
    nist,
)
from test_metrics import exhaustive_ter_edits, greedy_ter_edits

# word forms that share stems, so METEOR's stem stage matches too
_VOCAB = ["the", "cat", "cats", "run", "runs", "dog", "dogs", "big", "red", "sat",
          "on", "mat", "a", "played", "playing"]


def _edited(rng, tokens, vocab):
    """``tokens`` with a few substitutions, deletions, insertions and one
    moved block."""
    out = list(tokens)
    for _ in range(rng.randint(0, 3)):
        op = rng.random()
        if op < 0.4 and out:
            out[rng.randrange(len(out))] = rng.choice(vocab)
        elif op < 0.6 and out:
            del out[rng.randrange(len(out))]
        elif op < 0.8:
            out.insert(rng.randint(0, len(out)), rng.choice(vocab))
        elif len(out) > 2:
            i = rng.randrange(len(out) - 1)
            j = rng.randint(i + 1, min(len(out), i + 3))
            block, rest = out[i:j], out[:i] + out[j:]
            k = rng.randint(0, len(rest))
            out = rest[:k] + block + rest[k:]
    return tuple(out)


def _pinned_corpus(seed, n=40):
    """Two systems over one test set of ``n`` segments with 1-3 references.

    Segment 0 has an empty hypothesis in both systems; segment 1 has an
    empty reference beside a non-empty one."""
    rng = random.Random(seed)
    sys_a, sys_b = [], []
    for k in range(n):
        refs = [tuple(rng.choice(_VOCAB) for _ in range(rng.randint(1, 12)))
                for _ in range(rng.randint(1, 3))]
        if k == 1:
            refs.insert(0, ())
        source = refs[-1]
        hyp_a = () if k == 0 else _edited(rng, source, _VOCAB)
        hyp_b = () if k == 0 else _edited(rng, source, _VOCAB)
        sys_a.append(EvalPair(hypothesis=hyp_a, references=tuple(refs)))
        sys_b.append(EvalPair(hypothesis=hyp_b, references=tuple(refs)))
    return sys_a, sys_b


METRICS = {"bleu": bleu, "nist": nist, "ter": corpus_ter, "meteor": corpus_meteor}

PINNED_SCORES = {
    "bleu": "0x1.6432ed315a6a0p-1",
    "nist": "0x1.c073d29a477bfp+2",
    "ter": "0x1.6161616161616p-3",
    "meteor": "0x1.8f93cafd01383p-1",
}

PINNED_BOOTSTRAP = {
    "bleu": {"observed_diff": "-0x1.c24a7e956ac00p-11", "mean_diff": "0x1.c56133b1fd27bp-9",
             "ci_low": "-0x1.c82bd08898350p-4", "ci_high": "0x1.ddb31858bd708p-4",
             "p_value": "0x1.eb851eb851eb8p-2", "n_resamples": 50},
    "nist": {"observed_diff": "-0x1.23ade40b150c0p-4", "mean_diff": "-0x1.0bad478942b87p-3",
             "ci_low": "-0x1.2b1db74df18d8p-1", "ci_high": "0x1.c53847258e110p-2",
             "p_value": "0x1.47ae147ae147bp-2", "n_resamples": 50},
    "ter": {"observed_diff": "0x1.3cd738eeac3b0p-5", "mean_diff": "0x1.59dfaea2373d6p-5",
            "ci_low": "-0x1.307e4ef156d64p-5", "ci_high": "0x1.fee61fee61fecp-4",
            "p_value": "0x1.0a3d70a3d70a4p-2", "n_resamples": 50},
    "meteor": {"observed_diff": "-0x1.230df73c09e00p-7", "mean_diff": "-0x1.f082b72f9dafbp-8",
               "ci_low": "-0x1.95fd61f498db8p-4", "ci_high": "0x1.7b7749c018290p-4",
               "p_value": "0x1.999999999999ap-2", "n_resamples": 50},
}


def _hex_fields(result):
    return {key: value if isinstance(value, int) else float.hex(value)
            for key, value in result._asdict().items()}


def test_scores_pinned():
    sys_a, _ = _pinned_corpus(41)
    assert {name: float.hex(metric(sys_a)) for name, metric in METRICS.items()} \
        == PINNED_SCORES


def test_bootstrap_pinned():
    sys_a, sys_b = _pinned_corpus(43)
    got = {name: _hex_fields(bootstrap_diff(sys_a, sys_b, metric,
                                            n_resamples=50, seed=9))
           for name, metric in METRICS.items()}
    assert got == PINNED_BOOTSTRAP


@pytest.mark.parametrize("metric, max_n", [(bleu, 0), (bleu, 6), (nist, 0), (nist, 6)])
def test_orders_beyond_the_record_are_refused(metric, max_n):
    sys_a, _ = _pinned_corpus(41)
    with pytest.raises(ValueError, match="max_n must be in 1..5"):
        metric(sys_a, max_n=max_n)


# ---------------------------------------------------------------------------
# oracles: the corpus functions as they were before per-segment records


def _oracle_ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _oracle_clipped(pair, n):
    hyp_counts = _oracle_ngrams(pair.hypothesis, n)
    if not hyp_counts:
        return []
    ref_max = Counter()
    for ref in pair.references:
        ref_max |= _oracle_ngrams(ref, n)
    return [(ngram, count, min(count, ref_max[ngram]))
            for ngram, count in hyp_counts.items()]


def oracle_bleu(corpus, max_n=4):
    correct = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for pair in corpus:
        hyp = pair.hypothesis
        hyp_len += len(hyp)
        ref_len += min((abs(len(r) - len(hyp)), len(r)) for r in pair.references)[1]
        for n in range(1, max_n + 1):
            for _ngram, count, clipped in _oracle_clipped(pair, n):
                correct[n - 1] += clipped
                total[n - 1] += count
    if hyp_len == 0 or any(c == 0 or t == 0 for c, t in zip(correct, total)):
        return 0.0
    log_precision = sum(math.log(c / t) for c, t in zip(correct, total)) / max_n
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_precision)


_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


def oracle_nist(corpus, max_n=5):
    ref_counts = Counter()
    total_ref_words = 0
    for pair in corpus:
        for ref in pair.references:
            total_ref_words += len(ref)
            for n in range(1, max_n + 1):
                ref_counts.update(_oracle_ngrams(ref, n))

    def info(ngram):
        denom = ref_counts[ngram]
        numer = total_ref_words if len(ngram) == 1 else ref_counts[ngram[:-1]]
        if denom <= 0 or numer <= 0:
            return 0.0
        return math.log2(numer / denom)

    gained = [0.0] * max_n
    emitted = [0] * max_n
    hyp_len = 0
    ref_len = 0.0
    for pair in corpus:
        hyp = pair.hypothesis
        hyp_len += len(hyp)
        ref_len += sum(len(r) for r in pair.references) / len(pair.references)
        for n in range(1, max_n + 1):
            for ngram, count, matched in _oracle_clipped(pair, n):
                emitted[n - 1] += count
                if matched:
                    gained[n - 1] += matched * info(ngram)
    if hyp_len == 0:
        return 0.0
    score = sum(g / e for g, e in zip(gained, emitted) if e > 0)
    ratio = min(hyp_len / ref_len, 1.0) if ref_len > 0 else 1.0
    brevity = math.exp(_NIST_BETA * math.log(ratio) ** 2) if ratio < 1.0 else 1.0
    return score * brevity


def _oracle_ter_edits(hyp, ref):
    # exact below seven tokens a side, greedy above, as the metric defines it
    if len(hyp) <= 6 and len(ref) <= 6:
        return exhaustive_ter_edits(hyp, ref)
    return greedy_ter_edits(hyp, ref)


def oracle_corpus_ter(corpus):
    total_edits = 0
    total_len = 0
    for pair in corpus:
        usable = [r for r in pair.references if len(r) > 0]
        edits, length = min(((_oracle_ter_edits(pair.hypothesis, r), len(r))
                             for r in usable),
                            key=lambda el: (el[0] / el[1], el[1]))
        total_edits += edits
        total_len += length
    return total_edits / total_len


def oracle_corpus_meteor(corpus):
    return sum(meteor_lite(p.hypothesis, p.references) for p in corpus) / len(corpus)


_TOKENS = st.lists(st.sampled_from(_VOCAB[:6]), max_size=9).map(tuple)
_PAIRS = st.builds(
    lambda hyp, refs: EvalPair(hypothesis=hyp, references=tuple(refs)),
    _TOKENS, st.lists(_TOKENS, min_size=1, max_size=3).filter(any))


@settings(max_examples=80, deadline=None)
@given(st.lists(_PAIRS, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_corpus_metrics_equal_the_oracles(corpus, rng):
    # a resample repeats segments; the repeats are the same objects
    drawn = [corpus[rng.randrange(len(corpus))] for _ in corpus]
    for sample in (corpus, drawn):
        assert float.hex(bleu(sample)) == float.hex(oracle_bleu(sample))
        assert float.hex(bleu(sample, max_n=2)) == float.hex(oracle_bleu(sample, 2))
        assert float.hex(nist(sample)) == float.hex(oracle_nist(sample))
        assert float.hex(nist(sample, max_n=3)) == float.hex(oracle_nist(sample, 3))
        assert float.hex(corpus_ter(sample)) == float.hex(oracle_corpus_ter(sample))
        assert float.hex(corpus_meteor(sample)) == float.hex(oracle_corpus_meteor(sample))
