"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Oracles are independent implementations (full dynamic programs,
brute-force enumerations, breadth-first shift search); tolerances are fixed
here and nowhere else.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from bimine.aligner import align, align_bruteforce
from bimine.analogy import (
    apply_model,
    canonical_arrangement,
    char_profile_check,
    extract_rewriting_model,
    find_analogies,
    word_levenshtein,
)
from bimine.classifier import train_model
from bimine.corpus_io import BiSentence, BitextCorpus, write_bitext
from bimine.filtering import CascadeConfig, filter_corpus, remove_trivial
from bimine.lexicon import TranslationLexicon, train_lexicon
from bimine.metrics import EvalPair, bleu, bootstrap_diff, meteor_lite, ter
from bimine.metrics import _ter_edits
from bimine.miner import OverlapStats, merge_bidirectional, mine_corpus

from synthdata import (
    make_analogy_clusters,
    make_articles,
    make_filter_fixture,
    make_parallel,
    make_world,
)
from test_analogy import _structured_corpus, brute_force_analogies
from test_metrics import exhaustive_ter_edits


def _report(number, text):
    print(f"\nACCEPTANCE {number:02d} PASS - {text}")


# ---------------------------------------------------------------------------
# shared heavyweight fixture: the synthetic mining world of criterion 3

@pytest.fixture(scope="module")
def mining_fixture():
    world = make_world(seed=7)
    corpus = make_parallel(world, random.Random(1001), 5000)
    lex = train_lexicon(corpus, iterations=10, prune_below=1e-4)
    model = train_model(corpus, lex, ("pl", "en"), neg_per_pos=3, epochs=30,
                        learning_rate=0.1, margin_reg=1e-4, seed_rng=13)
    articles, truth = make_articles(
        world, random.Random(1002), corpus, n_articles=200,
        sentences_per_article=25, delete_prob=0.15, insert_prob=0.15,
        mangle_prob=0.2, mangle_frac=0.35)
    return world, corpus, lex, model, articles, truth


# ---------------------------------------------------------------------------

def _random_alignments():
    rng = random.Random(42)
    for _ in range(1000):
        n, m = rng.randint(0, 12), rng.randint(0, 12)
        matrix = [[rng.random() for _ in range(m)] for _ in range(n)]
        gap = rng.choice([0.2, 0.4, 0.5])
        yield n, m, (lambda a, b, mat=matrix: mat[a][b]), gap


def test_criterion_01_aligner_oracle_equality():
    started = time.time()
    for n, m, sim, gap in _random_alignments():
        fast = align(list(range(n)), list(range(m)), sim, gap, can_match=None)
        slow = align_bruteforce(list(range(n)), list(range(m)), sim, gap)
        assert fast.total_cost == slow.total_cost  # exact, not approximate
        assert fast.links == slow.links
        assert fast.gaps_src == slow.gaps_src
        assert fast.gaps_tgt == slow.gaps_tgt
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(1, f"align == align_bruteforce on 1000 random instances "
               f"in {elapsed:.2f}s (< 10s)")


def test_criterion_02_alignment_invariants():
    violations = 0
    for n, m, sim, gap in _random_alignments():
        result = align(list(range(n)), list(range(m)), sim, gap, can_match=None)
        src_idx = [i for i, _, _ in result.links]
        tgt_idx = [j for _, j, _ in result.links]
        if src_idx != sorted(set(src_idx)) or tgt_idx != sorted(set(tgt_idx)):
            violations += 1
        if (set(src_idx) | result.gaps_src != set(range(n))
                or set(src_idx) & result.gaps_src
                or set(tgt_idx) | result.gaps_tgt != set(range(m))
                or set(tgt_idx) & result.gaps_tgt):
            violations += 1
    assert violations == 0
    _report(2, "non-crossing and 1-1 invariants hold on all 1000 alignments "
               "(0 violations)")


def test_criterion_03_synthetic_mining_end_to_end(mining_fixture):
    _world, _corpus, lex, model, articles, truth = mining_fixture
    started = time.time()
    mined, log = mine_corpus(articles, model, lex, gap_cost=0.4, threshold=0.5)
    elapsed = time.time() - started
    recovered = {(p.origin[0], p.origin[1], p.origin[2]) for p in mined.pairs}
    true_positives = len(recovered & truth)
    precision = true_positives / len(recovered)
    recall = true_positives / len(truth)
    assert len(log) == 200
    assert precision >= 0.9
    assert recall >= 0.8
    assert elapsed < 120.0
    _report(3, f"mining 200 articles: precision {precision:.3f} (>= 0.9), "
               f"recall {recall:.3f} (>= 0.8), {elapsed:.1f}s single worker "
               f"(< 120s)")


# sha256 of the criterion-3 mined corpus (text, score, provenance) that
# per-pair feature extraction produced; per-sentence records must reproduce it
_CRITERION_03_SHA256 = "8f6ea29d317b5f7ce6b0a0ff05d37af578d6d23fc5c0ce40a5fdbec42de521e1"


def test_criterion_03_mined_output_pinned_digest(mining_fixture):
    _world, _corpus, lex, model, articles, _truth = mining_fixture
    mined, _ = mine_corpus(articles, model, lex, gap_cost=0.4, threshold=0.5)
    assert len(mined.pairs) == 3963
    blob = json.dumps([[p.src, p.tgt, p.score, list(p.origin)] for p in mined.pairs],
                      ensure_ascii=False)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == _CRITERION_03_SHA256


def test_criterion_04_bidirectional_merge_arithmetic():
    ted = OverlapStats(recognized=132_611, overlapping=61_276)
    assert ted.newly_obtained == 71_335  # Table-3-style arithmetic identity
    rng = random.Random(77)
    vocab = [f"w{i}" for i in range(40)]
    for _ in range(50):
        def corpus(k):
            return BitextCorpus([
                BiSentence(" ".join(rng.sample(vocab, 3)),
                           " ".join(rng.sample(vocab, 3)), rng.random())
                for _ in range(k)])
        fwd, rev = corpus(rng.randint(0, 30)), corpus(rng.randint(0, 30))
        merged, stats = merge_bidirectional(fwd, rev)
        assert stats.newly_obtained == stats.recognized - stats.overlapping
        assert stats.newly_obtained >= 0
        keys = [(p.src, p.tgt) for p in merged.pairs]
        assert len(keys) == len(set(keys))
    _report(4, "newly = recognized - overlapping on all merges; "
               "132,611 - 61,276 = 71,335; merged corpora duplicate-free")


def test_criterion_05_analogy_brute_force_equivalence():
    rng = random.Random(515)
    total_quads = 0
    for trial in range(50):
        size = rng.randint(8, 24)
        sentences = _structured_corpus(rng, size, template_fraction=0.55,
                                       slot_pool=3)
        max_distance = rng.choice([2, 3, 4])
        quads = find_analogies(sentences, max_distance)
        fast = {(q.a, q.b, q.c, q.d) for q in quads}
        slow = brute_force_analogies(sentences, max_distance)
        assert fast == slow, f"corpus {trial} (n={size})"
        total_quads += len(quads)
        for q in quads:
            assert q.d_ab == q.d_cd <= max_distance
            assert q.d_ac == q.d_bd <= max_distance
            assert word_levenshtein(q.a, q.b) == q.d_ab
            assert word_levenshtein(q.c, q.d) == q.d_cd
            assert word_levenshtein(q.a, q.c) == q.d_ac
            assert word_levenshtein(q.b, q.d) == q.d_bd
            assert char_profile_check(" ".join(q.a), " ".join(q.b),
                                      " ".join(q.c), " ".join(q.d))
    planted = [s.split() for s in
               ["i like tea", "i like coffee", "you like tea", "you like coffee"]]
    quads = find_analogies(planted, 4)
    assert len(quads) == 1
    expected = canonical_arrangement((
        tuple("i like tea".split()), tuple("i like coffee".split()),
        tuple("you like tea".split()), tuple("you like coffee".split())))
    assert (quads[0].a, quads[0].b, quads[0].c, quads[0].d) == expected
    _report(5, f"find_analogies == O(n^4) enumeration on 50 corpora "
               f"({total_quads} quadruples re-verified); planted tea/coffee "
               f"quadruple found")


def test_criterion_06_rewriting_model_round_trip():
    world = make_world(seed=7)
    clusters, lex = make_analogy_clusters(world, n_clusters=100)
    round_trips = 0
    for pair1, pair2 in clusters:
        model = extract_rewriting_model(pair1, pair2)
        assert model is not None
        for src, tgt in (pair1, pair2):
            made = apply_model(model, src, lex, allow_unknown=False)
            assert made is not None and made.tgt.split() == tgt
            round_trips += 1
    assert round_trips == 200

    blanket = extract_rewriting_model(
        ("Poproszę koc .".split(), "A blanket , please .".split()),
        ("Poproszę poduszkę .".split(), "A pillow , please .".split()))
    one_entry = TranslationLexicon(entries={"bilet": [("ticket", 1.0)]})
    made = apply_model(blanket, "Poproszę bilet .".split(), one_entry, allow_unknown=False)
    assert made.tgt.split() == "A ticket , please .".split()
    _report(6, "100 fixture clusters round-trip on both supports (200/200); "
               "'Poproszę bilet .' -> 'A ticket , please .' token-for-token")


def test_criterion_07_filter_proportions():
    world = make_world(seed=7)
    fixture = make_filter_fixture(world, seed=23, n=1000, n_noisy=182)
    config = CascadeConfig(synonyms=fixture.synonyms)
    _kept, rejected, report = filter_corpus(fixture.corpus, fixture.lexicon, config)
    noisy_by_key = {(p.src, p.tgt): noisy
                    for p, noisy in zip(fixture.corpus.pairs, fixture.noisy)}
    rejected_noisy = sum(1 for p in rejected.pairs if noisy_by_key[(p.src, p.tgt)])
    lost_good = len(rejected.pairs) - rejected_noisy
    n_noisy = sum(fixture.noisy)
    n_good = len(fixture.noisy) - n_noisy
    assert n_noisy == 182 and report.input_count == 1000
    noisy_removed = rejected_noisy / n_noisy
    good_lost = lost_good / n_good
    assert noisy_removed >= 0.80
    assert good_lost <= 0.05

    good = [BiSentence(f"dobra para zdanie numer {i}",
                       f"good pair sentence number {i}") for i in range(20)]
    planted = ([good[0]] * 5
               + [BiSentence("abc", "xyz")] * 2
               + [BiSentence("krótkie", "short")] * 2
               + [BiSentence("1234567890 123", "42 42 42 42 42")] * 3)
    trivial_in = BitextCorpus(good + planted)
    kept, trivial_report = remove_trivial(trivial_in, min_chars=10)
    assert len(kept.pairs) == len(good)
    # repeats of already-seen pairs: 5 copies of good[0], plus the second
    # "abc", second "krótkie" and two extra number-only lines
    assert trivial_report.rejections["duplicate"] == 5 + 1 + 1 + 2
    assert trivial_report.rejections["short"] == 2
    assert trivial_report.rejections["non-letter"] == 1
    assert trivial_report.rejected_count == len(planted)
    _report(7, f"cascade removed {noisy_removed:.1%} of 182 planted noisy pairs "
               f"(>= 80%), lost {good_lost:.2%} good (<= 5%); remove_trivial "
               f"dropped 100% of planted trivial lines")


def test_criterion_08_metrics_golden_values():
    identity = [EvalPair(tuple("the cat sat on the mat".split()),
                         (tuple("the cat sat on the mat".split()),))] * 2
    assert bleu(identity) == 1.0
    clipped = [EvalPair(tuple("the the the the".split()), (("the", "cat"),))]
    assert bleu(clipped, max_n=1) == pytest.approx(0.25, abs=1e-9)

    assert ter("a b c d".split(), ["a b c d".split()]) == 0.0
    assert ter("a x c d".split(), ["a b c d".split()]) == 0.25
    assert ter("c a b".split(), ["a b c".split()]) == pytest.approx(1 / 3, abs=1e-12)

    # exhaustive shift oracle over a systematic family plus random cases,
    # plus the interleaved-block traps where pure greedy loses an edit
    checked = 0
    def seqs(vocab, maxlen):
        for length in range(maxlen + 1):
            yield from itertools.product(vocab, repeat=length)
    for vocab, maxlen in ((("a", "b"), 5), (("a", "b", "c"), 3)):
        pool = list(seqs(vocab, maxlen))
        for hyp in pool:
            for ref in pool:
                if not ref:
                    continue
                checked += 1
                assert _ter_edits(list(hyp), list(ref)) == \
                    exhaustive_ter_edits(hyp, ref), (hyp, ref)
    rng = random.Random(99)
    for _ in range(1500):
        vocab = ["a", "b", "c", "d"]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        checked += 1
        assert _ter_edits(hyp, ref) == exhaustive_ter_edits(hyp, ref), (hyp, ref)
    traps = [("a a b a b", "b b a a a"), ("a b a b b", "b b b a a"),
             ("b a b a a", "a a a b b"), ("b b a b a", "a a b b b"),
             ("a a b c", "c b a a")]
    for hyp, ref in traps:
        checked += 1
        assert _ter_edits(hyp.split(), ref.split()) == \
            exhaustive_ter_edits(tuple(hyp.split()), tuple(ref.split()))

    for m in (1, 3, 7):
        sentence = tuple(f"w{i}" for i in range(m))
        assert meteor_lite(sentence, [sentence]) == \
            pytest.approx(1.0 - 0.5 / m ** 3, abs=1e-12)

    sys_a, sys_b = [], []
    rng = random.Random(29)
    vocab = ["a", "b", "c", "d", "e", "f"]
    for _ in range(40):
        ref = tuple(rng.choice(vocab) for _ in range(6))
        noisy = list(ref)
        for k in rng.sample(range(6), 3):
            noisy[k] = rng.choice(vocab)
        sys_a.append(EvalPair(ref, (ref,)))          # perfect system
        sys_b.append(EvalPair(tuple(noisy), (ref,)))  # planted disadvantage
    same = bootstrap_diff(sys_a, sys_a, bleu, n_resamples=300, seed=3)
    assert same.ci_low <= 0.0 <= same.ci_high
    better = bootstrap_diff(sys_a, sys_b, bleu, n_resamples=300, seed=3)
    assert better.ci_low > 0.0
    _report(8, f"bleu identity/clipping golden values; ter golden values and "
               f"exhaustive-oracle equality on {checked} cases <= 6 tokens; "
               f"meteor identity formula; bootstrap CIs behave")


def test_criterion_09_lexicon_em():
    rng = random.Random(909)
    src_vocab = ["ka", "to", "mi", "zu", "pro", "wa"]
    tgt_vocab = ["ben", "dor", "fil", "gan", "hul", "sel"]
    for _ in range(100):
        pairs = []
        for _ in range(rng.randint(2, 10)):
            idx = [rng.randrange(6) for _ in range(rng.randint(1, 5))]
            pairs.append(BiSentence(" ".join(src_vocab[i] for i in idx),
                                    " ".join(tgt_vocab[i] for i in idx)))
        lex = train_lexicon(BitextCorpus(pairs), iterations=10, prune_below=1e-4)
        lls = lex.iteration_log_likelihood
        assert len(lls) == 10
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-9
        for row in lex.entries.values():
            assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-9)
    das = train_lexicon(BitextCorpus([BiSentence("das haus", "the house"),
                                      BiSentence("das buch", "the book")]),
                        iterations=10, prune_below=1e-4)
    assert das.entries["das"][0][0] == "the"
    _report(9, "EM log-likelihood non-decreasing on 100 random corpora; "
               "rows sum to 1 +/- 1e-9; argmax(das) = 'the'")


def test_criterion_10_determinism(mining_fixture, tmp_path):
    world, _corpus, lex, model, articles, _truth = mining_fixture
    blobs = []
    for run in (1, 2):
        mined, _ = mine_corpus(articles[:60], model, lex, gap_cost=0.4, threshold=0.5)
        path = tmp_path / f"mined-{run}.tsv"
        write_bitext(path, mined)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]

    from test_cli import _pipeline_config
    from bimine.cli import main
    config_path, workdir = _pipeline_config(tmp_path, world)
    outputs = []
    for _ in range(2):
        assert main(["pipeline", "--config", str(config_path)]) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(workdir.iterdir()) if p.is_file()})
    assert outputs[0].keys() == outputs[1].keys()
    different = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    assert different == []
    _report(10, f"mine_corpus byte-identical across two runs; "
                f"{len(outputs[0])} pipeline artifacts byte-identical across "
                f"two runs")
