import functools

import pytest

from bimine.aligner import align, match_floor, threshold_filter
from bimine.classifier import (load_model, match_filter, similarity, source_record,
                               target_record)
from bimine.corpus_io import (
    ArticlePair,
    BiSentence,
    BitextCorpus,
    Document,
    read_article_store,
    segment_sentences,
    write_article_store,
    write_bitext,
)
from bimine.lexicon import read_lexicon
from bimine.miner import OverlapStats, merge_bidirectional, mine_corpus, mine_pair
from bimine.pipeline import PipelineConfig, run_pipeline


def _mine_pair(pair, model, lex):
    return mine_pair(pair, segment_sentences(pair.src.body),
                     segment_sentences(pair.tgt.body), model, lex,
                     gap_cost=0.4, threshold=0.5)


def _pair(article_id, src_body, tgt_body):
    return ArticlePair(article_id,
                       Document("pl", f"a{article_id}", src_body),
                       Document("en", f"a{article_id}", tgt_body))


# ---------------------------------------------------------------------------
# mine_pair

def test_mine_pair_language_mismatch(small_model, small_lexicon):
    pair = ArticlePair(0, Document("en", "t", "A."), Document("pl", "t", "B."))
    with pytest.raises(ValueError, match="direction"):
        _mine_pair(pair, small_model, small_lexicon)


def test_mine_pair_empty_article(small_model, small_lexicon):
    assert _mine_pair(_pair(0, "", "Something here."), small_model, small_lexicon) == \
        ([], {"src_sentences": 0, "tgt_sentences": 1, "lattice_cells": 0,
              "cells_scored": 0, "nodes": 0, "cells_pruned": 0})


def test_mine_pair_equals_composed_stages(small_model, small_lexicon,
                                          small_articles):
    articles, _truth = small_articles
    pair = articles[0]
    mined, work = _mine_pair(pair, small_model, small_lexicon)
    src = segment_sentences(pair.src.body)
    tgt = segment_sentences(pair.tgt.body)
    sim = lambda a, b: similarity(small_model, source_record(a.tokens, small_lexicon),
                                  target_record(b.tokens))
    result = align(src, tgt, sim, 0.4, can_match=None)
    expected = threshold_filter(result, 0.5, src, tgt, pair.id, "pl-en")
    assert mined == expected
    sources = [source_record(s.tokens, small_lexicon) for s in src]
    targets = [target_record(t.tokens) for t in tgt]
    pruned = align(sources, targets, functools.partial(similarity, small_model), 0.4,
                   match_filter(small_model, sources, targets, match_floor(0.4)))
    assert pruned.links == result.links and pruned.total_cost == result.total_cost
    assert work == {"src_sentences": len(src), "tgt_sentences": len(tgt),
                    "lattice_cells": len(src) * len(tgt),
                    "cells_scored": pruned.cells_scored, "nodes": pruned.nodes,
                    "cells_pruned": pruned.cells_pruned}
    assert work["cells_pruned"] > 0
    assert work["cells_scored"] + work["cells_pruned"] <= len(src) * len(tgt)


def test_mine_pair_recovers_planted_links(small_model, small_lexicon,
                                          small_articles):
    articles, truth = small_articles
    recovered = set()
    emitted = 0
    for pair in articles:
        for bs in _mine_pair(pair, small_model, small_lexicon)[0]:
            emitted += 1
            article_id, i, j, _ = bs.origin
            recovered.add((article_id, i, j))
    true_positives = len(recovered & truth)
    assert true_positives / emitted >= 0.85      # precision on the small fixture
    assert true_positives / len(truth) >= 0.75   # recall on the small fixture


@pytest.fixture(scope="module")
def long_pairs(world):
    """A 70-sentence article pair with planted noise, and the same source
    against the target of another article: (name, pair) each."""
    import random
    from synthdata import make_articles, make_parallel
    corpus = make_parallel(world, random.Random(606), 140)
    (first, second), _ = make_articles(world, random.Random(707), corpus,
                                       n_articles=2, sentences_per_article=70)
    return [("parallel", first), ("unrelated", ArticlePair(1, first.src, second.tgt))]


def test_match_filter_passes_few_cells_beyond_the_floor(small_model, small_lexicon,
                                                        long_pairs, monkeypatch):
    # a tripwire for a looser bound: at most 4 cells pass can_match per cell
    # whose score reaches the floor, the search scores no other cell, and the
    # alignment equals the one without the filter
    import bimine.miner as miner_mod
    results = []

    def recording_align(*args):
        results.append(align(*args))
        return results[-1]

    monkeypatch.setattr(miner_mod, "align", recording_align)
    floor = match_floor(0.4)
    for name, pair in long_pairs:
        src = segment_sentences(pair.src.body)
        tgt = segment_sentences(pair.tgt.body)
        assert min(len(src), len(tgt)) >= 60
        sources = [source_record(s.tokens, small_lexicon) for s in src]
        targets = [target_record(t.tokens) for t in tgt]
        can_match = match_filter(small_model, sources, targets, floor)
        cells = [(i, j) for i in range(len(src)) for j in range(len(tgt))]
        passed = sum(1 for i, j in cells if can_match(i, j))
        above = sum(1 for i, j in cells
                    if similarity(small_model, sources[i], targets[j]) >= floor)
        assert passed <= 4 * above, name

        mined, work = mine_pair(pair, src, tgt, small_model, small_lexicon,
                                gap_cost=0.4, threshold=0.5)
        with monkeypatch.context() as patched:
            patched.setattr(miner_mod, "match_filter", lambda *args: None)
            full_mined, _ = mine_pair(pair, src, tgt, small_model, small_lexicon,
                                      gap_cost=0.4, threshold=0.5)
        pruned, full = results[-2:]
        assert mined == full_mined, name
        assert (pruned.links, pruned.total_cost) == (full.links, full.total_cost), name
        assert work["cells_scored"] <= passed, name


# ---------------------------------------------------------------------------
# mine_corpus

def test_mine_corpus_ordered_by_article_id(small_model, small_lexicon,
                                           small_articles):
    articles, _ = small_articles
    corpus, log = mine_corpus(reversed(articles), small_model, small_lexicon,
                              gap_cost=0.4, threshold=0.5)
    ids = [bs.origin[0] for bs in corpus.pairs]
    assert ids == sorted(ids)
    assert [entry["article_id"] for entry in log] == list(range(len(articles)))


def test_mine_corpus_logs_work_counts(small_model, small_lexicon, small_articles,
                                      monkeypatch):
    # the scorer is looked up as bimine.miner.similarity and called once per
    # scored cell; the log reports that and the nodes align computed
    import bimine.miner as miner_mod
    calls = []

    def counting(*args):
        calls.append(args)
        return similarity(*args)

    monkeypatch.setattr(miner_mod, "similarity", counting)
    articles, _ = small_articles
    _, log = mine_corpus(articles[:10], small_model, small_lexicon,
                         gap_cost=0.4, threshold=0.5)
    for entry, pair in zip(log, articles):
        n = len(segment_sentences(pair.src.body))
        m = len(segment_sentences(pair.tgt.body))
        assert (entry["src_sentences"], entry["tgt_sentences"]) == (n, m)
        assert entry["lattice_cells"] == n * m
        assert 0 < entry["cells_scored"] <= n * m
        # every node on an optimal path, the goal included, is computed
        assert max(n, m) < entry["nodes"] <= (n + 1) * (m + 1)
    assert sum(entry["cells_scored"] for entry in log) == len(calls)


_WORK_FROM_SEARCH = ("cells_scored", "nodes", "cells_pruned")


def _passing_cells(pair, model, lex):
    """The cells of an article pair that ``match_filter`` passes."""
    sources = [source_record(s.tokens, lex) for s in segment_sentences(pair.src.body)]
    targets = [target_record(t.tokens) for t in segment_sentences(pair.tgt.body)]
    can_match = match_filter(model, sources, targets, match_floor(0.4))
    return sum(can_match(i, j) for i in range(len(sources)) for j in range(len(targets)))


def test_mine_corpus_same_output_without_the_match_filter(small_model, small_lexicon,
                                                          small_articles, monkeypatch):
    import bimine.miner as miner_mod
    articles, _ = small_articles
    # five unrelated pairs, each source against the next article's target
    articles = articles + [ArticlePair(len(articles) + k, articles[k].src,
                                       articles[k + 1].tgt) for k in range(5)]
    pruned_corpus, pruned_log = mine_corpus(articles, small_model, small_lexicon,
                                            gap_cost=0.4, threshold=0.5)
    monkeypatch.setattr(miner_mod, "match_filter", lambda *args: None)
    full_corpus, full_log = mine_corpus(articles, small_model, small_lexicon,
                                        gap_cost=0.4, threshold=0.5)
    assert pruned_corpus == full_corpus

    def rest(log):
        return [{k: v for k, v in entry.items() if k not in _WORK_FROM_SEARCH}
                for entry in log]

    assert rest(pruned_log) == rest(full_log)
    assert all(entry["cells_pruned"] == 0 for entry in full_log)
    for pair, pruned, full in zip(articles, pruned_log, full_log):
        assert pruned["cells_scored"] + pruned["cells_pruned"] <= pruned["lattice_cells"]
        assert pruned["cells_scored"] <= _passing_cells(pair, small_model, small_lexicon)
    # the unrelated pairs admit nearly every node; the parallel ones a band
    for entry in pruned_log[-5:]:
        assert entry["nodes"] > 0.8 * entry["lattice_cells"]
    assert sum(e["nodes"] for e in pruned_log[:-5]) < 0.6 * sum(
        e["lattice_cells"] for e in pruned_log[:-5])
    assert sum(e["cells_scored"] for e in pruned_log) < sum(e["cells_scored"] for e in full_log)


def test_stage_mines_the_reverse_as_mine_corpus_on_flipped_pairs(small_seed_corpus,
                                                                 small_articles, tmp_path):
    # the mine stage runs the reverse direction in a child process; its
    # output is mine_corpus over the stored pairs read target side first
    seed, store, workdir = tmp_path / "seed.tsv", tmp_path / "store.jsonl", tmp_path / "out"
    write_bitext(seed, BitextCorpus(small_seed_corpus.pairs[:300]))
    write_article_store(store, small_articles[0][:8])
    config = PipelineConfig(workdir=str(workdir))
    config.seed_corpus, config.store = str(seed), str(store)
    config.lexicon["iterations"] = 5
    config.classifier["epochs"] = 10
    config.mining["bidirectional"] = True
    run_pipeline(config, ["lexicon", "classifier", "mine"])
    model = load_model(workdir / "classifier.rev.json")
    lexicon = read_lexicon(workdir / "lexicon.rev.tsv")
    flipped = [ArticlePair(p.id, p.tgt, p.src) for p in read_article_store(store)]
    assert config.mining["threshold"] == 0.5
    corpus, _ = mine_corpus(flipped, model, lexicon, gap_cost=config.mining["gap_cost"],
                            threshold=config.mining["threshold"])
    assert corpus.pairs and model.direction == ("en", "pl")
    write_bitext(tmp_path / "expected.tsv", corpus)
    assert (workdir / "mined.rev.tsv").read_bytes() == \
        (tmp_path / "expected.tsv").read_bytes()


def test_mine_corpus_empty_store(small_model, small_lexicon):
    corpus, log = mine_corpus([], small_model, small_lexicon, gap_cost=0.4, threshold=0.5)
    assert corpus.pairs == [] and log == []


def test_mine_corpus_euronews_scale(world, small_model, small_lexicon):
    # thousands of small topic-aligned articles complete in one session with
    # one log line each
    import random as random_mod
    from synthdata import make_articles, make_parallel
    rng = random_mod.Random(4498)
    corpus = make_parallel(world, rng, 4498 * 3)
    articles, _ = make_articles(world, rng, corpus, n_articles=4498,
                                sentences_per_article=3)
    _, log = mine_corpus(articles, small_model, small_lexicon, gap_cost=0.4, threshold=0.5)
    assert len(log) == 4498
    assert [entry["article_id"] for entry in log] == list(range(4498))


# ---------------------------------------------------------------------------
# bidirectional merge

def _corpus(pairs):
    return BitextCorpus([BiSentence(s, t, score) for s, t, score in pairs])


def test_merge_paper_arithmetic():
    stats = OverlapStats(recognized=132_611, overlapping=61_276)
    assert stats.newly_obtained == 71_335


def test_merge_full_overlap():
    fwd = _corpus([("a", "x", 0.9), ("b", "y", 0.8)])
    merged, stats = merge_bidirectional(fwd, fwd)
    assert stats.newly_obtained == 0
    assert {(p.src, p.tgt) for p in merged.pairs} == {("a", "x"), ("b", "y")}


def test_merge_disjoint():
    fwd = _corpus([("a", "x", 0.9), ("b", "y", 0.8), ("c", "z", 0.7)])
    rev = _corpus([("d", "u", 0.6), ("e", "v", 0.5)])
    merged, stats = merge_bidirectional(fwd, rev)
    assert len(merged.pairs) == 5
    assert stats.recognized == 2
    assert stats.overlapping == 0
    assert stats.newly_obtained == 2


def test_merge_keeps_higher_score():
    fwd = _corpus([("a", "x", 0.6)])
    rev = _corpus([("a", "x", 0.9)])
    merged, _ = merge_bidirectional(fwd, rev)
    assert merged.pairs[0].score == 0.9


def test_merge_normalizes_whitespace_for_identity():
    fwd = _corpus([("a  b", "x", 0.5)])
    rev = _corpus([("a b", "x", 0.4)])
    merged, stats = merge_bidirectional(fwd, rev)
    assert len(merged.pairs) == 1
    assert stats.overlapping == 1


def test_merge_no_duplicates_invariant():
    fwd = _corpus([("a", "x", 0.9), ("a", "x", 0.2), ("b", "y", 0.5)])
    rev = _corpus([("a", "x", 0.7), ("c", "z", 0.6)])
    merged, _ = merge_bidirectional(fwd, rev)
    keys = [(p.src, p.tgt) for p in merged.pairs]
    assert len(keys) == len(set(keys))


def test_merge_idempotent():
    fwd = _corpus([("a", "x", 0.9)])
    rev = _corpus([("b", "y", 0.8)])
    merged, _ = merge_bidirectional(fwd, rev)
    again, stats = merge_bidirectional(merged, rev)
    assert {(p.src, p.tgt, p.score) for p in again.pairs} == \
        {(p.src, p.tgt, p.score) for p in merged.pairs}
    assert stats.newly_obtained == 0


def test_overlap_stats_identity_random():
    import random
    rng = random.Random(1)
    for _ in range(50):
        recognized = rng.randint(0, 1000)
        overlapping = rng.randint(0, recognized)
        stats = OverlapStats(recognized, overlapping)
        assert stats.newly_obtained == recognized - overlapping
        assert stats.newly_obtained >= 0
