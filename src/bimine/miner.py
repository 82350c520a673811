"""Mining orchestration over an article-pair store.

Mines a stream of article pairs with one similarity model and lexicon and
orders the results by article id.  Also merges forward- and
reverse-direction mining runs and reports their overlap statistics.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterable

from .aligner import align, match_floor, threshold_filter
from .classifier import (SimilarityModel, match_filter, similarity, source_record,
                         target_record)
from .corpus_io import (ArticlePair, BiSentence, BitextCorpus, Sentence,
                        normalize_space, segment_sentences, write_json)
from .lexicon import TranslationLexicon

class OverlapStats(namedtuple("OverlapStats", "recognized overlapping")):
    __slots__ = ()
    recognized: int
    overlapping: int

    def __new__(cls, recognized: int, overlapping: int) -> OverlapStats:
        if not 0 <= overlapping <= recognized:
            raise ValueError(
                f"overlapping ({overlapping}) must lie in [0, recognized={recognized}]")
        return super().__new__(cls, recognized, overlapping)

    @property
    def newly_obtained(self) -> int:
        return self.recognized - self.overlapping

    def as_dict(self) -> dict:
        return {
            "recognized": self.recognized,
            "overlapping": self.overlapping,
            "newly_obtained": self.newly_obtained,
        }


def mine_pair(pair: ArticlePair, src: list[Sentence], tgt: list[Sentence],
              model: SimilarityModel, lex: TranslationLexicon, *, gap_cost: float,
              threshold: float) -> tuple[list[BiSentence], dict]:
    """Align the segmented sentences ``src`` and ``tgt`` of an article pair
    and keep the links scoring at least the threshold.

    The aligner skips the match edges that ``match_filter`` proves useless.
    Returns the kept pairs and the article's work counts: ``src_sentences``
    and ``tgt_sentences``, ``lattice_cells`` (source times target
    sentences), ``cells_scored`` (similarity calls), ``nodes`` (lattice
    nodes whose cost was computed) and ``cells_pruned`` (match edges skipped
    unscored).
    """
    if model.direction != (pair.src.lang, pair.tgt.lang):
        raise ValueError(
            f"model direction {model.direction} does not match article pair "
            f"languages ({pair.src.lang}, {pair.tgt.lang})")
    sizes = {"src_sentences": len(src), "tgt_sentences": len(tgt),
             "lattice_cells": len(src) * len(tgt)}
    if not src or not tgt:
        return [], {**sizes, "cells_scored": 0, "nodes": 0, "cells_pruned": 0}
    # each sentence's feature facts are computed once, not once per cell
    sources = [source_record(s.tokens, lex) for s in src]
    targets = [target_record(t.tokens) for t in tgt]
    result = align(sources, targets, functools.partial(similarity, model), gap_cost,
                   match_filter(model, sources, targets, match_floor(gap_cost)))
    direction = f"{pair.src.lang}-{pair.tgt.lang}"
    mined = threshold_filter(result, threshold, src, tgt, pair.id, direction)
    return mined, {**sizes, "cells_scored": result.cells_scored, "nodes": result.nodes,
                   "cells_pruned": result.cells_pruned}


def mine_corpus(store: Iterable[ArticlePair], model: SimilarityModel,
                lex: TranslationLexicon, *, gap_cost: float,
                threshold: float) -> tuple[BitextCorpus, list[dict]]:
    """Mine every article pair of a streamed store with one model and lexicon.

    Returns the mined corpus ordered by article id plus a per-article log of
    the mined count and the work counts of ``mine_pair``.  Each article is
    segmented here.
    """
    outcomes = sorted(
        ((pair.id, *mine_pair(pair, segment_sentences(pair.src.body),
                              segment_sentences(pair.tgt.body), model, lex,
                              gap_cost=gap_cost, threshold=threshold))
         for pair in store), key=lambda item: item[0])
    pairs: list[BiSentence] = []
    log = []
    for article_id, mined, work in outcomes:
        pairs.extend(mined)
        log.append({"article_id": article_id, "mined": len(mined), **work})
    return BitextCorpus(pairs), log


def merge_bidirectional(fwd: BitextCorpus, rev: BitextCorpus,
                        ) -> tuple[BitextCorpus, OverlapStats]:
    """Merge same-orientation forward and reverse mining output.

    Exact duplicates (whitespace-normalized src and tgt both equal) collapse
    to the higher-scoring pair.  The stats count the reverse run's pairs, how
    many of them the forward run already found, and the remainder.
    """
    merged: dict[tuple[str, str], BiSentence] = {}
    for pair in fwd.pairs:
        key = (normalize_space(pair.src), normalize_space(pair.tgt))
        kept = merged.get(key)
        if kept is None or pair.score > kept.score:
            merged[key] = pair
    fwd_keys = set(merged)

    rev_keys = set()
    for pair in rev.pairs:
        key = (normalize_space(pair.src), normalize_space(pair.tgt))
        rev_keys.add(key)
        kept = merged.get(key)
        if kept is None or pair.score > kept.score:
            merged[key] = pair

    stats = OverlapStats(recognized=len(rev_keys),
                         overlapping=len(rev_keys & fwd_keys))
    return BitextCorpus(list(merged.values())), stats


def write_overlap_stats(path, stats: OverlapStats) -> None:
    write_json(path, stats.as_dict())
