"""Sequential analogy detection and quasi-parallel corpus generation.

An analogy A:B::C:D over sentences requires dist(A,B) = dist(C,D) and
dist(A,C) = dist(B,D) under word-level Levenshtein distance (each word one
symbol), plus a character-occurrence constraint: the per-character count
difference between A and B must equal the one between C and D.  That is the
count-vector condition of Lepage & Denoual (2005, "Purest ever example-based
machine translation"); it sorts sentence pairs into exact classes, so the
search indexes pairs by their character delta instead of testing every pair
of pairs.

Each analogy pair contributes a rewriting model: the common token prefix
and suffix of the two source sentences together with the common prefix and
suffix of their translations.  Applying a model to a new sentence that
carries the prefix and suffix produces a translation by gloss-translating
the variable middle.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence

from .corpus_io import (ArticlePair, BiSentence, BitextCorpus, iter_jsonl,
                        segment_sentences, string_list, tokenize, write_jsonl)
from .editdistance import levenshtein, token_bag_bound
from .lexicon import UNKNOWN, TranslationLexicon, gloss_translate

Tokens = tuple[str, ...]
CharDelta = tuple[tuple[str, int], ...]


class AnalogyQuadruple(namedtuple("AnalogyQuadruple", "a b c d d_ab d_cd d_ac d_bd indices",
                                   defaults=((-1, -1, -1, -1),))):
    __slots__ = ()
    a: Tokens
    b: Tokens
    c: Tokens
    d: Tokens
    d_ab: int
    d_cd: int
    d_ac: int
    d_bd: int
    indices: tuple[int, int, int, int]


class RewritingModel(namedtuple("RewritingModel",
                                "src_prefix src_suffix tgt_prefix tgt_suffix support")):
    __slots__ = ()
    src_prefix: Tokens
    src_suffix: Tokens
    tgt_prefix: Tokens
    tgt_suffix: Tokens
    support: tuple[tuple[Tokens, Tokens], tuple[Tokens, Tokens]]


class QuasiParallelEntry(namedtuple("QuasiParallelEntry", "pair confirmed")):
    __slots__ = ()
    pair: BiSentence
    confirmed: bool


class QuasiParallelCorpus:
    def __init__(self, entries: list[QuasiParallelEntry]) -> None:
        self.entries = entries

    def report(self) -> dict:
        return {
            "generated": len(self.entries),
            "confirmed": sum(1 for e in self.entries if e.confirmed),
        }


# ---------------------------------------------------------------------------
# distances and constraints

# minimal insert/delete/substitute count treating each token as a symbol
word_levenshtein = levenshtein


def char_delta(a: Counter, b: Counter) -> CharDelta:
    """Nonzero items of the per-character count difference a - b, sorted."""
    return tuple(sorted((ch, a[ch] - b[ch]) for ch in a.keys() | b.keys()
                        if a[ch] != b[ch]))


def char_profile_check(a: str, b: str, c: str, d: str) -> bool:
    """True iff every character changes count from A to B exactly as from C to D."""
    return char_delta(Counter(a), Counter(b)) == char_delta(Counter(c), Counter(d))


# ---------------------------------------------------------------------------
# analogy search

_SYMMETRIES = (
    (0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0),
    (0, 2, 1, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 1, 2, 0),
)


def canonical_arrangement(quad: tuple[Tokens, Tokens, Tokens, Tokens],
                          ) -> tuple[Tokens, Tokens, Tokens, Tokens]:
    """Smallest of the eight symmetric forms of an analogy (pair swap,
    in-pair reversal, exchange of the means), so each analogy has one
    representation."""
    return min(tuple(quad[i] for i in perm) for perm in _SYMMETRIES)


# Largest seed, in sentences, the analogy search takes by default.  The pair
# pass is quadratic in the sentence count and the number of quadruples grows
# faster still.  find_analogies(_structured_corpus(Random(5), n), 4) from
# tests/test_analogy.py on a 2-vCPU host with CPython 3.11:
#      n     seconds   peak RSS
#    300       0.35      45 MB
#    600       1.24      60 MB
#   1200       3.66     109 MB
#   2400      15.5      314 MB
#   3600      44.9      608 MB
#   4800      80.3     1107 MB
# At the guard the search takes about a minute.
DEFAULT_SIZE_GUARD = 4000


class SizeGuardError(ValueError):
    """An analogy search was refused because its input exceeds the size guard."""


def check_size_guard(n_sentences: int, guard: int) -> None:
    """Refuse a search over more than ``guard`` sentences (the pair pass is
    quadratic in the sentence count)."""
    if n_sentences > guard:
        raise SizeGuardError(
            f"analogy search over {n_sentences} sentences exceeds the size "
            f"guard ({guard}); raise the guard to override")


def find_analogies(sentences: Sequence[Sequence[str]],
                   max_distance: int = 4) -> list[AnalogyQuadruple]:
    """All analogies among distinct sentences with both distances <= max_distance.

    Duplicate sentences are collapsed before the search (an analogy needs four
    distinct sentences).  The pair pass computes the word distance of every
    pair that survives two lower bounds, the length difference and
    ``token_bag_bound``; both are exact filters.  Each pair (x, y) with x < y
    within distance goes to the bucket of its distance and ``char_delta``.
    The character-occurrence condition of Lepage & Denoual (2005) then holds
    exactly for A:B::C:D between two pairs of one bucket, and for A:B::D:C
    between a pair of bucket (d, delta) and one of bucket (d, -delta), so
    only those combinations are tested for the cross distances.
    """
    uniq: list[Tokens] = []
    first_index: dict[Tokens, int] = {}
    for idx, sent in enumerate(sentences):
        key = tuple(sent)
        if key not in first_index:
            first_index[key] = idx
            uniq.append(key)
    profiles = [Counter(" ".join(s)) for s in uniq]
    bags = [Counter(s) for s in uniq]

    # all unordered pairs within distance, bucketed by (distance, char delta);
    # sweeping by length visits only pairs within the length bound, and v
    # is the longer of the two
    by_length = sorted(range(len(uniq)), key=lambda k: len(uniq[k]))
    dist: dict[tuple[int, int], int] = {}
    buckets: dict[tuple[int, CharDelta], list[tuple[int, int]]] = {}
    for pos1, u in enumerate(by_length):
        for v in by_length[pos1 + 1:]:
            if len(uniq[v]) - len(uniq[u]) > max_distance:
                break
            if token_bag_bound(bags[u], bags[v], len(uniq[v])) > max_distance:
                continue
            d = levenshtein(uniq[u], uniq[v])
            if d > max_distance:
                continue
            x, y = (u, v) if uniq[u] < uniq[v] else (v, u)
            dist[(min(u, v), max(u, v))] = d
            buckets.setdefault((d, char_delta(profiles[x], profiles[y])),
                               []).append((x, y))

    def cross(u: int, v: int) -> int | None:
        return dist.get((min(u, v), max(u, v)))

    found: dict[tuple[Tokens, Tokens, Tokens, Tokens], AnalogyQuadruple] = {}

    def consider(a: int, b: int, c: int, d: int) -> None:
        if len({a, b, c, d}) < 4:
            return
        d_ac = cross(a, c)
        if d_ac is None or d_ac != cross(b, d):
            return
        canon = canonical_arrangement((uniq[a], uniq[b], uniq[c], uniq[d]))
        if canon in found:
            return
        ca, cb, cc, cd = canon
        found[canon] = AnalogyQuadruple(
            a=ca, b=cb, c=cc, d=cd,
            d_ab=word_levenshtein(ca, cb), d_cd=word_levenshtein(cc, cd),
            d_ac=word_levenshtein(ca, cc), d_bd=word_levenshtein(cb, cd),
            indices=tuple(first_index[t] for t in canon),
        )

    for (d_pair, delta), pairs in buckets.items():
        for (x1, y1), (x2, y2) in itertools.combinations(pairs, 2):
            consider(x1, y1, x2, y2)
        mirror = tuple(sorted((ch, -n) for ch, n in delta))
        if mirror == delta:  # the empty delta is its own mirror
            for (x1, y1), (x2, y2) in itertools.combinations(pairs, 2):
                consider(x1, y1, y2, x2)
        elif delta < mirror:  # visit each mirrored bucket pair once
            for (x1, y1), (x2, y2) in itertools.product(
                    pairs, buckets.get((d_pair, mirror), ())):
                consider(x1, y1, y2, x2)
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# rewriting models

def _common_prefix(s1: Tokens, s2: Tokens) -> int:
    n = 0
    for a, b in zip(s1, s2):
        if a != b:
            break
        n += 1
    return n


def _split_on_template(s1: Tokens, s2: Tokens) -> tuple[Tokens, Tokens, Tokens, Tokens]:
    """(prefix, suffix, middle1, middle2): longest common prefix, then longest
    common suffix of the remainders."""
    p = _common_prefix(s1, s2)
    r1, r2 = s1[p:], s2[p:]
    s = _common_prefix(tuple(reversed(r1)), tuple(reversed(r2)))
    suffix = r1[len(r1) - s:] if s else ()
    return s1[:p], suffix, r1[:len(r1) - s], r2[:len(r2) - s]


def extract_rewriting_model(pair1: tuple[Sequence[str], Sequence[str]],
                            pair2: tuple[Sequence[str], Sequence[str]],
                            ) -> RewritingModel | None:
    """Extract the (prefix, suffix, translation) template from two seed pairs.

    Returns None when a side shares neither prefix nor suffix, or when the
    variable slot is empty in both support sentences on some side.
    """
    src1, tgt1 = tuple(pair1[0]), tuple(pair1[1])
    src2, tgt2 = tuple(pair2[0]), tuple(pair2[1])
    src_prefix, src_suffix, src_mid1, src_mid2 = _split_on_template(src1, src2)
    tgt_prefix, tgt_suffix, tgt_mid1, tgt_mid2 = _split_on_template(tgt1, tgt2)
    if not src_prefix and not src_suffix:
        return None
    if not tgt_prefix and not tgt_suffix:
        return None
    if not src_mid1 and not src_mid2:
        return None
    if not tgt_mid1 and not tgt_mid2:
        return None
    return RewritingModel(
        src_prefix=src_prefix, src_suffix=src_suffix,
        tgt_prefix=tgt_prefix, tgt_suffix=tgt_suffix,
        support=((src1, tgt1), (src2, tgt2)),
    )


def models_from_quadruples(quadruples: Sequence[AnalogyQuadruple],
                           seed: BitextCorpus,
                           check_target_side: bool = False) -> list[RewritingModel]:
    """Build rewriting models from each analogy pair, using the seed corpus
    targets of the quadruple's source sentences; deduplicated, stable order.

    Analogies are detected on the source side; ``check_target_side``
    additionally requires the two distance equalities to hold between the
    corresponding target sentences before a quadruple contributes models.
    """
    seen: set[tuple] = set()
    models = []
    for quad in quadruples:
        ia, ib, ic, id_ = quad.indices
        if check_target_side and not _target_side_holds(quad, seed):
            continue
        for i1, i2 in ((ia, ib), (ic, id_)):
            if not (0 <= i1 < len(seed.pairs) and 0 <= i2 < len(seed.pairs)):
                continue
            p1 = seed.pairs[i1]
            p2 = seed.pairs[i2]
            model = extract_rewriting_model(
                (tokenize(p1.src), tokenize(p1.tgt)), (tokenize(p2.src), tokenize(p2.tgt)))
            if model is None:
                continue
            key = (model.src_prefix, model.src_suffix,
                   model.tgt_prefix, model.tgt_suffix)
            if key in seen:
                continue
            seen.add(key)
            models.append(model)
    return models


def _target_side_holds(quad: AnalogyQuadruple, seed: BitextCorpus) -> bool:
    targets = []
    for idx in quad.indices:
        if not 0 <= idx < len(seed.pairs):
            return False
        targets.append(tokenize(seed.pairs[idx].tgt))
    ta, tb, tc, td = targets
    return (word_levenshtein(ta, tb) == word_levenshtein(tc, td)
            and word_levenshtein(ta, tc) == word_levenshtein(tb, td))


def apply_model(model: RewritingModel, sentence: Sequence[str],
                lex: TranslationLexicon, allow_unknown: bool = False) -> BiSentence | None:
    """Apply a rewriting model to a sentence carrying its prefix and suffix.

    The variable middle is gloss-translated; with ``allow_unknown`` false a
    middle token without a translation aborts the match.  The score is the
    fraction of middle tokens the lexicon could translate.
    """
    tokens = tuple(sentence)
    lp, ls = len(model.src_prefix), len(model.src_suffix)
    if len(tokens) <= lp + ls:
        return None
    if tokens[:lp] != model.src_prefix:
        return None
    if ls and tokens[-ls:] != model.src_suffix:
        return None
    middle = tokens[lp:len(tokens) - ls]
    glossed = gloss_translate(lex, middle)
    unknown = sum(1 for t in glossed if t == UNKNOWN)
    if unknown and not allow_unknown:
        return None
    out = model.tgt_prefix + tuple(glossed) + model.tgt_suffix
    return BiSentence(
        src=" ".join(tokens), tgt=" ".join(out),
        score=(len(middle) - unknown) / len(middle),
        origin=(-1, -1, -1, "analogy"),
    )


def generate_corpus(models: Sequence[RewritingModel],
                    articles: Iterable[ArticlePair],
                    lex: TranslationLexicon,
                    allow_unknown: bool = False) -> QuasiParallelCorpus:
    """Test every source-side article sentence against every model.

    Models are indexed by the first prefix token so only plausible templates
    are tried per sentence (same result as the naive scan).  A generated pair
    whose target equals some sentence of the paired article's target side
    (modulo whitespace and case) is flagged confirmed.
    """
    by_first: dict[str, list[tuple[int, RewritingModel]]] = {}
    open_prefix: list[tuple[int, RewritingModel]] = []
    for model_id, model in enumerate(models):
        if model.src_prefix:
            by_first.setdefault(model.src_prefix[0], []).append((model_id, model))
        else:
            open_prefix.append((model_id, model))

    entries: list[QuasiParallelEntry] = []
    for article in articles:
        tgt_texts = {" ".join(s.tokens) for s in segment_sentences(article.tgt.body)}
        for sent in segment_sentences(article.src.body):
            if not sent.tokens:
                continue
            candidates = by_first.get(sent.tokens[0], []) + open_prefix
            candidates.sort(key=lambda item: item[0])
            for _, model in candidates:
                made = apply_model(model, sent.tokens, lex, allow_unknown)
                if made is None:
                    continue
                made = made._replace(origin=(article.id, sent.index, -1, "analogy"))
                entries.append(QuasiParallelEntry(pair=made,
                                                  confirmed=made.tgt in tgt_texts))
    return QuasiParallelCorpus(entries)


# ---------------------------------------------------------------------------
# quadruple file format: JSON lines

def write_quadruples(path, quadruples: Sequence[AnalogyQuadruple]) -> None:
    write_jsonl(path, ({
        "a": list(q.a), "b": list(q.b), "c": list(q.c), "d": list(q.d),
        "d_ab": q.d_ab, "d_cd": q.d_cd, "d_ac": q.d_ac, "d_bd": q.d_bd,
        "indices": list(q.indices),
    } for q in quadruples))


def _tokens(value) -> Tokens:
    return tuple(string_list(value, "tokens"))


def _quadruple(rec: dict) -> AnalogyQuadruple:
    indices = tuple(int(i) for i in rec["indices"])
    if len(indices) != 4:
        raise ValueError(f"expected 4 indices, got {len(indices)}")
    return AnalogyQuadruple(
        a=_tokens(rec["a"]), b=_tokens(rec["b"]), c=_tokens(rec["c"]), d=_tokens(rec["d"]),
        d_ab=int(rec["d_ab"]), d_cd=int(rec["d_cd"]),
        d_ac=int(rec["d_ac"]), d_bd=int(rec["d_bd"]),
        indices=indices,
    )


def read_quadruples(path) -> list[AnalogyQuadruple]:
    return list(iter_jsonl(path, _quadruple))


# ---------------------------------------------------------------------------
# model file format: JSON lines, one model per line

def write_models(path, models: Sequence[RewritingModel]) -> None:
    write_jsonl(path, ({
        "id": model_id,
        "src_prefix": list(m.src_prefix),
        "src_suffix": list(m.src_suffix),
        "tgt_prefix": list(m.tgt_prefix),
        "tgt_suffix": list(m.tgt_suffix),
        "support": [[list(side) for side in pair] for pair in m.support],
    } for model_id, m in enumerate(models)))


def _model(rec: dict) -> RewritingModel:
    support = rec["support"]
    if not (isinstance(support, list) and len(support) == 2
            and all(isinstance(pair, list) and len(pair) == 2 for pair in support)):
        raise ValueError(f"support must be two [source, target] pairs, got {support!r}")
    return RewritingModel(
        src_prefix=_tokens(rec["src_prefix"]),
        src_suffix=_tokens(rec["src_suffix"]),
        tgt_prefix=_tokens(rec["tgt_prefix"]),
        tgt_suffix=_tokens(rec["tgt_suffix"]),
        support=tuple((_tokens(src), _tokens(tgt)) for src, tgt in support),
    )


def read_models(path) -> list[RewritingModel]:
    return list(iter_jsonl(path, _model))
