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

from .corpus_io import (ArticlePair, BiSentence, BitextCorpus, in_range, iter_jsonl,
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
    changed = {ch for ch, _ in a.items() ^ b.items()}  # the (char, count) items differ
    return tuple(sorted((ch, n) for ch in changed if (n := a.get(ch, 0) - b.get(ch, 0))))


def char_profile_check(a: str, b: str, c: str, d: str) -> bool:
    """True iff every character changes count from A to B exactly as from C to D."""
    return char_delta(Counter(a), Counter(b)) == char_delta(Counter(c), Counter(d))


# ---------------------------------------------------------------------------
# analogy search

def canonical_arrangement(quad: tuple) -> tuple:
    """Smallest of the eight symmetric forms of an analogy (pair swap,
    in-pair reversal, exchange of the means), so each analogy has one
    representation.  The four items are sentences, or tuples that start
    with distinct sentences.  Every form keeps the extremes A, D and the
    means B, C as its outer and inner pair, so the smallest one starts with
    the smallest item, ends with that item's partner and holds the other
    pair, ascending, between them."""
    a, b, c, d = quad
    (first, last), inner = sorted((sorted((a, d)), sorted((b, c))))
    return (first, *inner, last)


def find_analogies(sentences: Sequence[Sequence[str]],
                   max_distance: int) -> list[AnalogyQuadruple]:
    """All analogies among distinct sentences with both distances <= max_distance.

    Duplicate sentences are collapsed before the search (an analogy needs four
    distinct sentences).  The pair pass is a prefix-filter join (Chaudhuri,
    Ganti & Kaushik 2006; Xiao et al. 2008, PPJoin).  A pair within distance
    d whose longer side has L tokens shares at least L - d token occurrences,
    since ``token_bag_bound`` never exceeds the distance.  So, with the
    occurrences of every sentence in one rare-first order, a pair with
    L > max_distance shares one among the first max_distance + 1 of each
    side.  Only such pairs, and the pairs of sentences of at most
    max_distance tokens, are candidates, and a candidate must still pass
    ``token_bag_bound`` and the word distance: the filter is exact.  Each
    pair (x, y) with x < y within distance goes to the bucket of its
    distance and ``char_delta``.  The character-occurrence condition of
    Lepage & Denoual (2005) then holds exactly for A:B::C:D between two
    pairs of one bucket, and for A:B::D:C between a pair of bucket
    (d, delta) and one of bucket (d, -delta), so only those combinations are
    tested for the cross distances.
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
    # a token's rank: rarer first, by the number of sentences holding it
    held_by = Counter(tok for bag in bags for tok in bag)
    rank = {tok: r for r, tok in enumerate(sorted(held_by, key=lambda t: (held_by[t], t)))}

    # all unordered pairs within distance, bucketed by (distance, char delta).
    # Sentences are probed in length order against the prefixes indexed so
    # far, so v is the longer of a pair.  The k-th occurrence of a token is
    # (rank, k), which makes each bag a set; two sets sharing t >= 1 items
    # meet within the first len - t + 1 items of both.  With t = len(v) -
    # max_distance that is v's whole prefix and u's first
    # max_distance + 1 - (len(v) - len(u)) items, an empty range for u
    # outside the length window.
    by_length = sorted(range(len(uniq)), key=lambda k: len(uniq[k]))
    index: dict[tuple[int, int], list[tuple[int, int]]] = {}
    short: list[int] = []  # sentences of at most max_distance tokens
    dist: dict[tuple[int, int], int] = {}
    buckets: dict[tuple[int, CharDelta], list[tuple[int, int]]] = {}
    for v in by_length:
        n_v = len(uniq[v])
        prefix = sorted((rank[tok], k) for tok, count in bags[v].items()
                        for k in range(count))[:max_distance + 1]
        if n_v <= max_distance:  # needs no shared token
            candidates = dict.fromkeys(short)
            short.append(v)
        else:
            candidates = {}
            for occ in prefix:
                for u, pos in index.get(occ, ()):
                    if pos <= max_distance - n_v + len(uniq[u]):
                        candidates[u] = None
        for pos, occ in enumerate(prefix):
            index.setdefault(occ, []).append((v, pos))
        for u in candidates:
            if token_bag_bound(bags[u], bags[v], n_v) > max_distance:
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
        # the sentences are distinct, so the indices ride along in the
        # arrangement; a symmetry only permutes the pairs a/b, c/d, a/c and
        # b/d, so their distances are all in dist
        (ca, ia), (cb, ib), (cc, ic), (cd, id_) = canonical_arrangement(
            ((uniq[a], a), (uniq[b], b), (uniq[c], c), (uniq[d], d)))
        canon = (ca, cb, cc, cd)
        if canon in found:
            return
        found[canon] = AnalogyQuadruple(
            a=ca, b=cb, c=cc, d=cd,
            d_ab=cross(ia, ib), d_cd=cross(ic, id_), d_ac=cross(ia, ic), d_bd=cross(ib, id_),
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
                           seed: BitextCorpus, *,
                           check_target_side: bool) -> list[RewritingModel]:
    """Build rewriting models from each analogy pair, using the seed corpus
    targets of the quadruple's source sentences; deduplicated, stable order.

    Analogies are detected on the source side; ``check_target_side``
    additionally requires the two distance equalities to hold between the
    corresponding target sentences before a quadruple contributes models.
    Each seed pair is tokenized once, on first use, and each ordered index
    pair gives a model once: quadruples share pairs.
    """
    tokenized: dict[int, tuple[Tokens, Tokens]] = {}

    def tokens(index: int) -> tuple[Tokens, Tokens]:
        """(source, target) tokens of seed pair ``index``."""
        if index not in tokenized:
            pair = seed.pairs[index]
            tokenized[index] = (tuple(tokenize(pair.src)), tuple(tokenize(pair.tgt)))
        return tokenized[index]

    seen: set[tuple] = set()
    extracted: set[tuple[int, int]] = set()
    models = []
    for quad in quadruples:
        ia, ib, ic, id_ = quad.indices
        if check_target_side and not (
                all(0 <= idx < len(seed.pairs) for idx in quad.indices)
                and _target_side_holds([tokens(idx)[1] for idx in quad.indices])):
            continue
        for i1, i2 in ((ia, ib), (ic, id_)):
            if (i1, i2) in extracted:
                continue
            extracted.add((i1, i2))
            if not (0 <= i1 < len(seed.pairs) and 0 <= i2 < len(seed.pairs)):
                continue
            model = extract_rewriting_model(tokens(i1), tokens(i2))
            if model is None:
                continue
            key = (model.src_prefix, model.src_suffix,
                   model.tgt_prefix, model.tgt_suffix)
            if key in seen:
                continue
            seen.add(key)
            models.append(model)
    return models


def _target_side_holds(targets: Sequence[Tokens]) -> bool:
    """The analogy's two distance equalities on the target sentences
    ``targets`` = (A, B, C, D)."""
    ta, tb, tc, td = targets
    return (word_levenshtein(ta, tb) == word_levenshtein(tc, td)
            and word_levenshtein(ta, tc) == word_levenshtein(tb, td))


def apply_model(model: RewritingModel, sentence: Sequence[str],
                lex: TranslationLexicon, allow_unknown: bool) -> BiSentence | None:
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
                    lex: TranslationLexicon, *,
                    allow_unknown: bool) -> QuasiParallelCorpus:
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
    indices = tuple(in_range("indices", i) for i in rec["indices"])
    if len(indices) != 4:
        raise ValueError(f"expected 4 indices, got {len(indices)}")
    return AnalogyQuadruple(
        a=_tokens(rec["a"]), b=_tokens(rec["b"]), c=_tokens(rec["c"]), d=_tokens(rec["d"]),
        d_ab=in_range("d_ab", rec["d_ab"]), d_cd=in_range("d_cd", rec["d_cd"]),
        d_ac=in_range("d_ac", rec["d_ac"]), d_bd=in_range("d_bd", rec["d_bd"]),
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
