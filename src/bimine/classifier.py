"""Calibrated sentence-pair similarity classifier.

A linear max-margin model over lexicon-based features, trained with
stochastic subgradient descent on the hinge loss, then mapped to a
probability in (0, 1) with a sigmoid fitted by Platt's method.  The score
estimates how likely two sentences are translations of each other.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from collections.abc import Callable, Sequence

from .corpus_io import (BitextCorpus, digest, in_range, json_number, read_json, tokenize,
                        write_json)
from .lexicon import TranslationLexicon, lexicon_text

FEATURE_NAMES = ("len_ratio", "char_ratio", "cov_st", "cov_ts", "num_overlap")

FORMAT_VERSION = 2


class SimilarityModel:
    def __init__(self, weights: list[float], bias: float, platt_a: float, platt_b: float,
                 direction: tuple[str, str], *,
                 lexicon_checksum: str, training_counts: dict[str, int] | None = None,
                 ) -> None:
        self.weights = weights
        self.bias = bias
        self.platt_a = platt_a
        self.platt_b = platt_b
        self.direction = direction
        self.lexicon_checksum = lexicon_checksum
        # examples, held-out examples and hinge updates of the training run; the
        # classifier stage records them in its manifest, the model file does not
        self.training_counts = {} if training_counts is None else training_counts

    def margin(self, features: Sequence[float]) -> float:
        """``w . x + b`` of a feature tuple in FEATURE_NAMES order."""
        return sum(w * x for w, x in zip(self.weights, features)) + self.bias


def _is_digit_token(token: str) -> bool:
    # all-letter and all-digit tokens skip the per-character scan
    if token.isalpha():
        return False
    return token.isdigit() or (any(ch.isdigit() for ch in token)
                               and not any(ch.isalpha() for ch in token))


class SourceRecord:
    """The facts about one source sentence that its features need.

    ``rows`` holds the lexicon row of each token the lexicon knows, in token
    order; ``best`` maps each target token to its best translation
    probability from any of the sentence's distinct tokens.
    """

    __slots__ = ("n_tokens", "n_chars", "rows", "best", "digits")

    def __init__(self, n_tokens: int, n_chars: int,
                 rows: tuple[Sequence[tuple[str, float]], ...], best: dict[str, float],
                 digits: frozenset[str]) -> None:
        self.n_tokens = n_tokens
        self.n_chars = n_chars
        self.rows = rows
        self.best = best
        self.digits = digits


class TargetRecord:
    """The facts about one target sentence that its features need."""

    __slots__ = ("tokens", "n_tokens", "n_chars", "token_set", "digits")

    def __init__(self, tokens: tuple[str, ...], n_tokens: int, n_chars: int,
                 token_set: frozenset[str], digits: frozenset[str]) -> None:
        self.tokens = tokens
        self.n_tokens = n_tokens
        self.n_chars = n_chars
        self.token_set = token_set
        self.digits = digits


def _check_nonempty(tokens: Sequence[str]) -> None:
    if not tokens:
        raise ValueError("cannot extract features from an empty sentence")


def source_record(tokens: Sequence[str], lex: TranslationLexicon) -> SourceRecord:
    """Look up a source sentence's lexicon rows once, for all its pairings."""
    _check_nonempty(tokens)
    entries = lex.entries
    rows = tuple(entries[s] for s in tokens if entries.get(s))
    best: dict[str, float] = {}
    for s in set(tokens):
        for t, p in entries.get(s, ()):
            if p > best.get(t, 0.0):
                best[t] = p
    return SourceRecord(len(tokens), sum(len(t) for t in tokens), rows, best,
                        frozenset(t for t in tokens if _is_digit_token(t)))


def target_record(tokens: Sequence[str]) -> TargetRecord:
    """Collect a target sentence's token facts once, for all its pairings."""
    _check_nonempty(tokens)
    return TargetRecord(tuple(tokens), len(tokens), sum(len(t) for t in tokens),
                        frozenset(tokens),
                        frozenset(t for t in tokens if _is_digit_token(t)))


def pair_features(src: SourceRecord, tgt: TargetRecord) -> tuple[float, ...]:
    """Compute the five [0,1] features for a candidate sentence pair, in
    FEATURE_NAMES order.

    Coverage source->target credits each source token with the summed
    probability of its lexicon translations present in the target (at most 1
    by normalization); target->source uses the best available probability
    per target token.
    """
    n_src, n_tgt = src.n_tokens, tgt.n_tokens
    len_ratio = min(n_src, n_tgt) / max(n_src, n_tgt)
    c_src, c_tgt = src.n_chars, tgt.n_chars
    char_ratio = min(c_src, c_tgt) / max(c_src, c_tgt)

    # tokens without a lexicon row would add min(0.0, 1.0), which leaves
    # the sum unchanged, so rows holds only the known tokens
    tgt_set = tgt.token_set
    cov = 0.0
    for row in src.rows:
        credit = 0.0
        for t, p in row:
            if t in tgt_set:
                credit += p
        cov += min(credit, 1.0)
    cov_st = cov / n_src

    best = src.best
    cov = 0.0
    for t in tgt.tokens:
        cov += best.get(t, 0.0)
    cov_ts = cov / n_tgt

    src_digits, tgt_digits = src.digits, tgt.digits
    if not src_digits and not tgt_digits:
        num_overlap = 1.0
    else:
        num_overlap = len(src_digits & tgt_digits) / len(src_digits | tgt_digits)

    return (len_ratio, char_ratio, cov_st, cov_ts, num_overlap)


def calibrate(raw_margins: Sequence[tuple[float, int]]) -> tuple[float, float]:
    """Fit p(y=1 | m) = 1 / (1 + exp(a*m + b)) by regularized max likelihood.

    Newton iterations with backtracking line search on Platt's regularized
    targets.  Requires both labels present; the fitted slope ``a`` is
    negative whenever larger margins indicate the positive class.
    """
    n_pos = sum(1 for _, y in raw_margins if y > 0)
    n_neg = len(raw_margins) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("calibration needs both positive and negative margins")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    deci = [m for m, _ in raw_margins]
    targets = [hi if y > 0 else lo for _, y in raw_margins]

    def objective(a: float, b: float) -> float:
        val = 0.0
        for d, t in zip(deci, targets):
            f = d * a + b
            if f >= 0:
                val += t * f + math.log1p(math.exp(-f))
            else:
                val += (t - 1) * f + math.log1p(math.exp(f))
        return val

    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = objective(a, b)
    sigma = 1e-12
    for _ in range(100):
        h11 = h22 = sigma
        h21 = g1 = g2 = 0.0
        for d, t in zip(deci, targets):
            f = d * a + b
            if f >= 0:
                e = math.exp(-f)
                p, q = e / (1.0 + e), 1.0 / (1.0 + e)
            else:
                e = math.exp(f)
                p, q = 1.0 / (1.0 + e), e / (1.0 + e)
            d2 = p * q
            h11 += d * d * d2
            h22 += d2
            h21 += d * d2
            d1 = t - p
            g1 += d * d1
            g2 += d1
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= 1e-10:
            na, nb = a + step * da, b + step * db
            nf = objective(na, nb)
            if nf < fval + 1e-4 * step * gd:
                a, b, fval = na, nb, nf
                break
            step /= 2.0
        else:
            break
    return a, b


def _sigmoid_ab(margin: float, a: float, b: float) -> float:
    f = margin * a + b
    if f >= 0:
        e = math.exp(-min(f, 700.0))
        p = e / (1.0 + e)
    else:
        e = math.exp(max(f, -700.0))
        p = 1.0 / (1.0 + e)
    return min(max(p, 1e-15), 1.0 - 1e-15)


def similarity(model: SimilarityModel, src: SourceRecord, tgt: TargetRecord) -> float:
    """Calibrated likelihood in (0, 1) that the pair is a mutual translation."""
    features = pair_features(src, tgt)
    return _sigmoid_ab(model.margin(features), model.platt_a, model.platt_b)


# match_filter's split of translation probabilities: a target reached with at
# least this probability is strong and gets a bit; weaker ones are summed
_STRONG = 0.1
# the default of every dict.get that tier 2 of match_filter maps over tokens
_ZEROS = itertools.repeat(0.0)


def match_filter(model: SimilarityModel, sources: Sequence[SourceRecord],
                 targets: Sequence[TargetRecord], floor: float,
                 ) -> Callable[[int, int], bool] | None:
    """A cheap ``can_match(i, j)`` for one article: False only when
    ``similarity(model, sources[i], targets[j]) < floor`` is proven.

    Both tiers bound the classifier margin, with ``len_ratio``,
    ``char_ratio`` and ``num_overlap`` entered exactly and a coverage
    weight that is not positive counted as 0, and compare it with the
    margin at which the Platt sigmoid reaches ``floor``, less a slack for
    rounding; ``platt_a < 0`` makes that sigmoid decreasing in the margin.

    Tier 1 works on bitmasks.  Each source sentence gets a bitmask ``S`` of
    its strong targets (``p >= _STRONG``), the largest summed strong
    probability ``mass`` of one target over its rows, the largest best
    probability ``hi`` of one strong target and its summed weak row mass
    ``weak``; each target sentence gets a bitmask ``T`` of its tokens and
    the largest multiplicity ``mult`` of one token.  With ``k =
    popcount(S & T)``, ``cov_st <= (k * mass + weak) / n_src`` and
    ``cov_ts <= k * mult * hi / n_tgt + _STRONG``.

    Tier 2 runs only on cells tier 1 passes and bounds both coverages
    almost exactly.  Each source sentence gets ``credit[t]``, the sum of
    ``p`` over its rows (a repeated token repeats its row).  A row adds
    ``min(c, 1) <= c`` to ``cov_st``, where ``c`` sums its non-negative
    ``p`` of targets present, so ``cov_st <= sum(credit[t] for t in
    tgt.token_set) / n_src``.  ``cov_ts`` enters exactly, as the same sum
    ``pair_features`` takes: ``best.get(t, 0)`` over ``tgt.tokens``.

    Returns None when nothing can be proven (``floor`` at most the
    sigmoid's 1e-15 clamp, or a model with ``platt_a >= 0``).
    """
    floor -= 1e-12  # far more than the sigmoid's rounding of a score
    if not 1e-15 < floor < 1.0 or model.platt_a >= 0:
        return None
    w_len, w_char, w_st, w_ts, w_num = model.weights
    # a coverage bound raises the margin bound only through a positive weight
    w_st, w_ts = max(w_st, 0.0), max(w_ts, 0.0)
    # p < floor  <=>  a * margin + b > log((1 - floor) / floor)  <=>  margin < limit
    limit = (math.log((1.0 - floor) / floor) - model.platt_b) / model.platt_a
    limit -= model.bias + 1e-9 * (1.0 + abs(limit) + abs(model.bias)
                                  + sum(abs(w) for w in model.weights))

    bits: dict[str, int] = {}
    tgt_facts = []
    for tgt in targets:
        mask = 0
        for token in tgt.token_set:
            bit = bits.get(token)
            if bit is None:
                bit = bits[token] = 1 << len(bits)
            mask |= bit
        mult = max(Counter(tgt.tokens).values())
        tgt_facts.append((tgt.n_tokens, tgt.n_chars, mask, w_ts * mult / tgt.n_tokens,
                          tgt.digits, tgt.token_set, tgt.tokens, w_ts / tgt.n_tokens))

    src_facts = []
    for src in sources:
        mass: dict[str, float] = {}
        credit: dict[str, float] = {}
        weak = 0.0
        for row in src.rows:
            for t, p in row:
                credit[t] = credit.get(t, 0.0) + p
                if p >= _STRONG:
                    mass[t] = mass.get(t, 0.0) + min(p, 1.0)
                elif p > 0.0:
                    weak += p
        mask, top, hi = 0, 0.0, 0.0
        for t, total in mass.items():
            bit = bits.get(t)
            if bit is not None:
                mask |= bit
                top = max(top, total)
                hi = max(hi, src.best[t])
        n = src.n_tokens
        src_facts.append((n, src.n_chars, mask, w_st * top / n,
                          w_st * weak / n + w_ts * _STRONG, hi, src.digits,
                          credit.get, src.best.get, w_st / n))

    def can_match(i: int, j: int) -> bool:
        n_src, c_src, s_mask, st_k, base, hi, s_digits, credit, best, st_w = src_facts[i]
        n_tgt, c_tgt, t_mask, ts_k, t_digits, t_set, t_tokens, ts_w = tgt_facts[j]
        k = (s_mask & t_mask).bit_count()
        if s_digits or t_digits:
            num_overlap = len(s_digits & t_digits) / len(s_digits | t_digits)
        else:
            num_overlap = 1.0
        len_term = w_len * (n_src / n_tgt if n_src < n_tgt else n_tgt / n_src)
        char_term = w_char * (c_src / c_tgt if c_src < c_tgt else c_tgt / c_src)
        num_term = w_num * num_overlap
        if len_term + char_term + k * (st_k + ts_k * hi) + base + num_term < limit:
            return False
        st = sum(map(credit, t_set, _ZEROS))
        ts = sum(map(best, t_tokens, _ZEROS))
        return len_term + char_term + st_w * st + ts_w * ts + num_term >= limit

    return can_match


def _shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)`` without a method call per element: the same
    Fisher-Yates swaps from the same ``getrandbits`` draws as
    ``Random._randbelow``, so the order and the generator state afterwards
    equal ``Random.shuffle``'s."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _fit_hinge(training: Sequence[tuple[tuple[float, ...], int]], rng: random.Random,
               epochs: int, learning_rate: float, margin_reg: float,
               ) -> tuple[list[float], float, int]:
    """SGD on the L2-regularized hinge loss over (features, label) examples,
    visited in an ``rng`` order per epoch.  Returns the weights, the bias and
    the number of hinge updates.

    The five weights live in locals.  The products group as in
    ``w -= eta * margin_reg * w`` and ``w += eta * y * x``, and the margin is
    a sum() over the same terms as ``SimilarityModel.margin``; CPython 3.12
    made sum() of floats compensated, so a chain of + would change bits.
    """
    xs = [x for x, _ in training]
    ys = [y for _, y in training]
    w0 = w1 = w2 = w3 = w4 = 0.0
    bias = 0.0
    step = 0
    hinge_updates = 0
    for _ in range(epochs):
        order = list(range(len(training)))
        _shuffle(rng, order)
        for idx in order:
            step += 1
            eta = learning_rate / (1.0 + margin_reg * learning_rate * step)
            x0, x1, x2, x3, x4 = xs[idx]
            y = ys[idx]
            margin = sum((w0 * x0, w1 * x1, w2 * x2, w3 * x3, w4 * x4)) + bias
            shrink = eta * margin_reg
            w0 -= shrink * w0
            w1 -= shrink * w1
            w2 -= shrink * w2
            w3 -= shrink * w3
            w4 -= shrink * w4
            if y * margin < 1.0:
                g = eta * y
                w0 += g * x0
                w1 += g * x1
                w2 += g * x2
                w3 += g * x3
                w4 += g * x4
                bias += g
                hinge_updates += 1
    return [w0, w1, w2, w3, w4], bias, hinge_updates


def train_model(seed: BitextCorpus, lex: TranslationLexicon, direction: tuple[str, str], *,
                neg_per_pos: int, epochs: int, learning_rate: float, margin_reg: float,
                seed_rng: int) -> SimilarityModel:
    """Train the similarity classifier for the language pair ``direction``
    (source, target) from a parallel seed corpus.

    Positives are the aligned seed pairs.  For each positive, ``neg_per_pos``
    negatives pair the same source with other targets; the target at the
    adjacent offset is always included as a hard negative.  The linear
    classifier is fit by SGD on hinge loss with L2 regularization on 90% of
    the examples and Platt-calibrated on the held-out 10%.
    """
    in_range("neg_per_pos", neg_per_pos)
    in_range("epochs", epochs)
    in_range("learning_rate", learning_rate)
    in_range("margin_reg", margin_reg)
    tokenized = [(tokenize(p.src), tokenize(p.tgt)) for p in seed.pairs]
    tokenized = [(s, t) for s, t in tokenized if s and t]
    n = len(tokenized)
    # the negatives of a pair are other pairs' targets, so one usable pair
    # would make the sampling loop below draw forever
    if n < 100:
        raise ValueError(f"need at least 100 seed pairs with tokens on both sides, got {n}")

    rng = random.Random(seed_rng)
    # a source meets its own and its negative targets in one iteration, so
    # only the target records are kept for the whole loop
    targets = [target_record(t) for _, t in tokenized]

    examples: list[tuple[tuple[float, ...], int]] = []
    for i, (src_tokens, _) in enumerate(tokenized):
        src = source_record(src_tokens, lex)
        examples.append((pair_features(src, targets[i]), 1))
        adjacent = i + 1 if i + 1 < n else i - 1
        neg_targets = [adjacent]
        while len(neg_targets) < neg_per_pos:
            j = rng.randrange(n)
            if j != i:
                neg_targets.append(j)
        for j in neg_targets:
            examples.append((pair_features(src, targets[j]), -1))

    _shuffle(rng, examples)
    n_held = max(1, len(examples) // 10)
    held_out = examples[:n_held]
    training = examples[n_held:]

    weights, bias, hinge_updates = _fit_hinge(training, rng, epochs,
                                              learning_rate, margin_reg)
    raw = [(sum(w * xi for w, xi in zip(weights, x)) + bias, y) for x, y in held_out]
    if len({y for _, y in raw}) < 2:
        # tiny held-out split missed one class; calibrate on training margins
        raw = [(sum(w * xi for w, xi in zip(weights, x)) + bias, y) for x, y in training]
    platt_a, platt_b = calibrate(raw)
    if platt_a >= 0:
        raise ValueError(
            "calibration produced a non-negative slope; the trained margins "
            "do not separate translations from negatives")

    return SimilarityModel(
        weights=weights, bias=bias, platt_a=platt_a, platt_b=platt_b,
        direction=direction,
        lexicon_checksum=lexicon_checksum(lex),
        training_counts={"examples": len(examples), "held_out": n_held,
                         "hinge_updates": hinge_updates},
    )


def lexicon_checksum(lex: TranslationLexicon) -> str:
    """SHA-256 of the lexicon's file text, so a model names its lexicon."""
    return digest(lexicon_text(lex).encode("utf-8"))


def save_model(path, model: SimilarityModel) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "weights": model.weights,
        "bias": model.bias,
        "platt_a": model.platt_a,
        "platt_b": model.platt_b,
        "direction": list(model.direction),
        "lexicon_checksum": model.lexicon_checksum,
    }
    write_json(path, doc)


def load_model(path) -> SimilarityModel:
    """Read a model file; a malformed one, one with a number that is not
    finite or one whose Platt slope is not negative raises ValueError
    naming the file."""
    return read_json(path, _model)


def _model(doc) -> SimilarityModel:
    if not isinstance(doc, dict):
        raise ValueError("a model file holds one JSON object")
    if json_number(doc.get("format_version"), "format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc['format_version']!r}")
    if doc.get("feature_names") != list(FEATURE_NAMES):
        raise ValueError(f"model features {doc.get('feature_names')} "
                         f"do not match {list(FEATURE_NAMES)}")
    weights = [float(json_number(w, "a weight")) for w in doc["weights"]]
    if len(weights) != len(FEATURE_NAMES):
        raise ValueError(f"{len(weights)} weights for {len(FEATURE_NAMES)} features")
    src_lang, tgt_lang = doc["direction"]
    numbers = {key: float(json_number(doc[key], key))
               for key in ("bias", "platt_a", "platt_b")}
    in_range("platt_a", numbers["platt_a"])
    return SimilarityModel(weights=weights, direction=(src_lang, tgt_lang),
                           lexicon_checksum=doc["lexicon_checksum"], **numbers)
