"""Machine translation evaluation metrics and significance testing.

Corpus-level BLEU (clipped n-gram precisions, geometric mean, brevity
penalty), NIST (information-weighted n-gram co-occurrence, arithmetic mean,
its own gentler brevity factor), TER (word edits plus greedily searched
phrase shifts, each shift one edit), and a simplified METEOR with
exact and stem match stages, recall-weighted F-mean and a fragmentation
penalty.  Scores are fractions; multiply by 100 for the conventional
presentation.
"""

from __future__ import annotations

import math
import random
from collections import Counter, namedtuple
from collections.abc import Callable, Sequence
from functools import cached_property
from itertools import repeat

from .editdistance import Pattern, token_bag_bound
from .filtering import stem

Tokens = tuple[str, ...]

# n-gram orders kept per segment: NIST's five; BLEU reads the first four
_MAX_ORDER = 5


class _NgramRecord(namedtuple("_NgramRecord",
                              "closest_ref_len mean_ref_len emitted clipped matched")):
    """One segment's n-gram statistics, shared by BLEU and NIST.

    ``emitted[n-1]`` and ``clipped[n-1]`` are the hypothesis n-gram count and
    its sum clipped, per distinct n-gram, to the largest count in any one
    reference.  ``matched[n-1]`` lists the n-grams with a nonzero clipped
    count, in first-seen order, flat as ``start, clipped, start, clipped, …``
    where ``start`` is the n-gram's first position in the hypothesis.
    """

    __slots__ = ()
    closest_ref_len: int  # BLEU: closest to the hypothesis, ties to the shorter
    mean_ref_len: float  # NIST
    emitted: tuple[int, ...]
    clipped: tuple[int, ...]
    matched: tuple[tuple[int, ...], ...]


def _all_grams(tokens: Tokens) -> list[Tokens]:
    """The n-grams of ``tokens`` of orders 1 to _MAX_ORDER, order by order
    and in position order within one."""
    t1, t2, t3, t4 = tokens[1:], tokens[2:], tokens[3:], tokens[4:]
    return [*zip(tokens), *zip(tokens, t1), *zip(tokens, t1, t2),
            *zip(tokens, t1, t2, t3), *zip(tokens, t1, t2, t3, t4)]


def _ngram_record(hypothesis: Tokens, references: tuple[Tokens, ...]) -> _NgramRecord:
    hyp_len = len(hypothesis)
    grams = _all_grams(hypothesis)
    counts = Counter(grams)
    # zipped from the end, each n-gram keeps its smallest position
    starts = [start for n in range(1, _MAX_ORDER + 1)
              for start in range(hyp_len - n + 1)]
    first = dict(zip(reversed(grams), reversed(starts)))
    limits = [map(Counter(_all_grams(ref)).get, counts, repeat(0))
              for ref in references]
    ref_max = limits[0] if len(limits) == 1 else map(max, *limits)
    clipped = [0] * _MAX_ORDER
    matched: list[list[int]] = [[] for _ in range(_MAX_ORDER)]
    for ngram, clip in zip(counts, map(min, counts.values(), ref_max)):
        if clip:
            n = len(ngram)
            clipped[n - 1] += clip
            matched[n - 1] += (first[ngram], clip)
    return _NgramRecord(
        closest_ref_len=min((abs(len(r) - hyp_len), len(r)) for r in references)[1],
        mean_ref_len=sum(len(r) for r in references) / len(references),
        emitted=tuple(max(0, hyp_len - n + 1) for n in range(1, _MAX_ORDER + 1)),
        clipped=tuple(clipped), matched=tuple(map(tuple, matched)))


class EvalPair(namedtuple("EvalPair", "hypothesis references")):
    """One test segment: a hypothesis and its references.

    Each metric reads a per-segment record computed on first use and kept on
    the pair, so scoring a resample of the same pairs counts nothing again.
    The records live in the instance ``__dict__`` that ``cached_property``
    needs, which is why this class declares no ``__slots__``.
    """
    hypothesis: Tokens
    references: tuple[Tokens, ...]

    def __new__(cls, hypothesis: Tokens, references: tuple[Tokens, ...]) -> EvalPair:
        if not references:
            raise ValueError("an evaluation pair needs at least one reference")
        return super().__new__(cls, hypothesis, references)

    @cached_property
    def ngram_record(self) -> _NgramRecord:
        return _ngram_record(self.hypothesis, self.references)

    @cached_property
    def ter_record(self) -> tuple[int, int]:
        """(edits, length) of the best reference; see ``_best_reference``."""
        return _best_reference(self.hypothesis, self.references)

    @cached_property
    def meteor_score(self) -> float:
        return meteor_lite(self.hypothesis, self.references)


def _check_order(max_n: int) -> None:
    if not 1 <= max_n <= _MAX_ORDER:
        raise ValueError(f"max_n must be in 1..{_MAX_ORDER}, got {max_n}")


# ---------------------------------------------------------------------------
# BLEU

def bleu(corpus: Sequence[EvalPair], max_n: int = 4) -> float:
    """Geometric mean of clipped n-gram precisions times the brevity penalty.

    A zero precision at any order gives 0.  With multiple references the
    effective reference length is the closest to the hypothesis (ties go to
    the shorter one) and clipping uses the per-reference maximum count.
    """
    if not corpus:
        raise ValueError("cannot score an empty corpus")
    _check_order(max_n)
    records = [pair.ngram_record for pair in corpus]
    correct = [sum(r.clipped[k] for r in records) for k in range(max_n)]
    total = [sum(r.emitted[k] for r in records) for k in range(max_n)]
    hyp_len = sum(len(pair.hypothesis) for pair in corpus)
    ref_len = sum(r.closest_ref_len for r in records)
    if hyp_len == 0 or any(c == 0 or t == 0 for c, t in zip(correct, total)):
        return 0.0
    log_precision = sum(math.log(c / t) for c, t in zip(correct, total)) / max_n
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_precision)


# ---------------------------------------------------------------------------
# NIST

# brevity factor exponent: 0.5 exactly when the hypothesis is 2/3 the
# reference length
_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


def nist(corpus: Sequence[EvalPair], max_n: int = 5) -> float:
    """Information-weighted n-gram score with arithmetic-mean combination.

    info(w1..wn) = log2(count(w1..wn-1) / count(w1..wn)) over the corpus
    reference statistics; rarer n-grams score higher.
    """
    if not corpus:
        raise ValueError("cannot score an empty corpus")
    _check_order(max_n)
    drawn = Counter(corpus)
    ref_counts: Counter = Counter()
    total_ref_words = 0
    for pair, times in drawn.items():
        # a segment drawn k times adds its reference n-grams k times
        for ref in pair.references:
            total_ref_words += times * len(ref)
            # orders above max_n are counted too; nothing looks them up
            grams = _all_grams(ref)
            ref_counts.update(grams * times if times > 1 else grams)

    log2 = math.log2
    gained = [0.0] * max_n
    emitted = [0] * max_n
    hyp_len = 0
    ref_len = 0.0
    for pair in corpus:
        hyp = pair.hypothesis
        record = pair.ngram_record
        hyp_len += len(hyp)
        ref_len += record.mean_ref_len
        for n in range(1, max_n + 1):
            emitted[n - 1] += record.emitted[n - 1]
            flat = iter(record.matched[n - 1])
            # matched * info(ngram); a matched n-gram and its prefix occur in
            # this segment's references, so both counts are positive
            for start, matched in zip(flat, flat):
                numer = total_ref_words if n == 1 else ref_counts[hyp[start:start + n - 1]]
                gained[n - 1] += matched * log2(numer / ref_counts[hyp[start:start + n]])
    if hyp_len == 0:
        return 0.0
    score = sum(g / e for g, e in zip(gained, emitted) if e > 0)
    ratio = min(hyp_len / ref_len, 1.0) if ref_len > 0 else 1.0
    brevity = math.exp(_NIST_BETA * math.log(ratio) ** 2) if ratio < 1.0 else 1.0
    return score * brevity


# ---------------------------------------------------------------------------
# TER

_MAX_SHIFT_LEN = 10

# inputs this small are solved exactly; greedy shift search can lose the
# optimum by one edit in rare interleaved-block cases
_EXACT_TER_LIMIT = 6


def _phrases(tokens: Tokens) -> set[Tokens]:
    """Every phrase of ``tokens`` that a shift may move (at most
    _MAX_SHIFT_LEN tokens)."""
    return {tokens[i:j] for i in range(len(tokens))
            for j in range(i + 1, min(len(tokens), i + _MAX_SHIFT_LEN) + 1)}


def _exact_ter_edits(start: Tokens, pattern: Pattern, ref_phrases: set[Tokens],
                     best: int, floor: int) -> int:
    """Minimum of shifts plus edit distance over every shift sequence from
    ``start``, which is ``best`` from the reference; no order of its tokens
    is below ``floor``.

    Breadth-first over reachable token orders; only viable for short inputs.
    """
    seen = {start}
    frontier = [start]
    shifts = 0
    while frontier and shifts + 1 + floor < best:
        shifts += 1
        next_frontier = []
        for state in frontier:
            for pos in range(len(state)):
                for length in range(1, min(_MAX_SHIFT_LEN, len(state) - pos) + 1):
                    phrase = state[pos:pos + length]
                    if phrase not in ref_phrases:
                        continue
                    removed = state[:pos] + state[pos + length:]
                    for dest in range(len(removed) + 1):
                        if dest == pos:
                            continue
                        candidate = removed[:dest] + phrase + removed[dest:]
                        if candidate in seen:
                            continue
                        seen.add(candidate)
                        distance = pattern.distance(candidate)
                        if shifts + distance < best:
                            best = shifts + distance
                        next_frontier.append(candidate)
        frontier = next_frontier
    return best


def _best_shift(current: Tokens, pattern: Pattern, ref_phrases: set[Tokens],
                distance: int, floor: int) -> tuple[int, Tokens | None]:
    """The first shift of ``current``, in (start, length, destination) order,
    to the lowest edit distance below ``distance``; (distance, None) if none.

    A candidate agrees with ``current`` up to the smaller of the phrase's
    start and its destination, so it is scored from the kernel state kept
    for that prefix.  The search stops at ``floor``, which no order of the
    tokens goes below.
    """
    feed = pattern.feed
    prefix_states = [pattern.start]
    for token in current:
        prefix_states.append(feed(prefix_states[-1], (token,)))
    best_distance, best_state = distance, None
    n = len(current)
    for start in range(n):
        for length in range(1, min(_MAX_SHIFT_LEN, n - start) + 1):
            end = start + length
            phrase = current[start:end]
            if phrase not in ref_phrases:
                continue
            for pos in range(n - length + 1):
                if pos < start:  # the phrase moves left, before current[pos]
                    tail = phrase + current[pos:start] + current[end:]
                    d = feed(prefix_states[pos], tail)[2]
                elif pos > start:  # right, after current[pos + length - 1]
                    tail = current[end:pos + length] + phrase + current[pos + length:]
                    d = feed(prefix_states[start], tail)[2]
                else:
                    continue
                if d < best_distance:
                    best_distance, best_state = d, current[:min(start, pos)] + tail
                    if d == floor:
                        return best_distance, best_state
    return best_distance, best_state


def _ter_edits(hypothesis: Sequence[str], reference: Sequence[str]) -> int:
    """Shifts plus final edit distance.

    Greedy best-improvement-first shift search, except that inputs with both
    sides at most six tokens are solved exactly.
    """
    current = tuple(hypothesis)
    pattern = Pattern(reference)
    distance = pattern.distance(current)
    # every order of the hypothesis tokens is at least this far from the
    # reference, so at the floor a shift, which costs one edit, cannot help
    floor = token_bag_bound(Counter(current), Counter(reference),
                            max(len(current), len(reference)))
    if distance == floor:
        return distance
    ref_phrases = _phrases(tuple(reference))
    if len(current) <= _EXACT_TER_LIMIT and len(reference) <= _EXACT_TER_LIMIT:
        return _exact_ter_edits(current, pattern, ref_phrases, distance, floor)
    shifts = 0
    while distance > floor:
        distance, shifted = _best_shift(current, pattern, ref_phrases, distance, floor)
        if shifted is None:
            break
        current = shifted
        shifts += 1
    return shifts + distance


def _best_reference(hypothesis: Sequence[str],
                    references: Sequence[Sequence[str]]) -> tuple[int, int]:
    """(edits, length) of the non-empty reference with the lowest edit rate;
    the shorter reference wins a tie."""
    usable = [r for r in references if len(r) > 0]
    if not usable:
        raise ValueError("TER needs at least one non-empty reference")
    return min(((_ter_edits(hypothesis, ref), len(ref)) for ref in usable),
               key=lambda el: (el[0] / el[1], el[1]))


def ter(hypothesis: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """Translation error rate: edits over reference length, best reference.

    Edits are insertions, deletions, substitutions and phrase shifts, each
    shift costing one edit.
    """
    edits, length = _best_reference(hypothesis, references)
    return edits / length


def corpus_ter(corpus: Sequence[EvalPair]) -> float:
    """Total edits over total reference length, best reference per segment."""
    if not corpus:
        raise ValueError("cannot score an empty corpus")
    records = [pair.ter_record for pair in corpus]
    return sum(edits for edits, _ in records) / sum(length for _, length in records)


# ---------------------------------------------------------------------------
# METEOR (simplified)

def _stage_matches(hyp: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int]]:
    """Greedy unigram alignment: exact matches first, then matches of the
    stems (``filtering.stem``) among the tokens still unmatched."""
    matched_h: set[int] = set()
    matched_r: set[int] = set()
    matches: list[tuple[int, int]] = []
    for form in (lambda token: token, stem):
        for i, h in enumerate(hyp):
            if i in matched_h:
                continue
            h = form(h)
            for j, r in enumerate(ref):
                if j in matched_r:
                    continue
                if h == form(r):
                    matches.append((i, j))
                    matched_h.add(i)
                    matched_r.add(j)
                    break
    return matches


def meteor_lite(hypothesis: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """Staged unigram alignment (exact, then stem), F-mean 10PR/(R+9P),
    fragmentation penalty 0.5*(chunks/matches)^3; the best reference score
    is returned."""
    usable = [list(r) for r in references if len(r) > 0]
    if not usable:
        raise ValueError("METEOR needs at least one non-empty reference")
    if not hypothesis:
        return 0.0
    best = 0.0
    for ref in usable:
        matches = _stage_matches(hypothesis, ref)
        m = len(matches)
        if m == 0:
            continue
        precision = m / len(hypothesis)
        recall = m / len(ref)
        fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
        matches.sort()
        chunks = 1
        for (h1, r1), (h2, r2) in zip(matches, matches[1:]):
            if h2 != h1 + 1 or r2 != r1 + 1:
                chunks += 1
        penalty = 0.5 * (chunks / m) ** 3
        score = fmean * (1.0 - penalty)
        if score > best:
            best = score
    return best


def corpus_meteor(corpus: Sequence[EvalPair]) -> float:
    """Arithmetic mean of per-segment scores."""
    if not corpus:
        raise ValueError("cannot score an empty corpus")
    return sum(pair.meteor_score for pair in corpus) / len(corpus)


# ---------------------------------------------------------------------------
# significance

class BootstrapResult(namedtuple(
        "BootstrapResult", "observed_diff mean_diff ci_low ci_high p_value n_resamples")):
    __slots__ = ()
    observed_diff: float
    mean_diff: float
    ci_low: float
    ci_high: float
    p_value: float
    n_resamples: int

    def as_dict(self) -> dict:
        return {
            "observed_diff": self.observed_diff,
            "mean_diff": self.mean_diff,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "p_value": self.p_value,
            "n_resamples": self.n_resamples,
        }


def bootstrap_diff(sys_a: Sequence[EvalPair], sys_b: Sequence[EvalPair],
                   metric: Callable[[Sequence[EvalPair]], float],
                   n_resamples: int = 1000, seed: int = 0) -> BootstrapResult:
    """Bootstrap the metric difference between two systems on a shared test set.

    Sentence indices are resampled with replacement; reports the mean
    difference, the 95% interval of the resampled differences, and the
    fraction of resamples whose difference sign flips against the observed
    full-corpus difference.  A resample holds the same ``EvalPair`` objects,
    so the corpus metrics fold the per-segment records the full-corpus
    scores computed.
    """
    if len(sys_a) != len(sys_b):
        raise ValueError(
            f"system outputs differ in length: {len(sys_a)} vs {len(sys_b)}")
    if not sys_a:
        raise ValueError("cannot bootstrap an empty test set")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    n = len(sys_a)
    observed = metric(sys_a) - metric(sys_b)
    rng = random.Random(seed)
    diffs = []
    for _ in range(n_resamples):
        idx = [rng.randrange(n) for _ in range(n)]
        sample_a = [sys_a[i] for i in idx]
        sample_b = [sys_b[i] for i in idx]
        diffs.append(metric(sample_a) - metric(sample_b))
    diffs.sort()
    lo = diffs[int(0.025 * n_resamples)]
    hi = diffs[min(n_resamples - 1, int(0.975 * n_resamples))]
    if observed > 0:
        p_value = sum(1 for d in diffs if d <= 0) / n_resamples
    elif observed < 0:
        p_value = sum(1 for d in diffs if d >= 0) / n_resamples
    else:
        p_value = 1.0
    return BootstrapResult(
        observed_diff=observed,
        mean_diff=sum(diffs) / n_resamples,
        ci_low=lo, ci_high=hi,
        p_value=p_value, n_resamples=n_resamples,
    )
