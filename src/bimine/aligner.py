"""Optimal monotone 1-1 sentence alignment with gaps.

The lattice node (i, j) means i source and j target sentences consumed.
Matching sentence i with sentence j costs ``1 - sim(i, j)``; skipping a
sentence on either side costs ``gap_cost``.  ``align`` explores the lattice
with A* (admissible, consistent heuristic), evaluating the expensive
similarity function only on visited nodes; ``align_bruteforce`` fills the
full dynamic-programming table and is kept as the exact oracle.

Both entry points share the cost arithmetic and the backtracking rule
(prefer match, then source gap, then target gap), so they return identical
costs and identical link sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .corpus_io import BiSentence, Sentence


@dataclass
class AlignmentResult:
    links: list[tuple[int, int, float]] = field(default_factory=list)
    gaps_src: set[int] = field(default_factory=set)
    gaps_tgt: set[int] = field(default_factory=set)
    total_cost: float = 0.0
    cells_scored: int = 0  # lattice cells whose similarity was computed
    pops: int = 0  # A* heap pops, stale entries included; 0 from align_bruteforce


class _SimCache:
    """Memoizes the pair scorer; at most one evaluation per lattice node."""

    def __init__(self, src: Sequence, tgt: Sequence,
                 sim: Callable[[object, object], float]):
        self.src = src
        self.tgt = tgt
        self.sim = sim
        self.cache: dict[tuple[int, int], float] = {}

    def score(self, i: int, j: int) -> float:
        key = (i, j)
        value = self.cache.get(key)
        if value is None:
            value = self.sim(self.src[i], self.tgt[j])
            value = 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)
            self.cache[key] = value
        return value

    def match_cost(self, i: int, j: int) -> float:
        return 1.0 - self.score(i, j)


def _check_gap_cost(gap_cost: float) -> None:
    if not 0.0 < gap_cost <= 0.5:
        raise ValueError(f"gap_cost must be in (0, 0.5], got {gap_cost}")


def _backtrack(n: int, m: int, gap_cost: float, cache: _SimCache,
               cost_at: Callable[[int, int], float | None]) -> AlignmentResult:
    """Walk back from (n, m) along an optimal path.

    At each node the predecessor is chosen by priority match > src-gap >
    tgt-gap among moves whose cost adds up exactly; both align variants feed
    the same float values in here, which makes their outputs identical.
    """
    total = cost_at(n, m)
    if total is None:
        raise AssertionError("alignment search never settled the goal node")
    result = AlignmentResult(total_cost=total)
    i, j = n, m
    while i > 0 or j > 0:
        here = cost_at(i, j)
        if i > 0 and j > 0:
            prev = cost_at(i - 1, j - 1)
            if prev is not None and prev + cache.match_cost(i - 1, j - 1) == here:
                result.links.append((i - 1, j - 1, cache.score(i - 1, j - 1)))
                i, j = i - 1, j - 1
                continue
        if i > 0:
            prev = cost_at(i - 1, j)
            if prev is not None and prev + gap_cost == here:
                result.gaps_src.add(i - 1)
                i -= 1
                continue
        if j > 0:
            prev = cost_at(i, j - 1)
            if prev is not None and prev + gap_cost == here:
                result.gaps_tgt.add(j - 1)
                j -= 1
                continue
        raise AssertionError("alignment backtrack lost the optimal path")
    result.links.reverse()
    result.cells_scored = len(cache.cache)
    return result


def align(src: Sequence, tgt: Sequence, sim: Callable[[object, object], float],
          gap_cost: float = 0.4) -> AlignmentResult:
    """A* search for the minimum-cost monotone alignment.

    The heuristic ``h(i, j) = |(N - i) - (M - j)| * gap_cost`` counts the
    unavoidable gap moves on the longer remaining side and never
    overestimates (matches can cost 0).  Because float rounding can break
    the heuristic's consistency by an ulp, nodes are allowed to reopen when
    a cheaper path appears, and after the goal is reached the queue keeps
    draining until the best pending f exceeds the goal cost by a tiny
    margin.  At that point every node a backtrack can visit holds exactly
    the cost the full dynamic program would compute, so results match
    ``align_bruteforce`` bit for bit.
    """
    _check_gap_cost(gap_cost)
    n, m = len(src), len(tgt)
    cache = _SimCache(src, tgt, sim)

    def heuristic(i: int, j: int) -> float:
        return abs((n - i) - (m - j)) * gap_cost

    dist: dict[tuple[int, int], float] = {(0, 0): 0.0}
    heap: list[tuple[float, int, float, int, int]] = [(heuristic(0, 0), 0, 0.0, 0, 0)]
    counter = 1
    bound: float | None = None
    pops = 0
    while heap:
        f, _, g, i, j = heapq.heappop(heap)
        pops += 1
        if g > dist.get((i, j), g):
            continue  # superseded by a cheaper path
        if bound is not None and f > bound:
            break
        if (i, j) == (n, m):
            bound = g + 1e-9 * (1.0 + g)
            continue
        moves = []
        if i < n and j < m:
            moves.append((i + 1, j + 1, cache.match_cost(i, j)))
        if i < n:
            moves.append((i + 1, j, gap_cost))
        if j < m:
            moves.append((i, j + 1, gap_cost))
        for ni, nj, cost in moves:
            tentative = g + cost
            known = dist.get((ni, nj))
            if known is None or tentative < known:
                dist[(ni, nj)] = tentative
                heapq.heappush(
                    heap, (tentative + heuristic(ni, nj), counter, tentative, ni, nj))
                counter += 1
    result = _backtrack(n, m, gap_cost, cache, lambda i, j: dist.get((i, j)))
    result.pops = pops
    return result


def align_bruteforce(src: Sequence, tgt: Sequence,
                     sim: Callable[[object, object], float],
                     gap_cost: float = 0.4) -> AlignmentResult:
    """Full-lattice dynamic program; the classical method, kept as oracle."""
    _check_gap_cost(gap_cost)
    n, m = len(src), len(tgt)
    if n * m > 10_000:
        raise ValueError(f"brute-force guard: {n} x {m} lattice exceeds 10000 cells")
    cache = _SimCache(src, tgt, sim)

    table = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        table[i][0] = table[i - 1][0] + gap_cost
    for j in range(1, m + 1):
        table[0][j] = table[0][j - 1] + gap_cost
    for i in range(1, n + 1):
        row, above = table[i], table[i - 1]
        for j in range(1, m + 1):
            row[j] = min(above[j - 1] + cache.match_cost(i - 1, j - 1),
                         above[j] + gap_cost,
                         row[j - 1] + gap_cost)

    return _backtrack(n, m, gap_cost, cache, lambda i, j: table[i][j])


def threshold_filter(result: AlignmentResult, threshold: float,
                     src: Sequence[Sentence], tgt: Sequence[Sentence],
                     article_id: int = -1, direction: str = "") -> list[BiSentence]:
    """Keep links scoring at least ``threshold`` as provenance-tagged pairs."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    kept = []
    for i, j, score in result.links:
        if score >= threshold:
            kept.append(BiSentence(
                src=src[i].text, tgt=tgt[j].text, score=score,
                origin=(article_id, i, j, direction),
            ))
    return kept
