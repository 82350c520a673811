"""Optimal monotone 1-1 sentence alignment with gaps.

The lattice node (i, j) means i source and j target sentences consumed.
Matching sentence i with sentence j costs ``1 - sim(i, j)``; skipping a
sentence on either side costs ``gap_cost``.  ``align`` explores the lattice
with A* (admissible, consistent heuristic), evaluating the expensive
similarity function only on visited nodes; ``align_bruteforce`` fills the
full dynamic-programming table and is kept as the exact oracle.

A caller may also pass ``can_match(i, j)``, a cheap predicate that is False
only where ``sim(i, j)`` is provably below ``match_floor(gap_cost)``.  Such
a match edge costs more than the two gaps around it by more than any float
rounding, so no optimal path uses it and dropping it leaves every DP value
unchanged; ``align`` never scores those cells.

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
    cells_pruned: int = 0  # match edges dropped because can_match ruled them out


def match_floor(gap_cost: float) -> float:
    """The similarity below which a match edge may be dropped: it then costs
    more than two gaps by a margin (1e-9) far above the rounding of any
    path cost."""
    return 1.0 - 2.0 * gap_cost - 1e-9


_UNSEEN = object()
_INF = float("inf")


def _scorer(src: Sequence, tgt: Sequence, sim: Callable[[object, object], float],
            can_match: Callable[[int, int], bool] | None):
    """A memoized ``score(i, j)``: the clamped similarity of cell (i, j),
    computed at most once, or None for a cell ``can_match`` rules out, which
    is never scored.  Also returns the memo, cell ``i * len(tgt) + j`` to
    its score or None."""
    m = len(tgt)
    memo: dict[int, float | None] = {}

    def score(i: int, j: int) -> float | None:
        cell = i * m + j
        value = memo.get(cell, _UNSEEN)
        if value is _UNSEEN:
            if can_match is not None and not can_match(i, j):
                value = None
            else:
                value = sim(src[i], tgt[j])
                value = 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)
            memo[cell] = value
        return value

    return score, memo


def _check_gap_cost(gap_cost: float) -> None:
    if not 0.0 < gap_cost <= 0.5:
        raise ValueError(f"gap_cost must be in (0, 0.5], got {gap_cost}")


def _backtrack(n: int, m: int, gap_cost: float,
               score: Callable[[int, int], float | None], memo: dict,
               cost_at: Callable[[int, int], float | None]) -> AlignmentResult:
    """Walk back from (n, m) along an optimal path.

    At each node the predecessor is chosen by priority match > src-gap >
    tgt-gap among moves whose cost adds up exactly; both align variants feed
    the same float values in here, which makes their outputs identical.  A
    pruned match edge costs more than the src-gap path to the same node, so
    skipping it never changes the choice.
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
            if prev is not None:
                value = score(i - 1, j - 1)
                if value is not None and prev + (1.0 - value) == here:
                    result.links.append((i - 1, j - 1, value))
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
    result.cells_pruned = sum(1 for value in memo.values() if value is None)
    result.cells_scored = len(memo) - result.cells_pruned
    return result


def align(src: Sequence, tgt: Sequence, sim: Callable[[object, object], float],
          gap_cost: float = 0.4,
          can_match: Callable[[int, int], bool] | None = None) -> AlignmentResult:
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

    ``can_match(i, j)`` may return False only when ``sim(src[i], tgt[j])``
    is below ``match_floor(gap_cost)``.  The search then skips that match
    edge without scoring the cell.  The detour through (i + 1, j) costs two
    gaps, strictly less even after rounding, so the edge is on no optimal
    path and every node keeps its DP cost: links, gaps and total cost stay
    those of the full lattice.

    Node (i, j) is numbered ``i * (M + 1) + j``.  The best known cost of
    every node lives in one flat list ``dist`` indexed by node number, with
    ``inf`` for a node not reached yet; the heap holds ``(f, push counter,
    g, node)``.
    """
    _check_gap_cost(gap_cost)
    n, m = len(src), len(tgt)
    width = m + 1
    goal = n * width + m
    score, memo = _scorer(src, tgt, sim, can_match)
    heappush, heappop = heapq.heappush, heapq.heappop

    dist = [_INF] * (goal + 1)
    dist[0] = 0.0
    heap: list[tuple[float, int, float, int]] = [(abs(n - m) * gap_cost, 0, 0.0, 0)]
    counter = 1
    bound: float | None = None
    pops = 0
    while heap:
        f, _, g, node = heappop(heap)
        pops += 1
        if g > dist[node]:
            continue  # superseded by a cheaper path
        if bound is not None and f > bound:
            break
        if node == goal:
            bound = g + 1e-9 * (1.0 + g)
            continue
        i, j = divmod(node, width)
        skew = (n - i) - (m - j)  # the heuristic is abs(skew) * gap_cost
        if i < n:
            if j < m:
                value = score(i, j)
                if value is not None:
                    tentative = g + (1.0 - value)
                    if tentative < dist[node + width + 1]:
                        dist[node + width + 1] = tentative
                        heappush(heap, (tentative + abs(skew) * gap_cost, counter,
                                        tentative, node + width + 1))
                        counter += 1
            tentative = g + gap_cost
            if tentative < dist[node + width]:
                dist[node + width] = tentative
                heappush(heap, (tentative + abs(skew - 1) * gap_cost, counter,
                                tentative, node + width))
                counter += 1
        if j < m:
            tentative = g + gap_cost
            if tentative < dist[node + 1]:
                dist[node + 1] = tentative
                heappush(heap, (tentative + abs(skew + 1) * gap_cost, counter,
                                tentative, node + 1))
                counter += 1

    def cost_at(i: int, j: int) -> float | None:
        cost = dist[i * width + j]
        return None if cost == _INF else cost

    result = _backtrack(n, m, gap_cost, score, memo, cost_at)
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
    score, memo = _scorer(src, tgt, sim, None)

    table = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        table[i][0] = table[i - 1][0] + gap_cost
    for j in range(1, m + 1):
        table[0][j] = table[0][j - 1] + gap_cost
    for i in range(1, n + 1):
        row, above = table[i], table[i - 1]
        for j in range(1, m + 1):
            row[j] = min(above[j - 1] + (1.0 - score(i - 1, j - 1)),
                         above[j] + gap_cost,
                         row[j - 1] + gap_cost)

    return _backtrack(n, m, gap_cost, score, memo, lambda i, j: table[i][j])


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
