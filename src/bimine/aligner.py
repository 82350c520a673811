"""Optimal monotone 1-1 sentence alignment with gaps.

The lattice node (i, j) means i source and j target sentences consumed.
Matching sentence i with sentence j costs ``1 - sim(i, j)``; skipping a
sentence on either side costs ``gap_cost``.  ``align_bruteforce`` fills the
full dynamic-programming table and is kept as the exact oracle.

A caller may also pass ``can_match(i, j)``, a cheap predicate that is False
only where ``sim(i, j)`` is provably below ``match_floor(gap_cost)``.  Such
a match edge costs more than the two gaps around it by more than any float
rounding, so no optimal path uses it and dropping it leaves every DP value
unchanged; ``align`` never scores those cells.

``align`` runs the oracle's recurrence (Gale & Church 1993) row by row, but
only over the nodes that can still lie on a path no dearer than a known one
(a cost cutoff, as in Ukkonen 1985).  A cheap walk down the rows links
likely matches and prices that real path; a node enters the DP only while
its cost plus a lower bound on the rest stays within that price.  On a pair
with parallel text the cutoff leaves a narrow band around the optimal path;
on an unrelated pair it admits nearly every node.

Both searches share the cost arithmetic and the backtracking rule (prefer
match, then source gap, then target gap), so they return identical costs
and identical link sets.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence

from .corpus_io import BiSentence, Sentence


class AlignmentResult:
    def __init__(self, links: list[tuple[int, int, float]], gaps_src: set[int],
                 gaps_tgt: set[int], total_cost: float) -> None:
        self.links = links
        self.gaps_src = gaps_src
        self.gaps_tgt = gaps_tgt
        self.total_cost = total_cost
        self.cells_scored = 0  # lattice cells whose similarity was computed
        self.nodes = 0  # lattice nodes whose cost was computed
        self.cells_pruned = 0  # match edges dropped because can_match ruled them out


def match_floor(gap_cost: float) -> float:
    """The similarity below which a match edge may be dropped: it then costs
    more than two gaps by a margin (1e-9) far above the rounding of any
    path cost."""
    return 1.0 - 2.0 * gap_cost - 1e-9


_INF = float("inf")
_WALK_REACH = 24  # the walk looks at most this many columns either side of the expected one


def _scorer(src: Sequence, tgt: Sequence, sim: Callable[[object, object], float],
            can_match: Callable[[int, int], bool] | None):
    """A memoized ``score(i, j)``: the clamped similarity of cell (i, j),
    computed at most once, or None for a cell ``can_match`` rules out, which
    is never scored.  Cell ``i * len(tgt) + j`` has one state byte (unseen,
    ruled out or scored); only scored cells keep a value.  Also returns
    ``tally()``, the counts of scored and ruled-out cells."""
    m = len(tgt)
    state = bytearray(len(src) * m)  # 0 unseen, 1 ruled out, 2 scored
    scores: dict[int, float] = {}
    pruned = 0

    def score(i: int, j: int) -> float | None:
        nonlocal pruned
        cell = i * m + j
        seen = state[cell]
        if seen:
            return scores[cell] if seen == 2 else None
        if can_match is not None and not can_match(i, j):
            state[cell] = 1
            pruned += 1
            return None
        value = sim(src[i], tgt[j])
        value = 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)
        state[cell] = 2
        scores[cell] = value
        return value

    def tally() -> tuple[int, int]:
        return len(scores), pruned

    return score, tally


def _check_gap_cost(gap_cost: float) -> None:
    if not 0.0 < gap_cost <= 0.5:
        raise ValueError(f"gap_cost must be in (0, 0.5], got {gap_cost}")


def _backtrack(n: int, m: int, gap_cost: float,
               score: Callable[[int, int], float | None], tally: Callable[[], tuple[int, int]],
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
    result = AlignmentResult([], set(), set(), total)
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
    result.cells_scored, result.cells_pruned = tally()
    return result


def _walk_bound(n: int, m: int, gap_cost: float,
                score: Callable[[int, int], float | None]) -> float:
    """The cost of one real path through the lattice, found by a walk down
    the rows: an upper bound on the optimum.

    Each row links its highest-scoring cell above ``match_floor(gap_cost)``
    within ``2 + misses`` columns (at most ``_WALK_REACH``) of the expected
    column, right of the last link; ``misses`` counts the rows since that
    link.  The expected column moves on by the slope ``m / n`` every row
    (at first along the scaled diagonal ``j = i * m / n``) and restarts from
    each link, so the walk follows parallel text as it drifts and widens its
    reach to find text again after an insertion.  The path is the links and
    the gaps between them.
    """
    floor = match_floor(gap_cost)
    slope = m / n if n else 0.0
    expected = 0.0
    last_i = last_j = -1
    misses = 0
    cost = 0.0
    for i in range(n):
        centre = int(expected + 0.5)
        reach = min(2 + misses, _WALK_REACH)
        linked, best = -1, floor
        for j in range(max(centre - reach, last_j + 1), min(centre + reach + 1, m)):
            value = score(i, j)
            if value is not None and value > best:
                linked, best = j, value
        if linked < 0:
            misses += 1
            expected += slope
            continue
        cost += (i - last_i - 1 + linked - last_j - 1) * gap_cost + (1.0 - best)
        last_i, last_j = i, linked
        misses = 0
        expected = linked + slope
    return cost + (n - last_i - 1 + m - last_j - 1) * gap_cost


def align(src: Sequence, tgt: Sequence, sim: Callable[[object, object], float],
          gap_cost: float = 0.4,
          can_match: Callable[[int, int], bool] | None = None) -> AlignmentResult:
    """The minimum-cost monotone alignment, equal to ``align_bruteforce``'s
    bit for bit.

    ``_walk_bound`` prices a real path at ``U``.  The DP then runs row by
    row over the nodes with ``cost + h <= U + 1e-9 * (1 + U)``, where
    ``h(i, j) = |(N - i) - (M - j)| * gap_cost`` counts the gap moves the
    longer remaining side cannot avoid.  Each row starts at the previous
    row's first admitted column; past the previous row's last admitted
    column only gap moves from the left arrive, so the row stops at its
    first excluded node.  ``h`` is consistent, so every node on an optimal
    path, and every predecessor ``_backtrack`` compares with one, has
    ``cost + h`` at most the optimum and holds the oracle's float; any other
    node is computed over fewer edges, so its cost is no lower than the
    oracle's and ``_backtrack`` picks the same predecessor.  The slack
    covers float rounding; ``U`` decides only how much of the lattice is
    computed, never the result.

    As in the oracle, the match edge into a node is scored only where
    ``diag < min(up, left) + gap_cost``: elsewhere even a perfect match
    costs no less than a gap, and the minimum is the gap move's float.

    ``can_match(i, j)`` may return False only when ``sim(src[i], tgt[j])``
    is below ``match_floor(gap_cost)``.  The search then skips that match
    edge without scoring the cell.  The detour through (i + 1, j) costs two
    gaps, strictly less even after rounding, so the edge is on no optimal
    path and every node keeps its DP cost: links, gaps and total cost stay
    those of the full lattice.

    Each row's admitted span is packed as C doubles into one ``bytearray``:
    a quarter of the memory of a list, which holds a pointer and a float
    object per node.  (An ``array('d')`` would do the same, but on CPython
    3.11 importing ``array`` alone added 0.2 MiB to the benchmark's peak
    memory.)
    """
    _check_gap_cost(gap_cost)
    n, m = len(src), len(tgt)
    score, tally = _scorer(src, tgt, sim, can_match)
    walk = _walk_bound(n, m, gap_cost, score)
    bound = walk + 1e-9 * (1.0 + walk)
    # node (i, j) is admitted while its cost is at most limits[n - i + j]
    limits = [bound - abs(k) * gap_cost for k in range(-m, n + 1)]
    inf = _INF
    costs = bytearray()
    spans = []  # row i: (first admitted column, last one, index of its node 0 in costs)
    nodes = 0
    above: list[float] = []  # the previous row's costs, from its first admitted column
    lo = 0
    for i in range(n + 1):
        shift = n - i
        if i == 0:
            row, left, j = [0.0], 0.0, 1
        else:
            row, left, diag = [], inf, inf
            append = row.append
            end = lo + len(above)
            if end <= m:
                above.append(inf)  # the column after the last admitted one
                end += 1
            for j, up, limit in zip(range(lo, end), above, limits[shift + lo:shift + end]):
                best = (up if up < left else left) + gap_cost
                if diag < best:
                    value = score(i - 1, j - 1)
                    if value is not None:
                        match = diag + (1.0 - value)
                        if match < best:
                            best = match
                if best > limit:
                    best = inf
                append(best)
                left = best
                diag = up
            j = end
        while j <= m:
            best = left + gap_cost
            if best > limits[shift + j]:
                nodes += 1
                break
            row.append(best)
            left = best
            j += 1
        nodes += len(row)
        first, last = 0, len(row) - 1
        while first <= last and row[first] == inf:
            first += 1
        while last > first and row[last] == inf:
            last -= 1
        if first or last < len(row) - 1:
            row = row[first:last + 1]
        lo += first
        spans.append((lo, lo + len(row) - 1, len(costs) // 8 - lo))
        costs += struct.pack(f"{len(row)}d", *row)
        above = row
    table = memoryview(costs).cast("d")

    def cost_at(i: int, j: int) -> float | None:
        first, last, offset = spans[i]
        if first <= j <= last:
            cost = table[offset + j]
            if cost != inf:
                return cost
        return None

    result = _backtrack(n, m, gap_cost, score, tally, cost_at)
    result.nodes = nodes
    return result


def align_bruteforce(src: Sequence, tgt: Sequence,
                     sim: Callable[[object, object], float],
                     gap_cost: float = 0.4) -> AlignmentResult:
    """Full-lattice dynamic program; the classical method, kept as oracle."""
    _check_gap_cost(gap_cost)
    n, m = len(src), len(tgt)
    if n * m > 10_000:
        raise ValueError(f"brute-force guard: {n} x {m} lattice exceeds 10000 cells")
    score, tally = _scorer(src, tgt, sim, None)

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

    result = _backtrack(n, m, gap_cost, score, tally, lambda i, j: table[i][j])
    result.nodes = (n + 1) * (m + 1)
    return result


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
