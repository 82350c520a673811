import random

import pytest
from hypothesis import given, settings, strategies as st

from bimine.aligner import (AlignmentResult, align, align_bruteforce, match_floor,
                            threshold_filter)
from bimine.corpus_io import Sentence


def _sentences(texts):
    return [Sentence(t, tuple(t.lower().split()), i) for i, t in enumerate(texts)]


def _equal_text_sim(a, b):
    return 1.0 if a.text == b.text else 0.0


def _random_instance(rng, max_side=12):
    n, m = rng.randint(0, max_side), rng.randint(0, max_side)
    matrix = [[rng.random() for _ in range(m)] for _ in range(n)]
    return list(range(n)), list(range(m)), lambda a, b: matrix[a][b]


# ---------------------------------------------------------------------------
# basic behavior

def test_identical_documents_align_diagonally():
    docs = _sentences(["A one.", "B two.", "C three.", "D four.", "E five."])
    result = align(docs, docs, _equal_text_sim, 0.4)
    assert [(i, j) for i, j, _ in result.links] == [(i, i) for i in range(5)]
    assert result.total_cost == 0.0
    assert result.gaps_src == set() and result.gaps_tgt == set()


def test_inserted_sentence_becomes_target_gap():
    src = _sentences(["A.", "B.", "C.", "D."])
    tgt = _sentences(["A.", "B.", "X.", "C.", "D."])
    result = align(src, tgt, _equal_text_sim, 0.4)
    oracle = align_bruteforce(src, tgt, _equal_text_sim, 0.4)
    assert result.links == oracle.links
    assert result.gaps_tgt == {2}
    assert result.gaps_src == set()
    assert [(i, j) for i, j, _ in result.links] == [(0, 0), (1, 1), (2, 3), (3, 4)]


def test_empty_side_all_gaps():
    result = align([], _sentences(["A.", "B.", "C."]), _equal_text_sim, 0.4)
    assert result.links == []
    assert result.gaps_tgt == {0, 1, 2}
    assert result.total_cost == pytest.approx(1.2)


def test_one_by_one_match_beats_gaps():
    result = align([0], [0], lambda a, b: 0.9, 0.4)
    assert [(i, j) for i, j, _ in result.links] == [(0, 0)]
    assert result.total_cost == pytest.approx(0.1)


def test_one_by_one_gaps_beat_poor_match():
    result = align([0], [0], lambda a, b: 0.1, 0.4)
    assert result.links == []
    assert result.total_cost == pytest.approx(0.8)


def test_gap_cost_validation():
    with pytest.raises(ValueError):
        align([0], [0], lambda a, b: 1.0, 0.0)
    with pytest.raises(ValueError):
        align([0], [0], lambda a, b: 1.0, 0.7)


def test_bruteforce_guard():
    with pytest.raises(ValueError, match="guard"):
        align_bruteforce(list(range(101)), list(range(101)), lambda a, b: 0.5)


# ---------------------------------------------------------------------------
# oracle equality and invariants

def test_oracle_equality_random_instances():
    rng = random.Random(7)
    for _ in range(400):
        src, tgt, sim = _random_instance(rng)
        gap = rng.choice([0.2, 0.4, 0.5])
        fast = align(src, tgt, sim, gap)
        slow = align_bruteforce(src, tgt, sim, gap)
        assert fast.total_cost == slow.total_cost
        assert fast.links == slow.links
        assert fast.gaps_src == slow.gaps_src
        assert fast.gaps_tgt == slow.gaps_tgt


def _check_structure(result: AlignmentResult, n, m):
    linked_src = [i for i, _, _ in result.links]
    linked_tgt = [j for _, j, _ in result.links]
    # strictly increasing on both sides: monotone, non-crossing, 1-1
    assert linked_src == sorted(set(linked_src))
    assert linked_tgt == sorted(set(linked_tgt))
    assert set(linked_src) | result.gaps_src == set(range(n))
    assert set(linked_src) & result.gaps_src == set()
    assert set(linked_tgt) | result.gaps_tgt == set(range(m))
    assert set(linked_tgt) & result.gaps_tgt == set()


def test_non_crossing_and_partition_invariants():
    rng = random.Random(11)
    for _ in range(200):
        src, tgt, sim = _random_instance(rng)
        result = align(src, tgt, sim, 0.4)
        _check_structure(result, len(src), len(tgt))


def test_heuristic_admissible_against_suffix_dp():
    # h(i,j) must never exceed the true remaining cost, for every lattice node
    rng = random.Random(13)
    for _ in range(50):
        src, tgt, sim = _random_instance(rng, max_side=9)
        n, m = len(src), len(tgt)
        gap = rng.choice([0.2, 0.4, 0.5])
        remaining = [[0.0] * (m + 1) for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            remaining[i][m] = remaining[i + 1][m] + gap
        for j in range(m - 1, -1, -1):
            remaining[n][j] = remaining[n][j + 1] + gap
        for i in range(n - 1, -1, -1):
            for j in range(m - 1, -1, -1):
                remaining[i][j] = min(
                    remaining[i + 1][j + 1] + (1.0 - sim(i, j)),
                    remaining[i + 1][j] + gap,
                    remaining[i][j + 1] + gap)
        for i in range(n + 1):
            for j in range(m + 1):
                h = abs((n - i) - (m - j)) * gap
                assert h <= remaining[i][j] + 1e-12


def test_similarity_memoized_once_per_node():
    calls = {}

    def counting_sim(a, b):
        calls[(a, b)] = calls.get((a, b), 0) + 1
        return 0.5

    result = align(list(range(8)), list(range(8)), counting_sim, 0.4)
    assert all(count == 1 for count in calls.values())
    assert len(calls) <= 64
    assert result.cells_scored == len(calls)
    assert 9 <= result.nodes <= 81  # the diagonal, goal included
    oracle = align_bruteforce(list(range(8)), list(range(8)), counting_sim, 0.4)
    assert oracle.cells_scored == 64
    assert oracle.nodes == 81  # the full table


def test_astar_explores_less_than_full_lattice():
    calls = []

    def sim(a, b):
        calls.append((a, b))
        return 1.0 if a == b else 0.0

    n = 30
    align(list(range(n)), list(range(n)), sim, 0.4)
    assert len(calls) < n * n / 2


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2 ** 30))
def test_oracle_equality_property(n, m, seed):
    rng = random.Random(seed)
    matrix = [[rng.random() for _ in range(m)] for _ in range(n)]
    sim = lambda a, b: matrix[a][b]
    gap = rng.choice([0.2, 0.4, 0.5])
    fast = align(list(range(n)), list(range(m)), sim, gap)
    slow = align_bruteforce(list(range(n)), list(range(m)), sim, gap)
    assert fast.total_cost == slow.total_cost
    assert fast.links == slow.links


# ---------------------------------------------------------------------------
# match edges skipped by can_match

def _pruned_align(n, m, sim, gap, upper):
    """align with can_match built from ``upper``, an upper bound of ``sim``;
    the scorer raises on a cell the predicate rules out."""
    floor = match_floor(gap)

    def guarded(a, b):
        if upper[a][b] < floor:
            raise AssertionError(f"scored the pruned cell {(a, b)}")
        return sim(a, b)

    return align(list(range(n)), list(range(m)), guarded, gap,
                 lambda i, j: upper[i][j] >= floor)


def test_pruned_align_equals_bruteforce_on_acceptance_instances():
    from test_acceptance import _random_alignments

    rng = random.Random(17)
    pruned = 0
    for n, m, sim, gap in _random_alignments():
        # a bound that is sometimes exact and sometimes loose by up to 0.3
        upper = [[sim(a, b) + rng.choice((0.0, 0.3 * rng.random())) for b in range(m)]
                 for a in range(n)]
        fast = _pruned_align(n, m, sim, gap, upper)
        slow = align_bruteforce(list(range(n)), list(range(m)), sim, gap)
        assert fast.total_cost == slow.total_cost
        assert fast.links == slow.links
        assert fast.gaps_src == slow.gaps_src
        assert fast.gaps_tgt == slow.gaps_tgt
        assert fast.cells_scored + fast.cells_pruned <= n * m
        pruned += fast.cells_pruned
    assert pruned > 5_000


# scores at and just below the pruning floor of gap costs 0.2 and 0.4, where a
# match and two gaps tie or nearly tie
_EDGE_SCORES = [0.0, 0.2, 0.2 - 1e-9, 0.2 - 2e-9, 0.6, 0.6 - 2e-9, 0.9, 1.0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.sampled_from([0.2, 0.4]),
       st.data())
def test_pruned_align_equals_bruteforce_at_the_floor(n, m, gap, data):
    matrix = [[data.draw(st.sampled_from(_EDGE_SCORES)) for _ in range(m)]
              for _ in range(n)]
    sim = lambda a, b: matrix[a][b]
    fast = _pruned_align(n, m, sim, gap, matrix)
    slow = align_bruteforce(list(range(n)), list(range(m)), sim, gap)
    assert fast.total_cost == slow.total_cost
    assert fast.links == slow.links
    assert (fast.gaps_src, fast.gaps_tgt) == (slow.gaps_src, slow.gaps_tgt)


def test_match_floor_leaves_a_margin_below_two_gaps():
    assert match_floor(0.4) < 1.0 - 2 * 0.4
    assert match_floor(0.5) < 0.0  # nothing is provably worse than two free gaps


# ---------------------------------------------------------------------------
# the cost cutoff: the whole lattice on unrelated pairs, a band on parallel text

def _same_as_oracle(fast, slow):
    assert fast.total_cost.hex() == slow.total_cost.hex()
    assert fast.links == slow.links
    assert (fast.gaps_src, fast.gaps_tgt) == (slow.gaps_src, slow.gaps_tgt)


def _bound_predicate(sim, gap, upper):
    """A can_match built from ``upper``, an upper bound of ``sim``, and a
    scorer that raises on a cell the predicate rules out."""
    floor = match_floor(gap)

    def guarded(a, b):
        if upper[a][b] < floor:
            raise AssertionError(f"scored the pruned cell {(a, b)}")
        return sim(a, b)

    return guarded, lambda i, j: upper[i][j] >= floor


def test_align_equals_bruteforce_bit_for_bit_on_acceptance_instances():
    from test_acceptance import _random_alignments

    rng = random.Random(19)
    pruned = 0
    for n, m, sim, gap in _random_alignments():
        src, tgt = list(range(n)), list(range(m))
        slow = align_bruteforce(src, tgt, sim, gap)
        plain = align(src, tgt, sim, gap)
        _same_as_oracle(plain, slow)
        assert plain.cells_pruned == 0
        assert 0 < plain.nodes <= (n + 1) * (m + 1)
        upper = [[sim(a, b) + rng.choice((0.0, 0.3 * rng.random())) for b in range(m)]
                 for a in range(n)]
        guarded, can_match = _bound_predicate(sim, gap, upper)
        fast = align(src, tgt, guarded, gap, can_match)
        _same_as_oracle(fast, slow)
        assert fast.cells_scored + fast.cells_pruned <= n * m
        pruned += fast.cells_pruned
    assert pruned > 5_000


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.sampled_from([0.2, 0.4]),
       st.data())
def test_align_equals_bruteforce_bit_for_bit_at_the_floor(n, m, gap, data):
    matrix = [[data.draw(st.sampled_from(_EDGE_SCORES)) for _ in range(m)]
              for _ in range(n)]
    sim = lambda a, b: matrix[a][b]
    guarded, can_match = _bound_predicate(sim, gap, matrix)
    fast = align(list(range(n)), list(range(m)), guarded, gap, can_match)
    _same_as_oracle(fast, align_bruteforce(list(range(n)), list(range(m)), sim, gap))


def test_align_mines_a_low_score_pair_with_the_dp():
    # scores below the floor of gap cost 0.4 except for a few scattered
    # cells; the 100 x 100 lattice fits under the oracle's guard
    rng = random.Random(23)
    n = m = 100
    matrix = [[rng.uniform(0.0, 0.19) for _ in range(m)] for _ in range(n)]
    for _ in range(40):
        matrix[rng.randrange(n)][rng.randrange(m)] = rng.uniform(0.5, 1.0)
    sim = lambda a, b: matrix[a][b]
    guarded, can_match = _bound_predicate(sim, 0.4, matrix)
    fast = align(list(range(n)), list(range(m)), guarded, 0.4, can_match)
    # no path is much cheaper than all gaps, so the cutoff admits nearly
    # every node
    assert fast.nodes > 0.9 * (n + 1) * (m + 1)
    _same_as_oracle(fast, align_bruteforce(list(range(n)), list(range(m)), sim, 0.4))
    assert fast.links
    assert fast.cells_scored <= sum(can_match(i, j) for i in range(n) for j in range(m))


def test_align_follows_drifting_parallel_text():
    # a target sentence inserted before every fifth source sentence of the
    # first half, and every fifth source sentence of the second half
    # dropped: the links drift up to 30 columns off the scaled diagonal, one
    # column at a time, and the walk follows them
    path, j = [], 0
    for i in range(300):
        if i % 5 == 0:
            if i >= 150:
                continue
            j += 1
        path.append((i, j))
        j += 1
    n, m = 300, j
    links = set(path)
    assert sum(1 for a, b in path if abs(b - a * m // n) <= 2) < n / 3
    sim = lambda a, b: 0.9 if (a, b) in links else 0.0
    can_match = lambda a, b: (a, b) in links
    result = align(list(range(n)), list(range(m)), sim, 0.4, can_match)
    assert [(a, b) for a, b, _ in result.links] == path
    assert result.nodes < (n + 1) * (m + 1) / 3


def test_align_follows_a_twenty_column_jump():
    # 20 target sentences inserted after source sentence 74: the walk loses
    # the links, widens its reach row by row and finds them again, so the
    # cutoff still leaves a band, not the whole lattice
    n = 300
    path = [(i, i if i < 75 else i + 20) for i in range(n)]
    m = n + 20
    links = set(path)
    sim = lambda a, b: 0.9 if (a, b) in links else 0.0
    result = align(list(range(n)), list(range(m)), sim, 0.4, lambda a, b: (a, b) in links)
    assert [(a, b) for a, b, _ in result.links] == path
    assert result.gaps_tgt == set(range(75, 95))
    assert result.nodes < (n + 1) * (m + 1) / 3


# ---------------------------------------------------------------------------
# threshold filtering

def _scored_result():
    src = _sentences(["A.", "B.", "C."])
    tgt = _sentences(["A.", "B.", "C."])
    result = AlignmentResult(
        links=[(0, 0, 0.9), (1, 1, 0.6), (2, 2, 0.3)],
        gaps_src=set(), gaps_tgt=set(), total_cost=0.0)
    return result, src, tgt


def test_threshold_zero_keeps_all():
    result, src, tgt = _scored_result()
    assert len(threshold_filter(result, 0.0, src, tgt)) == 3


def test_threshold_one_keeps_only_perfect():
    result, src, tgt = _scored_result()
    assert threshold_filter(result, 1.0, src, tgt) == []


def test_threshold_half_keeps_two():
    result, src, tgt = _scored_result()
    kept = threshold_filter(result, 0.5, src, tgt, article_id=4, direction="pl-en")
    assert len(kept) == 2
    assert kept[0].origin == (4, 0, 0, "pl-en")
    assert kept[0].src == "A." and kept[0].tgt == "A."


def test_threshold_monotonicity():
    result, src, tgt = _scored_result()
    previous = None
    for tau in [0.0, 0.3, 0.5, 0.8, 1.0]:
        kept = {(p.src, p.tgt) for p in threshold_filter(result, tau, src, tgt)}
        if previous is not None:
            assert kept <= previous
        previous = kept


def test_threshold_out_of_range():
    result, src, tgt = _scored_result()
    with pytest.raises(ValueError):
        threshold_filter(result, 1.5, src, tgt)
