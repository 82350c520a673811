from hypothesis import example, given, settings, strategies as st

from bimine.editdistance import Pattern, levenshtein


def _dp_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


_TOKEN = st.sampled_from(["a", "b", "c", "ab", "zażółć", "日本", "語", "🙂", "Ω"])
# short sequences, and ones longer than 64 tokens whose bit vectors span more
# than one machine word
_SEQUENCE = st.one_of(st.lists(_TOKEN, max_size=10),
                      st.lists(_TOKEN, min_size=65, max_size=90))


@settings(max_examples=150, deadline=None)
@given(_SEQUENCE, _SEQUENCE)
@example([], [])
@example([], ["a"] * 70)
@example(["a"] * 70, [])
@example(["a"] * 70, ["a"] * 69 + ["b"])
@example(["a", "a", "b", "a"], ["b", "a", "a", "a"])
@example(["日本", "語"], ["語", "日本"])
def test_levenshtein_equals_dp(a, b):
    d = _dp_distance(a, b)
    assert levenshtein(a, b) == d
    assert levenshtein(b, a) == d


@settings(max_examples=100, deadline=None)
@given(_SEQUENCE, _SEQUENCE, st.integers(0, 90))
@example(["a"] * 70, ["a", "b"] * 35, 64)
def test_state_after_prefix_continues(a, b, split):
    # the state after a prefix, fed the rest, gives the whole distance; TER
    # scores its shift candidates this way
    pattern = Pattern(b)
    prefix = pattern.feed(pattern.start, a[:split])
    assert prefix[2] == _dp_distance(a[:split], b)
    assert pattern.feed(prefix, a[split:])[2] == _dp_distance(a, b)
