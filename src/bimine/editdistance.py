"""Exact word-level Levenshtein distance, bit-parallel.

Each token is one symbol.  The reference side becomes a table of bitmasks,
one per distinct token, with bit j set where the token occurs; the dynamic
programming column over the reference is then held as two bit vectors of
vertical deltas (+1 and -1) plus the score in its last cell, and one
hypothesis token advances the whole column in a fixed number of integer
operations (Myers 1999, "A fast bit-vector algorithm for approximate string
matching based on dynamic programming", in the formulation of Hyyrö 2001).
The top cell of every column grows by one per token, as in the global
distance, so a 1 is carried into the horizontal +1 vector at each step.
Python integers have no width limit, so references of any length work.

A ``(vp, vn, score)`` state after a hypothesis prefix can be kept and fed
different continuations; TER's shift search scores its candidates that way.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

State = tuple[int, int, int]


class Pattern:
    """A reference sequence prepared for distance computations against it."""

    __slots__ = ("masks", "length", "start")

    def __init__(self, reference: Sequence[str]):
        masks: dict[str, int] = {}
        for j, token in enumerate(reference):
            masks[token] = masks.get(token, 0) | (1 << j)
        self.masks = masks
        self.length = len(reference)
        # the column before any hypothesis token: 0, 1, ..., len(reference)
        self.start: State = ((1 << self.length) - 1, 0, self.length)

    def feed(self, state: State, tokens: Sequence[str]) -> State:
        """The state after the tokens were appended to the hypothesis whose
        state is ``state``; its score is their distance to the reference."""
        vp, vn, score = state
        m = self.length
        if m == 0:
            return vp, vn, score + len(tokens)
        full = (1 << m) - 1
        last = 1 << (m - 1)
        masks = self.masks
        for token in tokens:
            eq = masks.get(token, 0)
            d0 = (((eq & vp) + vp) ^ vp) | eq | vn
            hp = vn | (full & ~(d0 | vp))
            hn = vp & d0
            if hp & last:
                score += 1
            elif hn & last:
                score -= 1
            hp = (hp << 1) | 1
            hn <<= 1
            vp = (hn | ~(d0 | hp)) & full
            vn = hp & d0 & full
        return vp, vn, score

    def distance(self, hypothesis: Sequence[str]) -> int:
        return self.feed(self.start, hypothesis)[2]


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimal insert/delete/substitute count treating each token as a symbol."""
    if len(a) > len(b):  # fewer steps over the longer bit vectors
        a, b = b, a
    return Pattern(b).distance(a)


def token_bag_bound(bag1: Counter, bag2: Counter, longer: int) -> int:
    """Lower bound on the Levenshtein distance of two sequences given their
    token bags and ``longer``, the length of the longer sequence.

    An alignment matches at most the multiset intersection of the tokens, and
    every unmatched token of the longer sequence costs one edit.
    """
    shared = sum(min(k, bag2[tok]) for tok, k in bag1.items() if tok in bag2)
    return longer - shared
