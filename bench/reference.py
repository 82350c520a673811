"""Fixed reference work that measures the host's current speed.

The benchmark alternates pipeline repetitions with runs of this script, each
in a fresh interpreter, and scales its timings by the reference's median
time in the same run.  On a shared host the same pure-Python work can run
50% slower for minutes at a time; the pipeline and the reference slow down
together, so their ratio stays steady while either alone drifts.  The work
never changes with the program under test: it does not import ``bimine``.

    python3 bench/reference.py      # prints {"reference_s": ...}
"""

from __future__ import annotations

import heapq
import json
import random
import re
from time import perf_counter

_TOKEN = re.compile(r"\w+|[^\w\s]")


def reference_work(scale: int = 8) -> int:
    """Regex tokenizing, dict counting, word edit distance, a bounded heap
    and JSON round trips: the kinds of work the pipeline does."""
    rng = random.Random(12345)
    words = ["".join(rng.choice("abcdefghij") for _ in range(rng.randint(3, 8)))
             for _ in range(400)]
    text = " ".join(rng.choice(words) + ("." if rng.random() < 0.1 else "")
                    for _ in range(20000 * scale))
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(text):
        counts[token] = counts.get(token, 0) + 1
    sentences = [tuple(rng.choice(words) for _ in range(rng.randint(4, 9)))
                 for _ in range(260 * scale)]
    total = 0
    for s1, s2 in zip(sentences, sentences[1:]):
        prev = list(range(len(s2) + 1))
        for i, x in enumerate(s1, 1):
            cur = [i]
            for j, y in enumerate(s2, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
            prev = cur
        total += prev[-1]
    heap: list[tuple[int, int]] = []
    for i in range(60000 * scale):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 500:
            heapq.heappop(heap)
    blob = json.dumps({"counts": counts, "sentences": sentences[:2000]})
    for _ in range(20 * scale):
        json.loads(blob)
    return total + len(heap)


if __name__ == "__main__":
    started = perf_counter()
    reference_work()
    print(json.dumps({"reference_s": perf_counter() - started}))
