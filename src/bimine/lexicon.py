"""Probabilistic word-translation lexicon trained by expectation-maximization.

The table stores t(target | source) for single tokens, normalized per source
token, and backs both the sentence-pair similarity features and word-by-word
gloss translation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .corpus_io import BitextCorpus, in_range, iter_tsv, tokenize


class TranslationLexicon:
    """source token -> [(target token, probability), ...] sorted by -prob."""

    def __init__(self, entries: dict[str, list[tuple[str, float]]]) -> None:
        self.entries = entries
        # log-likelihood of the parameters entering each EM round, oldest first;
        # the lexicon stage records it in its manifest, the lexicon file does not
        self.iteration_log_likelihood: list[float] = []
        # co-occurring (source, target) cells each EM round updates
        self.cells = 0

    def __len__(self) -> int:
        return len(self.entries)


def _token_pairs(seed: BitextCorpus) -> Iterator[tuple[list[str], list[str]]]:
    """The tokenized pairs with tokens on both sides, one at a time."""
    for bs in seed.pairs:
        src = tokenize(bs.src)
        tgt = tokenize(bs.tgt)
        if src and tgt:
            yield src, tgt


def train_lexicon(seed: BitextCorpus, iterations: int,
                  prune_below: float) -> TranslationLexicon:
    """Estimate t(target|source) by EM over tokenized sentence pairs.

    Starts from a uniform distribution over co-occurring target tokens and
    runs ``iterations`` EM rounds; corpus log-likelihood is non-decreasing
    across rounds.  Entries below ``prune_below`` are dropped afterwards
    and each row renormalized.
    """
    in_range("iterations", iterations)
    in_range("prune_below", prune_below)
    if not seed.pairs:
        raise ValueError("seed corpus is empty")

    # number each co-occurring (source, target) cell once, in the (pair, t,
    # s) order in which an EM round adds to the counts; a row is numbered
    # when its source token is first seen
    row_ids: dict[str, int] = {}
    row_cells: list[dict[str, int]] = []  # row -> {target: cell}
    cell_row: list[int] = []
    cell_target: list[str] = []
    # per pair: log of the source length, the source length n and one flat
    # tuple holding, per target token, the cells of the n source tokens
    # (repeated tokens repeat their cell).  One tuple per target token
    # instead would park thousands of small tuples on CPython's tuple free
    # lists after training, memory the later stages cannot reuse.
    plan = []
    for src, tgt in _token_pairs(seed):
        rows = []
        for s in src:
            r = row_ids.get(s)
            if r is None:
                r = row_ids[s] = len(row_cells)
                row_cells.append({})
            rows.append(r)
        cells = []
        for t in tgt:
            for r in rows:
                cell = row_cells[r].get(t)
                if cell is None:
                    cell = row_cells[r][t] = len(cell_row)
                    cell_row.append(r)
                    cell_target.append(t)
                cells.append(cell)
        plan.append((math.log(len(src)), len(src), tuple(cells)))
    if not plan:
        raise ValueError("seed corpus has no pair with tokens on both sides")
    sources = list(row_ids)
    # uniform init over each source's co-occurring targets
    table = [1.0 / len(row_cells[r]) for r in cell_row]
    del row_ids, row_cells

    log = math.log
    likelihoods = []
    for _ in range(iterations):
        counts = [0.0] * len(table)
        totals = [0.0] * len(sources)
        ll = 0.0
        for log_len, n, pair_cells in plan:
            for k in range(0, len(pair_cells), n):
                cells = pair_cells[k:k + n]
                z = 0.0
                for c in cells:
                    z += table[c]
                ll += log(z) - log_len
                for c in cells:
                    frac = table[c] / z
                    counts[c] += frac
                    totals[cell_row[c]] += frac
        likelihoods.append(ll)
        table = [c / totals[r] for c, r in zip(counts, cell_row)]

    # _finalize sums each row in order, so rows keep the source order and
    # each row its cell order
    rows_out: list[dict[str, float]] = [{} for _ in sources]
    for p, r, t in zip(table, cell_row, cell_target):
        rows_out[r][t] = p
    lex = _finalize(dict(zip(sources, rows_out)), prune_below)
    lex.iteration_log_likelihood = likelihoods
    lex.cells = len(table)
    return lex


def _finalize(table: dict[str, dict[str, float]], prune_below: float,
              ) -> TranslationLexicon:
    entries: dict[str, list[tuple[str, float]]] = {}
    for s, row in table.items():
        kept = {t: p for t, p in row.items() if p >= prune_below}
        if not kept:
            # keep the single best translation rather than losing the word
            best = max(row.items(), key=lambda tp: (tp[1], tp[0]))
            kept = {best[0]: best[1]}
        mass = sum(kept.values())
        entries[s] = sorted(((t, p / mass) for t, p in kept.items()),
                            key=lambda tp: (-tp[1], tp[0]))
    return TranslationLexicon(entries=entries)


# what gloss_translate emits for a token the lexicon does not know
UNKNOWN = "unknown"


def _passthrough(token: str) -> bool:
    # an all-letter token skips the per-character scan
    return not token.isalpha() and not any(ch.isalpha() for ch in token)


def gloss_translate(lex: TranslationLexicon, tokens: Sequence[str]) -> list[str]:
    """Word-by-word translation: argmax entry per token.

    Punctuation and digit tokens pass through untouched; tokens without a
    lexicon entry become ``UNKNOWN``.  Output length equals input length.
    """
    out = []
    for token in tokens:
        if _passthrough(token):
            out.append(token)
            continue
        entry = lex.entries.get(token)
        out.append(entry[0][0] if entry else UNKNOWN)
    return out


def lexicon_text(lex: TranslationLexicon) -> str:
    """The lexicon file's text: TSV ``source<TAB>target<TAB>prob`` lines
    sorted by (source, -prob); a model's lexicon checksum hashes it."""
    return "".join(f"{s}\t{t}\t{p:.12g}\n" for s in sorted(lex.entries)
                   for t, p in lex.entries[s])


def write_lexicon(path, lex: TranslationLexicon) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lexicon_text(lex))


def _entry(cols):
    try:
        prob = float(cols[2])
    except ValueError as exc:
        raise ValueError(f"bad probability: {exc}") from None
    if not 0.0 < prob <= 1.0:  # NaN fails this test too
        raise ValueError(f"probability {cols[2]} is not in (0, 1]")
    return cols[0], cols[1], prob


def read_lexicon(path) -> TranslationLexicon:
    entries: dict[str, list[tuple[str, float]]] = {}
    for s, t, prob in iter_tsv(path, 3, _entry):
        entries.setdefault(s, []).append((t, prob))
    for s in entries:
        entries[s].sort(key=lambda tp: (-tp[1], tp[0]))
    return TranslationLexicon(entries=entries)
