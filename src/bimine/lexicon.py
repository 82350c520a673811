"""Probabilistic word-translation lexicon trained by expectation-maximization.

The table stores t(target | source) for single tokens, normalized per source
token, and backs both the sentence-pair similarity features and word-by-word
gloss translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .corpus_io import BitextCorpus, tokenize


@dataclass
class TranslationLexicon:
    """source token -> [(target token, probability), ...] sorted by -prob."""

    entries: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    src_lang: str = ""
    tgt_lang: str = ""
    # log-likelihood of the parameters entering each EM round, oldest first;
    # the lexicon stage records it in its manifest, the lexicon file does not
    iteration_log_likelihood: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def _token_pairs(seed: BitextCorpus) -> list[tuple[list[str], list[str]]]:
    pairs = []
    for bs in seed.pairs:
        src = tokenize(bs.src)
        tgt = tokenize(bs.tgt)
        if src and tgt:
            pairs.append((src, tgt))
    return pairs


def train_lexicon(seed: BitextCorpus, iterations: int = 10,
                  prune_below: float = 1e-4) -> TranslationLexicon:
    """Estimate t(target|source) by EM over tokenized sentence pairs.

    Starts from a uniform distribution over co-occurring target tokens and
    runs ``iterations`` EM rounds; corpus log-likelihood is non-decreasing
    across rounds.  Entries below ``prune_below`` are dropped afterwards
    and each row renormalized.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not seed.pairs:
        raise ValueError("seed corpus is empty")
    pairs = _token_pairs(seed)
    if not pairs:
        raise ValueError("seed corpus has no pair with tokens on both sides")

    # uniform init over co-occurring (source, target) pairs
    cooc: dict[str, dict[str, float]] = {}
    for src, tgt in pairs:
        for s in src:
            row = cooc.setdefault(s, {})
            for t in tgt:
                row.setdefault(t, 0.0)
    table: dict[str, dict[str, float]] = {}
    for s, row in cooc.items():
        u = 1.0 / len(row)
        table[s] = {t: u for t in row}

    likelihoods = []
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {s: {} for s in table}
        totals: dict[str, float] = {s: 0.0 for s in table}
        ll = 0.0
        for src, tgt in pairs:
            log_len = math.log(len(src))
            for t in tgt:
                z = 0.0
                for s in src:
                    z += table[s][t]
                ll += math.log(z) - log_len
                for s in src:
                    frac = table[s][t] / z
                    row = counts[s]
                    row[t] = row.get(t, 0.0) + frac
                    totals[s] += frac
        likelihoods.append(ll)
        for s, row in counts.items():
            total = totals[s]
            table[s] = {t: c / total for t, c in row.items()}

    lex = _finalize(table, prune_below, seed.src_lang, seed.tgt_lang)
    lex.iteration_log_likelihood = likelihoods
    return lex


def _finalize(table: dict[str, dict[str, float]], prune_below: float,
              src_lang: str, tgt_lang: str) -> TranslationLexicon:
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
    return TranslationLexicon(entries=entries, src_lang=src_lang, tgt_lang=tgt_lang)


# what gloss_translate emits for a token the lexicon does not know
UNKNOWN = "unknown"


def _passthrough(token: str) -> bool:
    return not any(ch.isalpha() for ch in token)


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


def write_lexicon(path, lex: TranslationLexicon) -> None:
    """TSV ``source<TAB>target<TAB>prob`` sorted by (source, -prob)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in sorted(lex.entries):
            for t, p in lex.entries[s]:
                fh.write(f"{s}\t{t}\t{p:.12g}\n")


def read_lexicon(path, src_lang: str = "", tgt_lang: str = "") -> TranslationLexicon:
    entries: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 columns")
            try:
                prob = float(cols[2])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad probability: {exc}") from None
            entries.setdefault(cols[0], []).append((cols[1], prob))
    for s in entries:
        entries[s].sort(key=lambda tp: (-tp[1], tp[0]))
    return TranslationLexicon(entries=entries, src_lang=src_lang, tgt_lang=tgt_lang)
