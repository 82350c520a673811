"""Noise filtering for bitext corpora.

Two layers: ``remove_trivial`` drops duplicates, very short lines and
letter-free lines; ``filter_corpus`` runs a cascade of increasingly
expensive translation-similarity checks.  Each pair's source is translated
into the target language (by default word-by-word with a lexicon) and the
translation is compared against the paired target, fastest comparison
first: a high score accepts the pair immediately, a very low score rejects
it, anything in between falls through to the next, slower stage.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .corpus_io import BiSentence, BitextCorpus, normalize_space, tokenize
from .lexicon import TranslationLexicon, gloss_translate

StemRules = Sequence[tuple[str, str]]

# simple English suffix stripper; identity rules guard -ss/-us words
DEFAULT_STEM_RULES: tuple[tuple[str, str], ...] = (
    ("sses", "ss"), ("ches", "ch"), ("shes", "sh"), ("xes", "x"),
    ("zes", "z"), ("ies", "y"), ("ss", "ss"), ("us", "us"), ("s", ""),
)

DEFAULT_STOP_WORDS: frozenset[str] = frozenset("""
a an the is are was were be been being it this that these those of in on at
to for with and or not as by from but so if then there here he she they we
you i his her their our your my me him them us do does did have has had
will would can could may might shall should
""".split())


@dataclass
class FilterReport:
    input_count: int = 0
    kept_count: int = 0
    rejected_count: int = 0
    rejections: dict[str, int] = field(default_factory=dict)

    def reject(self, rule: str) -> None:
        self.rejected_count += 1
        self.rejections[rule] = self.rejections.get(rule, 0) + 1

    def as_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "kept_count": self.kept_count,
            "rejected_count": self.rejected_count,
            "rejections": dict(sorted(self.rejections.items())),
        }


@dataclass
class CascadeConfig:
    """Ordered comparison stages plus the lexical resources they use."""

    stages: list[tuple[str, float, float]] = field(default_factory=lambda: [
        ("fast", 0.9, 0.2),
        ("stem", 0.8, 0.3),
        ("synonym", 0.7, 0.0),
    ])
    stop_words: frozenset[str] = DEFAULT_STOP_WORDS
    synonyms: Mapping[str, frozenset[str]] = field(default_factory=dict)
    stem_rules: StemRules = DEFAULT_STEM_RULES

    def __post_init__(self) -> None:
        for name, accept, reject in self.stages:
            if reject > accept:
                raise ValueError(
                    f"stage {name!r}: reject threshold {reject} exceeds accept {accept}")
            if name not in _STAGE_FUNCTIONS:
                raise ValueError(f"unknown cascade stage {name!r}")


# ---------------------------------------------------------------------------
# trivial filtering

def remove_trivial(corpus: BitextCorpus, min_chars: int = 10,
                   ) -> tuple[BitextCorpus, FilterReport]:
    """Drop duplicate pairs, pairs with a side under ``min_chars`` characters,
    and pairs where a side contains no letters."""
    report = FilterReport(input_count=len(corpus.pairs))
    kept: list[BiSentence] = []
    seen: set[tuple[str, str]] = set()
    for pair in corpus.pairs:
        key = (normalize_space(pair.src), normalize_space(pair.tgt))
        if key in seen:
            report.reject("duplicate")
            continue
        seen.add(key)
        if len(key[0]) < min_chars or len(key[1]) < min_chars:
            report.reject("short")
            continue
        if not any(ch.isalpha() for ch in pair.src) or \
           not any(ch.isalpha() for ch in pair.tgt):
            report.reject("non-letter")
            continue
        kept.append(pair)
        report.kept_count += 1
    return BitextCorpus(kept, corpus.src_lang, corpus.tgt_lang), report


# ---------------------------------------------------------------------------
# comparison functions

def stem(word: str, rules: StemRules = DEFAULT_STEM_RULES) -> str:
    """Strip the longest matching suffix rule once; never empties the word."""
    best: tuple[str, str] | None = None
    for suffix, repl in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl)
    if best is None:
        return word
    stemmed = word[: len(word) - len(best[0])] + best[1]
    return stemmed if stemmed else word


def _content_tokens(tokens: Sequence[str], stop_words: frozenset[str]) -> set[str]:
    out = set()
    for token in tokens:
        low = token.lower()
        if low in stop_words:
            continue
        # an all-alphanumeric token skips the per-character scan
        if not low.isalnum() and not any(ch.isalnum() for ch in low):
            continue
        out.add(low)
    return out


def _dice(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def similarity_fast(a_tokens: Sequence[str], b_tokens: Sequence[str],
                    stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> float:
    """Dice coefficient over content-token sets after stop-word removal."""
    return _dice(_content_tokens(a_tokens, stop_words),
                 _content_tokens(b_tokens, stop_words))


def similarity_stem(a_tokens: Sequence[str], b_tokens: Sequence[str],
                    stop_words: frozenset[str] = DEFAULT_STOP_WORDS,
                    stemmer: StemRules = DEFAULT_STEM_RULES) -> float:
    """similarity_fast over stemmed content tokens."""
    a = {stem(t, stemmer) for t in _content_tokens(a_tokens, stop_words)}
    b = {stem(t, stemmer) for t in _content_tokens(b_tokens, stop_words)}
    return _dice(a, b)


# most synonym-substituted variants generated per sentence
_VARIANT_LIMIT = 64


def _variants(tokens: Sequence[str],
              synonyms: Mapping[str, frozenset[str]]) -> list[tuple[str, ...]]:
    options = []
    for token in tokens:
        low = token.lower()
        subs = sorted(set(synonyms.get(low, ())) - {low})
        options.append([low] + subs)
    return list(itertools.islice(itertools.product(*options), _VARIANT_LIMIT))


def similarity_synonym(a_tokens: Sequence[str], b_tokens: Sequence[str],
                       stop_words: frozenset[str] = DEFAULT_STOP_WORDS,
                       stemmer: StemRules = DEFAULT_STEM_RULES,
                       synonyms: Mapping[str, frozenset[str]] | None = None) -> float:
    """Best similarity_stem over synonym-substituted variants of both sides.

    At most 64 variants per sentence are generated (many-to-many
    comparison); the excess is truncated deterministically.
    """
    synonyms = synonyms or {}
    b_variants = _variants(b_tokens, synonyms)
    best = 0.0
    for va in _variants(a_tokens, synonyms):
        for vb in b_variants:
            score = similarity_stem(va, vb, stop_words, stemmer)
            if score > best:
                best = score
            if best == 1.0:
                return best
    return best


_STAGE_FUNCTIONS = ("fast", "stem", "synonym")


def _stage_score(name: str, a: Sequence[str], b: Sequence[str],
                 config: CascadeConfig) -> float:
    if name == "fast":
        return similarity_fast(a, b, config.stop_words)
    if name == "stem":
        return similarity_stem(a, b, config.stop_words, config.stem_rules)
    return similarity_synonym(a, b, config.stop_words, config.stem_rules,
                              config.synonyms)


# ---------------------------------------------------------------------------
# cascade

def make_gloss_translator(lex: TranslationLexicon) -> Callable[[str], str]:
    def translator(text: str) -> str:
        return " ".join(gloss_translate(lex, tokenize(text)))
    return translator


def filter_corpus(corpus: BitextCorpus, translator: Callable[[str], str],
                  cascade: CascadeConfig,
                  ) -> tuple[BitextCorpus, BitextCorpus, FilterReport]:
    """Partition a corpus by comparing each source's translation to its target.

    Stages run in configured order; a pair is accepted the moment a stage
    score reaches its accept threshold, rejected the moment a score falls
    below its reject threshold, and rejected if no stage decides.
    """
    if not cascade.stages:
        raise ValueError("cascade has no stages")
    report = FilterReport(input_count=len(corpus.pairs))
    kept: list[BiSentence] = []
    rejected: list[BiSentence] = []
    for pair in corpus.pairs:
        try:
            translation = translator(pair.src)
        except Exception:
            rejected.append(pair)
            report.reject("translator-error")
            continue
        trans_tokens = tokenize(translation)
        tgt_tokens = tokenize(pair.tgt)
        verdict = None
        for name, accept, reject in cascade.stages:
            score = _stage_score(name, trans_tokens, tgt_tokens, cascade)
            if score >= accept:
                verdict = "keep"
                break
            if score < reject:
                verdict = f"reject-{name}"
                break
        if verdict == "keep":
            kept.append(pair)
            report.kept_count += 1
        else:
            rejected.append(pair)
            report.reject(verdict or "fallthrough")
    return (BitextCorpus(kept, corpus.src_lang, corpus.tgt_lang),
            BitextCorpus(rejected, corpus.src_lang, corpus.tgt_lang),
            report)


# ---------------------------------------------------------------------------
# resource files

def read_stop_words(path) -> frozenset[str]:
    """One token per line."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word:
                words.add(word.lower())
    return frozenset(words)


def read_synonyms(path) -> dict[str, frozenset[str]]:
    """TSV ``word<TAB>synonym``; stored symmetrically."""
    table: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 columns")
            a, b = cols[0].lower(), cols[1].lower()
            table.setdefault(a, set()).add(b)
            table.setdefault(b, set()).add(a)
    return {word: frozenset(syns) for word, syns in table.items()}


def read_cascade_config(path) -> CascadeConfig:
    """Cascade JSON; lexical resources either inline or as file paths
    (``stop_words_file``, ``synonyms_file``) relative to the config.  A
    malformed config raises ValueError naming the file."""
    from pathlib import Path

    with open(path, encoding="utf-8") as fh:
        try:
            return _cascade_config(json.load(fh), Path(path).parent)
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _cascade_config(doc: dict, base) -> CascadeConfig:
    config = CascadeConfig()
    if "stages" in doc:
        config.stages = [(s["fn"], float(s["accept"]), float(s["reject"]))
                         for s in doc["stages"]]
    if "stop_words" in doc:
        config.stop_words = frozenset(w.lower() for w in doc["stop_words"])
    if "stop_words_file" in doc:
        config.stop_words = read_stop_words(base / doc["stop_words_file"])
    if "synonyms" in doc:
        config.synonyms = {w.lower(): frozenset(x.lower() for x in syns)
                           for w, syns in doc["synonyms"].items()}
    if "synonyms_file" in doc:
        config.synonyms = read_synonyms(base / doc["synonyms_file"])
    if "stem_rules" in doc:
        config.stem_rules = [(a, b) for a, b in doc["stem_rules"]]
    config.__post_init__()
    return config
