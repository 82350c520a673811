"""Noise filtering for bitext corpora.

Two layers: ``remove_trivial`` drops duplicates, very short lines and
letter-free lines; ``filter_corpus`` runs a cascade of increasingly
expensive translation-similarity checks.  Each pair's source tokens are
translated word by word with a lexicon and the translation is compared
against the paired target, fastest comparison first: a high score accepts
the pair immediately, a very low score rejects it, anything in between
falls through to the next, slower stage.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from pathlib import Path

from .corpus_io import (BiSentence, BitextCorpus, iter_lines, iter_tsv, json_number,
                        normalize_space, read_json, string_list, tokenize)
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


class FilterReport:
    """Pair counts of a filter pass: rejections per rule and, for the
    cascade, acceptances per stage."""

    def __init__(self, input_count: int) -> None:
        self.input_count = input_count
        self.kept_count = 0
        self.rejected_count = 0
        self.rejections: dict[str, int] = {}
        self.acceptances: dict[str, int] = {}

    def reject(self, rule: str) -> None:
        self.rejected_count += 1
        self.rejections[rule] = self.rejections.get(rule, 0) + 1

    def accept(self, stage: str) -> None:
        self.kept_count += 1
        self.acceptances[stage] = self.acceptances.get(stage, 0) + 1

    def as_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "kept_count": self.kept_count,
            "rejected_count": self.rejected_count,
            "rejections": dict(sorted(self.rejections.items())),
            "acceptances": dict(sorted(self.acceptances.items())),
        }


class CascadeConfig:
    """Ordered comparison stages plus the lexical resources they use; an
    argument left None takes the default stages or resource."""

    def __init__(self, stages: list[tuple[str, float, float]] | None = None,
                 stop_words: frozenset[str] | None = None,
                 synonyms: Mapping[str, frozenset[str]] | None = None,
                 stem_rules: StemRules | None = None) -> None:
        if stages is None:
            stages = [("fast", 0.9, 0.2), ("stem", 0.8, 0.3), ("synonym", 0.7, 0.0)]
        self.stages = stages
        self.stop_words = DEFAULT_STOP_WORDS if stop_words is None else stop_words
        self.synonyms = {} if synonyms is None else synonyms
        self.stem_rules = DEFAULT_STEM_RULES if stem_rules is None else stem_rules
        if not self.stages:
            raise ValueError("cascade config key 'stages' lists no stage")
        for name, accept, reject in self.stages:
            if not 0.0 <= reject <= accept <= 1.0:  # NaN fails too
                raise ValueError(f"stage {name!r}: thresholds must be 0 <= reject <= accept "
                                 f"<= 1, got reject {reject} and accept {accept}")
            if name not in _STAGE_FUNCTIONS:
                raise ValueError(f"unknown cascade stage {name!r}")
        for suffix, repl in self.stem_rules:
            if not suffix:  # every word ends with "", so stem() would append repl
                raise ValueError(f"stem rule {[suffix, repl]!r} has an empty suffix")


# ---------------------------------------------------------------------------
# trivial filtering

def remove_trivial(corpus: BitextCorpus, min_chars: int,
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
    return BitextCorpus(kept), report


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
                    config: CascadeConfig) -> float:
    """Dice coefficient over content-token sets after removing the config's
    stop words."""
    stop_words = config.stop_words
    return _dice(_content_tokens(a_tokens, stop_words),
                 _content_tokens(b_tokens, stop_words))


def similarity_stem(a_tokens: Sequence[str], b_tokens: Sequence[str],
                    config: CascadeConfig) -> float:
    """similarity_fast over content tokens stemmed by the config's rules."""
    stop_words, rules = config.stop_words, config.stem_rules
    a = {stem(t, rules) for t in _content_tokens(a_tokens, stop_words)}
    b = {stem(t, rules) for t in _content_tokens(b_tokens, stop_words)}
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
                       config: CascadeConfig) -> float:
    """Best similarity_stem over variants of both sides substituted with the
    config's synonyms.

    At most 64 variants per sentence are generated (many-to-many
    comparison); the excess is truncated deterministically.
    """
    synonyms = config.synonyms
    b_variants = _variants(b_tokens, synonyms)
    best = 0.0
    for va in _variants(a_tokens, synonyms):
        for vb in b_variants:
            score = similarity_stem(va, vb, config)
            if score > best:
                best = score
            if best == 1.0:
                return best
    return best


# cascade stage name -> its comparison
_STAGE_FUNCTIONS = {"fast": similarity_fast, "stem": similarity_stem,
                    "synonym": similarity_synonym}


# ---------------------------------------------------------------------------
# cascade

def filter_corpus(corpus: BitextCorpus, lex: TranslationLexicon,
                  cascade: CascadeConfig,
                  ) -> tuple[BitextCorpus, BitextCorpus, FilterReport]:
    """Partition a corpus by comparing each source's gloss translation
    (``gloss_translate`` of its tokens) to its target.

    Stages run in configured order; a pair is accepted the moment a stage
    score reaches its accept threshold, rejected the moment a score falls
    below its reject threshold, and rejected if no stage decides.
    """
    report = FilterReport(input_count=len(corpus.pairs))
    kept: list[BiSentence] = []
    rejected: list[BiSentence] = []
    for pair in corpus.pairs:
        trans_tokens = gloss_translate(lex, tokenize(pair.src))
        tgt_tokens = tokenize(pair.tgt)
        for name, accept, reject in cascade.stages:
            score = _STAGE_FUNCTIONS[name](trans_tokens, tgt_tokens, cascade)
            if score >= accept:
                kept.append(pair)
                report.accept(name)
                break
            if score < reject:
                rejected.append(pair)
                report.reject(f"reject-{name}")
                break
        else:
            rejected.append(pair)
            report.reject("fallthrough")
    return BitextCorpus(kept), BitextCorpus(rejected), report


# ---------------------------------------------------------------------------
# resource files

def read_stop_words(path) -> frozenset[str]:
    """One token per line; whitespace-only lines are skipped."""
    return frozenset(iter_lines(path, str.isspace, str.strip, str.lower))


def read_synonyms(path) -> dict[str, frozenset[str]]:
    """TSV ``word<TAB>synonym``; stored symmetrically."""
    table: dict[str, set[str]] = {}
    for a, b in iter_tsv(path, 2, tuple):
        a, b = a.lower(), b.lower()
        table.setdefault(a, set()).add(b)
        table.setdefault(b, set()).add(a)
    return {word: frozenset(syns) for word, syns in table.items()}


# top-level keys of a cascade config, and the keys of one stage entry
_CASCADE_KEYS = {"stages", "stop_words", "stop_words_file", "synonyms",
                 "synonyms_file", "stem_rules"}
_STAGE_KEYS = {"fn", "accept", "reject"}


def read_cascade_config(path) -> CascadeConfig:
    """Cascade JSON; lexical resources either inline or as file paths
    (``stop_words_file``, ``synonyms_file``) relative to the config, not
    both.  A malformed config, an unknown key or a resource given both ways
    raises ValueError naming the file."""
    return read_json(path, lambda doc: _cascade_config(doc, Path(path).parent))


def _cascade_config(doc: dict, base) -> CascadeConfig:
    if not isinstance(doc, dict):
        raise ValueError("a cascade config holds one JSON object")
    unknown = set(doc) - _CASCADE_KEYS
    if unknown:
        raise ValueError(f"unknown cascade config keys {sorted(unknown)}")
    for inline in ("stop_words", "synonyms"):
        if inline in doc and f"{inline}_file" in doc:
            raise ValueError(f"give {inline!r} or {inline + '_file'!r}, not both")
    stages = stop_words = synonyms = stem_rules = None
    if "stages" in doc:
        for stage in doc["stages"]:
            if not isinstance(stage, dict):
                raise ValueError(f"a stage is an object, not {stage!r}")
            unknown = set(stage) - _STAGE_KEYS
            if unknown:
                raise ValueError(f"unknown keys {sorted(unknown)} in stage {stage!r}")
        stages = [(s["fn"], json_number(s["accept"], "stage accept"),
                   json_number(s["reject"], "stage reject")) for s in doc["stages"]]
    if "stop_words" in doc:
        stop_words = frozenset(
            w.lower() for w in string_list(doc["stop_words"], "stop words"))
    if "stop_words_file" in doc:
        stop_words = read_stop_words(base / doc["stop_words_file"])
    if "synonyms" in doc:
        if not isinstance(doc["synonyms"], dict):
            raise ValueError(f"'synonyms' is an object of word lists, "
                             f"not {type(doc['synonyms']).__name__}")
        synonyms = {
            w.lower(): frozenset(x.lower() for x in string_list(syns, f"synonyms of {w!r}"))
            for w, syns in doc["synonyms"].items()}
    if "synonyms_file" in doc:
        synonyms = read_synonyms(base / doc["synonyms_file"])
    if "stem_rules" in doc:
        rules = [string_list(rule, "stem rule strings") for rule in doc["stem_rules"]]
        stem_rules = [(a, b) for a, b in rules]
    return CascadeConfig(stages=stages, stop_words=stop_words, synonyms=synonyms,
                         stem_rules=stem_rules)
