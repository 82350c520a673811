"""Deterministic synthetic bilingual world used across the test suite.

A small invented language pair: every source word maps to one or two target
words (bijective plus a few synonym alternatives), sentences are sampled
with a Zipf-like distribution, and translations are word-by-word with
optional adjacent swaps and synonym choices.  Article pairs are built from
contiguous runs of parallel sentences with controlled target-side
insertions and deletions, keeping the ground-truth links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from bimine.corpus_io import ArticlePair, BiSentence, BitextCorpus, Document
from bimine.lexicon import TranslationLexicon

_SRC_SYLLABLES = ["ka", "to", "mi", "zu", "pro", "sze", "dom", "wol", "na", "bry",
                  "cie", "pol", "gor", "lis", "mar", "ja", "ko", "wi", "ta", "bel"]
_TGT_SYLLABLES = ["ben", "dor", "fil", "gan", "hul", "jen", "lor", "mep", "nar",
                  "pim", "quen", "rup", "sel", "tam", "vor", "wix", "yel", "zev",
                  "ard", "ost"]


@dataclass
class SynthWorld:
    src_vocab: list[str]
    translations: dict[str, list[str]]  # primary first, optional synonym second
    weights: list[float] = field(default_factory=list)

    def primary(self, word: str) -> str:
        return self.translations[word][0]

    def lexicon(self, include_synonyms: bool = True) -> TranslationLexicon:
        """Ground-truth lexicon, independent of EM training."""
        entries = {}
        for word, options in self.translations.items():
            if include_synonyms and len(options) > 1:
                entries[word] = [(options[0], 0.7), (options[1], 0.3)]
            else:
                entries[word] = [(options[0], 1.0)]
        return TranslationLexicon(entries=entries)

    def synonym_table(self) -> dict[str, frozenset[str]]:
        table: dict[str, set[str]] = {}
        for options in self.translations.values():
            if len(options) > 1:
                a, b = options[0], options[1]
                table.setdefault(a, set()).add(b)
                table.setdefault(b, set()).add(a)
        return {w: frozenset(s) for w, s in table.items()}


def make_world(seed: int = 7, vocab_size: int = 260,
               synonym_fraction: float = 0.12) -> SynthWorld:
    rng = random.Random(seed)
    src_vocab: list[str] = []
    seen = set()
    while len(src_vocab) < vocab_size:
        word = "".join(rng.choice(_SRC_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            src_vocab.append(word)
    tgt_vocab: list[str] = []
    seen_t: set[str] = set()
    while len(tgt_vocab) < vocab_size * 2:
        word = "".join(rng.choice(_TGT_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word not in seen_t:
            seen_t.add(word)
            tgt_vocab.append(word)
    translations = {}
    next_tgt = iter(tgt_vocab)
    for word in src_vocab:
        options = [next(next_tgt)]
        if rng.random() < synonym_fraction:
            options.append(next(next_tgt))
        translations[word] = options
    weights = [1.0 / (rank + 1) for rank in range(vocab_size)]
    return SynthWorld(src_vocab=src_vocab, translations=translations, weights=weights)


def sample_pair(world: SynthWorld, rng: random.Random,
                swap_prob: float = 0.15, synonym_prob: float = 0.2,
                length: tuple[int, int] = (4, 10)) -> tuple[str, str]:
    """One synthetic parallel sentence pair (capitalized, terminated)."""
    n = rng.randint(*length)
    words = rng.choices(world.src_vocab, weights=world.weights, k=n)
    tgt_words = []
    for w in words:
        options = world.translations[w]
        if len(options) > 1 and rng.random() < synonym_prob:
            tgt_words.append(options[1])
        else:
            tgt_words.append(options[0])
    if len(tgt_words) > 2 and rng.random() < swap_prob:
        k = rng.randrange(len(tgt_words) - 1)
        tgt_words[k], tgt_words[k + 1] = tgt_words[k + 1], tgt_words[k]
    mark = "?" if rng.random() < 0.1 else "."
    return _to_text(words, mark), _to_text(tgt_words, mark)


def _to_text(words: list[str], mark: str = ".") -> str:
    return " ".join(words).capitalize() + mark


def make_parallel(world: SynthWorld, rng: random.Random, n: int) -> BitextCorpus:
    pairs = [BiSentence(*sample_pair(world, rng)) for _ in range(n)]
    return BitextCorpus(pairs)


def make_articles(world: SynthWorld, rng: random.Random,
                  corpus: BitextCorpus, n_articles: int,
                  sentences_per_article: int = 25,
                  delete_prob: float = 0.12, insert_prob: float = 0.12,
                  mangle_prob: float = 0.0, mangle_frac: float = 0.3,
                  ) -> tuple[list[ArticlePair], set[tuple[int, int, int]]]:
    """Article pairs from contiguous corpus runs with target-side noise.

    Noise: unrelated target sentences inserted, linked targets deleted, and
    (with ``mangle_prob``) linked targets loosened by replacing a fraction
    of their words, imitating free translations.  Returns the articles and
    the ground-truth link set {(article_id, src_index, tgt_index)}.
    """
    needed = n_articles * sentences_per_article
    if len(corpus.pairs) < needed:
        raise ValueError(f"corpus too small: {len(corpus.pairs)} < {needed}")
    tgt_pool = [options[0] for options in world.translations.values()]
    articles = []
    truth: set[tuple[int, int, int]] = set()
    cursor = 0
    for article_id in range(n_articles):
        run = corpus.pairs[cursor:cursor + sentences_per_article]
        cursor += sentences_per_article
        src_sents = [p.src for p in run]
        tgt_sents: list[str] = []
        for src_index, p in enumerate(run):
            if rng.random() < insert_prob:
                tgt_sents.append(sample_pair(world, rng)[1])
            if rng.random() < delete_prob:
                continue
            tgt = p.tgt
            if rng.random() < mangle_prob:
                words = tgt[:-1].strip().split()
                n_swap = max(1, int(len(words) * mangle_frac))
                for k in rng.sample(range(len(words)), min(n_swap, len(words))):
                    words[k] = rng.choice(tgt_pool)
                tgt = _to_text([w.lower() for w in words], tgt[-1])
            truth.add((article_id, src_index, len(tgt_sents)))
            tgt_sents.append(tgt)
        articles.append(ArticlePair(
            id=article_id,
            src=Document("pl", f"article-{article_id}", " ".join(src_sents)),
            tgt=Document("en", f"article-{article_id}", " ".join(tgt_sents)),
        ))
    return articles, truth


# ---------------------------------------------------------------------------
# filter fixture: 1000 pairs with planted noise (Table-9-like composition)

@dataclass
class FilterFixture:
    corpus: BitextCorpus
    noisy: list[bool]
    lexicon: TranslationLexicon
    synonyms: dict[str, frozenset[str]]


def make_filter_fixture(world: SynthWorld, seed: int = 23, n: int = 1000,
                        n_noisy: int = 182) -> FilterFixture:
    """Mostly faithful pairs plus planted mistranslations.

    Good pairs are word-by-word translations with synonym substitutions and
    occasional plural-style variants; noisy pairs carry an unrelated or
    half-unrelated target.
    """
    rng = random.Random(seed)
    flags = [True] * n_noisy + [False] * (n - n_noisy)
    rng.shuffle(flags)
    pairs = []
    for is_noisy in flags:
        src, tgt = sample_pair(world, rng, swap_prob=0.3, synonym_prob=0.25,
                               length=(5, 11))
        if is_noisy:
            kind = rng.random()
            if kind < 0.7:
                # unrelated target sentence
                tgt = sample_pair(world, rng)[1]
            else:
                # half of the target replaced by unrelated words
                tokens = tgt[:-1].strip().split()
                other = sample_pair(world, rng, length=(6, 10))[1][:-1].strip().split()
                half = max(1, len(tokens) // 2)
                tokens[:half] = other[:half]
                tgt = _to_text([t.lower() for t in tokens], tgt[-1])
        else:
            if rng.random() < 0.15:
                # plural-ish variant the stemmer should absorb
                tokens = tgt[:-1].strip().split()
                k = rng.randrange(len(tokens))
                tokens[k] = tokens[k] + "s"
                tgt = _to_text([t.lower() for t in tokens], tgt[-1])
        pairs.append(BiSentence(src, tgt))
    corpus = BitextCorpus(pairs)
    return FilterFixture(corpus=corpus, noisy=flags,
                         lexicon=world.lexicon(),
                         synonyms=world.synonym_table())


# ---------------------------------------------------------------------------
# analogy fixture: template sentences with slots

@dataclass
class AnalogyTemplate:
    src_prefix: list[str]
    src_suffix: list[str]
    tgt_prefix: list[str]
    tgt_suffix: list[str]


ANALOGY_TEMPLATES = [
    AnalogyTemplate(["poprosze"], ["."], ["a"], [",", "please", "."]),
    AnalogyTemplate(["czy", "masz"], ["?"], ["do", "you", "have"], ["?"]),
    AnalogyTemplate(["lubie"], ["bardzo", "."], ["i", "really", "like"], ["."]),
    AnalogyTemplate(["gdzie", "jest"], ["?"], ["where", "is", "the"], ["?"]),
    AnalogyTemplate(["to", "jest"], ["."], ["this", "is", "a"], ["."]),
]


def template_pair(template: AnalogyTemplate, src_word: str, tgt_word: str,
                  ) -> tuple[list[str], list[str]]:
    src = template.src_prefix + [src_word] + template.src_suffix
    tgt = template.tgt_prefix + [tgt_word] + template.tgt_suffix
    return src, tgt


def make_analogy_clusters(world: SynthWorld, seed: int = 11, n_clusters: int = 100,
                          ) -> tuple[list[tuple], TranslationLexicon]:
    """Clusters of two template pairs each, plus a lexicon covering every
    middle word, so extracted models round-trip on their supports."""
    rng = random.Random(seed)
    clusters = []
    entries: dict[str, list[tuple[str, float]]] = {}
    words = [w for w in world.src_vocab if len(world.translations[w]) == 1]
    for k in range(n_clusters):
        template = ANALOGY_TEMPLATES[k % len(ANALOGY_TEMPLATES)]
        w1, w2 = rng.sample(words, 2)
        pair1 = template_pair(template, w1, world.primary(w1))
        pair2 = template_pair(template, w2, world.primary(w2))
        clusters.append((pair1, pair2))
        entries[w1] = [(world.primary(w1), 1.0)]
        entries[w2] = [(world.primary(w2), 1.0)]
    lex = TranslationLexicon(entries=entries)
    return clusters, lex
