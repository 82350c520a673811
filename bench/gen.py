"""Pinned input generator for the bimine benchmark.

Builds one workload's inputs from a seed: two JSONL article dumps, the
title-links TSV, the parallel seed corpus, the pipeline config and a
ground-truth file of planted parallel pairs.  The synthetic bilingual world
is a copy of the test-suite generator, kept here so that editing the tests
never shifts the benchmark inputs.  Standard library only; the program under
test is never imported.

    python3 bench/gen.py --workload mine-comparable --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

_SRC_SYLLABLES = ["ka", "to", "mi", "zu", "pro", "sze", "dom", "wol", "na", "bry",
                  "cie", "pol", "gor", "lis", "mar", "ja", "ko", "wi", "ta", "bel"]
_TGT_SYLLABLES = ["ben", "dor", "fil", "gan", "hul", "jen", "lor", "mep", "nar",
                  "pim", "quen", "rup", "sel", "tam", "vor", "wix", "yel", "zev",
                  "ard", "ost"]

# (src prefix, src suffix, tgt prefix, tgt suffix) around one slot word
TEMPLATES = [
    (["poprosze"], ["."], ["a"], [",", "please", "."]),
    (["czy", "masz"], ["?"], ["do", "you", "have"], ["?"]),
    (["lubie"], ["bardzo", "."], ["i", "really", "like"], ["."]),
    (["gdzie", "jest"], ["?"], ["where", "is", "the"], ["?"]),
    (["to", "jest"], ["."], ["this", "is", "a"], ["."]),
]

# Every workload runs single-process; the benchmark checks this value.
WORKERS = 1

# stage lists, in pipeline order
WORKLOADS = {
    "analogy-seed": ["ingest", "lexicon", "classifier", "mine", "merge",
                     "analogy", "filter", "eval"],
    "mine-comparable": ["ingest", "lexicon", "classifier", "mine", "merge",
                        "filter", "eval"],
    "long-articles": ["ingest", "lexicon", "classifier", "mine", "merge"],
}

_TOKEN = re.compile(r"[^\W\d_]+(?:['’-][^\W\d_]+)*|\d+(?:[.,]\d+)*|\S")


def token_string(text: str) -> str:
    """Lowercased tokens joined by single spaces: the key truth pairs and
    mined pairs are compared on."""
    return " ".join(_TOKEN.findall(text.lower()))


# ---------------------------------------------------------------------------
# synthetic bilingual world

@dataclass
class World:
    src_vocab: list[str]
    translations: dict[str, list[str]]  # primary first, optional synonym second
    weights: list[float]


def make_world(rng: random.Random, vocab_size: int = 260,
               synonym_fraction: float = 0.12) -> World:
    def words(syllables: list[str], count: int) -> list[str]:
        out: list[str] = []
        seen: set[str] = set()
        while len(out) < count:
            word = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 3)))
            if word not in seen:
                seen.add(word)
                out.append(word)
        return out

    src_vocab = words(_SRC_SYLLABLES, vocab_size)
    next_tgt = iter(words(_TGT_SYLLABLES, vocab_size * 2))
    translations = {}
    for word in src_vocab:
        options = [next(next_tgt)]
        if rng.random() < synonym_fraction:
            options.append(next(next_tgt))
        translations[word] = options
    weights = [1.0 / (rank + 1) for rank in range(vocab_size)]
    return World(src_vocab, translations, weights)


def _text(words: list[str], mark: str) -> str:
    return " ".join(words).capitalize() + mark


def sample_pair(world: World, rng: random.Random, n: int | None = None,
                swap_prob: float = 0.15, synonym_prob: float = 0.2,
                ) -> tuple[str, str]:
    """One parallel sentence pair: word-by-word translation with optional
    synonym choices and one adjacent swap."""
    n = rng.randint(4, 10) if n is None else n
    words = rng.choices(world.src_vocab, weights=world.weights, k=n)
    tgt_words = []
    for w in words:
        options = world.translations[w]
        use_synonym = len(options) > 1 and rng.random() < synonym_prob
        tgt_words.append(options[1] if use_synonym else options[0])
    if len(tgt_words) > 2 and rng.random() < swap_prob:
        k = rng.randrange(len(tgt_words) - 1)
        tgt_words[k], tgt_words[k + 1] = tgt_words[k + 1], tgt_words[k]
    mark = "?" if rng.random() < 0.1 else "."
    return _text(words, mark), _text(tgt_words, mark)


def template_pair(template, src_word: str, tgt_word: str) -> tuple[str, str]:
    src_prefix, src_suffix, tgt_prefix, tgt_suffix = template
    src = " ".join(src_prefix + [src_word]) + " " + " ".join(src_suffix)
    tgt = " ".join(tgt_prefix + [tgt_word]) + " " + " ".join(tgt_suffix)
    # attach punctuation the way prose writes it
    src = re.sub(r" ([.,?])", r"\1", src).capitalize()
    tgt = re.sub(r" ([.,?])", r"\1", tgt).capitalize()
    return src, tgt


# ---------------------------------------------------------------------------
# article pairs with target-side noise and ground truth

@dataclass
class Article:
    src: list[str]
    tgt: list[str]
    links: list[tuple[str, str]]  # planted parallel (src, tgt) sentences


def make_article(world: World, rng: random.Random, run: list[tuple[str, str]],
                 delete_prob: float, insert_prob: float, mangle_prob: float,
                 keep: frozenset[int] = frozenset()) -> Article:
    """Target side of a parallel run with unrelated insertions, deletions and
    loosened translations; indices in ``keep`` are never deleted or loosened."""
    tgt_pool = [options[0] for options in world.translations.values()]
    src, tgt, links = [], [], []
    for index, (s, t) in enumerate(run):
        src.append(s)
        if rng.random() < insert_prob:
            tgt.append(sample_pair(world, rng)[1])
        if index not in keep and rng.random() < delete_prob:
            continue
        if index not in keep and rng.random() < mangle_prob:
            words = t[:-1].split()
            for k in rng.sample(range(len(words)), max(1, len(words) * 3 // 10)):
                words[k] = rng.choice(tgt_pool)
            t = _text([w.lower() for w in words], t[-1])
        tgt.append(t)
        links.append((s, t))
    return Article(src, tgt, links)


def rotate_targets(articles: list[Article], indices: list[int]) -> None:
    """Give each listed article the target side of the next listed one, so
    those pairs are topic-linked but share no parallel sentence."""
    targets = [articles[i].tgt for i in indices]
    for k, i in enumerate(indices):
        articles[i].tgt = targets[(k + 1) % len(targets)]
        articles[i].links = []


# ---------------------------------------------------------------------------
# wiki markup, removed again by the ingest stage's cleaner

def _decorate(sentence: str, n: int, rng: random.Random) -> str:
    """A link, piped link or bold word, and sometimes a trailing reference."""
    words = sentence.split(" ")
    roll = rng.random()
    if roll < 0.2 and len(words) > 2:
        k = rng.randrange(1, len(words) - 1)
        words[k] = f"[[{words[k]}]]"
    elif roll < 0.35 and len(words) > 2:
        k = rng.randrange(1, len(words) - 1)
        words[k] = f"[[Strona {n}|{words[k]}]]"
    elif roll < 0.45:
        words[0] = f"'''{words[0]}'''"
    text = " ".join(words)
    if rng.random() < 0.15:
        text += f"<ref>Zrodlo {n}, s. {rng.randint(1, 300)}.</ref>"
    return text


def light_markup(sentences: list[str], rng: random.Random) -> str:
    return " ".join(_decorate(s, n, rng) for n, s in enumerate(sentences))


def heavy_markup(sentences: list[str], rng: random.Random) -> str:
    """Light markup plus nested templates, tables, comments and named refs
    between sentences."""
    out = []
    for n, sentence in enumerate(sentences):
        out.append(_decorate(sentence, n, rng))
        roll = rng.random()
        if roll < 0.06:
            out.append(f"{{{{Infobox {n} | nazwa = {{{{lang|pl|Nazwa {n}}}}} "
                       f"| data = {{{{date|{rng.randint(1900, 2000)}|{{{{small|ok}}}}}}}} "
                       f"| mapa = [[Plik:Mapa{n}.png|thumb|Opis]] }}}}")
        elif roll < 0.10:
            out.append(f"\n{{| class=\"wikitable\"\n|-\n! Rok !! Liczba\n|-\n"
                       f"| {rng.randint(1900, 2000)} || {rng.randint(1, 999)}\n|}}\n")
        elif roll < 0.13:
            out.append(f"<!-- uwaga {n} --><ref name=\"r{n}\" />")
    return " ".join(out)


# ---------------------------------------------------------------------------
# workloads

def _seed_corpus(world: World, rng: random.Random, n: int) -> list[tuple[str, str]]:
    return [sample_pair(world, rng) for _ in range(n)]


def _analogy_seed(world: World, rng: random.Random):
    """200 random seed pairs plus the five templates filled with the same 7
    slot words (35 pairs, 210 analogies); 30 short articles, each embedding
    one template sentence with an unseen slot word.

    Random sentences of six or more words are almost never within analogy
    distance of another sentence, so the templates set the analogy search's
    work; the fixed length mix keeps that work the same for every seed."""
    single = [w for w in world.src_vocab[4:60] if len(world.translations[w]) == 1]
    slot_words, unseen = single[:7], single[7:]
    lengths = [6, 7, 8, 9, 10, 11, 12, 12, 12, 12] * 20
    rng.shuffle(lengths)
    seed = [sample_pair(world, rng, n) for n in lengths]
    for template in TEMPLATES:
        for word in slot_words:
            seed.append(template_pair(template, word, world.translations[word][0]))
    rng.shuffle(seed)

    articles = []
    for k in range(30):
        run = [sample_pair(world, rng) for _ in range(12)]
        word = unseen[k % len(unseen)]
        at = rng.randrange(len(run) + 1)
        run.insert(at, template_pair(TEMPLATES[k % len(TEMPLATES)], word,
                                     world.translations[word][0]))
        articles.append(make_article(world, rng, run, 0.1, 0.1, 0.0,
                                     keep=frozenset({at})))
    config = {"lexicon": {"iterations": 10},
              "classifier": {"epochs": 30},
              "eval": {"segments": 20, "per_segment": 5}}
    return seed, articles, light_markup, config


def _mine_comparable(world: World, rng: random.Random):
    """500 seed pairs; 40 article pairs of 25 sentences with noise and light
    markup, a quarter of them with an unrelated target side."""
    seed = _seed_corpus(world, rng, 500)
    articles = [make_article(world, rng, [sample_pair(world, rng) for _ in range(25)],
                             0.12, 0.12, 0.1) for _ in range(40)]
    rotate_targets(articles, sorted(rng.sample(range(40), 10)))
    config = {"lexicon": {"iterations": 10},
              "classifier": {"epochs": 30},
              "eval": {"segments": 60, "per_segment": 5}}
    return seed, articles, light_markup, config


def _long_articles(world: World, rng: random.Random):
    """500 seed pairs; 6 article pairs of 100 sentences with heavy markup,
    half of them with an unrelated target side."""
    seed = _seed_corpus(world, rng, 500)
    articles = [make_article(world, rng, [sample_pair(world, rng) for _ in range(100)],
                             0.1, 0.1, 0.05) for _ in range(6)]
    rotate_targets(articles, sorted(rng.sample(range(6), 3)))
    config = {"lexicon": {"iterations": 10},
              "classifier": {"epochs": 30}}
    return seed, articles, heavy_markup, config


_BUILDERS = {
    "analogy-seed": _analogy_seed,
    "mine-comparable": _mine_comparable,
    "long-articles": _long_articles,
}


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under ``out`` (paths in the config are
    relative to ``out``) and return the input-size record."""
    rng = random.Random(f"{workload}/{seed}")
    world = make_world(rng)
    seed_pairs, articles, markup, overrides = _BUILDERS[workload](world, rng)
    stages = WORKLOADS[workload]

    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    with open(inputs / "seed.tsv", "w", encoding="utf-8") as fh:
        for src, tgt in seed_pairs:
            fh.write(f"{src}\t{tgt}\n")
    src_docs = [{"title": f"Artykul {k}", "text": markup(a.src, rng)}
                for k, a in enumerate(articles)]
    tgt_docs = [{"title": f"Article {k}", "text": markup(a.tgt, rng)}
                for k, a in enumerate(articles)]
    _write_jsonl(inputs / "src_dump.jsonl", src_docs)
    _write_jsonl(inputs / "tgt_dump.jsonl", tgt_docs)
    with open(inputs / "links.tsv", "w", encoding="utf-8") as fh:
        for k in range(len(articles)):
            fh.write(f"Artykul {k}\tArticle {k}\n")
    truth = sorted({(token_string(s), token_string(t))
                    for a in articles for s, t in a.links})
    with open(inputs / "truth.tsv", "w", encoding="utf-8") as fh:
        for src, tgt in truth:
            fh.write(f"{src}\t{tgt}\n")

    config = {
        "workdir": "out",
        "src_lang": "pl",
        "tgt_lang": "en",
        "seed_corpus": "inputs/seed.tsv",
        "ingest": {"src_dump": "inputs/src_dump.jsonl",
                   "tgt_dump": "inputs/tgt_dump.jsonl",
                   "links": "inputs/links.tsv"},
        "mining": {"workers": WORKERS, "threshold": 0.5, "gap_cost": 0.4,
                   "bidirectional": workload != "long-articles"},
        "analogy": {"max_distance": 4},
        "filter": {"min_chars": 10},
    }
    for key, value in overrides.items():
        config[key] = {**config.get(key, {}), **value}
    (inputs / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return {
        "articles": len(articles),
        "sentences": sum(len(a.src) + len(a.tgt) for a in articles),
        "characters": sum(len(d["text"]) for d in src_docs + tgt_docs),
        "seed_pairs": len(seed_pairs),
        "truth_pairs": len(truth),
        "stages": stages,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out), sort_keys=True))


if __name__ == "__main__":
    main()
