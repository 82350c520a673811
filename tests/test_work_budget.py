"""The work each stage does, pinned: every work counter in the manifests of
one bidirectional run with the analogy stage equals ``work_budget.json``.

Outputs are pinned elsewhere; this test pins work, which wall time is too
noisy to resolve.  The run is on the test world with the analogy templates
planted in the seed and in one source sentence of each article, so no
counter in the table is zero.  A change that moves a counter rewrites the
table (``python tests/test_work_budget.py``) and says why.
"""

import json
import random
import sys
import tempfile
from pathlib import Path

from bimine.corpus_io import BiSentence, BitextCorpus, write_bitext
from bimine.pipeline import PipelineConfig, run_pipeline

from synthdata import ANALOGY_TEMPLATES, make_articles, make_parallel, make_world, template_pair

TABLE = Path(__file__).with_name("work_budget.json")

# manifest -> its work counters; a dotted name reaches into a nested count,
# and a dict of counts (decisions, distances) is pinned whole
WORK = {
    "lexicon": ["cells", "cells_rev"],
    "classifier": ["examples", "examples_rev", "hinge_updates", "hinge_updates_rev"],
    "mine": [f"{key}_{way}" for key in ("lattice_cells", "cells_scored", "cells_pruned", "nodes")
             for way in ("fwd", "rev")],
    "analogy": ["quadruples_by_distance"],
    "filter": ["acceptances", "rejections", "quasi.acceptances", "quasi.rejections"],
}


def _template(world, k: int, word: str) -> tuple[str, str]:
    src, tgt = template_pair(ANALOGY_TEMPLATES[k % len(ANALOGY_TEMPLATES)], word,
                             world.primary(word))
    return " ".join(src), " ".join(tgt)


def _write_inputs(root: Path, world) -> Path:
    words = [w for w in world.src_vocab if len(world.translations[w]) == 1]
    # every template with each of four slot words
    seed = make_parallel(world, random.Random(81), 300).pairs + [
        BiSentence(*_template(world, k, w)) for w in words[:4]
        for k in range(len(ANALOGY_TEMPLATES))]
    write_bitext(root / "seed.tsv", BitextCorpus(seed))
    # articles of 8 sentences, the first of each a template with a new slot word
    rng = random.Random(71)
    pairs = make_parallel(world, rng, 64).pairs
    for k, w in enumerate(words[4:12]):
        pairs[8 * k] = BiSentence(*(text.capitalize() for text in _template(world, k, w)))
    articles, _ = make_articles(world, rng, BitextCorpus(pairs), 8, sentences_per_article=8,
                                mangle_prob=0.4, mangle_frac=0.6)
    for side in ("src", "tgt"):
        with open(root / f"{side}_dump.jsonl", "w", encoding="utf-8") as fh:
            for doc in (getattr(a, side) for a in articles):
                fh.write(json.dumps({"title": f"{side}-{doc.title}", "text": doc.body}) + "\n")
    (root / "links.tsv").write_text("".join(
        f"src-{a.src.title}\ttgt-{a.tgt.title}\n" for a in articles), encoding="utf-8")
    config = root / "config.json"
    config.write_text(json.dumps({
        "workdir": str(root / "out"), "seed_corpus": str(root / "seed.tsv"),
        "ingest": {key: str(root / name) for key, name in (
            ("src_dump", "src_dump.jsonl"), ("tgt_dump", "tgt_dump.jsonl"),
            ("links", "links.tsv"))},
        "lexicon": {"iterations": 5},
        "classifier": {"epochs": 10, "seed": 2},
        "mining": {"bidirectional": True},
        "eval": {"segments": 10, "per_segment": 2, "seed": 5},
    }), encoding="utf-8")
    return config


def measure_work(root: Path, world) -> dict:
    """Run the whole pipeline under ``root`` and return the work counters."""
    config = PipelineConfig.from_json(_write_inputs(root, world))
    run_pipeline(config, None)
    work = {}
    for stage, names in WORK.items():
        counts = json.loads(config.path(f"manifest.{stage}.json").read_text(
            encoding="utf-8"))["counts"]
        work[stage] = {}
        for name in names:
            value = counts
            for key in name.split("."):
                value = value[key]
            work[stage][name] = value
    return work


def test_every_work_counter_equals_the_table(world, tmp_path):
    work = measure_work(tmp_path, world)
    assert all(value for counters in work.values() for value in counters.values()), work
    assert work == json.loads(TABLE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = measure_work(Path(tmp), make_world(seed=7))
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}", file=sys.stderr)
