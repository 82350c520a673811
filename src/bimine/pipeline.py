"""End-to-end pipeline: ingest -> lexicon -> classifier -> mine -> merge ->
analogy -> filter -> eval.

Each step is one function that takes its shared inputs loaded (the seed's
tokens from ``read_seed``, a lexicon, a model from ``load_model``, the
segmented store from ``read_store``) and its other inputs as paths,
computes, writes its artifacts and returns its counts; the CLI subcommands
load with the same readers and call the same functions.  A run reads,
tokenizes and segments each shared input once, in ``RunInputs``, and hands
it to every stage.  A stage resolves its paths in the work directory (or
configured paths), calls its step once per mining direction and writes a
JSON run manifest (inputs, checksums, parameters, counts).  Each stage, and
each CLI command that writes files, prints one ``log_record`` line.  In a
bidirectional run the lexicon, classifier and mine stages run the reverse
direction's step in a forked child while the forward one runs; the two
share the read-only inputs loaded before the fork.  Stages are
deterministic given the config seeds: re-running with identical inputs
reproduces identical artifacts byte for byte.
"""

from __future__ import annotations

import functools
import json
import marshal
import os
import sys
from collections import Counter
from pathlib import Path

from . import classifier as classifier_mod
from . import corpus_io, lexicon as lexicon_mod, miner

# The analogy, filter and eval steps import their modules (bimine.analogy,
# bimine.filtering, bimine.metrics) when first called: every command starts
# a fresh interpreter, and a run that never reaches those steps then never
# compiles them.

# which stage produces each artifact, for dependency error messages
_ARTIFACT_STAGE = {
    "store.jsonl": "ingest",
    "lexicon.tsv": "lexicon",
    "lexicon.rev.tsv": "lexicon",
    "classifier.json": "classifier",
    "classifier.rev.json": "classifier",
    "mined.fwd.tsv": "mine",
    "mined.rev.tsv": "mine",
    "mined.tsv": "merge",
    "analogy_models.jsonl": "analogy",
    "quasi.tsv": "analogy",
    "filtered.tsv": "filter",
}


class PipelineError(RuntimeError):
    pass


# Largest seed, in sentences, the analogy search takes by default.  The pair
# pass compares only sentences that share a rare token, but the pairs within
# distance, and the quadruples built from them, can still grow quadratically
# and faster.  Seconds (the lower of two runs) and peak RSS of
# find_analogies(sentences, 4) in a fresh interpreter, on a 2-vCPU host with
# CPython 3.11; "structured" is _structured_corpus(Random(5), n) from
# tests/test_analogy.py, "random" the source sides of
# make_parallel(make_world(7), Random(5), n) from tests/synthdata.py:
#      n    structured         random
#    300    0.09 s    22 MB    0.04 s    18 MB
#    600    0.35 s    37 MB    0.17 s    23 MB
#   1200    1.29 s    85 MB    0.75 s    49 MB
#   2400    6.7 s    283 MB    3.7 s    141 MB
#   3600   16.8 s    585 MB    7.8 s    306 MB
# At the guard, going by the growth from 2400 to 3600, the structured search
# takes about 21 s and 0.7 GB, most of it the pairs within distance.
DEFAULT_SIZE_GUARD = 4000


_TYPE_NAMES = {bool: "a boolean", int: "an integer", str: "a string"}


def _typed(section: str, key: str, value, default):
    """``value`` as its default's type: a float takes any finite number and
    an int becomes a float, and a bool passes only for a bool.  A key listed
    in ``corpus_io.RANGES`` must also lie in its range."""
    what = f"config key {section}.{key}"
    if type(default) is float:
        value = float(corpus_io.json_number(value, what))
    elif type(value) is not type(default):
        raise ValueError(f"{what} must be {_TYPE_NAMES[type(default)]}, "
                         f"not {type(value).__name__}")
    return corpus_io.in_range(key, value, what) if key in corpus_io.RANGES else value


class PipelineConfig:
    """The settings of a pipeline run: the attributes are the config file's
    top-level keys, and a dict attribute is a section of keyed settings."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.src_lang = "pl"
        self.tgt_lang = "en"
        self.seed_corpus = ""
        self.store = ""
        self.ingest = {"src_dump": "", "tgt_dump": "", "links": ""}
        self.lexicon = {"iterations": 10, "prune_below": 1e-4}
        self.classifier = {"neg_per_pos": 3, "epochs": 30, "learning_rate": 0.1,
                           "margin_reg": 1e-4, "seed": 13}
        self.mining = {"threshold": 0.5, "gap_cost": 0.4, "bidirectional": False, "workers": 1}
        self.analogy = {"max_distance": 4, "size_guard": DEFAULT_SIZE_GUARD,
                        "allow_unknown": False, "check_target": False}
        self.filter = {"min_chars": 10, "cascade": ""}
        self.eval = {"segments": 200, "per_segment": 10, "seed": 7}

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        try:
            return corpus_io.read_json(path, cls._from_doc)
        except ValueError as exc:
            raise PipelineError(exc) from None

    @classmethod
    def _from_doc(cls, doc) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise ValueError("a config file holds one JSON object")
        config = cls(workdir="")
        unknown = set(doc) - set(vars(config))
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        if "workdir" not in doc:
            raise ValueError("config needs 'workdir'")
        for key, value in doc.items():
            section = getattr(config, key)
            if not isinstance(section, dict):
                if not isinstance(value, str):
                    raise ValueError(f"config key {key!r} must be a string, "
                                     f"not {type(value).__name__}")
                setattr(config, key, value)
                continue
            if not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be an object")
            unknown = set(value) - set(section)
            if unknown:
                raise ValueError(f"unknown keys {sorted(unknown)} in config section {key!r}")
            section.update({name: _typed(key, name, item, section[name])
                            for name, item in value.items()})
        return config

    def path(self, artifact: str) -> Path:
        return Path(self.workdir) / artifact

    def store_path(self) -> Path:
        return Path(self.store) if self.store else self.path("store.jsonl")


def log_record(stage: str, outputs: list, counts: dict) -> None:
    """Print what a step did to stderr as one sort-keyed JSON line: its
    stage (or CLI command), its outputs and its counts."""
    print(json.dumps({"stage": stage, "outputs": outputs, "counts": counts},
                     sort_keys=True), file=sys.stderr)


def _write_manifest(config: PipelineConfig, stage: str, params: dict,
                    inputs: list[Path], outputs: list[Path], counts: dict) -> None:
    """Write the stage's manifest and log its record, with the output names."""
    doc = {
        "stage": stage,
        "params": params,
        "inputs": {p.name: corpus_io.file_digest(p) for p in inputs},
        "outputs": {p.name: corpus_io.file_digest(p) for p in outputs},
        "counts": counts,
    }
    corpus_io.write_json(config.path(f"manifest.{stage}.json"), doc)
    log_record(stage, list(doc["outputs"]), counts)


def _require(config: PipelineConfig, path: Path) -> Path:
    if not path.exists():
        stage = _ARTIFACT_STAGE.get(path.name)
        hint = f"; run stage '{stage}' first" if stage else ""
        raise PipelineError(f"missing artifact {path}{hint}")
    return path


# ---------------------------------------------------------------------------
# steps, shared with the CLI.  Library calls go through module attributes
# (corpus_io.read_bitext, miner.mine_corpus, analogy_mod.find_analogies, ...)
# so a replaced attribute is the one called.

def ingest(src_dump, tgt_dump, links, out, src_lang: str, tgt_lang: str) -> dict:
    """Clean two article dumps, pair them by the links file, write the store."""
    src = corpus_io.read_article_dump(src_dump)
    tgt = corpus_io.read_article_dump(tgt_dump)
    link_list = corpus_io.read_links(links)
    src = {t: corpus_io.clean_document(b) for t, b in src.items()}
    tgt = {t: corpus_io.clean_document(b) for t, b in tgt.items()}
    try:
        pairs = corpus_io.pair_articles(src, tgt, link_list, src_lang, tgt_lang)
    except ValueError as exc:  # a source title linked twice
        raise ValueError(f"{links}: {exc}") from None
    corpus_io.write_article_store(out, pairs)
    return {"article_pairs": len(pairs)}


def read_seed(path) -> list[lexicon_mod.TokenPair]:
    """The tokens of each pair of a seed bitext file, in file order."""
    return lexicon_mod.seed_tokens(corpus_io.read_bitext(path))


def read_store(path) -> list[corpus_io.SegmentedPair]:
    """Each article pair of a store with both its sides segmented."""
    return miner.segment_articles(corpus_io.read_article_store(path))


def load_model(path, lexicon, lex) -> classifier_mod.SimilarityModel:
    """The similarity model at ``path``, refused unless it was trained with
    ``lex``, the lexicon read from ``lexicon``."""
    model = classifier_mod.load_model(path)
    if classifier_mod.lexicon_checksum(lex) != model.lexicon_checksum:
        raise ValueError(f"lexicon {lexicon} is not the one model {path} was trained with")
    return model


def _swap(pairs: list) -> list:
    return [(b, a) for a, b in pairs]


def train_lexicon(seed: list, out, iterations: int, prune_below: float,
                  flip: bool = False) -> dict:
    """Train the EM lexicon on a seed (``read_seed``) and write it; ``flip``
    trains the reverse direction (target to source)."""
    lex = lexicon_mod.train_lexicon(_swap(seed) if flip else seed, iterations, prune_below)
    lexicon_mod.write_lexicon(out, lex)
    return {"entries": len(lex), "cells": lex.cells,
            "iteration_log_likelihood": lex.iteration_log_likelihood}


def train_classifier(seed: list, lex, out, src_lang: str, tgt_lang: str, *,
                     neg_per_pos: int, epochs: int, learning_rate: float,
                     margin_reg: float, seed_rng: int, flip: bool = False) -> dict:
    """Train the similarity classifier for ``src_lang -> tgt_lang`` on a seed
    (``read_seed``) and a lexicon and write it; ``flip`` swaps the seed's
    sides.  Returns the training counts."""
    model = classifier_mod.train_model(
        _swap(seed) if flip else seed, lex,
        (src_lang, tgt_lang), neg_per_pos=neg_per_pos, epochs=epochs,
        learning_rate=learning_rate, margin_reg=margin_reg, seed_rng=seed_rng)
    classifier_mod.save_model(out, model)
    return model.training_counts


_MINE_WORK = ("src_sentences", "tgt_sentences", "lattice_cells", "cells_scored", "nodes",
              "cells_pruned")


def mine(store: list, model, lex, out, *, gap_cost: float, threshold: float,
         log=None, flip: bool = False) -> dict:
    """Mine parallel sentences from a segmented store (``read_store``) and
    write them.

    The lexicon must be the one the model was trained with (``load_model``).
    A pair is kept when its score reaches ``threshold``.  ``flip`` mines the
    reverse direction, taking each stored pair target side first.  ``log``
    gets one JSON line per article.
    Returns the counts: articles, mined pairs, the sums over the articles
    of the source and target sentences, the lattice cells, the cells whose
    similarity was computed, the lattice nodes whose cost was computed and
    the match edges skipped unscored.
    """
    corpus_io.in_range("gap_cost", gap_cost)
    corpus_io.in_range("threshold", threshold)
    if flip:
        store = [(corpus_io.ArticlePair(p.id, p.tgt, p.src), tgt, src) for p, src, tgt in store]
    corpus, article_log = miner.mine_corpus(
        store, model, lex, gap_cost=gap_cost, threshold=threshold)
    corpus_io.write_bitext(out, corpus)
    if log:
        corpus_io.write_jsonl(log, article_log)
    return {"articles": len(article_log), "mined": len(corpus.pairs),
            **{key: sum(entry[key] for entry in article_log) for key in _MINE_WORK}}


def merge(fwd, rev, out, stats) -> dict:
    """Merge forward and reverse mining output and write the overlap stats.

    The reverse file is flipped on load into (src, tgt) order; ``rev`` None
    merges the forward run alone.
    """
    merged, overlap = miner.merge_bidirectional(
        corpus_io.read_bitext(fwd),
        corpus_io.read_bitext(rev, flip=True) if rev else corpus_io.BitextCorpus([]))
    corpus_io.write_bitext(out, merged)
    miner.write_overlap_stats(stats, overlap)
    return {"merged": len(merged.pairs), **overlap.as_dict()}


def analogy_find(seed: list, max_distance: int, size_guard: int) -> list:
    """Search the source side of a seed (``read_seed``) for analogies.

    Returns the quadruples rather than writing them: the pipeline hands them
    to ``analogy_models`` in memory.  Refuses a seed of more than
    ``size_guard`` sentences, since the search is quadratic in their number.
    """
    from . import analogy as analogy_mod
    corpus_io.in_range("max_distance", max_distance)
    corpus_io.in_range("size_guard", size_guard)
    sentences = [src for src, _ in seed]
    if len(sentences) > size_guard:
        raise PipelineError(f"analogy search over {len(sentences)} sentences exceeds "
                            f"the size guard ({size_guard}); raise the guard to override")
    return analogy_mod.find_analogies(sentences, max_distance)


def analogy_models(quads, seed: list, out, check_target: bool) -> list:
    """Extract rewriting models from analogy quadruples of the seed
    (``read_seed``) and write them; returns them for ``analogy_generate``."""
    from . import analogy as analogy_mod
    models = analogy_mod.models_from_quadruples(quads, seed, check_target_side=check_target)
    analogy_mod.write_models(out, models)
    return models


def analogy_generate(models, store: list, lex, out, allow_unknown: bool) -> dict:
    """Apply rewriting models to the source sentences of a segmented store
    (``read_store``) and write the quasi-parallel pairs; returns the
    generated and confirmed counts."""
    from . import analogy as analogy_mod
    quasi = analogy_mod.generate_corpus(models, store, lex, allow_unknown=allow_unknown)
    corpus_io.write_bitext(out, corpus_io.BitextCorpus([e.pair for e in quasi.entries]))
    return quasi.report()


def filter_bitext(infile, kept, report=None, *, min_chars: int | None = None,
                  lexicon=None, cascade=None, rejected=None) -> dict:
    """Filter a bitext file and write the kept pairs.

    Runs the trivial pass when ``min_chars`` is given, then the
    translation-similarity cascade when a ``lexicon`` is given, with the rules
    of the ``cascade`` config file or the built-in ones.  Writes the pairs
    the cascade rejects to ``rejected`` and the report of both passes to
    ``report`` when those are given; returns that report as a dict.
    """
    from . import filtering
    if min_chars is not None:
        corpus_io.in_range("min_chars", min_chars)
    if lexicon is not None:  # a bad cascade config is refused before the input is read
        rules = (filtering.read_cascade_config(cascade) if cascade
                 else filtering.CascadeConfig())
    corpus = corpus_io.read_bitext(infile)
    result = filtering.FilterReport(input_count=len(corpus.pairs))
    passes = []
    if min_chars is not None:
        corpus, trivial = filtering.remove_trivial(corpus, min_chars)
        passes.append(trivial)
    if lexicon is not None:
        corpus, dropped, cascaded = filtering.filter_corpus(
            corpus, lexicon, rules)
        passes.append(cascaded)
        if rejected:
            corpus_io.write_bitext(rejected, dropped)
    result.kept_count = len(corpus.pairs)
    for done in passes:  # the two passes reject for different reasons
        result.rejected_count += done.rejected_count
        result.rejections.update(done.rejections)
        result.acceptances.update(done.acceptances)
    corpus_io.write_bitext(kept, corpus)
    if report:
        corpus_io.write_json(report, result.as_dict())
    return result.as_dict()


def sample(corpus, n_segments: int, per_segment: int, seed: int) -> tuple:
    """Split a bitext file into a sampled test set and the remaining pairs
    (``corpus_io.sample_test_set``); a corpus too small for the sample is
    refused naming the file."""
    corpus_io.in_range("segments", n_segments)
    corpus_io.in_range("per_segment", per_segment)
    bitext = corpus_io.read_bitext(corpus)
    try:
        return corpus_io.sample_test_set(bitext, n_segments, per_segment, seed)
    except ValueError as exc:
        raise ValueError(f"{corpus}: {exc}") from None


# metric name -> scorer in bimine.metrics, looked up when called
METRICS = {"bleu": "bleu", "nist": "nist", "ter": "corpus_ter",
           "meteor": "corpus_meteor"}


def score(pairs: list, metric: str) -> float:
    """Corpus-level score of ``pairs`` (``metrics.EvalPair``) under the metric
    named in METRICS."""
    from . import metrics
    return getattr(metrics, METRICS[metric])(pairs)


# ---------------------------------------------------------------------------
# stages

class RunInputs:
    """The inputs the stages of one run share, each read, tokenized or
    segmented on first use and dropped after the last stage that reads it
    (``_READERS``): the seed's tokens, the forward lexicon and the segmented
    store.  A stage touches what its reverse direction needs before
    ``_directions`` forks, so the child inherits it.  No stage rewrites a
    file after an earlier stage read it, so nothing here goes stale within
    a run."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config

    @functools.cached_property
    def seed(self) -> list:
        return read_seed(_seed_path(self.config))

    @functools.cached_property
    def lexicon(self) -> lexicon_mod.TranslationLexicon:
        return lexicon_mod.read_lexicon(_require(self.config, self.config.path("lexicon.tsv")))

    @functools.cached_property
    def store(self) -> list:
        return read_store(_require(self.config, self.config.store_path()))


# the stages that read each shared input: a run drops an input when none of
# them is left to run
_READERS = {"seed": {"lexicon", "classifier", "analogy"},
            "lexicon": {"classifier", "mine", "analogy", "filter", "eval"},
            "store": {"mine", "analogy"}}


def _stage_ingest(config: PipelineConfig, inputs: RunInputs) -> None:
    spec = config.ingest
    for key in ("src_dump", "tgt_dump", "links"):
        if not spec[key]:
            raise PipelineError(f"ingest stage needs config.ingest.{key}")
        if not Path(spec[key]).exists():
            raise PipelineError(f"ingest input {spec[key]} does not exist")
    dumps = [Path(spec[key]) for key in ("src_dump", "tgt_dump", "links")]
    out = config.store_path()
    counts = ingest(*dumps, out, config.src_lang, config.tgt_lang)
    _write_manifest(config, "ingest", spec, dumps, [out], counts)


def _seed_path(config: PipelineConfig) -> Path:
    if not config.seed_corpus:
        raise PipelineError("config.seed_corpus is not set")
    path = Path(config.seed_corpus)
    if not path.exists():
        raise PipelineError(f"seed corpus {path} does not exist")
    return path


def _directions(config: PipelineConfig, stage: str, forward, reverse,
                ) -> tuple[dict, dict | None]:
    """Return ``forward()`` and, in a bidirectional run, ``reverse()``, else
    None.  ``reverse`` runs in a forked child while ``forward`` runs here.

    The directions share inputs and write their own artifacts.  The child
    sends its counts (marshalled) or its exception (pickled, so pickle is
    imported only on failure) over a pipe and leaves with ``os._exit``; the
    parent reaps it before it returns or raises, and raises the child's
    exception as its own.  Without ``os.fork``, or where the process may run
    on one CPU only, both run here in turn: a child would then only take
    turns with the parent and add its copy-on-write page faults.
    """
    if not config.mining["bidirectional"]:
        return forward(), None
    if not hasattr(os, "fork") or (hasattr(os, "sched_getaffinity")
                                   and len(os.sched_getaffinity(0)) == 1):
        return forward(), reverse()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = b"r" + marshal.dumps(reverse())
            except BaseException as exc:
                import pickle
                payload = b"e" + pickle.dumps(exc)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        fwd = forward()
    finally:
        try:
            with os.fdopen(read_fd, "rb") as fh:
                payload = fh.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not payload:
        raise PipelineError(f"{stage}: the reverse direction's process ended "
                            f"without a result (exit status {status})")
    if payload[:1] == b"r":
        return fwd, marshal.loads(payload[1:])
    import pickle
    raise pickle.loads(payload[1:])


def _stage_lexicon(config: PipelineConfig, inputs: RunInputs) -> None:
    seed = _seed_path(config)
    params = config.lexicon
    train = functools.partial(train_lexicon, inputs.seed, iterations=params["iterations"],
                              prune_below=params["prune_below"])
    fwd_out, rev_out = config.path("lexicon.tsv"), config.path("lexicon.rev.tsv")
    counts, rev = _directions(config, "lexicon", lambda: train(fwd_out),
                              lambda: train(rev_out, flip=True))
    outputs = [fwd_out]
    if rev is not None:
        outputs.append(rev_out)
        counts.update({f"{key}_rev": value for key, value in rev.items()})
    _write_manifest(config, "lexicon", params, [seed], outputs, counts)


def _stage_classifier(config: PipelineConfig, inputs: RunInputs) -> None:
    seed = _seed_path(config)
    params = config.classifier
    lexicon = _require(config, config.path("lexicon.tsv"))
    train = functools.partial(
        train_classifier, inputs.seed,
        neg_per_pos=params["neg_per_pos"], epochs=params["epochs"],
        learning_rate=params["learning_rate"], margin_reg=params["margin_reg"],
        seed_rng=params["seed"])
    fwd_out, rev_out = config.path("classifier.json"), config.path("classifier.rev.json")
    counts, rev = _directions(
        config, "classifier",
        lambda: train(inputs.lexicon, fwd_out, config.src_lang, config.tgt_lang),
        lambda: train(lexicon_mod.read_lexicon(_require(config, config.path("lexicon.rev.tsv"))),
                      rev_out, config.tgt_lang, config.src_lang, flip=True))
    outputs = [fwd_out]
    if rev is not None:
        outputs.append(rev_out)
        counts.update({f"{key}_rev": value for key, value in rev.items()})
    _write_manifest(config, "classifier", params, [seed, lexicon], outputs, counts)


def _stage_mine(config: PipelineConfig, inputs: RunInputs) -> None:
    params = config.mining
    store = _require(config, config.store_path())
    fwd_out, log = config.path("mined.fwd.tsv"), config.path("mine_log.jsonl")
    rev_out = config.path("mined.rev.tsv")
    fwd_model, fwd_lexicon = (_require(config, config.path("classifier.json")),
                              _require(config, config.path("lexicon.tsv")))
    # segmented here, so the reverse direction's child inherits the store
    run = functools.partial(mine, inputs.store, gap_cost=params["gap_cost"],
                            threshold=params["threshold"])

    def reverse():
        model, lexicon = (_require(config, config.path("classifier.rev.json")),
                          _require(config, config.path("lexicon.rev.tsv")))
        lex = lexicon_mod.read_lexicon(lexicon)
        return run(load_model(model, lexicon, lex), lex, rev_out, flip=True)

    fwd, rev = _directions(
        config, "mine",
        lambda: run(load_model(fwd_model, fwd_lexicon, inputs.lexicon), inputs.lexicon,
                    fwd_out, log=log),
        reverse)
    outputs = [fwd_out, log]
    keys = ("mined", *_MINE_WORK)
    counts = {"articles": fwd["articles"], **{f"{key}_fwd": fwd[key] for key in keys}}
    if rev is not None:
        outputs.append(rev_out)
        counts.update({f"{key}_rev": rev[key] for key in keys})
    _write_manifest(config, "mine", params, [store], outputs, counts)


def _stage_merge(config: PipelineConfig, inputs: RunInputs) -> None:
    fwd = _require(config, config.path("mined.fwd.tsv"))
    rev = (_require(config, config.path("mined.rev.tsv"))
           if config.mining["bidirectional"] else None)
    out, stats = config.path("mined.tsv"), config.path("overlap_stats.json")
    counts = merge(fwd, rev, out, stats)
    _write_manifest(config, "merge", {}, [fwd] + ([rev] if rev else []),
                    [out, stats], counts)


def _stage_analogy(config: PipelineConfig, inputs: RunInputs) -> None:
    params = config.analogy
    seed = _seed_path(config)
    store = _require(config, config.store_path())
    _require(config, config.path("lexicon.tsv"))
    quads = analogy_find(inputs.seed, params["max_distance"], params["size_guard"])
    models_path = config.path("analogy_models.jsonl")
    models = analogy_models(quads, inputs.seed, models_path, params["check_target"])
    quasi_path = config.path("quasi.tsv")
    by_distance = Counter(quad.d_ab for quad in quads)
    counts = {"quadruples": len(quads), "models": len(models),
              "quadruples_by_distance": {str(d): n for d, n in sorted(by_distance.items())},
              **analogy_generate(models, inputs.store, inputs.lexicon, quasi_path,
                                 params["allow_unknown"])}
    report_path = config.path("quasi_report.json")
    corpus_io.write_json(report_path, counts)
    _write_manifest(config, "analogy", params, [seed, store],
                    [models_path, quasi_path, report_path], counts)


def _stage_filter(config: PipelineConfig, inputs: RunInputs) -> None:
    params = config.filter
    mined = _require(config, config.path("mined.tsv"))
    run = functools.partial(filter_bitext, min_chars=params["min_chars"],
                            lexicon=inputs.lexicon, cascade=params["cascade"])
    kept, report, rejected = (config.path(name) for name in
                              ("filtered.tsv", "filter_report.json", "rejected.tsv"))
    counts = run(mined, kept, report, rejected=rejected)
    filtered, outputs = [mined], [kept, report, rejected]
    quasi = config.path("quasi.tsv")
    if quasi.exists():
        q_kept = config.path("quasi_filtered.tsv")
        q_report = config.path("quasi_filter_report.json")
        counts["quasi"] = run(quasi, q_kept, q_report)
        filtered.append(quasi)
        outputs += [q_kept, q_report]
    _write_manifest(config, "filter", params, filtered, outputs, counts)


def _stage_eval(config: PipelineConfig, inputs: RunInputs) -> None:
    from . import metrics
    params = config.eval
    filtered_path = _require(config, config.path("filtered.tsv"))
    lex = inputs.lexicon
    test, _train = sample(filtered_path, params["segments"], params["per_segment"],
                          params["seed"])
    pairs = []
    for bs in test.pairs:
        hyp = tuple(lexicon_mod.gloss_translate(lex, corpus_io.tokenize(bs.src)))
        ref = tuple(corpus_io.tokenize(bs.tgt))
        pairs.append(metrics.EvalPair(hypothesis=hyp, references=(ref,)))
    scores = {name: score(pairs, name) for name in METRICS}
    report = {
        "test_pairs": len(pairs),
        "scores": scores,
        "scores_x100": {k: v * 100.0 for k, v in scores.items()},
    }
    out = config.path("eval_report.json")
    corpus_io.write_json(out, report)
    _write_manifest(config, "eval", params, [filtered_path], [out],
                    {"test_pairs": len(pairs)})

_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "lexicon": _stage_lexicon,
    "classifier": _stage_classifier,
    "mine": _stage_mine,
    "merge": _stage_merge,
    "analogy": _stage_analogy,
    "filter": _stage_filter,
    "eval": _stage_eval,
}
# the stages in the order they run; run_pipeline looks each one up in
# _STAGE_FUNCS when it runs it, so a benchmark may wrap the entries
STAGES = tuple(_STAGE_FUNCS)


def run_pipeline(config: PipelineConfig, stages: list[str] | None) -> None:
    """Run the requested stages in dependency order; ``stages`` None runs
    them all, skipping ingest when no ingest path is set."""
    requested = list(STAGES) if stages is None else list(stages)
    unknown = [s for s in requested if s not in STAGES]
    if unknown:
        raise PipelineError(f"unknown stages {unknown}; choose from {list(STAGES)}")
    if stages is None and not any(config.ingest.values()):
        requested.remove("ingest")
    Path(config.workdir).mkdir(parents=True, exist_ok=True)
    inputs = RunInputs(config)
    requested = [stage for stage in STAGES if stage in requested]
    for done, stage in enumerate(requested, 1):
        _STAGE_FUNCS[stage](config, inputs)
        for name, readers in _READERS.items():
            if not readers.intersection(requested[done:]):
                vars(inputs).pop(name, None)
