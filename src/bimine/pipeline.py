"""End-to-end pipeline: ingest -> lexicon -> classifier -> mine -> merge ->
analogy -> filter -> eval.

Every stage reads its inputs from the work directory (or configured paths),
writes its artifact plus a JSON run manifest (inputs, checksums, parameters,
counts), and is deterministic given the config seeds: re-running with
identical inputs reproduces identical artifacts byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import analogy as analogy_mod
from . import classifier as classifier_mod
from . import corpus_io, filtering, lexicon as lexicon_mod, metrics, miner

STAGES = ("ingest", "lexicon", "classifier", "mine", "merge", "analogy",
          "filter", "eval")

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


@dataclass
class PipelineConfig:
    workdir: str
    src_lang: str = "pl"
    tgt_lang: str = "en"
    seed_corpus: str = ""
    store: str = ""
    ingest: dict = field(default_factory=dict)
    lexicon: dict = field(default_factory=lambda: {"iterations": 10, "prune_below": 1e-4})
    classifier: dict = field(default_factory=lambda: {
        "neg_per_pos": 3, "epochs": 30, "learning_rate": 0.1,
        "margin_reg": 1e-4, "seed": 13, "threshold": 0.5})
    mining: dict = field(default_factory=lambda: {
        "threshold": 0.5, "gap_cost": 0.4, "workers": 1, "bidirectional": False})
    analogy: dict = field(default_factory=lambda: {
        "max_distance": 4, "size_guard": 50000, "allow_unknown": False,
        "check_target": False})
    filter: dict = field(default_factory=lambda: {"min_chars": 10, "cascade": ""})
    eval: dict = field(default_factory=lambda: {
        "segments": 200, "per_segment": 10, "seed": 7})

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise PipelineError(f"{path}: unknown config keys {sorted(unknown)}")
        if "workdir" not in doc:
            raise PipelineError(f"{path}: config needs 'workdir'")
        config = cls(workdir=doc["workdir"])
        for key, value in doc.items():
            if isinstance(getattr(config, key), dict):
                getattr(config, key).update(value)
            else:
                setattr(config, key, value)
        return config

    def path(self, artifact: str) -> Path:
        return Path(self.workdir) / artifact

    def store_path(self) -> Path:
        return Path(self.store) if self.store else self.path("store.jsonl")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(config: PipelineConfig, stage: str, params: dict,
                    inputs: list[Path], outputs: list[Path], counts: dict) -> None:
    doc = {
        "stage": stage,
        "params": params,
        "inputs": {p.name: _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "counts": counts,
    }
    with open(config.path(f"manifest.{stage}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(config: PipelineConfig, path: Path) -> Path:
    if not path.exists():
        stage = _ARTIFACT_STAGE.get(path.name)
        hint = f"; run stage '{stage}' first" if stage else ""
        raise PipelineError(f"missing artifact {path}{hint}")
    return path


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# stages

def _stage_ingest(config: PipelineConfig) -> None:
    spec = config.ingest
    for key in ("src_dump", "tgt_dump", "links"):
        if key not in spec:
            raise PipelineError(f"ingest stage needs config.ingest.{key}")
        if not Path(spec[key]).exists():
            raise PipelineError(f"ingest input {spec[key]} does not exist")
    src_dump = corpus_io.read_article_dump(spec["src_dump"])
    tgt_dump = corpus_io.read_article_dump(spec["tgt_dump"])
    links = corpus_io.read_links(spec["links"])
    src_clean = {t: corpus_io.clean_document(b) for t, b in src_dump.items()}
    tgt_clean = {t: corpus_io.clean_document(b) for t, b in tgt_dump.items()}
    pairs = corpus_io.pair_articles(src_clean, tgt_clean, links,
                                    config.src_lang, config.tgt_lang)
    out = config.store_path()
    corpus_io.write_article_store(out, pairs)
    _write_manifest(config, "ingest", spec,
                    [Path(spec["src_dump"]), Path(spec["tgt_dump"]), Path(spec["links"])],
                    [out], {"article_pairs": len(pairs)})
    _log(f"ingest: {len(pairs)} article pairs -> {out}")


def _load_seed(config: PipelineConfig) -> corpus_io.BitextCorpus:
    if not config.seed_corpus:
        raise PipelineError("config.seed_corpus is not set")
    path = Path(config.seed_corpus)
    if not path.exists():
        raise PipelineError(f"seed corpus {path} does not exist")
    return corpus_io.read_bitext(path, config.src_lang, config.tgt_lang)


def _stage_lexicon(config: PipelineConfig) -> None:
    seed = _load_seed(config)
    params = config.lexicon
    lex = lexicon_mod.train_lexicon(seed, int(params["iterations"]),
                                    float(params["prune_below"]))
    out = config.path("lexicon.tsv")
    lexicon_mod.write_lexicon(out, lex)
    outputs = [out]
    counts = {"entries": len(lex)}
    if config.mining.get("bidirectional"):
        flipped = corpus_io.BitextCorpus(
            [corpus_io.BiSentence(p.tgt, p.src, p.score) for p in seed.pairs],
            config.tgt_lang, config.src_lang)
        rev = lexicon_mod.train_lexicon(flipped, int(params["iterations"]),
                                        float(params["prune_below"]))
        rev_out = config.path("lexicon.rev.tsv")
        lexicon_mod.write_lexicon(rev_out, rev)
        outputs.append(rev_out)
        counts["entries_rev"] = len(rev)
    _write_manifest(config, "lexicon", params, [Path(config.seed_corpus)],
                    outputs, counts)
    _log(f"lexicon: {counts} -> {out}")


def _stage_classifier(config: PipelineConfig) -> None:
    seed = _load_seed(config)
    params = config.classifier
    lex = lexicon_mod.read_lexicon(_require(config, config.path("lexicon.tsv")),
                                   config.src_lang, config.tgt_lang)

    def train(corpus, lexicon):
        model = classifier_mod.train_model(
            corpus, lexicon,
            neg_per_pos=int(params["neg_per_pos"]),
            epochs=int(params["epochs"]),
            learning_rate=float(params["learning_rate"]),
            margin_reg=float(params["margin_reg"]),
            seed_rng=int(params["seed"]))
        model.threshold = float(params["threshold"])
        return model

    out = config.path("classifier.json")
    classifier_mod.save_model(out, train(seed, lex))
    outputs = [out]
    if config.mining.get("bidirectional"):
        rev_lex = lexicon_mod.read_lexicon(
            _require(config, config.path("lexicon.rev.tsv")),
            config.tgt_lang, config.src_lang)
        flipped = corpus_io.BitextCorpus(
            [corpus_io.BiSentence(p.tgt, p.src, p.score) for p in seed.pairs],
            config.tgt_lang, config.src_lang)
        rev_out = config.path("classifier.rev.json")
        classifier_mod.save_model(rev_out, train(flipped, rev_lex))
        outputs.append(rev_out)
    _write_manifest(config, "classifier", params,
                    [Path(config.seed_corpus), config.path("lexicon.tsv")],
                    outputs, {})
    _log(f"classifier: -> {out}")


def _stage_mine(config: PipelineConfig) -> None:
    params = config.mining
    store_path = _require(config, config.store_path())
    model = classifier_mod.load_model(_require(config, config.path("classifier.json")))
    lex = lexicon_mod.read_lexicon(_require(config, config.path("lexicon.tsv")),
                                   config.src_lang, config.tgt_lang)
    threshold = params.get("threshold")
    threshold = model.threshold if threshold is None else float(threshold)
    corpus, log = miner.mine_corpus(
        corpus_io.read_article_store(store_path), model, lex,
        gap_cost=float(params["gap_cost"]), threshold=threshold,
        workers=int(params["workers"]))
    out = config.path("mined.fwd.tsv")
    corpus_io.write_bitext(out, corpus)
    outputs = [out]
    counts = {"articles": len(log), "mined_fwd": len(corpus.pairs)}
    if params.get("bidirectional"):
        rev_model = classifier_mod.load_model(
            _require(config, config.path("classifier.rev.json")))
        rev_lex = lexicon_mod.read_lexicon(
            _require(config, config.path("lexicon.rev.tsv")),
            config.tgt_lang, config.src_lang)
        flipped = (corpus_io.ArticlePair(p.id, p.tgt, p.src)
                   for p in corpus_io.read_article_store(store_path))
        rev_corpus, rev_log = miner.mine_corpus(
            flipped, rev_model, rev_lex,
            gap_cost=float(params["gap_cost"]), threshold=threshold,
            workers=int(params["workers"]))
        rev_out = config.path("mined.rev.tsv")
        corpus_io.write_bitext(rev_out, rev_corpus)
        outputs.append(rev_out)
        counts["mined_rev"] = len(rev_corpus.pairs)
    log_path = config.path("mine_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    outputs.append(log_path)
    _write_manifest(config, "mine", params, [store_path], outputs, counts)
    _log(f"mine: {counts}")


def _stage_merge(config: PipelineConfig) -> None:
    fwd = corpus_io.read_bitext(_require(config, config.path("mined.fwd.tsv")),
                                config.src_lang, config.tgt_lang)
    out = config.path("mined.tsv")
    stats_path = config.path("overlap_stats.json")
    if config.mining.get("bidirectional"):
        # reverse-direction output is flipped on load into (src, tgt) order
        rev = corpus_io.read_bitext(_require(config, config.path("mined.rev.tsv")),
                                    config.src_lang, config.tgt_lang, flip=True)
        merged, stats = miner.merge_bidirectional(fwd, rev)
        inputs = [config.path("mined.fwd.tsv"), config.path("mined.rev.tsv")]
    else:
        merged, stats = miner.merge_bidirectional(
            fwd, corpus_io.BitextCorpus([], config.src_lang, config.tgt_lang))
        inputs = [config.path("mined.fwd.tsv")]
    corpus_io.write_bitext(out, merged)
    miner.write_overlap_stats(stats_path, stats)
    _write_manifest(config, "merge", {}, inputs, [out, stats_path],
                    {"merged": len(merged.pairs), **stats.as_dict()})
    _log(f"merge: {len(merged.pairs)} pairs, newly obtained {stats.newly_obtained}")


def _stage_analogy(config: PipelineConfig) -> None:
    params = config.analogy
    seed = _load_seed(config)
    store_path = _require(config, config.store_path())
    lex = lexicon_mod.read_lexicon(_require(config, config.path("lexicon.tsv")),
                                   config.src_lang, config.tgt_lang)
    sentences = [corpus_io.tokenize(p.src, lowercase=True) for p in seed.pairs]
    try:
        analogy_mod.check_size_guard(len(sentences), int(params["size_guard"]))
    except analogy_mod.SizeGuardError as exc:
        raise PipelineError(str(exc)) from exc
    quads = analogy_mod.find_analogies(sentences, int(params["max_distance"]))
    models = analogy_mod.models_from_quadruples(
        quads, seed, check_target_side=bool(params.get("check_target")))
    models_path = config.path("analogy_models.jsonl")
    analogy_mod.write_models(models_path, models)
    quasi_path = config.path("quasi.tsv")
    report_path = config.path("quasi_report.json")
    counts = {"quadruples": len(quads), "models": len(models)}
    if models:
        quasi = analogy_mod.generate_corpus(
            models, corpus_io.read_article_store(store_path), lex,
            allow_unknown=bool(params["allow_unknown"]))
        corpus_io.write_bitext(
            quasi_path,
            corpus_io.BitextCorpus([e.pair for e in quasi.entries],
                                   config.src_lang, config.tgt_lang))
        counts.update(quasi.report())
    else:
        corpus_io.write_bitext(quasi_path, corpus_io.BitextCorpus([]))
        counts.update({"generated": 0, "confirmed": 0})
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(config, "analogy", params,
                    [Path(config.seed_corpus), store_path],
                    [models_path, quasi_path, report_path], counts)
    _log(f"analogy: {counts}")


def _stage_filter(config: PipelineConfig) -> None:
    params = config.filter
    mined_path = _require(config, config.path("mined.tsv"))
    lex = lexicon_mod.read_lexicon(_require(config, config.path("lexicon.tsv")),
                                   config.src_lang, config.tgt_lang)
    cascade = (filtering.read_cascade_config(params["cascade"])
               if params.get("cascade") else filtering.CascadeConfig())
    translator = filtering.make_gloss_translator(lex)

    def run(corpus):
        trivial_kept, trivial_report = filtering.remove_trivial(
            corpus, int(params["min_chars"]))
        kept, rejected, cascade_report = filtering.filter_corpus(
            trivial_kept, translator, cascade)
        report = filtering.FilterReport(
            input_count=trivial_report.input_count,
            kept_count=cascade_report.kept_count,
            rejected_count=(trivial_report.rejected_count
                            + cascade_report.rejected_count),
            rejections={**trivial_report.rejections, **cascade_report.rejections})
        return kept, rejected, report

    corpus = corpus_io.read_bitext(mined_path, config.src_lang, config.tgt_lang)
    kept, rejected, report = run(corpus)
    kept_path = config.path("filtered.tsv")
    rejected_path = config.path("rejected.tsv")
    report_path = config.path("filter_report.json")
    corpus_io.write_bitext(kept_path, kept)
    corpus_io.write_bitext(rejected_path, rejected)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs = [kept_path, rejected_path, report_path]
    inputs = [mined_path]
    counts = dict(report.as_dict())
    quasi_path = config.path("quasi.tsv")
    if quasi_path.exists():
        q_kept, _, q_report = run(
            corpus_io.read_bitext(quasi_path, config.src_lang, config.tgt_lang))
        q_out = config.path("quasi_filtered.tsv")
        corpus_io.write_bitext(q_out, q_kept)
        q_report_path = config.path("quasi_filter_report.json")
        with open(q_report_path, "w", encoding="utf-8") as fh:
            json.dump(q_report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs += [q_out, q_report_path]
        inputs.append(quasi_path)
        counts["quasi"] = q_report.as_dict()
    _write_manifest(config, "filter", params, inputs, outputs, counts)
    _log(f"filter: kept {report.kept_count} of {report.input_count}")


def _stage_eval(config: PipelineConfig) -> None:
    params = config.eval
    filtered_path = _require(config, config.path("filtered.tsv"))
    lex = lexicon_mod.read_lexicon(_require(config, config.path("lexicon.tsv")),
                                   config.src_lang, config.tgt_lang)
    corpus = corpus_io.read_bitext(filtered_path, config.src_lang, config.tgt_lang)
    test, _train = corpus_io.sample_test_set(
        corpus, int(params["segments"]), int(params["per_segment"]),
        int(params["seed"]))
    pairs = []
    for bs in test.pairs:
        hyp = tuple(lexicon_mod.gloss_translate(
            lex, corpus_io.tokenize(bs.src, lowercase=True)))
        ref = tuple(corpus_io.tokenize(bs.tgt, lowercase=True))
        pairs.append(metrics.EvalPair(hypothesis=hyp, references=(ref,)))
    scores = {
        "bleu": metrics.bleu(pairs),
        "nist": metrics.nist(pairs),
        "ter": metrics.corpus_ter(pairs),
        "meteor": metrics.corpus_meteor(pairs),
    }
    report = {
        "test_pairs": len(pairs),
        "scores": scores,
        "scores_x100": {k: v * 100.0 for k, v in scores.items()},
    }
    out = config.path("eval_report.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(config, "eval", params, [filtered_path], [out],
                    {"test_pairs": len(pairs)})
    _log(f"eval: {scores}")


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


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> None:
    """Run the requested stages in dependency order."""
    requested = list(STAGES) if stages is None else list(stages)
    unknown = [s for s in requested if s not in STAGES]
    if unknown:
        raise PipelineError(f"unknown stages {unknown}; choose from {list(STAGES)}")
    if stages is None and not config.ingest:
        requested.remove("ingest")
    Path(config.workdir).mkdir(parents=True, exist_ok=True)
    for stage in STAGES:
        if stage in requested:
            _STAGE_FUNCS[stage](config)
