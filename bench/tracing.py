"""Tracing for the benchmark's traced runs, applied from outside the package.

``install`` replaces public functions with wrappers at the names their
callers look up: ``bimine.miner`` binds ``segment_sentences``, ``similarity``
and ``align`` at import, so those are patched there; ``bimine.pipeline``
calls through module attributes (``corpus_io.clean_document``,
``analogy_mod.find_analogies``, ...), so those are patched on the module.
Stages are wrapped through ``bimine.pipeline._STAGE_FUNCS``, the pipeline's
dispatch table.

Most wrappers record one span per call: name, start, end, parent span and run
id.  Hot inner functions (``classifier.similarity``, ``lexicon.gloss_translate``,
``analogy.char_profile_check`` and the article-store reader's iteration) get a
call counter and summed time instead, because a span per call would change
the timings being measured.  A span's self time is its duration minus the
time its child spans and counted calls cover, so the self times of all spans
plus the counted times add up to the root span.  Counted functions must not
call wrapped functions, or that time would be subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

LAYERS = ("corpus_io", "lexicon", "classifier", "aligner", "miner", "analogy",
          "filtering", "metrics", "pipeline", "cli")

STAGES = ("ingest", "lexicon", "classifier", "mine", "merge", "analogy",
          "filter", "eval")

FILTER_DECISIONS = ("kept", "duplicate", "short", "non-letter", "reject-fast",
                    "reject-stem", "reject-synonym", "fallthrough",
                    "translator-error")

# corpus_io readers and writers, summed into corpus_io.io.s
IO_NAMES = ("corpus_io.read_article_dump", "corpus_io.read_links",
            "corpus_io.write_article_store", "corpus_io.read_article_store",
            "corpus_io.read_bitext", "corpus_io.write_bitext")

# (metric name, unit) reported by a traced run, in report order
PER_LAYER = [
    ("analogy.find_analogies.s", "s"),
    ("analogy.sentences", "count"),
    ("analogy.quadruples", "count"),
    ("analogy.char_profile_check.calls", "count"),
    ("analogy.models_from_quadruples.s", "s"),
    ("analogy.models", "count"),
    ("analogy.generate_corpus.s", "s"),
    ("analogy.generated", "count"),
    ("analogy.confirmed_fraction", "ratio"),
    ("corpus_io.segment_sentences.calls", "count"),
    ("corpus_io.segment_sentences.s", "s"),
    ("corpus_io.segment_sentences.chars", "count"),
    ("corpus_io.segment_sentences.us_per_kchar", "us"),
    ("corpus_io.segment_sentences.max_ms", "ms"),
    ("corpus_io.clean_document.calls", "count"),
    ("corpus_io.clean_document.s", "s"),
    ("corpus_io.clean_document.chars", "count"),
    ("corpus_io.io.s", "s"),
    ("classifier.similarity.calls", "count"),
    ("classifier.similarity.s", "s"),
    ("classifier.similarity.us_per_call", "us"),
    ("classifier.train_model.s", "s"),
    ("aligner.align.calls", "count"),
    ("aligner.align.self_s", "s"),
    ("aligner.cells", "count"),
    ("aligner.cells_scored", "count"),
    ("aligner.scored_fraction", "ratio"),
    ("miner.mine_pair.calls", "count"),
    ("miner.mine_pair.p50_ms", "ms"),
    ("miner.mine_pair.p95_ms", "ms"),
    ("miner.mine_pair.max_ms", "ms"),
    ("miner.mine_corpus.s", "s"),
    ("miner.articles_per_s", "1/s"),
    ("miner.mined_pairs", "count"),
    ("miner.merge_bidirectional.s", "s"),
    ("lexicon.train_lexicon.calls", "count"),
    ("lexicon.train_lexicon.s", "s"),
    ("lexicon.train_lexicon.s_per_iter", "s"),
    ("lexicon.entries", "count"),
    ("lexicon.gloss_translate.calls", "count"),
    ("lexicon.gloss_translate.s", "s"),
    ("filtering.remove_trivial.s", "s"),
    ("filtering.filter_corpus.s", "s"),
    ("filtering.filter_corpus.pairs", "count"),
    ("filtering.filter_corpus.us_per_pair", "us"),
    ("filtering.kept_fraction", "ratio"),
    *[(f"filtering.decisions.{d}", "count") for d in FILTER_DECISIONS],
    ("metrics.bleu.s", "s"),
    ("metrics.nist.s", "s"),
    ("metrics.corpus_ter.s", "s"),
    ("metrics.corpus_meteor.s", "s"),
    ("metrics.pairs", "count"),
    ("pipeline.cpu_s", "s"),
    *[(f"pipeline.stage.{s}.s", "s") for s in STAGES],
    ("pipeline.overhead_s", "s"),
    ("cli.import_s", "s"),
    ("cli.config_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS if layer not in ("pipeline", "cli")],
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.missing_layers", "count"),
]


class Tracer:
    """Spans and counters of one pipeline run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counted: dict[str, list] = {}  # name -> [calls, seconds]
        self.extra: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [id, name, start, covered]

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _cover(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][3] += seconds

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(tracer, bound
        arguments, result)`` runs outside the span to collect counts."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans) + len(self._stack), name, perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                self._cover(duration)
                self.spans.append({"id": frame[0], "name": name, "parent": parent,
                                   "run": self.run_id, "start": frame[2], "end": end,
                                   "self": duration - frame[3]})
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result
        return wrapper

    def count(self, name: str, fn, timed: bool = True):
        """Wrap a hot function with a call counter and, if ``timed``, summed time."""
        stat = self.counted.setdefault(name, [0, 0.0])
        if not timed:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
            return counting

        @functools.wraps(fn)
        def timing(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat[0] += 1
                stat[1] += elapsed
                self._cover(elapsed)
        return timing

    def count_iter(self, name: str, fn):
        """Wrap a generator function: count calls, sum the time spent inside
        ``next`` (reading), not the consumer's work between items."""
        stat = self.counted.setdefault(name, [0, 0.0])

        def iterate(gen):
            while True:
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stat[1] += elapsed
                    self._cover(elapsed)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return iterate(fn(*args, **kwargs))
        return wrapper

    def aggregate(self) -> dict:
        """Per-name durations and self times, counters and extras."""
        durations: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        for span in self.spans:
            durations.setdefault(span["name"], []).append(span["end"] - span["start"])
            self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["self"]
        return {"durations": durations, "self_s": self_s,
                "counted": {k: list(v) for k, v in self.counted.items()},
                "extra": dict(self.extra)}


# ---------------------------------------------------------------------------
# count collectors, run after the wrapped call returns

def _chars(key):
    def after(tracer, args, result):
        tracer.add(key, len(next(iter(args.values()))))
    return after


def _align(tracer, args, result):
    tracer.add("aligner.cells", len(args["src"]) * len(args["tgt"]))


def _train_lexicon(tracer, args, result):
    tracer.add("lexicon.iterations", args["iterations"])
    tracer.add("lexicon.entries", len(result))


def _find_analogies(tracer, args, result):
    tracer.add("analogy.sentences", len(args["sentences"]))
    tracer.add("analogy.quadruples", len(result))


def _models(tracer, args, result):
    tracer.add("analogy.models", len(result))


def _generate(tracer, args, result):
    report = result.report()
    tracer.add("analogy.generated", report["generated"])
    tracer.add("analogy.confirmed", report["confirmed"])


def _mine_corpus(tracer, args, result):
    tracer.add("miner.mined_pairs", len(result[0].pairs))


def _decisions(tracer, report) -> None:
    for reason, count in report.rejections.items():
        tracer.add(f"filtering.decisions.{reason}", count)


def _remove_trivial(tracer, args, result):
    tracer.add("filtering.input", result[1].input_count)
    _decisions(tracer, result[1])


def _filter_corpus(tracer, args, result):
    report = result[2]
    tracer.add("filtering.filter_corpus.pairs", report.input_count)
    tracer.add("filtering.decisions.kept", report.kept_count)
    _decisions(tracer, report)


def _eval_pairs(tracer, args, result):
    tracer.add("metrics.pairs", len(args["corpus"]))


# (module, attribute, kind, trace name, collector); kind is "span",
# "count", "count-untimed" or "iter"
PATCHES = [
    ("bimine.cli", "run_pipeline", "span", "pipeline.run_pipeline", None),
    ("bimine.corpus_io", "clean_document", "span", "corpus_io.clean_document",
     _chars("corpus_io.clean_document.chars")),
    ("bimine.miner", "segment_sentences", "span", "corpus_io.segment_sentences",
     _chars("corpus_io.segment_sentences.chars")),
    ("bimine.analogy", "segment_sentences", "span", "corpus_io.segment_sentences",
     _chars("corpus_io.segment_sentences.chars")),
    ("bimine.corpus_io", "read_article_dump", "span", "corpus_io.read_article_dump", None),
    ("bimine.corpus_io", "read_links", "span", "corpus_io.read_links", None),
    ("bimine.corpus_io", "pair_articles", "span", "corpus_io.pair_articles", None),
    ("bimine.corpus_io", "write_article_store", "span", "corpus_io.write_article_store", None),
    ("bimine.corpus_io", "read_article_store", "iter", "corpus_io.read_article_store", None),
    ("bimine.corpus_io", "read_bitext", "span", "corpus_io.read_bitext", None),
    ("bimine.corpus_io", "write_bitext", "span", "corpus_io.write_bitext", None),
    ("bimine.corpus_io", "sample_test_set", "span", "corpus_io.sample_test_set", None),
    ("bimine.lexicon", "train_lexicon", "span", "lexicon.train_lexicon", _train_lexicon),
    ("bimine.lexicon", "read_lexicon", "span", "lexicon.read_lexicon", None),
    ("bimine.lexicon", "write_lexicon", "span", "lexicon.write_lexicon", None),
    ("bimine.lexicon", "gloss_translate", "count", "lexicon.gloss_translate", None),
    ("bimine.filtering", "gloss_translate", "count", "lexicon.gloss_translate", None),
    ("bimine.analogy", "gloss_translate", "count", "lexicon.gloss_translate", None),
    ("bimine.classifier", "train_model", "span", "classifier.train_model", None),
    ("bimine.classifier", "save_model", "span", "classifier.save_model", None),
    ("bimine.classifier", "load_model", "span", "classifier.load_model", None),
    ("bimine.miner", "similarity", "count", "classifier.similarity", None),
    ("bimine.miner", "align", "span", "aligner.align", _align),
    ("bimine.miner", "mine_corpus", "span", "miner.mine_corpus", _mine_corpus),
    ("bimine.miner", "mine_pair", "span", "miner.mine_pair", None),
    ("bimine.miner", "merge_bidirectional", "span", "miner.merge_bidirectional", None),
    ("bimine.miner", "write_overlap_stats", "span", "miner.write_overlap_stats", None),
    ("bimine.analogy", "find_analogies", "span", "analogy.find_analogies", _find_analogies),
    ("bimine.analogy", "char_profile_check", "count-untimed",
     "analogy.char_profile_check", None),
    ("bimine.analogy", "models_from_quadruples", "span", "analogy.models_from_quadruples",
     _models),
    ("bimine.analogy", "generate_corpus", "span", "analogy.generate_corpus", _generate),
    ("bimine.analogy", "write_models", "span", "analogy.write_models", None),
    ("bimine.filtering", "remove_trivial", "span", "filtering.remove_trivial",
     _remove_trivial),
    ("bimine.filtering", "filter_corpus", "span", "filtering.filter_corpus", _filter_corpus),
    ("bimine.metrics", "bleu", "span", "metrics.bleu", _eval_pairs),
    ("bimine.metrics", "nist", "span", "metrics.nist", None),
    ("bimine.metrics", "corpus_ter", "span", "metrics.corpus_ter", None),
    ("bimine.metrics", "corpus_meteor", "span", "metrics.corpus_meteor", None),
]


def install(tracer: Tracer) -> list[str]:
    """Patch every site in PATCHES; returns the sites that do not exist, whose
    layers then show up as missing when the run's outputs show their work."""
    absent = []
    for module_name, attr, kind, name, after in PATCHES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(f"{module_name}.{attr}")
            continue
        if kind == "span":
            wrapped = tracer.span(name, fn, after)
        elif kind == "iter":
            wrapped = tracer.count_iter(name, fn)
        else:
            wrapped = tracer.count(name, fn, timed=(kind == "count"))
        setattr(module, attr, wrapped)
    pipeline = importlib.import_module("bimine.pipeline")
    table = getattr(pipeline, "_STAGE_FUNCS", {})
    for stage in STAGES:
        if stage in table:
            table[stage] = tracer.span(f"pipeline.stage.{stage}", table[stage])
        else:
            absent.append(f"bimine.pipeline._STAGE_FUNCS[{stage}]")
    return absent


# ---------------------------------------------------------------------------
# per-layer metrics

def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(agg: dict, rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from the tracer's
    aggregate and the repetition's own timings (``rep``)."""
    durations, self_s = agg["durations"], agg["self_s"]
    counted, extra = agg["counted"], agg["extra"]

    def calls(name):
        return len(durations.get(name, ())) or counted.get(name, [0])[0]

    def total(name):
        return sum(durations.get(name, ())) + counted.get(name, [0, 0.0])[1]

    def get(key):
        return extra.get(key, 0)

    m: dict[str, float] = {}
    m["analogy.find_analogies.s"] = total("analogy.find_analogies")
    m["analogy.sentences"] = get("analogy.sentences")
    m["analogy.quadruples"] = get("analogy.quadruples")
    m["analogy.char_profile_check.calls"] = calls("analogy.char_profile_check")
    m["analogy.models_from_quadruples.s"] = total("analogy.models_from_quadruples")
    m["analogy.models"] = get("analogy.models")
    m["analogy.generate_corpus.s"] = total("analogy.generate_corpus")
    m["analogy.generated"] = get("analogy.generated")
    m["analogy.confirmed_fraction"] = _div(get("analogy.confirmed"), get("analogy.generated"))

    seg = durations.get("corpus_io.segment_sentences", [])
    seg_chars = get("corpus_io.segment_sentences.chars")
    m["corpus_io.segment_sentences.calls"] = len(seg)
    m["corpus_io.segment_sentences.s"] = sum(seg)
    m["corpus_io.segment_sentences.chars"] = seg_chars
    m["corpus_io.segment_sentences.us_per_kchar"] = _div(sum(seg) * 1e6, seg_chars / 1000)
    m["corpus_io.segment_sentences.max_ms"] = max(seg, default=0.0) * 1e3
    m["corpus_io.clean_document.calls"] = calls("corpus_io.clean_document")
    m["corpus_io.clean_document.s"] = total("corpus_io.clean_document")
    m["corpus_io.clean_document.chars"] = get("corpus_io.clean_document.chars")
    m["corpus_io.io.s"] = sum(total(name) for name in IO_NAMES)

    sim_calls = calls("classifier.similarity")
    m["classifier.similarity.calls"] = sim_calls
    m["classifier.similarity.s"] = total("classifier.similarity")
    m["classifier.similarity.us_per_call"] = _div(total("classifier.similarity") * 1e6,
                                                  sim_calls)
    m["classifier.train_model.s"] = total("classifier.train_model")

    m["aligner.align.calls"] = calls("aligner.align")
    m["aligner.align.self_s"] = self_s.get("aligner.align", 0.0)
    m["aligner.cells"] = get("aligner.cells")
    m["aligner.cells_scored"] = sim_calls  # the miner scores cells only inside align
    m["aligner.scored_fraction"] = _div(sim_calls, get("aligner.cells"))

    pair_ms = [d * 1e3 for d in durations.get("miner.mine_pair", [])]
    m["miner.mine_pair.calls"] = len(pair_ms)
    m["miner.mine_pair.p50_ms"] = statistics.median(pair_ms) if pair_ms else 0.0
    m["miner.mine_pair.p95_ms"] = _quantile(pair_ms, 0.95)
    m["miner.mine_pair.max_ms"] = max(pair_ms, default=0.0)
    m["miner.mine_corpus.s"] = total("miner.mine_corpus")
    m["miner.articles_per_s"] = _div(len(pair_ms), total("miner.mine_corpus"))
    m["miner.mined_pairs"] = get("miner.mined_pairs")
    m["miner.merge_bidirectional.s"] = total("miner.merge_bidirectional")

    m["lexicon.train_lexicon.calls"] = calls("lexicon.train_lexicon")
    m["lexicon.train_lexicon.s"] = total("lexicon.train_lexicon")
    m["lexicon.train_lexicon.s_per_iter"] = _div(total("lexicon.train_lexicon"),
                                                 get("lexicon.iterations"))
    m["lexicon.entries"] = get("lexicon.entries")
    m["lexicon.gloss_translate.calls"] = calls("lexicon.gloss_translate")
    m["lexicon.gloss_translate.s"] = total("lexicon.gloss_translate")

    filter_pairs = get("filtering.filter_corpus.pairs")
    m["filtering.remove_trivial.s"] = total("filtering.remove_trivial")
    m["filtering.filter_corpus.s"] = total("filtering.filter_corpus")
    m["filtering.filter_corpus.pairs"] = filter_pairs
    m["filtering.filter_corpus.us_per_pair"] = _div(total("filtering.filter_corpus") * 1e6,
                                                    filter_pairs)
    m["filtering.kept_fraction"] = _div(get("filtering.decisions.kept"),
                                        get("filtering.input"))
    for decision in FILTER_DECISIONS:
        m[f"filtering.decisions.{decision}"] = get(f"filtering.decisions.{decision}")

    for fn in ("bleu", "nist", "corpus_ter", "corpus_meteor"):
        m[f"metrics.{fn}.s"] = total(f"metrics.{fn}")
    m["metrics.pairs"] = get("metrics.pairs")

    m["pipeline.cpu_s"] = rep["cpu_s"]
    for stage in STAGES:
        m[f"pipeline.stage.{stage}.s"] = total(f"pipeline.stage.{stage}")
    m["pipeline.overhead_s"] = sum(v for k, v in self_s.items() if k.startswith("pipeline."))
    m["cli.import_s"] = rep["import_s"]
    m["cli.config_s"] = rep["config_s"]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer_self[name.split(".")[0]] += seconds
    for name, (_calls, seconds) in counted.items():
        layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS:
        if layer not in ("pipeline", "cli"):
            m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.coverage"] = _div(sum(layer_self.values()), rep["wall_s"])
    return m


def missing_layers(m: dict[str, float], stages: list[str], manifests: dict) -> list[str]:
    """Layers whose wrappers saw no call although the run's outputs show that
    the layer did work (e.g. work moved into worker processes)."""
    mine_counts = manifests.get("mine", {}).get("counts", {})
    analogy_counts = manifests.get("analogy", {}).get("counts", {})
    articles = mine_counts.get("articles", 0)
    checks = [
        ("corpus_io", "ingest" in stages, "corpus_io.clean_document.calls"),
        ("corpus_io", articles > 0, "corpus_io.segment_sentences.calls"),
        ("lexicon", "lexicon" in stages, "lexicon.train_lexicon.calls"),
        ("classifier", "classifier" in stages, "classifier.train_model.s"),
        ("classifier", mine_counts.get("mined_fwd", 0) > 0, "classifier.similarity.calls"),
        ("aligner", articles > 0, "aligner.align.calls"),
        ("miner", articles > 0, "miner.mine_pair.calls"),
        ("analogy", "analogy" in stages, "analogy.find_analogies.s"),
        ("analogy", analogy_counts.get("quadruples", 0) > 0,
         "analogy.char_profile_check.calls"),
        ("analogy", analogy_counts.get("models", 0) > 0, "analogy.generate_corpus.s"),
        ("filtering", "filter" in stages, "filtering.filter_corpus.s"),
        ("metrics", "eval" in stages, "metrics.bleu.s"),
    ]
    checks += [("pipeline", stage in stages, f"pipeline.stage.{stage}.s")
               for stage in STAGES]
    return sorted({layer for layer, worked, key in checks if worked and not m.get(key)})
