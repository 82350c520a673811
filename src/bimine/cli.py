"""Command-line interface.

Subcommands: ingest, sample, stats, lexicon train, classifier train, mine,
merge-bidi, analogy find|models|generate, filter trivial|cascade,
eval [score]|compare, pipeline.  Data goes to files (or stdout for report
commands); a command that writes files prints one JSON record to standard
error, as a pipeline stage does, and a failure prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus_io, pipeline
# imported by name: replacing bimine.cli.run_pipeline hooks `bimine pipeline`
from .pipeline import run_pipeline


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _report(args, outputs: list, counts: dict) -> int:
    """Log the command's record: the outputs as given (an optional one that
    was not given is left out) and the counts."""
    command = " ".join(filter(None, (args.command, vars(args).get("subcommand"))))
    pipeline.log_record(command, [path for path in outputs if path is not None], counts)
    return 0


# ---------------------------------------------------------------------------
# command handlers

def _cmd_ingest(args) -> int:
    return _report(args, [args.out], pipeline.ingest(
        args.src_dump, args.tgt_dump, args.links, args.out, args.src_lang, args.tgt_lang))


def _cmd_sample(args) -> int:
    test, train = pipeline.sample(args.corpus, args.segments, args.per_segment, args.seed)
    corpus_io.write_bitext(args.test, test)
    corpus_io.write_bitext(args.train, train)
    return _report(args, [args.test, args.train],
                   {"test_pairs": len(test.pairs), "train_pairs": len(train.pairs)})


def _cmd_stats(args) -> int:
    corpus = corpus_io.read_bitext(args.corpus)
    report = corpus_io.corpus_stats(corpus)
    print(f"{'':>16}{'src':>14}{'tgt':>14}")
    print(f"{'size (bytes)':>16}{report['src']['bytes']:>14}{report['tgt']['bytes']:>14}")
    print(f"{'sentences':>16}{report['sentences']:>14}{report['sentences']:>14}")
    print(f"{'words':>16}{report['src']['tokens']:>14}{report['tgt']['tokens']:>14}")
    print(f"{'unique words':>16}{report['src']['unique_tokens']:>14}"
          f"{report['tgt']['unique_tokens']:>14}")
    return 0


def _cmd_lexicon_train(args) -> int:
    return _report(args, [args.out], pipeline.train_lexicon(
        args.seed, args.out, args.iters, args.prune_below))


def _cmd_classifier_train(args) -> int:
    return _report(args, [args.out], pipeline.train_classifier(
        args.seed, args.lexicon, args.out, args.src_lang, args.tgt_lang,
        neg_per_pos=args.neg_per_pos, epochs=args.epochs,
        learning_rate=args.learning_rate, margin_reg=args.margin_reg,
        seed_rng=args.seed_rng))


def _cmd_mine(args) -> int:
    return _report(args, [args.out, args.log], pipeline.mine(
        args.store, args.model, args.lexicon, args.out,
        gap_cost=args.gap_cost, threshold=args.threshold, log=args.log))


def _cmd_merge_bidi(args) -> int:
    return _report(args, [args.out, args.stats],
                   pipeline.merge(args.fwd, args.rev, args.out, args.stats))


# the analogy and eval handlers import bimine.analogy and bimine.metrics
# when called, as the pipeline's steps do, so other commands never load them

def _cmd_analogy_find(args) -> int:
    from . import analogy as analogy_mod
    try:
        quads = pipeline.analogy_find(args.seed, args.max_dist, args.size_guard)
    except pipeline.PipelineError as exc:  # the size guard
        _log(f"error: {exc}")
        return 2
    analogy_mod.write_quadruples(args.out, quads)
    return _report(args, [args.out], {"quadruples": len(quads)})


def _cmd_analogy_models(args) -> int:
    from . import analogy as analogy_mod
    models = pipeline.analogy_models(analogy_mod.read_quadruples(args.quads),
                                     args.seed, args.out, args.check_target)
    return _report(args, [args.out], {"models": len(models)})


def _cmd_analogy_generate(args) -> int:
    from . import analogy as analogy_mod
    return _report(args, [args.out], pipeline.analogy_generate(
        analogy_mod.read_models(args.models), args.store, args.lexicon, args.out,
        args.allow_unknown))


def _cmd_filter_trivial(args) -> int:
    return _report(args, [args.out, args.report], pipeline.filter_bitext(
        args.infile, args.out, args.report, min_chars=args.min_chars))


def _cmd_filter_cascade(args) -> int:
    return _report(args, [args.kept, args.rejected, args.report], pipeline.filter_bitext(
        args.infile, args.kept, args.report, lexicon=args.lexicon, cascade=args.config,
        rejected=args.rejected))


def _read_eval_pairs(hyp_path, ref_paths) -> list:
    from . import metrics
    columns = []  # the tokenized lines of the hypothesis file, then of each reference
    for path in (hyp_path, *ref_paths):
        # a blank line is a segment too; a text-mode line is never ""
        columns.append(list(corpus_io.iter_lines(path, "".__eq__, corpus_io.tokenize,
                                                 tuple)))
    for ref_path, column in zip(ref_paths, columns[1:]):
        if len(column) != len(columns[0]):
            raise ValueError(f"reference file {ref_path} has {len(column)} lines, "
                             f"hypothesis file {hyp_path} has {len(columns[0])}")
    if not columns[0]:
        raise ValueError(f"hypothesis file {hyp_path} is empty: no segment to score")
    return [metrics.EvalPair(hypothesis=hyp, references=tuple(refs))
            for hyp, *refs in zip(*columns)]


def _score(pairs: list, metric: str, ref_paths) -> float:
    """``pipeline.score`` of the segments read by ``_read_eval_pairs``.  TER
    and METEOR refuse a segment whose references are all blank; that error
    names the reference files and the segment's line."""
    try:
        return pipeline.score(pairs, metric)
    except ValueError as exc:
        line = next((n for n, pair in enumerate(pairs, 1) if not any(pair.references)), None)
        if line is None:
            raise
        raise ValueError(f"{', '.join(map(str, ref_paths))}: line {line}: {exc}") from None


def _cmd_eval_score(args) -> int:
    pairs = _read_eval_pairs(args.hyp, args.ref)
    score = _score(pairs, args.metric, args.ref)
    if args.json:
        print(json.dumps({"metric": args.metric, "score": score,
                          "score_x100": score * 100.0, "segments": len(pairs)},
                         sort_keys=True))
    else:
        print(f"{args.metric}: {score:.4f} ({score * 100.0:.2f})")
    return 0


def _cmd_eval_compare(args) -> int:
    from . import metrics
    pairs_a = _read_eval_pairs(args.hyp_a, args.ref)
    pairs_b = _read_eval_pairs(args.hyp_b, args.ref)
    result = metrics.bootstrap_diff(
        pairs_a, pairs_b, lambda c: _score(list(c), args.metric, args.ref),
        n_resamples=args.resamples, seed=args.seed)
    print(json.dumps({"metric": args.metric, **result._asdict()}, sort_keys=True))
    return 0


def _cmd_pipeline(args) -> int:
    config = pipeline.PipelineConfig.from_json(args.config)
    stages = args.stages.split(",") if args.stages is not None else None
    run_pipeline(config, stages)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    # an option with a pipeline config counterpart takes that key's default
    defaults = pipeline.PipelineConfig(workdir="")
    parser = argparse.ArgumentParser(
        prog="bimine",
        description="Mine, generate, filter and evaluate parallel corpora "
                    "from topic-aligned comparable document collections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="pair article dumps into a store")
    p.add_argument("--src-dump", required=True)
    p.add_argument("--tgt-dump", required=True)
    p.add_argument("--links", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--src-lang", default=defaults.src_lang)
    p.add_argument("--tgt-lang", default=defaults.tgt_lang)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("sample", help="split a corpus into test and train")
    p.add_argument("--corpus", required=True)
    p.add_argument("--segments", type=int, default=defaults.eval["segments"])
    p.add_argument("--per-segment", type=int, default=defaults.eval["per_segment"])
    p.add_argument("--seed", type=int, default=defaults.eval["seed"])
    p.add_argument("--test", required=True)
    p.add_argument("--train", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("lexicon", help="translation lexicon commands")
    lex_sub = p.add_subparsers(dest="subcommand", required=True)
    p = lex_sub.add_parser("train", help="train a lexicon from a seed corpus")
    p.add_argument("--seed", required=True)
    p.add_argument("--iters", type=int, default=defaults.lexicon["iterations"])
    p.add_argument("--prune-below", type=float, default=defaults.lexicon["prune_below"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lexicon_train)

    p = sub.add_parser("classifier", help="similarity classifier commands")
    clf_sub = p.add_subparsers(dest="subcommand", required=True)
    p = clf_sub.add_parser("train", help="train the similarity classifier")
    p.add_argument("--seed", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--src-lang", default=defaults.src_lang)
    p.add_argument("--tgt-lang", default=defaults.tgt_lang)
    clf = defaults.classifier
    p.add_argument("--neg-per-pos", type=int, default=clf["neg_per_pos"])
    p.add_argument("--epochs", type=int, default=clf["epochs"])
    p.add_argument("--learning-rate", type=float, default=clf["learning_rate"])
    p.add_argument("--margin-reg", type=float, default=clf["margin_reg"])
    p.add_argument("--seed-rng", type=int, default=clf["seed"])
    p.set_defaults(func=_cmd_classifier_train)

    p = sub.add_parser("mine", help="mine parallel sentences from a store")
    p.add_argument("--store", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--threshold", type=float, default=defaults.mining["threshold"])
    p.add_argument("--gap-cost", type=float, default=defaults.mining["gap_cost"])
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("merge-bidi", help="merge forward and reverse mining runs")
    p.add_argument("--fwd", required=True)
    p.add_argument("--rev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", required=True)
    p.set_defaults(func=_cmd_merge_bidi)

    p = sub.add_parser("analogy", help="analogy detection and generation")
    ana_sub = p.add_subparsers(dest="subcommand", required=True)
    p = ana_sub.add_parser("find", help="find analogy quadruples in a seed corpus")
    p.add_argument("--seed", required=True)
    p.add_argument("--max-dist", type=int, default=defaults.analogy["max_distance"])
    p.add_argument("--size-guard", type=int, default=defaults.analogy["size_guard"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analogy_find)
    p = ana_sub.add_parser("models", help="extract rewriting models from quadruples")
    p.add_argument("--seed", required=True)
    p.add_argument("--quads", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--check-target", action="store_true",
                   help="also require the distance equalities on target sentences")
    p.set_defaults(func=_cmd_analogy_models)
    p = ana_sub.add_parser("generate", help="generate quasi-parallel pairs")
    p.add_argument("--models", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-unknown", action="store_true")
    p.set_defaults(func=_cmd_analogy_generate)

    p = sub.add_parser("filter", help="corpus filtering")
    fil_sub = p.add_subparsers(dest="subcommand", required=True)
    p = fil_sub.add_parser("trivial", help="drop duplicates, short and letter-free pairs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-chars", type=int, default=defaults.filter["min_chars"])
    p.add_argument("--report")
    p.set_defaults(func=_cmd_filter_trivial)
    p = fil_sub.add_parser("cascade", help="translation-similarity cascade filter")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--config", help="cascade config JSON (defaults built in)")
    p.add_argument("--kept", required=True)
    p.add_argument("--rejected", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_filter_cascade)

    p = sub.add_parser("eval", help="score hypotheses against references")
    eval_sub = p.add_subparsers(dest="subcommand", required=True)
    p = eval_sub.add_parser("score", help="score one system")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", action="append", required=True)
    p.add_argument("--metric", choices=tuple(pipeline.METRICS), default="bleu")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval_score)
    p = eval_sub.add_parser("compare", help="bootstrap comparison of two systems")
    p.add_argument("--hyp-a", required=True)
    p.add_argument("--hyp-b", required=True)
    p.add_argument("--ref", action="append", required=True)
    p.add_argument("--metric", choices=tuple(pipeline.METRICS), default="bleu")
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval_compare)

    p = sub.add_parser("pipeline", help="run the end-to-end pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", help="comma-separated subset of stages")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # allow `eval --hyp ...` as shorthand for `eval score --hyp ...`
    if argv and argv[0] == "eval" and (len(argv) == 1 or argv[1].startswith("-")):
        argv.insert(1, "score")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, pipeline.PipelineError, OSError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
