import contextlib
import io
import json
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bimine import cli, metrics, miner, pipeline
from bimine.cli import main
from bimine.corpus_io import read_bitext, write_bitext
from bimine.pipeline import PipelineConfig, PipelineError, run_pipeline

from synthdata import make_articles, make_parallel, make_world


def _write_dumps(tmp_path, world, n_articles=6):
    rng = random.Random(71)
    corpus = make_parallel(world, rng, n_articles * 8)
    articles, _ = make_articles(world, rng, corpus, n_articles,
                                sentences_per_article=8)
    src_dump = tmp_path / "src_dump.jsonl"
    tgt_dump = tmp_path / "tgt_dump.jsonl"
    links = tmp_path / "links.tsv"
    with open(src_dump, "w", encoding="utf-8") as fh:
        for a in articles:
            fh.write(json.dumps({"title": a.src.title, "text": a.src.body}) + "\n")
    with open(tgt_dump, "w", encoding="utf-8") as fh:
        for a in articles:
            fh.write(json.dumps({"title": "en-" + a.tgt.title, "text": a.tgt.body}) + "\n")
    with open(links, "w", encoding="utf-8") as fh:
        for a in articles:
            fh.write(f"{a.src.title}\ten-{a.tgt.title}\n")
    return src_dump, tgt_dump, links


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, world):
    """One full CLI run: ingest -> lexicon -> classifier -> mine."""
    tmp_path = tmp_path_factory.mktemp("cli")
    src_dump, tgt_dump, links = _write_dumps(tmp_path, world)
    seed_path = tmp_path / "seed.tsv"
    write_bitext(seed_path, make_parallel(world, random.Random(72), 400))
    store = tmp_path / "store.jsonl"
    assert main(["ingest", "--src-dump", str(src_dump), "--tgt-dump", str(tgt_dump),
                 "--links", str(links), "--out", str(store)]) == 0
    lex_path = tmp_path / "lexicon.tsv"
    assert main(["lexicon", "train", "--seed", str(seed_path),
                 "--iters", "5", "--out", str(lex_path)]) == 0
    model_path = tmp_path / "model.json"
    assert main(["classifier", "train", "--seed", str(seed_path),
                 "--lexicon", str(lex_path), "--out", str(model_path),
                 "--epochs", "10"]) == 0
    mined_path = tmp_path / "mined.tsv"
    assert main(["mine", "--store", str(store), "--model", str(model_path),
                 "--lexicon", str(lex_path), "--out", str(mined_path)]) == 0
    return tmp_path


def test_ingest_creates_store(workdir):
    lines = (workdir / "store.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    record = json.loads(lines[0])
    assert set(record) >= {"id", "src_lang", "tgt_lang", "src_title",
                           "tgt_title", "src_text", "tgt_text"}


@pytest.mark.parametrize("bad", ["src_dump.jsonl", "links.tsv"])
def test_ingest_names_the_line_that_is_not_utf8(workdir, tmp_path, capsys, bad):
    inputs = {name: tmp_path / name for name in ("src_dump.jsonl", "tgt_dump.jsonl",
                                                  "links.tsv")}
    for name, path in inputs.items():
        lines = (workdir / name).read_bytes().splitlines(keepends=True)
        if name == bad:
            lines[1] = lines[1][:5] + b"\xff" + lines[1][5:]
        path.write_bytes(b"".join(lines))
    assert main(["ingest", "--src-dump", str(inputs["src_dump.jsonl"]),
                 "--tgt-dump", str(inputs["tgt_dump.jsonl"]),
                 "--links", str(inputs["links.tsv"]), "--out", str(tmp_path / "store")]) == 1
    assert capsys.readouterr().err == f"error: {inputs[bad]}: line 2: not UTF-8 text\n"


def test_ingest_names_the_dump_line_with_a_lone_surrogate_escape(workdir, tmp_path, capsys):
    # JSON reads the escape, but no UTF-8 store could hold it
    dump = tmp_path / "src_dump.jsonl"
    lines = (workdir / "src_dump.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = '{"title": "Kot", "text": "Kot \\ud800 pije mleko."}\n'
    dump.write_text("".join(lines), encoding="utf-8")
    assert main(["ingest", "--src-dump", str(dump),
                 "--tgt-dump", str(workdir / "tgt_dump.jsonl"),
                 "--links", str(workdir / "links.tsv"), "--out", str(tmp_path / "store")]) == 1
    assert capsys.readouterr().err == \
        f"error: {dump}: line 2: unpaired surrogate escape \\ud800\n"
    assert not (tmp_path / "store").exists()


def test_mine_names_the_store_line_that_is_not_utf8(workdir, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    lines = (workdir / "store.jsonl").read_bytes().splitlines(keepends=True)
    store.write_bytes(lines[0] + b"\xff" + b"".join(lines[1:]))
    assert main(["mine", "--store", str(store), "--model", str(workdir / "model.json"),
                 "--lexicon", str(workdir / "lexicon.tsv"),
                 "--out", str(tmp_path / "mined.tsv")]) == 1
    assert capsys.readouterr().err == f"error: {store}: line 2: not UTF-8 text\n"
    assert not (tmp_path / "mined.tsv").exists()


def test_mine_produces_pairs(workdir):
    corpus = read_bitext(workdir / "mined.tsv")
    assert len(corpus.pairs) > 20
    assert all(0.0 <= p.score <= 1.0 for p in corpus.pairs)


def test_mine_keeps_only_pairs_reaching_its_threshold(workdir, tmp_path):
    mined_path = tmp_path / "mined.tsv"
    assert main(["mine", "--store", str(workdir / "store.jsonl"),
                 "--model", str(workdir / "model.json"),
                 "--lexicon", str(workdir / "lexicon.tsv"),
                 "--out", str(mined_path), "--threshold", "0.9"]) == 0
    scores = [p.score for p in read_bitext(mined_path).pairs]
    assert scores and min(scores) >= 0.9
    assert len(scores) < len(read_bitext(workdir / "mined.tsv").pairs)


@pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5"])
def test_classifier_train_refuses_a_threshold_outside_zero_one(workdir, tmp_path, capsys,
                                                              threshold):
    # the mining threshold is mining.threshold alone and a model stores none,
    # so `classifier train` has no --threshold to take, in range or not; the
    # range cases are checked on `mine --threshold`
    model_path = tmp_path / "model.json"
    with pytest.raises(SystemExit) as exc:
        main(["classifier", "train", "--seed", str(workdir / "seed.tsv"),
              "--lexicon", str(workdir / "lexicon.tsv"), "--out", str(model_path),
              "--threshold", threshold])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --threshold {threshold}" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--margin-reg", "-1", "margin_reg must be >= 0, got -1.0"),
    ("--margin-reg", "nan", "margin_reg must be >= 0, got nan"),
    ("--learning-rate", "0", "learning_rate must be > 0, got 0.0"),
    ("--learning-rate", "nan", "learning_rate must be > 0, got nan"),
])
def test_classifier_train_refuses_a_step_size_that_cannot_train(workdir, tmp_path, capsys,
                                                               option, value, message):
    # a negative margin_reg used to divide by zero in the hinge loss's step size
    model_path = tmp_path / "model.json"
    assert main(["classifier", "train", "--seed", str(workdir / "seed.tsv"),
                 "--lexicon", str(workdir / "lexicon.tsv"), "--out", str(model_path),
                 option, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model_path.exists()


@pytest.mark.parametrize("epochs", ["0", "-1"])
def test_classifier_train_refuses_fewer_than_one_epoch(workdir, tmp_path, capsys, epochs):
    # zero epochs used to train and fail in calibration, naming no setting
    model_path = tmp_path / "model.json"
    assert main(["classifier", "train", "--seed", str(workdir / "seed.tsv"),
                 "--lexicon", str(workdir / "lexicon.tsv"), "--out", str(model_path),
                 "--epochs", epochs]) == 1
    assert capsys.readouterr().err == f"error: epochs must be >= 1, got {epochs}\n"
    assert not model_path.exists()


def test_mine_checks_threshold_and_gap_cost_before_the_store(workdir, tmp_path, capsys):
    # the aligner checked both once per article, so an empty store passed
    store = tmp_path / "store.jsonl"
    store.write_text("", encoding="utf-8")
    out = tmp_path / "mined.tsv"
    for option, value, message in (
            ("--threshold", "1.5", "threshold must be in [0, 1], got 1.5"),
            ("--threshold", "-0.1", "threshold must be in [0, 1], got -0.1"),
            ("--threshold", "nan", "threshold must be in [0, 1], got nan"),
            ("--gap-cost", "0.9", "gap_cost must be in (0, 0.5], got 0.9")):
        assert main(["mine", "--store", str(store), "--model", str(workdir / "model.json"),
                     "--lexicon", str(workdir / "lexicon.tsv"), "--out", str(out),
                     option, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_sample_and_stats(workdir, capsys):
    mined = workdir / "mined.tsv"
    test_path, train_path = workdir / "test.tsv", workdir / "train.tsv"
    n = len(read_bitext(mined).pairs)
    segments = max(1, n // 4)
    assert main(["sample", "--corpus", str(mined), "--segments", str(segments),
                 "--per-segment", "2", "--seed", "3",
                 "--test", str(test_path), "--train", str(train_path)]) == 0
    assert len(read_bitext(test_path).pairs) == segments * 2
    assert main(["stats", "--corpus", str(mined)]) == 0
    out = capsys.readouterr().out
    assert "unique words" in out


def test_merge_bidi_flips_reverse(workdir, tmp_path):
    fwd = workdir / "mined.tsv"
    corpus = read_bitext(fwd)
    rev = tmp_path / "rev.tsv"
    flipped = [(p.tgt, p.src, p.score) for p in corpus.pairs[:5]]
    with open(rev, "w", encoding="utf-8") as fh:
        for src, tgt, score in flipped:
            fh.write(f"{src}\t{tgt}\t{score:.6f}\n")
    out, stats = tmp_path / "merged.tsv", tmp_path / "stats.json"
    assert main(["merge-bidi", "--fwd", str(fwd), "--rev", str(rev),
                 "--out", str(out), "--stats", str(stats)]) == 0
    doc = json.loads(stats.read_text(encoding="utf-8"))
    assert doc["recognized"] == 5
    assert doc["overlapping"] == 5
    assert doc["newly_obtained"] == 0
    assert len(read_bitext(out).pairs) == len(corpus.pairs)


def test_filter_commands(workdir, tmp_path):
    mined = workdir / "mined.tsv"
    trivial_out = tmp_path / "trivial.tsv"
    assert main(["filter", "trivial", "--in", str(mined),
                 "--out", str(trivial_out), "--min-chars", "10"]) == 0
    kept = tmp_path / "kept.tsv"
    rejected = tmp_path / "rejected.tsv"
    report = tmp_path / "report.json"
    assert main(["filter", "cascade", "--in", str(trivial_out),
                 "--lexicon", str(workdir / "lexicon.tsv"),
                 "--kept", str(kept), "--rejected", str(rejected),
                 "--report", str(report)]) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["kept_count"] + doc["rejected_count"] == doc["input_count"]
    assert doc["kept_count"] > 0


def test_filter_cascade_refuses_an_empty_cascade_before_reading_the_input(workdir, tmp_path,
                                                                          capsys):
    # it used to read the input and then fail naming neither the file nor the key
    config = tmp_path / "cascade.json"
    config.write_text('{"stages": []}', encoding="utf-8")
    kept = tmp_path / "kept.tsv"
    assert main(["filter", "cascade", "--in", str(tmp_path / "absent.tsv"),
                 "--lexicon", str(workdir / "lexicon.tsv"), "--config", str(config),
                 "--kept", str(kept), "--rejected", str(tmp_path / "rejected.tsv"),
                 "--report", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {config}: cascade config key 'stages' lists no stage"]
    assert not kept.exists()


def test_analogy_commands(world, tmp_path):
    from synthdata import ANALOGY_TEMPLATES, template_pair
    rows = []
    for template in ANALOGY_TEMPLATES[:2]:
        for w in world.src_vocab[:2]:
            src, tgt = template_pair(template, w, world.primary(w))
            rows.append((" ".join(src), " ".join(tgt)))
    seed_path = tmp_path / "seed.tsv"
    with open(seed_path, "w", encoding="utf-8") as fh:
        for src, tgt in rows:
            fh.write(f"{src}\t{tgt}\n")
    quads_path = tmp_path / "quads.jsonl"
    assert main(["analogy", "find", "--seed", str(seed_path), "--max-dist", "6",
                 "--out", str(quads_path)]) == 0
    assert quads_path.read_text(encoding="utf-8").strip()
    models_path = tmp_path / "models.jsonl"
    assert main(["analogy", "models", "--seed", str(seed_path),
                 "--quads", str(quads_path), "--out", str(models_path)]) == 0
    lex_path = tmp_path / "lex.tsv"
    with open(lex_path, "w", encoding="utf-8") as fh:
        for w in world.src_vocab[:2]:
            fh.write(f"{w}\t{world.primary(w)}\t1.0\n")
    store = tmp_path / "store.jsonl"
    src_body = rows[0][0].capitalize()
    with open(store, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "id": 0, "src_lang": "pl", "tgt_lang": "en", "src_title": "t",
            "tgt_title": "t", "src_text": src_body, "tgt_text": "Nic tu nie ma."
        }) + "\n")
    out = tmp_path / "quasi.tsv"
    assert main(["analogy", "generate", "--models", str(models_path),
                 "--store", str(store), "--lexicon", str(lex_path),
                 "--out", str(out)]) == 0


def test_analogy_stage_counts_quadruples_by_distance(tmp_path):
    from collections import Counter
    from bimine.analogy import find_analogies
    # one analogy at word distance 1 (kota / psa) and one at 2 (stoi tu / lezy tam)
    sources = ["ala ma kota", "ola ma kota", "ala ma psa", "ola ma psa",
               "ten duzy dom stoi tu", "ta mala chata stoi tu",
               "ten duzy dom lezy tam", "ta mala chata lezy tam"]
    seed_path = tmp_path / "seed.tsv"
    seed_path.write_text("".join(f"{s}\t{s.upper()}\n" for s in sources), encoding="utf-8")
    config = PipelineConfig(workdir=str(tmp_path / "out"))
    config.seed_corpus = str(seed_path)
    run_pipeline(config, ["lexicon"])
    config.path("store.jsonl").write_text("", encoding="utf-8")
    run_pipeline(config, ["analogy"])
    report = json.loads(config.path("quasi_report.json").read_text(encoding="utf-8"))
    by_distance = Counter(q.d_ab for q in find_analogies([s.split() for s in sources], 4))
    assert sorted(by_distance) == [1, 2]
    assert report["quadruples_by_distance"] == {str(d): by_distance[d]
                                                for d in sorted(by_distance)}


def test_analogy_size_guard(tmp_path, capsys):
    seed_path = tmp_path / "big.tsv"
    with open(seed_path, "w", encoding="utf-8") as fh:
        for i in range(30):
            fh.write(f"zdanie numer {i}\tsentence number {i}\n")
    code = main(["analogy", "find", "--seed", str(seed_path),
                 "--size-guard", "10", "--out", str(tmp_path / "q.jsonl")])
    assert code == 2
    assert "guard" in capsys.readouterr().err


def test_analogy_size_guard_same_message_in_pipeline(world, tmp_path, capsys):
    config_path, _ = _pipeline_config(tmp_path, world)
    config = PipelineConfig.from_json(config_path)
    config.analogy["size_guard"] = 10
    run_pipeline(config, ["ingest", "lexicon"])
    message = ("analogy search over 400 sentences exceeds the size guard (10); "
               "raise the guard to override")
    with pytest.raises(PipelineError) as info:
        run_pipeline(config, ["analogy"])
    assert str(info.value) == message
    capsys.readouterr()
    assert main(["analogy", "find", "--seed", config.seed_corpus,
                 "--size-guard", "10", "--out", str(tmp_path / "q.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _template_seed(world, path, n_words):
    """The analogy templates filled with the first ``n_words`` slot words
    that have one translation."""
    from synthdata import ANALOGY_TEMPLATES, template_pair
    words = [w for w in world.src_vocab if len(world.translations[w]) == 1][:n_words]
    rows = [template_pair(template, w, world.primary(w))
            for template in ANALOGY_TEMPLATES for w in words]
    path.write_text("".join(f"{' '.join(src)}\t{' '.join(tgt)}\n" for src, tgt in rows),
                    encoding="utf-8")
    return rows


def test_cli_commands_print_one_record(world, workdir, tmp_path, monkeypatch, capsys):
    returned = {}
    for name in ("ingest", "train_lexicon", "train_classifier", "mine", "merge",
                 "analogy_generate", "filter_bitext"):
        def spy(*args, _name=name, _step=getattr(pipeline, name), **kwargs):
            returned[_name] = _step(*args, **kwargs)
            return returned[_name]
        monkeypatch.setattr(pipeline, name, spy)
    out = {name: tmp_path / name for name in (
        "store.jsonl", "test.tsv", "train.tsv", "lexicon.tsv", "model.json", "mined.tsv",
        "mine_log.jsonl", "merged.tsv", "stats.json", "quads.jsonl", "models.jsonl",
        "quasi.tsv", "trivial.tsv", "kept.tsv", "rejected.tsv", "report.json")}
    _template_seed(world, tmp_path / "analogy_seed.tsv", 4)

    def lines(name):
        return len(out[name].read_text(encoding="utf-8").splitlines())

    cases = [
        (["ingest", "--src-dump", workdir / "src_dump.jsonl",
          "--tgt-dump", workdir / "tgt_dump.jsonl", "--links", workdir / "links.tsv",
          "--out", out["store.jsonl"]],
         ["store.jsonl"], lambda: returned["ingest"]),
        (["sample", "--corpus", workdir / "mined.tsv", "--segments", "2",
          "--per-segment", "2", "--test", out["test.tsv"], "--train", out["train.tsv"]],
         ["test.tsv", "train.tsv"],
         lambda: {"test_pairs": lines("test.tsv"), "train_pairs": lines("train.tsv")}),
        (["lexicon", "train", "--seed", workdir / "seed.tsv", "--iters", "2",
          "--out", out["lexicon.tsv"]],
         ["lexicon.tsv"], lambda: returned["train_lexicon"]),
        (["classifier", "train", "--seed", workdir / "seed.tsv",
          "--lexicon", out["lexicon.tsv"], "--out", out["model.json"], "--epochs", "2"],
         ["model.json"], lambda: returned["train_classifier"]),
        (["mine", "--store", out["store.jsonl"], "--model", out["model.json"],
          "--lexicon", out["lexicon.tsv"], "--out", out["mined.tsv"],
          "--log", out["mine_log.jsonl"]],
         ["mined.tsv", "mine_log.jsonl"], lambda: returned["mine"]),
        (["merge-bidi", "--fwd", out["mined.tsv"], "--rev", out["mined.tsv"],
          "--out", out["merged.tsv"], "--stats", out["stats.json"]],
         ["merged.tsv", "stats.json"], lambda: returned["merge"]),
        (["analogy", "find", "--seed", tmp_path / "analogy_seed.tsv",
          "--out", out["quads.jsonl"]],
         ["quads.jsonl"], lambda: {"quadruples": lines("quads.jsonl")}),
        (["analogy", "models", "--seed", tmp_path / "analogy_seed.tsv",
          "--quads", out["quads.jsonl"], "--out", out["models.jsonl"]],
         ["models.jsonl"], lambda: {"models": lines("models.jsonl")}),
        (["analogy", "generate", "--models", out["models.jsonl"],
          "--store", out["store.jsonl"], "--lexicon", out["lexicon.tsv"],
          "--out", out["quasi.tsv"]],
         ["quasi.tsv"], lambda: returned["analogy_generate"]),
        # no --report: an optional output that was not given is left out
        (["filter", "trivial", "--in", out["merged.tsv"], "--out", out["trivial.tsv"]],
         ["trivial.tsv"], lambda: returned["filter_bitext"]),
        (["filter", "cascade", "--in", out["trivial.tsv"], "--lexicon", out["lexicon.tsv"],
          "--kept", out["kept.tsv"], "--rejected", out["rejected.tsv"],
          "--report", out["report.json"]],
         ["kept.tsv", "rejected.tsv", "report.json"],
         lambda: json.loads(out["report.json"].read_text(encoding="utf-8"))),
    ]
    capsys.readouterr()
    for argv, outputs, counts in cases:
        assert main([str(arg) for arg in argv]) == 0, argv
        err = capsys.readouterr().err
        line, = err.splitlines()
        assert err == line + "\n"
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True)
        assert record == {"stage": " ".join(a for a in argv[:2] if not a.startswith("-")),
                          "outputs": [str(out[name]) for name in outputs],
                          "counts": json.loads(json.dumps(counts()))}, argv
    assert json.loads(out["report.json"].read_text(encoding="utf-8")) == \
        returned["filter_bitext"]
    assert lines("quads.jsonl") > 0 and lines("models.jsonl") > 0


def test_eval_score_and_compare(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp_b = tmp_path / "hyp_b.txt"
    ref.write_text("the cat sat on the mat\ndogs run fast today\n", encoding="utf-8")
    hyp.write_text("the cat sat on the mat\ndogs run fast today\n", encoding="utf-8")
    hyp_b.write_text("a cat stood on a mat\ncats walk slowly now\n", encoding="utf-8")
    assert main(["eval", "--hyp", str(hyp), "--ref", str(ref),
                 "--metric", "bleu", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["score"] == 1.0
    assert doc["score_x100"] == 100.0
    assert main(["eval", "compare", "--hyp-a", str(hyp), "--hyp-b", str(hyp_b),
                 "--ref", str(ref), "--metric", "bleu",
                 "--resamples", "50", "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["observed_diff"] > 0


def test_eval_compare_rejects_zero_resamples(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the cat sat\n", encoding="utf-8")
    assert main(["eval", "compare", "--hyp-a", str(hyp), "--hyp-b", str(hyp),
                 "--ref", str(hyp), "--resamples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: n_resamples must be >= 1, got 0\n"
    assert captured.out == ""


def _defaulted_options():
    """Command lines that leave every defaulted option out, each with the
    defaults they must parse to."""
    config = PipelineConfig(workdir="")
    clf = config.classifier
    return [
        (["ingest", "--src-dump", "s", "--tgt-dump", "t", "--links", "l", "--out", "o"],
         {"src_lang": config.src_lang, "tgt_lang": config.tgt_lang}),
        (["sample", "--corpus", "c", "--test", "t", "--train", "r"],
         {"segments": config.eval["segments"], "per_segment": config.eval["per_segment"],
          "seed": config.eval["seed"]}),
        (["lexicon", "train", "--seed", "s", "--out", "o"],
         {"iters": config.lexicon["iterations"],
          "prune_below": config.lexicon["prune_below"]}),
        (["classifier", "train", "--seed", "s", "--lexicon", "l", "--out", "o"],
         {"src_lang": config.src_lang, "tgt_lang": config.tgt_lang,
          "neg_per_pos": clf["neg_per_pos"], "epochs": clf["epochs"],
          "learning_rate": clf["learning_rate"], "margin_reg": clf["margin_reg"],
          "seed_rng": clf["seed"]}),
        (["mine", "--store", "s", "--model", "m", "--lexicon", "l", "--out", "o"],
         {"gap_cost": config.mining["gap_cost"], "threshold": config.mining["threshold"]}),
        (["analogy", "find", "--seed", "s", "--out", "o"],
         {"max_dist": config.analogy["max_distance"],
          "size_guard": config.analogy["size_guard"]}),
        (["analogy", "models", "--seed", "s", "--quads", "q", "--out", "o"],
         {"check_target": config.analogy["check_target"]}),
        (["analogy", "generate", "--models", "m", "--store", "s", "--lexicon", "l",
          "--out", "o"],
         {"allow_unknown": config.analogy["allow_unknown"]}),
        (["filter", "trivial", "--in", "i", "--out", "o"],
         {"min_chars": config.filter["min_chars"]}),
    ]


def test_cli_defaults_are_the_pipeline_config_defaults():
    parser = cli.build_parser(None)
    for argv, expected in _defaulted_options():
        args = vars(parser.parse_args(argv))
        assert {key: args[key] for key in expected} == expected, argv


# one command line per leaf command
LEAF_COMMANDS = [argv for argv, _ in _defaulted_options()] + [
    ["stats", "--corpus", "c"],
    ["merge-bidi", "--fwd", "f", "--rev", "r", "--out", "o", "--stats", "s"],
    ["filter", "cascade", "--in", "i", "--lexicon", "l", "--kept", "k", "--rejected", "r",
     "--report", "p"],
    ["eval", "score", "--hyp", "h", "--ref", "r"],
    ["eval", "compare", "--hyp-a", "a", "--hyp-b", "b", "--ref", "r"],
    ["pipeline", "--config", "c"],
]


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=" ".join)
def test_the_parser_of_one_command_acts_as_the_parser_of_all(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one, every = cli.build_parser(argv[0]), cli.build_parser(None)
    assert vars(one.parse_args(argv)) == vars(every.parse_args(argv))
    # -h prints the leaf's help; an unknown option, the usage line of all commands
    for extra in (["-h"], ["--bogus"]):
        printed = []
        for parser in (one, every):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + extra)
            printed.append((exc.value.code, *capsys.readouterr()))
        assert printed[0] == printed[1]
        assert printed[0][1 if extra == ["-h"] else 2].startswith("usage: bimine ")


_USAGE = ("usage: bimine [-h]\n"
          "              {ingest,sample,stats,lexicon,classifier,mine,merge-bidi,analogy,"
          "filter,eval,pipeline}\n"
          "              ...\n")
_HELP = _USAGE + """
Mine, generate, filter and evaluate parallel corpora from topic-aligned
comparable document collections.

positional arguments:
  {ingest,sample,stats,lexicon,classifier,mine,merge-bidi,analogy,filter,eval,pipeline}
    ingest              pair article dumps into a store
    sample              split a corpus into test and train
    stats               corpus statistics report
    lexicon             translation lexicon commands
    classifier          similarity classifier commands
    mine                mine parallel sentences from a store
    merge-bidi          merge forward and reverse mining runs
    analogy             analogy detection and generation
    filter              corpus filtering
    eval                score hypotheses against references
    pipeline            run the end-to-end pipeline

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize("argv, expected", [
    ([], (2, "", _USAGE + "bimine: error: the following arguments are required: command\n")),
    (["-h"], (0, _HELP, "")),
    (["nosuch"], (2, "", _USAGE + "bimine: error: argument command: invalid choice: 'nosuch' "
                  "(choose from 'ingest', 'sample', 'stats', 'lexicon', 'classifier', 'mine', "
                  "'merge-bidi', 'analogy', 'filter', 'eval', 'pipeline')\n")),
])
def test_a_start_without_a_command_lists_every_command(argv, expected, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == expected


def test_eval_rejects_mismatched_files(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a\nb\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    assert main(["eval", "--hyp", str(hyp), "--ref", str(ref)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: reference file {ref} has 1 lines, hypothesis file {hyp} has 2\n"


@pytest.mark.parametrize("bad", ["hyp", "ref"])
def test_eval_names_the_line_that_is_not_utf8(tmp_path, capsys, bad):
    paths = {name: tmp_path / f"{name}.txt" for name in ("hyp", "ref")}
    for name, path in paths.items():
        path.write_bytes(b"a cat\nsat \xff here\n" if name == bad else b"a cat\nsat here\n")
    assert main(["eval", "--hyp", str(paths["hyp"]), "--ref", str(paths["ref"])]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {paths[bad]}: line 2: not UTF-8 text\n"
    assert captured.out == ""


def test_eval_counts_blank_lines_as_segments(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat\n\n  \ndogs run\n", encoding="utf-8")
    ref.write_text("the cat sat\n\n\ndogs ran\n", encoding="utf-8")
    assert main(["eval", "--hyp", str(hyp), "--ref", str(ref), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["segments"] == 4


@pytest.mark.parametrize("command, metric, name", [
    ("score", "ter", "TER"), ("score", "meteor", "METEOR"), ("compare", "ter", "TER")])
def test_eval_names_the_blank_reference_line(tmp_path, capsys, command, metric, name):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text("the cat sat\ndogs run\n", encoding="utf-8")
    ref.write_text("the cat sat\n\n", encoding="utf-8")
    hyps = ["--hyp", str(hyp)] if command == "score" else \
        ["--hyp-a", str(hyp), "--hyp-b", str(hyp), "--resamples", "5"]
    assert main(["eval", command, *hyps, "--ref", str(ref), "--metric", metric]) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: {ref}: line 2: {name} needs at least one non-empty reference\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["score", "compare"])
def test_eval_names_the_empty_hypothesis_file(tmp_path, capsys, command):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text("", encoding="utf-8")
    ref.write_text("", encoding="utf-8")
    hyps = ["--hyp", str(hyp)] if command == "score" else \
        ["--hyp-a", str(hyp), "--hyp-b", str(hyp)]
    assert main(["eval", command, *hyps, "--ref", str(ref)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: hypothesis file {hyp} is empty: no segment to score\n"
    assert captured.out == ""


# lines with no letter or digit: combining marks alone, Unicode line and
# paragraph separators, no-break, zero-width and ideographic spaces, a byte
# order mark, NEL, the ASCII vertical tab, form feed and file separator, a
# carriage return (a line end in text mode), or nothing at all
_UNICODE_LINE = st.text(st.sampled_from(
    ["\u0301", "\u0308", "\u2028", "\u2029", "\u00a0", "\u200b", "\u3000", "\ufeff",
     "\x85", "\x0b", "\x0c", "\x1c", "\r", " "]), max_size=6)
# three files of as many such lines
_UNICODE_FILES = st.integers(0, 4).flatmap(lambda n: st.tuples(
    *[st.lists(_UNICODE_LINE, min_size=n, max_size=n).map("\n".join)] * 3))


@settings(max_examples=40, deadline=None)
@given(_UNICODE_FILES)
def test_eval_on_unicode_only_files(tmp_path_factory, texts):
    # every metric, both commands: a score, or one error line naming a file
    root = tmp_path_factory.mktemp("eval")
    files = {name: root / f"{name}.txt" for name in ("hyp_a", "hyp_b", "ref")}
    for path, text in zip(files.values(), texts):
        path.write_text(text, encoding="utf-8", newline="")
    hyp_a, hyp_b, ref = (str(path) for path in files.values())
    for metric in pipeline.METRICS:
        for argv in (["eval", "score", "--hyp", hyp_a, "--ref", ref],
                     ["eval", "compare", "--hyp-a", hyp_a, "--hyp-b", hyp_b, "--ref", ref,
                      "--resamples", "3"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--metric", metric])
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == [], (argv, metric)
            else:
                assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines
                assert any(path in lines[0] for path in (hyp_a, hyp_b, ref)), lines


def test_sample_names_the_corpus_too_small_to_sample(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("Ala ma kota.\tAlice has a cat.\n", encoding="utf-8")
    test_path, train_path = tmp_path / "test.tsv", tmp_path / "train.tsv"
    assert main(["sample", "--corpus", str(corpus), "--test", str(test_path),
                 "--train", str(train_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {corpus}: corpus has 1 pairs; sampling 200 segments x 10 needs at least 2000\n")
    assert not test_path.exists() and not train_path.exists()


# ---------------------------------------------------------------------------
# pipeline

def _pipeline_config(tmp_path, world, bidirectional=True):
    rng = random.Random(81)
    seed_path = tmp_path / "seed.tsv"
    write_bitext(seed_path, make_parallel(world, rng, 400))
    src_dump, tgt_dump, links = _write_dumps(tmp_path, world, n_articles=8)
    config_path = tmp_path / "config.json"
    workdir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "workdir": str(workdir),
        "src_lang": "pl", "tgt_lang": "en",
        "seed_corpus": str(seed_path),
        "ingest": {"src_dump": str(src_dump), "tgt_dump": str(tgt_dump),
                   "links": str(links)},
        "lexicon": {"iterations": 5},
        "classifier": {"epochs": 10, "seed": 2},
        "mining": {"bidirectional": bidirectional},
        "analogy": {"max_distance": 4},
        "eval": {"segments": 10, "per_segment": 2, "seed": 5},
    }), encoding="utf-8")
    return config_path, workdir


ARTIFACTS = ["store.jsonl", "lexicon.tsv", "lexicon.rev.tsv", "classifier.json",
             "classifier.rev.json", "mined.fwd.tsv", "mined.rev.tsv",
             "mined.tsv", "overlap_stats.json", "analogy_models.jsonl",
             "quasi.tsv", "filtered.tsv", "filter_report.json",
             "eval_report.json"]


def test_pipeline_full_run_and_determinism(world, tmp_path):
    config_path, workdir = _pipeline_config(tmp_path, world)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    for name in ARTIFACTS:
        assert (workdir / name).exists(), name
    manifests = sorted(p.name for p in workdir.glob("manifest.*.json"))
    assert manifests == sorted(
        f"manifest.{s}.json" for s in
        ["ingest", "lexicon", "classifier", "mine", "merge", "analogy",
         "filter", "eval"])
    report = json.loads((workdir / "eval_report.json").read_text(encoding="utf-8"))
    assert report["test_pairs"] == 20
    assert 0.0 <= report["scores"]["bleu"] <= 1.0
    # gloss translation of mined pairs scores far above chance
    assert report["scores"]["bleu"] > 0.1

    lexicon_counts = json.loads(
        (workdir / "manifest.lexicon.json").read_text(encoding="utf-8"))["counts"]
    classifier_counts = json.loads(
        (workdir / "manifest.classifier.json").read_text(encoding="utf-8"))["counts"]
    for suffix in ("", "_rev"):
        assert len(lexicon_counts[f"iteration_log_likelihood{suffix}"]) == 5
        assert lexicon_counts[f"cells{suffix}"] >= lexicon_counts[f"entries{suffix}"]
        examples = classifier_counts[f"examples{suffix}"]
        assert classifier_counts[f"held_out{suffix}"] == examples // 10
        assert 0 < classifier_counts[f"hinge_updates{suffix}"] <= 10 * examples
    mine_counts = json.loads(
        (workdir / "manifest.mine.json").read_text(encoding="utf-8"))["counts"]
    with open(workdir / "mine_log.jsonl", encoding="utf-8") as fh:
        log = [json.loads(line) for line in fh]
    for key in ("lattice_cells", "cells_scored", "nodes", "cells_pruned"):
        assert mine_counts[f"{key}_fwd"] == sum(entry[key] for entry in log)
    for suffix in ("_fwd", "_rev"):
        scored, cells = mine_counts[f"cells_scored{suffix}"], mine_counts[f"lattice_cells{suffix}"]
        assert 0 < scored <= cells
        assert 0 < mine_counts[f"cells_pruned{suffix}"] <= cells - scored
        assert 0 < mine_counts[f"nodes{suffix}"]
        assert "dp_articles" + suffix not in mine_counts
    # the reverse direction reads each article target side first
    for side, other in (("src", "tgt"), ("tgt", "src")):
        assert mine_counts[f"{side}_sentences_fwd"] == sum(
            entry[f"{side}_sentences"] for entry in log)
        assert mine_counts[f"{side}_sentences_fwd"] == mine_counts[f"{other}_sentences_rev"]
    assert mine_counts["lattice_cells_fwd"] == sum(
        entry["src_sentences"] * entry["tgt_sentences"] for entry in log)
    quasi = json.loads((workdir / "quasi_report.json").read_text(encoding="utf-8"))
    by_distance = quasi["quadruples_by_distance"]
    assert list(by_distance) == sorted(by_distance, key=int)
    assert all(1 <= int(d) <= 4 for d in by_distance)
    assert sum(by_distance.values()) == quasi["quadruples"]
    filter_report = json.loads((workdir / "filter_report.json").read_text(encoding="utf-8"))
    assert sum(filter_report["acceptances"].values()) == filter_report["kept_count"] > 0
    assert set(filter_report["acceptances"]) <= {"fast", "stem", "synonym"}

    first = {name: (workdir / name).read_bytes() for name in ARTIFACTS}
    first_manifests = {m: (workdir / m).read_bytes() for m in manifests}
    assert main(["pipeline", "--config", str(config_path)]) == 0
    for name, blob in first.items():
        assert (workdir / name).read_bytes() == blob, name
    for name, blob in first_manifests.items():
        assert (workdir / name).read_bytes() == blob, name


def test_cli_steps_write_the_pipeline_artifacts(world, tmp_path):
    config_path, workdir = _pipeline_config(tmp_path, world)
    run_pipeline(PipelineConfig.from_json(config_path),
                 ["ingest", "lexicon", "classifier", "mine", "merge", "filter"])
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    ingest, seed = doc["ingest"], doc["seed_corpus"]
    out = tmp_path / "cli"
    out.mkdir()
    # the reverse direction runs on a flipped seed and a flipped store
    rev_seed, rev_links = tmp_path / "seed.rev.tsv", tmp_path / "links.rev.tsv"
    write_bitext(rev_seed, read_bitext(seed, flip=True))
    links = Path(ingest["links"]).read_text(encoding="utf-8").splitlines()
    rev_links.write_text("".join("\t".join(reversed(line.split("\t"))) + "\n"
                                 for line in links), encoding="utf-8")
    for suffix, (src_dump, tgt_dump, links, seed_path, src, tgt) in {
            "": (ingest["src_dump"], ingest["tgt_dump"], ingest["links"], seed, "pl", "en"),
            ".rev": (ingest["tgt_dump"], ingest["src_dump"], rev_links, rev_seed, "en", "pl"),
    }.items():
        store, lex = out / f"store{suffix}.jsonl", out / f"lexicon{suffix}.tsv"
        model = out / f"classifier{suffix}.json"
        mined = out / ("mined.rev.tsv" if suffix else "mined.fwd.tsv")
        for argv in (
                ["ingest", "--src-dump", src_dump, "--tgt-dump", tgt_dump,
                 "--links", links, "--out", store, "--src-lang", src, "--tgt-lang", tgt],
                ["lexicon", "train", "--seed", seed_path, "--iters", "5", "--out", lex],
                ["classifier", "train", "--seed", seed_path, "--lexicon", lex,
                 "--out", model, "--src-lang", src, "--tgt-lang", tgt,
                 "--epochs", "10", "--seed-rng", "2"],
                ["mine", "--store", store, "--model", model, "--lexicon", lex,
                 "--out", mined]):
            assert main([str(arg) for arg in argv]) == 0
    for argv in (
            ["merge-bidi", "--fwd", out / "mined.fwd.tsv", "--rev", out / "mined.rev.tsv",
             "--out", out / "mined.tsv", "--stats", out / "overlap_stats.json"],
            ["filter", "trivial", "--in", out / "mined.tsv", "--out", out / "trivial.tsv",
             "--min-chars", "10"],
            ["filter", "cascade", "--in", out / "trivial.tsv", "--lexicon", out / "lexicon.tsv",
             "--kept", out / "filtered.tsv", "--rejected", out / "rejected.tsv",
             "--report", out / "cascade_report.json"]):
        assert main([str(arg) for arg in argv]) == 0
    for name in ["store.jsonl", "lexicon.tsv", "lexicon.rev.tsv", "classifier.json",
                 "classifier.rev.json", "mined.fwd.tsv", "mined.rev.tsv", "mined.tsv",
                 "overlap_stats.json", "filtered.tsv", "rejected.tsv"]:
        assert (out / name).read_bytes() == (workdir / name).read_bytes(), name


def _directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_analogy_and_filter_rerun_same_bytes_with_analogies(world, tmp_path):
    seed_path = tmp_path / "seed.tsv"
    rows = _template_seed(world, seed_path, 5)
    config_path, workdir = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps({
        "workdir": str(workdir), "seed_corpus": str(seed_path),
        "lexicon": {"iterations": 5}, "analogy": {"max_distance": 4}}), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path), "--stages", "lexicon"]) == 0
    # article k carries the seed sentence of template k with slot word k,
    # and the seed pairs stand in for the mined corpus
    with open(workdir / "store.jsonl", "w", encoding="utf-8") as fh:
        for k in range(5):
            fh.write(json.dumps({
                "id": k, "src_lang": "pl", "tgt_lang": "en", "src_title": f"a{k}",
                "tgt_title": f"a{k}", "src_text": " ".join(rows[6 * k][0]).capitalize(),
                "tgt_text": "Nic tu nie ma."}) + "\n")
    write_bitext(workdir / "mined.tsv", read_bitext(seed_path))
    before = set(_directory_bytes(workdir))
    argv = ["pipeline", "--config", str(config_path), "--stages", "analogy,filter"]
    assert main(argv) == 0
    counts = json.loads((workdir / "quasi_report.json").read_text(encoding="utf-8"))
    assert min(counts["quadruples"], counts["models"], counts["generated"]) > 0
    first = _directory_bytes(workdir)
    for name in set(first) - before:
        (workdir / name).unlink()
    assert main(argv) == 0
    assert _directory_bytes(workdir) == first


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_stage_at_a_time_equals_one_full_run(world, tmp_path, monkeypatch, fork):
    # a run keeps what it loads for its own stages only: a stage run on its
    # own loads what the earlier runs wrote, and within one run no stage
    # reads a copy that a later write made stale; both directions run in one
    # process, so the bytes are the same on a platform without os.fork
    if not fork:
        monkeypatch.delattr(os, "fork")
    config_path, workdir = _pipeline_config(tmp_path, world)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["workdir"] = str(tmp_path / "staged")
    staged = tmp_path / "staged.json"
    staged.write_text(json.dumps(doc), encoding="utf-8")
    for stage in pipeline.STAGES:
        assert main(["pipeline", "--config", str(staged), "--stages", stage]) == 0
    assert _directory_bytes(tmp_path / "staged") == _directory_bytes(workdir)


def test_a_run_loads_each_input_once(world, tmp_path, monkeypatch):
    # the stages and both directions share one tokenized seed, one lexicon
    # per direction and one segmented store
    from bimine import analogy, corpus_io, lexicon
    config_path, workdir = _pipeline_config(tmp_path, world)
    seed = json.loads(config_path.read_text(encoding="utf-8"))["seed_corpus"]
    seen = {"seed": 0, "lexicon.tsv": 0, "lexicon.rev.tsv": 0, "segmented": 0,
            "segmented_in_generate": 0}
    generating = []

    def count(module, name, key):
        real = getattr(module, name)

        def counted(path, *args, **kwargs):
            if key(path) in seen:
                seen[key(path)] += 1
                if generating and key(path) == "segmented":
                    seen["segmented_in_generate"] += 1
            return real(path, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def generate(*args, **kwargs):
        generating.append(True)
        try:
            return real_generate(*args, **kwargs)
        finally:
            generating.pop()

    count(corpus_io, "read_bitext", lambda path: "seed" if str(path) == seed else None)
    count(lexicon, "read_lexicon", lambda path: Path(path).name)
    for module in (miner, analogy, corpus_io):
        count(module, "segment_sentences", lambda body: "segmented")
    real_generate = analogy.generate_corpus
    monkeypatch.setattr(analogy, "generate_corpus", generate)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    articles = json.loads((workdir / "manifest.ingest.json").read_text(
        encoding="utf-8"))["counts"]["article_pairs"]
    assert articles > 0
    assert seen == {"seed": 1, "lexicon.tsv": 1, "lexicon.rev.tsv": 1,
                    "segmented": 2 * articles, "segmented_in_generate": 0}


@pytest.mark.parametrize("artifact, stage, text", [
    ("classifier.rev.json", "mine", '{"format_version": '),
    ("lexicon.rev.tsv", "classifier", "kot\tcat\tnan\n"),
    ("lexicon.rev.tsv", "mine", "kot\tcat\n"),
])
def test_corrupt_reverse_artifact_is_named(world, tmp_path, capsys, artifact, stage, text):
    config_path, workdir = _pipeline_config(tmp_path, world)
    run_pipeline(PipelineConfig.from_json(config_path), ["ingest", "lexicon", "classifier"])
    (workdir / artifact).write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path), "--stages", stage]) == 1
    assert f"{artifact}: " in capsys.readouterr().err


def test_failing_forward_direction_stops_the_stage(world, tmp_path, monkeypatch):
    config_path, workdir = _pipeline_config(tmp_path, world)
    config = PipelineConfig.from_json(config_path)
    train = pipeline.train_lexicon

    def forward_fails(*args, flip=False, **kwargs):
        if not flip:
            raise ValueError("forward lexicon failed")
        return train(*args, flip=flip, **kwargs)

    monkeypatch.setattr(pipeline, "train_lexicon", forward_fails)
    with pytest.raises(ValueError, match="forward lexicon failed"):
        run_pipeline(config, ["lexicon"])
    # the reverse direction never starts, and no manifest is written
    assert not (workdir / "lexicon.rev.tsv").exists()
    assert not (workdir / "manifest.lexicon.json").exists()


def test_benchmark_hook_points(world, tmp_path, monkeypatch):
    assert set(pipeline._STAGE_FUNCS) == set(pipeline.STAGES)
    config_path, workdir = _pipeline_config(tmp_path, world, bidirectional=False)
    run_pipeline(PipelineConfig.from_json(config_path),
                 ["ingest", "lexicon", "classifier", "mine", "merge", "filter"])
    hooked = []
    monkeypatch.setattr(cli, "run_pipeline", lambda config, stages: hooked.append(stages))
    assert main(["pipeline", "--config", str(config_path), "--stages", "eval"]) == 0
    assert hooked == [["eval"]]
    monkeypatch.setattr(metrics, "bleu", lambda corpus: 0.25)
    run_pipeline(PipelineConfig.from_json(config_path), ["eval"])
    report = json.loads((workdir / "eval_report.json").read_text(encoding="utf-8"))
    assert report["scores"]["bleu"] == 0.25


def test_eval_stage_names_the_filtered_corpus_too_small_to_sample(tmp_path):
    workdir = tmp_path / "out"
    workdir.mkdir()
    (workdir / "lexicon.tsv").write_text("kota\tcat\t1.0\n", encoding="utf-8")
    (workdir / "filtered.tsv").write_text("Ala ma kota.\tAlice has a cat.\t1.0\n",
                                          encoding="utf-8")
    config = PipelineConfig(workdir=str(workdir))
    filtered = re.escape(str(workdir / "filtered.tsv"))
    with pytest.raises(ValueError, match=rf"^{filtered}: corpus has 1 pairs; sampling 200 "):
        run_pipeline(config, ["eval"])
    assert not (workdir / "eval_report.json").exists()


def test_pipeline_config_accepts_only_one_worker(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"workdir": "x", "mining": {"workers": 1}}', encoding="utf-8")
    assert PipelineConfig.from_json(path).mining["workers"] == 1
    path.write_text('{"workdir": "x", "mining": {"workers": 4}}', encoding="utf-8")
    with pytest.raises(PipelineError, match="mining.workers"):
        PipelineConfig.from_json(path)


def test_pipeline_missing_upstream_names_stage(world, tmp_path):
    config_path, workdir = _pipeline_config(tmp_path, world)
    config = PipelineConfig.from_json(config_path)
    with pytest.raises(PipelineError, match="run stage 'merge' first"):
        run_pipeline(config, ["filter"])


def test_pipeline_stage_subset(world, tmp_path):
    config_path, workdir = _pipeline_config(tmp_path, world, bidirectional=False)
    config = PipelineConfig.from_json(config_path)
    run_pipeline(config, ["ingest", "lexicon"])
    assert (workdir / "lexicon.tsv").exists()
    assert not (workdir / "classifier.json").exists()
    run_pipeline(config, ["classifier", "mine", "merge"])
    assert (workdir / "mined.tsv").exists()


def test_pipeline_mining_threshold_zero_is_kept(world, tmp_path, monkeypatch):
    config_path, _ = _pipeline_config(tmp_path, world, bidirectional=False)
    config = PipelineConfig.from_json(config_path)
    run_pipeline(config, ["ingest", "lexicon", "classifier"])
    used = []
    real_mine_corpus = miner.mine_corpus

    def spy(*args, **kwargs):
        used.append(kwargs["threshold"])
        return real_mine_corpus(*args, **kwargs)

    monkeypatch.setattr(miner, "mine_corpus", spy)
    assert "threshold" not in json.loads(config_path.read_text(encoding="utf-8"))["mining"]
    run_pipeline(config, ["mine"])
    for configured in (0.0, 0.25):
        config.mining["threshold"] = configured
        run_pipeline(config, ["mine"])
    # an absent threshold is the default, 0.5; 0 is kept
    assert used == [0.5, 0.0, 0.25]


def test_pipeline_refuses_an_empty_stage_list(world, tmp_path, capsys):
    config_path, workdir = _pipeline_config(tmp_path, world)
    assert main(["pipeline", "--config", str(config_path), "--stages", ""]) == 1
    assert capsys.readouterr().err.startswith("error: unknown stages ['']; choose from ")
    assert not workdir.exists()


@pytest.mark.parametrize("section, value, detail", [
    # Python's json reads NaN, so the config file can hold one
    ("mining", float("nan"), "config key mining.threshold is not a finite number: nan"),
    # null used to mean the model's threshold; a model stores none now
    ("mining", None, "config key mining.threshold must be a number, not NoneType"),
], ids=["nan", "null"])
def test_pipeline_refuses_a_threshold_that_is_not_one_number(world, tmp_path, capsys,
                                                             section, value, detail):
    config_path, workdir = _pipeline_config(tmp_path, world, bidirectional=False)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc[section]["threshold"] = value
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path),
                 "--stages", "lexicon,classifier"]) == 1
    # refused at load, naming the file and the key, before any stage runs
    assert capsys.readouterr().err.splitlines() == [f"error: {config_path}: {detail}"]
    assert not workdir.exists()


def test_pipeline_refuses_a_negative_margin_reg_at_load(world, tmp_path, capsys):
    # it used to be refused only at the classifier stage, after the lexicon
    # stage had run, by a message naming neither the file nor the key
    config_path, workdir = _pipeline_config(tmp_path, world, bidirectional=False)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["classifier"]["margin_reg"] = -1
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path),
                 "--stages", "lexicon,classifier"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {config_path}: config key classifier.margin_reg must be >= 0, got -1.0"]
    assert not workdir.exists()


def test_pipeline_refuses_a_negative_max_distance_at_load(world, tmp_path, capsys):
    # it used to load, and the analogy stage then found nothing
    config_path, workdir = _pipeline_config(tmp_path, world, bidirectional=False)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["analogy"]["max_distance"] = -1
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {config_path}: config key analogy.max_distance must be >= 0, got -1"]
    assert not workdir.exists()


@pytest.mark.parametrize("argv, message", [
    (["analogy", "find", "--max-dist", "-1"], "max_distance must be >= 0, got -1"),
    (["analogy", "find", "--size-guard", "0"], "size_guard must be >= 1, got 0"),
    (["filter", "trivial", "--min-chars", "-1"], "min_chars must be >= 0, got -1"),
])
def test_cli_flags_apply_the_config_ranges(tmp_path, capsys, argv, message):
    seed = tmp_path / "seed.tsv"
    seed.write_text("Ala ma kota.\tAlice has a cat.\n", encoding="utf-8")
    out = tmp_path / "out"
    source = ["--seed"] if argv[0] == "analogy" else ["--in"]
    assert main(argv + source + [str(seed), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, words", [
    # the classifier's copy of the threshold is gone: the key is refused as unknown
    ("classifier", "threshold", 1.5, "unknown keys ['threshold'] in config section 'classifier'"),
    ("mining", "threshold", 1.5, "in [0, 1], got 1.5"),
    ("lexicon", "prune_below", 2, "in [0, 1], got 2.0"),
    ("classifier", "epochs", 0, ">= 1, got 0"),
    ("classifier", "epochs", -1, ">= 1, got -1"),
    ("mining", "gap_cost", 0.9, "in (0, 0.5], got 0.9"),
    ("eval", "segments", 0, ">= 1, got 0"),
])
def test_pipeline_refuses_an_out_of_range_config_value_at_load(world, tmp_path, capsys,
                                                              section, key, value, words):
    config_path, workdir = _pipeline_config(tmp_path, world, bidirectional=False)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc.setdefault(section, {})[key] = value
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 1
    detail = words if words.startswith("unknown") else \
        f"config key {section}.{key} must be {words}"
    assert capsys.readouterr().err.splitlines() == [f"error: {config_path}: {detail}"]
    assert not workdir.exists()


def test_pipeline_rejects_unknown_stage(world, tmp_path):
    config_path, _ = _pipeline_config(tmp_path, world)
    config = PipelineConfig.from_json(config_path)
    with pytest.raises(PipelineError, match="unknown"):
        run_pipeline(config, ["polish"])


def test_pipeline_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"workdir": "x", "nonsense": 1}', encoding="utf-8")
    with pytest.raises(PipelineError, match="nonsense"):
        PipelineConfig.from_json(path)
    # a misspelt key inside a section must not fall back to the default
    path.write_text('{"workdir": "x", "mining": {"treshold": 0.3}}', encoding="utf-8")
    with pytest.raises(PipelineError, match=r"c\.json: unknown keys \['treshold'\] "
                                            r"in config section 'mining'"):
        PipelineConfig.from_json(path)
    path.write_text('{"workdir": "x", "eval": 5}', encoding="utf-8")
    with pytest.raises(PipelineError, match="section 'eval' must be an object"):
        PipelineConfig.from_json(path)


@pytest.mark.parametrize("text, detail", [
    ('{"workdir": "x",', "Expecting property name"),
    ('{"workdir": 5}', "config key 'workdir' must be a string, not int"),
    ('{"workdir": "x", "store": ["s.jsonl"]}', "config key 'store' must be a string"),
    ('["workdir"]', "one JSON object"),
    (b'{"workdir": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
])
def test_pipeline_cli_names_the_file_of_a_bad_config(tmp_path, capsys, text, detail):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main(["pipeline", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and detail in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, value, detail", [
    ("lexicon", {"iterations": "ten"}, "lexicon.iterations must be an integer, not str"),
    ("lexicon", {"iterations": 10.0}, "lexicon.iterations must be an integer, not float"),
    ("classifier", {"epochs": True}, "classifier.epochs must be an integer, not bool"),
    ("classifier", {"learning_rate": False}, "classifier.learning_rate must be a number"),
    ("mining", {"bidirectional": 1}, "mining.bidirectional must be a boolean, not int"),
    ("mining", {"gap_cost": None}, "mining.gap_cost must be a number, not NoneType"),
    ("filter", {"cascade": 3}, "filter.cascade must be a string, not int"),
    ("ingest", {"links": ["l.tsv"]}, "ingest.links must be a string, not list"),
    ("mining", {"workers": "1"}, "mining.workers must be an integer, not str"),
    ("lexicon", {"prune_below": 10 ** 400}, "lexicon.prune_below is not a finite number: 10"),
])
def test_pipeline_config_type_checks_section_values(tmp_path, capsys, section, value,
                                                    detail):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"workdir": "x", section: value}), encoding="utf-8")
    with pytest.raises(PipelineError, match=f"bad.json: config key {detail}"):
        PipelineConfig.from_json(path)
    assert main(["pipeline", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: config key {detail}" in err and "Traceback" not in err


def test_pipeline_config_accepts_an_int_for_a_float(world, tmp_path, monkeypatch):
    config_path, workdir = _pipeline_config(tmp_path, world, bidirectional=False)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["classifier"]["learning_rate"] = 1
    doc["mining"].update(threshold=0, gap_cost=0.3)
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    config = PipelineConfig.from_json(config_path)
    assert config.classifier["learning_rate"] == 1
    assert config.mining["threshold"] == 0
    assert type(config.mining["threshold"]) is float
    # the value reaches the step as a float, and the int keys stay ints
    seen = {}
    train = pipeline.train_classifier

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_classifier", spy)
    run_pipeline(config, ["lexicon", "classifier"])
    assert type(seen["learning_rate"]) is float
    assert {type(seen[key]) for key in ("neg_per_pos", "epochs", "seed_rng")} == {int}
    params = json.loads((workdir / "manifest.classifier.json").read_text(
        encoding="utf-8"))["params"]
    assert params["learning_rate"] == 1.0 and type(params["learning_rate"]) is float
    assert type(params["epochs"]) is int


def test_pipeline_runs_ingest_only_when_an_ingest_path_is_set(tmp_path, monkeypatch):
    ran = []
    for stage in pipeline.STAGES:
        monkeypatch.setitem(pipeline._STAGE_FUNCS, stage,
                            lambda config, inputs, stage=stage: ran.append(stage))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"workdir": str(tmp_path / "out")}), encoding="utf-8")
    run_pipeline(PipelineConfig.from_json(path), stages=None)
    assert ran == list(pipeline.STAGES[1:])
    ran.clear()
    path.write_text(json.dumps({"workdir": str(tmp_path / "out"),
                                "ingest": {"links": "l.tsv"}}), encoding="utf-8")
    run_pipeline(PipelineConfig.from_json(path), stages=None)
    assert ran == list(pipeline.STAGES)


def test_pipeline_ingest_names_a_missing_input_key(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"workdir": str(tmp_path / "out"),
                                "ingest": {"links": "l.tsv"}}), encoding="utf-8")
    assert main(["pipeline", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: ingest stage needs config.ingest.src_dump\n"


def test_pipeline_logs_one_json_line_per_stage(world, tmp_path, capfd):
    # capfd, not capsys: nothing may reach the stderr descriptor but the records
    config_path, workdir = _pipeline_config(tmp_path, world)
    capfd.readouterr()
    assert main(["pipeline", "--config", str(config_path)]) == 0
    lines = capfd.readouterr().err.splitlines()
    records = [json.loads(line) for line in lines]
    assert [record["stage"] for record in records] == list(pipeline.STAGES)
    for line, record in zip(lines, records):
        assert line == json.dumps(record, sort_keys=True)
        assert set(record) == {"stage", "outputs", "counts"}
        manifest = json.loads((workdir / f"manifest.{record['stage']}.json").read_text(
            encoding="utf-8"))
        assert record["counts"] == manifest["counts"]
        assert sorted(record["outputs"]) == sorted(manifest["outputs"])


def test_pipeline_cli_failure_exit_code(world, tmp_path, capsys):
    config_path, _ = _pipeline_config(tmp_path, world)
    assert main(["pipeline", "--config", str(config_path),
                 "--stages", "eval"]) == 1
    assert "run stage" in capsys.readouterr().err


def test_pipeline_config_accepts_every_documented_key(tmp_path):
    defaults = PipelineConfig(workdir="x")
    doc = {"workdir": "x", "store": "s.jsonl",
           "ingest": {"src_dump": "a", "tgt_dump": "b", "links": "c"}}
    for section in ("lexicon", "classifier", "mining", "analogy", "filter", "eval"):
        doc[section] = dict(getattr(defaults, section))
    doc["mining"].update(workers=1, threshold=0.75)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = PipelineConfig.from_json(path)
    assert config.mining["threshold"] == 0.75
    assert config.ingest["links"] == "c"


def test_every_pipeline_config_default_is_a_json_scalar():
    # a setting is typed by its default, so a default of None or of a
    # container would leave its key untyped
    for name, value in vars(PipelineConfig(workdir="")).items():
        for key, default in value.items() if isinstance(value, dict) else [(name, value)]:
            assert type(default) in (str, bool, int, float), (name, key, default)


def test_mine_rejects_a_lexicon_the_model_was_not_trained_with(world, tmp_path, capsys):
    config_path, workdir = _pipeline_config(tmp_path, world)
    run_pipeline(PipelineConfig.from_json(config_path), ["ingest", "lexicon", "classifier"])
    argv = ["mine", "--store", workdir / "store.jsonl", "--model", workdir / "classifier.json",
            "--out", tmp_path / "mined.tsv"]
    capsys.readouterr()
    assert main([str(a) for a in argv + ["--lexicon", workdir / "lexicon.rev.tsv"]]) == 1
    err = capsys.readouterr().err
    assert "lexicon.rev.tsv" in err and "classifier.json" in err
    assert not (tmp_path / "mined.tsv").exists()
    assert main([str(a) for a in argv + ["--lexicon", workdir / "lexicon.tsv"]]) == 0


def test_analogy_models_reports_a_malformed_quadruple_file(tmp_path, capsys):
    seed = tmp_path / "seed.tsv"
    seed.write_text("a b\tx y\n", encoding="utf-8")
    quads = tmp_path / "quads.jsonl"
    record = {"a": ["a"], "b": ["b"], "d": ["d"], "d_ab": 1, "d_cd": 1, "d_ac": 1,
              "d_bd": 1, "indices": [0, 1, 2, 3]}
    quads.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["analogy", "models", "--seed", str(seed), "--quads", str(quads),
                 "--out", str(tmp_path / "models.jsonl")]) == 1
    assert "quads.jsonl: line 1: missing field 'c'" in capsys.readouterr().err
