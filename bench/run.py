"""bimine benchmark: one workload, closed loop, one pipeline run at a time.

    python3 bench/run.py --workload mine-comparable --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
``--seed`` (bench/gen.py) outside every timed region.  Then, for about
``--seconds`` seconds, each repetition starts a fresh interpreter
(bench/child.py) that runs ``bimine pipeline`` with ``workers = 1`` on those
inputs, and its outputs are checked.  ``--trace 0`` alternates those
repetitions with runs of a fixed reference program (bench/reference.py) and
reports the end-to-end metrics as medians over the repetitions, the two
timings relative to the reference runs next to them (see ``REFERENCE_S``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (bench/tracing.py) unscaled.

Standard output ends with two JSON lines: a report (environment, input sizes,
artifact digests, per-repetition figures, failures, missing layers) and, last,
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import tracing

# (metric name, unit), reported by an untraced run
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mined_precision", "ratio"),
    ("mined_recall", "ratio"),
]

# acceptance-suite floors on mining quality
MIN_PRECISION = 0.9
MIN_RECALL = 0.8

# Reference runs bracket every repetition.  setup_s and wall_s are reported
# in seconds of a host on which the reference work takes REFERENCE_S: the
# median, over a run's repetitions, of the set-up time over the time of the
# reference run just before it and of the wall time over the time of the
# reference run just after it, times REFERENCE_S.  The same Python code ran up
# to 50% slower in phases of seconds to minutes on the host this was built on;
# the scaling cut the spread of wall_s across runs by two to four times
# (measurements in bench/README.md, "Host speed").
REFERENCE_S = 1.0

# one repetition runs at a time: the benchmark's own process plus one child
CONCURRENT_CHILDREN = 1
MIN_CYCLES = 2
TOTAL_BUDGET_S = 150.0  # leaves room for generation within 180 s

BENCH_DIR = Path(__file__).resolve().parent


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_rev(root: Path) -> str | None:
    """HEAD's commit from the .git directory, without starting git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "bimine").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": _git_rev(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def check_concurrency(config: dict) -> None:
    """Every workload runs single-process; never more workers or children
    than the CPUs this process may use.  Checked without starting any."""
    cpus = len(os.sched_getaffinity(0))
    workers = config["mining"]["workers"]
    if workers != gen.WORKERS:
        raise SystemExit(f"config has workers = {workers}; the benchmark runs workers = 1")
    if max(workers, CONCURRENT_CHILDREN) > cpus:
        raise SystemExit(f"{max(workers, CONCURRENT_CHILDREN)} workers exceed {cpus} CPUs")


def expected_artifacts(stages: list[str], bidirectional: bool) -> list[str]:
    per_stage = {
        "ingest": ["store.jsonl"],
        "lexicon": ["lexicon.tsv"] + (["lexicon.rev.tsv"] if bidirectional else []),
        "classifier": ["classifier.json"] + (["classifier.rev.json"] if bidirectional else []),
        "mine": ["mined.fwd.tsv", "mine_log.jsonl"] + (["mined.rev.tsv"] if bidirectional else []),
        "merge": ["mined.tsv", "overlap_stats.json"],
        "analogy": ["analogy_models.jsonl", "quasi.tsv", "quasi_report.json"],
        "filter": ["filtered.tsv", "rejected.tsv", "filter_report.json"]
        + (["quasi_filtered.tsv", "quasi_filter_report.json"] if "analogy" in stages else []),
        "eval": ["eval_report.json"],
    }
    names = []
    for stage in stages:
        names += per_stage[stage] + [f"manifest.{stage}.json"]
    return names


def quality(out: Path, truth: set[tuple[str, str]]) -> tuple[float, float]:
    """Precision and recall of the last pair artifact against planted truth,
    compared as lowercased token strings."""
    path = out / "filtered.tsv" if (out / "filtered.tsv").exists() else out / "mined.tsv"
    found = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cols = line.rstrip("\n").split("\t")
            found.add((gen.token_string(cols[0]), gen.token_string(cols[1])))
    hits = len(found & truth)
    return (hits / len(found) if found else 0.0), hits / len(truth)


def layer_guard(workload: str, out: Path) -> list[str]:
    """Checks that the workload's layer did its work.  Only properties a
    correct program keeps however fast it is; never internal work counts."""
    problems = []
    if workload == "analogy-seed":
        report = json.loads((out / "quasi_report.json").read_text(encoding="utf-8"))
        if report.get("quadruples", 0) <= 0 or report.get("confirmed", 0) <= 0:
            problems.append(f"analogy did no work: {report}")
    if "mine" in gen.WORKLOADS[workload]:
        with open(out / "store.jsonl", encoding="utf-8") as fh:
            articles = {json.loads(line)["id"] for line in fh if line.strip()}
        with open(out / "mine_log.jsonl", encoding="utf-8") as fh:
            logged = {json.loads(line)["article_id"] for line in fh if line.strip()}
        if logged != articles:
            problems.append(f"mine_log covers {len(logged)} of {len(articles)} article pairs")
    return problems


def check_outputs(workload: str, out: Path, artifacts: list[str],
                  truth: set[tuple[str, str]], rep: dict) -> list[str]:
    """Checks one repetition's outputs; records its artifact digests and
    mining quality in ``rep`` and returns the problems found."""
    absent = [a for a in artifacts if not (out / a).is_file()]
    if absent:
        return [f"missing artifacts {absent}"]
    rep["digests"] = {p.name: _sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    rep["precision"], rep["recall"] = quality(out, truth)
    problems = []
    if rep["precision"] < MIN_PRECISION or rep["recall"] < MIN_RECALL:
        problems.append(f"precision {rep['precision']:.3f} / recall {rep['recall']:.3f} "
                        f"below {MIN_PRECISION} / {MIN_RECALL}")
    return problems + layer_guard(workload, out)


def trace_rep(stages: list[str], out: Path, result: dict, rep: dict,
              problems: list[str]) -> list[str]:
    """Per-layer metrics of a traced repetition into ``rep``; appends a
    problem when the spans do not account for its wall time.  Returns the
    missing layers."""
    manifests = {s: json.loads((out / f"manifest.{s}.json").read_text(encoding="utf-8"))
                 for s in stages}
    rep["layers"] = tracing.layer_metrics(result["trace"], result)
    coverage = rep["layers"]["trace.coverage"]
    if not 0.98 <= coverage <= 1.02:
        problems.append(f"traced spans cover {coverage:.3f} of wall_s")
    return tracing.missing_layers(rep["layers"], stages, manifests)


def run_rep(root: Path, rundir: Path, stages: list[str], traced: bool,
            run_id: str, timeout: float) -> tuple[dict | None, list[str]]:
    """One repetition in a fresh interpreter; returns its result and problems."""
    out = rundir / "out"
    shutil.rmtree(out, ignore_errors=True)
    result_path = rundir / "rep.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--root", str(root),
           "--stages", ",".join(stages), "--result", str(result_path)]
    if traced:
        cmd += ["--trace-file", str(rundir / "trace.json"), "--run-id", run_id]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(BENCH_DIR / "_out" / "pycache"))
    try:
        proc = subprocess.run(cmd, cwd=rundir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {timeout:.0f} s"]
    if proc.returncode != 0 or not result_path.exists():
        return None, [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["rc"] != 0:
        return result, [f"bimine pipeline returned {result['rc']}: {proc.stderr.strip()[-400:]}"]
    return result, []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "bimine" / "cli.py").is_file():
        _log(f"error: {root} has no src/bimine; run from the root of a bimine checkout")
        return 2
    env = environment(root)

    stages = gen.WORKLOADS[args.workload]
    rundir = BENCH_DIR / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        return measure(args, root, env, stages, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def run_reference(timeout: float) -> float:
    """One run of the reference work in a fresh interpreter; its seconds."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "reference.py")],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"reference run failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout)["reference_s"]


def measure(args, root: Path, env: dict, stages: list[str], rundir: Path) -> int:
    sizes = gen.generate(args.workload, args.seed, rundir)
    config = json.loads((rundir / "inputs" / "config.json").read_text(encoding="utf-8"))
    check_concurrency(config)
    with open(rundir / "inputs" / "truth.tsv", encoding="utf-8") as fh:
        truth = {tuple(line.rstrip("\n").split("\t")) for line in fh}
    artifacts = expected_artifacts(stages, config["mining"]["bidirectional"])
    out = rundir / "out"
    outdir = BENCH_DIR / "_out"
    outdir.mkdir(exist_ok=True)

    reps: list[dict] = []
    references: list[float] = []
    failures: list[str] = []
    digests: dict[str, str] | None = None
    missing: list[str] = []
    started = perf_counter()

    def timeout() -> float:
        return max(1.0, TOTAL_BUDGET_S - (perf_counter() - started))

    def repetition(traced: bool) -> None:
        nonlocal digests, missing
        run_id = f"{args.workload}-s{args.seed}-r{len(reps)}"
        result, problems = run_rep(root, rundir, stages, traced, run_id, timeout())
        rep = {"traced": traced, "result": result}
        reps.append(rep)
        if not problems:
            try:
                problems = check_outputs(args.workload, out, artifacts, truth, rep)
                if digests is None:
                    digests = rep.get("digests")
                elif "digests" in rep and rep["digests"] != digests:
                    changed = sorted(k for k in set(digests) | set(rep["digests"])
                                     if digests.get(k) != rep["digests"].get(k))
                    problems.append(f"artifacts differ from the first repetition: {changed}")
                if traced and not problems:
                    missing = trace_rep(stages, out, result, rep, problems)
                    shutil.copyfile(rundir / "trace.json",
                                    outdir / f"trace-{args.workload}-s{args.seed}.json")
            except Exception as exc:  # a malformed output fails the repetition
                problems.append(f"output check raised {exc!r}")
        rep["problems"] = problems
        failures.extend(f"rep {len(reps) - 1}: {p}" for p in problems)
        _log(f"{run_id}{' traced' if traced else ''}: "
             + (f"wall {result['wall_s']:.3f} s" if result else "no result")
             + (f" FAILED {problems}" if problems else ""))

    # a cycle is an untraced repetition and, after it, a reference run or a
    # traced repetition; cycles start while the longest so far still fits
    if not args.trace:
        references.append(run_reference(timeout()))
    cycles, longest = 0, 0.0
    while True:
        elapsed = perf_counter() - started
        if cycles >= MIN_CYCLES and elapsed + longest > args.seconds:
            break
        if cycles and elapsed + longest > TOTAL_BUDGET_S:
            break
        repetition(traced=False)
        if args.trace:
            repetition(traced=True)
        else:
            references.append(run_reference(timeout()))
        cycles += 1
        longest = max(longest, perf_counter() - started - elapsed)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    plain = [r for r in reps if not r["traced"] and r["result"]]
    good = [r for r in reps if not r["problems"]]

    def median(values, default=0.0):
        values = list(values)
        return statistics.median(values) if values else default

    raw = {key: median(r["result"][key] for r in plain)
           for key in ("setup_s", "wall_s", "cpu_s", "import_s", "config_s")}
    if args.trace:
        traced = [r for r in good if r["traced"]]
        metrics = {name: median(r["layers"].get(name, 0.0) for r in traced)
                   for name, _ in tracing.PER_LAYER}
        metrics["pipeline.cpu_s"] = raw["cpu_s"]
        metrics["cli.import_s"] = raw["import_s"]
        metrics["cli.config_s"] = raw["config_s"]
        metrics["trace.overhead_s"] = median(r["result"]["wall_s"] for r in traced) - raw["wall_s"]
        metrics["trace.missing_layers"] = len(missing)
        units = dict(tracing.PER_LAYER)
    else:
        # reps[i] ran between references[i] and references[i + 1]
        brackets = [(r["result"], before, after)
                    for r, before, after in zip(reps, references, references[1:])
                    if r["result"]]
        metrics = {
            "setup_s": median(res["setup_s"] * REFERENCE_S / before
                              for res, before, _ in brackets),
            "wall_s": median(res["wall_s"] * REFERENCE_S / after
                             for res, _, after in brackets),
            "peak_rss_mb": median(r["result"]["peak_rss_mb"] for r in plain),
            "mined_precision": median(r["precision"] for r in good),
            "mined_recall": median(r["recall"] for r in good),
        }
        units = dict(END_TO_END)

    failed = sum(1 for r in reps if r["problems"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "inputs": sizes,
        "workers": config["mining"]["workers"],
        "loop": "closed, 1 caller, 1 pipeline run at a time",
        "attempted": len(reps), "failed": failed,
        "error_rate": failed / len(reps),
        "digests": digests,
        "digest": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "missing_layers": missing,
        "unpatched_sites": sorted({site for r in reps if r["traced"] and r["result"]
                                   for site in r["result"]["absent"]}),
        "failures": failures,
        "raw_medians": raw,
        "reference_s": references,
        "reps": [{k: v for k, v in r.items() if k not in ("result", "layers", "digests")}
                 | {k: r["result"][k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
                    if r["result"]} for r in reps],
    }
    if args.trace:
        report["layers"] = metrics
    line = json.dumps(report, sort_keys=True)
    (outdir / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    for failure in failures:
        _log(f"FAILED {failure}")
    if missing:
        _log(f"missing layers (no wrapper call although outputs show work): {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
