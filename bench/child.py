"""One benchmark repetition: a fresh interpreter running ``bimine pipeline``.

Run from the workload's run directory (config paths are relative to it):

    python3 <checkout>/bench/child.py --root <checkout> --stages ingest,lexicon \
        --result rep.json [--trace-file trace.json --run-id ID]

Times the import of ``bimine.cli`` and the CLI call up to the first stage
(set-up), then the stages (wall), and writes both with CPU time and peak
resident memory to ``--result``.  With ``--trace-file`` the public functions
of every module are wrapped first (see tracing.py) and the spans are written
out when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--stages", required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    started = perf_counter()
    import bimine.cli
    import_s = perf_counter() - started
    if not Path(bimine.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported bimine from {bimine.cli.__file__}, not {src}")

    tracer = None
    if args.trace_file:
        from tracing import Tracer, install
        tracer = Tracer(args.run_id)
        absent = install(tracer)

    marks = {}
    run_pipeline = bimine.cli.run_pipeline

    def first_stage_hook(*a, **k):
        marks["entry"], marks["cpu"] = perf_counter(), _cpu_s()
        return run_pipeline(*a, **k)

    bimine.cli.run_pipeline = first_stage_hook
    called = perf_counter()
    rc = bimine.cli.main(["pipeline", "--config", "inputs/config.json",
                          "--stages", args.stages])
    finished = perf_counter()
    cpu_end = _cpu_s()
    if "entry" not in marks:
        raise SystemExit("bimine pipeline never reached run_pipeline")

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "rc": rc,
        "import_s": import_s,
        "config_s": marks["entry"] - called,
        "setup_s": import_s + marks["entry"] - called,
        "wall_s": finished - marks["entry"],
        "cpu_s": cpu_end - marks["cpu"],
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        result["absent"] = absent
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({"run": args.run_id, "spans": tracer.spans}, fh)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
