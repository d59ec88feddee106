"""Repo benchmark: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Runs from the root of a source checkout.  Drives ``repro-ft`` the way a
user does (see ``workloads.py``), checks every output, and prints as its
last stdout line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it describes the host
(CPUs, Python, numpy, kernel tiers); numbers from different hosts or tier
sets are not comparable.  Working files and a full record of the run go
to ``.bench_build/perfbench/``.

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the benchmark cannot run at all (no
result line).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from proc import BenchError
from workloads import END_TO_END, PER_LAYER, ROOT, WORKLOADS, run_workload


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_build" / "perfbench"
    rundir = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": outcome.metrics.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": outcome.host, "problems": outcome.problems,
              "raw": outcome.raw, **result}
    (base / f"{rundir.name}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if outcome.correct:
        shutil.rmtree(rundir)
    print(json.dumps({"host": outcome.host}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
