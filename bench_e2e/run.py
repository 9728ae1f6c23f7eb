"""Run one workload of the serving benchmark and print its JSON result.

    python3 bench_e2e/run.py --workload student-online --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root: the library is imported from ``src/``.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit
code is non-zero when the library cannot be imported or an output is
wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from bench_e2e import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics = workloads.per_layer(run)
        else:
            metrics = workloads.end_to_end(run)
    finally:
        run.close()
    counts = run.counts
    failed = counts["shed"] + counts["errored"] + len(run.checker.wrong)
    correct = not run.checker.wrong and counts["errored"] == 0
    for line in (run.errors + run.checker.wrong)[:10]:
        print(line, file=sys.stderr)
    for name, value in run.diagnostics.items():
        print(f"diagnostic {name} {value:.3f}")
    print(f"checked {run.checker.checked} sampled responses; "
          f"phases sent {counts['sent']} served {counts['served']} "
          f"shed {counts['shed']} errored {counts['errored']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(counts["sent"], 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
