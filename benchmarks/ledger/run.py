"""Benchmark-driver entry point: one workload, one JSON result line.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``,
every per-layer metric with ``--trace 1``.  Exits non-zero, printing no
result, where the simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 sizes (self-test and CI smoke)")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"ledger: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from benchmarks.ledger.harness import run_workload

    entry = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    for problem in entry["problems"]:
        print(f"ledger: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": metric["median"], "unit": metric["unit"]}
            for name, metric in entry["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
