"""``python -m benchmarks.ledger run|compare`` — the ledger's front-end.

    PYTHONPATH=src python -m benchmarks.ledger run [--seed 7] [--workload NAME]
        [--rounds N] [--seconds S] [--smoke] [--out FILE]
    PYTHONPATH=src python -m benchmarks.ledger run --traced [--trace-out FILE] ...
    PYTHONPATH=src python -m benchmarks.ledger compare [--agreement] A.json B.json

``run`` executes every workload (round-robin across ``--rounds`` so machine
drift hits all of them equally), prints every metric by name with its unit
and checks the outputs; it exits 1 if any operation failed.  ``--traced`` is
the separate traced run that yields the per-layer numbers; end-to-end
numbers always come from the untraced run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import compare
from .harness import aggregate, collect_repeats, load_average, machine_fingerprint
from .spec import WORK_UNITS, load_declaration


def run(args: argparse.Namespace) -> int:
    declaration = load_declaration()
    names = args.workload or list(declaration.workloads)
    unknown = sorted(set(names) - set(declaration.workloads))
    if unknown:
        print(f"unknown workload(s) {unknown}; expected {sorted(declaration.workloads)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else declaration.run_seconds
    machine = machine_fingerprint()

    collected: Dict[str, Dict[str, List[Any]]] = {
        name: {"repeats": [], "spans": []} for name in names
    }
    for round_index in range(args.rounds):
        for name in names:
            print(f"[ledger] round {round_index + 1}/{args.rounds}: {name}",
                  file=sys.stderr, flush=True)
            part = collect_repeats(
                name, args.seed, seconds, args.traced, args.smoke,
                want_spans=args.trace_out is not None,
            )
            for key, values in part.items():
                collected[name][key].extend(values)

    machine["load_average_end"] = load_average()
    machine["noisy"] = max(
        machine["load_average_start"], machine["load_average_end"]
    ) > (machine["nproc"] or 1)
    result = {
        "schema": 1,
        "traced": args.traced,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "rounds": args.rounds,
        "machine": machine,
        "workloads": {
            name: aggregate(name, collected[name], args.seed, args.traced,
                            args.smoke, declaration)
            for name in names
        },
    }

    for name, entry in result["workloads"].items():
        status = "ok" if entry["correct"] else "INCORRECT"
        print(f"{name}: {status}, {entry['failed']}/{entry['attempted']} operations "
              f"failed, {entry['repeats']} untraced repeat(s), "
              f"sim_fingerprint {entry['sim_fingerprint'][:16]}")
        host = entry["host"]
        print(f"  host: cpu speed {host['cpu_speed']:.3f}, io speed "
              f"{host['io_speed']:.3f} of the reference; by the wall clock "
              f"{host['work_per_wall_s']:.6g} {WORK_UNITS[name]}/s")
        for problem in entry["problems"]:
            print(f"  problem: {problem}")
        for metric, row in entry["metrics"].items():
            unit = row["unit"]
            if metric == "work_per_ref_s":
                unit = f"{WORK_UNITS[name]}/s"
            print(f"  {metric:<36} {row['median']:>14.6g} {unit:<14} "
                  f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}] n={row['n']}")
    if machine["noisy"]:
        print("note: load average exceeded nproc during this run; treat timings as noisy")

    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    if args.trace_out:
        spans = [span for name in names for span in collected[name]["spans"]]
        Path(args.trace_out).write_text(json.dumps(spans) + "\n")
        print(f"wrote {len(spans)} spans to {args.trace_out}")
    return 0 if all(e["correct"] for e in result["workloads"].values()) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run the workloads")
    run_parser.add_argument("--seed", type=int, default=7)
    run_parser.add_argument("--workload", action="append",
                            help="run only this workload (repeatable)")
    run_parser.add_argument("--rounds", type=int, default=1)
    run_parser.add_argument("--seconds", type=float, default=None,
                            help="wall seconds per workload per round "
                                 "(default: run_seconds of BENCHMARK.json)")
    run_parser.add_argument("--traced", action="store_true")
    run_parser.add_argument("--smoke", action="store_true", help="~1/20 sizes")
    run_parser.add_argument("--out", help="write the result set as JSON")
    run_parser.add_argument("--trace-out", help="write the spans as JSON (with --traced)")

    compare_parser = commands.add_parser("compare", help="judge two result files")
    compare_parser.add_argument("--agreement", action="store_true",
                                help="same code twice: fail on unresolved too")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    return compare.main(args.a, args.b, args.agreement)
