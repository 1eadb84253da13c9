"""Registry-driven experiment CLI.

Every figure (and the feasibility tables) of the paper is runnable by name,
at any scale, with parallel workers and a persistent result cache::

    python -m repro.experiments list
    python -m repro.experiments run fig5 --scale tiny --workers 4
    python -m repro.experiments run fig6 fig9 --scale small --workers 8
    python -m repro.experiments run fig5 --force          # recompute, ignore cache
    python -m repro.experiments run fig5 --probes timeseries,linkutil
    python -m repro.experiments inspect results/store.json --series "uniform|MIN" --load 0.5

Results are persisted to a store keyed by a content hash of each point's
complete :class:`~repro.config.SimulationConfig` (default
``results/store.json``), so re-running a figure serves every already-computed
point from cache — interrupted sweeps resume instead of recomputing.  The
store is a crash-safe journal (append-only, checksummed, safe for concurrent
sweep processes sharing one path; see :mod:`repro.store`); a monolithic JSON
store written by earlier code is imported on open and replaced by a journal
the first time the sweep writes to it.  Stored entries are versioned :class:`~repro.record.RunRecord` payloads; ``--probes``
attaches registry probes to every executed point so telemetry channels are
persisted alongside the summaries, and ``inspect`` pretty-prints them
(``--verbose`` adds store durability statistics).  A reader that closes
stdout early (``inspect | head``) ends a command quietly with status 141.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Sequence

from ..faults import FaultSpec, parse_faults
from ..probes import PROBES, make_probes
from ..store import FLUSH_INTERVAL_SECONDS, ResultStore, StoreError
from . import tables
from .figures import FIGURES, run_figure
from .formatting import render_figure
from .orchestrator import FaultSpecError
from .runner import SCALES

DEFAULT_STORE = "results/store.json"

#: the one runnable name that is not a sweep.
TABLES = "tables"


def _experiments() -> dict:
    """Runnable name -> description: every registered figure, then the tables."""
    return {
        **{name: figure.description for name, figure in FIGURES.items()},
        TABLES: "VC feasibility tables I-IV (analytic, no simulation)",
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_list(_args: argparse.Namespace) -> int:
    experiments = _experiments()
    width = max(len(name) for name in experiments)
    print("available experiments:")
    for name, description in experiments.items():
        print(f"  {name:<{width}s}  {description}")
    print(f"\nscales: {', '.join(SCALES)} (default: tiny)")
    print("run with: python -m repro.experiments run <figure> "
          "[--scale S] [--workers N] [--patterns P ...]")
    return 0


def _parse_probes(spec: str | None) -> tuple:
    if not spec:
        return ()
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    try:
        make_probes(names)  # single source of truth for name validation
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return names


def cmd_run(args: argparse.Namespace) -> int:
    experiments = _experiments()
    unknown = [name for name in args.figures if name not in experiments]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"expected one of {', '.join(experiments)}", file=sys.stderr)
        return 2
    probes = _parse_probes(args.probes)
    faults = None
    if args.faults:
        try:
            faults = parse_faults(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}") from None
    try:
        store = ResultStore(
            args.store, refresh=args.force, flush_interval=args.flush_interval
        )
        return _run_figures(args, store, probes, faults)
    except StoreError as exc:
        # At open, or at any later flush: a lock timeout, or a filesystem
        # without flock under a fresh store (first locked at the first flush).
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_figures(
    args: argparse.Namespace, store: ResultStore, probes: tuple,
    faults: FaultSpec | None,
) -> int:
    status = 0
    for name in args.figures:
        if name == TABLES:
            print(tables.render_all_tables() + "\n")
            continue
        start = time.perf_counter()
        try:
            panels, outcome = run_figure(
                name, scale=args.scale, patterns=args.patterns or None,
                seeds=args.seeds, workers=args.workers, store=store,
                probes=probes, verbose=args.verbose,
                job_timeout=args.job_timeout, faults=faults,
            )
        except FaultSpecError as exc:
            print(f"--faults: {exc}", file=sys.stderr)
            status = 2
            break
        elapsed = time.perf_counter() - start
        print(render_figure(f"{name} @ {args.scale}", panels))
        # The sweep's own accounting; zero counts other than the first two
        # (which CI greps) are left out.
        stats = outcome.stats
        missing = sum(
            len(entry.missing) for series in panels.values() for entry in series
        )
        if missing:
            status = 1
        counts = [
            f"{stats.executed} point(s) simulated",
            f"{stats.cache_hits} served from cache",
            f"{missing} missing" if missing else "",
            f"{stats.retries} crash retries" if stats.retries else "",
            f"{stats.store_absorbed} absorbed from peer writers"
            if stats.store_absorbed else "",
        ]
        print(
            f"\n[{name}] {elapsed:.1f}s with {args.workers} worker(s): "
            + ", ".join(filter(None, counts)) + f" ({args.store})\n"
        )
    store.close()
    return status


def _channel_digest(name: str, payload: dict) -> str:
    data = payload.get("data")
    if isinstance(data, list):
        size = f"{len(data)} samples"
    elif isinstance(data, dict):
        size = f"{len(data)} entries"
    else:  # pragma: no cover - future channel shapes
        size = type(data).__name__
    return f"{name} ({size})"


def cmd_inspect(args: argparse.Namespace) -> int:
    try:
        store = ResultStore(args.store, strict=True)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        info = store.describe()
        parts = [
            f"entries={info['entries']}",
            f"journal-ops={info['journal_ops']}",
            f"superseded={info['superseded']}",
            f"compactions={info['compactions']}",
            f"torn-salvages={info['torn_salvages']}"
            + (
                f" ({info['torn_bytes_dropped']} bytes dropped)"
                if info["torn_salvages"] else ""
            ),
            f"resident-bytes={info['resident_bytes']}",
            f"frames-fallback={info['frames_fallback']}",
            f"decoded={info['decoded']}",
        ]
        if info["migrated_v1"]:
            parts.append(f"migrated-v1={info['migrated_v1']}")
        print(f"[store {' '.join(parts)}]")
    if len(store) == 0:
        print(f"no records in {args.store} (empty store)", file=sys.stderr)
        return 1
    if store.migrated:
        print(f"[migrated {store.migrated} v1 entr{'y' if store.migrated == 1 else 'ies'} "
              "to RunRecord v2 in memory]")
    shown = 0
    try:
        entries = sorted(store.entries(), key=lambda e: (
            str(e[2].get("series", "")), e[2].get("load", 0.0), e[2].get("seed", 0)))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        print(
            f"error: store {args.store} contains malformed record entries "
            f"({type(exc).__name__}: {exc}); the file may be corrupt or "
            "written by an incompatible version",
            file=sys.stderr,
        )
        return 2
    for key, record, meta in entries:
        if args.series is not None and meta.get("series") != args.series:
            continue
        if args.load is not None and meta.get("load") != args.load:
            continue
        shown += 1
        series = meta.get("series", "?")
        load = meta.get("load", "?")
        seed = meta.get("seed", "?")
        print(f"{key}  series={series} load={load} seed={seed}")
        print(f"  summary:    {record.summary}")
        provenance = record.provenance
        if provenance:
            cycles = provenance.get("engine_cycles")
            wall = provenance.get("wall_time_s")
            parts = [f"schema v{record.schema_version}"]
            if provenance.get("migrated_from"):
                parts.append(f"migrated from v{provenance['migrated_from']}")
            if cycles is not None:
                parts.append(f"{cycles} cycles")
            if wall is not None:
                parts.append(f"{wall}s wall")
            # Sweeps measure every point with the fixed budget, but stores
            # written by older code may hold points copied from a lower load
            # or measured in convergence windows: say so, never present
            # them as fixed-budget runs.
            if provenance.get("extrapolated"):
                parts.append(
                    "EXTRAPOLATED from load "
                    f"{provenance.get('extrapolated_from_load')}"
                )
            route_table = provenance.get("route_table")
            if route_table and "columns_built" in route_table:
                parts.append(
                    f"route-table (built {route_table['columns_built']}, "
                    f"hits {route_table.get('hits')})"
                )
            convergence = provenance.get("convergence")
            if convergence:
                state = "converged" if convergence.get("converged") else "unconverged"
                parts.append(
                    f"{state} in {convergence.get('windows')} windows "
                    f"({convergence.get('measured_cycles')} of "
                    f"{convergence.get('budget_cycles')} budget cycles)"
                )
            faults = provenance.get("faults")
            if faults:
                parts.append(
                    f"faults: {faults.get('applied')} applied "
                    f"(policy {faults.get('policy')}, "
                    f"{faults.get('packets_dropped')} dropped, "
                    f"{faults.get('packets_rerouted')} rerouted)"
                )
            deadlocks = provenance.get("deadlock")
            if deadlocks:
                first = deadlocks[0] if isinstance(deadlocks, list) else deadlocks
                parts.append(
                    "DEADLOCK suspected at cycle "
                    f"{first.get('cycle')} "
                    f"({first.get('resident_packets')} packets resident)"
                )
            print(f"  provenance: {', '.join(parts)}")
            if args.verbose and deadlocks:
                for outcome in (
                    deadlocks if isinstance(deadlocks, list) else [deadlocks]
                ):
                    details = ", ".join(
                        f"{k}={v}" for k, v in sorted(outcome.items())
                    )
                    print(f"  deadlock: {details}")
            if args.verbose and faults:
                stats = ", ".join(f"{k}={v}" for k, v in sorted(faults.items()))
                print(f"  faults: {stats}")
            if args.verbose and route_table:
                stats = ", ".join(f"{k}={v}" for k, v in sorted(route_table.items()))
                print(f"  route-table: {stats}")
        if record.channels:
            digests = ", ".join(
                _channel_digest(name, record.channels[name])
                for name in record.channel_names()
            )
            print(f"  channels:   {digests}")
            if args.verbose:
                for name in record.channel_names():
                    payload = record.channels[name]
                    print(f"    [{name}] meta={payload.get('meta', {})}")
                    data = payload.get("data")
                    if isinstance(data, list):
                        for row in data[: args.limit]:
                            print(f"      {row}")
                        if len(data) > args.limit:
                            print(f"      ... {len(data) - args.limit} more rows")
                    elif isinstance(data, dict):
                        for i, (entry_key, value) in enumerate(sorted(data.items())):
                            if i >= args.limit:
                                print(f"      ... {len(data) - args.limit} more entries")
                                break
                            print(f"      {entry_key}: {value}")
        print()
    failures = sorted(store.failures(), key=lambda item: item[0])
    for key, failure, meta in failures:
        if args.series is not None and meta.get("series") != args.series:
            continue
        if args.load is not None and meta.get("load") != args.load:
            continue
        shown += 1
        series = meta.get("series", "?")
        load = meta.get("load", "?")
        seed = meta.get("seed", "?")
        print(f"{key}  series={series} load={load} seed={seed}")
        detail = f" ({failure.detail})" if failure.detail else ""
        print(
            f"  FAILED: {failure.reason}{detail} after "
            f"{failure.retries} retr{'y' if failure.retries == 1 else 'ies'}"
        )
        print()
    total = len(store)
    print(f"{shown} of {total} entr{'y' if total == 1 else 'ies'} shown "
          f"from {args.store}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return 0 if shown else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list runnable experiments").set_defaults(func=cmd_list)

    run = sub.add_parser("run", help="run one or more experiments by name")
    run.add_argument("figures", nargs="+", metavar="figure",
                     help=f"experiment name(s): {', '.join(_experiments())}")
    run.add_argument("--scale", default="tiny", choices=sorted(SCALES),
                     help="experiment scale (default: tiny)")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes (default: 1 = serial)")
    run.add_argument("--seeds", type=int, default=None,
                     help="override the scale's seed count")
    run.add_argument("--patterns", nargs="*", default=None,
                     help="traffic patterns to run, one panel each (e.g. "
                          "uniform bursty; default: the figure's own)")
    run.add_argument("--store", default=DEFAULT_STORE,
                     help=f"result store path (default: {DEFAULT_STORE})")
    run.add_argument("--force", action="store_true",
                     help="ignore cached results (still persists fresh ones)")
    run.add_argument("--verbose", action="store_true",
                     help="stream sweep progress (done/total, cache hits, "
                          "jobs/sec) to stderr")
    run.add_argument("--flush-interval", type=float,
                     default=FLUSH_INTERVAL_SECONDS, metavar="SECONDS",
                     help="seconds between mid-sweep result-store flushes "
                          f"(default: {FLUSH_INTERVAL_SECONDS})")
    run.add_argument("--probes", default=None, metavar="P1,P2",
                     help="attach registry probes to every executed point and "
                          "persist their telemetry channels alongside the "
                          f"summaries (choices: {', '.join(sorted(PROBES))}; "
                          "cached points stay channel-free unless --force)")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="inject a deterministic fault schedule into every "
                          "executed point, e.g. 'link:0:3@400-900' (link of "
                          "router 0 port 3 down at cycle 400, back at 900), "
                          "'router:7@500-1000', or 'sample:mtbf=5000,"
                          "mttr=500,until=3000,seed=9'; clauses join with "
                          "';', add 'policy=stall' to stall in-flight flits "
                          "instead of dropping; fault schedules hash into "
                          "the store keys, so pristine results are never "
                          "overwritten")
    run.add_argument("--job-timeout", type=float, default=None, metavar="S",
                     dest="job_timeout",
                     help="per-job wall-clock budget in seconds, counted "
                          "from when a worker starts the job: a hung job's "
                          "worker is killed and the job recorded as a typed "
                          "failure in the store instead of wedging the "
                          "sweep")
    run.set_defaults(func=cmd_run)

    inspect = sub.add_parser(
        "inspect", help="pretty-print stored RunRecords from a result store")
    inspect.add_argument("store", help="path to a result store (journal or "
                                       "JSON format, auto-detected; v1 JSON "
                                       "stores are migrated in memory)")
    inspect.add_argument("--series", default=None,
                         help="only records whose meta series label matches")
    inspect.add_argument("--load", type=float, default=None,
                         help="only records at this offered load")
    inspect.add_argument("--verbose", action="store_true",
                         help="dump channel metadata and data rows")
    inspect.add_argument("--limit", type=int, default=10,
                         help="max rows/entries per channel with --verbose "
                              "(default: 10)")
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader left: send the rest to devnull, so the flush at
        # exit cannot raise again, and exit as SIGPIPE would (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
