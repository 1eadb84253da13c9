"""Workload bodies — runs inside an isolated child process.

``python -m benchmarks.ledger.child '<request json>'`` executes **one
repeat** of one workload as one *variant* and prints one JSON payload; the
parent (``harness.py``) decides how many repeats a run makes.  Variants:
``plain`` (what a user runs; the only source of end-to-end numbers),
``traced`` (same calls through :class:`Tracer` plus engine instrumentation
and the counting probe), ``probed`` (simulation workloads: the default probe
set attached, for ``probes.overhead_frac``), ``serial`` (the sweep with
``workers=1``, for ``orchestrator.serial_wall_s``) and ``build``
(``store_replay``: write the journal the passes replay).

Every variant of a workload runs the same generated configuration, so the
simulated statistics must be bit-identical across all of them; the parent
checks that (``harness.py``).  The program under test only ever receives the
generated configs and records — the seed never reaches it any other way.

Each repeat has two timed bodies, set-up and work, each a
:class:`~benchmarks.ledger.calibrate.Calibration`: the body runs in segments
of a few hundred milliseconds with a calibration sample between them, and is
reported in reference seconds beside its wall seconds.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import resource
import statistics
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.arrangement import VcArrangement
from repro.experiments.figures import oblivious_series
from repro.experiments.orchestrator import SweepSpec, run_jobs
from repro.experiments.runner import TINY, ExperimentScale, base_config
from repro.probes import LinkUtilizationProbe, TimeSeriesProbe
from repro.record import RunRecord
from repro.routing.route_table import make_route_table
from repro.session import Session
from repro.simulation import Simulation, SimulationArtifacts
from repro.store import ResultStore

from .calibrate import Calibration
from .tracer import (
    CountingProbe, EngineTotals, NullTracer, Tracer, instrument_engine, tail_percentile,
)

NULL = NullTracer()

#: the sweep's pool size (= nproc of the reference sandbox).
SWEEP_WORKERS = 2
#: the sweep's set-up (~2 ms) is repeated this many times per pass, so
#: ``setup_s`` is a median even though a run affords a single pass.
SWEEP_SETUP_SAMPLES = 25
#: how often the calibration kernel (~20 ms) runs beside the cold pass: ~4% of
#: one of the two cores, the same on every commit.
SWEEP_SAMPLE_PERIOD_S = 0.5


def _seconds(start_ns: int, end_ns: int) -> float:
    return (end_ns - start_ns) / 1e9


def sim_fingerprint(results: Sequence[Dict[str, Any]]) -> str:
    """sha256 over the sorted ``SimulationResult.to_dict()`` payloads."""
    rows = sorted(json.dumps(row, sort_keys=True) for row in results)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def record_costs(record: RunRecord, smoke: bool) -> Dict[str, float]:
    """Serialisation cost and size of one record (IPC and store payload)."""
    rounds = 20 if smoke else 200
    start = perf_counter_ns()
    for _ in range(rounds):
        payload = record.to_dict()
    middle = perf_counter_ns()
    for _ in range(rounds):
        RunRecord.from_dict(payload)
    end = perf_counter_ns()
    return {
        "record.to_dict_us": (middle - start) / rounds / 1e3,
        "record.from_dict_us": (end - middle) / rounds / 1e3,
        "record.json_bytes": float(len(json.dumps(payload))),
        "record.pickle_bytes": float(len(pickle.dumps(record))),
    }


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SimWorkload:
    h: int
    pattern: str
    algorithm: str
    load: float
    warmup: int
    measure: int
    #: ``measure`` cycles are run as this many ``Session.measure()`` windows of
    #: ~0.3 s each, with a calibration sample between them (calibrate.py).
    windows: int
    table_mode: str = "auto"
    #: (local, global) VCs of the single-class FlexVC arrangement.
    vcs: "tuple[int, int]" = (4, 2)
    smoke_h: int = 2

    def config(self, seed: int, smoke: bool) -> Any:
        warmup, measure = self.warmup, self.measure
        if smoke:
            # 1/20, with floors: a packet needs ~150 cycles to cross the network.
            warmup, measure = max(50, warmup // 20), max(200, measure // 20)
        scale = ExperimentScale(
            name="ledger",
            h=self.smoke_h if smoke else self.h,
            warmup_cycles=warmup,
            measure_cycles=measure,
            seeds=1,
            loads=(self.load,),
        )
        return base_config(
            scale,
            pattern=self.pattern,
            algorithm=self.algorithm,
            vc_policy="flexvc",
            arrangement=VcArrangement.single_class(*self.vcs),
            vc_selection="jsq",
            seed=seed,
        ).with_load(self.load)


#: seeded ``next_port`` lookups timed on the warmed table (traced only).
TABLE_LOOKUPS = 200_000

SIMS: Dict[str, SimWorkload] = {
    "h2_un_low": SimWorkload(2, "uniform", "min", 0.2, 1000, 16000, windows=8),
    "h2_un_sat": SimWorkload(2, "uniform", "min", 0.9, 1000, 5000, windows=10),
    # 8/4 VCs, not the issue's 4/2: FlexVC 4/2 under Valiant stops delivering
    # past ADV saturation on most seeds (README, "A finding on the way").
    "h2_adv_val": SimWorkload(2, "adversarial", "val", 0.7, 1000, 4000,
                              windows=16, vcs=(8, 4)),
    "h6_un_low": SimWorkload(6, "uniform", "min", 0.2, 100, 150, windows=6,
                             table_mode="lazy", smoke_h=3),
}
#: a smoke run's windows: enough to exercise the seams between them.
SMOKE_WINDOWS = 2


def time_lookups(table: Any, num_routers: int, seed: int, count: int) -> float:
    """ns per ``next_port(src, dst)`` on the warmed table."""
    rng = random.Random(seed)
    pairs = [
        (rng.randrange(num_routers), rng.randrange(num_routers))
        for _ in range(count)
    ]
    next_port = table.next_port
    for src, dst in pairs:  # fills lazy columns so the timed pass only looks up
        next_port(src, dst)
    start = perf_counter_ns()
    for src, dst in pairs:
        next_port(src, dst)
    return (perf_counter_ns() - start) / count


def timing(setup: Calibration, *work: Calibration) -> Dict[str, Any]:
    """What every repeat reports of its timed bodies (calibrate.py)."""
    return {
        "setup_wall_s": setup.wall_s,
        "work_wall_s": sum(body.wall_s for body in work),
        "work_ref_s": sum(body.reference_s for body in work),
        "cpu_speed": work[-1].cpu_speed,
        "io_speed": work[-1].io_speed,
    }


def sim_repeat(spec: SimWorkload, request: Dict[str, Any], variant: str,
               tracer: NullTracer) -> Dict[str, Any]:
    seed, smoke = request["seed"], request["smoke"]
    config = spec.config(seed, smoke)
    windows = SMOKE_WINDOWS if smoke else spec.windows
    window_cycles, remainder = divmod(config.measure_cycles, windows)
    assert remainder == 0, "measure cycles must divide into the windows"
    probe = CountingProbe()
    probes: List[Any] = []
    if variant == "traced":
        probes = [probe]
    elif variant == "probed":
        probes = [TimeSeriesProbe(100), LinkUtilizationProbe()]

    def construct() -> "tuple[Any, Any, Session]":
        # cached=False by construction: a fresh topology and table per repeat.
        topology = tracer.call("topology.build", config.network.build)
        table = tracer.call("route_table.build", make_route_table, topology,
                            spec.table_mode)
        simulation = tracer.call(
            "simulation.construct", Simulation, config,
            artifacts=SimulationArtifacts(topology, table),
        )
        return topology, table, Session(simulation=simulation, probes=probes)

    gc.collect()
    setup = Calibration()
    topology, table, session = setup.run(construct)
    setup.run(tracer.call, "session.warmup", session.warmup)
    setup.close()
    engine = session.engine
    read = instrument_engine(engine) if tracer.enabled else None

    counts_before = probe.snapshot()
    events_before = engine.events_processed
    skipped_before = engine.idle_cycles_skipped
    work = Calibration()
    results = []
    totals = EngineTotals(0, 0, 0, 0, 0, 0)
    for _ in range(windows):
        before = read() if read else None
        span = len(tracer.spans) if read else None
        results.append(work.run(
            tracer.call, "session.measure", session.measure, window_cycles))
        if read:
            spent = read().since(before)
            totals = EngineTotals(*(a + b for a, b in zip(totals, spent)))
            for name, calls, total in (
                ("engine.fire_events", spent.event_calls, spent.event_ns),
                ("traffic.tick", spent.traffic_calls, spent.traffic_ns),
                ("router.pump", spent.pump_calls, spent.pump_ns),
            ):
                tracer.aggregate(name, span, calls, total)
    work.close()
    record = tracer.call("session.record", session.record)

    summaries = [result.to_dict() for result in results]
    delivered = sum(result.packets_delivered for result in results)
    measured_cycles = sum(result.measured_cycles for result in results)
    failures = []
    if any(result.deadlock_suspected for result in results):
        failures.append("deadlock_suspected")
    if delivered <= 0:
        failures.append("no packet delivered in the measurement windows")
    if record.summary.to_dict() != summaries[0]:
        failures.append("record summary differs from the first measured window")

    repeat: Dict[str, Any] = {
        "variant": variant,
        "size": {
            "routers": topology.num_routers, "nodes": topology.num_nodes,
            "warmup_cycles": config.warmup_cycles,
            "measure_cycles": measured_cycles, "windows": windows,
            "load": spec.load, "route_table_mode": spec.table_mode,
        },
        "setup_samples": [setup.reference_s],
        "work": topology.num_nodes * measured_cycles,
        **timing(setup, work),
        "attempted": 1,
        "failed": len(failures),
        "failures": failures,
        "fingerprint": sim_fingerprint(summaries),
        # probed runs add sampling events, so their engine counters differ
        # by design; only their simulated statistics must match.
        "counts": {} if variant == "probed" else {
            "engine.events_processed_total": record.provenance["events_processed"],
            "engine.idle_cycles_skipped_total": record.provenance["idle_cycles_skipped"],
            "engine.cycles": record.provenance["engine_cycles"],
            "packets_delivered": delivered,
            "packets_generated": results[-1].packets_generated,
        },
    }
    if not tracer.enabled:
        return repeat

    measure_spans = [index for index, span in enumerate(tracer.spans)
                     if span["name"] == "session.measure"]
    measure_ns = sum(tracer.durations_ns("session.measure"))
    counted = {k: v - counts_before[k] for k, v in probe.snapshot().items()}
    events = engine.events_processed - events_before
    num_nodes = topology.num_nodes
    table_stats = record.provenance["route_table"]
    construct_s = tracer.total_s("simulation.construct")
    layers = {
        "topology.build_s": tracer.total_s("topology.build"),
        "route_table.build_s": tracer.total_s("route_table.build"),
        "route_table.columns_built": table_stats.get(
            "columns_built", table_stats["columns_resident"]),
        "route_table.hits": table_stats.get("hits", 0),
        "route_table.misses": table_stats.get("misses", 0),
        "route_table.state_bytes": table_stats["route_state_bytes"],
        "simulation.construct_s": construct_s,
        "simulation.construct_us_per_router": construct_s * 1e6 / topology.num_routers,
        "session.warmup_s": tracer.total_s("session.warmup"),
        "session.measure_s": measure_ns / 1e9,
        "session.record_ms": tracer.total_s("session.record") * 1e3,
        "engine.ticks": totals.event_calls,
        "engine.events_processed": events,
        "engine.idle_cycles_skipped": engine.idle_cycles_skipped - skipped_before,
        "engine.events_frac": totals.event_ns / measure_ns,
        "engine.ns_per_event": totals.event_ns / max(1, events),
        "engine.tick_overhead_frac": (
            sum(tracer.self_ns(index) for index in measure_spans) / measure_ns
        ),
        "traffic.tick_frac": totals.traffic_ns / measure_ns,
        "traffic.ns_per_node_cycle": totals.traffic_ns / (num_nodes * measured_cycles),
        # cumulative since construction (warm-up included), as the result has it.
        "traffic.packets_generated": results[-1].packets_generated,
        "router.pump_frac": totals.pump_ns / measure_ns,
        "router.pump_calls": totals.pump_calls,
        "router.ns_per_pump": totals.pump_ns / max(1, totals.pump_calls),
        "router.pumps_per_cycle": totals.pump_calls / measured_cycles,
        "router.alloc_stalls": counted["alloc_stalls"],
        "router.stalls_per_pump": counted["alloc_stalls"] / max(1, totals.pump_calls),
        "router.grants_per_pump": (
            (counted["flits_transmitted"] + delivered) / max(1, totals.pump_calls)
        ),
        # first non-minimal hops per injected packet, over the windows: the
        # result's own fraction only sees packets born and delivered in one.
        "router.misrouted_frac": counted["misrouted"] / max(1, counted["injected"]),
        "link.flits_transmitted": counted["flits_transmitted"],
        "link.flits_per_packet": (
            counted["flits_transmitted"] / max(1, delivered)
        ),
        "trace.coverage_frac": (
            (totals.event_ns + totals.traffic_ns + totals.pump_ns) / measure_ns
        ),
        **record_costs(record, smoke),
    }
    # Last, so the table statistics above describe the simulation alone.
    layers["route_table.lookup_ns"] = time_lookups(
        table, topology.num_routers, seed, TABLE_LOOKUPS // (20 if smoke else 1)
    )
    repeat["layers"] = layers
    return repeat


# ---------------------------------------------------------------------------
# sweep_fig5
# ---------------------------------------------------------------------------

SWEEP_LOADS = (0.3, 0.65, 0.9)


def sweep_spec(seed: int, smoke: bool) -> SweepSpec:
    scale = TINY
    if smoke:
        scale = dataclasses.replace(TINY, warmup_cycles=30, measure_cycles=60)

    def seeded(builder: Callable[[], Any]) -> Callable[[], Any]:
        return lambda: builder().with_seed(seed)

    series = [
        (f"{prefix} {entry.label}", seeded(entry.builder))
        for prefix, pattern in (("UN", "uniform"), ("ADV", "adversarial"))
        for entry in oblivious_series(scale, pattern)
    ]
    loads = SWEEP_LOADS[1:2] if smoke else SWEEP_LOADS
    return SweepSpec(series=series, loads=loads, seeds=1, name="ledger_fig5")


def sweep_repeat(spec: None, request: Dict[str, Any], variant: str,
                 tracer: NullTracer) -> Dict[str, Any]:
    workers = 1 if variant == "serial" else SWEEP_WORKERS
    sweep = sweep_spec(request["seed"], request["smoke"])
    workdir = os.path.join(request["workdir"], f"sweep-{request['index']}")
    os.makedirs(workdir)

    gc.collect()
    setup = Calibration()
    setup.sample()
    setup_walls = []
    for sample in range(SWEEP_SETUP_SAMPLES):
        start = perf_counter_ns()
        jobs = tracer.call("orchestrator.expand", sweep.expand)
        path = os.path.join(workdir, f"store-{sample}.journal")
        store = tracer.call("store.open", ResultStore, path, format="journal")
        setup_walls.append(_seconds(start, perf_counter_ns()))
    setup.close()
    setup.wall_s = statistics.median(setup_walls)  # of one set-up, like the others
    # Stores opened by the earlier samples were never written: no file, no lock.
    tracer.instrument(store, "put_record", "store.put_record")
    tracer.instrument(store, "flush", "store.flush")

    # One call that keeps both cores busy from the pool's processes.
    work = Calibration()
    with work.background(SWEEP_SAMPLE_PERIOD_S):
        cold = tracer.call("orchestrator.run_jobs", run_jobs, jobs,
                           workers=workers, store=store)
    tracer.call("store.close", store.close)
    reopened = tracer.call("store.open", ResultStore, path, format="journal")
    resume_start = perf_counter_ns()
    resumed = tracer.call("orchestrator.run_jobs", run_jobs, jobs, workers=workers, store=reopened)
    end = perf_counter_ns()

    stored = {key: record for key, record, _meta in reopened.entries()}
    reopened.close()
    failures = [f"{failure.reason}: {key}" for key, failure in cold.failures.items()]
    for job in jobs:
        result = cold.results.get(job.key)
        if result is None:
            failures.append(f"no result: {job.series}@{job.load}")
        elif result.deadlock_suspected:
            failures.append(f"deadlock_suspected: {job.series}@{job.load}")
        elif resumed.results.get(job.key) != result:
            failures.append(f"resumed result differs: {job.series}@{job.load}")
    if resumed.executed:
        failures.append(f"resume pass executed {resumed.executed} job(s)")
    if cold.executed != len(jobs):
        failures.append(f"cold pass executed {cold.executed} of {len(jobs)} jobs")

    cold_s = work.wall_s
    sim_wall_s = sum(record.provenance["wall_time_s"] for record in stored.values())
    repeat: Dict[str, Any] = {
        "variant": variant,
        "size": {"jobs": len(jobs), "loads": list(sweep.loads), "workers": workers},
        "setup_samples": [wall * setup.cpu_speed for wall in setup_walls],
        "work": len(jobs),
        **timing(setup, work),
        "attempted": 2 * len(jobs),
        "failed": len(failures),
        "failures": failures,
        "fingerprint": sim_fingerprint([r.to_dict() for r in cold.results.values()]),
        "counts": {
            "orchestrator.jobs_executed": cold.executed,
            "orchestrator.cache_hits": resumed.cache_hits,
        },
        # with work_wall_s of the serial pass: orchestrator.overhead_s.
        "sim_wall_s": sim_wall_s,
    }
    if not tracer.enabled:
        return repeat

    run_index = tracer.find("orchestrator.run_jobs")  # the cold pass
    cold_children = [
        span for span in tracer.spans[run_index + 1:] if span["parent"] == run_index
    ]
    flushes = [s for s in cold_children if s["name"] == "store.flush"]
    puts = [s["end_ns"] - s["start_ns"] for s in cold_children
            if s["name"] == "store.put_record"]
    journal_bytes = os.path.getsize(path)
    repeat["layers"] = {
        "orchestrator.expand_ms": statistics.median(
            tracer.durations_ns("orchestrator.expand")) / 1e6,
        "orchestrator.jobs_executed": cold.executed,
        "orchestrator.cache_hits": resumed.cache_hits,
        "orchestrator.artifact_hits": cold.artifact_hits,
        "orchestrator.artifact_misses": cold.artifact_misses,
        "orchestrator.retries": cold.retries,
        "orchestrator.sim_busy_frac": sim_wall_s / (workers * cold_s),
        "orchestrator.resume_ms": _seconds(resume_start, end) * 1e3,
        "store.sweep_flushes": len(flushes),
        "store.sweep_flush_s": sum(s["end_ns"] - s["start_ns"] for s in flushes) / 1e9,
        "store.put_us": statistics.median(puts) / 1e3 if puts else 0.0,
        "store.journal_bytes": journal_bytes,
        "store.bytes_per_record": journal_bytes / max(1, len(stored)),
        "store.open_replay_s": tracer.durations_ns("store.open")[-1] / 1e9,
        **record_costs(next(iter(stored.values())), request["smoke"]),
    }
    return repeat


# ---------------------------------------------------------------------------
# store_churn / store_replay
# ---------------------------------------------------------------------------

#: ISSUE 11 said 20,000; at three repeats that run takes 32 s of the ~21 s
#: the benchmark contract's time cap leaves per run on average.  At 10,000
#: the journal ends at 37 MB with a third of its frames dead, under both
#: default compaction triggers (64 MB; half of >= 4,096 frames dead), so
#: ``store.compactions`` reads 0 until a policy change moves them.
STORE_RECORDS = 10_000
#: records per ``flush()``.  ``run_jobs`` flushes once ``flush_interval``
#: (5 s) has passed since the last flush and once at the end, so the cadence
#: is set by how fast jobs complete: ``sweep_fig5`` writes its 27 records in
#: 2 flushes, a paper-scale sweep flushes after every job.  25 is ISSUE 11's
#: figure: a flush is then ~2 ms of framing plus one fsync (0.5-2 ms on the
#: reference VM, drifting), so the flush path is most of phase A.
STORE_FLUSH_EVERY = 25
#: phase A runs in this many segments with calibration samples between them.
STORE_SEGMENTS = 10
#: the journal and template record ``store_replay``'s passes share (built once
#: per run by the ``build`` variant, in a child of its own).
REPLAY_JOURNAL = "replay.journal"
REPLAY_TEMPLATE = "replay-template.json"


def template_record(seed: int, smoke: bool) -> RunRecord:
    """One real record carrying a telemetry channel (tiny run, probe on)."""
    scale = dataclasses.replace(TINY, warmup_cycles=50, measure_cycles=200) if smoke else TINY
    config = base_config(scale, vc_policy="flexvc", seed=seed,
                         arrangement=VcArrangement.single_class(4, 2)).with_load(0.5)
    return Session(config, probes=[TimeSeriesProbe(100)]).run()


class StoreInputs:
    """The template cloned under seeded keys, and what a read-back must return."""

    def __init__(self, first: RunRecord, seed: int, smoke: bool) -> None:
        count = STORE_RECORDS // 20 if smoke else STORE_RECORDS
        rng = random.Random(seed)
        self.first = first
        # Overwrites carry a different payload, so a stale read-back is detected.
        self.second = dataclasses.replace(
            first, provenance={**first.provenance, "generation": 2})
        self.keys = [f"{rng.getrandbits(128):032x}" for _ in range(count)]
        self.overwritten = self.keys[::2]
        want_first, want_second = first.to_dict(), self.second.to_dict()
        self.expected = dict.fromkeys(self.keys, want_first)
        self.expected.update(dict.fromkeys(self.overwritten, want_second))


def write_journal(store: Any, inputs: StoreInputs, tracer: NullTracer,
                  work: Optional[Calibration] = None) -> Dict[str, Any]:
    """Phases A and B: durable appends, then overwrite every second key.

    Phase A is ``work``'s body, in :data:`STORE_SEGMENTS` segments.  Returns
    the number of flushes and the time spent in flushes during which the
    compaction counter rose (traced runs only).
    """
    put = tracer.wrap("store.put_record", store.put_record)
    raw_flush = tracer.wrap("store.flush", store.flush)
    flushes = 0
    compact_ns = 0

    def flush() -> None:
        nonlocal flushes, compact_ns
        compactions = store.compactions
        raw_flush()
        flushes += 1
        if tracer.enabled and store.compactions != compactions:
            span = tracer.spans[-1]
            compact_ns += span["end_ns"] - span["start_ns"]

    def append(keys: Sequence[str], record: RunRecord, first: int, **meta: Any) -> None:
        for position, key in enumerate(keys, first):
            put(key, record, meta={"index": position, **meta})
            if position % STORE_FLUSH_EVERY == 0:
                flush()

    def direct(fn: Callable[..., None], *args: Any) -> None:
        fn(*args)

    run = work.run if work is not None else direct
    keys = inputs.keys
    segment = -(-len(keys) // STORE_SEGMENTS)
    for start in range(0, len(keys), segment):
        run(append, keys[start:start + segment], inputs.first, start + 1)
    run(flush)
    if work is not None:
        work.close()
    append(inputs.overwritten, inputs.second, 1, generation=2)
    flush()
    return {"flushes": flushes, "compact_s": compact_ns / 1e9}


def read_back(store: Any, inputs: StoreInputs, tracer: NullTracer) -> List[str]:
    """Phase D: look every key up and compare it with what was written."""
    get = tracer.wrap("store.get_record_any", store.get_record_any)
    failures = []
    for key in inputs.keys:
        got = get(key)
        if got is None or got.to_dict() != inputs.expected[key]:
            failures.append(f"read-back mismatch: {key}")
    if len(store) != len(inputs.keys):
        failures.append(
            f"{len(store)} live entries after replay, wrote {len(inputs.keys)}")
    return failures


def store_layers(tracer: Tracer, path: str, live: int, described: Dict[str, Any],
                 record: RunRecord, smoke: bool) -> Dict[str, float]:
    """Per-layer metrics both store workloads report (traced runs)."""
    journal_bytes = os.path.getsize(path)
    return {
        "store.bytes_per_record": journal_bytes / max(1, live),
        "store.journal_bytes": journal_bytes,
        "store.superseded": described["superseded"],
        "store.compactions": described["compactions"],
        "store.open_replay_s": tracer.durations_ns("store.open")[-1] / 1e9,
        "store.lookup_us": statistics.median(
            tracer.durations_ns("store.get_record_any")) / 1e3,
        **record_costs(record, smoke),
    }


def churn_repeat(spec: None, request: Dict[str, Any], variant: str,
                 tracer: NullTracer) -> Dict[str, Any]:
    """Phases A-D over a fresh journal; the timed body is phase A.

    A: ``put_record`` N records, ``flush()`` every ``STORE_FLUSH_EVERY``;
    B: overwrite every second key (superseded frames, compaction may trigger);
    C: ``close()`` and reopen (journal replay);
    D: ``get_record_any`` for every key, compared with what was written.
    """
    seed, smoke = request["seed"], request["smoke"]
    path = os.path.join(request["workdir"], f"churn-{request['index']}.journal")

    def set_up() -> "tuple[RunRecord, Any]":
        first = template_record(seed, smoke)
        return first, tracer.call("store.open", ResultStore, path, format="journal")

    gc.collect()
    setup = Calibration()
    first, store = setup.run(set_up)
    setup.close()
    inputs = StoreInputs(first, seed, smoke)

    # The scratch file of the io kernel sits beside the journal: same filesystem.
    work = Calibration(io_path=path + ".calibrate")
    written = write_journal(store, inputs, tracer, work)
    if request.get("corrupt"):
        # Self-test seam: keys[0] was overwritten; quietly put the old payload back.
        store.put_record(inputs.keys[0], first)
    described = store.describe()
    tracer.call("store.close", store.close)
    reopened = tracer.call("store.open", ResultStore, path, format="journal")
    failures = read_back(reopened, inputs, tracer)
    live = len(reopened)
    reopened.close()

    repeat: Dict[str, Any] = {
        "variant": variant,
        "size": {"records": len(inputs.keys), "flush_every": STORE_FLUSH_EVERY},
        "setup_samples": [setup.reference_s],
        "work": len(inputs.keys),
        **timing(setup, work),
        "attempted": len(inputs.keys),
        "failed": len(failures),
        "failures": failures[:20],
        "fingerprint": sim_fingerprint([first.summary.to_dict()]),
        "counts": {
            "store.superseded": described["superseded"],
            "store.compactions": described["compactions"],
            "store.flushes": written["flushes"],
            "store.live_entries": live,
        },
    }
    if not tracer.enabled:
        return repeat

    flush_ms = [ns / 1e6 for ns in tracer.durations_ns("store.flush")]
    _percentile, flush_tail = tail_percentile(flush_ms)
    repeat["layers"] = {
        "store.put_us": statistics.median(tracer.durations_ns("store.put_record")) / 1e3,
        "store.flush_ms": statistics.median(flush_ms),
        "store.flush_tail_ms": flush_tail if flush_tail is not None else max(flush_ms),
        "store.flushes": written["flushes"],
        "store.compact_s": written["compact_s"],
        **store_layers(tracer, path, live, described, first, smoke),
    }
    return repeat


def replay_repeat(spec: None, request: Dict[str, Any], variant: str,
                  tracer: NullTracer) -> Optional[Dict[str, Any]]:
    """Phases C and D over the journal the ``build`` variant wrote.

    ``build`` runs phases A and B exactly as ``store_churn`` does (same
    cadence, default compaction) and leaves the journal in the run's work
    directory; every pass reopens that one journal and looks every key up,
    which is what resuming a sweep costs.  Set-up is the reopen.
    """
    seed, smoke = request["seed"], request["smoke"]
    path = os.path.join(request["workdir"], REPLAY_JOURNAL)
    template_path = os.path.join(request["workdir"], REPLAY_TEMPLATE)
    if variant == "build":
        first = template_record(seed, smoke)
        with open(template_path, "w") as handle:
            json.dump(first.to_dict(), handle)
        store = ResultStore(path, format="journal")
        write_journal(store, StoreInputs(first, seed, smoke), NULL)
        store.close()
        return None
    with open(template_path) as handle:
        first = RunRecord.from_dict(json.load(handle))
    inputs = StoreInputs(first, seed, smoke)

    gc.collect()
    setup = Calibration()
    store = setup.run(tracer.call, "store.open", ResultStore, path, format="journal")
    setup.close()
    lookups = Calibration()
    failures = lookups.run(read_back, store, inputs, tracer)
    lookups.close()
    live = len(store)
    described = store.describe()
    store.close()

    repeat: Dict[str, Any] = {
        "variant": variant,
        "size": {"records": len(inputs.keys), "flush_every": STORE_FLUSH_EVERY,
                 "journal_ops": described["journal_ops"]},
        "setup_samples": [setup.reference_s],
        "work": live,
        # the timed body is the reopen, which is also the set-up, plus the lookups.
        **timing(setup, setup, lookups),
        "attempted": len(inputs.keys),
        "failed": len(failures),
        "failures": failures[:20],
        "fingerprint": sim_fingerprint([first.summary.to_dict()]),
        "counts": {
            "store.superseded": described["superseded"],
            "store.compactions": described["compactions"],
            "store.live_entries": live,
        },
    }
    if tracer.enabled:
        repeat["layers"] = store_layers(tracer, path, live, described, first, smoke)
    return repeat


# ---------------------------------------------------------------------------
# One request = one repeat
# ---------------------------------------------------------------------------

def body_for(workload: str) -> "tuple[Callable[..., Optional[Dict[str, Any]]], Any]":
    if workload in SIMS:
        return sim_repeat, SIMS[workload]
    bodies = {"sweep_fig5": sweep_repeat, "store_churn": churn_repeat,
              "store_replay": replay_repeat}
    if workload not in bodies:
        raise SystemExit(f"unknown workload {workload!r}")
    return bodies[workload], None


def run_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one repeat of ``request['workload']`` as ``request['variant']``."""
    body, spec = body_for(request["workload"])
    tracer = Tracer(request["workload"], request["index"])
    variant = request["variant"]
    repeat = body(spec, request, variant, tracer if variant == "traced" else NULL)
    # run_jobs shuts its pool down without waiting; RUSAGE_CHILDREN only
    # counts workers that have ended and been reaped.
    for worker in multiprocessing.active_children():
        worker.join()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "repeat": repeat,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": (own + pool) / 1024.0,
        "spans": tracer.spans if request.get("want_spans") else [],
    }


def main(argv: Sequence[str]) -> int:
    payload = run_request(json.loads(argv[1]))
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
