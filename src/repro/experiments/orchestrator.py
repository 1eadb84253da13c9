"""Sweep orchestration: jobs, sweep specifications, the run loop.

Every experiment of the paper decomposes into independent *jobs* — one
``(series, load, seed)`` point, each a full :class:`~repro.simulation.Simulation`
run.  This module turns that decomposition into infrastructure:

* :class:`SweepSpec` declaratively describes a sweep (series x loads x seeds)
  and expands it into :class:`Job` objects keyed by a stable hash of the
  complete :class:`~repro.config.SimulationConfig`;
* :func:`run_jobs` declares *how* a sweep executes (worker count, store,
  probes, fault spec, ...) exactly once, as its keyword-only parameters;
  :func:`run_sweep` and :func:`~repro.experiments.figures.run_figure` pass
  the same names on untouched, so a misspelt one is a ``TypeError`` from
  every entry point;
* :func:`run_jobs` is the one place a job is prepared (probes and fault
  spec attached, duplicates dropped) and the run loop: it serves stored
  results from the :class:`~repro.store.ResultStore`, dispatches the rest
  one job at a time, heaviest load first, to the executors of
  :mod:`repro.experiments.executors`, and streams every result back into
  the store, so an interrupted sweep resumes from what it already computed.
  The caller opens and closes the store.

Every executed point is measured one way: the scale's fixed warm-up and
measurement budget (:meth:`~repro.session.Session.measure`), stored under
its config key.  Sweeps are bit-identical to a serial run with fresh
artifacts at any worker count — dispatch order and artifact reuse are
execution-strategy changes only, enforced by ``tests/test_sweep_scale.py``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SimulationConfig
from ..faults import FaultSpec, NetworkPartitionedError
from ..keys import _hash_payload, config_key, key_payload
from ..metrics import SimulationResult
from ..record import JobFailure, RunRecord
from ..simulation import average_results
from ..store import ResultStore
from .executors import _make_executor

#: A builder produces a complete load-agnostic configuration; the sweep
#: applies the offered load (and seeds) on top of it.
ConfigBuilder = Callable[[], SimulationConfig]


# ---------------------------------------------------------------------------
# Jobs and sweep specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One independent simulation run (a single series/load/seed point).

    ``probes`` names registry probes (:data:`repro.probes.PROBES`) attached
    to the run; they add telemetry channels to the persisted RunRecord but
    never change the summary (probed runs are summary-identical by the
    zero-cost dispatch design), so the cache key deliberately ignores them.
    ``key`` is also the job's result-store address.
    """

    key: str
    series: str
    load: float
    seed: int
    config: SimulationConfig
    probes: Tuple[str, ...] = ()


@dataclass
class SweepSpec:
    """Declarative description of a sweep: series x loads x seeds.

    ``series`` maps labels to load-agnostic config builders; the offered load
    and seed of every expanded job are applied on top of the built config.
    """

    series: Sequence[Tuple[str, ConfigBuilder]]
    loads: Sequence[float]
    seeds: int = 1
    name: str = "sweep"

    def __post_init__(self) -> None:
        # A (series, load) pair names one point: a repeat of either would
        # make its jobs indistinguishable when the outcome is reassembled.
        labels = [label for label, _ in self.series]
        for what, values in (("series labels", labels), ("loads", list(self.loads))):
            if len(values) != len(set(values)):
                raise ValueError(f"duplicate {what} in sweep {self.name!r}: {values}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")

    def expand(self) -> List[Job]:
        """Expand into independent jobs (deterministic order).

        Hashing works off **one** :func:`~repro.keys.key_payload` pass per
        series: the base config's payload is converted once and only the
        load/seed leaves are rewritten per job, instead of re-walking the whole
        dataclass tree for each of the series x loads x seeds points.  The
        resulting keys are identical to ``config_key(job.config)`` (asserted
        by the orchestrator tests).
        """
        jobs: List[Job] = []
        for label, builder in self.series:
            base = builder()
            payload = key_payload(base)
            traffic_payload = payload["traffic"]
            for load in self.loads:
                loaded = base.with_load(load)
                traffic_payload["load"] = loaded.traffic.load
                for offset in range(self.seeds):
                    config = loaded.with_seed(loaded.seed + offset)
                    payload["seed"] = config.seed
                    jobs.append(
                        Job(
                            key=_hash_payload(payload),
                            series=label,
                            load=load,
                            seed=config.seed,
                            config=config,
                        )
                    )
        return jobs


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

@dataclass
class JobRunStats:
    """Everything :func:`run_jobs` produced and counted."""

    results: Dict[str, SimulationResult]
    #: the jobs as they ran, in the order given (duplicates kept, so a
    #: :class:`SweepOutcome` can reassemble every series): probes and
    #: fault spec attached, keys rewritten to match.
    jobs: List[Job] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    #: executed jobs whose topology (and the route table memoised on it)
    #: came from / missed the worker's topology-registry build cache.
    artifact_hits: int = 0
    artifact_misses: int = 0
    elapsed_s: float = 0.0
    #: jobs requeued after they crashed their worker.
    retries: int = 0
    #: jobs that resolved to a stored :class:`JobFailure` instead of a
    #: result (crash-retry exhaustion or per-job timeout).
    failed: int = 0
    #: job key -> terminal failure, for callers that want the reasons.
    failures: Dict[str, JobFailure] = field(default_factory=dict)
    #: records absorbed from other writer processes sharing the store (a
    #: peer sweep's flushed results picked up before dispatch turn into
    #: cache hits instead of re-simulations).
    store_absorbed: int = 0


class _ProgressReporter:
    """Throttled ``done/total`` + cache accounting lines on stderr."""

    def __init__(self, total: int, stats: JobRunStats, min_interval: float = 1.0) -> None:
        self.total = total
        self.stats = stats
        self.min_interval = min_interval
        self.start = time.monotonic()
        self._last_print = 0.0

    def update(self, final: bool = False) -> None:
        now = time.monotonic()
        if not final and now - self._last_print < self.min_interval:
            return
        self._last_print = now
        stats = self.stats
        done = stats.cache_hits + stats.executed + stats.failed
        elapsed = max(now - self.start, 1e-9)
        simulated_rate = stats.executed / elapsed
        print(
            f"[sweep] {done}/{self.total} points | {stats.executed} simulated, "
            f"{stats.cache_hits} cached"
            + (f", {stats.failed} failed" if stats.failed else "")
            + f" | artifact cache {stats.artifact_hits} hits / "
            f"{stats.artifact_misses} misses | {simulated_rate:.2f} jobs/s",
            file=sys.stderr,
        )


class FaultSpecError(ValueError):
    """A sweep's fault spec cannot run on its network: it is malformed,
    names a router or port the network lacks, or partitions it."""


def _apply_fault_spec(job: Job, spec: FaultSpec) -> Job:
    """Inject a resolved fault schedule into a job, recomputing its key.

    Fault schedules hash into ``config_key``, so fault runs never collide
    with pristine store entries.  Jobs that already carry a schedule of
    their own are left untouched (idempotent by construction).
    """
    if job.config.faults:
        return job
    fault_config = replace(job.config, faults=spec.resolve(job.config))
    return replace(job, config=fault_config, key=config_key(fault_config))


def _prepare(
    jobs: Sequence[Job], probes: Tuple[str, ...], faults: Optional[FaultSpec]
) -> List[Job]:
    """Each job as it will run with ``probes`` and ``faults``.

    ``probes`` go to every job that carries none of its own (probes never
    change keys).  The fault spec is applied, and every distinct (schedule,
    network) is resolved into its timeline, so a spec that cannot run raises
    :class:`FaultSpecError` before anything runs.
    """
    prepared = [
        replace(job, probes=probes) if probes and not job.probes else job
        for job in jobs
    ]
    if faults is None:
        return prepared
    try:
        prepared = [_apply_fault_spec(job, faults) for job in prepared]
        for schedule, network in dict.fromkeys(
            (job.config.faults, job.config.network) for job in prepared
        ):
            schedule.timeline(network.build_cached().wiring())
    except (ValueError, NetworkPartitionedError) as exc:
        raise FaultSpecError(str(exc)) from exc
    return prepared


def _meta(job: Job) -> Dict[str, object]:
    """What a stored entry says about its point, beside the record."""
    return {"series": job.series, "load": job.load, "seed": job.seed}


def run_jobs(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    probes: Sequence[str] = (),
    verbose: bool = False,
    job_timeout: Optional[float] = None,
    faults: Optional[FaultSpec] = None,
) -> JobRunStats:
    """Execute jobs, serving duplicates and stored results from cache.

    Returns a :class:`JobRunStats`.  The keywords are the sweep's execution
    settings, declared here once:

    * ``workers``: worker processes (1 = serial, in this process unless a
      ``job_timeout`` needs a worker it can kill);
    * ``store``: where results persist and are served from (None =
      nowhere); the caller opens and closes it;
    * ``probes``: probe registry names attached to every executed job
      that names none of its own (a cached point is served without
      telemetry: open the store with ``refresh=True`` to re-run it probed);
    * ``verbose``: stream progress/cache-hit lines to stderr;
    * ``job_timeout``: per-job wall-clock budget in seconds (None =
      unlimited), counted from when a worker starts the job; a budget runs
      jobs on worker processes, even with ``workers == 1``, and a hung job
      resolves to a stored :class:`JobFailure` instead of wedging the sweep;
    * ``faults``: fault-injection spec applied to every job whose config
      carries no schedule of its own (resolved per config; rewrites job
      keys, since non-empty schedules hash into ``config_key``).

    Every job is prepared first (:func:`_prepare`), and may raise
    :class:`FaultSpecError` there.

    Pending jobs go to the executor one at a time, heaviest load first
    (:func:`~repro.experiments.executors._dispatch_order`); a sweep with
    none pending starts no worker.  Results stream to the result store per
    completed job, which checkpoints them every ``flush_interval`` seconds
    (:meth:`~repro.store.ResultStore.flush_if_due`) and is flushed on
    return and on interrupt, so a killed sweep resumes from its latest
    completed points.
    """
    workers = max(1, int(workers))
    stats = JobRunStats(results={}, jobs=_prepare(jobs, tuple(probes), faults))
    unique: Dict[str, Job] = {}
    for job in stats.jobs:
        unique.setdefault(job.key, job)

    results = stats.results
    if store is not None:
        # Re-read the shared journal before deciding what to dispatch: a
        # concurrent sweep process may have flushed results since we opened
        # the store, and every absorbed record below becomes a cache hit
        # instead of a re-simulation.
        stats.store_absorbed = store.refresh_from_disk()
    pending: List[Job] = []
    for job in unique.values():
        cached = store.get_record(job.key) if store is not None else None
        if cached is None:
            pending.append(job)
        else:
            results[job.key] = cached.summary
            stats.cache_hits += 1

    reporter = (
        _ProgressReporter(total=len(unique), stats=stats) if verbose else None
    )
    start_time = time.monotonic()

    def on_result(job: Job, record: "RunRecord | JobFailure", artifact_hit: bool) -> None:
        if isinstance(record, JobFailure):
            # Terminal failure: record *why* the point is missing.  The
            # failure entry reads as a store miss, so a later sweep (or the
            # same one re-run) re-attempts the job instead of caching it.
            stats.failed += 1
            stats.failures[job.key] = record
            if store is not None:
                store.put_failure(job.key, record, meta=_meta(job))
        else:
            results[job.key] = record.summary
            stats.executed += 1
            stats.artifact_hits += artifact_hit
            stats.artifact_misses += not artifact_hit
            if store is not None:
                store.put_record(job.key, record, meta=_meta(job))
                store.flush_if_due()
        if reporter is not None:
            reporter.update()

    def on_retry(job: Job, reason: str) -> None:
        # Checkpoint before any resubmission: the completed points must
        # survive even if the retried job keeps killing workers.
        stats.retries += 1
        if store is not None:
            store.flush()
        if verbose:
            print(
                f"[sweep] retrying {job.series}@{job.load:g} after {reason}",
                file=sys.stderr,
            )

    executor = _make_executor(pending, workers, job_timeout, on_retry)
    try:
        while executor.pending():
            key, record, artifact_hit = executor.next_completed()
            on_result(unique[key], record, artifact_hit)
    finally:
        # Interrupts (KeyboardInterrupt included) land here: persist every
        # completed point *first* — the flush must not depend on how long
        # worker teardown takes or on a second interrupt arriving during it.
        # A flush that raises (StoreError) must still stop the workers, or
        # they run on until interpreter exit.
        try:
            if store is not None:
                store.flush()
        finally:
            executor.shutdown()
    stats.elapsed_s = time.monotonic() - start_time
    if reporter is not None:
        reporter.update(final=True)
    return stats


@dataclass
class SweepOutcome:
    """What a sweep asked for (``spec``) and what running it produced.

    The jobs as they ran, results, failures and every count (cache hits,
    executed, retries, ...) are read from ``stats``, the
    :class:`JobRunStats` of the sweep's one :func:`run_jobs` call.
    """

    spec: SweepSpec
    stats: JobRunStats

    def seed_results(self, series: str, load: float) -> List[SimulationResult]:
        """Per-seed results of one point, in seed order (failed seeds left out)."""
        results = self.stats.results
        return [
            results[job.key]
            for job in self.stats.jobs
            if job.series == series and job.load == load and job.key in results
        ]

    def point(self, series: str, load: float) -> Optional[SimulationResult]:
        """Seed-averaged result of one (series, load) point.

        None when any of its seeds has no result: an average over fewer
        seeds is a different statistic from the one the sweep asked for.
        """
        results = self.seed_results(series, load)
        if len(results) != self.spec.seeds:
            return None
        return average_results(results)

    def missing(self, series: str) -> List[Tuple[float, int, str]]:
        """``(load, seed, reason)`` of every job of ``series`` without a result.

        Every such job resolved to a :class:`JobFailure`; the reason is its
        reason and detail.
        """
        gaps = []
        for job in self.stats.jobs:
            if job.series == series and job.key not in self.stats.results:
                failure = self.stats.failures[job.key]
                reason = failure.reason + (
                    f" ({failure.detail})" if failure.detail else ""
                )
                gaps.append((job.load, job.seed, reason))
        return gaps


def run_sweep(spec: SweepSpec, **settings: Any) -> SweepOutcome:
    """Expand a sweep specification and execute all of its jobs.

    ``settings`` are :func:`run_jobs`'s keywords, passed on untouched; it
    raises :class:`FaultSpecError`, before dispatching anything, when the
    fault spec cannot run on the sweep's networks.
    """
    return SweepOutcome(spec=spec, stats=run_jobs(spec.expand(), **settings))
