"""Parallel sweep orchestration: jobs, chunk executors, contexts.

Every experiment of the paper decomposes into independent *jobs* — one
``(series, load, seed)`` point, each a full :class:`~repro.simulation.Simulation`
run.  This module turns that decomposition into infrastructure:

* :class:`SweepSpec` declaratively describes a sweep (series x loads x seeds)
  and expands it into :class:`Job` objects keyed by a stable hash of the
  complete :class:`~repro.config.SimulationConfig`;
* :func:`run_jobs` executes jobs on a ``ProcessPoolExecutor`` when
  ``workers > 1``, in this process otherwise — with bit-identical results
  either way because every job owns its RNG.  Jobs are dispatched in
  *series-affine chunks* (one pool task runs several jobs of one series),
  which amortizes pickle/IPC overhead and keeps each worker's topology
  registry cache hot: a topology graph and its route table are built once
  per network per worker instead of once per job;
* :class:`~repro.store.ResultStore` persists results keyed by config hash
  in a crash-safe append-only journal, see
  :mod:`repro.store` — so an interrupted sweep resumes from what it already
  computed instead of recomputing, repeated invocations are served entirely
  from cache, and concurrent sweep processes can share one store;
* opt-in **adaptive scheduling** (:class:`AdaptiveSettings`): each series
  climbs its load ladder low to high, and once
  :func:`~repro.router.saturation.is_saturated_point` flags ``cutoff_after``
  consecutive saturated points the remaining higher loads are recorded as
  provenance-flagged *extrapolated* RunRecords instead of simulated —
  saturated points are the slowest of a sweep and past the knee they carry
  no new information;
* opt-in **convergence-window measurement**
  (:class:`~repro.session.ConvergenceSettings`): executed jobs measure in
  batch windows until confidence intervals tighten, capped at the fixed
  budget (results are keyed separately in the store — never mixed with
  fixed-budget runs);
* :class:`OrchestrationContext` declares *how* a sweep executes (worker
  count, store, chunking/adaptive/convergence modes, ...) exactly once;
  :func:`orchestration` installs overrides of it for a block and
  :func:`run_jobs` / :func:`run_sweep` take the same names as per-call
  overrides, so ``load_sweep``,
  :func:`~repro.experiments.figures.run_figure`, benchmarks and examples
  inherit parallelism and caching without signature changes.

Default-mode sweeps (no adaptive, no convergence) are bit-identical to
per-job dispatch at any worker count and chunk size — chunking and artifact
reuse are execution-strategy changes only, enforced by
``tests/test_sweep_scale.py``.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import SimulationConfig
from ..faults import FaultSpec, NetworkPartitionedError
from ..keys import _hash_payload, config_key
from ..metrics import SimulationResult
from ..probes import make_probes
from ..record import JobFailure, RunRecord
from ..router.saturation import DEFAULT_SATURATION_MARGIN, is_saturated_point
from ..session import ConvergenceSettings, Session
from ..simulation import (
    Simulation,
    average_results,
    build_artifacts,
)
from ..store import ResultStore
from ..topology import TOPOLOGIES

ConfigBuilder = Callable[[], SimulationConfig]

#: store-key marker of adaptive-mode extrapolated records (the full suffix
#: also hashes the :class:`AdaptiveSettings`, see :func:`_adaptive_key_suffix`).
#: Extrapolated results never live under the plain config key, so a later
#: non-adaptive sweep over the same store re-simulates those points instead
#: of silently serving synthesized data.
EXTRAPOLATED_KEY_SUFFIX = ":extrapolated"

#: upper bound of the automatic chunk size (resumability granularity: an
#: interrupted sweep loses at most this many in-flight jobs per worker).
DEFAULT_MAX_CHUNK_JOBS = 8


@lru_cache(maxsize=None)
def _converge_key_suffix(settings: ConvergenceSettings) -> str:
    """Store-key suffix isolating convergence-mode results.

    Convergence-window measurement changes the measurement procedure (and
    thus the summary), so its results must never be served to — or from —
    fixed-budget sweeps sharing the store.
    """
    return ":cw" + _hash_payload(asdict(settings))[:8]


@lru_cache(maxsize=None)
def _adaptive_key_suffix(settings: "AdaptiveSettings") -> str:
    """Store-key suffix of extrapolated records under given adaptive settings.

    Hashing the settings into the key mirrors :func:`_converge_key_suffix`:
    an extrapolation is only valid under the margin/cutoff that produced it,
    so a rerun with e.g. a stricter margin (whose cutoff would not have
    fired at those loads) must re-decide instead of serving stale
    synthesized points.
    """
    return EXTRAPOLATED_KEY_SUFFIX + ":" + _hash_payload(asdict(settings))[:8]


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

    ``converge`` switches the job's measurement to the convergence-window
    controller, which *does* change the summary and therefore suffixes the
    store key (:func:`store_key`).
    """

    key: str
    series: str
    load: float
    seed: int
    config: SimulationConfig
    probes: Tuple[str, ...] = ()
    converge: Optional[ConvergenceSettings] = None


def store_key(job: Job) -> str:
    """Result-store key of a job (config hash, plus measurement-mode suffix)."""
    if job.converge is None:
        return job.key
    return job.key + _converge_key_suffix(job.converge)


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
    #: probe registry names attached to every expanded job.
    probes: Tuple[str, ...] = ()

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

        Hashing works off **one** ``asdict`` serialization pass per series:
        the base config's payload is converted once and only the load/seed
        leaves are rewritten per job, instead of re-walking the whole
        dataclass tree for each of the series x loads x seeds points.  The
        resulting keys are identical to ``config_key(job.config)`` (asserted
        by the orchestrator tests).
        """
        jobs: List[Job] = []
        probes = tuple(self.probes)
        for label, builder in self.series:
            base = builder()
            payload = asdict(base)
            if not base.faults:
                # Mirror config_key()'s empty-faults omission.
                payload.pop("faults", None)
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
                            probes=probes,
                        )
                    )
        return jobs


# ---------------------------------------------------------------------------
# Job execution
# ---------------------------------------------------------------------------

def _apply_test_seams(job_key: str) -> None:
    """Deterministic worker-fault injection for the resilience tests.

    ``REPRO_TEST_CRASH_KEY=<key>[:<marker-path>]`` hard-kills the worker
    process when it picks up job ``<key>``; with a marker path the crash
    fires only while the marker file does not exist (crash-once: the retry
    succeeds), without one it fires on every attempt (retry exhaustion).
    ``REPRO_TEST_HANG_KEY=<key>`` makes the job sleep
    ``REPRO_TEST_HANG_SECONDS`` (default 60) — far past any test timeout —
    standing in for a wedged simulation.  Both are no-ops unless the
    environment variables are set, which only the orchestrator tests do.
    """
    crash_spec = os.environ.get("REPRO_TEST_CRASH_KEY")
    if crash_spec:
        crash_key, _, marker = crash_spec.partition(":")
        if job_key == crash_key and (not marker or not os.path.exists(marker)):
            if marker:
                with open(marker, "w", encoding="utf-8") as handle:
                    handle.write("crashed")
            os._exit(17)
    hang_key = os.environ.get("REPRO_TEST_HANG_KEY")
    if hang_key and job_key == hang_key:
        time.sleep(float(os.environ.get("REPRO_TEST_HANG_SECONDS", "60")))


def _execute_job(job: Job) -> Tuple[str, RunRecord, bool]:
    """Top-level worker function (must be picklable for the process pool).

    Runs the job through the phased Session API so probe names on the job
    yield telemetry channels in the returned :class:`RunRecord`; without
    probes the session wires nothing into the simulation.  Construction
    artifacts come from :func:`~repro.simulation.build_artifacts` — the
    topology registry's build cache is the one construction cache, and the
    third element returned says whether this job's topology was served from
    it; jobs carrying convergence settings measure via
    :meth:`~repro.session.Session.measure_converged` instead of one fixed
    window.
    """
    _apply_test_seams(job.key)
    hits_before = TOPOLOGIES.build_cache_hits
    artifacts = build_artifacts(job.config)
    artifact_hit = TOPOLOGIES.build_cache_hits > hits_before
    simulation = Simulation(job.config, artifacts=artifacts)
    session = Session(simulation=simulation, probes=make_probes(job.probes))
    session.warmup()
    if job.converge is not None:
        session.measure_converged(job.converge)
    else:
        session.measure()
    return job.key, session.record(), artifact_hit


#: Per-chunk result: ordered (config-hash, record-or-failure) pairs plus how
#: many of the chunk's jobs (hit, missed) the topology build cache.  Failures
#: only appear on the pool executor's resilience paths (crash-retry
#: exhaustion, job timeout).
_ChunkResult = Tuple[List[Tuple[str, "RunRecord | JobFailure"]], Tuple[int, int]]


def _execute_chunk(jobs: Sequence[Job]) -> _ChunkResult:
    """Run a series-affine chunk of jobs in this process, one after another.

    Returns the per-job records in order plus the chunk's build-cache
    ``(hits, misses)`` — one or the other per job — so the parent can report
    how much construction work the cache absorbed.

    A finished job's ``Simulation`` is the one reference cycle a run builds
    (:mod:`repro.collector`), and with the phases paused the allocation
    counters almost never trigger the full pass that would find it: reclaim
    it here, when it dies, so a process holds one live simulation however
    many jobs it runs.
    """
    executed = []
    for job in jobs:
        executed.append(_execute_job(job))
        gc.collect()
    hits = sum(hit for _, _, hit in executed)
    return [(key, record) for key, record, _ in executed], (hits, len(jobs) - hits)


# -- chunk executors ---------------------------------------------------------
#
# The chunk executors support *incremental* submission: the adaptive
# scheduler submits a series' next load step only after judging the previous
# one.

class _SerialChunkExecutor:
    """Chunk execution in this process; lazily runs on ``next_completed``."""

    def __init__(self) -> None:
        self._queue: deque = deque()

    def submit(self, chunk: Sequence[Job]) -> None:
        self._queue.append(tuple(chunk))

    def pending(self) -> bool:
        return bool(self._queue)

    def next_completed(self) -> "Tuple[Tuple[Job, ...], _ChunkResult]":
        chunk = self._queue.popleft()
        return chunk, _execute_chunk(chunk)

    def shutdown(self) -> None:
        pass


class _PoolChunkExecutor:
    """Chunk execution on a process pool, drained one chunk at a time.

    Two failure modes are survived instead of propagated:

    * **worker crash** (``BrokenProcessPool``): a dead worker kills the whole
      pool — every in-flight future fails at once.  The pool is rebuilt and
      every lost chunk resubmitted, each with a bounded retry budget
      (:data:`MAX_RETRIES` crashes per chunk) and a short linear backoff; a
      chunk that keeps killing workers resolves to per-job
      :class:`JobFailure` entries instead of looping forever.
    * **job timeout** (``job_timeout`` seconds per job): chunks carry a
      submission deadline of ``len(chunk) * job_timeout``.  An expired chunk
      cannot be cancelled cooperatively — its worker is wedged — so the pool
      is terminated and rebuilt; innocent in-flight chunks are resubmitted
      as-is, the expired chunk is re-split into single-job chunks to pinpoint
      the hang, and a single job that *still* exceeds its deadline resolves
      to ``JobFailure("timeout")``.

    ``on_retry`` fires before any resubmission so the caller can checkpoint
    (``run_jobs`` flushes the result store: completed points must not depend
    on the retried chunk ever succeeding).

    Every pool's workers start by freezing their heap (the ``initializer``):
    what a worker starts with (modules, what the fork copied) never dies in
    it, so freezing it keeps :func:`_execute_chunk`'s per-job full collection
    to what the job itself left behind (13 ms -> 2 ms after a ``tiny`` job).
    """

    #: pool-crash retries per chunk before it resolves to failures.
    MAX_RETRIES = 3
    #: linear backoff base between crash retries (seconds).
    RETRY_BACKOFF_S = 0.1

    def __init__(
        self,
        workers: int,
        job_timeout: Optional[float],
        on_retry: Callable[[Tuple[Job, ...], str], None],
    ) -> None:
        self._executor = ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze)
        self._workers = workers
        self._job_timeout = job_timeout
        self._on_retry = on_retry
        #: future -> (chunk, wall-clock deadline).
        self._futures: Dict[object, Tuple[Tuple[Job, ...], float]] = {}
        self._done: deque = deque()
        #: chunk identity (its job keys) -> crash retries spent so far.
        self._retries: Dict[Tuple[str, ...], int] = {}

    @staticmethod
    def _chunk_id(chunk: Tuple[Job, ...]) -> Tuple[str, ...]:
        return tuple(job.key for job in chunk)

    def submit(self, chunk: Sequence[Job]) -> None:
        chunk = tuple(chunk)
        deadline = (
            time.monotonic() + self._job_timeout * len(chunk)
            if self._job_timeout is not None
            else math.inf
        )
        try:
            future = self._executor.submit(_execute_chunk, chunk)
        except BrokenProcessPool:
            # The pool died between our last wait and this submit (e.g. a
            # just-retried chunk crashed its worker again).  Rebuild and
            # submit to the fresh pool; the earlier in-flight futures are
            # already failed and will surface as lost on the next wait.
            self._rebuild_pool(terminate=False)
            future = self._executor.submit(_execute_chunk, chunk)
        self._futures[future] = (chunk, deadline)

    def pending(self) -> bool:
        return bool(self._futures) or bool(self._done)

    def next_completed(self) -> "Tuple[Tuple[Job, ...], _ChunkResult]":
        while not self._done:
            self._wait_once()
        return self._done.popleft()

    def _wait_once(self) -> None:
        timeout = None
        if self._job_timeout is not None and self._futures:
            nearest = min(deadline for _, deadline in self._futures.values())
            timeout = max(0.0, nearest - time.monotonic())
        done, _ = wait(self._futures, timeout=timeout, return_when=FIRST_COMPLETED)
        lost: List[Tuple[Job, ...]] = []
        for future in done:
            chunk, _deadline = self._futures.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool:
                lost.append(chunk)
                continue
            self._done.append((chunk, result))
        if lost:
            # A broken pool dooms every other in-flight future too: reclaim
            # them all, rebuild once, then retry each lost chunk.
            lost.extend(chunk for chunk, _ in self._futures.values())
            self._futures.clear()
            self._rebuild_pool(terminate=False)
            for chunk in lost:
                self._retry_crashed(chunk)
        elif not done and self._job_timeout is not None:
            self._reap_expired()

    def _rebuild_pool(self, terminate: bool) -> None:
        if terminate:
            # A wedged worker never returns from user code; cooperative
            # shutdown would block forever, so kill the worker processes.
            processes = getattr(self._executor, "_processes", None)
            for process in list((processes or {}).values()):
                process.terminate()
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = ProcessPoolExecutor(
            max_workers=self._workers, initializer=gc.freeze
        )

    def _retry_crashed(self, chunk: Tuple[Job, ...]) -> None:
        attempts = self._retries.get(self._chunk_id(chunk), 0) + 1
        self._retries[self._chunk_id(chunk)] = attempts
        if attempts > self.MAX_RETRIES:
            # Crash counts are circumstantial: a pool crash dooms *every*
            # in-flight chunk, so an innocent chunk sharing the pool with a
            # crasher accumulates retries it never caused.  Settle guilt
            # with one isolated run on a throwaway single-worker pool.
            result = self._probe_solo(chunk)
            if result is not None:
                self._done.append((chunk, result))
                return
            failure = JobFailure(
                reason="worker-crash",
                detail=(
                    f"chunk killed its worker pool {attempts} times, "
                    "including an isolated single-worker probe"
                ),
                retries=attempts,
            )
            self._done.append(
                (chunk, ([(job.key, failure) for job in chunk], (0, 0)))
            )
            return
        self._on_retry(chunk, "worker-crash")
        time.sleep(self.RETRY_BACKOFF_S * attempts)
        self.submit(chunk)

    def _probe_solo(self, chunk: Tuple[Job, ...]) -> Optional[_ChunkResult]:
        """Run ``chunk`` alone on a fresh one-worker pool; None if it crashes
        (or times out) there too — which makes the chunk definitively guilty."""
        self._on_retry(chunk, "worker-crash")
        solo = ProcessPoolExecutor(max_workers=1, initializer=gc.freeze)
        timeout = (
            self._job_timeout * len(chunk) if self._job_timeout is not None else None
        )
        try:
            return solo.submit(_execute_chunk, chunk).result(timeout=timeout)
        except (BrokenProcessPool, FuturesTimeoutError):
            processes = getattr(solo, "_processes", None)
            for process in list((processes or {}).values()):
                process.terminate()
            return None
        finally:
            solo.shutdown(wait=False, cancel_futures=True)

    def _reap_expired(self) -> None:
        now = time.monotonic()
        expired: List[Tuple[Job, ...]] = []
        innocent: List[Tuple[Job, ...]] = []
        for chunk, deadline in self._futures.values():
            (expired if deadline <= now else innocent).append(chunk)
        if not expired:
            return
        self._futures.clear()
        self._rebuild_pool(terminate=True)
        for chunk in innocent:
            # Collateral of the pool kill, not suspects: resubmit unchanged
            # (fresh deadline — their elapsed time was lost with the pool).
            self.submit(chunk)
        for chunk in expired:
            if len(chunk) == 1:
                failure = JobFailure(
                    reason="timeout",
                    detail=f"exceeded per-job timeout of {self._job_timeout:g}s",
                    retries=self._retries.get(self._chunk_id(chunk), 0),
                )
                self._done.append((chunk, ([(chunk[0].key, failure)], (0, 0))))
            else:
                # Can't tell which job wedged: re-split so each gets its own
                # deadline and only the true offender fails.
                self._on_retry(chunk, "timeout")
                for job in chunk:
                    self.submit((job,))

    def shutdown(self) -> None:
        # On the normal path nothing is pending; on interrupt, don't block
        # on in-flight chunks whose results would be discarded anyway, and
        # drop queued ones so workers wind down promptly.
        self._executor.shutdown(wait=False, cancel_futures=True)


def _make_chunk_executor(
    workers: int,
    job_timeout: Optional[float],
    on_retry: Callable[[Tuple[Job, ...], str], None],
) -> "_SerialChunkExecutor | _PoolChunkExecutor":
    if workers > 1:
        try:
            return _PoolChunkExecutor(workers, job_timeout, on_retry)
        except OSError:  # pragma: no cover - environment-dependent
            pass
    return _SerialChunkExecutor()


def _chunk_pending(
    pending: Sequence[Job], chunk_size: Optional[int], workers: int
) -> List[List[Job]]:
    """Group pending jobs into series-affine chunks.

    Jobs of one chunk always belong to one series (one network), so a
    worker executing the chunk builds its artifacts at most once.  The
    automatic size balances IPC amortization against load balance and
    resumability: roughly four chunks per worker, capped at
    :data:`DEFAULT_MAX_CHUNK_JOBS` jobs.
    """
    by_series: Dict[str, List[Job]] = {}
    for job in pending:
        by_series.setdefault(job.series, []).append(job)
    size = chunk_size
    if size is None or size <= 0:
        size = max(
            1,
            min(
                DEFAULT_MAX_CHUNK_JOBS,
                math.ceil(len(pending) / (max(1, workers) * 4)),
            ),
        )
    chunks: List[List[Job]] = []
    for series_jobs in by_series.values():
        for start in range(0, len(series_jobs), size):
            chunks.append(series_jobs[start:start + size])
    # Heaviest chunks first (longest-processing-time heuristic): high-load
    # points cost the most wall clock, so scheduling them early shortens the
    # straggler tail on multi-core pools.  Submission order never affects
    # results — jobs are independent and keyed by content hash.
    chunks.sort(key=lambda chunk: -max(job.load for job in chunk))
    return chunks


# ---------------------------------------------------------------------------
# Adaptive scheduling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptiveSettings:
    """Saturation cutoff of the adaptive sweep scheduler (opt-in).

    Each series is processed low load to high.  After every completed
    ``(series, load)`` point the seed-averaged summary is judged by
    :func:`~repro.router.saturation.is_saturated_point` with ``margin``;
    once ``cutoff_after`` *consecutive* points are saturated, all remaining
    higher loads of that series are recorded as extrapolated copies of the
    last simulated point (see :meth:`repro.record.RunRecord.extrapolate`)
    instead of simulated.  Extrapolated records are stored under a suffixed
    key (:data:`EXTRAPOLATED_KEY_SUFFIX`), so they never masquerade as
    simulated results in later non-adaptive runs.
    """

    cutoff_after: int = 2
    margin: float = DEFAULT_SATURATION_MARGIN

    def __post_init__(self) -> None:
        if self.cutoff_after < 1:
            raise ValueError("cutoff_after must be >= 1")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError("margin must be in [0, 1)")


class _SeriesPlan:
    """Per-series load ladder the adaptive scheduler walks bottom-up."""

    def __init__(self, jobs: Sequence[Job]) -> None:
        by_load: Dict[float, List[Job]] = {}
        for job in jobs:
            by_load.setdefault(job.load, []).append(job)
        #: (load, jobs-at-load) in ascending load order.
        self.steps: List[Tuple[float, List[Job]]] = sorted(by_load.items())
        self.index = 0
        self.consecutive_saturated = 0
        #: jobs of the current step still executing (the step is judged only
        #: once every seed's result is in).
        self.outstanding = 0
        #: seed -> (summary, config key) of the last evaluated (hence
        #: simulated/cached) step, the extrapolation base once the cutoff
        #: fires.
        self.last_summaries: Dict[int, SimulationResult] = {}
        self.last_keys: Dict[int, str] = {}
        self.last_load: Optional[float] = None

    def remaining_jobs(self) -> List[Job]:
        return [job for _, jobs in self.steps[self.index:] for job in jobs]


def _start_adaptive(
    executor: "_SerialChunkExecutor | _PoolChunkExecutor",
    unique_jobs: Sequence[Job],
    stats: JobRunStats,
    settings: AdaptiveSettings,
    on_result: Callable[[Job, RunRecord], None],
) -> Callable[[Tuple[Job, ...]], None]:
    """Start per-series load ladders with a saturation cutoff.

    Submits every series' first unresolved step and returns the callback
    :func:`run_jobs`' drain loop invokes after each completed chunk.  Series
    advance independently (parallelism across series); within one series
    each load step — all of its seeds — must complete before the next is
    submitted, because the next submission *is* the scheduling decision.
    """
    results = stats.results
    by_series: Dict[str, List[Job]] = {}
    for job in unique_jobs:
        by_series.setdefault(job.series, []).append(job)
    plans = {series: _SeriesPlan(jobs) for series, jobs in by_series.items()}
    def extrapolate_remaining(plan: _SeriesPlan) -> None:
        base_load = plan.last_load
        for job in plan.remaining_jobs():
            if job.key in results:
                # Already resolved (served from a previous sweep's store
                # entry — simulated or extrapolated): nothing to synthesize.
                continue
            source_summary = plan.last_summaries.get(job.seed)
            source_key = plan.last_keys.get(job.seed)
            if source_summary is None:  # degenerate: no same-seed base
                source_summary = next(iter(plan.last_summaries.values()))
                source_key = next(iter(plan.last_keys.values()), None)
            source = RunRecord.from_summary(source_summary, config_key=source_key)
            record = RunRecord.extrapolate(
                source,
                offered_load=job.load,
                extra_provenance={
                    "config_key": job.key,
                    "adaptive": {
                        "cutoff_after": settings.cutoff_after,
                        "margin": settings.margin,
                        "base_load": base_load,
                    },
                },
            )
            on_result(job, record)
        plan.index = len(plan.steps)

    def advance(plan: _SeriesPlan) -> None:
        # Re-entrancy: advance() only runs when the plan has nothing in
        # flight (plan.outstanding == 0) — either initially or after the
        # last job of its current step completed.
        while plan.index < len(plan.steps):
            if (
                plan.consecutive_saturated >= settings.cutoff_after
                and plan.last_summaries
            ):
                extrapolate_remaining(plan)
                return
            load, step_jobs = plan.steps[plan.index]
            missing = [
                job for job in step_jobs
                # a job that resolved to a JobFailure is never resubmitted
                if job.key not in results and job.key not in stats.failures
            ]
            if missing:
                # One task per job: the seeds of a step are independent, so
                # they spread across the pool even for single-series sweeps;
                # only the judge-then-continue decision is a barrier.
                for job in missing:
                    executor.submit([job])
                plan.outstanding = len(missing)
                return
            # Step fully resolved (simulated or cached): judge saturation.
            summaries = [
                results[job.key] for job in step_jobs if job.key in results
            ]
            if not summaries:
                # Every seed of the step failed terminally; without a point
                # to judge, abandon the rest of this series' ladder (no
                # extrapolation from failures).
                plan.index = len(plan.steps)
                return
            point = average_results(summaries)
            if is_saturated_point(point, settings.margin):
                plan.consecutive_saturated += 1
            else:
                plan.consecutive_saturated = 0
            plan.last_summaries = {
                job.seed: results[job.key] for job in step_jobs
                if job.key in results
            }
            plan.last_keys = {
                job.seed: job.key for job in step_jobs if job.key in results
            }
            plan.last_load = load
            plan.index += 1

    def chunk_done(chunk: Tuple[Job, ...]) -> None:
        plan = plans[chunk[0].series]
        plan.outstanding -= 1
        if plan.outstanding == 0:
            advance(plan)

    for plan in plans.values():
        advance(plan)
    return chunk_done


# ---------------------------------------------------------------------------
# Orchestration context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrchestrationContext:
    """How a sweep executes: the one declaration of every execution setting.

    :func:`orchestration`, :func:`run_jobs` and :func:`run_sweep` all take
    these field names as ``**overrides`` of the active context
    (``dataclasses.replace``), so a misspelt name is a ``TypeError`` from
    every entry point and an explicit ``None`` switches a setting off.
    """

    #: worker processes (1 = serial, in this process).
    workers: int = 1
    #: where results persist and are served from (None = nowhere).
    store: Optional[ResultStore] = None
    #: probe registry names attached to every executed (non-cached) job.
    probes: Tuple[str, ...] = ()
    #: jobs per pool task (None = automatic; 1 = per-job dispatch).
    chunk_size: Optional[int] = None
    #: saturation-cutoff scheduling (None = off: simulate every point).
    adaptive: Optional[AdaptiveSettings] = None
    #: convergence-window measurement (None = off: one fixed window).
    converge: Optional[ConvergenceSettings] = None
    #: stream progress/cache-hit lines to stderr while sweeping.
    verbose: bool = False
    #: per-job wall-clock budget in seconds (None = unlimited).  Enforced by
    #: the pool executor only; a hung job resolves to a stored
    #: :class:`JobFailure` instead of wedging the sweep.
    job_timeout: Optional[float] = None
    #: fault-injection spec applied to every job whose config carries no
    #: schedule of its own (resolved per config; rewrites job keys, since
    #: non-empty schedules hash into ``config_key``).
    faults: Optional["FaultSpec"] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", max(1, int(self.workers)))
        object.__setattr__(self, "probes", tuple(self.probes))


_CONTEXT_STACK: List[OrchestrationContext] = [OrchestrationContext()]


def current_context() -> OrchestrationContext:
    return _CONTEXT_STACK[-1]


@contextmanager
def orchestration(**overrides: Any) -> Iterator[OrchestrationContext]:
    """Override execution settings for every sweep run inside the block.

    ``overrides`` are :class:`OrchestrationContext` fields; whatever is not
    named is inherited from the enclosing block (or the defaults).  ``store``
    may also be a path: the store is opened here, and any store is flushed
    on exit.  ``probes`` are attached to every job executed inside the block
    (cached points are still served from the store without telemetry — use
    ``refresh``/``--force`` to re-run them probed).
    """
    if isinstance(overrides.get("store"), str):
        overrides["store"] = ResultStore(overrides["store"])
    context = replace(current_context(), **overrides)
    _CONTEXT_STACK.append(context)
    try:
        yield context
    finally:
        _CONTEXT_STACK.pop()
        if context.store is not None:
            context.store.flush()


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

@dataclass
class JobRunStats:
    """Everything :func:`run_jobs` produced and counted."""

    results: Dict[str, SimulationResult]
    cache_hits: int = 0
    executed: int = 0
    #: adaptive-mode points recorded by extrapolation instead of simulation.
    extrapolated: int = 0
    #: executed jobs whose topology (and the route table memoised on it)
    #: came from / missed the worker's topology-registry build cache.
    artifact_hits: int = 0
    artifact_misses: int = 0
    elapsed_s: float = 0.0
    #: chunk resubmissions after worker crashes / timeout re-splits.
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
        done = stats.cache_hits + stats.executed + stats.extrapolated + stats.failed
        elapsed = max(now - self.start, 1e-9)
        simulated_rate = stats.executed / elapsed
        print(
            f"[sweep] {done}/{self.total} points | {stats.executed} simulated, "
            f"{stats.cache_hits} cached, {stats.extrapolated} extrapolated"
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


def run_jobs(
    jobs: Sequence[Job],
    progress: Optional[Callable[[Job, SimulationResult], None]] = None,
    **overrides: Any,
) -> JobRunStats:
    """Execute jobs, serving duplicates and stored results from cache.

    Returns a :class:`JobRunStats`.  How the jobs execute comes from the
    active :func:`orchestration` context with ``overrides``
    (:class:`OrchestrationContext` field names) applied on top.

    Execution is chunked: pending jobs are grouped into series-affine chunks
    (``chunk_size`` jobs per pool task; automatic when None) so each worker
    builds construction artifacts once per network and per-job IPC is
    amortized.  Results still stream to the result store per completed
    chunk, and the store is flushed on interrupt, so a killed sweep resumes
    from its latest completed points.

    ``adaptive`` enables the saturation cutoff (see
    :class:`AdaptiveSettings`); ``converge`` switches executed jobs to
    convergence-window measurement (stored under mode-suffixed keys).  Both
    are off by default, keeping default sweeps bit-identical to per-job
    dispatch at any worker count.
    """
    settings = replace(current_context(), **overrides)
    store, adaptive = settings.store, settings.adaptive

    # Dedup and normalize: context probes/convergence apply to every job
    # that does not carry its own (probes never change keys; convergence
    # does, via the store-key suffix, so it must land before cache lookup).
    unique: List[Job] = []
    seen_keys: set = set()
    for job in jobs:
        if job.key in seen_keys:
            continue
        seen_keys.add(job.key)
        if not job.probes and settings.probes:
            job = replace(job, probes=settings.probes)
        if settings.faults is not None:
            job = _apply_fault_spec(job, settings.faults)
        if settings.converge is not None and job.converge is None:
            job = replace(job, converge=settings.converge)
        unique.append(job)

    stats = JobRunStats(results={})
    results = stats.results
    if store is not None:
        # Re-read the shared journal before deciding what to dispatch: a
        # concurrent sweep process may have flushed results since we opened
        # the store, and every absorbed record below becomes a cache hit
        # instead of a re-simulation.
        stats.store_absorbed = store.refresh_from_disk()
    pending: List[Job] = []
    for job in unique:
        cached = None
        if store is not None:
            keys = [store_key(job)]
            if adaptive is not None:
                # A previous adaptive sweep under the *same settings* may
                # have extrapolated this point.
                keys.append(store_key(job) + _adaptive_key_suffix(adaptive))
            record = store.get_record_any(*keys)
            cached = None if record is None else record.summary
        if cached is not None:
            results[job.key] = cached
            stats.cache_hits += 1
        else:
            pending.append(job)

    reporter = (
        _ProgressReporter(total=len(unique), stats=stats) if settings.verbose else None
    )
    start_time = time.monotonic()
    last_flush = time.monotonic()

    def on_result(job: Job, record: "RunRecord | JobFailure") -> None:
        nonlocal last_flush
        if isinstance(record, JobFailure):
            # Terminal failure: record *why* the point is missing.  The
            # failure entry reads as a store miss, so a later sweep (or the
            # same one re-run) re-attempts the job instead of caching it.
            stats.failed += 1
            stats.failures[job.key] = record
            if store is not None:
                store.put_failure(
                    store_key(job),
                    record,
                    meta={"series": job.series, "load": job.load, "seed": job.seed},
                )
            if reporter is not None:
                reporter.update()
            return
        results[job.key] = record.summary
        if record.is_extrapolated:
            stats.extrapolated += 1
        else:
            stats.executed += 1
        if store is not None:
            key = store_key(job)
            meta = {"series": job.series, "load": job.load, "seed": job.seed}
            if record.is_extrapolated:
                # Only the adaptive scheduler synthesizes records, so the
                # settings-hashed suffix is always resolvable here.
                key += _adaptive_key_suffix(adaptive)
                meta["extrapolated"] = True
            store.put_record(key, record, meta=meta)
            # Periodic flush keeps interrupted sweeps resumable without
            # rewriting the whole store once per completed job.
            now = time.monotonic()
            if now - last_flush >= store.flush_interval:
                store.flush()
                last_flush = now
        if progress is not None:
            progress(job, record.summary)
        if reporter is not None:
            reporter.update()

    def on_retry(chunk: Tuple[Job, ...], reason: str) -> None:
        # Checkpoint before any resubmission: the completed points must
        # survive even if the retried chunk keeps killing workers.
        nonlocal last_flush
        stats.retries += 1
        if store is not None:
            store.flush()
            last_flush = time.monotonic()
        if settings.verbose:
            print(
                f"[sweep] retrying {len(chunk)}-job chunk after {reason}",
                file=sys.stderr,
            )

    executor = _make_chunk_executor(settings.workers, settings.job_timeout, on_retry)
    try:
        chunk_done: Optional[Callable[[Tuple[Job, ...]], None]] = None
        if adaptive is not None:
            chunk_done = _start_adaptive(executor, unique, stats, adaptive, on_result)
        else:
            for chunk in _chunk_pending(pending, settings.chunk_size, settings.workers):
                executor.submit(chunk)
        while executor.pending():
            chunk, (records, (hits, misses)) = executor.next_completed()
            stats.artifact_hits += hits
            stats.artifact_misses += misses
            for job, (_, record) in zip(chunk, records):
                on_result(job, record)
            if chunk_done is not None:
                chunk_done(chunk)
    finally:
        # Interrupts (KeyboardInterrupt included) land here: persist every
        # completed point *first* — the flush must not depend on how long
        # worker teardown takes or on a second interrupt arriving during it.
        if store is not None:
            store.flush()
        executor.shutdown()
    stats.elapsed_s = time.monotonic() - start_time
    if reporter is not None:
        reporter.update(final=True)
    return stats


#: :meth:`SweepOutcome.missing` reason of a job that was never dispatched.
NOT_RUN = "not run"


@dataclass
class SweepOutcome:
    """What a sweep asked for (``spec``, ``jobs``) and what running it produced.

    Results, failures and every count (cache hits, executed, extrapolated,
    retries, ...) are read from ``stats``, the :class:`JobRunStats` of the
    sweep's one :func:`run_jobs` call.
    """

    spec: SweepSpec
    #: jobs in expansion order (for reassembly).
    jobs: List[Job]
    stats: JobRunStats

    def seed_results(self, series: str, load: float) -> List[SimulationResult]:
        """Per-seed results of one point, in seed order (failed seeds left out)."""
        results = self.stats.results
        return [
            results[job.key]
            for job in self.jobs
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

        The reason is the job's :class:`JobFailure`, or :data:`NOT_RUN` for a
        job in neither ``stats.results`` nor ``stats.failures`` (the adaptive
        scheduler abandons a series' ladder once every seed of a load step
        has failed).
        """
        gaps = []
        for job in self.jobs:
            if job.series == series and job.key not in self.stats.results:
                failure = self.stats.failures.get(job.key)
                if failure is None:
                    reason = NOT_RUN
                else:
                    reason = failure.reason + (
                        f" ({failure.detail})" if failure.detail else ""
                    )
                gaps.append((job.load, job.seed, reason))
        return gaps

    def table(self) -> Dict[Tuple[str, float], SimulationResult]:
        """All seed-averaged points keyed by ``(series_label, load)``."""
        seen: Dict[Tuple[str, float], SimulationResult] = {}
        for job in self.jobs:
            key = (job.series, job.load)
            if key not in seen:
                point = self.point(job.series, job.load)
                if point is not None:
                    seen[key] = point
        return seen


def run_sweep(spec: SweepSpec, **overrides: Any) -> SweepOutcome:
    """Expand a sweep specification and execute all of its jobs.

    ``overrides`` are forwarded to :func:`run_jobs`.  Raises
    :class:`FaultSpecError`, before dispatching anything, when the fault
    spec in effect cannot run on the sweep's networks.
    """
    jobs = spec.expand()
    faults = replace(current_context(), **overrides).faults
    if faults is not None:
        # Fault schedules rewrite job keys, and the outcome's job list must
        # carry the keys the results are stored under.  Every distinct
        # schedule is resolved against its network before any job runs.
        try:
            jobs = [_apply_fault_spec(job, faults) for job in jobs]
            for schedule, network in dict.fromkeys(
                (job.config.faults, job.config.network) for job in jobs
            ):
                schedule.timeline(network.build_cached().wiring())
        except (ValueError, NetworkPartitionedError) as exc:
            raise FaultSpecError(str(exc)) from exc
    return SweepOutcome(spec=spec, jobs=jobs, stats=run_jobs(jobs, **overrides))


def run_seed_jobs(config: SimulationConfig, seeds: int) -> List[SimulationResult]:
    """Run one configuration under ``seeds`` consecutive seeds (in seed order).

    The paper averages 5.  Seeds are independent jobs: worker count and
    result store come from the active :func:`orchestration` context.
    """
    spec = SweepSpec(
        series=[("point", lambda: config)],
        loads=[config.traffic.load],
        seeds=max(1, seeds),
        name="seeds",
    )
    outcome = run_sweep(spec)
    return outcome.seed_results("point", config.traffic.load)
