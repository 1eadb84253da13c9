"""How a sweep's jobs execute: one job, a chunk of jobs, and the chunk executors.

:func:`~repro.experiments.orchestrator.run_jobs` groups pending jobs into
*series-affine chunks* (:func:`_chunk_pending`) and hands them to a chunk
executor from :func:`_make_chunk_executor`: in this process when
``workers == 1``, on a ``ProcessPoolExecutor`` otherwise.  Results are
bit-identical either way because every job owns its RNG.  A chunk runs
several jobs of one series in one pool task, which amortizes pickle/IPC
overhead and keeps each worker's topology registry cache hot: a topology
graph and its route table are built once per network per worker instead of
once per job.
"""

from __future__ import annotations

import gc
import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..probes import make_probes
from ..record import JobFailure, RunRecord
from ..session import Session
from ..simulation import Simulation, build_artifacts
from ..topology import TOPOLOGIES

if TYPE_CHECKING:
    from .orchestrator import Job

#: upper bound of a chunk's size (resumability granularity: an interrupted
#: sweep loses at most this many in-flight jobs per worker).
MAX_CHUNK_JOBS = 8


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
    it.  Every job measures the one fixed window of its config.
    """
    _apply_test_seams(job.key)
    hits_before = TOPOLOGIES.build_cache_hits
    artifacts = build_artifacts(job.config)
    artifact_hit = TOPOLOGIES.build_cache_hits > hits_before
    simulation = Simulation(job.config, artifacts=artifacts)
    session = Session(simulation=simulation, probes=make_probes(job.probes))
    session.warmup()
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


# ---------------------------------------------------------------------------
# Chunk executors
# ---------------------------------------------------------------------------

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


def _chunk_pending(pending: Sequence[Job], workers: int) -> List[List[Job]]:
    """Group pending jobs into series-affine chunks.

    Jobs of one chunk always belong to one series (one network), so a
    worker executing the chunk builds its artifacts at most once.  The size
    balances IPC amortization against load balance and resumability:
    roughly four chunks per worker, capped at :data:`MAX_CHUNK_JOBS` jobs.
    """
    by_series: Dict[str, List[Job]] = {}
    for job in pending:
        by_series.setdefault(job.series, []).append(job)
    size = max(1, min(MAX_CHUNK_JOBS, math.ceil(len(pending) / (max(1, workers) * 4))))
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
