"""How a sweep's jobs execute: one job, and the two executors.

:func:`~repro.experiments.orchestrator.run_jobs` hands its pending jobs, in
:func:`_dispatch_order`, to an executor from :func:`_make_executor`: in
this process when ``workers == 1`` and no job timeout is set, on
``workers`` worker processes otherwise, each fed one job at a time through
its own pipe.  A pool that cannot start raises (its ``OSError``): running
in-process instead would ignore the job timeout and the worker count the
caller asked for.  Either executor yields one result per finished job, and
results are bit-identical either way because every job owns its RNG.
A worker builds a network's topology and route table once, whichever of
its jobs needs it first: the topology registry's build cache
(``TOPOLOGIES.build_cached``) lives as long as the worker.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing import Pipe, Process, parent_process
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..probes import make_probes
from ..record import JobFailure, RunRecord
from ..session import Session
from ..simulation import Simulation, build_artifacts
from ..topology import TOPOLOGIES

if TYPE_CHECKING:
    from .orchestrator import Job

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
    """Run one job in this process.

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


#: What an executor yields per finished job: its key, its record (or its
#: :class:`JobFailure`) and whether its topology came from the build cache.
_JobResult = Tuple[str, "RunRecord | JobFailure", bool]


def _run_job(job: Job) -> _JobResult:
    """Run one job in this process and reclaim its simulation.

    A finished job's ``Simulation`` is the one reference cycle a run builds
    (:mod:`repro.collector`), and with the phases paused the allocation
    counters almost never trigger the full pass that would find it: reclaim
    it here, when it dies, so a process holds one live simulation however
    many jobs it runs.
    """
    result = _execute_job(job)
    gc.collect()
    return result


def _dispatch_order(pending: Sequence[Job]) -> List[Job]:
    """Heaviest load first, spec order among equal loads.

    Greedy list scheduling in longest-processing-time order (Graham, 1969):
    high-load points cost the most wall clock, so starting them first
    leaves the short ones to fill the tail on every worker.  The order never
    affects results — jobs are independent and keyed by content hash.
    """
    return sorted(pending, key=lambda job: -job.load)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

class _SerialExecutor:
    """Job execution in this process; lazily runs on ``next_completed``."""

    def __init__(self) -> None:
        self._queue: Deque[Job] = deque()

    def submit(self, job: Job) -> None:
        self._queue.append(job)

    def pending(self) -> bool:
        return bool(self._queue)

    def next_completed(self) -> _JobResult:
        return _run_job(self._queue.popleft())

    def shutdown(self) -> None:
        pass


def _exit_with_parent() -> None:
    # Under ``fork`` the parent's sentinel stays open while a sibling holds
    # the end it inherited, so watch for re-parenting; under ``forkserver``
    # the parent is the server, which can outlive the sweep, so watch the
    # sentinel.
    ppid, sentinel = os.getppid(), parent_process().sentinel
    while os.getppid() == ppid and not wait([sentinel], 0.5):
        pass
    os._exit(1)


def _worker_main(conn: Connection) -> None:
    """A worker process: run each job received, one message back per job.

    The heap a worker starts with (modules, what the fork copied) never
    dies in it, so freezing it keeps :func:`_run_job`'s per-job full
    collection to what the job itself left behind (13 ms -> 2 ms after a
    ``tiny`` job).  A watchdog thread ends the worker within half a second
    of its parent's death, idle or mid-job: the pipe alone cannot tell,
    since under ``fork`` every later worker inherits the parent's end of it.
    """
    gc.freeze()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops us on Ctrl-C
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    try:
        while True:
            job = conn.recv()
            try:
                conn.send(_run_job(job))
            except Exception as exc:  # raised in the parent, as a serial run would
                exc.add_note(traceback.format_exc())
                conn.send(exc)
    except (EOFError, ConnectionError):  # the parent is gone
        pass


class _Worker:
    """One worker process, the parent's end of its pipe, and the job it
    runs (None while idle)."""

    def __init__(self) -> None:
        self.conn, child = Pipe()
        self.process = Process(target=_worker_main, args=(child,), daemon=True)
        self.process.start()
        child.close()
        self.job: Optional[Job] = None
        #: when the running job was sent (an idle worker starts it at once).
        self.started = 0.0

    def stop(self) -> None:
        self.process.kill()
        self.process.join()
        self.conn.close()


class _PoolExecutor:
    """Job execution on ``workers`` processes, each fed through its own pipe.

    A worker gets one job at a time, so the parent always knows which job
    every worker is running.  That is what a failure is charged to:

    * **worker crash** (EOF on the pipe, or the process gone): the job is
      retried on a fresh worker, after a short linear backoff, until it has
      killed :data:`MAX_RETRIES` + 1 workers, and then resolves to
      ``JobFailure("worker-crash")``.
    * **job timeout** (``job_timeout`` seconds per job, counted from when
      its worker starts it): that worker is killed and replaced, and the
      job resolves to ``JobFailure("timeout")``.  No other worker is
      touched.

    ``on_retry`` fires before a crashed job is requeued so the caller can
    checkpoint (``run_jobs`` flushes the result store: completed points must
    not depend on the retried job ever succeeding).
    """

    #: crash retries per job before it resolves to a failure.
    MAX_RETRIES = 3
    #: linear backoff base between crash retries (seconds).
    RETRY_BACKOFF_S = 0.1

    def __init__(
        self,
        workers: int,
        job_timeout: Optional[float],
        on_retry: Callable[[Job, str], None],
    ) -> None:
        self._job_timeout = job_timeout
        self._on_retry = on_retry
        self._queue: Deque[Job] = deque()
        self._done: Deque[_JobResult] = deque()
        #: job key -> workers it has killed.
        self._crashes: Dict[str, int] = {}
        self._workers: List[_Worker] = []
        try:
            for _ in range(workers):
                self._workers.append(_Worker())
        except OSError:
            self.shutdown()
            raise

    def submit(self, job: Job) -> None:
        self._queue.append(job)

    def pending(self) -> bool:
        return bool(self._queue or self._done) or any(
            w.job is not None for w in self._workers
        )

    def next_completed(self) -> _JobResult:
        # Dispatch right after each wait: a worker that just finished its
        # job gets the next one before the caller stores the result.
        self._dispatch()
        while not self._done:
            self._wait_once()
            self._dispatch()
        return self._done.popleft()

    def _dispatch(self) -> None:
        for worker in self._workers:
            if worker.job is None and self._queue:
                worker.job = self._queue.popleft()
                worker.started = time.monotonic()
                try:
                    worker.conn.send(worker.job)
                except OSError:
                    pass  # the worker died idle: the wait sees its pipe's EOF

    def _wait_once(self) -> None:
        busy = [worker for worker in self._workers if worker.job is not None]
        limit = self._job_timeout
        timeout = None
        if limit is not None:
            timeout = max(0.0, min(w.started for w in busy) + limit - time.monotonic())
        ready = set(wait(
            [w.conn for w in busy] + [w.process.sentinel for w in busy], timeout
        ))
        for worker in busy:
            if worker.conn in ready or worker.process.sentinel in ready:
                self._receive(worker)
            elif limit is not None and time.monotonic() - worker.started >= limit:
                self._timed_out(worker)

    def _receive(self, worker: _Worker) -> None:
        if not worker.conn.poll():
            return
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._crashed(worker)
            return
        if isinstance(message, Exception):
            raise message
        self._done.append(message)
        worker.job = None

    def _replace(self, worker: _Worker) -> Job:
        """Stop ``worker`` for good, start its replacement and return the
        job that was running."""
        worker.stop()
        self._workers[self._workers.index(worker)] = _Worker()
        assert worker.job is not None
        return worker.job

    def _crashed(self, worker: _Worker) -> None:
        job = self._replace(worker)
        crashes = self._crashes[job.key] = self._crashes.get(job.key, 0) + 1
        if crashes > self.MAX_RETRIES:
            failure = JobFailure(
                reason="worker-crash",
                detail=f"killed its worker {crashes} times",
                retries=crashes,
            )
            self._done.append((job.key, failure, False))
            return
        self._on_retry(job, "worker-crash")
        time.sleep(self.RETRY_BACKOFF_S * crashes)
        self._queue.appendleft(job)

    def _timed_out(self, worker: _Worker) -> None:
        job = self._replace(worker)
        failure = JobFailure(
            reason="timeout",
            detail=f"exceeded per-job timeout of {self._job_timeout:g}s",
            retries=self._crashes.get(job.key, 0),
        )
        self._done.append((job.key, failure, False))

    def shutdown(self) -> None:
        # On the normal path every worker is idle; on interrupt, results
        # still running would be discarded anyway.
        for worker in self._workers:
            worker.stop()
        self._workers.clear()


def _make_executor(
    pending: Sequence[Job],
    workers: int,
    job_timeout: Optional[float],
    on_retry: Callable[[Job, str], None],
) -> "_SerialExecutor | _PoolExecutor":
    """An executor holding ``pending`` in :func:`_dispatch_order`.

    A timeout needs a worker it can kill, even when there is only one; a
    sweep with nothing to run starts no worker.
    """
    executor: "_SerialExecutor | _PoolExecutor" = _SerialExecutor()
    if pending and (workers > 1 or job_timeout is not None):
        executor = _PoolExecutor(workers, job_timeout, on_retry)
    for job in _dispatch_order(pending):
        executor.submit(job)
    return executor
