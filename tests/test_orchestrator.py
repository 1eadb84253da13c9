"""Orchestrator tests: job expansion, determinism, result store, resilience."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.config import SimulationConfig
from repro.experiments.figures import run_figure
from repro.experiments.orchestrator import SweepSpec, run_jobs, run_sweep
from repro.faults import parse_faults
from repro.keys import config_key
from repro.metrics import SimulationResult
from repro.session import Session
from repro.simulation import average_results
from repro.store import ResultStore, StoreError


def make_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(warmup_cycles=150, measure_cycles=300)
    return dataclasses.replace(base, **overrides)


def build_config() -> SimulationConfig:
    return make_config()


class TestConfigKey:
    def test_equal_configs_share_a_key(self):
        assert config_key(make_config()) == config_key(make_config())

    def test_different_configs_differ(self):
        assert config_key(make_config()) != config_key(make_config(seed=2))
        assert config_key(make_config()) != config_key(make_config().with_load(0.7))

    def test_structural_equality_not_identity(self):
        a = make_config().with_load(0.3)
        b = make_config().with_load(0.1).with_load(0.3)
        assert config_key(a) == config_key(b)


class TestSweepSpec:
    def test_expansion_order_and_keys(self):
        spec = SweepSpec(
            series=[("a", build_config), ("b", build_config)],
            loads=[0.1, 0.2],
            seeds=2,
        )
        jobs = spec.expand()
        assert len(jobs) == 2 * 2 * 2
        assert [j.series for j in jobs[:4]] == ["a", "a", "a", "a"]
        assert jobs[0].seed == 1 and jobs[1].seed == 2
        assert jobs[0].config.traffic.load == pytest.approx(0.1)
        # a/b share configs at the same (load, seed) -> same hash
        assert jobs[0].key == jobs[4].key

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate series labels"):
            SweepSpec(series=[("a", build_config), ("a", build_config)], loads=[0.1])
        # A repeated load gives a one-seed point two jobs, and the outcome
        # could then only report the point as absent without a reason.
        with pytest.raises(ValueError, match="duplicate loads"):
            SweepSpec(series=[("a", build_config)], loads=[0.5, 0.5])


class TestDeterminism:
    def test_serial_and_parallel_results_identical(self):
        spec = SweepSpec(
            series=[("uniform", build_config)], loads=[0.15, 0.3], seeds=2,
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.stats.results.keys() == parallel.stats.results.keys()
        for key, result in serial.stats.results.items():
            assert dataclasses.asdict(result) == dataclasses.asdict(parallel.stats.results[key])

    def test_context_workers_keep_seed_order(self):
        spec = SweepSpec(series=[("point", build_config)], loads=[0.2], seeds=2)
        serial = run_sweep(spec, workers=1).seed_results("point", 0.2)
        parallel = run_sweep(spec, workers=2).seed_results("point", 0.2)
        assert [dataclasses.asdict(r) for r in serial] == [
            dataclasses.asdict(r) for r in parallel
        ]
        # seed order is preserved regardless of completion order
        assert serial[0].packets_generated != 0

    def test_pool_backend_falls_back_cleanly(self, tmp_path):
        # The stored RunRecords are identical serial or pooled — everything
        # except the wall-clock provenance is deterministic across
        # executors.  Each
        # pool worker (its start-up heap frozen) reclaims a finished
        # simulation before its next job, as the serial executor does.
        jobs = SweepSpec(
            series=[("s", build_config)], loads=[0.1, 0.4], seeds=2
        ).expand()
        ref = ResultStore(str(tmp_path / "serial.journal"))
        got = ResultStore(str(tmp_path / "pooled.journal"))
        run_jobs(jobs, workers=1, store=ref)
        run_jobs(jobs, workers=2, store=got)
        for job in jobs:
            serial = ref.get_record(job.key).to_dict()
            pooled = got.get_record(job.key).to_dict()
            for record in (serial, pooled):
                # The things that depend on where a job ran: its wall time,
                # and how warm its process's shared route table was (its
                # lookups and the hop sequences earlier jobs resolved).
                assert record["provenance"].pop("wall_time_s") > 0
                assert record["provenance"]["route_table"].pop("hits") > 0
                assert record["provenance"]["route_table"].pop("pairs_resolved") > 0
            assert pooled == serial


class TestResultStore:
    def test_roundtrip_and_cache_hit(self, tmp_path):
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("s", build_config)], loads=[0.1], seeds=1)

        store = ResultStore(path)
        first = run_sweep(spec, workers=1, store=store)
        assert first.stats.executed == 1 and first.stats.cache_hits == 0
        store.flush()

        # A fresh store object backed by the same file serves from cache
        # without running a single simulation.
        reopened = ResultStore(path)
        second = run_sweep(spec, workers=1, store=reopened)
        assert second.stats.executed == 0 and second.stats.cache_hits == 1
        key = spec.expand()[0].key
        assert dataclasses.asdict(second.stats.results[key]) == dataclasses.asdict(
            first.stats.results[key]
        )

    def test_resume_skips_completed_jobs(self, tmp_path):
        """Interrupted sweeps resume: stored points are not re-simulated."""
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("s", build_config)], loads=[0.1, 0.25], seeds=1)
        jobs = spec.expand()

        # Simulate an interruption: only the first point was completed.
        store = ResultStore(path)
        stats = run_jobs(jobs[:1], workers=1, store=store)
        assert (len(stats.results), stats.cache_hits, stats.executed) == (1, 0, 1)
        store.close()  # the interrupted writer is gone: its lock with it

        executed_keys = []
        import repro.experiments.executors as executors

        original = executors._execute_job

        def spying_execute(job):
            executed_keys.append(job.key)
            return original(job)

        executors._execute_job, saved = spying_execute, original
        try:
            resumed = run_sweep(spec, workers=1, store=ResultStore(path))
        finally:
            executors._execute_job = saved
        assert resumed.stats.cache_hits == 1 and resumed.stats.executed == 1
        assert executed_keys == [jobs[1].key]

    def test_refresh_bypasses_reads_but_persists(self, tmp_path):
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("s", build_config)], loads=[0.1], seeds=1)
        store = ResultStore(path)
        run_sweep(spec, workers=1, store=store)
        store.close()
        forced = ResultStore(path, refresh=True)
        outcome = run_sweep(spec, workers=1, store=forced)
        assert outcome.stats.cache_hits == 0 and outcome.stats.executed == 1

    def test_store_survives_unknown_version(self, tmp_path):
        path = tmp_path / "store.json"
        text = '{"version": 999, "results": {"x": {}}}'
        path.write_text(text)
        # refused, not treated as empty: the first flush would replace it
        with pytest.raises(StoreError):
            ResultStore(str(path))
        assert path.read_text() == text


class TestContextWiring:
    def test_sweep_uses_context_store(self, tmp_path):
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("only", build_config)], loads=[0.1])
        with ResultStore(path) as store:
            first = run_sweep(spec, workers=1, store=store).point("only", 0.1)

        # Second run over the same store, reopened: pure cache.
        with ResultStore(path) as reopened:
            assert len(reopened) == 1
            second = run_sweep(spec, workers=1, store=reopened).point("only", 0.1)
            assert reopened.hits == 1
        assert dataclasses.asdict(second) == dataclasses.asdict(first)

    def test_run_point_averages_seeds(self):
        spec = SweepSpec(series=[("point", build_config)], loads=[0.2], seeds=2)
        outcome = run_sweep(spec)
        result = outcome.point("point", 0.2)
        assert isinstance(result, SimulationResult)
        assert result.packets_delivered > 0
        seeds = outcome.seed_results("point", 0.2)
        assert [job.seed for job in outcome.stats.jobs] == [1, 2]
        assert dataclasses.asdict(result) == dataclasses.asdict(average_results(seeds))


#: one non-default value per execution setting.
SETTING_VALUES = {
    "workers": 2,
    "store": ResultStore,  # opened on a temp path by the test
    "probes": ("timeseries",),
    "verbose": True,
    "job_timeout": 5.0,
    "faults": parse_faults("link:0:3@400-900"),
}


class TestSettingsDeclaredOnce:
    """The execution settings are run_jobs's keyword-only parameters, and
    run_sweep and run_figure pass them on: their signatures name none."""

    def test_every_field_has_a_sample_value(self):
        parameters = inspect.signature(run_jobs).parameters.values()
        names = [p.name for p in parameters if p.kind is p.KEYWORD_ONLY]
        assert names == list(SETTING_VALUES)

    @pytest.mark.parametrize("name", list(SETTING_VALUES))
    def test_setting_reaches_every_entry_point(self, name, tmp_path, monkeypatch):
        value = SETTING_VALUES[name]
        if name == "store":
            value = ResultStore(str(tmp_path / "store.journal"))
        import repro.experiments.orchestrator as orchestrator

        seen = []
        real = orchestrator.run_jobs

        def spy(jobs, **settings):
            seen.append(settings[name])
            return real(jobs, **settings)

        monkeypatch.setattr(orchestrator, "run_jobs", spy)
        assert spy([], **{name: value}).executed == 0
        empty = SweepSpec(series=[], loads=[])
        assert run_sweep(empty, **{name: value}).stats.executed == 0
        panels, outcome = run_figure("fig10", loads=[], **{name: value})
        assert outcome.stats.executed == 0
        assert seen == [value] * 3
        if name == "store":
            value.close()

    def test_unknown_setting_is_a_type_error(self):
        with pytest.raises(TypeError, match="bogus"):
            run_jobs([], bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            run_sweep(SweepSpec(series=[], loads=[]), bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            run_figure("fig10", loads=[], bogus=1)

    def test_signatures_name_no_setting(self):
        for function in (run_sweep, run_figure):
            assert not set(inspect.signature(function).parameters) & set(SETTING_VALUES)


class TestSerializationRoundtrip:
    def test_result_to_from_dict(self):
        result = Session(make_config().with_load(0.1)).run().summary
        clone = SimulationResult.from_dict(result.to_dict())
        assert dataclasses.asdict(clone) == dataclasses.asdict(result)


# ---------------------------------------------------------------------------
# Crash resilience and per-job timeouts
# ---------------------------------------------------------------------------

def _resilience_jobs(count: int, seed_base: int) -> list:
    from repro.experiments.orchestrator import Job

    jobs = []
    for offset in range(count):
        config = make_config(
            warmup_cycles=50, measure_cycles=100, seed=seed_base + offset
        ).with_load(0.3)
        jobs.append(
            Job(
                key=config_key(config),
                series="resilience",
                load=0.3,
                seed=config.seed,
                config=config,
            )
        )
    return jobs


def _running(pid: int) -> bool:
    """Whether ``pid`` is alive (a zombie waiting to be reaped is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestCrashResilience:
    def test_worker_crash_is_retried_and_sweep_completes(self, tmp_path, monkeypatch):
        # One worker hard-exits while executing a specific job; the marker
        # file makes the crash fire exactly once, so the retry succeeds and
        # the sweep must deliver every result with correct store contents.
        jobs = _resilience_jobs(6, seed_base=21)
        marker = tmp_path / "crashed.marker"
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_KEY", f"{jobs[2].key}:{marker}"
        )
        store = ResultStore(str(tmp_path / "store.json"))
        stats = run_jobs(jobs, workers=2, store=store)
        assert marker.exists()  # the crash really fired
        assert stats.failed == 0
        assert stats.retries >= 1
        assert sorted(stats.results) == sorted(job.key for job in jobs)
        # Store contents match an undisturbed serial run bit-for-bit.
        serial = run_jobs(jobs, workers=1, store=None)
        for job in jobs:
            assert dataclasses.asdict(stats.results[job.key]) == dataclasses.asdict(
                serial.results[job.key]
            )
        store.flush()
        assert list(store.failures()) == []

    def test_persistent_crash_exhausts_retries_into_typed_failure(
        self, tmp_path, monkeypatch
    ):
        from repro.record import JobFailure

        jobs = _resilience_jobs(4, seed_base=41)
        monkeypatch.setenv("REPRO_TEST_CRASH_KEY", jobs[1].key)  # every attempt
        store = ResultStore(str(tmp_path / "store.json"))
        stats = run_jobs(jobs, workers=2, store=store)
        assert stats.failed == 1
        assert sorted(stats.results) == sorted(
            job.key for job in jobs if job.key != jobs[1].key
        )
        failure = stats.failures[jobs[1].key]
        assert isinstance(failure, JobFailure)
        assert failure.reason == "worker-crash"
        assert failure.retries > 0
        # The failure is persisted as a typed store entry ...
        store.flush()
        stored = list(store.failures())
        assert len(stored) == 1 and stored[0][1].reason == "worker-crash"
        # ... that reads as a cache miss (a later sweep re-attempts the job)
        # and is invisible to the record iterator.
        assert store.get_record(jobs[1].key) is None
        assert jobs[1].key not in {key for key, _, _ in store.entries()}

    def test_only_the_crasher_fails(self, monkeypatch):
        # A worker holds one job, so no other job may be charged with the
        # crasher's crashes: it alone fails, and every other job equals
        # the serial result.
        from repro.experiments.executors import _PoolExecutor

        jobs = _resilience_jobs(9, seed_base=91)
        crasher = jobs[3].key
        monkeypatch.setenv("REPRO_TEST_CRASH_KEY", crasher)  # every attempt
        stats = run_jobs(jobs, workers=2)
        assert stats.failed == 1
        assert stats.failures[crasher].reason == "worker-crash"
        assert stats.failures[crasher].retries == _PoolExecutor.MAX_RETRIES + 1
        assert stats.retries == _PoolExecutor.MAX_RETRIES
        monkeypatch.delenv("REPRO_TEST_CRASH_KEY")
        serial = run_jobs(jobs, workers=1)
        assert sorted(stats.results) == sorted(
            job.key for job in jobs if job.key != crasher
        )
        for key, result in stats.results.items():
            assert dataclasses.asdict(result) == dataclasses.asdict(serial.results[key])

    def test_retry_names_the_point(self, tmp_path, monkeypatch, capsys):
        jobs = _resilience_jobs(3, seed_base=95)
        marker = tmp_path / "crashed.marker"
        monkeypatch.setenv("REPRO_TEST_CRASH_KEY", f"{jobs[1].key}:{marker}")
        stats = run_jobs(jobs, workers=2, verbose=True)
        assert stats.retries == 1
        err = capsys.readouterr().err.splitlines()
        assert "[sweep] retrying resilience@0.3 after worker-crash" in err

    def test_queued_job_is_not_timed_out(self):
        # A job's clock starts when a worker starts it, not when the sweep
        # queues it.  The timeout is 8x the longest of three measured jobs,
        # and the sweep holds 4x the timeout of work (capped): on two
        # workers the last jobs wait in the queue about twice the timeout.
        import math
        import time

        walls = []
        for job in _resilience_jobs(3, seed_base=101):
            start = time.monotonic()
            run_jobs([job], workers=1)
            walls.append(time.monotonic() - start)
        timeout = 8 * max(walls)
        count = min(80, math.ceil(4 * timeout / min(walls)))
        stats = run_jobs(
            _resilience_jobs(count, seed_base=104), workers=2, job_timeout=timeout
        )
        assert stats.failed == 0
        assert stats.retries == 0

    def test_workers_die_with_their_parent(self, tmp_path):
        # A sweep killed with SIGKILL leaves no worker behind, idle or in
        # the middle of a job.
        import os
        import signal
        import subprocess
        import sys
        import time

        script = tmp_path / "sweep.py"
        script.write_text(
            "import os, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_orchestrator import _resilience_jobs, run_jobs\n"
            "jobs = _resilience_jobs(2, seed_base=121)\n"
            "os.environ['REPRO_TEST_HANG_KEY'] = jobs[0].key\n"
            "run_jobs(jobs, workers=2)\n",
            encoding="utf-8",
        )
        sweep = subprocess.Popen(
            [sys.executable, str(script), os.path.dirname(__file__)]
        )
        children = f"/proc/{sweep.pid}/task/{sweep.pid}/children"
        workers: list = []
        try:
            if not os.path.exists(children):
                pytest.skip("no /proc/<pid>/task/<pid>/children on this platform")
            deadline = time.monotonic() + 30
            while len(workers) < 2 and time.monotonic() < deadline:
                with open(children, encoding="utf-8") as handle:
                    workers = [int(pid) for pid in handle.read().split()]
                time.sleep(0.05)
            assert len(workers) == 2
            sweep.send_signal(signal.SIGKILL)
            sweep.wait(timeout=30)
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            sweep.kill()
            sweep.wait(timeout=30)
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)

    def test_failing_flush_still_shuts_the_pool_down(self, tmp_path, monkeypatch):
        # A flush that raises mid-sweep (a lock timeout, a filesystem without
        # flock) must not leave the pool running: interpreter exit would wait
        # for every queued job before the error is reported.
        from repro.experiments import executors

        shutdowns = []
        original = executors._PoolExecutor.shutdown

        def spying_shutdown(executor):
            shutdowns.append(executor)
            original(executor)

        def failing_flush():
            raise StoreError("flush failed")

        monkeypatch.setattr(executors._PoolExecutor, "shutdown", spying_shutdown)
        store = ResultStore(str(tmp_path / "store.journal"), flush_interval=0)
        monkeypatch.setattr(store, "flush", failing_flush)
        with pytest.raises(StoreError, match="flush failed"):
            run_jobs(_resilience_jobs(4, seed_base=81), workers=2, store=store)
        assert len(shutdowns) == 1

    def test_pool_that_cannot_start_is_an_error(self, monkeypatch):
        # Running in-process instead would ignore the timeout: an error, with
        # the worker that did start stopped again.
        import errno
        import multiprocessing

        from repro.experiments import executors

        started = []

        class SecondWorkerFails(executors._Worker):
            def __init__(self) -> None:
                if started:
                    raise OSError(errno.EAGAIN, "no process for a worker")
                super().__init__()
                started.append(self)

        monkeypatch.setattr(executors, "_Worker", SecondWorkerFails)
        with pytest.raises(OSError, match="no process for a worker"):
            run_jobs(_resilience_jobs(2, seed_base=91), workers=2, job_timeout=5.0)
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    def test_hung_job_times_out_into_typed_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        jobs = _resilience_jobs(4, seed_base=61)
        monkeypatch.setenv("REPRO_TEST_HANG_KEY", jobs[0].key)
        monkeypatch.setenv("REPRO_TEST_HANG_SECONDS", "60")
        store = ResultStore(str(tmp_path / "store.json"))
        stats = run_jobs(
            jobs, workers=2, store=store, job_timeout=3.0,
            verbose=True,
        )
        # The failed job counts towards the progress total, and is named.
        final = capsys.readouterr().err.splitlines()[-1]
        assert final.startswith("[sweep] 4/4 points | 3 simulated, ")
        assert ", 1 failed | " in final
        assert stats.failed == 1
        assert sorted(stats.results) == sorted(job.key for job in jobs[1:])
        failure = stats.failures[jobs[0].key]
        assert failure.reason == "timeout"
        store.flush()
        stored = list(store.failures())
        assert len(stored) == 1 and stored[0][1].reason == "timeout"

    def test_job_timeout_holds_at_one_worker(self, monkeypatch):
        # A budget needs a worker it can kill, so one worker still times out.
        jobs = _resilience_jobs(2, seed_base=71)
        monkeypatch.setenv("REPRO_TEST_HANG_KEY", jobs[0].key)
        monkeypatch.setenv("REPRO_TEST_HANG_SECONDS", "3")
        stats = run_jobs(jobs, workers=1, store=None, job_timeout=1.0)
        assert stats.failed == 1
        assert stats.failures[jobs[0].key].reason == "timeout"
        assert sorted(stats.results) == [jobs[1].key]

    def test_inspect_surfaces_failures(self, tmp_path, monkeypatch):
        import subprocess
        import sys

        jobs = _resilience_jobs(2, seed_base=81)
        monkeypatch.setenv("REPRO_TEST_HANG_KEY", jobs[0].key)
        monkeypatch.setenv("REPRO_TEST_HANG_SECONDS", "60")
        path = tmp_path / "store.json"
        store = ResultStore(str(path))
        run_jobs(jobs, workers=2, store=store, job_timeout=3.0)
        store.flush()
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "inspect", str(path)],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0
        assert "FAILED: timeout" in completed.stdout
        assert "1 failed" in completed.stdout


class TestDispatch:
    def test_order_is_load_descending_and_stable(self):
        from repro.experiments.executors import _dispatch_order

        jobs = [
            dataclasses.replace(job, load=load)
            for job, load in zip(
                _resilience_jobs(6, seed_base=131), (0.3, 0.9, 0.1, 0.9, 0.3, 0.5)
            )
        ]
        ordered = _dispatch_order(jobs)
        assert [job.load for job in ordered] == [0.9, 0.9, 0.5, 0.3, 0.3, 0.1]
        # Equal loads keep spec order.
        assert [jobs.index(job) for job in ordered] == [1, 3, 5, 0, 4, 2]

    def test_every_message_to_a_worker_is_one_job(self, monkeypatch):
        from repro.experiments import executors
        from repro.experiments.orchestrator import Job

        sent = []

        class SpyingConnection:
            def __init__(self, conn) -> None:
                self._conn = conn

            def send(self, message) -> None:
                sent.append(message)
                self._conn.send(message)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        class SpiedWorker(executors._Worker):
            def __init__(self) -> None:
                super().__init__()
                self.conn = SpyingConnection(self.conn)

        monkeypatch.setattr(executors, "_Worker", SpiedWorker)
        jobs = _resilience_jobs(5, seed_base=141)
        stats = run_jobs(jobs, workers=2)
        assert stats.executed == 5
        assert all(type(message) is Job for message in sent)
        assert sorted(message.key for message in sent) == sorted(j.key for j in jobs)

    def test_fully_cached_sweep_starts_no_worker(self, tmp_path, monkeypatch):
        from repro.experiments import executors

        jobs = _resilience_jobs(2, seed_base=151)
        store = ResultStore(str(tmp_path / "store.journal"))
        run_jobs(jobs, workers=1, store=store)
        started = []

        class CountedWorker(executors._Worker):
            def __init__(self) -> None:
                started.append(self)
                super().__init__()

        monkeypatch.setattr(executors, "_Worker", CountedWorker)
        stats = run_jobs(jobs, workers=2, job_timeout=30, store=store)
        store.close()
        assert stats.cache_hits == 2 and stats.executed == 0
        assert started == []
