"""RunRecord schema v2: round-trips, v1 migration, and the v2 result store.

The critical property: a v1 store file (flat ``SimulationResult`` dicts, as
written by the PR 1/2 orchestrator) opens through migration and serves every
entry from cache — zero simulations re-run — and the next flush persists the
upgraded v2 format.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import SimulationConfig
from repro.experiments.orchestrator import SweepSpec, run_sweep
from repro.metrics import SimulationResult
from repro.record import RECORD_SCHEMA_VERSION, RunRecord
from repro.session import Session
from repro.store import STORE_VERSION, ResultStore, StoreError, scan_frames


def make_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(warmup_cycles=150, measure_cycles=300)
    return dataclasses.replace(base, **overrides)


def build_config() -> SimulationConfig:
    return make_config()


def sample_summary(**overrides) -> SimulationResult:
    base = dict(
        offered_load=0.5, accepted_load=0.42, average_latency=150.5,
        latency_p99=310.0, packets_delivered=100, packets_generated=120,
        phits_delivered=800, measured_cycles=300, num_nodes=8,
        misrouted_fraction=0.1, deadlock_suspected=False, extra={"note": "x"},
    )
    base.update(overrides)
    return SimulationResult(**base)


class TestRunRecord:
    def test_roundtrip(self):
        record = RunRecord(
            summary=sample_summary(),
            channels={"timeseries": {"meta": {"interval": 10}, "data": [1, 2]}},
            windows=[{"label": "w0", "summary": sample_summary().to_dict()}],
            provenance={"config_key": "abc", "engine_cycles": 450},
        )
        clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.schema_version == RECORD_SCHEMA_VERSION
        assert dataclasses.asdict(clone.summary) == dataclasses.asdict(record.summary)
        assert clone.channels == record.channels
        assert clone.windows == record.windows
        assert clone.provenance == record.provenance

    def test_v1_payload_migrates(self):
        v1 = sample_summary().to_dict()  # flat dict: what v1 stores held
        record = RunRecord.from_dict(v1)
        assert record.schema_version == RECORD_SCHEMA_VERSION
        assert record.provenance["migrated_from"] == 1
        assert record.channels == {}
        assert dataclasses.asdict(record.summary) == v1

    def test_future_version_rejected(self):
        with pytest.raises(ValueError):
            RunRecord.from_dict({"schema_version": 99, "summary": {}})

    def test_session_record_from_live_run(self):
        record = Session(make_config().with_load(0.2)).run()
        assert record.schema_version == RECORD_SCHEMA_VERSION
        assert record.summary.packets_delivered > 0
        assert record.channels == {}  # no probes attached
        assert record.provenance["engine_cycles"] == 450


class TestStoreV2:
    def test_fresh_store_writes_v2(self, tmp_path):
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("s", build_config)], loads=[0.1], seeds=1)
        store = ResultStore(path)
        run_sweep(spec, workers=1, store=store)
        store.flush()
        with open(path, "rb") as handle:
            (header, entry), _ = scan_frames(handle.read())
        assert header["store_version"] == STORE_VERSION == 2
        assert entry["record"]["schema_version"] == RECORD_SCHEMA_VERSION

    def test_get_record_and_entries(self, tmp_path):
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("s", build_config)], loads=[0.1], seeds=1)
        store = ResultStore(path)
        outcome = run_sweep(spec, workers=1, store=store)
        key = spec.expand()[0].key
        record = store.get_record(key)
        assert isinstance(record, RunRecord)
        assert dataclasses.asdict(record.summary) == dataclasses.asdict(
            outcome.stats.results[key]
        )
        rows = list(store.entries())
        assert len(rows) == 1 and rows[0][0] == key
        assert rows[0][2]["series"] == "s"


class TestV1StoreMigration:
    def _write_v1_store(self, path, spec):
        """Produce a store in the exact v1 on-disk format for ``spec``."""
        outcome = run_sweep(spec, workers=1)
        v1 = {
            "version": 1,
            "results": {
                job.key: {
                    "result": outcome.stats.results[job.key].to_dict(),
                    "meta": {"series": job.series, "load": job.load,
                             "seed": job.seed},
                }
                for job in spec.expand()
            },
        }
        path.write_text(json.dumps(v1))
        return outcome

    def test_v1_store_serves_cache_without_resimulation(self, tmp_path):
        path = tmp_path / "store.json"
        spec = SweepSpec(series=[("s", build_config)], loads=[0.1, 0.25], seeds=1)
        reference = self._write_v1_store(path, spec)

        import repro.experiments.executors as executors

        executed = []
        original = executors._execute_job

        def spying_execute(job):
            executed.append(job.key)
            return original(job)

        executors._execute_job = spying_execute
        try:
            store = ResultStore(str(path))
            assert store.migrated == 2
            outcome = run_sweep(spec, workers=1, store=store)
        finally:
            executors._execute_job = original
        assert executed == []  # migration means no re-simulation
        assert outcome.stats.cache_hits == 2 and outcome.stats.executed == 0
        for key, result in reference.stats.results.items():
            assert dataclasses.asdict(outcome.stats.results[key]) == dataclasses.asdict(result)

    def test_migrated_store_flushes_as_v2(self, tmp_path):
        path = tmp_path / "store.json"
        spec = SweepSpec(series=[("s", build_config)], loads=[0.1], seeds=1)
        self._write_v1_store(path, spec)
        store = ResultStore(str(path))
        store.flush()  # an import alone writes nothing
        assert json.loads(path.read_text())["version"] == 1
        store.put("fresh", sample_summary())
        store.flush()  # the first write replaces the file, v1 entries upgraded
        with open(path, "rb") as handle:
            payloads, _ = scan_frames(handle.read())
        assert payloads[0]["store_version"] == 2
        (entry,) = [p for p in payloads[1:] if p["key"] != "fresh"]
        assert entry["record"]["provenance"]["migrated_from"] == 1
        assert entry["meta"]["series"] == "s"

    def test_unknown_version_still_ignored(self, tmp_path):
        path = tmp_path / "store.json"
        text = '{"version": 999, "results": {"x": {}}}'
        path.write_text(text)
        # not read as an empty store any more: refused, bytes kept
        with pytest.raises(StoreError):
            ResultStore(str(path))
        assert path.read_text() == text


class TestProbedJobs:
    def test_context_probes_persist_channels(self, tmp_path):
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("s", build_config)], loads=[0.1], seeds=1)
        with ResultStore(path) as store:
            outcome = run_sweep(spec, workers=1, store=store, probes=("timeseries",))
        key = spec.expand()[0].key
        with ResultStore(path) as store:
            record = store.get_record(key)
        assert "timeseries" in record.channels
        assert record.provenance["probes"] == ["TimeSeriesProbe"]
        # Probing never changes the summary (zero-cost dispatch design).
        plain = run_sweep(spec, workers=1)
        assert dataclasses.asdict(outcome.stats.results[key]) == dataclasses.asdict(
            plain.stats.results[key]
        )

    def test_job_probes_roundtrip_spec(self):
        # Sweep probes reach every job that names none of its own, and
        # the jobs run as prepared: a job's own probes win.
        from repro.experiments.orchestrator import run_jobs

        plain, own = SweepSpec(
            series=[("s", build_config)], loads=[0.1, 0.2], seeds=1,
        ).expand()
        own = dataclasses.replace(own, probes=("timeseries",))
        stats = run_jobs([plain, own], workers=1, probes=("linkutil",))
        assert [job.probes for job in stats.jobs] == [("linkutil",), ("timeseries",)]
        assert [job.key for job in stats.jobs] == [plain.key, own.key]

    def test_unknown_probe_name_rejected(self):
        from repro.probes import make_probes

        with pytest.raises(ValueError):
            make_probes(["bogus"])
