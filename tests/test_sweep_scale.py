"""Sweep-scale execution tests: store addresses, shared artifacts, dispatch.

The contract under test:

* sweeps are **bit-identical** to per-job fresh-build execution at any
  worker count — dispatch order and artifact reuse are execution-strategy
  changes only;
* interrupted sweeps resume from the store without recomputing anything
  already persisted;
* a point is stored and served under its config key alone, and records
  older stores hold under other addresses are never served.
"""

from __future__ import annotations

import dataclasses
import pickle

from repro.config import SimulationConfig
from repro.experiments.orchestrator import (
    run_jobs,
    run_sweep,
    SweepSpec,
)
from repro.faults import FaultSchedule, LinkDown, LinkUp
from repro.keys import config_key, key_payload
from repro.metrics import SimulationResult
from repro.session import Session
from repro.simulation import Simulation, build_artifacts
from repro.store import ResultStore


def make_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(warmup_cycles=150, measure_cycles=300)
    return dataclasses.replace(base, **overrides)


def build_config() -> SimulationConfig:
    return make_config()


def make_result(offered: float, accepted: float) -> SimulationResult:
    return SimulationResult(
        offered_load=offered,
        accepted_load=accepted,
        average_latency=100.0,
        latency_p99=200.0,
        packets_delivered=10,
        packets_generated=12,
        phits_delivered=80,
        measured_cycles=300,
        num_nodes=72,
        misrouted_fraction=0.0,
        deadlock_suspected=False,
    )


# ---------------------------------------------------------------------------
# Keys: single-pass expansion
# ---------------------------------------------------------------------------

class TestKeys:
    def test_expand_keys_match_full_serialization(self):
        """The one-asdict-per-series fast path must agree with config_key."""
        from repro.config import NetworkConfig
        from repro.core.arrangement import VcArrangement

        def hyperx_flexvc() -> SimulationConfig:
            return make_config(
                network=NetworkConfig(topology="hyperx", params={"s": (4, 3, 3)}),
                routing=dataclasses.replace(
                    make_config().routing, vc_policy="flexvc", algorithm="val"
                ),
                arrangement=VcArrangement.single_class(4, 2),
            )

        def faulted() -> SimulationConfig:
            return make_config(
                faults=FaultSchedule(events=(LinkDown(100, 0, 3), LinkUp(200, 0, 3)))
            )

        spec = SweepSpec(
            series=[("df", build_config), ("hx", hyperx_flexvc), ("faults", faulted)],
            loads=[0.1, 0.35],
            seeds=2,
        )
        jobs = spec.expand()
        for job in jobs:
            assert job.key == config_key(job.config)
            assert pickle.loads(pickle.dumps(job)) == job
        # The schedule is part of the address; the empty default is not.
        assert "faults" in key_payload(jobs[-1].config)
        assert "faults" not in key_payload(jobs[0].config)
        assert jobs[-1].key != config_key(dataclasses.replace(jobs[-1].config,
                                                              faults=FaultSchedule()))

    def test_keys_pinned_to_literals(self):
        """Stores are addressed by these digests (taken at 8f5e6d3): a drift
        passes every self-consistency check and only shows as a cold cache."""
        from repro.experiments.runner import TINY, base_config

        assert config_key(SimulationConfig()) == "6498ae9e3d6299285dbdc254"
        assert config_key(base_config(TINY)) == "fe8a19e68ef09c90bc6ab78c"
        loaded = base_config(TINY).with_load(0.7)
        assert config_key(loaded) == "87d45d214bdb85725d4d20cb"
        spec = SweepSpec(series=[("tiny", lambda: base_config(TINY))], loads=[0.7])
        assert [job.key for job in spec.expand()] == [config_key(loaded)]

    #: sha256[:16] of the lookups one sweep makes, per kind of address,
    #: taken at e4360fa.
    ADDRESS_DIGESTS = {
        "plain": "9364dbe25443fc18",
        "faults": "3b52e61cf4a44cd6",
    }

    def test_store_addresses_pinned_to_a_digest(self, tmp_path):
        """The addresses a sweep reads its results under, one digest per kind
        of address: plain, and a key with a fault schedule folded in.  Every
        lookup is answered from a stub record, so nothing simulates."""
        import hashlib
        import json

        from repro.experiments import ResultStore, SweepSpec, run_sweep
        from repro.faults import parse_faults
        from repro.record import RunRecord

        class AskedStore(ResultStore):
            """Answers every lookup with one stub record; keeps the keys."""

            def __init__(self, path):
                super().__init__(path)
                self.asked = []

            def get_record_any(self, *keys):
                self.asked.append(keys)
                return RunRecord.from_summary(make_result(0.0, 0.0))

        def routed() -> SimulationConfig:
            base = make_config()
            return dataclasses.replace(
                base, routing=dataclasses.replace(base.routing, vc_selection="random")
            )

        spec = SweepSpec(
            series=[("df", build_config), ("random", routed)],
            loads=[0.1, 0.35],
            seeds=2,
        )
        overrides = {
            "plain": {},
            "faults": {"faults": parse_faults("link:0:3@400-900")},
        }
        digests = {}
        for kind, override in overrides.items():
            store = AskedStore(str(tmp_path / f"{kind}.journal"))
            outcome = run_sweep(spec, workers=1, store=store, **override)
            assert outcome.stats.cache_hits == 8 and outcome.stats.executed == 0
            payload = json.dumps(store.asked).encode()
            digests[kind] = hashlib.sha256(payload).hexdigest()[:16]
        assert digests == self.ADDRESS_DIGESTS
    def test_legacy_mode_records_are_labelled_and_never_served(self, tmp_path, capsys):
        """Stores written before sweeps had one measurement protocol hold
        points copied from a lower load (``:extrapolated:<hash>``) and points
        measured in convergence windows (``:cw<hash>``).  A sweep simulates
        the point again, and ``inspect`` labels both records."""
        from repro.experiments.__main__ import main
        from repro.record import RunRecord

        spec = SweepSpec(
            series=[("s", lambda: make_config(warmup_cycles=50, measure_cycles=100))],
            loads=[0.3],
        )
        (job,) = spec.expand()
        path = str(tmp_path / "legacy.journal")
        store = ResultStore(path)
        meta = {"series": "s", "load": 0.3, "seed": job.seed}
        store.put_record(
            job.key + ":extrapolated:d6beb6a6",
            RunRecord.from_summary(
                make_result(0.3, 0.25),
                extrapolated=True,
                extrapolated_from_load=0.2,
                source_config_key="0" * 24,
            ),
            meta={**meta, "extrapolated": True},
        )
        store.put_record(
            job.key + ":cw4a162c1e",
            RunRecord.from_summary(
                make_result(0.3, 0.29),
                convergence={
                    "converged": True,
                    "windows": 3,
                    "measured_cycles": 30,
                    "budget_cycles": 100,
                },
            ),
            meta=meta,
        )
        store.close()

        outcome = run_sweep(spec, workers=1, store=ResultStore(path))
        assert (outcome.stats.executed, outcome.stats.cache_hits) == (1, 0)

        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "EXTRAPOLATED from load 0.2" in out
        assert "converged in 3 windows (30 of 100 budget cycles)" in out
        assert "3 of 3 entries shown" in out


# ---------------------------------------------------------------------------
# Shared construction artifacts (the topology registry's build cache)
# ---------------------------------------------------------------------------

class TestArtifactCache:
    def test_artifact_backed_runs_are_bit_identical(self):
        config = make_config().with_load(0.25)
        fresh = dataclasses.asdict(Session(config).run().summary)
        artifacts = build_artifacts(config)
        for _ in range(2):  # reuse the same artifacts twice
            shared = dataclasses.asdict(
                Session(simulation=Simulation(config, artifacts=artifacts)).run().summary
            )
            assert shared == fresh

    def test_sweep_builds_a_network_once_whatever_the_routing(self):
        """Every executed job counts as a build-cache hit or miss, and series
        differing only in routing share the one build."""
        from repro.config import NetworkConfig

        # A parameter set no other test builds: the registry is process-wide.
        network = NetworkConfig(topology="dragonfly", params={"h": 2, "num_groups": 7})

        def random_selection() -> SimulationConfig:
            base = make_config(network=network)
            return dataclasses.replace(
                base, routing=dataclasses.replace(base.routing, vc_selection="random")
            )

        spec = SweepSpec(
            series=[
                ("lowest", lambda: make_config(network=network)),
                ("random", random_selection),
            ],
            loads=[0.1, 0.2],
            seeds=2,
        )
        stats = run_sweep(spec, workers=1).stats
        assert stats.executed == 8
        assert stats.artifact_hits + stats.artifact_misses == 8
        assert stats.artifact_misses == 1

    def test_build_cache_lru_refreshes_on_read_and_evicts_oldest(self):
        from repro.cache import BoundedLRU

        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # touch: "b" is now least recently used
        lru.put("c", 3)
        assert (lru.get("a"), lru.get("b"), lru.get("c")) == (1, None, 3)
        assert len(lru) == 2

    def test_shared_topology_and_route_table_instances(self):
        a = build_artifacts(make_config())
        b = build_artifacts(make_config().with_load(0.9))
        assert a.topology is b.topology
        assert a.route_table is b.route_table
        private = Simulation(make_config())
        assert private.topology is not a.topology
        assert private.route_table is not a.route_table


# ---------------------------------------------------------------------------
# Dispatch equivalence: any worker count, any order, one result per point
# ---------------------------------------------------------------------------

class TestDispatchEquivalence:
    SPEC = dict(loads=[0.15, 0.3], seeds=2)

    def _spec(self) -> SweepSpec:
        return SweepSpec(series=[("uniform", build_config)], **self.SPEC)

    def _store_payload(self, path) -> dict:
        """Store contents reduced to what must be invariant: key -> summary."""
        return {
            key: record.summary.to_dict()
            for key, record, _meta in ResultStore(str(path)).entries()
        }

    def test_dispatched_and_cached_matches_per_job_fresh_builds(self, tmp_path):
        """workers in {1, 2, 4}, heaviest load first with shared artifacts
        == the serial per-job path with fresh builds, in spec order."""
        def short() -> SimulationConfig:
            return make_config(warmup_cycles=50, measure_cycles=100)

        def damq() -> SimulationConfig:
            base = short()
            return dataclasses.replace(
                base,
                router=dataclasses.replace(base.router, buffer_organization="damq"),
            )

        spec = SweepSpec(
            series=[("static", short), ("damq", damq)], loads=[0.15, 0.3, 0.6], seeds=4
        )
        jobs = spec.expand()
        assert len(jobs) == 24
        # Reference: per-job dispatch, fresh artifacts per simulation.
        reference = {
            job.key: dataclasses.asdict(Session(job.config).run().summary)
            for job in jobs
        }
        payloads = {}
        for workers in (1, 2, 4):
            path = str(tmp_path / f"store_{workers}.json")
            outcome = run_sweep(spec, workers=workers, store=ResultStore(path))
            assert outcome.stats.executed == len(reference)
            for key, expected in reference.items():
                assert dataclasses.asdict(outcome.stats.results[key]) == expected
            payloads[workers] = self._store_payload(path)
        # Store contents (config keys + summaries) identical across modes.
        first = next(iter(payloads.values()))
        for payload in payloads.values():
            assert payload == first

    def test_resume_recomputes_nothing_stored(self, tmp_path, monkeypatch):
        """A killed sweep resumes: stored points never re-execute."""
        path = str(tmp_path / "store.json")
        spec = self._spec()
        jobs = spec.expand()

        # Simulate the interruption: only half the sweep completed+flushed.
        half = len(jobs) // 2
        run_jobs(jobs[:half], workers=1, store=ResultStore(path))

        import repro.experiments.executors as executors

        executed_keys = []
        original = executors._execute_job

        def spying_execute(job):
            executed_keys.append(job.key)
            return original(job)

        monkeypatch.setattr(executors, "_execute_job", spying_execute)
        outcome = run_sweep(spec, workers=1, store=ResultStore(path))
        assert outcome.stats.cache_hits == half
        assert sorted(executed_keys) == sorted(j.key for j in jobs[half:])

    def test_flush_interval_zero_checkpoints_every_result(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = ResultStore(path, flush_interval=0.0)
        flush = store.flush
        sizes = []

        def counting_flush():
            flush()
            sizes.append(len(ResultStore(path)))

        store.flush = counting_flush
        jobs = self._spec().expand()
        run_jobs(jobs, workers=1, store=store)
        # One checkpoint per completed point, each on disk when it returns,
        # then the run's closing flush.
        assert sizes == [*range(1, len(jobs) + 1), len(jobs)]
