"""Sweep-scale execution tests: shared artifacts, chunking, adaptive, converge.

The contract under test (ISSUE 5 acceptance criteria):

* default-mode sweeps are **bit-identical** to per-job fresh-build execution
  at any worker count, whatever chunk size it gives — chunked dispatch and
  artifact reuse are execution-strategy changes only;
* interrupted sweeps resume from the store without recomputing anything
  already persisted, chunking included;
* adaptive scheduling and convergence-window measurement are opt-in, flag
  their provenance, and never pollute the default cache namespace.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.config import SimulationConfig
from repro.experiments.adaptive import EXTRAPOLATED_KEY_SUFFIX, AdaptiveSettings
from repro.experiments.executors import _chunk_pending
from repro.experiments.orchestrator import (
    run_jobs,
    run_sweep,
    store_key,
    SweepSpec,
)
from repro.keys import config_key
from repro.metrics import SimulationResult
from repro.router.saturation import is_saturated_point
from repro.session import ConvergenceSettings, Session, _relative_half_width
from repro.simulation import Simulation, build_artifacts
from repro.store import ResultStore


def make_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(warmup_cycles=150, measure_cycles=300)
    return dataclasses.replace(base, **overrides)


def build_config() -> SimulationConfig:
    return make_config()


def make_result(offered: float, accepted: float, deadlock: bool = False) -> SimulationResult:
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
        deadlock_suspected=deadlock,
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

        spec = SweepSpec(
            series=[("df", build_config), ("hx", hyperx_flexvc)],
            loads=[0.1, 0.35],
            seeds=2,
        )
        for job in spec.expand():
            assert job.key == config_key(job.config)
            assert pickle.loads(pickle.dumps(job)) == job

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

    def test_store_addresses_pinned_to_a_digest(self, tmp_path):
        """The addresses a sweep reads its results under, for the four kinds
        of address there are: plain, convergence-suffixed, the extrapolated
        alias adaptive mode also probes, and a key with a fault schedule
        folded in.  Every lookup is answered from a stub record, so nothing
        simulates; the digest was taken at e4360fa."""
        import hashlib
        import json

        from repro.experiments import (
            AdaptiveSettings,
            ResultStore,
            SweepSpec,
            run_sweep,
        )
        from repro.faults import parse_faults
        from repro.record import RunRecord

        class AskedStore(ResultStore):
            """Answers every lookup with one unsaturated record; keeps the keys."""

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
        addresses = []
        for overrides in (
            {},
            {"converge": ConvergenceSettings()},
            {"adaptive": AdaptiveSettings()},
            {"faults": parse_faults("link:0:3@400-900")},
        ):
            store = AskedStore(str(tmp_path / f"{len(addresses)}.journal"))
            outcome = run_sweep(spec, workers=1, store=store, **overrides)
            assert outcome.stats.cache_hits == 8 and outcome.stats.executed == 0
            addresses.append(store.asked)
        digest = hashlib.sha256(json.dumps(addresses).encode()).hexdigest()[:16]
        assert digest == "88519243f5be3baa"

    def test_store_key_suffixes_convergence_mode(self):
        job = SweepSpec(series=[("s", build_config)], loads=[0.1]).expand()[0]
        assert store_key(job) == job.key
        converged = dataclasses.replace(job, converge=ConvergenceSettings())
        assert store_key(converged).startswith(job.key + ":cw")
        other = dataclasses.replace(
            job, converge=ConvergenceSettings(rel_tol=0.01)
        )
        assert store_key(converged) != store_key(other)


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
# Chunked execution equivalence (the tentpole default-mode guarantee)
# ---------------------------------------------------------------------------

class TestChunkedEquivalence:
    SPEC = dict(loads=[0.15, 0.3], seeds=2)

    def _spec(self) -> SweepSpec:
        return SweepSpec(series=[("uniform", build_config)], **self.SPEC)

    def _store_payload(self, path) -> dict:
        """Store contents reduced to what must be invariant: key -> summary."""
        return {
            key: record.summary.to_dict()
            for key, record, _meta in ResultStore(str(path)).entries()
        }

    def test_chunked_and_cached_matches_per_job_fresh_builds(self, tmp_path):
        """workers in {1, 2, 4}, hence chunks of 6, 3 and 2 jobs, chunked and
        cached == the serial per-job path."""
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
        for workers, size in ((1, 6), (2, 3), (4, 2)):
            assert {len(chunk) for chunk in _chunk_pending(jobs, workers)} == {size}
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
        """A killed chunked sweep resumes: stored points never re-execute."""
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


# ---------------------------------------------------------------------------
# Saturation-point detection
# ---------------------------------------------------------------------------

class TestSaturationPoint:
    def test_accepted_tracks_offered_is_not_saturated(self):
        assert not is_saturated_point(make_result(0.4, 0.39))

    def test_large_shortfall_is_saturated(self):
        assert is_saturated_point(make_result(0.9, 0.55))

    def test_margin_is_relative(self):
        assert not is_saturated_point(make_result(0.9, 0.86), margin=0.05)
        assert is_saturated_point(make_result(0.9, 0.86), margin=0.01)

    def test_deadlock_counts_as_saturated(self):
        assert is_saturated_point(make_result(0.1, 0.1, deadlock=True))

    def test_zero_load_never_saturated(self):
        assert not is_saturated_point(make_result(0.0, 0.0))


# ---------------------------------------------------------------------------
# Adaptive scheduling
# ---------------------------------------------------------------------------

class TestAdaptiveScheduling:
    LOADS = [0.2, 0.7, 0.8, 0.9, 1.0]

    def _spec(self) -> SweepSpec:
        return SweepSpec(series=[("sat", build_config)], loads=self.LOADS, seeds=1)

    def test_cutoff_extrapolates_remaining_loads(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.json"))
        outcome = run_sweep(
            self._spec(), workers=1, store=store,
            adaptive=AdaptiveSettings(cutoff_after=2, margin=0.05),
        )
        assert outcome.stats.executed + outcome.stats.extrapolated == len(self.LOADS)
        assert outcome.stats.extrapolated >= 1
        points = {load: outcome.point("sat", load) for load in self.LOADS}
        flagged = [
            load for load, result in points.items()
            if result.extra.get("extrapolated")
        ]
        # Extrapolation only ever affects the highest loads, contiguously.
        assert flagged == self.LOADS[-len(flagged):]
        for load, result in points.items():
            if result.extra.get("extrapolated"):
                assert result.offered_load == load
                assert result.extra["extrapolated_from_load"] < load

    def test_extrapolated_records_use_suffixed_store_keys(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = ResultStore(path)
        outcome = run_sweep(
            self._spec(), workers=1, store=store,
            adaptive=AdaptiveSettings(cutoff_after=1, margin=0.05),
        )
        assert outcome.stats.extrapolated >= 1
        stored = {
            key: (record, meta) for key, record, meta in ResultStore(path).entries()
        }
        extrapolated_keys = [
            key for key in stored if EXTRAPOLATED_KEY_SUFFIX in key
        ]
        assert len(extrapolated_keys) == outcome.stats.extrapolated
        for key in extrapolated_keys:
            record, meta = stored[key]
            assert meta["extrapolated"] is True
            assert record.provenance["extrapolated"] is True
            # Traceability: the record names the simulated run it copies.
            assert record.provenance["source_config_key"] in stored
            # The plain config key must NOT exist for extrapolated points.
            assert key.split(EXTRAPOLATED_KEY_SUFFIX)[0] not in stored

    def test_non_adaptive_rerun_resimulates_extrapolated_points(self, tmp_path):
        path = str(tmp_path / "store.json")
        first = run_sweep(
            self._spec(), workers=1, store=ResultStore(path),
            adaptive=AdaptiveSettings(cutoff_after=1, margin=0.05),
        )
        assert first.stats.extrapolated >= 1
        second = run_sweep(self._spec(), workers=1, store=ResultStore(path))
        assert second.stats.executed == first.stats.extrapolated
        assert second.stats.cache_hits == first.stats.executed

    def test_adaptive_resume_serves_extrapolated_records(self, tmp_path):
        path = str(tmp_path / "store.json")
        settings = AdaptiveSettings(cutoff_after=1, margin=0.05)
        first = run_sweep(
            self._spec(), workers=1, store=ResultStore(path), adaptive=settings
        )
        resumed = run_sweep(
            self._spec(), workers=1, store=ResultStore(path), adaptive=settings
        )
        assert resumed.stats.executed == 0 and resumed.stats.extrapolated == 0
        assert resumed.stats.cache_hits == len(self.LOADS)
        for key, result in first.stats.results.items():
            assert dataclasses.asdict(resumed.stats.results[key]) == dataclasses.asdict(result)

    def test_different_adaptive_settings_never_share_extrapolations(self, tmp_path):
        """An extrapolation is only valid under the settings that made it."""
        path = str(tmp_path / "store.json")
        first = run_sweep(
            self._spec(), workers=1, store=ResultStore(path),
            adaptive=AdaptiveSettings(cutoff_after=1, margin=0.05),
        )
        assert first.stats.extrapolated >= 1
        # A margin so wide nothing saturates: the old extrapolations must
        # not be served, and with no cutoff every point is simulated.
        second = run_sweep(
            self._spec(), workers=1, store=ResultStore(path),
            adaptive=AdaptiveSettings(cutoff_after=1, margin=0.5),
        )
        assert second.stats.cache_hits == first.stats.executed
        assert second.stats.executed == first.stats.extrapolated
        assert second.stats.extrapolated == 0

    def test_adaptive_without_saturation_simulates_everything(self):
        spec = SweepSpec(series=[("low", build_config)], loads=[0.05, 0.1], seeds=1)
        outcome = run_sweep(
            spec, workers=1, adaptive=AdaptiveSettings(cutoff_after=2, margin=0.5)
        )
        assert outcome.stats.extrapolated == 0
        assert outcome.stats.executed == 2

    def test_explicit_none_switches_the_blocks_adaptive_off(self):
        from repro.experiments.orchestrator import orchestration

        with orchestration(adaptive=AdaptiveSettings(cutoff_after=1, margin=0.05)):
            stats = run_sweep(self._spec(), workers=1, adaptive=None).stats
        assert stats.extrapolated == 0
        assert stats.executed == len(self.LOADS)

    def test_settings_validate(self):
        with pytest.raises(ValueError):
            AdaptiveSettings(cutoff_after=0)
        with pytest.raises(ValueError):
            AdaptiveSettings(margin=1.5)


# ---------------------------------------------------------------------------
# Convergence-window measurement
# ---------------------------------------------------------------------------

class TestConvergence:
    def test_relative_half_width(self):
        import math

        assert _relative_half_width([1.0], 0.95) == math.inf
        assert _relative_half_width([2.0, 2.0, 2.0], 0.95) == 0.0
        wide = _relative_half_width([1.0, 3.0], 0.95)
        narrow = _relative_half_width([1.9, 2.1], 0.95)
        assert wide > narrow > 0.0

    def test_settings_validate(self):
        with pytest.raises(ValueError):
            ConvergenceSettings(rel_tol=0.0)
        with pytest.raises(ValueError):
            ConvergenceSettings(confidence=0.5)
        with pytest.raises(ValueError):
            ConvergenceSettings(min_windows=1)
        with pytest.raises(ValueError):
            ConvergenceSettings(min_windows=5, max_windows=3)

    def test_budget_cap_and_provenance(self):
        config = make_config(measure_cycles=1000).with_load(0.3)
        session = Session(config)
        session.warmup()
        settings = ConvergenceSettings(rel_tol=0.2, min_windows=2, max_windows=5)
        combined = session.measure_converged(settings)
        record = session.record()
        info = record.provenance["convergence"]
        assert info["measured_cycles"] <= config.measure_cycles
        assert info["windows"] == combined.extra["convergence_windows"]
        assert record.summary.extra["convergence_windows"] == info["windows"]
        assert record.summary is combined or record.summary == combined
        # Per-batch windows ride along behind the combined headline.
        assert len(record.windows) == info["windows"] + 1

    def test_converged_early_spends_less_than_budget(self):
        config = make_config(measure_cycles=2000).with_load(0.2)
        session = Session(config)
        session.warmup()
        combined = session.measure_converged(
            ConvergenceSettings(rel_tol=0.5, min_windows=2, max_windows=10)
        )
        info = session.provenance_extra["convergence"]
        assert combined.extra["converged"] is True
        assert info["measured_cycles"] < config.measure_cycles

    def test_converge_mode_does_not_pollute_default_cache(self, tmp_path):
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("c", build_config)], loads=[0.2], seeds=1)
        converged = run_sweep(
            spec, workers=1, store=ResultStore(path),
            converge=ConvergenceSettings(min_windows=2, max_windows=4),
        )
        assert converged.stats.executed == 1
        # A default-mode sweep over the same store must not see it.
        plain = run_sweep(spec, workers=1, store=ResultStore(path))
        assert plain.stats.executed == 1 and plain.stats.cache_hits == 0
        # ... and the converge-mode rerun is served from its own key.
        again = run_sweep(
            spec, workers=1, store=ResultStore(path),
            converge=ConvergenceSettings(min_windows=2, max_windows=4),
        )
        assert again.stats.executed == 0 and again.stats.cache_hits == 1

    def test_converged_summary_flagged_in_store_record(self, tmp_path):
        path = str(tmp_path / "store.json")
        spec = SweepSpec(series=[("c", build_config)], loads=[0.2], seeds=1)
        run_sweep(
            spec, workers=1, store=ResultStore(path),
            converge=ConvergenceSettings(min_windows=2, max_windows=4),
        )
        ((key, record, _meta),) = ResultStore(path).entries()
        assert ":cw" in key
        assert "convergence" in record.provenance
