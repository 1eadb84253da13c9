"""The figure layer: the FIGURES registry, run_figure, render_figure, the CLI.

Expansion is pinned (``tests/data/pins.json``) against digests measured at
the commit before the registry existed (from ``figureN(scale="tiny")`` and
the two topology sweeps), so no figure can silently start simulating other
configurations.
"""

from __future__ import annotations

import dataclasses
import errno
import fcntl
import os
from functools import partial

import pytest

from repro.experiments import (
    FIGURES,
    TINY,
    Figure,
    figure_sweep,
    render_figure,
    run_figure,
    topology_series,
)
from repro.experiments.__main__ import main
from repro.experiments.runner import SCALES
from repro.store import ResultStore, StoreLock
from repro.topology import TOPOLOGIES, register_topology
from repro.topology.flattened_butterfly import (
    FlattenedButterfly2D,
    FlattenedButterflyParams,
)

from pins import PINS, digest

#: runs in milliseconds per job: 72 nodes, 90 cycles, one load.
MICRO = dataclasses.replace(TINY, warmup_cycles=30, measure_cycles=60, loads=(0.5,))


class TestExpansion:
    def test_every_registered_figure_is_pinned(self):
        prefix = "tests/test_figures.py::TestExpansion::test_tiny_jobs_are_the_parents["
        assert {key[len(prefix):-1] for key in PINS if key.startswith(prefix)} == set(FIGURES)

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_tiny_jobs_are_the_parents(self, name, pin):
        """Pinned: the digest of the sorted "load|seed|config_key" lines and
        the job count, at scale="tiny" with default patterns and seeds."""
        jobs = figure_sweep(name, scale="tiny")[1].expand()
        lines = sorted(f"{job.load}|{job.seed}|{job.key}" for job in jobs)
        pin([digest("\n".join(lines)), len(jobs)])

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_job_labels_are_unique_and_name_their_panel(self, name):
        panels, spec = figure_sweep(name, scale="tiny")
        labels = [label for label, _ in spec.series]
        assert len(labels) == len(set(labels))
        assert {label.split("|")[0] for label in labels} == set(panels)

    def test_patterns_select_panels(self):
        panels, spec = figure_sweep("fig5", scale="tiny", patterns=("uniform",))
        assert list(panels) == ["uniform"]
        assert len(spec.expand()) == 20

    def test_bar_figures_label_group_between_panel_and_series(self):
        labels = [label for label, _ in figure_sweep("fig9")[1].series]
        assert labels[:2] == ["uniform|Baseline", "uniform|DAMQ"]
        assert "uniform|6/4 (4/3+2/1)|FlexVC lowest" in labels


class TestRunAndRender:
    @pytest.mark.parametrize("name", ["fig10", "fig9"])
    def test_second_pass_is_all_cache_hits_and_renders_every_series(
        self, tmp_path, name
    ):
        with ResultStore(str(tmp_path / "store.journal")) as store:
            first, _ = run_figure(name, scale=MICRO, store=store)
            jobs = store.writes
            assert jobs == len(figure_sweep(name, scale=MICRO)[1].expand())
            second, outcome = run_figure(name, scale=MICRO, store=store)
            assert store.writes == jobs and store.hits == jobs
        assert (outcome.stats.cache_hits, outcome.stats.executed) == (jobs, 0)
        entries = second["uniform"]
        assert [e.results for e in first["uniform"]] == [e.results for e in entries]
        assert all(len(entry.results) == 1 and not entry.missing for entry in entries)

        text = render_figure(name, second)
        assert all(entry.label in text for entry in entries)
        bars = name == "fig9"
        assert ("(accepted load at 100% offered)" in text) == bars
        assert ("average packet latency" in text) == (not bars)
        if bars:  # one row per arrangement, the reference bars on each of them
            rows = text.splitlines()[3:]
            assert [row.split("  ")[1] for row in rows] == list(
                dict.fromkeys(entry.group for entry in entries if entry.group)
            )
            baseline = f"{entries[0].results[0].accepted_load:.3f}"
            assert all(baseline in row for row in rows)

    def test_stored_series_label_names_the_panel(self, tmp_path):
        with ResultStore(str(tmp_path / "store.journal")) as store:
            run_figure("fig10", scale=MICRO, store=store)
            series = {meta["series"] for _key, _record, meta in store.entries()}
        assert series == {
            f"uniform|reserved {percent}%" for percent in (0, 25, 50, 75, 100)
        }


class TestCli:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        listed = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        ]
        assert listed == [*FIGURES, "tables"] and len(listed) == 10

    def test_unknown_experiment_is_a_usage_error(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment(s): nope" in capsys.readouterr().err

    def test_failed_point_is_reported_not_raised(self, tmp_path, monkeypatch, capsys):
        # One job of the figure hangs; the pool executor times it out into a
        # JobFailure.  The figure must still render (the point as "-"), name
        # the missing point on stderr and exit 1.
        monkeypatch.setitem(SCALES, "tiny", MICRO)
        hung = figure_sweep("fig10", scale="tiny")[1].expand()[0]
        assert hung.series == "uniform|reserved 0%"
        monkeypatch.setenv("REPRO_TEST_HANG_KEY", hung.key)
        monkeypatch.setenv("REPRO_TEST_HANG_SECONDS", "60")
        status = main([
            "run", "fig10", "--workers", "2",
            "--job-timeout", "3", "--store", str(tmp_path / "store.journal"),
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert (
            "[fig10] missing: uniform|reserved 0% load=0.5 seed=1: timeout"
            in captured.err
        )
        row = next(
            line for line in captured.out.splitlines() if "reserved 0%" in line
        )
        assert row.split() == ["reserved", "0%", "-"]
        assert "4 point(s) simulated, 0 served from cache, 1 missing" in captured.out


    @pytest.mark.parametrize("failure", ["locked", "no-flock"])
    def test_store_lock_error_at_open_is_one_error_line(
        self, failure, tmp_path, monkeypatch, capsys
    ):
        # A writable open takes the store's lock, fresh path included, so
        # every lock error comes at open, before any point runs.
        monkeypatch.setitem(SCALES, "tiny", MICRO)
        store = str(tmp_path / "store.journal")
        holder = StoreLock(store)
        if failure == "locked":
            assert holder.try_acquire()  # another writer of this store
            named = f"pid {os.getpid()} on "
        else:
            def no_locks(fd, operation):
                raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

            monkeypatch.setattr(fcntl, "flock", no_locks)
            named = store + ".lock"
        try:
            status = main(["run", "fig10", "--workers", "1", "--store", store])
        finally:
            holder.release()
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert status == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert store in err[0] and named in err[0]
        assert "point(s) simulated" not in captured.out
        assert not os.path.exists(store)

    def test_summary_reports_the_sweeps_own_counts(self, tmp_path, monkeypatch, capsys):
        # The [fig10] and [sweep] lines print the sweep's own JobRunStats,
        # here for a cold run and for one that is half served from the store.
        import re

        import repro.experiments.__main__ as cli

        outcomes = []

        def spying_sweep(*args, **kwargs):
            panels, outcome = run_figure(*args, **kwargs)
            outcomes.append(outcome)
            return panels, outcome

        monkeypatch.setattr(cli, "run_figure", spying_sweep)
        argv = ["run", "fig10", "--verbose", "--store", str(tmp_path / "store.journal")]

        def run_and_compare(scale):
            """Run once at ``scale``; both lines must read the stats."""
            monkeypatch.setitem(SCALES, "tiny", scale)
            assert main(argv) == 0
            captured = capsys.readouterr()
            stats = outcomes.pop().stats
            summary = next(
                line for line in captured.out.splitlines() if line.startswith("[fig10]")
            )
            counts = {
                name: int(number)
                for number, name in re.findall(
                    r"(\d+) (point\(s\) simulated|served from cache)", summary
                )
            }
            assert counts["point(s) simulated"] == stats.executed
            assert counts["served from cache"] == stats.cache_hits
            total = stats.executed + stats.cache_hits
            assert (
                f"{total}/{total} points | {stats.executed} simulated, "
                f"{stats.cache_hits} cached |"
                in captured.err.splitlines()[-1]
            )
            return stats, summary

        cold, _ = run_and_compare(MICRO)
        assert (cold.executed, cold.cache_hits) == (5, 0)
        ladder = dataclasses.replace(MICRO, loads=(0.5, 0.7))
        rerun, summary = run_and_compare(ladder)
        assert (rerun.executed, rerun.cache_hits) == (5, 5)
        assert "5 point(s) simulated, 5 served from cache" in summary


class TestNetworkFor:
    def test_aliases_size_like_their_canonical_name(self):
        for name in TOPOLOGIES.names():
            canonical = TINY.network_for(name)
            assert canonical.topology == name
            for alias in TOPOLOGIES.get(name).aliases:
                assert TINY.network_for(alias) == canonical

    def test_unknown_topology_is_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            TINY.network_for("moebius")

    def test_user_registered_topology_needs_no_sizing_row(self):
        @register_topology("throwaway", FlattenedButterflyParams)
        def _build(params: FlattenedButterflyParams) -> FlattenedButterfly2D:
            return FlattenedButterfly2D(
                k1=params.k1, k2=params.k2, p=params.nodes_per_router
            )

        FIGURES["throwaway"] = Figure(
            "throwaway", partial(topology_series, topology="throwaway"),
            patterns=("uniform",),
        )
        try:
            network = TINY.network_for("throwaway")
            assert network.topology == "throwaway"
            assert dict(network.params) == dataclasses.asdict(
                FlattenedButterflyParams()
            )
            series = topology_series(TINY, "uniform", topology="throwaway")
            assert len(series) == 8
            assert all(entry.builder().network == network for entry in series)
            assert len(figure_sweep("throwaway")[1].expand()) == 8 * len(TINY.loads)
        finally:
            del FIGURES["throwaway"]
            del TOPOLOGIES._specs["throwaway"]
