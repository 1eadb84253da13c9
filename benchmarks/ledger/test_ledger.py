"""Self-test of the performance ledger (smoke sizes; collected by tier-1).

Checks the harness, not the simulator's speed: declarations and emissions
agree, names and counts fit the benchmark contract, simulated statistics are
identical across runs and across traced/untraced, failure counting works,
and the compare tool's verdicts follow the bounds.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

from . import compare
from .calibrate import NOMINAL_CPU_S, NOMINAL_IO_S, Calibration
from .harness import aggregate, collect_repeats
from .spec import LEDGER_DIR, ROOT, BENCHMARK_JSON, load_declaration
from .tracer import tail_percentile

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 7


@pytest.fixture(scope="module")
def declaration():
    return load_declaration()


def _run_all(declaration, traced):
    return {
        "seed": SEED, "smoke": True, "machine": {},
        "workloads": {
            name: aggregate(
                name, collect_repeats(name, SEED, 0.0, traced, smoke=True),
                SEED, traced, True, declaration,
            )
            for name in declaration.workloads
        },
    }


@pytest.fixture(scope="module")
def untraced(declaration):
    return _run_all(declaration, traced=False)


@pytest.fixture(scope="module")
def traced(declaration):
    return _run_all(declaration, traced=True)


def test_declaration_fits_the_contract(declaration):
    raw = json.loads(BENCHMARK_JSON.read_text())
    assert set(raw) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert raw["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16
    assert 1 <= len(raw["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in raw[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in raw["workloads"])
    setup = declaration.end_to_end["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert all(0 < m.bound <= 0.25 for m in declaration.end_to_end.values())
    assert setup.bound == max(m.bound for m in declaration.end_to_end.values())


def test_every_declared_metric_is_emitted_and_vice_versa(declaration, untraced, traced):
    for result, declared in ((untraced, declaration.end_to_end),
                             (traced, declaration.per_layer)):
        for name, entry in result["workloads"].items():
            assert set(entry["metrics"]) == set(declared), name
            for metric, row in entry["metrics"].items():
                assert row["unit"] == declared[metric].unit
    for entry in untraced["workloads"].values():
        # end-to-end metrics are never 0.
        assert all(row["median"] > 0 for row in entry["metrics"].values())


def test_runs_are_correct_and_statistics_repeat_exactly(untraced, traced):
    for name, first in untraced["workloads"].items():
        second = traced["workloads"][name]
        assert first["correct"] and second["correct"], (first["problems"],
                                                        second["problems"])
        assert first["failed"] == second["failed"] == 0
        # traced == untraced, and one run == the next.
        assert first["sim_fingerprint"] == second["sim_fingerprint"]
        assert second["metrics"]["session.fingerprint_match"]["median"] == 1.0
        for key, value in first["counts"].items():
            assert second["counts"][key] == value, (name, key)


def test_layers_separate_as_predicted(traced):
    metrics = {name: {k: row["median"] for k, row in entry["metrics"].items()}
               for name, entry in traced["workloads"].items()}
    for name in ("store_churn", "store_replay"):
        store = metrics[name]
        assert store["engine.ticks"] == 0 and store["router.pump_calls"] == 0
        assert store["store.superseded"] > 0 and store["store.lookup_us"] > 0
    # only the write side flushes; the replay passes share one journal.
    assert metrics["store_churn"]["store.flushes"] > 0
    assert metrics["store_replay"]["store.flushes"] == 0
    for name in ("h2_un_low", "h2_un_sat", "h2_adv_val", "h6_un_low"):
        sim = metrics[name]
        assert sim["engine.ticks"] > 0 and sim["store.flushes"] == 0
        assert sim["trace.coverage_frac"] + sim["engine.tick_overhead_frac"] \
            == pytest.approx(1.0)
    assert metrics["h2_adv_val"]["router.misrouted_frac"] > 0
    assert metrics["h2_un_sat"]["router.misrouted_frac"] == 0
    sweep = metrics["sweep_fig5"]
    assert sweep["orchestrator.jobs_executed"] == sweep["orchestrator.cache_hits"] > 0
    assert sweep["orchestrator.serial_wall_s"] > 0


def test_read_back_detects_a_corrupted_record(declaration):
    collected = collect_repeats("store_churn", SEED, 0.0, False, smoke=True, corrupt=True)
    entry = aggregate("store_churn", collected, SEED, False, True, declaration)
    assert entry["failed"] == 1 and not entry["correct"]
    assert any("read-back mismatch" in text for text in entry["problems"])


def test_compare_verdicts_follow_the_bounds(untraced, tmp_path, capsys):
    # a smoke run makes one repeat, and one sample resolves nothing.
    assert {r["verdict"] for r in compare.compare_results(untraced, untraced)[0]
            if r["metric"] == "work_per_ref_s"} == {"unresolved"}
    steady = copy.deepcopy(untraced)
    for entry in steady["workloads"].values():
        for row in entry["metrics"].values():
            row["q1"] = row["q3"] = row["median"]  # verdicts below are about medians
            row["n"] = compare.MIN_SAMPLES
    worse = copy.deepcopy(steady)
    row = worse["workloads"]["h2_un_sat"]["metrics"]["work_per_ref_s"]
    for key in ("median", "q1", "q3"):
        row[key] *= 0.6  # 40% slower against a 25% bound
    noisy = copy.deepcopy(steady)
    noisy["workloads"]["h2_un_low"]["metrics"]["setup_s"]["q3"] *= 1.5

    def verdicts(other):
        return {(r["workload"], r["metric"]): r["verdict"]
                for r in compare.compare_results(steady, other)[0]}

    assert set(verdicts(steady).values()) == {"unchanged"}
    assert verdicts(worse)[("h2_un_sat", "work_per_ref_s")] == "worse"
    assert verdicts(noisy)[("h2_un_low", "setup_s")] == "unresolved"

    paths = {}
    for label, data in (("a", steady), ("worse", worse), ("noisy", noisy)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(data))
    assert compare.main(str(paths["a"]), str(paths["a"]), agreement=True) == 0
    assert compare.main(str(paths["a"]), str(paths["worse"]), agreement=False) == 1
    assert compare.main(str(paths["a"]), str(paths["noisy"]), agreement=False) == 0
    assert compare.main(str(paths["a"]), str(paths["noisy"]), agreement=True) == 1
    assert "0.600x" in capsys.readouterr().out  # ratios are printed with base A


def test_driver_entry_prints_one_result_line(declaration):
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--workload", "h2_un_low",
         "--seed", "11", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(declaration.end_to_end)
    assert all(set(row) == {"value", "unit"} for row in result["metrics"].values())


def test_driver_entry_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "h2_un_low",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_reference_seconds_rescale_by_the_speed_the_kernels_ran_at(tmp_path):
    # a host at half speed takes twice the wall; the reference seconds agree.
    fast, slow = Calibration(), Calibration()
    fast.wall_s, fast.cpu_samples = 2.0, [NOMINAL_CPU_S, NOMINAL_CPU_S]
    slow.wall_s, slow.cpu_samples = 4.0, [2 * NOMINAL_CPU_S, 2 * NOMINAL_CPU_S]
    assert fast.reference_s == pytest.approx(2.0)
    assert slow.reference_s == pytest.approx(2.0) and slow.cpu_speed == pytest.approx(0.5)
    # with an io kernel the blocked time follows the io speed, the rest the CPU's.
    mixed = Calibration()
    mixed.wall_s, mixed.cpu_s = 3.0, 1.0
    mixed.cpu_samples, mixed.io_samples = [NOMINAL_CPU_S], [4 * NOMINAL_IO_S]
    assert mixed.reference_s == pytest.approx(1.0 + 2.0 / 4)

    real = Calibration(io_path=str(tmp_path / "scratch"))
    assert real.run(sum, [1, 2]) == 3
    real.close()
    assert len(real.cpu_samples) == len(real.io_samples) == 2
    assert real.wall_s > 0 and real.reference_s > 0
    beside = Calibration()
    with beside.background(period_s=0.01):
        pass
    assert beside.cpu_samples and beside.wall_s > 0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    percentile, value = tail_percentile([float(i) for i in range(1, 801)])
    assert value == 790.0 and percentile == pytest.approx(98.75)
    assert tail_percentile([1.0] * 19) == (50.0, None)
