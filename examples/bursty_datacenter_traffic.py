#!/usr/bin/env python3
"""Bursty data-centre style traffic: buffer organizations under BURSTY-UN.

The paper motivates FlexVC partly by its ability to absorb traffic bursts
without dedicating a DAMQ-style shared memory to each port.  This example
drives the scaled Dragonfly with the two-state Markov ON/OFF traffic model
(average burst of 5 packets towards a fixed destination, as fitted to
data-centre traces) and compares, at a configurable load:

* the statically partitioned baseline,
* a DAMQ with the paper's 75% private reservation,
* FlexVC with the same 2/1 VC set, and
* FlexVC exploiting the 4/2 set that Valiant routing would need anyway.

With ``--timeseries`` the FlexVC 4/2 scenario is additionally run through a
phased Session with a :class:`~repro.probes.TimeSeriesProbe` attached —
warm-up, a measurement window, then a drain phase with injection stopped —
and a per-interval view of burst absorption (resident packets, accepted
load, latency) and post-burst recovery is printed.  This transient view is
exactly what the one-shot API could not express.

Run:  python examples/bursty_datacenter_traffic.py [--loads 0.3 0.5 0.7]
      python examples/bursty_datacenter_traffic.py --timeseries
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    RouterConfig,
    RoutingConfig,
    Session,
    SimulationConfig,
    TimeSeriesProbe,
    TrafficConfig,
    VcArrangement,
)


def transient_view(config: SimulationConfig, load: float, interval: int) -> None:
    """Session-driven transient demo: measure the burst regime, then drain."""
    probe = TimeSeriesProbe(interval)
    session = Session(config.with_load(load), probes=[probe])
    session.warmup()
    result = session.measure()
    drain_cycles = session.drain()
    record = session.record()

    print(f"\nTransient view (FlexVC 4/2, load {load:.2f}, "
          f"{interval}-cycle samples) — burst absorption and recovery:")
    print(f"{'cycle':>8s} {'phase':>8s} {'accepted':>9s} {'latency':>8s} "
          f"{'resident':>9s}")
    warmup_end = config.warmup_cycles
    measure_end = session.windows[0][1].measured_cycles + warmup_end
    for row in record.channel("timeseries")["data"]:
        cycle = row["cycle"]
        phase = ("warmup" if cycle <= warmup_end
                 else "measure" if cycle <= measure_end else "drain")
        print(f"{cycle:>8d} {phase:>8s} {row['accepted_load']:>9.3f} "
              f"{row['mean_latency']:>8.1f} {row['resident']:>9d}")
    print(f"\nsteady-state summary: {result}")
    print(f"drain: network empty after {drain_cycles} cycles with injection "
          "stopped (watch 'resident' fall back to 0 — the recovery tail "
          "after the last burst).")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--loads", type=float, nargs="+", default=[0.3, 0.5, 0.7])
    parser.add_argument("--burst-length", type=float, default=5.0)
    parser.add_argument("--cycles", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=1000)
    parser.add_argument("--timeseries", action="store_true",
                        help="run the FlexVC 4/2 scenario with a "
                             "TimeSeriesProbe and print the transient view")
    parser.add_argument("--interval", type=int, default=200,
                        help="time-series sample interval in cycles "
                             "(default: 200)")
    args = parser.parse_args()

    base = SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        traffic=TrafficConfig(pattern="bursty", load=0.5,
                              burst_length=args.burst_length),
    )
    scenarios = {
        "Baseline 2/1": base,
        "DAMQ 75% private": replace(
            base, router=RouterConfig(buffer_organization="damq")),
        "FlexVC 2/1": replace(base, routing=RoutingConfig(vc_policy="flexvc")),
        "FlexVC 4/2": replace(
            base,
            routing=RoutingConfig(vc_policy="flexvc"),
            arrangement=VcArrangement.single_class(4, 2)),
    }

    print(f"BURSTY-UN traffic (average burst {args.burst_length:.0f} packets) "
          "on a scaled Dragonfly\n")
    header = f"{'scenario':24s}" + "".join(
        f"  load {load:.2f} (acc / lat)" for load in args.loads)
    print(header)
    for label, config in scenarios.items():
        cells = []
        for load in args.loads:
            result = Session(config.with_load(load)).run().summary
            cells.append(f"  {result.accepted_load:.3f} / {result.average_latency:6.1f}")
        print(f"{label:24s}" + "".join(f"{cell:>22s}" for cell in cells))

    print("\nExpected shape (Figures 5b and 6b): latency differences appear"
          " well below saturation because bursts congest individual VCs;"
          " FlexVC reduces latency and raises the saturation point more than"
          " the DAMQ does, and the gap grows with the number of VCs it can"
          " spread a burst over.")

    if args.timeseries:
        transient_view(scenarios["FlexVC 4/2"], args.loads[-1], args.interval)


if __name__ == "__main__":
    main()
