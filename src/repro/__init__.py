"""repro: a reproduction of "FlexVC: Flexible Virtual Channel Management in
Low-Diameter Networks" (Fuentes, Vallejo, Beivide, Minkenberg, Valero —
IPDPS 2017).

The package contains two layers:

* :mod:`repro.core` — the paper's contribution in isolation: VC arrangements,
  the distance-based baseline policy, FlexVC (safe/opportunistic hops,
  request-reply handling, link-type restrictions), VC selection and the
  analytical feasibility tables (Tables I-IV).
* the simulation substrate — Dragonfly, Flattened Butterfly, HyperX and
  Megafly topologies, a cycle-level virtual cut-through router model
  (credits, with the minimally-routed share FlexVC-minCred senses kept per
  output port; separable allocation; static/DAMQ buffers),
  MIN/VAL/PAR/Piggyback routing, synthetic traffic (UN, ADV, BURSTY-UN,
  request-reply) and the experiment harness that regenerates every figure of
  the paper's evaluation.

Quickstart::

    from repro import Session, SimulationConfig, VcArrangement
    from dataclasses import replace

    config = SimulationConfig()                        # scaled Dragonfly, MIN, baseline
    flex = replace(config,
                   routing=replace(config.routing, vc_policy="flexvc"),
                   arrangement=VcArrangement.single_class(4, 2))
    print(Session(config).run().summary)
    print(Session(flex).run().summary)

Feasibility without simulating (Tables I-IV; a network is named by its
worst-case minimal path, ``topology.canonical_minimal_sequence`` for a built
one)::

    from repro import DRAGONFLY_MIN, VcArrangement, classify

    classify(VcArrangement.single_class(3, 2), DRAGONFLY_MIN, "VAL")   # opport.

Phased execution with live telemetry (see ``DESIGN.md`` §5)::

    from repro import Session, TimeSeriesProbe

    session = Session(config, probes=[TimeSeriesProbe(100)])
    session.warmup(); session.measure(); session.drain()
    record = session.record()          # RunRecord v2: summary + channels
"""

from .config import (
    NetworkConfig,
    RouterConfig,
    RoutingConfig,
    SimulationConfig,
    TrafficConfig,
)
from .core import (
    DIAMETER2_MIN,
    DRAGONFLY_MIN,
    TABLES,
    DistanceBasedPolicy,
    FlexVcPolicy,
    HopContext,
    HopKind,
    LinkType,
    MessageClass,
    PathSupport,
    VcArrangement,
    VcRange,
    classify,
    classify_request_reply,
    generate_table,
    make_policy,
    walk_reference_path,
)
from .metrics import LatencyHistogram, MetricsCollector, SimulationResult
from .packet import Packet, RouteKind
from .probes import (
    PROBES,
    AllocStallProbe,
    LatencyHistogramProbe,
    LinkUtilizationProbe,
    Probe,
    TimeSeriesProbe,
    VcOccupancyProbe,
    make_probes,
)
from .record import RunRecord
from .routing import RouteTable
from .session import Session
from .simulation import (
    Simulation,
    SimulationArtifacts,
    average_results,
    build_artifacts,
)
from .topology import (
    TOPOLOGIES,
    Dragonfly,
    FlattenedButterfly2D,
    HyperX,
    Megafly,
    register_topology,
)

__version__ = "0.9.0"

__all__ = [
    "__version__",
    # configuration
    "SimulationConfig",
    "NetworkConfig",
    "RouterConfig",
    "RoutingConfig",
    "TrafficConfig",
    # core FlexVC
    "VcArrangement",
    "FlexVcPolicy",
    "DistanceBasedPolicy",
    "HopContext",
    "HopKind",
    "VcRange",
    "LinkType",
    "MessageClass",
    "PathSupport",
    "classify",
    "classify_request_reply",
    "walk_reference_path",
    "DRAGONFLY_MIN",
    "DIAMETER2_MIN",
    "TABLES",
    "generate_table",
    "make_policy",
    # simulation
    "Simulation",
    "SimulationArtifacts",
    "build_artifacts",
    "average_results",
    "SimulationResult",
    "MetricsCollector",
    "LatencyHistogram",
    "Packet",
    "RouteKind",
    # sessions, probes, records
    "Session",
    "Probe",
    "TimeSeriesProbe",
    "LinkUtilizationProbe",
    "VcOccupancyProbe",
    "LatencyHistogramProbe",
    "AllocStallProbe",
    "PROBES",
    "make_probes",
    "RunRecord",
    # topologies
    "Dragonfly",
    "FlattenedButterfly2D",
    "HyperX",
    "Megafly",
    "TOPOLOGIES",
    "register_topology",
    "RouteTable",
]
