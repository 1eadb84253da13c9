"""Content hashes identifying a configuration and its network substrate.

Pure functions of a :class:`~repro.config.SimulationConfig`: the session
stamps :func:`config_key` into every RunRecord's provenance, the sweep
orchestrator keys jobs and the result store by it, and :func:`network_key`
keys reusable construction artifacts.  Stored results are addressed by
these digests, so what they hash must not change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict

from .config import SimulationConfig


def _hash_payload(payload: Dict[str, object]) -> str:
    """Stable content hash of a JSON-serializable payload."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def config_key(config: SimulationConfig) -> str:
    """Stable content hash of a complete simulation configuration.

    Dataclass-derived JSON with sorted keys, so two structurally equal
    configurations (even if built through different code paths) share a key.
    """
    payload = asdict(config)
    if not config.faults:
        # The empty default adds nothing, keeping every pre-existing
        # (no-fault) stored key and golden valid.
        payload.pop("faults", None)
    return _hash_payload(payload)


def _network_payload(config_payload: Dict[str, object]) -> Dict[str, object]:
    """The sub-sections of an ``asdict(config)`` payload a network key hashes.

    Single source of truth for what identifies a job's reusable construction
    artifacts — :func:`network_key` and ``SweepSpec.expand`` both hash this.
    """
    return {
        "network": config_payload["network"],
        "routing": config_payload["routing"],
    }


def network_key(config: SimulationConfig) -> str:
    """Content hash of the configuration's network+routing sub-sections.

    Coarser than :func:`config_key`: jobs differing only in traffic, load,
    seed or cycle counts share a network key, which is exactly the
    granularity at which construction artifacts (topology graph, route
    tables, dense adjacency) are reusable.  A 4-series x 10-load x 5-seed
    sweep carries ~4 distinct network keys for its 200 jobs, so each worker
    builds artifacts ~4 times instead of 200.
    """
    return _hash_payload(_network_payload(asdict(config)))
