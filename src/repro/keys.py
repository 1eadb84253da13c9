"""Content hash identifying a configuration.

A pure function of a :class:`~repro.config.SimulationConfig`: the session
stamps :func:`config_key` into every RunRecord's provenance and the sweep
orchestrator keys jobs and the result store by it.  Stored results are
addressed by this digest, so what it hashes must not change.
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


def key_payload(config: SimulationConfig) -> Dict[str, object]:
    """What :func:`config_key` hashes: the config as a dataclass dict.

    The empty default fault schedule adds nothing, keeping every
    pre-existing (no-fault) stored key and golden valid.
    """
    payload = asdict(config)
    if not config.faults:
        payload.pop("faults", None)
    return payload


def config_key(config: SimulationConfig) -> str:
    """Stable content hash of a complete simulation configuration.

    Dataclass-derived JSON with sorted keys, so two structurally equal
    configurations (even if built through different code paths) share a key.
    """
    return _hash_payload(key_payload(config))
