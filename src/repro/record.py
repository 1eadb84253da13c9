"""Versioned run records: summary + telemetry channels + provenance.

A :class:`RunRecord` is the schema-versioned successor of the flat
:class:`~repro.metrics.SimulationResult` JSON blobs that PR 1's result store
persisted (schema v1).  Version 2 separates three concerns:

* ``summary`` — the steady-state :class:`SimulationResult` of the (first)
  measurement window, unchanged semantics so every existing consumer of
  accepted load / latency keeps working;
* ``channels`` — named telemetry emitted by probes (time series, link
  utilization, VC occupancy, latency histograms), each a plain-JSON payload
  with a ``meta`` header describing how to read it;
* ``provenance`` — where the numbers came from: the config content hash the
  orchestrator keys on, the record schema version, engine cycle/event
  counters and wall-clock time.

``RunRecord.from_dict`` transparently migrates v1 payloads (a bare
``SimulationResult`` dict) so stores written by earlier code load without
re-running a single simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .metrics import SimulationResult

#: current record schema version (v1 = bare SimulationResult dicts).
RECORD_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class JobFailure:
    """Typed terminal failure of one job (crash-retry exhaustion, timeout).

    Stored in the result store as a ``{"failure": ..., "meta": ...}`` entry
    under the job's store key, so a completed sweep records *why* a point is
    missing instead of silently omitting it.  Failure entries are invisible
    to the caching reads (``ResultStore.get_record_any`` treats them as
    misses, so a later sweep re-attempts the job) and are surfaced by
    ``inspect``.

    Lives here — beside :class:`RunRecord`, the other store payload type —
    so the storage layer (:mod:`repro.store`) never has to import from the
    orchestration layer that *produces* failures.
    """

    #: machine-readable category: ``"timeout"`` or ``"worker-crash"``.
    reason: str
    #: human-readable elaboration (retry counts, timeout seconds, ...).
    detail: str = ""
    #: workers the job crashed before it was given up (a timeout: the
    #: crashes charged to it before it timed out).
    retries: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"reason": self.reason, "detail": self.detail, "retries": self.retries}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobFailure":
        return cls(
            reason=str(payload.get("reason", "unknown")),
            detail=str(payload.get("detail", "")),
            retries=int(payload.get("retries", 0)),
        )


@dataclass
class RunRecord:
    """One simulation run: summary stats, telemetry channels, provenance."""

    summary: SimulationResult
    #: named telemetry channels: ``name -> {"meta": {...}, "data": ...}``.
    channels: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: per-measurement-window summaries: ``[{"label": ..., "summary": {...}}]``
    #: (non-empty only for multi-window sessions; ``summary`` is window 0).
    windows: List[Dict[str, Any]] = field(default_factory=list)
    #: config hash, engine counters, wall time, probe names, migration marks.
    provenance: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = RECORD_SCHEMA_VERSION

    # -- accessors ------------------------------------------------------------
    def channel(self, name: str) -> Optional[Dict[str, Any]]:
        """Payload of one telemetry channel (``{"meta": ..., "data": ...}``)."""
        return self.channels.get(name)

    def channel_names(self) -> List[str]:
        return sorted(self.channels)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        channels = ",".join(self.channel_names()) or "-"
        return f"RunRecord(v{self.schema_version} {self.summary} channels=[{channels}])"

    # -- persistence ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "summary": self.summary.to_dict(),
            "channels": self.channels,
            "windows": self.windows,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Parse a record payload, migrating v1 (bare result) dicts."""
        if "schema_version" not in data:
            # v1 payloads are bare SimulationResult dicts.
            return cls.migrate_v1(data)
        version = data["schema_version"]
        if version != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunRecord schema version {version!r} "
                f"(this code reads v1 and v{RECORD_SCHEMA_VERSION})"
            )
        return cls(
            summary=SimulationResult.from_dict(data["summary"]),
            channels=dict(data.get("channels", {})),
            windows=list(data.get("windows", [])),
            provenance=dict(data.get("provenance", {})),
            schema_version=version,
        )

    @classmethod
    def migrate_v1(cls, result_dict: Dict[str, Any], meta: Optional[Dict[str, Any]] = None) -> "RunRecord":
        """Wrap a v1 flat ``SimulationResult`` dict into a v2 record.

        No simulation is re-run: the summary is adopted verbatim, channels
        stay empty (v1 never captured telemetry) and the migration is marked
        in the provenance.
        """
        provenance: Dict[str, Any] = {"migrated_from": 1}
        if meta:
            provenance["v1_meta"] = dict(meta)
        return cls(
            summary=SimulationResult.from_dict(result_dict),
            provenance=provenance,
        )

    @classmethod
    def from_summary(cls, summary: SimulationResult, **provenance: Any) -> "RunRecord":
        """Record with no telemetry (e.g. probe-less orchestrator jobs)."""
        return cls(summary=summary, provenance=dict(provenance))
