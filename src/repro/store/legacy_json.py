"""Read-only importer for the monolithic JSON store files earlier code wrote.

``{"version": 1|2, "results": {key: entry}}`` — v2 entries are
``{"record"|"failure": ..., "meta": ...}``, v1 entries flat
``{"result": <SimulationResult dict>, "meta": ...}``.  Nothing writes this
format any more: :class:`~repro.store.journal.ResultStore` imports such a file
into memory on open and replaces it with a journal on its first flush, so the
reader is always strict — a file that is not read in full must raise, never be
replaced.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from ..record import RunRecord
from .errors import StoreError

__all__ = ["read_json_store"]


def read_json_store(path: str) -> Tuple[Dict[str, Dict[str, Any]], int]:
    """Parse a monolithic JSON store into v2 entries without touching it.

    Returns ``(entries, migrated_v1_count)``; v1 summaries are wrapped
    verbatim (:meth:`RunRecord.migrate_v1`), no simulation re-runs.  Raises
    :class:`StoreError` naming what is wrong with anything else.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise StoreError(f"store is not readable JSON: {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise StoreError(
            f"store {path}: top level must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    version = payload.get("version")
    results = payload.get("results", {})
    if not isinstance(results, dict):
        raise StoreError(
            f"store {path}: 'results' must be an object, "
            f"got {type(results).__name__}"
        )
    if version not in (1, 2):
        raise StoreError(
            f"store {path}: unsupported version {version!r} (expected 1 or 2)"
        )
    entries: Dict[str, Dict[str, Any]] = {}
    for key, entry in results.items():
        try:
            if not isinstance(entry, dict):
                raise TypeError(f"got {type(entry).__name__}")
            if version == 2 and "record" not in entry and "failure" not in entry:
                raise KeyError("record")
            if version == 1:
                record = RunRecord.migrate_v1(entry["result"], meta=entry.get("meta"))
                entry = {"record": record.to_dict(), "meta": entry.get("meta", {})}
        except (KeyError, TypeError, AttributeError) as exc:
            raise StoreError(
                f"store {path}: entry {key!r} is not a v{version} store entry: {exc}"
            ) from exc
        entries[key] = entry
    return entries, len(entries) if version == 1 else 0
