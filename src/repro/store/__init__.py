"""Durable result storage for experiment sweeps.

Public surface:

* :class:`ResultStore` — the store every caller constructs: an append-only
  checksummed journal with advisory locking, torn-write recovery and
  compaction, safe for concurrent writer processes sharing one path
  (:mod:`.journal`);
* :func:`read_json_store` — the read-only importer for monolithic JSON
  stores written by earlier code, which :class:`ResultStore` applies on open;
* :class:`StoreLock` — the advisory inter-process ``flock`` lock the store
  uses (a filesystem without ``flock`` is refused with :class:`StoreError`);
* the typed errors, format constants and frame helpers.
"""

from __future__ import annotations

from .errors import StoreError, StoreLockTimeout
from .journal import (
    FLUSH_INTERVAL_SECONDS,
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    STORE_VERSION,
    ResultStore,
    detect_format,
    frame_entry,
    parse_frame_line,
    scan_frames,
)
from .legacy_json import read_json_store
from .locking import DEFAULT_LOCK_TIMEOUT, StoreLock

__all__ = [
    "DEFAULT_LOCK_TIMEOUT",
    "FLUSH_INTERVAL_SECONDS",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "ResultStore",
    "STORE_VERSION",
    "StoreError",
    "StoreLock",
    "StoreLockTimeout",
    "detect_format",
    "frame_entry",
    "parse_frame_line",
    "read_json_store",
    "scan_frames",
]
