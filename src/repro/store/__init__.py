"""Durable result storage for experiment sweeps.

Public surface:

* :class:`ResultStore` — the store every caller constructs: an append-only
  checksummed journal with torn-write recovery and compaction, one writer
  at a time (it holds the store's lock from open to close) and any number
  of read-only readers (:mod:`.journal`);
* :func:`read_json_store` — the read-only importer for monolithic JSON
  stores written by earlier code, which :class:`ResultStore` applies on open;
* :class:`StoreLock` — the advisory inter-process ``flock`` lock a writer
  holds (a filesystem without ``flock`` is refused with :class:`StoreError`,
  a second writer with :class:`StoreLocked`);
* the typed errors, format constants and frame helpers.
"""

from __future__ import annotations

from .errors import StoreError, StoreLocked
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
from .locking import StoreLock

__all__ = [
    "FLUSH_INTERVAL_SECONDS",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "ResultStore",
    "STORE_VERSION",
    "StoreError",
    "StoreLock",
    "StoreLocked",
    "detect_format",
    "frame_entry",
    "parse_frame_line",
    "read_json_store",
    "scan_frames",
]
