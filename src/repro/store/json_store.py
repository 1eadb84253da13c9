"""Legacy monolithic JSON store backend.

One file, rewritten atomically (tmp + rename) on every flush — simple and
human-readable, but O(store) per flush and structurally single-writer.
This PR closes its two durability holes without changing the byte format:

* **fsync before and after the rename** (the previously missing half of the
  tmp+rename idiom): a power loss or SIGKILL straddling the rename can no
  longer publish an empty/partial store or resurrect the stale one —
  ``os.replace`` is only atomic *in the namespace*; the data and directory
  entries still need forcing to disk;
* **concurrent-writer detection**: on its *first write* the store acquires
  the advisory :class:`~repro.store.locking.StoreLock` and holds it for its
  lifetime as a writer-presence marker.  A second writer gets a
  :class:`ConcurrentWriterWarning` (or a :class:`StoreError` under
  ``strict=True``) instead of the old silent last-writer-wins clobbering.
  Read-only opens (``inspect``) never touch the lock, so inspecting a store
  mid-sweep keeps working.  For actually *sharing* a store across writers,
  use the journal format.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import Any, Dict, Tuple

from .base import (
    FLUSH_INTERVAL_SECONDS,
    STORE_VERSION,
    ResultStore,
    migrate_v1_entries,
)
from .errors import ConcurrentWriterWarning, StoreError
from .locking import DEFAULT_LOCK_TIMEOUT, StoreLock

__all__ = ["JsonStore", "fsync_directory", "read_json_store"]


def fsync_directory(directory: str) -> None:
    """Force a directory's entry table to disk (after create/rename in it).

    Some filesystems/platforms reject ``fsync`` on directory descriptors;
    that is a durability downgrade, not an error — the rename itself is
    still atomic.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(dir_fd)


def read_json_store(
    path: str, strict: bool = False
) -> Tuple[Dict[str, Dict[str, Any]], int]:
    """Parse a monolithic JSON store file into v2 entries.

    Returns ``(entries, migrated_v1_count)``.  Lenient mode treats damage as
    an empty store (a damaged cache is no cache; results are recomputable by
    definition); ``strict`` raises a typed :class:`StoreError` naming what is
    wrong instead — read-only consumers like ``inspect`` want a loud error,
    and the journal migration path must never destroy a file it could not
    actually read.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        if strict:
            raise StoreError(f"store is not readable JSON: {path}: {exc}") from exc
        return {}, 0
    if not isinstance(payload, dict):
        if strict:
            raise StoreError(
                f"store {path}: top level must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        return {}, 0
    version = payload.get("version")
    results = payload.get("results", {})
    if strict and not isinstance(results, dict):
        raise StoreError(
            f"store {path}: 'results' must be an object, "
            f"got {type(results).__name__}"
        )
    if not isinstance(results, dict):
        return {}, 0
    if version == STORE_VERSION:
        return results, 0
    if version == 1:
        return migrate_v1_entries(results)
    if strict:
        raise StoreError(
            f"store {path}: unsupported version {version!r} "
            f"(expected 1 or {STORE_VERSION})"
        )
    return {}, 0


class JsonStore(ResultStore):
    """Monolithic JSON store (see module docstring for durability changes)."""

    FORMAT = "json"

    def __init__(
        self,
        path: str,
        refresh: bool = False,
        flush_interval: float = FLUSH_INTERVAL_SECONDS,
        strict: bool = False,
        format: str = "auto",  # noqa: A002 - accepted for facade dispatch
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> None:
        super().__init__(
            path, refresh=refresh, flush_interval=flush_interval, strict=strict
        )
        self._lock = StoreLock(self.path, timeout=lock_timeout)
        self._lock_held = False
        self._lock_probed = False
        if os.path.exists(self.path):
            self._results, self.migrated = read_json_store(self.path, strict=strict)
            self._dirty = self.migrated > 0  # persist the upgrade on next flush
        elif strict:
            raise StoreError(f"store not found: {self.path}")

    def _ensure_writer_lock(self) -> None:
        """Acquire the writer-presence lock once, on first write/flush.

        A contended probe means another live process is (or intends to be)
        writing this monolithic file: warn — or raise under ``strict`` —
        but in lenient mode keep going, which is exactly the pre-lock
        last-writer-wins behavior, now *detected* instead of silent.
        """
        if self._lock_probed:
            return
        self._lock_probed = True
        self._lock_held = self._lock.try_acquire()
        if not self._lock_held:
            message = (
                f"result store {self.path} is being written by another live "
                f"writer ({self._lock.holder_description()}); legacy JSON "
                "stores are rewritten whole on flush with last-writer-wins "
                "semantics, so concurrent writers WILL lose results — share "
                "the path through the journal format instead "
                "(--store-format journal)"
            )
            if self.strict:
                raise StoreError(message)
            warnings.warn(message, ConcurrentWriterWarning, stacklevel=4)

    def _note_write(self, key: str) -> None:
        self._ensure_writer_lock()
        super()._note_write(key)

    def flush(self) -> None:
        if not self._dirty:
            return
        self._ensure_writer_lock()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        payload = {"version": STORE_VERSION, "results": self._results}
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                handle.flush()
                # The missing half of the tmp+rename idiom: the rename only
                # publishes durable bytes if the data hit disk first.
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
            fsync_directory(directory)
        finally:
            if os.path.exists(tmp_path):  # pragma: no cover - error path
                os.unlink(tmp_path)
        self._dirty = False
        self._lock.heartbeat()

    def close(self) -> None:
        super().close()
        if self._lock_held:
            self._lock.release()
            self._lock_held = False

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["migrated_v1"] = self.migrated
        info["lock_held"] = self._lock_held
        return info
