"""Advisory inter-process locking for result stores.

One :class:`StoreLock` guards one store path with ``fcntl.flock`` on a
``<path>.lock`` sidecar file.  The lock is advisory and kernel-owned: the
kernel releases it when the last descriptor of the holding open file
description closes, so a SIGKILLed sweep can never leave the store locked.
After acquiring, the holder writes its PID and host into the lock file, so
a refused writer names the live holder.  It writes them with one ``pwrite``
at offset zero, space-padded to a fixed width, and never truncates the
file: every holder's record covers the whole previous one, and
``json.load`` reads past the trailing spaces.

``flock`` is the only protocol.  Where it is missing (a platform without
:mod:`fcntl`, or a filesystem that rejects ``flock``, as some network mounts
do) :meth:`StoreLock.try_acquire` raises :class:`StoreError` naming the lock
path and the OS error; DESIGN §12 says why there is no fallback.

A store opened for writing takes its lock once, at open, without waiting,
and holds it until it is closed or dropped: a store has one writer at a
time.  Sweep workers forked while it is held inherit the descriptor; the
explicit ``LOCK_UN`` of :meth:`StoreLock.release` frees it for all of them.
"""

from __future__ import annotations

import errno
import json
import os
import time
import weakref
from typing import Any, Dict, Optional

from .errors import StoreError

try:  # pragma: no cover - import succeeds on every POSIX platform we run on
    import fcntl

    _HAVE_FCNTL = True
except ImportError:  # pragma: no cover - non-POSIX: locking raises StoreError
    _HAVE_FCNTL = False

__all__ = ["StoreLock"]

#: bytes every holder record is space-padded to (a record of a host name too
#: long to fit is written whole; the holder is then best-effort, as always).
_HOLDER_WIDTH = 256


class StoreLock:
    """Advisory ``flock`` lock on a store path."""

    def __init__(self, store_path: str) -> None:
        self.lock_path = str(store_path) + ".lock"
        self._fd: Optional[int] = None
        self._finalizer: Optional[weakref.finalize] = None

    # -- state ---------------------------------------------------------------

    @property
    def held(self) -> bool:
        return self._fd is not None

    def holder(self) -> Optional[Dict[str, Any]]:
        """Metadata of the current holder, or None if unreadable/absent."""
        try:
            with open(self.lock_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def holder_description(self) -> str:
        meta = self.holder()
        if not meta:
            return "holder metadata unavailable"
        age = time.time() - float(meta.get("acquired_at", 0.0))
        return (
            f"pid {meta.get('pid', '?')} on {meta.get('host', '?')}, "
            f"acquired {age:.1f}s ago"
        )

    # -- acquisition ---------------------------------------------------------

    def try_acquire(self) -> bool:
        """Acquire without blocking; False when another holder has the lock.

        Raises :class:`StoreError` where ``flock`` is unsupported.
        """
        if self._fd is not None:
            raise RuntimeError(f"lock {self.lock_path} already held by this object")
        if not _HAVE_FCNTL:
            raise StoreError(
                f"cannot lock store {self.lock_path}: this platform has no "
                "fcntl.flock"
            )
        # Locks are taken before the store file exists (fresh sweeps).
        os.makedirs(os.path.dirname(os.path.abspath(self.lock_path)), exist_ok=True)
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(fd)
            if exc.errno in (errno.EACCES, errno.EAGAIN):
                return False
            raise StoreError(
                f"cannot lock store {self.lock_path}: flock failed ({exc}); "
                "the store needs a filesystem that supports flock"
            ) from exc
        self._fd = fd
        self._finalizer = weakref.finalize(self, _close_quietly, fd)
        payload = {"pid": os.getpid(), "host": _hostname(), "acquired_at": time.time()}
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            os.pwrite(fd, data.ljust(_HOLDER_WIDTH), 0)
        except OSError:  # pragma: no cover - metadata is best-effort
            pass
        return True

    # -- release -------------------------------------------------------------

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        # Never unlink the lock file: a process that opened this inode
        # before the unlink would lock an orphaned file while a third
        # process locks a fresh one — two winners.
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:  # pragma: no cover - release is best-effort
            pass
        _close_quietly(fd)


def _hostname() -> str:
    try:
        return os.uname().nodename
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        return "unknown-host"


def _close_quietly(fd: int) -> None:
    try:
        os.close(fd)
    except OSError:  # pragma: no cover - already closed
        pass
