"""Advisory inter-process locking for result stores.

One :class:`StoreLock` guards one store path via a ``<path>.lock`` sidecar
file.  The primary mechanism is ``fcntl.flock`` — advisory, kernel-owned,
and automatically released when the holding process dies, so SIGKILLed
sweeps can never leave the store permanently locked.  After acquiring, the
holder writes PID/host/heartbeat metadata into the lock file; that metadata
is diagnostic under flock (error messages name the live holder) and
*load-bearing* in fallback mode: on filesystems where ``flock`` is
unsupported (some network mounts), the lock degrades to an exclusive-create
protocol where lock-file existence is the lock, and stale locks — holder
PID dead, or heartbeat older than ``stale_after`` — are taken over instead
of blocking forever.

The store acquires the lock transiently around each critical section (open/
recovery, append+fsync, compaction), so multiple writer processes interleave
on one journal.
"""

from __future__ import annotations

import errno
import json
import os
import time
import weakref
from typing import Any, Dict, Optional

from .errors import StoreLockTimeout

try:  # pragma: no cover - import succeeds on every POSIX platform we run on
    import fcntl

    _HAVE_FCNTL = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    _HAVE_FCNTL = False

__all__ = ["StoreLock", "DEFAULT_LOCK_TIMEOUT"]

#: default seconds to wait for a contended lock before raising
#: :class:`StoreLockTimeout`.  Journal critical sections are short (one
#: append+fsync, or one compaction of a store that fits in memory), so a
#: healthy writer never holds the lock anywhere near this long.
DEFAULT_LOCK_TIMEOUT = 30.0

#: fallback-mode staleness horizon: a lock whose heartbeat is older than
#: this *and* whose PID cannot be confirmed alive is taken over.
DEFAULT_STALE_AFTER = 60.0


def _pid_alive(pid: int) -> Optional[bool]:
    """True/False when this host can tell, None when it cannot (other host)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return None
    return True


class StoreLock:
    """Advisory lock on a store path (``flock`` primary, O_EXCL fallback)."""

    def __init__(
        self,
        store_path: str,
        timeout: float = DEFAULT_LOCK_TIMEOUT,
        poll_interval: float = 0.05,
        stale_after: float = DEFAULT_STALE_AFTER,
        use_flock: bool = True,
    ) -> None:
        self.lock_path = str(store_path) + ".lock"
        self.timeout = float(timeout)
        self.poll_interval = float(poll_interval)
        self.stale_after = float(stale_after)
        self._use_flock = bool(use_flock) and _HAVE_FCNTL
        self._fd: Optional[int] = None
        self._finalizer: Optional[weakref.finalize] = None
        #: diagnostic counter: fallback-mode stale locks broken by this lock.
        self.takeovers = 0

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
        age = time.time() - float(meta.get("heartbeat_at", 0.0))
        return (
            f"pid {meta.get('pid', '?')} on {meta.get('host', '?')}, "
            f"heartbeat {age:.1f}s ago"
        )

    # -- acquisition ---------------------------------------------------------

    def try_acquire(self) -> bool:
        """Acquire without blocking; False when a live holder has the lock."""
        if self._fd is not None:
            raise RuntimeError(f"lock {self.lock_path} already held by this object")
        self._ensure_parent_dir()
        if self._use_flock:
            fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                os.close(fd)
                if exc.errno in (errno.EACCES, errno.EAGAIN):
                    return False
                # flock unsupported on this filesystem: degrade permanently
                # to the exclusive-create protocol for this lock object.
                self._use_flock = False
                return self._try_acquire_fallback()
            self._adopt(fd)
            return True
        return self._try_acquire_fallback()

    def _ensure_parent_dir(self) -> None:
        """Locks are taken before the store file exists (fresh sweeps)."""
        directory = os.path.dirname(os.path.abspath(self.lock_path))
        os.makedirs(directory, exist_ok=True)

    def _try_acquire_fallback(self) -> bool:
        for attempt in (0, 1):
            try:
                fd = os.open(
                    self.lock_path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                if attempt or not self._is_stale():
                    return False
                # Stale holder: PID dead (or unknowable) and heartbeat old.
                # Break the lock and retry the exclusive create exactly once
                # (a racing taker may win the recreate — that is fine).
                try:
                    os.unlink(self.lock_path)
                except OSError:
                    return False
                self.takeovers += 1
                continue
            self._adopt(fd)
            return True
        return False  # pragma: no cover - loop always returns

    def _is_stale(self) -> bool:
        meta = self.holder()
        if meta is None:
            # Unreadable metadata with an existing lock file: give the
            # (possibly mid-write) holder the benefit of file mtime.
            try:
                mtime = os.path.getmtime(self.lock_path)
            except OSError:
                return False
            return time.time() - mtime > self.stale_after
        alive = _pid_alive(int(meta.get("pid", -1))) if (
            meta.get("host") == _hostname()
        ) else None
        if alive is True:
            return False
        heartbeat = float(meta.get("heartbeat_at", 0.0))
        stale_by_time = time.time() - heartbeat > self.stale_after
        # A locally-dead PID is stale immediately; a remote/unknown holder
        # must additionally miss its heartbeat window.
        return alive is False or stale_by_time

    def acquire(self, timeout: Optional[float] = None) -> None:
        """Block (polling) until acquired; :class:`StoreLockTimeout` on expiry."""
        deadline = time.monotonic() + (self.timeout if timeout is None else timeout)
        while True:
            if self.try_acquire():
                return
            if time.monotonic() >= deadline:
                raise StoreLockTimeout(
                    f"could not acquire store lock {self.lock_path} "
                    f"within {self.timeout if timeout is None else timeout:g}s "
                    f"({self.holder_description()})"
                )
            time.sleep(self.poll_interval)

    def _adopt(self, fd: int) -> None:
        self._fd = fd
        self._finalizer = weakref.finalize(self, _close_quietly, fd)
        self._write_metadata()

    def _write_metadata(self) -> None:
        assert self._fd is not None
        now = time.time()
        payload = {
            "pid": os.getpid(),
            "host": _hostname(),
            "acquired_at": now,
            "heartbeat_at": now,
        }
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            os.ftruncate(self._fd, 0)
            os.lseek(self._fd, 0, os.SEEK_SET)
            os.write(self._fd, data)
        except OSError:  # pragma: no cover - metadata is best-effort
            pass

    # -- release -------------------------------------------------------------

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._use_flock:
            # Never unlink a flock-mode lock file: a waiter already blocked
            # on this inode would otherwise "acquire" an unlinked file while
            # a third process locks a fresh one — two winners.
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - release is best-effort
                pass
        else:
            # Existence *is* the lock in fallback mode.
            try:
                os.unlink(self.lock_path)
            except OSError:  # pragma: no cover - already taken over
                pass
        _close_quietly(fd)

    def __enter__(self) -> "StoreLock":
        self.acquire()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()


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
