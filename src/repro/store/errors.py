"""Typed errors of the result-store layer."""

from __future__ import annotations

__all__ = ["StoreError", "StoreLocked"]


class StoreError(RuntimeError):
    """A result store could not be opened or safely operated on.

    Raised by read-only opens (``ResultStore(..., read_only=True)`` — the
    ``inspect`` path) on missing or unrecognized files, by *any* open of a
    monolithic JSON store that cannot be read in full (the first flush would
    replace it, and a file we could not read must keep its bytes) or of a
    journal newer than this code, by a writable open where ``flock`` is
    unsupported (the message names the lock path and the OS error), by a
    write or compaction of a read-only or closed store, and by a lookup
    after ``close()`` or of a frame that no longer matches its length and
    checksum on disk (both name the store path).  A writable open of a
    missing or unrecognized file starts empty — results are recomputable by
    definition.
    """


class StoreLocked(StoreError):
    """A writable open found the store's lock held: it has another writer.

    With ``flock`` the kernel releases a dead holder's lock automatically,
    so this means a *live* process (or another store object in this one)
    has the store open for writing.  The message names the holder (pid,
    host and how long ago it acquired) read from the lock file when
    available.
    """
