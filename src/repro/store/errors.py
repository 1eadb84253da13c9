"""Typed errors of the result-store layer."""

from __future__ import annotations

__all__ = ["StoreError", "StoreLockTimeout"]


class StoreError(RuntimeError):
    """A result store could not be opened or safely operated on.

    Raised by strict opens (``ResultStore(..., strict=True)`` — the
    ``inspect`` path) on missing or unrecognized files, by *any* open of a
    monolithic JSON store that cannot be read in full (the first flush would
    replace it, and a file we could not read must keep its bytes) or of a
    journal newer than this code, by operations that cannot acquire the
    store lock within their timeout, by any lock attempt where ``flock``
    is unsupported (the message names the lock path and the OS error), and
    by a lookup after ``close()`` or of a frame that no longer matches its
    length and checksum on disk (both name the store path).  A
    lenient open of a missing or unrecognized file starts empty — results are
    recomputable by definition.
    """


class StoreLockTimeout(StoreError):
    """The advisory store lock stayed held past the acquisition timeout.

    With ``flock`` the kernel releases a dead holder's lock automatically,
    so a timeout means a *live* process held the lock through our whole
    wait — most likely a wedged compaction or a very slow writer.  The
    message names the holder (pid, host and how long ago it acquired) read
    from the lock file when available.
    """

