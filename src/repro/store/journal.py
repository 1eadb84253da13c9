"""The result store: an append-only, checksummed journal with compaction.

:class:`ResultStore` keeps run records keyed by config hash.  On disk it is a
single file of checksummed, length-framed JSONL entries::

    J1 <length> <crc32:08x> <payload-json>\\n

``length`` is the byte length of the payload and the CRC covers exactly those
bytes.  Payloads are compact ASCII JSON (never a raw newline, so the file
stays line-scannable).  The first frame is a header (``{"op": "header", ...}``)
carrying the journal/store versions and the lifetime compaction count; every
other frame is one ``record`` or ``failure`` op keyed by config hash, with
last-write-wins replay semantics, written ``key`` and ``op`` first
(``{"key":"<hash>","op":"record","meta":{...},"record":{...}}``; every other
member, at any depth, sorted).

Replay reads key and op off an *anchored prefix* of the payload and never
parses the record.  That is exact, not a heuristic: the bytes between
``{"key":"`` at offset zero and the next ``"`` are, by the JSON grammar, the
first member's whole value when they hold no backslash, so they equal the key
a full ``json.loads`` yields (no writer emits a top-level member twice), and a
``"key"`` nested in ``meta`` is never at offset zero.  Whatever does not match
— journals written before this layout (all members sorted), keys JSON had to
escape, unknown ops, the header — takes one full ``json.loads`` whose tree is
dropped once key and op are read.  ``json.loads`` ignores member order, so
older code reads these frames and :data:`JOURNAL_VERSION` stays 1.

In memory an entry *is its offset* (``key -> (offset, length)`` into the
journal): opening costs a scan and keeps no payload, and a lookup reads the
one frame it returns with ``os.pread`` through a read descriptor the store
holds, checking its length and CRC again before decoding it.
``put_record`` encodes at the write site (an unserialisable ``meta`` raises
there, not at ``flush``); the frame stays ``bytes`` until a flush appends it
and then becomes an offset.  Entries imported from a JSON store stay ``bytes`` until
the first flush rewrites the file.  One invariant keeps this exact: every
offset refers to the file the held descriptor has open.  The descriptor is
bound only where the offsets are produced: a replay from offset zero (a
``dup`` of the replay's own handle) or a rewrite (the snapshot's own handle,
bound after the snapshot has read every frame through the old one).
:meth:`ResultStore.close` flushes and releases it, and a read after
``close()`` raises :class:`StoreError`.  On the ledger's 37 MB journal:
reopen 1.10 -> 0.11 s and peak RSS 259 -> 77 MB when an entry became its
frame, then 63.5 -> 28 MB when it became its offset (DESIGN §12).

Durability and access contract:

* **one writer** — a store opened for writing takes its :class:`StoreLock`
  at open, without waiting, and holds it until :meth:`ResultStore.close`
  (or until it is dropped); a second writer is refused at once with
  :class:`StoreLocked`, naming the holder.  So nothing on file changes
  under a writer but its own appends and rewrites;
* **read-only readers** — ``read_only=True`` takes no lock and reads a
  snapshot: the frames whole at its open, through its own descriptor, which
  keeps the old file alive and exact when the writer compacts.  It never
  truncates (a live writer may be mid-append) and refuses every write;
* **one fsynced append per flush** — a flush frames only the keys written
  since the previous flush and appends them with a single ``write`` +
  ``fsync``, so persisting a sweep's next results is O(new records), never
  O(store);
* **torn-write recovery** — a writable open scans frames and *truncates* an
  invalid tail instead of raising: a SIGKILL/power loss at any byte offset
  costs at most the half-written final entry, and every complete record
  before it is salvaged (logged, counted in :attr:`torn_salvages`).  The
  writer holds the lock, so the tail belongs to a dead writer;
* **compaction** — when the journal accumulates enough superseded ops (or
  bytes), it is rewritten as a sorted snapshot: header + one frame per live
  key in key order, built in a tmp file, fsynced, ``os.replace``d over the
  journal, directory fsynced.  A crash at any point leaves either the old
  journal or the complete new one — never a mix.

Monolithic JSON stores written by earlier code (:mod:`.legacy_json`) are
*imported*: an open reads the file into memory without touching it, and the
first flush that has something to write replaces it with a journal through the
same rewrite.  Read-only opens therefore never rewrite anything, and a JSON
file that cannot be read in full raises :class:`StoreError` on every open —
it is never replaced.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import re
import time
import weakref
import zlib
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from ..metrics import SimulationResult
from ..record import JobFailure, RunRecord
from .errors import StoreError, StoreLocked
from .legacy_json import read_json_store
from .locking import StoreLock

__all__ = [
    "FLUSH_INTERVAL_SECONDS",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "STORE_VERSION",
    "ResultStore",
    "detect_format",
    "frame_entry",
    "parse_frame_line",
    "scan_frames",
]

logger = logging.getLogger("repro.store")

#: result schema version, carried in the journal header; bump when the result
#: schema changes.  v1 stored flat ``SimulationResult`` dicts; v2 stores
#: versioned :class:`~repro.record.RunRecord` payloads (summary + telemetry
#: channels + provenance).
STORE_VERSION = 2

#: default minimum seconds between mid-sweep store flushes (resumability vs
#: I/O, see :meth:`ResultStore.flush_if_due`); per-store override via
#: ``ResultStore(flush_interval=...)``.
FLUSH_INTERVAL_SECONDS = 5.0

#: every journal frame (and therefore every journal file) starts with this.
JOURNAL_MAGIC = b"J1 "

#: on-disk journal framing version (independent of the record schema).
JOURNAL_VERSION = 1

#: compaction trigger, checked after every flush: at least this many ops on
#: file *and* at least this fraction of them superseded (or this many bytes
#: with any dead ops at all).  Small enough to matter for long-lived
#: stores, large enough that paper-scale sweeps never compact mid-run by
#: surprise.
COMPACT_MIN_OPS = 4096
COMPACT_MIN_DEAD_FRACTION = 0.5
COMPACT_MIN_BYTES = 64 << 20

#: crash-injection seam for the crash-safety tests: set
#: ``REPRO_TEST_STORE_CRASH`` to one of ``append-partial`` /
#: ``compact-before-replace`` / ``compact-after-replace`` to hard-exit the
#: process at that point (mirrors the sweep executors' REPRO_TEST_CRASH_KEY).
_CRASH_SEAM_ENV = "REPRO_TEST_STORE_CRASH"


def detect_format(path: str) -> Optional[str]:
    """Sniff the on-disk format of ``path``.

    Returns ``"journal"`` / ``"json"`` for recognized content, ``"empty"``
    for an existing zero-byte file, ``"unknown"`` for unrecognized bytes,
    and ``None`` when the file does not exist (or cannot be read).
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(JOURNAL_MAGIC))
    except OSError:
        return None
    if head.startswith(JOURNAL_MAGIC):
        return "journal"
    if head[:1] in (b"{", b"["):
        return "json"
    if head == b"":
        return "empty"
    return "unknown"


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


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

#: the key/op-first payload prefix (module docstring): a plain-ASCII key with
#: nothing JSON had to escape, then a known op.  Only ever ``match``ed at 0.
_KEY_OP_FIRST = re.compile(
    rb'\{"key":"([^"\\\x00-\x1f\x80-\xff]*)","op":"(record|failure)",'
)


def _dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def frame_entry(payload: Dict[str, Any]) -> bytes:
    """Serialize one journal entry as a checksummed, length-framed line
    (``key`` and ``op`` lead when it has both; everything else is sorted)."""
    rest = dict(payload)
    if "key" in rest and "op" in rest:
        lead = _dumps({"key": rest.pop("key"), "op": rest.pop("op")})
        text = lead[:-1] + "," + _dumps(rest)[1:] if rest else lead
    else:
        text = _dumps(rest)
    body = text.encode("ascii")
    head = f"{len(body)} {zlib.crc32(body):08x} ".encode("ascii")
    return JOURNAL_MAGIC + head + body + b"\n"


def _op_frame(key: str, op: str, body: Any, meta: Optional[Dict[str, Any]]) -> bytes:
    """The frame of one ``record``/``failure`` op, as the store holds and writes it."""
    return frame_entry({"key": key, "op": op, op: body, "meta": meta or {}})


def _frame_body(line: bytes) -> Optional[bytes]:
    """Payload bytes of one frame line (without its newline), length- and
    CRC-checked; None if invalid/torn.  The one parser of the frame head."""
    if not line.startswith(JOURNAL_MAGIC):
        return None
    fields = line.split(b" ", 3)
    if len(fields) != 4 or len(fields[2]) != 8:  # crc: exactly 8 hex digits
        return None
    body = fields[3]
    try:
        if len(body) != int(fields[1]) or zlib.crc32(body) != int(fields[2], 16):
            return None
    except ValueError:
        return None
    return body


def _parse_body(body: bytes) -> Optional[Dict[str, Any]]:
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def parse_frame_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse one frame line (without its newline); None if invalid/torn."""
    body = _frame_body(line)
    return None if body is None else _parse_body(body)


def scan_frames(data: bytes, start: int = 0) -> Tuple[List[Dict[str, Any]], int]:
    """Parse consecutive valid frames from ``data[start:]``.

    Returns ``(payloads, end)`` where ``end`` is the offset one past the
    last *valid* frame.  Scanning stops at the first torn or corrupt line —
    the write-ahead prefix rule: everything before ``end`` is trustworthy,
    everything after is not (and callers truncate it).
    """
    payloads: List[Dict[str, Any]] = []
    pos = start
    size = len(data)
    while pos < size:
        newline = data.find(b"\n", pos)
        if newline == -1:
            break  # incomplete final line (torn append)
        payload = parse_frame_line(data[pos:newline])
        if payload is None:
            break  # corrupt frame: treat as end of journal
        payloads.append(payload)
        pos = newline + 1
    return payloads, pos


#: one live entry: its frame's ``(offset, length)`` in the file the store's
#: read descriptor holds, or the frame itself while no file holds it yet
#: (a write not yet flushed, an entry imported from a JSON store).
_Entry = Union[Tuple[int, int], bytes]


def _crash_seam(point: str) -> None:
    if os.environ.get(_CRASH_SEAM_ENV) == point:  # pragma: no cover - test seam
        os._exit(17)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ResultStore:
    """Store of run records keyed by config hash (module docstring: contract).

    ``refresh=True`` turns reads into misses while still persisting new
    results — the CLI's ``--force``.  ``flush_interval`` tunes how often a
    running sweep checkpoints mid-flight (:meth:`flush_if_due`); the first
    write also arms a flush at interpreter exit, so killed sweeps keep their
    latest completed points.
    ``read_only`` opens a snapshot without the lock (the ``inspect`` path):
    a missing or unrecognized file is a :class:`StoreError`, a torn tail is
    left as it is, and every write raises.  A writable open takes the lock
    (:class:`StoreLocked` if another writer holds it), starts empty on a
    missing or unrecognized file and creates the file on first flush.
    ``format`` is vestigial: ``"auto"`` and ``"journal"`` both mean the one
    format there is.
    """

    def __init__(
        self,
        path: str,
        refresh: bool = False,
        flush_interval: float = FLUSH_INTERVAL_SECONDS,
        read_only: bool = False,
        format: str = "auto",  # noqa: A002 - kept for callers that pass "journal"
    ) -> None:
        if format not in ("auto", "journal"):
            raise ValueError(
                f"store format must be 'journal' (or 'auto'), got {format!r}"
            )
        self.path = str(path)
        self.refresh = refresh
        self.flush_interval = float(flush_interval)
        #: monotonic time of the last :meth:`flush` (or of the open).
        self._flushed_at = time.monotonic()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: v1 entries migrated while importing a JSON store (diagnostics).
        self.migrated = 0
        self._atexit_registered = False
        #: the writer's lock, held from open to :meth:`close` (None: read-only).
        self._lock: Optional[StoreLock] = None if read_only else StoreLock(self.path)
        #: live key -> where its frame line is (see :data:`_Entry`).
        self._index: Dict[str, _Entry] = {}
        #: read descriptor of the file every offset in ``_index`` refers to
        #: (None before the store has bound one, and after :meth:`close`),
        #: and the finalizer that closes it if the store is dropped unclosed.
        self._fd: Optional[int] = None
        self._fd_closer: Optional[weakref.finalize] = None
        #: live keys whose frame is a ``failure`` op (every other is a record).
        self._failed: Set[str] = set()
        #: keys written since the last flush, in write order (append queue).
        self._pending: Dict[str, None] = {}
        #: keys known to have at least one frame on file (supersede stats).
        self._file_keys: Dict[str, None] = {}
        #: byte length of the journal as this store last replayed or wrote it.
        self._end = 0
        #: non-header ops currently replayed from the file.
        self.journal_ops = 0
        #: ops observed to be overwritten by a later op (cumulative).
        self.superseded = 0
        #: torn-tail recoveries performed at open, and bytes dropped.
        self.torn_salvages = 0
        self.torn_bytes_dropped = 0
        #: lifetime compaction count (from the journal header).
        self.compactions = 0
        #: frames the replay had to parse in full to place.
        self.frames_fallback = 0
        #: payload decodes served (lookups, ``entries()``, ``failures()``).
        self.decoded = 0
        try:
            self._open(read_only)
        except BaseException:
            self._release()
            raise

    def __len__(self) -> int:
        return len(self._index)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- open / recovery -----------------------------------------------------

    def _open(self, read_only: bool) -> None:
        if self._lock is not None and not self._lock.try_acquire():
            raise StoreLocked(
                f"store {self.path} already has a writer "
                f"({self._lock.holder_description()}); open it read-only, "
                "or wait for that run to finish"
            )
        existing = detect_format(self.path)
        if existing == "journal":
            self._bind(self._replay())
        elif existing == "json":
            self._import_json()
        elif read_only and existing is None:
            raise StoreError(f"store not found: {self.path}")
        elif read_only and existing == "unknown":
            raise StoreError(
                f"store {self.path}: unrecognized format "
                "(neither JSON nor journal)"
            )
        # Otherwise nothing to read: the first flush (re)creates the file.

    def _import_json(self) -> None:
        """Load a monolithic JSON store into memory; the file is not touched.

        The imported entries are not pending: no journal is bound, so the
        first flush that has something to write rewrites the whole store
        over the file (:meth:`flush`).
        """
        entries, self.migrated = read_json_store(self.path)
        for key, entry in entries.items():
            op = "record" if "record" in entry else "failure"
            self._file(
                key, _op_frame(key, op, entry[op], entry.get("meta")), op == "failure"
            )
        logger.info(
            "imported JSON store %s (%d entr%s%s); the first flush replaces "
            "it with a journal",
            self.path, len(entries), "y" if len(entries) == 1 else "ies",
            f", {self.migrated} from v1" if self.migrated else "",
        )

    def _replay(self) -> int:
        """Replay the file's frames from offset zero, filing each op's place;
        stops at the first torn or corrupt frame, and a writer (the lock's
        holder, so the tail is a dead writer's) truncates what follows.
        Returns a duplicate of its own handle, the descriptor the offsets it
        filed refer to, for the caller to :meth:`_bind`.
        """
        index, file_keys, failed = self._index, self._file_keys, self._failed
        self.frames_fallback = 0
        end = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                body = _frame_body(line[:-1]) if line.endswith(b"\n") else None
                if body is None:
                    break  # torn append or corrupt frame: end of journal
                match = _KEY_OP_FIRST.match(body)
                if match is not None:
                    placed = match.group(1).decode("ascii"), match.group(2) == b"failure"
                else:
                    payload = _parse_body(body)
                    if payload is None:
                        break  # checksummed, yet not a JSON object: same rule
                    placed = self._place_parsed(payload)
                start = end
                end += len(line)
                if placed is None:
                    continue
                key, failure = placed
                self.journal_ops += 1
                if key in file_keys:
                    self.superseded += 1
                file_keys[key] = None
                index[key] = (start, len(line))  # _file(), inline: once per frame
                if failure:
                    failed.add(key)
                elif failed:
                    failed.discard(key)
            size = os.fstat(handle.fileno()).st_size
            if end < size and self._lock is not None:
                self._truncate_torn(end, size - end)
            self._end = end
            return os.dup(handle.fileno())

    def _place_parsed(self, payload: Dict[str, Any]) -> Optional[Tuple[str, bool]]:
        """``(key, is_failure)`` of a fully parsed op; None if it files nothing."""
        op = payload.get("op")
        if op == "header":
            version = payload.get("journal_version", 0)
            if not isinstance(version, int) or version > JOURNAL_VERSION:
                raise StoreError(
                    f"store {self.path}: journal version {version!r} is "
                    f"newer than this code supports (v{JOURNAL_VERSION})"
                )
            self.compactions = int(payload.get("compactions", 0))
            return None
        self.frames_fallback += 1
        key = payload.get("key")
        if not isinstance(key, str):
            return None  # malformed but checksummed op: skip, don't truncate
        if op not in ("record", "failure") or op not in payload:
            return None  # unknown op: forward-compatible skip
        return key, op == "failure"

    def _truncate_torn(self, end: int, torn_bytes: int) -> None:
        fd = os.open(self.path, os.O_RDWR)
        try:
            os.ftruncate(fd, end)
            os.fsync(fd)
        finally:
            os.close(fd)
        self.torn_salvages += 1
        self.torn_bytes_dropped += torn_bytes
        logger.warning(
            "journal %s: truncated torn tail (%d bytes dropped; %d complete "
            "entries salvaged)", self.path, torn_bytes, self.journal_ops,
        )

    # -- reads / writes ------------------------------------------------------

    def _file(self, key: str, frame: bytes, failure: bool) -> None:
        self._index[key] = frame
        if failure:
            self._failed.add(key)
        else:
            self._failed.discard(key)

    def _line(self, key: str, entry: _Entry) -> bytes:
        """The frame line of one entry: held bytes, or read through the held
        descriptor (unchecked: :meth:`_checked_body` checks it)."""
        if isinstance(entry, bytes):
            return entry
        if self._fd is None:
            raise StoreError(f"store {self.path} is closed: cannot read {key!r}")
        offset, length = entry
        return os.pread(self._fd, length, offset)

    def _checked_body(self, key: str, line: bytes) -> bytes:
        """Payload bytes of ``key``'s frame line, length- and CRC-checked."""
        body = _frame_body(line[:-1]) if line.endswith(b"\n") else None
        if body is None:
            raise StoreError(
                f"store {self.path}: the frame of {key!r} no longer matches "
                "its length and checksum"
            )
        return body

    def _decode(self, key: str) -> Dict[str, Any]:
        payload = _parse_body(self._checked_body(key, self._line(key, self._index[key])))
        if payload is None:  # checksummed at replay, so not a torn write
            raise ValueError(f"journal entry {key!r}: payload is not a JSON object")
        self.decoded += 1
        return payload

    def get_record(self, key: str) -> Optional[RunRecord]:
        """Full stored record (summary + telemetry channels + provenance)."""
        return self.get_record_any(key)

    def get_record_any(self, *keys: str) -> Optional[RunRecord]:
        """First stored record among ``keys``.

        One *logical* lookup: exactly one hit or one miss is counted no
        matter how many alternative keys are probed.
        ``refresh`` mode returns None without touching the counters, as the
        single-key read always did.
        """
        if self.refresh:
            return None
        for key in keys:
            if key in self._index and key not in self._failed:
                self.hits += 1
                return RunRecord.from_dict(self._decode(key)["record"])
        # Failure entries count as misses on purpose: a later sweep
        # re-attempts the job instead of serving the failure.
        self.misses += 1
        return None

    def entries(self) -> Iterator[Tuple[str, RunRecord, Dict[str, object]]]:
        """Iterate ``(key, record, meta)`` without touching hit/miss counters.

        Failure entries are skipped — consumers of ``entries()`` expect
        result records; use :meth:`failures` for the failure ledger.
        """
        for key in self._index:
            if key not in self._failed:
                payload = self._decode(key)
                yield key, RunRecord.from_dict(payload["record"]), payload.get("meta", {})

    def failures(self) -> Iterator[Tuple[str, JobFailure, Dict[str, object]]]:
        """Iterate stored ``(key, failure, meta)`` entries."""
        for key in self._index:
            if key in self._failed:
                payload = self._decode(key)
                yield key, JobFailure.from_dict(payload["failure"]), payload.get("meta", {})

    def put(
        self,
        key: str,
        result: SimulationResult,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        """Store a bare summary (wrapped into a channel-less record)."""
        self.put_record(key, RunRecord.from_summary(result), meta=meta)

    def put_record(
        self, key: str, record: RunRecord, meta: Optional[Dict[str, object]] = None
    ) -> None:
        self._write(key, "record", record.to_dict(), meta)

    def put_failure(
        self, key: str, failure: JobFailure, meta: Optional[Dict[str, object]] = None
    ) -> None:
        """Record a terminal job failure under ``key`` (replaced by a real
        record if a later sweep succeeds on the same job)."""
        self._write(key, "failure", failure.to_dict(), meta)

    def _write(
        self, key: str, op: str, body: Dict[str, Any], meta: Optional[Dict[str, object]]
    ) -> None:
        self._check_writable()
        self._file(key, _op_frame(key, op, body, meta), op == "failure")
        self.writes += 1
        self._pending[key] = None
        self._register_atexit_flush()

    def _register_atexit_flush(self) -> None:
        """Arm a last-resort checkpoint on first write.

        Flushes pending results when the interpreter exits (including an
        unhandled KeyboardInterrupt), via a weakref so the registration
        never keeps the store alive.  Armed only once the store has actually
        been *written to*: a writable open that writes nothing never
        rewrites a JSON store it imported.
        """
        if self._atexit_registered:
            return
        self._atexit_registered = True
        self_ref = weakref.ref(self)

        def _flush_at_exit() -> None:  # pragma: no cover - exit path
            store = self_ref()
            if store is not None:
                try:
                    store.flush()
                except (OSError, StoreError) as exc:
                    logger.warning(
                        "store %s: the flush at exit failed, results written "
                        "since the last flush may be lost: %s", store.path, exc,
                    )

        atexit.register(_flush_at_exit)

    # -- lifecycle -----------------------------------------------------------

    def _check_writable(self) -> None:
        if self._lock is None or not self._lock.held:
            state = "read-only" if self._lock is None else "closed"
            raise StoreError(f"store {self.path} is {state}: cannot write to it")

    def flush(self) -> None:
        """Persist every pending write (one fsynced append)."""
        if self._pending:
            self._check_writable()
            if self._fd is None:
                # First flush of a fresh store or over an imported JSON file
                # (or foreign bytes): materialize the whole store as a journal.
                self._rewrite(bump_compaction=False)
            else:
                self._append_pending()
            if self._should_compact():
                self._rewrite(bump_compaction=True)
        self._flushed_at = time.monotonic()

    def flush_if_due(self) -> None:
        """Flush once ``flush_interval`` seconds have passed since the last
        flush: the one periodic checkpoint of a running sweep, which keeps it
        resumable without a fsync per completed job."""
        if time.monotonic() - self._flushed_at >= self.flush_interval:
            self.flush()

    def close(self) -> None:
        """Flush pending writes, then release the read descriptor and the
        lock; a lookup or a write after this raises :class:`StoreError`."""
        try:
            self.flush()
        finally:
            self._release()

    def _release(self) -> None:
        self._release_descriptor()
        if self._lock is not None:
            self._lock.release()

    def _bind(self, fd: int) -> None:
        """Make ``fd`` the read descriptor, closing the one held before.

        Called only by the replay or the rewrite that produced the offsets
        ``fd`` serves, once nothing reads through the old one any more.
        """
        self._release_descriptor()
        self._fd = fd
        self._fd_closer = weakref.finalize(self, os.close, fd)
        # Not at exit: the flush at exit may still need it, and the process's
        # descriptors close with it anyway.
        self._fd_closer.atexit = False

    def _release_descriptor(self) -> None:
        if self._fd_closer is not None:
            self._fd_closer()
            self._fd_closer = None
        self._fd = None

    def _append_pending(self) -> None:
        index = self._index
        frames = b"".join(map(index.__getitem__, self._pending))
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            if os.environ.get(_CRASH_SEAM_ENV) == "append-partial":
                # pragma-free test seam: die after half a frame hits disk.
                os.write(fd, frames[: max(1, len(frames) // 2)])
                os.fsync(fd)
                os._exit(17)
            os.write(fd, frames)
            os.fsync(fd)
            # where the batch landed, as the file says (O_APPEND: at its end)
            offset = os.lseek(fd, 0, os.SEEK_CUR) - len(frames)
        finally:
            os.close(fd)
        for key in self._pending:
            self.journal_ops += 1
            if key in self._file_keys:
                self.superseded += 1
            self._file_keys[key] = None
            length = len(index[key])
            index[key] = (offset, length)
            offset += length
        self._end = offset
        self._pending.clear()

    def _header_payload(self, compactions: int) -> Dict[str, Any]:
        return {
            "op": "header",
            "journal_version": JOURNAL_VERSION,
            "store_version": STORE_VERSION,
            "compactions": compactions,
        }

    # -- compaction ------------------------------------------------------------

    def compact(self) -> None:
        """Force a compaction now (pending writes go into the snapshot)."""
        self._check_writable()
        self._rewrite(bump_compaction=True)

    def _should_compact(self) -> bool:
        live = len(self._index)
        ops = self.journal_ops
        dead = max(0, ops - live)
        if ops >= COMPACT_MIN_OPS and ops > 0:
            if dead / ops >= COMPACT_MIN_DEAD_FRACTION:
                return True
        return self._end >= COMPACT_MIN_BYTES and dead > 0

    def _rewrite(self, bump_compaction: bool) -> None:
        """Write the whole store as a fresh sorted journal (tmp + rename).

        Used by compaction (``bump_compaction=True``) and by first-flush
        materialization, over an imported JSON file included.  Crash-safe:
        the snapshot is complete and fsynced before the rename, and the
        directory is fsynced after, so a crash leaves either the old file or
        the whole new one.  Every frame on file is read through the old
        descriptor before the snapshot's own handle is bound.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._clean_stale_tmps(directory)
        compactions = self.compactions + (1 if bump_compaction else 0)
        tmp_path = os.path.join(
            directory, os.path.basename(self.path) + f".compact.{os.getpid()}.tmp"
        )
        index = self._index
        placed: Dict[str, Tuple[int, int]] = {}
        # Opened for reading too: its duplicate becomes the read descriptor.
        with open(tmp_path, "w+b") as handle:
            offset = handle.write(frame_entry(self._header_payload(compactions)))
            for key in sorted(index):
                line = self._line(key, index[key])
                self._checked_body(key, line)
                handle.write(line)
                placed[key] = (offset, len(line))
                offset += len(line)
            handle.flush()
            os.fsync(handle.fileno())
            fd = os.dup(handle.fileno())
        _crash_seam("compact-before-replace")
        try:
            os.replace(tmp_path, self.path)
        except OSError:
            os.close(fd)
            raise
        _crash_seam("compact-after-replace")
        fsync_directory(directory)
        index.update(placed)  # updating in place keeps the iteration order
        self._bind(fd)
        self.compactions = compactions
        self.journal_ops = len(index)
        self._file_keys = dict.fromkeys(index)
        self._end = offset
        self._pending.clear()  # every entry is on file now

    def _clean_stale_tmps(self, directory: str) -> None:
        """Remove tmp snapshots left by compactions that died pre-rename."""
        prefix = os.path.basename(self.path) + ".compact."
        try:
            names = sorted(os.listdir(directory))
        except OSError:  # pragma: no cover - racing deletion
            return
        for name in names:
            if name.startswith(prefix) and name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:  # pragma: no cover - racing cleanup
                    pass

    # -- stats -----------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Durability statistics for ``inspect --verbose``."""
        return dict(
            entries=len(self),
            journal_ops=self.journal_ops,
            superseded=self.superseded,
            torn_salvages=self.torn_salvages,
            torn_bytes_dropped=self.torn_bytes_dropped,
            compactions=self.compactions,
            migrated_v1=self.migrated,
            resident_bytes=sum(
                len(entry) for entry in self._index.values() if isinstance(entry, bytes)
            ),
            frames_fallback=self.frames_fallback,
            decoded=self.decoded,
        )
