"""Append-only journaled store backend (write-ahead log + compaction).

The journal is a single file of checksummed, length-framed JSONL entries::

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
older code reads these frames and :data:`JOURNAL_VERSION` stays 1.  In memory
an entry *is* its frame (:class:`_FrameMap`): opening costs a scan, a lookup
decodes the one frame it returns, and ``put_record`` encodes at the write site
(an unserialisable ``meta`` raises there, not at ``flush``).  On the ledger's
37 MB journal: reopen 1.10 -> 0.11 s, peak RSS 259 -> 77 MB (DESIGN §12).

Durability and concurrency contract:

* **one fsynced append per flush** — a flush frames only the keys written
  since the previous flush and appends them with a single ``write`` +
  ``fsync``, so persisting a sweep's next results is O(new records), never
  O(store);
* **torn-write recovery** — opening (and absorbing, below) scans frames and
  *truncates* an invalid tail instead of raising: a SIGKILL/power loss at
  any byte offset costs at most the half-written final entry, and every
  complete record before it is salvaged (logged, counted in
  :attr:`torn_salvages`);
* **advisory locking** — every critical section (recovery, append,
  compaction) runs under the store's :class:`StoreLock`, so any number of
  orchestrator processes can write one journal: appends interleave instead
  of clobbering.  Because appends happen only under the lock and are
  fsynced before release, a torn tail can only belong to a *dead* writer —
  truncating it under the lock never destroys live data;
* **absorption** — before appending, a flush reads every frame a peer
  appended since our last offset and merges it into memory (our pending
  writes win ties; tied keys are identical by construction — records are
  keyed by config content hash).  :meth:`refresh_from_disk` exposes the
  same absorption to the orchestrator, which calls it before dispatch so a
  second sweep resumes from a peer's partial results;
* **compaction** — when the journal accumulates enough superseded ops (or
  bytes), it is rewritten as a sorted snapshot: header + one frame per live
  key in key order, built in a tmp file, fsynced, ``os.replace``d over the
  journal, directory fsynced.  A crash at any point leaves either the old
  journal or the complete new one — never a mix.  Peers detect the swap via
  the header's compaction counter (or a shrunken file) and resynchronize
  from offset zero.
"""

from __future__ import annotations

import json
import logging
import os
import re
import zlib
from typing import Any, Dict, Iterator, List, MutableMapping, Optional, Set, Tuple

from .base import (
    FLUSH_INTERVAL_SECONDS,
    JOURNAL_MAGIC,
    STORE_VERSION,
    ResultStore,
    detect_format,
)
from .errors import StoreError
from .json_store import fsync_directory, read_json_store
from .locking import DEFAULT_LOCK_TIMEOUT, StoreLock

__all__ = ["JournalStore", "frame_entry", "parse_frame_line", "scan_frames"]

logger = logging.getLogger("repro.store")

#: on-disk journal framing version (independent of the record schema).
JOURNAL_VERSION = 1

#: compaction trigger defaults: at least this many ops on file *and* at
#: least this fraction of them superseded (or this many bytes with any
#: dead ops at all).  Small enough to matter for long-lived shared stores,
#: large enough that paper-scale sweeps never compact mid-run by surprise.
DEFAULT_COMPACT_MIN_OPS = 4096
DEFAULT_COMPACT_MIN_DEAD_FRACTION = 0.5
DEFAULT_COMPACT_MIN_BYTES = 64 << 20

#: crash-injection seam for the crash-safety tests: set
#: ``REPRO_TEST_STORE_CRASH`` to one of ``append-partial`` /
#: ``compact-before-replace`` / ``compact-after-replace`` to hard-exit the
#: process at that point (mirrors the orchestrator's REPRO_TEST_CRASH_KEY).
_CRASH_SEAM_ENV = "REPRO_TEST_STORE_CRASH"


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


def _crash_seam(point: str) -> None:
    if os.environ.get(_CRASH_SEAM_ENV) == point:  # pragma: no cover - test seam
        os._exit(17)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class _FrameMap(MutableMapping[str, Dict[str, Any]]):
    """``key -> entry`` for the shared :class:`ResultStore` code, held as each
    entry's encoded frame: ``__setitem__`` encodes, ``__getitem__`` decodes,
    membership and length touch no payload."""

    def __init__(self) -> None:
        #: live key -> its frame line, exactly what is or will be on disk
        #: (flush joins these, compaction writes them straight through).
        self.frames: Dict[str, bytes] = {}
        #: live keys whose frame is a ``failure`` op (every other is a record).
        self.failed: Set[str] = set()
        self.decoded = 0  # payload decodes served

    def file(self, key: str, frame: bytes, failure: bool) -> None:
        self.frames[key] = frame
        if failure:
            self.failed.add(key)
        else:
            self.failed.discard(key)

    def __setitem__(self, key: str, entry: Dict[str, Any]) -> None:
        kind = "record" if "record" in entry else "failure"
        payload = {"key": key, "op": kind, kind: entry.get(kind, {}), "meta": entry.get("meta", {})}
        self.file(key, frame_entry(payload), kind == "failure")

    def __getitem__(self, key: str) -> Dict[str, Any]:
        payload = parse_frame_line(self.frames[key][:-1])
        if payload is None:  # checksummed at replay, so not a torn write
            raise ValueError(f"journal entry {key!r}: payload is not a JSON object")
        self.decoded += 1
        kind = "failure" if key in self.failed else "record"
        return {kind: payload[kind], "meta": payload.get("meta", {})}

    def __delitem__(self, key: str) -> None:
        del self.frames[key]
        self.failed.discard(key)

    def __contains__(self, key: object) -> bool:
        return key in self.frames

    def __iter__(self) -> Iterator[str]:
        return iter(self.frames)

    def __len__(self) -> int:
        return len(self.frames)


class JournalStore(ResultStore):
    """Journaled result store (see module docstring for the full contract)."""

    FORMAT = "journal"
    _results: _FrameMap

    def __init__(
        self,
        path: str,
        refresh: bool = False,
        flush_interval: float = FLUSH_INTERVAL_SECONDS,
        strict: bool = False,
        format: str = "auto",  # noqa: A002 - accepted for facade dispatch
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
        compact_min_ops: int = DEFAULT_COMPACT_MIN_OPS,
        compact_min_dead_fraction: float = DEFAULT_COMPACT_MIN_DEAD_FRACTION,
        compact_min_bytes: int = DEFAULT_COMPACT_MIN_BYTES,
        auto_compact: bool = True,
    ) -> None:
        super().__init__(
            path, refresh=refresh, flush_interval=flush_interval, strict=strict
        )
        self._lock = StoreLock(self.path, timeout=lock_timeout)
        self._results = _FrameMap()
        #: keys written since the last flush, in write order (append queue).
        self._pending: Dict[str, None] = {}
        #: keys known to have at least one frame on file (supersede stats).
        self._file_keys: Dict[str, None] = {}
        #: byte offset up to which we have replayed/absorbed the file.
        self._read_offset = 0
        self._compact_min_ops = int(compact_min_ops)
        self._compact_min_dead_fraction = float(compact_min_dead_fraction)
        self._compact_min_bytes = int(compact_min_bytes)
        self._auto_compact = bool(auto_compact)
        #: non-header ops currently replayed from the file.
        self.journal_ops = 0
        #: ops observed to be overwritten by a later op (cumulative).
        self.superseded = 0
        #: torn-tail recoveries performed (open + absorb), and bytes dropped.
        self.torn_salvages = 0
        self.torn_bytes_dropped = 0
        #: lifetime compaction count (from the journal header).
        self.compactions = 0
        #: records/failures absorbed from other writers of this journal.
        self.absorbed_records = 0
        #: frames the last replay/absorb had to parse in full to place.
        self.frames_fallback = 0
        self._open_journal(strict)

    # -- open / recovery -----------------------------------------------------

    def _open_journal(self, strict: bool) -> None:
        existing = detect_format(self.path)
        if existing is None:
            if strict:
                raise StoreError(f"store not found: {self.path}")
            return  # created on first flush
        if existing == "empty":
            return
        if existing == "json":
            self._migrate_json(strict)
            return
        if existing == "unknown":
            if strict:
                raise StoreError(
                    f"store {self.path}: unrecognized format "
                    "(neither JSON nor journal)"
                )
            return  # lenient: fresh in memory; first flush rewrites the file
        with self._lock:
            self._replay_locked(0, absorb=False)

    def _migrate_json(self, strict: bool) -> None:
        """Adopt an existing monolithic JSON store, rewriting it as a journal.

        Strict parsing on purpose even for lenient opens: migration replaces
        the file, and a file we could not fully read must never be replaced
        by an empty journal.
        """
        entries, self.migrated = read_json_store(self.path, strict=True)
        self._results.update(entries)
        with self._lock:
            self._rewrite_locked(bump_compaction=False)
        logger.info(
            "migrated JSON store %s (%d entr%s%s) to journal format",
            self.path, len(entries), "y" if len(entries) == 1 else "ies",
            f", {self.migrated} from v1" if self.migrated else "",
        )

    def _replay_locked(self, offset: int, absorb: bool) -> None:
        """Replay the file's frames from ``offset`` on, filing each op's bytes;
        stops at the first torn or corrupt frame and truncates what follows.

        ``absorb=True`` marks a mid-life merge of a *peer's* appends: our own
        un-flushed writes (``_pending``) win ties, and newly learned entries
        are counted in :attr:`absorbed_records`.
        """
        results, file_keys, pending = self._results, self._file_keys, self._pending
        self.frames_fallback = 0
        end = offset
        with open(self.path, "rb") as handle:
            handle.seek(offset)
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
                end += len(line)
                if placed is None:
                    continue
                key, failure = placed
                self.journal_ops += 1
                if key in file_keys:
                    self.superseded += 1
                file_keys[key] = None
                if absorb and key in pending:
                    continue  # our pending write is newer than the peer's
                if absorb and key not in results:
                    self.absorbed_records += 1
                results.file(key, line, failure)
            size = os.fstat(handle.fileno()).st_size
        if end < size:
            self._truncate_torn(end, size - end)
        self._read_offset = end

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

    def _kind(self, key: str) -> Optional[str]:
        if key not in self._results:
            return None
        return "failure" if key in self._results.failed else "record"

    def _note_write(self, key: str) -> None:
        super()._note_write(key)
        self._pending[key] = None

    def flush(self) -> None:
        if not self._dirty and not self._pending:
            return
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if detect_format(self.path) != "journal":
            # First flush of a fresh store (or the path was emptied/replaced
            # by foreign bytes): materialize the whole store as a journal.
            self._rewrite_locked(bump_compaction=False)
        else:
            self._absorb_locked()
            self._append_pending_locked()
        self._pending.clear()
        self._dirty = False
        if self._auto_compact and self._should_compact():
            self._rewrite_locked(bump_compaction=True)

    def _append_pending_locked(self) -> None:
        if not self._pending:
            return
        frames = b"".join(map(self._results.frames.__getitem__, self._pending))
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            if os.environ.get(_CRASH_SEAM_ENV) == "append-partial":
                # pragma-free test seam: die after half a frame hits disk.
                os.write(fd, frames[: max(1, len(frames) // 2)])
                os.fsync(fd)
                os._exit(17)
            os.write(fd, frames)
            os.fsync(fd)
        finally:
            os.close(fd)
        for key in self._pending:
            self.journal_ops += 1
            if key in self._file_keys:
                self.superseded += 1
            self._file_keys[key] = None
        self._read_offset += len(frames)

    def _header_payload(self, compactions: int) -> Dict[str, Any]:
        return {
            "op": "header",
            "journal_version": JOURNAL_VERSION,
            "store_version": STORE_VERSION,
            "compactions": compactions,
        }

    # -- absorption (shared-writer merges) -------------------------------------

    def refresh_from_disk(self) -> int:
        """Absorb frames other writers appended; returns new records learned."""
        if detect_format(self.path) != "journal":
            return 0
        before = self.absorbed_records
        with self._lock:
            self._absorb_locked()
        return self.absorbed_records - before

    def _absorb_locked(self) -> None:
        try:
            size = os.path.getsize(self.path)
        except OSError:  # pragma: no cover - racing deletion
            return
        header = self._read_header()
        if header is None or (
            int(header.get("compactions", 0)) != self.compactions
            or size < self._read_offset
        ):
            # A peer compacted (or wholesale-rewrote) the journal: our byte
            # offset refers to the previous file generation.  Resync fully.
            self._resync_locked()
            return
        if size > self._read_offset:
            # Appends are fsynced under the lock, so a torn tail here can
            # only belong to a writer that died mid-append: safe to drop.
            self._replay_locked(self._read_offset, absorb=True)

    def _resync_locked(self) -> None:
        results = self._results
        stash, stash_failed = results.frames, results.failed
        results.frames, results.failed = {}, set()
        self._file_keys = {}
        self.journal_ops = 0
        self._replay_locked(0, absorb=False)
        foreign = sum(1 for key in results if key not in stash)
        self.absorbed_records += foreign
        for key, frame in stash.items():
            if key in self._pending or key not in results:
                # Ours and newer than anything replayed — or an entry we knew
                # that the new file generation lost (a peer rewrote from
                # partial knowledge): (re-)own it so the next append restores
                # durability — no record goes missing.
                results.file(key, frame, key in stash_failed)
                self._pending[key] = None
                self._dirty = True
        if stash:
            logger.info(
                "journal %s: resynchronized after peer compaction "
                "(%d entries on file, %d newly absorbed)",
                self.path, len(results), foreign,
            )

    def _read_header(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.path, "rb") as handle:
                line = handle.readline(4096)
        except OSError:  # pragma: no cover - racing deletion
            return None
        if not line.endswith(b"\n"):
            return None
        payload = parse_frame_line(line[:-1])
        if payload is None or payload.get("op") != "header":
            return None
        return payload

    # -- compaction ------------------------------------------------------------

    def compact(self) -> None:
        """Force a compaction now (absorbing peers' appends first)."""
        with self._lock:
            if detect_format(self.path) == "journal":
                self._absorb_locked()
                self._append_pending_locked()
                self._pending.clear()
                self._dirty = False
            self._rewrite_locked(bump_compaction=True)

    def _should_compact(self) -> bool:
        live = len(self._results)
        ops = self.journal_ops
        dead = max(0, ops - live)
        if ops >= self._compact_min_ops and ops > 0:
            if dead / ops >= self._compact_min_dead_fraction:
                return True
        return self._read_offset >= self._compact_min_bytes and dead > 0

    def _rewrite_locked(self, bump_compaction: bool) -> None:
        """Write the whole store as a fresh sorted journal (tmp + rename).

        Used by compaction (``bump_compaction=True`` — peers detect the new
        generation via the header counter), by first-flush materialization,
        and by JSON migration.  Crash-safe: the snapshot is complete and
        fsynced before the rename, and the directory is fsynced after, so a
        crash leaves either the old file or the whole new one.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._clean_stale_tmps(directory)
        compactions = self.compactions + (1 if bump_compaction else 0)
        tmp_path = os.path.join(
            directory, os.path.basename(self.path) + f".compact.{os.getpid()}.tmp"
        )
        with open(tmp_path, "wb") as handle:
            handle.write(frame_entry(self._header_payload(compactions)))
            frames = self._results.frames
            handle.writelines(frames[key] for key in sorted(frames))
            handle.flush()
            os.fsync(handle.fileno())
        _crash_seam("compact-before-replace")
        os.replace(tmp_path, self.path)
        _crash_seam("compact-after-replace")
        fsync_directory(directory)
        self.compactions = compactions
        self.journal_ops = len(self._results)
        self._file_keys = {key: None for key in self._results}
        self._read_offset = os.path.getsize(self.path)

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
        info = super().describe()
        info.update(
            journal_ops=self.journal_ops,
            superseded=self.superseded,
            torn_salvages=self.torn_salvages,
            torn_bytes_dropped=self.torn_bytes_dropped,
            compactions=self.compactions,
            absorbed=self.absorbed_records,
            migrated_v1=self.migrated,
            resident_bytes=sum(map(len, self._results.frames.values())),
            frames_fallback=self.frames_fallback,
            decoded=self._results.decoded,
        )
        return info
