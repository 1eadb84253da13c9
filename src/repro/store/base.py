"""Result-store facade: format detection and the shared in-memory core.

``ResultStore(path)`` is the single entry point every caller keeps using.
Constructing it dispatches — by sniffing the file's leading bytes, or by an
explicit ``format=`` request — to one of two concrete backends:

* :class:`~repro.store.json_store.JsonStore` — the legacy monolithic JSON
  file, rewritten whole on flush (now fsynced, and with concurrent writers
  *detected* instead of silently last-writer-wins);
* :class:`~repro.store.journal.JournalStore` — an append-only write-ahead
  journal of checksummed, length-framed JSONL entries with advisory
  locking, torn-write recovery and background compaction, safe for
  concurrent writer processes sharing one path.

Everything above the file format — the key→record dictionary, hit/miss
accounting, v1 migration bookkeeping, failure entries, the atexit
checkpoint — lives here so both backends behave identically to consumers
(``run_jobs``, ``inspect``, the figure wrappers).
"""

from __future__ import annotations

import atexit
import weakref
from typing import Any, ClassVar, Dict, Iterator, MutableMapping, Optional, Tuple

from ..record import JobFailure, RunRecord
from ..metrics import SimulationResult
from .errors import StoreError

__all__ = [
    "FLUSH_INTERVAL_SECONDS",
    "JOURNAL_MAGIC",
    "STORE_FORMATS",
    "STORE_VERSION",
    "ResultStore",
    "detect_format",
    "migrate_v1_entries",
]

#: store format version; bump when the result schema changes.
#: v1 stored flat ``SimulationResult`` dicts; v2 stores versioned
#: :class:`~repro.record.RunRecord` payloads (summary + telemetry channels +
#: provenance).  v1 files are migrated in memory on open — no re-simulation.
STORE_VERSION = 2

#: default minimum seconds between mid-sweep store flushes (resumability vs
#: I/O); per-store override via ``ResultStore(flush_interval=...)``.
FLUSH_INTERVAL_SECONDS = 5.0

#: every journal frame (and therefore every journal file) starts with this.
JOURNAL_MAGIC = b"J1 "

#: accepted values of the ``format=`` parameter / ``--store-format`` flag.
STORE_FORMATS = ("auto", "json", "journal")


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


def _resolve_format(path: str, requested: str) -> str:
    """Concrete backend for ``path`` given the requested format.

    ``auto`` preserves whatever is on disk (new/empty/unrecognized files get
    the legacy-compatible JSON default, so library callers creating fresh
    stores keep byte-identical behavior); ``journal`` adopts any existing
    JSON store by migrating it on open; ``json`` on a journal file is a
    hard error — appending monolithic JSON over a journal would corrupt it.
    """
    if requested not in STORE_FORMATS:
        raise ValueError(
            f"store format must be one of {STORE_FORMATS}, got {requested!r}"
        )
    existing = detect_format(path)
    if requested == "json":
        if existing == "journal":
            raise StoreError(
                f"store {path} is a journal store; open it with "
                "format='journal' (or 'auto') instead of 'json'"
            )
        return "json"
    if requested == "journal":
        return "journal"
    return existing if existing in ("json", "journal") else "json"


class ResultStore:
    """Store of run records keyed by config hash (format-dispatching facade).

    ``ResultStore(path)`` returns a :class:`JsonStore` or
    :class:`JournalStore` according to the file's content (``format="auto"``)
    or an explicit ``format=`` request.  ``refresh=True`` turns reads into
    misses while still persisting new results — the CLI's ``--force``.
    ``flush_interval`` tunes how often a running sweep checkpoints
    mid-flight; the first write also arms a flush at interpreter exit, so
    killed sweeps keep their latest completed points while read-only opens
    (e.g. ``inspect``) never rewrite the file.

    Entries are versioned :class:`~repro.record.RunRecord` payloads (store
    format v2).  Opening a v1 file — flat ``SimulationResult`` dicts as
    written by earlier code — migrates every entry in memory (marking the
    store dirty so the next flush persists v2) without re-running a single
    simulation.
    """

    #: concrete backends override with "json" / "journal".
    FORMAT: ClassVar[str] = "auto"

    def __new__(cls, path: str, *args: Any, **kwargs: Any) -> "ResultStore":
        if cls is not ResultStore:
            return object.__new__(cls)
        resolved = _resolve_format(str(path), str(kwargs.get("format", "auto")))
        from .json_store import JsonStore
        from .journal import JournalStore

        return object.__new__(JournalStore if resolved == "journal" else JsonStore)

    def __init__(
        self,
        path: str,
        refresh: bool = False,
        flush_interval: float = FLUSH_INTERVAL_SECONDS,
        strict: bool = False,
        format: str = "auto",  # noqa: A002 - established CLI vocabulary
    ) -> None:
        self.path = str(path)
        self.refresh = refresh
        self.flush_interval = float(flush_interval)
        self.strict = bool(strict)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: config hash -> {"record": <RunRecord dict>, "meta": {...}}
        #: (or {"failure": ..., "meta": ...} for typed terminal failures).
        self._results: MutableMapping[str, Dict[str, Any]] = {}
        self._dirty = False
        #: number of v1 entries migrated at open time (diagnostics).
        self.migrated = 0
        self._atexit_registered = False

    # -- shared read/write surface -------------------------------------------

    def __len__(self) -> int:
        return len(self._results)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def _kind(self, key: str) -> Optional[str]:
        """``"record"`` / ``"failure"`` for what ``key`` holds, None if absent
        (the journal backend answers without materialising the entry)."""
        entry = self._results.get(key, {})
        return "record" if "record" in entry else "failure" if "failure" in entry else None

    def get(self, key: str) -> Optional[SimulationResult]:
        """Stored summary for ``key`` (None on miss) — compatibility view."""
        record = self.get_record(key)
        return None if record is None else record.summary

    def get_record(self, key: str) -> Optional[RunRecord]:
        """Full stored record (summary + telemetry channels + provenance)."""
        return self.get_record_any(key)

    def get_record_any(self, *keys: str) -> Optional[RunRecord]:
        """First stored record among ``keys``.

        One *logical* lookup: exactly one hit or one miss is counted no
        matter how many alternative keys are probed (the adaptive scheduler
        checks a point's plain config key and its extrapolated alias).
        ``refresh`` mode returns None without touching the counters, as the
        single-key read always did.
        """
        if self.refresh:
            return None
        for key in keys:
            if self._kind(key) == "record":
                self.hits += 1
                return RunRecord.from_dict(self._results[key]["record"])
        # Failure entries (no "record" payload) count as misses on purpose:
        # a later sweep re-attempts the job instead of serving the failure.
        self.misses += 1
        return None

    def entries(self) -> Iterator[Tuple[str, RunRecord, Dict[str, object]]]:
        """Iterate ``(key, record, meta)`` without touching hit/miss counters.

        Failure entries are skipped — consumers of ``entries()`` expect
        result records; use :meth:`failures` for the failure ledger.
        """
        for key in self._results:
            if self._kind(key) == "record":
                entry = self._results[key]
                yield key, RunRecord.from_dict(entry["record"]), entry.get("meta", {})

    def failures(self) -> Iterator[Tuple[str, JobFailure, Dict[str, object]]]:
        """Iterate stored ``(key, failure, meta)`` entries."""
        for key in self._results:
            if self._kind(key) == "failure":
                entry = self._results[key]
                yield key, JobFailure.from_dict(entry["failure"]), entry.get("meta", {})

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
        self._results[key] = {"record": record.to_dict(), "meta": meta or {}}
        self._note_write(key)

    def put_failure(
        self, key: str, failure: JobFailure, meta: Optional[Dict[str, object]] = None
    ) -> None:
        """Record a terminal job failure under ``key`` (replaced by a real
        record if a later sweep succeeds on the same job)."""
        self._results[key] = {"failure": failure.to_dict(), "meta": meta or {}}
        self._note_write(key)

    def _note_write(self, key: str) -> None:
        """Bookkeeping common to every write (backends may extend)."""
        self.writes += 1
        self._dirty = True
        self._register_atexit_flush()

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Flush pending writes and release backend resources (locks)."""
        self.flush()

    def refresh_from_disk(self) -> int:
        """Absorb records other processes persisted since our last read.

        Returns how many foreign records were newly absorbed.  The legacy
        JSON backend cannot do this incrementally (the file is a monolith
        with no append semantics) and returns 0; the journal backend reads
        the shared journal's new tail, which is what lets a second sweep
        process resume from — and interleave with — another's partial
        results.
        """
        return 0

    def describe(self) -> Dict[str, object]:
        """Format/durability statistics for ``inspect --verbose``."""
        return {"format": self.FORMAT, "entries": len(self)}

    def _register_atexit_flush(self) -> None:
        """Arm a last-resort checkpoint on first write.

        Flushes dirty results when the interpreter exits (including an
        unhandled KeyboardInterrupt), via a weakref so the registration
        never keeps the store alive.  Armed only once the store has actually
        been *written to* — read-only opens (``inspect``, including ones
        that migrate v1 entries in memory) must never rewrite a file that
        another process may be appending to.
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
                except (OSError, StoreError):
                    pass

        atexit.register(_flush_at_exit)


def migrate_v1_entries(
    entries: Dict[str, Dict[str, Any]]
) -> Tuple[Dict[str, Dict[str, Any]], int]:
    """Wrap v1 ``{"result": ..., "meta": ...}`` entries into v2 records.

    Returns the upgraded entry dict plus how many entries were migrated; no
    simulation is re-run (summaries are adopted verbatim, see
    :meth:`RunRecord.migrate_v1`).
    """
    upgraded: Dict[str, Dict[str, Any]] = {}
    migrated = 0
    for key, entry in entries.items():
        try:
            record = RunRecord.migrate_v1(entry["result"], meta=entry.get("meta"))
        except (KeyError, TypeError):  # pragma: no cover - damaged entry
            continue
        upgraded[key] = {"record": record.to_dict(), "meta": entry.get("meta", {})}
        migrated += 1
    return upgraded, migrated
