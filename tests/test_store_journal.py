"""Durability of the journaled result store (PR 10).

The properties under test are the tentpole's acceptance criteria:

* a SIGKILL at an *arbitrary byte offset* of an append loses at most the
  half-written final entry — reopening salvages every fully-written record
  and never raises;
* a crash at any point of a compaction leaves either the old journal or the
  complete new one, never a mix;
* two concurrent writer processes sharing one journal produce the exact
  union of their records — zero lost;
* a second sweep over a shared store resumes from a peer's partial results
  (cache hits, not re-simulation);
* monolithic JSON stores written by earlier code (v1 and v2, pinned under
  ``tests/data``) are imported on open without being touched and replaced
  by a journal on the first flush, losslessly — also when two processes
  import the same file; one that cannot be read in full is never replaced;
* an entry on file is held as its offset: a reopened store keeps no payload
  bytes and reads through one descriptor that ``close()`` releases, and two
  writers on one path each read exactly what a last-write-wins model of what
  they have seen says, through a peer's compaction and through a journal
  removed and started again under them.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.store.journal as journal_module
import repro.store.locking as locking_module

from repro.config import SimulationConfig
from repro.experiments.orchestrator import Job, run_jobs
from repro.keys import config_key
from repro.metrics import SimulationResult
from repro.record import JobFailure, RunRecord
from repro.store import (
    ResultStore,
    StoreError,
    StoreLock,
    StoreLockTimeout,
    detect_format,
    frame_entry,
    parse_frame_line,
    scan_frames,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

#: pinned store files (copied to ``tmp_path`` before being opened).
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

def sample_summary(**overrides) -> SimulationResult:
    base = dict(
        offered_load=0.5, accepted_load=0.42, average_latency=150.5,
        latency_p99=310.0, packets_delivered=100, packets_generated=120,
        phits_delivered=800, measured_cycles=300, num_nodes=8,
        misrouted_fraction=0.1, deadlock_suspected=False, extra={},
    )
    base.update(overrides)
    return SimulationResult(**base)


def fill(store: ResultStore, keys) -> None:
    for i, key in enumerate(keys):
        store.put(key, sample_summary(offered_load=0.1 + 0.01 * i))


#: boilerplate prepended to every subprocess helper script.
CHILD_PRELUDE = """
import os, sys
from repro.store import ResultStore
from repro.metrics import SimulationResult

def summary(i):
    return SimulationResult(
        offered_load=0.1 * i, accepted_load=0.09 * i, average_latency=10.0 + i,
        latency_p99=20.0 + i, packets_delivered=100 * i, packets_generated=110 * i,
        phits_delivered=400 * i, measured_cycles=300, num_nodes=8,
        misrouted_fraction=0.0, deadlock_suspected=False, extra={},
    )
"""


def run_child(script: str, *args: str, env: dict | None = None, **popen_kwargs):
    child_env = dict(os.environ)
    if env:
        child_env.update(env)
    return subprocess.run(
        [sys.executable, "-c", CHILD_PRELUDE + textwrap.dedent(script), *args],
        capture_output=True, text=True, env=child_env, timeout=120,
        **popen_kwargs,
    )


# ---------------------------------------------------------------------------
# Frame layer
# ---------------------------------------------------------------------------

class TestFraming:
    def test_roundtrip(self):
        payload = {"op": "record", "key": "abc", "record": {"x": [1, 2.5, None]}}
        line = frame_entry(payload)
        assert line.startswith(b"J1 ") and line.endswith(b"\n")
        assert parse_frame_line(line[:-1]) == payload

    def test_frame_bytes_are_pinned(self):
        # one frame as the previous commit's writer produced it, byte for byte
        record = RunRecord.from_summary(SimulationResult(
            offered_load=0.1, accepted_load=0.09, average_latency=11.0,
            latency_p99=21.0, packets_delivered=100, packets_generated=110,
            phits_delivered=400, measured_cycles=300, num_nodes=8,
            misrouted_fraction=0.0, deadlock_suspected=False, extra={},
        ))
        meta = {"series": "Baseline", "load": 0.1, "seed": 1}
        pinned = (
            b'J1 419 a5308972 {"key":"7c1e-alpha","op":"record","meta":{"load":0.1,'
            b'"seed":1,"series":"Baseline"},"record":{"channels":{},"provenance":{},'
            b'"schema_version":2,"summary":{"accepted_load":0.09,"average_latency":11.0,'
            b'"deadlock_suspected":false,"extra":{},"latency_p99":21.0,'
            b'"measured_cycles":300,"misrouted_fraction":0.0,"num_nodes":8,'
            b'"offered_load":0.1,"packets_delivered":100,"packets_generated":110,'
            b'"phits_delivered":400},"windows":[]}}\n'
        )
        assert frame_entry({"key": "7c1e-alpha", "op": "record",
                            "record": record.to_dict(), "meta": meta}) == pinned
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "s.journal")
            store = ResultStore(path)
            store.put_record("7c1e-alpha", record, meta=meta)
            store.close()
            with open(path, "rb") as handle:
                assert handle.read().splitlines(keepends=True)[1] == pinned

    def test_corruption_is_rejected(self):
        line = frame_entry({"op": "record", "key": "k"})[:-1]
        assert parse_frame_line(line) is not None
        # flip one payload byte: crc mismatch
        broken = line[:-3] + bytes([line[-3] ^ 0x01]) + line[-2:]
        assert parse_frame_line(broken) is None
        # truncated payload: length mismatch
        assert parse_frame_line(line[:-1]) is None
        # foreign line entirely
        assert parse_frame_line(b'{"version": 2}') is None
        assert parse_frame_line(b"J1 garbage") is None

    def test_scan_stops_at_first_bad_frame(self):
        good = frame_entry({"op": "record", "key": "a"})
        also_good = frame_entry({"op": "record", "key": "b"})
        torn = frame_entry({"op": "record", "key": "c"})[:-7]  # no newline
        data = good + also_good + torn
        payloads, end = scan_frames(data)
        assert [p["key"] for p in payloads] == ["a", "b"]
        assert end == len(good) + len(also_good)
        # a bad frame hides everything after it (prefix-validity rule)
        data = good + b"XX corrupt line\n" + also_good
        payloads, end = scan_frames(data)
        assert [p["key"] for p in payloads] == ["a"]
        assert end == len(good)


# ---------------------------------------------------------------------------
# Journal basics
# ---------------------------------------------------------------------------

class TestJournalStore:
    def test_roundtrip_and_autodetect(self, tmp_path):
        path = str(tmp_path / "store.journal")
        store = ResultStore(path, format="journal")
        fill(store, ["k1", "k2", "k3"])
        store.put_failure("k4", JobFailure(reason="timeout", detail="3s"))
        store.flush()
        assert detect_format(path) == "journal"

        clone = ResultStore(path)
        assert len(clone) == 4
        assert clone.get_record("k2") is not None
        failures = list(clone.failures())
        assert len(failures) == 1 and failures[0][1].reason == "timeout"
        # failure entries read as cache misses
        assert clone.get_record("k4") is None

    def test_appends_supersede_and_count(self, tmp_path):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path, format="journal")
        fill(store, ["a", "b"])
        store.flush()
        size_after_first = os.path.getsize(path)
        store.put("a", sample_summary(offered_load=0.9))
        store.flush()
        # append-only: the second flush grew the file, no rewrite
        assert os.path.getsize(path) > size_after_first

        clone = ResultStore(path)
        assert len(clone) == 2  # last write wins
        assert clone.get_record("a").summary.offered_load == pytest.approx(0.9)
        info = clone.describe()
        assert info["journal_ops"] == 3 and info["superseded"] == 1

    def test_flush_is_incremental_not_o_store(self, tmp_path):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path, format="journal")
        fill(store, [f"k{i}" for i in range(50)])
        store.flush()
        size = os.path.getsize(path)
        store.put("one-more", sample_summary())
        store.flush()
        growth = os.path.getsize(path) - size
        # one record's frame, not 51 of them
        assert 0 < growth < size / 10

    def test_records_keep_full_fidelity(self, tmp_path):
        path = str(tmp_path / "s.journal")
        record = RunRecord(
            summary=sample_summary(),
            channels={"ts": {"meta": {"interval": 10}, "data": [1, 2, 3]}},
            windows=[{"label": "w0", "summary": sample_summary().to_dict()}],
            provenance={"config_key": "abc", "engine_cycles": 450},
        )
        store = ResultStore(path, format="journal")
        store.put_record("k", record, meta={"series": "S", "load": 0.5})
        store.flush()
        _, clone, meta = next(ResultStore(path).entries())
        assert clone.to_dict() == record.to_dict()
        assert meta == {"series": "S", "load": 0.5}

    def test_compaction_drops_dead_ops(self, tmp_path):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path)
        for _ in range(4):
            fill(store, ["a", "b", "c"])
            store.flush()
        assert store.journal_ops == 12
        size_before = os.path.getsize(path)
        store.compact()
        assert store.compactions == 1
        assert store.journal_ops == 3
        assert os.path.getsize(path) < size_before
        clone = ResultStore(path)
        assert len(clone) == 3 and clone.compactions == 1

    def test_auto_compaction_trigger(self, tmp_path, monkeypatch):
        import repro.store.journal as journal

        monkeypatch.setattr(journal, "COMPACT_MIN_OPS", 8)
        path = str(tmp_path / "s.journal")
        store = ResultStore(path)
        for _ in range(6):
            fill(store, ["a", "b"])
            store.flush()
        # 12 ops, 2 live -> dead fraction 10/12 > 0.5 with min_ops reached
        assert store.compactions == 1
        assert ResultStore(path).describe()["entries"] == 2

    def test_no_file_until_first_flush(self, tmp_path):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path, format="journal")
        store.flush()  # nothing written, nothing to create
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# Entries held as frames: layouts, exact placement, laziness (ISSUE 15)
# ---------------------------------------------------------------------------

#: written by the last commit whose writer sorted every member (so ``"key"``
#: never led the payload): header, three records, one overwrite, one failure.
SORTED_LAYOUT_FIXTURE = os.path.join(DATA_DIR, "journal_sorted_layout.journal")


def sorted_layout_frame(payload: dict) -> bytes:
    """The parent commit's writer: one sorted ``json.dumps`` of the whole payload."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return b"J1 %d %08x " % (len(body), zlib.crc32(body)) + body + b"\n"


def public_view(store: ResultStore) -> dict:
    """Everything the read API serves, decoded: ``key -> (kind, payload, meta)``."""
    view = {key: ("record", record.to_dict(), meta)
            for key, record, meta in store.entries()}
    view.update({key: ("failure", failure.to_dict(), meta)
                 for key, failure, meta in store.failures()})
    return view


def reference_view(data: bytes) -> dict:
    """Full parse of every frame + last-write-wins: what replay must equal."""
    live = {}
    for payload in scan_frames(data)[0]:
        op, key = payload.get("op"), payload.get("key")
        if op in ("record", "failure") and isinstance(key, str) and op in payload:
            live[key] = (op, payload[op], payload.get("meta", {}))
    return live


class CountingJson:
    """Stand-in for ``journal.json`` that counts the store's own calls
    (the lock sidecar serialises its holder metadata through the real one)."""

    def __init__(self):
        self.loads_calls = self.dumps_calls = 0

    def loads(self, *args, **kwargs):
        self.loads_calls += 1
        return json.loads(*args, **kwargs)

    def dumps(self, *args, **kwargs):
        self.dumps_calls += 1
        return json.dumps(*args, **kwargs)


_json_scalars = st.none() | st.booleans() | st.integers() | st.text() | st.floats(
    allow_nan=False)
_member_names = st.sampled_from(["op", "key", "record", "failure", "meta"]) | st.text()


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(_member_names, inner, max_size=3)


_metas = st.dictionaries(
    _member_names,
    st.recursive(_json_scalars, _json_containers, max_leaves=6),
    max_size=4,
)
_keys = st.text(max_size=12) | st.sampled_from(
    ["", 'quo"te', "back\\slash", "clé", "a" * 32, '","op":"failure",']
)


@st.composite
def _ops(draw):
    """One frame's payload: mostly record/failure ops, some that file nothing."""
    key, meta = draw(_keys), draw(_metas)
    shape = draw(st.sampled_from(["record", "record", "failure", "unknown", "keyless"]))
    if shape == "failure":
        detail = draw(st.text(max_size=8))
        return {"op": "failure", "key": key, "meta": meta,
                "failure": JobFailure(reason="timeout", detail=detail).to_dict()}
    record = RunRecord(
        summary=sample_summary(offered_load=draw(st.floats(0, 1))),
        provenance=draw(_metas),
    ).to_dict()
    if shape == "unknown":
        return {"op": "tombstone", "key": key, "record": record, "meta": meta}
    if shape == "keyless":
        return {"op": "record", "record": record, "meta": meta}
    return {"op": "record", "key": key, "record": record, "meta": meta}


class TestFramesAsEntries:
    def test_sorted_layout_journal_stays_readable(self, tmp_path):
        path = str(tmp_path / "old.journal")
        shutil.copy(SORTED_LAYOUT_FIXTURE, path)
        data = read_bytes(path)
        assert b'{"key":' in data and b'{"key":"3f9a-alpha","op"' not in data
        store = ResultStore(path)
        info = store.describe()
        assert (len(store), info["journal_ops"], info["superseded"]) == (4, 5, 1)
        assert info["frames_fallback"] == 5 and info["torn_salvages"] == 0
        before = public_view(store)
        assert before == reference_view(data)
        assert set(before) == {"3f9a-alpha", "3f9a-beta", 'quo"te\\é', "3f9a-delta"}
        kind, record, meta = before["3f9a-alpha"]  # the overwrite won
        assert kind == "record" and record["summary"]["offered_load"] == 0.9
        assert meta["key"] == "decoy" and meta["op"] == "record"
        assert before["3f9a-delta"] == (
            "failure", {"reason": "timeout", "detail": "3s", "retries": 2},
            {"load": 0.5, "seed": 4, "series": "Baseline"},
        )
        assert store.get_record("3f9a-delta") is None
        # compaction writes the held frames straight through, old layout and all
        store.compact()
        assert store.journal_ops == 4
        clone = ResultStore(path)
        assert public_view(clone) == before
        assert clone.describe()["journal_ops"] == 4 and clone.compactions == 1

    def test_writer_leads_with_key_and_op(self, tmp_path):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path, format="journal")
        store.put("abc", sample_summary(), meta={"series": "S"})
        store.put_failure("def", JobFailure(reason="timeout"))
        store.put('needs"escape', sample_summary())
        store.close()
        lines = read_bytes(path).splitlines()
        assert b' {"key":"abc","op":"record","meta":{"series":"S"},"record":{' in lines[1]
        assert b' {"key":"def","op":"failure","failure":{' in lines[2]
        clone = ResultStore(path)
        assert set(public_view(clone)) == {"abc", "def", 'needs"escape'}
        # only the key that JSON had to escape took the full parse
        assert clone.describe()["frames_fallback"] == 1
        # what the previous reader did with these bytes: a plain full parse
        assert reference_view(read_bytes(path)) == public_view(clone)

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(_ops(), st.booleans()), max_size=12))
    @example(ops=[  # a sorted-layout body that *contains* the key-first prefix
        ({"op": "failure", "key": "real",
          "failure": {"reason": "timeout", "detail": "", "retries": 0},
          "meta": {"a": {"key": "decoy", "op": "record", "z": 1}}}, False),
    ])
    @example(ops=[  # a meta nested two levels below its members
        ({"op": "record", "key": "deep", "record": RunRecord(summary=sample_summary()).to_dict(),
          "meta": {"a": [{"op": "failure", "key": [None, 1.5]}]}}, True),
    ])
    def test_lazy_replay_equals_full_parse(self, ops):
        frames = [frame_entry({"op": "header", "journal_version": 1, "compactions": 0})]
        frames += [
            frame_entry(payload) if key_first else sorted_layout_frame(payload)
            for payload, key_first in ops
        ]
        data = b"".join(frames)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "mixed.journal")
            with open(path, "wb") as handle:
                handle.write(data)
            store = ResultStore(path)
            expected = reference_view(data)
            assert public_view(store) == expected
            assert len(store) == len(expected) and store.torn_salvages == 0
            filed = sum(
                1 for payload, _ in ops
                if payload["op"] in ("record", "failure") and "key" in payload
            )
            assert store.journal_ops == filed
            assert store.superseded == filed - len(expected)

    def test_open_and_lookup_decode_one_payload(self, tmp_path, monkeypatch):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path, format="journal")
        keys = [f"{i:032x}" for i in range(200)]
        fill(store, keys)
        store.put_failure("failed-job", JobFailure(reason="worker-crash"))
        store.close()
        counting = CountingJson()
        monkeypatch.setattr(journal_module, "json", counting)
        clone = ResultStore(path)
        assert len(clone) == 201
        assert counting.loads_calls == 1  # the header; no op was parsed
        assert clone.describe()["frames_fallback"] == 0
        assert clone.get_record("0" * 31 + "7").summary.offered_load == pytest.approx(0.17)
        assert counting.loads_calls == 2
        # a failure is a miss, an absent key is a miss: neither decodes
        assert clone.get_record_any("failed-job", "no-such-key") is None
        assert counting.loads_calls == 2
        assert [key for key, _, _ in clone.failures()] == ["failed-job"]
        assert counting.loads_calls == 3  # the failure itself, no record
        info = clone.describe()
        assert info["decoded"] == 2
        # an entry on file is its offset: only unflushed frames are resident
        assert info["resident_bytes"] == 0
        clone.put("pending", sample_summary())
        pending_bytes = clone.describe()["resident_bytes"]
        size = os.path.getsize(path)
        clone.flush()
        assert pending_bytes == os.path.getsize(path) - size > 0
        assert clone.describe()["resident_bytes"] == 0

    def test_flush_and_compaction_do_not_reencode(self, tmp_path, monkeypatch):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path)
        fill(store, ["a", "b"])
        store.flush()
        fill(store, [f"k{i}" for i in range(50)] + ["a"])
        counting = CountingJson()
        monkeypatch.setattr(journal_module, "json", counting)
        store.flush()
        # the absorb before the append re-reads the header; nothing else parses
        assert counting.dumps_calls == 0 and counting.loads_calls == 1
        store.compact()
        assert counting.dumps_calls == 1  # the new generation's header
        assert counting.loads_calls == 2
        assert len(ResultStore(path)) == 52

    def test_unserialisable_meta_raises_at_put(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.journal"), format="journal")
        with pytest.raises(TypeError):
            store.put("k", sample_summary(), meta={"when": object()})
        assert len(store) == 0 and store.writes == 0
        store.flush()  # nothing half-written to persist
        assert not os.path.exists(store.path)


# ---------------------------------------------------------------------------
# Entries held as offsets: memory, the read descriptor, two writers
# ---------------------------------------------------------------------------

class TwoWriterModel:
    """Last-write-wins model of one store on a shared journal: what it has
    seen (its own writes and what it absorbed) and where it stopped reading.

    ``disk`` is ``None`` (no file) or ``[generation, frames]``; every rewrite
    makes a new generation (a fresh ``object()``), as ``os.replace`` makes a
    new file.
    """

    def __init__(self):
        self.view, self.pending, self.generation, self.read = {}, {}, None, 0

    def absorb(self, disk):
        generation, frames = disk
        if generation != self.generation:  # resync: re-own what the file lacks
            merged = dict(frames)
            for key, value in self.view.items():
                if key in self.pending or key not in merged:
                    merged[key] = value
                    self.pending[key] = None
            self.view = merged
        else:
            for key, value in frames[self.read:]:
                if key not in self.pending:
                    self.view[key] = value
        self.generation, self.read = generation, len(frames)

    def append(self, disk):
        disk[1].extend((key, self.view[key]) for key in self.pending)
        self.pending.clear()
        self.read = len(disk[1])

    def rewrite(self):
        self.generation = object()
        self.pending.clear()
        frames = sorted(self.view.items())
        self.read = len(frames)
        return [self.generation, frames]


_TWO_WRITER_KEYS = ["a", "b", "c", 'q"x']  # the last takes the full-parse path
_two_writer_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "put", "flush", "compact", "refresh",
                         "get", "get", "unlink"]),
        st.integers(0, 1),
        st.sampled_from(_TWO_WRITER_KEYS),
    ),
    max_size=30,
)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestEntriesAsOffsets:
    def test_open_keeps_no_payload_bytes(self, tmp_path):
        path = str(tmp_path / "s.journal")
        record = RunRecord(summary=sample_summary(), provenance={"pad": "x" * 2100})
        keys = [f"{i:032x}" for i in range(2000)]
        with ResultStore(path) as store:
            for key in keys:
                store.put_record(key, record)
        assert os.path.getsize(path) > 2000 * 2400
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clone = ResultStore(path)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(clone) == 2000 and clone.describe()["resident_bytes"] == 0
        assert grown / len(keys) <= 400, f"{grown / len(keys):.0f} B per live key"
        assert clone.get_record(keys[1234]).to_dict() == record.to_dict()
        clone.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count descriptors")
    def test_descriptor_lifetime(self, tmp_path):
        path = str(tmp_path / "s.journal")
        with ResultStore(path) as seeded:
            fill(seeded, ["a", "b"])
        base = open_fds()
        store = ResultStore(path)
        assert open_fds() == base + 1  # the read descriptor; the lock is free
        store.put("c", sample_summary())
        store.flush()
        store.compact()  # rebinds to the new generation, closing the old one
        assert open_fds() == base + 1
        store.close()
        assert open_fds() == base
        with pytest.raises(StoreError, match=re.escape(path)):
            store.get_record("a")
        with pytest.raises(StoreError, match=re.escape(path)):
            list(store.entries())
        dropped = ResultStore(path)
        assert open_fds() == base + 1
        del dropped  # never closed: the finalizer closes its descriptor
        assert open_fds() == base

    @settings(max_examples=80, deadline=None)
    @given(ops=_two_writer_ops)
    @example(ops=[  # a peer compacts while the other store holds offsets
        ("put", 0, "a"), ("flush", 0, "a"), ("put", 1, "b"), ("flush", 1, "b"),
        ("put", 0, "a"), ("compact", 0, "a"), ("get", 1, "a"), ("get", 1, "b"),
        ("put", 1, "c"), ("flush", 1, "c"), ("get", 1, "a"),
    ])
    @example(ops=[  # the new generation lost keys a store knew: it re-owns them
        ("put", 0, "a"), ("flush", 0, "a"), ("put", 1, "b"), ("flush", 1, "b"),
        ("unlink", 0, "a"), ("put", 0, "c"), ("flush", 0, "c"),
        ("refresh", 1, "a"), ("get", 1, "b"), ("get", 1, "a"), ("get", 1, "c"),
    ])
    def test_two_writers_read_what_they_have_seen(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "shared.journal")
            stores = [ResultStore(path), ResultStore(path)]
            models = [TwoWriterModel(), TwoWriterModel()]
            disk = None
            version = 0

            def read(who, key):
                got = stores[who].get_record_any(key)
                return None if got is None else got.summary.packets_delivered

            def flushed(model, disk):
                """The model after ``flush()`` (also what ``close()`` does)."""
                if not model.pending:
                    return disk
                if disk is None:
                    return model.rewrite()
                model.absorb(disk)
                model.append(disk)
                return disk

            for op, who, key in ops:
                store, model = stores[who], models[who]
                if op == "put":
                    version += 1
                    store.put(key, sample_summary(packets_delivered=version))
                    model.view[key] = version
                    model.pending[key] = None
                elif op == "flush":
                    store.flush()
                    disk = flushed(model, disk)
                elif op == "compact":
                    store.compact()
                    if disk is not None:
                        model.absorb(disk)
                        model.append(disk)
                    disk = model.rewrite()
                elif op == "refresh":
                    store.refresh_from_disk()
                    if disk is not None:
                        model.absorb(disk)
                elif op == "unlink":
                    if disk is not None:
                        os.unlink(path)
                        disk = None
                else:
                    assert read(who, key) == model.view.get(key), (op, who, key)
                assert len(store) == len(model.view)
            for who in (0, 1):
                assert {key: read(who, key) for key in _TWO_WRITER_KEYS} == {
                    key: models[who].view.get(key) for key in _TWO_WRITER_KEYS}
                stores[who].close()
                disk = flushed(models[who], disk)
            with ResultStore(path) as reopened:
                on_file = {key: record.summary.packets_delivered
                           for key, record, _ in reopened.entries()}
            assert on_file == (dict(disk[1]) if disk is not None else {})


# ---------------------------------------------------------------------------
# Torn-write recovery
# ---------------------------------------------------------------------------

class TestTornTailRecovery:
    def _build(self, tmp_path, n=6) -> str:
        path = str(tmp_path / "s.journal")
        store = ResultStore(path, format="journal")
        fill(store, [f"k{i}" for i in range(n)])
        store.flush()
        return path

    def test_truncation_at_every_byte_offset(self, tmp_path):
        """SIGKILL at an arbitrary byte offset == the file ends there.

        For *every* prefix length of a real journal, opening the prefix
        must salvage exactly the fully-framed records and never raise.
        """
        path = self._build(tmp_path)
        data = read_bytes(path)
        # frame boundaries: offsets at which a frame ends
        _, _ = scan_frames(data)
        boundaries = []
        pos = 0
        while pos < len(data):
            nl = data.find(b"\n", pos)
            boundaries.append(nl + 1)
            pos = nl + 1
        target = str(tmp_path / "torn.journal")
        # below len(magic) bytes the file no longer sniffs as a journal at
        # all (a lenient open starts empty, also lossless in the sense that
        # there was nothing complete to salvage)
        for cut in range(len(b"J1 "), len(data) + 1):
            with open(target, "wb") as handle:
                handle.write(data[:cut])
            complete = sum(1 for b in boundaries if b <= cut)
            store = ResultStore(target)
            # header frame is boundary 0; records are the rest
            expected_records = max(0, complete - 1)
            assert len(store) == expected_records, f"cut at byte {cut}"
            if cut not in (0, *boundaries):
                assert store.torn_salvages == 1
                # the truncation repaired the file: reopening is clean
                # (a cut inside the very first frame truncates to an empty
                # file, which then sniffs as a fresh store)
                if os.path.getsize(target):
                    assert ResultStore(target).torn_salvages == 0

    def test_garbage_tail_is_dropped_and_file_repaired(self, tmp_path):
        path = self._build(tmp_path)
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"J1 999 0badc0de {\"op\": \"rec")
        store = ResultStore(path)
        assert len(store) == 6
        assert store.torn_salvages == 1 and store.torn_bytes_dropped > 0
        assert os.path.getsize(path) == good_size
        # salvaged store is immediately writable again
        store.put("k-after", sample_summary())
        store.flush()
        assert len(ResultStore(path)) == 7

    def test_corrupt_middle_hides_later_records(self, tmp_path):
        # prefix-validity: a flipped byte mid-journal drops everything after
        # it (indistinguishable from interleaved torn writes), but every
        # record before the corruption survives.
        path = self._build(tmp_path)
        data = bytearray(read_bytes(path))
        data[len(data) // 2] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        store = ResultStore(path)
        assert 0 < len(store) < 6
        assert store.torn_salvages == 1


# ---------------------------------------------------------------------------
# Crash safety (subprocess hard-kills)
# ---------------------------------------------------------------------------

class TestCrashSafety:
    def test_sigkill_mid_append_loop(self, tmp_path):
        """Kill -9 a live writer; reopen salvages every flushed record."""
        path = str(tmp_path / "s.journal")
        script = """
        path = sys.argv[1]
        store = ResultStore(path, format="journal")
        i = 0
        while True:
            i += 1
            store.put(f"key{i}", summary(i))
            store.flush()
            print(i, flush=True)
        """
        with subprocess.Popen(
            [sys.executable, "-c", CHILD_PRELUDE + textwrap.dedent(script), path],
            stdout=subprocess.PIPE, text=True, env=dict(os.environ),
        ) as child:
            flushed = 0
            try:
                while flushed < 5:
                    line = child.stdout.readline()
                    assert line, "writer died before reaching 5 flushes"
                    flushed = int(line)
            finally:
                child.kill()
                child.wait(timeout=30)
        store = ResultStore(path)
        # every record the child reported as flushed survived the SIGKILL
        assert len(store) >= flushed
        for i in range(1, flushed + 1):
            assert store.get_record(f"key{i}") is not None
        # the dead writer's lock is not stuck: we can write immediately
        store.put("after", sample_summary())
        store.flush()

    def test_crash_mid_append_write(self, tmp_path):
        """Die after half a frame batch hits disk (REPRO_TEST_STORE_CRASH)."""
        path = str(tmp_path / "s.journal")
        store = ResultStore(path, format="journal")
        fill(store, ["a", "b", "c"])
        store.flush()
        script = """
        path = sys.argv[1]
        store = ResultStore(path)
        store.put("d", summary(4))
        store.put("e", summary(5))
        os.environ["REPRO_TEST_STORE_CRASH"] = "append-partial"
        store.flush()
        print("unreachable")
        """
        result = run_child(script, path)
        assert result.returncode == 17, result.stderr
        clone = ResultStore(path)
        # prior records all intact; the torn batch partially salvaged at a
        # frame boundary (here: "d" completes, "e" is the torn half)
        assert {"a", "b", "c"} <= {key for key, _, _ in clone.entries()}
        assert clone.torn_salvages in (0, 1)
        assert len(clone) in (3, 4)

    def test_crash_before_compaction_replace(self, tmp_path):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path)
        for _ in range(3):
            fill(store, ["a", "b"])
            store.flush()
        script = """
        store = ResultStore(sys.argv[1])
        store.compact()
        """
        result = run_child(
            script, path, env={"REPRO_TEST_STORE_CRASH": "compact-before-replace"}
        )
        assert result.returncode == 17, result.stderr
        # old journal untouched (all ops still there), tmp snapshot cleaned
        clone = ResultStore(path)
        assert len(clone) == 2
        assert clone.journal_ops == 6 and clone.compactions == 0
        clone.compact()  # open cleaned the stale tmp; compaction completes
        assert not [
            name for name in os.listdir(tmp_path) if ".compact." in name
        ]

    def test_crash_after_compaction_replace(self, tmp_path):
        path = str(tmp_path / "s.journal")
        store = ResultStore(path)
        for _ in range(3):
            fill(store, ["a", "b"])
            store.flush()
        script = """
        store = ResultStore(sys.argv[1])
        store.compact()
        """
        result = run_child(
            script, path, env={"REPRO_TEST_STORE_CRASH": "compact-after-replace"}
        )
        assert result.returncode == 17, result.stderr
        # the complete new generation was published before the crash
        clone = ResultStore(path)
        assert len(clone) == 2
        assert clone.journal_ops == 2 and clone.compactions == 1


# ---------------------------------------------------------------------------
# Concurrent writers
# ---------------------------------------------------------------------------

class TestConcurrentWriters:
    def test_two_processes_zero_lost_records(self, tmp_path):
        """Two simultaneous writer processes -> the exact union survives."""
        path = str(tmp_path / "shared.journal")
        script = """
        path, prefix, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
        store = ResultStore(path, format="journal")
        for i in range(count):
            store.put(f"{prefix}{i}", summary(i + 1))
            store.flush()
        store.close()
        print("done", flush=True)
        """
        env = dict(os.environ)
        children = [
            subprocess.Popen(
                [
                    sys.executable, "-c", CHILD_PRELUDE + textwrap.dedent(script),
                    path, prefix, "20",
                ],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for prefix in ("alpha", "beta")
        ]
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            assert "done" in out
        store = ResultStore(path)
        expected = {f"alpha{i}" for i in range(20)} | {f"beta{i}" for i in range(20)}
        assert {key for key, _, _ in store.entries()} == expected

    def test_in_process_interleaving_and_refresh(self, tmp_path):
        path = str(tmp_path / "shared.journal")
        a = ResultStore(path, format="journal")
        b = ResultStore(path, format="journal")
        a.put("a1", sample_summary()); a.flush()
        b.put("b1", sample_summary()); b.flush()  # absorbs a1
        a.put("a2", sample_summary()); a.flush()  # absorbs b1
        assert b.refresh_from_disk() == 1  # a2
        assert a.refresh_from_disk() == 0  # already absorbed b1 at flush
        assert len(a) == len(b) == 3
        assert b.absorbed_records == 2

    def test_peer_compaction_resync_loses_nothing(self, tmp_path):
        path = str(tmp_path / "shared.journal")
        a = ResultStore(path, format="journal")
        b = ResultStore(path, format="journal")
        fill(a, ["a1", "a2"]); a.flush()
        fill(b, ["b1"]); b.flush()
        a.compact()  # new file generation while b holds an old offset
        assert a.compactions == 1
        b.put("b2", sample_summary())
        b.flush()  # detects the generation bump, resyncs, then appends
        assert b.compactions == 1
        union = {key for key, _, _ in ResultStore(path).entries()}
        assert union == {"a1", "a2", "b1", "b2"}

    def test_lock_released_by_dead_process(self, tmp_path):
        path = str(tmp_path / "s.journal")
        script = """
        from repro.store import StoreLock
        lock = StoreLock(sys.argv[1])
        assert lock.try_acquire()
        print("locked", flush=True)
        import time
        time.sleep(60)
        """
        with subprocess.Popen(
            [sys.executable, "-c", CHILD_PRELUDE + textwrap.dedent(script), path],
            stdout=subprocess.PIPE, text=True, env=dict(os.environ),
        ) as child:
            try:
                assert child.stdout.readline().strip() == "locked"
                lock = StoreLock(path)
                assert not lock.try_acquire()  # held by the live child
                child.kill()
                child.wait(timeout=30)
                deadline = time.monotonic() + 10
                acquired = False
                while time.monotonic() < deadline and not acquired:
                    acquired = lock.try_acquire()  # kernel released it on death
                    if not acquired:
                        time.sleep(0.05)
                assert acquired
                lock.release()
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait(timeout=30)


def _no_locks(fd, operation):
    """``fcntl.flock`` on a filesystem that does not support it."""
    raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))


class TestFlockLock:
    """What the lock keeps beyond mutual exclusion: the holder is named, the
    lock file outlives a release, and a missing ``flock`` is refused."""

    def test_contended_acquire_times_out_naming_the_holder(self, tmp_path):
        # flock locks belong to open file descriptions, so two StoreLock
        # objects in one process conflict as two processes do.
        path = str(tmp_path / "s.journal")
        holder = StoreLock(path)
        holder.acquire(timeout=0.2)
        try:
            waiter = StoreLock(path)
            with pytest.raises(StoreLockTimeout,
                               match=f"pid {os.getpid()} on {os.uname().nodename}"):
                waiter.acquire(timeout=0.2)
            assert not waiter.held
        finally:
            holder.release()

    def test_lock_file_names_the_holder_and_outlives_release(self, tmp_path):
        lock = StoreLock(str(tmp_path / "s.journal"))
        lock.acquire(timeout=0.2)
        holder = lock.holder()
        assert holder["pid"] == os.getpid()
        assert holder["host"] == os.uname().nodename
        lock.release()
        assert os.path.exists(lock.lock_path)
        assert lock.try_acquire()
        lock.release()

    def test_acquire_overwrites_the_holder_without_truncating(self, tmp_path, monkeypatch):
        def no_truncate(fd, length):
            raise OSError(errno.EIO, "the lock file must not be truncated")

        monkeypatch.setattr(os, "ftruncate", no_truncate)
        lock = StoreLock(str(tmp_path / "s.journal"))
        monkeypatch.setattr(locking_module, "_hostname", lambda: "h" * 150)
        lock.acquire(timeout=0.2)
        assert lock.holder()["host"] == "h" * 150
        lock.release()
        # a shorter record over a longer one: padding, not truncation, hides it
        monkeypatch.setattr(locking_module, "_hostname", lambda: "short")
        lock.acquire(timeout=0.2)
        try:
            holder = lock.holder()
            assert (holder["pid"], holder["host"]) == (os.getpid(), "short")
        finally:
            lock.release()

    @pytest.mark.parametrize("missing", ["ENOLCK", "no-fcntl"])
    def test_missing_flock_is_a_store_error_naming_the_lock(
        self, missing, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "s.journal")
        with ResultStore(path) as seeded:  # an existing journal: open locks
            fill(seeded, ["k"])
        if missing == "ENOLCK":
            monkeypatch.setattr(locking_module.fcntl, "flock", _no_locks)
            reason = os.strerror(errno.ENOLCK)
        else:
            monkeypatch.setattr(locking_module, "_HAVE_FCNTL", False)
            reason = "no fcntl.flock"
        lock = StoreLock(path)
        with pytest.raises(StoreError, match=re.escape(lock.lock_path)) as raised:
            lock.try_acquire()
        assert reason in str(raised.value)
        assert not isinstance(raised.value, StoreLockTimeout)
        assert not lock.held
        with pytest.raises(StoreError, match=re.escape(lock.lock_path)):
            ResultStore(path, strict=True)

    def test_failed_flush_at_exit_is_logged_naming_the_store(self, tmp_path):
        path = str(tmp_path / "s.journal")
        script = """
        import errno, fcntl
        store = ResultStore(sys.argv[1])
        store.put("k", summary(1))  # arms the flush at exit

        def no_locks(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        fcntl.flock = no_locks
        """
        result = run_child(script, path)
        assert result.returncode == 0, result.stderr
        assert f"store {path}: the flush at exit failed" in result.stderr
        assert path + ".lock" in result.stderr
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# Importing monolithic JSON stores (pinned files: nothing writes them now)
# ---------------------------------------------------------------------------

#: fixture file -> (record keys, failure keys, v1 entries migrated); the v2
#: file was written by the last commit that had a JSON writer, the v1 file by
#: hand in the flat shape the PR 1/2 orchestrator stored.
JSON_FIXTURES = {
    "json_store_v2.json": (["7c1e-alpha", "7c1e-beta", "7c1e-gamma"], ["7c1e-delta"], 0),
    "json_store_v1.json": (["5b2d-one", "5b2d-two"], [], 2),
}

#: files that start like JSON but cannot be read in full as a store.
UNREADABLE_JSON = {
    "damaged": "{oops",
    "top-level-list": "[1, 2, 3]",
    "results-not-an-object": '{"version": 2, "results": 5}',
    "future-version": '{"version": 999, "results": {"x": {}}}',
    "entry-not-an-object": '{"version": 2, "results": {"x": 5}}',
}


def copy_fixture(tmp_path, name: str) -> str:
    path = str(tmp_path / name)
    shutil.copy(os.path.join(DATA_DIR, name), path)
    return path


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class TestFormatsAndMigration:
    @pytest.mark.parametrize("name", sorted(JSON_FIXTURES))
    def test_read_only_open_never_modifies_json(self, tmp_path, name):
        records, failed, migrated = JSON_FIXTURES[name]
        path = copy_fixture(tmp_path, name)
        before = read_bytes(path)
        store = ResultStore(path, strict=True)
        assert len(store) == len(records) + len(failed)
        assert store.migrated == migrated
        assert [key for key, _, _ in store.entries()] == records
        assert [key for key, _, _ in store.failures()] == failed
        assert store.get_record(records[0]).summary.packets_delivered == 100
        assert all(store.get_record(key) is None for key in failed)
        info = store.describe()
        assert info["journal_ops"] == 0 and info["migrated_v1"] == migrated
        # flush and close have nothing to write: the file is still the JSON
        store.flush()
        store.close()
        assert read_bytes(path) == before and detect_format(path) == "json"

    def _first_flush_replaces(self, tmp_path, name: str) -> ResultStore:
        records, failed, _ = JSON_FIXTURES[name]
        path = copy_fixture(tmp_path, name)
        store = ResultStore(path)
        imported = public_view(store)
        store.put("fresh", sample_summary(), meta={"series": "new"})
        assert detect_format(path) == "json"  # not before the flush
        store.flush()
        assert detect_format(path) == "journal"
        payloads, end = scan_frames(read_bytes(path))
        assert end == os.path.getsize(path)
        assert payloads[0]["op"] == "header" and payloads[0]["store_version"] == 2
        assert [p["key"] for p in payloads[1:]] == sorted(records + failed + ["fresh"])
        clone = ResultStore(path)
        view = public_view(clone)
        assert view.pop("fresh")[2] == {"series": "new"}
        assert view == imported
        return clone

    def test_json_store_migrates_to_journal_on_open(self, tmp_path):
        # imported on open, replaced by the first flush that writes something
        clone = self._first_flush_replaces(tmp_path, "json_store_v2.json")
        assert clone.migrated == 0
        _, failure, meta = next(clone.failures())
        assert (failure.reason, failure.retries, meta["load"]) == ("timeout", 2, 0.5)
        record = clone.get_record("7c1e-beta")
        assert record.channels["timeseries"]["data"] == [1, 2, 3]

    def test_v1_json_migrates_through_to_journal(self, tmp_path):
        clone = self._first_flush_replaces(tmp_path, "json_store_v1.json")
        assert clone.migrated == 0  # the journal holds v2 records
        record = clone.get_record("5b2d-two")
        assert record.provenance["migrated_from"] == 1
        assert record.provenance["v1_meta"]["load"] == 0.2
        assert record.summary.offered_load == pytest.approx(0.2)

    @pytest.mark.parametrize("first", ["a", "b"])
    def test_two_importers_of_one_json_file_lose_nothing(self, tmp_path, first):
        records, failed, _ = JSON_FIXTURES["json_store_v2.json"]
        path = copy_fixture(tmp_path, "json_store_v2.json")
        stores = {"a": ResultStore(path), "b": ResultStore(path)}  # both import
        stores["a"].put("from-a", sample_summary())
        stores["b"].put("from-b", sample_summary())
        second = "b" if first == "a" else "a"
        stores[first].close()  # replaces the JSON file with a journal
        stores[second].close()  # finds a journal under the lock: absorbs, appends
        assert stores[first].describe()["absorbed"] == 0
        assert stores[second].describe()["absorbed"] > 0
        union = ResultStore(path)
        assert set(public_view(union)) == {*records, *failed, "from-a", "from-b"}
        assert union.torn_salvages == 0

    def test_open_after_a_peer_replaced_the_json_file(self, tmp_path):
        path = copy_fixture(tmp_path, "json_store_v1.json")
        early = ResultStore(path)
        early.put("k", sample_summary())
        early.close()
        late = ResultStore(path)  # sees the journal, not the JSON it replaced
        assert len(late) == 3 and late.migrated == 0
        assert late.get_record("5b2d-one").provenance["migrated_from"] == 1

    def test_format_json_is_refused(self, tmp_path):
        path = str(tmp_path / "s.journal")
        for fmt in ("json", "sqlite", ""):
            with pytest.raises(ValueError, match="store format"):
                ResultStore(path, format=fmt)
        assert len(ResultStore(path, format="auto")) == 0
        assert not os.path.exists(path)

    def test_strict_open_errors(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(str(tmp_path / "missing.journal"), strict=True,
                        format="journal")
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x00\x01\x02 not a store")
        with pytest.raises(StoreError):
            ResultStore(str(garbage), strict=True, format="journal")

    def test_migration_never_destroys_unreadable_json(self, tmp_path):
        # a JSON file that cannot be read in full raises on every open —
        # lenient or strict — and keeps its bytes: the first flush would
        # otherwise replace it with a journal of whatever was understood.
        for label, text in UNREADABLE_JSON.items():
            path = tmp_path / f"{label}.json"
            path.write_text(text, encoding="utf-8")
            for strict in (False, True):
                with pytest.raises(StoreError):
                    ResultStore(str(path), strict=strict)
            assert path.read_text(encoding="utf-8") == text, label


# ---------------------------------------------------------------------------
# Shared-store sweep resume (real run_jobs)
# ---------------------------------------------------------------------------

def _tiny_jobs(count: int, seed_base: int) -> list:
    jobs = []
    for offset in range(count):
        config = SimulationConfig(
            warmup_cycles=150, measure_cycles=300, seed=seed_base + offset
        ).with_load(0.3)
        jobs.append(
            Job(
                key=config_key(config), series="shared", load=0.3,
                seed=config.seed, config=config,
            )
        )
    return jobs


class TestSharedSweepResume:
    def test_resumed_sweep_recomputes_nothing(self, tmp_path):
        path = str(tmp_path / "s.journal")
        jobs = _tiny_jobs(4, seed_base=11)
        first = ResultStore(path, format="journal")
        stats = run_jobs(jobs, workers=1, store=first)
        assert stats.executed == 4
        # Stores written while a stepping-backend option existed carry
        # provenance/meta fields nothing reads any more: re-put two records
        # in that shape — they must load, print and serve as cache hits.
        dropped = {"backend": "vectorized", "backend_requested": "auto",
                   "backend_fallback_reason": "numpy not installed"}
        for job in jobs[:2]:
            payload = first.get_record(job.key).to_dict()
            payload["provenance"].update(dropped)
            first.put_record(
                job.key, RunRecord.from_dict(payload),
                meta={"series": job.series, "load": job.load,
                      "seed": job.seed, "backend": "vectorized"},
            )
        first.close()
        # a second sweep process (modeled by a fresh store object) resumes
        resumed = ResultStore(path)
        stats = run_jobs(jobs, workers=1, store=resumed)
        assert stats.cache_hits == 4 and stats.executed == 0
        # ignored, not migrated: the old fields are plain dict entries
        old = {key: (record, meta) for key, record, meta in resumed.entries()}
        record, meta = old[jobs[0].key]
        assert dropped.items() <= record.provenance.items()
        assert meta["backend"] == "vectorized"
        resumed.close()
        inspect = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "inspect", path],
            capture_output=True, text=True, timeout=120,
        )
        assert inspect.returncode == 0, inspect.stderr
        assert inspect.stdout.count("series=shared") == 4

    def test_sweep_absorbs_peer_results_before_dispatch(self, tmp_path):
        path = str(tmp_path / "s.journal")
        jobs = _tiny_jobs(4, seed_base=31)
        # store B opens first (empty view of the shared journal) ...
        b = ResultStore(path, format="journal")
        # ... then a peer sweep A computes and flushes half the jobs
        a = ResultStore(path, format="journal")
        stats_a = run_jobs(jobs[:2], workers=1, store=a)
        assert stats_a.executed == 2
        a.flush()
        # B's sweep re-reads the shared journal before dispatch: the peer's
        # two results become cache hits, only the rest simulate.
        stats_b = run_jobs(jobs, workers=1, store=b)
        assert stats_b.store_absorbed == 2
        assert stats_b.cache_hits == 2
        assert stats_b.executed == 2
        b.flush()
        union = {key for key, _, _ in ResultStore(path).entries()}
        assert union == {job.key for job in jobs}
