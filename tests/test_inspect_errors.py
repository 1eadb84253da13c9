"""``python -m repro.experiments inspect`` error handling (PR 8 satellite).

A missing or corrupt store path must exit nonzero with a clear one-line
message on stderr — never a raw traceback.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.store import ResultStore, StoreError

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def run_inspect(store_path: Path, *flags: str):
    return run_cli("inspect", str(store_path), *flags)


def test_inspect_missing_store(tmp_path):
    result = run_inspect(tmp_path / "nope.json")
    assert result.returncode == 2
    assert "store not found" in result.stderr
    assert "Traceback" not in result.stderr


def test_inspect_corrupt_json(tmp_path):
    store = tmp_path / "corrupt.json"
    store.write_text("{definitely not json", encoding="utf-8")
    result = run_inspect(store)
    assert result.returncode == 2
    assert "not readable JSON" in result.stderr
    assert "Traceback" not in result.stderr


def test_inspect_wrong_top_level(tmp_path):
    store = tmp_path / "list.json"
    store.write_text("[1, 2, 3]", encoding="utf-8")
    result = run_inspect(store)
    assert result.returncode == 2
    assert "JSON object" in result.stderr
    assert "Traceback" not in result.stderr


def test_inspect_unsupported_version(tmp_path):
    store = tmp_path / "future.json"
    store.write_text(json.dumps({"version": 99, "results": {}}), encoding="utf-8")
    result = run_inspect(store)
    assert result.returncode == 2
    assert "unsupported version" in result.stderr


def test_inspect_malformed_entries(tmp_path):
    store = tmp_path / "mangled.json"
    store.write_text(
        json.dumps({"version": 2, "results": {"abc123": {"record": "not-a-dict"}}}),
        encoding="utf-8",
    )
    result = run_inspect(store)
    assert result.returncode == 2
    assert "malformed record entries" in result.stderr
    assert "Traceback" not in result.stderr


def test_strict_open_raises_lenient_does_not(tmp_path):
    # Sweep path: a missing store is an empty one (created on first flush).
    assert len(ResultStore(str(tmp_path / "missing.json"))) == 0
    with pytest.raises(StoreError):
        ResultStore(str(tmp_path / "missing.json"), read_only=True)
    # A damaged JSON store raises either way: the sweep's first flush would
    # replace a file it could not read.
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{oops", encoding="utf-8")
    for read_only in (False, True):
        with pytest.raises(StoreError):
            ResultStore(str(corrupt), read_only=read_only)
    assert corrupt.read_text(encoding="utf-8") == "{oops"


def test_inspect_legacy_json_store_leaves_it_untouched(tmp_path):
    fixture = REPO_ROOT / "tests" / "data" / "json_store_v2.json"
    store = tmp_path / "legacy.json"
    store.write_bytes(fixture.read_bytes())
    result = run_inspect(store, "--verbose")
    assert result.returncode == 0, result.stderr
    assert "[store entries=4 journal-ops=0 " in result.stdout.splitlines()[0]
    for key in ("7c1e-alpha", "7c1e-beta", "7c1e-gamma"):
        assert f"{key}  series=" in result.stdout
    assert "FAILED: timeout" in result.stdout
    assert store.read_bytes() == fixture.read_bytes()


def test_run_rejects_store_format_flag(tmp_path):
    result = run_cli("run", "tables", "--store", str(tmp_path / "s.journal"),
                     "--store-format", "json")
    assert result.returncode == 2
    assert "unrecognized arguments: --store-format" in result.stderr
    assert not (tmp_path / "s.journal").exists()


def test_inspect_into_a_closed_pipe_is_quiet(tmp_path):
    """``inspect | head``: a reader that closes stdout at once ends the CLI
    with its documented status and nothing on stderr, not a traceback."""
    fixture = REPO_ROOT / "tests" / "data" / "json_store_v2.json"
    store = tmp_path / "legacy.json"
    store.write_bytes(fixture.read_bytes())
    with subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "inspect", str(store)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    ) as child:
        child.stdout.close()
        stderr = child.stderr.read()
    assert stderr == b""
    assert child.returncode == 141
