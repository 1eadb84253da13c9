"""The pin file ``tests/data/pins.json`` and the ``pin`` check (``tests/pins.py``)."""

import hashlib
import json
from pathlib import Path

import pytest

from pins import COLLECTED, PINS, PINS_TEXT, Pin, digest, moved_table

REPO = Path(__file__).resolve().parent.parent


def test_pin_file_is_canonical():
    """Sorted keys, two-space indent, one trailing newline: a re-seal diff is
    one line per moved value."""
    assert PINS_TEXT == json.dumps(json.loads(PINS_TEXT), indent=2, sort_keys=True) + "\n"


def test_every_pin_names_a_collected_test(request):
    """A key no collected test reads is an orphan.  A file this run did not
    collect is only checked to exist."""
    if any("::" in arg for arg in request.config.args):
        pytest.skip("a node-id selection collects only part of a file")
    files = {node_id.split("::")[0] for node_id in COLLECTED}
    orphans = [
        key for key in sorted(PINS)
        if key not in COLLECTED
        and (key.split("::")[0] in files or not (REPO / key.split("::")[0]).is_file())
    ]
    assert not orphans, f"pins naming no collected test: {orphans}"


def test_a_moved_value_fails_its_case_with_one_old_to_new_row():
    moved = []
    check = Pin("tests/x.py::t[a]", {"tests/x.py::t[a]": "old"}, moved)
    check("old")
    with pytest.raises(pytest.fail.Exception) as failure:
        check("new")
    assert str(failure.value) == 'pin tests/x.py::t[a]: "old" -> "new"'
    assert moved_table(moved) == [
        "| pin | pinned | now |",
        "| --- | --- | --- |",
        '| `tests/x.py::t[a]` | `"old"` | `"new"` |',
    ]


def test_a_case_with_no_key_fails_naming_its_node_id():
    moved = []
    with pytest.raises(pytest.fail.Exception) as failure:
        Pin("tests/x.py::t[b]", {}, moved)({"n": 1})
    assert str(failure.value) == 'pin tests/x.py::t[b]: no key in pins.json -> {"n": 1}'
    assert moved_table(moved)[2] == '| `tests/x.py::t[b]` | (no key) | `{"n": 1}` |'


def test_values_compare_exactly_after_a_json_round_trip():
    check = Pin("t", json.loads(json.dumps({"t": [0.1 + 0.2, 2, False]})), [])
    check((0.1 + 0.2, 2, False))
    with pytest.raises(pytest.fail.Exception):
        check([0.3, 2, False])


def test_digest_is_the_sha256_prefix_of_its_chunks_in_order():
    assert len(digest("a", b"b")) == 16
    assert hashlib.sha256(b"ab").hexdigest().startswith(digest("a", b"b"))
    assert digest("ab") == digest("a", "b") != digest("b", "a")
