"""Pinned results: the one file of expected values, and the ``pin`` check.

``tests/data/pins.json`` maps the node id of every pinned test case (as
pytest prints it from the repository root) to the value that case must
equal: a golden result, a run digest, a job-set digest, a store address.
The case computes its value and hands it to the ``pin`` fixture
(``tests/conftest.py``); what a case *runs* stays in its own module.

A mismatch fails only its own case, with ``pin <node id>: <pinned> -> <now>``,
and the end of the run prints every mismatch as one old -> new table.
Values are compared after a JSON round trip, with exact equality: a float
reads back from the file as the same float.  Nothing writes the file; a
re-seal edits it by hand (recipe in ``.claude/skills/verify/SKILL.md``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, List, Tuple

import pytest

PINS_PATH = Path(__file__).resolve().parent / "data" / "pins.json"
PINS_TEXT = PINS_PATH.read_text()
PINS: dict = json.loads(PINS_TEXT)

#: ``(node id, pinned, now)`` of every mismatch this run; ``pinned`` is
#: ``None`` for a case with no key.
MOVED: List[Tuple[str, Any, Any]] = []

#: node ids of every test this session collected, before any deselection.
COLLECTED: set = set()


def digest(*chunks) -> str:
    """sha256[:16] of ``chunks`` (``bytes``, or ``str`` as UTF-8) hashed in order."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() if isinstance(chunk, str) else chunk)
    return h.hexdigest()[:16]


def _show(value) -> str:
    return json.dumps(value, sort_keys=True)


class Pin:
    """``pin(now)`` fails the case ``node_id`` unless ``now`` equals its pin."""

    def __init__(self, node_id: str, pins: dict, moved: list):
        self.node_id = node_id
        self._pins = pins
        self._moved = moved

    def __call__(self, now) -> None:
        now = json.loads(_show(now))
        if self.node_id not in self._pins:
            self._moved.append((self.node_id, None, now))
            pytest.fail(f"pin {self.node_id}: no key in {PINS_PATH.name} -> {_show(now)}",
                        pytrace=False)
        pinned = self._pins[self.node_id]
        if now != pinned:
            self._moved.append((self.node_id, pinned, now))
            pytest.fail(f"pin {self.node_id}: {_show(pinned)} -> {_show(now)}",
                        pytrace=False)


def moved_table(moved) -> List[str]:
    """The mismatches as one Markdown table, ready to paste into CHANGES."""
    lines = ["| pin | pinned | now |", "| --- | --- | --- |"]
    for node_id, pinned, now in moved:
        old = "(no key)" if pinned is None else f"`{_show(pinned)}`"
        lines.append(f"| `{node_id}` | {old} | `{_show(now)}` |")
    return lines
