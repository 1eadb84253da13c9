"""Tables I-IV of the paper, re-exported for the experiment harness.

The heavy lifting lives in :mod:`repro.core.feasibility`; this module adds the
expected values quoted in the paper so tests and benchmarks can assert an
exact match.
"""

from __future__ import annotations

from typing import Dict

from ..core.feasibility import TABLES, PathSupport, generate_table, render_table

SAFE = PathSupport.SAFE
OPP = PathSupport.OPPORTUNISTIC
X = PathSupport.UNSUPPORTED

#: Table I as printed in the paper.
EXPECTED_TABLE1: Dict[str, Dict[int, PathSupport]] = {
    "MIN": {2: SAFE, 3: SAFE, 4: SAFE, 5: SAFE},
    "VAL": {2: X, 3: OPP, 4: SAFE, 5: SAFE},
    "PAR": {2: X, 3: OPP, 4: OPP, 5: SAFE},
}

#: Table II as printed in the paper (request+reply VC pairs).
EXPECTED_TABLE2: Dict[str, Dict[tuple[int, int], PathSupport]] = {
    "MIN": {(2, 2): SAFE, (3, 2): SAFE, (3, 3): SAFE, (4, 4): SAFE, (5, 5): SAFE},
    "VAL": {(2, 2): X, (3, 2): OPP, (3, 3): OPP, (4, 4): SAFE, (5, 5): SAFE},
    "PAR": {(2, 2): X, (3, 2): OPP, (3, 3): OPP, (4, 4): OPP, (5, 5): SAFE},
}

#: Table III as printed in the paper ((local, global) VC pairs).
EXPECTED_TABLE3: Dict[str, Dict[tuple[int, int], PathSupport]] = {
    "MIN": {(2, 1): SAFE, (3, 1): SAFE, (2, 2): SAFE, (3, 2): SAFE, (4, 2): SAFE, (5, 2): SAFE},
    "VAL": {(2, 1): X, (3, 1): X, (2, 2): X, (3, 2): OPP, (4, 2): SAFE, (5, 2): SAFE},
    "PAR": {(2, 1): X, (3, 1): X, (2, 2): X, (3, 2): OPP, (4, 2): OPP, (5, 2): SAFE},
}

#: Table IV as printed in the paper: (request, reply) support per configuration.
EXPECTED_TABLE4: Dict[str, Dict[tuple, tuple[PathSupport, PathSupport]]] = {
    "MIN": {
        ((2, 1), (2, 1)): (SAFE, SAFE),
        ((3, 2), (2, 1)): (SAFE, SAFE),
        ((4, 2), (4, 2)): (SAFE, SAFE),
        ((5, 2), (5, 2)): (SAFE, SAFE),
    },
    "VAL": {
        ((2, 1), (2, 1)): (X, OPP),
        ((3, 2), (2, 1)): (OPP, OPP),
        ((4, 2), (4, 2)): (SAFE, SAFE),
        ((5, 2), (5, 2)): (SAFE, SAFE),
    },
    "PAR": {
        ((2, 1), (2, 1)): (X, OPP),
        ((3, 2), (2, 1)): (OPP, OPP),
        ((4, 2), (4, 2)): (OPP, OPP),
        ((5, 2), (5, 2)): (SAFE, SAFE),
    },
}


EXPECTED_TABLES: Dict[str, dict] = {
    "Table I": EXPECTED_TABLE1,
    "Table II": EXPECTED_TABLE2,
    "Table III": EXPECTED_TABLE3,
    "Table IV": EXPECTED_TABLE4,
}


def all_tables() -> Dict[str, dict]:
    """Generate all four tables."""
    return {name: generate_table(name) for name in TABLES}


def render_all_tables() -> str:
    return "\n\n".join(render_table(table, title) for title, table in all_tables().items())


def matches_paper() -> bool:
    """True when every generated table matches the values printed in the paper."""
    return all_tables() == EXPECTED_TABLES
