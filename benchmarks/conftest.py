"""Make ``src/`` importable for everything collected under ``benchmarks/``.

``benchmarks/ledger/test_ledger.py`` is collected by tier-1 before
``tests/`` (whose conftest has the same fallback), and it imports ``repro``
at module level; in an un-installed checkout without ``PYTHONPATH=src`` this
is what lets it — and ``bench_figures.py`` — import the package.
"""

from __future__ import annotations

import sys
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
