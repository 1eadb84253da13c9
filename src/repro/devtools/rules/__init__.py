"""Rule modules.  Importing this package registers every rule."""

from __future__ import annotations

from . import collector, determinism, hotpath, layering, memory  # noqa: F401

__all__ = ["collector", "determinism", "hotpath", "layering", "memory"]
