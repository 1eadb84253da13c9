"""Rule modules.  Importing this package registers every rule."""

from __future__ import annotations

from . import determinism, hotpath, layering, memory  # noqa: F401

__all__ = ["determinism", "hotpath", "layering", "memory"]
