"""Small bounded LRU mapping behind the topology registry's build cache.

A tiny dict with recency-refreshing reads and oldest-first eviction.
Python dicts preserve insertion order, so recency is a pop-and-reinsert
and the LRU entry is ``next(iter(...))``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class BoundedLRU:
    """Mapping with at most ``max_entries`` keys, evicting least recently used.

    ``get`` refreshes recency; ``put`` evicts the oldest entries beyond the
    bound.  Keys must be hashable — the ``TypeError`` of an unhashable key
    propagates to the caller (the topology registry uses it to fall back to
    uncached builds).
    """

    __slots__ = ("max_entries", "_entries")

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: Dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        """Value for ``key`` (None on miss), refreshing its recency."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.pop(key)
            self._entries[key] = value
        return value

    def put(self, key: Any, value: Any) -> None:
        self._entries.pop(key, None)
        while len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value
