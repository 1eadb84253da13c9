"""VC selection functions (Section VI-A).

Once the VC policy has produced the admissible range for a hop, a *selection
function* picks the concrete virtual channel among those with enough credits
for the whole packet (virtual cut-through).  The paper evaluates four
policies: Join-the-Shortest-Queue (default, best on average), highest-index,
lowest-index and random.

Hot-path note: the router inlines the stock JSQ/highest/lowest behaviours
directly into its credit-scan loop (``repro.router.router._selection_mode``
identity-checks ``type(selection).choose`` against the classes below, so a
subclass that overrides ``choose`` automatically falls back to the generic
call).  If you change the semantics of one of these ``choose`` methods, the
inlined copies must change with it — ``tests/test_alloc_equivalence.py``
exercises every stock selection against the non-inlined reference
implementation and will catch a divergence.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional, Sequence


class VcSelection(ABC):
    """Strategy choosing one VC among the admissible candidates."""

    name: str = "abstract"

    @abstractmethod
    def choose(
        self,
        candidates: Sequence[int],
        free_space: Sequence[int],
        rng: Optional[random.Random] = None,
    ) -> int:
        """Pick one VC.

        Parameters
        ----------
        candidates:
            Admissible VC indices that already passed the credit check
            (non-empty).
        free_space:
            ``free_space[i]`` is the number of free phits currently available
            to ``candidates[i]`` downstream — what JSQ compares.
        rng:
            Random source for stochastic policies.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class JoinShortestQueue(VcSelection):
    """Pick the candidate with the most free space (least occupied queue)."""

    name = "jsq"

    def choose(self, candidates, free_space, rng=None):
        if not candidates:
            raise ValueError("no candidate VCs")
        best = 0
        best_free = free_space[0]
        for i in range(1, len(candidates)):
            if free_space[i] > best_free:
                best = i
                best_free = free_space[i]
        return candidates[best]


class HighestVc(VcSelection):
    """Pick the highest admissible index."""

    name = "highest"

    def choose(self, candidates, free_space, rng=None):
        if not candidates:
            raise ValueError("no candidate VCs")
        return max(candidates)


class LowestVc(VcSelection):
    """Pick the lowest admissible index (worst performer in the paper)."""

    name = "lowest"

    def choose(self, candidates, free_space, rng=None):
        if not candidates:
            raise ValueError("no candidate VCs")
        return min(candidates)


class RandomVc(VcSelection):
    """Pick uniformly at random among the candidates."""

    name = "random"

    def choose(self, candidates, free_space, rng=None):
        if not candidates:
            raise ValueError("no candidate VCs")
        if rng is None:
            # Falling back to the module-level generator here would silently
            # decouple the run from config.seed; every real caller threads the
            # simulation's seeded Random through, so a missing rng is a bug.
            raise ValueError("RandomVc.choose requires the simulation's seeded rng")
        return candidates[rng.randrange(len(candidates))]


_SELECTIONS = {
    "jsq": JoinShortestQueue,
    "highest": HighestVc,
    "lowest": LowestVc,
    "random": RandomVc,
}


def make_selection(name: str) -> VcSelection:
    """Instantiate a selection function by name (``jsq``/``highest``/``lowest``/``random``)."""
    try:
        return _SELECTIONS[name.strip().lower()]()
    except KeyError as exc:
        raise ValueError(
            f"unknown VC selection {name!r}; expected one of {sorted(_SELECTIONS)}"
        ) from exc
