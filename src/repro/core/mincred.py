"""Split credit accounting for FlexVC-minCred (Section III-D).

FlexVC lets minimally- and non-minimally-routed packets share the same
buffers, which blurs the congestion signal that source-adaptive routing (e.g.
Piggyback) relies on.  FlexVC-minCred restores it by accounting the credits
of minimally-routed and non-minimally-routed packets separately: every credit
taken or returned is tagged with the routing class of its packet, and the
saturation/misrouting decisions then look only at the *minimal* share of the
occupancy.

:class:`PortOccupancyLedger` is the per-port counter set behind
:class:`repro.router.credits.CreditTracker`.
"""

from __future__ import annotations


class PortOccupancyLedger:
    """Per-VC phit occupancy of one port, split by routing class.

    This is the data structure behind the four congestion-sensing variants of
    Figure 8: {per-port, per-VC} x {all credits, MIN credits only}.  The two
    classes are two flat per-VC int lists rather than one counter object per
    (port, VC) pair: the pairs number millions at 10^5-endpoint scale and
    every debit and credit return touches one.
    """

    __slots__ = ("num_vcs", "minimal", "nonminimal")

    def __init__(self, num_vcs: int) -> None:
        if num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        self.num_vcs = num_vcs
        self.minimal = [0] * num_vcs
        self.nonminimal = [0] * num_vcs

    def add(self, vc: int, phits: int, minimal: bool) -> None:
        # No sign check: this runs on every credit debit, and the router hot
        # path guarantees phits >= 0.
        if minimal:
            self.minimal[vc] += phits
        else:
            self.nonminimal[vc] += phits

    def remove(self, vc: int, phits: int, minimal: bool) -> None:
        if minimal:
            if phits > self.minimal[vc]:
                raise ValueError(
                    f"removing {phits} minimal phits but only "
                    f"{self.minimal[vc]} accounted"
                )
            self.minimal[vc] -= phits
        else:
            if phits > self.nonminimal[vc]:
                raise ValueError(
                    f"removing {phits} non-minimal phits but only "
                    f"{self.nonminimal[vc]} accounted"
                )
            self.nonminimal[vc] -= phits

    def port_occupancy(self, minimal_only: bool = False) -> int:
        """Occupancy metric: MIN credits only (minCred) or all credits."""
        total = sum(self.minimal)
        return total if minimal_only else total + sum(self.nonminimal)

    def vc_occupancy(self, vc: int, minimal_only: bool = False) -> int:
        if minimal_only:
            return self.minimal[vc]
        return self.minimal[vc] + self.nonminimal[vc]
