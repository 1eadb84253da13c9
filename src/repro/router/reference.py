"""Full-rescan reference allocator, kept for equivalence testing.

:class:`ReferenceRouter` replaces the specialized incremental allocation
closure of :class:`~repro.router.router.Router` with a deliberately naive
implementation: every cycle it re-evaluates **every** input port and VC from
scratch through the layered object APIs (``OutputPort.buffer_space_for``,
``OutputPort.mirror.free_for``, ``VcSelection.choose``,
``SeparableAllocator.arbitrate`` with :class:`Request` objects), with none of
the fast paths — no per-port blocked verdicts, no iteration skip lists, no
inlined arbitration, no selection specialization, no candidate-resolved slab
indices.

It shares with the fast router exactly the pieces whose *timing* is part of
the simulation semantics: the per-``(port, vc)`` head-plan cache (plan
computation has observable side effects — PAR's in-transit evaluation reads
time-varying congestion — so plans must be computed at the same cycle in
both implementations) and the grant executor.  Everything else is
re-derived, which is what makes ``tests/test_alloc_equivalence.py`` a real
check that the incremental machinery is behaviour-identical to the textbook
full rescan.
"""

from __future__ import annotations

from typing import List

from ..packet import Packet
from ..routing.base import EjectionRequest
from .allocator import Request, SeparableAllocator
from .ports import InputPort
from .router import NEVER, Router


class ReferenceRouter(Router):
    """Router with the pre-optimization full-rescan allocation pass."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.allocator = SeparableAllocator(self._n_in)
        # Shadow the specialized closure installed by Router.__init__.
        self._allocate = self._allocate_reference

    def _plan_for(self, port: InputPort, vc: int, packet: Packet):
        """Compute (and cache on the packet) the head packet's forwarding
        plan; the fast allocator inlines this body."""
        input_type = None if port.is_injection else port.link_type
        input_vc = -1 if port.is_injection else vc
        plan = self.routing.plan(self, packet, input_type, input_vc)
        if not plan and not port.is_injection:
            self._count_empty_plan()
        packet.plan = plan
        return plan

    def _allocate_reference(self, now: int) -> None:
        """One cycle of iterative input-first separable allocation.

        Logic mirrors the paper's description directly; see the module
        docstring for what is intentionally *not* optimized here.
        """
        self._alloc_sleep_until = -1
        alloc_inputs = self._alloc_inputs
        speedup = self.speedup
        selection = self.selection
        rng = self.rng
        reject_until = NEVER
        credit_mask = 0
        for _iteration in range(speedup):
            requests: List[Request] = []
            retry = NEVER
            for index, port in enumerate(alloc_inputs):
                if port.resident_packets == 0:
                    continue
                busy = self._in_busy[index]
                if busy > now:
                    if busy < retry:
                        retry = busy
                    continue
                if port.min_ready > now:
                    if port.min_ready < reject_until:
                        reject_until = port.min_ready
                    continue
                # Clear any stale verdict state left by a fast pass (the
                # reference never records per-port verdicts itself).
                self._in_state[3 * index + 2] = -1
                request = None
                num_vcs = port.num_vcs
                rr_pointer = self._in_rr[index]
                for offset in range(num_vcs):
                    vc = (rr_pointer + offset) % num_vcs
                    head = port.head(vc, now)
                    if head is None:
                        queue = port.queues[vc]
                        if queue and queue[0][1] > now and queue[0][1] < reject_until:
                            reject_until = queue[0][1]
                        continue
                    packet = head
                    plan = packet.plan
                    if plan is None:
                        plan = self._plan_for(port, vc, packet)
                    if isinstance(plan, EjectionRequest):
                        slot = plan.slot
                        ejection = self.ejection_ports[slot]
                        if not ejection.idle_at(now):
                            if ejection.busy_until < reject_until:
                                reject_until = ejection.busy_until
                            continue
                        request = Request(
                            input_index=index,
                            input_vc=vc,
                            packet=packet,
                            resource=-1 - slot,
                            candidate=plan,
                        )
                    else:
                        size = packet.size_phits
                        for candidate in plan:
                            op = self.output_ports[candidate.out_port]
                            if op.xbar_busy_until > now:
                                if op.xbar_busy_until < reject_until:
                                    reject_until = op.xbar_busy_until
                                continue
                            if (op.grant_stamp == now
                                    and op.grants_this_cycle >= speedup):
                                if now + 1 < reject_until:
                                    reject_until = now + 1
                                continue
                            if not op.buffer_space_for(size, now):
                                if now + 1 < reject_until:
                                    reject_until = now + 1
                                continue
                            vc_range = candidate.vc_range
                            candidates: List[int] = []
                            free: List[int] = []
                            for out_vc in range(vc_range.lo, vc_range.hi + 1):
                                space = op.mirror.free_for(out_vc)
                                if space >= size:
                                    candidates.append(out_vc)
                                    free.append(space)
                            if not candidates:
                                # Track the credit dependency so the router's
                                # sleep verdict wakes correctly on returns
                                # (conservatively: the whole port span).
                                credit_mask |= op.credit_mask(
                                    0, op.mirror.num_vcs - 1)
                                continue
                            request = Request(
                                input_index=index,
                                input_vc=vc,
                                packet=packet,
                                resource=candidate.out_port,
                                out_vc=selection.choose(candidates, free, rng),
                                candidate=candidate,
                            )
                            break
                    if request is not None:
                        self._in_rr[index] = (vc + 1) % num_vcs
                        requests.append(request)
                        break
            if not requests:
                if _iteration == 0:
                    if reject_until < retry:
                        retry = reject_until
                    if self.on_stall is not None:
                        self.on_stall(self.router_id, now, retry)
                    self._alloc_sleep_until = retry
                    self._blocked_credit_mask = credit_mask
                break
            for grant in self.allocator.arbitrate(requests):
                self._execute_grant(
                    (grant.input_index, grant.input_vc, grant.packet,
                     grant.resource, grant.out_vc, grant.candidate),
                    now,
                )
