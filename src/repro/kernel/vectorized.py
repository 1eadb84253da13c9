"""Batch-of-routers vectorized stepping backend (DESIGN.md §8).

One :class:`VectorizedKernel` replaces the engine's per-router pump loop for
every router of a simulation.  Each cycle it advances the whole network in
four phases:

0. **Release maturing** — output-buffer reclamations whose cycle has come
   are applied eagerly (the scalar path applies them lazily inside candidate
   checks; both orders yield the same occupancy at every read point, the
   laziness is pure accounting).
1. **Injection** — ``Router._inject_from_sources`` runs unchanged, scalar,
   for every router with backlog (it draws no RNG and schedules no events,
   so running all injections before any allocation is order-equivalent to
   the scalar per-router interleaving).
2. **Vector pass** — a handful of numpy array operations over incrementally
   maintained mirrors of the hot-state slabs decide, for every allocation
   input of every router at once, whether the scalar allocator would (a)
   skip it, (b) need a full scalar scan (some pipeline-ready head has no
   cached forwarding plan yet — computing plans can draw RNG, so only the
   exact scalar loop may do it), or (c) propose a request, and *which* VC
   slot wins the round-robin scan.
3. **Scalar completion** — per router, in ascending router order (so shared
   RNG draws replay in the scalar order), winners are turned into request
   tuples by re-running the scalar candidate evaluation on the single
   winning slot, walks run the exact scalar input-scan, and the output
   stage, grant execution, ejection and ``speedup-1`` extra iterations are
   byte-for-byte clones of the scalar allocator with mirror writes added.

The mirrors cover exactly the state the vector pass reads: per-slot head
readiness and encoded candidate feasibility, per-input crossbar timers and
round-robin pointers, per-output busy/occupancy timers, per-(port,vc)
downstream credit, and ejection busy timers.  Everything else stays in the
canonical slabs, which remain the single source of truth for every scalar
code path.

Blocked-verdict memoization (``_in_state[...+2]``/``_pv_masks``) is never
engaged under the kernel: verdicts are a pure skip-list for the scalar
scan-everything loop, and the vector pass re-evaluates every input each
cycle for the cost of a few array ops, so the kernel simply leaves every
verdict cleared (the scalar equivalence proof for verdicts runs in the
other direction: a recorded verdict only ever *skips* provably fruitless
scans).  Likewise the router sleep/wake machinery is bypassed entirely:
managed routers are removed from the engine's active set and the kernel is
stepped unconditionally while the network holds packets (``busy()``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..packet import RouteKind
from ..routing.base import EjectionRequest
from ..router.router import (
    _SEL_GENERIC,
    _SEL_HIGHEST,
    _SEL_JSQ,
    _SEL_LOWEST,
)

_MINIMAL = RouteKind.MINIMAL

#: "never" sentinel for cycle-valued mirrors (matches router.NEVER's role).
BIG = 1 << 62

#: feasible-winner key marker: keys are ``MID | (rank << 32) | slot`` so a
#: walk marker (0) always wins the per-input min-reduction, any feasible
#: key beats BIG, and rank/slot unpack from the low bits.
MID = 1 << 45


class _RouterMeta:
    """Per-router references bound once at construction (no per-cycle setup)."""

    __slots__ = (
        "router", "alloc_inputs", "port_data", "in_state", "in_busy",
        "in_rr", "out_state", "credit_free", "eject_busy", "out_by_port",
        "eject_flat", "first_node", "allocator", "routing_plan",
        "on_hop_taken", "sel_mode", "selection", "rng", "input_base",
        "out_row_base", "eject_row_base", "credit_base", "slot_base",
        "n_inj_inputs", "n_inj_vcs", "ledger",
    )


class VectorizedKernel:
    """numpy batch stepper over the routers of one simulation."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.engine = sim.engine
        self.routers = list(sim.routers)
        self.ledger = sim._resident_ledger
        config = sim.config
        #: all traffic of a run is fixed-size (generator and reactive replies
        #: both use config.traffic.packet_size), so admission thresholds are
        #: a single scalar in every array comparison.
        self.SIZE = config.traffic.packet_size
        self.speedup = config.router.speedup
        self._schedule_call = sim.engine.schedule_call

        self._build_arrays()
        self._rewire()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_arrays(self) -> None:
        in_router: List[int] = []      # flat input -> router index
        slot_vc: List[int] = []        # flat slot -> vc within its input
        slot_nvcs: List[int] = []      # flat slot -> num_vcs of its input
        slot_input: List[int] = []     # flat slot -> flat input index
        input_offsets: List[int] = [0]
        in_busy_init: List[int] = []
        in_rr_init: List[int] = []
        cap_rows: List[int] = []       # net out rows: output buffer capacity
        row_fix: List[tuple] = []      # net rows: (out_state, ob, pending)
        credit_init: List[int] = []
        self._rmeta: List[_RouterMeta] = []

        for r, router in enumerate(self.routers):
            meta = _RouterMeta()
            meta.router = router
            meta.alloc_inputs = router._alloc_inputs
            meta.in_state = router._in_state
            meta.in_busy = router._in_busy
            meta.in_rr = router._in_rr
            meta.out_state = router._out_state
            meta.credit_free = router._credit_free
            meta.eject_busy = router._eject_busy
            meta.out_by_port = router._out_by_port
            meta.eject_flat = router._eject_flat
            meta.first_node = router.nodes[0] if router.nodes else 0
            meta.allocator = router.allocator
            meta.routing_plan = router.routing.plan
            meta.on_hop_taken = router.routing.on_hop_taken
            meta.sel_mode = router._sel_mode
            meta.selection = router.selection
            meta.rng = router.rng
            meta.ledger = self.ledger
            meta.n_inj_inputs = len(router.injection_ports)
            meta.n_inj_vcs = router._n_inj_vcs
            #: same per-input constants as the scalar allocator binds.
            meta.port_data = [
                (port.queues, port.head_plans, port.rr_orders, port.num_vcs,
                 None if port.is_injection else port.link_type,
                 port.is_injection)
                for port in router._alloc_inputs
            ]
            meta.input_base = len(in_router)
            meta.slot_base = [0] * len(router._alloc_inputs)
            for local, port in enumerate(router._alloc_inputs):
                meta.slot_base[local] = len(slot_vc)
                in_router.append(r)
                in_busy_init.append(router._in_busy[local])
                in_rr_init.append(router._in_rr[local])
                for vc in range(port.num_vcs):
                    slot_vc.append(vc)
                    slot_nvcs.append(port.num_vcs)
                    slot_input.append(meta.input_base + local)
                input_offsets.append(len(slot_vc))
            meta.out_row_base = len(cap_rows)
            for port in sorted(router.output_ports):
                op = router.output_ports[port]
                cap_rows.append(router._out_cap[port])
                row_fix.append(
                    (router._out_state, router._out_base[port],
                     router._out_pending[port])
                )
            meta.credit_base = len(credit_init)
            credit_init.extend(router._credit_free)
            self._rmeta.append(meta)

        # Eject rows follow the net rows; one sentinel "never ok" row last.
        n_net = len(cap_rows)
        eject_lens = [len(router._eject_busy) for router in self.routers]
        base = n_net
        for meta, elen in zip(self._rmeta, eject_lens):
            meta.eject_row_base = base
            base += elen
        n_rows = base + 1  # + sentinel
        self._sentinel_row = n_rows - 1
        self._n_net_rows = n_net

        S = len(slot_vc)
        NI = len(in_router)
        self.in_router = in_router
        self.slot_vc_list = slot_vc
        self.slot_input_list = slot_input

        self.slot_vc = np.asarray(slot_vc, dtype=np.int64)
        self.slot_nvcs = np.asarray(slot_nvcs, dtype=np.int64)
        self.slot_input = np.asarray(slot_input, dtype=np.int64)
        self.slot_idx = np.arange(S, dtype=np.int64)
        self.seg_starts = np.asarray(input_offsets[:-1], dtype=np.int64)

        self.ready = np.full(S, BIG, dtype=np.int64)
        self.unencoded = np.ones(S, dtype=bool)
        #: per-slot candidate feasibility-pair ids (index into the lazy
        #: (out_row, rid) pair table below); pid 0 is the never-feasible
        #: sentinel pair carried by unplanned/opaque slots and absent
        #: second candidates.
        self.cand0_pid = np.zeros(S, dtype=np.int64)
        self.cand1_pid = np.zeros(S, dtype=np.int64)

        self.in_busy_m = np.asarray(in_busy_init, dtype=np.int64)
        self.in_rr_m = np.asarray(in_rr_init, dtype=np.int64)
        assert self.in_busy_m.shape[0] == NI

        self.xbusy = np.zeros(n_rows, dtype=np.int64)
        self.xbusy[self._sentinel_row] = BIG
        self.occ_x = np.zeros(n_rows, dtype=np.int64)
        cap_x = np.full(n_rows, BIG, dtype=np.int64)
        cap_x[:n_net] = np.asarray(cap_rows, dtype=np.int64)
        cap_x[self._sentinel_row] = -BIG
        self.cap_x = cap_x
        self.release_head = np.full(n_net, BIG, dtype=np.int64)
        self._row_fix = row_fix

        self.credit_free_m = np.asarray(credit_init, dtype=np.int64)

        #: credit-feasibility ranges: rid -> span of credit_free_m indices;
        #: a slot candidate is credit-feasible iff any entry of its range
        #: holds >= SIZE free phits (exact for every stock selection — they
        #: all pick some VC iff one fits).  rid 0 is the always-true range
        #: used by ejection candidates.
        self._rid_map: dict = {}
        self._rid_gather_list: List[int] = [0]
        self._rid_offsets_list: List[int] = [0]
        self._rid_gather = np.asarray([0], dtype=np.int64)
        self._rid_offsets = np.asarray([0], dtype=np.int64)

        #: lazy (out_row, rid) feasibility-pair table: distinct candidate
        #: shapes network-wide are few (one per (output port, VC range) per
        #: router), so per-pair feasibility is computed on this tiny table
        #: and slots just gather it — two np.take's instead of four.
        #: pid 0 = (sentinel row, rid 0): never feasible.
        self._pid_map: dict = {(self._sentinel_row, 0): 0}
        self._pair_row_list: List[int] = [self._sentinel_row]
        self._pair_rid_list: List[int] = [0]
        #: encode fast path: (out row, credit span start, count) -> pid in
        #: one lookup (memoizes the _rid_for + _pid_for pair).
        self._enc_map: dict = {}
        self._pair_row = np.asarray([self._sentinel_row], dtype=np.int64)
        self._pair_rid = np.asarray([0], dtype=np.int64)
        #: set when a scan encoded a new rid/pair; the arrays are rebuilt
        #: from the lists at most once per cycle (eager per-insert rebuilds
        #: are quadratic in table size while routes are being discovered).
        self._tables_dirty = False

        #: preallocated per-cycle work buffers (S-sized ops dominate the
        #: vector pass; out= into these avoids one allocation per op).
        self._b_ready = np.empty(S, dtype=bool)
        self._b_feas = np.empty(S, dtype=bool)
        self._b_feas2 = np.empty(S, dtype=bool)
        self._b_rank = np.empty(S, dtype=np.int64)
        self._b_gather = np.empty(S, dtype=np.int64)
        #: static feasible-key component: MID | slot index (rank lands in
        #: bits 32..39, below MID).
        self._slot_key = self.slot_idx + MID

    def _rid_for(self, gstart: int, count: int) -> int:
        key = (gstart, count)
        rid = self._rid_map.get(key)
        if rid is None:
            rid = len(self._rid_offsets_list)
            self._rid_map[key] = rid
            self._rid_offsets_list.append(len(self._rid_gather_list))
            self._rid_gather_list.extend(range(gstart, gstart + count))
            self._tables_dirty = True
        return rid

    def _pid_for(self, row: int, rid: int) -> int:
        key = (row, rid)
        pid = self._pid_map.get(key)
        if pid is None:
            pid = len(self._pair_row_list)
            self._pid_map[key] = pid
            self._pair_row_list.append(row)
            self._pair_rid_list.append(rid)
            self._tables_dirty = True
        return pid

    def _enc_pid(self, row: int, gstart: int, count: int) -> int:
        key = (row, gstart, count)
        pid = self._enc_map.get(key)
        if pid is None:
            pid = self._pid_for(row, self._rid_for(gstart, count))
            self._enc_map[key] = pid
        return pid

    # ------------------------------------------------------------------
    # Wiring: replace receivers / credit sinks, neutralize pumps
    # ------------------------------------------------------------------
    def _rewire(self) -> None:
        engine = self.engine
        topology = self.sim.topology
        for router in self.routers:
            for info in topology.ports(router.router_id):
                downstream = self.routers[info.neighbor]
                back_port = topology.port_to(info.neighbor, router.router_id)
                link = router.output_ports[info.port].link
                link._deliver = self._make_receiver(
                    self._rmeta[info.neighbor], downstream, back_port
                )
                channel = downstream.input_ports[back_port].credit_channel
                channel.connect(
                    self._make_credit_sink(
                        self._rmeta[router.router_id], router, info.port
                    )
                )
            # The kernel steps managed routers itself: take them out of the
            # engine's pump loop and make wake()/activate no-ops.
            engine.neutralize_stepper(router.engine_index)
            router.engine_activate = None

    def _make_receiver(self, meta: _RouterMeta, router, port_id: int):
        """Arrival callback: scalar receive semantics + slot-ready mirror.

        Clone of the fused ``StaticInputPort.deliver`` minus the
        sleep/wake bookkeeping (the kernel steps every cycle regardless,
        and verdicts are never recorded so there is nothing to clamp).
        """
        input_port = router.input_ports[port_id]
        pipeline_latency = router._pipeline_latency
        buffer = input_port.buffer
        occupancy = buffer._occupancy
        capacity = buffer._capacity
        queues = input_port.queues
        hot = input_port._hot
        hb = input_port._hb
        local = router._alloc_inputs.index(input_port)
        slot_base = meta.slot_base[local]
        ready_m = self.ready
        ledger = self.ledger

        def deliver(packet, vc: int, now: int) -> None:
            size = packet.size_phits
            occ = occupancy[vc] + size
            if occ > capacity[vc]:
                buffer.allocate(vc, size)  # raises the canonical overflow
            occupancy[vc] = occ
            packet.current_vc = vc
            ready = now + pipeline_latency
            queue = queues[vc]
            if queue is None:
                queue = queues[vc] = []
            queue.append((packet, ready))
            resident = hot[hb] + 1
            hot[hb] = resident
            if resident == 1 or ready < hot[hb + 1]:
                hot[hb + 1] = ready
            hot[hb + 2] = -1
            hook = input_port.on_occupancy
            if hook is not None:
                hook(vc, size, occ, now)
            router.resident_packets += 1
            ledger.count += 1
            if len(queue) == 1:
                # New head: its plan is None (the slot's ``unencoded`` flag
                # was left True by the pop/initial state).
                ready_m[slot_base + vc] = ready

        return deliver

    def _make_credit_sink(self, meta: _RouterMeta, router, port_id: int):
        """Credit-return callback: scalar accounting + credit mirror.

        Clone of the fused ``StaticOutputPort.credit_return`` minus verdict
        clearing and wake filtering (no verdicts and no sleep exist under
        the kernel).
        """
        tracker = router.output_ports[port_id].credits
        mirror = tracker.mirror
        occupancy = mirror._occupancy
        capacity = mirror._capacity
        credit_free = router._credit_free
        base = router._cfree_base[port_id]
        ledger = tracker.ledger
        gbase = meta.credit_base + base
        cfm = self.credit_free_m

        def credit_return(vc: int, phits: int, minimal: bool) -> None:
            occ = occupancy[vc] - phits
            if occ < 0:
                mirror.release(vc, phits)  # raises the canonical underflow
            occupancy[vc] = occ
            free = capacity[vc] - occ
            credit_free[base + vc] = free
            cfm[gbase + vc] = free
            counts = ledger.minimal if minimal else ledger.nonminimal
            if phits > counts[vc]:
                ledger.remove(vc, phits, minimal)  # raises the underflow
            counts[vc] -= phits

        return credit_return

    # ------------------------------------------------------------------
    # Activity (engine quiescence hook)
    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """Any packet resident in a router (network, injection or source)?

        In-flight link/credit traffic is covered by the engine's event
        calendar, exactly as for the scalar backend.
        """
        if self.ledger.count:
            return True
        for router in self.routers:
            if router._injection_resident or router._source_backlog:
                return True
        return False

    # ------------------------------------------------------------------
    # Per-cycle stepping
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        # Phase 0: apply matured output-buffer reclamations eagerly.
        release_head = self.release_head
        if release_head[release_head.argmin()] <= now:
            for row in np.flatnonzero(release_head <= now).tolist():
                out_state, ob, pending = self._row_fix[row]
                occupancy = out_state[ob + 3]
                while pending and pending[0][0] <= now:
                    occupancy -= pending.pop(0)[1]
                out_state[ob + 3] = occupancy
                self.occ_x[row] = occupancy
                release_head[row] = pending[0][0] if pending else BIG

        # Phase 1: injection (scalar, ascending router order; injection
        # draws no RNG and schedules no events, so batching it before any
        # allocation is order-equivalent to the scalar interleaving).
        ready_m = self.ready
        for meta in self._rmeta:
            router = meta.router
            if router._source_backlog and now >= router._inject_gate:
                router._inject_from_sources(now)
                # Re-sync the head-ready mirror of the injection slots (an
                # injection may have created a new head; plans stay None so
                # the unencoded flag — still True — routes it to a walk).
                base = meta.input_base
                for local in range(meta.n_inj_inputs):
                    queues = meta.port_data[local][0]
                    sbase = meta.slot_base[local]
                    for vc in range(meta.n_inj_vcs):
                        queue = queues[vc]
                        ready_m[sbase + vc] = queue[0][1] if queue else BIG

        # Phase 2: the vector pass.  Everything folds into one key per slot
        # and one min-reduction per input: a ready slot without a cached
        # plan contributes the walk marker 0 (always wins the min — the
        # scalar scan covers every slot of the input anyway), a ready slot
        # whose encoded candidate pair is feasible contributes
        # MID | rank << 32 | slot, anything else contributes BIG.  An input
        # is active iff its crossbar is free and its min key is below BIG;
        # inputs whose every ready head is encoded-but-infeasible reduce to
        # BIG and are skipped, exactly like the scalar scan that would
        # propose nothing (and record only verdicts, which the kernel never
        # engages).
        now_ready = self._b_ready
        np.less_equal(ready_m, now, out=now_ready)
        if not now_ready.any():
            return
        if self._tables_dirty:
            self._tables_dirty = False
            self._rid_gather = np.asarray(self._rid_gather_list, dtype=np.int64)
            self._rid_offsets = np.asarray(self._rid_offsets_list, dtype=np.int64)
            self._pair_row = np.asarray(self._pair_row_list, dtype=np.int64)
            self._pair_rid = np.asarray(self._pair_rid_list, dtype=np.int64)
        SIZE = self.SIZE
        ok_out = (self.xbusy <= now) & (self.occ_x + SIZE <= self.cap_x)
        free_ok = self.credit_free_m >= SIZE
        rid_ok = np.bitwise_or.reduceat(
            free_ok[self._rid_gather], self._rid_offsets
        )
        rid_ok[0] = True  # rid 0: ejection / always-feasible
        pair_ok = ok_out[self._pair_row]
        pair_ok &= rid_ok[self._pair_rid]
        feas = self._b_feas
        np.take(pair_ok, self.cand0_pid, out=feas)
        feas2 = self._b_feas2
        np.take(pair_ok, self.cand1_pid, out=feas2)
        feas |= feas2
        feas &= now_ready
        rank = self._b_rank
        gathered = self._b_gather
        np.take(self.in_rr_m, self.slot_input, out=gathered)
        np.subtract(self.slot_vc, gathered, out=rank)
        np.remainder(rank, self.slot_nvcs, out=rank)
        np.left_shift(rank, 32, out=rank)
        rank += self._slot_key
        key = np.where(feas, rank, BIG)
        now_ready &= self.unencoded
        key = np.where(now_ready, 0, key)
        minkey = np.minimum.reduceat(key, self.seg_starts)
        active = self.in_busy_m <= now
        active &= minkey < BIG
        idx = np.flatnonzero(active)
        if not idx.size:
            return

        # Phase 3: scalar completion, per router, ascending.
        keys = minkey[idx].tolist()
        in_router = self.in_router
        rmeta = self._rmeta
        current = -1
        jobs: list = []
        for pos, flat in enumerate(idx.tolist()):
            r = in_router[flat]
            if r != current:
                if jobs:
                    self._alloc_router(rmeta[current], now, jobs)
                current = r
                jobs = []
            meta = rmeta[r]
            k = keys[pos]
            jobs.append(
                (flat - meta.input_base, k == 0, k & 0xFFFFFFFF)
            )
        if jobs:
            self._alloc_router(rmeta[current], now, jobs)

    # ------------------------------------------------------------------
    # Scalar completion (exact clones of the scalar allocator pieces)
    # ------------------------------------------------------------------
    def _alloc_router(self, meta: _RouterMeta, now: int, jobs: list) -> None:
        """One cycle of allocation for one router, vector-assisted.

        Iteration 0's input scan is replaced by the vector verdicts
        (``jobs``); everything downstream — request assembly, output stage,
        grant execution, iterations 1..speedup-1 — is the scalar allocator
        check-for-check (minus blocked-verdict/sleep recording, which the
        kernel never engages).
        """
        router = meta.router
        in_state = meta.in_state
        in_busy = meta.in_busy
        allocator = meta.allocator
        num_inputs = allocator.num_inputs
        requests: list = []
        proposed: list = []
        for local, walk, wslot in jobs:
            if walk:
                request = self._scan_input(meta, local, now)
            else:
                vc = self.slot_vc_list[wslot]
                queues, head_plans, rr_orders, num_vcs = \
                    meta.port_data[local][:4]
                packet = queues[vc][0][0]
                request = self._eval_slot(
                    meta, local, vc, packet, head_plans[vc], now
                )
                assert request is not None, "vector winner must assemble"
                next_vc = vc + 1
                meta.in_rr[local] = 0 if next_vc >= num_vcs else next_vc
                self.in_rr_m[meta.input_base + local] = meta.in_rr[local]
            if request is not None:
                requests.append(request)
                proposed.append(local)

        scan: list = []
        for iteration in range(self.speedup):
            if iteration:
                requests = []
                proposed = []
                for local in scan:
                    base = 3 * local
                    if in_state[base] == 0:
                        continue
                    if in_busy[local] > now:
                        continue
                    if in_state[base + 1] > now:
                        continue
                    request = self._scan_input(meta, local, now)
                    if request is not None:
                        requests.append(request)
                        proposed.append(local)
            if not requests:
                break
            # Output stage (clone of the scalar inlined separable allocator).
            if len(requests) == 1:
                allocator._priority = (allocator._priority + 1) % num_inputs
                request = requests[0]
                self._execute_grant(meta, request, now)
                if request[3] >= 0:
                    break  # network grant: input crossbar now busy
            else:
                by_resource: dict = {}
                for request in requests:
                    key = request[3]
                    bucket = by_resource.get(key)
                    if bucket is None:
                        by_resource[key] = [request]
                    else:
                        bucket.append(request)
                priority = allocator._priority
                any_eject = False
                for bucket in by_resource.values():
                    winner = bucket[0]
                    if len(bucket) > 1:
                        best_rank = (winner[0] - priority) % num_inputs
                        for contender in bucket:
                            rank = (contender[0] - priority) % num_inputs
                            if rank < best_rank:
                                best_rank = rank
                                winner = contender
                    if winner[3] < 0:
                        any_eject = True
                    self._execute_grant(meta, winner, now)
                allocator._priority = (priority + 1) % num_inputs
                if not any_eject and len(by_resource) == len(requests):
                    break  # no losers: nothing can re-propose this cycle
            if not router.resident_packets and not router._injection_resident:
                break
            scan = proposed

    def _scan_input(self, meta: _RouterMeta, local: int, now: int):
        """Exact clone of the scalar allocator's per-input scan.

        Computes (and caches) forwarding plans for pipeline-ready heads —
        the only place besides selection RNG where allocation touches the
        shared RNG stream — and returns the first requestable head's
        request tuple, updating the round-robin pointer like the scalar
        path.  Verdict recording is omitted (never engaged under the
        kernel); newly planned heads are (re-)encoded into the candidate
        mirror before returning.
        """
        (queues, head_plans, rr_orders, num_vcs, input_type,
         is_injection) = meta.port_data[local]
        router = meta.router
        routing_plan = meta.routing_plan
        in_rr = meta.in_rr
        request = None
        planned = False
        for vc in rr_orders[in_rr[local]]:
            queue = queues[vc]
            if not queue:
                continue
            packet, ready = queue[0]
            if ready > now:
                continue
            plan = head_plans[vc]
            if plan is None:
                if is_injection:
                    plan = routing_plan(router, packet, None, -1)
                else:
                    plan = routing_plan(router, packet, input_type, vc)
                head_plans[vc] = plan
                planned = True
            request = self._eval_slot(meta, local, vc, packet, plan, now)
            if request is not None:
                next_vc = vc + 1
                in_rr[local] = 0 if next_vc >= num_vcs else next_vc
                self.in_rr_m[meta.input_base + local] = in_rr[local]
                break
        if planned:
            self._encode_input(meta, local)
        return request

    def _eval_slot(self, meta: _RouterMeta, local: int, vc: int, packet,
                   plan, now: int):
        """Evaluate one head packet against its plan (scalar semantics)."""
        if type(plan) is EjectionRequest:
            slot = plan.slot
            if slot < 0:
                slot = 2 * (plan.node - meta.first_node) + plan.msg_class
                plan.slot = slot
            if meta.eject_busy[slot] > now:
                return None
            return (local, vc, packet, -1 - slot, -1, plan)
        out_state = meta.out_state
        credit_free = meta.credit_free
        sel_mode = meta.sel_mode
        speedup = self.speedup
        size = packet.size_phits
        for candidate in plan:
            (out_port, lo, hi, ob, cb, cap, pending,
             fail_mask) = candidate.hot
            out_busy = out_state[ob]
            if out_busy > now:
                continue
            if out_state[ob + 1] == now and out_state[ob + 2] >= speedup:
                continue
            occupancy = out_state[ob + 3]
            if pending and pending[0][0] <= now:
                # Dead branch after eager maturing, kept for safety; keep
                # the mirrors in sync if it ever fires.
                while pending and pending[0][0] <= now:
                    occupancy -= pending.pop(0)[1]
                out_state[ob + 3] = occupancy
                row = meta.out_row_base + ob // 4
                self.occ_x[row] = occupancy
                self.release_head[row] = pending[0][0] if pending else BIG
            if occupancy + size > cap:
                continue
            out_vc = -1
            if sel_mode == _SEL_JSQ:
                best_free = -1
                for ovc in range(lo, hi + 1):
                    free = credit_free[cb + ovc]
                    if free >= size and free > best_free:
                        out_vc, best_free = ovc, free
            elif sel_mode == _SEL_LOWEST:
                for ovc in range(lo, hi + 1):
                    if credit_free[cb + ovc] >= size:
                        out_vc = ovc
                        break
            elif sel_mode == _SEL_HIGHEST:
                for ovc in range(hi, lo - 1, -1):
                    if credit_free[cb + ovc] >= size:
                        out_vc = ovc
                        break
            else:
                candidates: List[int] = []
                free_list: List[int] = []
                for ovc in range(lo, hi + 1):
                    free = credit_free[cb + ovc]
                    if free >= size:
                        candidates.append(ovc)
                        free_list.append(free)
                if candidates:
                    out_vc = meta.selection.choose(
                        candidates, free_list, meta.rng
                    )
            if out_vc < 0:
                continue
            return (local, vc, packet, out_port, out_vc, candidate)
        return None

    def _encode_input(self, meta: _RouterMeta, local: int) -> None:
        """Encode cached head plans of one input into the candidate mirror."""
        queues, head_plans = meta.port_data[local][:2]
        sbase = meta.slot_base[local]
        unencoded = self.unencoded
        cand0_pid = self.cand0_pid
        cand1_pid = self.cand1_pid
        enc_pid = self._enc_pid
        out_row_base = meta.out_row_base
        credit_base = meta.credit_base
        for vc, plan in enumerate(head_plans):
            if plan is None:
                continue
            s = sbase + vc
            if not unencoded[s]:
                continue
            if type(plan) is EjectionRequest:
                slot = plan.slot
                if slot < 0:
                    slot = 2 * (plan.node - meta.first_node) + plan.msg_class
                    plan.slot = slot
                cand0_pid[s] = self._pid_for(meta.eject_row_base + slot, 0)
                cand1_pid[s] = 0
                unencoded[s] = False
                continue
            n = len(plan)
            if n < 1 or n > 2:
                continue  # opaque plan: stays on the walk path (still exact)
            c0 = plan[0].hot
            cand0_pid[s] = enc_pid(
                out_row_base + c0[3] // 4,
                credit_base + c0[4] + c0[1], c0[2] - c0[1] + 1,
            )
            if n == 2:
                c1 = plan[1].hot
                cand1_pid[s] = enc_pid(
                    out_row_base + c1[3] // 4,
                    credit_base + c1[4] + c1[1], c1[2] - c1[1] + 1,
                )
            else:
                cand1_pid[s] = 0
            unencoded[s] = False

    def _execute_grant(self, meta: _RouterMeta, grant: tuple, now: int) -> None:
        """Clone of the scalar grant executor with mirror writes added."""
        local, input_vc, packet, key, out_vc, candidate = grant
        port = meta.alloc_inputs[local]
        if key < 0:
            self._do_eject(meta, port, local, input_vc, packet, candidate, now)
            return
        router = meta.router
        ob = candidate.hot[3]
        op = meta.out_by_port[key]
        size = packet.size_phits
        xbar_time = -(-size // self.speedup)
        if xbar_time < 1:
            xbar_time = 1
        # -- inlined InputPort.pop (identical to the scalar executor).
        queue = port.queues[input_vc]
        queue.pop(0)
        port.head_plans[input_vc] = None
        port.buffer.release(input_vc, size)
        hot = port._hot
        hb = port._hb
        resident = hot[hb] - 1
        hot[hb] = resident
        hot[hb + 2] = -1
        if resident:
            min_ready = -1
            for q in port.queues:
                if q:
                    ready = q[0][1]
                    if min_ready < 0 or ready < min_ready:
                        min_ready = ready
            hot[hb + 1] = min_ready
        channel = port.credit_channel
        if channel is not None:
            self._schedule_call(
                now + channel.latency, channel._deliver,
                (input_vc, size, packet.credit_tag_minimal),
            )
        hook = port.on_occupancy
        if hook is not None:
            hook(input_vc, -size, port.buffer.occupancy(input_vc), now)
        if port.is_injection:
            router._injection_resident -= 1
        else:
            router.resident_packets -= 1
            meta.ledger.count -= 1
        if candidate.simple_hop:
            packet.hops += 1
            packet.phase_position += 1
            if candidate.is_global_hop:
                packet.phase_global_taken += 1
        else:
            meta.on_hop_taken(packet, candidate)
        minimal_tag = packet.route_kind == _MINIMAL
        op.debit(out_vc, size, minimal_tag)
        packet.credit_tag_minimal = minimal_tag
        meta.in_busy[local] = now + xbar_time
        out_state = meta.out_state
        out_state[ob] = now + xbar_time
        if out_state[ob + 1] != now:
            out_state[ob + 1] = now
            out_state[ob + 2] = 1
        else:
            out_state[ob + 2] += 1
        out_state[ob + 3] += size
        op.packets_forwarded += 1
        link = op.link
        if link is None:
            raise RuntimeError(f"output port {op.port_id} of router "
                               f"{router.router_id} has no link attached")
        start = now + xbar_time
        if link.busy_until > start:
            start = link.busy_until
        tail_out = link.transmit(packet, out_vc, start)
        op.schedule_release(tail_out, size)
        if not minimal_tag and packet.hops == 1:
            router.misrouted_packets += 1
            if router.on_misroute is not None:
                router.on_misroute(packet, now)
        # -- mirror writes.
        flat = meta.input_base + local
        self.in_busy_m[flat] = now + xbar_time
        row = meta.out_row_base + ob // 4
        self.xbusy[row] = now + xbar_time
        self.occ_x[row] += size
        if len(op._pending_releases) == 1:
            self.release_head[row] = tail_out
        cb = candidate.hot[4]
        self.credit_free_m[meta.credit_base + cb + out_vc] = \
            meta.credit_free[cb + out_vc]
        s = meta.slot_base[local] + input_vc
        self.ready[s] = queue[0][1] if queue else BIG
        self.unencoded[s] = True

    def _do_eject(self, meta: _RouterMeta, port, local: int, input_vc: int,
                  packet, request: EjectionRequest, now: int) -> None:
        """Clone of the scalar ejection path with mirror writes added."""
        router = meta.router
        ejection = meta.eject_flat[request.slot]
        port.pop(input_vc, now, packet.credit_tag_minimal)
        if port.is_injection:
            router._injection_resident -= 1
        else:
            router.resident_packets -= 1
            meta.ledger.count -= 1
        done = ejection.consume(packet, now)
        packet.delivered_at = done
        router.packets_delivered += 1
        self._schedule_call(done, router.on_delivery, (packet, done))
        # -- mirror writes.
        self.xbusy[meta.eject_row_base + request.slot] = done
        queue = port.queues[input_vc]
        s = meta.slot_base[local] + input_vc
        self.ready[s] = queue[0][1] if queue else BIG
        self.unencoded[s] = True
