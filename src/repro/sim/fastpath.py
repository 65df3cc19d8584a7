"""Engine-free schedule execution: the hybrid fast path.

:func:`execute_schedule` replays a static :class:`~repro.sim.schedule.Schedule`
with exactly the discrete-event engine's semantics — same event heap ordering
``(time, seq, rank)``, same sequence-number allocation, same FIFO matching,
same resource-claim arithmetic (shared with :class:`~repro.sim.fabric.Fabric`
via :func:`~repro.sim.fabric._resolve_machine_costs`) — but without generator
resumes, :class:`~repro.sim.request.Request` objects, or per-message method
dispatch.  The result is bit-identical to the engine for every pristine run
(no faults, no jitter, no tracing): ``sim_mode="auto"`` is a pure speedup.

Two ideas make it fast:

* **Vectorized transmit-cost math.**  Message cohorts share their pricing: a
  stage's messages differ only in endpoints and byte counts, so compilation
  gathers the distinct ``(socket-pair plan, nbytes)`` combinations across the
  whole schedule and prices them in one numpy pass (``m/beta``, ``alpha +
  m/beta``, NIC/link costs — elementwise IEEE ops identical to the scalar
  fabric arithmetic).  The replay loop then runs over *pre-priced* send
  tuples: no float arithmetic beyond the claim recurrences themselves.
* **Scalar claim recurrences, on purpose.**  A resource's claim sequence
  ``end_i = max(post_i, end_{i-1}) + dur_i`` is *not* reformulated as a
  cumulative sum: floating-point addition is non-associative, and any
  prefix-sum regrouping would break bit-identity with the engine.  Claims
  stay in event order over plain float state.

There is one executor, the heap-driven :func:`_execute_multi`, for every
schedule whose receives all have a matching send (single- and multi-stage,
budgeted or not).  A schedule with an unmatched receive deadlocks;
:func:`execute_schedule` returns ``None`` for it and the caller runs the
engine, which reports the exact blocked state.  Compiled plans are memoized
across runs in the structural plan cache (:mod:`repro.sim.plancache`), one
entry per (schedule, machine).

Watchdog budgets (``max_sim_time``/``max_events``) are honored with the
engine's exact boundary semantics: an event with timestamp equal to
``max_sim_time`` is processed (strictly-greater trips the budget), and
processing exactly ``max_events`` events is allowed (the attempt to process
one more trips it).  Event counting is identical — one event per heap pop —
so a budgeted run trips on the same event in both paths.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.engine import DeadlockError, SimTimeoutError
from repro.sim.fabric import _machine_cost_table, _resolve_machine_costs
from repro.sim.plancache import _MISS, PLAN_CACHE, machine_digest
from repro.sim.schedule import spawn_wake_order, static_matching, structural_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine
    from repro.sim.schedule import Schedule

# Priced opcodes (first tuple element).  Matching is resolved statically
# (:func:`repro.sim.schedule.static_matching`), so receives carry no key.
# Charges compile to *bare floats* (their memcpy duration) rather than
# tuples: they are the most frequent op in combining schedules and a
# ``type(op) is float`` check is the cheapest dispatch CPython offers.
_SEND_SELF = 1   #: (1, dst, nbytes, dur)
_SEND_LOCAL = 2  #: (2, dst, nbytes, port_dur, hop_extra)
_SEND_NODE = 3   #: (3, dst, nbytes, port_dur, nic_dur, hop_extra, nsrc, ndst)
_SEND_GROUP = 4  #: (4, dst, nbytes, port_dur, nic_dur, link_dur, hop_extra,
                 #:  nsrc, ndst, lane_groups, fixed_lanes)
_RECV = 5        #: (5,)
_RECV_OP = (_RECV,)


class FastRunOutcome:
    """What :func:`execute_schedule` returns (mirrors the engine's outputs)."""

    __slots__ = (
        "simulated_time",
        "finish_times",
        "messages_sent",
        "bytes_sent",
        "events_processed",
    )

    def __init__(self, simulated_time, finish_times, messages_sent,
                 bytes_sent, events_processed):
        self.simulated_time = simulated_time
        self.finish_times = finish_times
        self.messages_sent = messages_sent
        self.bytes_sent = bytes_sent
        self.events_processed = events_processed


def _compile(schedule: "Schedule", machine: "Machine"):
    """Price every op and split each rank's list into wait-delimited segments.

    Returns ``(segments, n_lanes)``; ``segments[r]`` is ``None`` or a list of
    ``(ops_tuple, ends_with_wait)``.  All float constants are computed here —
    vectorized over the distinct ``(socket plan, nbytes)`` cohorts — so the
    replay loop's only arithmetic is claim max/add chains.
    """
    params = machine.params
    spec = machine.spec
    rps = spec.ranks_per_socket
    n_sockets = spec.n_sockets
    adaptive = params.adaptive_routing
    memcpy_beta = params.memcpy_beta
    nic_overhead = params.nic_message_overhead
    link_overhead = params.link_message_overhead
    costs = _machine_cost_table(machine)

    # Pass 1: distinct pricing cohorts across the whole schedule.
    distinct_send: dict[tuple[int, int], tuple] = {}
    distinct_charge: set[int] = set()
    for rank, ops in enumerate(schedule.ops):
        if not ops:
            continue
        src_base = (rank // rps) * n_sockets
        for op in ops:
            kind = op[0]
            if kind == "send":
                dst, nbytes = op[1], op[2]
                if dst == rank:
                    distinct_charge.add(nbytes)  # self-send = memcpy pricing
                    continue
                key = src_base + dst // rps
                entry = costs.get(key)
                if entry is None:
                    entry = _resolve_machine_costs(machine, adaptive, rank, dst)
                    costs[key] = entry
                distinct_send.setdefault((key, nbytes), entry)
            elif kind == "charge":
                distinct_charge.add(op[1])

    # Pass 2: one numpy sweep prices every cohort.  Elementwise float64 ops
    # are IEEE-identical to the fabric's scalar expressions, so the replay
    # inherits bit-exact per-message costs.
    charge_vals = sorted(distinct_charge)
    charge_price = dict(zip(
        charge_vals,
        (np.asarray(charge_vals, dtype=np.float64) / memcpy_beta).tolist(),
    ))
    pairs = list(distinct_send.items())
    price: dict[tuple[int, int], tuple] = {}
    if pairs:
        nb = np.asarray([pk[1] for pk, _ in pairs], dtype=np.float64)
        alpha = np.asarray([entry[1] for _, entry in pairs])
        inv_beta = np.asarray([entry[3] for _, entry in pairs])
        link_inv_beta = np.asarray([entry[4] for _, entry in pairs])
        dur = nb * inv_beta
        port_dur = (alpha + dur).tolist()
        nic_dur = (nic_overhead + dur).tolist()
        link_dur = (link_overhead + nb * link_inv_beta).tolist()
        for i, (pk, entry) in enumerate(pairs):
            price[pk] = (entry, port_dur[i], nic_dur[i], link_dur[i])

    # Lane keys -> dense indices into the replay's float state.
    lane_index: dict = {}

    def _lane(k):
        i = lane_index.get(k)
        if i is None:
            lane_index[k] = i = len(lane_index)
        return i

    lanes_by_key: dict[int, tuple] = {}  # socket key -> (groups, fixed)

    # Pass 3: emit priced opcode segments.
    segments: list[list[tuple] | None] = []
    for rank, ops in enumerate(schedule.ops):
        if ops is None:
            segments.append(None)
            continue
        src_base = (rank // rps) * n_sockets
        segs: list[tuple] = []
        cur: list[tuple] = []
        for op in ops:
            kind = op[0]
            if kind == "wait":
                segs.append((tuple(cur), True))
                cur = []
            elif kind == "charge":
                cur.append(charge_price[op[1]])
            elif kind == "recv":
                cur.append(_RECV_OP)
            else:  # send
                dst, nbytes = op[1], op[2]
                if dst == rank:
                    cur.append((_SEND_SELF, dst, nbytes, charge_price[nbytes]))
                    continue
                skey = src_base + dst // rps
                entry, pd, nd, ld = price[(skey, nbytes)]
                hop_extra, nsrc, ndst = entry[2], entry[5], entry[6]
                group_keys, fixed_keys = entry[7], entry[8]
                if nsrc < 0:
                    cur.append((_SEND_LOCAL, dst, nbytes, pd, hop_extra))
                elif group_keys is None and not fixed_keys:
                    cur.append((_SEND_NODE, dst, nbytes, pd, nd,
                                hop_extra, nsrc, ndst))
                else:
                    lanes = lanes_by_key.get(skey)
                    if lanes is None:
                        if group_keys is not None:
                            lanes = (tuple(tuple(_lane(k) for k in g)
                                           for g in group_keys), ())
                        else:
                            lanes = (None, tuple(_lane(k) for k in fixed_keys))
                        lanes_by_key[skey] = lanes
                    cur.append((_SEND_GROUP, dst, nbytes, pd, nd, ld,
                                hop_extra, nsrc, ndst, lanes[0], lanes[1]))
        if cur or not segs:
            segs.append((tuple(cur), False))
        segments.append(segs)
    return segments, len(lane_index)


#: Below this many ops a segment's clock is evolved by a scalar Python loop:
#: one ``np.add.accumulate`` call costs more than ~two dozen float adds, and
#: both forms are bit-identical (accumulate is a strict left-to-right fold).
_VEC_MIN_OPS = 24


class _MultiStagePlan:
    """Precompiled tables for the heap-driven schedule executor.

    Schedules interleave segments of different ranks in heap
    ``(time, seq, rank)`` order, which is a runtime quantity — so this
    plan keeps the engine's *event structure*
    (one heap pop per spawn and per waitall wake, identical seq
    allocation) and makes everything inside an event static instead:

    * per wait-delimited segment, the op deltas collapse to one clock
      evolution — ``np.add.accumulate`` over ``[now, d1, d2, ...]`` for
      fat segments, a scalar loop for thin ones (both are the engine's
      sequential adds, bit for bit), with the first segment's prefix sums
      precomputed at compile time (its ``now`` is always 0.0);
    * every send carries its pre-priced durations and pre-resolved
      receive slot (:func:`repro.sim.schedule.static_matching` — FIFO
      matching is a compile-time function of the schedule), so delivery
      is an array poke instead of dict/deque rendezvous bookkeeping;
    * inter-stage state — per-rank clocks, per-port/NIC/lane ``next_free``
      claims that bind into later stages, pending waitall counts — lives
      in flat arrays threaded across events.

    Claim arithmetic is :class:`~repro.sim.fabric.Fabric`'s, in the
    engine's event order (non-associative float adds are never regrouped),
    so outcomes are
    bit-identical to the Engine, including watchdog-budget boundaries and
    deadlock reporting.
    """

    __slots__ = (
        "n_ranks", "rank_segs", "wake_order", "n_slots", "n_lanes",
        "n_nodes", "messages", "bytes_total",
    )


def _compile_multi(schedule: "Schedule", machine: "Machine"):
    """Build a :class:`_MultiStagePlan`, or ``None`` when a receive has no
    matching send (the run deadlocks; the engine reports it exactly)."""
    send_slots, n_slots, fully_matched = static_matching(schedule)
    if not fully_matched:
        return None
    segments, n_lanes = _compile(schedule, machine)
    call_overhead = machine.params.call_overhead

    n = schedule.n_ranks
    rank_segs: list[tuple | None] = []
    si = 0  # global send index — rank-major op order, = static_matching's
    ri = 0  # global receive slot — same enumeration
    messages = 0
    bytes_total = 0
    for rank in range(n):
        segs = segments[rank]
        if segs is None:
            rank_segs.append(None)
            continue
        compiled: list[tuple] = []
        first = True
        for ops, ends_with_wait in segs:
            deltas: list[float] = []
            sends: list[tuple] = []
            recvs: list[tuple] = []
            for op in ops:
                if op.__class__ is float:
                    deltas.append(op)
                    continue
                deltas.append(call_overhead)
                pos = len(deltas)  # accl index of the clock after this op
                code = op[0]
                if code == _RECV:
                    recvs.append((pos, ri))
                    ri += 1
                    continue
                sl = send_slots[si]
                si += 1
                messages += 1
                bytes_total += op[2]
                if code == _SEND_SELF:
                    sends.append((0, pos, sl, op[3]))
                elif code == _SEND_LOCAL:
                    sends.append((1, pos, sl, op[1], op[3], op[4]))
                elif code == _SEND_NODE:
                    sends.append((2, pos, sl, op[1], op[3], op[4], op[5],
                                  op[6], op[7]))
                else:  # _SEND_GROUP — pre-classify the lane choice shape
                    groups, fixed = op[9], op[10]
                    if groups is None:
                        lmode, lspec = 0, fixed        # oblivious lane set
                    elif len(groups) == 1:
                        g = groups[0]
                        # adaptive: the 2-lane pair (Dragonfly+ default)
                        # gets its own inlined fast case at runtime
                        lmode, lspec = (1, g) if len(g) == 2 else (2, g)
                    else:
                        lmode, lspec = 3, groups       # per-hop choices
                    sends.append((3, pos, sl, op[1], op[3], op[4], op[5],
                                  op[6], op[7], op[8], lmode, lspec))
            accl0 = None
            if first:
                accl0 = np.add.accumulate(
                    np.asarray([0.0] + deltas, dtype=np.float64)
                ).tolist()
                first = False
            if len(deltas) >= _VEC_MIN_OPS:
                arr = np.empty(len(deltas) + 1, dtype=np.float64)
                arr[1:] = deltas
                compiled.append((True, arr, accl0, tuple(sends),
                                 tuple(recvs), ends_with_wait))
            else:
                compiled.append((False, tuple(deltas), accl0, tuple(sends),
                                 tuple(recvs), ends_with_wait))
        rank_segs.append(tuple(compiled))

    plan = _MultiStagePlan()
    plan.n_ranks = n
    plan.rank_segs = rank_segs
    plan.wake_order = spawn_wake_order(schedule)
    plan.n_slots = n_slots
    plan.n_lanes = n_lanes
    plan.n_nodes = machine.spec.nodes
    plan.messages = messages
    plan.bytes_total = bytes_total
    return plan


def multi_plan_for(schedule: "Schedule", machine: "Machine"):
    """Memoized :func:`_compile_multi` via the structural plan cache.

    The key is ``(schedule structural digest, machine digest)`` — see
    :mod:`repro.sim.plancache` — so one compilation is shared across runs,
    across alternating machines, and across distinct ``Schedule`` objects
    describing the same pattern.  ``None`` (an unmatched receive) is
    cached too.
    """
    key = (structural_digest(schedule), machine_digest(machine))
    plan = PLAN_CACHE.get(key)
    if plan is _MISS:
        plan = _compile_multi(schedule, machine)
        PLAN_CACHE.put(key, plan)
    return plan


def _execute_multi(
    plan: _MultiStagePlan,
    max_sim_time: float | None,
    max_events: int | None,
) -> FastRunOutcome:
    """One run of a compiled plan (see :class:`_MultiStagePlan`).

    The heap discipline — pushes, pops, sequence numbers, budget checks —
    is the engine's, verbatim; segment interiors use the
    precompiled tables.  Receive slots run a small state machine replacing
    the posted/unexpected dict rendezvous: 0 unposted, 1 posted (owner
    still running its segment), 2 delivered before post, 3 consumed,
    4 blocked in a waitall, 5 determined while the owner was running
    (same-rank delivery).  Sends and receives are processed in two passes
    per segment: deliveries to *other* ranks happen only in the send pass
    (their relative order is preserved, so seq allocation is identical)
    and same-rank deliveries commute through the state machine — every
    completion is ``max(arrival, post clock)`` folded through order-free
    maxima, so the split is bit-exact against the engine's op-interleaved
    processing.
    """
    n = plan.n_ranks
    rank_segs = plan.rank_segs
    rank_now = [0.0] * n
    send_next = [0.0] * n
    recv_next = [0.0] * n
    nic_tx_next = [0.0] * plan.n_nodes
    nic_rx_next = [0.0] * plan.n_nodes
    lane_next = [0.0] * plan.n_lanes
    n_slots = plan.n_slots
    state = bytearray(n_slots)
    post_rt = [0.0] * n_slots
    aval = [0.0] * n_slots
    wait_remaining = [0] * n
    wait_latest = [0.0] * n
    seg_idx = [0] * n
    finished: dict[int, float] = {}

    heap: list[tuple[float, int, int]] = []
    seq = 0
    for rank in plan.wake_order:
        seq += 1
        heap.append((0.0, seq, rank))
    if len(plan.wake_order) < n:
        for rank in range(n):
            if rank_segs[rank] is None:
                finished[rank] = 0.0

    heappush = heapq.heappush
    heappop = heapq.heappop
    accumulate = np.add.accumulate

    def _blocked_detail() -> str:
        parts = []
        for r in range(n):
            if r in finished or rank_segs[r] is None:
                continue
            rem = wait_remaining[r]
            detail = f"waitall({rem} pending)" if rem else "runnable"
            parts.append(f"rank {r} ({detail})")
        return ", ".join(parts) if parts else "none"

    max_time = float("inf") if max_sim_time is None else max_sim_time
    events = 0
    while heap:
        time, _, rank = heappop(heap)
        if time > max_time:
            raise SimTimeoutError(
                f"simulated-time budget exceeded: next event at "
                f"{time:.6e}s > max_sim_time={max_time:.6e}s "
                f"after {events} event(s); processes: {_blocked_detail()}",
                budget="sim_time", events_processed=events, limit=max_time,
            )
        events += 1
        if max_events is not None and events > max_events:
            raise SimTimeoutError(
                f"event budget exceeded: processed {events - 1} events "
                f"(max_events={max_events}); processes: {_blocked_detail()}",
                budget="events", events_processed=events - 1, limit=max_events,
            )
        now = rank_now[rank]
        if time > now:
            now = time
        segs = rank_segs[rank]
        i = seg_idx[rank]
        nseg = len(segs)
        while True:
            if i == nseg:
                rank_now[rank] = now
                finished[rank] = now
                break
            vec, deltas, accl0, sends, recvs, ends_wait = segs[i]
            i += 1
            if accl0 is not None and now == 0.0:
                accl = accl0
            elif vec:
                deltas[0] = now
                accl = accumulate(deltas).tolist()
            else:
                accl = [now]
                c = now
                for d in deltas:
                    c += d
                    accl.append(c)
            now = accl[-1]
            lat = 0.0
            for pos, sl in recvs:
                if state[sl]:  # == 2: delivered before post (unexpected)
                    a = aval[sl]
                    t = accl[pos]
                    c2 = a if a > t else t
                    if c2 > lat:
                        lat = c2
                    state[sl] = 3
                else:
                    post_rt[sl] = accl[pos]
                    state[sl] = 1
            for sd in sends:
                kind = sd[0]
                if kind == 2:  # cross-node: port -> NIC tx -> NIC rx -> port
                    _, pos, sl, dst, port_dur, nic_dur, hop_x, nsrc, ndst = sd
                    p = accl[pos]
                    nf = send_next[rank]
                    start = p if p > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    pe = end
                    nf = nic_tx_next[nsrc]
                    s = start if start > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_tx_next[nsrc] = e
                    prev = s
                    pe = e
                    nf = nic_rx_next[ndst]
                    s = prev if prev > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_rx_next[ndst] = e
                    prev = s
                    pe = e
                    nf = recv_next[dst]
                    s = prev if prev > nf else nf
                    e = s + port_dur
                    if e < pe:
                        e = pe
                    recv_next[dst] = e
                    arrival = e + hop_x
                elif kind == 3:  # cross-group: + adaptive shared-link lanes
                    (_, pos, sl, dst, port_dur, nic_dur, link_dur, hop_x,
                     nsrc, ndst, lmode, lspec) = sd
                    p = accl[pos]
                    nf = send_next[rank]
                    start = p if p > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    pe = end
                    nf = nic_tx_next[nsrc]
                    s = start if start > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_tx_next[nsrc] = e
                    prev = s
                    pe = e
                    if lmode == 1:
                        # Adaptive 2-lane pair: least-loaded lane, first
                        # minimal on ties (same tie-break as Fabric.transmit),
                        # claim inlined.
                        a, b = lspec
                        ln = a if lane_next[a] <= lane_next[b] else b
                        nf = lane_next[ln]
                        s = prev if prev > nf else nf
                        e = s + link_dur
                        if e < pe:
                            e = pe
                        lane_next[ln] = e
                        prev = s
                        pe = e
                    else:
                        if lmode == 0:
                            lanes = lspec
                        elif lmode == 2:
                            lanes = (min(lspec, key=lane_next.__getitem__),)
                        else:
                            lanes = [min(g, key=lane_next.__getitem__)
                                     for g in lspec]
                        for ln in lanes:
                            nf = lane_next[ln]
                            s = prev if prev > nf else nf
                            e = s + link_dur
                            if e < pe:
                                e = pe
                            lane_next[ln] = e
                            prev = s
                            pe = e
                    nf = nic_rx_next[ndst]
                    s = prev if prev > nf else nf
                    e = s + nic_dur
                    if e < pe:
                        e = pe
                    nic_rx_next[ndst] = e
                    prev = s
                    pe = e
                    nf = recv_next[dst]
                    s = prev if prev > nf else nf
                    e = s + port_dur
                    if e < pe:
                        e = pe
                    recv_next[dst] = e
                    arrival = e + hop_x
                elif kind == 1:  # same-node: send port -> recv port
                    _, pos, sl, dst, port_dur, hop_x = sd
                    p = accl[pos]
                    nf = send_next[rank]
                    start = p if p > nf else nf
                    end = start + port_dur
                    send_next[rank] = end
                    if end > lat:
                        lat = end
                    nf = recv_next[dst]
                    s = start if start > nf else nf
                    e = s + port_dur
                    if e < end:
                        e = end
                    recv_next[dst] = e
                    arrival = e + hop_x
                else:  # kind == 0: self-send completes at post + memcpy
                    _, pos, sl, dur = sd
                    dst = rank
                    arrival = accl[pos] + dur
                    if arrival > lat:
                        lat = arrival
                if sl >= 0:
                    st = state[sl]
                    if st == 0:
                        aval[sl] = arrival
                        state[sl] = 2
                    elif st == 4:  # owner blocked in its waitall
                        pr = post_rt[sl]
                        c2 = arrival if arrival > pr else pr
                        if c2 > wait_latest[dst]:
                            wait_latest[dst] = c2
                        rem = wait_remaining[dst] - 1
                        wait_remaining[dst] = rem
                        state[sl] = 3
                        if not rem:
                            seq += 1
                            heappush(heap, (wait_latest[dst], seq, dst))
                    else:  # st == 1: posted by this rank, still running
                        pr = post_rt[sl]
                        aval[sl] = arrival if arrival > pr else pr
                        state[sl] = 5
            if ends_wait:
                latest = now if now > lat else lat
                remaining = 0
                for pos, sl in recvs:
                    st = state[sl]
                    if st == 5:  # determined while running: fold and consume
                        c2 = aval[sl]
                        if c2 > latest:
                            latest = c2
                        state[sl] = 3
                    elif st == 1:
                        state[sl] = 4
                        remaining += 1
                seg_idx[rank] = i
                rank_now[rank] = now
                if remaining:
                    wait_remaining[rank] = remaining
                    wait_latest[rank] = latest
                else:
                    # Engine parity: an all-determined waitall still costs
                    # one scheduled wake (and one sequence number).
                    seq += 1
                    heappush(heap, (latest, seq, rank))
                break

    if len(finished) != n:
        raise DeadlockError(
            f"simulation deadlocked; blocked processes: {_blocked_detail()}"
        )
    simulated = max(finished.values(), default=0.0)
    return FastRunOutcome(
        simulated, finished, plan.messages, plan.bytes_total, events,
    )


def execute_schedule(
    schedule: "Schedule",
    machine: "Machine",
    *,
    max_sim_time: float | None = None,
    max_events: int | None = None,
) -> FastRunOutcome | None:
    """Replay ``schedule`` on ``machine``; bit-identical to the engine.

    Returns ``None`` when a receive has no matching send: that run
    deadlocks, and the caller runs the :class:`~repro.sim.engine.Engine`,
    which reports the exact blocked state.  Otherwise raises the engine's
    own :class:`SimTimeoutError`/:class:`DeadlockError` with matching
    boundary semantics and deterministic blocked-rank detail.
    """
    if machine.params.jitter > 0:
        raise ValueError("fast path requires a jitter-free machine (use the engine)")
    if max_sim_time is not None and max_sim_time <= 0:
        raise ValueError(f"max_sim_time must be > 0, got {max_sim_time}")
    if max_events is not None and max_events <= 0:
        raise ValueError(f"max_events must be > 0, got {max_events}")
    plan = multi_plan_for(schedule, machine)
    if plan is None:
        return None
    return _execute_multi(plan, max_sim_time, max_events)
