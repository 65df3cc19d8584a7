"""Engine-free schedule execution: the hybrid fast path.

:func:`execute_schedule` replays a static :class:`~repro.sim.schedule.Schedule`
with exactly the discrete-event engine's semantics — same event heap ordering
``(time, seq, rank)``, same sequence-number allocation, same FIFO matching,
same resource-claim arithmetic (priced from the same per-socket-pair
constants as :class:`~repro.sim.fabric.Fabric`, via
:meth:`~repro.cluster.machine.Machine.pair_costs`) — but without generator
resumes, :class:`~repro.sim.request.Request` objects, or per-message method
dispatch.  The result is bit-identical to the engine for every pristine run
(no faults, no jitter, no tracing): ``sim_mode="auto"`` is a pure speedup.

A compiled plan comes in two halves, because everything about a schedule
except its durations is independent of the message size:

* **Structure** (:class:`_PlanStructure`), built once per (schedule,
  machine): the static send/receive matching, the wake order, the
  wait-delimited segment layout, and per send its kind, endpoints, NIC and
  lane ids and *cohort* — the ``(socket pair, block count)`` class that
  fixes its price.  Uniform-size schedules are written in block units
  (:meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.schedule_for`
  builds them at ``msg_size=1``), so one structure serves a whole
  message-size sweep.
* **Pricing** (:func:`_price`), once per block size: the cohorts' byte
  counts are scaled by the block size and priced in one numpy pass
  (``m/beta``, ``alpha + m/beta``, NIC/link costs — elementwise IEEE ops
  identical to the scalar fabric arithmetic), and the priced
  :class:`_MultiStagePlan` the executor consumes is emitted from the
  structure's templates.

The replay loop then runs over pre-priced send tuples with *scalar claim
recurrences, on purpose*: a resource's claim sequence ``end_i = max(post_i,
end_{i-1}) + dur_i`` is not reformulated as a cumulative sum, because
floating-point addition is non-associative and any prefix-sum regrouping
would break bit-identity with the engine.  Claims stay in event order over
plain float state.

There is one executor, the heap-driven :func:`_execute_multi`, for every
schedule whose receives all have a matching send (single- and multi-stage,
budgeted or not).  A schedule with an unmatched receive deadlocks;
:func:`execute_schedule` returns ``None`` for it and the caller runs the
engine, which reports the exact blocked state.  Structures and priced plans
are memoized across runs in the structural plan cache
(:mod:`repro.sim.plancache`).

Watchdog budgets (``max_sim_time``/``max_events``) are honored with the
engine's exact boundary semantics: an event with timestamp equal to
``max_sim_time`` is processed (strictly-greater trips the budget), and
processing exactly ``max_events`` events is allowed (the attempt to process
one more trips it).  Event counting is identical — one event per heap pop —
so a budgeted run trips on the same event in both paths.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.engine import DeadlockError, SimTimeoutError
from repro.sim.plancache import _MISS, PLAN_CACHE
from repro.sim.schedule import spawn_wake_order, static_matching, structural_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.hockney import HockneyParameters
    from repro.cluster.machine import Machine
    from repro.sim.schedule import Schedule


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


#: Below this many ops a segment's clock is evolved by a scalar Python loop:
#: one ``np.add.accumulate`` call costs more than ~two dozen float adds, and
#: both forms are bit-identical (accumulate is a strict left-to-right fold).
_VEC_MIN_OPS = 24

_SELF = -1  #: cohort socket-pair key of a self-send (priced as a memcpy)


class _PlanStructure:
    """The size-free half of a compiled plan (see the module docstring).

    ``rank_segs[r]`` is ``None`` (no program) or a tuple of segment
    templates ``(delta_idx, heads, sends, recvs, ends_with_wait)``:

    * ``delta_idx`` indexes the priced clock-delta table — 0 is the call
      overhead every send/receive costs, ``1 + j`` the memcpy of charge
      cohort ``j`` (block count ``charge_units[j]``).  Thin segments hold a
      tuple; fat ones (``>= _VEC_MIN_OPS`` ops) an index array with a
      leading scratch slot, so pricing is one fancy-index;
    * ``heads`` holds each send's executor tuple up to its durations —
      ``(0, pos, slot)`` for a self-send, ``(kind, pos, slot, dst)``
      otherwise — and ``sends`` the matching cohort indices into the
      ``cohort_*`` columns, which carry everything after the head;
    * ``recvs`` is final: ``(pos, slot)`` pairs.
    """

    __slots__ = (
        "n_ranks", "rank_segs", "wake_order", "n_slots", "n_lanes",
        "n_nodes", "messages", "units", "charge_units", "cohort_units",
        "cohort_alpha", "cohort_inv_beta", "cohort_link_inv_beta",
        "cohort_static",
    )


def _build_structure(schedule: "Schedule", machine: "Machine"):
    """Build a :class:`_PlanStructure`, or ``None`` when a receive has no
    matching send (the run deadlocks; the engine reports it exactly)."""
    send_slots, n_slots, fully_matched = static_matching(schedule)
    if not fully_matched:
        return None
    spec = machine.spec
    rps = spec.ranks_per_socket
    n_sockets = spec.n_sockets

    lane_index: dict = {}

    def _lane(k):
        i = lane_index.get(k)
        if i is None:
            lane_index[k] = i = len(lane_index)
        return i

    # Per socket pair: (kind, alpha, inv_beta, link_inv_beta, static tail).
    pairs: dict[int, tuple] = {_SELF: (0, 0.0, 0.0, 0.0, ())}

    def _pair(rank, dst, key):
        (_, alpha, hop_x, inv_beta, link_inv_beta,
         nsrc, ndst, gkeys, fkeys) = machine.pair_costs(rank, dst)
        if nsrc < 0:
            kind, tail = 1, (hop_x,)
        elif gkeys is None and not fkeys:
            kind, tail = 2, (hop_x, nsrc, ndst)
        else:
            # Pre-classify the lane choice as (lmode, lspec): 0 oblivious
            # lane set, 1 the adaptive 2-lane pair (the Dragonfly+ default,
            # inlined at runtime), 2 one adaptive group, 3 per-hop groups.
            if gkeys is None:
                shape = (0, tuple(_lane(k) for k in fkeys))
            else:
                groups = tuple(tuple(_lane(k) for k in g) for g in gkeys)
                if len(groups) == 1:
                    g = groups[0]
                    shape = (1, g) if len(g) == 2 else (2, g)
                else:
                    shape = (3, groups)
            kind, tail = 3, (hop_x, nsrc, ndst) + shape
        pairs[key] = pair = (kind, alpha, inv_beta, link_inv_beta, tail)
        return pair

    charge_index: dict[int, int] = {}   # block count -> delta-table index
    cohorts: dict[tuple[int, int], tuple[int, int]] = {}  # -> (kind, cohort)
    cohort_units: list[int] = []
    cohort_pairs: list[tuple] = []

    def _segment(didx, heads, sends, recvs, ends_with_wait):
        if len(didx) >= _VEC_MIN_OPS:
            didx = np.asarray([0] + didx, dtype=np.intp)
        else:
            didx = tuple(didx)
        return (didx, tuple(heads), tuple(sends), tuple(recvs), ends_with_wait)

    next_slot = iter(send_slots).__next__  # rank-major send order
    rank_segs: list[tuple | None] = []
    ri = 0  # global receive slot — rank-major program order, = static_matching's
    units = 0
    for rank, ops in enumerate(schedule.ops):
        if ops is None:
            rank_segs.append(None)
            continue
        src_base = (rank // rps) * n_sockets
        segs: list[tuple] = []
        didx: list[int] = []
        heads: list[tuple] = []
        sends: list[int] = []
        recvs: list[tuple] = []
        for op in ops:
            kind = op[0]
            if kind == "wait":
                segs.append(_segment(didx, heads, sends, recvs, True))
                didx, heads, sends, recvs = [], [], [], []
            elif kind == "charge":
                d = charge_index.get(op[1])
                if d is None:
                    d = charge_index[op[1]] = len(charge_index) + 1
                didx.append(d)
            elif kind == "recv":
                didx.append(0)
                recvs.append((len(didx), ri))
                ri += 1
            else:  # send
                didx.append(0)
                dst, count = op[1], op[2]
                units += count
                key = _SELF if dst == rank else src_base + dst // rps
                kc = cohorts.get((key, count))
                if kc is None:
                    pair = pairs.get(key) or _pair(rank, dst, key)
                    kc = cohorts[(key, count)] = (pair[0], len(cohort_units))
                    cohort_units.append(count)
                    cohort_pairs.append(pair)
                kind, c = kc
                heads.append((kind, len(didx), next_slot(), dst) if kind
                             else (0, len(didx), next_slot()))
                sends.append(c)
        if didx or not segs:
            segs.append(_segment(didx, heads, sends, recvs, False))
        rank_segs.append(tuple(segs))

    st = _PlanStructure()
    st.n_ranks = schedule.n_ranks
    st.rank_segs = rank_segs
    st.wake_order = spawn_wake_order(schedule)
    st.n_slots = n_slots
    st.n_lanes = len(lane_index)
    st.n_nodes = spec.nodes
    st.messages = len(send_slots)
    st.units = units
    st.charge_units = list(charge_index)  # insertion order = index - 1
    st.cohort_units = cohort_units
    st.cohort_alpha = np.asarray([p[1] for p in cohort_pairs], dtype=np.float64)
    st.cohort_inv_beta = np.asarray([p[2] for p in cohort_pairs], dtype=np.float64)
    st.cohort_link_inv_beta = np.asarray([p[3] for p in cohort_pairs],
                                         dtype=np.float64)
    st.cohort_static = [(p[0], p[4]) for p in cohort_pairs]
    return st


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
      precomputed at pricing time (its ``now`` is always 0.0);
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


def _price(st: _PlanStructure, block_size: int,
           params: "HockneyParameters") -> _MultiStagePlan:
    """Price a structure for one block size: a ready-to-run plan.

    Every duration is an elementwise float64 op over the cohorts' byte
    counts (``count * block_size``, exact integers), IEEE-identical to the
    fabric's scalar expressions — so the replay inherits bit-exact
    per-message costs at every size.
    """
    m = block_size
    dvals_np = np.empty(len(st.charge_units) + 1, dtype=np.float64)
    dvals_np[0] = params.call_overhead
    dvals_np[1:] = (np.asarray([u * m for u in st.charge_units], dtype=np.float64)
                    / params.memcpy_beta)
    dvals = dvals_np.tolist()
    dget = dvals.__getitem__

    nb = np.asarray([u * m for u in st.cohort_units], dtype=np.float64)
    memcpy = (nb / params.memcpy_beta).tolist()
    dur = nb * st.cohort_inv_beta
    port = (st.cohort_alpha + dur).tolist()
    nic = (params.nic_message_overhead + dur).tolist()
    link = (params.link_message_overhead + nb * st.cohort_link_inv_beta).tolist()
    tails = []
    for i, (kind, tail) in enumerate(st.cohort_static):
        if kind == 0:
            tails.append((memcpy[i],))
        elif kind == 1:
            tails.append((port[i],) + tail)
        elif kind == 2:
            tails.append((port[i], nic[i]) + tail)
        else:
            tails.append((port[i], nic[i], link[i]) + tail)

    tget = tails.__getitem__
    rank_segs: list[tuple | None] = []
    for segs in st.rank_segs:
        if segs is None:
            rank_segs.append(None)
            continue
        compiled = []
        first = True
        for didx, heads, sends, recvs, ends_wait in segs:
            priced = tuple(map(add, heads, map(tget, sends)))
            if didx.__class__ is tuple:
                deltas = tuple(map(dget, didx))
                accl0 = (list(itertools.accumulate(deltas, initial=0.0))
                         if first else None)
                compiled.append((False, deltas, accl0, priced, recvs, ends_wait))
            else:
                arr = dvals_np[didx]  # arr[0] is the executor's scratch slot
                accl0 = (list(itertools.accumulate(arr[1:].tolist(), initial=0.0))
                         if first else None)
                compiled.append((True, arr, accl0, priced, recvs, ends_wait))
            first = False
        rank_segs.append(tuple(compiled))

    plan = _MultiStagePlan()
    plan.n_ranks = st.n_ranks
    plan.rank_segs = rank_segs
    plan.wake_order = st.wake_order
    plan.n_slots = st.n_slots
    plan.n_lanes = st.n_lanes
    plan.n_nodes = st.n_nodes
    plan.messages = st.messages
    plan.bytes_total = st.units * m
    return plan


def multi_plan_for(schedule: "Schedule", machine: "Machine", block_size: int):
    """The priced plan for ``schedule`` at ``block_size``, memoized.

    Both halves live in the structural plan cache (:mod:`repro.sim.plancache`):
    the priced plan under ``(schedule digest, machine digest, block_size)``
    and, consulted only when that misses, the structure under
    ``(schedule digest, machine digest)`` — so a size sweep over one
    pattern builds one structure and prices it once per size.  Keys are
    structural, so distinct ``Schedule`` objects describing the same
    pattern share entries.  ``None`` (an unmatched receive) is cached too.
    """
    digest = structural_digest(schedule)
    mdigest = machine.digest
    key = (digest, mdigest, block_size)
    plan = PLAN_CACHE.get(key)
    if plan is _MISS:
        skey = (digest, mdigest)
        structure = PLAN_CACHE.get(skey)
        if structure is _MISS:
            structure = _build_structure(schedule, machine)
            PLAN_CACHE.put(skey, structure)
        plan = (None if structure is None
                else _price(structure, block_size, machine.params))
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
    block_size: int,
    *,
    max_sim_time: float | None = None,
    max_events: int | None = None,
) -> FastRunOutcome | None:
    """Replay ``schedule`` on ``machine``; bit-identical to the engine.

    ``block_size`` scales the schedule's byte counts: a block-unit schedule
    (see :meth:`~repro.collectives.base.NeighborhoodAllgatherAlgorithm.schedule_for`)
    runs at ``block_size=msg_size``, a schedule already in bytes (the
    allgatherv case, or a hand-built one) at 1.  The argument has no
    default, so a caller cannot price a block-unit schedule as bytes by
    leaving it out.  The outcome
    equals the engine running the schedule with every byte count multiplied
    by ``block_size``, ``bytes_sent`` included.

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
    if block_size < 0:
        raise ValueError(f"block_size must be >= 0, got {block_size}")
    plan = multi_plan_for(schedule, machine, block_size)
    if plan is None:
        return None
    return _execute_multi(plan, max_sim_time, max_events)
