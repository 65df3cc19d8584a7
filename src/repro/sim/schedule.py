"""Static communication schedules: the hybrid fast path's input.

A :class:`Schedule` is a rank-by-rank, stage-by-stage transcript of every
operation a collective's simulator programs would perform — memcpy charges,
non-blocking sends/receives, and waitall boundaries — derived purely from an
algorithm's setup-time plan (the shared stage plans), never from running the
generators.  Because the three allgather algorithms are data-driven (their
programs interpret a plan built in ``setup()``), the schedule carries exactly
the information the discrete-event engine would discover lazily, which lets
:mod:`repro.sim.fastpath` replay the run without generator resumes, request
objects, or matching-table bookkeeping while staying bit-identical.

Ops are plain tuples (the fast path compiles them to priced opcodes):

* ``("charge", nbytes)`` — advance the local clock by a memcpy.
* ``("send", dst, nbytes, tag)`` — post a non-blocking send.
* ``("recv", src, tag)`` — post a non-blocking receive.
* ``("wait",)`` — waitall over every request posted since the last wait.

Op order must mirror the generator's call order exactly (post order is what
determines resource-claim order and therefore timing).  A rank whose program
would return ``None`` (nothing to do) gets ``None`` instead of an op list —
the engine never spawns such ranks, and event sequence parity depends on
reproducing that.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass


@dataclass
class Schedule:
    """Per-rank op lists plus the result-buffer contents they imply.

    ``ops[r]`` is rank ``r``'s operation list (``None`` when the rank's
    program would be ``None`` — no events, no engine sequence number);
    ``deliveries[r]`` lists the source ranks whose block lands in rank
    ``r``'s receive buffer (``results[r][src] = payloads[src]``), which is
    plan-determined and therefore needs no payload objects in flight.
    """

    n_ranks: int
    ops: list[list[tuple] | None]
    deliveries: list[list[int]]

    def __post_init__(self) -> None:
        if len(self.ops) != self.n_ranks or len(self.deliveries) != self.n_ranks:
            raise ValueError(
                f"schedule arity mismatch: {self.n_ranks} ranks, "
                f"{len(self.ops)} op lists, {len(self.deliveries)} delivery lists"
            )

    def total_sends(self) -> int:
        return sum(
            1 for ops in self.ops if ops for op in ops if op[0] == "send"
        )


def structural_digest(schedule: Schedule) -> str:
    """Content digest of a schedule's op structure (cached on the object).

    Two schedules with equal digests compile to identical fast-path plans on
    the same machine: the digest covers the rank count and every rank's op
    stream (kinds, endpoints, byte counts, tags, ``None`` ranks) — exactly
    the compiler's inputs.  ``deliveries`` is excluded on purpose: it names
    result-buffer contents, which no plan depends on.  This is the
    schedule half of the compiled-plan cache key (the machine half is
    :attr:`repro.cluster.machine.Machine.digest`), realizing the
    isomorphic-neighborhood observation: sweep cells whose schedules are
    structurally identical share one compilation.

    The op lists (plain ints and strings) are hashed through ``marshal``
    format 2: a decodable, hence injective, binary encoding that is a
    function of the values alone (formats 3+ add back-references that
    depend on object identity and reference counts).
    """
    digest = getattr(schedule, "_structural_digest", None)
    if digest is None:
        h = hashlib.blake2b(digest_size=16)
        h.update(str(schedule.n_ranks).encode())
        h.update(marshal.dumps(schedule.ops, 2))
        digest = schedule._structural_digest = h.hexdigest()
    return digest


def spawn_wake_order(schedule: Schedule) -> tuple[int, ...]:
    """The engine's deterministic stage-0 wake order, derived statically.

    ``Engine.spawn_all`` walks ranks in order and schedules one t=0 event
    (with the next sequence number) per rank whose program is not ``None``;
    the heap therefore pops stage 0 in exactly this rank order.  Every
    later wake order follows from the seq discipline — each waitall wake is
    pushed with a monotonically increasing sequence number at the moment
    its last pending receive is determined — which the fast path's
    executors reproduce (see :mod:`repro.sim.fastpath`).
    """
    return tuple(
        rank for rank, ops in enumerate(schedule.ops) if ops is not None
    )


def static_matching(schedule: Schedule):
    """Cross-stage FIFO send/receive matching, resolved at compile time.

    Engine matching is FIFO per ``(dst, src, tag)`` key on both sides:
    posted receives and delivered sends each form a per-key queue, so the
    k-th posted receive of a key always pairs with the k-th delivered send
    of that key regardless of how posts and deliveries interleave.  Both
    per-key orders are static — a key's sends all originate from one rank
    and ranks execute their segments in program order — so the pairing is
    a compile-time function of the schedule alone, valid across stage
    boundaries.

    Returns ``(send_slots, n_slots, fully_matched)``: receives are numbered
    ("slots") in rank-major program order, ``send_slots[i]`` is the slot
    matched by the i-th send in the same enumeration order (``-1`` when no
    receive ever matches it — the engine parks such messages in the
    unexpected table forever, with no timing effect), and ``fully_matched``
    is False when some receive has no matching send (the run deadlocks;
    the fast path declines it and the engine reports the deadlock).
    """
    # Per-key FIFO queues of receive slots as linked lists over the slot
    # numbers: ``head[key]`` is the key's oldest unmatched slot (-1 once
    # drained), ``nxt[slot]`` the key's next slot.  Plain ints, no
    # per-key container objects.
    head: dict[tuple, int] = {}
    tail: dict[tuple, int] = {}
    nxt: list[int] = []
    n_slots = 0
    for rank, ops in enumerate(schedule.ops):
        if not ops:
            continue
        for op in ops:
            if op[0] == "recv":
                key = (rank, op[1], op[2])
                last = tail.get(key)
                if last is None:
                    head[key] = n_slots
                else:
                    nxt[last] = n_slots
                tail[key] = n_slots
                nxt.append(-1)
                n_slots += 1
    send_slots: list[int] = []
    for rank, ops in enumerate(schedule.ops):
        if not ops:
            continue
        for op in ops:
            if op[0] == "send":
                key = (op[1], rank, op[3])
                slot = head.get(key, -1)
                if slot >= 0:
                    head[key] = nxt[slot]
                send_slots.append(slot)
    fully_matched = all(slot < 0 for slot in head.values())
    return send_slots, n_slots, fully_matched
