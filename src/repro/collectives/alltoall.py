"""Neighborhood alltoall — the paper's stated future work (Section VIII).

``MPI_Neighbor_alltoall`` sends a *distinct* block to every outgoing
neighbor.  Two implementations:

* :class:`NaiveAlltoall` — one point-to-point message per edge (the default
  MPI behaviour, identical schedule to the naive allgather).
* :class:`DistanceHalvingAlltoall` — the paper's halving/agent machinery
  adapted to distinct blocks.  The communication pattern (agents, origins,
  duty transfers) is exactly the allgather pattern built with
  ``record_pairs=True``; the difference is payload handling: a carrier
  forwards *only the pending duty blocks* (allgather forwards its whole
  accumulated buffer because every target wants every block), so message
  sizes equal the number of moved (source, target) pairs times ``m`` and
  total moved bytes are bounded by ``levels x edges``, while the message
  *count* drops from ``degree`` to ``O(log n + L)`` per rank exactly as in
  the allgather case.

Use :func:`run_alltoall` / :func:`verify_alltoall`; payload identity is the
``(source, target)`` pair, so misrouted blocks are always caught.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.cluster.machine import Machine
from repro.collectives.distance_halving.builder import build_patterns
from repro.collectives.distance_halving.operation import FINAL_TAG
from repro.collectives.distance_halving.pattern import CommunicationPattern
from repro.sim.engine import Engine
from repro.sim.tracing import TraceCollector
from repro.topology.graph import DistGraphTopology
from repro.utils.sizes import parse_size

#: Payload factory signature: ``payload_fn(src, dst) -> Any``.
PayloadFn = Callable[[int, int], Any]
#: Per-pair block size signature: ``pair_sizes(src, dst) -> bytes``
#: (the alltoallv generalization; constant for plain alltoall).
PairSizeFn = Callable[[int, int], int]

_A2A_TAG = 0


@dataclass
class AlltoallRun:
    """Outcome of one simulated ``MPI_Neighbor_alltoall``."""

    algorithm: str
    msg_size: int
    simulated_time: float
    finish_times: dict[int, float]
    messages_sent: int
    bytes_sent: int
    results: list[dict[int, Any]] = field(repr=False, default_factory=list)
    trace: TraceCollector | None = field(repr=False, default=None)
    setup_wall_time: float = 0.0


class NaiveAlltoall:
    """Direct per-edge isend/irecv, as mainstream MPI libraries do."""

    name = "naive_alltoall"

    def setup(self, topology: DistGraphTopology, machine: Machine) -> None:
        return None

    def make_program(self, rank, topology, psize, payload_fn, results):
        out_nbrs = topology.out_neighbors(rank)
        in_nbrs = topology.in_neighbors(rank)
        if not out_nbrs and not in_nbrs:
            return lambda comm: None

        def program(comm):
            recv_reqs = [comm.irecv(src, tag=_A2A_TAG) for src in in_nbrs if src != rank]
            send_reqs = [
                comm.isend(dst, psize(rank, dst), tag=_A2A_TAG, payload=payload_fn(rank, dst))
                for dst in out_nbrs
                if dst != rank
            ]
            if rank in out_nbrs:
                comm.charge_memcpy(psize(rank, rank))
                results[rank][rank] = payload_fn(rank, rank)
            if recv_reqs or send_reqs:
                yield comm.waitall(recv_reqs + send_reqs)
            for req in recv_reqs:
                results[rank][req.source] = req.payload

        return program


class DistanceHalvingAlltoall:
    """Distance-halving alltoall: same agents, distinct per-target blocks."""

    name = "distance_halving_alltoall"

    def __init__(self, selection: str = "greedy", stop_ranks: int | None = None) -> None:
        self.selection = selection
        self.stop_ranks = stop_ranks
        self.pattern: CommunicationPattern | None = None
        # The (topology, machine) the pattern was built for, held strongly
        # and compared by identity, so a recycled id() can never alias them.
        self._key: tuple[DistGraphTopology, Machine] | None = None

    def setup(self, topology: DistGraphTopology, machine: Machine) -> None:
        key = self._key
        if (
            key is not None
            and key[0] is topology
            and key[1] is machine
            and self.pattern is not None
        ):
            return
        self.pattern = build_patterns(
            topology,
            machine,
            selection=self.selection,
            stop_ranks=self.stop_ranks,
            record_pairs=True,
        )
        self._key = (topology, machine)

    def make_program(self, rank, topology, psize, payload_fn, results):
        assert self.pattern is not None
        rp = self.pattern[rank]
        my_results = results[rank]

        def pairs_bytes(pairs) -> int:
            return sum(psize(src, tgt) for src, tgt in pairs)

        def program(comm) -> Generator:
            # Pending duty blocks this rank still carries: (src, tgt) -> payload.
            store: dict[tuple[int, int], Any] = {
                (rank, v): payload_fn(rank, v)
                for v in topology.out_neighbors(rank)
                if v != rank
            }
            comm.charge_memcpy(pairs_bytes(store))  # stage sbuf blocks
            if rp.self_copy:
                comm.charge_memcpy(psize(rank, rank))
                my_results[rank] = payload_fn(rank, rank)

            for step in rp.steps:
                reqs = []
                rreq = None
                if step.agent is not None:
                    pairs = step.send_pairs or ()
                    out_payload = tuple((pair, store.pop(pair)) for pair in pairs)
                    reqs.append(
                        comm.isend(
                            step.agent, pairs_bytes(pairs), tag=step.index,
                            payload=out_payload,
                        )
                    )
                if step.origin is not None:
                    rreq = comm.irecv(step.origin, tag=step.index)
                    reqs.append(rreq)
                if not reqs:
                    continue
                yield comm.waitall(reqs)

                if rreq is not None:
                    expected = pairs_bytes(step.recv_pairs or ())
                    if rreq.nbytes != expected:
                        raise AssertionError(
                            f"rank {rank} step {step.index}: got {rreq.nbytes} bytes, "
                            f"expected {expected}"
                        )
                    comm.charge_memcpy(rreq.nbytes)
                    for (src, tgt), pay in rreq.payload:
                        if tgt == rank:
                            my_results[src] = pay
                        else:
                            store[(src, tgt)] = pay

            # Final phase: pending duties, one combined message per target.
            if not rp.final_sends and not rp.final_recvs:
                if store:
                    raise AssertionError(f"rank {rank}: undelivered duties {list(store)[:5]}")
                return
            send_reqs = []
            for fs in rp.final_sends:
                nbytes = pairs_bytes((src, fs.target) for src in fs.blocks)
                comm.charge_memcpy(nbytes)
                out_payload = tuple(
                    ((src, fs.target), store.pop((src, fs.target))) for src in fs.blocks
                )
                send_reqs.append(
                    comm.isend(fs.target, nbytes, tag=FINAL_TAG, payload=out_payload)
                )
            recv_reqs = [comm.irecv(fr.sender, tag=FINAL_TAG) for fr in rp.final_recvs]
            if store:
                raise AssertionError(f"rank {rank}: undelivered duties {list(store)[:5]}")
            yield comm.waitall(send_reqs + recv_reqs)
            for fr, rq in zip(rp.final_recvs, recv_reqs):
                comm.charge_memcpy(rq.nbytes)
                for (src, tgt), pay in rq.payload:
                    if tgt != rank:
                        raise AssertionError(
                            f"rank {rank}: received block destined to {tgt}"
                        )
                    my_results[src] = pay

        return program


class CommonNeighborAlltoall:
    """Common Neighbor message combining adapted to distinct blocks.

    The group/assignee structure is exactly the allgather plan; the only
    change is payload routing: in phase 1 a member ships the assignee the
    *distinct* blocks of the targets it covers (message size scales with
    the number of covered targets), and phase 2 combines per-target blocks
    from all group members into one message as before.
    """

    name = "common_neighbor_alltoall"

    def __init__(self, k: int = 4) -> None:
        from repro.collectives.common_neighbor import CommonNeighborAllgather

        self._inner = CommonNeighborAllgather(k=k)
        self.k = k
        #: (g -> a) phase-1 pair -> targets whose (g, target) block moves.
        self._pair_targets: dict[tuple[int, int], tuple[int, ...]] | None = None

    def setup(self, topology: DistGraphTopology, machine: Machine) -> None:
        self._inner.setup(topology, machine)
        plans = self._inner.plans
        assert plans is not None
        pair_targets: dict[tuple[int, int], tuple[int, ...]] = {}
        for g, plan in enumerate(plans):
            for a in plan.phase1_sends:
                targets = [
                    v for v, blocks in plans[a].phase2_sends if g in blocks
                ]
                if g in plans[a].phase1_for_me:
                    targets.append(a)  # the assignee is itself a target of g
                pair_targets[(g, a)] = tuple(sorted(targets))
        self._pair_targets = pair_targets

    def make_program(self, rank, topology, psize, payload_fn, results):
        assert self._inner.plans is not None and self._pair_targets is not None
        plan = self._inner.plans[rank]
        pair_targets = self._pair_targets
        my_results = results[rank]

        def program(comm) -> Generator:
            if plan.self_copy:
                comm.charge_memcpy(psize(rank, rank))
                my_results[rank] = payload_fn(rank, rank)

            # Phase 1: ship each assignee the distinct blocks it covers.
            p1_recv = [comm.irecv(src, tag=1) for src in plan.phase1_recvs]
            p1_send = []
            for a in plan.phase1_sends:
                targets = pair_targets[(rank, a)]
                out = tuple(((rank, v), payload_fn(rank, v)) for v in targets)
                nbytes = sum(psize(rank, v) for v in targets)
                comm.charge_memcpy(nbytes)
                p1_send.append(comm.isend(a, nbytes, tag=1, payload=out))
            if p1_recv or p1_send:
                yield comm.waitall(p1_recv + p1_send)

            store: dict[tuple[int, int], Any] = {}
            for req in p1_recv:
                comm.charge_memcpy(req.nbytes)
                for (src, tgt), pay in req.payload:
                    if tgt == rank:
                        my_results[src] = pay
                    else:
                        store[(src, tgt)] = pay

            # Phase 2: combined per-target messages.
            p2_send = []
            for target, blocks in plan.phase2_sends:
                out = []
                for src in blocks:
                    if src == rank:
                        out.append(((rank, target), payload_fn(rank, target)))
                    else:
                        out.append(((src, target), store.pop((src, target))))
                nbytes = sum(psize(src, target) for src in blocks)
                comm.charge_memcpy(nbytes)
                p2_send.append(comm.isend(target, nbytes, tag=2, payload=tuple(out)))
            p2_recv = [comm.irecv(sender, tag=2) for sender, _ in plan.phase2_recvs]
            if p2_send or p2_recv:
                yield comm.waitall(p2_send + p2_recv)
            if store:
                raise AssertionError(f"rank {rank}: unforwarded blocks {list(store)[:5]}")
            for req in p2_recv:
                comm.charge_memcpy(req.nbytes)
                for (src, tgt), pay in req.payload:
                    if tgt != rank:
                        raise AssertionError(f"rank {rank}: got block for {tgt}")
                    my_results[src] = pay

        return program


_ALLTOALL = {
    "naive_alltoall": NaiveAlltoall,
    "common_neighbor_alltoall": CommonNeighborAlltoall,
    "distance_halving_alltoall": DistanceHalvingAlltoall,
}


def alltoall_algorithms() -> tuple[str, ...]:
    return tuple(sorted(_ALLTOALL))


def run_alltoall(
    algorithm: str | NaiveAlltoall | CommonNeighborAlltoall | DistanceHalvingAlltoall,
    topology: DistGraphTopology,
    machine: Machine,
    msg_size: int | str,
    *,
    payload_fn: PayloadFn | None = None,
    pair_sizes: PairSizeFn | None = None,
    trace: bool = False,
    **algorithm_kwargs,
) -> AlltoallRun:
    """Simulate one neighborhood alltoall; see :func:`run_allgather` for the
    parameter conventions.  ``payload_fn(src, dst)`` defaults to the
    ``(src, dst)`` tuple so delivery is identity-checkable.

    ``pair_sizes(src, dst)`` selects alltoallv semantics — a distinct byte
    count per (source, target) pair; ``msg_size`` then only seeds the
    reported default.  All implementations handle variable pair sizes
    natively (byte arithmetic is per pair throughout).
    """
    if isinstance(algorithm, str):
        try:
            algorithm = _ALLTOALL[algorithm](**algorithm_kwargs)
        except KeyError:
            raise KeyError(
                f"unknown alltoall algorithm {algorithm!r}; available: {alltoall_algorithms()}"
            ) from None
    elif algorithm_kwargs:
        raise ValueError("algorithm_kwargs only apply when algorithm is a name")
    msg_size = parse_size(msg_size)
    if payload_fn is None:
        payload_fn = lambda src, dst: (src, dst)  # noqa: E731
    psize: PairSizeFn = pair_sizes if pair_sizes is not None else (lambda u, v: msg_size)

    wall = time.perf_counter()
    algorithm.setup(topology, machine)
    setup_wall = time.perf_counter() - wall

    results: list[dict[int, Any]] = [{} for _ in range(topology.n)]
    collector = TraceCollector(keep_records=trace) if trace else None
    engine = Engine(n_ranks=topology.n, machine=machine, trace=collector)
    for rank in range(topology.n):
        engine.spawn(
            rank, algorithm.make_program(rank, topology, psize, payload_fn, results)
        )
    simulated = engine.run()
    return AlltoallRun(
        algorithm=algorithm.name,
        msg_size=msg_size,
        simulated_time=simulated,
        finish_times=engine.finish_times(),
        messages_sent=engine.messages_sent,
        bytes_sent=engine.bytes_sent,
        results=results,
        trace=collector,
        setup_wall_time=setup_wall,
    )


def verify_alltoall(
    topology: DistGraphTopology, run: AlltoallRun, payload_fn: PayloadFn | None = None
) -> None:
    """Assert the alltoall post-condition: rank ``v`` received exactly block
    ``payload_fn(u, v)`` from every incoming neighbor ``u``."""
    if payload_fn is None:
        payload_fn = lambda src, dst: (src, dst)  # noqa: E731
    for v in range(topology.n):
        expected = set(topology.in_neighbors(v))
        got = set(run.results[v])
        if expected != got:
            raise AssertionError(
                f"[{run.algorithm}] rank {v}: missing={sorted(expected - got)}, "
                f"extra={sorted(got - expected)}"
            )
        for u in expected:
            if run.results[v][u] != payload_fn(u, v):
                raise AssertionError(
                    f"[{run.algorithm}] rank {v}: block from {u} is "
                    f"{run.results[v][u]!r}, expected {payload_fn(u, v)!r}"
                )
