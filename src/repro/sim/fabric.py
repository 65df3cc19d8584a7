"""Message transit-time computation over the machine model.

A message from ``src`` to ``dst`` flows through a pipeline of serialized
resources:

    send port -> [node TX NIC] -> [shared bottleneck links...] -> [node RX NIC] -> recv port

Each stage is exclusively occupied for the message's serialization time on
that stage (cut-through: a stage may start as soon as the previous stage
started, but stages never finish before their upstream).  The message
arrives at the receiver at the pipeline's end plus the path startup latency.
Uncontended, this reduces exactly to Hockney's ``alpha + m/beta``; under
load, queueing at ports/NICs/global links produces the serialization and
congestion effects the paper's Section IV describes.

Hot-path design: everything about a message's pipeline except its byte count
and the adaptive lane choice is determined by the (socket, socket) pair, so
:class:`Fabric` caches one :class:`_StagePlan` per socket pair — resolved
resource objects, link class, alpha, inverse betas — and every transmission
runs one branch-light, allocation-free claim sequence (:meth:`Fabric._claim`)
against it.  The cost half of each plan is the machine's own memo
(:meth:`~repro.cluster.machine.Machine.pair_costs`), shared with the
schedule fast path.  This is what keeps paper-scale sweeps (millions of
messages) feasible in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.spec import LinkClass
from repro.sim.resources import ResourcePool, SerialResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultInjector


@dataclass(slots=True)
class MessageTiming:
    """Timing of one message: when the sender's port frees, when data lands.

    ``arrival`` is ``math.inf`` for a message permanently lost under a fault
    plan (retry budget exhausted); ``attempts`` counts transmissions
    including the successful (or final dropped) one.
    """

    send_complete: float
    arrival: float
    link_class: LinkClass
    attempts: int = 1

    @property
    def lost(self) -> bool:
        return self.arrival == math.inf


def _next_free(res: SerialResource) -> float:
    """Adaptive-routing sort key (module-level: no per-call closure)."""
    return res.next_free


class _StagePlan:
    """Everything fixed about a (socket, socket) pair's message pipeline.

    ``link_groups`` is non-None for adaptive routing (one tuple of
    interchangeable lane resources per bottleneck crossed); ``fixed_links``
    is the oblivious (hash-routed) lane set.  Both are empty/None for paths
    that cross no shared bottleneck.  ``nic_tx``/``nic_rx`` are None for
    intra-node classes.
    """

    __slots__ = (
        "link_class",
        "alpha",
        "hop_extra",
        "inv_beta",
        "nic_tx",
        "nic_rx",
        "fixed_links",
        "link_groups",
        "link_inv_beta",
    )

    def __init__(self, link_class, alpha, hop_extra, inv_beta, nic_tx, nic_rx,
                 fixed_links, link_groups, link_inv_beta):
        self.link_class = link_class
        self.alpha = alpha
        self.hop_extra = hop_extra
        self.inv_beta = inv_beta
        self.nic_tx = nic_tx
        self.nic_rx = nic_rx
        self.fixed_links = fixed_links
        self.link_groups = link_groups
        self.link_inv_beta = link_inv_beta


class Fabric:
    """Prices and schedules every message of a simulation run.

    ``noise_seed`` drives the optional latency jitter
    (:attr:`HockneyParameters.jitter`); with jitter 0 it is unused and the
    fabric is exactly deterministic.

    ``faults`` installs a :class:`~repro.sim.faults.FaultInjector`: every
    transmission is routed through :meth:`_transmit_faulty` (perturbed
    costs, probabilistic drop, timeout/backoff retransmission) instead of
    the pristine path.  Both end in the same claim sequence,
    :meth:`_claim`.
    """

    def __init__(
        self,
        machine: Machine,
        noise_seed: int = 0,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.machine = machine
        params = machine.params
        self._jitter = params.jitter
        self._noise = np.random.default_rng(noise_seed) if self._jitter > 0 else None
        #: Fault injector (None = pristine fabric; the fast path is untouched).
        self._faults = faults
        self._send_ports = ResourcePool()
        self._recv_ports = ResourcePool()
        self._nic_tx = ResourcePool()
        self._nic_rx = ResourcePool()
        self._links = ResourcePool()

        spec = machine.spec
        self._ranks_per_socket = spec.ranks_per_socket
        self._n_sockets = spec.n_sockets
        self._memcpy_beta = params.memcpy_beta
        self._nic_overhead = params.nic_message_overhead
        self._link_overhead = params.link_message_overhead
        # Per-(socket, socket) pipeline plans, keyed by the flat socket-pair
        # index; rank-pair space can be huge, the socket pair fully
        # determines every per-message cost and resource except byte count.
        # Resource objects are per-Fabric; the cost half of each plan comes
        # from the machine's own memo (``Machine.pair_costs``).
        self._plans: dict[int, _StagePlan] = {}
        # Lazy per-rank port caches (list index beats dict hashing; the pool
        # stays authoritative so utilization() reports only touched ports).
        self._send_fast: list[SerialResource | None] = [None] * spec.n_ranks
        self._recv_fast: list[SerialResource | None] = [None] * spec.n_ranks

    # ----------------------------------------------------------------- plans
    def _build_plan(self, src: int, dst: int) -> _StagePlan:
        """Resolve the full pipeline for ``src``'s and ``dst``'s socket pair."""
        (cls, alpha, hop_extra, inv_beta, link_inv_beta,
         node_src, node_dst, group_keys, fixed_keys) = self.machine.pair_costs(src, dst)

        nic_tx = nic_rx = None
        fixed_links: tuple[SerialResource, ...] = ()
        link_groups = None
        if node_src >= 0:
            nic_tx = self._nic_tx.get(node_src)
            nic_rx = self._nic_rx.get(node_dst)
            if group_keys is not None:
                link_groups = tuple(
                    tuple(self._links.get(k) for k in group) for group in group_keys
                )
            elif fixed_keys:
                fixed_links = tuple(self._links.get(k) for k in fixed_keys)
        return _StagePlan(cls, alpha, hop_extra, inv_beta,
                          nic_tx, nic_rx, fixed_links, link_groups, link_inv_beta)

    # --------------------------------------------------------------- schedule
    def transmit(self, src: int, dst: int, nbytes: int, post_time: float) -> MessageTiming:
        """Schedule a message; claims all resources and returns its timing.

        Endpoint ports serialize the full Hockney cost ``alpha + m/beta``
        per message — the paper's single-port assumption (each rank sends
        or receives one message at a time, paying startup per message).
        Node NICs serialize ``nic_message_overhead + m/beta`` (message-rate
        limit), producing the node-level serialization of the paper's
        Eq. (5); shared global links serialize bandwidth.

        Invariants (see docs/ARCHITECTURE.md): claims are made in event
        order, stages are claimed upstream-to-downstream, and a stage
        extended by upstream streaming (cut-through) credits the extension
        to its ``busy_time`` so utilization reflects true occupancy.
        """
        if src == dst:
            dur = nbytes / self._memcpy_beta
            done = post_time + dur
            return MessageTiming(done, done, LinkClass.SELF)

        rps = self._ranks_per_socket
        key = (src // rps) * self._n_sockets + (dst // rps)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_plan(src, dst)
            self._plans[key] = plan

        if self._faults is not None:
            return self._transmit_faulty(plan, src, dst, nbytes, post_time)

        alpha = plan.alpha
        hop_extra = plan.hop_extra
        if self._noise is not None:
            noise = 1.0 + self._jitter * float(self._noise.random())
            alpha *= noise
            hop_extra *= noise
        send_complete, pipeline_end = self._claim(
            plan, src, dst, nbytes, post_time, alpha, plan.inv_beta, plan.link_inv_beta
        )
        return MessageTiming(send_complete, pipeline_end + hop_extra, plan.link_class)

    # ----------------------------------------------------------------- faults
    def _transmit_faulty(
        self, plan: _StagePlan, src: int, dst: int, nbytes: int, post_time: float
    ) -> MessageTiming:
        """Fault-aware transmit: perturbed costs, drop + timeout/backoff retry.

        Each attempt claims the full resource pipeline (a dropped message
        still traveled — loss is detected at the endpoint via a missing
        ack), so retransmission costs are charged in simulated time.  When
        the retry budget runs out the message is lost: ``arrival`` is
        ``inf`` and the engine never delivers it.
        """
        faults = self._faults
        cls = plan.link_class
        retry = faults.retry
        attempt = 1
        t = post_time
        while True:
            alpha, hop_extra, inv_beta, link_inv_beta = faults.perturb(
                cls, t, plan.alpha, plan.hop_extra, plan.inv_beta, plan.link_inv_beta
            )
            if self._noise is not None:
                noise = 1.0 + self._jitter * float(self._noise.random())
                alpha *= noise
                hop_extra *= noise
            send_complete, pipeline_end = self._claim(
                plan, src, dst, nbytes, t, alpha, inv_beta, link_inv_beta
            )
            if not faults.should_drop(cls, t):
                if attempt > 1:
                    faults.retransmissions += attempt - 1
                return MessageTiming(
                    send_complete, pipeline_end + hop_extra, cls, attempt
                )
            faults.drops += 1
            if attempt > retry.max_retries:
                faults.messages_lost += 1
                return MessageTiming(send_complete, math.inf, cls, attempt)
            t = send_complete + retry.delay_after(attempt)
            attempt += 1

    def _claim(
        self,
        plan: _StagePlan,
        src: int,
        dst: int,
        nbytes: int,
        post_time: float,
        alpha: float,
        inv_beta: float,
        link_inv_beta: float,
    ) -> tuple[float, float]:
        """One pipeline claim pass with explicit (possibly perturbed) costs.

        The fabric's single claim sequence: :meth:`transmit` calls it with
        the plan's own costs, :meth:`_transmit_faulty` once per attempt with
        perturbed ones.  Returns ``(send_complete, pipeline_end)``; the
        caller adds the hop surcharge to get the arrival time.
        """
        dur = nbytes * inv_beta
        port_dur = alpha + dur

        # Stage 1: sender port.  The first stage can never be outrun by
        # upstream data, so no cut-through adjustment is needed here.
        res = self._send_fast[src]
        if res is None:
            self._send_fast[src] = res = self._send_ports.get(src)
        start = post_time if post_time > res.next_free else res.next_free
        end = start + port_dur
        res.next_free = end
        res.busy_time += port_dur
        res.claims += 1
        send_complete = end
        prev_start = start
        pipeline_end = end

        nic = plan.nic_tx
        if nic is not None:
            nic_dur = self._nic_overhead + dur
            # TX NIC.
            start = prev_start if prev_start > nic.next_free else nic.next_free
            end = start + nic_dur
            nic.busy_time += nic_dur
            nic.claims += 1
            if end < pipeline_end:
                nic.busy_time += pipeline_end - end
                end = pipeline_end
            nic.next_free = end
            prev_start = start
            pipeline_end = end
            # Shared bottleneck links (inter-group only).
            groups = plan.link_groups
            if groups is not None or plan.fixed_links:
                link_dur = self._link_overhead + nbytes * link_inv_beta
                if groups is None:
                    lanes = plan.fixed_links
                elif len(groups) == 1:
                    # Adaptive (UGAL-like): least-loaded lane, first minimal
                    # on ties.  One bottleneck with two lanes is the common
                    # Dragonfly+ case; avoid min()'s key-fn calls there.
                    group = groups[0]
                    if len(group) == 2:
                        a = group[0]
                        b = group[1]
                        lanes = ((a if a.next_free <= b.next_free else b),)
                    else:
                        lanes = (min(group, key=_next_free),)
                else:
                    # Pick every lane before claiming any.
                    lanes = [min(group, key=_next_free) for group in groups]
                for res in lanes:
                    start = prev_start if prev_start > res.next_free else res.next_free
                    end = start + link_dur
                    res.busy_time += link_dur
                    res.claims += 1
                    if end < pipeline_end:
                        res.busy_time += pipeline_end - end
                        end = pipeline_end
                    res.next_free = end
                    prev_start = start
                    pipeline_end = end
            # RX NIC.
            nic = plan.nic_rx
            start = prev_start if prev_start > nic.next_free else nic.next_free
            end = start + nic_dur
            nic.busy_time += nic_dur
            nic.claims += 1
            if end < pipeline_end:
                nic.busy_time += pipeline_end - end
                end = pipeline_end
            nic.next_free = end
            prev_start = start
            pipeline_end = end

        # Final stage: receiver port.
        res = self._recv_fast[dst]
        if res is None:
            self._recv_fast[dst] = res = self._recv_ports.get(dst)
        start = prev_start if prev_start > res.next_free else res.next_free
        end = start + port_dur
        res.busy_time += port_dur
        res.claims += 1
        if end < pipeline_end:
            # A faster downstream stage cannot finish before upstream data
            # has fully streamed through; the port stays occupied while it
            # drains, so the extension counts as busy time.
            res.busy_time += pipeline_end - end
            end = pipeline_end
        res.next_free = end
        pipeline_end = end

        return send_complete, pipeline_end

    # -------------------------------------------------------------- reporting
    def utilization(self, horizon: float) -> dict[str, dict]:
        """Busy fractions per resource family over ``[0, horizon]``."""
        return {
            "send_ports": self._send_ports.utilization(horizon),
            "recv_ports": self._recv_ports.utilization(horizon),
            "nic_tx": self._nic_tx.utilization(horizon),
            "nic_rx": self._nic_rx.utilization(horizon),
            "links": self._links.utilization(horizon),
        }
