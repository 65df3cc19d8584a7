"""The :class:`Machine`: cluster shape + network topology + Hockney costs.

Everything the simulator needs to price a message between two ranks lives
here; :class:`Machine` is the single object passed around by the collectives
harness, the benchmarks, and the analytic model.

A machine is also the one owner of what is derived from it: the rank→node
table, its structural :attr:`Machine.digest` (the machine half of every
compiled-plan cache key) and the per-socket-pair costs
(:meth:`Machine.pair_costs`) that the DES fabric and the fast path price
from.  Each is memoized on the object itself, so a copy made with
``dataclasses.replace`` starts with none of them.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Hashable

from repro.cluster.hockney import NIAGARA_LIKE, HockneyParameters, LinkCost
from repro.cluster.network import (
    DragonflyPlus,
    NetworkTopology,
    PermutedNodes,
    SingleSwitch,
)
from repro.cluster.spec import ClusterSpec, LinkClass
from repro.utils.rng import RandomState, resolve_rng


@dataclass(frozen=True)
class Machine:
    """A fully specified target machine.

    Attributes
    ----------
    spec:
        Node/socket/rank shape.
    network:
        Cross-node topology (classification, hops, shared bottlenecks).
    params:
        Hockney costs per link class plus host constants.
    """

    spec: ClusterSpec
    network: NetworkTopology
    params: HockneyParameters

    # ------------------------------------------------------------ rank table
    @cached_property
    def rank_nodes(self) -> tuple[int, ...]:
        """Node index of every rank, built once per machine.

        The unvalidated, table-driven counterpart of ``spec.node_of``: the
        link queries below validate a pair once (in
        ``spec.intra_node_class``) and then read node ids from here.
        Indices are the logical node ids the network topology classifies
        (a placement permutation lives in the network).
        """
        per_node = self.spec.ranks_per_node
        return tuple(rank // per_node for rank in range(self.spec.n_ranks))

    # -------------------------------------------------------------- identity
    @cached_property
    def digest(self) -> str:
        """Structural identity of this machine, built once per object.

        A hash of :func:`_fingerprint` over every field — the cluster
        shape, every Hockney constant and the network topology's full
        constructor state (placement permutations included) — so two
        structurally equal machines share a digest and therefore share
        compiled plans, and any change to what can price a message yields
        a new one.
        """
        return hashlib.blake2b(
            _fingerprint(self).encode(), digest_size=16
        ).hexdigest()

    # ------------------------------------------------------------ pair costs
    @cached_property
    def _pair_cost_table(self) -> dict[tuple[int, int], tuple]:
        return {}

    def pair_costs(self, src: int, dst: int) -> tuple:
        """Everything fixed about a message from ``src`` to ``dst`` but its size.

        Returns ``(link_class, alpha, hop_extra, inv_beta, link_inv_beta,
        node_src, node_dst, group_keys, fixed_keys)``; ``node_src == -1``
        marks an intra-node path, ``group_keys`` is the adaptive lane
        choice (``params.adaptive_routing``) and ``fixed_keys`` the
        oblivious one.  For distinct ranks the tuple depends only on their
        socket pair and is memoized per socket pair, so the DES fabric and
        the fast path price every pair from the same constants.  A
        self-send (``SELF``, priced as a memcpy by both) is resolved
        without the memo.
        """
        if src == dst:
            return self._resolve_pair_costs(src, dst)
        rps = self.spec.ranks_per_socket
        key = (src // rps, dst // rps)
        table = self._pair_cost_table
        entry = table.get(key)
        if entry is None:
            entry = table[key] = self._resolve_pair_costs(src, dst)
        return entry

    def _resolve_pair_costs(self, src: int, dst: int) -> tuple:
        params = self.params
        cls = self.link_class(src, dst)
        cost = params.cost(cls)
        hop_extra = self.hop_extra_alpha(src, dst)
        inv_beta = 1.0 / cost.beta

        node_src = node_dst = -1
        group_keys = None
        fixed_keys: tuple = ()
        link_inv_beta = 0.0
        if cls in (LinkClass.INTER_NODE, LinkClass.INTER_GROUP):
            nodes = self.rank_nodes
            node_src, node_dst = nodes[src], nodes[dst]
            if cls is LinkClass.INTER_GROUP:
                link_inv_beta = 1.0 / params.cost(LinkClass.INTER_GROUP).beta
                if params.adaptive_routing:
                    group_keys = tuple(
                        tuple(group)
                        for group in self.network.link_choices(node_src, node_dst)
                    )
                else:
                    fixed_keys = tuple(
                        self.network.shared_link_keys(node_src, node_dst)
                    )
        return (cls, cost.alpha, hop_extra, inv_beta, link_inv_beta,
                node_src, node_dst, group_keys, fixed_keys)

    # ------------------------------------------------------------- link query
    def link_class(self, rank_a: int, rank_b: int) -> LinkClass:
        """Distance class of a rank pair, refined by the network topology."""
        base = self.spec.intra_node_class(rank_a, rank_b)
        if base is not LinkClass.INTER_NODE:
            return base
        nodes = self.rank_nodes
        return self.network.classify(nodes[rank_a], nodes[rank_b])

    def link_cost(self, rank_a: int, rank_b: int) -> LinkCost:
        return self.params.cost(self.link_class(rank_a, rank_b))

    def path_alpha(self, rank_a: int, rank_b: int) -> float:
        """Total startup latency: class alpha plus per-hop surcharge."""
        cls = self.link_class(rank_a, rank_b)
        return self.params.cost(cls).alpha + self.hop_extra_alpha(rank_a, rank_b)

    def hop_extra_alpha(self, rank_a: int, rank_b: int) -> float:
        """Latency surcharge for hops beyond the 2-hop base path."""
        cls = self.link_class(rank_a, rank_b)
        if cls in (LinkClass.INTER_NODE, LinkClass.INTER_GROUP):
            nodes = self.rank_nodes
            hops = self.network.hops(nodes[rank_a], nodes[rank_b])
            return self.params.per_hop_alpha * max(0, hops - 2)
        return 0.0

    def shared_link_keys(self, rank_a: int, rank_b: int) -> tuple[Hashable, ...]:
        """Bottleneck resources a cross-node message occupies (may be empty)."""
        na, nb = self.spec.node_of(rank_a), self.spec.node_of(rank_b)
        if na == nb:
            return ()
        return self.network.shared_link_keys(na, nb)

    def ptp_time(self, rank_a: int, rank_b: int, nbytes: int) -> float:
        """Uncontended point-to-point time estimate (no ports, no queueing)."""
        if rank_a == rank_b:
            return self.params.memcpy_time(nbytes)
        cost = self.link_cost(rank_a, rank_b)
        return self.path_alpha(rank_a, rank_b) + cost.serialization(nbytes)

    # ----------------------------------------------------------- constructors
    @classmethod
    def niagara_like(
        cls,
        nodes: int,
        sockets_per_node: int = 2,
        ranks_per_socket: int = 18,
        nodes_per_group: int | None = None,
        params: HockneyParameters = NIAGARA_LIKE,
    ) -> "Machine":
        """A Dragonfly+ machine shaped like the paper's testbed runs."""
        spec = ClusterSpec(nodes, sockets_per_node, ranks_per_socket)
        if nodes_per_group is None:
            nodes_per_group = max(2, nodes // 4) if nodes >= 4 else nodes
        network: NetworkTopology
        network = DragonflyPlus(nodes_per_group) if nodes > 1 else SingleSwitch()
        return cls(spec=spec, network=network, params=params)

    @classmethod
    def single_switch(
        cls,
        nodes: int,
        sockets_per_node: int = 2,
        ranks_per_socket: int = 4,
        params: HockneyParameters = NIAGARA_LIKE,
    ) -> "Machine":
        """Small flat machine, handy for tests."""
        return cls(
            spec=ClusterSpec(nodes, sockets_per_node, ranks_per_socket),
            network=SingleSwitch(),
            params=params,
        )

    # ------------------------------------------------------------- placements
    def with_node_permutation(self, perm) -> "Machine":
        """This machine under a different physical node assignment.

        Models a scheduler giving the job other nodes: logical node ``i``
        runs on physical node ``perm[i]``.  Rank numbering (and therefore
        every algorithm's pattern) is unchanged; only distances move.
        """
        if len(tuple(perm)) != self.spec.nodes:
            raise ValueError(
                f"permutation has {len(tuple(perm))} entries for {self.spec.nodes} nodes"
            )
        return dataclasses.replace(self, network=PermutedNodes(self.network, perm))

    def random_placement(self, seed: RandomState = None) -> "Machine":
        """Shuffled node assignment — one draw of the scheduler lottery."""
        rng = resolve_rng(seed)
        return self.with_node_permutation(rng.permutation(self.spec.nodes))

    def describe(self) -> str:
        return f"{self.spec.describe()} over {self.network.describe()}"


def _fingerprint(value: Any) -> str:
    """Canonical text of a machine component, walked structurally.

    Dataclasses go field by field, network topologies attribute by
    attribute (``vars()``, so a nested ``PermutedNodes.base`` is walked
    too), enums by name, dicts by sorted items, sequences element by
    element, numbers by the ``repr`` of their Python value.  Anything else
    raises: a value the walk cannot name must not silently drop out of the
    digest.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = ",".join(
            f"{f.name}={_fingerprint(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({body})"
    if isinstance(value, NetworkTopology):
        body = ",".join(
            f"{name}={_fingerprint(attr)}" for name, attr in sorted(vars(value).items())
        )
        return f"{type(value).__name__}{{{body}}}"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        items = sorted((_fingerprint(k), _fingerprint(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(map(_fingerprint, value)) + "]"
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, numbers.Integral):
        return repr(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    raise TypeError(f"cannot fingerprint a {type(value).__name__} in a Machine")
