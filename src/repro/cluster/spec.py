"""Cluster shape and rank placement.

Ranks are placed *block-wise*, exactly as ``mpiexec --map-by core`` does on
the paper's testbed: consecutive ranks fill a socket, then the next socket
of the same node, then the next node.  This placement is what makes the
distance-halving recursion meaningful — the final halving level of the rank
interval coincides with a socket.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.utils.validation import check_positive


class LinkClass(enum.Enum):
    """Distance class of a rank pair, ordered from cheapest to priciest."""

    SELF = 0          #: same rank (pure memory copy)
    INTRA_SOCKET = 1  #: same socket, shared-memory transport
    INTER_SOCKET = 2  #: same node, across the socket interconnect
    INTER_NODE = 3    #: different nodes, short network path
    INTER_GROUP = 4   #: different nodes across a network bottleneck (global link)

    def __lt__(self, other: "LinkClass") -> bool:
        if not isinstance(other, LinkClass):
            return NotImplemented
        return self.value < other.value


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the machine: ``nodes`` x ``sockets_per_node`` x ``ranks_per_socket``.

    Attributes
    ----------
    nodes:
        Number of compute nodes.
    sockets_per_node:
        Sockets per node (``S`` in the paper; Niagara has 2).
    ranks_per_socket:
        Ranks bound to each socket (``L`` in the paper; Niagara runs 18-20).
    """

    nodes: int
    sockets_per_node: int = 2
    ranks_per_socket: int = 18

    def __post_init__(self) -> None:
        check_positive("nodes", self.nodes)
        check_positive("sockets_per_node", self.sockets_per_node)
        check_positive("ranks_per_socket", self.ranks_per_socket)

    # ------------------------------------------------------------------ shape
    @property
    def ranks_per_node(self) -> int:
        return self.sockets_per_node * self.ranks_per_socket

    @property
    def n_ranks(self) -> int:
        """Total communicator size ``n``."""
        return self.nodes * self.ranks_per_node

    @property
    def n_sockets(self) -> int:
        return self.nodes * self.sockets_per_node

    # -------------------------------------------------------------- placement
    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        self._check_rank(rank)
        return rank // self.ranks_per_node

    def socket_of(self, rank: int) -> int:
        """Global socket index hosting ``rank`` (unique across the cluster)."""
        self._check_rank(rank)
        return rank // self.ranks_per_socket

    def local_socket_of(self, rank: int) -> int:
        """Socket index of ``rank`` within its node."""
        self._check_rank(rank)
        return (rank % self.ranks_per_node) // self.ranks_per_socket

    def core_of(self, rank: int) -> int:
        """Core index of ``rank`` within its socket."""
        self._check_rank(rank)
        return rank % self.ranks_per_socket

    def ranks_on_node(self, node: int) -> range:
        if not 0 <= node < self.nodes:
            raise ValueError(f"node {node} out of range [0, {self.nodes})")
        lo = node * self.ranks_per_node
        return range(lo, lo + self.ranks_per_node)

    def ranks_on_socket(self, socket: int) -> range:
        if not 0 <= socket < self.n_sockets:
            raise ValueError(f"socket {socket} out of range [0, {self.n_sockets})")
        lo = socket * self.ranks_per_socket
        return range(lo, lo + self.ranks_per_socket)

    def same_socket(self, a: int, b: int) -> bool:
        return self.socket_of(a) == self.socket_of(b)

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def intra_node_class(self, a: int, b: int) -> LinkClass:
        """Distance class for two ranks, ignoring the network topology.

        Node-to-node classification (``INTER_NODE`` vs ``INTER_GROUP``) is
        refined by :class:`repro.cluster.network.NetworkTopology`; this method
        returns ``INTER_NODE`` for any cross-node pair.
        """
        self._check_rank(a)
        self._check_rank(b)
        if a == b:
            return LinkClass.SELF
        rps = self.ranks_per_socket
        if a // rps == b // rps:
            return LinkClass.INTRA_SOCKET
        rpn = self.ranks_per_node
        if a // rpn == b // rpn:
            return LinkClass.INTER_SOCKET
        return LinkClass.INTER_NODE

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")

    # ------------------------------------------------------------ constructors
    @classmethod
    def for_ranks(
        cls, n_ranks: int, sockets_per_node: int = 2, ranks_per_socket: int = 18
    ) -> "ClusterSpec":
        """Smallest cluster of the given socket shape holding ``n_ranks``.

        ``n_ranks`` must tile exactly into nodes; this mirrors the paper's
        experiments which always use full nodes (e.g. 2160 = 60 x 2 x 18).
        """
        check_positive("n_ranks", n_ranks)
        per_node = sockets_per_node * ranks_per_socket
        if n_ranks % per_node:
            raise ValueError(
                f"n_ranks={n_ranks} does not fill whole nodes of "
                f"{sockets_per_node}x{ranks_per_socket} ranks"
            )
        return cls(n_ranks // per_node, sockets_per_node, ranks_per_socket)

    def describe(self) -> str:
        return (
            f"{self.nodes} nodes x {self.sockets_per_node} sockets x "
            f"{self.ranks_per_socket} ranks = {self.n_ranks} ranks"
        )
