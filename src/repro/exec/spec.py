"""Declarative run specifications: everything one simulation needs, as data.

A :class:`RunSpec` fully describes one simulated neighborhood allgather —
topology generator + seed, machine shape, algorithm + constructor kwargs,
message size, and the :class:`~repro.collectives.runner.RunOptions`
(fault plan, watchdog budgets, trace level).  Because it is pure frozen
data it can be hashed, pickled to worker processes, serialized to
canonical JSON, and content-addressed for the result cache: the same
digest always denotes the same simulation, and the engine's determinism
contract guarantees the same ``simulated_time``.

The split mirrors the rest of the codebase: a *spec* is cheap immutable
data; :meth:`RunSpec.build` materializes the heavy objects (topology,
machine, algorithm pattern) on whichever process executes the spec.

Specs with the same :meth:`RunSpec.group_key` (algorithm, its kwargs,
topology and machine, in canonical form) build equal objects, so
:func:`_run_group` builds them once and runs every spec of the group on
them: the algorithm's pattern (its ``setup()``) and its block-unit
schedule then serve every message size and run mode of the group, as one
``MPI_Dist_graph_create`` serves every later collective call.
:meth:`RunSpec.run` is the one-spec group.  A group's objects live exactly
as long as its generator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, TYPE_CHECKING

from repro.collectives.runner import DEFAULT_OPTIONS, RunOptions
from repro.utils.sizes import format_size, parse_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine
    from repro.collectives.base import NeighborhoodAllgatherAlgorithm
    from repro.collectives.runner import AllgatherRun
    from repro.topology.graph import DistGraphTopology

#: Topology generators a spec can name (kind -> required builder).
TOPOLOGY_KINDS = ("random", "moore", "cartesian", "scale_free")


@dataclass(frozen=True)
class TopologySpec:
    """A virtual topology as generator name + parameters (not as a graph).

    Kinds and the fields they read:

    * ``"random"`` — Erdős–Rényi; ``n``, ``density``, ``seed``,
      ``self_loops`` (MPI permits ``u -> u`` edges; off by default).
    * ``"moore"`` — Moore neighborhood; ``n``, ``radius``, ``dims``.
    * ``"cartesian"`` — Von Neumann stencil; ``n``, ``dims``.
    * ``"scale_free"`` — preferential attachment; ``n``,
      ``edges_per_rank``, ``seed``.
    """

    kind: str
    n: int
    density: float | None = None
    seed: int = 0
    radius: int = 1
    dims: int = 2
    edges_per_rank: int = 4
    self_loops: bool = False

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; available: {TOPOLOGY_KINDS}"
            )
        if self.kind == "random" and self.density is None:
            raise ValueError("random topologies require a density")

    def canonical(self) -> dict:
        """Only the fields the kind actually consumes (stable digests).

        ``self_loops`` appears only when set, so pre-existing digests (and
        cached results) of loop-free specs are unchanged.
        """
        base: dict[str, Any] = {"kind": self.kind, "n": self.n}
        if self.kind == "random":
            base.update(density=self.density, seed=self.seed)
            if self.self_loops:
                base.update(self_loops=True)
        elif self.kind == "moore":
            base.update(radius=self.radius, dims=self.dims)
        elif self.kind == "cartesian":
            base.update(dims=self.dims)
        elif self.kind == "scale_free":
            base.update(edges_per_rank=self.edges_per_rank, seed=self.seed)
        return base

    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        """Inverse of :meth:`canonical` (fields the kind ignores default)."""
        return cls(
            kind=data["kind"],
            n=data["n"],
            density=data.get("density"),
            seed=data.get("seed", 0),
            radius=data.get("radius", 1),
            dims=data.get("dims", 2),
            edges_per_rank=data.get("edges_per_rank", 4),
            self_loops=data.get("self_loops", False),
        )

    def build(self) -> "DistGraphTopology":
        """Materialize the graph (deterministic given the spec)."""
        if self.kind == "random":
            from repro.topology.random_graphs import erdos_renyi_topology

            return erdos_renyi_topology(self.n, self.density, seed=self.seed,
                                        allow_self_loops=self.self_loops)
        if self.kind == "moore":
            from repro.topology.moore import moore_topology

            return moore_topology(self.n, r=self.radius, d=self.dims)
        if self.kind == "cartesian":
            from repro.topology.cartesian import cartesian_topology

            return cartesian_topology(self.n, d=self.dims)
        from repro.topology.scale_free import scale_free_topology

        return scale_free_topology(self.n, edges_per_rank=self.edges_per_rank,
                                   seed=self.seed)


@dataclass(frozen=True)
class MachineSpec:
    """A Niagara-like machine as shape parameters (not as a Machine).

    ``placement_seed`` selects one draw of the scheduler lottery
    (:meth:`~repro.cluster.machine.Machine.random_placement`); ``None``
    keeps the canonical block placement.
    """

    nodes: int
    sockets_per_node: int = 2
    ranks_per_socket: int = 8
    placement_seed: int | None = None

    @property
    def n_ranks(self) -> int:
        return self.nodes * self.sockets_per_node * self.ranks_per_socket

    @classmethod
    def for_ranks(
        cls,
        n_ranks: int,
        ranks_per_socket: int = 8,
        sockets_per_node: int = 2,
        placement_seed: int | None = None,
    ) -> "MachineSpec":
        """Spec with exactly ``n_ranks`` (mirrors ``bench_machine``)."""
        per_node = sockets_per_node * ranks_per_socket
        if n_ranks % per_node:
            raise ValueError(
                f"n_ranks={n_ranks} does not fill {per_node}-rank nodes; "
                "pick a multiple"
            )
        return cls(
            nodes=n_ranks // per_node,
            sockets_per_node=sockets_per_node,
            ranks_per_socket=ranks_per_socket,
            placement_seed=placement_seed,
        )

    def canonical(self) -> dict:
        return {
            "nodes": self.nodes,
            "sockets_per_node": self.sockets_per_node,
            "ranks_per_socket": self.ranks_per_socket,
            "placement_seed": self.placement_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSpec":
        """Inverse of :meth:`canonical`."""
        return cls(
            nodes=data["nodes"],
            sockets_per_node=data.get("sockets_per_node", 2),
            ranks_per_socket=data.get("ranks_per_socket", 8),
            placement_seed=data.get("placement_seed"),
        )

    def build(self) -> "Machine":
        from repro.cluster.machine import Machine

        machine = Machine.niagara_like(
            nodes=self.nodes,
            sockets_per_node=self.sockets_per_node,
            ranks_per_socket=self.ranks_per_socket,
        )
        if self.placement_seed is not None:
            machine = machine.random_placement(seed=self.placement_seed)
        return machine


def _normalize_msg_size(msg_size) -> int | tuple[int, ...]:
    """Bytes as int (or tuple of ints for allgatherv block lists)."""
    if isinstance(msg_size, (list, tuple)):
        return tuple(parse_size(s) for s in msg_size)
    return parse_size(msg_size)


def _normalize_kwargs(kwargs) -> tuple[tuple[str, Any], ...]:
    """Sorted (key, value) pairs — hashable and canonically ordered."""
    if isinstance(kwargs, dict):
        items = kwargs.items()
    else:
        items = tuple(kwargs)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class RunSpec:
    """One fully described simulation (see module docstring).

    ``algorithm_kwargs`` accepts a dict at construction time and is
    normalized to sorted ``(key, value)`` pairs so equal specs hash and
    serialize identically regardless of keyword order.
    """

    algorithm: str
    topology: TopologySpec
    machine: MachineSpec
    msg_size: int | tuple[int, ...]
    algorithm_kwargs: tuple[tuple[str, Any], ...] = ()
    options: RunOptions = field(default=DEFAULT_OPTIONS)
    #: content version of the decision table ``algorithm="auto"`` resolves
    #: against — auto-filled from the active table at construction, so the
    #: table is part of the spec's content address (two specs under
    #: different tables are different simulations).  Always ``None`` (and
    #: omitted from the digest) for directly named algorithms.
    selector_table: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "msg_size", _normalize_msg_size(self.msg_size))
        object.__setattr__(
            self, "algorithm_kwargs", _normalize_kwargs(self.algorithm_kwargs)
        )
        if self.algorithm == "auto":
            if self.algorithm_kwargs:
                raise ValueError(
                    "algorithm='auto' takes no algorithm_kwargs: the "
                    "decision table supplies each candidate's constructor "
                    "arguments"
                )
            if self.selector_table is None:
                from repro.select.table import active_table_version

                object.__setattr__(
                    self, "selector_table", active_table_version()
                )
        elif self.selector_table is not None:
            raise ValueError(
                "selector_table is only meaningful with algorithm='auto'"
            )

    # ------------------------------------------------------------- identity
    def canonical(self) -> dict:
        """Fully resolved JSON-safe description; field order is stable.

        ``selector_table`` appears only for ``algorithm="auto"`` specs
        (same omit-the-default pattern as ``TopologySpec.self_loops``), so
        every pre-existing digest of a directly named algorithm is
        unchanged.
        """
        data = {
            "algorithm": self.algorithm,
            "algorithm_kwargs": [list(pair) for pair in self.algorithm_kwargs],
            "topology": self.topology.canonical(),
            "machine": self.machine.canonical(),
            "msg_size": (
                list(self.msg_size) if isinstance(self.msg_size, tuple)
                else self.msg_size
            ),
            "options": self.options.canonical(),
        }
        if self.selector_table is not None:
            data["selector_table"] = self.selector_table
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`canonical` — what fuzzer repro files replay."""
        msg = data["msg_size"]
        return cls(
            algorithm=data["algorithm"],
            topology=TopologySpec.from_dict(data["topology"]),
            machine=MachineSpec.from_dict(data["machine"]),
            msg_size=tuple(msg) if isinstance(msg, list) else msg,
            algorithm_kwargs=tuple(
                (k, v) for k, v in data.get("algorithm_kwargs", ())
            ),
            options=RunOptions.from_dict(data.get("options", {})),
            selector_table=data.get("selector_table"),
        )

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, no whitespace."""
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON — the spec's content address."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def label(self) -> str:
        size = (
            "v" + format_size(max(self.msg_size, default=0))
            if isinstance(self.msg_size, tuple)
            else format_size(self.msg_size)
        )
        return (
            f"{self.algorithm} {self.topology.kind} n={self.topology.n} "
            f"m={size}"
        )

    # ------------------------------------------------------------ execution
    def group_key(self) -> str | None:
        """What the objects :meth:`build` returns depend on, or ``None``.

        The canonical JSON of (algorithm, kwargs, topology, machine) — the
        digest's own form, so ``4`` and ``4.0`` (or ``1`` and ``True``)
        never share a key.  Specs with equal keys build equal (algorithm,
        topology, machine) triples and can run as one group.  An
        ``algorithm="auto"`` spec picks its instance per message size, so
        it has no key and always runs alone.
        """
        if self.algorithm == "auto":
            return None
        data = self.canonical()
        for per_spec in ("msg_size", "options"):
            del data[per_spec]
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def build(self) -> "tuple[NeighborhoodAllgatherAlgorithm, DistGraphTopology, Machine]":
        """Materialize (algorithm instance, topology, machine)."""
        from repro.collectives.base import get_algorithm

        if self.algorithm == "auto":
            raise ValueError(
                "algorithm='auto' has no instance until selection runs: "
                "call RunSpec.run(), or resolve with repro.select.select()"
            )
        algorithm = get_algorithm(self.algorithm, **dict(self.algorithm_kwargs))
        return algorithm, self.topology.build(), self.machine.build()

    def run(self) -> "AllgatherRun":
        """Simulate this spec (deterministic; safe in worker processes)."""
        result = next(_run_group([self]))
        if isinstance(result, BaseException):
            raise result
        return result


def _run_group(
    specs: Iterable[RunSpec],
) -> Iterator[AllgatherRun | BaseException]:
    """Run specs of one :meth:`RunSpec.group_key` on one set of objects.

    Yields, per spec and in order, its run or the exception it raised, so a
    failing spec fails alone.  The first spec to need them builds the
    (algorithm, topology, machine); every later spec reuses them, so the
    instance's own ``setup()`` and ``schedule_for`` memos answer for every
    message size and run mode.  A run that raises leaves the objects intact
    for the next spec (setup is memoized before any run starts, and runs
    never write to the plan).  Specs are run lazily, one per ``next()``;
    the objects are released with the generator.  An ``"auto"`` spec
    builds fresh objects of its own.
    """
    from repro.collectives.runner import run_allgather

    built = None
    for spec in specs:
        msg = list(spec.msg_size) if isinstance(spec.msg_size, tuple) else spec.msg_size
        try:
            if spec.algorithm == "auto":
                # The digest pins the table this spec was built under;
                # resolving against any other table would silently break
                # the content-address -> result contract, so fail loudly.
                from repro.select.table import active_table_version

                active = active_table_version()
                if active != spec.selector_table:
                    raise RuntimeError(
                        f"spec was built under decision table "
                        f"{spec.selector_table!r} but the active table is "
                        f"{active!r}; point REPRO_SELECT_TABLE (or use_table) "
                        "at the spec's table to replay it"
                    )
                run = run_allgather("auto", spec.topology.build(),
                                    spec.machine.build(), msg,
                                    options=spec.options)
            else:
                if built is None:
                    built = spec.build()
                run = run_allgather(*built, msg, options=spec.options)
        except BaseException as exc:  # noqa: BLE001 - one spec fails alone
            yield exc
        else:
            yield run

