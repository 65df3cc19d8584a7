"""Completeness pin for ``Machine.digest`` and the machine's own memos.

``Machine.digest`` is the machine half of every compiled-plan cache key.
A machine field that could change a plan but not the digest would let two
different machines alias one plan, so the variant tables below perturb
every ``ClusterSpec``/``HockneyParameters`` field (each link class's alpha
and beta included) and every constructor argument of every network
topology, and assert that each perturbation moves the digest.  A field or
topology missing from the tables fails the coverage tests — the tables
must grow with the dataclasses and the topology module.
"""

import dataclasses
import inspect
import itertools
import pickle

import pytest

import repro.cluster.network as network_module
from repro.cluster.hockney import NIAGARA_LIKE, HockneyParameters, LinkCost
from repro.cluster.machine import Machine
from repro.cluster.network import (
    DragonflyPlus,
    FatTree,
    NetworkTopology,
    PermutedNodes,
    SingleSwitch,
    Torus,
)
from repro.cluster.spec import ClusterSpec, LinkClass
from repro.collectives.base import ExecutionContext, get_algorithm
from repro.exec.spec import TopologySpec
from repro.sim.fastpath import multi_plan_for
from repro.sim.plancache import PLAN_CACHE, reset_plan_cache

BASE_SPEC = ClusterSpec(nodes=4, sockets_per_node=2, ranks_per_socket=2)
BASE_NETWORK = DragonflyPlus(nodes_per_group=2)
BASE = Machine(spec=BASE_SPEC, network=BASE_NETWORK, params=NIAGARA_LIKE)


def _with_spec(**change):
    return dataclasses.replace(BASE, spec=dataclasses.replace(BASE_SPEC, **change))


def _with_params(**change):
    return dataclasses.replace(
        BASE, params=dataclasses.replace(NIAGARA_LIKE, **change))


def _with_link(cls, **change):
    links = dict(NIAGARA_LIKE.links)
    links[cls] = dataclasses.replace(links[cls], **change)
    return _with_params(links=links)


def _with_network(network):
    return dataclasses.replace(BASE, network=network)


#: ClusterSpec field -> a machine differing from BASE in exactly that field.
SPEC_VARIANTS = {
    "nodes": _with_spec(nodes=8),
    "sockets_per_node": _with_spec(sockets_per_node=1),
    "ranks_per_socket": _with_spec(ranks_per_socket=3),
}

#: HockneyParameters field -> variant; ``links`` is covered per link class
#: and ``LinkCost`` field by LINK_VARIANTS.
PARAM_VARIANTS = {
    "memcpy_beta": _with_params(memcpy_beta=7.0e9),
    "call_overhead": _with_params(call_overhead=6.0e-8),
    "per_hop_alpha": _with_params(per_hop_alpha=2.0e-7),
    "nic_message_overhead": _with_params(nic_message_overhead=2.5e-7),
    "link_message_overhead": _with_params(link_message_overhead=3.0e-8),
    "jitter": _with_params(jitter=0.1),
    "adaptive_routing": _with_params(adaptive_routing=False),
}

#: (link class, LinkCost field) -> variant.
LINK_VARIANTS = {
    (cls, "alpha"): _with_link(cls, alpha=NIAGARA_LIKE.links[cls].alpha * 1.5)
    for cls in NIAGARA_LIKE.links
} | {
    (cls, "beta"): _with_link(cls, beta=NIAGARA_LIKE.links[cls].beta * 0.5)
    for cls in NIAGARA_LIKE.links
}

#: Topology class -> {constructor argument -> (base network, variant)}.
#: Every variant differs from its base in exactly that argument.
NETWORK_VARIANTS = {
    SingleSwitch: {},
    DragonflyPlus: {
        "nodes_per_group": (DragonflyPlus(2), DragonflyPlus(4)),
        "links_per_pair": (DragonflyPlus(2), DragonflyPlus(2, links_per_pair=3)),
    },
    FatTree: {
        "nodes_per_leaf": (FatTree(2, taper=1.0), FatTree(3, taper=1.0)),
        "taper": (FatTree(4, taper=0.5), FatTree(4, taper=1.0)),
    },
    Torus: {
        "dims": (Torus((2, 2)), Torus((4,))),
        "bisection_ways": (Torus((2, 2)), Torus((2, 2), bisection_ways=2)),
    },
    PermutedNodes: {
        "base": (PermutedNodes(DragonflyPlus(2), (1, 0, 3, 2)),
                 PermutedNodes(FatTree(2), (1, 0, 3, 2))),
        "perm": (PermutedNodes(DragonflyPlus(2), (1, 0, 3, 2)),
                 PermutedNodes(DragonflyPlus(2), (2, 3, 0, 1))),
    },
}


def _all_variants():
    variants = {f"spec.{k}": m for k, m in SPEC_VARIANTS.items()}
    variants |= {f"params.{k}": m for k, m in PARAM_VARIANTS.items()}
    variants |= {f"links.{cls.name}.{f}": m
                 for (cls, f), m in LINK_VARIANTS.items()}
    variants["network.SingleSwitch"] = _with_network(SingleSwitch())
    for cls, args in NETWORK_VARIANTS.items():
        for arg, (_, variant) in args.items():
            variants[f"network.{cls.__name__}.{arg}"] = _with_network(variant)
    return variants


class TestDigestCompleteness:
    def test_every_variant_changes_the_digest(self):
        digests = {"base": BASE.digest}
        digests |= {name: m.digest for name, m in _all_variants().items()}
        for (a, da), (b, db) in itertools.combinations(digests.items(), 2):
            assert da != db, f"digest collision between {a!r} and {b!r}"

    @pytest.mark.parametrize("cls", list(NETWORK_VARIANTS), ids=lambda c: c.__name__)
    def test_each_network_argument_changes_the_digest(self, cls):
        for arg, (base, variant) in NETWORK_VARIANTS[cls].items():
            assert (_with_network(base).digest
                    != _with_network(variant).digest), f"{cls.__name__}.{arg}"

    def test_spec_table_covers_every_field(self):
        fields = {f.name for f in dataclasses.fields(ClusterSpec)}
        assert fields == set(SPEC_VARIANTS), (
            f"ClusterSpec fields changed ({sorted(fields ^ set(SPEC_VARIANTS))}); "
            "extend SPEC_VARIANTS"
        )

    def test_params_table_covers_every_field(self):
        fields = {f.name for f in dataclasses.fields(HockneyParameters)}
        covered = set(PARAM_VARIANTS) | {"links"}
        assert fields == covered, (
            f"HockneyParameters fields changed ({sorted(fields ^ covered)}); "
            "extend PARAM_VARIANTS"
        )
        link_fields = {f.name for f in dataclasses.fields(LinkCost)}
        want = {(cls, f) for cls in LinkClass if cls is not LinkClass.SELF
                for f in link_fields}
        assert set(LINK_VARIANTS) == want

    def test_network_table_covers_every_topology_and_argument(self):
        classes = {
            obj for obj in vars(network_module).values()
            if isinstance(obj, type) and issubclass(obj, NetworkTopology)
            and obj is not NetworkTopology
        }
        assert classes == set(NETWORK_VARIANTS), (
            f"topology classes changed ({sorted(c.__name__ for c in classes ^ set(NETWORK_VARIANTS))}); "
            "extend NETWORK_VARIANTS"
        )
        for cls, args in NETWORK_VARIANTS.items():
            params = (set() if cls.__init__ is object.__init__ else
                      set(inspect.signature(cls.__init__).parameters) - {"self"})
            assert params == set(args), (
                f"{cls.__name__} constructor changed "
                f"({sorted(params ^ set(args))}); extend NETWORK_VARIANTS"
            )

    def test_unnameable_state_is_rejected(self):
        class Opaque(SingleSwitch):
            def __init__(self):
                self.state = object()

        with pytest.raises(TypeError, match="cannot fingerprint"):
            _with_network(Opaque()).digest


def _naive_schedule(machine):
    topology = TopologySpec("random", machine.spec.n_ranks, density=0.4,
                            seed=2).build()
    algorithm = get_algorithm("naive")
    algorithm.setup(topology, machine)
    ctx = ExecutionContext(
        topology=topology, machine=machine, msg_size=1,
        payloads=list(range(topology.n)),
        results=[{} for _ in range(topology.n)],
    )
    return algorithm.build_schedule(ctx)


class TestDigestIdentity:
    def test_equal_machines_share_a_digest_and_plans(self):
        machine_a = Machine.niagara_like(nodes=4, ranks_per_socket=2,
                                         nodes_per_group=2)
        machine_b = Machine.niagara_like(nodes=4, ranks_per_socket=2,
                                         nodes_per_group=2)
        assert machine_a is not machine_b
        assert machine_a.network is not machine_b.network
        assert machine_a.digest == machine_b.digest
        schedule = _naive_schedule(machine_a)
        reset_plan_cache()
        try:
            plan_a = multi_plan_for(schedule, machine_a, 64)
            misses = PLAN_CACHE.misses
            assert multi_plan_for(schedule, machine_b, 64) is plan_a
            assert PLAN_CACHE.misses == misses
        finally:
            reset_plan_cache()

    @pytest.mark.parametrize("derive", [
        lambda m: dataclasses.replace(
            m, params=dataclasses.replace(m.params, per_hop_alpha=1.0e-6)),
        lambda m: m.with_node_permutation((0, 2, 1, 3)),
    ], ids=["replace", "with_node_permutation"])
    def test_derived_machines_start_with_fresh_memos(self, derive):
        machine = BASE
        n = machine.spec.n_ranks
        digest = machine.digest
        costs = {(s, d): machine.pair_costs(s, d)
                 for s in range(n) for d in range(n)}
        derived = derive(machine)
        # Nothing cached on the parent is carried over...
        for name in ("digest", "_pair_cost_table", "rank_nodes"):
            assert name not in vars(derived), name
        # ...and what the derived machine computes reflects its own fields.
        assert derived.digest != digest
        derived_costs = {(s, d): derived.pair_costs(s, d)
                         for s in range(n) for d in range(n)}
        assert derived_costs != costs
        assert derived._pair_cost_table is not machine._pair_cost_table
        assert machine.digest == digest

    def test_pickle_round_trip_keeps_the_digest(self):
        machine = Machine.niagara_like(nodes=4, ranks_per_socket=2,
                                       nodes_per_group=2).with_node_permutation(
                                           (3, 1, 2, 0))
        fresh = pickle.loads(pickle.dumps(machine))
        assert fresh.digest == machine.digest
        machine.digest  # cached before pickling
        warm = pickle.loads(pickle.dumps(machine))
        assert warm.digest == machine.digest
        assert warm.pair_costs(0, 15) == machine.pair_costs(0, 15)
