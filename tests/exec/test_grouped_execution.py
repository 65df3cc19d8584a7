"""Grouped execution: specs sharing (algorithm, kwargs, topology, machine)
run on one set of built objects, with per-spec results unchanged.

The contract under test: ``execute`` equals independent per-spec
``RunSpec.run()`` calls bit for bit (wall-clock fields aside) in every run
mode, serially and on a pool; each group builds its objects exactly once
and nothing outlives one ``execute`` call; outcomes stay in spec order with
one ``progress`` call per spec however the groups interleave; a spec that
fails inside a group fails alone.
"""

import json
import random
from types import SimpleNamespace

import pytest

from repro.collectives.base import list_algorithms
from repro.exec import (
    MachineSpec,
    ResultCache,
    RunOptions,
    RunSpec,
    TopologySpec,
    execute,
)
from repro.exec.orchestrator import _split
from repro.exec.spec import _run_group
from repro.sim.faults import resilience_profiles
from tests.exec.test_orchestrator import report

N = 16
SIZES = (64, 1024, 16384)
TOPOLOGY = TopologySpec("random", N, density=0.4, seed=11)
MACHINE = MachineSpec.for_ranks(N, ranks_per_socket=4)
BENCH = list_algorithms(requires=("bench",))


def mode_options(mode, sim_mode):
    profiles = resilience_profiles(N, seed=3)
    if mode == "clean":
        return RunOptions(verify=True, sim_mode=sim_mode)
    if mode == "trace":
        return RunOptions(verify=True, sim_mode=sim_mode, trace=True)
    if mode == "lossy":
        return RunOptions(verify=True, sim_mode=sim_mode,
                          fault_plan=profiles["lossy"])
    if mode == "crash":
        return RunOptions(verify=True, sim_mode=sim_mode,
                          fault_plan=profiles["crash_recover"],
                          on_failure="shrink")
    raise ValueError(mode)


def matrix(modes=("clean", "trace", "lossy", "crash"), sizes=SIZES):
    """Every bench algorithm x sim_mode x run mode x size, grouped order."""
    return [
        RunSpec(info.name, TOPOLOGY, MACHINE, size,
                algorithm_kwargs=dict(info.bench_kwargs),
                options=mode_options(mode, sim_mode))
        for info in BENCH
        for sim_mode in ("des", "auto")
        for mode in modes
        for size in sizes
    ]


def rows(runs):
    """Per-run serialized reports (``report`` split into one row each)."""
    return [json.dumps(row) for row in json.loads(
        report(SimpleNamespace(runs=runs), strip_wall=True))]


def independent(specs):
    """What per-spec ``RunSpec.run()`` calls report, one fresh build each."""
    return rows([s.run().slim() for s in specs])


def n_groups(specs):
    return len({s.group_key() for s in specs})


@pytest.fixture(scope="module")
def specs():
    return matrix()


@pytest.fixture(scope="module")
def reference(specs):
    return independent(specs)


@pytest.fixture
def build_counts(monkeypatch):
    """Counts ``RunSpec.build`` and algorithm ``_build`` (setup) calls."""
    counts = {"spec": 0, "setup": 0}
    original_build = RunSpec.build

    def counting_build(self):
        counts["spec"] += 1
        return original_build(self)

    monkeypatch.setattr(RunSpec, "build", counting_build)
    for info in BENCH:
        original = info.cls._build

        def counting_setup(self, topology, machine, _original=original):
            counts["setup"] += 1
            return _original(self, topology, machine)

        monkeypatch.setattr(info.cls, "_build", counting_setup)
    return counts


class TestBitIdentity:
    def test_matrix_covers_every_mode(self, specs):
        assert len(specs) == len(BENCH) * 2 * 4 * len(SIZES)
        assert n_groups(specs) == len(BENCH)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_execute_equals_independent_runs(self, specs, reference, workers):
        sweep = execute(specs, workers=workers).raise_errors()
        assert rows(sweep.runs) == reference

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shuffled_groups_keep_spec_order(self, specs, reference, workers):
        order = list(range(len(specs)))
        random.Random(7).shuffle(order)
        shuffled = [specs[i] for i in order]
        calls = []
        sweep = execute(shuffled, workers=workers,
                        progress=lambda done, total, o: calls.append((done, o)))
        sweep.raise_errors()
        assert [o.spec for o in sweep.outcomes] == shuffled
        assert [done for done, _ in calls] == list(range(1, len(specs) + 1))
        assert sorted(id(o) for _, o in calls) == sorted(
            id(o) for o in sweep.outcomes)
        assert rows(sweep.runs) == [reference[i] for i in order]


class TestBuildOncePerGroup:
    def test_one_build_per_group(self, build_counts):
        specs = matrix(modes=("clean", "trace"))
        groups = n_groups(specs)
        sweep = execute(specs).raise_errors()
        assert sweep.stats["groups"] == groups
        assert build_counts == {"spec": groups, "setup": groups}

    def test_second_execute_rebuilds_every_group(self, build_counts):
        specs = matrix(modes=("clean",))
        groups = n_groups(specs)
        execute(specs).raise_errors()
        execute(specs).raise_errors()
        assert build_counts == {"spec": 2 * groups, "setup": 2 * groups}

    def test_every_key_field_splits_groups(self, build_counts):
        # Kwargs, topology and machine each separate groups: a spec never
        # runs on another spec's instance, graph or machine.
        other_topology = TopologySpec("random", N, density=0.4, seed=12)
        other_machine = MachineSpec.for_ranks(N, ranks_per_socket=4,
                                              placement_seed=5)
        specs = [
            RunSpec("common_neighbor", topology, machine, size,
                    algorithm_kwargs={"k": k})
            for size in (64, 4096)
            for k in (2, 4)
            for topology in (TOPOLOGY, other_topology)
            for machine in (MACHINE, other_machine)
        ]
        sweep = execute(specs).raise_errors()
        assert sweep.stats["groups"] == n_groups(specs) == 8
        assert build_counts == {"spec": 8, "setup": 8}
        assert rows(sweep.runs) == independent(specs)

    def test_keys_follow_the_canonical_form(self):
        # 4 and 4.0 (or 1 and True) are equal in Python but not in the
        # digest: such specs build different objects and never share a
        # group.  k=4.0 cannot build a common-neighbor instance at all.
        seed_true = TopologySpec("random", N, density=0.4, seed=True)
        seed_one = TopologySpec("random", N, density=0.4, seed=1)
        assert RunSpec("naive", seed_true, MACHINE, 64).group_key() != (
            RunSpec("naive", seed_one, MACHINE, 64).group_key())
        specs = [
            RunSpec("common_neighbor", TOPOLOGY, MACHINE, size,
                    algorithm_kwargs={"k": k})
            for k in (4, 4.0)
            for size in (64, 4096)
        ]
        sweep = execute(specs)
        assert sweep.stats["groups"] == n_groups(specs) == 2
        assert [o.ok for o in sweep.outcomes] == [True, True, False, False]
        for outcome, spec in zip(sweep.outcomes[2:], specs[2:]):
            with pytest.raises(TypeError) as raised:
                spec.run()
            assert outcome.error == f"TypeError: {raised.value}"
        assert rows(sweep.runs[:2]) == independent(specs[:2])

    def test_cache_hits_form_no_group(self, tmp_path):
        specs = matrix(modes=("clean",), sizes=(64,))
        cache = ResultCache(cache_dir=tmp_path)
        assert execute(specs, cache=cache).stats["groups"] == len(BENCH)
        warm = execute(specs, cache=cache)
        assert warm.stats["from_cache"] == len(specs)
        assert warm.stats["groups"] == 0

    def test_run_is_the_one_spec_group(self, build_counts):
        spec = matrix(modes=("clean",), sizes=(64,))[0]
        [grouped] = _run_group([spec])
        assert rows([spec.run().slim()]) == rows([grouped.slim()])
        assert build_counts == {"spec": 2, "setup": 2}


class TestFailureIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_spec_fails_alone(self, workers):
        specs = [
            RunSpec("distance_halving", TOPOLOGY, MACHINE, size,
                    options=RunOptions(verify=True, max_events=1)
                    if size == 1024 else RunOptions(verify=True))
            for size in SIZES
        ]
        assert n_groups(specs) == 1
        sweep = execute(specs, workers=workers)
        assert [o.ok for o in sweep.outcomes] == [True, False, True]
        assert sweep.outcomes[1].error.startswith("SimTimeoutError")
        assert sweep.stats["failed"] == 1
        good = [specs[0], specs[2]]
        assert rows([sweep.runs[0], sweep.runs[2]]) == independent(good)

    def test_build_failure_fails_each_spec_of_the_group(self):
        # More topology ranks than the machine has: setup raises for every
        # spec of the group, exactly as independent runs would.
        big = TopologySpec("random", 2 * N, density=0.4, seed=11)
        specs = [RunSpec("naive", big, MACHINE, size) for size in SIZES]
        sweep = execute(specs)
        assert all(o.error.startswith("ValueError") for o in sweep.outcomes)


class TestAutoAndSplitting:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_auto_specs_run(self, workers):
        named = matrix(modes=("clean",), sizes=(64, 16384))
        auto = [RunSpec("auto", TOPOLOGY, MACHINE, size,
                        options=RunOptions(verify=True)) for size in (64, 16384)]
        specs = [auto[0], *named[:4], auto[1], *named[4:]]
        sweep = execute(specs, workers=workers).raise_errors()
        assert rows(sweep.runs) == independent(specs)
        assert all(sweep.runs[specs.index(a)].selected_algorithm
                   for a in auto)
        if workers == 1:
            # Each auto spec is a group of its own.
            assert sweep.stats["groups"] == n_groups(named) + len(auto)

    def test_one_group_split_across_two_workers(self):
        specs = [RunSpec("naive", TOPOLOGY, MACHINE, size) for size in SIZES]
        sweep = execute(specs, workers=2).raise_errors()
        assert sweep.stats["groups"] == 2
        assert rows(sweep.runs) == independent(specs)

    def test_split_halves_the_largest_group_contiguously(self):
        assert _split([[0, 1, 2, 3]], 2) == [[0, 1], [2, 3]]
        assert _split([[0], [1, 2, 3]], 3) == [[0], [1, 2], [3]]
        assert _split([[0, 1], [2]], 2) == [[0, 1], [2]]
