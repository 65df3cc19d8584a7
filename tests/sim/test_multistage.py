"""Schedule executor edge cases and the compiled-plan cache.

The fast path's executor (:func:`repro.sim.fastpath._execute_multi`) is an
exact replay of the engine over statically-matched schedules; the Engine
itself, driven op-for-op by :func:`tests.sim.engine_oracle.run_on_engine`,
is its oracle.  These tests target the places the replay could plausibly
diverge:

* resource claims that bind *across* stage boundaries (a straggler's send
  delaying a later-stage message on the same port);
* degenerate shapes — empty stages (back-to-back waitalls), single-rank
  schedules, ranks with no program (``None`` ops);
* watchdog budgets tripping on the same event as the engine;
* the keyed plan cache replacing the old single-entry memo (alternating
  two machines must not evict each other's plans — the ``fastpath`` memo
  regression), one structure per (schedule, machine) priced once per
  block size, plus LRU bounds and stats, and a two-machine grid that stays
  exact under a cache evicting on every insert;
* size-free plans: a block-unit schedule priced at any block size equals
  the Engine running it with every byte count scaled, and equals the
  schedule the algorithm builds in bytes at that size;
* the structural digest: equal for rebuilt schedules, different for any
  single-op change.
"""

import dataclasses

import pytest

import repro.exec
from repro.collectives.base import ExecutionContext, get_algorithm, list_algorithms
from repro.collectives.runner import RunOptions, run_allgather, run_allgatherv
from repro.exec.spec import MachineSpec, RunSpec, TopologySpec
from repro.sim.engine import DeadlockError, SimTimeoutError
from repro.sim.fastpath import execute_schedule, multi_plan_for
from repro.sim.plancache import (
    PLAN_CACHE,
    PlanCache,
    plan_cache_stats,
    reset_plan_cache,
)
from repro.sim.schedule import (
    Schedule,
    spawn_wake_order,
    static_matching,
    structural_digest,
)
from tests.sim.engine_oracle import run_on_engine


def _machine(nodes=2, sockets=2, rps=4):
    return MachineSpec(nodes=nodes, sockets_per_node=sockets,
                       ranks_per_socket=rps).build()


def _ctx(topology, machine, msg, block_sizes=None):
    return ExecutionContext(
        topology=topology, machine=machine, msg_size=msg,
        payloads=list(range(topology.n)),
        results=[{} for _ in range(topology.n)], block_sizes=block_sizes,
    )


def _setup(name, kwargs, n=48, nodes=3, density=0.3, seed=3):
    machine = _machine(nodes=nodes, rps=max(1, n // (nodes * 2)))
    topology = TopologySpec("random", n, density=density, seed=seed).build()
    algorithm = get_algorithm(name, **kwargs)
    algorithm.setup(topology, machine)
    return algorithm, topology, machine


def _schedule_for(name, kwargs, n, nodes, density, msg=4096, seed=3):
    """The schedule ``name`` builds in bytes at ``msg``, and its machine."""
    algorithm, topology, machine = _setup(name, kwargs, n, nodes, density, seed)
    return algorithm.build_schedule(_ctx(topology, machine, msg)), machine


def _assert_identical(schedule, machine, block_size=1, **budgets):
    """The executor must match the Engine field-for-field — or, for a
    budgeted run, trip the same watchdog with the same message.  Returns
    the fast outcome (``None`` when the budget tripped)."""
    try:
        ref = run_on_engine(schedule, machine, block_size, **budgets)
    except SimTimeoutError as exc:
        with pytest.raises(SimTimeoutError) as fast:
            execute_schedule(schedule, machine, block_size, **budgets)
        assert str(fast.value) == str(exc)
        assert fast.value.budget == exc.budget
        assert fast.value.events_processed == exc.events_processed
        return None
    out = execute_schedule(schedule, machine, block_size, **budgets)
    assert out is not None
    assert out.simulated_time == ref.simulated_time
    assert out.finish_times == ref.finish_times
    assert out.messages_sent == ref.messages_sent
    assert out.bytes_sent == ref.bytes_sent
    assert out.events_processed == ref.events_processed
    return out


class TestExecutorEdgeCases:
    def test_straggler_claim_binds_across_stages(self):
        # Rank 0 straggles in stage 0 (large memcpy) and only then sends to
        # rank 2; rank 1's stage-1 message to rank 2 contends for rank 2's
        # receive port with that straggling stage-0 message.  The timing is
        # only right if stage-0 claims carry into stage 1.
        machine = _machine(nodes=1, sockets=1, rps=4)
        big, small = 1 << 20, 64
        ops = [
            # rank 0: slow stage 0, send lands late
            [("charge", big), ("send", 2, small, 0), ("wait",)],
            # rank 1: fast stage 0 (pure exchange with rank 2), then a
            # stage-1 send into the port rank 0's message is still claiming
            [("send", 2, small, 1), ("recv", 2, 2), ("wait",),
             ("send", 2, small, 3), ("wait",)],
            # rank 2: stage 0 exchange with 1, stage 1 receives both
            [("send", 1, small, 2), ("recv", 1, 1), ("wait",),
             ("recv", 0, 0), ("recv", 1, 3), ("wait",)],
            None,
        ]
        schedule = Schedule(n_ranks=4, ops=ops, deliveries=[[], [], [], []])
        out = _assert_identical(schedule, machine)
        assert out.messages_sent == 4

    def test_empty_stages_between_waits(self):
        # Back-to-back waitalls: a waitall with nothing pending is still an
        # engine event (wake + seq), so event counts must line up too.
        machine = _machine(nodes=1, sockets=1, rps=2)
        ops = [
            [("wait",), ("wait",), ("send", 1, 64, 0), ("wait",), ("wait",)],
            [("recv", 0, 0), ("wait",), ("wait",)],
        ]
        schedule = Schedule(n_ranks=2, ops=ops, deliveries=[[], []])
        _assert_identical(schedule, machine)

    def test_single_rank_schedule(self):
        machine = _machine(nodes=1, sockets=1, rps=1)
        ops = [[("charge", 512), ("send", 0, 128, 0), ("recv", 0, 0),
                ("wait",), ("charge", 64), ("wait",)]]
        schedule = Schedule(n_ranks=1, ops=ops, deliveries=[[0]])
        out = _assert_identical(schedule, machine)
        assert out.finish_times[0] == out.simulated_time

    def test_none_rank_has_no_events(self):
        machine = _machine(nodes=1, sockets=1, rps=4)
        ops = [
            [("send", 2, 64, 0), ("wait",)],
            None,
            [("recv", 0, 0), ("wait",)],
        ]
        schedule = Schedule(n_ranks=3, ops=ops, deliveries=[[], [], [0]])
        assert spawn_wake_order(schedule) == (0, 2)
        out = _assert_identical(schedule, machine)
        assert out.finish_times[1] == 0.0

    def test_unmatched_send_is_parked_forever(self):
        # A send no receive ever matches: the engine parks it in the
        # unexpected table with no timing effect.  static_matching gives it
        # slot -1 and the executors still agree.
        machine = _machine(nodes=1, sockets=1, rps=2)
        ops = [
            [("send", 1, 64, 0), ("send", 1, 64, 99), ("wait",)],
            [("recv", 0, 0), ("wait",)],
        ]
        schedule = Schedule(n_ranks=2, ops=ops, deliveries=[[], [0]])
        slots, n_slots, fully_matched = static_matching(schedule)
        assert fully_matched and slots == [0, -1] and n_slots == 1
        _assert_identical(schedule, machine)

    def test_matching_is_fifo_per_key_across_stages(self):
        # Several receives share key (1, 0, tag 0) across two stages, with
        # another tag in between: the k-th send of a key takes the key's
        # k-th receive, and a send after the key drains gets -1.
        machine = _machine(nodes=1, sockets=1, rps=2)
        ops = [
            [("send", 1, 64, 0), ("send", 1, 64, 5), ("send", 1, 64, 0),
             ("wait",), ("send", 1, 64, 0), ("send", 1, 64, 0), ("wait",)],
            [("recv", 0, 0), ("recv", 0, 5), ("wait",),
             ("recv", 0, 0), ("recv", 0, 0), ("wait",)],
        ]
        schedule = Schedule(n_ranks=2, ops=ops, deliveries=[[], [0]])
        assert static_matching(schedule) == ([0, 1, 2, 3, -1], 4, True)
        _assert_identical(schedule, machine)
        # one more tag-0 receive takes the fifth send; a second tag-5
        # receive is left without a sender
        more = [ops[0], ops[1][:-1] + [("recv", 0, 0), ("wait",)]]
        schedule = Schedule(n_ranks=2, ops=more, deliveries=[[], [0]])
        assert static_matching(schedule) == ([0, 1, 2, 3, 4], 5, True)
        more[1] = more[1][:-1] + [("recv", 0, 5), ("wait",)]
        schedule = Schedule(n_ranks=2, ops=more, deliveries=[[], [0]])
        assert static_matching(schedule)[2] is False

    @staticmethod
    def _unmatched_recv_schedule():
        ops = [
            [("send", 1, 64, 0), ("wait",)],
            [("recv", 0, 0), ("recv", 0, 7), ("wait",)],
        ]
        return Schedule(n_ranks=2, ops=ops, deliveries=[[], [0]])

    def test_unmatched_recv_goes_to_the_des(self):
        # A receive with no sender deadlocks; the executor declines the
        # schedule (fully_matched False) and the Engine reports the exact
        # blocked state.
        machine = _machine(nodes=1, sockets=1, rps=2)
        schedule = self._unmatched_recv_schedule()
        assert static_matching(schedule)[2] is False
        assert multi_plan_for(schedule, machine, 1) is None
        assert execute_schedule(schedule, machine, 1) is None
        blocked = r"blocked processes: rank 1 \(waitall\(1 pending\)\)"
        with pytest.raises(DeadlockError, match=blocked):
            run_on_engine(schedule, machine)

    def test_runner_falls_back_to_des_on_unmatched_recv(self):
        # The runner treats a declined schedule like a missing one: the
        # DES runs the algorithm's real program.
        machine = _machine(nodes=1, sockets=1, rps=2)
        topology = TopologySpec("random", 2, density=1.0, seed=0).build()
        algorithm = get_algorithm("naive")
        algorithm.setup(topology, machine)
        algorithm.schedule_for = lambda ctx: self._unmatched_recv_schedule()
        run = run_allgather(algorithm, topology, machine, 64,
                            options=RunOptions(sim_mode="auto"))
        assert run.sim_path == "des"

    @pytest.mark.parametrize("name,kwargs", [
        ("common_neighbor", {"k": 4}), ("distance_halving", {}), ("bruck", {}),
    ])
    def test_multistage_algorithms_match_engine(self, name, kwargs):
        schedule, machine = _schedule_for(name, kwargs, 48, 3, 0.3)
        _assert_identical(schedule, machine)

    def test_exact_event_count_is_allowed(self):
        # Exactly max_events events may be processed; one fewer trips the
        # budget with the Engine's own diagnostics.
        schedule, machine = _schedule_for("common_neighbor", {"k": 4},
                                          16, 2, 0.4)
        events = run_on_engine(schedule, machine).events_processed
        assert _assert_identical(schedule, machine, max_events=events)
        assert _assert_identical(schedule, machine,
                                 max_events=events - 1) is None

    def test_time_budget_boundaries_match_engine(self):
        # Budgets below, at, and above the makespan: an event stamped
        # exactly max_sim_time is processed, one past it trips.
        schedule, machine = _schedule_for("common_neighbor", {"k": 4},
                                          16, 2, 0.4)
        makespan = run_on_engine(schedule, machine).simulated_time
        tripped = [
            _assert_identical(schedule, machine, max_sim_time=budget) is None
            for budget in (makespan / 3, makespan / 2, makespan, 2 * makespan)
        ]
        assert tripped == [True, True, False, False]


class TestWatchdogBoundaries:
    """Budget trips on multi-stage schedules: same event, same diagnostics
    as the engine (the multi executor now handles budgeted runs)."""

    def _trip(self, sim_mode, **budget):
        machine = _machine(nodes=2, rps=4)
        topology = TopologySpec("random", 16, density=0.4, seed=2).build()
        algorithm = get_algorithm("common_neighbor", k=4)
        algorithm.setup(topology, machine)
        try:
            run_allgather(algorithm, topology, machine, 256,
                          options=RunOptions(sim_mode=sim_mode, **budget))
        except SimTimeoutError as exc:
            return exc
        return None

    @pytest.mark.parametrize("max_events", [1, 7, 33])
    def test_event_budget_parity_multistage(self, max_events):
        des = self._trip("des", max_events=max_events)
        auto = self._trip("auto", max_events=max_events)
        assert des is not None and auto is not None
        assert str(des) == str(auto)
        assert des.events_processed == auto.events_processed == max_events

    @pytest.mark.parametrize("max_sim_time", [1e-7, 4e-6])
    def test_time_budget_parity_multistage(self, max_sim_time):
        des = self._trip("des", max_sim_time=max_sim_time)
        auto = self._trip("auto", max_sim_time=max_sim_time)
        assert des is not None and auto is not None
        assert str(des) == str(auto)
        assert des.events_processed == auto.events_processed

    def test_generous_budget_takes_multi_executor(self):
        machine = _machine(nodes=2, rps=4)
        topology = TopologySpec("random", 16, density=0.4, seed=2).build()
        algorithm = get_algorithm("common_neighbor", k=4)
        algorithm.setup(topology, machine)
        plain = run_allgather(algorithm, topology, machine, 256,
                              options=RunOptions(sim_mode="auto"))
        budgeted = run_allgather(
            algorithm, topology, machine, 256,
            options=RunOptions(sim_mode="auto", max_events=10**9),
        )
        assert budgeted.simulated_time == plain.simulated_time
        assert budgeted.sim_path == "fastpath"


class TestPlanCacheKeying:
    """The keyed plan cache must hold plans for several machines at once —
    the regression the old single-entry ``_fp``/``_fp_batch`` memo had."""

    def test_two_machines_alternate_without_eviction(self):
        schedule, machine_a = _schedule_for("naive", {}, 16, 2, 0.4)
        machine_b = _machine(nodes=4, rps=2)
        reset_plan_cache()
        try:
            ref_a = multi_plan_for(schedule, machine_a, 1)
            ref_b = multi_plan_for(schedule, machine_b, 1)
            misses_after_first = PLAN_CACHE.misses
            for _ in range(3):
                assert multi_plan_for(schedule, machine_a, 1) is ref_a
                assert multi_plan_for(schedule, machine_b, 1) is ref_b
            assert PLAN_CACHE.misses == misses_after_first
            assert PLAN_CACHE.hits >= 6
        finally:
            reset_plan_cache()

    def test_contention_free_memo_keeps_both_machines(self):
        # The per-schedule memo holds one answer per machine: replaying the
        # same schedule on alternating machines answers from each machine's
        # own entry, not from whichever machine came last.
        schedule, machine_a = _schedule_for("naive", {}, 16, 2, 0.4)
        machine_b = _machine(nodes=4, rps=2)

        def replay(machine):
            out = execute_schedule(schedule, machine, 1)
            return (out.simulated_time, tuple(out.finish_times),
                    out.events_processed)

        reset_plan_cache()
        try:
            first = (replay(machine_a), replay(machine_b))
            misses_after_first = PLAN_CACHE.misses
            again = (replay(machine_a), replay(machine_b))
            assert first == again
            assert first[0] != first[1]
            assert PLAN_CACHE.misses == misses_after_first
        finally:
            reset_plan_cache()

    def test_two_machines_alternate_multi_plans(self):
        schedule, machine_a = _schedule_for("common_neighbor", {"k": 4},
                                            16, 2, 0.4)
        machine_b = _machine(nodes=4, rps=2)
        reset_plan_cache()
        try:
            plan_a = multi_plan_for(schedule, machine_a, 1)
            plan_b = multi_plan_for(schedule, machine_b, 1)
            assert plan_a is not None and plan_b is not None
            for _ in range(3):
                assert multi_plan_for(schedule, machine_a, 1) is plan_a
                assert multi_plan_for(schedule, machine_b, 1) is plan_b
        finally:
            reset_plan_cache()
        # and the results per machine stay bit-identical to the Engine
        for machine in (machine_a, machine_b):
            _assert_identical(schedule, machine)

    def test_one_auto_run_leaves_one_plan(self):
        # One compile per (schedule, machine): a single auto run on a
        # fresh cache stores exactly one structure and one priced plan.
        machine = _machine(nodes=2, rps=4)
        topology = TopologySpec("random", 16, density=0.4, seed=2).build()
        algorithm = get_algorithm("common_neighbor", k=4)
        algorithm.setup(topology, machine)
        reset_plan_cache()
        try:
            run = run_allgather(algorithm, topology, machine, 256,
                                options=RunOptions(sim_mode="auto"))
            assert run.sim_path == "fastpath"
            assert plan_cache_stats()["size"] == 2
        finally:
            reset_plan_cache()

    def test_structurally_equal_schedules_share_plans(self):
        # Two Schedule objects with identical op streams (fresh algorithm
        # instances over the same cell) must hit the same cache entry.
        sched_a, machine = _schedule_for("naive", {}, 16, 2, 0.4)
        sched_b, _ = _schedule_for("naive", {}, 16, 2, 0.4)
        assert sched_a is not sched_b
        assert structural_digest(sched_a) == structural_digest(sched_b)
        reset_plan_cache()
        try:
            plan_a = multi_plan_for(sched_a, machine, 1)
            plan_b = multi_plan_for(sched_b, machine, 1)
            assert plan_b is plan_a
            assert PLAN_CACHE.hits >= 1
        finally:
            reset_plan_cache()

    def test_machine_digest_distinguishes_structure(self):
        machine_a = _machine(nodes=2, rps=4)
        machine_b = _machine(nodes=4, rps=2)
        machine_c = _machine(nodes=2, rps=4)
        assert machine_a.digest != machine_b.digest
        # structurally identical machines share plans
        assert machine_a.digest == machine_c.digest
        tweaked = dataclasses.replace(
            machine_a,
            params=dataclasses.replace(machine_a.params, call_overhead=1e-3),
        )
        assert tweaked.digest != machine_a.digest


class TestPlanCacheBounds:
    def test_lru_bound_and_stats(self):
        cache = PlanCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refreshes "a"
        cache.put(("c",), 3)  # evicts "b"
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert cache.get(("b",)) is not cache.get(("a",))  # "b" is a miss
        assert cache.stats()["misses"] >= 1

    def test_none_results_are_cached(self):
        # an unmatched receive is a matching-walk verdict worth remembering
        machine = _machine(nodes=1, sockets=1, rps=2)
        schedule = TestExecutorEdgeCases._unmatched_recv_schedule()
        reset_plan_cache()
        try:
            assert multi_plan_for(schedule, machine, 1) is None
            misses = PLAN_CACHE.misses
            assert multi_plan_for(schedule, machine, 1) is None
            assert PLAN_CACHE.misses == misses  # second call hit
            assert PLAN_CACHE.hits >= 1
        finally:
            reset_plan_cache()

    def test_stats_snapshot_shape(self):
        stats = plan_cache_stats()
        assert set(stats) == {"hits", "misses", "evictions", "size",
                              "max_entries", "hit_rate"}

    def test_reset_resizes_and_clears(self):
        reset_plan_cache(max_entries=3)
        try:
            assert PLAN_CACHE.max_entries == 3
            assert len(PLAN_CACHE) == 0
            with pytest.raises(ValueError):
                reset_plan_cache(max_entries=0)
        finally:
            reset_plan_cache(max_entries=None)
            from repro.sim.plancache import DEFAULT_MAX_ENTRIES
            PLAN_CACHE.max_entries = DEFAULT_MAX_ENTRIES

    def test_execute_schedule_uses_cached_plans(self):
        schedule, machine = _schedule_for("distance_halving", {}, 16, 2, 0.4)
        first = execute_schedule(schedule, machine, 1)
        hits_before = PLAN_CACHE.hits
        second = execute_schedule(schedule, machine, 1)
        assert PLAN_CACHE.hits > hits_before
        assert second.simulated_time == first.simulated_time
        assert second.events_processed == first.events_processed


class TestEvictingPlanCache:
    """A two-machine grid — the machines differ in one Hockney constant —
    replayed through a plan cache that evicts on every insert, then through
    a warm one, then cold again: every ``auto`` run must equal the DES bit
    for bit, and the miss counts must show the machines never sharing an
    entry."""

    ALGORITHMS = (("naive", {}), ("common_neighbor", {"k": 4}))
    SIZES = (64, 4096)

    def test_grid_matches_des_under_eviction_warm_and_cold(self):
        from repro.sim.plancache import DEFAULT_MAX_ENTRIES

        base = _machine(nodes=2, rps=4)
        machines = (base, dataclasses.replace(
            base, params=dataclasses.replace(
                base.params, nic_message_overhead=3.0e-7)))
        assert machines[0].digest != machines[1].digest
        topology = TopologySpec("random", 16, density=0.4, seed=2).build()
        algorithms = {(name, i): get_algorithm(name, **kwargs)
                      for name, kwargs in self.ALGORITHMS
                      for i in range(len(machines))}
        # Machine innermost: each cell follows the same (algorithm, size)
        # on the other machine, so a shared entry would be a hit.
        cells = [(name, m, i) for name, _ in self.ALGORITHMS
                 for m in self.SIZES for i in range(len(machines))]
        structures = len(algorithms)

        def run(cell, mode):
            name, m, i = cell
            out = run_allgather(algorithms[name, i], topology, machines[i], m,
                                options=RunOptions(sim_mode=mode))
            return out.sim_path, (out.simulated_time, out.finish_times,
                                  out.messages_sent, out.bytes_sent)

        des = {}
        for cell in cells:
            path, des[cell] = run(cell, "des")
            assert path == "des"

        def replay():
            for cell in cells:
                assert run(cell, "auto") == ("fastpath", des[cell]), cell
            return plan_cache_stats()

        try:
            reset_plan_cache(max_entries=1)
            stats = replay()
            # Only the previous cell's priced plan survives each cell, so
            # every cell misses both its priced plan and its structure.
            assert (stats["hits"], stats["misses"]) == (0, 2 * len(cells))
            assert stats["evictions"] == 2 * len(cells) - 1

            reset_plan_cache(max_entries=DEFAULT_MAX_ENTRIES)
            cold = replay()
            # One structure per (algorithm, machine), one priced plan per cell.
            assert cold["misses"] == structures + len(cells)
            assert cold["size"] == structures + len(cells)
            warm = replay()
            assert warm["misses"] == cold["misses"]
            assert warm["hits"] == cold["hits"] + len(cells)

            reset_plan_cache()
            assert replay() == cold
        finally:
            reset_plan_cache(max_entries=DEFAULT_MAX_ENTRIES)


BENCH_ALGORITHMS = [(info.name, dict(info.bench_kwargs))
                    for info in list_algorithms(requires=("bench",))]
#: Block sizes spanning zero, tiny, odd, the benchmark's sizes and a prime.
SIZES = (0, 1, 3, 8, 8192, 524288, 1000003)


def _scaled(ops, m):
    if ops is None:
        return None
    out = []
    for op in ops:
        if op[0] == "charge":
            out.append(("charge", op[1] * m))
        elif op[0] == "send":
            out.append(("send", op[1], op[2] * m, op[3]))
        else:
            out.append(op)
    return out


class TestSizeFreePlans:
    """One structure per (schedule, machine), priced per block size, must
    stay bit-identical to the Engine at every size."""

    @pytest.mark.parametrize("name,kwargs", BENCH_ALGORITHMS)
    def test_block_unit_schedule_scales_to_the_byte_schedule(self, name, kwargs):
        # The linearity the structure rests on: the block-unit schedule
        # with every count times m is the schedule built in bytes at m.
        algorithm, topology, machine = _setup(name, kwargs)
        unit = algorithm.schedule_for(_ctx(topology, machine, 4096))
        for m in SIZES:
            ctx = _ctx(topology, machine, m)
            assert ctx.schedule_scale == m
            assert algorithm.schedule_for(ctx) is unit
            built = algorithm.build_schedule(ctx)
            assert built.ops == [_scaled(ops, m) for ops in unit.ops]
            assert built.deliveries == unit.deliveries

    @pytest.mark.parametrize("name,kwargs", BENCH_ALGORITHMS)
    def test_every_size_matches_engine_from_one_structure(self, name, kwargs):
        algorithm, topology, machine = _setup(name, kwargs)
        schedule = algorithm.schedule_for(_ctx(topology, machine, 8))
        reset_plan_cache()
        try:
            outs = {m: _assert_identical(schedule, machine, m) for m in SIZES}
            for m in SIZES:
                assert outs[m].bytes_sent == outs[1].bytes_sent * m
            # one structure miss, then one priced miss per size
            stats = plan_cache_stats()
            assert stats["misses"] == len(SIZES) + 1
            assert stats["hits"] == len(SIZES) - 1
            assert stats["size"] == len(SIZES) + 1
        finally:
            reset_plan_cache()

    def test_three_size_sweep_builds_one_structure(self):
        algorithm, topology, machine = _setup("common_neighbor", {"k": 4})
        reset_plan_cache()
        try:
            for m in (8, 8192, 524288):
                auto = run_allgather(algorithm, topology, machine, m,
                                     options=RunOptions(sim_mode="auto"))
                des = run_allgather(algorithm, topology, machine, m,
                                    options=RunOptions(sim_mode="des"))
                assert auto.sim_path == "fastpath"
                assert auto.simulated_time == des.simulated_time
                assert auto.bytes_sent == des.bytes_sent
            assert plan_cache_stats() == {
                "hits": 2, "misses": 4, "evictions": 0, "size": 4,
                "max_entries": PLAN_CACHE.max_entries, "hit_rate": 2 / 6,
            }
            # a warm repeat is one priced hit per size, no new entry
            for m in (8, 8192, 524288):
                run_allgather(algorithm, topology, machine, m,
                              options=RunOptions(sim_mode="auto"))
            assert plan_cache_stats()["hits"] == 5
            assert plan_cache_stats()["size"] == 4
        finally:
            reset_plan_cache()

    def test_sweep_pass_compiles_once_per_topology_and_algorithm(self):
        # The benchmark's cold sweep shape (fresh instances per cell, 2
        # densities x 3 sizes x every bench algorithm) at a small rank
        # count: one structure per (topology, algorithm, machine).
        options = RunOptions(verify=True, sim_mode="auto")
        specs = [
            RunSpec(algorithm=name,
                    topology=TopologySpec("random", 32, density=d, seed=23),
                    machine=MachineSpec.for_ranks(32, 8),
                    msg_size=size, algorithm_kwargs=tuple(kwargs.items()),
                    options=options)
            for d in (0.1, 0.3)
            for size in (8, 8 * 1024, 512 * 1024)
            for name, kwargs in BENCH_ALGORITHMS
        ]
        structures = 2 * len(BENCH_ALGORITHMS)
        reset_plan_cache()
        try:
            result = repro.exec.execute(specs, workers=1)
            result.raise_errors()
            assert {run.sim_path for run in result.runs} == {"fastpath"}
            stats = plan_cache_stats()
            assert stats["misses"] == len(specs) + structures
            assert stats["hits"] == len(specs) - structures
            assert stats["size"] == len(specs) + structures
        finally:
            reset_plan_cache()

    @pytest.mark.parametrize("name,kwargs", BENCH_ALGORITHMS)
    def test_allgatherv_runs_stay_exact(self, name, kwargs):
        algorithm, topology, machine = _setup(name, kwargs, n=32, nodes=2)
        sizes = [(37 * r) % 1000 + 1 for r in range(topology.n)]
        ctx = _ctx(topology, machine, max(sizes), block_sizes=sizes)
        assert ctx.schedule_scale == 1
        schedule = algorithm.schedule_for(ctx)
        assert schedule.ops == algorithm.build_schedule(ctx).ops
        _assert_identical(schedule, machine)
        des = run_allgatherv(algorithm, topology, machine, sizes,
                             options=RunOptions(sim_mode="des"))
        auto = run_allgatherv(algorithm, topology, machine, sizes,
                              options=RunOptions(sim_mode="auto"))
        assert auto.sim_path == "fastpath"
        assert auto.simulated_time == des.simulated_time
        assert auto.finish_times == des.finish_times
        assert auto.bytes_sent == des.bytes_sent
        assert auto.results == des.results

    @pytest.mark.parametrize("m", [64, 524288])
    def test_budgets_trip_on_the_engines_event_at_each_size(self, m):
        algorithm, topology, machine = _setup("distance_halving", {},
                                              n=16, nodes=2)
        schedule = algorithm.schedule_for(_ctx(topology, machine, m))
        ref = run_on_engine(schedule, machine, m)
        events, makespan = ref.events_processed, ref.simulated_time
        assert _assert_identical(schedule, machine, m, max_events=events)
        for budget in (events - 1, events // 2):
            assert _assert_identical(schedule, machine, m,
                                     max_events=budget) is None
        assert _assert_identical(schedule, machine, m, max_sim_time=makespan)
        assert _assert_identical(schedule, machine, m,
                                 max_sim_time=makespan / 2) is None

    def test_negative_block_size_is_rejected(self):
        schedule, machine = _schedule_for("naive", {}, 16, 2, 0.4)
        with pytest.raises(ValueError, match="block_size"):
            execute_schedule(schedule, machine, -1)

    def test_block_size_is_required(self):
        # A block-unit schedule replayed without its block size would be
        # priced as bytes; leaving the argument out must fail loudly.
        schedule, machine = _schedule_for("naive", {}, 16, 2, 0.4)
        with pytest.raises(TypeError):
            execute_schedule(schedule, machine)
        with pytest.raises(TypeError):
            multi_plan_for(schedule, machine)


class TestStructuralDigest:
    def test_rebuilt_schedules_share_a_digest(self):
        for name, kwargs in BENCH_ALGORITHMS:
            first, _ = _schedule_for(name, kwargs, 32, 2, 0.3)
            again, _ = _schedule_for(name, kwargs, 32, 2, 0.3)
            assert first is not again
            assert structural_digest(first) == structural_digest(again)

    @pytest.mark.parametrize("edit", ["dst", "tag", "count", "kind",
                                      "charge", "none_rank"])
    def test_any_single_op_change_changes_it(self, edit):
        base = [
            [("charge", 64), ("send", 1, 64, 0), ("recv", 1, 0), ("wait",)],
            [("send", 0, 64, 0), ("recv", 0, 0), ("wait",)],
            [("wait",)],
        ]
        changed = [list(ops) for ops in base]
        if edit == "dst":
            changed[0][1] = ("send", 2, 64, 0)
        elif edit == "tag":
            changed[0][1] = ("send", 1, 64, 1)
        elif edit == "count":
            changed[0][1] = ("send", 1, 65, 0)
        elif edit == "kind":
            changed[0][2] = ("send", 1, 0)
        elif edit == "charge":
            changed[0][0] = ("charge", 63)
        else:
            changed[2] = None

        def digest(ops):
            return structural_digest(
                Schedule(n_ranks=3, ops=ops, deliveries=[[], [], []]))

        assert digest(base) == digest([list(ops) for ops in base])
        assert digest(changed) != digest(base)
