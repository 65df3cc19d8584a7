"""Cache-key audit: every RunSpec knob must reach the content digest.

The result cache addresses runs by ``RunSpec.digest()``; any field that can
change a simulation's outcome but not its digest silently aliases cache
entries.  These tests enumerate the option/fault surface and assert that
specs differing in exactly one field never share a digest — and that the
default digest is stable across the ``sim_mode`` field's introduction.
"""

import itertools

import pytest

from repro.collectives.runner import RunOptions
from repro.exec.spec import MachineSpec, RunSpec, TopologySpec
from repro.sim.faults import (
    FailureDetector,
    FaultPlan,
    LinkFault,
    MessageLoss,
    RankCrash,
    RetryPolicy,
    Straggler,
)
from repro.cluster.spec import LinkClass

BASE_TOPOLOGY = TopologySpec("random", 16, density=0.3, seed=1)
BASE_MACHINE = MachineSpec(nodes=2, sockets_per_node=2, ranks_per_socket=4)

#: Digest of the default naive spec above, frozen when the capability
#: registry landed; it must never move (cached results stay addressable).
GOLDEN_NAIVE_DIGEST = (
    "e88e30c65d8bdc7e6b56262f309ac2f22df66098cd72eda936d4972d859fcd60"
)


def _spec(options: RunOptions) -> RunSpec:
    return RunSpec(
        algorithm="naive",
        topology=BASE_TOPOLOGY,
        machine=BASE_MACHINE,
        msg_size=1024,
        options=options,
    )


#: One variant per RunOptions field, each differing from the default in
#: exactly that field.  A new RunOptions field must be added here (the
#: completeness test below fails otherwise).
OPTION_VARIANTS = {
    "default": RunOptions(),
    "trace": RunOptions(trace=True),
    "noise_seed": RunOptions(noise_seed=7),
    "fault_plan": RunOptions(fault_plan=FaultPlan(seed=1)),
    "fallback": RunOptions(fallback="naive"),
    "max_sim_time": RunOptions(max_sim_time=1.0),
    "max_events": RunOptions(max_events=1000),
    "verify": RunOptions(verify=True),
    "sim_mode_auto": RunOptions(sim_mode="auto"),
    "on_failure_shrink": RunOptions(on_failure="shrink"),
    "on_failure_degrade": RunOptions(on_failure="degrade"),
}

#: FaultPlan variants: each embeds a plan differing in exactly one field
#: (or one nested rule field) from the empty plan.
FAULT_VARIANTS = {
    "empty_plan": FaultPlan(),
    "plan_seed": FaultPlan(seed=3),
    "link_fault": FaultPlan(link_faults=(LinkFault(alpha_factor=2.0),)),
    "link_fault_class": FaultPlan(
        link_faults=(LinkFault(alpha_factor=2.0,
                               link_class=LinkClass.INTER_NODE),)
    ),
    "link_fault_beta": FaultPlan(link_faults=(LinkFault(beta_factor=0.5),)),
    "link_fault_window": FaultPlan(
        link_faults=(LinkFault(alpha_factor=2.0, start=1e-3, end=2e-3),)
    ),
    "straggler": FaultPlan(stragglers=(Straggler(rank=1, startup_delay=1e-4),)),
    "straggler_rank": FaultPlan(
        stragglers=(Straggler(rank=2, startup_delay=1e-4),)
    ),
    "straggler_compute": FaultPlan(
        stragglers=(Straggler(rank=1, compute_factor=2.0),)
    ),
    "loss": FaultPlan(losses=(MessageLoss(probability=0.1),)),
    "loss_probability": FaultPlan(losses=(MessageLoss(probability=0.2),)),
    "loss_window": FaultPlan(
        losses=(MessageLoss(probability=0.1, start=1e-3, end=2e-3),)
    ),
    "retry_timeout": FaultPlan(retry=RetryPolicy(timeout=50e-6)),
    "retry_backoff": FaultPlan(retry=RetryPolicy(backoff=3.0)),
    "retry_max": FaultPlan(retry=RetryPolicy(max_retries=2)),
    "crash": FaultPlan(crashes=(RankCrash(rank=1),)),
    "crash_rank": FaultPlan(crashes=(RankCrash(rank=2),)),
    "crash_time": FaultPlan(crashes=(RankCrash(rank=1, time=1e-5),)),
    "detector_heartbeat": FaultPlan(
        detector=FailureDetector(heartbeat_interval=50e-6)
    ),
    "detector_suspicion": FaultPlan(
        detector=FailureDetector(suspicion_timeout=1e-3)
    ),
    "detector_none": FaultPlan(detector=None),
}


class TestOptionFieldsReachDigest:
    def test_every_option_field_changes_the_digest(self):
        digests = {name: _spec(opts).digest()
                   for name, opts in OPTION_VARIANTS.items()}
        for (a, da), (b, db) in itertools.combinations(digests.items(), 2):
            assert da != db, f"digest collision between {a!r} and {b!r}"

    def test_variant_table_covers_every_field(self):
        """Adding a RunOptions field without a digest-audit variant fails
        here — the audit table must grow with the dataclass."""
        fields = set(RunOptions.__dataclass_fields__)
        covered = {
            "trace", "noise_seed", "fault_plan", "fallback",
            "max_sim_time", "max_events", "verify", "sim_mode",
            "on_failure",
        }
        assert fields == covered, (
            f"RunOptions fields changed ({sorted(fields ^ covered)}); "
            "extend OPTION_VARIANTS and this set"
        )

    def test_fault_plan_fields_reach_digest(self):
        digests = {
            name: _spec(RunOptions(fault_plan=plan)).digest()
            for name, plan in FAULT_VARIANTS.items()
        }
        for (a, da), (b, db) in itertools.combinations(digests.items(), 2):
            assert da != db, f"digest collision between {a!r} and {b!r}"

    def test_digest_round_trips_through_serialization(self):
        for name, opts in OPTION_VARIANTS.items():
            spec = _spec(opts)
            restored = RunSpec.from_dict(spec.canonical())
            assert restored.digest() == spec.digest(), name


class TestDigestStability:
    def test_default_canonical_omits_sim_mode(self):
        """Digest-stability pin: sim_mode="des" must not appear in the
        canonical form, so digests computed before the field existed (and
        the cached results they address) remain valid."""
        assert "sim_mode" not in RunOptions().canonical()
        assert "sim_mode" not in _spec(RunOptions()).to_json()

    def test_non_default_sim_mode_is_emitted(self):
        assert RunOptions(sim_mode="auto").canonical()["sim_mode"] == "auto"

    def test_sim_mode_round_trips(self):
        for mode in ("des", "auto"):
            opts = RunOptions(sim_mode=mode)
            assert RunOptions.from_dict(opts.canonical()).sim_mode == mode

    def test_removed_analytic_mode_is_rejected(self):
        removed = "analytic"  # the closed-form mode auto no longer has
        with pytest.raises(ValueError, match="'des' or 'auto'"):
            RunOptions(sim_mode=removed)
        with pytest.raises(ValueError, match="'des' or 'auto'"):
            RunOptions.from_dict({"sim_mode": removed})

    def test_default_canonical_omits_crash_fields(self):
        """Digest-stability pin for the fail-stop additions: defaults for
        on_failure ("abort"), crashes (empty), and detector (the default
        FailureDetector) must not appear in canonical forms, so digests —
        and the cached results they address — from before these fields
        existed remain valid."""
        assert "on_failure" not in RunOptions().canonical()
        plan_dict = FaultPlan().to_dict()
        assert "crashes" not in plan_dict
        assert "detector" not in plan_dict
        assert "on_failure" not in _spec(RunOptions()).to_json()

    def test_non_default_crash_fields_are_emitted(self):
        assert RunOptions(on_failure="shrink").canonical()["on_failure"] == "shrink"
        crashy = FaultPlan(crashes=(RankCrash(rank=1, time=1e-5),)).to_dict()
        assert crashy["crashes"] == [{"rank": 1, "time": 1e-5}]
        assert FaultPlan(detector=None).to_dict()["detector"] is None
        tuned = FaultPlan(detector=FailureDetector(heartbeat_interval=50e-6))
        assert tuned.to_dict()["detector"]["heartbeat_interval"] == 50e-6

    def test_crash_fields_round_trip(self):
        for mode in ("abort", "shrink", "degrade"):
            opts = RunOptions(on_failure=mode)
            assert RunOptions.from_dict(opts.canonical()).on_failure == mode
        plan = FaultPlan(
            crashes=(RankCrash(rank=3, time=2e-6),),
            detector=FailureDetector(suspicion_timeout=1e-3),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_dict(FaultPlan(detector=None).to_dict()).detector is None


class TestAlgorithmNamesReachDigest:
    """Every registered backend is digest-visible: a sweep over the full
    registry can never alias two algorithms to one cache entry."""

    def test_every_registered_algorithm_digest_distinct(self):
        from repro.collectives.base import list_algorithms

        digests = {}
        for info in list_algorithms():
            spec = RunSpec(
                algorithm=info.name,
                topology=BASE_TOPOLOGY,
                machine=BASE_MACHINE,
                msg_size=1024,
            )
            digests[info.name] = spec.digest()
        assert "bruck" in digests
        collisions = len(digests) - len(set(digests.values()))
        assert collisions == 0, f"digest collisions across {sorted(digests)}"

    def test_bruck_locality_kwarg_reaches_digest(self):
        base = RunSpec("bruck", BASE_TOPOLOGY, BASE_MACHINE, 1024)
        node = RunSpec(
            "bruck", BASE_TOPOLOGY, BASE_MACHINE, 1024,
            algorithm_kwargs=(("locality", "node"),),
        )
        assert base.digest() != node.digest()

    def test_preexisting_digests_unchanged(self):
        """Golden pin: adding the bruck backend and the capability registry
        must not move any existing digest (cached results stay valid)."""
        spec = RunSpec("naive", BASE_TOPOLOGY, BASE_MACHINE, 1024,
                       options=RunOptions())
        assert spec.digest() == GOLDEN_NAIVE_DIGEST


class TestSelectorTableReachesDigest:
    """Adaptive-selection audit: an ``algorithm="auto"`` spec's outcome
    depends on the decision table it resolves against, so the table's
    content version must reach the digest — while named-algorithm specs
    (whose outcome the table cannot touch) keep their frozen digests."""

    def _auto(self) -> RunSpec:
        return RunSpec("auto", BASE_TOPOLOGY, BASE_MACHINE, 1024)

    def test_auto_pins_the_active_table_version(self):
        from repro.select.table import active_table_version

        spec = self._auto()
        assert spec.selector_table == active_table_version()
        assert spec.canonical()["selector_table"] == spec.selector_table

    def test_table_version_changes_the_digest(self):
        from dataclasses import replace

        spec = self._auto()
        other = replace(spec, selector_table="0" * 16)
        assert spec.digest() != other.digest()

    def test_different_tables_different_digests(self):
        from repro.select.table import DecisionTable, TableEntry, use_table

        tiny = DecisionTable(
            candidates=(("naive", ()),),
            entries={"xs/mid/regular/lat": TableEntry(
                ranking=("naive",), source="analytic")},
        )
        default_digest = self._auto().digest()
        use_table(tiny)
        try:
            assert self._auto().digest() != default_digest
        finally:
            use_table(None)

    def test_named_specs_omit_selector_table(self):
        """Digest-stability pin: selector_table must not appear in a
        named-algorithm spec's canonical form, so every digest from
        before ``auto`` existed — the golden naive pin above included —
        remains a valid cache address."""
        spec = _spec(RunOptions())
        assert "selector_table" not in spec.canonical()
        assert "selector_table" not in spec.to_json()
        assert spec.digest() == GOLDEN_NAIVE_DIGEST

    def test_named_spec_with_selector_table_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="selector_table"):
            RunSpec("naive", BASE_TOPOLOGY, BASE_MACHINE, 1024,
                    selector_table="0" * 16)

    def test_auto_round_trips_through_serialization(self):
        spec = self._auto()
        restored = RunSpec.from_dict(spec.canonical())
        assert restored.selector_table == spec.selector_table
        assert restored.digest() == spec.digest()
