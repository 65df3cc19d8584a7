"""Unit tests for sweep helpers."""

import pytest

from repro.bench.sweep import best_common_neighbor, speedup_over, sweep_latency
from repro.topology import erdos_renyi_topology


class TestSweepLatency:
    def test_one_record_per_size(self, small_machine, small_topology):
        records = sweep_latency("naive", small_topology, small_machine, ("64", "4KB"))
        assert [r.msg_size for r in records] == [64, 4096]
        assert all(r.algorithm == "naive" for r in records)
        assert records[0].simulated_time < records[1].simulated_time

    def test_msg_label(self, small_machine, small_topology):
        records = sweep_latency("naive", small_topology, small_machine, ("4KB",))
        assert records[0].msg_label == "4KB"

    def test_setup_amortized_across_sizes(self, small_machine, small_topology):
        records = sweep_latency(
            "distance_halving", small_topology, small_machine, ("64", "4KB", "64KB")
        )
        details = [r.detail["data_messages_per_call"] for r in records]
        assert details[0] == details[1] == details[2]


class TestBestCommonNeighbor:
    def test_picks_minimum_per_size(self, small_machine):
        topo = erdos_renyi_topology(small_machine.spec.n_ranks, 0.5, seed=31)
        sizes = ("64", "64KB")
        best = best_common_neighbor(topo, small_machine, sizes, ks=(1, 2, 4))
        for i, size in enumerate(sizes):
            per_k = [
                sweep_latency("common_neighbor", topo, small_machine, (size,), k=k)[0]
                for k in (1, 2, 4)
            ]
            assert best[i].simulated_time == min(r.simulated_time for r in per_k)
            assert best[i].detail["best_k"] in (1, 2, 4)


class TestSpeedupOver:
    def test_ratio(self, small_machine, small_topology):
        naive = sweep_latency("naive", small_topology, small_machine, ("64",))
        dh = sweep_latency("distance_halving", small_topology, small_machine, ("64",))
        (size, ratio), = speedup_over(naive, dh)
        assert size == 64
        assert ratio == pytest.approx(naive[0].simulated_time / dh[0].simulated_time)

    def test_mismatched_lengths_rejected(self, small_machine, small_topology):
        a = sweep_latency("naive", small_topology, small_machine, ("64",))
        b = sweep_latency("naive", small_topology, small_machine, ("64", "128"))
        with pytest.raises(ValueError, match="different lengths"):
            speedup_over(a, b)

    def test_mismatched_sizes_rejected(self, small_machine, small_topology):
        a = sweep_latency("naive", small_topology, small_machine, ("64",))
        b = sweep_latency("naive", small_topology, small_machine, ("128",))
        with pytest.raises(ValueError, match="size mismatch"):
            speedup_over(a, b)


class TestSmokeSweep:
    def test_cold_then_warm_answers_from_cache(self, tmp_path):
        from repro.bench.config import SweepConfig
        from repro.bench.sweep import smoke_sweep

        cold = smoke_sweep(SweepConfig(cache_dir=tmp_path, use_cache=True))
        warm = smoke_sweep(
            SweepConfig(cache_dir=tmp_path, use_cache=True, workers=2)
        )
        assert cold["execution"]["computed"] == cold["execution"]["total"]
        assert warm["execution"]["from_cache"] == warm["execution"]["total"]
        assert warm["execution"]["cache"]["hit_rate"] == 1.0
        # The determinism contract: cached records == computed records.
        assert warm["records"] == cold["records"]

    def test_cacheless_run_computes_everything(self):
        from repro.bench.config import SweepConfig
        from repro.bench.sweep import smoke_sweep

        report = smoke_sweep(SweepConfig())
        assert report["execution"]["computed"] == report["execution"]["total"]
        assert "cache" not in report["execution"]


class TestPaperSmokeSweep:
    """Shape test at a tiny rank count; CI runs the real 2160-rank slice."""

    def test_runs_in_auto_mode_and_reports_sim_path(self, tmp_path):
        from repro.bench.config import SweepConfig
        from repro.bench.sweep import paper_smoke_sweep

        cold = paper_smoke_sweep(
            SweepConfig(cache_dir=tmp_path, use_cache=True),
            ranks=32, ranks_per_socket=4,
        )
        assert cold["sim_mode"] == "auto"
        assert cold["execution"]["computed"] == cold["execution"]["total"]
        # Auto mode must never silently fall back to the engine here: the
        # slice has no faults, no trace, and a jitter-free machine.
        assert all(r["sim_path"] == "fastpath" for r in cold["records"])
        warm = paper_smoke_sweep(
            SweepConfig(cache_dir=tmp_path, use_cache=True),
            ranks=32, ranks_per_socket=4,
        )
        assert warm["execution"]["cache"]["hit_rate"] == 1.0
        # sim_path must survive the cache round-trip (serialize.py).
        assert warm["records"] == cold["records"]
