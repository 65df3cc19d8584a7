"""Smoke-size tests of the benchmark itself (32 ranks, sub-second budgets).

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracer
from conftest import BENCH, ROOT
from workloads import WORKLOADS

SMOKE = ["--ranks", "32", "--seconds", "0.3"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[int, dict, dict]:
    """Run the benchmark command; returns (exit status, result, detail)."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
    return proc.returncode, json.loads(lines[-1]), detail


@pytest.fixture(scope="module")
def runs():
    cache: dict = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            cache[workload, trace] = bench("--workload", workload,
                                           "--trace", str(trace), *SMOKE)
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(runs, workload):
    status, result, detail = runs(workload, 0)
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    path = "des" if workload == "des_regime" else "fastpath"
    assert detail["paths_per_pass"] == {path: 24.0}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted_with_its_unit(runs, workload):
    status, result, detail = runs(workload, 1)
    assert status == 0 and result["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert detail["absent_layers"] == []


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(spec) for spec in tracer.metric_specs()]
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    assert list(layers) == [layer.name for layer in tracer.LAYERS]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_children_install_no_wrapper(runs, workload):
    assert runs(workload, 0)[2]["wrappers_installed"] == [0] * run.CHILDREN
    untraced, traced = runs(workload, 1)[2]["wrappers_installed"]
    assert untraced == 0
    assert traced == sum(len(layer.targets) for layer in tracer.LAYERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_wall_minus_unattributed(runs, workload):
    metrics = {k: m["value"] for k, m in runs(workload, 1)[1]["metrics"].items()}
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    attributed = metrics["trace.wall_s"] - metrics["trace.unattributed_s"]
    assert self_sum == pytest.approx(attributed, rel=1e-9, abs=1e-9)
    assert attributed >= 0.9 * metrics["trace.wall_s"]


def test_corrupted_reference_is_a_failure():
    # A seed no other test uses, so its computed reference is this test's own.
    seed = "9001"
    reference = run.WORK / "references" / run.reference_name(9001, 9001, 32)
    reference.unlink(missing_ok=True)
    try:
        status, result, detail = bench("--workload", "sweep_cold", "--seed", seed,
                                       *SMOKE)
        assert status == 0 and detail["reference"] == "computed"
        data = json.loads(reference.read_text())
        key = "naive|d=0.3|m=8192|clean"
        data["cells"][key][1] += 1  # one message more than the program sends
        reference.write_text(json.dumps(data))

        status, result, detail = bench("--workload", "sweep_cold", "--seed", seed,
                                       *SMOKE)
    finally:
        reference.unlink(missing_ok=True)
    assert status == 1
    assert result["correct"] is False
    passes = sum(detail["passes"])
    assert result["failed"] == passes  # the corrupted cell, once per pass
    assert result["attempted"] == 24 * passes
    assert detail["failures"][0].startswith(key)


def test_tracer_restores_originals_and_reports_absent_layers(monkeypatch):
    import repro.collectives.runner as runner
    from repro.collectives.base import NeighborhoodAllgatherAlgorithm

    gone = tracer.Layer("gone", (("repro.sim.fastpath", "no_such_function"),
                                 ("repro.no_such_module", "f")))
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (gone,))
    originals = (runner.run_allgather, NeighborhoodAllgatherAlgorithm.setup)
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["gone"]
        assert tracer.installed_wrappers() == sum(
            len(layer.targets) for layer in tracer.LAYERS[:-1])
        assert runner.run_allgather is not originals[0]
    finally:
        t.uninstall()
    assert (runner.run_allgather, NeighborhoodAllgatherAlgorithm.setup) == originals
    assert tracer.installed_wrappers() == 0


def test_nested_spans_give_self_times():
    import dataclasses

    import repro.exec
    from workloads import sweep_cells

    spec = sweep_cells(seed=3, ranks=16)[0].spec
    # A block-size list of the wrong length raises inside run_allgather, so
    # one span closes by an exception.
    broken = dataclasses.replace(spec, msg_size=(8, 8, 8))
    t = tracer.Tracer()
    t.install()
    try:
        t.recording = True
        start = tracer.perf_counter()
        result = repro.exec.execute([spec, broken], workers=1)
        wall = tracer.perf_counter() - start
        t.recording = False
    finally:
        t.uninstall()
    assert result.outcomes[0].ok
    assert result.outcomes[1].error.startswith("ValueError")
    report = t.report(wall)
    assert report["exec.orchestrator.calls"] == 1
    assert report["collectives.runner.calls"] == 2
    assert report["collectives.setup.protocol_messages"] == 0  # naive negotiates nothing
    assert report["collectives.schedule.sends"] == result.runs[0].messages_sent
    assert report["sim.fastpath.replay.events"] > 0
    self_sum = sum(v for k, v in report.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(wall - report["trace.unattributed_s"], rel=1e-9)
    assert all(v >= 0 for k, v in report.items() if k.endswith(".self_s"))


def test_source_less_directory_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sweep_cold", *SMOKE], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
