"""Worker-crash retry: a dying worker must not kill or corrupt the sweep.

Real process deaths are injected through the orchestrator's chaos marker
protocol (``$REPRO_CHAOS_DIR``): a ``kill-<digest>`` marker makes the
worker executing that spec ``os._exit(137)`` once, a ``poison-<digest>``
marker kills every attempt.  The contract under test: killed specs are
retried on a fresh pool and complete with ``attempts >= 2``, poison specs
are quarantined as ``WorkerCrashed`` error outcomes after ``MAX_ATTEMPTS``,
bystander specs always survive, and the manifest records the attempt
count.
"""

import json

import pytest

from repro.exec.orchestrator import CHAOS_ENV, MAX_ATTEMPTS, execute
from repro.exec.spec import MachineSpec, RunSpec, TopologySpec
from tests.exec.test_orchestrator import report


def sweep_specs():
    topology = TopologySpec("random", 8, density=0.4, seed=11)
    machine = MachineSpec.for_ranks(8, ranks_per_socket=4)
    return [
        RunSpec("naive", topology, machine, size)
        for size in (128, 512, 2048)
    ]


def read_manifest(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestWorkerRetry:
    def test_killed_worker_retried_to_completion(self, tmp_path, monkeypatch):
        specs = sweep_specs()
        victim = 1
        monkeypatch.setenv(CHAOS_ENV, str(tmp_path))
        (tmp_path / f"kill-{specs[victim].digest()[:12]}").write_text("")
        manifest = tmp_path / "manifest.jsonl"

        sweep = execute(specs, workers=2, manifest_path=manifest)
        sweep.raise_errors()
        assert 2 <= sweep.outcomes[victim].attempts <= MAX_ATTEMPTS
        assert sweep.stats["retried"] >= 1
        # The kill marker was atomically claimed: exactly one death.
        assert (tmp_path / f"killed-{specs[victim].digest()[:12]}").exists()
        entries = {e["digest"]: e for e in read_manifest(manifest)}
        entry = entries[specs[victim].digest()]
        assert entry["status"] == "ok"
        assert entry["attempts"] == sweep.outcomes[victim].attempts

    def test_poison_spec_quarantined_not_hung(self, tmp_path, monkeypatch):
        specs = sweep_specs()
        monkeypatch.setenv(CHAOS_ENV, str(tmp_path))
        (tmp_path / f"poison-{specs[0].digest()[:12]}").write_text("")
        manifest = tmp_path / "manifest.jsonl"

        sweep = execute(specs, workers=2, manifest_path=manifest)
        bad = sweep.outcomes[0]
        assert not bad.ok
        assert bad.error.startswith("WorkerCrashed")
        assert bad.attempts == MAX_ATTEMPTS
        # Bystanders complete; the sweep never crashes wholesale.
        assert all(o.ok for o in sweep.outcomes[1:])
        entries = {e["digest"]: e for e in read_manifest(manifest)}
        entry = entries[specs[0].digest()]
        assert entry["status"] == "error"
        assert entry["attempts"] == MAX_ATTEMPTS

    def test_serial_execution_ignores_markers(self, tmp_path, monkeypatch):
        # The marker protocol only fires inside pool workers: a serial
        # (in-process) run must never os._exit the caller.
        specs = sweep_specs()
        monkeypatch.setenv(CHAOS_ENV, str(tmp_path))
        for spec in specs:
            (tmp_path / f"kill-{spec.digest()[:12]}").write_text("")
        sweep = execute(specs, workers=1)
        sweep.raise_errors()
        assert all(o.attempts == 1 for o in sweep.outcomes)

    def test_attempts_default_to_one(self):
        sweep = execute(sweep_specs(), workers=2)
        sweep.raise_errors()
        assert all(o.attempts == 1 for o in sweep.outcomes)
        assert sweep.stats["retried"] == 0


class TestRetryInsideGroup:
    """The three specs of ``sweep_specs`` form one group; on two workers it
    runs as two chunks, ``[0, 1]`` and ``[2]``.  A worker sends each spec's
    result back as it completes, so a death on the middle spec strands
    only the specs not yet sent; each stranded spec is retried on its own."""

    def test_kill_on_middle_spec_of_a_group(self, tmp_path, monkeypatch):
        specs = sweep_specs()
        assert len({spec.group_key() for spec in specs}) == 1
        serial = execute(specs, workers=1).raise_errors()
        monkeypatch.setenv(CHAOS_ENV, str(tmp_path))
        (tmp_path / f"kill-{specs[1].digest()[:12]}").write_text("")
        manifest = tmp_path / "manifest.jsonl"

        sweep = execute(specs, workers=2, manifest_path=manifest).raise_errors()
        assert sweep.stats["groups"] == 2
        assert report(sweep, strip_wall=True) == report(serial, strip_wall=True)
        # The victim died once (its marker was claimed) and its retry ran
        # alone; its chunk-mate had finished and was sent back before the
        # death, so it landed once and is not recomputed.
        assert (tmp_path / f"killed-{specs[1].digest()[:12]}").exists()
        assert sweep.outcomes[1].attempts == 2
        assert sweep.outcomes[0].attempts == 1
        assert sweep.outcomes[2].attempts in (1, 2)
        assert sweep.stats["retried"] == sum(
            o.attempts > 1 for o in sweep.outcomes)
        entries = read_manifest(manifest)
        assert sorted(e["digest"] for e in entries) == sorted(
            s.digest() for s in specs)

    def test_poison_quarantines_only_the_poisoned_spec(self, tmp_path,
                                                       monkeypatch):
        specs = sweep_specs()
        serial = execute(specs, workers=1).raise_errors()
        monkeypatch.setenv(CHAOS_ENV, str(tmp_path))
        (tmp_path / f"poison-{specs[1].digest()[:12]}").write_text("")

        sweep = execute(specs, workers=2)
        assert [o.ok for o in sweep.outcomes] == [True, False, True]
        bad = sweep.outcomes[1]
        assert bad.error.startswith("WorkerCrashed")
        assert bad.attempts == MAX_ATTEMPTS
        assert sweep.stats["failed"] == 1
        assert [sweep.runs[0].simulated_time, sweep.runs[2].simulated_time] == [
            serial.runs[0].simulated_time, serial.runs[2].simulated_time]
