"""Child process of the benchmark: one workload, measured in whole passes.

Run by ``run.py``, never by hand.  Two roles:

``measure``
    Build the workload's cells, set them up (for ``replay_hot``: one
    pre-set-up algorithm instance per cell plus an untimed warm-up pass),
    then run whole passes over every cell until ``--budget`` seconds of
    timed work are done (or exactly ``--passes`` passes).  Every cell's
    ``simulated_time``, ``messages_sent`` and ``bytes_sent`` are compared
    with the reference.  With ``--trace`` the layer wrappers of
    ``tracer.py`` are installed after set-up and record the timed section.

``reference``
    Run every reference cell with ``sim_mode="des"`` and write the exact
    outputs as JSON; with ``--paths`` also record which execution path each
    workload's cells take.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from probe import SpeedTrack
from workloads import (
    DEFAULT_RANKS,
    WORKLOADS,
    reference_cells,
    workload_cells,
)

ROOT = Path(__file__).resolve().parents[1]
#: Failure messages kept per child (the count is always complete).
MAX_FAILURE_MESSAGES = 5


def _import_program():
    """Import ``repro`` and make sure it is the checkout's own copy."""
    import repro

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"imported repro from {where}, not from {ROOT / 'src'}")


def _outputs(run) -> list:
    return [run.simulated_time, run.messages_sent, run.bytes_sent]


class Check:
    """Compares cell outputs with the reference and tallies the run."""

    def __init__(self, reference: dict[str, list]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.messages: list[str] = []
        #: messages_sent summed over the runs that matched their reference
        self.sim_messages = 0
        self.paths: Counter = Counter()
        self.faults: Counter = Counter()

    def record(self, cell, run, error: str | None = None) -> None:
        self.attempted += 1
        if error is None:
            want = self.reference.get(cell.ref_key)
            got = _outputs(run)
            if want is None:
                error = "no reference entry"
            elif got != want:
                error = f"outputs {got} differ from reference {want}"
        if error is not None:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(f"{cell.key}: {error}")
            return
        self.ok += 1
        self.sim_messages += run.messages_sent
        self.paths[run.sim_path] += 1
        for key, value in (run.fault_stats or {}).items():
            self.faults[key] += value

    def add_failures(self, other: "Check") -> None:
        """Fold in another check's attempts and failures (not its work)."""
        self.attempted += other.attempted
        self.failed += other.failed
        room = MAX_FAILURE_MESSAGES - len(self.messages)
        self.messages.extend(other.messages[:max(0, room)])


class Samples:
    """Host seconds of every timed run of each cell, with the probe that
    preceded it (see ``probe.py``)."""

    def __init__(self, track: SpeedTrack):
        self.track = track
        self.runs: dict[str, list[tuple[float, int]]] = {}

    def add(self, key: str, seconds: float, probe_index: int) -> None:
        self.runs.setdefault(key, []).append((seconds, probe_index))

    def export(self) -> dict[str, list[list[float]]]:
        """``{cell key: [[raw ms, speed factor], ...]}``."""
        factor = self.track.factor
        return {key: [[s * 1e3, factor(i)] for s, i in runs]
                for key, runs in self.runs.items()}


class PlanCacheDelta:
    """Sums ``plan_cache_stats()`` counter deltas over timed passes."""

    FIELDS = ("hits", "misses", "evictions")

    def __init__(self):
        self.totals = Counter()
        self._before: dict | None = None

    def begin(self) -> None:
        from repro.sim.plancache import plan_cache_stats

        self._before = plan_cache_stats()

    def end(self) -> None:
        from repro.sim.plancache import plan_cache_stats

        after = plan_cache_stats()
        for field in self.FIELDS:
            self.totals[field] += after[field] - self._before[field]


class SweepWorkload:
    """Cells through ``repro.exec.execute(workers=1)``, cold every pass:
    a fresh result cache and an emptied plan cache per pass."""

    def __init__(self, cells, workdir: Path):
        self.cells = cells
        self.specs = [cell.spec for cell in cells]
        self.workdir = workdir
        self.exec_cache = Counter()

    def setup(self, check: Check) -> None:
        pass

    def run_pass(self, check: Check, samples: Samples, plan: PlanCacheDelta) -> None:
        import repro.exec
        from repro.sim.plancache import reset_plan_cache

        reset_plan_cache()
        cache = repro.exec.ResultCache(tempfile.mkdtemp(dir=self.workdir))
        keys = {id(cell.spec): cell.key for cell in self.cells}
        track = samples.track
        track.due()
        index, last = track.index, time.perf_counter()

        def progress(done, total, outcome):
            nonlocal index, last
            samples.add(keys[id(outcome.spec)], time.perf_counter() - last, index)
            track.due()
            index, last = track.index, time.perf_counter()

        plan.begin()
        result = repro.exec.execute(self.specs, workers=1, cache=cache,
                                    progress=progress)
        plan.end()
        for cell, outcome in zip(self.cells, result.outcomes):
            check.record(cell, outcome.run, outcome.error)
        for key in ("hits", "misses"):
            self.exec_cache[key] += result.stats.get("cache", {}).get(key, 0)


class ReplayWorkload:
    """Pre-set-up instances replayed round-robin through ``run_allgather``."""

    def __init__(self, cells):
        self.cells = cells
        self.exec_cache = Counter()
        self.bound: list[tuple] = []

    def setup(self, check: Check) -> None:
        from repro.collectives.base import get_algorithm

        built: dict = {}
        for cell in self.cells:
            spec = cell.spec
            if spec.topology not in built:
                built[spec.topology] = spec.topology.build()
            if spec.machine not in built:
                built[spec.machine] = spec.machine.build()
            topology, machine = built[spec.topology], built[spec.machine]
            algorithm = get_algorithm(spec.algorithm, **dict(spec.algorithm_kwargs))
            algorithm.setup(topology, machine)
            self.bound.append((cell, algorithm, topology, machine))
        # The warm-up pass is checked too, but its work is not timed.
        warmup = Check(check.reference)
        self.run_pass(warmup, Samples(SpeedTrack(enabled=False)), PlanCacheDelta())
        check.add_failures(warmup)

    def run_pass(self, check: Check, samples: Samples, plan: PlanCacheDelta) -> None:
        import repro.collectives.runner as runner

        plan.begin()
        track = samples.track
        for cell, algorithm, topology, machine in self.bound:
            spec = cell.spec
            track.due()
            start = time.perf_counter()
            try:
                run = runner.run_allgather(algorithm, topology, machine,
                                           spec.msg_size, options=spec.options)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed cell is data
                run, error = None, f"{type(exc).__name__}: {exc}"
            samples.add(cell.key, time.perf_counter() - start, track.index)
            check.record(cell, run, error)
        plan.end()


def measure(args) -> dict:
    track = SpeedTrack(enabled=args.probe)
    track.take()
    _import_program()
    from repro.sim.plancache import reset_plan_cache

    reset_plan_cache()
    reference = json.loads(Path(args.reference).read_text())["cells"]
    cells = workload_cells(args.workload, args.seed, args.fault_seed, args.ranks)
    workdir = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        if args.workload == "replay_hot":
            workload = ReplayWorkload(cells)
        else:
            workload = SweepWorkload(cells, workdir)
        check = Check(reference)
        workload.setup(check)

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        from tracer import installed_wrappers

        wrappers = installed_wrappers()
        samples = Samples(track)
        plan = PlanCacheDelta()
        passes = 0
        first_cell = time.clock_gettime(time.CLOCK_MONOTONIC)
        track.take()
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        while (passes < args.passes if args.passes
               else passes == 0 or time.perf_counter() - start < args.budget):
            workload.run_pass(check, samples, plan)
            passes += 1
        timed = time.perf_counter() - start
        track.take()
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lookups = plan.totals["hits"] + plan.totals["misses"]
    stats = {
        "sim.plancache.hits": plan.totals["hits"],
        "sim.plancache.misses": plan.totals["misses"],
        "sim.plancache.evictions": plan.totals["evictions"],
        "sim.plancache.hit_ratio": plan.totals["hits"] / lookups if lookups else 0.0,
        "sim.faults.retransmissions": check.faults["retransmissions"],
        "sim.faults.drops": check.faults["drops"],
        "exec.cache.hits": workload.exec_cache["hits"],
        "exec.cache.misses": workload.exec_cache["misses"],
        "path.fastpath": check.paths["fastpath"],
        "path.analytic": check.paths["analytic"],
        "path.des": check.paths["des"],
    }
    out = {
        "setup_s": first_cell - args.spawned_at,
        "setup_factor": track.factor(0),
        "timed_s": timed,
        "passes": passes,
        "cells_per_pass": len(cells),
        "attempted": check.attempted,
        "failed": check.failed,
        "ok_cells": check.ok,
        "sim_messages": check.sim_messages,
        "samples_ms": samples.export(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "paths": dict(check.paths),
        "stats": stats,
        "failures": check.messages,
        "wrappers_installed": wrappers,
    }
    if tracer is not None:
        out["trace"] = tracer.report(timed)
        out["absent_layers"] = tracer.absent
    return out


def record_reference(args) -> dict:
    _import_program()
    import repro.exec

    cells = reference_cells(args.seed, args.fault_seed, args.ranks)
    result = repro.exec.execute([c.spec for c in cells], workers=1)
    result.raise_errors()
    out = {
        "seed": args.seed,
        "fault_seed": args.fault_seed,
        "ranks": args.ranks,
        "fields": ["simulated_time", "messages_sent", "bytes_sent"],
        "cells": {c.ref_key: _outputs(run) for c, run in zip(cells, result.runs)},
    }
    if args.paths:
        paths = {}
        for workload in WORKLOADS:
            wl_cells = workload_cells(workload, args.seed, args.fault_seed, args.ranks)
            runs = repro.exec.execute([c.spec for c in wl_cells], workers=1)
            runs.raise_errors()
            paths[workload] = dict(Counter(run.sim_path for run in runs.runs))
        out["paths"] = paths
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("measure", "reference"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fault-seed", type=int, required=True)
    parser.add_argument("--ranks", type=int, default=DEFAULT_RANKS)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="probe host speed between cells (untraced runs)")
    parser.add_argument("--reference")
    parser.add_argument("--paths", action="store_true")
    parser.add_argument("--workdir")
    parser.add_argument("--spawned-at", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.role == "measure":
        out = measure(args)
    else:
        out = record_reference(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
