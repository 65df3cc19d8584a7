"""Benchmark of record: cold sweep, hot replay and DES-regime workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 23 --seconds 20 --trace 0

Each workload runs in fresh single-process children (``perfbench/worker.py``),
so every run pays interpreter start, ``import repro`` and input
construction, which is what ``setup_s`` measures.  With ``--trace 0`` three
children each set up and then measure a share of ``--seconds`` in whole
passes; the end-to-end metrics are taken over every timed cell run of the
three and ``setup_s`` is the median of the three set-ups.  Host times are
scaled to a nominal machine by the speed probe of ``perfbench/probe.py``;
the detail line gives the unscaled figures too.  With ``--trace 1`` one
untraced child (without the probe) and one traced child run the same
number of passes; the traced child reports the per-layer metrics of
``perfbench/tracer.py`` and the ratio of the two walls is
``trace.overhead_ratio``.

Every cell's ``simulated_time``, ``messages_sent`` and ``bytes_sent`` must
equal the reference bit for bit.  References for seed 23 and for seed 5
are committed under ``perfbench/references``; seed 5 is the held-out seed,
on which a claimed gain is rechecked and which is not used while a change
is written.  For any other seed the reference is computed once with
``sim_mode="des"`` and kept under ``perfbench/.work``.  Regenerate a
committed reference with::

    python3 perfbench/run.py --record-reference --seed 23

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when
every cell matched, 1 when any cell failed, 2 when the benchmark could not
run (for example, no program source next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_specs
from workloads import DEFAULT_RANKS, DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
WORK = HERE / ".work"
#: Children per untraced run; ``setup_s`` is the median of their set-ups.
CHILDREN = 3
#: Wall budget for one whole run, in seconds.
RUN_TIMEOUT = 170.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "cells_per_s": "1/s",
    "sim_msgs_per_s": "1/s",
    "cell_p50_ms": "ms",
    "cell_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a cell failing)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    # Identical import work whatever the caller's environment, and no
    # bytecode files written into the checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; its last stdout line is the result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run exceeded its time budget")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("child exceeded the run's time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with status {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"worker {args[0]} printed no result") from None


def reference_name(seed: int, fault_seed: int, ranks: int) -> str:
    return f"s{seed}-f{fault_seed}-n{ranks}.json"


def resolve_reference(opts, deadline: float) -> tuple[Path, str]:
    """Path of the reference for this run, and where it came from."""
    name = reference_name(opts.seed, opts.fault_seed, opts.ranks)
    if (REFERENCES / name).is_file():
        return REFERENCES / name, "committed"
    cached = WORK / "references" / name
    if not cached.is_file():
        data = run_child(["reference", *_seed_args(opts)], deadline)
        cached.parent.mkdir(parents=True, exist_ok=True)
        tmp = cached.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(data, indent=1) + "\n")
        os.replace(tmp, cached)
    return cached, "computed"


def _seed_args(opts) -> list[str]:
    return ["--seed", str(opts.seed), "--fault-seed", str(opts.fault_seed),
            "--ranks", str(opts.ranks)]


def measure_child(opts, reference: Path, deadline: float, *, budget: float = 0.0,
                  passes: int = 0, trace: bool = False, probe: bool = True) -> dict:
    args = ["measure", "--workload", opts.workload, *_seed_args(opts),
            "--reference", str(reference), "--workdir", str(WORK),
            "--budget", repr(budget), "--passes", str(passes)]
    if trace:
        args.append("--trace")
    elif probe:
        args.append("--probe")
    return run_child(args, deadline)


def sample_times(children: list[dict], scaled: bool = True) -> list[float]:
    """Milliseconds of every timed cell run, each divided by its host-speed
    factor unless ``scaled`` is false."""
    return [ms / factor if scaled else ms for child in children
            for runs in child["samples_ms"].values() for ms, factor in runs]


def end_to_end(children: list[dict], scaled: bool = True) -> dict[str, float]:
    """Throughput and latency over every timed cell run, in nominal-host
    seconds (see ``probe.py``), so that load from outside does not move them."""
    times = sorted(sample_times(children, scaled))
    seconds = sum(times) / 1e3
    return {
        "cells_per_s": sum(c["ok_cells"] for c in children) / seconds,
        "sim_msgs_per_s": sum(c["sim_messages"] for c in children) / seconds,
        "cell_p50_ms": statistics.median(times),
        "cell_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8],
        "setup_s": statistics.median(
            c["setup_s"] / (c["setup_factor"] if scaled else 1.0) for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    metrics = dict(traced["trace"])
    metrics.update(traced["stats"])
    metrics["trace.overhead_ratio"] = traced["timed_s"] / untraced["timed_s"]
    return metrics


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")


def run_workload(opts) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, detail)."""
    _require_source()
    deadline = time.monotonic() + RUN_TIMEOUT
    WORK.mkdir(parents=True, exist_ok=True)
    reference, source = resolve_reference(opts, deadline)
    ref_data = json.loads(reference.read_text())

    if opts.trace:
        # No probe in the untraced child: its wall is the denominator of
        # trace.overhead_ratio and the traced child does not probe either.
        untraced = measure_child(opts, reference, deadline, budget=opts.seconds / 2,
                                 probe=False)
        traced = measure_child(opts, reference, deadline, passes=untraced["passes"],
                               trace=True)
        children = [untraced, traced]
        metrics = per_layer(untraced, traced)
        units = {name: unit for name, unit, _ in metric_specs()}
        raw = None
    else:
        children = []
        for i in range(CHILDREN):
            used = sum(c["timed_s"] for c in children)
            budget = max(0.0, (opts.seconds - used) / (CHILDREN - i))
            children.append(measure_child(opts, reference, deadline, budget=budget))
        metrics = end_to_end(children)
        units = END_TO_END
        raw = end_to_end(children, scaled=False)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    paths: dict[str, int] = {}
    for child in children:
        for path, n in child["paths"].items():
            paths[path] = paths.get(path, 0) + n
    passes = sum(c["passes"] for c in children)
    per_pass = {path: n / passes for path, n in sorted(paths.items())}
    recorded = (ref_data.get("paths") or {}).get(opts.workload)
    detail = {
        "workload": opts.workload,
        "seed": opts.seed,
        "fault_seed": opts.fault_seed,
        "ranks": opts.ranks,
        "reference": source,
        "children": len(children),
        "passes": [c["passes"] for c in children],
        "samples": sum(len(t) for c in children for t in c["samples_ms"].values()),
        "cells": len({key for c in children for key in c["samples_ms"]}),
        "setup_s": [c["setup_s"] for c in children],
        "unscaled": raw,
        "speed_factor": statistics.median(
            f for c in children for runs in c["samples_ms"].values() for _, f in runs),
        "failed_frac": failed / attempted,
        "paths_per_pass": per_pass,
        "paths_match_reference": None if recorded is None else per_pass == recorded,
        "wrappers_installed": [c["wrappers_installed"] for c in children],
        "absent_layers": sorted({a for c in children for a in c.get("absent_layers", ())}),
        "failures": [m for c in children for m in c["failures"]][:10],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return result, detail


def record(opts) -> int:
    """Write the committed reference for ``--seed``/``--fault-seed``."""
    _require_source()
    deadline = time.monotonic() + 10 * RUN_TIMEOUT
    data = run_child(["reference", "--paths", *_seed_args(opts)], deadline)
    data["recorded_with"] = (
        f"python3 perfbench/run.py --record-reference --seed {opts.seed} "
        f"--fault-seed {opts.fault_seed}"
        + ("" if opts.ranks == DEFAULT_RANKS else f" --ranks {opts.ranks}")
    )
    path = REFERENCES / reference_name(opts.seed, opts.fault_seed, opts.ranks)
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(data['cells'])} cells)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold-sweep, hot-replay and DES-regime benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="topology seed (default: %(default)s, the Fig. 5 seed)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="seed of the lossy fault plan (default: --seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per run, split across children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ranks", type=int, default=DEFAULT_RANKS,
                        help="communicator size (smaller only for self-tests)")
    parser.add_argument("--record-reference", action="store_true",
                        help="write perfbench/references/ for --seed and exit")
    opts = parser.parse_args(argv)
    if opts.fault_seed is None:
        opts.fault_seed = opts.seed
    try:
        if opts.record_reference:
            return record(opts)
        if opts.workload is None:
            parser.error("--workload is required")
        result, detail = run_workload(opts)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
