"""The benchmark's workloads and the cells they run.

A *cell* is one ``RunSpec``: topology x message size x algorithm x run
mode.  Every workload is built from the same Fig. 5 slice (256 ranks,
Erdős–Rényi at densities 0.1 and 0.3, every bench-enrolled algorithm with
its registry ``bench_kwargs``, ``verify=True``), so the reference outputs
of one seed cover all three workloads.

Importing this module does not import ``repro``; the cell builders do, and
run only in the benchmark's child processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("sweep_cold", "replay_hot", "des_regime")

#: Topology seed of the Fig. 5 driver; the default ``--seed``.
DEFAULT_SEED = 23
DEFAULT_RANKS = 256
RANKS_PER_SOCKET = 8
DENSITIES = (0.1, 0.3)
SWEEP_SIZES = (8, 8 * 1024, 512 * 1024)
REGIME_SIZE = 8 * 1024
#: des_regime run modes: the figure drivers' clean DES, tracing, and the
#: resilience study's ``lossy`` fault profile.
REGIME_MODES = ("clean", "trace", "lossy")


@dataclass(frozen=True)
class Cell:
    """One unit of work and the reference entry its output must match."""

    key: str
    ref_key: str
    spec: Any  # repro.exec.RunSpec


def ref_key(algorithm: str, density: float, size: int, mode: str) -> str:
    """Reference entry name; ``trace`` cells share the ``clean`` entry,
    because tracing must not change simulated results."""
    mode = "clean" if mode == "trace" else mode
    return f"{algorithm}|d={density}|m={size}|{mode}"


def _bench_algorithms():
    from repro.collectives.base import list_algorithms

    return list_algorithms(requires=("bench",))


def _spec(info, density: float, size: int, seed: int, ranks: int, options):
    from repro.exec import MachineSpec, RunSpec, TopologySpec

    return RunSpec(
        algorithm=info.name,
        topology=TopologySpec("random", ranks, density=density, seed=seed),
        machine=MachineSpec.for_ranks(ranks, RANKS_PER_SOCKET),
        msg_size=size,
        algorithm_kwargs=dict(info.bench_kwargs),
        options=options,
    )


def _mode_options(mode: str, ranks: int, fault_seed: int, sim_mode: str = "des"):
    from repro.exec import RunOptions
    from repro.sim.faults import resilience_profiles

    if mode == "clean":
        return RunOptions(verify=True, sim_mode=sim_mode)
    if mode == "trace":
        return RunOptions(verify=True, trace=True)
    if mode == "lossy":
        return RunOptions(verify=True,
                          fault_plan=resilience_profiles(ranks, fault_seed)["lossy"])
    raise ValueError(f"unknown run mode {mode!r}")


def sweep_cells(seed: int, ranks: int, sim_mode: str = "auto") -> list[Cell]:
    """2 densities x 3 sizes x bench algorithms, clean runs."""
    options = _mode_options("clean", ranks, 0, sim_mode)
    cells = []
    for density in DENSITIES:
        for size in SWEEP_SIZES:
            for info in _bench_algorithms():
                key = ref_key(info.name, density, size, "clean")
                cells.append(Cell(key, key, _spec(info, density, size, seed,
                                                  ranks, options)))
    return cells


def regime_cells(seed: int, fault_seed: int, ranks: int) -> list[Cell]:
    """3 DES run modes x 2 densities x bench algorithms at 8 KiB."""
    cells = []
    for mode in REGIME_MODES:
        options = _mode_options(mode, ranks, fault_seed)
        for density in DENSITIES:
            for info in _bench_algorithms():
                key = f"{info.name}|d={density}|m={REGIME_SIZE}|{mode}"
                cells.append(Cell(key, ref_key(info.name, density, REGIME_SIZE, mode),
                                  _spec(info, density, REGIME_SIZE, seed, ranks,
                                        options)))
    return cells


def workload_cells(workload: str, seed: int, fault_seed: int, ranks: int) -> list[Cell]:
    if workload in ("sweep_cold", "replay_hot"):
        return sweep_cells(seed, ranks)
    if workload == "des_regime":
        return regime_cells(seed, fault_seed, ranks)
    raise ValueError(f"unknown workload {workload!r}; available: {WORKLOADS}")


def reference_cells(seed: int, fault_seed: int, ranks: int) -> list[Cell]:
    """Every distinct reference entry, as ``sim_mode="des"`` runs."""
    cells = sweep_cells(seed, ranks, sim_mode="des")
    cells += [c for c in regime_cells(seed, fault_seed, ranks)
              if c.key.endswith("|lossy")]
    return cells
