"""Execution subsystem: declarative run specs, result cache, orchestrator.

``repro.exec`` is the layer between "I want these simulations" and "here
are their results": describe each run as a :class:`RunSpec`, hand the
sweep to :func:`execute`, and get deterministic, cacheable, parallelizable
results back in order.  See ``docs/ARCHITECTURE.md`` ("Execution &
caching") for the design.
"""

from repro.collectives.runner import DEFAULT_OPTIONS, RunOptions
from repro.exec.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    ResultCache,
    code_salt,
    default_cache_dir,
)
from repro.exec.orchestrator import (
    SpecOutcome,
    SweepResult,
    default_workers,
    execute,
)
from repro.exec.serialize import (
    FORMAT_VERSION,
    WALL_CLOCK_FIELDS,
    run_from_dict,
    run_to_dict,
)
from repro.exec.spec import (
    TOPOLOGY_KINDS,
    MachineSpec,
    RunSpec,
    TopologySpec,
)

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_OPTIONS",
    "FORMAT_VERSION",
    "TOPOLOGY_KINDS",
    "WALL_CLOCK_FIELDS",
    "CacheStats",
    "MachineSpec",
    "ResultCache",
    "RunOptions",
    "RunSpec",
    "SpecOutcome",
    "SweepResult",
    "TopologySpec",
    "code_salt",
    "default_cache_dir",
    "default_workers",
    "execute",
    "run_from_dict",
    "run_to_dict",
]
