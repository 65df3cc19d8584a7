"""Cross-run compiled-plan cache for the hybrid fast path.

:mod:`repro.sim.fastpath` compiles a :class:`~repro.sim.schedule.Schedule`
into a priced executor plan in two steps: a size-free *structure* (matching
slots, wake order, segment layout, per-send endpoints, NIC/lane ids and
cost cohorts) and a *pricing pass* that turns it into a ready-to-run plan
for one block size.  Both are pure overhead when a sweep revisits the same
schedule shape on the same machine, which Fig. 5-style grids do constantly
(every message size over one pattern, every repeat, every warm bench pass).

This module provides the process-wide memo for both products: one bounded
LRU keyed on *structure*, not identity —

* ``(schedule digest, machine digest)`` -> the plan structure, one per
  (pattern, machine), shared by every message size;
* ``(schedule digest, machine digest, block_size)`` -> the priced plan the
  executor runs, one per (pattern, machine, size).

The schedule half is :func:`repro.sim.schedule.structural_digest` (rank
count + full op streams: the compiler's exact input), so two ``Schedule``
objects describing the same communication pattern — e.g. rebuilt by a
fresh algorithm instance for the same topology cell — share entries (the
isomorphic-neighborhood reuse from Träff et al.).  Uniform-size schedules
are written in block units, so their digest does not depend on the message
size.  The machine half is :attr:`Machine.digest
<repro.cluster.machine.Machine.digest>`, which the machine derives from its
own fields by a structural walk and memoizes on itself (cluster shape,
every Hockney constant, the network topology's constructor state including
placement permutations) — everything that can influence a plan.

A lookup asks for the priced plan first and for the structure only on a
miss; both lookups count in the stats.  Cached values hold only plain
numbers, tuples, lists and numpy arrays — never a ``Machine`` or ``Schedule``
reference — so retention cannot leak simulation state.  ``None`` results
(a schedule with an unmatched receive) are cached at both levels: deciding
that costs a matching walk.

Stats (hits/misses/evictions) are process-global and surfaced through
``repro.exec`` sweep reports and the wallclock harness payload; see
:func:`plan_cache_stats`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

#: Default LRU capacity.  Plans for paper-scale schedules are megabytes, so
#: the bound stays modest — but it must hold a whole bench grid (one
#: structure per (schedule, machine) pair plus one priced plan per size):
#: evicting mid-grid forfeits the warm-repeat hits the cache exists for.
DEFAULT_MAX_ENTRIES = 128

_MISS = object()


class PlanCache:
    """Bounded LRU over structural keys (see the module docstring)."""

    __slots__ = ("max_entries", "_entries", "hits", "misses", "evictions")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Any:
        """Cached value for ``key``, or the module-private miss sentinel."""
        entries = self._entries
        value = entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
        else:
            entries.move_to_end(key)
            self.hits += 1
        return value

    def put(self, key: tuple, value: Any) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "max_entries": self.max_entries,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: The process-wide instance used by :mod:`repro.sim.fastpath`.
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> dict[str, Any]:
    """Snapshot of the process-wide plan cache counters (JSON-friendly)."""
    return PLAN_CACHE.stats()


def reset_plan_cache(max_entries: int | None = None) -> None:
    """Empty the process-wide cache (and optionally resize it)."""
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        PLAN_CACHE.max_entries = max_entries
    PLAN_CACHE.clear()
