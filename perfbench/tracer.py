"""Outside-in per-layer tracer.

The tracer wraps each layer's public entry point from outside the program
(no edit under ``src/``), records nested spans, and reports per layer its
*self time* (span duration minus the time its child spans cover) and its
call count, plus a few counts read at the same boundaries.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; untraced runs never construct a tracer.  A target
that no longer exists (a module, class or function removed by a later
change) makes its layer *absent* instead of failing, so the benchmark keeps
working when the program's layers are refactored.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: Attribute set on every wrapper, pointing at the wrapped callable.
MARKER = "_perfbench_original"
_UNSET = object()


def _setup_before(args):
    return getattr(args[0], "setup_stats", None)


def _setup_after(counts, args, result, before):
    # setup() returns the memoised stats when the plan is already built;
    # only a fresh build counts its negotiation messages.
    if result is not None and result is not before:
        counts["collectives.setup.protocol_messages"] += getattr(
            result, "protocol_messages", 0)


def _schedule_before(args):
    return getattr(args[0], "_schedule_cache", _UNSET)


def _schedule_after(counts, args, result, before):
    # Count sends of derived schedules only, not of memo hits.
    if result is None:
        return
    if before is not _UNSET and getattr(args[0], "_schedule_cache", None) is before:
        return
    total_sends = getattr(result, "total_sends", None)
    if total_sends is not None:
        counts["collectives.schedule.sends"] += total_sends()


def _replay_after(counts, args, result, before):
    counts["sim.fastpath.replay.events"] += getattr(result, "events_processed", 0)


def _engine_after(counts, args, result, before):
    counts["sim.engine.messages"] += getattr(args[0], "messages_sent", 0)


@dataclass(frozen=True)
class Layer:
    """A named layer: the callables whose spans it owns, and its counts."""

    name: str
    #: ``(module, dotted attribute)`` pairs; every one that exists is wrapped.
    targets: tuple[tuple[str, str], ...]
    #: extra count metrics (full names) this layer reports
    counts: tuple[str, ...] = ()
    before: Callable[[tuple], Any] | None = None
    after: Callable[..., None] | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("topology", (("repro.exec.spec", "TopologySpec.build"),)),
    Layer("cluster", (("repro.exec.spec", "MachineSpec.build"),)),
    Layer("collectives.setup",
          (("repro.collectives.base", "NeighborhoodAllgatherAlgorithm.setup"),),
          ("collectives.setup.protocol_messages",), _setup_before, _setup_after),
    Layer("collectives.schedule",
          (("repro.collectives.base", "NeighborhoodAllgatherAlgorithm.schedule_for"),),
          ("collectives.schedule.sends",), _schedule_before, _schedule_after),
    # The runner's own bindings: that is how the runner calls them.
    Layer("sim.schedule.analyze", (("repro.collectives.runner", "contention_free"),)),
    Layer("sim.fastpath.compile",
          (("repro.sim.fastpath", "batch_plan_for"),
           ("repro.sim.fastpath", "multi_plan_for"),
           ("repro.sim.fastpath", "compiled_for"))),
    Layer("sim.fastpath.replay", (("repro.collectives.runner", "execute_schedule"),),
          ("sim.fastpath.replay.events",), None, _replay_after),
    Layer("sim.engine", (("repro.sim.engine", "Engine.run"),),
          ("sim.engine.messages",), None, _engine_after),
    Layer("collectives.runner", (("repro.collectives.runner", "run_allgather"),)),
    Layer("verify", (("repro.collectives.runner", "verify_allgather"),)),
    Layer("exec.serialize",
          (("repro.exec.orchestrator", "run_to_dict"),
           ("repro.exec.orchestrator", "run_from_dict"),
           ("repro.exec.cache", "run_to_dict"),
           ("repro.exec.cache", "run_from_dict"))),
    Layer("exec.cache", (("repro.exec.cache", "ResultCache.get"),
                         ("repro.exec.cache", "ResultCache.put"))),
    Layer("exec.orchestrator", (("repro.exec", "execute"),
                                ("repro.exec.orchestrator", "execute"))),
)

#: Counts the worker adds from public stats after the timed section.
STAT_COUNTS = (
    ("sim.plancache.hits", "count", "higher"),
    ("sim.plancache.misses", "count", "lower"),
    ("sim.plancache.evictions", "count", "lower"),
    ("sim.plancache.hit_ratio", "ratio", "higher"),
    ("sim.faults.retransmissions", "count", "lower"),
    ("sim.faults.drops", "count", "lower"),
    ("exec.cache.hits", "count", "higher"),
    ("exec.cache.misses", "count", "lower"),
    ("path.fastpath", "count", "higher"),
    ("path.analytic", "count", "lower"),
    ("path.des", "count", "lower"),
)

TRACE_TOTALS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.layers_absent", "count", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.extend((name, "count", "lower") for name in layer.counts)
    return specs + list(STAT_COUNTS) + list(TRACE_TOTALS)


def _resolve(module_name: str, dotted: str):
    """``(owner, attribute)`` for a target, or ``None`` if it is gone."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def installed_wrappers() -> int:
    """How many layer targets currently hold a tracer wrapper."""
    found = 0
    for layer in LAYERS:
        for target in layer.targets:
            resolved = _resolve(*target)
            if resolved and hasattr(getattr(*resolved), MARKER):
                found += 1
    return found


class Tracer:
    """Nested-span recorder over the :data:`LAYERS` entry points."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.recording = False
        #: open spans, innermost last; each holds the time to exclude from
        #: its self time (child spans and counting hooks inside it)
        self._stack: list[list[float]] = []
        self._covered = 0.0      # summed duration of outermost spans
        self._hooks_inner = 0.0  # counting time inside outermost spans
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # -------------------------------------------------------------- install
    def install(self) -> None:
        for layer in LAYERS:
            wrapped = False
            for target in layer.targets:
                resolved = _resolve(*target)
                if resolved is None:
                    continue
                owner, attr = resolved
                original = getattr(owner, attr)
                own = attr in vars(owner)
                setattr(owner, attr, self._wrap(layer, original))
                self._restore.append((owner, attr, original, own))
                wrapped = True
            if not wrapped:
                self.absent.append(layer.name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.name
        before, after = layer.before, layer.after
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    self._covered += duration
            if after is not None:
                hook_start = perf_counter()
                after(self.counts, args, result, token)
                if stack:
                    hook = perf_counter() - hook_start
                    stack[-1][0] += hook
                    self._hooks_inner += hook
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARKER, fn)
        return wrapper

    # --------------------------------------------------------------- report
    def unattributed(self, wall: float) -> float:
        """Section time outside every span, plus counting-hook time."""
        return wall - self._covered + self._hooks_inner

    def report(self, wall: float) -> dict[str, float]:
        """Per-layer metrics for a traced section of ``wall`` seconds."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer.name}.self_s"] = self.self_s[layer.name]
            out[f"{layer.name}.calls"] = self.calls[layer.name]
            for count in layer.counts:
                out[count] = self.counts[count]
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = self.unattributed(wall)
        out["trace.layers_absent"] = len(self.absent)
        return out
