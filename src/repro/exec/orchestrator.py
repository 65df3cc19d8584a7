"""Parallel sweep orchestrator: fan RunSpecs over a process pool.

:func:`execute` is the one entry point every bench driver funnels
through.  It takes an ordered list of :class:`RunSpec`, answers as many as
possible from the :class:`~repro.exec.cache.ResultCache`, fans the rest
out over ``multiprocessing`` workers, and returns results *in spec order*
regardless of completion order — so a parallel sweep emits a report
byte-identical (modulo wall-clock fields) to a serial one.

Guarantees:

* **Determinism** — specs run in *groups*: the specs of one sweep that
  share (algorithm, algorithm kwargs, topology, machine) — their
  :meth:`~repro.exec.spec.RunSpec.group_key` — build the topology, the
  machine and the set-up algorithm once from seeds and run every spec of
  the group on them.  A group's results equal independent
  :meth:`RunSpec.run` calls bit for bit (wall-clock fields aside), so
  ``workers=1`` and ``workers=N`` produce bit-identical
  ``simulated_time`` per spec.  A group's objects are released when it
  ends: nothing is memoized across groups or across ``execute`` calls.
* **Failure tolerance** — a spec that raises (watchdog, deadlock, failed
  verification, bad parameters) becomes an error outcome; the sweep
  continues and the caller decides whether errors are fatal
  (:meth:`SweepResult.raise_errors`) or data (the resilience study).
  A spec that raises fails alone; the rest of its group still runs.
  A worker process that *dies* mid-spec (OOM kill, segfault, chaos
  injection) is distinguished from a spec that raises: every spec
  stranded by the broken pool (started or not, but not yet sent back)
  is re-run on its own in a fresh single-worker pool to identify the
  culprit, and only a spec that kills its worker on every attempt
  (:data:`MAX_ATTEMPTS`) is quarantined with a ``WorkerCrashed``
  error.
* **Resumability** — completed specs are stored in the cache and appended
  to an optional JSONL manifest as they finish — on a pool too, where a
  worker sends each spec's result back the moment it completes, not at
  the end of its group; re-running an interrupted sweep replays the
  finished prefix from cache at file-read speed.

The serial path runs the groups in order of first appearance.  The pool
path submits one task per group, and splits groups into contiguous
chunks only when there are fewer groups than workers, so the pool stays
full.  Either way outcomes land in spec order and ``progress`` fires once
per spec.

Workers receive pickled specs and return plain dicts (slim runs), never
live simulator objects; the parent process reconstructs
:class:`AllgatherRun` values through the same serializer the cache uses,
so the three result paths (computed serially, computed in a worker,
read from cache) are literally the same bytes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.collectives.runner import AllgatherRun
from repro.exec.cache import ResultCache
from repro.exec.serialize import run_from_dict, run_to_dict
from repro.exec.spec import RunSpec, _run_group
from repro.sim.plancache import plan_cache_stats

#: Outcome sources, in the order a resumed sweep prefers them.
SOURCES = ("cache", "computed", "error")

#: Times a spec is attempted when its worker process dies mid-run: the
#: shared-pool attempt plus up to two isolated retries.  A broken pool
#: cannot attribute the death (every outstanding future fails alike, and
#: a stranded spec may never have started), so each stranded spec gets
#: one retry *beyond* the first isolated death before being quarantined
#: with a ``WorkerCrashed`` error.
MAX_ATTEMPTS = 3

#: Base backoff (seconds) slept before re-running a crashed spec, scaled
#: by the attempt number already consumed.
RETRY_BACKOFF = 0.05

#: Seconds the pool path waits for a streamed result before it checks
#: whether every task has ended.
POLL_SECONDS = 0.01

#: Environment variable naming the chaos-marker directory (see
#: :func:`_chaos_kill`); unset in normal operation.
CHAOS_ENV = "REPRO_CHAOS_DIR"


@dataclass
class SpecOutcome:
    """What happened to one spec of a sweep."""

    spec: RunSpec
    run: AllgatherRun | None
    error: str | None = None
    source: str = "computed"
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.run is not None


@dataclass
class SweepResult:
    """Ordered outcomes plus execution statistics for one sweep."""

    outcomes: list[SpecOutcome]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def runs(self) -> list[AllgatherRun | None]:
        """Per-spec runs, in spec order (``None`` where a spec failed)."""
        return [o.run for o in self.outcomes]

    @property
    def errors(self) -> list[tuple[RunSpec, str]]:
        return [(o.spec, o.error) for o in self.outcomes if o.error is not None]

    def raise_errors(self) -> "SweepResult":
        """Fail loudly when any spec failed (figure grids want all cells)."""
        errors = self.errors
        if errors:
            detail = "\n  ".join(
                f"{spec.label()}: {error}" for spec, error in errors[:10]
            )
            more = f"\n  ... and {len(errors) - 10} more" if len(errors) > 10 else ""
            raise RuntimeError(
                f"{len(errors)}/{len(self.outcomes)} specs failed:\n  {detail}{more}"
            )
        return self


def _chaos_kill(spec: RunSpec) -> None:
    """Chaos-test hook: die mid-spec when a marker file asks for it.

    ``REPRO_CHAOS_DIR`` names a directory of markers keyed by spec digest
    prefix: ``kill-<d>`` kills the worker exactly once (the marker is
    atomically renamed before dying, so the retry survives) and
    ``poison-<d>`` kills it on *every* attempt (exercises quarantine).
    Only fires inside a pool worker — a serial in-process run ignores the
    markers, so chaos can never take down the orchestrating process.
    """
    chaos_dir = os.environ.get(CHAOS_ENV)
    if not chaos_dir:
        return
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return  # never kill the orchestrating process itself
    short = spec.digest()[:12]
    root = Path(chaos_dir)
    if (root / f"poison-{short}").exists():
        os._exit(137)
    marker = root / f"kill-{short}"
    if marker.exists():
        try:
            marker.rename(root / f"killed-{short}")
        except OSError:
            return  # a concurrent attempt claimed the marker and died for it
        os._exit(137)


def _execute_group(
    items: Sequence[tuple[int, RunSpec]],
) -> Iterator[tuple[int, dict | None, str | None]]:
    """Run one group's ``(index, spec)`` items in order as one group.

    Yields ``(index, payload, error)`` per spec as it completes;
    exceptions become ``TypeName: message`` strings, so a failing spec
    fails alone.  The group's objects are released when the generator
    finishes.
    """
    runs = _run_group(spec for _, spec in items)
    for index, spec in items:
        _chaos_kill(spec)
        try:
            result = next(runs)
            if isinstance(result, BaseException):
                raise result
            payload, error = run_to_dict(result.slim()), None
        except BaseException as exc:  # noqa: BLE001 - sweeps must survive workers
            payload, error = None, f"{type(exc).__name__}: {exc}"
        yield index, payload, error


#: The pool worker's end of the result channel: ``(connection, lock)``,
#: set by :func:`_connect` when the worker process starts.
_CHANNEL: Any = None


def _connect(channel: Any) -> None:
    """Pool initializer: keep the channel this worker sends results on."""
    global _CHANNEL
    _CHANNEL = channel


def _worker(items: list[tuple[int, RunSpec]]) -> None:
    """Pool task: run one group (chunk), sending each spec's
    ``(index, payload, error)`` to the parent as it completes, so a later
    death in the task strands only the specs not yet sent."""
    connection, lock = _CHANNEL
    for outcome in _execute_group(items):
        with lock:
            connection.send(outcome)


def _groups(specs: Sequence[RunSpec], indices: Sequence[int]) -> list[list[int]]:
    """``indices`` grouped by :meth:`RunSpec.group_key`, in order of first
    appearance; every ``algorithm="auto"`` spec is a group of its own."""
    groups: dict[tuple, list[int]] = {}
    for index in indices:
        key = specs[index].group_key() or ("auto", index)
        groups.setdefault(key, []).append(index)
    return list(groups.values())


def _split(groups: list[list[int]], width: int) -> list[list[int]]:
    """Halve the largest task into contiguous chunks until there are
    ``width`` tasks (needs at least ``width`` specs in all)."""
    tasks = list(groups)
    while len(tasks) < width:
        big = max(range(len(tasks)), key=lambda t: len(tasks[t]))
        task = tasks[big]
        mid = (len(task) + 1) // 2
        tasks[big:big + 1] = [task[:mid], task[mid:]]
    return tasks


def default_workers() -> int:
    """``os.process_cpu_count`` (or ``cpu_count``) with a floor of 1."""
    counter = getattr(os, "process_cpu_count", os.cpu_count)
    return max(1, counter() or 1)


class _Manifest:
    """Append-only JSONL progress record (resume bookkeeping)."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self.seen: set[str] = set()
        if self.path is not None and self.path.is_file():
            for line in self.path.read_text().splitlines():
                try:
                    self.seen.add(json.loads(line)["digest"])
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # torn tail line from an interrupted sweep
        self._handle = None

    def record(self, outcome: SpecOutcome, digest: str) -> None:
        if self.path is None:
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        entry: dict[str, Any] = {
            "digest": digest,
            "label": outcome.spec.label(),
            "status": "ok" if outcome.ok else "error",
            "source": outcome.source,
            "attempts": outcome.attempts,
        }
        if outcome.ok:
            entry["simulated_time"] = outcome.run.simulated_time
        else:
            entry["error"] = outcome.error
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def execute(
    specs: Sequence[RunSpec],
    workers: int = 1,
    cache: ResultCache | None = None,
    manifest_path: str | Path | None = None,
    progress: Callable[[int, int, SpecOutcome], None] | None = None,
) -> SweepResult:
    """Execute a sweep of specs; see the module docstring for guarantees.

    Parameters
    ----------
    specs:
        The sweep, in the order results should be returned.
    workers:
        Process-pool width; ``<= 1`` runs serially in-process (no pool, no
        pickling — but results still round-trip the serializer so the two
        modes are bit-identical).
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely and
        fresh results are stored as they complete.
    manifest_path:
        Optional JSONL progress file (appended as outcomes land).
    progress:
        Callback ``(done, total, outcome)`` streamed per completed spec.
    """
    specs = list(specs)
    total = len(specs)
    outcomes: list[SpecOutcome | None] = [None] * total
    manifest = _Manifest(manifest_path)
    digests = [spec.digest() for spec in specs] if (
        cache is not None or manifest.path is not None
    ) else [""] * total
    resumed = sum(1 for d in digests if d and d in manifest.seen)

    done = 0
    wall_start = time.perf_counter()

    def finish(index: int, outcome: SpecOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        manifest.record(outcome, digests[index])
        if progress is not None:
            progress(done, total, outcome)

    # Phase 1 — answer what we can from the cache.
    pending: list[int] = []
    for i, spec in enumerate(specs):
        run = cache.get(spec) if cache is not None else None
        if run is not None:
            finish(i, SpecOutcome(spec, run, source="cache"))
        else:
            pending.append(i)

    # Phase 2 — compute the rest (pool or in-process).
    def land(
        index: int,
        payload: dict | None,
        error: str | None,
        attempts: int = 1,
    ) -> None:
        if error is not None:
            finish(index, SpecOutcome(specs[index], None, error=error,
                                      source="error", attempts=attempts))
            return
        run = run_from_dict(payload)
        if cache is not None:
            cache.put(specs[index], run)
        finish(index, SpecOutcome(specs[index], run, source="computed",
                                  attempts=attempts))

    groups = _groups(specs, pending)
    if workers <= 1 or len(pending) <= 1:
        for group in groups:
            for index, payload, error in _execute_group(
                [(i, specs[i]) for i in group]
            ):
                land(index, payload, error)
    else:
        pool_size = min(workers, len(pending))
        groups = _split(groups, pool_size)
        landed: set[int] = set()

        def drain(reader: Any, wait_seconds: float = 0.0,
                  attempts: int = 1) -> None:
            """Land every result sent so far; wait up to ``wait_seconds``
            for the first one."""
            while reader.poll(wait_seconds):
                try:
                    index, payload, error = reader.recv()
                except EOFError:
                    return  # every worker has exited (a torn send reads so too)
                wait_seconds = 0.0
                landed.add(index)
                land(index, payload, error, attempts=attempts)

        def run_tasks(width: int, tasks: list[list[int]],
                      attempts: int = 1) -> list:
            """Run ``tasks`` on a fresh pool, landing each spec's result as
            it arrives; returns the tasks' futures."""
            # One pipe per pool; workers send under one lock, between two
            # specs.  The parent drops its write end once the workers hold
            # theirs, so the pipe reads EOF exactly when they have all
            # exited, even if one died mid-send.
            reader, writer = multiprocessing.Pipe(duplex=False)
            with reader, ProcessPoolExecutor(
                max_workers=width, initializer=_connect,
                initargs=((writer, multiprocessing.Lock()),),
            ) as pool:
                futures = [
                    pool.submit(_worker, [(i, specs[i]) for i in task])
                    for task in tasks
                ]
                writer.close()
                while not all(future.done() for future in futures):
                    drain(reader, POLL_SECONDS, attempts)
                pool.shutdown()
                drain(reader, attempts=attempts)
            return futures

        run_tasks(pool_size, groups)
        # A dying worker breaks the whole pool: every outstanding future
        # fails with BrokenProcessPool, which says nothing about *which*
        # spec killed it.  Re-run every spec not sent back one by one in
        # isolation to find the culprit.
        for index in [i for i in pending if i not in landed]:
            attempts = 1  # the shared-pool attempt that died
            last = "BrokenProcessPool"
            while index not in landed:
                if attempts == MAX_ATTEMPTS:
                    land(index, None,
                         f"WorkerCrashed: worker died on all {attempts} "
                         f"attempts (last: {last})", attempts=attempts)
                    break
                time.sleep(RETRY_BACKOFF * attempts)
                attempts += 1
                [future] = run_tasks(1, [[index]], attempts)
                if future.exception() is not None:
                    last = type(future.exception()).__name__

    manifest.close()
    failed = sum(1 for o in outcomes if o is not None and not o.ok)
    stats: dict[str, Any] = {
        "total": total,
        "from_cache": sum(1 for o in outcomes if o.source == "cache"),
        "computed": sum(1 for o in outcomes if o.source == "computed"),
        "failed": failed,
        "retried": sum(1 for o in outcomes if o is not None and o.attempts > 1),
        # Groups (chunks, on the pool path) computed; cache hits form none.
        "groups": len(groups),
        "workers": max(1, workers),
        "resumed_manifest_entries": resumed,
        "wall_seconds": time.perf_counter() - wall_start,
    }
    if cache is not None:
        stats["cache"] = cache.stats.as_dict()
        stats["cache_dir"] = str(cache.cache_dir)
    # Compiled-plan cache counters for *this process* (see
    # repro.sim.plancache).  With workers > 1 the sweep simulates in child
    # processes, so these count only inline work — the single-process path
    # (workers=1 or the wallclock harness) is where plan reuse shows up.
    stats["plan_cache"] = plan_cache_stats()
    return SweepResult(outcomes=list(outcomes), stats=stats)
