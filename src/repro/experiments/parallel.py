"""Parallel execution of independent simulation runs.

Experiment runners and the statistics harness evaluate many independent
(configuration × seed) points: every run is a pure function of its
:class:`~repro.core.system.SystemConfig` (all randomness flows from the
config's seed through per-run RNG streams).  That makes the sweep
embarrassingly parallel *and* order-independent: executing the same
configs serially or across a process pool must — and does — produce
byte-identical :class:`~repro.core.system.SimulationResult` data.

:func:`run_many` is the single entry point.  ``jobs=None``/``0``/``1``
falls back to the plain serial loop (no pool, no pickling), so callers
can thread a ``--jobs`` flag straight through without special-casing.
Results always come back in input order regardless of completion order.

A failing run raises :class:`RunFailed` carrying the index and config
digest of the offender, in both the serial and the pooled path — a bare
exception out of a pool gives no clue *which* of 64 configs died.
``run_many`` remains all-or-nothing (a sweep with holes is not a
sweep); workloads that must survive failures and keep partial results
belong to ``repro.campaign``.

**Memoization.**  ``cache=`` (a :class:`repro.cache.RunCache`, or the
process default installed by :func:`repro.cache.set_default_cache`)
serves previously-computed points without re-running them: the
supervisor probes the cache for every config, dispatches only the
misses (serially or to the pool — workers return results and never
touch the cache), then stores the fresh results itself, so the index
has exactly one writer.  Cached results are pickle round-trips of the
originals, so a warm sweep is byte-identical to a cold one.  When a
process-wide journal/profiler is active the whole call is *bypassed*
(counted per config on the cache's stats): a cached result cannot
carry the observability stream of the run it skipped.

**The worker pool.**  Pooled calls share one process-wide
:class:`~concurrent.futures.ProcessPoolExecutor` (fork context), built
lazily by the first pooled call rather than at import and reused by
every later one, so a sweep of many small calls pays for forking its
workers once instead of per call.  The pool is keyed on ``(pid, jobs,
registry generation)`` and rebuilt when the key changes: a different
``jobs``, a core type or technology model registered since the workers
were forked (:func:`~repro.platform.coretypes.register_core_type` and
:func:`~repro.platform.techmodel.register_tech_model` bump the
generation, so a late registration is never missing in a worker), or a
forked child calling ``run_many`` itself.  A pool that breaks (a worker
died) is dropped and the call raises as before; the next call builds a
fresh one.  Workers start with the journal, profiler and telemetry
sinks off, whatever the parent had active when they were forked.  The
pool is shut down at interpreter exit.

A reused worker lives for the whole sweep, so the per-process memos it
fills must stay bounded: the arrival-trace memo
(:data:`repro.core.system._ARRIVAL_TRACES`) is a small FIFO, and the
dynamic-power memo (:func:`repro.platform.techmodel.cached_model_dynamic`)
stores unit-activity values only, so neither grows with the number of
points a worker has run.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, List, Optional

from repro import obs
from repro.core.system import SimulationResult, SystemConfig, run_system
from repro.obs.provenance import config_digest
from repro.platform import coretypes
from repro.telemetry import (
    TelemetrySession,
    active_telemetry,
    configure_telemetry,
    worker_telemetry,
)
from repro.telemetry.spans import SpanContext


class RunFailed(RuntimeError):
    """One run of a sweep failed; identifies exactly which one."""

    def __init__(self, index: int, digest: str, error: str) -> None:
        super().__init__(
            f"run {index} (config digest {digest[:12]}) failed: {error}"
        )
        self.index = index
        self.digest = digest
        self.error = error


#: The process-wide worker pool and the ``(pid, jobs, registry
#: generation)`` key it was built for; guarded by ``_POOL_LOCK``.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_KEY: Optional[tuple] = None
_POOL_LOCK = threading.Lock()


def _init_worker() -> None:
    """Pool initializer: start every worker with observability off.

    A reused worker must not keep emitting into sinks that happened to
    be active in the parent when it was forked.
    """
    obs.configure()
    configure_telemetry()


def _drop_pool_locked(wait: bool) -> None:
    """Forget the pool; shut it down if this process owns it.

    The caller holds ``_POOL_LOCK``.  A forked child inherits the
    parent's pool object but not its workers or threads, so it only
    drops the reference.  Without ``wait`` the pool is being abandoned
    (broken or interrupted), so its queued work is cancelled too.
    """
    global _POOL, _POOL_KEY
    if _POOL is not None and _POOL_KEY[0] == os.getpid():
        _POOL.shutdown(wait=wait, cancel_futures=not wait)
    _POOL = _POOL_KEY = None


def _map_on_pool(jobs: int, payloads: list):
    """Submit ``payloads`` to the shared pool, (re)building it on demand.

    Returns ``(pool, results iterator)``.  Submission happens under the
    lock, so a concurrent call that rebuilds the pool for another key
    shuts the old one down only after it has accepted this call's work,
    and waits for that work to finish.
    """
    global _POOL, _POOL_KEY
    key = (os.getpid(), jobs, coretypes._registry_generation)
    with _POOL_LOCK:
        if _POOL_KEY != key:
            _drop_pool_locked(wait=True)
            _POOL = ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
            )
            _POOL_KEY = key
        try:
            return _POOL, _POOL.map(_run_one, payloads)
        except BrokenProcessPool:
            _drop_pool_locked(wait=False)
            raise


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Drop ``pool`` (broken or interrupted) so the next call rebuilds."""
    with _POOL_LOCK:
        if _POOL is pool:
            _drop_pool_locked(wait=False)


@atexit.register
def _shutdown_pool() -> None:
    with _POOL_LOCK:
        _drop_pool_locked(wait=True)


def _fresh_lock_in_child() -> None:
    # Pool workers are forked while the parent holds the lock; without
    # a fresh one a forked child's first pooled call would deadlock.
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_in_child)


def _run_one(payload):
    """Module-level worker so it is picklable by the process pool.

    Never raises: an exception would poison ``pool.map`` mid-iteration
    and surface with no attribution.  Failures come back as tagged
    tuples and are re-raised, attributed, by the parent.

    ``payload`` is ``(index, config)`` — with a trailing
    :class:`~repro.telemetry.spans.SpanContext` when the sweep collects
    telemetry, in which case an ok-outcome grows a trailing telemetry
    blob for the supervisor to merge.
    """
    index, config = payload[0], payload[1]
    ctx: Optional[SpanContext] = payload[2] if len(payload) > 2 else None
    try:
        with worker_telemetry(ctx, str(index), "sweep.run") as scope:
            result = run_system(config)
        if scope is not None:
            return ("ok", index, result, scope.blob())
        return ("ok", index, result)
    except Exception as exc:
        return (
            "err",
            index,
            config_digest(config),
            f"{type(exc).__name__}: {exc}",
        )


def _resolve_cache(cache, n_configs: int):
    """Effective cache for one call: explicit arg, else process default.

    Returns ``None`` (and notes a bypass per config) when observability
    is active: serving a memoized result would silently drop the
    journal/profile stream the caller asked for, and storing an
    observed run would be redundant work.
    """
    if cache is None:
        from repro.cache import active_cache

        cache = active_cache()
    if cache is None:
        return None
    from repro.obs import active_journal, active_profiler

    if active_journal().enabled or active_profiler().enabled:
        cache.note_bypass(n_configs, reason="observability enabled")
        return None
    return cache


def _run_indexed(
    config_list: List[SystemConfig],
    indices: List[int],
    jobs: Optional[int],
    ctx: Optional[SpanContext] = None,
    on_blob=None,
) -> List[SimulationResult]:
    """Run the configs at ``indices``; failures keep original indices.

    With ``ctx`` set, every run (serial or pooled alike) executes under
    a worker telemetry scope and its blob is handed to ``on_blob`` —
    the serial path uses the same collect-then-merge semantics as the
    pool, which is what makes serial and pooled snapshots identical.
    """
    if not jobs or jobs == 1 or len(indices) <= 1:
        results = []
        for index in indices:
            try:
                with worker_telemetry(ctx, str(index), "sweep.run") as scope:
                    results.append(run_system(config_list[index]))
            except Exception as exc:
                raise RunFailed(
                    index,
                    config_digest(config_list[index]),
                    f"{type(exc).__name__}: {exc}",
                ) from exc
            if scope is not None and on_blob is not None:
                on_blob(scope.blob())
        return results
    payloads = [
        (index, config_list[index]) + ((ctx,) if ctx is not None else ())
        for index in indices
    ]
    pool, results = _map_on_pool(jobs, payloads)
    try:
        outcomes = list(results)
    except (BrokenProcessPool, KeyboardInterrupt):
        _discard_pool(pool)
        raise
    for outcome in outcomes:
        if outcome[0] == "err":
            raise RunFailed(outcome[1], outcome[2], outcome[3])
        if len(outcome) > 3 and on_blob is not None:
            on_blob(outcome[3])
    return [outcome[2] for outcome in outcomes]


def run_many(
    configs: Iterable[SystemConfig],
    jobs: Optional[int] = None,
    cache=None,
    batch_size: Optional[int] = None,
) -> List[SimulationResult]:
    """Run every config, optionally across ``jobs`` worker processes.

    ``jobs=None`` (or ``0``/``1``) runs serially in-process.  Results are
    returned in the order of ``configs`` and are identical to a serial
    run: each simulation is deterministic given its config, and the
    pooled path reassembles results by original index.

    ``batch_size`` is deprecated and ignored: any valid non-``None``
    value emits one :class:`DeprecationWarning` and the call runs
    exactly as without it.  A nonsensical one is still rejected, as
    ``jobs`` is, so old callers see their mistake rather than a warning.

    ``cache`` (a :class:`repro.cache.RunCache`; defaults to the process
    default, if any) memoizes results by salted config digest — hits
    are served without running, misses are computed (pooled if asked)
    and stored by the supervisor.  Results are identical with the cache
    on, off, warm or cold.

    Raises :class:`RunFailed` (with the failing config's index and
    digest) if any run fails; nothing is cached for a failing sweep.
    A nonsensical ``jobs`` or ``batch_size`` fails fast, before any work
    starts: a non-int (including a bool) raises :class:`TypeError`; a
    negative ``jobs`` or a ``batch_size`` below 1 raises
    :class:`ValueError`.
    """
    config_list = list(configs)
    if jobs is not None:
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise TypeError(
                f"jobs must be an int or None, got "
                f"{type(jobs).__name__} ({jobs!r})"
            )
        if jobs < 0:
            raise ValueError(
                f"jobs must be non-negative (0 or 1 means serial), "
                f"got {jobs}"
            )
    if batch_size is not None:
        if isinstance(batch_size, bool) or not isinstance(batch_size, int):
            raise TypeError(
                f"batch_size must be an int or None, got "
                f"{type(batch_size).__name__} ({batch_size!r})"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        warnings.warn(
            "run_many(batch_size=...) is deprecated and ignored; "
            "every run takes the scalar path",
            DeprecationWarning,
            stacklevel=2,
        )
    cache = _resolve_cache(cache, len(config_list))
    # Telemetry: with a process-active registry, the sweep becomes one
    # session — workers (or serial worker scopes) collect deltas, the
    # supervisor merges them here.  Cache hits are *not* simulated, so
    # they contribute cache.* counters but no sim.* ones.
    tm = active_telemetry()
    session: Optional[TelemetrySession] = None
    ctx: Optional[SpanContext] = None
    on_blob = None
    prev_cache_tm = None
    if tm.enabled:
        session = TelemetrySession(
            "sweep", registry=tm, attrs={"n_configs": len(config_list)}
        )
        ctx = session.ctx
        on_blob = session.merge_blob
        if cache is not None:
            prev_cache_tm = cache.telemetry
            cache.bind_telemetry(tm)
    try:
        if cache is None:
            return _run_indexed(
                config_list, list(range(len(config_list))), jobs, ctx, on_blob
            )
        results: List[Optional[SimulationResult]] = [None] * len(config_list)
        miss_indices: List[int] = []
        for index, config in enumerate(config_list):
            cached = cache.get_result(config)
            if cached is not None:
                results[index] = cached
            else:
                miss_indices.append(index)
        if miss_indices:
            fresh = _run_indexed(config_list, miss_indices, jobs, ctx, on_blob)
            for index, result in zip(miss_indices, fresh):
                cache.put_result(config_list[index], result)
                results[index] = result
        return results  # type: ignore[return-value]
    finally:
        if prev_cache_tm is not None:
            cache.telemetry = prev_cache_tm
        if session is not None:
            session.finish(n_configs=len(config_list))
