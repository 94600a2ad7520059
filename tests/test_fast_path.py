"""Fast-path regression tests.

The simulation fast path (incremental power meter, indexed chip state,
cached NoC routing, bisected DVFS selection, parallel sweeps) is an exact
refactor: every shortcut must be observably identical to the reference
algorithm it replaced.  These tests pin that equivalence directly instead
of relying only on the end-to-end digests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.model import NocModel
from repro.noc.routing import link_id, xy_link_ids, xy_links
from repro.noc.topology import Mesh
from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.power.budget import PowerBudget
from repro.power.manager import PIDPowerManager
from repro.power.meter import PowerMeter

CHANNELS = ("workload", "test", "leakage", "noc")
STATES = (CoreState.IDLE, CoreState.BUSY, CoreState.TESTING, CoreState.FAULTY)


def _assert_breakdown_matches_scan(meter: PowerMeter) -> None:
    fast = meter.breakdown()
    reference = meter.scan_breakdown()
    for channel in CHANNELS:
        assert getattr(fast, channel) == pytest.approx(
            getattr(reference, channel), abs=1e-9
        ), channel


# ----------------------------------------------------------------------
# Incremental power accounting == full scan
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),   # core
            st.integers(min_value=0, max_value=4),    # op kind
            st.integers(min_value=0, max_value=7),    # parameter
        ),
        min_size=1,
        max_size=60,
    )
)
def test_incremental_breakdown_matches_scan_under_random_transitions(ops):
    chip = Chip.build(4, 4, "16nm", tdp_w=20.0)
    meter = PowerMeter(chip)
    table = chip.vf_table
    for core_idx, kind, param in ops:
        core = chip.cores[core_idx]
        if kind == 0:
            core.state = STATES[param % len(STATES)]
        elif kind == 1:
            core.level = table.clamp(param)
        elif kind == 2:
            meter.set_core_activity(core, param / 4.0)
        elif kind == 3:
            meter.set_core_activity(core, None)
        else:
            core.leak_factor = 1.0 + param * 0.05
        _assert_breakdown_matches_scan(meter)


def test_builtin_audit_passes_under_churn(chip44):
    meter = PowerMeter(chip44, verify_every_n=1)
    for step, core in enumerate(chip44):
        core.state = CoreState.BUSY if step % 2 == 0 else CoreState.TESTING
        meter.set_core_activity(core, 0.5 + step * 0.1)
        meter.breakdown()
        core.state = CoreState.IDLE
        meter.breakdown()
    assert meter.audits_passed >= 2 * len(chip44.cores)


def test_stale_activity_cleared_when_core_retires(chip44):
    meter = PowerMeter(chip44)
    core = chip44.cores[5]
    core.state = CoreState.BUSY
    meter.set_core_activity(core, 3.0)
    assert meter.breakdown().workload > 0.0
    core.state = CoreState.FAULTY
    assert meter.breakdown().workload == 0.0
    # The 3.0 factor must not leak into the core's next life: it restarts
    # on the default activity until the engine sets a fresh factor.
    core.state = CoreState.BUSY
    node = chip44.node
    assert meter.core_dynamic(core) == node.dynamic_power(
        core.level.vdd, core.level.f_mhz, meter.default_activity
    )
    _assert_breakdown_matches_scan(meter)


def test_stale_activity_cleared_on_power_gating(chip44):
    meter = PowerMeter(chip44)
    core = chip44.cores[0]
    core.state = CoreState.TESTING
    meter.set_core_activity(core, 2.0)
    core.state = CoreState.IDLE
    assert core.core_id not in meter._core_activity
    _assert_breakdown_matches_scan(meter)


# ----------------------------------------------------------------------
# Indexed chip state
# ----------------------------------------------------------------------
def test_free_count_tracks_direct_owner_and_state_writes(chip44):
    def check():
        free = chip44.free_cores()
        assert chip44.n_free_cores() == len(free)
        assert [c.core_id for c in free] == sorted(c.core_id for c in free)

    assert chip44.n_free_cores() == 16
    core = chip44.cores[3]
    core.owner_app = 7
    assert chip44.n_free_cores() == 15
    check()
    core.owner_app = 9  # handoff between owners: still not free
    assert chip44.n_free_cores() == 15
    core.state = CoreState.BUSY
    assert chip44.n_free_cores() == 15
    core.owner_app = None  # busy but unowned: still not free
    assert chip44.n_free_cores() == 15
    check()
    core.state = CoreState.IDLE
    assert chip44.n_free_cores() == 16
    check()


def test_mutation_counter_advances_on_every_observable_change(chip44):
    core = chip44.cores[0]
    table = chip44.vf_table
    before = chip44.mutations
    core.state = CoreState.BUSY
    assert chip44.mutations > before

    before = chip44.mutations
    other = table[0] if core.level.index != 0 else table[1]
    core.level = other
    assert chip44.mutations > before

    before = chip44.mutations
    core.leak_factor = core.leak_factor * 1.5
    assert chip44.mutations > before

    before = chip44.mutations
    core.owner_app = 42
    assert chip44.mutations > before

    # No-op writes must not advance the counter (they would defeat the
    # scheduler's blocked-mapping memo).
    before = chip44.mutations
    core.state = CoreState.BUSY
    core.owner_app = 42
    assert chip44.mutations == before


# ----------------------------------------------------------------------
# Cached NoC routing
# ----------------------------------------------------------------------
def test_link_ids_are_bijective_and_route_consistent():
    mesh = Mesh(5, 4)
    seen = {}
    for src in mesh.positions():
        for dst in mesh.positions():
            links = xy_links(mesh, src, dst)
            ids = xy_link_ids(mesh, src, dst)
            assert len(ids) == len(links)
            for link, lid in zip(links, ids):
                assert link_id(mesh, link) == lid
                assert seen.setdefault(lid, link) == link


def test_link_load_queries_by_position_pair():
    mesh = Mesh(4, 4)
    noc = NocModel(mesh)
    noc.begin_transfer((0, 0), (3, 0), 10.0)
    for link in xy_links(mesh, (0, 0), (3, 0)):
        assert noc.link_load(link) == 10.0
    noc.end_transfer((0, 0), (3, 0), 10.0)
    for link in xy_links(mesh, (0, 0), (3, 0)):
        assert noc.link_load(link) == 0.0


# ----------------------------------------------------------------------
# Simulator heap hygiene
# ----------------------------------------------------------------------
def test_pending_and_compaction_after_mass_cancellation(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
    fired = []
    sim.schedule(500.0, fired.append, "survivor")
    assert sim.pending() == 201
    for event in events:
        event.cancel()
    assert sim.pending() == 1
    # The cancelled bulk must have been physically dropped, not merely
    # flagged: otherwise long runs leak memory and slow every push.
    assert sim.heap_compactions >= 1
    assert len(sim._heap) < 100
    sim.run()
    assert fired == ["survivor"]
    assert sim.now == 500.0


# ----------------------------------------------------------------------
# Bisected DVFS start-level selection == linear scan
# ----------------------------------------------------------------------
def test_start_level_bisect_matches_linear_scan(chip44):
    meter = PowerMeter(chip44)
    for cap in (0.5, 2.0, 6.0, 20.0, 200.0):
        manager = PIDPowerManager(chip44, meter, PowerBudget(cap))
        assert manager._ladder_sorted
        for n_busy in (0, 3, 9, 15):
            for core, _ in zip(chip44, range(n_busy)):
                core.state = CoreState.BUSY
            target = chip44.cores[15]
            target.state = CoreState.IDLE
            for activity in (0.0, 0.25, 1.0, 1.8):
                fast = manager.start_level_for(target, activity)
                manager._ladder_sorted = False
                reference = manager.start_level_for(target, activity)
                manager._ladder_sorted = True
                assert fast is reference
            for core in chip44:
                core.state = CoreState.IDLE


# ----------------------------------------------------------------------
# Parallel sweep executor == serial loop
# ----------------------------------------------------------------------
def test_run_many_parallel_rows_identical_to_serial():
    from repro.experiments.runners import run_e2_throughput_penalty

    serial = run_e2_throughput_penalty(horizon_us=2_000.0, seed=11, jobs=None)
    parallel = run_e2_throughput_penalty(horizon_us=2_000.0, seed=11, jobs=2)
    assert repr(serial.rows) == repr(parallel.rows)
    assert serial.scalars == parallel.scalars


def test_run_many_rejects_negative_jobs():
    from repro.experiments.parallel import run_many

    with pytest.raises(ValueError):
        run_many([], jobs=-1)


# ----------------------------------------------------------------------
# The shared worker pool
# ----------------------------------------------------------------------
def _tiny_configs(seeds, **overrides):
    from repro.core.system import SystemConfig

    return [
        SystemConfig(
            width=2, height=2, horizon_us=1_500.0, seed=seed, **overrides
        )
        for seed in seeds
    ]


def _digests(results):
    from repro.obs.provenance import result_digest

    return [result_digest(result) for result in results]


def test_pooled_run_many_calls_reuse_one_pool():
    from repro.experiments import parallel

    parallel.run_many(_tiny_configs((1, 2)), jobs=2)
    pool = parallel._POOL
    workers = set(pool._processes)
    again = parallel.run_many(_tiny_configs((3, 4, 5)), jobs=2)
    assert parallel._POOL is pool
    assert set(pool._processes) == workers
    assert _digests(again) == _digests(
        parallel.run_many(_tiny_configs((3, 4, 5)))
    )


def test_pooled_run_many_sees_core_type_registered_after_a_pooled_call():
    from repro.experiments import parallel
    from repro.platform.coretypes import (
        CORE_TYPES,
        CoreType,
        register_core_type,
    )

    parallel.run_many(_tiny_configs((1, 2)), jobs=2)
    register_core_type(
        CoreType(name="late", description="registered late", dyn_scale=1.3)
    )
    try:
        configs = _tiny_configs((1, 2), type_grid=("late",))
        pooled = parallel.run_many(configs, jobs=2)
        assert _digests(pooled) == _digests(parallel.run_many(configs))
    finally:
        del CORE_TYPES["late"]


def test_pooled_run_many_recovers_after_a_worker_is_killed():
    import os
    import signal
    from concurrent.futures.process import BrokenProcessPool

    from repro.experiments import parallel

    configs = _tiny_configs((1, 2, 3))
    parallel.run_many(configs, jobs=2)
    victim = next(iter(parallel._POOL._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(10)
    with pytest.raises(BrokenProcessPool):
        parallel.run_many(configs, jobs=2)
    assert parallel._POOL is None
    pooled = parallel.run_many(configs, jobs=2)
    assert _digests(pooled) == _digests(parallel.run_many(configs))


def _worker_observability():
    from repro import obs
    from repro.telemetry import active_telemetry

    return (
        obs.active_journal().enabled,
        obs.active_profiler().enabled,
        active_telemetry().enabled,
    )


def test_pool_workers_start_with_observability_off():
    # Workers forked while the parent journals, profiles and collects
    # telemetry must not keep doing so for the calls they serve later.
    from repro import obs
    from repro.experiments import parallel
    from repro.obs import Journal, PhaseProfiler
    from repro.telemetry import MetricsRegistry, configure_telemetry

    parallel._shutdown_pool()
    obs.configure(Journal(), PhaseProfiler())
    configure_telemetry(MetricsRegistry(enabled=True))
    try:
        parallel.run_many(_tiny_configs((1, 2)), jobs=2)
    finally:
        obs.configure()
        configure_telemetry()
    probe = parallel._POOL.submit(_worker_observability)
    assert probe.result(timeout=60) == (False, False, False)


def _nested_pooled_digests():
    from repro.experiments import parallel

    try:
        return _digests(parallel.run_many(_tiny_configs((1, 2)), jobs=2))
    finally:
        parallel._shutdown_pool()


def test_forked_pool_worker_can_run_its_own_pooled_sweep():
    # A worker is forked while its parent holds the pool lock; it must
    # build a pool of its own instead of blocking on the inherited lock.
    from repro.experiments import parallel

    parallel.run_many(_tiny_configs((1, 2)), jobs=2)
    nested = parallel._POOL.submit(_nested_pooled_digests)
    assert nested.result(timeout=60) == _digests(
        parallel.run_many(_tiny_configs((1, 2)))
    )


def test_threads_sharing_the_pool_across_rebuilds_get_serial_results():
    # More threads than cores, each switching ``jobs`` so the shared pool
    # is rebuilt while other threads still have work in flight on it.
    import sys
    import threading

    from repro.experiments import parallel

    configs = _tiny_configs((1, 2, 3))
    expected = _digests(parallel.run_many(configs))
    outcomes = []
    errors = []

    def caller(offset):
        try:
            for k in range(3):
                jobs = 2 + (offset + k) % 2
                outcomes.append(_digests(parallel.run_many(configs, jobs=jobs)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=caller, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert outcomes == [expected] * 12


# ----------------------------------------------------------------------
# Per-process memos stay bounded in a long-lived worker
# ----------------------------------------------------------------------
def test_arrival_trace_memo_stays_within_its_cap():
    from repro.core import system

    cap = system._ARRIVAL_TRACES_MAX
    for config in _tiny_configs(range(1000, 1000 + 3 * cap)):
        system.run_system(config)
    assert len(system._ARRIVAL_TRACES) <= cap


def test_dynamic_power_memo_size_does_not_grow_with_tasks():
    from repro.core.system import run_system
    from repro.platform.technology import get_node

    node = get_node("16nm")

    def memo_entries():
        caches = getattr(node, "_model_dyn_caches", {})
        return sum(len(cache) for cache in caches.values())

    n = 6
    for config in _tiny_configs(range(2000, 2000 + n)):
        run_system(config)
    after_n = memo_entries()
    for config in _tiny_configs(range(3000, 3000 + 2 * n)):
        run_system(config)
    assert memo_entries() == after_n
