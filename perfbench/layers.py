"""Per-layer metrics derived from one traced pass.

Each function turns a workload's traced pass (its tracer plus the pass
output) into ``{metric: value}`` for the layers that are visible from the
benchmark process, plus the exact counts that must repeat between two
traced passes.  Kernel layers are measured on ``kernel``; the other
workloads run the kernel in pool or server workers, out of sight, and
report only the layers their own process calls.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import percentile

#: Kernel self times plus the unattributed time must cover the traced
#: wall time within this share.
SUM_TO_WALL_TOLERANCE = 0.05

Layer = Dict[str, float]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_ms(samples: List[float]) -> float:
    return percentile(samples, 0.5)[0] * 1000.0


def kernel(tracer, out) -> Tuple[Layer, Dict[str, int], Dict[str, object]]:
    st = tracer.self_times()
    calls = tracer.calls
    counts = tracer.counts
    started = calls("testing.runner_start")
    layer = {
        "sim.events": out["events"],
        "sim.run_self_s": st["sim.run"],
        "workload.generate_arrivals_s": st["workload.generate_arrivals"],
        "workload.trace_memo_hit_ratio": _ratio(
            counts["workload.memo_hits"], calls("workload.generate_arrivals")
        ),
        "mapping.map_calls": calls("mapping.map"),
        "mapping.map_s": st["mapping.map"],
        "mapping.success_ratio": _ratio(
            counts["mapping.placed"], calls("mapping.map")
        ),
        "core.admit_s": st["core.admit"],
        "core.change_level_calls": calls("core.change_level"),
        "core.change_level_s": st["core.change_level"],
        "noc.transfer_calls": calls("noc.begin_transfer"),
        "noc.transfer_s": st["noc.begin_transfer"] + st["noc.end_transfer"],
        "power.breakdown_calls": calls("power.breakdown"),
        "power.breakdown_s": st["power.breakdown"],
        "power.manager_tick_s": st["power.manager_tick"],
        "power.start_level_s": st["power.start_level"],
        # The testing layer's own code: scheduler ticks plus the session
        # starts and aborts they (or admissions) trigger.
        "testing.scheduler_tick_s": (
            st["testing.scheduler_tick"] + st["testing.runner_start"]
            + st["testing.runner_abort"]
        ),
        "testing.sessions_started": started,
        "testing.sessions_aborted": calls("testing.runner_abort"),
        "testing.completion_ratio": _ratio(out["tests_completed"], started),
        "aging.fault_tick_s": st["aging.fault_tick"],
        "metrics.sample_s": st["metrics.sample"],
        # Inside run_system but outside every traced layer: system
        # construction, result collection and the event-loop-free glue.
        "kernel.unattributed_s": st["point"],
    }
    wall = out["wall_s"]
    covered = sum(st.values())
    checks = {
        "sum_to_wall_share": abs(covered - wall) / wall,
        "sum_to_wall_ok": abs(covered - wall) <= SUM_TO_WALL_TOLERANCE * wall,
        "spans": len(tracer),
    }
    exact = {
        "sim.events": int(out["events"]),
        "mapping.map_calls": calls("mapping.map"),
        "noc.transfer_calls": calls("noc.begin_transfer"),
        "power.breakdown_calls": calls("power.breakdown"),
        "testing.sessions_started": started,
    }
    return layer, exact, checks


def sweep(tracer, out) -> Tuple[Layer, Dict[str, int], Dict[str, object]]:
    st = tracer.self_times()
    lookups = tracer.calls("cache.get")
    layer = {
        "experiments.run_many_calls": tracer.calls("experiments.run_many"),
        "experiments.call_latency_p50_ms": _p50_ms(
            tracer.durations("experiments.run_many")
        ),
        # run_many's own time, cache calls excluded: pool start-up,
        # dispatch, pickling and waiting for the workers.
        "experiments.pool_wait_s": st["experiments.run_many"],
        "cache.lookups": lookups,
        "cache.hit_ratio": _ratio(tracer.counts["cache.hits"], lookups),
        "cache.get_p50_ms": _p50_ms(tracer.durations("cache.get")),
        "cache.put_p50_ms": _p50_ms(tracer.durations("cache.put")),
        "cache.bytes_written": out["cache_bytes"],
    }
    exact = {
        "experiments.run_many_calls": tracer.calls("experiments.run_many"),
        "cache.lookups": lookups,
        "cache.puts": tracer.calls("cache.put"),
    }
    return layer, exact, {"spans": len(tracer)}


def campaign(tracer, out) -> Tuple[Layer, Dict[str, int], Dict[str, object]]:
    st = tracer.self_times()
    appends = tracer.calls("campaign.checkpoint_append")
    layer = {
        "campaign.points_run": out["points"],
        "campaign.stop_saved_ratio": 1.0 - _ratio(
            out["points"], out["max_points"]
        ),
        "campaign.checkpoint_appends": appends,
        "campaign.checkpoint_append_p50_ms": _p50_ms(
            tracer.durations("campaign.checkpoint_append")
        ),
        "campaign.retries": out["retries"],
        # The executor's own time, checkpoint appends excluded: waiting
        # for workers plus supervisor bookkeeping.
        "campaign.supervisor_wait_s": st["campaign.executor_run"],
    }
    exact = {
        "campaign.points_run": int(out["points"]),
        "campaign.checkpoint_appends": appends,
    }
    return layer, exact, {"spans": len(tracer)}


def serve(tracer, out) -> Tuple[Layer, Dict[str, int], Dict[str, object]]:
    counters = out["counters"]
    points = counters.get("serve.points", 0)
    deduped = counters.get("serve.cache_hits", 0) + counters.get(
        "serve.coalesced", 0
    )
    layer = {
        "serve.ttfb_p50_ms": _p50_ms(tracer.durations("serve.ttfb")),
        "serve.stream_p50_ms": _p50_ms(tracer.durations("serve.stream")),
        "serve.requests": counters.get("serve.requests", 0),
        "serve.rejected": counters.get("serve.rejected", 0),
        "serve.errors": counters.get("serve.errors", 0),
        "serve.computed": counters.get("serve.computed", 0),
        "serve.cache_hits": counters.get("serve.cache_hits", 0),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.dedupe_ratio": _ratio(deduped, points),
        "serve.generator_lag_p90_ms": percentile(
            tracer.durations("serve.generator_lag"), 0.9
        )[0] * 1000.0,
    }
    exact = {
        "serve.requests": int(counters.get("serve.requests", 0)),
        "serve.points": int(points),
    }
    return layer, exact, {"spans": len(tracer)}


DERIVE = {"kernel": kernel, "sweep": sweep, "campaign": campaign,
          "serve": serve}
