"""The benchmark workloads: seeded inputs, set-up, timed window.

Every workload's inputs are generated from the ``--seed`` argument alone
(``random.Random(f"<workload>:<seed>")``); the program receives only the
generated configs, campaign specs and HTTP requests.  All inputs are
expressed as ``SystemConfig`` override dicts, the form the server
accepts, so the oracle can rebuild any point from JSON.

Why these (see ``BENCHMARK.json`` for the one-line summaries):

* ``kernel`` -- serial in-process ``run_system`` over E2-style points
  (8x8 @ 16 nm, four test policies sharing each seed, light 4/ms and
  saturated 12/ms load) plus one ``noc_mode="queued"`` point per seed
  and a 12x12 point every third seed.  Closed loop, one caller, no pool
  and no cache: the event kernel does nearly all the work.  The bypass
  workload for any pool, cache or supervisor change.
* ``sweep`` -- the experiment runners' traffic: suites of the nine
  ``run_many`` calls that runners E1-E9 make (2-16 configs each, same
  configs, fresh seeds per suite) with ``jobs=2`` and one fresh
  ``RunCache``.  Configs that two runners share (E1/E2, E2/E3, E1/E5,
  E1/E6) repeat within a suite and are cache hits.  The request is one
  ``run_many`` call.

Two more workloads only take part in ``sweep``'s traced run, where their
parent-side layers are measured (``TRACE_COMPANIONS``): ``campaign``
(``run_campaign(jobs=2)`` on a fault-injection spec: policy x
``sbst_scale`` grid, seeds under a ``StopRule``; supervisor, fsynced
checkpoint appends, fault injection) and ``serve`` (an open-loop asyncio
client sending sweep requests from three tenants on a fixed schedule to
a default ``repro serve --jobs 2`` subprocess, at most two in flight; a
third of the points repeat one in flight and are coalesced).  Neither is
a timed workload: their throughput and latency spreads over ten seeds
were above the 0.25 bound on a shared 2-vCPU VM.

Nothing here enables the journal, profiler, telemetry registry,
verifier or ``batch_size``: each workload runs the default code path.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import oracle
from common import JOBS, child_env

POLICIES = ("none", "power-aware", "unaware", "round-robin")
NODES = ("45nm", "32nm", "22nm", "16nm")
MAPPERS = ("contiguous", "scatter", "random", "mappro", "test-aware")

#: Latency limits behind ``slo_met_fraction``: generous stall detectors
#: for a point (kernel) and a run_many call (sweep).
SLO_MS = {"kernel": 1000.0, "sweep": 5000.0}

KERNEL_GROUPS = 96            # seeds per kernel point list (~900 points)
#: A kernel run covers at least this many seeds.  Each seed adds two
#: arrival traces (light and saturated) to the in-process trace memo,
#: which keeps at most 64; past 32 seeds the memo, the process's main
#: growing structure, is full, so peak RSS no longer depends on how many
#: points a run got through.
KERNEL_MIN_GROUPS = 32
KERNEL_TRACE_POINTS = 56      # fixed work of a traced kernel pass (6 seeds)
KERNEL_HORIZON_US = 10_000.0

#: Sweep points are the runners' points (``DEFAULT_CONFIG``: 16 nm,
#: 80 W, 8/ms) at a 10 ms horizon instead of the runners' 60 ms: a run
#: must finish at least ``SWEEP_MIN_CALLS`` run_many calls, and at 60 ms
#: one suite of nine calls takes about 10 s with jobs=2.  The cost is a
#: larger share of pool start-up, pickling and imbalance in each call:
#: on a 2-vCPU Xeon VM, 1 - serial seconds / (2 x pooled wall) was 0.35
#: at 10 ms and 0.23 at 60 ms over the same suites.
SWEEP_HORIZON_US = 10_000.0
#: Suites in a sweep call sequence (nine calls each, one per runner).
SWEEP_SUITES = 12
#: Suites in a traced sweep pass: 27 calls, so the p50 of call latency
#: has ten samples beyond it.
SWEEP_TRACE_SUITES = 3
#: A sweep run finishes at least this many calls, so the p90 of its
#: per-call latencies has ten samples beyond it.
SWEEP_MIN_CALLS = 100
SUITE_CALLS = 9

#: Campaigns in a traced campaign pass.
CAMPAIGN_SPECS = 2

SERVE_RATE = 16.0             # requests per second, fixed schedule
SERVE_TENANTS = ("alice", "bob", "carol")
#: Requests in a traced serve pass.
SERVE_REQUESTS = 120


def _key(overrides: Dict[str, object]) -> str:
    return json.dumps(overrides, sort_keys=True)


# ----------------------------------------------------------------------
# Seeded input generation (pure Python; no repro import)
# ----------------------------------------------------------------------
def kernel_points(seed: int) -> List[Dict[str, object]]:
    rng = random.Random(f"kernel:{seed}")
    points: List[Dict[str, object]] = []
    for group in range(KERNEL_GROUPS):
        base = {"node_name": "16nm", "horizon_us": KERNEL_HORIZON_US,
                "seed": rng.randrange(1, 2**31)}
        for rate in (4.0, 12.0):
            for policy in POLICIES:
                points.append({**base, "arrival_rate_per_ms": rate,
                               "test_policy": policy})
        points.append({**base, "arrival_rate_per_ms": 12.0,
                       "noc_mode": "queued",
                       "test_policy": POLICIES[group % len(POLICIES)]})
        if group % 3 == 2:
            points.append({**base, "arrival_rate_per_ms": 12.0,
                           "width": 12, "height": 12,
                           "test_policy": "power-aware"})
    return points


def runner_suite(rng: random.Random) -> List[List[Dict[str, object]]]:
    """The nine ``run_many`` calls of runners E1-E9, on fresh seeds.

    Same configs per call as ``experiments/runners.py`` (E4's criticality
    weights, E7's moderate load, E8's fault hazard, E9's bursty 50 W
    set-up) apart from the horizon.  Where two runners share a config,
    as E1 and E2 or E2 and E3 at 16 nm do, the later call repeats it.
    """
    # Knobs the runners vary are spelled out at their defaults, so a
    # repeated config is also a repeated override dict.
    base = {"node_name": "16nm", "tdp_w": 80.0, "arrival_rate_per_ms": 8.0,
            "horizon_us": SWEEP_HORIZON_US, "test_policy": "power-aware",
            "test_level_policy": "rotate", "mapper": "contiguous",
            "power_policy": "pid", "seed": rng.randrange(1, 2**31)}

    def seeds(n: int) -> List[int]:
        return [rng.randrange(1, 2**31) for _ in range(n)]

    e4 = {**base,
          "criticality": {"stress_weight": 0.85, "time_weight": 0.15,
                          "stress_reference": 4.0,
                          "time_reference_us": 3000.0}}
    e7 = {**base, "arrival_rate_per_ms": 3.0}
    e8 = {**base, "fault_hazard_per_us": 1e-6, "fault_stress_scale": 10.0}
    e9 = {**base, "tdp_w": 50.0, "bursty": True, "test_policy": "none",
          "profile_names": ["small", "medium"],
          "profile_weights": [0.5, 0.5]}
    e7_seeds, e8_seeds = seeds(3), seeds(4)
    return [
        [{**base, "test_policy": p} for p in ("power-aware", "unaware")],
        [{**base, "test_policy": p} for p in POLICIES],
        [{**base, "node_name": n, "test_policy": p}
         for n in NODES for p in ("none", "power-aware")],
        [{**e4, "seed": s} for s in seeds(3)],
        [{**base, "arrival_rate_per_ms": r} for r in (2.0, 4.0, 6.0, 8.0, 10.0)],
        [{**base, "test_level_policy": p} for p in ("rotate", "nominal")],
        [{**e7, "mapper": m, "seed": s} for m in MAPPERS for s in e7_seeds],
        [{**e8, "test_policy": p, "seed": s} for p in POLICIES for s in e8_seeds],
        [{**e9, "power_policy": p} for p in ("worst-case", "naive", "pid")],
    ]


def sweep_calls(seed: int) -> List[List[Dict[str, object]]]:
    rng = random.Random(f"sweep:{seed}")
    return [call for _ in range(SWEEP_SUITES) for call in runner_suite(rng)]


def campaign_specs(seed: int) -> List[Dict[str, object]]:
    rng = random.Random(f"campaign:{seed}")
    return [
        {
            "name": f"perfbench-{k}",
            "base": {"width": 6, "height": 6, "horizon_us": 10_000.0,
                     "arrival_rate_per_ms": 3.0,
                     "fault_hazard_per_us": 3e-4},
            "grid": {"test_policy": ["power-aware", "round-robin"],
                     "sbst_scale": [0.5, 1.0]},
            "seeds": {"start": rng.randrange(1, 2**30), "count": 1},
            "stop": {"target_half_width": 0.06, "min_runs": 4,
                     "max_runs": 12, "batch": 4},
        }
        for k in range(CAMPAIGN_SPECS)
    ]


def serve_requests(seed: int, n: int) -> List[Dict[str, object]]:
    """``n`` sweep requests, sent in pairs due at the same instant.

    Every request carries one fresh point; the second request of each
    pair (another tenant) also repeats the first one's fresh point, which
    is then in flight, so the server coalesces it (a third of all
    points).  One fresh point per request keeps the compute behind every
    request alike, so latency has one mode.
    """
    rng = random.Random(f"serve:{seed}")
    requests = []
    previous: Optional[Dict[str, object]] = None
    for i in range(n):
        point = {
            "width": 8, "height": 8, "horizon_us": 10_000.0,
            "arrival_rate_per_ms": 4.0,
            "test_policy": rng.choice(POLICIES),
            "seed": rng.randrange(1, 2**31),
        }
        points = [point]
        if i % 2:
            points.append(previous)
        previous = point
        requests.append({
            "tenant": SERVE_TENANTS[i % len(SERVE_TENANTS)],
            "request_id": f"q{i:05d}",
            "points": points,
        })
    return requests


def serve_due(i: int) -> float:
    """Seconds from the schedule's start at which request ``i`` is due."""
    return (i // 2) * 2 / SERVE_RATE


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload in one fresh interpreter.

    The child calls :meth:`imports`, :meth:`fixture` and :meth:`start`
    (the three timed set-up steps), then :meth:`window` or
    :meth:`fixed_pass`, then :meth:`stop`.
    """

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.recorded: Dict[str, object] = {"rows": {}, "campaigns": {}}
        #: digest -> oracle task, for every point this run attempted.
        self.tasks: Dict[str, Dict[str, object]] = {}

    def imports(self) -> None:
        raise NotImplementedError

    def fixture(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Warm lazily imported code with one tiny, unchecked run."""
        from repro.core.system import SystemConfig, run_system

        run_system(SystemConfig(width=4, height=4, horizon_us=1000.0, seed=0))

    def stop(self) -> None:
        pass

    def install(self, tracer) -> None:
        raise NotImplementedError

    def load_oracle(self) -> None:
        self.recorded = oracle.load_recorded(self.name, self.seed)

    def build_configs(self, overrides: List[Dict[str, object]]) -> None:
        """Configs for ``overrides``; digests wait until after timing."""
        self.overrides = overrides
        self.configs = [oracle.make_config(o) for o in overrides]

    def keyed_rows(self, indexed_rows) -> List[Tuple[str, Dict[str, float]]]:
        """``(config index, row)`` pairs as ``(config digest, row)``.

        Called after the timed region, so digesting the configs is not
        charged to set-up or to the window.
        """
        from repro.obs.provenance import config_digest

        digests: Dict[int, str] = {}
        rows = []
        for i, row in indexed_rows:
            digest = digests.get(i)
            if digest is None:
                digest = digests[i] = config_digest(self.configs[i])
                self.tasks[digest] = {"overrides": self.overrides[i]}
            rows.append((digest, row))
        return rows

    def oracle_slice(self, digests) -> Dict[str, object]:
        rows = self.recorded["rows"]
        return {d: rows[d] for d in set(digests) if d in rows}

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.workdir, label)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class Kernel(Workload):
    name = "kernel"

    def imports(self) -> None:
        from repro.core.system import run_system

        self.run_system = run_system

    def fixture(self) -> None:
        self.build_configs(kernel_points(self.seed))
        seen = set()
        for i, overrides in enumerate(self.overrides):
            seen.add(overrides["seed"])
            if len(seen) > KERNEL_MIN_GROUPS:
                self.min_points = i
                break
        self.load_oracle()

    def window(self, seconds: float) -> Dict[str, object]:
        run_system = self.run_system
        points = self.configs
        n = len(points)
        rows = []
        latencies = []
        events = 0
        i = 0
        t0 = perf_counter()
        while True:
            a = perf_counter()
            result = run_system(points[i % n])
            b = perf_counter()
            latencies.append(b - a)
            events += result.events_fired
            rows.append((i % n, result.summary()))
            i += 1
            if b - t0 >= seconds and i >= self.min_points:
                break
        rows = self.keyed_rows(rows)
        return {
            "wall_s": b - t0,
            "points": i,
            "events": events,
            "latencies_s": latencies,
            "request_kind": "run_system call",
            "slo_limit_ms": SLO_MS[self.name],
            "rows": rows,
            "info": {"distinct_points": min(i, len(points)),
                     "saturated_share": round(sum(
                         c.arrival_rate_per_ms >= 12.0 for c in points[:i]
                     ) / min(i, n), 4),
                     "loop": "closed, 1 caller"},
        }

    def install(self, tracer) -> None:
        from repro.aging.faults import FaultInjector
        from repro.core import system as system_module
        from repro.core.executor import ExecutionEngine
        from repro.core.system import ManycoreSystem
        from repro.mapping.base import RuntimeMapper
        from repro.metrics.collectors import MetricsCollector
        from repro.noc.model import NocModel
        from repro.noc.queued import QueuedNocModel
        from repro.power.manager import PowerManager
        from repro.power.meter import PowerMeter
        from repro.sim.engine import Simulator
        from repro.testing.runner import TestRunner
        from repro.testing.schedulers import TestSchedulerBase

        memo = system_module._ARRIVAL_TRACES
        counts = tracer.counts

        def memo_ids(_args):
            return {id(trace) for trace in memo.values()}

        def note_memo(_args, trace, before):
            counts["workload.memo_hits"] += id(trace) in before

        def note_placed(_args, placement, _token):
            counts["mapping.placed"] += placement is not None

        wrap = tracer.wrap_method
        wrap(Simulator, "run", "sim.run")
        wrap(ManycoreSystem, "generate_arrivals", "workload.generate_arrivals",
             before=memo_ids, after=note_memo)
        wrap(RuntimeMapper, "map_application", "mapping.map",
             after=note_placed)
        wrap(ExecutionEngine, "admit", "core.admit")
        wrap(ExecutionEngine, "change_level", "core.change_level")
        for noc in (NocModel, QueuedNocModel):
            wrap(noc, "begin_transfer", "noc.begin_transfer")
            wrap(noc, "end_transfer", "noc.end_transfer")
        wrap(PowerMeter, "breakdown", "power.breakdown")
        wrap(PowerManager, "tick", "power.manager_tick")
        wrap(PowerManager, "start_level_for", "power.start_level")
        wrap(TestSchedulerBase, "tick", "testing.scheduler_tick")
        wrap(TestRunner, "start", "testing.runner_start")
        wrap(TestRunner, "abort", "testing.runner_abort")
        wrap(FaultInjector, "tick", "aging.fault_tick")
        wrap(MetricsCollector, "sample_power", "metrics.sample")
        wrap(MetricsCollector, "sample_counts", "metrics.sample")

    def fixed_pass(self, tracer) -> Dict[str, object]:
        run_system = self.run_system
        rows = []
        events = 0
        tests_completed = 0.0
        t0 = perf_counter()
        for i, config in enumerate(self.configs[:KERNEL_TRACE_POINTS]):
            if tracer is not None:
                tracer.current_request = i
                with tracer.span("point"):
                    result = run_system(config)
            else:
                result = run_system(config)
            events += result.events_fired
            summary = result.summary()
            tests_completed += summary["tests_completed"]
            rows.append((i, summary))
        wall = perf_counter() - t0
        rows = self.keyed_rows(rows)
        return {"wall_s": wall, "rows": rows, "events": events,
                "tests_completed": tests_completed}


class Sweep(Workload):
    name = "sweep"

    def imports(self) -> None:
        from repro.cache import RunCache
        from repro.experiments import run_many

        self.RunCache = RunCache
        self.run_many = run_many

    def fixture(self) -> None:
        calls = sweep_calls(self.seed)
        index: Dict[str, int] = {}
        unique: List[Dict[str, object]] = []
        self.calls = []
        for call in calls:
            entries = []
            for overrides in call:
                key = _key(overrides)
                first = key not in index
                if first:
                    index[key] = len(unique)
                    unique.append(overrides)
                entries.append((index[key], first))
            self.calls.append(entries)
        self.build_configs(unique)
        self.load_oracle()

    def start(self) -> None:
        super().start()
        self.n_caches = 0
        self.cache = self.new_cache()

    def new_cache(self):
        self.n_caches += 1
        return self.RunCache(cache_dir=self.fresh_dir(f"cache-{self.n_caches}"))

    def _run_calls(self, calls, run_many, deadline: Optional[float]):
        rows = []
        points = events = hits = 0
        latencies = []
        missed = []
        k = 0
        t0 = perf_counter()
        while True:
            if k and k % len(self.calls) == 0:
                # The sequence restarts with a fresh cache, so the share
                # of repeated points stays the recorded one.
                self.cache = self.new_cache()
            call = calls[k % len(calls)]
            configs = [self.configs[i] for i, _ in call]
            a = perf_counter()
            results = run_many(configs, jobs=JOBS, cache=self.cache)
            b = perf_counter()
            latencies.append(b - a)
            for (i, first), result in zip(call, results):
                rows.append((i, result.summary()))
                if first:
                    events += result.events_fired
                    missed.append(len(rows) - 1)
                else:
                    hits += 1
            points += len(call)
            k += 1
            if deadline is None:
                if k == len(calls):
                    break
            elif (b - t0 >= deadline and k >= SWEEP_MIN_CALLS
                  and k % SUITE_CALLS == 0):
                # Whole suites only, so every run has the same call mix.
                break
        rows = self.keyed_rows(rows)
        missed = [rows[pos][0] for pos in missed]
        return {
            "wall_s": b - t0, "points": points, "events": events,
            "rows": rows, "calls": k, "latencies_s": latencies,
            "request_kind": "run_many call",
            "slo_limit_ms": SLO_MS[self.name],
            "missed": missed, "repeats": hits,
        }

    def window(self, seconds: float) -> Dict[str, object]:
        out = self._run_calls(self.calls, self.run_many, seconds)
        out["info"] = {
            "calls": out["calls"],
            "points": out["points"],
            "repeat_share": round(out["repeats"] / out["points"], 4),
            "horizon_us": SWEEP_HORIZON_US,
            "loop": f"closed, 1 caller, jobs={JOBS}",
        }
        return out

    def install(self, tracer) -> None:
        from repro.cache import RunCache

        counts = tracer.counts

        def note_hit(_args, result, _token):
            counts["cache.hits"] += result is not None

        self.run_many = tracer.traced(self.run_many, "experiments.run_many")
        tracer.wrap_method(RunCache, "get_result", "cache.get",
                           after=note_hit)
        tracer.wrap_method(RunCache, "put_result", "cache.put")

    def fixed_pass(self, tracer) -> Dict[str, object]:
        out = self._run_calls(self.calls[:SWEEP_TRACE_SUITES * SUITE_CALLS],
                              self.run_many, None)
        out["cache_bytes"] = self.cache.store.total_bytes()
        return out


class Campaign(Workload):
    name = "campaign"

    def imports(self) -> None:
        from repro.campaign import CampaignSpec, ResultStore, run_campaign
        from repro.campaign.store import FAILURES_FILE, RESULTS_FILE

        self.CampaignSpec = CampaignSpec
        self.ResultStore = ResultStore
        self.run_campaign = run_campaign
        self.files = (RESULTS_FILE, FAILURES_FILE)

    def fixture(self) -> None:
        self.specs = [
            (data, self.CampaignSpec.from_dict(data))
            for data in campaign_specs(self.seed)
        ]
        self.load_oracle()

    def run_specs(self) -> Dict[str, object]:
        """Every spec once, each campaign in a fresh directory."""
        run_campaign = self.run_campaign
        done = []
        t0 = perf_counter()
        for k, (data, spec) in enumerate(self.specs):
            path = self.fresh_dir(f"campaign-{k}")
            report = run_campaign(path, spec=spec, jobs=JOBS)
            done.append((data, spec, path, report.aggregate))
        wall = perf_counter() - t0
        # Outside the timed region: read back what the campaigns stored.
        rows = []
        campaigns = []
        retries = 0
        max_points = 0
        for data, spec, path, agg in done:
            records = self.ResultStore(os.path.join(path, self.files[0])).load()
            point_tasks = []
            for digest, record in sorted(records.items()):
                rows.append((digest, record["summary"]))
                task = {"spec": data, "cell": record["cell"],
                        "seed": record["seed"]}
                self.tasks[digest] = task
                point_tasks.append(task)
            campaigns.append({"key": spec.spec_digest(), "digest": agg,
                              "points": point_tasks})
            failures = os.path.join(path, self.files[1])
            if os.path.exists(failures):
                with open(failures, "r", encoding="utf-8") as handle:
                    retries += sum(1 for line in handle if line.strip())
            max_points += len(spec.cells()) * spec.stop.max_runs
        return {
            "wall_s": wall, "points": len(rows), "rows": rows,
            "campaigns": campaigns, "retries": retries,
            "max_points": max_points,
        }

    def install(self, tracer) -> None:
        from repro.campaign import ResultStore, RobustExecutor

        self.run_campaign = tracer.traced(self.run_campaign,
                                          "campaign.run_campaign")
        tracer.wrap_method(RobustExecutor, "run", "campaign.executor_run")
        tracer.wrap_method(ResultStore, "append", "campaign.checkpoint_append")

    def fixed_pass(self, tracer) -> Dict[str, object]:
        return self.run_specs()


# ----------------------------------------------------------------------
# serve: server subprocess + open-loop asyncio client
# ----------------------------------------------------------------------
class ServeClientError(RuntimeError):
    pass


async def _http(port: int, method: str, path: str, body: bytes = b""):
    """One request on its own connection: ``(status, first_byte_t, lines)``.

    ``lines`` are the body's lines (a JSONL stream or one JSON document).
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        first_byte = perf_counter()
        if not status_line:
            raise ServeClientError(f"{method} {path}: connection closed")
        status = int(status_line.split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        data = await reader.read()
        return status, first_byte, data.splitlines()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class Serve(Workload):
    name = "serve"

    def imports(self) -> None:
        # The client side needs no repro import; the server's imports
        # happen in its own process and are timed as server start.
        pass

    def fixture(self) -> None:
        self.requests = serve_requests(self.seed, SERVE_REQUESTS)
        self.bodies = [json.dumps(r).encode("utf-8") for r in self.requests]
        self.load_oracle()

    def start(self) -> None:
        state = self.fresh_dir("serve-state")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(JOBS), "--state-dir", state],
            env=child_env(os.getcwd()),
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        )
        # Readiness probe: the server prints its bound address once the
        # listener is up; reading that line blocks without polling.
        self.port = None
        for line in self.proc.stdout:
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        if self.port is None:
            raise ServeClientError("server exited before listening")
        asyncio.run(self._warm())

    async def _warm(self) -> None:
        status, _, lines = await _http(self.port, "GET", "/healthz")
        if status != 200 or not json.loads(b"\n".join(lines))["ok"]:
            raise ServeClientError("server not healthy")
        # Points long enough to keep every worker busy at once, so the
        # pool has started all its workers and each has imported the
        # kernel before the schedule begins.
        body = json.dumps({
            "tenant": "warmup",
            "points": [{"width": 4, "height": 4, "horizon_us": 20_000.0,
                        "seed": -1 - s} for s in range(2 * JOBS)],
        }).encode("utf-8")
        status, _, lines = await _http(self.port, "POST", "/v1/sweep", body)
        if status != 200 or json.loads(lines[-1]).get("event") != "done":
            raise ServeClientError("warm-up request failed")

    def stop(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        self.proc = None

    def status_counters(self) -> Dict[str, float]:
        async def fetch():
            return await _http(self.port, "GET", "/status")

        status, _, lines = asyncio.run(fetch())
        if status != 200:
            raise ServeClientError(f"/status answered {status}")
        return json.loads(b"\n".join(lines))["engine"]["counters"]

    async def _open_loop(self):
        """Send the requests at ``SERVE_RATE``; at most ``JOBS`` in flight."""
        n = len(self.requests)
        slots = asyncio.Semaphore(JOBS)
        records: List[Dict[str, object]] = [None] * n  # type: ignore[list-item]

        async def one(i: int, due: float, sent: float) -> None:
            try:
                status, first, lines = await _http(
                    self.port, "POST", "/v1/sweep", self.bodies[i]
                )
                records[i] = {"due": due, "sent": sent, "first": first,
                              "done": perf_counter(), "status": status,
                              "lines": lines}
            except (OSError, ServeClientError, ValueError) as exc:
                records[i] = {"due": due, "sent": sent, "first": None,
                              "done": perf_counter(), "status": 0,
                              "lines": [], "error": str(exc)}
            finally:
                slots.release()

        tasks = []
        t0 = perf_counter() + 0.01
        for i in range(n):
            due = t0 + serve_due(i)
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await slots.acquire()
            tasks.append(asyncio.create_task(one(i, due, perf_counter())))
        await asyncio.gather(*tasks)
        return records

    def _rows(self, records) -> List[Tuple[str, Dict[str, float]]]:
        """Result rows of every request; a failed request is an error."""
        rows = []
        for req, rec in zip(self.requests, records):
            events = ([json.loads(line) for line in rec["lines"]]
                      if rec["status"] == 200 else [])
            results = [e for e in events if e.get("event") == "result"]
            if (len(results) != len(req["points"])
                    or events[-1].get("event") != "done"):
                raise ServeClientError(
                    f"{req['request_id']}: status {rec['status']} "
                    f"{rec.get('error', '')}"
                )
            for e in results:
                rows.append((e["digest"], e["summary"]))
                self.tasks.setdefault(
                    e["digest"], {"overrides": req["points"][e["index"]]}
                )
        return rows

    def install(self, tracer) -> None:
        """Nothing to wrap: the server is another process.  Client-side
        spans are added by :meth:`fixed_pass` once the requests are done."""

    def fixed_pass(self, tracer) -> Dict[str, object]:
        before = self.status_counters()
        a = perf_counter()
        records = asyncio.run(self._open_loop())
        wall = perf_counter() - a
        after = self.status_counters()
        if tracer is not None:
            # Requests are timed from their due send time, not from when
            # the client got round to sending them.
            for i, rec in enumerate(records):
                parent = tracer.add_span("serve.request", rec["due"],
                                         rec["done"], request=i)
                tracer.add_span("serve.generator_lag", rec["due"],
                                rec["sent"], parent, i)
                if rec["first"] is not None:
                    tracer.add_span("serve.ttfb", rec["sent"], rec["first"],
                                    parent, i)
                    tracer.add_span("serve.stream", rec["first"],
                                    rec["done"], parent, i)
        return {
            "wall_s": wall,
            "rows": self._rows(records),
            "counters": {
                k: after.get(k, 0) - before.get(k, 0)
                for k in set(after) | set(before)
            },
        }


WORKLOAD_CLASSES = {cls.name: cls for cls in (Kernel, Sweep, Campaign, Serve)}
#: Extra fixed work in a workload's traced run: the campaign layers
#: (supervisor, checkpoints, stopping rule) and the serve layers (HTTP,
#: engine queue, coalescing) are traced alongside sweep's, the other
#: layers outside the kernel.
TRACE_COMPANIONS = {"sweep": (Campaign, Serve)}


def oracle_tasks_for_recording(name: str, seed: int):
    """Every point a run at ``seed`` may attempt, for the recorded oracle."""
    if name == "kernel":
        return [{"overrides": p} for p in kernel_points(seed)]
    if name == "sweep":
        unique = {_key(p): p for call in sweep_calls(seed) for p in call}
        return [{"overrides": p} for p in unique.values()]
    if name == "serve":
        reqs = serve_requests(seed, SERVE_REQUESTS)
        unique = {_key(p): p for r in reqs for p in r["points"]}
        return [{"overrides": p} for p in unique.values()]
    raise ValueError(name)
