"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME``.

Run from the repository root.  One invocation measures one workload of
``BENCHMARK.json`` (``kernel`` or ``sweep``, see ``workloads.py``) on
inputs generated from ``--seed``, and prints as its last stdout line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``perfbench/spread.py`` repeats it over seeds and reports each metric's
spread.

``--trace 0`` reports the end-to-end metrics.  Every step runs in a
fresh interpreter started from here:

1. one discarded warm-up set-up, so no timed run compiles bytecode or
   reads cold files;
2. set-up-only runs, half of them here and half after step 3;
   ``setup_s`` is the median set-up time of these and step 3;
3. the measured run: one more set-up, then at least ``--seconds`` of
   work (a workload may set a minimum amount of work on top);
4. the oracle check of every point the measured run attempted (rows
   recorded for the default seed, computed for other seeds).

``--trace 1`` reports the per-layer metrics instead: the same warm-up
and set-up runs, then one untraced and two traced runs of a fixed amount
of work.  The traced runs must agree on their exact counts, and on
``kernel`` the layer self times must add up to the traced wall time.

Host time throughout; simulated statistics are checked for identity,
never timed.  No time is compared against a recorded figure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    DEFAULT_SEED,
    END_TO_END,
    JOBS,
    PER_LAYER,
    WORK_ROOT,
    WORKLOADS,
    child_env,
    fingerprint,
    has_program,
    median,
    percentile,
)
from oracle import check_rows, negative_control

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
#: Set-up-only runs, half before and half after the measured run (which
#: adds one more sample).  One set-up takes a fraction of a second, so
#: samples taken back to back can all land in one slow or fast spell of
#: a shared host; spread around the window they sample the host as the
#: window does.
SETUP_RUNS = 12
#: Wall-clock budget of one invocation; children are killed past it.
BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def info(label: str, payload) -> None:
    """One human-readable line before the final JSON line."""
    print(f"perfbench {label}: {json.dumps(payload, sort_keys=True)}", flush=True)


class Invocation:
    def __init__(self, root: str, args: argparse.Namespace, workdir: str) -> None:
        self.root = root
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.n_children = 0

    # ------------------------------------------------------------------
    def child(self, mode: str, *extra: str, tasks: Optional[dict] = None):
        """Run one fresh interpreter; returns ``(document, peak_rss_mb)``.

        The peak RSS comes from ``wait4``: the largest resident set of
        the child and every descendant it waited for (pool workers, the
        server).
        """
        self.n_children += 1
        tag = f"{self.n_children:02d}-{mode}"
        out = os.path.join(self.workdir, f"{tag}.json")
        cmd = [
            sys.executable, CHILD, mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--workdir", os.path.join(self.workdir, tag),
            "--out", out,
        ] + list(extra)
        if tasks is not None:
            path = os.path.join(self.workdir, f"{tag}-tasks.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(tasks, handle)
            cmd += ["--tasks", path]
        # Each child leads its own process group, so that every process
        # it starts (pool workers, the server and its workers) can be
        # waited for, or killed, as one.
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=child_env(self.root),
            stdout=sys.stderr, stderr=sys.stderr, start_new_session=True,
        )
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchmarkError(f"{tag} overran the time budget")
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        if proc.returncode != 0:
            raise BenchmarkError(f"{tag} exited with {proc.returncode}")
        with open(out, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        shutil.rmtree(os.path.join(self.workdir, tag), ignore_errors=True)
        return doc, usage.ru_maxrss / 1024.0

    def setup_samples(self, n: int) -> List[Dict[str, float]]:
        return [self.child("setup")[0]["setup"] for _ in range(n)]

    # ------------------------------------------------------------------
    def check(self, docs: List[dict], recompute: bool = False):
        """Oracle check of every point attempted in ``docs``.

        Rows recorded for the default seed are used as they are; the
        rest are computed by serial ``run_system`` calls in an oracle
        child.  ``recompute`` computes every row serially, one process,
        so that the serial seconds per point are known too.  Returns
        ``(attempted, ok, seconds, details, correct)``.
        """
        rows = [tuple(r) for doc in docs for r in doc["rows"]]
        oracle_rows: Dict[str, dict] = {}
        tasks: Dict[str, dict] = {}
        recorded_campaigns: Dict[str, str] = {}
        for doc in docs:
            oracle_rows.update(doc["recorded"])
            tasks.update(doc["tasks"])
            recorded_campaigns.update(doc["recorded_campaigns"])
        n_recorded = len(oracle_rows)
        campaigns = [c for doc in docs for c in doc["campaigns"]]
        todo = [t for d, t in tasks.items() if recompute or d not in oracle_rows]
        need = {
            c["key"]: c["points"] for c in campaigns
            if recompute or c["key"] not in recorded_campaigns
        }
        seconds: Dict[str, float] = {}
        computed_campaigns: Dict[str, str] = {}
        if todo or need:
            computed, _ = self.child("oracle", tasks={
                "tasks": todo,
                "campaigns": [{"key": k, "points": p} for k, p in need.items()],
                "jobs": 1 if recompute else JOBS,
            })
            computed_campaigns = computed["campaigns"]
            for digest, entry in computed["rows"].items():
                seconds[digest] = entry["seconds"]
                # A recorded row wins over a live one: if they differ,
                # the timed path's row fails the check.
                oracle_rows.setdefault(digest, entry)
        # A row whose digest the oracle never produced (the program
        # reported a config the benchmark did not send) is not ok.
        ok, unchecked = check_rows(rows, oracle_rows)
        before, after, attempts = negative_control(rows, oracle_rows)
        caught = before - after == attempts
        bad_campaigns = sum(
            1 for c in campaigns
            if recorded_campaigns.get(c["key"], computed_campaigns.get(c["key"]))
            != c["digest"]
        )
        details = {
            "attempted": len(rows),
            "ok": ok,
            "recorded_rows_used": n_recorded,
            "computed_rows": len(seconds),
            "rows_without_oracle": len(unchecked),
            "negative_control": {"ok_before": before, "ok_after": after,
                                 "caught": caught},
            "campaign_digests_checked": len(campaigns),
            "campaign_digest_mismatches": bad_campaigns,
        }
        correct = ok == len(rows) and caught and bad_campaigns == 0
        return len(rows), ok, seconds, details, correct

    # ------------------------------------------------------------------
    def measure(self) -> dict:
        self.child("setup")  # discarded warm-up
        samples = self.setup_samples(SETUP_RUNS // 2)
        doc, rss_mb = self.child("measure")
        samples.append(doc["setup"])
        samples += self.setup_samples(SETUP_RUNS - SETUP_RUNS // 2)
        out = doc["out"]
        attempted, ok, _, details, correct = self.check([doc])
        wall = out["wall_s"]
        latencies = out["latencies_s"]
        limit_s = out["slo_limit_ms"] / 1000.0
        slo_met = sum(1 for lat in latencies if lat <= limit_s)
        p50, n, beyond50 = percentile(latencies, 0.5)
        p90, _, beyond90 = percentile(latencies, 0.9)
        failed = attempted - ok
        metrics = {
            "setup_s": median([s["total_s"] for s in samples]),
            "points_per_s": out["points"] / wall,
            "sim_events_per_s": out["events"] / wall,
            "request_latency_p50_ms": p50 * 1000.0,
            "request_latency_p90_ms": p90 * 1000.0,
            "slo_met_fraction": slo_met / len(latencies),
            "peak_rss_mb": rss_mb,
            "ok_fraction": ok / attempted,
        }
        info("workload", {"seed": self.args.seed, **out.get("info", {})})
        info("latency", {"request": out["request_kind"], "samples": n,
                         "beyond_p50": beyond50, "beyond_p90": beyond90,
                         "slo_limit_ms": out["slo_limit_ms"]})
        info("setup", {
            step: median([s[step] for s in samples])
            for step in ("import_s", "fixture_s", "start_s", "total_s")
        } | {"samples": len(samples)})
        info("oracle", details)
        return {
            "correct": correct and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit, _better, _bound in END_TO_END
            },
        }

    # ------------------------------------------------------------------
    def trace(self) -> dict:
        self.child("setup")  # discarded warm-up
        samples = self.setup_samples(SETUP_RUNS // 2)
        plain, _ = self.child("pass")
        samples.append(plain["setup"])
        traced = [self.child("pass", "--traced")[0] for _ in range(2)]
        samples += self.setup_samples(SETUP_RUNS - SETUP_RUNS // 2)
        attempted, ok, seconds, details, correct = self.check(
            [plain] + traced, recompute=self.args.workload == "sweep"
        )
        layer: Dict[str, float] = {}
        a, b = traced
        for name in a["layer"]:
            layer[name] = 0.5 * (a["layer"][name] + b["layer"][name])
        for step in ("import_s", "fixture_s", "start_s"):
            layer[f"setup.{step}"] = median([s[step] for s in samples])
        layer["trace.overhead_ratio"] = (
            0.5 * (a["wall_s"] + b["wall_s"]) / plain["wall_s"]
        )
        if self.args.workload == "sweep":
            # Serial seconds of the points the pool computed, over the
            # worker-seconds the pool phase had available.
            serial_s = sum(seconds[d] for d in a["out"]["missed"])
            layer["experiments.parallel_efficiency"] = serial_s / (
                JOBS * layer["experiments.pool_wait_s"]
            )
        exact_ok = a["exact"] == b["exact"]
        checks_ok = all(doc["checks"].get("sum_to_wall_ok", True) for doc in traced)
        absent = [name for name, _u, _b in PER_LAYER if name not in layer]
        info("trace", {
            "exact_counts": a["exact"], "exact_repeat": exact_ok,
            "checks": [doc["checks"] for doc in traced],
            "walls_s": [doc["wall_s"] for doc in [plain] + traced],
            "not_visible_here": absent,
        })
        info("oracle", details)
        failed = attempted - ok
        return {
            "correct": correct and exact_ok and checks_ok and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": layer.get(name, 0.0), "unit": unit}
                for name, unit, _better in PER_LAYER
            },
        }


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Wait until no process of the group is left; kill stragglers."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            _kill_group(pgid)
            deadline = time.monotonic() + grace_s
        time.sleep(0.02)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not has_program(root):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(
        WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    inv = Invocation(root, args, workdir)
    try:
        info("fingerprint", fingerprint())
        result = inv.trace() if args.trace else inv.measure()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
