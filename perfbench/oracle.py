"""The serial ``run_system`` oracle behind ``ok_fraction``.

A point is ok only if the ``summary()`` row the benchmark received for
it -- from an in-process call, a pooled or cached ``run_many`` result, a
campaign checkpoint record or a served JSONL event -- is float-exactly
equal to the row of a plain serial ``run_system`` call on the same
config.  Campaigns are also checked as a whole: the ``aggregate_digest``
of the timed campaign must equal the digest of records rebuilt from
serial runs of the same points.

Rows for the default seed are recorded in ``oracle/<workload>.json`` (so
a change to the simulator's results shows even where the timed path and
the oracle would agree with each other); rows for any other seed are
computed by :func:`compute` in a separate process, outside the timed
window.  Nothing here imports ``repro.batch``.
"""

from __future__ import annotations

import json
import math
import os
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from common import HERE, JOBS

ORACLE_DIR = os.path.join(HERE, "oracle")

#: Oracle entry of one point: summary row, events fired, and when
#: computed here the serial wall seconds and (campaign points only) the
#: checkpoint record the campaign store would hold.
Entry = Dict[str, object]


def recorded_path(workload: str) -> str:
    return os.path.join(ORACLE_DIR, f"{workload}.json")


def load_recorded(workload: str, seed: int) -> Dict[str, object]:
    """Recorded oracle of ``workload`` if it was recorded for ``seed``."""
    path = recorded_path(workload)
    if not os.path.exists(path):
        return {"rows": {}, "campaigns": {}}
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("seed") != seed:
        return {"rows": {}, "campaigns": {}}
    keys = doc["keys"]
    rows = {
        digest: {"summary": dict(zip(keys, values[:-1])), "events": values[-1]}
        for digest, values in doc["rows"].items()
    }
    return {"rows": rows, "campaigns": doc.get("campaigns", {})}


def save_recorded(
    workload: str, seed: int, rows: Dict[str, Entry],
    campaigns: Optional[Dict[str, str]] = None,
) -> None:
    keys = sorted(next(iter(rows.values()))["summary"])
    doc = {
        "seed": seed,
        "keys": keys,
        "rows": {
            digest: [entry["summary"][k] for k in keys] + [entry["events"]]
            for digest, entry in sorted(rows.items())
        },
        "campaigns": dict(sorted((campaigns or {}).items())),
    }
    os.makedirs(ORACLE_DIR, exist_ok=True)
    with open(recorded_path(workload), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
        handle.write("\n")


# ----------------------------------------------------------------------
# The check
# ----------------------------------------------------------------------
def row_matches(row: Dict[str, float], entry: Entry) -> bool:
    """Float-exact equality of a received row and the oracle's row."""
    expected = entry["summary"]
    if set(row) != set(expected):
        return False
    for key, value in expected.items():
        got = row[key]
        # ``==`` alone would accept -0.0 for 0.0; compare bit patterns.
        if not (got == value and math.copysign(1.0, got) == math.copysign(1.0, value)):
            return False
    return True


def check_rows(
    rows: Sequence[Tuple[str, Dict[str, float]]], oracle: Dict[str, Entry]
) -> Tuple[int, List[str]]:
    """``(ok, missing)``: matched attempts and digests with no oracle row."""
    ok = 0
    missing = []
    for digest, row in rows:
        entry = oracle.get(digest)
        if entry is None:
            missing.append(digest)
        elif row_matches(row, entry):
            ok += 1
    return ok, missing


def negative_control(
    rows: Sequence[Tuple[str, Dict[str, float]]], oracle: Dict[str, Entry]
) -> Tuple[int, int, int]:
    """Re-run the check with one oracle row perturbed by one ulp.

    The perturbed point is the first one that matched.  Returns
    ``(ok_before, ok_after, attempts_of_perturbed_point)``; a live check
    loses exactly the attempts of the perturbed point.
    """
    ok_before, _ = check_rows(rows, oracle)
    matching = [d for d, row in rows if d in oracle and row_matches(row, oracle[d])]
    if not matching:
        return ok_before, ok_before, 0
    digest = matching[0]
    entry = oracle[digest]
    summary = dict(entry["summary"])
    key = sorted(summary)[0]
    summary[key] = math.nextafter(float(summary[key]), math.inf)
    perturbed = dict(oracle)
    perturbed[digest] = {**entry, "summary": summary}
    ok_after, _ = check_rows(rows, perturbed)
    return ok_before, ok_after, sum(1 for d, _ in rows if d == digest)


# ----------------------------------------------------------------------
# Computing oracle rows (oracle child process; imports repro lazily)
# ----------------------------------------------------------------------
def make_config(overrides: Dict[str, object]):
    """``SystemConfig`` defaults overlaid with ``overrides`` (as served)."""
    from repro.core.config_io import config_from_dict, config_to_dict
    from repro.core.system import SystemConfig

    data = config_to_dict(SystemConfig())
    data.update(overrides)
    return config_from_dict(data)


def _compute_point(task: Dict[str, object]) -> Tuple[str, Entry]:
    """One serial ``run_system`` call (pool worker; module-level)."""
    from repro.core.system import run_system
    from repro.obs.provenance import config_digest

    if "spec" in task:
        from repro.campaign import CampaignSpec, record_from_result
        from repro.campaign.spec import freeze_value

        spec = CampaignSpec.from_dict(task["spec"])
        cell = tuple((name, freeze_value(value)) for name, value in task["cell"])
        point = spec.point(cell, int(task["seed"]))
        t0 = perf_counter()
        result = run_system(point.config)
        return point.digest, {
            "summary": result.summary(),
            "events": result.events_fired,
            "seconds": perf_counter() - t0,
            "record": record_from_result(point, result),
        }
    config = make_config(task["overrides"])
    t0 = perf_counter()
    result = run_system(config)
    return config_digest(config), {
        "summary": result.summary(),
        "events": result.events_fired,
        "seconds": perf_counter() - t0,
    }


def compute(
    tasks: Iterable[Dict[str, object]],
    campaigns: Sequence[Tuple[str, List[Dict[str, object]]]] = (),
    jobs: int = JOBS,
) -> Dict[str, object]:
    """Serial ``run_system`` rows for ``tasks`` plus campaign digests.

    ``campaigns`` lists ``(key, point_tasks)``; each campaign's digest is
    :func:`repro.campaign.aggregate_digest` over records rebuilt from the
    serial runs.  Points are spread over ``jobs`` spawned processes; each
    still runs one plain ``run_system`` call per point.
    """
    import multiprocessing

    unique: Dict[str, Dict[str, object]] = {}
    for task in list(tasks) + [t for _, ts in campaigns for t in ts]:
        unique.setdefault(json.dumps(task, sort_keys=True), task)
    work = list(unique.values())
    if jobs > 1 and len(work) > 1:
        ctx = multiprocessing.get_context("spawn")
        pool = ctx.Pool(min(jobs, len(work)))
        try:
            done = pool.map(_compute_point, work, chunksize=1)
            pool.close()
        finally:
            pool.terminate()
            pool.join()
    else:
        done = [_compute_point(task) for task in work]
    by_key = dict(zip(unique, done))
    rows = {digest: entry for digest, entry in done}
    digests: Dict[str, str] = {}
    if campaigns:
        from repro.campaign import aggregate_digest

        for key, point_tasks in campaigns:
            records = [
                by_key[json.dumps(t, sort_keys=True)][1]["record"]
                for t in point_tasks
            ]
            digests[key] = aggregate_digest(records)
    for entry in rows.values():
        entry.pop("record", None)
    return {"rows": rows, "campaigns": digests}
