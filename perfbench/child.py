"""One fresh interpreter of the benchmark (started by ``run.py``).

Modes:

* ``setup``   -- the timed set-up steps only, then stop;
* ``measure`` -- set-up, then the timed window of ``--seconds``;
* ``pass``    -- set-up, then the workload's fixed traced-run work, with
  the outside-in tracer installed when ``--traced`` is given;
* ``oracle``  -- serial ``run_system`` rows for the tasks in ``--tasks``;
* ``record``  -- rewrite ``oracle/<workload>.json`` for the default seed.

Every mode writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

from common import DEFAULT_SEED, WORK_ROOT


def _setup(wl, tracer=None):
    t0 = perf_counter()
    wl.imports()
    t1 = perf_counter()
    if tracer is not None:
        # Class-level wrappers go in before any system is built.
        wl.install(tracer)
    wl.fixture()
    t2 = perf_counter()
    wl.start()
    t3 = perf_counter()
    if tracer is not None:
        tracer.clear()
    return {"import_s": t1 - t0, "fixture_s": t2 - t1, "start_s": t3 - t2,
            "total_s": t3 - t0}


def run_workload(args) -> dict:
    import workloads

    main_cls = workloads.WORKLOAD_CLASSES[args.workload]
    parts = [main_cls(args.seed, args.workdir)]
    if args.mode == "pass":
        parts += [
            cls(args.seed, os.path.join(args.workdir, cls.name))
            for cls in workloads.TRACE_COMPANIONS.get(args.workload, ())
        ]
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
    try:
        setup = _setup(parts[0], tracer)
        for extra in parts[1:]:
            _setup(extra, tracer)
        if args.mode == "setup":
            return {"setup": setup}
        if args.mode == "measure":
            outs = [parts[0].window(args.seconds)]
        else:
            outs = [part.fixed_pass(tracer) for part in parts]
    finally:
        for part in parts:
            part.stop()
    rows = [row for out in outs for row in out.pop("rows")]
    digests = {digest for digest, _ in rows}
    doc = {
        "setup": setup,
        "out": outs[0],
        "wall_s": sum(out["wall_s"] for out in outs),
        "rows": rows,
        "tasks": {},
        "recorded": {},
        "campaigns": [c for out in outs for c in out.get("campaigns", [])],
        "recorded_campaigns": {},
    }
    for part in parts:
        doc["tasks"].update(
            {d: t for d, t in part.tasks.items() if d in digests}
        )
        doc["recorded"].update(part.oracle_slice(digests))
        doc["recorded_campaigns"].update(part.recorded["campaigns"])
    if tracer is not None:
        import layers

        doc.update({"layer": {}, "exact": {}, "checks": {}})
        for part, out in zip(parts, outs):
            layer, exact, checks = layers.DERIVE[part.name](tracer, out)
            doc["layer"].update(layer)
            doc["exact"].update(exact)
            doc["checks"].update(checks)
        tracer.dump(os.path.join(WORK_ROOT, f"spans-{args.workload}.json"))
    return doc


def run_oracle(args) -> dict:
    import oracle

    with open(args.tasks, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return oracle.compute(
        spec["tasks"],
        [(c["key"], c["points"]) for c in spec.get("campaigns", [])],
        jobs=spec.get("jobs", 2),
    )


def run_record(args) -> dict:
    """Recompute and save the default-seed oracle of one workload."""
    import oracle
    import workloads

    if args.workload == "campaign":
        wl = workloads.Campaign(DEFAULT_SEED, args.workdir)
        _setup(wl)
        out = wl.run_specs()
        campaigns = [(c["key"], c["points"]) for c in out["campaigns"]]
        computed = oracle.compute([], campaigns)
        for c in out["campaigns"]:
            if computed["campaigns"][c["key"]] != c["digest"]:
                raise SystemExit(f"campaign {c['key'][:12]}: digest mismatch")
        oracle.save_recorded("campaign", DEFAULT_SEED, computed["rows"],
                             computed["campaigns"])
    else:
        tasks = workloads.oracle_tasks_for_recording(args.workload, DEFAULT_SEED)
        computed = oracle.compute(tasks)
        oracle.save_recorded(args.workload, DEFAULT_SEED, computed["rows"])
    return {"rows": len(computed["rows"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "pass",
                                         "oracle", "record"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tasks", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    if args.mode == "oracle":
        doc = run_oracle(args)
    elif args.mode == "record":
        doc = run_record(args)
    else:
        doc = run_workload(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
