"""Shared helpers of the benchmark: paths, percentiles, fingerprint.

Imports nothing from ``repro``: the orchestrator (``run.py``) never loads
the package under test, and the measuring children start their set-up
clock before they do.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from typing import Dict, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch state of one checkout (caches, campaign directories, child
#: results, bytecode).  Ignored by git; every run removes its own subtree.
WORK_ROOT = os.path.join(HERE, ".work")
DEFAULT_SEED = 1
#: Pool workers, server workers and client connections in flight.
JOBS = 2
#: Minimum samples strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than ``MIN_BEYOND`` beyond it."""


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int, int]:
    """Nearest-rank percentile ``q`` (0..1) as ``(value, n, n_beyond)``.

    Raises :class:`TooFewSamples` unless at least ``MIN_BEYOND`` samples
    lie strictly beyond the chosen rank, so a reported p90 is never the
    maximum of a handful of values.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} of {n} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return xs[rank - 1], n, beyond


def median(samples: Sequence[float]) -> float:
    xs = sorted(samples)
    n = len(xs)
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def has_program(root: str) -> bool:
    return os.path.isfile(os.path.join(root, "src", "repro", "__init__.py"))


def child_env(root: str) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``src`` goes on the path, and bytecode is written under the work
    directory so that only the discarded warm-up run compiles modules.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK_ROOT, "pycache")
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fingerprint() -> Dict[str, object]:
    """Machine fingerprint printed with every run."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:
        numpy_version = "absent"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
    }


def _benchmark() -> Dict[str, object]:
    """``BENCHMARK.json`` at the repository root: the metric lists."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


_SPEC = _benchmark()
#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the
#: share of the parent's median by which a metric may worsen.
END_TO_END = tuple(
    (m["name"], m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"]
)
#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = tuple(
    (m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"]
)
#: The workloads a run may be asked for.
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
