"""Run provenance: manifests that make a result self-describing.

A :class:`RunManifest` is attached to every ``SimulationResult`` (and,
as a plain dict, to every ``ExperimentResult``) so any archived result
answers: which code version produced it, from which config and seed,
with which digest over the computed numbers, and where the wall time
went.  Manifests are plain picklable dataclasses because results cross
process boundaries in ``repro.experiments.run_many``.

This module must stay import-light: it is imported by ``repro.core``
machinery, so it cannot import ``repro`` (version) or ``repro.core``
(config) itself — callers pass the version string and a config dict
(``repro.core.config_io.config_to_dict``) in.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:  # import-light: annotation only, no runtime repro.core
    from repro.core.system import SimulationResult


def digest_of(parts: Iterable[object]) -> str:
    """sha256 hex digest over ``repr`` of each part.

    ``repr`` of a float round-trips its bit pattern, so digests over
    result rows detect any numeric drift.  This is the same construction
    the perf-kernel benchmark uses for its ``rows_digest``.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()


def rows_digest(rows: Iterable[object]) -> str:
    """Digest over an iterable of result rows (dicts, tuples, ...)."""
    return digest_of(rows)


def config_digest(config: object) -> str:
    """Stable identity of a config dataclass (any one, by duck typing).

    Digest over the sorted ``dataclasses.asdict`` items, so two configs
    are identical iff every field (nested parameter blocks included)
    compares equal by ``repr``.  This is the point identity used by the
    campaign checkpoint store and by sweep failure attribution.
    """
    return digest_of(sorted(dataclasses.asdict(config).items()))



def result_digest(result: SimulationResult) -> str:
    """Stable digest over everything a run observably produced.

    Covers the scalar summary row, per-core busy/aging/test tallies,
    per-level test counts, NoC stats, event/abort/skip counters, policy
    names and the full fault-record list — everything except wall-time
    provenance (profile timings, journal event counts), which legitimately
    differs between two bit-identical runs.  Serial, pooled, cached and
    served identity is asserted on this digest.
    """
    faults = tuple(
        (r.core_id, r.injected_at, r.manifest_level, r.kind, r.detected_at)
        for r in result.fault_records
    )
    return digest_of(
        [
            sorted(result.summary().items()),
            sorted(result.per_core_busy_us.items()),
            sorted(result.per_core_age_stress.items()),
            sorted(result.per_core_tests.items()),
            sorted(result.per_level_tests.items()),
            result.noc_avg_hops,
            result.peak_temperature_c,
            result.events_fired,
            result.emergency_aborts,
            result.skipped_no_budget,
            result.scheduler_name,
            result.mapper_name,
            result.power_policy_name,
            faults,
        ]
    )

@dataclass
class RunManifest:
    """Provenance attached to a single simulation run."""

    version: str
    seed: int
    horizon_us: float
    config: Dict[str, object] = field(default_factory=dict)
    summary_digest: str = ""
    profile: Dict[str, Dict[str, float]] = field(default_factory=dict)
    journal_events: int = 0
    journal_dropped: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the manifest."""
        return {
            "version": self.version,
            "seed": self.seed,
            "horizon_us": self.horizon_us,
            "config": self.config,
            "summary_digest": self.summary_digest,
            "profile": self.profile,
            "journal_events": self.journal_events,
            "journal_dropped": self.journal_dropped,
        }


def experiment_provenance(
    experiment_id: str,
    version: str,
    rows: Iterable[object],
    kwargs: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Provenance dict for an ``ExperimentResult``."""
    return {
        "experiment_id": experiment_id,
        "version": version,
        "kwargs": dict(kwargs or {}),
        "rows_digest": rows_digest(rows),
    }
