"""Technology-node models and the dark-silicon budget arithmetic.

The DATE'15 paper frames online testing as a consumer of the *power slack*
left under a fixed chip-level power budget (TDP).  With every technology
generation the aggregate peak power of all cores grows faster than the
budget, so the fraction of the chip that may be simultaneously active — the
*lit* fraction — shrinks: dark silicon.

We model a node with a handful of physical-ish parameters:

* ``vdd_nominal`` / ``vdd_min`` — nominal and near-threshold supply voltage;
* ``vth`` — threshold voltage (for the alpha-power frequency law);
* ``f_nominal_mhz`` — core clock at nominal voltage;
* ``ceff_nf`` — effective switched capacitance per core (nF), lumping
  activity factor and capacitance;
* ``leak_w_nominal`` — per-core leakage power at nominal voltage;
* ``leak_beta`` — exponential voltage sensitivity of leakage.

Dynamic power of a core running at voltage ``V`` and frequency ``f`` is
``ceff · V² · f`` and leakage is ``leak_w_nominal · (V/Vnom) ·
exp(leak_beta · (V − Vnom))``.  Absolute Watts are calibrated, not measured
(see DESIGN.md, substitutions table): what matters is that the budget-to-
demand ratio reproduces the published dark-silicon fractions per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class TechnologyNode:
    """Parameters of one CMOS technology node."""

    name: str
    feature_nm: int
    vdd_nominal: float
    vdd_min: float
    vth: float
    f_nominal_mhz: float
    ceff_nf: float
    leak_w_nominal: float
    leak_beta: float = 3.0
    alpha: float = 1.5  # alpha-power-law exponent for f(V)

    def __post_init__(self) -> None:
        if not (0.0 < self.vth < self.vdd_min < self.vdd_nominal):
            raise ValueError(
                f"{self.name}: require 0 < vth < vdd_min < vdd_nominal, got "
                f"vth={self.vth}, vdd_min={self.vdd_min}, "
                f"vdd_nom={self.vdd_nominal}"
            )
        if self.f_nominal_mhz <= 0 or self.ceff_nf <= 0:
            raise ValueError(f"{self.name}: frequency and ceff must be positive")

    # ------------------------------------------------------------------
    # Electrical models
    # ------------------------------------------------------------------
    def frequency_at(self, vdd: float) -> float:
        """Maximum clock (MHz) sustainable at ``vdd`` (alpha-power law)."""
        if vdd < self.vth:
            return 0.0
        scale = ((vdd - self.vth) / (self.vdd_nominal - self.vth)) ** self.alpha
        return self.f_nominal_mhz * scale

    def dynamic_power(self, vdd: float, f_mhz: float, activity: float = 1.0) -> float:
        """Dynamic power (W) of one core at ``vdd`` (V) and ``f_mhz`` (MHz)."""
        if activity < 0:
            raise ValueError(f"activity must be >= 0, got {activity}")
        # ceff[nF]·1e-9 F · V² · f[MHz]·1e6 Hz == ceff·V²·f · 1e-3 W
        return self.ceff_nf * vdd * vdd * f_mhz * 1e-3 * activity

    def leakage_power(self, vdd: float) -> float:
        """Leakage power (W) of one powered core at ``vdd``."""
        if vdd <= 0:
            return 0.0
        ratio = vdd / self.vdd_nominal
        return self.leak_w_nominal * ratio * math.exp(
            self.leak_beta * (vdd - self.vdd_nominal)
        )

    def peak_core_power(self) -> float:
        """Power (W) of one core at nominal voltage and frequency, active."""
        return (
            self.dynamic_power(self.vdd_nominal, self.f_nominal_mhz)
            + self.leakage_power(self.vdd_nominal)
        )

    # ------------------------------------------------------------------
    # Dark-silicon arithmetic
    # ------------------------------------------------------------------
    def lit_fraction(self, n_cores: int, tdp_w: float) -> float:
        """Fraction of cores that can run at peak within ``tdp_w`` (clipped)."""
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        demand = n_cores * self.peak_core_power()
        return min(1.0, tdp_w / demand)

    def dark_fraction(self, n_cores: int, tdp_w: float) -> float:
        """Complement of :meth:`lit_fraction`."""
        return 1.0 - self.lit_fraction(n_cores, tdp_w)


# ----------------------------------------------------------------------
# Memoized power evaluation (the simulation fast path)
# ----------------------------------------------------------------------
# A run evaluates the analytic power model millions of times, mostly at a
# handful of distinct (node, V/F level) points: the DVFS ladder has ~8
# levels.  Activities are not a small set -- every workload task draws its
# own (``rng.uniform(0.6, 1.0)``) -- so only unit-activity dynamic power is
# memoized; keying on activity would grow the memo by one entry per task
# for as long as the process lives.  Caching the *exact* method results
# keeps every consumer bit-identical to the analytic model while skipping
# the transcendental math.  The memo dict hangs off each node instance
# (``object.__setattr__`` sidesteps the frozen dataclass) and is keyed by
# the remaining float arguments, so lookups hash small tuples in C instead
# of running the dataclass-generated ``TechnologyNode.__hash__`` per call
# the way an ``lru_cache`` over all arguments would.


def cached_dynamic_power(
    node: TechnologyNode, vdd: float, f_mhz: float, activity: float = 1.0
) -> float:
    """Memoized :meth:`TechnologyNode.dynamic_power` (bit-identical).

    Memoizes unit activity only; any other activity is evaluated
    directly (see the comment above).
    """
    if activity != 1.0:
        return node.dynamic_power(vdd, f_mhz, activity)
    try:
        cache = node._dyn_cache
    except AttributeError:
        cache = {}
        object.__setattr__(node, "_dyn_cache", cache)
    key = (vdd, f_mhz, activity)
    try:
        return cache[key]
    except KeyError:
        value = node.dynamic_power(vdd, f_mhz, activity)
        cache[key] = value
        return value


def cached_leakage_power(node: TechnologyNode, vdd: float) -> float:
    """Memoized :meth:`TechnologyNode.leakage_power` (bit-identical)."""
    try:
        cache = node._leak_cache
    except AttributeError:
        cache = {}
        object.__setattr__(node, "_leak_cache", cache)
    try:
        return cache[vdd]
    except KeyError:
        value = node.leakage_power(vdd)
        cache[vdd] = value
        return value


#: Calibrated node table.  With the default 80 W TDP on an 8x8 chip the lit
#: fractions are ~0.93 / 0.76 / 0.56 / 0.40 for 45/32/22/16 nm, matching the
#: utilization-wall trend the dark-silicon literature reports.
TECHNOLOGY_NODES: Dict[str, TechnologyNode] = {
    "45nm": TechnologyNode(
        name="45nm", feature_nm=45, vdd_nominal=1.10, vdd_min=0.55,
        vth=0.40, f_nominal_mhz=2000.0, ceff_nf=0.50, leak_w_nominal=0.14,
    ),
    "32nm": TechnologyNode(
        name="32nm", feature_nm=32, vdd_nominal=1.00, vdd_min=0.50,
        vth=0.38, f_nominal_mhz=2500.0, ceff_nf=0.58, leak_w_nominal=0.20,
    ),
    "22nm": TechnologyNode(
        name="22nm", feature_nm=22, vdd_nominal=0.95, vdd_min=0.48,
        vth=0.36, f_nominal_mhz=3000.0, ceff_nf=0.70, leak_w_nominal=0.35,
    ),
    "16nm": TechnologyNode(
        name="16nm", feature_nm=16, vdd_nominal=0.90, vdd_min=0.45,
        vth=0.34, f_nominal_mhz=3500.0, ceff_nf=0.95, leak_w_nominal=0.41,
    ),
}

#: Default chip-level thermal design power (W) shared by all nodes, so that
#: scaling the node while keeping TDP fixed exposes the dark-silicon squeeze.
DEFAULT_TDP_W = 80.0


def get_node(name: str) -> TechnologyNode:
    """Look up a technology node by name (e.g. ``"16nm"``)."""
    try:
        return TECHNOLOGY_NODES[name]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGY_NODES))
        raise KeyError(f"unknown technology node {name!r}; known: {known}") from None


def node_names() -> List[str]:
    """Node names ordered from oldest (largest feature) to newest."""
    return sorted(TECHNOLOGY_NODES, key=lambda n: -TECHNOLOGY_NODES[n].feature_nm)
