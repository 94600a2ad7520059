"""Pluggable technology models: (node, core type, V/F) -> power.

:mod:`repro.platform.technology` gives each :class:`TechnologyNode` one
analytic per-core power model.  A :class:`TechnologyModel` generalizes
that mapping along two axes the dark-silicon literature cares about:

* **heterogeneity** — every evaluation takes a
  :class:`~repro.platform.coretypes.CoreType`, so IO / O3 / accelerator
  tiles on the same die draw different power at the same V/F point and
  the chip's dark-silicon ratio becomes a *derived* quantity of the
  type mix (see :meth:`TechnologyModel.lit_fraction`);
* **model family** — the baseline :class:`CMOSModel` reproduces the
  node's formulas exactly; :class:`NearThresholdModel` layers the
  standard NTV trade-off on top (guard-banded timing costs extra
  dynamic power, aggressive back-bias tames sub-nominal leakage).

Degeneracy contract: ``CMOSModel`` with the ``std`` type multiplies the
node's result by exactly 1.0, which IEEE-754 guarantees is the identity
— so every consumer routed through a model still produces bit-identical
floats (and result digests) on homogeneous-``std`` configs.  The memo
caches below mirror :func:`~repro.platform.technology.cached_dynamic_power`:
one flat dict per (node, model, type) triple, hung off the node instance,
keyed by the remaining float arguments.  Activities are not a small set:
each workload task draws its own (``rng.uniform(0.6, 1.0)``), so the
dynamic-power memo keeps unit-activity values only and its size depends
on the V/F ladder, not on how many tasks a process has simulated.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping

from repro.platform import coretypes
from repro.platform.coretypes import CoreType
from repro.platform.technology import TechnologyNode


class TechnologyModel:
    """Interface mapping (node, core type, V/F) to per-core power."""

    #: Registry key; subclasses must override.
    name = "base"

    def dynamic_power(
        self,
        node: TechnologyNode,
        ctype: CoreType,
        vdd: float,
        f_mhz: float,
        activity: float = 1.0,
    ) -> float:
        """Dynamic power (W) of one ``ctype`` core at ``vdd``/``f_mhz``."""
        raise NotImplementedError

    def leakage_power(
        self, node: TechnologyNode, ctype: CoreType, vdd: float
    ) -> float:
        """Leakage power (W) of one powered ``ctype`` core at ``vdd``."""
        raise NotImplementedError

    def peak_core_power(self, node: TechnologyNode, ctype: CoreType) -> float:
        """Power (W) of one ``ctype`` core at nominal V/F, fully active."""
        return self.dynamic_power(
            node, ctype, node.vdd_nominal, node.f_nominal_mhz
        ) + self.leakage_power(node, ctype, node.vdd_nominal)

    # ------------------------------------------------------------------
    # Dark-silicon arithmetic over a type mix
    # ------------------------------------------------------------------
    def lit_fraction(
        self,
        node: TechnologyNode,
        type_counts: Mapping[CoreType, int],
        tdp_w: float,
    ) -> float:
        """Fraction of the chip runnable at peak within ``tdp_w`` (clipped).

        ``type_counts`` maps each :class:`CoreType` present to its tile
        count, in a stable iteration order (the chip uses first-occurrence
        order).  With a single entry this reduces bit-exactly to
        :meth:`TechnologyNode.lit_fraction` under the baseline model.
        """
        demand = 0.0
        n_cores = 0
        for ctype, count in type_counts.items():
            if count <= 0:
                raise ValueError(
                    f"type count for {ctype.name!r} must be positive"
                )
            demand += count * self.peak_core_power(node, ctype)
            n_cores += count
        if n_cores <= 0:
            raise ValueError("type_counts must cover at least one core")
        return min(1.0, tdp_w / demand)

    def dark_fraction(
        self,
        node: TechnologyNode,
        type_counts: Mapping[CoreType, int],
        tdp_w: float,
    ) -> float:
        """Complement of :meth:`lit_fraction`."""
        return 1.0 - self.lit_fraction(node, type_counts, tdp_w)


class CMOSModel(TechnologyModel):
    """Baseline model: the node's analytic formulas times the type scales.

    With the degenerate ``std`` type this *is* the node model, bit for
    bit (``x * 1.0 == x``).
    """

    name = "cmos"

    def dynamic_power(
        self,
        node: TechnologyNode,
        ctype: CoreType,
        vdd: float,
        f_mhz: float,
        activity: float = 1.0,
    ) -> float:
        return node.dynamic_power(vdd, f_mhz, activity) * ctype.dyn_scale

    def leakage_power(
        self, node: TechnologyNode, ctype: CoreType, vdd: float
    ) -> float:
        return node.leakage_power(vdd) * ctype.leak_scale


class NearThresholdModel(CMOSModel):
    """Near-threshold variant: timing guard-bands and back-biased leakage.

    NTV operation needs wider timing margins (modelled as a constant
    relative dynamic overhead, ``timing_guard``) but allows aggressive
    body biasing that steepens the leakage roll-off below nominal supply
    (an extra ``exp(leak_gain * (vdd - vdd_nominal))`` factor, == 1 at
    nominal).  Both factors are positive and the leakage factor is
    monotone increasing in ``vdd``, so the property-test monotonicities
    of the baseline model are preserved.
    """

    name = "ntv"
    timing_guard = 0.08
    leak_gain = 1.5

    def dynamic_power(
        self,
        node: TechnologyNode,
        ctype: CoreType,
        vdd: float,
        f_mhz: float,
        activity: float = 1.0,
    ) -> float:
        base = super().dynamic_power(node, ctype, vdd, f_mhz, activity)
        return base * (1.0 + self.timing_guard)

    def leakage_power(
        self, node: TechnologyNode, ctype: CoreType, vdd: float
    ) -> float:
        base = super().leakage_power(node, ctype, vdd)
        if base == 0.0:
            return 0.0
        return base * math.exp(self.leak_gain * (vdd - node.vdd_nominal))


# ----------------------------------------------------------------------
# Memoized evaluation (the simulation fast path)
# ----------------------------------------------------------------------
def dyn_cache_for(
    node: TechnologyNode, model: TechnologyModel, ctype: CoreType
) -> Dict:
    """The per-(node, model, type) dynamic-power memo dict.

    Hung off the node instance (like ``node._dyn_cache``) and keyed by
    ``(vdd, f_mhz, activity)`` tuples, holding unit-activity entries
    only (see :func:`cached_model_dynamic`); consumers may index it
    directly after priming, exactly as the power meter does with the
    homogeneous caches.
    """
    try:
        caches = node._model_dyn_caches
    except AttributeError:
        caches = {}
        object.__setattr__(node, "_model_dyn_caches", caches)
    key = (model.name, ctype.name)
    try:
        return caches[key]
    except KeyError:
        cache: Dict = {}
        caches[key] = cache
        return cache


def leak_cache_for(
    node: TechnologyNode, model: TechnologyModel, ctype: CoreType
) -> Dict:
    """The per-(node, model, type) leakage-power memo dict (keyed by vdd)."""
    try:
        caches = node._model_leak_caches
    except AttributeError:
        caches = {}
        object.__setattr__(node, "_model_leak_caches", caches)
    key = (model.name, ctype.name)
    try:
        return caches[key]
    except KeyError:
        cache: Dict = {}
        caches[key] = cache
        return cache


def cached_model_dynamic(
    model: TechnologyModel,
    node: TechnologyNode,
    ctype: CoreType,
    vdd: float,
    f_mhz: float,
    activity: float = 1.0,
) -> float:
    """Memoized :meth:`TechnologyModel.dynamic_power` (bit-identical).

    Only unit-activity values are stored.  Every workload task draws its
    own activity, so a memo keyed by it would gain an entry per task and
    never evict one; a non-unit activity is evaluated directly instead,
    which returns the same float.
    """
    if activity != 1.0:
        return model.dynamic_power(node, ctype, vdd, f_mhz, activity)
    cache = dyn_cache_for(node, model, ctype)
    key = (vdd, f_mhz, activity)
    try:
        return cache[key]
    except KeyError:
        value = model.dynamic_power(node, ctype, vdd, f_mhz, activity)
        cache[key] = value
        return value


def cached_model_leakage(
    model: TechnologyModel,
    node: TechnologyNode,
    ctype: CoreType,
    vdd: float,
) -> float:
    """Memoized :meth:`TechnologyModel.leakage_power` (bit-identical)."""
    cache = leak_cache_for(node, model, ctype)
    try:
        return cache[vdd]
    except KeyError:
        value = model.leakage_power(node, ctype, vdd)
        cache[vdd] = value
        return value


#: Model registry.  ``cmos`` is the degenerate baseline every pre-existing
#: config implicitly used.
TECHNOLOGY_MODELS: Dict[str, TechnologyModel] = {
    "cmos": CMOSModel(),
    "ntv": NearThresholdModel(),
}

#: Name of the baseline model.
DEFAULT_TECH_MODEL = "cmos"


def get_tech_model(name: str) -> TechnologyModel:
    """Look up a technology model by name (e.g. ``"cmos"``)."""
    try:
        return TECHNOLOGY_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGY_MODELS))
        raise KeyError(
            f"unknown technology model {name!r}; known: {known}"
        ) from None


def register_tech_model(
    model: TechnologyModel, overwrite: bool = False
) -> TechnologyModel:
    """Add a custom :class:`TechnologyModel` to the registry.

    Registering an existing name requires ``overwrite=True``.
    """
    if model.name in TECHNOLOGY_MODELS and not overwrite:
        raise ValueError(f"technology model {model.name!r} already registered")
    TECHNOLOGY_MODELS[model.name] = model
    coretypes._note_registration()
    return model


def tech_model_names() -> List[str]:
    """Registry names, baseline first, then alphabetical."""
    rest = sorted(n for n in TECHNOLOGY_MODELS if n != DEFAULT_TECH_MODEL)
    return [DEFAULT_TECH_MODEL] + rest
