"""Thermodynamic state data attached to logical states.

Each logical state carries a mean energy, an entropy (stored in units of
the Boltzmann constant) and a preparation temperature.  A
:class:`Scenario` bundles an input distribution, an operation, the
per-state thermodynamic tables and a reference temperature; it is the
unit of work for the cost and protocol machinery.  Each table is turned
into read-only energy, entropy and free-energy arrays once
(:func:`state_arrays`), and the mixture free energy of a distribution
over states has one implementation (:func:`mixture_free_energy`).

Four standard assumption sets are provided as constructors
(:func:`make_model`) and as report-only checks (:func:`validate`):

* ``uniform``: every state has the same energy, entropy and temperature.
* ``equilibrium``: states are canonical at the reference temperature with
  ``E - T_R * S + k T_R ln P`` constant, which makes the minimal mean
  work vanish.
* ``adiabatic``: ``S - k ln P`` constant, which makes the minimal mean
  heat vanish; temperatures are unconstrained.
* ``adiabatic_equilibrium``: both at once (constant energy plus the
  adiabatic entropy condition at the reference temperature), under which
  any operation can run with neither work nor heat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .logic import (
    DiscreteDistribution,
    LogicalOperation,
    ArityMismatchError,
    _entropy_nats,
    _frozen_array,
    _logs,
    propagate,
)

EPS_MODEL = 1e-9

MODEL_KINDS = ("uniform", "equilibrium", "adiabatic", "adiabatic_equilibrium")

__all__ = [
    "EPS_MODEL",
    "MODEL_KINDS",
    "ThermoError",
    "DegenerateBathError",
    "UnitSystem",
    "NATURAL_UNITS",
    "SI_UNITS",
    "StateThermo",
    "StateArrays",
    "state_arrays",
    "mixture_free_energy",
    "Scenario",
    "ModelSkeleton",
    "make_model",
    "AssumptionCheck",
    "AssumptionReport",
    "validate",
    "aggregate_baths",
]


class ThermoError(ValueError):
    pass


class DegenerateBathError(ThermoError):
    """Heat deposits cancel in a way that leaves no effective temperature."""


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants; defaults are natural units k_B = hbar = m = 1."""

    k_B: float = 1.0
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("k_B", "hbar", "mass"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ThermoError(f"{name} must be finite and strictly positive, got {value!r}")


NATURAL_UNITS = UnitSystem()
# SI constants with the particle mass set to a hydrogen atom.
SI_UNITS = UnitSystem(k_B=1.380649e-23, hbar=1.054571817e-34, mass=1.67262192369e-27)

_ENTROPY_SLACK = 1e-12


@dataclass(frozen=True)
class StateThermo:
    """Mean energy, entropy (units of k_B) and temperature of one state."""

    energy: float
    entropy: float
    temperature: float

    def __post_init__(self):
        for name in ("energy", "entropy", "temperature"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ThermoError(f"{name} must be finite, got {value!r}")
        if self.temperature <= 0.0:
            raise ThermoError(f"temperature must be positive, got {self.temperature!r}")
        if self.entropy < -_ENTROPY_SLACK:
            raise ThermoError(f"negative entropy is unphysical: {self.entropy!r}")
        if self.entropy < 0.0:
            object.__setattr__(self, "entropy", 0.0)


class StateArrays(NamedTuple):
    """Read-only per-state arrays of one thermo table."""

    energy: np.ndarray
    entropy: np.ndarray
    free_energy: np.ndarray  # E - k T_R S


def state_arrays(thermo, kt: float) -> StateArrays:
    """Energy, entropy and free energy ``E - kt S`` of each state in ``thermo``."""
    energy = _frozen_array([st.energy for st in thermo])
    entropy = _frozen_array([st.entropy for st in thermo])
    return StateArrays(energy, entropy, _frozen_array(energy - kt * entropy))


def mixture_free_energy(probs: np.ndarray, free_energy: np.ndarray, kt: float) -> float:
    """``sum p (F + kt ln p)`` over the positive ``probs``.

    The free energy of a distribution over states with state free
    energies ``F``: minus ``kt`` times the mixing entropy added to the
    mean state free energy.  ``probs`` may carry further axes, such as a
    bystander system whose own free energy cancels; ``F`` is indexed by
    the first axis.
    """
    live = np.nonzero(probs > 0.0)
    p = probs[live]
    return math.fsum((p * (free_energy[live[0]] + kt * _logs(p))).tolist())


@dataclass(frozen=True, eq=False)
class Scenario:
    """A logical transformation of information with full thermodynamic data."""

    input_dist: DiscreteDistribution
    op: LogicalOperation
    input_thermo: tuple[StateThermo, ...]
    output_thermo: tuple[StateThermo, ...]
    reference_temperature: float
    units: UnitSystem = NATURAL_UNITS

    def __post_init__(self):
        t_ref = self.reference_temperature
        if not math.isfinite(t_ref) or t_ref <= 0.0:
            raise ThermoError(f"reference temperature must be finite and positive, got {t_ref!r}")
        if len(self.input_dist) != self.op.n_inputs:
            raise ArityMismatchError("input distribution arity does not match operation")
        object.__setattr__(self, "input_thermo", tuple(self.input_thermo))
        object.__setattr__(self, "output_thermo", tuple(self.output_thermo))
        if len(self.input_thermo) != self.op.n_inputs:
            raise ArityMismatchError("input thermo table arity does not match operation")
        if len(self.output_thermo) != self.op.n_outputs:
            raise ArityMismatchError("output thermo table arity does not match operation")

    @cached_property
    def output_dist(self) -> DiscreteDistribution:
        return propagate(self.op, self.input_dist)

    @cached_property
    def input_arrays(self) -> StateArrays:
        return state_arrays(self.input_thermo, self.kT)

    @cached_property
    def output_arrays(self) -> StateArrays:
        return state_arrays(self.output_thermo, self.kT)

    @property
    def kT(self) -> float:
        """Reference thermal energy k_B * T_R, the natural report unit."""
        return self.units.k_B * self.reference_temperature


@dataclass(frozen=True, eq=False)
class ModelSkeleton:
    """Free data for a model constructor.

    ``energy_offset`` plays the role of the common state energy (defaults
    to ``k T_R / 2``, the square-well value).  The constants fixing the
    equilibrium and adiabatic conditions default so that the smallest
    state entropy is exactly zero.  Per-state temperatures may be given
    for the adiabatic model, which leaves them free.
    """

    input_dist: DiscreteDistribution
    op: LogicalOperation
    reference_temperature: float = 1.0
    units: UnitSystem = NATURAL_UNITS
    energy_offset: float | None = None
    entropy_offset: float = 0.0
    equilibrium_constant: float | None = None
    adiabatic_constant: float | None = None
    state_energy: float | None = None
    input_temperatures: tuple[float, ...] | None = None
    output_temperatures: tuple[float, ...] | None = None


def _require_support(probs: np.ndarray, side: str, kind: str) -> None:
    if np.any(probs <= 0.0):
        raise ThermoError(
            f"{kind} model needs strictly positive {side} probabilities "
            "(zero-probability states must be pruned first)"
        )


def make_model(kind: str, skeleton: ModelSkeleton) -> Scenario:
    """Build a scenario satisfying one of the standard assumption sets."""
    if kind not in MODEL_KINDS:
        raise ThermoError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    k = skeleton.units.k_B
    t_ref = skeleton.reference_temperature
    e_ref = skeleton.energy_offset if skeleton.energy_offset is not None else 0.5 * k * t_ref
    p_in = skeleton.input_dist.probs
    p_out = propagate(skeleton.op, skeleton.input_dist).probs

    def temps(side_temps, n):
        if side_temps is None:
            return (t_ref,) * n
        if len(side_temps) != n:
            raise ArityMismatchError("temperature table arity mismatch")
        return tuple(float(t) for t in side_temps)

    if kind == "uniform":
        s_ref = skeleton.entropy_offset
        make = lambda _p, t: StateThermo(e_ref, s_ref, t)
        t_in = temps(None, len(p_in))
        t_out = temps(None, len(p_out))
    elif kind == "equilibrium":
        # E - T_R k S + k T_R ln P constant: solve for S at fixed state energy.
        _require_support(p_in, "input", kind)
        _require_support(p_out, "output", kind)
        e_state = skeleton.state_energy if skeleton.state_energy is not None else e_ref
        p_min = min(p_in.min(), p_out.min())
        c_a = (
            skeleton.equilibrium_constant
            if skeleton.equilibrium_constant is not None
            else e_state + k * t_ref * math.log(p_min)
        )
        make = lambda p, t: StateThermo(
            e_state, (e_state - c_a) / (k * t_ref) + math.log(p), t_ref
        )
        t_in = temps(None, len(p_in))
        t_out = temps(None, len(p_out))
    elif kind == "adiabatic":
        # S - k ln P constant; temperatures and the common energy stay free.
        _require_support(p_in, "input", kind)
        _require_support(p_out, "output", kind)
        p_min = min(p_in.min(), p_out.min())
        c_b = (
            skeleton.adiabatic_constant
            if skeleton.adiabatic_constant is not None
            else -math.log(p_min)
        )
        make = lambda p, t: StateThermo(e_ref, c_b + math.log(p), t)
        t_in = temps(skeleton.input_temperatures, len(p_in))
        t_out = temps(skeleton.output_temperatures, len(p_out))
    else:  # adiabatic_equilibrium
        _require_support(p_in, "input", kind)
        _require_support(p_out, "output", kind)
        p_min = min(p_in.min(), p_out.min())
        c_c = (
            skeleton.adiabatic_constant
            if skeleton.adiabatic_constant is not None
            else -math.log(p_min)
        )
        make = lambda p, t: StateThermo(e_ref, c_c + math.log(p), t_ref)
        t_in = temps(None, len(p_in))
        t_out = temps(None, len(p_out))

    try:
        input_thermo = tuple(make(p, t) for p, t in zip(p_in, t_in))
        output_thermo = tuple(make(p, t) for p, t in zip(p_out, t_out))
    except ThermoError as exc:
        raise ThermoError(f"{kind} model produced an invalid state: {exc}") from exc

    return Scenario(
        input_dist=skeleton.input_dist,
        op=skeleton.op,
        input_thermo=input_thermo,
        output_thermo=output_thermo,
        reference_temperature=t_ref,
        units=skeleton.units,
    )


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    satisfied: bool
    residual: float


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    def __getitem__(self, name: str) -> AssumptionCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.satisfied)

    @property
    def satisfied(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if c.satisfied)


def _spread(values) -> float:
    return float(np.ptp(values))


def validate(scenario: Scenario) -> AssumptionReport:
    """Report which standard assumption sets a scenario satisfies.

    Energy residuals are scaled by k T_R and entropy residuals are in
    units of k, so one tolerance, ``EPS_MODEL``, covers both.  Purely
    diagnostic: nothing is raised and nothing is modified, enabling model
    auto-detection.
    """
    t_ref = scenario.reference_temperature
    kt = scenario.kT
    p_in = scenario.input_dist.probs
    p_out = scenario.output_dist.probs
    table_in = scenario.input_arrays
    table_out = scenario.output_arrays
    energy = np.concatenate((table_in.energy, table_out.energy))
    entropy = np.concatenate((table_in.entropy, table_out.entropy))

    checks: list[AssumptionCheck] = []

    def add(name: str, residual: float):
        checks.append(AssumptionCheck(name, residual <= EPS_MODEL, residual))

    temperatures = [st.temperature for st in scenario.input_thermo + scenario.output_thermo]
    add("isothermal", _spread(temperatures + [t_ref]) / t_ref)
    add("uniform_states", max(_spread(energy) / kt, _spread(entropy)))
    mean_e_in = math.fsum((p_in * table_in.energy).tolist())
    mean_e_out = math.fsum((p_out * table_out.energy).tolist())
    mean_s_in = math.fsum((p_in * table_in.entropy).tolist())
    mean_s_out = math.fsum((p_out * table_out.entropy).tolist())
    add(
        "uniform_computing",
        max(abs(mean_e_out - mean_e_in) / kt, abs(mean_s_out - mean_s_in)),
    )

    if np.all(p_in > 0.0) and np.all(p_out > 0.0):
        probs = np.concatenate((p_in, p_out))
        free_energy = np.concatenate((table_in.free_energy, table_out.free_energy))
        add("equilibrium", _spread((free_energy + kt * _logs(probs)) / kt))
        adiabatic_values = entropy - _logs(probs)
        add("adiabatic", _spread(adiabatic_values))
        add(
            "adiabatic_equilibrium",
            max(_spread(energy) / kt, _spread(adiabatic_values)),
        )
    else:
        checks.append(AssumptionCheck("equilibrium", False, math.inf))
        checks.append(AssumptionCheck("adiabatic", False, math.inf))
        checks.append(AssumptionCheck("adiabatic_equilibrium", False, math.inf))

    free_in = mixture_free_energy(p_in, table_in.free_energy, kt)
    free_out = mixture_free_energy(p_out, table_out.free_energy, kt)
    add("zero_mean_work", abs(free_out - free_in) / kt)
    ent_in = mean_s_in + _entropy_nats(p_in)
    ent_out = mean_s_out + _entropy_nats(p_out)
    add("zero_mean_heat", abs(ent_out - ent_in))

    order = (
        "isothermal",
        "uniform_states",
        "uniform_computing",
        "equilibrium",
        "zero_mean_work",
        "zero_mean_heat",
        "adiabatic",
        "adiabatic_equilibrium",
    )
    by_name = {c.name: c for c in checks}
    return AssumptionReport(tuple(by_name[name] for name in order))


def aggregate_baths(deposits) -> tuple[float, float]:
    """Collapse several (heat, temperature) deposits into one.

    Returns the total heat and the effective temperature
    ``Q_total / sum(Q_i / T_i)``.  The pair can stand in for the single
    reference bath wherever mean heat and reference temperature appear.
    """
    pairs = [(float(q), float(t)) for q, t in deposits]
    if not pairs:
        raise ThermoError("no deposits given")
    for _, t in pairs:
        if t <= 0.0:
            raise ThermoError("bath temperatures must be positive")
    if len(pairs) == 1:
        return pairs[0]
    q_total = math.fsum(q for q, _ in pairs)
    denom = math.fsum(q / t for q, t in pairs)
    if denom == 0.0:
        raise DegenerateBathError("undefined effective temperature: deposits cancel")
    return q_total, q_total / denom
