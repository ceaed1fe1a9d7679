"""Thermodynamic state data attached to logical states.

Each logical state carries a mean energy, an entropy (stored in units of
the Boltzmann constant) and a preparation temperature.  A
:class:`Scenario` bundles an input distribution, an operation, the
per-state thermodynamic tables and a reference temperature; it is the
unit of work for the cost and protocol machinery.  A scenario holds each
table as a :class:`ThermoTable`, a tuple that keeps its read-only energy,
entropy and free-energy arrays (:func:`state_arrays`), made once per
table and temperature, not once per scenario: every scenario built from
the same table object (by ``dataclasses.replace``, as a reverse or as a
cycle leg) shares them.  The mixture free energy of a distribution over
states has one implementation (:func:`mixture_free_energy`).

A scenario is immutable, so it computes each derived value once, on first
access, and keeps it: its output distribution, its two tables' state
arrays and the eight bound terms that every cost report of it carries
(:attr:`Scenario.bound_terms`).  The cost layer keeps what it derives
from a scenario by weak reference, for as long as the scenario lives:
its optimal weights, and the cost report of each weight vector it is
priced with, which lives no longer than that vector
(:func:`~thermologic.costs.expected_cost`).  A copy or an unpickled
scenario holds read-only arrays too, and starts without those memos, so
it is priced afresh.

Four standard assumption sets are provided as constructors
(:func:`make_model`) and as report-only checks (:func:`validate`).  Each
constructor gives all states one energy ``E``, so it builds one of two
entropy tables, a constant or ``S = c + ln P``:

* ``uniform``: every state has the same energy, entropy and temperature.
* ``equilibrium``: states are canonical at the reference temperature with
  ``E - k T_R S + k T_R ln P = C_A``, which makes the minimal mean work
  vanish.  At one energy this is ``S = c + ln P`` with
  ``c = (E - C_A) / k T_R``, the adiabatic shape.
* ``adiabatic``: ``S - ln P`` constant, which makes the minimal mean heat
  vanish; temperatures are unconstrained.
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
    _Frozen,
    _entropy_nats,
    _frozen,
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
    "ThermoTable",
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


class ThermoTable(tuple):
    """A tuple of :class:`StateThermo` that keeps its :class:`StateArrays`, one set per ``kt``.

    It equals the tuple it was built from.  A copy or an unpickled table
    starts without arrays; slices and sums are plain tuples.
    """

    @cached_property
    def _arrays(self) -> dict[float, StateArrays]:
        return {}

    def __reduce__(self):
        return type(self), (tuple(self),)


def _tabulate(thermo, kt: float) -> StateArrays:
    table = np.array([[st.energy for st in thermo], [st.entropy for st in thermo]], dtype=float)
    energy, entropy = _frozen(table)
    return StateArrays(energy, entropy, _frozen(energy - kt * entropy))


def state_arrays(thermo, kt: float) -> StateArrays:
    """Energy, entropy and free energy ``E - kt S`` of each state in ``thermo``.

    A :class:`ThermoTable` makes them once per ``kt`` and returns the same
    arrays on every later call; any other sequence gets fresh ones.
    """
    if not isinstance(thermo, ThermoTable):
        return _tabulate(thermo, kt)
    arrays = thermo._arrays.get(kt)
    if arrays is None:
        arrays = thermo._arrays[kt] = _tabulate(thermo, kt)
    return arrays


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
class Scenario(_Frozen):
    """A logical transformation of information with full thermodynamic data."""

    input_dist: DiscreteDistribution
    op: LogicalOperation
    input_thermo: ThermoTable  # any sequence of StateThermo, wrapped once
    output_thermo: ThermoTable
    reference_temperature: float
    units: UnitSystem = NATURAL_UNITS

    def __post_init__(self):
        t_ref = self.reference_temperature
        if not math.isfinite(t_ref) or t_ref <= 0.0:
            raise ThermoError(f"reference temperature must be finite and positive, got {t_ref!r}")
        if len(self.input_dist) != self.op.n_inputs:
            raise ArityMismatchError("input distribution arity does not match operation")
        for name in ("input_thermo", "output_thermo"):
            table = getattr(self, name)
            if not isinstance(table, ThermoTable):
                object.__setattr__(self, name, ThermoTable(table))
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

    @cached_property
    def bound_terms(self) -> tuple[float, ...]:
        """The eight bound fields, in order, of each :class:`~thermologic.costs.CostReport`."""
        k = self.units.k_B
        t_ref = self.reference_temperature
        p_in = self.input_dist.probs
        p_out = self.output_dist.probs
        table_in, table_out = self.input_arrays, self.output_arrays
        mean_e = math.fsum((p_out * table_out.energy).tolist()) - math.fsum(
            (p_in * table_in.energy).tolist()
        )
        state_entropy = math.fsum((p_out * table_out.entropy).tolist()) - math.fsum(
            (p_in * table_in.entropy).tolist()
        )
        h_in = _entropy_nats(p_in) / math.log(2.0)
        h_out = _entropy_nats(p_out) / math.log(2.0)
        shannon_bits = h_out - h_in
        entropy_change = state_entropy + shannon_bits * math.log(2.0)
        work_bound = mean_e - t_ref * k * entropy_change
        heat_bound = -t_ref * k * entropy_change
        return (
            mean_e,
            entropy_change,
            state_entropy,
            shannon_bits,
            work_bound,
            heat_bound,
            -entropy_change,
            -shannon_bits * math.log(2.0),
        )

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
    for the adiabatic model, which leaves them free.  A field that the
    chosen kind does not read is ignored.
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


# What each kind reads from a ModelSkeleton: the fields for the one state energy
# (the first one set is read), the entropy constant and the free temperatures.
_READS = {
    "uniform": (("energy_offset",), "entropy_offset", ()),
    "equilibrium": (("state_energy", "energy_offset"), "equilibrium_constant", ()),
    "adiabatic": (
        ("energy_offset",), "adiabatic_constant", ("input_temperatures", "output_temperatures")
    ),
    "adiabatic_equilibrium": (("energy_offset",), "adiabatic_constant", ()),
}


def make_model(kind: str, skeleton: ModelSkeleton) -> Scenario:
    """Build a scenario satisfying one of the standard assumption sets.

    All states get one energy ``E``, by default ``k T_R / 2``.  The entropy
    is the constant ``entropy_offset`` (``uniform``) or ``c + ln P``, which
    for ``equilibrium`` is ``E - k T_R S + k T_R ln P = C_A`` solved at that
    one energy.  By default the smallest state entropy is zero.
    """
    if kind not in MODEL_KINDS:
        raise ThermoError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    energy_fields, constant_field, free_temperatures = _READS[kind]
    k = skeleton.units.k_B
    t_ref = skeleton.reference_temperature
    energies = (getattr(skeleton, name) for name in energy_fields)
    energy = next((e for e in energies if e is not None), 0.5 * k * t_ref)
    p_in = skeleton.input_dist.probs
    p_out = propagate(skeleton.op, skeleton.input_dist).probs
    constant = getattr(skeleton, constant_field)
    entropy = lambda _p: constant  # S = c
    if kind != "uniform":  # S = c + ln P
        for probs, side in ((p_in, "input"), (p_out, "output")):
            if np.any(probs <= 0.0):
                raise ThermoError(
                    f"{kind} model needs strictly positive {side} probabilities "
                    "(zero-probability states must be pruned first)"
                )
        p_min = min(p_in.min(), p_out.min())
        if kind == "equilibrium":
            kt = k * t_ref
            if kt == 0.0:
                raise ThermoError(f"{kind} model needs a positive k T_R, got {kt!r}")
            c_a = constant if constant is not None else energy + kt * math.log(p_min)
            constant = (energy - c_a) / kt
        elif constant is None:
            constant = -math.log(p_min)
        entropy = lambda p: constant + math.log(p)

    def temperatures(name, n):
        side_temps = getattr(skeleton, name) if name in free_temperatures else None
        if side_temps is None:
            return (t_ref,) * n
        if len(side_temps) != n:
            raise ArityMismatchError("temperature table arity mismatch")
        return tuple(float(t) for t in side_temps)

    t_in = temperatures("input_temperatures", len(p_in))
    t_out = temperatures("output_temperatures", len(p_out))
    try:
        input_thermo = tuple(StateThermo(energy, entropy(p), t) for p, t in zip(p_in, t_in))
        output_thermo = tuple(StateThermo(energy, entropy(p), t) for p, t in zip(p_out, t_out))
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
    energy, entropy, free_energy = (np.concatenate(pair) for pair in zip(table_in, table_out))
    energy_spread = _spread(energy) / kt
    temperatures = [st.temperature for st in scenario.input_thermo + scenario.output_thermo]
    mean_e, _, mean_s = scenario.bound_terms[:3]
    if np.all(p_in > 0.0) and np.all(p_out > 0.0):
        logs = _logs(np.concatenate((p_in, p_out)))
        equilibrium = _spread((free_energy + kt * logs) / kt)
        adiabatic = _spread(entropy - logs)
    else:  # the conditions on ln P hold only if every state occurs
        equilibrium = adiabatic = math.inf
    sides = ((p_in, table_in), (p_out, table_out))
    free_in, free_out = (mixture_free_energy(p, table.free_energy, kt) for p, table in sides)
    gibbs_in, gibbs_out = (
        math.fsum((p * table.entropy).tolist()) + _entropy_nats(p) for p, table in sides
    )
    residuals = {
        "isothermal": _spread(temperatures + [t_ref]) / t_ref,
        "uniform_states": max(energy_spread, _spread(entropy)),
        "uniform_computing": max(abs(mean_e) / kt, abs(mean_s)),
        "equilibrium": equilibrium,
        "zero_mean_work": abs(free_out - free_in) / kt,
        "zero_mean_heat": abs(gibbs_out - gibbs_in),
        "adiabatic": adiabatic,
        "adiabatic_equilibrium": max(energy_spread, adiabatic),
    }
    return AssumptionReport(
        tuple(AssumptionCheck(name, r <= EPS_MODEL, r) for name, r in residuals.items())
    )


def aggregate_baths(deposits) -> tuple[float, float]:
    """Collapse several (heat, temperature) deposits into one.

    Returns the total heat and the effective temperature
    ``Q_total / sum(Q_i / T_i)``.  The pair can stand in for the single
    reference bath wherever mean heat and reference temperature appear.
    """
    pairs = [(float(q), float(t)) for q, t in deposits]
    if not pairs:
        raise ThermoError("no deposits given")
    for q, t in pairs:
        if not math.isfinite(q):
            raise ThermoError(f"bath heats must be finite, got {q!r}")
        if not 0.0 < t < math.inf:  # NaN fails too
            raise ThermoError(f"bath temperatures must be finite and positive, got {t!r}")
    if len(pairs) == 1:
        return pairs[0]
    try:
        q_total = math.fsum(q for q, _ in pairs)
        denom = math.fsum(q / t for q, t in pairs)
    except (OverflowError, ValueError):  # finite terms whose sum overflows, or inf - inf
        raise DegenerateBathError("heat sums overflow: no effective temperature") from None
    if denom == 0.0:
        raise DegenerateBathError("undefined effective temperature: deposits cancel")
    temperature = q_total / denom
    if not 0.0 < temperature < math.inf:  # NaN fails too
        raise DegenerateBathError(
            f"effective temperature must be finite and positive, got {temperature!r}"
        )
    return q_total, temperature
