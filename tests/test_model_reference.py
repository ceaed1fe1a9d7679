"""``make_model`` and ``validate`` against the four-branch versions they replaced.

The reference functions below are the earlier implementations, kept
verbatim: one branch per model kind in ``make_model``, and a ``validate``
that appends its checks out of order and sorts them by name at the end.
The current functions build two table shapes and compute the residuals in
report order; every field, residual and error must stay bit-identical.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermologic.logic import (
    ArityMismatchError,
    DiscreteDistribution,
    LogicalOperation,
    _entropy_nats,
    _logs,
    propagate,
)
from thermologic.thermo import (
    EPS_MODEL,
    MODEL_KINDS,
    NATURAL_UNITS,
    AssumptionCheck,
    AssumptionReport,
    ModelSkeleton,
    Scenario,
    StateThermo,
    ThermoError,
    UnitSystem,
    make_model,
    mixture_free_energy,
    validate,
)


def _require_support(probs: np.ndarray, side: str, kind: str) -> None:
    if np.any(probs <= 0.0):
        raise ThermoError(
            f"{kind} model needs strictly positive {side} probabilities "
            "(zero-probability states must be pruned first)"
        )


def reference_make_model(kind: str, skeleton: ModelSkeleton) -> Scenario:
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


def _spread(values) -> float:
    return float(np.ptp(values))


def reference_validate(scenario: Scenario) -> AssumptionReport:
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


def outcome(make, check, kind, skeleton):
    """Every bit of what ``make`` and then ``check`` give, or the error raised."""
    try:
        scenario = make(kind, skeleton)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return tables(scenario), report(check(scenario))


def tables(scenario):
    return tuple(
        (type(v).__name__, float(v).hex())
        for state in scenario.input_thermo + scenario.output_thermo
        for v in (state.energy, state.entropy, state.temperature)
    )


def report(assumptions):
    return tuple(
        (c.name, c.satisfied, type(c.residual).__name__, float(c.residual).hex())
        for c in assumptions.checks
    )


def weights(n, zeros):
    """``n`` probabilities from small integers, some of them zero if ``zeros``."""
    raw = st.lists(st.integers(0 if zeros else 1, 6), min_size=n, max_size=n).filter(any)
    return raw.map(lambda w: np.array(w, dtype=float) / sum(w))


@st.composite
def operations(draw):
    """An input distribution and an operation; zero rows may leave outputs unreachable."""
    n_in, n_out, zeros = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.booleans())
    rows = np.array([draw(weights(n_out, zeros)) for _ in range(n_in)])
    return DiscreteDistribution(draw(weights(n_in, zeros))), LogicalOperation(rows)


def temperature_table(n):
    """``None``, one temperature per state, or one too few or one too many."""
    table = lambda size: st.lists(st.floats(-0.1, 3.0), min_size=size, max_size=size)
    return st.none() | table(n) | st.sampled_from([max(n - 1, 0), n + 1]).flatmap(table)


UNITS = st.sampled_from([NATURAL_UNITS, UnitSystem(k_B=0.7), UnitSystem(k_B=1.380649e-23)])
# Zero and negative reference temperatures are among the values drawn.
TEMPERATURES = st.floats(0.05, 5.0) | st.sampled_from([0.0, -1.0, 0.5, 1.0, 1.0, 2.0])


def optional(low, high):
    return st.none() | st.floats(low, high)


@st.composite
def skeletons(draw):
    dist, op = draw(operations())
    n_out = op.n_outputs
    return ModelSkeleton(
        input_dist=dist,
        op=op,
        reference_temperature=draw(TEMPERATURES),
        units=draw(UNITS),
        energy_offset=draw(optional(-2.0, 2.0)),
        entropy_offset=draw(st.floats(0.0, 2.0) | st.sampled_from([-0.5, 0.0, 0.0, 1.0])),
        equilibrium_constant=draw(optional(-3.0, 3.0)),
        adiabatic_constant=draw(optional(-0.5, 4.0)),
        state_energy=draw(optional(-2.0, 2.0)),
        input_temperatures=draw(temperature_table(op.n_inputs)),
        output_temperatures=draw(temperature_table(n_out)),
    )


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS + ("isothermal",)), skeleton=skeletons())
def test_make_model_and_validate_match_the_four_branch_reference(kind, skeleton):
    got = outcome(make_model, validate, kind, skeleton)
    want = outcome(reference_make_model, reference_validate, kind, skeleton)
    if want[0] is ZeroDivisionError:  # the reference divides by k T_R = 0; make_model rejects it
        assert (kind, skeleton.reference_temperature) == ("equilibrium", 0.0)
        want = ThermoError, "equilibrium model needs a positive k T_R, got 0.0"
    assert got == want


STATE_VALUES = st.sampled_from([0.0, 0.5, 1.25]) | st.floats(0.0, 2.0)


@st.composite
def explicit_scenarios(draw):
    """Scenarios with their own tables, where equal values let some checks hold."""
    dist, op = draw(operations())
    table = lambda n: tuple(
        StateThermo(draw(STATE_VALUES) - 0.5, draw(STATE_VALUES), draw(STATE_VALUES) + 0.5)
        for _ in range(n)
    )
    return Scenario(
        dist, op, table(op.n_inputs), table(op.n_outputs), draw(st.floats(0.1, 3.0)), draw(UNITS)
    )


@settings(max_examples=200, deadline=None)
@given(scenario=explicit_scenarios())
def test_validate_matches_the_reference_on_explicit_tables(scenario):
    assert report(validate(scenario)) == report(reference_validate(scenario))
