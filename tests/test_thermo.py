import copy
import dataclasses
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_distribution, random_operation, random_thermo
from thermologic.costs import (
    CostError,
    expected_cost,
    glp_bounds,
    make_weights,
    optimal_weights,
)
from thermologic.logic import (
    DiscreteDistribution,
    InvalidDistributionError,
    InvalidOperationError,
    JointDistribution,
    LogicalOperation,
    not_op,
    rtz,
)
from thermologic.thermo import (
    DegenerateBathError,
    ModelSkeleton,
    NATURAL_UNITS,
    Scenario,
    StateThermo,
    ThermoError,
    ThermoTable,
    UnitSystem,
    aggregate_baths,
    make_model,
    state_arrays,
    validate,
)


def skeleton(op, probs, **kwargs):
    return ModelSkeleton(
        input_dist=DiscreteDistribution(probs), op=op, reference_temperature=1.0, **kwargs
    )


class TestUnits:
    def test_natural_defaults(self):
        assert NATURAL_UNITS.k_B == 1.0 and NATURAL_UNITS.hbar == 1.0

    def test_positive_required(self):
        with pytest.raises(ThermoError):
            UnitSystem(k_B=0.0)


def _flat_scenario(t_ref=1.0):
    flat = (StateThermo(0.5, 0.0, 1.0),) * 2
    return Scenario(DiscreteDistribution([0.5, 0.5]), not_op(), flat, flat, t_ref)


# Each entry puts one value into one field of one public constructor.
NON_FINITE_FIELDS = {
    "UnitSystem.k_B": (ThermoError, lambda v: UnitSystem(k_B=v)),
    "UnitSystem.hbar": (ThermoError, lambda v: UnitSystem(hbar=v)),
    "UnitSystem.mass": (ThermoError, lambda v: UnitSystem(mass=v)),
    "StateThermo.energy": (ThermoError, lambda v: StateThermo(v, 0.0, 1.0)),
    "StateThermo.entropy": (ThermoError, lambda v: StateThermo(0.0, v, 1.0)),
    "StateThermo.temperature": (ThermoError, lambda v: StateThermo(0.0, 0.0, v)),
    "DiscreteDistribution": (InvalidDistributionError, lambda v: DiscreteDistribution([v, 1.0])),
    "JointDistribution": (InvalidDistributionError, lambda v: JointDistribution([[v, 0.5]])),
    "LogicalOperation": (InvalidOperationError, lambda v: LogicalOperation([[v, 1.0], [0.0, 1.0]])),
    "Scenario.reference_temperature": (ThermoError, lambda v: _flat_scenario(t_ref=v)),
    "make_weights": (CostError, lambda v: make_weights(_flat_scenario(), [v, 1.0])),
}


@given(
    field=st.sampled_from(sorted(NON_FINITE_FIELDS)),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_constructors_reject_non_finite_values(field, value):
    error, build = NON_FINITE_FIELDS[field]
    with pytest.raises(error):
        build(value)


class TestStateThermo:
    def test_rejects_negative_temperature(self):
        with pytest.raises(ThermoError):
            StateThermo(0.0, 0.0, -1.0)

    def test_rejects_negative_entropy(self):
        with pytest.raises(ThermoError):
            StateThermo(0.0, -0.5, 1.0)

    def test_clamps_float_dust(self):
        st = StateThermo(0.0, -1e-15, 1.0)
        assert st.entropy == 0.0


class TestMakeModel:
    def test_uniform_assigns_constants(self):
        sc = make_model(
            "uniform", skeleton(not_op(), [0.4, 0.6], energy_offset=0.0, entropy_offset=0.0)
        )
        for st in sc.input_thermo + sc.output_thermo:
            assert st.energy == 0.0 and st.entropy == 0.0 and st.temperature == 1.0

    def test_equilibrium_rejects_dead_states(self):
        from thermologic.logic import LogicalOperation

        with pytest.raises(ThermoError):
            make_model(
                "equilibrium",
                skeleton(LogicalOperation([[1.0], [1.0]]), [1.0, 0.0]),
            )

    def test_equilibrium_relation_holds(self):
        rng = np.random.default_rng(0)
        op = random_operation(rng, 3, 3)
        sc = make_model("equilibrium", skeleton(op, [0.2, 0.3, 0.5]))
        kt = sc.kT
        values = [
            st.energy - kt * st.entropy + kt * math.log(p)
            for p, st in zip(sc.input_dist.probs, sc.input_thermo)
        ] + [
            st.energy - kt * st.entropy + kt * math.log(p)
            for p, st in zip(sc.output_dist.probs, sc.output_thermo)
        ]
        assert max(values) - min(values) < 1e-12

    def test_equilibrium_certain_state_solves_exactly(self):
        from thermologic.logic import LogicalOperation

        op = LogicalOperation([[1.0]])
        c_a = -0.7
        sc = make_model(
            "equilibrium",
            skeleton(op, [1.0], equilibrium_constant=c_a, state_energy=0.3),
        )
        st = sc.input_thermo[0]
        assert st.energy - sc.kT * st.entropy == pytest.approx(c_a, abs=1e-12)

    def test_adiabatic_entropy_tracks_log_probability(self):
        rng = np.random.default_rng(1)
        op = random_operation(rng, 3, 3)
        sc = make_model("adiabatic", skeleton(op, [0.2, 0.3, 0.5]))
        offsets = [
            st.entropy - math.log(p)
            for p, st in zip(sc.input_dist.probs, sc.input_thermo)
        ]
        assert max(offsets) - min(offsets) < 1e-12
        assert min(st.entropy for st in sc.input_thermo + sc.output_thermo) >= 0.0

    def test_adiabatic_equilibrium_satisfies_both_assumption_sets(self):
        rng = np.random.default_rng(2)
        op = random_operation(rng, 4, 4)
        sc = make_model("adiabatic_equilibrium", skeleton(op, [0.1, 0.2, 0.3, 0.4]))
        report = validate(sc)
        assert report["equilibrium"].satisfied
        assert report["adiabatic"].satisfied
        assert report["adiabatic_equilibrium"].satisfied

    def test_adiabatic_equilibrium_equal_probabilities_share_entropy(self):
        sc = make_model(
            "adiabatic_equilibrium",
            skeleton(not_op(), [0.5, 0.5], adiabatic_constant=math.log(2) + math.log(2)),
        )
        entropies = {round(st.entropy, 12) for st in sc.input_thermo + sc.output_thermo}
        assert entropies == {round(math.log(2), 12)}

    def test_zero_probability_state_rejected(self):
        with pytest.raises(ThermoError):
            make_model("adiabatic_equilibrium", skeleton(not_op(), [1.0, 0.0]))

    def test_negative_entropy_rejected(self):
        with pytest.raises(ThermoError):
            make_model(
                "adiabatic", skeleton(not_op(), [0.5, 0.5], adiabatic_constant=-5.0)
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ThermoError):
            make_model("isothermal", skeleton(not_op(), [0.5, 0.5]))


class TestValidate:
    def test_uniform_scenario_reports(self):
        sc = make_model(
            "uniform", skeleton(not_op(), [0.4, 0.6], energy_offset=0.0, entropy_offset=0.0)
        )
        report = validate(sc)
        for name in ("isothermal", "uniform_states", "uniform_computing", "zero_mean_work"):
            assert report[name].satisfied, name

    def test_perturbation_detected(self):
        sc = make_model(
            "uniform", skeleton(not_op(), [0.4, 0.6], energy_offset=0.0, entropy_offset=1.0)
        )
        bumped = Scenario(
            input_dist=sc.input_dist,
            op=sc.op,
            input_thermo=(
                StateThermo(0.0, 1.0 + 1e-8, 1.0),
                sc.input_thermo[1],
            ),
            output_thermo=sc.output_thermo,
            reference_temperature=1.0,
        )
        report = validate(bumped)
        assert not report["uniform_states"].satisfied
        assert "uniform_states" in report.violations

    def test_validate_is_pure(self):
        sc = make_model("uniform", skeleton(not_op(), [0.4, 0.6]))
        first = validate(sc)
        second = validate(sc)
        assert first.checks == second.checks

    def test_equilibrium_work_bound_vanishes(self):
        rng = np.random.default_rng(4)
        op = random_operation(rng, 3, 2)
        sc = make_model("equilibrium", skeleton(op, [0.5, 0.3, 0.2]))
        report = expected_cost(sc, optimal_weights(sc))
        assert report.work_bound == pytest.approx(0.0, abs=1e-12)
        assert report.expected_work == pytest.approx(0.0, abs=1e-12)


class TestAggregateBaths:
    def test_single_bath_is_identity(self):
        assert aggregate_baths([(0.7, 1.3)]) == (0.7, 1.3)

    def test_two_baths(self):
        total, temperature = aggregate_baths([(1.0, 1.0), (1.0, 2.0)])
        assert total == pytest.approx(2.0)
        assert temperature == pytest.approx(4.0 / 3.0)

    def test_cancellation_is_degenerate(self):
        with pytest.raises(DegenerateBathError):
            aggregate_baths([(1.0, 1.0), (-1.0, 1.0)])

    @pytest.mark.parametrize(
        "deposits",
        [
            [(2.0, 1.0), (-1.0, 0.1)],  # effective temperature -0.125
            [(1.0, 1e-320), (1.0, 1.0)],  # 1 / 1e-320 overflows, so the temperature reads 0
            [(1e308, 1.0), (1e308, 1.0)],  # finite heats whose total overflows
            [(1.0, 1e-320), (-1.0, 1e-320)],  # inf - inf
        ],
        ids=["negative-temperature", "zero-temperature", "heat-overflow", "inf-minus-inf"],
    )
    def test_no_finite_positive_effective_temperature_is_degenerate(self, deposits):
        with pytest.raises(DegenerateBathError):
            aggregate_baths(deposits)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ThermoError):
            aggregate_baths([(1.0, 0.0)])

    @pytest.mark.parametrize(
        "deposits",
        [
            [(1.0, -1.0)],
            [(1.0, math.nan), (2.0, 1.0)],
            [(1.0, math.inf), (2.0, 1.0)],
            [(math.nan, 1.0), (2.0, 1.0)],
            [(math.inf, 1.0), (2.0, 1.0)],
            [(-math.inf, 1.0)],
        ],
        ids=["negative-t", "nan-t", "inf-t", "nan-q", "inf-q", "single-inf-q"],
    )
    def test_non_finite_deposits_and_negative_temperatures_rejected(self, deposits):
        with pytest.raises(ThermoError):
            aggregate_baths(deposits)

    def test_single_bath_keeps_bound_form(self):
        # replacing (Q, T_R) by the aggregate of one deposit changes nothing
        sc = make_model("uniform", skeleton(rtz(), [0.5, 0.5], energy_offset=0.0))
        report = expected_cost(sc, optimal_weights(sc))
        q, t = aggregate_baths([(report.expected_heat, sc.reference_temperature)])
        assert q == report.expected_heat and t == sc.reference_temperature


class TestScenarioCache:
    def test_derived_values_are_computed_once(self):
        rng = np.random.default_rng(31)
        sc = Scenario(
            random_distribution(rng, 3),
            random_operation(rng, 3, 4),
            random_thermo(rng, 3),
            random_thermo(rng, 4),
            1.7,
        )
        for name in ("output_dist", "input_arrays", "output_arrays", "bound_terms"):
            assert getattr(sc, name) is getattr(sc, name)
        bounds = glp_bounds(sc)
        report = expected_cost(sc, optimal_weights(sc))
        fields = (
            "mean_energy_change", "entropy_change", "state_entropy_change", "shannon_change_bits",
            "work_bound", "heat_bound", "bath_entropy_bound", "nibdf_bound",
        )
        assert tuple(getattr(bounds, f) for f in fields) == sc.bound_terms
        assert tuple(getattr(report, f) for f in fields) == sc.bound_terms

    def test_state_arrays_are_read_only_per_state_values(self):
        rng = np.random.default_rng(32)
        thermo = random_thermo(rng, 5)
        arrays = state_arrays(thermo, 1.3)
        assert arrays.energy.tolist() == [state.energy for state in thermo]
        assert arrays.entropy.tolist() == [state.entropy for state in thermo]
        assert arrays.free_energy.tolist() == [state.energy - 1.3 * state.entropy for state in thermo]
        for values in arrays:
            assert values.dtype == float and values.shape == (5,)
            with pytest.raises(ValueError):
                values[0] = 0.0


class TestThermoTable:
    def _scenario(self, t_ref=1.7):
        rng = np.random.default_rng(37)
        given_in, given_out = random_thermo(rng, 3), random_thermo(rng, 4)
        sc = Scenario(
            random_distribution(rng, 3), random_operation(rng, 3, 4), given_in, given_out, t_ref
        )
        return sc, given_in, given_out

    def test_a_scenario_table_is_the_tuple_it_was_given(self):
        sc, given_in, given_out = self._scenario()
        for table, given_table in ((sc.input_thermo, given_in), (sc.output_thermo, given_out)):
            assert type(given_table) is tuple
            assert isinstance(table, ThermoTable) and isinstance(table, tuple)
            assert table == given_table and tuple(table) == given_table
            assert hash(table) == hash(given_table)
        assert type(sc.input_thermo[1:]) is tuple
        assert type(sc.input_thermo + sc.output_thermo) is tuple

    @pytest.mark.parametrize(
        "clone",
        [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_a_table_survives_pickle_and_copies_as_a_table(self, clone):
        sc, _, _ = self._scenario()
        arrays = sc.input_arrays
        table = clone(sc.input_thermo)
        assert type(table) is ThermoTable and table == sc.input_thermo
        again = state_arrays(table, sc.kT)
        assert again is not arrays and again is state_arrays(table, sc.kT)
        for new, old in zip(again, arrays):
            assert not new.flags.writeable and new.tobytes() == old.tobytes()
        scenario = pickle.loads(pickle.dumps(sc))
        assert type(scenario.output_thermo) is ThermoTable
        assert scenario.output_thermo == sc.output_thermo

    def test_replace_keeps_the_table_and_its_arrays(self):
        sc, _, _ = self._scenario()
        arrays = (sc.input_arrays, sc.output_arrays)
        rng = np.random.default_rng(38)
        other = dataclasses.replace(sc, input_dist=random_distribution(rng, 3))
        assert other.input_thermo is sc.input_thermo and other.output_thermo is sc.output_thermo
        assert (other.input_arrays, other.output_arrays) == arrays
        assert other.input_arrays is arrays[0] and other.output_arrays is arrays[1]
        assert state_arrays(sc.input_thermo, sc.kT) is arrays[0]
        plain = tuple(sc.input_thermo)
        assert state_arrays(plain, sc.kT) is not state_arrays(plain, sc.kT)

    def test_table_arrays_are_read_only(self):
        sc, _, _ = self._scenario()
        for arrays in (sc.input_arrays, sc.output_arrays):
            for values in arrays:
                with pytest.raises(ValueError):
                    values[0] = 0.0

    def test_each_temperature_gets_its_own_free_energies(self):
        sc, given_in, _ = self._scenario(t_ref=1.7)
        hot = dataclasses.replace(sc, reference_temperature=3.4)
        assert hot.input_thermo is sc.input_thermo
        cold_free, hot_free = sc.input_arrays.free_energy, hot.input_arrays.free_energy
        assert cold_free.tolist() == [st.energy - 1.7 * st.entropy for st in given_in]
        assert hot_free.tolist() == [st.energy - 3.4 * st.entropy for st in given_in]
        assert cold_free.tolist() != hot_free.tolist()
        assert state_arrays(sc.input_thermo, 1.7) is sc.input_arrays
        assert state_arrays(sc.input_thermo, 3.4) is hot.input_arrays

    def test_threads_sharing_tables_get_the_cold_arrays(self):
        rng = np.random.default_rng(39)
        tables = [ThermoTable(random_thermo(rng, n)) for n in range(1, 9)]
        temperatures = (0.5, 1.0, 1.7)
        want = {
            (index, kt): [a.tobytes() for a in state_arrays(tuple(table), kt)]
            for index, table in enumerate(tables)
            for kt in temperatures
        }
        got, errors = [], []

        def work():
            try:
                for index, table in enumerate(tables):
                    for kt in temperatures:
                        got.append(((index, kt), [a.tobytes() for a in state_arrays(table, kt)]))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(got) == 6 * len(want)
        for key, arrays in got:
            assert arrays == want[key]
