import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    STRUCTURES,
    bits,
    copy_scenario,
    outcome,
    permutation_operation,
    random_distribution,
    random_operation,
    random_scenario,
    random_thermo,
    structured_scenario,
)
from thermologic import costs, cycles, logic, thermo
from thermologic.costs import (
    INFINITE_COST,
    CostError,
    expected_cost,
    is_infinite,
    make_weights,
    optimal_weights,
)
from thermologic.cycles import (
    CycleEvaluation,
    DegenerateCycleError,
    build_reversible_cycle,
    entropy_ledgers,
    evaluate_cycle,
    partial_operation_cost,
    reverse_operation,
    rle_le_cycle,
    suboptimal_cycle_cost,
    uncertain_operation_cost,
)
from thermologic.logic import (
    PROB_ATOL,
    DiscreteDistribution,
    LogicalOperation,
    identity_op,
    rtz,
    ufz,
)
from thermologic.thermo import (
    SI_UNITS,
    ModelSkeleton,
    Scenario,
    StateThermo,
    UnitSystem,
    make_model,
)

LN2 = math.log(2.0)


def uniform_scenario(op, probs):
    return make_model(
        "uniform",
        ModelSkeleton(
            input_dist=DiscreteDistribution(probs),
            op=op,
            reference_temperature=1.0,
            energy_offset=0.0,
            entropy_offset=0.0,
        ),
    )


def flat_thermo(n):
    return tuple(StateThermo(0.5, 0.0, 1.0) for _ in range(n))


class TestRleLeCycle:
    def test_matched_cycle_is_exactly_free(self):
        report = rle_le_cycle(0.5, 0.5)
        assert report.net_work == 0.0
        assert report.net_heat == 0.0
        assert report.reversible

    def test_uniform_stage_values(self):
        p = 0.3
        report = rle_le_cycle(p, p)
        unset, reset, restore = (c.expected_work for c in report.evaluation.leg_costs)
        # randomise-then-reset halves extract and repay the same amount
        assert unset == pytest.approx(p * math.log(p) + (1 - p) * math.log(1 - p), abs=1e-12)
        assert reset == pytest.approx(-unset, abs=1e-12)
        assert restore == 0.0

    def test_mismatched_reset_costs_kl(self):
        report = rle_le_cycle(0.5, 0.25)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert expected == pytest.approx(0.143841, abs=1e-6)
        assert report.net_work == pytest.approx(expected, abs=1e-12)
        assert not report.reversible

    def test_adiabatic_equilibrium_matched_is_stage_free(self):
        # The reset itself is free to criterion 5's bound; the outer legs
        # move the standard state (kT/2, 0, T_R) to and from the model's tables.
        report = rle_le_cycle(0.3, 0.3, model="adiabatic_equilibrium")
        reset = report.evaluation.leg_costs[1]
        assert reset.expected_work == pytest.approx(0.0, abs=1e-12)
        assert reset.expected_heat == pytest.approx(0.0, abs=1e-12)

    def test_adiabatic_equilibrium_mismatch_same_kl(self):
        uniform = rle_le_cycle(0.7, 0.2)
        adiabatic = rle_le_cycle(0.7, 0.2, model="adiabatic_equilibrium")
        assert adiabatic.net_work == pytest.approx(uniform.net_work, abs=1e-12)

    def test_entropy_books_balance(self):
        for model in ("uniform", "adiabatic_equilibrium"):
            report = rle_le_cycle(0.6, 0.35, model=model)
            legs = report.evaluation.leg_costs
            # the system returns to its start, so the whole KL production
            # ends up in the bath
            assert math.fsum(c.entropy_change for c in legs) == pytest.approx(0.0, abs=1e-12)
            assert math.fsum(c.expected_heat for c in legs) == pytest.approx(
                report.kl_nats, abs=1e-12
            )

    def test_removal_carries_the_uncompensated_entropy(self):
        report = rle_le_cycle(0.6, 0.35)
        unset, reset, restore = (
            c.entropy_change + c.expected_heat for c in report.evaluation.leg_costs
        )
        assert reset == pytest.approx(report.kl_nats, abs=1e-12)
        assert unset == pytest.approx(0.0, abs=1e-12)
        assert restore == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_probabilities_rejected(self):
        with pytest.raises(DegenerateCycleError):
            rle_le_cycle(0.0, 0.5)
        with pytest.raises(DegenerateCycleError):
            rle_le_cycle(0.5, 1.0)

    @pytest.mark.parametrize(
        "temperature", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
    )
    @pytest.mark.parametrize("model", ["uniform", "adiabatic_equilibrium"])
    def test_temperature_must_be_finite_and_positive(self, model, temperature):
        with pytest.raises(DegenerateCycleError, match="temperature"):
            rle_le_cycle(0.3, 0.6, model=model, temperature=temperature)

    def test_grid_matches_kl_formula(self):
        grid = np.linspace(0.05, 0.95, 10)
        for p in grid:
            for p_prime in grid:
                report = rle_le_cycle(float(p), float(p_prime))
                expected = p * math.log(p / p_prime) + (1 - p) * math.log(
                    (1 - p) / (1 - p_prime)
                )
                assert report.net_work == pytest.approx(expected, abs=1e-12)
                assert report.net_work >= -1e-12


class TestEntropyLedgers:
    def test_reset_at_optimum(self):
        p = 0.3
        sc = uniform_scenario(rtz(), [p, 1 - p])
        ledger = entropy_ledgers(sc, optimal_weights(sc))
        by_input = {e.input_index: e.value for e in ledger.individual}
        assert by_input[0] == pytest.approx(-math.log(p), abs=1e-12)
        assert by_input[1] == pytest.approx(-math.log(1 - p), abs=1e-12)
        h_nats = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert ledger.average == pytest.approx(h_nats, abs=1e-12)
        assert ledger.gibbs == pytest.approx(0.0, abs=1e-12)
        assert ledger.individual_flags_irreversible
        assert ledger.average_flags_irreversible
        assert not ledger.gibbs_flags_irreversible

    def test_unset_decreases_first_two_measures(self):
        p = 0.3
        sc = uniform_scenario(ufz(p), [1.0])
        ledger = entropy_ledgers(sc, optimal_weights(sc))
        h_nats = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert ledger.average == pytest.approx(-h_nats, abs=1e-12)
        assert ledger.average_decreases
        assert ledger.individual_decreases
        assert ledger.gibbs == pytest.approx(0.0, abs=1e-12)

    def test_identity_is_silent(self):
        sc = uniform_scenario(identity_op(2), [0.4, 0.6])
        ledger = entropy_ledgers(sc, optimal_weights(sc))
        assert all(e.value == pytest.approx(0.0, abs=1e-12) for e in ledger.individual)
        assert ledger.average == pytest.approx(0.0, abs=1e-12)
        assert ledger.gibbs == pytest.approx(0.0, abs=1e-12)

    def test_individual_bound_holds_for_any_weights(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sc = Scenario(
                input_dist=random_distribution(rng, n),
                op=random_operation(rng, n, n),
                input_thermo=random_thermo(rng, n),
                output_thermo=random_thermo(rng, n),
                reference_temperature=float(rng.uniform(0.5, 2.0)),
            )
            weights = make_weights(sc, rng.dirichlet(np.ones(n)))
            ledger = entropy_ledgers(sc, weights)
            for entry in ledger.individual:
                assert entry.value >= entry.lower_bound - 1e-12

    def test_gibbs_measure_nonnegative_and_tight_at_optimum(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sc = Scenario(
                input_dist=random_distribution(rng, n),
                op=random_operation(rng, n, n),
                input_thermo=random_thermo(rng, n),
                output_thermo=random_thermo(rng, n),
                reference_temperature=float(rng.uniform(0.5, 2.0)),
            )
            loose = entropy_ledgers(sc, make_weights(sc, rng.dirichlet(np.ones(n))))
            assert loose.gibbs >= -1e-12
            tight = entropy_ledgers(sc, optimal_weights(sc))
            assert tight.gibbs == pytest.approx(0.0, abs=1e-12)


class TestReverseOperation:
    def test_reset_reverses_to_unset(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        report = reverse_operation(sc)
        assert report.pruned_outputs == ("1",)
        assert np.allclose(report.operation.matrix, [[0.5, 0.5]])
        assert report.forward_cost.expected_work == pytest.approx(LN2, abs=1e-12)
        assert report.reverse_cost.expected_work == pytest.approx(-LN2, abs=1e-12)
        assert report.work_antisymmetry_error < 1e-10

    def test_permutation_reverses_to_inverse(self):
        rng = np.random.default_rng(22)
        op = permutation_operation((2, 0, 1))
        sc = Scenario(
            input_dist=random_distribution(rng, 3),
            op=op,
            input_thermo=random_thermo(rng, 3),
            output_thermo=random_thermo(rng, 3),
            reference_temperature=1.0,
        )
        report = reverse_operation(sc)
        assert np.allclose(report.operation.matrix, op.matrix.T)
        for fwd, rev in zip(
            report.forward_cost.transitions,
            sorted(
                report.reverse_cost.transitions,
                key=lambda tr: (tr.output_index, tr.input_index),
            ),
        ):
            assert fwd.work == pytest.approx(-rev.work, abs=1e-12)

    def test_random_round_trip_is_free(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sc = Scenario(
                input_dist=random_distribution(rng, 3),
                op=random_operation(rng, 3, 3),
                input_thermo=random_thermo(rng, 3),
                output_thermo=random_thermo(rng, 3),
                reference_temperature=float(rng.uniform(0.5, 2.0)),
            )
            report = reverse_operation(sc)
            assert report.work_antisymmetry_error < 1e-10
            assert report.heat_antisymmetry_error < 1e-10
            restored = report.scenario.output_dist
            assert np.max(np.abs(restored.probs - sc.input_dist.probs)) < 1e-12

    def test_pruned_labels_follow_the_quadratic_rule(self):
        # Inputs b and d never occur; outputs x and z are then unreachable.
        op = LogicalOperation(
            [
                [0.0, 0.5, 0.0, 0.5],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.0, 0.2, 0.0, 0.8],
            ],
            input_labels=("a", "b", "c", "d", "e"),
            output_labels=("x", "y", "z", "w"),
        )
        sc = uniform_scenario(op, [0.3, 0.0, 0.3, 0.0, 0.4])
        report = reverse_operation(sc)
        kept_in = (0, 2, 4)
        kept_out = (1, 3)
        assert report.pruned_inputs == tuple(
            lbl for i, lbl in enumerate(op.input_labels) if i not in kept_in
        ) == ("b", "d")
        assert report.pruned_outputs == tuple(
            lbl for j, lbl in enumerate(op.output_labels) if j not in kept_out
        ) == ("x", "z")
        assert report.operation.input_labels == ("y", "w")
        assert report.operation.output_labels == ("a", "c", "e")

    @pytest.mark.parametrize("units", [UnitSystem(), SI_UNITS], ids=["natural", "si"])
    def test_a_pruned_reset_slices_its_tables_arrays_bit_for_bit(self, units, monkeypatch):
        """Input 0 never occurs and outputs 0 and 2 are never reached: the pruned
        forward leg's arrays are rows of the scenario's, equal in every bit to
        those of a scenario built from the kept states, and nothing is tabulated."""
        rng = np.random.default_rng(26)
        op = LogicalOperation(np.eye(3)[[1, 1, 1, 1]])
        sc = Scenario(
            DiscreteDistribution([0.0, 0.3, 0.3, 0.4]),
            op,
            random_thermo(rng, 4),
            random_thermo(rng, 3),
            1.3,
            units,
        )
        expected_cost(sc, optimal_weights(sc))
        tabulated = []
        tabulate = thermo._tabulate
        monkeypatch.setattr(
            thermo, "_tabulate", lambda table, kt: tabulated.append(table) or tabulate(table, kt)
        )
        report = reverse_operation(sc)
        assert tabulated == []
        assert (report.pruned_inputs, report.pruned_outputs) == (("0",), ("0", "2"))
        monkeypatch.undo()
        kept_in, kept_out = [1, 2, 3], [1]
        plain = Scenario(
            DiscreteDistribution(sc.input_dist.probs[kept_in]),
            LogicalOperation(
                op.matrix[kept_in][:, kept_out], input_labels=("1", "2", "3"), output_labels=("1",)
            ),
            tuple(sc.input_thermo[i] for i in kept_in),
            tuple(sc.output_thermo[j] for j in kept_out),
            sc.reference_temperature,
            units,
        )
        want = reverse_operation(plain)
        assert want.pruned_inputs == want.pruned_outputs == ()
        assert bits(replace(report, pruned_inputs=(), pruned_outputs=())) == bits(want)
        got_arrays = (report.scenario.input_arrays, report.scenario.output_arrays)
        want_arrays = (want.scenario.input_arrays, want.scenario.output_arrays)
        assert bits(got_arrays) == bits(want_arrays)
        assert all(not a.flags.writeable for arrays in got_arrays for a in arrays)

    def test_unpruned_forward_leg_is_the_scenario(self):
        rng = np.random.default_rng(24)
        sc = Scenario(
            input_dist=random_distribution(rng, 4),
            op=random_operation(rng, 4, 3),
            input_thermo=random_thermo(rng, 4),
            output_thermo=random_thermo(rng, 3),
            reference_temperature=1.3,
        )
        report = reverse_operation(sc)
        assert report.pruned_inputs == report.pruned_outputs == ()
        assert report.scenario.input_dist is sc.output_dist
        want = expected_cost(sc, optimal_weights(sc))
        assert report.forward_cost.columns.work.tobytes() == want.columns.work.tobytes()
        assert report.forward_cost.columns.heat.tobytes() == want.columns.heat.tobytes()
        assert (report.forward_cost.expected_work, report.forward_cost.expected_heat) == (
            want.expected_work,
            want.expected_heat,
        )

    def test_unpruned_scenario_is_not_propagated_again(self, monkeypatch):
        rng = np.random.default_rng(25)
        sc = Scenario(
            input_dist=random_distribution(rng, 6),
            op=random_operation(rng, 6, 6),
            input_thermo=random_thermo(rng, 6),
            output_thermo=random_thermo(rng, 6),
            reference_temperature=1.1,
        )
        sc.output_dist  # kept by the scenario from here on
        propagated = []
        real = logic.propagate

        def counted(op, dist):
            propagated.append(op)
            return real(op, dist)

        for module in (logic, thermo):
            monkeypatch.setattr(module, "propagate", counted)
        report = reverse_operation(sc)
        assert report.pruned_inputs == report.pruned_outputs == ()
        # Only the reverse leg's own output statistics are computed.
        assert len(propagated) == 1 and propagated[0] is report.operation


class TestSuboptimalCycle:
    def test_matching_weights_cost_nothing(self):
        d = DiscreteDistribution([0.3, 0.7])
        result = suboptimal_cycle_cost(rtz(), [0.3, 0.7], d)
        assert result.work == pytest.approx(0.0, abs=1e-12)
        assert result.weights_match_input

    def test_reversible_operation_costs_nothing_for_any_weights(self):
        rng = np.random.default_rng(24)
        op = permutation_operation((1, 2, 0))
        for _ in range(10):
            result = suboptimal_cycle_cost(
                op, rng.dirichlet(np.ones(3)), random_distribution(rng, 3)
            )
            assert result.operation_reversible
            assert result.work == pytest.approx(0.0, abs=1e-12)

    def test_reset_with_wrong_statistics(self):
        result = suboptimal_cycle_cost(
            rtz(), [0.5, 0.5], DiscreteDistribution([0.9, 0.1])
        )
        oracle = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert result.work == pytest.approx(oracle, abs=1e-12)
        assert result.work == pytest.approx(0.368, abs=1e-3)

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            n_in = int(rng.integers(2, 5))
            n_out = int(rng.integers(2, 5))
            result = suboptimal_cycle_cost(
                random_operation(rng, n_in, n_out),
                rng.dirichlet(np.ones(n_in)),
                random_distribution(rng, n_in),
            )
            assert result.work >= -1e-12

    def test_zero_weight_on_live_state_is_infinite(self):
        result = suboptimal_cycle_cost(
            rtz(), [1.0, 0.0], DiscreteDistribution([0.5, 0.5])
        )
        assert is_infinite(result.work)


class TestUncertainOperations:
    def test_identical_branches_factorise(self):
        rng = np.random.default_rng(26)
        op = random_operation(rng, 2, 2)
        report = uncertain_operation_cost(
            [(op, 0.5), (op, 0.5)],
            DiscreteDistribution([0.4, 0.6]),
            flat_thermo(2),
            flat_thermo(2),
        )
        assert report.excess == pytest.approx(0.0, abs=1e-12)
        assert report.factorizes

    def test_uncertain_set_costs_one_bit(self):
        set_zero = LogicalOperation([[1.0, 0.0]], input_labels=("a",))
        set_one = LogicalOperation([[0.0, 1.0]], input_labels=("a",))
        report = uncertain_operation_cost(
            [(set_zero, 0.5), (set_one, 0.5)],
            DiscreteDistribution([1.0]),
            flat_thermo(1),
            flat_thermo(2),
        )
        assert report.excess == pytest.approx(LN2, abs=1e-12)
        assert report.cycle_total == pytest.approx(LN2, abs=1e-12)

    def test_disjoint_outputs_carry_one_bit_of_correlation(self):
        left = LogicalOperation([[1.0, 0.0], [1.0, 0.0]])
        right = LogicalOperation([[0.0, 1.0], [0.0, 1.0]])
        report = uncertain_operation_cost(
            [(left, 0.5), (right, 0.5)],
            DiscreteDistribution([0.3, 0.7]),
            flat_thermo(2),
            flat_thermo(2),
        )
        assert report.mutual_information_nats == pytest.approx(LN2, abs=1e-12)

    def test_thermodynamic_sum_equals_information_form(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            count = int(rng.integers(2, 4))
            gamma = rng.dirichlet(np.ones(count))
            branches = [
                (random_operation(rng, n, n), float(g)) for g in gamma
            ]
            report = uncertain_operation_cost(
                branches,
                random_distribution(rng, n),
                random_thermo(rng, n),
                random_thermo(rng, n),
                reference_temperature=float(rng.uniform(0.5, 2.0)),
            )
            assert report.cycle_total == pytest.approx(report.excess, abs=1e-10)
            assert report.excess >= -1e-12


class TestPartialOperations:
    def test_product_prior_is_free(self):
        rng = np.random.default_rng(28)
        joint = np.outer([0.3, 0.7], [0.6, 0.4])
        report = partial_operation_cost(
            joint, random_operation(rng, 2, 2), flat_thermo(2), flat_thermo(2)
        )
        assert report.product_prior
        assert report.excess == pytest.approx(0.0, abs=1e-12)
        assert report.screens_off

    def test_reversible_operation_is_free_even_when_correlated(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        report = partial_operation_cost(
            joint, permutation_operation((1, 0)), flat_thermo(2), flat_thermo(2)
        )
        assert report.excess == pytest.approx(0.0, abs=1e-12)

    def test_reset_on_perfectly_correlated_pair_wastes_one_bit(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        report = partial_operation_cost(joint, rtz(), flat_thermo(2), flat_thermo(2))
        assert report.excess == pytest.approx(LN2, abs=1e-12)
        assert report.cycle_total == pytest.approx(LN2, abs=1e-12)

    def test_thermodynamic_sum_equals_conditional_information(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n_in = int(rng.integers(2, 4))
            n_out = int(rng.integers(2, 4))
            n_g = int(rng.integers(2, 4))
            joint = rng.dirichlet(np.ones(n_in * n_g)).reshape(n_in, n_g)
            report = partial_operation_cost(
                joint,
                random_operation(rng, n_in, n_out),
                random_thermo(rng, n_in),
                random_thermo(rng, n_out),
                reference_temperature=float(rng.uniform(0.5, 2.0)),
            )
            assert report.cycle_total == pytest.approx(report.excess, abs=1e-10)
            assert report.excess >= -1e-12


class TestBuildReversibleCycle:
    def test_matched_cycle_is_free(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            n_in = int(rng.integers(2, 5))
            n_out = int(rng.integers(2, 5))
            op = random_operation(rng, n_in, n_out)
            w = rng.dirichlet(np.ones(n_in))
            spec = build_reversible_cycle(
                op, w, random_thermo(rng, n_in), random_thermo(rng, n_out)
            )
            evaluation = evaluate_cycle(spec)
            assert evaluation.total_work == pytest.approx(0.0, abs=1e-10)
            assert evaluation.total_heat == pytest.approx(0.0, abs=1e-10)

    def test_mismatched_inputs_reproduce_suboptimal_cost(self):
        rng = np.random.default_rng(31)
        op = random_operation(rng, 3, 2)
        w = rng.dirichlet(np.ones(3))
        actual = random_distribution(rng, 3)
        spec = build_reversible_cycle(op, w, random_thermo(rng, 3), random_thermo(rng, 2))
        evaluation = evaluate_cycle(spec, middle_input=actual.probs)
        oracle = suboptimal_cycle_cost(op, w, actual)
        assert evaluation.total_work == pytest.approx(oracle.work, abs=1e-10)
        assert evaluation.total_work > 0.0

    def test_reversible_middle_stays_free_under_mismatch(self):
        rng = np.random.default_rng(32)
        op = permutation_operation((2, 0, 1))
        spec = build_reversible_cycle(
            op, rng.dirichlet(np.ones(3)), random_thermo(rng, 3), random_thermo(rng, 3)
        )
        evaluation = evaluate_cycle(spec, middle_input=random_distribution(rng, 3).probs)
        assert evaluation.total_work == pytest.approx(0.0, abs=1e-10)

    def test_a_scenario_is_the_cycle_of_its_own_input_statistics(self):
        """The CLI passes a loaded scenario straight in; it must cost what the built cycle costs."""
        rng = np.random.default_rng(33)
        for units in (UnitSystem(), UnitSystem(k_B=0.7)):
            sc = replace(random_scenario(rng), units=units)
            cycle = build_reversible_cycle(
                sc.op,
                sc.input_dist.probs,
                sc.input_thermo,
                sc.output_thermo,
                sc.reference_temperature,
                sc.units,
            )
            assert isinstance(cycle, Scenario)
            assert cycle.input_dist.probs.tobytes() == sc.input_dist.probs.tobytes()
            middle = random_distribution(rng, sc.op.n_inputs).probs
            for kwargs in ({}, {"middle_input": middle}):
                built, direct = evaluate_cycle(cycle, **kwargs), evaluate_cycle(sc, **kwargs)
                for a, b in zip(built.leg_costs, direct.leg_costs):
                    assert (a.expected_work, a.expected_heat) == (b.expected_work, b.expected_heat)
                assert (built.total_work, built.total_heat) == (direct.total_work, direct.total_heat)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: partial_operation_cost(
            [[x, 0.5], [0.25, 0.25]], rtz(), flat_thermo(2), flat_thermo(2)
        ),
        lambda x: uncertain_operation_cost(
            [(rtz(), x), (identity_op(2), 1.0)],
            DiscreteDistribution([0.5, 0.5]),
            flat_thermo(2),
            flat_thermo(2),
        ),
        lambda x: suboptimal_cycle_cost(rtz(), [x, 1.0], DiscreteDistribution([0.5, 0.5])),
        lambda x: build_reversible_cycle(rtz(), [x, 1.0], flat_thermo(2), flat_thermo(2)),
    ],
    ids=["joint_prior", "branch_probabilities", "suboptimal_weights", "cycle_weights"],
)
def test_non_finite_probabilities_are_rejected(call, bad):
    with pytest.raises(CostError):
        call(bad)


@pytest.mark.parametrize(
    "temperature", [-2.0, 0.0, math.nan, math.inf], ids=["negative", "zero", "nan", "inf"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda t: uncertain_operation_cost(
            [(rtz(), 0.5), (identity_op(2), 0.5)],
            DiscreteDistribution([0.5, 0.5]),
            flat_thermo(2),
            flat_thermo(2),
            reference_temperature=t,
        ),
        lambda t: partial_operation_cost(
            [[0.5, 0.0], [0.0, 0.5]], rtz(), flat_thermo(2), flat_thermo(2), reference_temperature=t
        ),
        lambda t: suboptimal_cycle_cost(
            rtz(), [0.5, 0.5], DiscreteDistribution([0.9, 0.1]), reference_temperature=t
        ),
        # a zero weight on a live input: the temperature is checked before the sentinel returns
        lambda t: suboptimal_cycle_cost(
            rtz(), [1.0, 0.0], DiscreteDistribution([0.5, 0.5]), reference_temperature=t
        ),
    ],
    ids=["uncertain", "partial", "suboptimal", "suboptimal-infinite"],
)
def test_cycle_sources_need_a_finite_positive_temperature(call, temperature):
    with pytest.raises(DegenerateCycleError, match="temperature must be finite and positive"):
        call(temperature)


def _uncertain(probs, n_in=2, n_out=2):
    return uncertain_operation_cost(
        [(rtz(), 0.5), (identity_op(2), 0.5)],
        DiscreteDistribution(probs),
        flat_thermo(n_in),
        flat_thermo(n_out),
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: _uncertain([1.0]),
        lambda: _uncertain([0.2, 0.3, 0.5]),
        lambda: _uncertain([0.5, 0.5], n_in=3),
        lambda: _uncertain([0.5, 0.5], n_out=3),
        lambda: partial_operation_cost([[0.5], [0.5]], rtz(), flat_thermo(3), flat_thermo(2)),
        lambda: partial_operation_cost([[0.5], [0.5]], rtz(), flat_thermo(2), flat_thermo(3)),
    ],
    ids=[
        "uncertain-one-input",
        "uncertain-three-inputs",
        "uncertain-input-table",
        "uncertain-output-table",
        "partial-input-table",
        "partial-output-table",
    ],
)
def test_cycle_sources_check_arities_through_their_scenario(call):
    """An input distribution or a table that does not fit the operation is
    rejected by the :class:`Scenario` the source builds, never indexed."""
    with pytest.raises(logic.ArityMismatchError, match="arity does not match operation"):
        call()


@pytest.mark.parametrize("joint_prior", [[[1.0]], [[0.2], [0.3], [0.5]]], ids=["one", "three"])
def test_partial_operation_checks_its_joint_prior_rows_itself(joint_prior):
    with pytest.raises(CostError, match="joint prior arity does not match operation"):
        partial_operation_cost(joint_prior, rtz(), flat_thermo(2), flat_thermo(2))


def _kl(p, q) -> float:
    """``sum p ln(p / q)`` over the entries where ``p > 0``, written out term by term."""
    pairs = zip(np.ravel(p).tolist(), np.ravel(q).tolist())
    return math.fsum(a * math.log(a / b) for a, b in pairs if a > 0.0)


def _with_dead_last(rng, n, dead):
    """A Dirichlet draw over ``n`` states, with its last entry zeroed when ``dead`` and ``n > 1``."""
    probs = rng.dirichlet(np.ones(n))
    if dead and n > 1:
        probs[-1] = 0.0
        probs /= probs.sum()
    return probs


def _sparse_operation(rng, n_in, n_out):
    """Random rows with about a third of their entries zeroed; every row keeps one."""
    rows = rng.dirichlet(np.ones(n_out), size=n_in) * (rng.random((n_in, n_out)) > 0.35)
    rows[np.arange(n_in), rng.integers(0, n_out, n_in)] += 0.1
    return LogicalOperation(rows / rows.sum(axis=1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    zero_branch=st.booleans(),
    dead_input=st.booleans(),
    dense=st.booleans(),
)
def test_mutual_information_matches_the_loop_form(seed, count, zero_branch, dead_input, dense):
    """The vectorised mutual information equals, with ``==``, the per-term loop written out here.

    It is also the divergence of the (branch, output) joint from the product of its marginals.
    """
    rng = np.random.default_rng(seed)
    n_in, n_out = (int(v) for v in rng.integers(1, 6, 2))
    make_op = random_operation if dense else _sparse_operation
    ops = [make_op(rng, n_in, n_out) for _ in range(count)]
    gamma = rng.dirichlet(np.ones(count))
    if zero_branch and count > 1:
        gamma[0] = 0.0
        gamma /= gamma.sum()
    probs = rng.dirichlet(np.ones(n_in))
    if dead_input and n_in > 1:
        probs[-1] = 0.0
        probs /= probs.sum()
    dist = DiscreteDistribution(probs)
    t_ref = float(rng.uniform(0.5, 2.0))
    report = uncertain_operation_cost(
        list(zip(ops, gamma.tolist())),
        dist,
        random_thermo(rng, n_in),
        random_thermo(rng, n_out),
        reference_temperature=t_ref,
    )

    out_by_branch = np.array([dist.probs @ op.matrix for op in ops])
    p_out = gamma @ out_by_branch
    terms = []
    for g in range(count):
        if gamma[g] == 0.0:
            continue
        for j in range(n_out):
            joint = gamma[g] * out_by_branch[g, j]
            if joint == 0.0:
                continue
            terms.append(joint * math.log(out_by_branch[g, j] / p_out[j]))
    want = math.fsum(terms)
    assert report.mutual_information_nats == want
    assert report.excess == t_ref * want
    assert report.factorizes == (abs(want) <= 1e-12)
    kl = _kl(gamma[:, None] * out_by_branch, np.outer(gamma, p_out))
    assert report.mutual_information_nats == pytest.approx(kl, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(p=st.floats(1e-3, 1.0 - 1e-3), p_prime=st.floats(1e-3, 1.0 - 1e-3))
def test_box_cycle_excess_is_a_kl_divergence(p, p_prime):
    report = rle_le_cycle(p, p_prime)
    want = _kl(np.array([p, 1.0 - p]), np.array([p_prime, 1.0 - p_prime]))
    assert report.kl_nats == pytest.approx(want, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(1e-3, 1.0 - 1e-3),
    p_prime=st.floats(1e-3, 1.0 - 1e-3),
    temperature=st.floats(0.5, 2.0),
    model=st.sampled_from(["uniform", "adiabatic_equilibrium"]),
)
def test_box_cycle_legs_sum_to_the_information_form(p, p_prime, temperature, model):
    """The fsum of the three legs and kT times the KL form are two routes to one net work."""
    report = rle_le_cycle(p, p_prime, model=model, temperature=temperature)
    evaluation = report.evaluation
    scale = 1.0 + sum(abs(c.expected_work) for c in evaluation.leg_costs)
    assert abs(evaluation.total_work - report.net_work) <= 1e-12 * scale
    assert report.net_work == temperature * report.kl_nats


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dense=st.booleans(),
    dead_input=st.booleans(),
    dead_weight=st.booleans(),
)
def test_suboptimal_cycle_cost_is_a_kl_divergence(seed, dense, dead_input, dead_weight):
    """Work / kT is the divergence of P(in, out) from P(out) times the weights' posterior."""
    rng = np.random.default_rng(seed)
    n_in, n_out = (int(v) for v in rng.integers(1, 6, 2))
    op = (random_operation if dense else _sparse_operation)(rng, n_in, n_out)
    p_in = _with_dead_last(rng, n_in, dead_input)
    w = _with_dead_last(rng, n_in, dead_input and dead_weight)  # zero weight only where P is zero
    t_ref = float(rng.uniform(0.5, 2.0))
    report = suboptimal_cycle_cost(op, w, DiscreteDistribution(p_in), t_ref)

    m = op.matrix
    p_out, w_out = p_in @ m, w @ m
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where P(in, out) is zero
        posterior = w[:, None] * m / w_out
    want = _kl(p_in[:, None] * m, posterior * p_out)
    assert report.work / t_ref == pytest.approx(want, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dense=st.booleans(),
    sparse_prior=st.booleans(),
    dead_input=st.booleans(),
)
def test_conditional_mutual_information_is_a_kl_divergence(seed, dense, sparse_prior, dead_input):
    """I(in; bystander | out) is the divergence of P(i, j, g) from P(i, j) P(j, g) / P(j)."""
    rng = np.random.default_rng(seed)
    n_in, n_out, n_g = (int(v) for v in rng.integers(1, 5, 3))
    op = (random_operation if dense else _sparse_operation)(rng, n_in, n_out)
    joint = rng.dirichlet(np.ones(n_in * n_g)).reshape(n_in, n_g)
    if sparse_prior:
        joint *= rng.random(joint.shape) > 0.4
    if dead_input and n_in > 1:
        joint[-1] = 0.0
    if joint.sum() == 0.0:
        joint[0, 0] = 1.0
    joint /= joint.sum()
    report = partial_operation_cost(joint, op, random_thermo(rng, n_in), random_thermo(rng, n_out))

    m = op.matrix
    p_in = joint.sum(axis=1)
    p_out = p_in @ m
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where P(i, j, g) is zero
        conditional = (p_in[:, None] * m)[:, :, None] * (m.T @ joint)[None] / p_out[None, :, None]
    want = _kl(joint[:, None, :] * m[:, :, None], conditional)
    assert report.conditional_mutual_information_nats == pytest.approx(want, abs=1e-12)


# --- One array set per thermo table, one pricing per designed middle leg ----


def _reference_evaluate_cycle(cycle, middle_input=None):
    """``evaluate_cycle`` as first written: each leg priced with its own ``make_weights`` vector."""
    mid = cycle if middle_input is None else replace(
        cycle, input_dist=DiscreteDistribution(middle_input)
    )
    op = cycle.op
    standard = ("standard",)
    t_ref = cycle.reference_temperature
    standard_state = (StateThermo(0.5 * cycle.units.k_B * t_ref, 0.0, t_ref),)
    opener = replace(
        cycle,
        input_dist=DiscreteDistribution([1.0]),
        op=LogicalOperation(
            mid.input_dist.probs[None, :], input_labels=standard, output_labels=op.input_labels
        ),
        input_thermo=standard_state,
        output_thermo=cycle.input_thermo,
    )
    out_dist = mid.output_dist
    closer = replace(
        cycle,
        input_dist=out_dist,
        op=LogicalOperation(
            np.ones((op.n_outputs, 1)), input_labels=op.output_labels, output_labels=standard
        ),
        input_thermo=cycle.output_thermo,
        output_thermo=standard_state,
    )
    legs = (
        expected_cost(opener, make_weights(opener, [1.0])),
        expected_cost(mid, make_weights(mid, cycle.input_dist.probs)),
        expected_cost(closer, make_weights(closer, out_dist.probs)),
    )
    if any(is_infinite(c.expected_work) for c in legs):
        total_work = total_heat = INFINITE_COST
    else:
        total_work = math.fsum(c.expected_work for c in legs)
        total_heat = math.fsum(c.expected_heat for c in legs)
    return CycleEvaluation(leg_costs=legs, total_work=total_work, total_heat=total_heat)


def test_an_accounting_sequence_tabulates_each_table_once_and_prices_the_design_once(
    monkeypatch,
):
    """Scenario, reverse, matched and mismatched cycle, uncertain and partial
    operations: the scenario's two tables are the only tables tabulated,
    each once, and the designed middle leg is priced once for both
    evaluations.  The cycle built at w = P from the scenario's own parts
    is the scenario, so its middle leg is the scenario's report.  The
    outer legs are priced from the cycle's arrays, not as scenarios, by
    the transition kernel that prices every scenario."""
    rng = np.random.default_rng(36)
    sc = random_scenario(rng, max_states=5)
    n_in = sc.op.n_inputs
    tabulated, priced, kernel = [], [], []
    tabulate, price = thermo._tabulate, costs._price
    columns = costs._transition_columns

    def counted_tabulate(table, kt):
        tabulated.append((table, kt))
        return tabulate(table, kt)

    def counted_price(scenario, weights):
        priced.append((scenario, weights))
        return price(scenario, weights)

    def counted_columns(*args):
        kernel.append(args)
        return columns(*args)

    monkeypatch.setattr(thermo, "_tabulate", counted_tabulate)
    monkeypatch.setattr(costs, "_price", counted_price)
    for module in (costs, cycles):
        monkeypatch.setattr(module, "_transition_columns", counted_columns)
    w = optimal_weights(sc)
    expected_cost(sc, w)
    reverse = reverse_operation(sc)
    assert reverse.pruned_inputs == reverse.pruned_outputs == ()
    cycle = build_reversible_cycle(
        sc.op, w.weights, sc.input_thermo, sc.output_thermo, sc.reference_temperature
    )
    matched = evaluate_cycle(cycle)
    mismatched = evaluate_cycle(cycle, middle_input=random_distribution(rng, n_in).probs)
    tables = (sc.input_thermo, sc.output_thermo, sc.reference_temperature)
    other = random_operation(rng, n_in, sc.op.n_outputs)
    uncertain_operation_cost([(sc.op, 0.4), (other, 0.6)], sc.input_dist, *tables)
    partial_operation_cost(sc.input_dist.probs[:, None] * [0.3, 0.7], sc.op, *tables)

    assert [(id(table), kt) for table, kt in tabulated] == [
        (id(sc.input_thermo), sc.kT),
        (id(sc.output_thermo), sc.kT),
    ]

    design = optimal_weights(cycle)
    assert cycle is sc and design is w
    assert [pair for pair in priced if pair[0] is cycle] == [(cycle, design)]
    assert len(priced) == 2  # sc, which is also the designed middle leg, and the reverse leg
    assert len(kernel) == 6  # those two, and the two outer legs of each evaluation
    designed, shifted = matched.leg_costs[1], mismatched.leg_costs[1]
    assert designed is expected_cost(cycle, design)
    for name in ("inputs", "outputs", "work", "heat", "finite"):
        assert getattr(shifted.columns, name) is getattr(designed.columns, name)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(STRUCTURES),
    dead_input=st.booleans(),
    zero_design=st.booleans(),
)
def test_shared_tables_and_legs_match_the_per_leg_reference(
    seed, structure, dead_input, zero_design
):
    """Every field of both cycle evaluations, and the reverse, uncertain and
    partial reports on shared tables, equal in ``float.hex`` what the
    per-leg reference and fresh tables give.

    ``zero_design`` puts a design weight of zero under a live middle input,
    so the mismatched middle leg is ``INF``; ``dead_input`` gives input 0
    probability zero in the scenario and in the middle statistics.
    """
    sc = structured_scenario(seed, structure, dead_input)
    rng = np.random.default_rng(seed)
    n_in, n_out = sc.op.n_inputs, sc.op.n_outputs
    design = rng.dirichlet(np.ones(n_in))
    if zero_design:
        design[-1] = 0.0
    middle = random_distribution(rng, n_in).probs.copy()
    if dead_input:
        middle[0] = 0.0
    design, middle = design / design.sum(), middle / middle.sum()
    expected_cost(sc, optimal_weights(sc))  # the tables' arrays exist before the cycle runs
    cycle = build_reversible_cycle(
        sc.op, design, sc.input_thermo, sc.output_thermo, sc.reference_temperature
    )
    got = (evaluate_cycle(cycle), evaluate_cycle(cycle, middle))
    want = (
        _reference_evaluate_cycle(copy_scenario(cycle)),
        _reference_evaluate_cycle(copy_scenario(cycle), middle),
    )
    assert bits(got) == bits(want)
    assert is_infinite(got[1].total_work) == zero_design

    assert bits(reverse_operation(sc)) == bits(reverse_operation(copy_scenario(sc)))
    other = random_operation(rng, n_in, n_out)
    branches = [(sc.op, 0.25), (other, 0.75)]
    joint = sc.input_dist.probs[:, None] * rng.dirichlet(np.ones(3), size=n_in)
    fresh = copy_scenario(sc)
    for t_ref in (sc.reference_temperature, 2.0 * sc.reference_temperature):
        shared = (sc.input_thermo, sc.output_thermo, t_ref)
        cold = (tuple(fresh.input_thermo), tuple(fresh.output_thermo), t_ref)
        assert bits(uncertain_operation_cost(branches, sc.input_dist, *shared)) == bits(
            uncertain_operation_cost(branches, sc.input_dist, *cold)
        )
        assert bits(partial_operation_cost(joint, sc.op, *shared)) == bits(
            partial_operation_cost(joint, sc.op, *cold)
        )


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(STRUCTURES),
    units=st.sampled_from((UnitSystem(k_B=0.7), SI_UNITS)),
    dead_input=st.booleans(),
    dead=st.sampled_from((0.0, -0.0, -0.5 * PROB_ATOL)),
    zero_design=st.booleans(),
    edge=st.sampled_from((0, -1, 1)),
    ulps=st.integers(-64, 64),
)
def test_outer_legs_match_the_per_leg_reference_in_any_units(
    seed, structure, units, dead_input, dead, zero_design, edge, ulps
):
    """Both cycle evaluations equal the per-leg reference in ``float.hex``
    in any units, and reject exactly the middle statistics it rejects.  Where
    a negative middle entry is clipped, the reference names its opener's row
    and this its output statistics, so only the rejection is compared.

    ``edge`` scales the middle statistics so that their sum sits
    ``ulps`` units in the last place from ``1 - PROB_ATOL`` (-1) or
    ``1 + PROB_ATOL`` (1), where a check that sums them in another order
    can decide otherwise.  With ``dead_input``, input 0 has probability
    zero in the scenario, and in the middle statistics it is ``dead``: a
    zero of either sign, or a negative entry that the distribution clips.
    """
    sc = replace(structured_scenario(seed, structure, dead_input), units=units)
    rng = np.random.default_rng(seed)
    n_in = sc.op.n_inputs
    design = rng.dirichlet(np.ones(n_in))
    if zero_design:
        design[-1] = 0.0
    middle = random_distribution(rng, n_in).probs.copy()
    if dead_input:
        middle[0] = 0.0
    design, middle = design / design.sum(), middle / middle.sum()
    if dead_input:
        middle[0] = dead
    if edge:
        middle *= 1.0 + edge * (PROB_ATOL + ulps * 2.0**-52)
    cycle = build_reversible_cycle(
        sc.op, design, sc.input_thermo, sc.output_thermo, sc.reference_temperature, units
    )
    got = outcome(lambda: (evaluate_cycle(cycle), evaluate_cycle(cycle, middle)))
    want = outcome(
        lambda: (
            _reference_evaluate_cycle(copy_scenario(cycle)),
            _reference_evaluate_cycle(copy_scenario(cycle), middle),
        )
    )
    rejected = isinstance(want[0], type)
    assert isinstance(got[0], type) == rejected, (got, want)
    if rejected:
        assert issubclass(got[0], logic.LogicError) and issubclass(want[0], logic.LogicError)
    else:
        assert bits(got) == bits(want)
        assert is_infinite(got[1].total_work) == zero_design


def test_a_standard_state_energy_that_overflows_is_rejected_as_by_the_reference():
    """k_B T_R / 2 must be finite: the standard state is still checked as a state.

    With zero-entropy tables and a permutation, whose log ratios are all
    zero, the middle leg is priced (as NaN) before that check.
    """
    sc = structured_scenario(7, "permutation", False)
    n_in, n_out = sc.op.n_inputs, sc.op.n_outputs
    cycle = build_reversible_cycle(
        sc.op, sc.input_dist.probs, flat_thermo(n_in), flat_thermo(n_out), 1e10, UnitSystem(1e300)
    )
    with np.errstate(all="ignore"):  # k_B T_R overflows, and the tables' free energies are NaN
        want = outcome(lambda: _reference_evaluate_cycle(cycle))
        assert want[0] is thermo.ThermoError
        assert outcome(lambda: evaluate_cycle(cycle)) == want


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(STRUCTURES),
    units=st.sampled_from((UnitSystem(), SI_UNITS)),
    dead_input=st.booleans(),
    ulp=st.sampled_from((0, -1, 1)),
)
def test_a_reused_cycle_evaluates_as_a_cycle_built_from_plain_tables(
    seed, structure, units, dead_input, ulp
):
    """The cycle built at a priced scenario's own statistics from its own parts
    is that scenario, and both evaluations equal in ``float.hex`` those of a
    cycle built from plain-tuple tables, which is never reused.  Weights one
    unit in the last place off the statistics build a new scenario.

    ``dead_input`` gives input 0 probability zero in the scenario and in the
    middle statistics; ``units`` equal to the scenario's need not be the same
    object.
    """
    sc = replace(structured_scenario(seed, structure, dead_input), units=units)
    rng = np.random.default_rng(seed)
    n_in = sc.op.n_inputs
    middle = random_distribution(rng, n_in).probs.copy()
    if dead_input:
        middle[0] = 0.0
    middle /= middle.sum()
    expected_cost(sc, optimal_weights(sc))
    weights = optimal_weights(sc).weights.copy()
    if ulp:
        i = int(weights.argmax())
        weights[i] = np.nextafter(weights[i], ulp * math.inf)
    parts = (sc.reference_temperature, replace(units))
    cycle = build_reversible_cycle(sc.op, weights, sc.input_thermo, sc.output_thermo, *parts)
    plain = build_reversible_cycle(
        sc.op, weights, tuple(sc.input_thermo), tuple(sc.output_thermo), *parts
    )
    assert (cycle is sc) == (ulp == 0)
    assert plain is not sc and plain is not cycle
    assert cycle.input_dist.probs.tobytes() == plain.input_dist.probs.tobytes()
    got = (evaluate_cycle(cycle), evaluate_cycle(cycle, middle))
    want = (evaluate_cycle(plain), evaluate_cycle(plain, middle))
    assert bits(got) == bits(want)
    if ulp == 0:
        assert got[0].leg_costs[1] is expected_cost(sc, optimal_weights(sc))


def test_only_a_scenario_with_the_same_parts_and_optimal_weights_is_reused():
    rng = np.random.default_rng(37)
    sc = random_scenario(rng)
    parts = (sc.op, sc.input_dist.probs, sc.input_thermo, sc.output_thermo)
    t_ref = sc.reference_temperature
    # Before its optimal weights are made, the scenario is not recorded.
    assert build_reversible_cycle(*parts, t_ref) is not sc
    optimal_weights(sc)
    assert build_reversible_cycle(*parts, t_ref) is sc
    assert build_reversible_cycle(*parts, t_ref, UnitSystem()) is sc
    op, probs, input_thermo, output_thermo = parts
    for other in (
        (random_operation(rng, op.n_inputs, op.n_outputs), probs, input_thermo, output_thermo, t_ref),
        (op, probs.tolist()[::-1], input_thermo, output_thermo, t_ref),
        (op, probs, tuple(input_thermo), output_thermo, t_ref),
        (op, probs, input_thermo, tuple(output_thermo), t_ref),
        (op, probs, input_thermo, output_thermo, 2.0 * t_ref),
        (*parts, t_ref, UnitSystem(k_B=0.7)),
    ):
        built = build_reversible_cycle(*other)
        assert built is not sc and isinstance(built, Scenario)
    # Invalid weights are still rejected first.
    with pytest.raises(CostError):
        build_reversible_cycle(op, probs[:-1], input_thermo, output_thermo, t_ref)
