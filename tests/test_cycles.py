import math

import numpy as np
import pytest

from helpers import (
    permutation_operation,
    random_distribution,
    random_operation,
    random_thermo,
)
from thermologic.costs import CostError, is_infinite, make_weights, optimal_weights
from thermologic.cycles import (
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
    DiscreteDistribution,
    LogicalOperation,
    identity_op,
    rtz,
    ufz,
)
from thermologic.thermo import ModelSkeleton, Scenario, StateThermo, make_model

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
        works = [s.work for s in report.stages]
        assert works[0] == pytest.approx(-LN2, abs=1e-15)
        assert works[1] == 0.0
        assert works[2] == pytest.approx(
            p * math.log(p) + (1 - p) * math.log(1 - p) + LN2, abs=1e-12
        )
        assert works[5] == pytest.approx(LN2, abs=1e-15)
        # randomise-then-reset halves extract and repay the same amount
        assert math.fsum(works[:3]) == pytest.approx(
            p * math.log(p) + (1 - p) * math.log(1 - p), abs=1e-12
        )

    def test_mismatched_reset_costs_kl(self):
        report = rle_le_cycle(0.5, 0.25)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert expected == pytest.approx(0.143841, abs=1e-6)
        assert report.net_work == pytest.approx(expected, abs=1e-12)
        assert not report.reversible

    def test_adiabatic_equilibrium_matched_is_stage_free(self):
        report = rle_le_cycle(0.3, 0.3, model="adiabatic_equilibrium")
        for stage in report.stages:
            assert stage.work == 0.0
            assert stage.heat == 0.0

    def test_adiabatic_equilibrium_mismatch_same_kl(self):
        uniform = rle_le_cycle(0.7, 0.2)
        adiabatic = rle_le_cycle(0.7, 0.2, model="adiabatic_equilibrium")
        assert adiabatic.net_work == pytest.approx(uniform.net_work, abs=1e-12)

    def test_entropy_books_balance(self):
        report = rle_le_cycle(0.6, 0.35)
        totals = report.entropy_totals
        # the system returns to its start, so the whole KL production
        # ends up in the bath
        assert totals["gibbs"] == pytest.approx(0.0, abs=1e-12)
        assert totals["bath"] == pytest.approx(report.kl_nats, abs=1e-12)

    def test_removal_carries_the_uncompensated_entropy(self):
        report = rle_le_cycle(0.6, 0.35)
        removal = next(s for s in report.stages if s.kind == "merge")
        gibbs_jump = removal.mean_state_entropy_change + removal.mixing_entropy_change
        assert gibbs_jump == pytest.approx(report.kl_nats, abs=1e-12)

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
