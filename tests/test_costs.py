import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    permutation_operation,
    random_distribution,
    random_operation,
    random_scenario,
    random_thermo,
)
from thermologic.costs import (
    CostError,
    INFINITE_COST,
    TransitionImpossibleError,
    expected_cost,
    glp_bounds,
    is_infinite,
    make_weights,
    minimax_weights,
    minimize_expected_work,
    optimal_weights,
    transition_cost,
)
from thermologic.cycles import (
    LEDGER_TOL,
    entropy_ledgers,
    partial_operation_cost,
    uncertain_operation_cost,
)
from thermologic.logic import DiscreteDistribution, LogicalOperation, identity_op, rtz, ufz
from thermologic.thermo import ModelSkeleton, Scenario, make_model, validate

LN2 = math.log(2.0)


def uniform_scenario(op, probs, t_ref=1.0):
    return make_model(
        "uniform",
        ModelSkeleton(
            input_dist=DiscreteDistribution(probs),
            op=op,
            reference_temperature=t_ref,
            energy_offset=0.0,
            entropy_offset=0.0,
        ),
    )


class TestTransitionCost:
    def test_uniform_reversible_deterministic_is_free(self):
        sc = uniform_scenario(permutation_operation((1, 0)), [0.3, 0.7])
        w = optimal_weights(sc)
        for i, j in ((0, 1), (1, 0)):
            work, heat = transition_cost(sc, w, i, j)
            assert work == pytest.approx(0.0, abs=1e-15)
            assert heat == pytest.approx(0.0, abs=1e-15)

    def test_reset_with_even_weights_costs_ln2(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        w = make_weights(sc, [0.5, 0.5])
        work, heat = transition_cost(sc, w, 0, 0)
        assert work == pytest.approx(LN2, abs=1e-15)
        assert heat == pytest.approx(LN2, abs=1e-15)

    def test_reversible_indeterministic_extracts_work(self):
        # one input splits four ways; each branch pays k T ln(1/4) < 0
        op = LogicalOperation([[0.25, 0.25, 0.25, 0.25]])
        sc = uniform_scenario(op, [1.0])
        w = optimal_weights(sc)
        work, _ = transition_cost(sc, w, 0, 2)
        assert work == pytest.approx(math.log(0.25), abs=1e-15)

    def test_zero_weight_is_infinite(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        w = make_weights(sc, [1.0, 0.0])
        work, heat = transition_cost(sc, w, 1, 0)
        assert is_infinite(work) and is_infinite(heat)
        assert repr(work) == "INF"

    def test_impossible_transition_is_an_error(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        with pytest.raises(TransitionImpossibleError):
            transition_cost(sc, optimal_weights(sc), 0, 1)


class TestExpectedCost:
    def test_reset_costs_ln2(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        report = expected_cost(sc, optimal_weights(sc))
        assert report.expected_work == pytest.approx(LN2, abs=1e-12)
        assert report.expected_heat == pytest.approx(LN2, abs=1e-12)
        assert report.shannon_change_bits == pytest.approx(-1.0, abs=1e-12)

    def test_unset_extracts_ln2(self):
        sc = uniform_scenario(ufz(0.5), [1.0])
        report = expected_cost(sc, optimal_weights(sc))
        assert report.expected_work == pytest.approx(-LN2, abs=1e-12)

    def test_identity_with_matched_tables_is_free(self):
        rng = np.random.default_rng(0)
        thermo = random_thermo(rng, 3)
        sc = Scenario(
            input_dist=random_distribution(rng, 3),
            op=identity_op(3),
            input_thermo=thermo,
            output_thermo=thermo,
            reference_temperature=1.4,
        )
        report = expected_cost(sc, optimal_weights(sc))
        assert report.expected_work == pytest.approx(0.0, abs=1e-12)
        assert report.expected_heat == pytest.approx(0.0, abs=1e-12)

    def test_energy_conservation_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sc = random_scenario(rng)
            report = expected_cost(sc, optimal_weights(sc))
            assert report.expected_work - report.mean_energy_change == pytest.approx(
                report.expected_heat, abs=1e-12
            )

    def test_zero_weight_on_live_input_flags_infinity(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        report = expected_cost(sc, make_weights(sc, [1.0, 0.0]))
        assert is_infinite(report.expected_work)
        assert is_infinite(report.expected_heat)


class TestOptimalWeights:
    def test_weights_equal_input_probabilities(self):
        sc = uniform_scenario(rtz(), [0.3, 0.7])
        w = optimal_weights(sc)
        assert np.allclose(w.weights, [0.3, 0.7])
        assert np.allclose(w.output_weights, [1.0, 0.0])

    def test_reversible_operations_report_weight_independence(self):
        sc = uniform_scenario(permutation_operation((1, 0)), [0.3, 0.7])
        assert optimal_weights(sc).weight_independent

    def test_irreversible_operations_do_not(self):
        sc = uniform_scenario(rtz(), [0.3, 0.7])
        assert not optimal_weights(sc).weight_independent

    def test_weight_validation(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        with pytest.raises(CostError):
            make_weights(sc, [0.5, 0.6])
        with pytest.raises(CostError):
            make_weights(sc, [1.5, -0.5])


class TestGibbsInequality:
    def test_random_weights_never_beat_optimum(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            sc = random_scenario(rng)
            best = expected_cost(sc, optimal_weights(sc)).expected_work
            for _ in range(10):
                w = make_weights(sc, rng.dirichlet(np.ones(sc.op.n_inputs)))
                value = expected_cost(sc, w).expected_work
                assert value >= best - 1e-12

    def test_reversible_cost_is_weight_independent(self):
        rng = np.random.default_rng(3)
        op = permutation_operation((2, 0, 3, 1))
        sc = Scenario(
            input_dist=random_distribution(rng, 4),
            op=op,
            input_thermo=random_thermo(rng, 4),
            output_thermo=random_thermo(rng, 4),
            reference_temperature=0.9,
        )
        values = []
        for _ in range(10):
            w = make_weights(sc, rng.dirichlet(np.ones(4)))
            values.append(expected_cost(sc, w).expected_work)
        assert max(values) - min(values) < 1e-12


class TestGlpBounds:
    def test_uniform_reset_bounds(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        b = glp_bounds(sc)
        assert b.work_bound == pytest.approx(LN2, abs=1e-12)
        assert b.heat_bound == pytest.approx(LN2, abs=1e-12)
        assert b.nibdf_bound == pytest.approx(LN2, abs=1e-12)
        assert b.entropy_change == pytest.approx(
            b.state_entropy_change + b.shannon_change_bits * LN2, abs=1e-12
        )

    def test_equilibrium_work_bound_is_zero(self):
        rng = np.random.default_rng(4)
        op = random_operation(rng, 3, 3)
        sc = make_model(
            "equilibrium",
            ModelSkeleton(
                input_dist=DiscreteDistribution([0.2, 0.3, 0.5]),
                op=op,
                reference_temperature=1.0,
            ),
        )
        assert glp_bounds(sc).work_bound == pytest.approx(0.0, abs=1e-12)

    def test_adiabatic_heat_bound_is_zero_but_work_remains(self):
        rng = np.random.default_rng(5)
        op = random_operation(rng, 3, 3)
        sc = make_model(
            "adiabatic",
            ModelSkeleton(
                input_dist=DiscreteDistribution([0.2, 0.3, 0.5]),
                op=op,
                reference_temperature=1.0,
                input_temperatures=(0.8, 1.0, 1.2),
            ),
        )
        b = glp_bounds(sc)
        assert b.heat_bound == pytest.approx(0.0, abs=1e-12)
        report = expected_cost(sc, optimal_weights(sc))
        assert report.expected_work == pytest.approx(report.mean_energy_change, abs=1e-12)

    def test_achieved_optimum_equals_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            sc = random_scenario(rng)
            report = expected_cost(sc, optimal_weights(sc))
            assert report.expected_work == pytest.approx(report.work_bound, abs=1e-9)
            assert report.expected_heat == pytest.approx(report.heat_bound, abs=1e-9)


class TestNumericOptimizer:
    def test_matches_analytic_on_random_irreversible_op(self):
        rng = np.random.default_rng(7)
        op = random_operation(rng, 3, 2)
        sc = Scenario(
            input_dist=random_distribution(rng, 3),
            op=op,
            input_thermo=random_thermo(rng, 3),
            output_thermo=random_thermo(rng, 2),
            reference_temperature=1.0,
        )
        result = minimize_expected_work(sc, seed=11)
        assert np.max(np.abs(result.weights - sc.input_dist.probs)) < 1e-5
        analytic = expected_cost(sc, optimal_weights(sc)).expected_work
        assert result.value == pytest.approx(analytic, abs=1e-8)

    def test_converged_reports_the_best_start(self):
        # The uniform start hits the iteration cap while a random restart
        # converges; the uniform start's weights are the best found.
        sc = random_scenario(np.random.default_rng(0), max_states=6)
        result = minimize_expected_work(sc, seed=0, max_iterations=40)
        assert result.iterations == 40
        assert not result.converged
        assert not minimize_expected_work(sc, seed=0, max_iterations=40, restarts=0).converged

    def test_minimax_never_exceeds_mean_optimal_worst_case(self):
        def worst_at_mean(sc):
            return max(
                tr.work
                for tr in expected_cost(sc, optimal_weights(sc)).transitions
                if tr.joint_probability > 0.0 and not is_infinite(tr.work)
            )

        rng = np.random.default_rng(8)
        for _ in range(10):
            sc = random_scenario(rng, max_states=4)
            result = minimax_weights(sc, seed=9, max_iterations=4000)
            assert result.value <= worst_at_mean(sc) + 1e-9
        # Scenarios on which the descent never improves on its uniform start.
        for k in (84, 145, 164):
            sc = random_scenario(np.random.default_rng(k), max_states=8)
            result = minimax_weights(sc, seed=k, max_iterations=100)
            assert result.value <= worst_at_mean(sc) + 1e-9


def _priced_scenario(seed: int, structure: str, dead_input: bool) -> Scenario:
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(3, 7))  # a zero weight on input 0 and on the last leaves one
    n_out = n_in if structure in ("dense", "permutation") else int(rng.integers(1, 7))
    if structure == "permutation":
        op = permutation_operation(tuple(rng.permutation(n_in).tolist()))
    elif structure == "reset":
        op = LogicalOperation(np.eye(n_out)[np.zeros(n_in, dtype=int)])
    else:
        rows = rng.dirichlet(np.ones(n_out), size=n_in)
        if structure == "sparse":
            rows[rng.random(rows.shape) < 0.5] = 0.0
            rows[np.arange(n_in), rng.integers(0, n_out, n_in)] += 0.5
        op = LogicalOperation(rows / rows.sum(axis=1, keepdims=True))
    probs = random_distribution(rng, n_in).probs.copy()
    if dead_input:
        probs[0] = 0.0
    return Scenario(
        input_dist=DiscreteDistribution(probs / probs.sum()),
        op=op,
        input_thermo=random_thermo(rng, n_in),
        output_thermo=random_thermo(rng, n_out),
        reference_temperature=float(rng.uniform(0.5, 2.0)),
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(["dense", "sparse", "permutation", "reset"]),
    dead_input=st.booleans(),
    zero_live_weight=st.booleans(),
)
def test_shared_pricing_is_exact(seed, structure, dead_input, zero_live_weight):
    """Reports, single transitions and entropy ledgers agree bit for bit.

    Each row is also recomputed here with scalar floats in the order of
    the closed form in the module docstring, and compared with ``==``.
    """
    sc = _priced_scenario(seed, structure, dead_input)
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(sc.op.n_inputs))
    if dead_input:
        raw[0] = 0.0
    if zero_live_weight:
        raw[-1] = 0.0
    w = make_weights(sc, raw / raw.sum())
    report = expected_cost(sc, w)

    rows, cols = np.nonzero(sc.op.matrix)
    assert [(tr.input_index, tr.output_index) for tr in report.transitions] == list(
        zip(rows.tolist(), cols.tolist())
    )
    k, t_ref = sc.units.k_B, sc.reference_temperature
    for tr in report.transitions:
        i, j = tr.input_index, tr.output_index
        assert (tr.work, tr.heat) == transition_cost(sc, w, i, j)
        assert tr.joint_probability == sc.input_dist.probs[i] * sc.op.matrix[i, j]
        if w.weights[i] == 0.0:
            assert tr.work is INFINITE_COST and tr.heat is INFINITE_COST
            continue
        st_in, st_out = sc.input_thermo[i], sc.output_thermo[j]
        log_ratio = math.log(w.output_weights[j] / w.weights[i])
        work = (
            (st_out.energy - t_ref * k * st_out.entropy)
            - (st_in.energy - t_ref * k * st_in.entropy)
            + k * t_ref * log_ratio
        )
        assert tr.work == work
        assert tr.heat == t_ref * k * (st_in.entropy - st_out.entropy + log_ratio)

    if w.flagged_infinite:
        assert is_infinite(report.expected_work)
        with pytest.raises(CostError):
            entropy_ledgers(sc, w)
        return
    ledger = entropy_ledgers(sc, w)
    kt = k * t_ref
    expected = [
        (
            tr.input_index,
            tr.output_index,
            sc.output_thermo[tr.output_index].entropy
            - sc.input_thermo[tr.input_index].entropy
            + tr.heat / kt,
        )
        for tr in report.transitions
        if sc.input_dist.probs[tr.input_index] != 0.0
    ]
    assert [(e.input_index, e.output_index, e.value) for e in ledger.individual] == expected


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zero_weight=st.booleans())
def test_row_views_match_the_scalar_path(seed, zero_weight):
    """The rows built on first access agree with the scalar path and with the columns.

    A zero weight on a live input gives ``INF`` rows and no entropy ledger.
    """
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, max_states=6)
    raw = rng.dirichlet(np.ones(sc.op.n_inputs))
    if zero_weight:
        raw[rng.integers(sc.op.n_inputs)] = 0.0
    w = make_weights(sc, raw / raw.sum())
    report = expected_cost(sc, w)
    assert all(not column.flags.writeable for column in report.columns)
    assert report.transitions is report.transitions
    p, m = sc.input_dist.probs, sc.op.matrix
    for tr in report.transitions:
        i, j = tr.input_index, tr.output_index
        assert (tr.work, tr.heat) == transition_cost(sc, w, i, j)
        assert tr.joint_probability == p[i] * m[i, j]
    if w.flagged_infinite:
        return
    ledger = entropy_ledgers(sc, w)
    columns = ledger.columns
    assert all(not column.flags.writeable for column in columns)
    assert [(e.input_index, e.output_index, e.value) for e in ledger.individual] == list(
        zip(columns.inputs.tolist(), columns.outputs.tolist(), columns.value.tolist())
    )
    for entry, conditional in zip(ledger.individual, columns.conditional.tolist()):
        assert conditional == m[entry.input_index, entry.output_index]
        assert entry.lower_bound == math.log(conditional)
        assert entry.attains_bound == (abs(entry.value - entry.lower_bound) <= LEDGER_TOL)
    values = columns.value.tolist()
    assert ledger.individual_flags_irreversible == any(v > LEDGER_TOL for v in values)
    assert ledger.individual_decreases == any(v < -LEDGER_TOL for v in values)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mixture_free_energy_routes_agree(seed):
    """Every route to the minimal mean work gives the same number.

    The optimal expected cost, the bound's ``<dE> - T_R dS``, a one-branch
    uncertain operation, a partial operation with a one-state bystander
    and the ``zero_mean_work`` residual of :func:`validate` each reach
    the mixture free-energy difference through their own code path.
    """
    sc = random_scenario(np.random.default_rng(seed), max_states=6)
    thermo = (sc.input_thermo, sc.output_thermo, sc.reference_temperature)
    bound = glp_bounds(sc).work_bound
    works = [
        expected_cost(sc, optimal_weights(sc)).expected_work,
        uncertain_operation_cost([(sc.op, 1.0)], sc.input_dist, *thermo).branch_works[0],
        partial_operation_cost(sc.input_dist.probs[:, None], sc.op, *thermo).forward_work,
    ]
    tol = 1e-9 * (1.0 + max(abs(v) for v in works + [bound]))
    for work in works:
        assert abs(work - bound) <= tol
    residual = sc.kT * validate(sc)["zero_mean_work"].residual
    assert abs(residual - abs(bound)) <= tol


def test_infinite_sentinel_is_singleton_and_serialisable():
    from thermologic.serialize import render_energy

    assert INFINITE_COST is type(INFINITE_COST)()
    assert render_energy(INFINITE_COST, 2.0) == "INF"
    assert render_energy(1.0, 2.0) == "0.5"
