import dataclasses
import gc
import hashlib
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    STRUCTURES,
    assert_same_outcome,
    bits,
    copy_scenario,
    edge_probability_arrays,
    outcome,
    permutation_operation,
    random_distribution,
    random_operation,
    random_scenario,
    random_thermo,
    structured_scenario,
)
from thermologic import costs
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
    evaluate_cycle,
    partial_operation_cost,
    reverse_operation,
    uncertain_operation_cost,
)
from thermologic.logic import (
    ArityMismatchError,
    DiscreteDistribution,
    LogicalOperation,
    identity_op,
    rtz,
    ufz,
)
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

    def test_make_weights_leaves_the_callers_array_writable(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        w = np.array([0.3, 0.7])
        vector = make_weights(sc, w)
        w[0] = 0.4
        assert vector.weights.tolist() == [0.3, 0.7]
        assert not vector.weights.flags.writeable
        assert optimal_weights(sc).weights is not sc.input_dist.probs


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


_BOUND_FIELDS = (
    "mean_energy_change",
    "entropy_change",
    "state_entropy_change",
    "shannon_change_bits",
    "work_bound",
    "heat_bound",
    "bath_entropy_bound",
    "nibdf_bound",
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(STRUCTURES),
    dead_input=st.booleans(),
)
def test_glp_bounds_is_the_optimal_report_and_attains_its_bounds(seed, structure, dead_input):
    """The bounds are those of the one report at ``w = P``, whose expected
    work and heat attain them."""
    sc = structured_scenario(seed, structure, dead_input)
    report = glp_bounds(sc)
    assert report is expected_cost(sc, optimal_weights(sc))
    assert bits(tuple(getattr(report, name) for name in _BOUND_FIELDS)) == bits(sc.bound_terms)
    joint = report.columns.joint
    for value, bound, cost in (
        (report.expected_work, report.work_bound, report.columns.work),
        (report.expected_heat, report.heat_bound, report.columns.heat),
    ):
        scale = math.fsum((joint * np.abs(cost)).tolist()) + abs(bound)
        assert abs(value - bound) <= 1e-12 * (1.0 + scale)


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
        rng = np.random.default_rng(8)
        for _ in range(10):
            sc = random_scenario(rng, max_states=4)
            result = minimax_weights(sc, seed=9, max_iterations=4000)
            assert result.value <= _worst_work(sc, optimal_weights(sc)) + 1e-9
        # Scenarios on which the descent never improves on its uniform start.
        for k in (84, 145, 164):
            sc = random_scenario(np.random.default_rng(k), max_states=8)
            result = minimax_weights(sc, seed=k, max_iterations=100)
            assert result.value <= _worst_work(sc, optimal_weights(sc)) + 1e-9

    @pytest.mark.parametrize(
        "poison",
        [{}, {(1, 1): math.nan, (0, 7): math.inf, (2, 30): math.nan}],
        ids=["plain", "poisoned"],
    )
    def test_minimax_matches_its_sequential_form(self, monkeypatch, poison):
        # ``poison`` maps (start, iteration) to a value that the update's
        # exponential returns there; that start's total is then not finite,
        # and it begins again from uniform weights without a RuntimeWarning.
        calls = []

        def exp(x):  # the update's exponential, one call per iteration for the stack of starts
            calls.append(None)
            out = real_exp(x)
            for (r, iteration), value in poison.items():
                if iteration == len(calls):
                    out[r, 0] = value
            return out

        real_exp = np.exp
        for k in (0, 84, 145, 164):
            sc = random_scenario(np.random.default_rng(k), max_states=8)
            want = _sequential_minimax(sc, k, 40, poison)
            calls.clear()
            monkeypatch.setattr(np, "exp", exp)
            got = minimax_weights(sc, seed=k, max_iterations=40)
            monkeypatch.undo()
            assert (got.value.hex(), got.weights.tobytes()) == (want[0].hex(), want[1].tobytes())


def _sequential_minimax(sc, seed, max_iterations, poison):
    """``minimax_weights`` as first written: its three starts one after another."""
    p_in, matrix, k_t = sc.input_dist.probs, sc.op.matrix, sc.kT
    rows, cols = np.nonzero(p_in[:, None] * matrix > 0.0)
    const = sc.output_arrays.free_energy[cols] - sc.input_arrays.free_energy[rows]

    def worst(w):
        ratios = (w @ matrix)[cols] / w[rows]
        values = const + k_t * np.array([math.log(v) for v in ratios.tolist()])
        idx = int(np.argmax(values))
        return float(values[idx]), idx

    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    starts = [np.full(n, 1.0 / n), rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))]
    best_w = p_in.copy()
    best_value, _ = worst(best_w)
    for r, w in enumerate(starts):
        for iteration in range(1, max_iterations + 1):
            value, idx = worst(w)
            if value < best_value:
                best_value, best_w = value, w.copy()
            i_star, j_star = rows[idx], cols[idx]
            g = k_t * (matrix[:, j_star] / (w @ matrix)[j_star])
            g[i_star] -= k_t / w[i_star]
            step = 0.2 / math.sqrt(iteration)
            w = w * np.exp(np.clip(-step * (g - float(w @ g)), -50.0, 50.0))
            w[0] = poison.get((r, iteration), w[0])
            total = float(w.sum())
            if not math.isfinite(total) or total <= 0.0:
                w = np.full(n, 1.0 / n)
                continue
            w = np.clip(w / total, 1e-15, None)
            w = w / w.sum()
    return best_value, best_w


def _worst_work(sc, weights):
    """The largest work over transitions of positive joint probability."""
    return max(
        tr.work
        for tr in expected_cost(sc, weights).transitions
        if tr.joint_probability > 0.0 and not is_infinite(tr.work)
    )


def _pinned_scenario(k):
    """The scenarios of the tests above, plus one 8x8 and one 6x6 reset.

    The reset's joint matrix has 6 non-zero entries among 36, so its
    objective sums a different number of terms than its support holds.
    """
    if k == "8x8":
        rng = np.random.default_rng(8)
        return Scenario(
            random_distribution(rng, 8),
            random_operation(rng, 8, 8),
            random_thermo(rng, 8),
            random_thermo(rng, 8),
            1.25,
        )
    if k == "reset":
        rng = np.random.default_rng(6)
        reset = LogicalOperation(np.eye(6)[np.zeros(6, dtype=int)])
        probs = random_distribution(rng, 6)
        return Scenario(probs, reset, random_thermo(rng, 6), random_thermo(rng, 6), 1.25)
    return random_scenario(np.random.default_rng(k), max_states=6 if k == 0 else 8)


def _pin(result):
    digest = hashlib.sha256(result.weights.tobytes()).hexdigest()
    return result.value.hex(), digest, result.iterations, result.converged


# (scenario, seed, iteration cap, restarts) -> (value, SHA-256 of the weight bytes,
# iterations, converged).  On scenario 0 the cap of 40 stops every start.
MINIMISER_PINS = {
    (0, 0, 40, 0): (
        "-0x1.c275e118964aep-1",
        "83bbcfebd44ae3c6ade7bc068beb65652666a880c87185b637a689e74c5ea597",
        40,
        False,
    ),
    (0, 0, 40, 4): (
        "-0x1.c275e118964aep-1",
        "83bbcfebd44ae3c6ade7bc068beb65652666a880c87185b637a689e74c5ea597",
        40,
        False,
    ),
    (84, 84, 100_000, 0): (
        "-0x1.bcd302ebeec9ap-1",
        "163b8b5d1a79c8e386202b81c9638203144d37c274ae2e0a62f0869a0b6e44a9",
        728,
        True,
    ),
    (84, 84, 100_000, 4): (
        "-0x1.bcd303bb03754p-1",
        "3e2684b05a22f02a5c278f578223693c65494a3d6d1cc92305d1bedee6df94bf",
        61,
        True,
    ),
    (145, 145, 100_000, 0): (
        "-0x1.070d32b7f286cp+0",
        "7ed0009ca74a274ea1c2f309dee0480e4db7041ec0d8f77a50300e3ec0584a19",
        52,
        True,
    ),
    (145, 145, 100_000, 4): (
        "-0x1.070d32b7f54b6p+0",
        "de000027af49dd4f44437e26e63021af2190d188493ed62e1a8fff22f7cf701f",
        53,
        True,
    ),
    (164, 164, 100_000, 0): (
        "0x1.1477357128a53p+1",
        "cfef8b9b50b8aa77d517b2a47bef0ebb5e4cdf844714207fb96d8e82a8f27b2d",
        22,
        True,
    ),
    (164, 164, 100_000, 4): (
        "0x1.1477357128a52p+1",
        "5ad616715597028f601faeafe87f81a000c30f6a352a2e7dfeb7ada0a48c85eb",
        46,
        True,
    ),
    ("8x8", 8, 100_000, 0): (
        "0x1.ec4da6a4a91f1p-2",
        "faf92d0f8a681cfd08600d869e619705d92d40841f738394a4e6ccedf3d5c970",
        155,
        True,
    ),
    ("8x8", 8, 100_000, 4): (
        "0x1.ec4da5e0d42d3p-2",
        "86967f46df90b80da52570927d73fffc33d7b7d444ab05f663c046e04b681ef5",
        51,
        True,
    ),
    ("reset", 6, 100_000, 0): (
        "0x1.5da130b7ba127p+1",
        "dc1a3a06ae1cb35ef6e41b523b8720a03bae41312d6c26ea09ab1254d5b96594",
        13,
        True,
    ),
    ("reset", 6, 100_000, 4): (
        "0x1.5da130b7ba126p+1",
        "e4f783d6898b3f9feee9dd89cb593c38d1b23b0ac0e2917b2765e19fdd27b345",
        10,
        True,
    ),
}

# (scenario, seed) -> the same fields, after 100 iterations.
MINIMAX_PINS = {
    (0, 0): (
        "0x1.9c19ac41af02cp+1",
        "52950246a9009306a12db679d1f01b7866b9b7c91414a136c2bf0b207da4121d",
        100,
        True,
    ),
    (84, 84): (
        "0x1.07e8355f51750p+1",
        "0659bf6b21f3165b364ea1815bee3611a7adf556ccea505d21c4132c3350de5a",
        100,
        True,
    ),
    (145, 145): (
        "0x1.a27418ffdfc81p-1",
        "914ee63e3bf4df3c5a83c2b6ab50dfe6728b96b7d585288124fa4ebf9f395a79",
        100,
        True,
    ),
    (164, 164): (
        "0x1.33ffb748cd227p+2",
        "20326fc9e341614526e67f049b8ab257168784ca341232744c71601b7550419b",
        100,
        True,
    ),
    ("8x8", 8): (
        "0x1.897f0f034f55ap+1",
        "65c5345153d2f48b057ce282be27f774447677c4afb9cde391a88c6bd1acdb29",
        100,
        True,
    ),
    ("reset", 6): (
        "0x1.d367337f68ad4p+1",
        "e44a7c2a80609ed234e949292430f12d044b4094cc26490d94f9ae2c72b3483f",
        100,
        True,
    ),
}


@pytest.mark.parametrize("case", sorted(MINIMISER_PINS, key=str), ids=str)
def test_minimiser_results_are_pinned(case):
    k, seed, cap, restarts = case
    sc = _pinned_scenario(k)
    result = minimize_expected_work(sc, seed=seed, max_iterations=cap, restarts=restarts)
    assert _pin(result) == MINIMISER_PINS[case]


@pytest.mark.parametrize("case", sorted(MINIMAX_PINS, key=str), ids=str)
def test_minimax_results_are_pinned(case):
    k, seed = case
    result = minimax_weights(_pinned_scenario(k), seed=seed, max_iterations=100)
    assert _pin(result) == MINIMAX_PINS[case]


@pytest.mark.parametrize("structure", STRUCTURES)
def test_optimiser_weights_are_read_only_and_their_own(structure):
    # On a permutation every weight ties, so minimax keeps w = P; elsewhere a start wins.
    sc = structured_scenario(3, structure, dead_input=False)
    for result in (
        minimize_expected_work(sc, max_iterations=20, restarts=1),
        minimax_weights(sc, max_iterations=20),
    ):
        assert not result.weights.flags.writeable
        assert result.weights.flags.owndata
        assert result.weights is not sc.input_dist.probs


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(STRUCTURES),
    dead_input=st.booleans(),
)
def test_minimax_value_is_its_worst_case_and_dominates_w_equals_p(seed, structure, dead_input):
    """The value is the worst realisable transition at the returned weights,
    and never above the worst one at ``w = P``."""
    sc = structured_scenario(seed, structure, dead_input)
    result = minimax_weights(sc, seed=seed, max_iterations=200)
    at_result = _worst_work(sc, make_weights(sc, result.weights))
    assert result.value == pytest.approx(at_result, rel=1e-12, abs=1e-12)
    assert result.value <= _worst_work(sc, optimal_weights(sc)) + 1e-9

@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(STRUCTURES),
    dead_input=st.booleans(),
    zero_live_weight=st.booleans(),
)
def test_shared_pricing_is_exact(seed, structure, dead_input, zero_live_weight):
    """Reports, single transitions and entropy ledgers agree bit for bit.

    Each row is also recomputed here with scalar floats in the order of
    the closed form in the module docstring, and compared with ``==``.
    """
    sc = structured_scenario(seed, structure, dead_input)
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


def _reference_weights(scenario, weights):
    """The validation rules of make_weights as first written, kept as the reference."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != scenario.op.n_inputs:
        raise ArityMismatchError(f"expected {scenario.op.n_inputs} weights, got {w.size}")
    if not (w >= 0.0).all():
        raise CostError(f"weights must be non-negative, got {w.tolist()}")
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > 1e-9:
        raise CostError(f"weights sum to {total!r}, expected 1")
    flagged = tuple(
        int(i) for i in np.flatnonzero((w == 0.0) & (scenario.input_dist.probs > 0.0))
    )
    return w, w @ scenario.op.matrix, flagged, False


@settings(max_examples=400, deadline=None)
@given(
    weights=edge_probability_arrays("row"),
    seed=st.integers(0, 2**32 - 1),
    dead=st.lists(st.booleans(), min_size=5, max_size=5),
    arity=st.sampled_from((0, 0, 0, 1)),
)
def test_weight_validation_matches_the_reference_rules(weights, seed, dead, arity):
    """Inputs of zero probability (``dead``) decide which zero weights are flagged."""
    rng = np.random.default_rng(seed)
    n_in = (np.size(weights) if np.ndim(weights) == 1 and np.size(weights) else 2) + arity
    probs = np.where(dead[:n_in], 0.0, rng.uniform(0.1, 1.0, n_in))
    if not probs.any():
        probs[0] = 1.0
    scenario = uniform_scenario(random_operation(rng, n_in, int(rng.integers(1, 4))), probs / probs.sum())

    def build():
        vector = make_weights(scenario, weights)
        return (
            vector.weights,
            vector.output_weights,
            vector.infinite_inputs,
            vector.weight_independent,
        )

    want = outcome(lambda: _reference_weights(scenario, weights))
    assert_same_outcome(outcome(build), want)


# --- One pricing per (scenario, weights) pair --------------------------------


class TestPricingMemo:
    def _scenario(self, seed=31):
        rng = np.random.default_rng(seed)
        return random_scenario(rng, max_states=5)

    def test_a_pair_is_priced_once_across_cost_ledgers_and_reverse(self, monkeypatch):
        sc = self._scenario()
        calls = []
        real = costs._price

        def counted(scenario, weights):
            calls.append((scenario, weights))
            return real(scenario, weights)

        monkeypatch.setattr(costs, "_price", counted)
        w = optimal_weights(sc)
        report = expected_cost(sc, w)
        entropy_ledgers(sc, w)
        reverse = reverse_operation(sc)
        assert reverse.pruned_inputs == reverse.pruned_outputs == ()
        assert optimal_weights(sc) is w
        assert reverse.forward_cost is report and expected_cost(sc, w) is report
        assert sum(1 for pair in calls if pair[0] is sc and pair[1] is w) == 1
        assert len(calls) == 2  # and the reverse leg once

    def test_other_scenarios_and_other_vectors_are_priced_afresh(self):
        sc = self._scenario()
        rng = np.random.default_rng(32)
        w = make_weights(sc, random_distribution(rng, sc.op.n_inputs).probs)
        report = expected_cost(sc, w)
        variants = [
            dataclasses.replace(sc, input_thermo=random_thermo(rng, sc.op.n_inputs)),
            dataclasses.replace(sc, input_dist=random_distribution(rng, sc.op.n_inputs)),
        ]
        for other in variants:
            got = expected_cost(other, w)
            assert got is not report
            fresh = copy_scenario(other)
            assert bits(got) == bits(expected_cost(fresh, make_weights(fresh, w.weights)))
            assert bits(got) != bits(report)
        twin = make_weights(sc, w.weights)
        again = expected_cost(sc, twin)
        assert again is not report and bits(again) == bits(report)
        assert expected_cost(sc, w) is report

    def test_reports_live_only_while_both_keys_live(self):
        sc = self._scenario()
        w = make_weights(sc, np.full(sc.op.n_inputs, 1.0 / sc.op.n_inputs))
        report = weakref.ref(expected_cost(sc, w))
        gc.collect()
        assert report() is not None
        del w
        gc.collect()
        assert report() is None

        w = make_weights(sc, np.full(sc.op.n_inputs, 1.0 / sc.op.n_inputs))
        report = weakref.ref(expected_cost(sc, w))
        optimal = weakref.ref(optimal_weights(sc))
        at_optimum = weakref.ref(expected_cost(sc, optimal()))
        del sc
        gc.collect()
        assert report() is None and optimal() is None and at_optimum() is None

    def test_a_priced_vector_pickles_without_its_reports(self):
        sc = self._scenario()
        w = optimal_weights(sc)
        report = expected_cost(sc, w)
        copy = pickle.loads(pickle.dumps(w))
        assert copy.weights.tobytes() == w.weights.tobytes()
        assert copy.weight_independent == w.weight_independent
        again = expected_cost(sc, copy)
        assert again is not report and bits(again) == bits(report)

    def test_threads_sharing_keys_get_the_cold_values(self):
        scenarios = [self._scenario(seed) for seed in range(40, 48)]
        copies = [copy_scenario(sc) for sc in scenarios]
        want = [bits(expected_cost(sc, optimal_weights(sc))) for sc in copies]
        got, errors = [], []

        def work():
            try:
                for sc in scenarios:
                    got.append((sc, expected_cost(sc, optimal_weights(sc))))
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
        assert len(got) == 6 * len(scenarios)
        for sc, report in got:
            assert bits(report) == want[scenarios.index(sc)]


_MEMO_CALLS = ("cost", "ledgers", "reverse", "cycle", "cycle-mismatched")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(STRUCTURES),
    dead_input=st.booleans(),
    zero_live_weight=st.booleans(),
    calls=st.lists(
        st.tuples(st.sampled_from(_MEMO_CALLS), st.sampled_from(("optimal", "drawn"))),
        min_size=1,
        max_size=10,
    ),
)
def test_shared_reports_are_the_cold_values(seed, structure, dead_input, zero_live_weight, calls):
    """Any interleaving of the pricing callers on shared scenario and weights
    gives what each call gives alone on fresh, equal copies."""
    sc = structured_scenario(seed, structure, dead_input)
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(sc.op.n_inputs))
    if zero_live_weight:
        raw[-1] = 0.0  # the last input is live, so its costs are INF
    raw /= raw.sum()
    middle = random_distribution(rng, sc.op.n_inputs).probs

    def call(name, scenario, weights):
        try:
            if name == "cost":
                return bits(expected_cost(scenario, weights))
            if name == "ledgers":
                return bits(entropy_ledgers(scenario, weights))
            if name == "reverse":
                return bits(reverse_operation(scenario))
            return bits(evaluate_cycle(scenario, middle if name == "cycle-mismatched" else None))
        except CostError as exc:  # ledgers of INF weights, compared by class and message
            return type(exc), str(exc)

    shared = {"optimal": optimal_weights(sc), "drawn": make_weights(sc, raw)}
    for name, which in calls:
        fresh = copy_scenario(sc)
        cold = optimal_weights(fresh) if which == "optimal" else make_weights(fresh, raw)
        assert call(name, sc, shared[which]) == call(name, fresh, cold), (name, which)
