"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from helpers import permutation_operation, random_operation, random_scenario
from thermologic.boxprotocol import run_protocol
from thermologic.costs import (
    expected_cost,
    minimize_expected_work,
    optimal_weights,
    transition_cost,
)
from thermologic.cycles import (
    partial_operation_cost,
    reverse_operation,
    rle_le_cycle,
    uncertain_operation_cost,
)
from thermologic.logic import DiscreteDistribution, LogicalOperation, rtz, ufz
from thermologic.quantum import default_setup, run_trials
from thermologic.thermo import ModelSkeleton, StateThermo, make_model

LN2 = math.log(2.0)


def report(number: int, ok: bool, label: str):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


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


def test_criterion_1_landauer_constant():
    start = time.perf_counter()
    sc = uniform_scenario(rtz(), [0.5, 0.5])
    cost = expected_cost(sc, optimal_weights(sc))
    elapsed = time.perf_counter() - start
    ok = (
        abs(cost.expected_work - LN2) < 1e-9
        and abs(cost.expected_heat - LN2) < 1e-9
        and elapsed < 1.0
    )
    report(1, ok, f"even reset costs kT ln 2 (elapsed {elapsed:.3f}s)")


def test_criterion_2_extraction_symmetry():
    unset = uniform_scenario(ufz(0.5), [1.0])
    unset_work = expected_cost(unset, optimal_weights(unset)).expected_work
    reset = uniform_scenario(rtz(), [0.5, 0.5])
    reverse = reverse_operation(reset)
    ok = (
        abs(unset_work + LN2) < 1e-9
        and reverse.work_antisymmetry_error < 1e-10
        and reverse.heat_antisymmetry_error < 1e-10
        and abs(reverse.reverse_cost.expected_work - unset_work) < 1e-10
    )
    report(2, ok, "even unset extracts kT ln 2 and exactly reverses the reset")


def test_criterion_3_optimizer_agreement():
    rng = np.random.default_rng(103)
    worst_gap = 0.0
    worst_bound_gap = 0.0
    for trial in range(100):
        sc = random_scenario(rng, max_states=5)
        analytic = expected_cost(sc, optimal_weights(sc))
        numeric = minimize_expected_work(sc, seed=1000 + trial)
        worst_gap = max(worst_gap, abs(numeric.value - analytic.expected_work))
        worst_bound_gap = max(
            worst_bound_gap, abs(analytic.expected_work - analytic.work_bound)
        )
    ok = worst_gap < 1e-6 and worst_bound_gap < 1e-9
    report(
        3,
        ok,
        f"simplex minimiser agrees with w = P (gap {worst_gap:.2e}) "
        f"and attains the bound (gap {worst_bound_gap:.2e})",
    )


def test_criterion_4_ledger_reconciliation():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst_transition = 0.0
    worst_expected = 0.0
    for _ in range(100):
        sc = random_scenario(rng, max_states=5)
        weights = optimal_weights(sc)
        ledger = run_protocol(sc, weights)
        for (i, j), (work, heat) in ledger.trajectory_totals().items():
            closed_work, closed_heat = transition_cost(sc, weights, i, j)
            worst_transition = max(
                worst_transition, abs(work - closed_work), abs(heat - closed_heat)
            )
        cost = expected_cost(sc, weights)
        got_work, got_heat = ledger.expected_totals(sc)
        worst_expected = max(
            worst_expected,
            abs(got_work - cost.expected_work),
            abs(got_heat - cost.expected_heat),
        )
    elapsed = time.perf_counter() - start
    ok = worst_transition < 1e-9 and worst_expected < 1e-9 and elapsed < 10.0
    report(
        4,
        ok,
        f"staged ledgers reconcile with closed forms "
        f"(transition {worst_transition:.2e}, expectation {worst_expected:.2e}, "
        f"{elapsed:.2f}s)",
    )


def test_criterion_5_adiabatic_equilibrium_nullity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        n_in = int(rng.integers(2, 6))
        n_out = int(rng.integers(2, 6))
        op = random_operation(rng, n_in, n_out)
        dist = DiscreteDistribution(rng.dirichlet(np.ones(n_in) * 3.0))
        sc = make_model(
            "adiabatic_equilibrium",
            ModelSkeleton(input_dist=dist, op=op, reference_temperature=1.0),
        )
        ledger = run_protocol(sc, optimal_weights(sc))
        for row in ledger.rows:
            worst = max(worst, abs(row.work), abs(row.heat))
    ok = worst < 1e-12
    report(5, ok, f"adiabatic-equilibrium runs exchange nothing (worst {worst:.2e})")


def test_criterion_6_cycle_kl_law():
    grid = np.linspace(0.02, 0.98, 20)
    worst = 0.0
    diagonal_exact = True
    for p in grid:
        for p_prime in grid:
            net = rle_le_cycle(float(p), float(p_prime)).net_work
            expected = p * math.log(p / p_prime) + (1.0 - p) * math.log(
                (1.0 - p) / (1.0 - p_prime)
            )
            worst = max(worst, abs(net - expected))
        if rle_le_cycle(float(p), float(p)).net_work != 0.0:
            diagonal_exact = False
    ok = worst < 1e-12 and diagonal_exact
    report(
        6,
        ok,
        f"cycle mismatch cost follows the KL form (worst {worst:.2e}, "
        f"diagonal exactly zero: {diagonal_exact})",
    )


def test_criterion_7_quantum_bound_sweep():
    start = time.perf_counter()
    setup = default_setup(
        system_block_sizes=(2, 2),
        env_dim=8,
        reference_temperature=1.0,
        input_probs=[0.6, 0.4],
    )
    batch = run_trials(setup, 500, seed=7)
    elapsed = time.perf_counter() - start
    ok = batch.total_violations == 0 and elapsed < 60.0
    report(
        7,
        ok,
        f"500 random unitaries never beat the bound "
        f"(violations {batch.total_violations}, min slack "
        f"{min(r.slack for r in batch.results):.3e}, {elapsed:.1f}s)",
    )


def test_criterion_8_irreversibility_sources():
    rng = np.random.default_rng(108)
    flat2 = (StateThermo(0.5, 0.0, 1.0), StateThermo(0.5, 0.0, 1.0))

    worst_uncertain = 0.0
    factorising_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 4))
        count = int(rng.integers(2, 4))
        gamma = rng.dirichlet(np.ones(count))
        branches = [(random_operation(rng, n, n), float(g)) for g in gamma]
        rep = uncertain_operation_cost(
            branches,
            DiscreteDistribution(rng.dirichlet(np.ones(n) * 2.0)),
            tuple(StateThermo(0.5, 0.0, 1.0) for _ in range(n)),
            tuple(StateThermo(0.5, 0.0, 1.0) for _ in range(n)),
        )
        worst_uncertain = max(worst_uncertain, abs(rep.cycle_total - rep.excess))
    same = random_operation(rng, 2, 2)
    rep_same = uncertain_operation_cost(
        [(same, 0.5), (same, 0.5)], DiscreteDistribution([0.4, 0.6]), flat2, flat2
    )
    disjoint = uncertain_operation_cost(
        [
            (LogicalOperation([[1.0, 0.0], [1.0, 0.0]]), 0.5),
            (LogicalOperation([[0.0, 1.0], [0.0, 1.0]]), 0.5),
        ],
        DiscreteDistribution([0.4, 0.6]),
        flat2,
        flat2,
    )
    factorising_ok = (
        abs(rep_same.excess) < 1e-10
        and rep_same.factorizes
        and disjoint.excess > 1e-6
        and not disjoint.factorizes
    )

    product_worst = 0.0
    reversible_worst = 0.0
    generic_ok = True
    for trial in range(1000):
        n_in = int(rng.integers(2, 4))
        n_out = int(rng.integers(2, 4))
        n_g = int(rng.integers(2, 4))
        thermo_in = tuple(StateThermo(0.5, 0.0, 1.0) for _ in range(n_in))
        thermo_out = tuple(StateThermo(0.5, 0.0, 1.0) for _ in range(n_out))
        if trial % 3 == 0:
            joint = np.outer(
                rng.dirichlet(np.ones(n_in)), rng.dirichlet(np.ones(n_g))
            )
            rep = partial_operation_cost(
                joint, random_operation(rng, n_in, n_out), thermo_in, thermo_out
            )
            product_worst = max(product_worst, abs(rep.excess))
        elif trial % 3 == 1:
            perm = tuple(rng.permutation(n_in))
            joint = rng.dirichlet(np.ones(n_in * n_g)).reshape(n_in, n_g)
            rep = partial_operation_cost(
                joint,
                permutation_operation(perm),
                thermo_in,
                tuple(StateThermo(0.5, 0.0, 1.0) for _ in range(n_in)),
            )
            reversible_worst = max(reversible_worst, abs(rep.excess))
        else:
            joint = rng.dirichlet(np.ones(n_in * n_g)).reshape(n_in, n_g)
            rep = partial_operation_cost(
                joint, random_operation(rng, n_in, n_out), thermo_in, thermo_out
            )
            if rep.excess < -1e-12 or abs(rep.cycle_total - rep.excess) > 1e-10:
                generic_ok = False
    ok = (
        worst_uncertain < 1e-10
        and factorising_ok
        and product_worst < 1e-10
        and reversible_worst < 1e-10
        and generic_ok
    )
    report(
        8,
        ok,
        f"uncertainty and hidden correlations price as mutual information "
        f"(uncertain gap {worst_uncertain:.2e}, product {product_worst:.2e}, "
        f"reversible {reversible_worst:.2e})",
    )
