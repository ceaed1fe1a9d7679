import copy
import dataclasses
import gc
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
    bits,
    copy_scenario,
    random_distribution,
    random_operation,
    random_scenario,
    random_thermo,
    structured_scenario,
)
from thermologic.boxprotocol import (
    LedgerRow,
    ProtocolAbortError,
    ProtocolLedger,
    ReconcileReport,
    SquareWell,
    entropy_for_width,
    reconcile,
    run_protocol,
    squarewell_props,
    width_for_entropy,
    zero_entropy_width,
)
from thermologic.costs import (
    WeightVector,
    expected_cost,
    make_weights,
    optimal_weights,
    transition_cost,
)
from thermologic.logic import DiscreteDistribution, LogicalOperation, identity_op, rtz
from thermologic.thermo import ModelSkeleton, Scenario, UnitSystem, make_model

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


class TestSquareWell:
    def test_wide_hot_well_reaches_equipartition(self):
        props = squarewell_props(1000.0, 1.0)
        assert props.high_temperature_ok
        assert props.energy == pytest.approx(0.5, abs=1e-3)
        assert props.energy_high_t == 0.5

    def test_entropy_inversion_round_trip(self):
        width = width_for_entropy(LN2, 1.0)
        assert width == pytest.approx(2.0 * math.sqrt(math.pi / (2.0 * math.e)), abs=1e-12)
        props = squarewell_props(width, 1.0)
        assert props.entropy_high_t == pytest.approx(LN2, abs=1e-12)
        # a one-bit well is never deep in the classical regime, so the
        # level sums disagree with the closed form and the flag says so
        assert not props.high_temperature_ok
        assert entropy_for_width(width, 1.0) == pytest.approx(LN2, abs=1e-12)

    def test_exact_sums_converge_to_closed_form(self):
        diffs = []
        for temperature in (1.0, 16.0, 256.0, 4096.0, 65536.0):
            props = squarewell_props(3.0, temperature)
            diffs.append(abs(props.entropy - props.entropy_high_t))
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3

    @pytest.mark.parametrize(
        "width, temperature",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
        ids=["nan-width", "inf-width", "nan-temperature", "inf-temperature"],
    )
    def test_non_finite_width_or_temperature_is_rejected(self, width, temperature):
        for call in (SquareWell, squarewell_props):
            with pytest.raises(ValueError, match="width and temperature must be finite and positive"):
                call(width, temperature)

    def test_validity_threshold(self):
        # flag flips where kT crosses 10 * pi hbar^2 / (2 e m l^2)
        well_cold = SquareWell(width=1.0, temperature=1.0)
        well_hot = SquareWell(width=1.0, temperature=10.0)
        threshold = 10.0 * math.pi / (2.0 * math.e)
        assert (well_cold.temperature >= threshold) == well_cold.high_temperature_ok
        assert (well_hot.temperature >= threshold) == well_hot.high_temperature_ok

    def test_zero_entropy_width_matches_formula(self):
        assert zero_entropy_width(2.0) == pytest.approx(
            math.sqrt(math.pi / (4.0 * math.e)), abs=1e-15
        )


def level_spacing(width, temperature):
    """``b = E_1 / kT`` in natural units, as :func:`squarewell_props` computes it."""
    return SquareWell(width, temperature).ground_energy / temperature


def direct_level_sums(width, temperature):
    """Mean energy and entropy summed level by level (natural units), or None past 1e5 levels.

    Weights are taken relative to the ground state, e^{-b (n^2 - 1)}, so that
    none underflows; levels stop once b (n^2 - 1) exceeds 800.
    """
    b = level_spacing(width, temperature)
    if 800.0 / b > 1e10:
        return None
    n2 = np.arange(1, math.isqrt(int(800.0 / b)) + 3, dtype=float) ** 2
    weights = np.exp(-b * (n2 - 1.0))
    z = math.fsum(weights.tolist())
    excess = b * math.fsum(((n2 - 1.0) * weights).tolist()) / z
    return temperature * (b + excess), excess + math.log(z)


@settings(max_examples=150, deadline=None)
@given(log_width=st.floats(-1.0, 12.0), log_temperature=st.floats(-2.0, 2.0))
def test_squarewell_sums_are_exact_at_every_width(log_width, log_temperature):
    width, temperature = 10.0**log_width, 10.0**log_temperature
    props = squarewell_props(width, temperature)
    direct = direct_level_sums(width, temperature)
    if direct is not None:
        assert props.energy == pytest.approx(direct[0], rel=1e-14)
        assert props.entropy == pytest.approx(direct[1], rel=1e-14, abs=1e-15)

    # continuous between adjacent widths on either side of b = 1, where the
    # dual series hands over to the direct sum
    upper = math.pi / math.sqrt(8.0 * temperature)
    while level_spacing(upper, temperature) > 1.0:
        upper = math.nextafter(upper, math.inf)
    lower = math.nextafter(upper, 0.0)
    if level_spacing(lower, temperature) > 1.0:
        dual, summed = squarewell_props(upper, temperature), squarewell_props(lower, temperature)
        assert dual.energy == pytest.approx(summed.energy, rel=1e-14)
        assert dual.entropy == pytest.approx(summed.entropy, rel=1e-14)

    # high-temperature asymptote: E = (kT/2)(1 + x) and S = S_high - x/2, x = sqrt(b / pi)
    b = level_spacing(width, temperature)
    if b <= 1e-2:
        x = math.sqrt(b / math.pi)
        assert abs(2.0 * props.energy / temperature - (1.0 + x)) <= 2.0 * x * x + 1e-15
        assert abs(props.entropy - (props.entropy_high_t - x / 2.0)) <= x * x + 1e-13


class TestRunProtocol:
    def test_reset_trajectories_cost_ln2(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        ledger = run_protocol(sc, optimal_weights(sc))
        totals = ledger.trajectory_totals()
        assert set(totals) == {(0, 0), (1, 0)}
        for work, heat in totals.values():
            assert work == pytest.approx(LN2, abs=1e-12)
            assert heat == pytest.approx(LN2, abs=1e-12)

    def test_adiabatic_equilibrium_runs_free(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            op = LogicalOperation(rng.dirichlet(np.ones(n), size=n))
            dist = DiscreteDistribution(rng.dirichlet(np.ones(n) * 3.0))
            sc = make_model(
                "adiabatic_equilibrium",
                ModelSkeleton(input_dist=dist, op=op, reference_temperature=1.0),
            )
            ledger = run_protocol(sc, optimal_weights(sc))
            for row in ledger.rows:
                assert abs(row.work) < 1e-12
                assert abs(row.heat) < 1e-12

    def test_identity_with_matched_tables_is_free_per_branch(self):
        rng = np.random.default_rng(11)
        thermo = random_thermo(rng, 3)
        sc = Scenario(
            input_dist=DiscreteDistribution([0.2, 0.3, 0.5]),
            op=identity_op(3),
            input_thermo=thermo,
            output_thermo=thermo,
            reference_temperature=1.0,
        )
        ledger = run_protocol(sc, optimal_weights(sc))
        for work, heat in ledger.trajectory_totals().values():
            assert work == pytest.approx(0.0, abs=1e-12)
            assert heat == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_on_live_input_aborts(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        with pytest.raises(ProtocolAbortError):
            run_protocol(sc, make_weights(sc, [1.0, 0.0]))

    def test_zero_weight_on_dead_input_removes_partition(self):
        sc = uniform_scenario(rtz(), [1.0, 0.0])
        ledger = run_protocol(sc, make_weights(sc, [1.0, 0.0]))
        assert {r.step for r in ledger.rows if r.input_index == 1} == {1, 2}
        assert ledger.trajectory_totals() == {
            (0, 0): (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))
        }

    def test_cold_narrow_wells_warn(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        ledger = run_protocol(sc, optimal_weights(sc))
        assert ledger.warnings  # zero-entropy wells sit far below the classical regime


class TestBookkeeping:
    def scenario(self, seed=12):
        rng = np.random.default_rng(seed)
        return random_scenario(rng, max_states=4)

    def test_widths_partition_the_box(self):
        sc = self.scenario()
        weights = optimal_weights(sc)
        ledger = run_protocol(sc, weights)
        length = ledger.layout(2).total_width
        assert ledger.layout(3).total_width == pytest.approx(length, abs=1e-12)
        assert ledger.layout(4).total_width == pytest.approx(length, abs=1e-12)
        growth = math.fsum(
            math.exp(st.entropy) for st in sc.output_thermo
        ) / math.fsum(math.exp(st.entropy) for st in sc.input_thermo)
        assert ledger.layout(7).total_width == pytest.approx(length * growth, rel=1e-12)

    def test_boundary_entropies_hit_targets(self):
        sc = self.scenario(13)
        ledger = run_protocol(sc, optimal_weights(sc))
        for row in [r for r in ledger.rows if r.step == 2]:
            assert row.entropy == sc.input_thermo[row.input_index].entropy
        for row in [r for r in ledger.rows if r.step == 7]:
            assert row.entropy == sc.output_thermo[row.output_index].entropy

    def test_subpartition_widths_encode_branch_probabilities(self):
        sc = self.scenario(14)
        weights = optimal_weights(sc)
        ledger = run_protocol(sc, weights)
        length = ledger.layout(2).total_width
        for row in [r for r in ledger.rows if r.step == 4]:
            expected = (
                sc.op.matrix[row.input_index, row.output_index]
                * weights.weights[row.input_index]
                * length
            )
            assert row.width == pytest.approx(expected, rel=1e-12)

    def cases(self):
        """Random scenarios and weights; the last has a zero-weight dead input."""
        rng = np.random.default_rng(19)
        cases = []
        for _ in range(10):
            sc = random_scenario(rng)
            cases.append((sc, make_weights(sc, rng.dirichlet(np.ones(sc.op.n_inputs)))))
        sc = random_scenario(rng)
        probs = np.append(0.0, rng.dirichlet(np.ones(sc.op.n_inputs - 1)))
        dead = dataclasses.replace(sc, input_dist=DiscreteDistribution(probs))
        cases.append((dead, make_weights(dead, probs)))
        return cases

    def test_layouts_list_each_stage_rows(self):
        for sc, weights in self.cases():
            ledger = run_protocol(sc, weights)
            assert [step for step, _ in ledger.layouts] == list(range(1, 9))
            for step in range(1, 9):
                want = [
                    (r.input_index, r.output_index, r.width) for r in ledger.rows if r.step == step
                ]
                if step == 5:  # equal outputs brought together
                    want.sort(key=lambda p: (p[1], p[0]))
                got = [
                    (p.input_index, p.output_index, p.width)
                    for p in ledger.layout(step).partitions
                ]
                assert got == want
        # the last case's dead input 0 is compressed away at stage 3
        assert 0 not in {p.input_index for p in ledger.layout(3).partitions}

    def test_steps_5_and_9_keep_the_wells_of_steps_4_and_8(self):
        # The regime check skips steps 5 and 9 because they repeat these wells.
        for sc, weights in self.cases():
            ledger = run_protocol(sc, weights)
            for later, earlier in ((5, 4), (9, 8)):
                wells = [
                    {(r.input_index, r.output_index): (r.width, r.temperature)
                     for r in ledger.rows if r.step == step}
                    for step in (later, earlier)
                ]
                assert wells[0] == wells[1]

    def test_totals_ignore_row_order(self):
        rng = np.random.default_rng(20)
        for sc, weights in self.cases():
            ledger = run_protocol(sc, weights)
            rows = list(ledger.rows)
            rng.shuffle(rows)
            shuffled = ProtocolLedger(tuple(rows), ledger.layouts, ledger.warnings)
            assert shuffled.trajectory_totals() == ledger.trajectory_totals()

    def test_step_energy_accounting(self):
        sc = self.scenario(15)
        ledger = run_protocol(sc, optimal_weights(sc))
        k = sc.units.k_B
        for row in [r for r in ledger.rows if r.step == 2]:
            before = 0.5 * k * sc.input_thermo[row.input_index].temperature
            assert row.work == pytest.approx(row.energy - before, abs=1e-12)
            assert row.heat == 0.0
        for row in [r for r in ledger.rows if r.step in (3, 7)]:
            assert row.work == row.heat  # isothermal: all work goes to the bath
        for row in [r for r in ledger.rows if r.step == 8]:
            before = 0.5 * k * sc.reference_temperature
            assert row.work == pytest.approx(row.energy - before, abs=1e-12)
            assert row.heat == 0.0
        for row in [r for r in ledger.rows if r.step == 9]:
            st = sc.output_thermo[row.output_index]
            assert row.work == pytest.approx(st.energy - 0.5 * k * st.temperature, abs=1e-12)
            assert row.heat == 0.0


class TestReconcile:
    def test_random_scenarios_reconcile(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            sc = random_scenario(rng)
            weights = optimal_weights(sc)
            ledger = run_protocol(sc, weights)
            report = reconcile(ledger, sc, weights)
            assert report.ok, report.messages
            assert report.max_work_mismatch < 1e-9

    def test_reversible_op_reconciles_for_any_weights(self):
        rng = np.random.default_rng(17)
        from helpers import permutation_operation

        sc = Scenario(
            input_dist=DiscreteDistribution([0.4, 0.6]),
            op=permutation_operation((1, 0)),
            input_thermo=random_thermo(rng, 2),
            output_thermo=random_thermo(rng, 2),
            reference_temperature=1.2,
        )
        for _ in range(10):
            weights = make_weights(sc, rng.dirichlet(np.ones(2)))
            ledger = run_protocol(sc, weights)
            assert reconcile(ledger, sc, weights).ok

    def test_totals_match_closed_forms(self):
        rng = np.random.default_rng(18)
        sc = random_scenario(rng)
        weights = optimal_weights(sc)
        ledger = run_protocol(sc, weights)
        for (i, j), (work, heat) in ledger.trajectory_totals().items():
            closed_work, closed_heat = transition_cost(sc, weights, i, j)
            assert work == pytest.approx(closed_work, abs=1e-9)
            assert heat == pytest.approx(closed_heat, abs=1e-9)
        expected = expected_cost(sc, weights)
        got_work, got_heat = ledger.expected_totals(sc)
        assert got_work == pytest.approx(expected.expected_work, abs=1e-9)
        assert got_heat == pytest.approx(expected.expected_heat, abs=1e-9)

    def test_injected_fault_is_located(self):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        weights = optimal_weights(sc)
        ledger = run_protocol(sc, weights)
        target = next(
            idx for idx, row in enumerate(ledger.rows) if row.step == 7
        )
        # A NaN work compares false with every tolerance, so it must fail the row test.
        for work in (ledger.rows[target].work + 1e-6, math.nan):
            corrupted = list(ledger.rows)
            corrupted[target] = dataclasses.replace(corrupted[target], work=work)
            bad = ProtocolLedger(
                rows=tuple(corrupted), layouts=ledger.layouts, warnings=ledger.warnings
            )
            report = reconcile(bad, sc, weights)
            assert not report.ok
            assert report.first_divergent_step == (7, None, 0)
            assert not report.max_work_mismatch <= 1e-9
            assert report.messages[1].startswith("trajectory totals mismatch closed forms")

    @pytest.mark.parametrize(
        "field, message",
        [("width", "step 7 branch (None, 0) diverges"), ("output_index", "row ordering diverges")],
    )
    def test_tampered_width_or_output_is_located(self, field, message):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        weights = optimal_weights(sc)
        ledger = run_protocol(sc, weights)
        rows = list(ledger.rows)
        target = next(idx for idx, row in enumerate(rows) if row.step == 7)
        value = 1.5 * rows[target].width if field == "width" else 1
        rows[target] = dataclasses.replace(rows[target], **{field: value})
        report = reconcile(ProtocolLedger(tuple(rows), ledger.layouts, ledger.warnings), sc, weights)
        assert not report.ok
        assert report.first_divergent_step == (7, None, 0)
        assert report.messages[0].startswith(message)

    @pytest.mark.parametrize("tamper", ["drop a step-7 row", "repeat the last row"])
    def test_missing_or_extra_row_is_reported(self, tamper):
        sc = uniform_scenario(rtz(), [0.5, 0.5])
        weights = optimal_weights(sc)
        ledger = run_protocol(sc, weights)
        rows = list(ledger.rows)
        if tamper == "drop a step-7 row":
            del rows[next(k for k, row in enumerate(rows) if row.step == 7)]
        else:
            rows.append(rows[-1])
        bad = ProtocolLedger(tuple(rows), ledger.layouts, ledger.warnings)
        report = reconcile(bad, sc, weights)
        assert not report.ok
        assert report.messages[0].startswith("row count")
        assert "trajectory 0 -> 0 is not realised in this ledger" in report.messages

    def test_zero_weight_on_a_live_input_raises(self):
        sc = random_scenario(np.random.default_rng(19))
        ledger = run_protocol(sc, optimal_weights(sc))
        w = np.ones(sc.op.n_inputs)
        w[0] = 0.0
        with pytest.raises(ProtocolAbortError, match="zero weight"):
            reconcile(ledger, sc, make_weights(sc, w / w.sum()))

    def test_unbounded_trajectory_of_a_ledger_built_with_other_weights(self):
        # Zero weight on an input of probability zero is allowed, and prices
        # that input's transitions as unbounded; a ledger that still routes it
        # cannot be compared there.
        rng = np.random.default_rng(20)
        sc = Scenario(
            input_dist=DiscreteDistribution([0.0, 0.4, 0.6]),
            op=LogicalOperation(rng.dirichlet(np.ones(2), size=3)),
            input_thermo=random_thermo(rng, 3),
            output_thermo=random_thermo(rng, 2),
            reference_temperature=1.1,
        )
        ledger = run_protocol(sc, make_weights(sc, [0.2, 0.4, 0.4]))
        report = reconcile(ledger, sc, make_weights(sc, [0.0, 0.5, 0.5]))
        assert not report.ok
        assert "trajectory (0, 0) has unbounded closed-form cost" in report.messages
        assert "trajectory (0, 1) has unbounded closed-form cost" in report.messages


def reference_ledger(sc, weights):
    """The nine-stage rules evaluated row by row in scalar floats, and the regime warnings."""
    units, t_ref = sc.units, sc.reference_temperature
    k, w_in, w_out, m = units.k_B, weights.weights, weights.output_weights, sc.op.matrix
    rows = []

    def add(step, i, j, width, temperature, entropy, work=0.0, heat=0.0, energy=None):
        energy = 0.5 * k * temperature if energy is None else energy
        rows.append(LedgerRow(step, i, j, width, energy, entropy, temperature, work, heat))

    d2 = [width_for_entropy(st.entropy, t_ref, units) for st in sc.input_thermo]
    for i, st in enumerate(sc.input_thermo):
        d1 = width_for_entropy(st.entropy, st.temperature, units)
        add(1, i, None, d1, st.temperature, st.entropy, 0.5 * k * st.temperature - st.energy)
        add(2, i, None, d2[i], t_ref, st.entropy, 0.5 * k * (t_ref - st.temperature))
    total = math.fsum(d2)
    live = [i for i in range(len(d2)) if w_in[i] != 0.0]
    for i in live:
        d3 = float(w_in[i]) * total
        iso = k * t_ref * math.log(d2[i] / d3)
        add(3, i, None, d3, t_ref, entropy_for_width(d3, t_ref, units), iso, iso)
    for i in live:
        for j in range(m.shape[1]):
            if m[i, j] != 0.0:
                width = float(m[i, j]) * float(w_in[i]) * total
                for step in (4, 5):
                    add(step, i, j, width, t_ref, entropy_for_width(width, t_ref, units))
    for j, st in enumerate(sc.output_thermo):
        if w_out[j] == 0.0:
            continue
        d6 = float(w_out[j]) * total
        d7 = width_for_entropy(st.entropy, t_ref, units)
        d8 = d7 * math.sqrt(t_ref / st.temperature)
        iso = k * t_ref * math.log(d6 / d7)
        add(6, None, j, d6, t_ref, entropy_for_width(d6, t_ref, units))
        add(7, None, j, d7, t_ref, st.entropy, iso, iso)
        add(8, None, j, d8, st.temperature, st.entropy, 0.5 * k * (st.temperature - t_ref))
        add(9, None, j, d8, st.temperature, st.entropy, st.energy - 0.5 * k * st.temperature,
            energy=st.energy)

    def label(r):
        i, j = r.input_index, r.output_index
        if j is None:
            return f"input {sc.op.input_labels[i]}"
        if i is None:
            return f"output {sc.op.output_labels[j]}"
        return f"branch {sc.op.input_labels[i]}->{sc.op.output_labels[j]}"

    warnings = {
        f"step {r.step}: high-temperature approximation unreliable for {label(r)} "
        f"(width {r.width:.6g}, T {r.temperature:.6g})"
        for r in rows
        if r.step not in (5, 9) and not SquareWell(r.width, r.temperature, units).high_temperature_ok
    }
    return rows, tuple(sorted(warnings))


def structured_operation(rng, n_in, n_out, kind):
    if kind == "permutation":
        return LogicalOperation(np.eye(n_in)[rng.permutation(n_in)])
    matrix = np.zeros((n_in, n_out))
    if kind == "reset":
        matrix[:, int(rng.integers(n_out))] = 1.0
        return LogicalOperation(matrix)
    matrix = rng.dirichlet(np.ones(n_out), size=n_in)
    if kind == "sparse":
        matrix *= rng.random((n_in, n_out)) < 0.4
        matrix[np.arange(n_in), rng.integers(n_out, size=n_in)] += 0.5  # no empty row
    return LogicalOperation(matrix / matrix.sum(axis=1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dense", "sparse", "permutation", "reset"]),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    dead_input=st.sampled_from(["none", "dead", "dead, zero weight"]),
    log_hbar=st.floats(-1.5, 1.5),
)
def test_columns_match_the_scalar_rules(seed, kind, shape, dead_input, log_hbar):
    rng = np.random.default_rng(seed)
    n_in, n_out = shape
    if kind == "permutation":
        n_out = n_in
    probs = rng.dirichlet(np.ones(n_in))
    weights = rng.dirichlet(np.ones(n_in))
    if dead_input != "none" and n_in > 1:
        probs[0] = 0.0
        if dead_input == "dead, zero weight":
            weights[0] = 0.0
    sc = Scenario(
        input_dist=DiscreteDistribution(probs / probs.sum()),
        op=structured_operation(rng, n_in, n_out, kind),
        input_thermo=random_thermo(rng, n_in),
        output_thermo=random_thermo(rng, n_out),
        reference_temperature=float(rng.uniform(0.5, 2.0)),
        # a large hbar widens the zero-entropy width, so more wells leave the regime
        units=UnitSystem(hbar=10.0**log_hbar),
    )
    w = make_weights(sc, weights / weights.sum())
    ledger = run_protocol(sc, w)
    rows, warnings = reference_ledger(sc, w)
    assert ledger.rows == tuple(rows)
    assert ledger.warnings == warnings
    assert all(not column.flags.writeable for column in ledger.columns)
    trajectories = {}
    for i, j in zip(*np.nonzero(sc.op.matrix * (w.weights != 0.0)[:, None])):
        legs = [r for r in rows if (r.step <= 3 and r.input_index == i)
                or (r.step in (4, 5) and (r.input_index, r.output_index) == (i, j))
                or (r.step > 5 and r.output_index == j)]
        assert len(legs) == 9
        trajectories[int(i), int(j)] = (math.fsum(r.work for r in legs),
                                        math.fsum(r.heat for r in legs))
    assert ledger.trajectory_totals() == trajectories
    assert reconcile(ledger, sc, w).ok


def pinned_scenarios():
    """The README reset at w = P, and one 6x6 scenario at random weights."""
    reset = uniform_scenario(rtz(), [0.5, 0.5])
    yield "reset", reset, optimal_weights(reset)
    rng = np.random.default_rng(66)
    six = Scenario(random_distribution(rng, 6), random_operation(rng, 6, 6),
                   random_thermo(rng, 6), random_thermo(rng, 6), 1.3)
    yield "6x6", six, make_weights(six, rng.dirichlet(np.ones(6)))


def tampered(rows, how):
    rows = list(rows)
    k = next(n for n, r in enumerate(rows) if r.step == 7)
    if how == "shift":
        rows[k] = dataclasses.replace(rows[k], work=rows[k].work + 1e-6, heat=rows[k].heat + 1e-6)
    elif how == "nan":
        rows[k] = dataclasses.replace(rows[k], work=math.nan)
    elif how == "drop":
        del rows[k]
    elif how == "repeat":
        rows.append(rows[-1])
    elif how == "swap":
        a = next(n for n, r in enumerate(rows) if r.step == 4)
        rows[a], rows[k] = rows[k], rows[a]
    return rows


nan, inf = math.nan, math.inf
DIVERGED_7 = "step 7 branch (None, 0) diverges from recomputation"
# Reports of the row-by-row reconcile that preceded the columnar one, on the same inputs.
PINNED_REPORTS = {
    ("reset", "none"): ReconcileReport(True, 0.0, 0.0, 0.0, 0.0, None, ()),
    ("reset", "shift"): ReconcileReport(
        False, 1.0000000000287557e-06, 1.0000000000287557e-06, 1.0000000000287557e-06,
        1.0000000000287557e-06, (7, None, 0),
        (DIVERGED_7, "trajectory totals mismatch closed forms: work 1.000e-06, heat 1.000e-06",
         "expected totals mismatch the cost report"),
    ),
    ("reset", "nan"): ReconcileReport(
        False, nan, 0.0, nan, 0.0, (7, None, 0),
        (DIVERGED_7, "trajectory totals mismatch closed forms: work nan, heat 0.000e+00",
         "expected totals mismatch the cost report"),
    ),
    ("reset", "drop"): ReconcileReport(
        False, inf, inf, inf, inf, None,
        ("row count 13 differs from recomputation 14",
         "trajectory 0 -> 0 is not realised in this ledger"),
    ),
    ("reset", "repeat"): ReconcileReport(
        False, inf, inf, inf, inf, None,
        ("row count 15 differs from recomputation 14",
         "trajectory 0 -> 0 is not realised in this ledger"),
    ),
    ("reset", "swap"): ReconcileReport(
        False, 0.0, 0.0, 0.0, 0.0, (4, 0, 0), ("row ordering diverges at step 4",)
    ),
    ("6x6", "none"): ReconcileReport(
        True, 5.551115123125783e-16, 4.440892098500626e-16, 1.1102230246251565e-16,
        5.551115123125783e-17, None, (),
    ),
    ("6x6", "shift"): ReconcileReport(
        False, 1.000000000139778e-06, 1.0000000002508003e-06, 2.355970522005535e-07,
        2.355970523115758e-07, (7, None, 0),
        (DIVERGED_7, "trajectory totals mismatch closed forms: work 1.000e-06, heat 1.000e-06",
         "expected totals mismatch the cost report"),
    ),
    ("6x6", "nan"): ReconcileReport(
        False, nan, 4.440892098500626e-16, nan, 5.551115123125783e-17, (7, None, 0),
        (DIVERGED_7, "trajectory totals mismatch closed forms: work nan, heat 4.441e-16",
         "expected totals mismatch the cost report"),
    ),
    ("6x6", "drop"): ReconcileReport(
        False, inf, inf, inf, inf, None,
        ("row count 113 differs from recomputation 114",
         "trajectory 0 -> 0 is not realised in this ledger"),
    ),
    ("6x6", "repeat"): ReconcileReport(
        False, inf, inf, inf, inf, None,
        ("row count 115 differs from recomputation 114",
         "trajectory 0 -> 5 is not realised in this ledger"),
    ),
    ("6x6", "swap"): ReconcileReport(
        False, 5.551115123125783e-16, 4.440892098500626e-16, 1.1102230246251565e-16,
        5.551115123125783e-17, (4, 0, 0), ("row ordering diverges at step 4",),
    ),
}


@pytest.mark.parametrize("how", ["none", "shift", "nan", "drop", "repeat", "swap"])
def test_reconcile_reports_are_pinned(how):
    for name, sc, weights in pinned_scenarios():
        ledger = run_protocol(sc, weights)
        if how != "none":
            ledger = ProtocolLedger(tuple(tampered(ledger.rows, how)), ledger.layouts, ledger.warnings)
        # repr compares every float bit for bit, and NaN equal to NaN
        assert repr(reconcile(ledger, sc, weights)) == repr(PINNED_REPORTS[name, how])


class TestLedgerMemo:
    """``run_protocol`` builds a pair's columns once; every ledger is new."""

    def pair(self, seed=70):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng)
        return sc, make_weights(sc, rng.dirichlet(np.ones(sc.op.n_inputs)))

    def test_each_call_returns_a_new_ledger_over_the_same_columns(self):
        sc, w = self.pair()
        first, second = run_protocol(sc, w), run_protocol(sc, w)
        assert first is not second
        assert first.columns is second.columns
        assert first.rows == second.rows and first.rows is not second.rows

    def test_equal_content_in_new_objects_is_built_afresh(self):
        sc, w = self.pair()
        columns = run_protocol(sc, w).columns
        for other_sc, other_w in ((copy_scenario(sc), w), (sc, make_weights(sc, w.weights))):
            got = run_protocol(other_sc, other_w).columns
            assert got is not columns
            assert bits(got) == bits(columns)

    def test_reassigned_columns_are_checked_against_the_pairs_own(self):
        sc, w = self.pair()
        ledger = run_protocol(sc, w)
        columns = ledger.columns
        k = int(np.flatnonzero(columns.step == 7)[0])
        work = columns.work.copy()
        work[k] += 1e-3
        ledger.columns = columns._replace(work=work)
        report = reconcile(ledger, sc, w)
        assert not report.ok
        assert report.first_divergent_step == (7, None, int(columns.output[k]))
        # The memo keeps the true columns, and a new ledger over them reconciles.
        again = run_protocol(sc, w)
        assert again.columns is columns
        assert reconcile(again, sc, w).ok

    def test_columns_live_only_while_both_keys_live(self):
        sc, w = self.pair()
        work = weakref.ref(run_protocol(sc, w).columns.work)
        gc.collect()
        assert work() is not None
        del w
        gc.collect()
        assert work() is None

        w = make_weights(sc, sc.input_dist.probs)
        work = weakref.ref(run_protocol(sc, w).columns.work)
        del sc
        gc.collect()
        assert work() is None and w.weights.size > 0

    @pytest.mark.parametrize("clone", ["pickle", "copy", "deepcopy"])
    def test_a_copied_vector_starts_without_the_ledger(self, clone):
        sc, w = self.pair()
        columns = run_protocol(sc, w).columns
        twin = {
            "pickle": lambda: pickle.loads(pickle.dumps(w)),
            "copy": lambda: copy.copy(w),
            "deepcopy": lambda: copy.deepcopy(w),
        }[clone]()
        got = run_protocol(sc, twin).columns
        assert got is not columns
        assert bits(got) == bits(columns)
        assert run_protocol(sc, twin).columns is got

    def test_a_failed_build_raises_again(self):
        sc, _ = self.pair()
        raw = np.ones(sc.op.n_inputs)
        raw[0] = 0.0
        w = make_weights(sc, raw / raw.sum())
        for _ in range(2):
            with pytest.raises(ProtocolAbortError, match="zero weight"):
                run_protocol(sc, w)
        # The pair's report is still priced, once.
        assert expected_cost(sc, w) is expected_cost(sc, w)

    def test_threads_sharing_keys_get_the_cold_columns(self):
        scenarios = [random_scenario(np.random.default_rng(seed)) for seed in range(71, 79)]
        copies = [copy_scenario(sc) for sc in scenarios]
        want = [bits(run_protocol(sc, optimal_weights(sc)).columns) for sc in copies]
        got, errors = [], []

        def work():
            try:
                for sc in scenarios:
                    got.append((sc, run_protocol(sc, optimal_weights(sc)).columns))
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
        for sc, columns in got:
            assert bits(columns) == want[scenarios.index(sc)]


_LEDGER_CALLS = (
    "run_protocol", "reconcile", "trajectory_totals", "expected_totals", "expected_cost"
)
_VECTORS = ("optimal", "drawn", "foreign")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(STRUCTURES),
    dead_input=st.booleans(),
    zero_live_weight=st.booleans(),
    calls=st.lists(
        st.tuples(
            st.sampled_from(_LEDGER_CALLS), st.sampled_from(_VECTORS), st.sampled_from(_VECTORS)
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_shared_ledgers_are_the_cold_values(seed, structure, dead_input, zero_live_weight, calls):
    """Any interleaving of the ledger callers on shared scenario and weights
    gives what each call gives alone on fresh, equal copies.

    ``reconcile`` checks the ledger of its first vector against its second;
    a ``foreign`` vector was built for another scenario of the same shape.
    """
    sc = structured_scenario(seed, structure, dead_input)
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(sc.op.n_inputs))
    if zero_live_weight:
        raw[-1] = 0.0  # the last input is live, so the protocol aborts
    raw /= raw.sum()
    other = dataclasses.replace(sc, op=random_operation(rng, sc.op.n_inputs, sc.op.n_outputs))
    shared = {
        "optimal": optimal_weights(sc),
        "drawn": make_weights(sc, raw),
        "foreign": make_weights(other, rng.dirichlet(np.ones(sc.op.n_inputs))),
    }

    def call(name, scenario, weights, checked):
        try:
            if name == "expected_cost":
                return bits(expected_cost(scenario, weights))
            ledger = run_protocol(scenario, weights)
            if name == "run_protocol":
                return bits(ledger.columns), ledger.warnings
            if name == "reconcile":
                return bits(reconcile(ledger, scenario, checked))
            if name == "trajectory_totals":
                return bits(sorted(ledger.trajectory_totals().items()))
            return bits(ledger.expected_totals(scenario))
        except ProtocolAbortError as exc:  # compared by message
            return str(exc)

    def cold(w):
        return WeightVector(
            w.weights.copy(), w.output_weights.copy(), w.infinite_inputs, w.weight_independent
        )

    for name, which, checked in calls:
        fresh, colds = copy_scenario(sc), {key: cold(w) for key, w in shared.items()}
        got = call(name, sc, shared[which], shared[checked])
        assert got == call(name, fresh, colds[which], colds[checked]), (name, which, checked)
