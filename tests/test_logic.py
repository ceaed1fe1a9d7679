import copy
import gc
import importlib
import inspect
import math
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_outcome,
    bits,
    edge_probability_arrays,
    outcome,
    permutation_operation,
    random_distribution,
    random_operation,
    random_scenario,
    random_thermo,
)
from thermologic import logic, quantum
from thermologic.boxprotocol import run_protocol
from thermologic.costs import (
    CostError,
    expected_cost,
    make_weights,
    minimax_weights,
    minimize_expected_work,
    optimal_weights,
)
from thermologic.cycles import (
    entropy_ledgers,
    partial_operation_cost,
    reverse_operation,
    uncertain_operation_cost,
)
from thermologic.logic import (
    PROB_ATOL,
    ArityMismatchError,
    DiscreteDistribution,
    InvalidDistributionError,
    InvalidOperationError,
    JointDistribution,
    LogicalOperation,
    OperationClass,
    ZeroProbabilityOutputError,
    bayes_invert,
    classify,
    compose,
    identity_op,
    idn,
    joint_distribution,
    not_op,
    one_bit,
    propagate,
    prune_zero_inputs,
    prune_zero_outputs,
    rnd,
    rtz,
    shannon_entropy,
    ufz,
)
from thermologic.thermo import Scenario, StateThermo


def dist_strategy(n):
    return st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
    ).map(lambda v: DiscreteDistribution(np.array(v) / np.sum(v)))


def op_strategy(n_in, n_out):
    return st.lists(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n_out, max_size=n_out),
        min_size=n_in,
        max_size=n_in,
    ).map(lambda rows: LogicalOperation(np.array(rows) / np.sum(rows, axis=1, keepdims=True)))


class TestValidation:
    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([0.5, 0.6])

    def test_distribution_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([-0.1, 1.1])

    def test_operation_rejects_bad_row(self):
        with pytest.raises(InvalidOperationError) as err:
            LogicalOperation([[0.5, 0.4], [0.5, 0.5]], input_labels=("a", "b"))
        assert "'a'" in str(err.value)

    def test_operation_rejects_entry_outside_unit_interval(self):
        with pytest.raises(InvalidOperationError):
            LogicalOperation([[1.5, -0.5]])

    def test_rectangular_operations_are_allowed(self):
        op = LogicalOperation([[0.2, 0.3, 0.5]])
        assert op.n_inputs == 1 and op.n_outputs == 3

    def test_values_are_immutable(self):
        op = idn()
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 0.3


class TestClassify:
    def test_not_is_deterministic_reversible(self):
        kind = classify(not_op())
        assert kind.deterministic and kind.reversible

    def test_rnd_is_indeterministic_irreversible(self):
        kind = classify(rnd(0.8))
        assert not kind.deterministic and not kind.reversible

    def test_identity_any_size(self):
        kind = classify(identity_op(5))
        assert kind.deterministic and kind.reversible

    def test_rtz_is_deterministic_irreversible(self):
        kind = classify(rtz())
        assert kind.deterministic and not kind.reversible

    def test_ufz_is_indeterministic_reversible(self):
        kind = classify(ufz(0.3))
        assert not kind.deterministic and kind.reversible


class TestPropagate:
    def test_rtz_sends_everything_to_zero(self):
        out = propagate(rtz(), DiscreteDistribution([0.3, 0.7]))
        assert np.allclose(out.probs, [1.0, 0.0])

    def test_identity_preserves(self):
        d = DiscreteDistribution([0.2, 0.5, 0.3])
        out = propagate(identity_op(3), d)
        assert np.allclose(out.probs, d.probs)

    def test_general_one_bit_mixes(self):
        out = propagate(one_bit(0.8, 0.6), DiscreteDistribution([0.3, 0.7]))
        assert out.probs[0] == pytest.approx(0.3 * 0.8 + 0.7 * 0.4, abs=1e-15)
        assert out.probs[1] == pytest.approx(0.3 * 0.2 + 0.7 * 0.6, abs=1e-15)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            propagate(idn(), DiscreteDistribution([1.0]))


class TestBayesInvert:
    def test_reset_posterior_recovers_prior(self):
        p = 0.3
        reduced, kept = prune_zero_outputs(rtz(), DiscreteDistribution([p, 1 - p]))
        assert kept == (0,)
        post = bayes_invert(reduced, DiscreteDistribution([p, 1 - p]))
        assert np.allclose(post.matrix, [[p, 1 - p]])

    def test_unpruned_reset_signals_dead_output(self):
        with pytest.raises(ZeroProbabilityOutputError) as err:
            bayes_invert(rtz(), DiscreteDistribution([0.3, 0.7]))
        assert err.value.labels == ("1",)

    def test_permutation_inverts_to_inverse_permutation(self):
        op = permutation_operation((2, 0, 1))
        post = bayes_invert(op, DiscreteDistribution([0.2, 0.3, 0.5]))
        assert np.allclose(post.matrix, op.matrix.T)

    def test_general_one_bit_quotient(self):
        post = bayes_invert(one_bit(0.8, 0.6), DiscreteDistribution([0.3, 0.7]))
        assert post.matrix[0, 0] == pytest.approx(0.24 / 0.52, abs=1e-12)


class TestEntropy:
    def test_fair_bit(self):
        assert shannon_entropy(DiscreteDistribution([0.5, 0.5])) == pytest.approx(1.0)

    def test_certainty(self):
        assert shannon_entropy(DiscreteDistribution([1.0])) == 0.0

    def test_quarter_split(self):
        # independent evaluation of -sum p log2 p
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert expected == pytest.approx(0.811278, abs=1e-6)
        value = shannon_entropy(DiscreteDistribution([0.25, 0.75]))
        assert value == pytest.approx(expected, abs=1e-15)


class TestCompose:
    def test_double_not_is_identity(self):
        assert np.allclose(compose(not_op(), not_op()).matrix, idn().matrix)

    def test_not_then_reset_is_reset(self):
        assert np.allclose(compose(not_op(), rtz()).matrix, rtz().matrix)

    def test_reset_then_split_randomises(self):
        p = 0.35
        out = compose(rtz(), rnd(p))
        assert np.allclose(out.matrix, rnd(p).matrix)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            compose(ufz(0.5), ufz(0.5))


class TestOneBitCatalogue:
    def test_reset_is_one_bit_1_0(self):
        assert np.allclose(rtz().matrix, [[1.0, 0.0], [1.0, 0.0]])

    def test_identity_is_one_bit_1_1(self):
        assert np.allclose(one_bit(1.0, 1.0).matrix, np.eye(2))

    def test_randomise_rows_are_equal(self):
        q = 0.65
        m = one_bit(q, 1.0 - q).matrix
        assert np.allclose(m[0], m[1])
        assert np.allclose(m[0], [q, 1.0 - q])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidOperationError):
            one_bit(1.2, 0.5)


@settings(max_examples=60, deadline=None)
@given(op=op_strategy(3, 3), d=dist_strategy(3))
def test_bayes_round_trip_restores_input(op, d):
    post = bayes_invert(op, d)
    back = propagate(post, propagate(op, d))
    assert np.max(np.abs(back.probs - d.probs)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(a=op_strategy(2, 3), b=op_strategy(3, 2), c=op_strategy(2, 4), d=dist_strategy(2))
def test_compose_is_associative(a, b, c, d):
    left = propagate(compose(compose(a, b), c), d)
    right = propagate(compose(a, compose(b, c)), d)
    assert np.max(np.abs(left.probs - right.probs)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(d=dist_strategy(4))
def test_deterministic_reversible_preserves_entropy(d):
    op = permutation_operation((1, 3, 0, 2))
    assert shannon_entropy(propagate(op, d)) == pytest.approx(
        shannon_entropy(d), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(d=dist_strategy(4))
def test_deterministic_irreversible_never_raises_entropy(d):
    merge = LogicalOperation([[1, 0], [1, 0], [0, 1], [0, 1]])
    assert shannon_entropy(propagate(merge, d)) <= shannon_entropy(d) + 1e-12


def test_reversibility_is_distribution_free():
    rng = np.random.default_rng(7)
    op = ufz(0.4)
    kinds = set()
    for _ in range(10):
        # classification never consults the distribution; sample a few anyway
        random_distribution(rng, op.n_inputs)
        kinds.add(classify(op))
    assert kinds == {classify(op)}


def test_joint_distribution_and_marginals():
    from thermologic.logic import joint_distribution

    d = DiscreteDistribution([0.3, 0.7])
    op = one_bit(0.8, 0.6)
    joint = joint_distribution(op, d)
    assert np.allclose(joint.matrix, [[0.24, 0.06], [0.28, 0.42]])
    assert np.allclose(joint.input_marginal.probs, d.probs)
    assert np.allclose(joint.output_marginal.probs, propagate(op, d).probs)


def test_prune_drops_only_dead_outputs():
    rng = np.random.default_rng(3)
    op = random_operation(rng, 3, 3)
    d = DiscreteDistribution([0.5, 0.5, 0.0])
    padded = LogicalOperation(
        np.column_stack([op.matrix[:, :2] / op.matrix[:, :2].sum(axis=1, keepdims=True), np.zeros(3)])
    )
    reduced, kept = prune_zero_outputs(padded, d)
    assert kept == (0, 1)
    assert reduced.n_outputs == 2


def test_a_dead_input_reaching_a_dead_output_is_named_and_pruned_first():
    """Input '0' never occurs, yet half its row goes to output '2', which never occurs."""
    op = LogicalOperation([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    d = DiscreteDistribution([0.0, 0.5, 0.5])
    with pytest.raises(ZeroProbabilityOutputError, match="prune them first"):
        bayes_invert(op, d)
    with pytest.raises(InvalidOperationError) as err:
        prune_zero_outputs(op, d)
    message = str(err.value)
    assert "input(s) '0'" in message and "prune_zero_inputs" in message
    assert "'1'" not in message and "'2'" not in message

    live_op, live_dist, kept_in = prune_zero_inputs(op, d)
    reduced, kept_out = prune_zero_outputs(live_op, live_dist)
    assert kept_in == (1, 2) and kept_out == (0, 1)
    assert reduced.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    rng = np.random.default_rng(4)
    reverse = reverse_operation(Scenario(d, op, random_thermo(rng, 3), random_thermo(rng, 3), 1.0))
    assert reverse.pruned_inputs == ("0",) and reverse.pruned_outputs == ("2",)
    assert reverse.operation.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def _reference_distribution(values):
    """The validation rules of DiscreteDistribution, written plainly, kept as the reference.

    The entries are clipped to [0, 1] before they are summed, so the sum
    checked is the sum of the probabilities kept.
    """
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidDistributionError("distribution must be a non-empty vector")
    if not ((arr >= -PROB_ATOL) & (arr <= 1.0 + PROB_ATOL)).all():
        raise InvalidDistributionError(f"probabilities outside [0, 1]: {arr.tolist()}")
    clipped = np.clip(arr, 0.0, 1.0)
    total = math.fsum(clipped.tolist())
    if abs(total - 1.0) > PROB_ATOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, expected 1")
    return (clipped,)


def _reference_operation(values, input_labels, output_labels):
    """The validation rules of LogicalOperation, written plainly, kept as the reference.

    Each row is clipped to [0, 1] before it is summed, so the sum checked
    is the sum of the row kept.
    """
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidOperationError("operation matrix must be 2-d and non-empty")
    n_in, n_out = arr.shape
    in_labels = input_labels or tuple(str(i) for i in range(n_in))
    out_labels = output_labels or tuple(str(i) for i in range(n_out))
    if len(in_labels) != n_in or len(out_labels) != n_out:
        raise InvalidOperationError("label count does not match matrix shape")
    if not ((arr >= -PROB_ATOL) & (arr <= 1.0 + PROB_ATOL)).all():
        raise InvalidOperationError("conditional probabilities outside [0, 1]")
    clipped = np.clip(arr, 0.0, 1.0)
    for i, row in enumerate(clipped):
        total = math.fsum(row.tolist())
        if abs(total - 1.0) > PROB_ATOL:
            raise InvalidOperationError(
                f"row for input '{in_labels[i]}' sums to {total!r}, expected 1"
            )
    return (
        clipped,
        tuple(str(s) for s in in_labels),
        tuple(str(s) for s in out_labels),
    )


def test_a_negative_entry_is_clipped_before_the_sum_is_checked():
    """The sum that decides is that of the clipped probabilities the distribution keeps.

    Summed as given, these entries are within ``PROB_ATOL`` of one; the
    kept ``[0, 0.5, 0.5 + 1.05e-9]`` are not, so the input is rejected
    here and not by a later check on the kept probabilities.
    """
    with pytest.raises(InvalidDistributionError, match=r"sum to 1\.00000000105, expected 1"):
        DiscreteDistribution([-1e-9, 0.5, 0.5 + 1.05e-9])
    kept = DiscreteDistribution([-0.5e-9, 0.5, 0.5 + 0.5e-9]).probs
    assert kept.tolist() == [0.0, 0.5, 0.5 + 0.5e-9]
    assert DiscreteDistribution(kept).probs.tobytes() == kept.tobytes()


@settings(max_examples=400, deadline=None)
@given(values=edge_probability_arrays("row"))
def test_distribution_validation_matches_the_reference_rules(values):
    got = outcome(lambda: (DiscreteDistribution(values).probs,))
    assert_same_outcome(got, outcome(lambda: _reference_distribution(values)))


@settings(max_examples=400, deadline=None)
@given(
    values=edge_probability_arrays("matrix"),
    labels=st.sampled_from(("none", "ints", "short")),
)
def test_operation_validation_matches_the_reference_rules(values, labels):
    shape = np.shape(values)
    n_in, n_out = shape if len(shape) == 2 else (1, 1)
    input_labels, output_labels = {
        "none": (None, None),
        "ints": (tuple(range(n_in)), tuple(range(10, 10 + n_out))),
        "short": (("a",) * (n_in - 1) or None, ("x",) * n_out),
    }[labels]

    def build():
        op = LogicalOperation(values, input_labels=input_labels, output_labels=output_labels)
        return op.matrix, op.input_labels, op.output_labels

    got = outcome(build)
    assert_same_outcome(got, outcome(lambda: _reference_operation(values, input_labels, output_labels)))


# Sums at the edges of the row check (1 +- PROB_ATOL) and of its screen (1 +- PROB_ATOL / 2).
SUM_EDGES = (PROB_ATOL, -PROB_ATOL, PROB_ATOL / 2, -PROB_ATOL / 2)


@st.composite
def edge_sum_rows(draw, n_cols):
    """A row of ``n_cols`` entries whose exact sum lies a few ulps from a sum edge.

    ``m`` equal shares carry the edge value less the pairs ``x, x`` of tiny
    entries, and the other entries are zeros, in a random order.  The
    pairs are non-negative, so clipping keeps them and the kept sum is the
    designed one.  The float sum of the shares is off from their exact sum
    by a few ulps, so the two often fall on opposite sides of the edge.
    """
    pairs = draw(st.lists(st.sampled_from((PROB_ATOL, 1e-12, 1e-17)), max_size=5))
    m = draw(st.integers(1, n_cols - 2 * len(pairs)))
    share = (1.0 + draw(st.sampled_from(SUM_EDGES)) - math.fsum(2 * x for x in pairs)) / m
    steps = draw(st.integers(-2, 1))  # the steps whose float and exact sums straddle most often
    for _ in range(abs(steps)):
        share = math.nextafter(share, math.copysign(1.0, steps))
    zero = draw(st.sampled_from((0.0, -0.0)))
    entries = [share] * m + [x for x in pairs for _ in range(2)]
    entries += [zero] * (n_cols - len(entries))
    draw(st.randoms(use_true_random=False)).shuffle(entries)
    return entries


@st.composite
def edge_sum_matrices(draw):
    """Up to four rows of 20 to 300 entries: edge-sum rows, all ``0.0``, all ``-0.0`` or uniform."""
    n_cols = draw(st.integers(20, 300))
    rows = [
        draw(
            edge_sum_rows(n_cols)
            | st.sampled_from(([0.0] * n_cols, [-0.0] * n_cols, [1.0 / n_cols] * n_cols))
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(values=edge_sum_matrices())
def test_row_screen_matches_the_reference_at_the_sum_edges(values):
    def build():
        op = LogicalOperation(values)
        return op.matrix, op.input_labels, op.output_labels

    assert_same_outcome(outcome(build), outcome(lambda: _reference_operation(values, None, None)))


def _matches_the_reference(values):
    try:
        assert_same_outcome(
            outcome(lambda: (LogicalOperation(values).matrix,)),
            outcome(lambda: _reference_operation(values, None, None)[:1]),
        )
    except AssertionError:
        return False
    return True


def test_row_screen_needs_its_margin_and_its_width_bound(monkeypatch):
    # With no margin the screen passes a row whose exact sum is outside PROB_ATOL ...
    monkeypatch.setattr(logic, "_ROW_SCREEN_ATOL", PROB_ATOL)
    mismatch = find(
        edge_sum_matrices(),
        lambda values: not _matches_the_reference(values),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )
    # ... and a row wider than _SCREENED_WIDTH is summed exactly, whatever the screen.
    monkeypatch.setattr(logic, "_SCREENED_WIDTH", mismatch.shape[1] - 1)
    assert _matches_the_reference(mismatch)


def test_operation_and_joint_rows_are_clipped_before_they_are_summed():
    """The sums that decide are those of the clipped entries each value keeps.

    As given, the first two tables are within ``PROB_ATOL`` of one; kept,
    they sum to 1.00000000105, so they are rejected here and not by a later
    check on the kept entries, such as the one ``propagate`` makes.  The
    last row is short of one as given and within ``PROB_ATOL`` once kept.
    """
    with pytest.raises(InvalidOperationError, match=r"'0' sums to 1\.00000000105, expected 1"):
        LogicalOperation([[-1e-9, 0.5, 0.5 + 1.05e-9]])
    with pytest.raises(InvalidDistributionError, match=r"joint .* sum to 1\.00000000105"):
        JointDistribution([[-1e-9, 0.5], [0.0, 0.5 + 1.05e-9]])
    op = LogicalOperation([[-1e-9, 0.5, 0.5 - 0.95e-9]])
    assert op.matrix.tolist() == [[0.0, 0.5, 0.5 - 0.95e-9]]
    assert propagate(op, DiscreteDistribution([1.0])).probs.tobytes() == op.matrix[0].tobytes()


def _flat_tables(n):
    return ((StateThermo(0.0, 0.0, 1.0),) * n,) * 2


def _flat_scenario(n):
    uniform = DiscreteDistribution(np.full(n, 1.0 / n))
    return Scenario(uniform, identity_op(n), *_flat_tables(n), 1.0)


def _accepted_distribution(values):
    p = np.asarray(values, dtype=float)
    if not logic._is_distribution(p):
        raise InvalidDistributionError("not a distribution")
    return p


# The five probability-sum checks, each returning the array it keeps.
SUM_CHECKS = {
    "DiscreteDistribution": lambda v: DiscreteDistribution(v).probs,
    "LogicalOperation": lambda v: LogicalOperation(v).matrix,
    "JointDistribution": lambda v: JointDistribution(v).matrix,
    "_is_distribution": _accepted_distribution,
    "make_weights": lambda v: make_weights(_flat_scenario(max(np.size(v), 1)), v).weights,
}


@st.composite
def dusted_edge_tables(draw):
    """One to four rows whose kept sums lie a few ulps from a sum edge, or from one.

    Each row also holds up to three entries of negative dust, which the
    sum as given sees and the kept sum does not.  Returned as a matrix,
    or as its first row.
    """
    n_cols = draw(st.integers(4, 8))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        dust = draw(
            st.lists(st.sampled_from((-PROB_ATOL, -PROB_ATOL / 2, -1e-12, -5e-324)), max_size=3)
        )
        m = draw(st.integers(1, n_cols - len(dust)))
        share = (1.0 + draw(st.sampled_from(SUM_EDGES + (0.0,)))) / m
        steps = draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            share = math.nextafter(share, math.copysign(1.0, steps))
        entries = [share] * m + dust + [0.0] * (n_cols - m - len(dust))
        draw(st.randoms(use_true_random=False)).shuffle(entries)
        rows.append(entries)
    return np.array(rows) if draw(st.booleans()) else np.array(rows[0])


@settings(max_examples=400, deadline=None)
@given(
    values=dusted_edge_tables()
    | edge_probability_arrays("row")
    | edge_probability_arrays("matrix")
)
def test_what_each_sum_check_accepts_it_accepts_again_bit_for_bit(values):
    for name, check in SUM_CHECKS.items():
        kept = outcome(lambda: (check(values),))
        if isinstance(kept[0], type):
            continue
        again = outcome(lambda: (check(kept[0]),))
        assert not isinstance(again[0], type), (name, values, again)
        assert (again[0].shape, again[0].tobytes()) == (kept[0].shape, kept[0].tobytes()), name


# Finite probabilities whose sum overflows a float: math.fsum raises OverflowError on them.
OVERFLOWING = [1e308, 1e308]


@pytest.mark.parametrize(
    "error, message, build",
    [
        (CostError, "weights sum to inf", lambda: make_weights(_flat_scenario(2), OVERFLOWING)),
        (
            InvalidDistributionError,
            r"joint probabilities outside \[0, 1\]",
            lambda: JointDistribution([OVERFLOWING]),
        ),
        (
            CostError,
            "branch probabilities",
            lambda: uncertain_operation_cost(
                [(not_op(), p) for p in OVERFLOWING],
                DiscreteDistribution([0.5, 0.5]),
                *_flat_tables(2),
            ),
        ),
        (
            CostError,
            "joint prior must be a probability table",
            lambda: partial_operation_cost(
                [OVERFLOWING, [0.0, 0.0]], not_op(), *_flat_tables(2)
            ),
        ),
        (
            quantum.SetupError,
            "input probabilities",
            lambda: quantum.default_setup(input_probs=OVERFLOWING),
        ),
        (
            quantum.SetupError,
            "target output probabilities",
            lambda: quantum.default_setup(target_output_probs=OVERFLOWING),
        ),
    ],
    ids=["make_weights", "JointDistribution", "branches", "joint-prior", "TrialSetup", "target"],
)
def test_a_sum_beyond_the_float_range_raises_each_checks_own_error(error, message, build):
    with pytest.raises(error, match=message):
        build()


def test_exact_sums_grow_linearly_on_permutations(monkeypatch):
    """``math.fsum`` reads O(n) entries to build, price, reverse and run an n-state permutation."""
    received = []
    fsum = math.fsum

    def counting_fsum(values):
        values = list(values)
        received.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    counts = []
    for n in (128, 256, 512, 1024, 2048):
        rng = np.random.default_rng(n)
        received.clear()
        matrix = np.zeros((n, n))
        matrix[np.arange(n), rng.permutation(n)] = 1.0
        op = LogicalOperation(matrix)
        scenario = Scenario(
            random_distribution(rng, n), op, random_thermo(rng, n), random_thermo(rng, n), 1.0
        )
        weights = optimal_weights(scenario)
        expected_cost(scenario, weights)
        reverse_operation(scenario)
        run_protocol(scenario, weights)
        counts.append(sum(received))
    assert all(b <= 2.5 * a for a, b in zip(counts, counts[1:])), counts


def test_stored_arrays_keep_the_sign_of_zero():
    assert np.signbit(DiscreteDistribution([-0.0, 1.0]).probs).tolist() == [True, False]
    assert np.signbit(LogicalOperation([[1.0, -0.0]]).matrix).tolist() == [[False, True]]


def test_operation_caches_its_classification_and_support():
    op = LogicalOperation([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    assert classify(op) is op.classification is classify(op)
    assert (op.classification.deterministic, op.classification.reversible) == (False, True)
    rows, cols = op.support
    assert op.support is op.support
    assert (rows.tolist(), cols.tolist()) == ([0, 0, 1], [0, 1, 2])
    for index in op.support:
        with pytest.raises(ValueError):
            index[0] = 1


@settings(max_examples=200, deadline=None)
@given(values=edge_probability_arrays("matrix"))
def test_classification_from_the_support_matches_the_dense_rule(values):
    try:
        op = LogicalOperation(values)
    except InvalidOperationError:
        return
    m = op.matrix
    dense = OperationClass(
        deterministic=bool(np.all((m <= PROB_ATOL) | (m >= 1.0 - PROB_ATOL))),
        reversible=bool(np.all(np.count_nonzero(m > PROB_ATOL, axis=0) <= 1)),
    )
    assert op.classification == dense


CLONES = {
    "pickle-2": lambda value: pickle.loads(pickle.dumps(value, protocol=2)),
    "pickle-5": lambda value: pickle.loads(pickle.dumps(value, protocol=5)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _reachable_arrays(value, seen):
    """Every ndarray reachable from ``value`` through package objects, tuples, lists and dicts."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
        return
    items = []
    if isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (tuple, list)):
        items = list(value)
    if type(value).__module__.startswith("thermologic."):
        items += list(getattr(value, "__dict__", {}).values())
    for item in items:
        yield from _reachable_arrays(item, seen)


def _array_values(seed):
    """One value of each type that holds arrays, with its cached values computed."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng)
    w = make_weights(sc, sc.input_dist.probs)
    report = expected_cost(sc, w)
    # Fill every cache first, so that the clones carry cached values too.
    report.transitions
    sc.op.classification
    ledger = entropy_ledgers(sc, optimal_weights(sc))
    ledger.individual
    protocol = run_protocol(sc, optimal_weights(sc))
    protocol.rows
    h = quantum.HamiltonianSpec(rng.uniform(-1.0, 1.0, 3))
    t_ref = float(rng.uniform(0.5, 2.0))
    rho = quantum.gibbs_state(h, t_ref)
    setup = quantum.default_setup(env_dim=2, reference_temperature=t_ref)
    trial = quantum.run_trials(setup, 1, seed).results[0]  # computes the setup's cached arrays
    return {
        "DiscreteDistribution": sc.input_dist,
        "LogicalOperation": sc.op,
        "JointDistribution": joint_distribution(sc.op, sc.input_dist),
        "WeightVector": w,
        "CostReport": report,
        "OptimizationResult": minimize_expected_work(sc, max_iterations=3, restarts=0),
        "minimax OptimizationResult": minimax_weights(sc, max_iterations=3),
        "Scenario": sc,
        "EntropyLedger": ledger,
        "ProtocolLedger": protocol,
        "DensityMatrix": rho,
        "HamiltonianSpec": h,
        "CanonicalizedState": quantum.canonicalize(rho, t_ref, 0.5),
        "TrialSetup": setup,
        "TrialResult": trial,
    }


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_clones_keep_every_array_read_only_and_price_alike(clone, seed):
    for name, value in _array_values(seed).items():
        arrays = list(_reachable_arrays(clone(value), set()))
        assert arrays, name
        writable = [a.shape for a in arrays if a.flags.writeable]
        assert not writable, (name, writable)

    sc = random_scenario(np.random.default_rng(seed))
    w = make_weights(sc, sc.input_dist.probs)
    report = expected_cost(sc, w)
    sc2, w2 = clone(sc), clone(w)
    again = expected_cost(sc2, w2)
    assert again is not report and bits(again) == bits(report)

    # A clone priced once must not be writable afterwards, or the memo would go stale.
    s3 = clone(sc)
    w3 = make_weights(s3, sc.input_dist.probs)
    expected_cost(s3, w3)
    with pytest.raises(ValueError, match="read-only"):
        s3.op.matrix[0] = s3.op.matrix[0][::-1].copy()
    with pytest.raises(ValueError, match="read-only"):
        s3.input_dist.probs[0] = 0.9


ARRAY_FIELD = re.compile(r"\b(np\.ndarray|TransitionColumns|EntropyColumns|LedgerColumns|StateArrays)\b")


def _array_holding_classes():
    """Each class of the six computing layers with a field annotated as an array or array columns.

    The column NamedTuples themselves are left out: they are the arrays'
    containers, and their holders freeze them.
    """
    for layer in ("logic", "thermo", "costs", "boxprotocol", "cycles", "quantum"):
        module = importlib.import_module(f"thermologic.{layer}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__ or issubclass(cls, tuple):
                continue
            fields = [str(a) for k in cls.__mro__ for a in inspect.get_annotations(k).values()]
            if any(ARRAY_FIELD.search(field) for field in fields):
                yield cls


def test_every_type_with_array_fields_is_frozen_and_cloned():
    holders = {cls.__name__: cls for cls in _array_holding_classes()}
    assert {"DiscreteDistribution", "CostReport", "EntropyLedger", "TrialResult"} <= holders.keys()
    assert [name for name, cls in holders.items() if not issubclass(cls, logic._Frozen)] == []
    # ... and the clone property above builds one of each.
    assert sorted(holders.keys() - _array_values(0).keys()) == []


def _pruned_pair():
    """A 3 -> 3 operation whose output 2 never occurs, and an input distribution for it."""
    op = LogicalOperation([[0.7, 0.3, 0.0], [0.0, 1.0, 0.0], [0.4, 0.6, 0.0]])
    return op, DiscreteDistribution([0.2, 0.5, 0.3])


def _fresh_pair(op, dist):
    """Equal content in new objects, which share no memo with ``op`` and ``dist``."""
    return LogicalOperation(op.matrix.copy()), DiscreteDistribution(dist.probs.copy())


def test_the_pair_memo_returns_what_fresh_calls_return():
    op, dist = _pruned_pair()
    out = propagate(op, dist)
    reduced, kept = prune_zero_outputs(op, dist)
    posterior = bayes_invert(reduced, dist)
    # Every later call on a pair returns the object built first.
    assert propagate(op, dist) is out
    assert prune_zero_outputs(op, dist) == (reduced, kept)
    assert prune_zero_outputs(op, dist)[0] is reduced
    assert bayes_invert(reduced, dist) is posterior
    # ... which is what a fresh pair of equal content gives.
    fresh_op, fresh_dist = _fresh_pair(op, dist)
    fresh_reduced, fresh_kept = prune_zero_outputs(fresh_op, fresh_dist)
    assert fresh_reduced is not reduced and fresh_kept == kept == (0, 1)
    assert bits(propagate(fresh_op, fresh_dist)) == bits(out)
    assert bits(fresh_reduced) == bits(reduced)
    assert bits(bayes_invert(fresh_reduced, fresh_dist)) == bits(posterior)
    # An operation that keeps every output is returned itself.
    assert prune_zero_outputs(reduced, dist) == (reduced, (0, 1))
    # A pair that raises keeps nothing and raises again.
    for _ in range(2):
        with pytest.raises(ZeroProbabilityOutputError):
            bayes_invert(op, dist)
        with pytest.raises(ArityMismatchError):
            propagate(op, DiscreteDistribution([0.5, 0.5]))


def test_each_pair_is_propagated_once_whichever_call_comes_first(monkeypatch):
    built = []
    real = logic._propagated

    def counted(op, dist):
        built.append(op)
        return real(op, dist)

    monkeypatch.setattr(logic, "_propagated", counted)
    op, dist = _pruned_pair()
    reduced, _ = prune_zero_outputs(op, dist)
    posterior = bayes_invert(reduced, dist)
    assert propagate(reduced, dist) is propagate(reduced, dist)
    propagate(op, dist)
    bayes_invert(reduced, dist)
    assert built == [op, reduced]
    assert bits(posterior) == bits(bayes_invert(*_fresh_pair(reduced, dist)))


def test_pair_memo_entries_die_with_the_operation():
    op, dist = _pruned_pair()
    reduced, _ = prune_zero_outputs(op, dist)
    values = [propagate(op, dist), reduced, bayes_invert(reduced, dist)]
    identity = identity_op(3)
    propagate(identity, dist)
    prune_zero_outputs(identity, dist)  # kept as "nothing pruned", without the operation
    refs = [weakref.ref(v) for v in (op, identity, *values)]
    assert len(dist._per_pair) == 3
    del op, identity, reduced, values
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    assert len(dist._per_pair) == 0


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_a_clone_starts_with_an_empty_pair_memo(clone):
    op, dist = _pruned_pair()
    reduced, _ = prune_zero_outputs(op, dist)
    out, posterior = propagate(op, dist), bayes_invert(reduced, dist)
    twin = clone(dist)
    assert "_per_pair" not in vars(twin)
    assert not twin.probs.flags.writeable
    assert propagate(op, twin) is not out and bits(propagate(op, twin)) == bits(out)
    assert prune_zero_outputs(op, twin)[0] is not reduced
    assert bits(bayes_invert(reduced, twin)) == bits(posterior)
    assert not twin.probs.flags.writeable and len(twin._per_pair) == 2
    assert propagate(op, dist) is out  # the original keeps its own memo
