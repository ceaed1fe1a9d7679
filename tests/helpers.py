"""Shared generators for randomised tests."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from hypothesis import strategies as st

from thermologic.costs import CostReport
from thermologic.logic import DiscreteDistribution, LogicalOperation
from thermologic.thermo import Scenario, StateThermo


def random_distribution(rng: np.random.Generator, n: int, floor: float = 0.02) -> DiscreteDistribution:
    p = rng.dirichlet(np.ones(n) * 2.0)
    p = np.clip(p, floor, None)
    return DiscreteDistribution(p / p.sum())


def random_operation(rng: np.random.Generator, n_in: int, n_out: int) -> LogicalOperation:
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    return LogicalOperation(rows)


def random_thermo(rng: np.random.Generator, n: int) -> tuple[StateThermo, ...]:
    return tuple(
        StateThermo(
            energy=rng.uniform(-1.0, 1.0),
            entropy=rng.uniform(0.0, 2.0),
            temperature=rng.uniform(0.5, 2.0),
        )
        for _ in range(n)
    )


def random_scenario(
    rng: np.random.Generator, max_states: int = 5, square: bool = False
) -> Scenario:
    n_in = int(rng.integers(2, max_states + 1))
    n_out = n_in if square else int(rng.integers(2, max_states + 1))
    return Scenario(
        input_dist=random_distribution(rng, n_in),
        op=random_operation(rng, n_in, n_out),
        input_thermo=random_thermo(rng, n_in),
        output_thermo=random_thermo(rng, n_out),
        reference_temperature=float(rng.uniform(0.5, 2.0)),
    )


def permutation_operation(perm: tuple[int, ...]) -> LogicalOperation:
    n = len(perm)
    m = np.zeros((n, n))
    for i, j in enumerate(perm):
        m[i, j] = 1.0
    return LogicalOperation(m)


STRUCTURES = ("dense", "sparse", "permutation", "reset")


def structured_scenario(seed: int, structure: str, dead_input: bool) -> Scenario:
    """A scenario of 3 to 6 inputs whose operation has one of ``STRUCTURES``.

    ``dead_input`` gives input 0 probability zero.
    """
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


def bits(value):
    """Every float of a result as ``float.hex`` and every array as its bytes, recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
        if isinstance(value, CostReport):
            fields.append(value.transitions)
        return type(value).__name__, tuple(bits(v) for v in fields)
    return repr(value)


def copy_scenario(sc):
    """An equal scenario that shares no array and no thermo table with ``sc``."""
    op = sc.op
    return Scenario(
        DiscreteDistribution(sc.input_dist.probs.copy()),
        LogicalOperation(
            op.matrix.copy(), input_labels=op.input_labels, output_labels=op.output_labels
        ),
        tuple(sc.input_thermo),
        tuple(sc.output_thermo),
        sc.reference_temperature,
        sc.units,
    )


# Values that sit on or just past the edges of the validation rules.
EDGE_VALUES = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324,
    -1e-12, -1e-10, -1e-8, 1.0 + 1e-10, 1.0 + 1e-8,
)


@st.composite
def edge_probability_arrays(draw, shape: str = "matrix"):
    """Rows that sum to one, some entries then set to an edge value, in one of five shapes.

    ``shape`` picks the shape most draws take (``"row"`` or ``"matrix"``);
    about one draw in four takes another: a scalar, a 3-d array or an
    empty array.  Zero entries keep their sign through the normalisation,
    so ``-0.0`` reaches the constructors.
    """
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    entry = st.sampled_from((0.0, -0.0)) | st.floats(0.0, 1.0)
    row = st.lists(entry, min_size=n_cols, max_size=n_cols)
    raw = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
    sums = raw.sum(axis=1, keepdims=True)
    table = np.where(sums > 0.0, raw / np.where(sums > 0.0, sums, 1.0), 1.0 / n_cols)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        table[i, j] = draw(st.sampled_from(EDGE_VALUES))
    kind = draw(st.sampled_from((shape,) * 6 + ("scalar", "cube", "empty")))
    if kind == "row":
        return table[0]
    if kind == "scalar":
        return draw(st.sampled_from((float(table[0, 0]), table[0, 0], table[:1, :1].reshape(()))))
    if kind == "cube":
        return table[None]
    if kind == "empty":
        return draw(st.sampled_from((np.empty(0), np.empty((0, n_cols)), [])))
    return table


def outcome(build):
    """The tuple ``build()`` returns, or the class and message of what it raises."""
    try:
        return build()
    except Exception as exc:  # compared class and message, not caught for recovery
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """Both raised the same class with the same message, or returned equal values.

    Arrays must match in dtype, shape and bytes (so the sign of a zero
    counts), and the returned ones must be read-only.
    """
    raised = isinstance(want[0], type)
    assert isinstance(got[0], type) == raised, (got, want)
    if raised:
        assert got == want
        return
    for new, ref in zip(got, want, strict=True):
        if isinstance(ref, np.ndarray):
            assert not new.flags.writeable
            assert (new.dtype, new.shape, new.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
        else:
            assert new == ref
