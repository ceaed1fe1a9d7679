"""Probability algebra of finite stochastic logical operations.

A logical operation over finite state sets is a row-stochastic matrix of
conditional probabilities: entry ``(i, j)`` is the probability that input
state ``i`` produces output state ``j``.  The number of input and output
states need not match.  This module provides construction and validation
of such maps, their classification as deterministic and/or reversible,
propagation of input distributions, Bayes inversion, composition, Shannon
entropy, and the standard catalogue of one-bit operations (identity, NOT,
reset-to-zero, unset-from-zero, randomise, and the general one-bit map
they all specialise).

All values are immutable after construction and every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-9

__all__ = [
    "PROB_ATOL",
    "LogicError",
    "InvalidDistributionError",
    "InvalidOperationError",
    "ArityMismatchError",
    "ZeroProbabilityOutputError",
    "DiscreteDistribution",
    "LogicalOperation",
    "JointDistribution",
    "joint_distribution",
    "OperationClass",
    "classify",
    "propagate",
    "bayes_invert",
    "shannon_entropy",
    "compose",
    "prune_zero_outputs",
    "prune_zero_inputs",
    "one_bit",
    "identity_op",
    "idn",
    "not_op",
    "rtz",
    "ufz",
    "rnd",
]


class LogicError(ValueError):
    """Base class for probability-algebra errors."""


class InvalidDistributionError(LogicError):
    pass


class InvalidOperationError(LogicError):
    pass


class ArityMismatchError(LogicError):
    pass


class ZeroProbabilityOutputError(LogicError):
    """An output state that never occurs has no defined posterior.

    Carries the offending output labels; callers should prune those
    outputs (see :func:`prune_zero_outputs`) before inverting.
    """

    def __init__(self, labels):
        self.labels = tuple(labels)
        super().__init__(
            "outputs with zero probability have no posterior: "
            + ", ".join(self.labels)
            + "; prune them first"
        )


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _index_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability distribution over an ordered finite set of states.

    Entries must lie in ``[0, 1]`` and sum to one within ``PROB_ATOL``.
    Construction is strict: out-of-tolerance input is rejected rather than
    renormalised, since silent renormalisation hides modelling bugs.
    Zero entries are legal; :meth:`pruned` drops them.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidDistributionError("distribution must be a non-empty vector")
        if not ((arr >= -PROB_ATOL) & (arr <= 1.0 + PROB_ATOL)).all():  # NaN fails too
            raise InvalidDistributionError(f"probabilities outside [0, 1]: {arr.tolist()}")
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > PROB_ATOL:
            raise InvalidDistributionError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", _frozen_array(np.clip(arr, 0.0, 1.0)))

    def __len__(self) -> int:
        return self.probs.size

    def pruned(self) -> tuple["DiscreteDistribution", tuple[int, ...]]:
        """Drop zero-probability states.

        Returns the reduced distribution together with the retained
        indices (identity if nothing was dropped).
        """
        keep = np.flatnonzero(self.probs > 0.0)
        if keep.size == len(self):
            return self, tuple(range(len(self)))
        return DiscreteDistribution(self.probs[keep]), tuple(int(i) for i in keep)


@dataclass(frozen=True, eq=False)
class LogicalOperation:
    """Row-stochastic conditional-probability map from inputs to outputs.

    ``matrix[i, j]`` is the probability that input state ``i`` yields
    output state ``j``.  Labels are opaque strings used only for
    reporting; index order is authoritative.
    """

    matrix: np.ndarray
    input_labels: tuple[str, ...] | None = None
    output_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidOperationError("operation matrix must be 2-d and non-empty")
        n_in, n_out = arr.shape
        in_labels = self.input_labels or _index_labels(n_in)
        out_labels = self.output_labels or _index_labels(n_out)
        if len(in_labels) != n_in or len(out_labels) != n_out:
            raise InvalidOperationError("label count does not match matrix shape")
        if not ((arr >= -PROB_ATOL) & (arr <= 1.0 + PROB_ATOL)).all():  # NaN fails too
            raise InvalidOperationError("conditional probabilities outside [0, 1]")
        for i, row in enumerate(arr):
            total = math.fsum(row.tolist())
            if abs(total - 1.0) > PROB_ATOL:
                raise InvalidOperationError(
                    f"row for input '{in_labels[i]}' sums to {total!r}, expected 1"
                )
        object.__setattr__(self, "matrix", _frozen_array(np.clip(arr, 0.0, 1.0)))
        object.__setattr__(self, "input_labels", tuple(str(s) for s in in_labels))
        object.__setattr__(self, "output_labels", tuple(str(s) for s in out_labels))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probability table over (input, output) pairs."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if not (arr >= -PROB_ATOL).all():  # NaN fails too; +inf fails the sum below
            raise InvalidDistributionError("joint probabilities must be non-negative")
        total = math.fsum(arr.ravel().tolist())
        if abs(total - 1.0) > PROB_ATOL:
            raise InvalidDistributionError(f"joint probabilities sum to {total!r}")
        object.__setattr__(self, "matrix", _frozen_array(np.clip(arr, 0.0, 1.0)))

    @property
    def input_marginal(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.matrix.sum(axis=1))

    @property
    def output_marginal(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.matrix.sum(axis=0))


def joint_distribution(op: LogicalOperation, dist: DiscreteDistribution) -> JointDistribution:
    """Joint table ``P(input) * P(output | input)`` for an operation."""
    if len(dist) != op.n_inputs:
        raise ArityMismatchError("distribution arity does not match operation")
    return JointDistribution(dist.probs[:, None] * op.matrix)


@dataclass(frozen=True)
class OperationClass:
    """Determinism/reversibility classification of an operation."""

    deterministic: bool
    reversible: bool


def classify(op: LogicalOperation) -> OperationClass:
    """Classify an operation as deterministic and/or reversible.

    Deterministic: every conditional probability is 0 or 1.  Reversible:
    each output column has at most one nonzero entry, i.e. every output
    state identifies its input uniquely.  Both tests depend only on the
    matrix, never on an input distribution.
    """
    m = op.matrix
    deterministic = bool(np.all((m <= PROB_ATOL) | (m >= 1.0 - PROB_ATOL)))
    reversible = bool(np.all(np.count_nonzero(m > PROB_ATOL, axis=0) <= 1))
    return OperationClass(deterministic=deterministic, reversible=reversible)


def propagate(op: LogicalOperation, dist: DiscreteDistribution) -> DiscreteDistribution:
    """Apply an operation to an input distribution.

    Returns the output distribution ``out[j] = sum_i dist[i] * matrix[i, j]``.
    """
    if len(dist) != op.n_inputs:
        raise ArityMismatchError(
            f"distribution has {len(dist)} states, operation expects {op.n_inputs}"
        )
    return DiscreteDistribution(dist.probs @ op.matrix)


def bayes_invert(op: LogicalOperation, dist: DiscreteDistribution) -> LogicalOperation:
    """Posterior map from outputs back to inputs, for a given input distribution.

    Entry ``(j, i)`` of the result is ``dist[i] * matrix[i, j] / out[j]``.
    Raises :class:`ZeroProbabilityOutputError` if any output state has zero
    probability under ``dist`` (its posterior is undefined).
    """
    out = propagate(op, dist)
    dead = np.flatnonzero(out.probs == 0.0)
    if dead.size:
        raise ZeroProbabilityOutputError(op.output_labels[j] for j in dead)
    posterior = (dist.probs[:, None] * op.matrix / out.probs[None, :]).T
    return LogicalOperation(
        posterior, input_labels=op.output_labels, output_labels=op.input_labels
    )


def _logs(values: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.log`; ``np.log`` can differ from it in the last bit."""
    return np.fromiter(map(math.log, values.tolist()), dtype=float, count=values.size)


def _entropy_nats(probs: np.ndarray) -> float:
    return -math.fsum(p * math.log(p) for p in probs.tolist() if p > 0.0) + 0.0


def shannon_entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy of a distribution, in bits (0 log 0 = 0)."""
    return _entropy_nats(dist.probs) / math.log(2.0)


def compose(first: LogicalOperation, second: LogicalOperation) -> LogicalOperation:
    """Run ``first`` then ``second``; outputs of ``first`` feed ``second``."""
    if first.n_outputs != second.n_inputs:
        raise ArityMismatchError(
            f"first operation has {first.n_outputs} outputs, "
            f"second expects {second.n_inputs} inputs"
        )
    return LogicalOperation(
        first.matrix @ second.matrix,
        input_labels=first.input_labels,
        output_labels=second.output_labels,
    )


def prune_zero_outputs(
    op: LogicalOperation, dist: DiscreteDistribution
) -> tuple[LogicalOperation, tuple[int, ...]]:
    """Drop output states that have zero probability under ``dist``.

    Returns the reduced operation and the retained output indices.
    """
    out = propagate(op, dist)
    keep = np.flatnonzero(out.probs > 0.0)
    if keep.size == 0:
        raise InvalidOperationError("all outputs have zero probability")
    if keep.size == op.n_outputs:
        return op, tuple(range(op.n_outputs))
    reduced = LogicalOperation(
        op.matrix[:, keep],
        input_labels=op.input_labels,
        output_labels=tuple(op.output_labels[j] for j in keep),
    )
    return reduced, tuple(int(j) for j in keep)


def prune_zero_inputs(
    op: LogicalOperation, dist: DiscreteDistribution
) -> tuple[LogicalOperation, DiscreteDistribution, tuple[int, ...]]:
    """Drop input states that never occur under ``dist``.

    Returns the reduced operation, the reduced distribution and the
    retained input indices.
    """
    if len(dist) != op.n_inputs:
        raise ArityMismatchError("distribution arity does not match operation")
    reduced_dist, keep = dist.pruned()
    if len(keep) == op.n_inputs:
        return op, dist, keep
    reduced = LogicalOperation(
        op.matrix[list(keep), :],
        input_labels=tuple(op.input_labels[i] for i in keep),
        output_labels=op.output_labels,
    )
    return reduced, reduced_dist, keep


def one_bit(p00: float, p11: float) -> LogicalOperation:
    """General one-bit map with rows ``(p00, 1-p00)`` and ``(1-p11, p11)``.

    ``p00`` is the probability that input 0 stays 0, ``p11`` that input 1
    stays 1.  Every one-bit operation is a special case:
    ``one_bit(1, 1)`` is the identity, ``one_bit(0, 0)`` is NOT,
    ``one_bit(1, 0)`` resets to zero, and ``one_bit(q, 1-q)`` randomises
    to output probability ``q`` regardless of input.
    """
    for name, value in (("p00", p00), ("p11", p11)):
        if not 0.0 <= value <= 1.0:
            raise InvalidOperationError(f"{name} must be in [0, 1], got {value!r}")
    return LogicalOperation([[p00, 1.0 - p00], [1.0 - p11, p11]])


def identity_op(n: int = 2) -> LogicalOperation:
    """Do-nothing operation on ``n`` states."""
    if n < 1:
        raise InvalidOperationError("identity needs at least one state")
    return LogicalOperation(np.eye(n))


def idn() -> LogicalOperation:
    """One-bit do-nothing."""
    return one_bit(1.0, 1.0)


def not_op() -> LogicalOperation:
    """One-bit NOT."""
    return one_bit(0.0, 0.0)


def rtz() -> LogicalOperation:
    """Reset-to-zero: both inputs map to output 0 (output 1 is unreachable)."""
    return one_bit(1.0, 0.0)


def ufz(p: float) -> LogicalOperation:
    """Unset-from-zero: the single input 0 maps to 0 with probability ``p``.

    Written as a 1 x 2 map because input state 1 never occurs.  This is
    the row of the general one-bit map restricted to a certain input.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidOperationError(f"p must be in [0, 1], got {p!r}")
    return LogicalOperation([[p, 1.0 - p]], input_labels=("0",), output_labels=("0", "1"))


def rnd(p_prime: float) -> LogicalOperation:
    """Randomise: output 0 with probability ``p_prime`` regardless of input."""
    return one_bit(p_prime, 1.0 - p_prime)
