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

All values are immutable after construction and every function is pure:
their arrays are read-only.  A copy (``copy.copy`` or ``copy.deepcopy``)
or an unpickled value makes its arrays read-only again, and starts
without the memos kept by object.  A :class:`LogicalOperation` computes
two things once, on first access, and keeps them: its
:attr:`~LogicalOperation.classification` (what :func:`classify` returns)
and its :attr:`~LogicalOperation.support`, the read-only row-major
indices of its realisable transitions.  A :class:`DiscreteDistribution`
keeps, weakly keyed by the operation, what :func:`propagate`,
:func:`prune_zero_outputs` and :func:`bayes_invert` derive from an
(operation, distribution) pair, so each is built once per pair for as
long as both objects live (:func:`_once_per_pair`, which the cost layer
shares).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_ATOL = 1e-9

# The row-sum screen of LogicalOperation.  After the range check every entry
# lies in [-PROB_ATOL, 1 + PROB_ATOL], so the n entries x of a row have
# sum |x| <= sum x + 2 n PROB_ATOL, and their float sum, taken in any order, is
# off from the exact sum by at most about (n - 1) 2**-53 sum |x|.  For a float
# sum within _ROW_SCREEN_ATOL of 1 and n <= _SCREENED_WIDTH that error is below
# 1.2e-10, so the exact sum is within PROB_ATOL of 1 and math.fsum accepts the
# row too.  Wider rows are not screened.
_ROW_SCREEN_ATOL = PROB_ATOL / 2
_SCREENED_WIDTH = 2**20

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


def _frozen(value):
    """``value``, with every array in it or in the tuples, lists and dicts it holds made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _frozen(item)
    return value


class _Frozen:
    """Base of the values that hold arrays: unpickling and copying make them read-only again."""

    def __setstate__(self, state):
        self.__dict__.update(_frozen(state))


class _PairMemo(_Frozen):
    """A value that keeps what is derived from it and another object, weakly keyed by the other."""

    @cached_property
    def _per_pair(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()

    def __getstate__(self):
        # The memo holds weak references, which do not pickle; a copy starts empty.
        state = dict(self.__dict__)
        state.pop("_per_pair", None)
        return state


def _once_per_pair(key, holder: _PairMemo, build):
    """``build(key, holder)``, made once and kept by ``holder`` while both live.

    Each pair keeps one dict of builds, made before the first build runs,
    so a build may read another build of its pair.  A build that raises
    keeps nothing, so the next call raises again.  Threads that race on a
    pair may each build it; what they get is equal in content.  A kept
    value must not hold ``key``, or the entry would live as long as
    ``holder``.
    """
    made = holder._per_pair.get(key)
    if made is None:
        made = holder._per_pair[key] = {}
    if build not in made:
        made[build] = build(key, holder)
    return made[build]


def _in_unit_range(arr: np.ndarray) -> bool:
    """Every entry within ``PROB_ATOL`` of ``[0, 1]``; NaN fails, as min and max propagate it."""
    return bool(arr.min() >= -PROB_ATOL and arr.max() <= 1.0 + PROB_ATOL)


def _is_distribution(p: np.ndarray) -> bool:
    """Entries at least 0 whose ``fsum`` is within 1e-9 of 1; NaN fails the first, +inf the sum."""
    return bool((p >= 0.0).all()) and abs(math.fsum(p.ravel().tolist()) - 1.0) <= 1e-9


def _clipped(arr: np.ndarray) -> np.ndarray:
    """``arr`` clipped to ``[0, 1]`` in place and made read-only."""
    return _frozen(arr.clip(0.0, 1.0, out=arr))


def _index_labels(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(n)))


@dataclass(frozen=True, eq=False)
class DiscreteDistribution(_PairMemo):
    """Probability distribution over an ordered finite set of states.

    Entries must lie within ``PROB_ATOL`` of ``[0, 1]``; they are clipped
    to it, and the clipped entries must sum to one within ``PROB_ATOL``,
    so every accepted ``probs`` passes the same check again.  Construction
    is strict: out-of-tolerance input is rejected rather than
    renormalised, since silent renormalisation hides modelling bugs.
    Zero entries are legal; :meth:`pruned` drops them.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float, ndmin=1)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidDistributionError("distribution must be a non-empty vector")
        if not _in_unit_range(arr):
            raise InvalidDistributionError(f"probabilities outside [0, 1]: {arr.tolist()}")
        probs = _clipped(arr)
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > PROB_ATOL:
            raise InvalidDistributionError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", probs)

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
class LogicalOperation(_Frozen):
    """Row-stochastic conditional-probability map from inputs to outputs.

    ``matrix[i, j]`` is the probability that input state ``i`` yields
    output state ``j``.  Labels are opaque strings used only for
    reporting; index order is authoritative.

    Each row must sum to one within ``PROB_ATOL``, as :func:`math.fsum`
    of the row gives it.  One array sum screens the rows first: a row
    whose float sum lies within ``PROB_ATOL / 2`` of one passes, since
    rounding cannot move a sum of at most ``2**20`` entries that far.
    Every other row is decided by ``fsum``, in order, so the first row
    rejected and its message are those of an exact check of every row.
    """

    matrix: np.ndarray
    input_labels: tuple[str, ...] | None = None
    output_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float, ndmin=2)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidOperationError("operation matrix must be 2-d and non-empty")
        n_in, n_out = arr.shape
        in_labels = self.input_labels or _index_labels(n_in)
        out_labels = self.output_labels or _index_labels(n_out)
        if len(in_labels) != n_in or len(out_labels) != n_out:
            raise InvalidOperationError("label count does not match matrix shape")
        if not _in_unit_range(arr):
            raise InvalidOperationError("conditional probabilities outside [0, 1]")
        screen = _ROW_SCREEN_ATOL if n_out <= _SCREENED_WIDTH else -1.0  # -1: sum every row
        for i, rounded in enumerate(arr.sum(axis=1).tolist()):
            if abs(rounded - 1.0) <= screen:
                continue
            total = math.fsum(arr[i].tolist())
            if abs(total - 1.0) > PROB_ATOL:
                raise InvalidOperationError(
                    f"row for input '{in_labels[i]}' sums to {total!r}, expected 1"
                )
        object.__setattr__(self, "matrix", _clipped(arr))
        object.__setattr__(self, "input_labels", tuple(map(str, in_labels)))
        object.__setattr__(self, "output_labels", tuple(map(str, out_labels)))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def classification(self) -> "OperationClass":
        """What :func:`classify` reports, computed on first access."""
        rows, cols = self.support
        values = self.matrix[rows, cols]
        deterministic = bool(np.all((values <= PROB_ATOL) | (values >= 1.0 - PROB_ATOL)))
        reversible = bool(np.all(np.bincount(cols[values > PROB_ATOL]) <= 1))
        return OperationClass(deterministic=deterministic, reversible=reversible)

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(inputs, outputs)`` index arrays of the non-zero entries, row-major."""
        return _frozen(self.matrix.nonzero())


@dataclass(frozen=True, eq=False)
class JointDistribution(_Frozen):
    """Joint probability table over (input, output) pairs."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float, ndmin=2)
        if not (arr >= -PROB_ATOL).all():  # NaN fails too; +inf fails the sum below
            raise InvalidDistributionError("joint probabilities must be non-negative")
        total = math.fsum(arr.ravel().tolist())
        if abs(total - 1.0) > PROB_ATOL:
            raise InvalidDistributionError(f"joint probabilities sum to {total!r}")
        object.__setattr__(self, "matrix", _clipped(arr))

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
    return op.classification


def propagate(op: LogicalOperation, dist: DiscreteDistribution) -> DiscreteDistribution:
    """Apply an operation to an input distribution.

    Returns the output distribution ``out[j] = sum_i dist[i] * matrix[i, j]``.
    It is built once per (operation, distribution) pair and kept by
    ``dist`` while ``op`` lives: every later call on the pair, and
    :func:`prune_zero_outputs` and :func:`bayes_invert`, return or read
    the same object.
    """
    return _once_per_pair(op, dist, _propagated)


def _propagated(op: LogicalOperation, dist: DiscreteDistribution) -> DiscreteDistribution:
    if len(dist) != op.n_inputs:
        raise ArityMismatchError(
            f"distribution has {len(dist)} states, operation expects {op.n_inputs}"
        )
    return DiscreteDistribution(dist.probs @ op.matrix)


def bayes_invert(op: LogicalOperation, dist: DiscreteDistribution) -> LogicalOperation:
    """Posterior map from outputs back to inputs, for a given input distribution.

    Entry ``(j, i)`` of the result is ``dist[i] * matrix[i, j] / out[j]``.
    Raises :class:`ZeroProbabilityOutputError` if any output state has zero
    probability under ``dist`` (its posterior is undefined).  Like
    :func:`propagate`, it is built once per pair and kept by ``dist``.
    """
    return _once_per_pair(op, dist, _posterior)


def _posterior(op: LogicalOperation, dist: DiscreteDistribution) -> LogicalOperation:
    out = _once_per_pair(op, dist, _propagated)
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

    Returns the reduced operation and the retained output indices.  An
    input that never occurs may still reach a dropped output, and then its
    row no longer sums to one: that is rejected with a message naming the
    input, which :func:`prune_zero_inputs` drops first.  Like
    :func:`propagate`, the result is built once per pair and kept by
    ``dist``, so every call on the pair returns the same reduced operation.
    """
    reduced, keep = _once_per_pair(op, dist, _pruned_outputs)
    return (op if reduced is None else reduced), keep


def _pruned_outputs(op: LogicalOperation, dist: DiscreteDistribution):
    """:func:`prune_zero_outputs`, with ``None`` for an operation that keeps every output.

    The memo keeps no reference to ``op``, so its entry dies with ``op``.
    """
    out = _once_per_pair(op, dist, _propagated)
    keep = np.flatnonzero(out.probs > 0.0)
    if keep.size == 0:
        raise InvalidOperationError("all outputs have zero probability")
    if keep.size == op.n_outputs:
        return None, tuple(range(op.n_outputs))
    try:
        reduced = LogicalOperation(
            op.matrix[:, keep],
            input_labels=op.input_labels,
            output_labels=tuple(op.output_labels[j] for j in keep),
        )
    except InvalidOperationError as exc:
        reaching = np.flatnonzero(op.matrix[:, out.probs == 0.0].any(axis=1))
        if reaching.size == 0:
            raise
        labels = ", ".join(f"'{op.input_labels[i]}'" for i in reaching)
        raise InvalidOperationError(
            f"outputs with zero probability are reached from input(s) {labels}: dropping "
            "them leaves those rows short of 1; prune zero-probability inputs first "
            "(prune_zero_inputs)"
        ) from exc
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
