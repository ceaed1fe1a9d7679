"""Staged piston-and-partition implementation of a stochastic logical map.

The physical picture is a single particle confined to one of several
square-well partitions of a box; which partition holds the particle
encodes the logical state.  An arbitrary operation is implemented in nine
quasi-static stages, each evaluated in the ideal (slow, frictionless,
ideal-bath) limit:

1. deform each input well into a square well at its own temperature,
2. thermally isolate and resize adiabatically to the reference temperature,
3. in contact with the reference bath, move the inter-partition barriers
   so input state ``i`` occupies the fraction ``w[i]`` of the box,
4. insert sub-barriers splitting partition ``i`` in proportion to the
   conditional probabilities of its outputs (the indeterministic stage),
5. rearrange sub-partitions so that equal outputs are adjacent (costless
   relabel),
6. remove the internal barriers of each output partition (the
   irreversible stage, free but entropy-raising),
7. isothermally resize each output partition to the width matching its
   target entropy,
8. isolate and resize adiabatically to the output temperature,
9. deform each square well into the final output potential.

Per-branch work and heat follow two rules: an isothermal width change
``d0 -> d1`` at temperature ``T`` costs work ``k T ln(d0 / d1)`` and
deposits the same amount of heat in the bath, while an adiabatic change
trades work for internal energy with no heat at all.  Barrier insertion,
removal and rearrangement cost nothing on average.  Summed along a
trajectory the stages reproduce the closed-form transition costs of
:mod:`thermologic.costs`; :func:`reconcile` checks exactly that.

Each well is treated as a square well in the high-temperature regime, so the
energy a row records at steps 1-8 is ``k T / 2`` at that row's
temperature; step 9 records the output state's own energy.  The ledger
stores its rows as columns (:class:`LedgerColumns`), built with array
expressions in the scalar order of operations, and warns for each well of
steps 1-4 and 6-8 outside that regime (steps 5 and 9 keep the wells of
steps 4 and 8).  The columns of a (scenario, weights) pair are built once
and kept by the weights, so :func:`reconcile` compares a ledger with them
without running the stages again.  A ledger's rows are built in one pass
from its columns.  :meth:`ProtocolLedger.trajectory_totals` still walks
:meth:`~ProtocolLedger.branch_rows` once per branch on every call, which
the benchmark's ``boxprotocol.rows_scanned`` count assumes.
:func:`squarewell_props` gives the exact level sums, with no truncation
at any width, as a validity oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .costs import WeightVector, expected_cost
from .logic import _Frozen, _frozen, _logs, _once_per_pair
from .thermo import NATURAL_UNITS, Scenario, UnitSystem

HIGH_TEMPERATURE_MARGIN = 10.0
DUAL_TERMS = 5  # b <= 1: the first term left out, e^{-36 pi^2 / b}, is below e^{-355}
DIRECT_TERMS = 40  # b > 1: the first term left out, e^{-1680 b}, is below e^{-1680}
# The b = E_1 / kT that the level sums represent: past either end a term of one
# series overflows.  The factor 2 leaves room for rounding.
SPACING_RANGE = (
    2.0 * math.pi**2 * DUAL_TERMS**2 / sys.float_info.max,
    sys.float_info.max / (2.0 * (DIRECT_TERMS**2 - 1)),
)
RECONCILE_TOL = 1e-9  # reconcile: trajectory and expected totals against the closed forms
RECONCILE_STEP_TOL = 1e-12  # reconcile: each row against its recomputation

__all__ = [
    "ProtocolAbortError",
    "SquareWell",
    "WellProperties",
    "squarewell_props",
    "zero_entropy_width",
    "width_for_entropy",
    "entropy_for_width",
    "BoxLayout",
    "LedgerRow",
    "LedgerColumns",
    "ProtocolLedger",
    "run_protocol",
    "ReconcileReport",
    "reconcile",
]


class ProtocolAbortError(RuntimeError):
    """The requested layout could trap the particle in a vanishing partition."""


def zero_entropy_width(temperature: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """Width at which a square well in thermal equilibrium holds zero entropy.

    Raises ``ValueError`` where that width is not a finite positive float,
    as when ``hbar**2`` overflows or the denominator underflows.
    """
    try:
        width = math.sqrt(
            math.pi * units.hbar**2 / (2.0 * math.e * units.mass * units.k_B * temperature)
        )
    except (OverflowError, ZeroDivisionError):  # hbar**2 overflows, or the denominator is 0
        width = math.nan
    if not 0.0 < width < math.inf:
        raise ValueError(
            f"the zero-entropy width at temperature {temperature!r} with {units} is not a "
            "finite positive float"
        )
    return width


def width_for_entropy(entropy: float, temperature: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """Width whose equilibrium entropy (units of k_B) is ``entropy``."""
    return zero_entropy_width(temperature, units) * math.exp(entropy)


def entropy_for_width(width: float, temperature: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """Equilibrium entropy (units of k_B) of a square well of given width."""
    return math.log(width / zero_entropy_width(temperature, units))


def _high_temperature_ok(width_squared: float, temperature: float, units: UnitSystem) -> bool:
    threshold = (
        HIGH_TEMPERATURE_MARGIN
        * math.pi
        * units.hbar**2
        / (2.0 * math.e * units.mass * width_squared)
    )
    return units.k_B * temperature >= threshold


@dataclass(frozen=True)
class SquareWell:
    """Infinite square well holding one particle in thermal equilibrium."""

    width: float
    temperature: float
    units: UnitSystem = NATURAL_UNITS

    def __post_init__(self):
        if not (0.0 < self.width < math.inf and 0.0 < self.temperature < math.inf):
            raise ValueError("width and temperature must be finite and positive")

    @property
    def ground_energy(self) -> float:
        return self.units.hbar**2 * math.pi**2 / (8.0 * self.units.mass * self._width_squared)

    @property
    def high_temperature_ok(self) -> bool:
        return _high_temperature_ok(self._width_squared, self.temperature, self.units)

    @property
    def _width_squared(self) -> float:
        """``width**2``; ``ValueError`` where that is not a finite positive float."""
        try:
            squared = self.width**2
        except OverflowError:  # float ** raises where float * gives inf
            squared = math.inf
        if not 0.0 < squared < math.inf:
            raise ValueError(
                f"width {self.width!r} is outside the range whose square is a finite "
                "positive float"
            )
        return squared


@dataclass(frozen=True)
class WellProperties:
    """Exact and high-temperature equilibrium properties."""

    energy: float
    entropy: float
    energy_high_t: float
    entropy_high_t: float
    high_temperature_ok: bool


def _level_sums(b: float) -> tuple[float, float]:
    """Mean energy (units of kT) and entropy (units of k) of levels ``b n^2``, n >= 1.

    Small ``b`` uses Jacobi's imaginary transformation of theta_3 (Poisson
    summation; DLMF chapter 20): with ``q_k = e^{-pi^2 k^2 / b}`` and
    ``x = sqrt(b / pi)``, ``Z = (theta / x - 1) / 2`` where
    ``theta = 1 + 2 sum_k q_k``, and the mean energy ``-b d(ln Z)/db`` is
    ``(theta - 4 pi^2 / b sum_k k^2 q_k) / (2 (theta - x))``.  Large ``b``
    sums the levels directly, relative to the ground state, so that no
    weight underflows and the entropy of a nearly frozen well is not a
    difference of two close numbers.  Both series are exact to rounding.
    """
    if b <= 1.0:
        k = np.arange(1, DUAL_TERMS + 1, dtype=float)
        q = np.exp(-math.pi**2 * k**2 / b)
        x = math.sqrt(b / math.pi)
        theta = 1.0 + 2.0 * math.fsum(q.tolist())
        curvature = theta - 4.0 * math.pi**2 * math.fsum((k**2 * q).tolist()) / b
        energy = curvature / (2.0 * (theta - x))
        return energy, energy + math.log(0.5 * (theta / x - 1.0))
    excess = np.arange(1, DIRECT_TERMS + 1, dtype=float) ** 2 - 1.0  # n^2 - 1
    shifted = np.exp(-b * excess)
    z_shifted = math.fsum(shifted.tolist())  # Z e^{b}
    excess_energy = b * math.fsum((excess * shifted).tolist()) / z_shifted
    return b + excess_energy, excess_energy + math.log(z_shifted)


def squarewell_props(
    width: float, temperature: float, units: UnitSystem = NATURAL_UNITS
) -> WellProperties:
    """Equilibrium mean energy and entropy of a square well.

    The exact values sum the levels ``E_n = n^2 E_1`` in constant time at
    every width (:func:`_level_sums`); nothing is truncated.  The
    high-temperature forms are ``k T / 2`` and ``k ln(width / d0)`` with
    ``d0`` the zero-entropy width.  The validity flag marks whether the
    high-temperature regime applies at all.

    Raises ``ValueError`` for a width or temperature that :class:`SquareWell`
    rejects, and for a finite one whose ``b = E_1 / kT`` lies outside
    :data:`SPACING_RANGE` or whose high-temperature entropy is not a finite
    float; nothing is summed then.
    """
    well = SquareWell(width, temperature, units)
    k = units.k_B
    try:
        b = well.ground_energy / (k * temperature)
        entropy_high_t = entropy_for_width(width, temperature, units)
    except (ArithmeticError, ValueError):  # width**2 or a product left the float range
        b = entropy_high_t = math.nan
    if not (SPACING_RANGE[0] <= b <= SPACING_RANGE[1] and math.isfinite(entropy_high_t)):
        raise ValueError(
            f"width {width!r} at temperature {temperature!r} is outside the range "
            "that the level sums represent"
        )
    energy_kt, entropy = _level_sums(b)
    return WellProperties(
        energy=k * temperature * energy_kt,
        entropy=entropy,
        energy_high_t=0.5 * k * temperature,
        entropy_high_t=entropy_high_t,
        high_temperature_ok=well.high_temperature_ok,
    )


@dataclass(frozen=True)
class LedgerRow:
    """State after one stage, conditional on the branch, plus that stage's cost."""

    step: int
    input_index: int | None
    output_index: int | None
    width: float
    energy: float
    entropy: float
    temperature: float
    work: float
    heat: float


class LedgerColumns(NamedTuple):
    """A ledger's rows, one read-only array per field; a missing index is -1."""

    step: np.ndarray
    input: np.ndarray
    output: np.ndarray
    width: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    temperature: np.ndarray
    work: np.ndarray
    heat: np.ndarray


def _columns(table) -> LedgerColumns:
    """Columns of an ``(n, 9)`` table of row fields in :class:`LedgerRow` order."""
    table = np.reshape(table, (-1, 9)).T
    return LedgerColumns(*_frozen(table[:3].astype(int)), *_frozen(table[3:].astype(float)))


@dataclass(frozen=True)
class BoxLayout:
    """The box at one stage: that stage's ledger rows, in box order.

    Each row is one partition, read through its ``input_index``,
    ``output_index`` and ``width``; removed partitions are absent.
    """

    partitions: tuple[LedgerRow, ...]

    @property
    def total_width(self) -> float:
        return math.fsum(p.width for p in self.partitions)


class ProtocolLedger(_Frozen):
    """The rows of one run, stored as :class:`LedgerColumns`.

    ``ProtocolLedger(rows, layouts, warnings)`` is the one constructor: it
    keeps what it is given and derives the columns from the rows, so a
    tampered row reaches every check.  :func:`run_protocol` stores columns
    only; ``rows``, ``layouts`` and ``warnings`` are views built on first
    access.  Trajectory ``i -> j`` joins input ``i`` (steps 1-3), branch
    ``(i, j)`` (steps 4-5) and output ``j`` (steps 6-9, no input index).
    """

    columns: LedgerColumns

    def __init__(self, rows, layouts, warnings):
        self.__dict__.update(rows=tuple(rows), layouts=tuple(layouts), warnings=tuple(warnings))
        self.columns = _columns([[-1 if v is None else v for v in vars(r).values()] for r in rows])

    @classmethod
    def _of_columns(cls, columns: LedgerColumns, scenario: Scenario) -> ProtocolLedger:
        ledger = cls.__new__(cls)
        ledger.columns, ledger._scenario = columns, scenario
        return ledger

    @cached_property
    def rows(self) -> tuple[LedgerRow, ...]:
        """The rows, built in one pass over the columns.

        Each frozen row is made as ``copy`` and ``pickle`` restore one: a
        bare instance given its field dict, here item by item in field
        order, so that the dict shares the class's key table as an
        ``__init__``-built row's does.  ``LedgerRow`` has no
        ``__post_init__``, so this skips no check.
        """
        c = self.columns
        inputs = [None if i < 0 else i for i in c.input.tolist()]
        outputs = [None if j < 0 else j for j in c.output.tolist()]
        new = object.__new__
        rows = []
        for step, i, j, width, energy, entropy, temperature, work, heat in zip(
            c.step.tolist(), inputs, outputs, *(column.tolist() for column in c[3:])
        ):
            row = new(LedgerRow)
            f = row.__dict__
            f["step"], f["input_index"], f["output_index"] = step, i, j
            f["width"], f["energy"], f["entropy"] = width, energy, entropy
            f["temperature"], f["work"], f["heat"] = temperature, work, heat
            rows.append(row)
        return tuple(rows)

    @cached_property
    def layouts(self) -> tuple[tuple[int, BoxLayout], ...]:
        """Stages 1-8 with their own rows; stage 5 by (output, input), equal outputs together."""
        stages = {step: [r for r in self.rows if r.step == step] for step in range(1, 9)}
        stages[5].sort(key=lambda r: (r.output_index, r.input_index))
        return tuple((step, BoxLayout(tuple(stage))) for step, stage in stages.items())

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        """One warning per well outside the high-temperature regime, sorted."""
        c, op = self.columns, self._scenario.op
        checked = np.flatnonzero((c.step != 5) & (c.step != 9) & (c.width > 0.0))
        ok = _high_temperature_ok(
            c.width[checked] ** 2, c.temperature[checked], self._scenario.units
        )
        flagged = [column[checked[~ok]].tolist() for column in c[:4] + (c.temperature,)]
        warnings = set()
        for step, i, j, width, temperature in zip(*flagged):
            if j < 0:
                branch = f"input {op.input_labels[i]}"
            elif i < 0:
                branch = f"output {op.output_labels[j]}"
            else:
                branch = f"branch {op.input_labels[i]}->{op.output_labels[j]}"
            warnings.add(
                f"step {step}: high-temperature approximation unreliable for {branch} "
                f"(width {width:.6g}, T {temperature:.6g})"
            )
        return tuple(sorted(warnings))

    def layout(self, step: int) -> BoxLayout:
        """The box at stage ``step``; a step outside 1-8 raises ``KeyError``."""
        if step not in range(1, 9):
            raise KeyError(step)
        return self.layouts[step - 1][1]

    @cached_property
    def _legs(self) -> tuple[dict, dict, dict]:
        inputs, branches, outputs = {}, {}, {}
        for row in self.rows:
            if row.step <= 3:
                inputs.setdefault(row.input_index, []).append(row)
            elif row.step <= 5:
                branches.setdefault((row.input_index, row.output_index), []).append(row)
            elif row.input_index is None:
                outputs.setdefault(row.output_index, []).append(row)
        return inputs, branches, outputs

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        """The branch keys of :attr:`_legs`, sorted."""
        return tuple(sorted(self._legs[1]))

    def branch_rows(self, input_index: int, output_index: int) -> tuple[LedgerRow, ...]:
        inputs, branches, outputs = self._legs
        return (
            *inputs.get(input_index, ()),
            *branches.get((input_index, output_index), ()),
            *outputs.get(output_index, ()),
        )

    def branch_total(self, input_index: int, output_index: int) -> tuple[float, float]:
        """Total (work, heat) along the trajectory input -> output."""
        rows = self.branch_rows(input_index, output_index)
        if len(rows) != 9:
            raise KeyError(
                f"trajectory {input_index} -> {output_index} is not realised in this ledger"
            )
        return math.fsum([r.work for r in rows]), math.fsum([r.heat for r in rows])

    def trajectory_totals(self) -> dict[tuple[int, int], tuple[float, float]]:
        return {pair: self.branch_total(*pair) for pair in self._pairs}

    def expected_totals(self, scenario: Scenario) -> tuple[float, float]:
        """Expectation of the trajectory totals over the joint distribution."""
        totals = self.trajectory_totals()
        ii, jj = np.array(list(totals), dtype=int).reshape(-1, 2).T
        joint = (scenario.input_dist.probs[ii] * scenario.op.matrix[ii, jj]).tolist()
        return (
            math.fsum([p * work for p, (work, _) in zip(joint, totals.values())]),
            math.fsum([p * heat for p, (_, heat) in zip(joint, totals.values())]),
        )


def run_protocol(scenario: Scenario, weights: WeightVector) -> ProtocolLedger:
    """Drive the nine-stage implementation and record the full ledger.

    Both arguments are immutable, so the columns are built once per pair
    and kept by ``weights`` for as long as both live, as
    :func:`~thermologic.costs.expected_cost` keeps its report.  Each call
    returns a new ledger over them, with its own ``rows``, ``layouts`` and
    ``warnings``.
    """
    return ProtocolLedger._of_columns(_once_per_pair(scenario, weights, _ledger_columns), scenario)


def _ledger_columns(scenario: Scenario, weights: WeightVector) -> LedgerColumns:
    w_in = weights.weights
    w_out = weights.output_weights
    p_in = scenario.input_dist.probs
    matrix = scenario.op.matrix
    units = scenario.units
    k = units.k_B
    t_ref = scenario.reference_temperature
    d0 = zero_entropy_width(t_ref, units)  # shared by every well at T_R

    blocked = np.flatnonzero((w_in == 0.0) & (p_in > 0.0))
    if blocked.size:
        labels = ", ".join(scenario.op.input_labels[i] for i in blocked)
        raise ProtocolAbortError(
            f"cannot compress inputs with zero weight that may be occupied: {labels}"
        )

    fields: list[float] = []  # of the rows of steps 1-3 and 6-9, in turn; an absent index is -1

    def add(step, i, j, width, temperature, entropy, work=0.0, heat=0.0, energy=None):
        if energy is None:  # a square well in the high-temperature regime
            energy = 0.5 * k * temperature
        fields.extend((step, i, j, width, energy, entropy, temperature, work, heat))

    d2 = []
    for i, st in enumerate(scenario.input_thermo):
        d1 = width_for_entropy(st.entropy, st.temperature, units)
        d2.append(d0 * math.exp(st.entropy))
        add(1, i, -1, d1, st.temperature, st.entropy, work=0.5 * k * st.temperature - st.energy)
        add(2, i, -1, d2[i], t_ref, st.entropy, work=0.5 * k * (t_ref - st.temperature))

    total_width = math.fsum(d2)
    for i in np.flatnonzero(w_in).tolist():  # a zero-weight input is compressed away
        d3 = w_in[i] * total_width
        iso = k * t_ref * math.log(d2[i] / d3)
        add(3, i, -1, d3, t_ref, math.log(d3 / d0), iso, iso)

    # Steps 4 and 5: a pair of rows per branch of a live input, in row-major order.
    rows, cols = scenario.op.support
    live = w_in[rows] != 0.0
    ii, jj = rows[live], cols[live]
    width = matrix[ii, jj] * w_in[ii] * total_width
    branches = np.zeros((2 * ii.size, 9))
    branches[:, [0, 4, 6]] = (4.0, 0.5 * k * t_ref, t_ref)
    branches[1::2, 0] = 5.0
    entropy = _logs(width / d0)
    branches[:, [1, 2, 3, 5]] = np.repeat(np.column_stack((ii, jj, width, entropy)), 2, axis=0)
    split = len(fields) // 9

    for j in np.flatnonzero(w_out).tolist():  # an unreachable output has no partition
        st = scenario.output_thermo[j]
        d6 = w_out[j] * total_width
        d7 = d0 * math.exp(st.entropy)
        d8 = d7 * math.sqrt(t_ref / st.temperature)
        iso = k * t_ref * math.log(d6 / d7)
        add(6, -1, j, d6, t_ref, math.log(d6 / d0))
        add(7, -1, j, d7, t_ref, st.entropy, iso, iso)
        add(8, -1, j, d8, st.temperature, st.entropy, work=0.5 * k * (st.temperature - t_ref))
        add(9, -1, j, d8, st.temperature, st.entropy,
            work=st.energy - 0.5 * k * st.temperature, energy=st.energy)

    table = np.insert(np.reshape(fields, (-1, 9)), split, branches, axis=0)
    return _columns(table)


@dataclass(frozen=True)
class ReconcileReport:
    ok: bool
    max_work_mismatch: float
    max_heat_mismatch: float
    expected_work_mismatch: float
    expected_heat_mismatch: float
    first_divergent_step: tuple[int, int | None, int | None] | None
    messages: tuple[str, ...]


def reconcile(
    ledger: ProtocolLedger, scenario: Scenario, weights: WeightVector
) -> ReconcileReport:
    """Check a ledger against the pair's own columns and the closed forms.

    The ledger is compared column by column with the pair's columns, made
    once per pair (see :func:`run_protocol`), and the first row that
    differs is located (catching injected or corrupted stages).  Then the
    trajectory totals are compared against the expected-cost report's
    per-transition closed forms and the expectation against its expected
    work and heat.

    Weights that put zero on an input the scenario may occupy raise
    :class:`ProtocolAbortError` from :func:`run_protocol`, so the expected
    cost compared here is always finite.  A transition can still be
    unbounded in the closed forms when the ledger was built with other
    weights than ``weights`` and those zero an unoccupied input; that
    trajectory is reported, not compared.
    """
    messages: list[str] = []
    first_divergence = None

    got, want = ledger.columns, run_protocol(scenario, weights).columns
    if got.step.size != want.step.size:
        messages.append(f"row count {got.step.size} differs from recomputation {want.step.size}")
    else:
        moved = (got.step != want.step) | (got.input != want.input) | (got.output != want.output)
        close = [  # NaN is not close
            abs(getattr(got, field) - getattr(want, field)) <= RECONCILE_STEP_TOL
            for field in ("work", "heat", "width")
        ]
        diverged = np.flatnonzero(moved | ~(close[0] & close[1] & close[2]))
        if diverged.size:
            step, i, j = (int(column[diverged[0]]) for column in want[:3])
            first_divergence = (step, None if i < 0 else i, None if j < 0 else j)
            messages.append(
                f"row ordering diverges at step {step}" if moved[diverged[0]] else
                "step {} branch ({}, {}) diverges from recomputation".format(*first_divergence)
            )

    report = expected_cost(scenario, weights)
    inputs, outputs, _, closed_work, closed_heat, finite = (c.tolist() for c in report.columns)
    position = {pair: n for n, pair in enumerate(zip(inputs, outputs))}
    try:
        totals = ledger.trajectory_totals()
        got_work, got_heat = ledger.expected_totals(scenario)
    except KeyError as exc:  # a trajectory misses or repeats a row
        messages.append(exc.args[0])
        return ReconcileReport(
            False, math.inf, math.inf, math.inf, math.inf, first_divergence, tuple(messages)
        )
    work_residuals = [0.0]
    heat_residuals = [0.0]
    for (i, j), (work, heat) in totals.items():
        n = position.get((i, j))
        if n is None:
            messages.append(f"trajectory ({i}, {j}) is not a realisable transition")
            continue
        if not finite[n]:
            messages.append(f"trajectory ({i}, {j}) has unbounded closed-form cost")
            continue
        work_residuals.append(abs(work - closed_work[n]))
        heat_residuals.append(abs(heat - closed_heat[n]))
    # np.max keeps a NaN residual, which the builtin max would drop.
    max_work = float(np.max(work_residuals))
    max_heat = float(np.max(heat_residuals))
    if not (max_work <= RECONCILE_TOL and max_heat <= RECONCILE_TOL):
        messages.append(
            f"trajectory totals mismatch closed forms: work {max_work:.3e}, heat {max_heat:.3e}"
        )

    expected_work_mismatch = abs(got_work - report.expected_work)
    expected_heat_mismatch = abs(got_heat - report.expected_heat)
    if not (  # NaN fails too
        expected_work_mismatch <= RECONCILE_TOL and expected_heat_mismatch <= RECONCILE_TOL
    ):
        messages.append("expected totals mismatch the cost report")

    return ReconcileReport(
        ok=not messages,
        max_work_mismatch=max_work,
        max_heat_mismatch=max_heat,
        expected_work_mismatch=expected_work_mismatch,
        expected_heat_mismatch=expected_heat_mismatch,
        first_divergent_step=first_divergence,
        messages=tuple(messages),
    )
