"""``crosscheck``: run the verification oracles on one scenario.

One operation drives the nine-stage box protocol (``run_protocol``),
reconciles its ledger (``reconcile``), reads the per-branch and expected
totals back, and on fourteen scenarios of at most eight states also
runs the mirror-descent minimiser and the minimax optimiser.  The ledger's row
scans are quadratic in its rows today and the optimisers iterate, so
this is where those layers do most of the work; ``accounting`` is where
they do none.
"""

from __future__ import annotations

import types
from collections import Counter

import numpy as np

import oracle
from thermologic import boxprotocol, costs, logic, thermo

from .inputs import operation_matrix, positive_dist, rng_for, thermo_table

MIN_ROUNDS = 3

# The minimax optimiser has no stopping rule; it always runs this many
# iterations from each of its three starts.
MINIMAX_ITERATIONS = 100
# The minimiser runs from its uniform start only.  Its iteration count is
# heavy-tailed in the drawn values, and with the four default random
# restarts one scenario could double a round's time from seed to seed.
# The `cli` workload's `optimize` runs keep the defaults.
MINIMISER_RESTARTS = 0

# (inputs, outputs, structure); odd entries use random weights instead of w = P.
# How long the minimiser iterates depends on the drawn values, so the
# optimised scenarios are kept above the 75th percentile of latency.
# Sorted by cost the round has 36 small ledger-only operations, 12 of 6x6
# (where the median falls), 12 a little larger, 8 of 8x8 (where the 75th
# percentile falls) and 17 above them: the 14 optimised scenarios and the
# 10x10 to 16x16 ledgers.  Neither percentile then depends on the seed.
# Larger ledgers are left out to keep a round under about 2 s: the
# machine's speed changes from second to second, and a run needs many
# repetitions of each operation for its median to be repeatable.
OPTIMISED = (
    (2, 2, "dense"),
    (2, 3, "dense"),
    (3, 2, "dense"),
    (3, 3, "dense"),
    (4, 3, "dense"),
    (4, 4, "dense"),
    (4, 4, "perm"),
    (3, 5, "dense"),
    (5, 5, "dense"),
    (6, 4, "dense"),
    (6, 6, "dense"),
    (6, 6, "reset"),
    (8, 5, "dense"),
    (8, 8, "dense"),
)
LEDGER_ONLY = (
    [(2, 2, "dense"), (3, 3, "dense"), (4, 4, "dense"), (5, 5, "dense")] * 5
    + [(2, 4, "dense"), (4, 2, "dense"), (3, 5, "dense"), (5, 3, "dense")] * 2
    + [(2, 3, "dense"), (3, 2, "dense"), (4, 4, "perm"), (8, 8, "perm"), (16, 16, "perm")]
    + [(5, 5, "reset"), (8, 2, "reset"), (12, 12, "reset")]
    + [(6, 6, "dense")] * 12
    + [(7, 7, "dense")] * 4
    + [(6, 8, "dense"), (8, 6, "dense")] * 2
    + [(7, 8, "dense"), (8, 7, "dense"), (32, 32, "perm"), (32, 8, "reset")]
    + [(8, 8, "dense")] * 8
    + [(10, 10, "dense"), (12, 12, "dense"), (16, 16, "dense")]
)
SIZES = [(*size, False) for size in LEDGER_ONLY] + [(*size, True) for size in OPTIMISED]

def generate(seed: int, ctx) -> list:
    ops = []
    for index, (n_in, n_out, structure, optimise) in enumerate(SIZES):
        rng = rng_for(seed, 1000 + index)
        p = positive_dist(rng, n_in)
        matrix = operation_matrix(rng, n_in, n_out, structure)
        ops.append(
            types.SimpleNamespace(
                label=f"crosscheck[{index}] {n_in}x{n_out} {structure}{' optimised' if optimise else ''}",
                transitions=int((matrix > 0.0).sum()),
                trials=0,
                p=p,
                matrix=matrix,
                tables=thermo_table(rng, n_in) + thermo_table(rng, n_out),
                t_ref=float(rng.uniform(0.5, 2.0)),
                weights=positive_dist(rng, n_in) if index % 2 else p,
                optimise=optimise,
                optimiser_seed=int(rng.integers(2**31)),
            )
        )
    return ops


def run(op, ctx):
    e_in, s_in, t_in, e_out, s_out, t_out = op.tables
    scenario = thermo.Scenario(
        logic.DiscreteDistribution(op.p),
        logic.LogicalOperation(op.matrix),
        tuple(thermo.StateThermo(*row) for row in zip(e_in, s_in, t_in)),
        tuple(thermo.StateThermo(*row) for row in zip(e_out, s_out, t_out)),
        op.t_ref,
    )
    weights = costs.make_weights(scenario, op.weights)
    ledger = boxprotocol.run_protocol(scenario, weights)
    out = types.SimpleNamespace(
        scenario=scenario,
        weights=weights,
        ledger=ledger,
        reconciled=boxprotocol.reconcile(ledger, scenario, weights),
        totals=ledger.trajectory_totals(),
        expected=ledger.expected_totals(scenario),
        minimum=None,
        minimax=None,
    )
    if op.optimise:
        out.minimum = costs.minimize_expected_work(
            scenario, seed=op.optimiser_seed, restarts=MINIMISER_RESTARTS
        )
        out.minimax = costs.minimax_weights(
            scenario, seed=op.optimiser_seed, max_iterations=MINIMAX_ITERATIONS
        )
    return out


def check(op, out, memo) -> list[str]:
    problems: list[str] = []
    need = lambda ok, what: ok or problems.append(what)
    m, p, t = op.matrix, op.p, op.t_ref
    e_in, s_in, _, e_out, s_out, _ = op.tables
    work, heat = oracle.transition_costs(t, e_in, s_in, e_out, s_out, m, op.weights)

    rec = out.reconciled
    need(rec.ok, f"reconcile reports a mismatch: {rec.messages[:2]}")
    live = set(zip(*np.nonzero(m)))
    need(set(out.totals) == live, "trajectory totals do not cover exactly the realisable branches")
    bad = [
        pair
        for pair, (w, q) in out.totals.items()
        if pair in live and not (oracle.close(w, work[pair]) and oracle.close(q, heat[pair]))
    ]
    need(not bad, f"{len(bad)} trajectory totals differ from the closed form, first {bad[:1]}")
    want_work, want_heat = oracle.expectation(p, m, work), oracle.expectation(p, m, heat)
    need(
        oracle.close(out.expected[0], want_work, oracle.magnitude(p, m, work))
        and oracle.close(out.expected[1], want_heat, oracle.magnitude(p, m, heat)),
        f"expected totals {out.expected!r}, closed form {(want_work, want_heat)!r}",
    )

    # Nine rows per realisable branch: its input legs (steps 1-3), its own
    # branch legs (steps 4-5) and its output legs (steps 6-9).
    inputs, branches, outputs = Counter(), Counter(), Counter()
    for row in out.ledger.rows:
        if row.step <= 3:
            inputs[row.input_index] += 1
        elif row.step <= 5:
            branches[(row.input_index, row.output_index)] += 1
        elif row.input_index is None:
            outputs[row.output_index] += 1
    short = [(i, j) for i, j in live if inputs[i] + branches[(i, j)] + outputs[j] != 9]
    need(not short and set(branches) == live, f"branches without nine ledger rows: {short[:3]}")

    if op.optimise:
        bound, _, _ = oracle.bounds(t, p, m, e_in, s_in, e_out, s_out)
        need(
            abs(out.minimum.value - bound) <= oracle.MIN_TOL * t,
            f"minimiser value {out.minimum.value!r} is not within 1e-6 kT of {bound!r}",
        )
        worst, _ = oracle.transition_costs(t, e_in, s_in, e_out, s_out, m, out.minimax.weights)
        worst_value = float(np.nanmax(np.where(p[:, None] * m > 0.0, worst, np.nan)))
        need(
            oracle.close(out.minimax.value, worst_value),
            f"minimax value {out.minimax.value!r} is not the worst transition {worst_value!r} at its weights",
        )
    return [f"{op.label}: {msg}" for msg in problems]
