"""``accounting``: price one scenario through the closed-form layers.

One operation builds the distribution, operation and scenario from raw
arrays and runs the probability algebra (``classify``, ``propagate``,
``bayes_invert``), the closed-form costs at optimal and off-optimal
weights, the bounds, the three entropy ledgers, the reverse operation,
a matched and a mismatched reversible cycle, the suboptimal-cycle cost
and the uncertain- and partial-operation excesses.  The box protocol and
the quantum verifier never run here.

Many small operations sit beside a few large ones (2x2 up to 128x128,
square and rectangular, dense rows beside permutations and resets), so a
change that speeds 128x128 but slows 2x2 shows in ``op_p50_ms``.
"""

from __future__ import annotations

import types

import numpy as np

import oracle
from thermologic import costs, cycles, logic, thermo

from .inputs import operation_matrix, positive_dist, rng_for, thermo_table

MIN_ROUNDS = 3

# (inputs, outputs, structure, thermo tables): explicit random tables or a model.
# Sorted by cost, the median falls among a dozen operations of about 3 ms
# (6x6, 8x4, 4x8 and small resets) and the 75th percentile among eleven of
# 33 to 50 ms (32x32 dense, 48x16, 16x48 and the 96- and 128-state
# permutations and resets), not on a step between sizes.  The largest
# dense scenarios are 128x32, 96x64 and 64x64; 128x128 is priced as a
# permutation and a reset, which keeps a round near 1.5 s so that a run
# repeats each operation about ten times.
SIZES = (
    [(2, 2, "dense", "explicit")] * 3
    + [
        (2, 4, "dense", "explicit"),
        (2, 2, "perm", "uniform"),
        (2, 2, "reset", "uniform"),
        (2, 2, "dense", "equilibrium"),
        (3, 3, "dense", "explicit"),
        (3, 3, "dense", "adiabatic_equilibrium"),
        (3, 2, "dense", "explicit"),
        (2, 3, "dense", "explicit"),
        (3, 3, "perm", "explicit"),
        (4, 4, "dense", "explicit"),
        (4, 4, "dense", "uniform"),
        (4, 4, "perm", "uniform"),
        (4, 2, "reset", "explicit"),
        (5, 3, "dense", "explicit"),
        (3, 5, "dense", "equilibrium"),
        (5, 5, "reset", "uniform"),
        (6, 6, "dense", "explicit"),
        (6, 6, "dense", "explicit"),
        (6, 6, "dense", "uniform"),
        (6, 6, "perm", "explicit"),
        (6, 4, "dense", "adiabatic_equilibrium"),
        (8, 4, "dense", "explicit"),
        (4, 8, "dense", "explicit"),
        (8, 8, "reset", "explicit"),
        (16, 8, "reset", "uniform"),
        (16, 16, "perm", "explicit"),
        (32, 4, "reset", "explicit"),
        (32, 32, "perm", "uniform"),
        (8, 8, "dense", "explicit"),
        (8, 8, "dense", "uniform"),
        (16, 16, "dense", "equilibrium"),
        (32, 32, "dense", "explicit"),
        (32, 32, "dense", "explicit"),
        (32, 32, "dense", "equilibrium"),
        (48, 16, "dense", "explicit"),
        (16, 48, "dense", "explicit"),
        (32, 32, "dense", "uniform"),
        (96, 96, "perm", "uniform"),
        (96, 96, "reset", "explicit"),
        (128, 64, "reset", "explicit"),
        (128, 128, "perm", "explicit"),
        (128, 128, "reset", "uniform"),
        (64, 64, "dense", "explicit"),
        (96, 64, "dense", "adiabatic_equilibrium"),
        (128, 32, "dense", "explicit"),
    ]
)

BYSTANDER_STATES = 3


def generate(seed: int, ctx) -> list:
    ops = []
    for index, (n_in, n_out, structure, tables) in enumerate(SIZES):
        rng = rng_for(seed, index)
        p = positive_dist(rng, n_in)
        matrix = operation_matrix(rng, n_in, n_out, structure)
        op = types.SimpleNamespace(
            label=f"accounting[{index}] {n_in}x{n_out} {structure} {tables}",
            transitions=int((matrix > 0.0).sum()),
            trials=0,
            p=p,
            matrix=matrix,
            model=None if tables == "explicit" else tables,
            t_ref=float(rng.uniform(0.5, 2.0)),
            w_off=positive_dist(rng, n_in),
            q=positive_dist(rng, n_in),
            matrix2=operation_matrix(rng, n_in, n_out, structure),
            gamma=float(rng.uniform(0.2, 0.8)),
            joint_prior=p[:, None] * rng.dirichlet(np.ones(BYSTANDER_STATES), size=n_in),
        )
        if tables == "explicit":
            op.tables = thermo_table(rng, n_in) + thermo_table(rng, n_out)
        else:
            op.offsets = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        ops.append(op)
    return ops


def _scenario(op):
    dist = logic.DiscreteDistribution(op.p)
    operation = logic.LogicalOperation(op.matrix)
    if op.model is None:
        e_in, s_in, t_in, e_out, s_out, t_out = op.tables
        return thermo.Scenario(
            dist,
            operation,
            tuple(thermo.StateThermo(*row) for row in zip(e_in, s_in, t_in)),
            tuple(thermo.StateThermo(*row) for row in zip(e_out, s_out, t_out)),
            op.t_ref,
        )
    skeleton = thermo.ModelSkeleton(
        input_dist=dist,
        op=operation,
        reference_temperature=op.t_ref,
        energy_offset=op.offsets[0],
        entropy_offset=op.offsets[1],
    )
    return thermo.make_model(op.model, skeleton)


def run(op, ctx):
    scenario = _scenario(op)
    operation, dist = scenario.op, scenario.input_dist
    live_op, _ = logic.prune_zero_outputs(operation, dist)
    w_opt = costs.optimal_weights(scenario)
    w_off = costs.make_weights(scenario, op.w_off)
    cycle = cycles.build_reversible_cycle(
        operation, w_opt.weights, scenario.input_thermo, scenario.output_thermo, op.t_ref
    )
    other = logic.LogicalOperation(op.matrix2)
    return types.SimpleNamespace(
        scenario=scenario,
        kind=logic.classify(operation),
        p_out=logic.propagate(operation, dist),
        posterior=logic.bayes_invert(live_op, dist),
        rep_opt=costs.expected_cost(scenario, w_opt),
        rep_off=costs.expected_cost(scenario, w_off),
        bounds=costs.glp_bounds(scenario),
        ledger_opt=cycles.entropy_ledgers(scenario, w_opt),
        ledger_off=cycles.entropy_ledgers(scenario, w_off),
        reverse=cycles.reverse_operation(scenario),
        cycle_matched=cycles.evaluate_cycle(cycle),
        cycle_mismatched=cycles.evaluate_cycle(cycle, middle_input=op.q),
        suboptimal=cycles.suboptimal_cycle_cost(
            operation, w_opt.weights, logic.DiscreteDistribution(op.q), op.t_ref
        ),
        uncertain=cycles.uncertain_operation_cost(
            [(operation, op.gamma), (other, 1.0 - op.gamma)],
            dist,
            scenario.input_thermo,
            scenario.output_thermo,
            op.t_ref,
        ),
        partial=cycles.partial_operation_cost(
            op.joint_prior, operation, scenario.input_thermo, scenario.output_thermo, op.t_ref
        ),
    )


def _tables(op, out, problems):
    """Per-state (E, S) arrays: the raw tables, or the model's, checked by its defining property."""
    if op.model is None:
        e_in, s_in, _, e_out, s_out, _ = op.tables
        return e_in, s_in, e_out, s_out
    n_in, n_out = op.matrix.shape
    if op.model == "uniform":
        e, s = op.offsets
        return np.full(n_in, e), np.full(n_in, s), np.full(n_out, e), np.full(n_out, s)
    sc = out.scenario
    e_in = np.array([st.energy for st in sc.input_thermo])
    s_in = np.array([st.entropy for st in sc.input_thermo])
    e_out = np.array([st.energy for st in sc.output_thermo])
    s_out = np.array([st.entropy for st in sc.output_thermo])
    p_out = op.p @ op.matrix
    ln_p = np.log(np.concatenate([op.p, p_out]))
    energy = np.concatenate([e_in, e_out])
    entropy = np.concatenate([s_in, s_out])
    # equilibrium: E - T S + T ln P is one constant; adiabatic: S - ln P is.
    invariant = (
        energy - op.t_ref * entropy + op.t_ref * ln_p
        if op.model == "equilibrium"
        else entropy - ln_p
    )
    if np.ptp(invariant) > oracle.ID_TOL * (1.0 + np.abs(invariant).max()):
        problems.append(f"{op.model} tables break their defining invariant by {np.ptp(invariant):.3e}")
    return e_in, s_in, e_out, s_out


def check(op, out, memo) -> list[str]:
    problems: list[str] = []
    need = lambda ok, what: ok or problems.append(what)
    m, p, t = op.matrix, op.p, op.t_ref
    e_in, s_in, e_out, s_out = _tables(op, out, problems)

    deterministic = bool(np.all((m <= 1e-9) | (m >= 1.0 - 1e-9)))
    reversible = bool(np.all((m > 1e-9).sum(axis=0) <= 1))
    need(
        (out.kind.deterministic, out.kind.reversible) == (deterministic, reversible),
        f"classify gives {out.kind}, column count gives {(deterministic, reversible)}",
    )
    need(np.allclose(out.p_out.probs, p @ m, rtol=0.0, atol=1e-12), "propagate differs from p @ M")
    post, _ = oracle.posterior(p, m)
    need(
        out.posterior.matrix.shape == post.shape
        and np.allclose(out.posterior.matrix, post, rtol=0.0, atol=1e-9),
        "bayes_invert differs from the posterior",
    )

    work_bound, heat_bound, shannon = oracle.bounds(t, p, m, e_in, s_in, e_out, s_out)
    live = set(zip(*np.nonzero(m)))
    for tag, weights, report in (("optimal", p, out.rep_opt), ("off-optimal", op.w_off, out.rep_off)):
        work, heat = oracle.transition_costs(t, e_in, s_in, e_out, s_out, m, weights)
        pairs = {(tr.input_index, tr.output_index) for tr in report.transitions}
        need(pairs == live, f"{tag}: transitions listed are not the realisable ones")
        bad = [
            tr
            for tr in report.transitions
            if not oracle.close(tr.work, work[tr.input_index, tr.output_index])
            or not oracle.close(tr.heat, heat[tr.input_index, tr.output_index])
        ]
        need(not bad, f"{tag}: {len(bad)} transition costs differ from the closed form")
        scale = oracle.magnitude(p, m, work)
        want_work = oracle.expectation(p, m, work)
        want_heat = oracle.expectation(p, m, heat)
        need(
            oracle.close(report.expected_work, want_work, scale),
            f"{tag}: expected work {report.expected_work!r}, closed form {want_work!r}",
        )
        need(
            oracle.close(report.expected_heat, want_heat, oracle.magnitude(p, m, heat)),
            f"{tag}: expected heat {report.expected_heat!r}, closed form {want_heat!r}",
        )
        if tag == "optimal":
            need(
                oracle.close(report.expected_work, work_bound, scale),
                f"expected work at w = P {report.expected_work!r} misses the bound {work_bound!r}",
            )
        else:
            need(
                report.expected_work >= work_bound - oracle.ID_TOL * (1.0 + scale),
                f"expected work {report.expected_work!r} at random weights beats the bound {work_bound!r}",
            )
    need(oracle.close(out.bounds.work_bound, work_bound), "glp_bounds work bound differs")
    need(oracle.close(out.bounds.heat_bound, heat_bound), "glp_bounds heat bound differs")

    _, heat_opt = oracle.transition_costs(t, e_in, s_in, e_out, s_out, m, p)
    ledger_scale = abs(heat_bound / t) + oracle.magnitude(p, m, heat_opt) / t
    need(
        abs(out.ledger_opt.gibbs) <= oracle.ID_TOL * (1.0 + ledger_scale),
        f"Gibbs ledger at the optimum is {out.ledger_opt.gibbs!r}, not 0",
    )
    need(
        out.ledger_off.gibbs >= -oracle.ID_TOL * (1.0 + ledger_scale),
        f"Gibbs ledger off the optimum is negative: {out.ledger_off.gibbs!r}",
    )
    need(
        oracle.close(out.ledger_opt.average, -shannon, ledger_scale),
        f"averaged ledger {out.ledger_opt.average!r} is not minus the Shannon change {-shannon!r}",
    )

    live_out = np.flatnonzero(p @ m > 0.0)
    p_mid = (p @ m)[live_out]
    work_rev, _ = oracle.transition_costs(t, e_out[live_out], s_out[live_out], e_in, s_in, post, p_mid)
    want_rev = oracle.expectation(p_mid, post, work_rev)
    forward, backward = out.reverse.forward_cost.expected_work, out.reverse.reverse_cost.expected_work
    rev_scale = oracle.magnitude(p_mid, post, work_rev)
    need(oracle.close(backward, want_rev, rev_scale), f"reverse work {backward!r}, closed form {want_rev!r}")
    need(
        abs(forward + backward) <= oracle.ID_TOL * (1.0 + rev_scale),
        f"reverse work {backward!r} does not negate forward {forward!r}",
    )

    legs = sum(abs(c.expected_work) for c in out.cycle_matched.leg_costs)
    need(
        abs(out.cycle_matched.total_work) <= oracle.ID_TOL * (1.0 + legs),
        f"matched cycle costs {out.cycle_matched.total_work!r}",
    )
    want_sub = oracle.suboptimal_cycle_work(t, m, p, op.q)
    legs = sum(abs(c.expected_work) for c in out.cycle_mismatched.leg_costs)
    need(
        oracle.close(out.cycle_mismatched.total_work, want_sub, legs),
        f"mismatched cycle costs {out.cycle_mismatched.total_work!r}, KL form {want_sub!r}",
    )
    need(
        oracle.close(out.suboptimal.work, want_sub) and out.suboptimal.work >= -oracle.ID_TOL,
        f"suboptimal_cycle_cost {out.suboptimal.work!r}, KL form {want_sub!r}",
    )

    unc = out.uncertain
    unc_scale = sum(abs(w) for w in unc.branch_works) + abs(unc.restore_work)
    need(oracle.close(unc.cycle_total, unc.excess, unc_scale), "uncertain cycle total differs from its excess")
    outs = np.array([p @ m, p @ op.matrix2])
    want_mi = oracle.mutual_information([op.gamma, 1.0 - op.gamma], outs)
    need(oracle.close(unc.mutual_information_nats, want_mi), "uncertain mutual information differs")
    part = out.partial
    part_scale = abs(part.forward_work) + abs(part.restore_work)
    need(oracle.close(part.cycle_total, part.excess, part_scale), "partial cycle total differs from its excess")
    want_cmi = oracle.conditional_mutual_information(op.joint_prior, m)
    need(
        oracle.close(part.conditional_mutual_information_nats, want_cmi),
        "partial conditional mutual information differs",
    )

    if op.model in ("equilibrium", "adiabatic_equilibrium"):
        need(abs(work_bound) <= oracle.ID_TOL, f"{op.model}: work bound {work_bound!r} is not 0")
    if op.model == "adiabatic_equilibrium":
        need(abs(heat_bound) <= oracle.ID_TOL, f"{op.model}: heat bound {heat_bound!r} is not 0")
    return [f"{op.label}: {msg}" for msg in problems]
