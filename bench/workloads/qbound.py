"""``qbound``: one seeded random-unitary sweep of the quantum work bound.

One operation builds a ``default_setup`` and runs ``run_trials`` on it.
Joint dimensions run from 16 to the cap of 64 over several block layouts
and temperatures, with and without target output probabilities.  Only
the quantum layer runs; every classical layer is bypassed.  Per trial
the cost is dominated by loop-invariant rebuilds and dense
eigendecompositions.
"""

from __future__ import annotations

import types

import numpy as np

import oracle
from thermologic import quantum

from .inputs import positive_dist, rng_for

MIN_ROUNDS = 3
TRIALS = 30
DRAWS = 3  # operations per setup, each with its own input probabilities and trial seed

# (system block sizes, environment dimension, reference temperature, with target output probs)
SETUPS = (
    ((1, 1), 8, 1.0, False),
    ((2, 2), 4, 1.0, False),
    ((1, 3), 4, 0.5, True),
    ((2, 2), 8, 1.0, False),
    ((1, 3), 8, 2.0, True),
    ((2, 2, 2, 2), 4, 1.0, True),
    ((2, 3, 3), 4, 0.7, False),
    ((1, 1, 2), 8, 1.5, True),
    ((4, 4), 8, 1.0, False),
    ((3, 3, 2), 8, 0.8, True),
    ((2, 2, 2, 2), 8, 1.2, False),
    ((1, 1, 1, 1), 16, 1.0, True),
    ((2, 2), 16, 0.5, False),
    ((8,), 8, 1.0, False),
)


def generate(seed: int, ctx) -> list:
    ops = []
    for index, (blocks, env_dim, t_ref, targeted) in enumerate(SETUPS * DRAWS):
        rng = rng_for(seed, 2000 + index)
        ops.append(
            types.SimpleNamespace(
                label=f"qbound[{index}] blocks {blocks} env {env_dim} T {t_ref}",
                transitions=0,
                trials=TRIALS,
                blocks=blocks,
                env_dim=env_dim,
                t_ref=t_ref,
                input_probs=positive_dist(rng, len(blocks)),
                target=positive_dist(rng, len(blocks)) if targeted else None,
                trial_seed=int(rng.integers(2**31)),
            )
        )
    return ops


def run(op, ctx):
    setup = quantum.default_setup(
        system_block_sizes=op.blocks,
        env_dim=op.env_dim,
        reference_temperature=op.t_ref,
        input_probs=op.input_probs,
        target_output_probs=op.target,
    )
    return quantum.run_trials(setup, op.trials, op.trial_seed)


def trial_problems(t_ref, work, bound, slack, subadditivity, relative_entropy) -> list[str]:
    """Per-trial properties: no violation, and slack = T (subadditivity + relative entropy).

    The identity follows from unitary invariance of the joint entropy and
    of the total energy, so it holds to rounding whatever the unitary.
    """
    problems = []
    tol = oracle.ID_TOL
    scale = 1.0 + abs(work) + abs(bound)
    if min(slack, subadditivity, relative_entropy) < -tol * scale:
        problems.append(f"violation: slack {slack!r}, subadditivity {subadditivity!r}, "
                        f"relative entropy {relative_entropy!r}")
    identity = t_ref * (subadditivity + relative_entropy)
    if abs(slack - identity) > tol * scale:
        problems.append(f"slack {slack!r} differs from T (subadditivity + relative entropy) {identity!r}")
    return problems


def check(op, out, memo) -> list[str]:
    problems = []
    if len(out.results) != op.trials:
        problems.append(f"{len(out.results)} trials for {op.trials} requested")
    if out.total_violations:
        problems.append(f"{out.total_violations} violations reported")
    for r in out.results:
        found = trial_problems(
            op.t_ref, r.work, r.bound, r.slack, r.subadditivity_slack, r.environment_relative_entropy
        )
        total = float(np.sum(r.output_block_weights))
        if abs(total - 1.0) > oracle.ID_TOL:
            found.append(f"block weights sum to {total!r}")
        problems.extend(f"trial {r.index}: {msg}" for msg in found)
    return [f"{op.label}: {msg}" for msg in problems[:5]]
