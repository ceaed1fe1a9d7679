"""Reference values computed from the raw inputs with numpy alone.

Nothing here imports thermologic: each function restates one closed form
of the paper so the benchmark can check the program's outputs against a
computation made apart from it.  Energies are in scenario units with
``k_B = 1``; entropies are in nats.
"""

from __future__ import annotations

import math

import numpy as np

ID_TOL = 1e-9  # identities, scaled by the magnitude of their terms
MIN_TOL = 1e-6  # the mirror-descent minimiser's value, in units of kT


def close(got, want, scale=0.0, tol=ID_TOL) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want) + scale)


def entropy_nats(p) -> float:
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    return -math.fsum((nz * np.log(nz)).tolist())


def transition_costs(t_ref, e_in, s_in, e_out, s_out, matrix, w):
    """Per-transition work and heat matrices, NaN where the transition never occurs.

    W = (E_out - T S_out) - (E_in - T S_in) + T ln(w_out / w_in) and
    Q = T (S_in - S_out + ln(w_out / w_in)).
    """
    w = np.asarray(w, dtype=float)
    w_out = w @ matrix
    live = matrix > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(live, np.log(w_out[None, :] / w[:, None]), np.nan)
    free_in = np.asarray(e_in) - t_ref * np.asarray(s_in)
    free_out = np.asarray(e_out) - t_ref * np.asarray(s_out)
    work = free_out[None, :] - free_in[:, None] + t_ref * log_ratio
    heat = t_ref * (np.asarray(s_in)[:, None] - np.asarray(s_out)[None, :] + log_ratio)
    return work, heat


def expectation(p_in, matrix, values) -> float:
    joint = np.asarray(p_in)[:, None] * matrix
    mask = joint > 0.0
    return math.fsum((joint[mask] * values[mask]).tolist())


def magnitude(p_in, matrix, values) -> float:
    joint = np.asarray(p_in)[:, None] * matrix
    mask = joint > 0.0
    return math.fsum((joint[mask] * np.abs(values[mask])).tolist())


def bounds(t_ref, p_in, matrix, e_in, s_in, e_out, s_out):
    """(work bound, heat bound, Shannon change in nats) of the generalised bound.

    <W> >= <dE> - T dS and <Q> >= -T dS with dS the full mixture entropy
    change: mean state entropies plus the Shannon change.
    """
    p_in = np.asarray(p_in, dtype=float)
    p_out = p_in @ matrix
    d_energy = math.fsum((p_out * e_out).tolist()) - math.fsum((p_in * e_in).tolist())
    d_state = math.fsum((p_out * s_out).tolist()) - math.fsum((p_in * s_in).tolist())
    d_shannon = entropy_nats(p_out) - entropy_nats(p_in)
    d_total = d_state + d_shannon
    return d_energy - t_ref * d_total, -t_ref * d_total, d_shannon


def posterior(p_in, matrix):
    """Bayes inverse over the outputs that occur, and their indices."""
    p_out = np.asarray(p_in) @ matrix
    live = np.flatnonzero(p_out > 0.0)
    post = (np.asarray(p_in)[:, None] * matrix[:, live] / p_out[live][None, :]).T
    return post, live


def suboptimal_cycle_work(t_ref, matrix, w, q) -> float:
    """kT sum q_i M_ij ln[q_i w_out_j / (q_out_j w_i)] for weights w tuned to the wrong input."""
    w = np.asarray(w, dtype=float)
    q = np.asarray(q, dtype=float)
    w_out, q_out = w @ matrix, q @ matrix
    terms = []
    for i, j in zip(*np.nonzero(q[:, None] * matrix)):
        terms.append(q[i] * matrix[i, j] * math.log(q[i] * w_out[j] / (q_out[j] * w[i])))
    return t_ref * math.fsum(terms)


def mutual_information(gamma, outs) -> float:
    """I(output; branch) for branch probabilities gamma and per-branch output rows."""
    gamma = np.asarray(gamma, dtype=float)
    outs = np.asarray(outs, dtype=float)
    joint = gamma[:, None] * outs
    p_out = joint.sum(axis=0)
    mask = joint > 0.0
    ratio = outs / np.where(p_out > 0.0, p_out, 1.0)[None, :]
    return math.fsum((joint[mask] * np.log(ratio[mask])).tolist())


def conditional_mutual_information(joint_prior, matrix) -> float:
    """I(input; bystander | output) for a prior over (input, bystander)."""
    joint_prior = np.asarray(joint_prior, dtype=float)
    tri = joint_prior[:, :, None] * matrix[:, None, :]  # (input, bystander, output)
    p_out = tri.sum(axis=(0, 1))
    p_in_out = tri.sum(axis=1)  # (input, output)
    p_g_out = tri.sum(axis=0)  # (bystander, output)
    terms = []
    for i, g, j in zip(*np.nonzero(tri)):
        terms.append(tri[i, g, j] * math.log(tri[i, g, j] * p_out[j] / (p_in_out[i, j] * p_g_out[g, j])))
    return math.fsum(terms)


def kl_nats(p, p_prime) -> float:
    q, q_prime = 1.0 - p, 1.0 - p_prime
    return p * math.log(p / p_prime) + q * math.log(q / q_prime)
