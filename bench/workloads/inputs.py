"""Raw inputs drawn from the benchmark seed: distributions, matrices, tables.

Sizes and sparsity patterns are fixed by each workload's list; the seed
draws only the values, so every seed prices the same number of
realisable transitions.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def positive_dist(rng, n: int, floor: float = 0.02) -> np.ndarray:
    """A distribution with every entry at least about ``floor / n``."""
    p = rng.dirichlet(np.full(n, 2.0))
    p = np.clip(p, floor / n, None)
    return p / p.sum()


def operation_matrix(rng, n_in: int, n_out: int, structure: str) -> np.ndarray:
    """Row-stochastic matrix: ``dense`` rows, a ``perm`` or a ``reset``.

    Dense rows have every entry positive; a permutation maps inputs one to
    one; a reset sends every input to the same output, leaving the other
    outputs unreachable.
    """
    if structure == "dense":
        return rng.dirichlet(np.ones(n_out), size=n_in)
    m = np.zeros((n_in, n_out))
    if structure == "perm":
        if n_in != n_out:
            raise ValueError("a permutation needs as many outputs as inputs")
        m[np.arange(n_in), rng.permutation(n_out)] = 1.0
    elif structure == "reset":
        m[:, int(rng.integers(n_out))] = 1.0
    else:
        raise ValueError(f"unknown structure {structure!r}")
    return m


def thermo_table(rng, n: int):
    """Energies in [-1, 1], entropies in [0, 2] (units of k), temperatures in [0.5, 2]."""
    return rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0, n), rng.uniform(0.5, 2.0, n)
