"""Density-matrix verification of the work bound on small Hilbert spaces.

The system starts as a block-orthogonal mixture of logical states, the
environment exactly in a canonical state at the reference temperature,
and the two uncorrelated.  Any unitary on the joint space is a candidate
physical process; the work it draws from the external control equals the
total energy change of system plus environment.  Three facts then bound
the work from below: entropy is invariant under the unitary, entropy is
subadditive across the final marginals, and the relative entropy of the
final environment state against the canonical one is non-negative.  This
module computes all three inequalities explicitly per trial so a failure
pinpoints which link broke.

A sweep changes only the unitary from trial to trial, so everything the
unitary does not touch is built once per sweep and cached, read-only, on
its :class:`TrialSetup`.

Everything here is in natural units (k_B = 1): temperatures are energies,
and entropies are in nats.  Every Hamiltonian is diagonal in the
computational basis, so canonical states are diagonal too.

Dimensions are deliberately small (joint dimension capped at 64); dense
eigendecomposition is the only linear algebra required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

EIG_ATOL = 1e-10
MAX_JOINT_DIM = 64
RANK_TOL = 1e-12  # canonicalize: eigenvalues at or below this are off the support
MARGINAL_TOL = 0.05  # verify_bound: output block weights within this respect the operation
SLACK_TOL = 1e-9  # run_trials: a slack or lemma term below minus this is a violation
MAX_TRIALS = 100_000  # run_trials: every result is kept, so a larger count is rejected

__all__ = [
    "QuantumError",
    "SetupError",
    "DensityMatrix",
    "HamiltonianSpec",
    "gibbs_state",
    "vn_entropy",
    "relative_entropy",
    "partial_trace",
    "haar_unitary",
    "CanonicalizedState",
    "canonicalize",
    "block_mixture",
    "mixture_entropy_terms",
    "TrialSetup",
    "default_setup",
    "TrialResult",
    "verify_bound",
    "TrialBatchResult",
    "run_trials",
]


class QuantumError(ValueError):
    pass


class SetupError(QuantumError):
    pass


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise QuantumError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > EIG_ATOL:
            raise QuantumError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > EIG_ATOL or abs(np.trace(m).imag) > EIG_ATOL:
            raise QuantumError("density matrix trace differs from one")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -EIG_ATOL:
            raise QuantumError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        object.__setattr__(self, "matrix", _frozen(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Real spectrum of a Hamiltonian diagonal in the computational basis."""

    energies: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1 or e.size == 0:
            raise QuantumError("energies must form a non-empty vector")
        object.__setattr__(self, "energies", _frozen(e.copy()))

    @property
    def dim(self) -> int:
        return self.energies.size

    def matrix(self) -> np.ndarray:
        return np.diag(self.energies).astype(complex)


def _positive_finite(temperature: float) -> bool:
    return 0.0 < temperature < math.inf  # NaN fails too


def _gibbs_exponents(hamiltonian: HamiltonianSpec, temperature: float) -> np.ndarray:
    """``-(E - E_min) / T``: shifted by the minimum so large spectra cannot overflow."""
    return -(hamiltonian.energies - hamiltonian.energies.min()) / temperature


def gibbs_state(hamiltonian: HamiltonianSpec, temperature: float) -> DensityMatrix:
    """Canonical state exp(-H / T) / Z at a finite positive temperature."""
    if not _positive_finite(temperature):
        raise QuantumError("temperature must be finite and positive")
    weights = np.exp(_gibbs_exponents(hamiltonian, temperature))
    populations = weights / weights.sum()
    return DensityMatrix(np.diag(populations).astype(complex))


def _entropy_from_eigs(eigs: np.ndarray) -> float:
    clipped = eigs[eigs > 1e-300]
    return float(-(clipped * np.log(clipped)).sum())


def vn_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Entropy -tr(rho ln rho) in units of k (0 ln 0 = 0)."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    eigs = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return _entropy_from_eigs(eigs)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Real part of tr(a b): a mean energy when ``a`` is a Hamiltonian and ``b`` a state."""
    return float(np.real(np.trace(a @ b)))


def relative_entropy(rho: np.ndarray, sigma_log: np.ndarray) -> float:
    """tr rho (ln rho - ln sigma) given ln(sigma) as a matrix."""
    rho = np.asarray(rho, dtype=complex)
    return _relative_entropy(rho, vn_entropy(rho), sigma_log)


def _relative_entropy(rho: np.ndarray, entropy: float, sigma_log: np.ndarray) -> float:
    """:func:`relative_entropy` given the entropy of ``rho``, so its spectrum is taken once."""
    return -entropy - _trace_product(rho, sigma_log)


def _log_gibbs(hamiltonian: HamiltonianSpec, temperature: float) -> np.ndarray:
    exponents = _gibbs_exponents(hamiltonian, temperature)
    log_pop = exponents - math.log(float(np.exp(exponents).sum()))
    return np.diag(log_pop).astype(complex)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite state; ``keep`` is 0 or 1."""
    d0, d1 = dims
    reshaped = np.asarray(rho, dtype=complex).reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ijkj->ik", reshaped)
    if keep == 1:
        return np.einsum("ijil->jl", reshaped)
    raise QuantumError("keep must be 0 or 1")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


@dataclass(frozen=True, eq=False)
class CanonicalizedState:
    """Spectrum-preserving rotation of a state into canonical form."""

    hamiltonian: HamiltonianSpec
    unitary: np.ndarray
    support_dim: int

    @property
    def full_rank(self) -> bool:
        return self.support_dim == self.unitary.shape[0]


def canonicalize(
    rho: DensityMatrix, temperature: float, target_energy: float
) -> CanonicalizedState:
    """Hamiltonian and unitary that make a given state exactly canonical.

    Choosing level ``n`` at energy
    ``target_energy - T (ln p_n - sum_m p_m ln p_m)`` makes the canonical
    populations reproduce the spectrum ``p`` of ``rho``; the unitary maps
    the state's eigenbasis onto the computational basis, so
    ``U rho U^dagger`` equals ``gibbs_state(H, T)`` with mean energy
    exactly ``target_energy`` and unchanged entropy.  Rank-deficient
    states are handled on their support, reported via ``support_dim``.
    """
    if not _positive_finite(temperature):
        raise QuantumError("temperature must be finite and positive")
    eigs, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(eigs)[::-1]
    eigs = np.clip(eigs[order], 0.0, None)
    vecs = vecs[:, order]
    support = eigs > RANK_TOL
    populations = eigs[support]
    populations = populations / populations.sum()
    mean_log = float((populations * np.log(populations)).sum())
    energies = target_energy - temperature * (np.log(populations) - mean_log)
    unitary = vecs.conj().T  # maps each eigenvector onto a computational axis
    return CanonicalizedState(
        hamiltonian=HamiltonianSpec(energies),
        unitary=unitary,
        support_dim=int(support.sum()),
    )


def block_mixture(
    blocks: tuple[tuple[int, int], ...],
    probs,
    block_states: tuple[np.ndarray, ...],
    dim: int,
) -> DensityMatrix:
    """Assemble sum_i P(i) rho_i with each rho_i supported on its own block."""
    probs = np.asarray(probs, dtype=float)
    if len(blocks) != probs.size or len(block_states) != probs.size:
        raise SetupError("blocks, probabilities and states must align")
    out = np.zeros((dim, dim), dtype=complex)
    for (start, size), p, state in zip(blocks, probs, block_states):
        state = np.asarray(state, dtype=complex)
        if state.shape != (size, size):
            raise SetupError("block state shape does not match its block")
        out[start : start + size, start : start + size] += p * state
    return DensityMatrix(out)


def mixture_entropy_terms(probs, block_states) -> float:
    """Entropy of a block-orthogonal mixture: sum P (S_block - ln P)."""
    total = 0.0
    for p, state in zip(np.asarray(probs, dtype=float), block_states):
        if p == 0.0:
            continue
        total += p * (vn_entropy(np.asarray(state)) - math.log(p))
    return total


def _check_joint_dim(system_dim: int, env_dim: int) -> None:
    if system_dim * env_dim > MAX_JOINT_DIM:
        raise SetupError(f"joint dimension exceeds cap {MAX_JOINT_DIM}")


@dataclass(frozen=True, eq=False)
class TrialSetup:
    """Fixed data shared by every trial in a sweep.

    What every trial reads and no unitary changes (the initial states,
    the Hamiltonian matrices, the initial energies and system entropy,
    and the log of the environment's canonical state) is a cached
    property: built on first use, once per setup, and read-only.  The
    initial system state is built on construction, so bad block states
    fail there.  The input arrays are stored as read-only copies, so the
    cache cannot go stale.
    """

    system_h: HamiltonianSpec
    env_h: HamiltonianSpec
    blocks: tuple[tuple[int, int], ...]
    input_probs: np.ndarray
    input_states: tuple[np.ndarray, ...]
    reference_temperature: float
    target_output_probs: np.ndarray | None = None

    def __post_init__(self):
        probs = np.asarray(self.input_probs, dtype=float)
        if not (probs >= 0.0).all() or abs(float(probs.sum()) - 1.0) > 1e-9:  # NaN fails too
            raise SetupError("input probabilities must form a distribution")
        object.__setattr__(self, "input_probs", _frozen(probs.copy()))
        states = tuple(_frozen(np.array(state, dtype=complex)) for state in self.input_states)
        object.__setattr__(self, "input_states", states)
        dim = self.system_h.dim
        covered = []
        for start, size in self.blocks:
            if start < 0 or size < 1 or start + size > dim:
                raise SetupError("block outside system dimension")
            covered.extend(range(start, start + size))
        if len(set(covered)) != len(covered):
            raise SetupError("blocks overlap")
        if not _positive_finite(self.reference_temperature):
            raise SetupError("reference temperature must be finite and positive")
        _check_joint_dim(self.system_h.dim, self.env_h.dim)
        if self.target_output_probs is not None:
            t = np.asarray(self.target_output_probs, dtype=float)
            if t.size != len(self.blocks):
                raise SetupError("target output probabilities must match block count")
            object.__setattr__(self, "target_output_probs", _frozen(t.copy()))
        self.initial_system  # built now: the block states must align, fit and mix to a state

    @cached_property
    def initial_system(self) -> DensityMatrix:
        return block_mixture(
            self.blocks, self.input_probs, self.input_states, self.system_h.dim
        )

    @cached_property
    def initial_environment(self) -> DensityMatrix:
        return gibbs_state(self.env_h, self.reference_temperature)

    @cached_property
    def initial_joint(self) -> np.ndarray:
        """The uncorrelated joint state: system tensor environment."""
        return _frozen(np.kron(self.initial_system.matrix, self.initial_environment.matrix))

    @cached_property
    def system_hamiltonian(self) -> np.ndarray:
        return _frozen(self.system_h.matrix())

    @cached_property
    def env_hamiltonian(self) -> np.ndarray:
        return _frozen(self.env_h.matrix())

    @cached_property
    def initial_energies(self) -> tuple[float, float]:
        """Mean energies of the initial system and environment."""
        return (
            _trace_product(self.system_hamiltonian, self.initial_system.matrix),
            _trace_product(self.env_hamiltonian, self.initial_environment.matrix),
        )

    @cached_property
    def initial_entropy(self) -> float:
        """Entropy of the initial system."""
        return vn_entropy(self.initial_system)

    @cached_property
    def env_log_gibbs(self) -> np.ndarray:
        """ln of the environment's canonical state, as a matrix."""
        return _frozen(_log_gibbs(self.env_h, self.reference_temperature))


def default_setup(
    system_block_sizes: tuple[int, ...] = (2, 2),
    env_dim: int = 8,
    reference_temperature: float = 1.0,
    input_probs=None,
    target_output_probs=None,
) -> TrialSetup:
    """Deterministic small setup: fixed non-degenerate spectra, canonical blocks.

    The block sizes and the joint dimension are checked before any
    spectrum or state is built.
    """
    if any(size < 1 for size in system_block_sizes):
        raise SetupError("block outside system dimension")
    dim = sum(system_block_sizes)
    _check_joint_dim(dim, env_dim)
    system_h = HamiltonianSpec(np.linspace(0.0, 1.3, dim))
    env_h = HamiltonianSpec(np.linspace(0.0, 2.1, env_dim))
    blocks = []
    start = 0
    for size in system_block_sizes:
        blocks.append((start, size))
        start += size
    if input_probs is None:
        input_probs = np.full(len(blocks), 1.0 / len(blocks))
    states = []
    for start, size in blocks:
        sub = HamiltonianSpec(system_h.energies[start : start + size])
        states.append(gibbs_state(sub, reference_temperature).matrix)
    return TrialSetup(
        system_h=system_h,
        env_h=env_h,
        blocks=tuple(blocks),
        input_probs=np.asarray(input_probs, dtype=float),
        input_states=tuple(states),
        reference_temperature=reference_temperature,
        target_output_probs=target_output_probs,
    )


@dataclass(frozen=True, eq=False)
class TrialResult:
    index: int
    work: float
    bound: float
    slack: float
    subadditivity_slack: float
    environment_relative_entropy: float
    output_block_weights: np.ndarray
    respects_operation: bool | None


def verify_bound(setup: TrialSetup, unitary: np.ndarray, index: int = 0) -> TrialResult:
    """Evaluate one unitary against the work bound and its two lemmas.

    What does not depend on the unitary is read from the setup's cached
    properties, so a sweep builds it once.
    """
    ds = setup.system_h.dim
    de = setup.env_h.dim
    if unitary.shape != (ds * de, ds * de):
        raise SetupError("unitary dimension does not match setup")
    t_ref = setup.reference_temperature
    rho_final = unitary @ setup.initial_joint @ unitary.conj().T

    sys_final = partial_trace(rho_final, (ds, de), keep=0)
    env_final = partial_trace(rho_final, (ds, de), keep=1)

    e_sys_0, e_env_0 = setup.initial_energies
    e_sys_1 = _trace_product(setup.system_hamiltonian, sys_final)
    e_env_1 = _trace_product(setup.env_hamiltonian, env_final)
    work = (e_sys_1 - e_sys_0) + (e_env_1 - e_env_0)

    s_final = vn_entropy(sys_final)
    bound = (e_sys_1 - e_sys_0) - t_ref * (s_final - setup.initial_entropy)

    joint_entropy = vn_entropy(rho_final)
    s_env = vn_entropy(env_final)
    subadd = s_final + s_env - joint_entropy
    rel_ent = _relative_entropy(env_final, s_env, setup.env_log_gibbs)

    weights = np.array(
        [
            float(np.real(np.trace(sys_final[start : start + size, start : start + size])))
            for start, size in setup.blocks
        ]
    )
    respects = None
    if setup.target_output_probs is not None:
        respects = bool(
            np.max(np.abs(weights - setup.target_output_probs)) <= MARGINAL_TOL
        )
    return TrialResult(
        index=index,
        work=work,
        bound=bound,
        slack=work - bound,
        subadditivity_slack=subadd,
        environment_relative_entropy=rel_ent,
        output_block_weights=weights,
        respects_operation=respects,
    )


@dataclass(frozen=True, eq=False)
class TrialBatchResult:
    results: tuple[TrialResult, ...]
    bound_violations: int
    subadditivity_violations: int
    relative_entropy_violations: int
    respecting_trials: int

    @property
    def total_violations(self) -> int:
        return (
            self.bound_violations
            + self.subadditivity_violations
            + self.relative_entropy_violations
        )


def run_trials(setup: TrialSetup, trials: int, seed: int) -> TrialBatchResult:
    """Sweep seeded Haar-random unitaries and count bound violations.

    Every result is kept, so ``trials`` may be at most :data:`MAX_TRIALS`.
    """
    if not 0 <= trials <= MAX_TRIALS:
        raise SetupError(f"trial count must be between 0 and {MAX_TRIALS}, got {trials!r}")
    rng = np.random.default_rng(seed)
    dim = setup.system_h.dim * setup.env_h.dim
    results = []
    for index in range(trials):
        unitary = haar_unitary(dim, rng)
        results.append(verify_bound(setup, unitary, index=index))
    return TrialBatchResult(
        results=tuple(results),
        bound_violations=sum(1 for r in results if r.slack < -SLACK_TOL),
        subadditivity_violations=sum(
            1 for r in results if r.subadditivity_slack < -SLACK_TOL
        ),
        relative_entropy_violations=sum(
            1 for r in results if r.environment_relative_entropy < -SLACK_TOL
        ),
        respecting_trials=sum(1 for r in results if r.respects_operation),
    )
