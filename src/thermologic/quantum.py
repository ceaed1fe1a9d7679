"""Density-matrix verification of the work bound on small Hilbert spaces.

The system starts as a block-orthogonal mixture of logical states, the
environment exactly in a canonical state at the reference temperature,
and the two uncorrelated.  Any unitary on the joint space is a candidate
physical process; the work it draws from the external control equals the
total energy change of system plus environment.  Three facts then bound
the work from below: entropy is invariant under the unitary, entropy is
subadditive across the final marginals, and the relative entropy of the
final environment state against the canonical one is non-negative.  This
module reports each trial's slack and both lemma terms, so a failure
pinpoints which link broke, and checks the identity that ties them
together, slack = T (subadditivity + relative entropy): the energy side
and the entropy side are computed apart, so the identity tests both.

A sweep changes only the unitary from trial to trial, so everything the
unitary does not touch is built once per sweep and cached, read-only, on
its :class:`TrialSetup`.  That includes the joint entropy, which the
unitary leaves at S(rho_S) + S(gamma_E); each draw is checked to be
unitary to :data:`EIG_ATOL`, which is what the invariant assumes.
Trials are evaluated in chunks, each one stacked array computation: one
draw, one QR, and batched products, partial traces and marginal spectra.
A joint state with nothing off its diagonal, as every canonical setup
has, is rotated by scaling the unitary's columns by that diagonal in
place of a dense product: each entry of ``U rho`` has one non-zero term,
so the scaling rounds it the same way, bit for bit.
The chunk-sized stacks are allocated once per sweep and reused by every
chunk; each sweep has its own, so sweeps may run in separate threads.

Everything here is in natural units (k_B = 1): temperatures are energies,
and entropies are in nats.  Every Hamiltonian is diagonal in the
computational basis and is read as its energies, so canonical states are
diagonal too and a mean energy needs only the diagonal of a state.

Dimensions are deliberately small (joint dimension capped at 64), so
dense products, QR and eigendecompositions of the marginals suffice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .logic import _Frozen, _frozen, _is_distribution

EIG_ATOL = 1e-10
MAX_JOINT_DIM = 64
RANK_TOL = 1e-12  # canonicalize: eigenvalues at or below this are off the support
MARGINAL_TOL = 0.05  # output block weights within this of the target respect the operation
SLACK_TOL = 1e-9  # run_trials: a slack or lemma term below minus this is a violation
MAX_TRIALS = 100_000  # run_trials: every result is kept, so a larger count is rejected
CHUNK_ELEMENTS = 2**14  # run_trials: complex entries in each stacked d x d array of one chunk
_GINIBRE_SCALE = 1.0 / math.sqrt(2.0)  # numpy divides a complex array by sqrt(2) as a product with this

__all__ = [
    "QuantumError",
    "SetupError",
    "DensityMatrix",
    "HamiltonianSpec",
    "gibbs_state",
    "vn_entropy",
    "partial_trace",
    "haar_unitary",
    "CanonicalizedState",
    "canonicalize",
    "block_mixture",
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


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Frozen):
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise QuantumError("density matrix must be square")
        if m.size == 0:
            raise QuantumError("density matrix must not be empty")
        if not np.isfinite(m).all():
            raise QuantumError("density matrix entries must be finite")
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
class HamiltonianSpec(_Frozen):
    """Real spectrum of a Hamiltonian diagonal in the computational basis."""

    energies: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1 or e.size == 0:
            raise QuantumError("energies must form a non-empty vector")
        if not np.isfinite(e).all():
            raise QuantumError("energies must be finite")
        object.__setattr__(self, "energies", _frozen(e.copy()))

    @property
    def dim(self) -> int:
        return self.energies.size


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


def _entropies(matrices: np.ndarray) -> np.ndarray:
    """Entropy of each Hermitian matrix of a stack (0 ln 0 = 0)."""
    eigs = np.clip(np.linalg.eigvalsh(matrices), 0.0, None)
    logs = np.log(eigs, out=np.zeros_like(eigs), where=eigs > 1e-300)
    return -(eigs * logs).sum(axis=-1)


def vn_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Entropy -tr(rho ln rho) in units of k (0 ln 0 = 0)."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return float(_entropies(m))


def _expectation(values: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re tr(diag(values) rho) over the last two axes: a mean energy when ``values``
    is a spectrum and ``rho`` a state (or a stack of states).

    The complex products are summed before ``.real`` is taken, as in
    ``np.trace(np.diag(values) @ rho).real``; summing the real parts alone
    would regroup numpy's pairwise sum and could change the last bits.
    """
    return (np.diagonal(rho, axis1=-2, axis2=-1) * values).sum(axis=-1).real


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite state, or of each state of a stack;
    ``keep`` is 0 or 1."""
    d0, d1 = dims
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (d0 * d1, d0 * d1):
        raise QuantumError(f"state of shape {rho.shape} does not match dims {d0} x {d1}")
    reshaped = rho.reshape(*rho.shape[:-2], d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("...ijkj->...ik", reshaped)
    if keep == 1:
        return np.einsum("...ijil->...jl", reshaped)
    raise QuantumError("keep must be 0 or 1")


class _Workspace(NamedTuple):
    """Scratch stacks for up to ``len(draws)`` trials of one dimension.

    A sweep allocates one and reuses it for every chunk, so a chunk
    allocates only what the QR allocates itself.  Each stack is
    overwritten by the next chunk, so no array of it is ever returned.
    """

    draws: np.ndarray  # the normals, then |U^dagger U - I| in the first half
    stack: np.ndarray  # z, then U^dagger U, then U rho
    conjugates: np.ndarray  # conj(U), read transposed as the adjoints
    rho_final: np.ndarray

    @classmethod
    def allocate(cls, count: int, dim: int) -> _Workspace:
        stacks = (np.empty((count, dim, dim), dtype=complex) for _ in range(3))
        return cls(np.empty((count, 2, dim, dim)), *stacks)

    def head(self, count: int) -> _Workspace:
        """The leading ``count`` trials of each stack."""
        return _Workspace(*(array[:count] for array in self))


def _haar_unitaries(
    count: int, dim: int, rng: np.random.Generator, workspace: _Workspace | None = None
) -> np.ndarray:
    """A stack of ``count`` Haar unitaries: the draws of ``count`` :func:`haar_unitary` calls.

    The Ginibre stack is built in ``workspace``, which must hold exactly
    ``count`` trials of dimension ``dim``; the unitaries are a new array.
    """
    ws = _Workspace.allocate(count, dim) if workspace is None else workspace
    normals = rng.standard_normal(out=ws.draws)
    z = ws.stack  # (normals[:, 0] + i normals[:, 1]) / sqrt(2), bit for bit
    np.multiply(normals[:, 0], _GINIBRE_SCALE, out=z.real)
    np.multiply(normals[:, 1], _GINIBRE_SCALE, out=z.imag)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    q *= phases[:, None, :]
    return q


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_unitaries(1, dim, rng)[0]


@dataclass(frozen=True, eq=False)
class CanonicalizedState(_Frozen):
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
        unitary=_frozen(unitary),
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


def _check_joint_dim(system_dim: int, env_dim: int) -> None:
    if system_dim * env_dim > MAX_JOINT_DIM:
        raise SetupError(f"joint dimension exceeds cap {MAX_JOINT_DIM}")


@dataclass(frozen=True, eq=False)
class TrialSetup(_Frozen):
    """Fixed data shared by every trial in a sweep.

    What every trial reads and no unitary changes (the initial states,
    the diagonal of a diagonal joint state, the initial energies, the
    initial system and joint entropies, and the log of the
    environment's canonical populations) is a cached
    property: built on first use, once per setup, and read-only.  Each
    Hamiltonian is read as its energies, the diagonal it has in the
    computational basis.  The initial system state is built on
    construction, so bad block states fail there.  The input arrays are
    stored as read-only copies, so the cache cannot go stale.
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
        if not _is_distribution(probs):
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
            if not _is_distribution(t):
                raise SetupError("target output probabilities must form a distribution")
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
    def joint_populations(self) -> np.ndarray | None:
        """The diagonal of the joint state when it is real and nothing off it is
        non-zero, else ``None``: then ``U rho`` is ``U`` with each column scaled."""
        joint = self.initial_joint
        populations = joint.diagonal().real
        if np.count_nonzero(joint - np.diag(populations)):
            return None
        return _frozen(populations.copy())

    @cached_property
    def initial_energies(self) -> tuple[float, float]:
        """Mean energies of the initial system and environment."""
        return (
            float(_expectation(self.system_h.energies, self.initial_system.matrix)),
            float(_expectation(self.env_h.energies, self.initial_environment.matrix)),
        )

    @cached_property
    def initial_entropy(self) -> float:
        """Entropy of the initial system."""
        return vn_entropy(self.initial_system)

    @cached_property
    def joint_entropy(self) -> float:
        """Entropy of the joint state, before and after any unitary: S(rho_S) + S(gamma_E)."""
        return self.initial_entropy + vn_entropy(self.initial_environment)

    @cached_property
    def env_log_gibbs(self) -> np.ndarray:
        """ln of the environment's canonical populations."""
        exponents = _gibbs_exponents(self.env_h, self.reference_temperature)
        return _frozen(exponents - math.log(float(np.exp(exponents).sum())))


def default_setup(
    system_block_sizes: tuple[int, ...] = (2, 2),
    env_dim: int = 8,
    reference_temperature: float = 1.0,
    input_probs=None,
    target_output_probs=None,
) -> TrialSetup:
    """Deterministic small setup: fixed non-degenerate spectra, canonical blocks.

    The block sizes, ``env_dim`` and the joint dimension are checked
    before any spectrum or state is built.
    """
    if any(size < 1 for size in system_block_sizes):
        raise SetupError("block outside system dimension")
    if env_dim < 1:
        raise SetupError(f"env_dim must be at least 1, got {env_dim}")
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
class TrialResult(_Frozen):
    index: int
    work: float
    bound: float
    slack: float
    subadditivity_slack: float
    environment_relative_entropy: float
    identity_residual: float  # slack - T (subadditivity + relative entropy), zero up to rounding
    output_block_weights: np.ndarray
    respects_operation: bool | None


class _TrialColumns(NamedTuple):
    """Per-trial values of a stack of unitaries, one array per :class:`TrialResult` field."""

    work: np.ndarray
    bound: np.ndarray
    slack: np.ndarray
    subadditivity_slack: np.ndarray
    environment_relative_entropy: np.ndarray
    identity_residual: np.ndarray
    output_block_weights: np.ndarray  # one row per trial
    respects_operation: np.ndarray  # all False when the setup has no target

    @classmethod
    def empty(cls, trials: int, blocks: int) -> _TrialColumns:
        scalars = [np.empty(trials) for _ in range(6)]
        return cls(*scalars, np.empty((trials, blocks)), np.zeros(trials, dtype=bool))

    def results(self, setup: TrialSetup, first_index: int) -> tuple[TrialResult, ...]:
        respects = self.respects_operation.tolist()
        if setup.target_output_probs is None:
            respects = [None] * len(respects)
        scalars = (column.tolist() for column in self[:-2])
        rows = zip(*scalars, _frozen(self.output_block_weights), respects)
        return tuple(TrialResult(first_index + k, *row) for k, row in enumerate(rows))


def _verify(
    setup: TrialSetup, unitaries: np.ndarray, workspace: _Workspace | None = None
) -> _TrialColumns:
    """Evaluate a stack of unitaries against the work bound, its two lemmas and their identity.

    What does not depend on the unitary is read from the setup's cached
    properties, the joint entropy included, so each draw must be unitary.
    The intermediate stacks are written into ``workspace``, which must
    hold exactly one trial per unitary; every returned column is a new array.
    """
    ds, de = setup.system_h.dim, setup.env_h.dim
    t_ref = setup.reference_temperature
    ws = _Workspace.allocate(len(unitaries), ds * de) if workspace is None else workspace
    adjoints = np.conjugate(unitaries, out=ws.conjugates).swapaxes(-1, -2)
    residual = np.matmul(adjoints, unitaries, out=ws.stack)
    residual.reshape(len(residual), -1)[:, :: ds * de + 1] -= 1.0  # the diagonals
    deviation = np.abs(residual, out=ws.draws[:, 0]).max()
    if not deviation <= EIG_ATOL:  # NaN fails too
        raise SetupError(f"matrix is not unitary: |U^dagger U - I| = {deviation:.3e}")
    populations = setup.joint_populations
    if populations is None:
        rotated = np.matmul(unitaries, setup.initial_joint, out=ws.stack)
    else:  # U diag(populations): one non-zero term per entry, rounded as the product rounds it
        rotated = np.multiply(unitaries, populations, out=ws.stack)
    rho_final = np.matmul(rotated, adjoints, out=ws.rho_final)

    sys_final = partial_trace(rho_final, (ds, de), keep=0)
    env_final = partial_trace(rho_final, (ds, de), keep=1)

    e_sys_0, e_env_0 = setup.initial_energies
    e_sys_1 = _expectation(setup.system_h.energies, sys_final)
    e_env_1 = _expectation(setup.env_h.energies, env_final)
    work = (e_sys_1 - e_sys_0) + (e_env_1 - e_env_0)

    s_final = _entropies(sys_final)
    bound = (e_sys_1 - e_sys_0) - t_ref * (s_final - setup.initial_entropy)
    slack = work - bound

    s_env = _entropies(env_final)
    subadd = s_final + s_env - setup.joint_entropy
    rel_ent = -s_env - _expectation(setup.env_log_gibbs, env_final)

    weights = np.stack(
        [
            np.trace(sys_final[:, start : start + size, start : start + size], axis1=1, axis2=2).real
            for start, size in setup.blocks
        ],
        axis=-1,
    )
    if setup.target_output_probs is None:
        respects = np.zeros(len(unitaries), dtype=bool)
    else:
        respects = np.abs(weights - setup.target_output_probs).max(axis=-1) <= MARGINAL_TOL
    return _TrialColumns(
        work, bound, slack, subadd, rel_ent, slack - t_ref * (subadd + rel_ent), weights, respects
    )


def verify_bound(setup: TrialSetup, unitary: np.ndarray, index: int = 0) -> TrialResult:
    """Evaluate one unitary against the work bound and its two lemmas: a stack of one.

    A matrix that is not unitary to :data:`EIG_ATOL` raises :class:`SetupError`.
    """
    dim = setup.system_h.dim * setup.env_h.dim
    if unitary.shape != (dim, dim):
        raise SetupError("unitary dimension does not match setup")
    return _verify(setup, unitary[None]).results(setup, index)[0]


@dataclass(frozen=True, eq=False)
class TrialBatchResult:
    results: tuple[TrialResult, ...]
    bound_violations: int
    subadditivity_violations: int
    relative_entropy_violations: int
    identity_violations: int
    respecting_trials: int

    @property
    def total_violations(self) -> int:
        return (
            self.bound_violations
            + self.subadditivity_violations
            + self.relative_entropy_violations
            + self.identity_violations
        )


def run_trials(setup: TrialSetup, trials: int, seed: int) -> TrialBatchResult:
    """Sweep seeded Haar-random unitaries and count bound violations.

    The trials run in chunks of at most :data:`CHUNK_ELEMENTS` entries per
    stacked d x d array, each evaluated as one array computation; the draws
    are those of successive :func:`haar_unitary` calls.  An identity
    residual counts as a violation above :data:`SLACK_TOL` times
    ``1 + |work| + |bound|``.  Every result is kept, so ``trials`` may be
    at most :data:`MAX_TRIALS`.
    """
    if not (isinstance(trials, numbers.Integral) and 0 <= trials <= MAX_TRIALS):
        raise SetupError(
            f"trial count must be an integer between 0 and {MAX_TRIALS}, got {trials!r}"
        )
    rng = np.random.default_rng(seed)
    dim = setup.system_h.dim * setup.env_h.dim
    chunk = max(1, CHUNK_ELEMENTS // dim**2)
    columns = _TrialColumns.empty(trials, len(setup.blocks))
    workspace = _Workspace.allocate(min(chunk, trials), dim)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        ws = workspace.head(stop - start)
        unitaries = _haar_unitaries(stop - start, dim, rng, ws)
        for column, part in zip(columns, _verify(setup, unitaries, ws)):
            column[start:stop] = part
    scale = 1.0 + np.abs(columns.work) + np.abs(columns.bound)
    return TrialBatchResult(
        results=columns.results(setup, 0),
        bound_violations=int((columns.slack < -SLACK_TOL).sum()),
        subadditivity_violations=int((columns.subadditivity_slack < -SLACK_TOL).sum()),
        relative_entropy_violations=int((columns.environment_relative_entropy < -SLACK_TOL).sum()),
        identity_violations=int((~(np.abs(columns.identity_residual) <= SLACK_TOL * scale)).sum()),
        respecting_trials=int(columns.respects_operation.sum()),
    )
