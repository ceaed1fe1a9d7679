import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import bits
from thermologic import quantum
from thermologic.quantum import (
    MAX_TRIALS,
    DensityMatrix,
    HamiltonianSpec,
    QuantumError,
    SetupError,
    TrialSetup,
    block_mixture,
    canonicalize,
    default_setup,
    gibbs_state,
    haar_unitary,
    partial_trace,
    run_trials,
    verify_bound,
    vn_entropy,
)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(QuantumError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(QuantumError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(QuantumError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(QuantumError, match="must not be empty"):
            DensityMatrix(np.zeros((0, 0)))


class TestGibbsState:
    def test_flat_spectrum_is_maximally_mixed(self):
        rho = gibbs_state(HamiltonianSpec(np.zeros(4)), 1.0)
        assert np.allclose(rho.matrix, np.eye(4) / 4.0)
        assert vn_entropy(rho) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_level_populations(self):
        rho = gibbs_state(HamiltonianSpec(np.array([0.0, 1.0])), 1.0)
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert expected == pytest.approx(0.731059, abs=1e-6)
        assert rho.matrix[0, 0].real == pytest.approx(expected, abs=1e-12)

    def test_high_temperature_limit_is_flat(self):
        rho = gibbs_state(HamiltonianSpec(np.array([0.0, 1.0])), 1e6)
        assert np.max(np.abs(rho.matrix - np.eye(2) / 2.0)) < 1e-6

    def test_large_spectrum_does_not_overflow(self):
        rho = gibbs_state(HamiltonianSpec(np.array([0.0, 5000.0])), 1.0)
        assert rho.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)


class TestEntropy:
    def test_pure_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert vn_entropy(rho) == 0.0

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        assert vn_entropy(rho) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_gibbs_two_level_value(self):
        rho = gibbs_state(HamiltonianSpec(np.array([0.0, 1.0])), 1.0)
        p = 1.0 / (1.0 + math.exp(-1.0))
        oracle = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert oracle == pytest.approx(0.582203, abs=1e-6)
        assert vn_entropy(rho) == pytest.approx(oracle, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        rho = gibbs_state(HamiltonianSpec(np.linspace(0, 2, 6)), 0.7)
        u = haar_unitary(6, rng)
        rotated = u @ rho.matrix @ u.conj().T
        assert abs(vn_entropy(rotated) - vn_entropy(rho)) < 1e-10


@pytest.mark.parametrize(
    "temperature", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda t: gibbs_state(HamiltonianSpec(np.array([0.0, 1.0])), t),
        lambda t: canonicalize(DensityMatrix(np.diag([0.75, 0.25]).astype(complex)), t, 0.0),
        lambda t: TrialSetup(
            system_h=HamiltonianSpec(np.zeros(2)),
            env_h=HamiltonianSpec(np.zeros(2)),
            blocks=((0, 2),),
            input_probs=np.array([1.0]),
            input_states=(np.eye(2) / 2.0,),
            reference_temperature=t,
        ),
        lambda t: default_setup((2, 2), 4, t),
    ],
    ids=["gibbs_state", "canonicalize", "TrialSetup", "default_setup"],
)
def test_temperature_must_be_finite_and_positive(call, temperature):
    with pytest.raises(QuantumError, match="temperature must be finite and positive"):
        call(temperature)


@pytest.mark.parametrize(
    "call",
    [
        lambda: DensityMatrix(np.full((2, 2), math.nan)),
        lambda: gibbs_state(HamiltonianSpec([math.nan, 1.0]), 1.0),
        lambda: HamiltonianSpec([math.inf, 0.0]),
        lambda: canonicalize(DensityMatrix(np.diag([0.75, 0.25]).astype(complex)), 1.0, math.nan),
        lambda: run_trials(
            TrialSetup(
                system_h=HamiltonianSpec(np.array([0.0, 0.4, math.nan, 1.3])),
                env_h=HamiltonianSpec(np.linspace(0.0, 1.0, 2)),
                blocks=((0, 2), (2, 2)),
                input_probs=np.array([0.5, 0.5]),
                input_states=(np.eye(2) / 2.0, np.eye(2) / 2.0),
                reference_temperature=1.0,
            ),
            3,
            seed=1,
        ),
    ],
    ids=["density-matrix-nan", "energies-nan", "energies-inf", "target-energy-nan", "sweep"],
)
def test_non_finite_entries_are_rejected(call):
    with pytest.raises(QuantumError, match="must be finite"):
        call()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_expectation_is_the_trace_of_the_diagonal_product(data):
    """The diagonal contraction rounds exactly as the dense product Re tr(diag(v) rho)."""
    dim = data.draw(st.integers(1, 16))
    count = data.draw(st.integers(1, 4))
    entry = st.floats(-1e3, 1e3)
    values = data.draw(arrays(float, dim, elements=entry))
    parts = data.draw(arrays(float, (2, count, dim, dim), elements=entry))
    z = parts[0] + 1j * parts[1]
    rho = z + z.conj().swapaxes(-1, -2)  # Hermitian, so its diagonal is real
    want = np.trace(np.diag(values) @ rho, axis1=-2, axis2=-1).real
    assert bits(quantum._expectation(values, rho)) == bits(want)


class TestCanonicalize:
    def test_maximally_mixed_gives_degenerate_spectrum(self):
        rho = DensityMatrix(np.eye(3, dtype=complex) / 3.0)
        result = canonicalize(rho, 1.0, 0.4)
        assert np.allclose(result.hamiltonian.energies, 0.4)
        assert result.full_rank

    def test_diagonal_example(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        result = canonicalize(rho, 1.0, 0.0)
        mean_log = 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
        assert result.hamiltonian.energies[0] == pytest.approx(
            -(math.log(0.75) - mean_log), abs=1e-12
        )
        assert result.hamiltonian.energies[1] == pytest.approx(
            -(math.log(0.25) - mean_log), abs=1e-12
        )
        back = gibbs_state(result.hamiltonian, 1.0)
        assert np.allclose(np.diag(back.matrix).real, [0.75, 0.25])
        assert float(
            result.hamiltonian.energies @ np.diag(back.matrix).real
        ) == pytest.approx(0.0, abs=1e-12)

    def test_non_diagonal_input(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = z @ z.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        result = canonicalize(rho, 0.8, 1.7)
        rotated = result.unitary @ rho.matrix @ result.unitary.conj().T
        target = gibbs_state(result.hamiltonian, 0.8)
        assert np.max(np.abs(rotated - target.matrix)) < 1e-10
        assert abs(vn_entropy(rotated) - vn_entropy(rho)) < 1e-10
        mean = float(np.real(np.trace(np.diag(result.hamiltonian.energies) @ target.matrix)))
        assert mean == pytest.approx(1.7, abs=1e-10)

    def test_rank_deficient_input_restricts_to_support(self):
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0]).astype(complex))
        result = canonicalize(rho, 1.0, 0.0)
        assert result.support_dim == 2
        assert not result.full_rank
        assert result.hamiltonian.dim == 2


class TestPartialTrace:
    def test_product_state_factorises(self):
        a = gibbs_state(HamiltonianSpec(np.array([0.0, 1.0])), 1.0).matrix
        b = gibbs_state(HamiltonianSpec(np.linspace(0, 2, 3)), 0.5).matrix
        joint = np.kron(a, b)
        assert np.max(np.abs(partial_trace(joint, (2, 3), 0) - a)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, (2, 3), 1) - b)) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3), (6,)])
    def test_rejects_a_state_that_does_not_match_the_dims(self, shape):
        with pytest.raises(QuantumError, match="does not match dims 3 x 2"):
            partial_trace(np.zeros(shape), (3, 2), 0)


class TestHaar:
    def test_unitarity(self):
        rng = np.random.default_rng(3)
        u = haar_unitary(8, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12

    def test_seeded_reproducibility(self):
        u1 = haar_unitary(6, np.random.default_rng(9))
        u2 = haar_unitary(6, np.random.default_rng(9))
        assert np.array_equal(u1, u2)

    @pytest.mark.parametrize("dim", [1, 8, 64])
    def test_stacked_draws_equal_the_per_matrix_construction(self, dim):
        # A sweep draws a chunk of unitaries at once into one reused workspace, the
        # last, partial chunk into its leading trials; each must be the one that a
        # lone QR of its own Ginibre matrix, phase-fixed column by column, gives.
        rng = np.random.default_rng(4)
        ws = quantum._Workspace.allocate(3, dim)
        chunks = [quantum._haar_unitaries(n, dim, rng, ws.head(n)).copy() for n in (3, 3, 1)]
        rng = np.random.default_rng(4)
        for unitary in np.concatenate(chunks):
            z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
            q, r = np.linalg.qr(z)
            assert np.array_equal(unitary, q * (np.diag(r) / np.abs(np.diag(r))))

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True, "4"])
    def test_dimension_must_be_a_positive_integer(self, dim):
        rng = np.random.default_rng(0)
        with pytest.raises(QuantumError, match="dimension must be an integer of at least 1"):
            haar_unitary(dim, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # no draw
        assert haar_unitary(np.int64(2), rng).shape == (2, 2)


class TestMixtureIdentity:
    def test_block_mixture_entropy_decomposition(self):
        # A block-orthogonal mixture has entropy sum P (S_block - ln P).
        setup = default_setup((2, 2), 4, 1.0, input_probs=[0.3, 0.7])
        rho = setup.initial_system
        direct = vn_entropy(rho)
        decomposed = sum(
            p * (vn_entropy(state) - math.log(p))
            for p, state in zip(setup.input_probs, setup.input_states)
            if p > 0.0
        )
        assert direct == pytest.approx(decomposed, abs=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_probs_are_rejected(self, bad):
        with pytest.raises(SetupError):
            default_setup((2, 2), 4, 1.0, input_probs=[bad, 0.5])

    @pytest.mark.parametrize(
        "target", [[math.nan, 0.5], [2.0, -1.0], [math.inf, 0.0]], ids=["nan", "negative", "inf"]
    )
    def test_target_output_probs_must_form_a_distribution(self, target):
        with pytest.raises(SetupError, match="target output probabilities must form a distribution"):
            default_setup((2, 2), 4, 1.0, [0.5, 0.5], target)

    def test_blocks_must_not_overlap(self):
        h = HamiltonianSpec(np.zeros(4))
        with pytest.raises(SetupError):
            TrialSetup(
                system_h=h,
                env_h=HamiltonianSpec(np.zeros(2)),
                blocks=((0, 2), (1, 2)),
                input_probs=np.array([0.5, 0.5]),
                input_states=(np.eye(2) / 2.0, np.eye(2) / 2.0),
                reference_temperature=1.0,
            )

    @pytest.mark.parametrize(
        "states, error, message",
        [
            ((np.eye(3) / 3.0,), SetupError, "shape does not match"),
            ((np.eye(2)[:, :1],), SetupError, "shape does not match"),
            ((np.eye(2) / 2.0, np.eye(2) / 2.0), SetupError, "must align"),
            ((np.eye(2),), QuantumError, "trace differs from one"),
        ],
        ids=["3x3-for-2-states", "not-square", "two-states-for-one-block", "trace-two"],
    )
    def test_block_states_are_checked_when_the_setup_is_built(self, states, error, message):
        # A wrong state used to construct, give an empty batch for zero trials
        # and raise only on the first trial.
        with pytest.raises(error, match=message):
            TrialSetup(
                system_h=HamiltonianSpec(np.zeros(2)),
                env_h=HamiltonianSpec(np.zeros(2)),
                blocks=((0, 2),),
                input_probs=np.array([1.0]),
                input_states=states,
                reference_temperature=1.0,
            )

    @pytest.mark.parametrize(
        "blocks, env_dim, message",
        [
            ((40, 40), 1, "exceeds cap"),
            ((2, 2), 17, "exceeds cap"),
            ((0, 2), 4, "block outside"),
            ((2, 2), 0, "env_dim must be at least 1, got 0"),
            ((2, 2), -3, "env_dim must be at least 1, got -3"),
            ((2, 2), True, "env_dim must be an integer, got True"),
            ((2, 2), 2.5, "env_dim must be an integer, got 2.5"),
        ],
    )
    def test_default_setup_checks_dimensions_before_building(
        self, monkeypatch, blocks, env_dim, message
    ):
        built = []
        monkeypatch.setattr("thermologic.quantum.gibbs_state", lambda *args: built.append(args))
        with pytest.raises(SetupError, match=message):
            default_setup(blocks, env_dim, 1.0)
        assert built == []


class TestVerifyBound:
    def test_identity_unitary_has_zero_slack(self):
        setup = default_setup((2, 2), 4, 1.0)
        result = verify_bound(setup, np.eye(16, dtype=complex))
        assert result.work == pytest.approx(0.0, abs=1e-12)
        assert result.slack == pytest.approx(0.0, abs=1e-10)
        assert result.subadditivity_slack == pytest.approx(0.0, abs=1e-10)
        assert result.environment_relative_entropy == pytest.approx(0.0, abs=1e-10)

    def test_swap_with_environment(self):
        # 2x2 swap: the system and an equal-sized environment trade states
        setup = default_setup((2,), 2, 1.0, input_probs=[1.0])
        dim = 4
        swap = np.zeros((dim, dim), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        result = verify_bound(setup, swap)
        assert result.slack >= -1e-12
        # after a swap the marginals are exchanged and uncorrelated, so the
        # slack is exactly the environment's relative-entropy term
        assert result.subadditivity_slack == pytest.approx(0.0, abs=1e-10)
        assert result.slack == pytest.approx(
            setup.reference_temperature
            * (result.environment_relative_entropy + result.subadditivity_slack),
            abs=1e-10,
        )

    def test_a_nested_list_is_read_as_a_matrix(self):
        setup = default_setup((2, 2), 4, 1.0)
        unitary = haar_unitary(16, np.random.default_rng(6))
        assert bits(verify_bound(setup, unitary.tolist())) == bits(verify_bound(setup, unitary))
        with pytest.raises(SetupError, match="does not match"):
            verify_bound(setup, unitary[:4, :4].tolist())

    def test_slack_decomposes_into_the_two_lemmas(self):
        setup = default_setup((2, 2), 8, 1.0, input_probs=[0.6, 0.4])
        rng = np.random.default_rng(4)
        for _ in range(10):
            result = verify_bound(setup, haar_unitary(32, rng))
            assert result.slack == pytest.approx(
                setup.reference_temperature
                * (result.environment_relative_entropy + result.subadditivity_slack),
                abs=1e-9,
            )

    def test_operation_respecting_classification(self):
        setup = default_setup(
            (2, 2), 4, 1.0, input_probs=[0.6, 0.4], target_output_probs=[0.6, 0.4]
        )
        result = verify_bound(setup, np.eye(16, dtype=complex))
        assert result.respects_operation is True
        assert np.allclose(result.output_block_weights, [0.6, 0.4], atol=1e-12)

    def test_batch_counts_and_reproducibility(self):
        setup = default_setup((2, 2), 8, 1.0, input_probs=[0.6, 0.4])
        batch1 = run_trials(setup, 40, seed=5)
        batch2 = run_trials(setup, 40, seed=5)
        assert batch1.total_violations == 0
        assert [r.slack for r in batch1.results] == [r.slack for r in batch2.results]

    @pytest.mark.parametrize(
        "distort",
        [
            lambda u: 1.001 * u,
            lambda u: np.round(u, 3),
            lambda u: u * np.r_[np.ones(15), 0.0],
            lambda u: u * np.nan,
        ],
        ids=["scaled", "rounded", "last-column-zeroed", "nan"],
    )
    def test_non_unitary_matrix_is_rejected(self, distort):
        # The joint entropy is taken as invariant, which holds only for a unitary.
        setup = default_setup((2, 2), 4, 1.0)
        unitary = haar_unitary(16, np.random.default_rng(6))
        verify_bound(setup, unitary)
        with pytest.raises(SetupError, match="not unitary"):
            verify_bound(setup, distort(unitary))

    @pytest.mark.parametrize("blocks, env_dim", [((4, 4), 8), ((2, 2), 4), ((1,), 2)])
    def test_sweep_draws_pass_the_unitarity_check(self, blocks, env_dim):
        setup = default_setup(blocks, env_dim, 0.9)
        dim = setup.system_h.dim * setup.env_h.dim
        trials = 3 * max(1, quantum.CHUNK_ELEMENTS // dim**2) + 1  # three full chunks and one trial
        batch = run_trials(setup, trials, seed=3)
        assert len(batch.results) == trials and batch.total_violations == 0


def test_chunk_size_does_not_change_a_sweep(monkeypatch):
    # A sweep reuses one workspace for all its chunks; the last, partial one
    # uses its leading trials.  How the trials split must not show in any bit.
    setup = default_setup((2, 2), 4, 1.0, [0.6, 0.4], [0.5, 0.5])  # d = 16
    default = quantum.CHUNK_ELEMENTS
    draw = quantum._haar_unitaries
    chunks = []
    monkeypatch.setattr(
        quantum, "_haar_unitaries", lambda count, *args: chunks.append(count) or draw(count, *args)
    )
    sweeps = {}
    for elements, split in ((256, [1] * 11), (1024, [4, 4, 3]), (default, [11])):
        monkeypatch.setattr(quantum, "CHUNK_ELEMENTS", elements)
        chunks.clear()
        sweeps[elements] = run_trials(setup, 11, seed=7)
        assert chunks == split
    first = bits(sweeps[256])
    assert bits(sweeps[1024]) == first == bits(sweeps[default])

    # A later sweep of the same dimension must leave every earlier result as it was.
    run_trials(default_setup((1, 3), 4, 0.7, [0.3, 0.7]), 11, seed=8)
    assert all(bits(batch) == first for batch in sweeps.values())
    for batch in sweeps.values():
        assert not any(r.output_block_weights.flags.writeable for r in batch.results)


def test_a_chunk_allocates_no_stack_beyond_the_workspace():
    # Each chunk's QR runs in the workspace, so a warm sweep's traced peak exceeds
    # the workspace by less than one d x d stack of a chunk (256 KiB at d = 64).
    setup = default_setup((4, 4), 8, 1.0)  # d = 64: chunks of 4 + 4 + 1 trials
    chunk = quantum.CHUNK_ELEMENTS // 64**2
    workspace = sum(array.nbytes for array in quantum._Workspace.allocate(chunk, 64))
    run_trials(setup, 9, seed=1)  # builds the setup's cached properties
    tracemalloc.start()
    try:
        run_trials(setup, 9, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - workspace < chunk * 64**2 * np.dtype(complex).itemsize


class TestIdentity:
    def test_planted_environment_energy_error_is_counted(self):
        setup = default_setup((2, 2), 8, 1.0, input_probs=[0.6, 0.4])
        clean = run_trials(setup, 12, seed=4)
        assert clean.identity_violations == 0 and clean.total_violations == 0
        e_sys, e_env = setup.initial_energies
        setup.__dict__["initial_energies"] = (e_sys, e_env + 1e-6)  # the cached value
        planted = run_trials(setup, 12, seed=4)
        assert planted.identity_violations == 12
        assert planted.total_violations >= 12
        # The lemma terms do not read the initial energies, so only the identity can see it.
        assert planted.subadditivity_violations == planted.relative_entropy_violations == 0
        for bad, good in zip(planted.results, clean.results):
            assert bad.subadditivity_slack == good.subadditivity_slack
            assert abs(bad.identity_residual) == pytest.approx(1e-6, rel=1e-6)


def test_trial_count_is_capped():
    setup = default_setup((1, 1), 2, 1.0)
    assert MAX_TRIALS >= 100 * 500  # far above the command line's default of 500
    assert len(run_trials(setup, 3, seed=1).results) == 3
    for trials in (-1, MAX_TRIALS + 1, 10**400, 2.5, True):
        with pytest.raises(SetupError, match="trial count"):
            run_trials(setup, trials, seed=1)


def _entropy_per_trial(m) -> float:
    # 0 ln 0 = 0 as a zero term in the eigenvalue's place: numpy's sum groups by
    # position, so dropping the term could move the result by an ulp.
    eigs = np.clip(np.linalg.eigvalsh(np.asarray(m, dtype=complex)), 0.0, None)
    return float(-(eigs * np.log(np.where(eigs > 1e-300, eigs, 1.0))).sum())


def _verify_per_trial(setup, unitary, index):
    """verify_bound for one unitary, written out without the setup's caches or stacking.

    Every value that does not depend on the unitary is rebuilt here on
    each call, and the final environment is diagonalised twice.  The
    joint entropy is the unitary invariant S(rho_S) + S(gamma_E).
    """
    ds, de = setup.system_h.dim, setup.env_h.dim
    t_ref = setup.reference_temperature
    rho_sys = block_mixture(setup.blocks, setup.input_probs, setup.input_states, ds).matrix
    rho_env = gibbs_state(setup.env_h, t_ref).matrix
    rho_final = unitary @ np.kron(rho_sys, rho_env) @ unitary.conj().T
    sys_final = partial_trace(rho_final, (ds, de), keep=0)
    env_final = partial_trace(rho_final, (ds, de), keep=1)
    h_sys, h_env = np.diag(setup.system_h.energies), np.diag(setup.env_h.energies)
    e_sys_0 = float(np.real(np.trace(h_sys @ rho_sys)))
    e_sys_1 = float(np.real(np.trace(h_sys @ sys_final)))
    e_env_0 = float(np.real(np.trace(h_env @ rho_env)))
    e_env_1 = float(np.real(np.trace(h_env @ env_final)))
    work = (e_sys_1 - e_sys_0) + (e_env_1 - e_env_0)
    s_final = _entropy_per_trial(sys_final)
    bound = (e_sys_1 - e_sys_0) - t_ref * (s_final - _entropy_per_trial(rho_sys))
    joint_entropy = _entropy_per_trial(rho_sys) + _entropy_per_trial(rho_env)
    subadd = s_final + _entropy_per_trial(env_final) - joint_entropy
    exponents = -(setup.env_h.energies - setup.env_h.energies.min()) / t_ref
    log_gibbs = np.diag(exponents - math.log(float(np.exp(exponents).sum()))).astype(complex)
    rel_ent = -_entropy_per_trial(env_final) - float(np.real(np.trace(env_final @ log_gibbs)))
    residual = (work - bound) - t_ref * (subadd + rel_ent)
    weights = [float(np.real(np.trace(sys_final[s : s + n, s : s + n]))) for s, n in setup.blocks]
    respects = None
    if setup.target_output_probs is not None:
        respects = bool(np.max(np.abs(np.array(weights) - setup.target_output_probs)) <= 0.05)
    return (index, work, bound, work - bound, subadd, rel_ent, residual, weights, respects)


def _non_diagonal_setup() -> TrialSetup:
    rng = np.random.default_rng(12)
    states = []
    for size in (2, 3):
        z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        m = z @ z.conj().T
        states.append(m / np.trace(m).real)
    return TrialSetup(
        system_h=HamiltonianSpec(np.array([0.0, 0.4, 0.5, 1.1, 1.6])),
        env_h=HamiltonianSpec(np.linspace(0.0, 1.7, 4)),
        blocks=((0, 2), (2, 3)),
        input_probs=np.array([0.35, 0.65]),
        input_states=tuple(states),
        reference_temperature=0.8,
        target_output_probs=np.array([0.5, 0.5]),
    )


def _diagonal_setup() -> TrialSetup:
    """Diagonal block states that are not canonical at the reference temperature."""
    return TrialSetup(
        system_h=HamiltonianSpec(np.array([0.0, 0.4, 0.5, 1.1, 1.6])),
        env_h=HamiltonianSpec(np.linspace(0.0, 1.7, 4)),
        blocks=((0, 2), (2, 3)),
        input_probs=np.array([0.35, 0.65]),
        input_states=(np.diag([0.1, 0.9]), np.diag([0.5, 0.2, 0.3])),
        reference_temperature=0.8,
    )


SWEEP_SETUPS = {
    "targeted": lambda: default_setup((1, 3), 8, 0.7, [0.3, 0.7], [0.4, 0.6]),
    "untargeted": lambda: default_setup((2, 2, 2), 4, 1.3, [0.2, 0.5, 0.3]),
    "non-diagonal blocks": _non_diagonal_setup,
    "diagonal non-canonical blocks": _diagonal_setup,
    "zero-probability block": lambda: default_setup((4, 4), 8, 1.0, [1.0, 0.0]),
    "underflowing populations": lambda: default_setup((2, 2), 16, 0.002),
}


class _CountedProducts:
    """numpy as :mod:`quantum` sees it, recording the right operand of each ``matmul``."""

    def __init__(self):
        self.right = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.right.append(b)
        return np.matmul(a, b, **kwargs)


@pytest.mark.parametrize(
    "make, dense",
    [(_non_diagonal_setup, True), (_diagonal_setup, False), (default_setup, False)],
    ids=["non-diagonal", "diagonal", "default"],
)
def test_only_a_joint_state_off_its_diagonal_takes_the_dense_product(monkeypatch, make, dense):
    # A diagonal joint state rotates by scaling the unitary's columns; U^dagger U
    # and rho_f = (U rho) U^dagger are dense products whatever the state.
    setup = make()
    counted = _CountedProducts()
    monkeypatch.setattr(quantum, "np", counted)
    run_trials(setup, 3, seed=1)  # one chunk
    assert (setup.joint_populations is None) == dense
    want = [False, True, False] if dense else [False, False]
    assert [b is setup.initial_joint for b in counted.right] == want


class TestCachedSetup:
    @pytest.mark.parametrize("make", SWEEP_SETUPS.values(), ids=SWEEP_SETUPS.keys())
    def test_sweep_equals_the_per_trial_path(self, make):
        setup = make()
        batch = run_trials(setup, 25, seed=8)
        rng = np.random.default_rng(8)
        dim = setup.system_h.dim * setup.env_h.dim
        expected = [_verify_per_trial(make(), haar_unitary(dim, rng), k) for k in range(25)]
        got = [
            (r.index, r.work, r.bound, r.slack, r.subadditivity_slack,
             r.environment_relative_entropy, r.identity_residual,
             r.output_block_weights.tolist(), r.respects_operation)
            for r in batch.results
        ]
        assert got == expected
        assert batch.bound_violations == sum(e[3] < -1e-9 for e in expected)
        assert batch.subadditivity_violations == sum(e[4] < -1e-9 for e in expected)
        assert batch.relative_entropy_violations == sum(e[5] < -1e-9 for e in expected)
        assert batch.identity_violations == sum(
            abs(e[6]) > 1e-9 * (1.0 + abs(e[1]) + abs(e[2])) for e in expected
        )
        assert batch.respecting_trials == sum(bool(e[8]) for e in expected)

    @pytest.mark.parametrize("make", SWEEP_SETUPS.values(), ids=SWEEP_SETUPS.keys())
    def test_joint_entropy_is_the_unitary_invariant(self, make):
        setup = make()
        rng = np.random.default_rng(21)
        dim = setup.system_h.dim * setup.env_h.dim
        for _ in range(10):
            unitary = haar_unitary(dim, rng)
            rho_final = unitary @ setup.initial_joint @ unitary.conj().T
            assert _entropy_per_trial(rho_final) == pytest.approx(setup.joint_entropy, abs=1e-13)

    def test_invariants_are_built_once_per_setup(self, monkeypatch):
        calls = []
        for name in ("gibbs_state", "block_mixture"):
            original = getattr(quantum, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(quantum, name, counted)
        counts = []
        for trials in (1, 50):
            calls.clear()
            run_trials(default_setup((2, 2), 4, 1.0, [0.6, 0.4]), trials, seed=2)
            counts.append(sorted(calls))
        # The setup's two block states, its mixture, and the environment's canonical state.
        want = ["block_mixture", "gibbs_state", "gibbs_state", "gibbs_state"]
        assert counts[0] == counts[1] == want

    def test_cached_arrays_are_read_only(self):
        setup = _non_diagonal_setup()
        verify_bound(setup, np.eye(20, dtype=complex))
        arrays = [
            *setup.input_states,
            setup.input_probs,
            setup.target_output_probs,
            setup.initial_system.matrix,
            setup.initial_environment.matrix,
            setup.initial_joint,
            setup.env_log_gibbs,
            _diagonal_setup().joint_populations,
        ]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_input_states_are_copied(self):
        state = np.eye(2, dtype=complex) / 2.0
        setup = TrialSetup(
            system_h=HamiltonianSpec(np.array([0.0, 1.0])),
            env_h=HamiltonianSpec(np.array([0.0, 0.5])),
            blocks=((0, 2),),
            input_probs=np.array([1.0]),
            input_states=(state,),
            reference_temperature=1.0,
        )
        unitary = haar_unitary(4, np.random.default_rng(0))
        first = verify_bound(setup, unitary)
        state[:] = np.diag([1.0, 0.0])
        again = verify_bound(setup, unitary)
        assert (again.work, again.slack) == (first.work, first.slack)
        assert setup.initial_system.matrix[1, 1] == 0.5


def test_result_arrays_are_read_only():
    setup = default_setup(reference_temperature=0.8)
    results = run_trials(setup, 3, seed=4).results
    dim = setup.system_h.dim * setup.env_h.dim
    results += (verify_bound(setup, haar_unitary(dim, np.random.default_rng(4))),)
    for result in results:
        assert not result.output_block_weights.flags.writeable
    rho = gibbs_state(HamiltonianSpec(np.linspace(0.0, 2.0, 4)), 0.7)
    assert not canonicalize(rho, 0.7, 0.5).unitary.flags.writeable
