import math

import numpy as np
import pytest

from thermologic.quantum import (
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
    mixture_entropy_terms,
    partial_trace,
    relative_entropy,
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
        mean = float(np.real(np.trace(result.hamiltonian.matrix() @ target.matrix)))
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


class TestHaar:
    def test_unitarity(self):
        rng = np.random.default_rng(3)
        u = haar_unitary(8, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12

    def test_seeded_reproducibility(self):
        u1 = haar_unitary(6, np.random.default_rng(9))
        u2 = haar_unitary(6, np.random.default_rng(9))
        assert np.array_equal(u1, u2)


class TestMixtureIdentity:
    def test_block_mixture_entropy_decomposition(self):
        setup = default_setup((2, 2), 4, 1.0, input_probs=[0.3, 0.7])
        rho = setup.initial_system
        direct = vn_entropy(rho)
        decomposed = mixture_entropy_terms(setup.input_probs, setup.input_states)
        assert direct == pytest.approx(decomposed, abs=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_probs_are_rejected(self, bad):
        with pytest.raises(SetupError):
            default_setup((2, 2), 4, 1.0, input_probs=[bad, 0.5])

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
        "blocks, env_dim, message",
        [((40, 40), 1, "exceeds cap"), ((2, 2), 17, "exceeds cap"), ((0, 2), 4, "block outside")],
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
