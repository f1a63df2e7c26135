import numpy as np
import pytest

from qbnets import (
    ClassicalDistribution,
    Dag,
    DensityMatrix,
    DiagonalExtension,
    InvalidStateError,
    classical_cmi,
    classical_conditional_entropy,
    classical_entropy,
    classical_mutual_information,
    cmi_diagonal,
    dephase,
    diagonal_blocks,
    net_to_density,
    partial_trace,
    quantum_cmi,
    quantum_conditional_entropy,
    quantum_mutual_information,
    reordered,
    von_neumann_entropy,
)
from qbnets.sampling import random_density_matrix, random_diagonal_extension, random_qbnet

LN2 = np.log(2.0)


def bell_state():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix((("x", 2), ("y", 2)), np.outer(v, v.conj()))


def qubit(matrix):
    return DensityMatrix((("q", 2),), np.asarray(matrix, dtype=complex))


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix((("q", 2),), [[0.5, 0.1], [0.3, 0.5]])

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix((("q", 2),), np.eye(2))

    def test_negative_spectrum_rejected(self):
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            DensityMatrix((("q", 2),), [[1.5, 0], [0, -0.5]])

    def test_non_finite_entry_rejected(self):
        with pytest.raises(InvalidStateError, match="non-finite"):
            DensityMatrix((("x", 2),), np.diag([np.nan, np.nan]))

    def test_tiny_negative_tolerated(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        m /= np.trace(m).real
        qubit(m)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(qubit([[1, 0], [0, 0]])) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(qubit(np.eye(2) / 2)) == pytest.approx(LN2)

    def test_diagonal_spectrum(self):
        # frozen from -0.7 ln 0.7 - 0.3 ln 0.3
        got = von_neumann_entropy(qubit(np.diag([0.7, 0.3])))
        assert got == pytest.approx(0.6108643020548935, abs=1e-12)

    def test_basis_invariant(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix((("q", 3),), rng)
        w = np.linalg.eigvalsh(rho.matrix)
        expect = -(w * np.log(w)).sum()
        assert von_neumann_entropy(rho) == pytest.approx(expect, abs=1e-12)


class TestQuantumInformation:
    def test_product_state_zero_mi(self):
        rng = np.random.default_rng(1)
        a = random_density_matrix((("x", 2),), rng)
        b = random_density_matrix((("y", 3),), rng)
        rho = DensityMatrix((("x", 2), ("y", 3)), np.kron(a.matrix, b.matrix))
        assert quantum_mutual_information(rho, "x", "y") == pytest.approx(0.0, abs=1e-10)

    def test_bell_state_values(self):
        rho = bell_state()
        assert quantum_conditional_entropy(rho, "x", "y") == pytest.approx(-LN2)
        assert quantum_mutual_information(rho, "x", "y") == pytest.approx(2 * LN2)

    def test_strong_subadditivity_sanity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density_matrix((("x", 2), ("y", 2), ("z", 2)), rng)
            assert quantum_cmi(rho, "x", "y", "z") >= -1e-9

    def test_partition_checked(self):
        rho = bell_state()
        with pytest.raises(ValueError, match="disjoint"):
            quantum_mutual_information(rho, "x", "x")
        with pytest.raises(ValueError, match="partition"):
            quantum_conditional_entropy(rho, "x", ())


class TestPartialTraceAndReorder:
    def test_bell_marginal_is_mixed(self):
        rho_x = partial_trace(bell_state(), "x")
        np.testing.assert_allclose(rho_x.matrix, np.eye(2) / 2, atol=1e-12)

    def test_reorder_roundtrip(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix((("x", 2), ("y", 3)), rng)
        back = reordered(reordered(rho, ("y", "x")), ("x", "y"))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_reorder_consistent_with_kron(self):
        rng = np.random.default_rng(4)
        a = random_density_matrix((("x", 2),), rng)
        b = random_density_matrix((("y", 3),), rng)
        rho = DensityMatrix((("x", 2), ("y", 3)), np.kron(a.matrix, b.matrix))
        flipped = reordered(rho, ("y", "x"))
        np.testing.assert_allclose(
            flipped.matrix, np.kron(b.matrix, a.matrix), atol=1e-12
        )


class TestDephase:
    def test_diagonal_input_unchanged(self):
        rho = qubit(np.diag([0.4, 0.6]))
        np.testing.assert_allclose(dephase(rho, "q").matrix, rho.matrix)

    def test_plus_state_becomes_mixed(self):
        plus = qubit(np.full((2, 2), 0.5))
        np.testing.assert_allclose(dephase(plus, "q").matrix, np.eye(2) / 2)

    def test_idempotent_and_entropy_nondecreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_density_matrix((("x", 2), ("y", 2)), rng)
            once = dephase(rho, "x")
            twice = dephase(once, "x")
            np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-12)
            assert von_neumann_entropy(once) >= von_neumann_entropy(rho) - 1e-10

    def test_only_named_blocks_zeroed(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix((("x", 2), ("y", 2)), rng)
        out = dephase(rho, "x")
        tens = out.tensor()
        assert np.allclose(tens[0, :, 1, :], 0) and np.allclose(tens[1, :, 0, :], 0)
        np.testing.assert_allclose(tens[0, :, 0, :], rho.tensor()[0, :, 0, :])


class TestClassicalInformation:
    def test_uniform_entropy(self):
        dist = ClassicalDistribution((("x", 2),), [0.5, 0.5])
        assert classical_entropy(dist) == pytest.approx(LN2)

    def test_correlated_pair(self):
        dist = ClassicalDistribution(
            (("x", 2), ("y", 2)), [[0.5, 0.0], [0.0, 0.5]]
        )
        assert classical_mutual_information(dist, "x", "y") == pytest.approx(LN2)
        assert classical_conditional_entropy(dist, "x", "y") == pytest.approx(0.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ClassicalDistribution((("x", 2),), [1.1, -0.1])

    def test_non_finite_mass_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ClassicalDistribution((("x", 2),), [np.nan, 1.0])

    def test_cmi_is_weighted_sum_over_conditioner(self):
        rng = np.random.default_rng(7)
        t = rng.random((2, 3, 2))
        t /= t.sum()
        dist = ClassicalDistribution((("x", 2), ("y", 3), ("lam", 2)), t)
        got = classical_cmi(dist, "x", "y", "lam")
        expect = 0.0
        for k in range(2):
            block = t[:, :, k]
            p = block.sum()
            cond = ClassicalDistribution((("x", 2), ("y", 3)), block / p)
            expect += p * classical_mutual_information(cond, "x", "y")
        assert got == pytest.approx(expect, abs=1e-10)
        assert got >= -1e-12


class TestDiagonalExtension:
    def test_weight_validation(self):
        rho = qubit(np.eye(2) / 2)
        with pytest.raises(ValueError, match="sum"):
            DiagonalExtension([0.5, 0.4], [rho, rho])
        with pytest.raises(ValueError, match="non-finite"):
            DiagonalExtension([np.nan, 1.0], [rho, rho])

    def test_assemble_blocks(self):
        rng = np.random.default_rng(8)
        ext = random_diagonal_extension(rng, (2, 2), lam_card=3)
        big = ext.assemble("lam")
        assert big.names == ("lam", "x", "y")
        tens = big.matrix
        for k in range(3):
            block = tens[4 * k : 4 * k + 4, 4 * k : 4 * k + 4]
            np.testing.assert_allclose(
                block, ext.weights[k] * ext.components[k].matrix, atol=1e-12
            )

    def test_diagonal_blocks_roundtrip(self):
        rng = np.random.default_rng(9)
        ext = random_diagonal_extension(rng, (2, 3), lam_card=2)
        back = diagonal_blocks(ext.assemble("lam"), "lam")
        np.testing.assert_allclose(back.weights, ext.weights, atol=1e-12)
        for mine, theirs in zip(back.components, ext.components):
            np.testing.assert_allclose(mine.matrix, theirs.matrix, atol=1e-10)

    def test_diagonal_blocks_rejects_coherent_state(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix((("lam", 2), ("x", 2)), rng)
        with pytest.raises(ValueError, match="block diagonal"):
            diagonal_blocks(rho, "lam")


class TestCmiDiagonal:
    def test_product_components_zero(self):
        rng = np.random.default_rng(11)
        comps = []
        for _ in range(3):
            a = random_density_matrix((("x", 2),), rng)
            b = random_density_matrix((("y", 2),), rng)
            comps.append(
                DensityMatrix((("x", 2), ("y", 2)), np.kron(a.matrix, b.matrix))
            )
        ext = DiagonalExtension([0.2, 0.3, 0.5], comps)
        assert cmi_diagonal(ext) == pytest.approx(0.0, abs=1e-10)

    def test_single_bell_component(self):
        ext = DiagonalExtension([1.0], [bell_state()])
        assert cmi_diagonal(ext) == pytest.approx(2 * LN2, abs=1e-10)

    def test_matches_assembled_quantum_cmi(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ext = random_diagonal_extension(rng, (2, 2), lam_card=int(rng.integers(1, 4)))
            got = cmi_diagonal(ext)
            expect = quantum_cmi(ext.assemble("lam"), "x", "y", "lam")
            assert got == pytest.approx(expect, abs=1e-10)

    def test_zero_cmi_forces_product_components(self):
        rng = np.random.default_rng(13)
        comps = []
        for _ in range(2):
            a = random_density_matrix((("x", 2),), rng)
            b = random_density_matrix((("y", 2),), rng)
            comps.append(
                DensityMatrix((("x", 2), ("y", 2)), np.kron(a.matrix, b.matrix))
            )
        ext = DiagonalExtension([0.6, 0.4], comps)
        if cmi_diagonal(ext) <= 1e-10:
            for comp in ext.components:
                x = partial_trace(comp, "x")
                y = partial_trace(comp, "y")
                np.testing.assert_allclose(
                    comp.matrix, np.kron(x.matrix, y.matrix), atol=1e-5
                )


class TestNetToDensity:
    def test_pure_projector_when_nothing_traced(self):
        rng = np.random.default_rng(14)
        dag = Dag([("a", 2), ("b", 2)], [(0, 1)])
        net = random_qbnet(dag, rng)
        rho = net_to_density(net, keep=[0, 1])
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_product_roots_tensorize(self):
        dag = Dag([("a", 2), ("b", 2)], [])
        net = random_qbnet(dag, np.random.default_rng(15))
        rho = net_to_density(net, keep=[0, 1])
        a = partial_trace(rho, "a")
        b = partial_trace(rho, "b")
        np.testing.assert_allclose(rho.matrix, np.kron(a.matrix, b.matrix), atol=1e-10)

    def test_screened_pair_has_zero_dephased_cmi(self, screened_pair_dag):
        for seed in range(5):
            net = random_qbnet(screened_pair_dag, np.random.default_rng(seed))
            rho = net_to_density(net, keep=[3, 4], diag=[0])
            ext = diagonal_blocks(rho, "lam")
            assert cmi_diagonal(ext, "x", "y") == pytest.approx(0.0, abs=1e-9)

    def test_keep_diag_overlap_rejected(self, screened_pair_dag):
        net = random_qbnet(screened_pair_dag, np.random.default_rng(16))
        with pytest.raises(ValueError, match="disjoint"):
            net_to_density(net, keep=[3], diag=[3])
