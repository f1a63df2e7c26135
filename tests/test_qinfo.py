import math
import warnings

import numpy as np
import pytest

from qbnets import (
    CapacityError,
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
from qbnets.qinfo import (
    _check_states,
    _cmi,
    _dephase_mask,
    _dephased_cmi,
    _density_stack,
    _group,
    _purified_cmi,
    _reduce,
    _spectral_entropy,
)
from qbnets.sampling import (
    random_dag,
    random_density_matrix,
    random_diagonal_extension,
    random_qbnet,
)

from conftest import chain_forward_backward, dense_reduced_state, refused_peak_bytes

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

    @pytest.mark.parametrize(
        "matrix",
        [np.diag([1e308, -1e308]), [[0.5, 1e308], [-1e308, 0.5]], [[0.5, 3j], [-3j, 0.5]]],
        ids=["diagonal", "off-diagonal", "imaginary"],
    )
    def test_entries_above_two_rejected(self, matrix):
        # no state has such an entry, and the Hermiticity and trace checks
        # would overflow on the first two
        with pytest.raises(InvalidStateError, match="real or imaginary part"):
            DensityMatrix((("q", 2),), matrix)

    def test_tiny_negative_tolerated(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        m /= np.trace(m).real
        qubit(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"matrix shape \(3, 3\), expected \(2, 2\)"):
            DensityMatrix((("q", 2),), np.eye(3) / 3)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="label 'q' has dimension 0"):
            DensityMatrix((("q", 0),), np.zeros((0, 0)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="label names must be unique"):
            DensityMatrix((("q", 2), ("q", 2)), np.eye(4) / 4)

    def test_dim_of_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label 'z'"):
            bell_state().dim_of("z")


REFUSED = {
    "non-finite": np.diag([np.nan, np.nan]),
    "part above 2": [[0.5, 3j], [-3j, 0.5]],
    "non-Hermitian": [[0.5, 0.1], [0.3, 0.5]],
    "trace": np.eye(2),
    "eigenvalue": [[1.5, 0], [0, -0.5]],
}


class TestDensityStack:
    """``_density_stack`` validates a stack as ``DensityMatrix`` validates
    each of its matrices, with each check run once on the whole stack."""

    LABELS = (("x", 2), ("y", 3))

    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("refusal", list(REFUSED))
    def test_one_refused_member_refuses_the_stack_with_its_message(self, refusal, at):
        bad = np.asarray(REFUSED[refusal], dtype=complex)
        with pytest.raises(InvalidStateError) as alone:
            DensityMatrix((("q", 2),), bad)
        rng = np.random.default_rng(30)
        mats = np.stack([random_density_matrix((("q", 2),), rng).matrix for _ in range(3)])
        mats[at] = bad
        with pytest.raises(InvalidStateError) as stacked:
            _density_stack((("q", 2),), mats)
        assert str(stacked.value) == str(alone.value)

    def test_components_match_one_at_a_time_and_are_read_only(self):
        rng = np.random.default_rng(31)
        mats = np.stack([random_density_matrix(self.LABELS, rng).matrix for _ in range(4)])
        singles = [DensityMatrix(self.LABELS, m) for m in mats]
        stack = _density_stack(self.LABELS, mats)
        mats[:] = 0.0  # the components hold a copy
        assert len(stack) == len(singles)
        for got, one in zip(stack, singles):
            assert got.labels == one.labels
            assert np.array_equal(got.matrix, one.matrix)
            assert not got.matrix.flags.writeable
            with pytest.raises(ValueError):
                got.matrix[0, 0] = 1.0

    def test_wrong_member_shape_rejected(self):
        with pytest.raises(ValueError, match=r"matrix shape \(3, 3\), expected \(6, 6\)"):
            _density_stack(self.LABELS, np.stack([np.eye(3) / 3] * 2))


def ghz_state():
    """The three-qubit GHZ state, its four nonzero entries exactly 1/2."""
    m = np.zeros((8, 8))
    m[np.ix_([0, 7], [0, 7])] = 0.5
    return DensityMatrix((("a", 2), ("b", 2), ("c", 2)), m)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(qubit([[1, 0], [0, 0]])) == 0.0

    def test_pure_state_entropy_is_positive_zero(self):
        # one state per entropy route: 1 x 1, the 2 x 2 closed form, eigvalsh
        for rho in (DensityMatrix((("x", 1),), [[1.0]]), qubit([[0, 0], [0, 1]]), ghz_state()):
            got = von_neumann_entropy(rho)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0, rho

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
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match=r"unknown labels \['z'\]"):
            partial_trace(bell_state(), ("x", "z"))

    def test_keeping_every_label_returns_the_state(self):
        rho = bell_state()
        assert partial_trace(rho, ("y", "x")) is rho

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

    @pytest.mark.parametrize("names", [("x",), ("x", "z"), ("x", "x"), ("x", "y", "y")])
    def test_reorder_needs_a_permutation(self, names):
        with pytest.raises(ValueError, match="new order must be a permutation of the labels"):
            reordered(bell_state(), names)


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

    def test_mutual_information_by_hand(self):
        # no conditioner: the general CMI formula takes H of no labels
        def h(p):
            return -float(np.sum(p * np.log(p)))

        rng = np.random.default_rng(8)
        for labels in ((("x", 2), ("y", 3)), (("x", 3), ("y", 2), ("w", 2))):
            for _ in range(5):
                t = rng.random(tuple(d for _, d in labels))
                t /= t.sum()
                dist = ClassicalDistribution(labels, t)
                pxy = t.reshape(t.shape[0], -1)
                px, py = pxy.sum(axis=1), pxy.sum(axis=0)
                expect = h(px) + h(py) - h(pxy)
                y = [n for n, _ in labels[1:]]
                assert classical_cmi(dist, "x", y) == pytest.approx(expect, abs=1e-14)
                assert classical_mutual_information(dist, "x", y) == pytest.approx(
                    expect, abs=1e-14
                )

    def test_total_off_one_is_divided_out(self):
        def h(p):
            return -float(np.sum(p * np.log(p)))

        t = np.random.default_rng(9).random((2, 3))
        t *= (1.0 + 5e-11) / t.sum()
        dist = ClassicalDistribution((("x", 2), ("y", 3)), t)
        assert classical_entropy(dist, ()) == 0.0
        q = t / t.sum()
        expect = h(q.sum(axis=1)) + h(q.sum(axis=0)) - h(q)
        assert classical_mutual_information(dist, "x", "y") == pytest.approx(expect, abs=1e-15)
        assert classical_cmi(dist, "x", "y", ()) == pytest.approx(expect, abs=1e-15)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ClassicalDistribution((("x", 2),), [1.1, -0.1])

    def test_non_finite_mass_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ClassicalDistribution((("x", 2),), [np.nan, 1.0])
        with pytest.raises(ValueError, match="sums to inf"):  # the sum overflows
            ClassicalDistribution((("x", 2),), [1e308, 1e308])

    def test_wrong_table_shape_rejected(self):
        with pytest.raises(ValueError, match=r"table shape \(3, 2\), expected \(2, 3\)"):
            ClassicalDistribution((("x", 2), ("y", 3)), np.full((3, 2), 1 / 6))

    def test_marginal_of_unknown_labels_rejected(self):
        dist = ClassicalDistribution((("x", 2), ("y", 3)), np.full((2, 3), 1 / 6))
        with pytest.raises(ValueError, match=r"unknown labels \['w', 'z'\]"):
            dist.marginal(["x", "z", "w"])

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
    def test_component_validation(self):
        rho = qubit(np.eye(2) / 2)
        with pytest.raises(ValueError, match="nonempty vector"):
            DiagonalExtension([], [])
        with pytest.raises(ValueError, match="2 weights but 1 components"):
            DiagonalExtension([0.5, 0.5], [rho])
        other = DensityMatrix((("r", 2),), np.eye(2) / 2)
        with pytest.raises(ValueError, match="identical labels"):
            DiagonalExtension([0.5, 0.5], [rho, other])

    def test_assemble_refuses_a_component_label(self):
        ext = random_diagonal_extension(np.random.default_rng(8), (2, 2), lam_card=2)
        with pytest.raises(ValueError, match="label 'x' already used by the components"):
            ext.assemble("x")

    def test_zero_weight_block_gets_maximally_mixed_component(self):
        rho = DensityMatrix((("lam", 2), ("x", 3)), np.diag([0.5, 0.25, 0.25, 0, 0, 0]))
        ext = diagonal_blocks(rho, "lam")
        np.testing.assert_array_equal(ext.weights, [1.0, 0.0])
        np.testing.assert_allclose(ext.components[0].matrix, np.diag([0.5, 0.25, 0.25]), atol=0)
        np.testing.assert_allclose(ext.components[1].matrix, np.eye(3) / 3, atol=0)

    def test_weight_validation(self):
        rho = qubit(np.eye(2) / 2)
        with pytest.raises(ValueError, match="sum"):
            DiagonalExtension([0.5, 0.4], [rho, rho])
        with pytest.raises(ValueError, match="non-finite"):
            DiagonalExtension([np.nan, 1.0], [rho, rho])
        with pytest.raises(ValueError, match="sum to inf"):  # the sum overflows
            DiagonalExtension([1e308, 1e308], [rho, rho])

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
    def test_x_without_y_rejected(self):
        ext = random_diagonal_extension(np.random.default_rng(11), (2, 2), lam_card=2)
        with pytest.raises(ValueError, match="pass both the x and the y group"):
            cmi_diagonal(ext, x=("x",))

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

    def test_one_group_alone_rejected(self):
        rng = np.random.default_rng(15)
        labels = (("x", 2), ("y", 2), ("w", 2))
        ext = DiagonalExtension(
            [0.5, 0.5], [random_density_matrix(labels, rng) for _ in range(2)]
        )
        for groups in ({"x": "x"}, {"y": ("y", "w")}):
            with pytest.raises(ValueError, match="both"):
                cmi_diagonal(ext, **groups)
        assert cmi_diagonal(ext, x="x", y=("y", "w")) == pytest.approx(
            quantum_cmi(ext.assemble("lam"), "x", ("y", "w"), "lam"), abs=1e-10
        )

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


class TestBatchedCore:
    LABELS = (("a", 2), ("b", 3), ("c", 2))
    DIMS = (2, 3, 2)

    def stack(self, count=6):
        rng = np.random.default_rng(16)
        states = [random_density_matrix(self.LABELS, rng) for _ in range(count)]
        return states, np.stack([rho.matrix for rho in states])

    def test_entropy_kernel_matches_per_state(self):
        states, mats = self.stack()
        got = _spectral_entropy(mats.reshape((2, 3) + mats.shape[1:]))
        assert got.shape == (2, 3)
        for value, rho in zip(got.ravel(), states):
            assert value == pytest.approx(von_neumann_entropy(rho), abs=1e-12)

    @pytest.mark.parametrize(
        "x, y, z",
        [("a", "b", "c"), ("c", "a", "b"), (("a", "c"), "b", ()), ("b", ("a", "c"), ())],
    )
    def test_cmi_kernel_matches_per_state(self, x, y, z):
        states, mats = self.stack()
        rho0 = states[0]
        pos = [tuple(rho0.names.index(n) for n in _group(g)) for g in (x, y, z)]
        got = _cmi(mats, self.DIMS, *pos)
        assert got.shape == (len(states),)
        for value, rho in zip(got, states):
            assert value == pytest.approx(quantum_cmi(rho, x, y, z), abs=1e-12)

    def test_reduce_of_product_stack_keeps_the_kept_factors(self):
        rng = np.random.default_rng(17)
        factors = [
            [random_density_matrix((("q", d),), rng).matrix for d in self.DIMS]
            for _ in range(4)
        ]
        mats = np.stack([np.kron(np.kron(a, b), c) for a, b, c in factors])
        got = _reduce(mats, self.DIMS, (0, 2))
        for value, (a, _, c) in zip(got, factors):
            np.testing.assert_allclose(value, np.kron(a, c), atol=1e-14)

    def test_negative_eigenvalue_in_stack_rejected(self):
        _, mats = self.stack()
        mats[3] = np.diag([1.0 + 1e-6, -1e-6] + [0.0] * (mats.shape[-1] - 2))
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            _spectral_entropy(mats)
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            _cmi(mats, self.DIMS, (0,), (1,), (2,))

    def test_roundoff_below_the_threshold_clipped(self):
        _, mats = self.stack()
        mats[3] = np.diag([1.0 + 1e-12, -1e-12] + [0.0] * (mats.shape[-1] - 2))
        assert _spectral_entropy(mats)[3] == pytest.approx(0.0, abs=1e-10)


class TestTwoByTwoEntropy:
    """The closed-form 2 x 2 branch of the entropy kernel against LAPACK."""

    @staticmethod
    def eigvalsh_entropy(mats):
        w = np.clip(np.linalg.eigvalsh(mats), 0.0, 1.0)
        return -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=-1)

    @pytest.mark.parametrize("batch", [(), (16,), (50, 4)])
    def test_matches_eigvalsh_on_random_stacks(self, batch):
        rng = np.random.default_rng([20, len(batch)])
        g = rng.normal(size=batch + (2, 2)) + 1j * rng.normal(size=batch + (2, 2))
        # about half the stack rank one
        g[..., :, 1] *= (rng.random(batch) < 0.5)[..., None]
        mats = g @ g.conj().swapaxes(-1, -2)
        mats /= np.trace(mats, axis1=-2, axis2=-1).real[..., None, None]
        got = _spectral_entropy(mats)
        assert got.shape == batch
        np.testing.assert_allclose(got, self.eigvalsh_entropy(mats), rtol=0, atol=1e-14)

    def test_matches_eigvalsh_on_edge_spectra(self):
        v = np.array([0.6, 0.8j])
        mats = np.stack(
            [
                np.outer(v, v.conj()),  # rank one
                np.diag([0.3, 0.7]),  # diagonal
                np.eye(2) / 2,  # degenerate
                np.zeros((2, 2)),  # all zero
                np.diag([0.0, 1.0]),  # pure, diagonal
            ]
        ).astype(complex)
        got = _spectral_entropy(mats)
        np.testing.assert_allclose(got, self.eigvalsh_entropy(mats), rtol=0, atol=1e-14)
        assert got[2] == pytest.approx(np.log(2.0), abs=1e-15)
        assert got[3] == 0.0

    def test_negative_eigenvalue_rejected(self):
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        bad = q @ np.diag([1.0 + 1e-6, -1e-6]) @ q.conj().T
        mats = np.stack([np.eye(2) / 2, bad, np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            _spectral_entropy(mats)


class TestPurifiedCmi:
    """The purification kernel against the dense kernel on psi psi^dagger."""

    @staticmethod
    def dense(psi, dims, z):
        d = int(np.prod(dims))
        kets = psi.reshape(psi.shape[: psi.ndim - len(dims) - 1] + (d, -1))
        rho = kets @ kets.conj().swapaxes(-1, -2)
        return rho * _dephase_mask(dims, z) if z else rho

    @pytest.mark.parametrize(
        "dims, x, y, z",
        [
            ((2, 2), (0,), (1,), ()),
            ((3, 3), (1,), (0,), ()),
            ((2, 3, 2), (0,), (1,), (2,)),
            ((2, 3, 2), (2,), (0,), (1,)),
            ((3, 2, 2), (0, 2), (1,), ()),
            ((2, 3, 2, 3), (1,), (3,), (0, 2)),
            ((2, 2, 3, 2), (0, 3), (2,), (1,)),
        ],
    )
    # r = 1: every S(x,y,z) block's Gram is taken on the purifying side;
    # r = 13 exceeds every kept dimension, so every Gram is on the kept side
    @pytest.mark.parametrize("r", [1, 2, 13])
    def test_matches_dense_kernel(self, dims, x, y, z, r):
        rng = np.random.default_rng([18, len(dims), r])
        shape = (2, 3) + dims + (r,)
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psi /= np.sqrt((np.abs(psi) ** 2).sum(axis=tuple(range(2, psi.ndim)), keepdims=True))
        got = _purified_cmi(psi, dims, x, y, z)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, _cmi(self.dense(psi, dims, z), dims, x, y, z), atol=1e-12)

    def test_screened_product_has_zero_cmi(self):
        # |psi> = sum_z sqrt(p_z) |z> |u_z>_x |v_z>_y |w_z>_r: zero CMI given z,
        # though x and y are correlated through z
        rng = np.random.default_rng(19)

        def unit(*shape):
            v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return v / np.linalg.norm(v, axis=-1, keepdims=True)

        p = np.array([0.3, 0.7])
        u, v, w = unit(2, 3), unit(2, 2), unit(2, 4)
        psi = np.einsum("z,zx,zy,zr->zxyr", np.sqrt(p), u, v, w)
        assert _purified_cmi(psi, (2, 3, 2), (1,), (2,), (0,)) == pytest.approx(0.0, abs=1e-12)
        mi = _purified_cmi(psi, (2, 3, 2), (1,), (2,))
        assert mi > 1e-3

    @pytest.mark.parametrize(
        "dims, x, y, z, r",
        [
            ((3, 2, 2), (1,), (2,), (0,), 1),  # every Gram side is 1 or 2
            ((3, 3, 4), (1,), (2,), (0,), 2),  # S(x, z) and S(y, z) go to eigvalsh
        ],
    )
    def test_zero_block_and_rank_one_blocks(self, dims, x, y, z, r):
        # block z = 0 has p(z) = 0, and in block z = 1 the x side is a
        # product with the rest, so its Grams are rank one: exact zeros in
        # every closed form and spectrum, and no log of zero or 0/0
        rng = np.random.default_rng(29)

        def unit(*shape):
            v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return v / np.linalg.norm(v)

        psi = np.zeros((2,) + dims + (r,), dtype=np.complex128)
        for k in range(2):
            psi[k, 1] = np.sqrt(0.4) * np.einsum("x,yr->xyr", unit(dims[1]), unit(dims[2], r))
            psi[k, 2] = np.sqrt(0.6) * unit(dims[1], dims[2], r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _purified_cmi(psi, dims, x, y, z)
            expect = _cmi(self.dense(psi, dims, z), dims, x, y, z)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)
        assert got[0] > 1e-3  # the full-rank blocks still carry CMI


def z_blocks(rho, nz):
    """The diagonal blocks (d_Z, D, D) of a state whose first ``nz``
    labels are z."""
    d_z = math.prod(rho.dims[:nz])
    m = rho.matrix.reshape(d_z, rho.dim // d_z, d_z, rho.dim // d_z)
    return m[np.arange(d_z), :, np.arange(d_z), :]


class TestDephasedCmi:
    """The block kernel against the dense kernel on dephased states."""

    @pytest.mark.parametrize("nz", [0, 1, 2, 3])
    @pytest.mark.parametrize("na, nb", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_matches_dense_kernel(self, nz, na, nb):
        rng = np.random.default_rng([32, nz, na, nb])
        for _ in range(5):
            cards = rng.integers(1, 4, size=nz + na + nb)
            while math.prod(cards) > 216:
                cards = rng.integers(1, 4, size=nz + na + nb)
            # z first, then the a and b labels interleaved at random
            sides = rng.permutation(["a"] * na + ["b"] * nb)
            names = [f"z{i}" for i in range(nz)] + [f"{s}{i}" for i, s in enumerate(sides)]
            rho = random_density_matrix(list(zip(names, cards.tolist())), rng)
            z = names[:nz]
            rho = dephase(rho, z)
            a = [n for n in names if n[0] == "a"]
            b = [n for n in names if n[0] == "b"]
            x = tuple(i for i, s in enumerate(sides) if s == "a")
            y = tuple(i for i, s in enumerate(sides) if s == "b")
            got = _dephased_cmi(z_blocks(rho, nz), tuple(cards[nz:].tolist()), x, y)
            assert got == pytest.approx(quantum_cmi(rho, a, b, z), rel=0, abs=1e-13)
            if math.prod(cards[nz + i] for i in x) > 1 < math.prod(cards[nz + i] for i in y):
                assert got > 1e-3  # full-rank random states carry CMI

    def test_negative_block_eigenvalue_rejected_as_dense(self):
        # block z = 1 has the eigenvalue -1e-6, below EIG_REJECT, which
        # neither its reductions nor its trace show
        rng = np.random.default_rng(33)
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        blocks = np.stack([
            np.diag([0.2, 0.1, 0.1, 0.1]).astype(complex),
            u @ np.diag([0.3, 0.2, 1e-6, -1e-6]) @ u.conj().T,
        ])
        dense = np.zeros((8, 8), dtype=complex)
        dense[:4, :4], dense[4:, 4:] = blocks
        with pytest.raises(InvalidStateError, match="smallest eigenvalue -1e-06 is below"):
            _cmi(dense, (2, 2, 2), (1,), (2,), (0,))
        with pytest.raises(InvalidStateError, match="smallest eigenvalue -1e-06 is below"):
            _dephased_cmi(blocks, (2, 2), (0,), (1,))

    def test_state_checks_take_blocks_in_any_layout(self):
        # a stack whose last axis is not contiguous: every other entry of
        # a wider array, as a transposed or sliced block readout can be
        rho = dephase(random_density_matrix((("z", 2), ("a", 2), ("b", 2)), np.random.default_rng(34)), "z")
        blocks = z_blocks(rho, 1)[None]
        spread = np.zeros(blocks.shape[:-1] + (2 * blocks.shape[-1],), dtype=complex)[..., ::2]
        spread[...] = blocks
        assert not spread.flags.c_contiguous
        _check_states(spread, blocked=True)
        with pytest.raises(InvalidStateError, match="trace is 2"):
            _check_states(2 * spread, blocked=True)
        # and one block's trace alone is not the state's
        with pytest.raises(InvalidStateError, match="expected 1"):
            _check_states(spread)
        spread[0, 1, 0, 1] = 3.0
        with pytest.raises(InvalidStateError, match="real or imaginary part of size 3"):
            _check_states(spread, blocked=True)


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

    def test_nothing_held_rejected(self, screened_pair_dag):
        net = random_qbnet(screened_pair_dag, np.random.default_rng(16))
        with pytest.raises(ValueError, match="at least one node"):
            net_to_density(net, [], [])

    def test_node_out_of_range_rejected(self, screened_pair_dag):
        net = random_qbnet(screened_pair_dag, np.random.default_rng(16))
        n = screened_pair_dag.node_count
        with pytest.raises(ValueError, match=f"node index {n} out of range for a {n}-node graph"):
            net_to_density(net, [n])


def _chain(n, rng):
    dag = Dag([(f"v{i}", 2) for i in range(n)], [(i - 1, i) for i in range(1, n)])
    return random_qbnet(dag, rng)


class TestNetToDensityElimination:
    """The elimination over the doubled network against the dense route."""

    @pytest.mark.parametrize("split", ["keep", "diag", "both", "all"])
    def test_matches_dense_reference(self, split):
        rng = np.random.default_rng(["keep", "diag", "both", "all"].index(split))
        for _ in range(12):
            n = int(rng.integers(2, 6))
            net = random_qbnet(random_dag(rng, n, max_card=3, edge_prob=0.5), rng)
            order = [int(i) for i in rng.permutation(n)]
            cut = int(rng.integers(1, n))
            if split == "keep":
                keep, diag = order[:cut], []
            elif split == "diag":
                keep, diag = [], order[:cut]
            elif split == "both":
                keep, diag = order[:cut], order[cut : cut + int(rng.integers(1, n - cut + 1))]
            else:
                keep, diag = order[:cut], order[cut:]
            got = net_to_density(net, keep, diag)
            want = dense_reduced_state(net, keep, diag)
            assert got.labels == want.labels
            np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)

    def test_disconnected_component(self):
        dag = Dag(
            [("a", 2), ("b", 3), ("c", 2), ("d", 3), ("e", 2)],
            [(0, 1), (1, 2), (0, 2), (3, 4)],
        )
        rng = np.random.default_rng(21)
        for keep, diag in [([2], [0]), ([0], []), ([4], [1]), ([1, 3], [4]), ([], [3])]:
            net = random_qbnet(dag, rng)
            got = net_to_density(net, keep, diag)
            want = dense_reduced_state(net, keep, diag)
            np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)

    def test_sixty_node_chain_diagonal(self):
        # 2^60 joint amplitudes; the dense route stops at 2^20
        net = _chain(60, np.random.default_rng(22))
        rho = net_to_density(net, keep=[0, 59], diag=[30])
        want = np.zeros((2, 2, 2))
        for a, p_a in enumerate(chain_forward_backward(net, {})[0]):
            for b, p_b in enumerate(chain_forward_backward(net, {0: a})[30]):
                want[a, b] = p_a * p_b * chain_forward_backward(net, {0: a, 30: b})[59]
        np.testing.assert_allclose(np.diag(rho.matrix).real, want.ravel(), rtol=0, atol=1e-12)

    def test_many_factors_on_one_node(self):
        # a kept hub with 70 traced leaves: more factors meet at the hub
        # than one einsum call takes
        leaves = 70
        dag = Dag([("hub", 2)] + [(f"l{i}", 2) for i in range(leaves)], [(0, i) for i in range(1, leaves + 1)])
        net = random_qbnet(dag, np.random.default_rng(23))
        want = np.outer(net.tpms[0].table, net.tpms[0].table.conj())
        for tpm in net.tpms[1:]:
            want = want * (tpm.table.T @ tpm.table.conj())
        rho = net_to_density(net, keep=[0])
        np.testing.assert_allclose(rho.matrix, want, rtol=0, atol=1e-12)

    def test_intermediate_above_cap_refused_before_it_is_built(self):
        # ten kept roots with one traced common child: eliminating the
        # child needs every root's ket and bra, 2^20 entries (16 MB)
        dag = Dag([(f"r{i}", 2) for i in range(10)] + [("t", 2)], [(i, 10) for i in range(10)])
        net = random_qbnet(dag, np.random.default_rng(24))
        peak = refused_peak_bytes(lambda: net_to_density(net, keep=range(10), cap=2**12))
        assert peak < 2**20

    def test_held_dimension_above_cap_refused_before_anything_is_built(self):
        net = _chain(60, np.random.default_rng(25))
        peak = refused_peak_bytes(lambda: net_to_density(net, keep=range(21)))
        assert peak < 2**20

    def test_state_entries_held_to_cap(self):
        # four isolated binary roots, all kept: D = 16 is under a cap of
        # 100, but the 16 x 16 state's 256 entries are not
        dag = Dag([(f"r{i}", 2) for i in range(4)], [])
        net = random_qbnet(dag, np.random.default_rng(26))
        with pytest.raises(CapacityError, match="256 entries, above the cap of 100"):
            net_to_density(net, keep=range(4), cap=100)
        got = net_to_density(net, keep=range(4), cap=256)
        want = dense_reduced_state(net, range(4))
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)
