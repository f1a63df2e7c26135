import numpy as np
import pytest

from qbnets import (
    DensityMatrix,
    DiagonalExtension,
    NotReducibleError,
    amplitude_tensor,
    density_to_qbnet,
    marginal_probability,
    net_to_density,
    reduce_qbnet,
    regrouped_reduced_tensor,
    reordered,
)
from qbnets.sampling import random_diagonal_extension, random_reducible_net


def reconstruct(ext):
    """Assemble the emitted net back down to (lam, x, y) and compare."""
    net = density_to_qbnet(ext)
    rho = net_to_density(net, keep=[3, 4], diag=[0])
    want = reordered(ext.assemble("lam"), rho.names)
    return float(np.max(np.abs(rho.matrix - want.matrix)))


class TestDensityToQbnet:
    def test_pure_basis_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        rho = DensityMatrix((("x", 2), ("y", 2)), np.outer(v, v.conj()))
        ext = DiagonalExtension([1.0], [rho])
        net = density_to_qbnet(ext)
        probs = marginal_probability(net, [3, 4])
        np.testing.assert_allclose(probs, [[1, 0], [0, 0]], atol=1e-12)

    def test_maximally_mixed_eigenvalue_table(self):
        rho = DensityMatrix((("x", 2), ("y", 2)), np.eye(4, dtype=complex) / 4)
        ext = DiagonalExtension([1.0], [rho])
        net = density_to_qbnet(ext)
        # sqrt(P(x0 | lam)) and sqrt(P(y0 | x0, lam)) with P(x0, y0 | lam) = 1/4
        np.testing.assert_allclose(np.abs(net.tpms[1].table) ** 2, 0.5, atol=1e-12)
        np.testing.assert_allclose(np.abs(net.tpms[2].table) ** 2, 0.5, atol=1e-12)

    def test_emitted_shape(self):
        ext = random_diagonal_extension(np.random.default_rng(0), (2, 3), 2)
        net = density_to_qbnet(ext)
        assert net.dag.names == ("lam", "x0", "y0", "x", "y")
        assert net.dag.cardinalities == (2, 2, 3, 2, 3)
        assert len(net.dag.edges) == 10

    @pytest.mark.parametrize(
        "x, y, names",
        [("lam", "y", ("lam_", "lam0", "y0")), ("x", "x0", ("lam", "x0_", "x00"))],
    )
    def test_fresh_names_avoid_the_components(self, x, y, names):
        ext = random_diagonal_extension(np.random.default_rng(3), (2, 3), 2)
        ext = DiagonalExtension(
            ext.weights, [DensityMatrix(((x, 2), (y, 3)), c.matrix) for c in ext.components]
        )
        net = density_to_qbnet(ext)
        assert net.dag.names == names + (x, y)
        rho = net_to_density(net, keep=[3, 4], diag=[0])
        want = reordered(ext.assemble(names[0]), rho.names)
        assert float(np.max(np.abs(rho.matrix - want.matrix))) < 1e-9

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            ext = random_diagonal_extension(rng, dims, int(rng.integers(1, 4)))
            assert reconstruct(ext) < 1e-9

    def test_rank_deficient_component(self):
        # a pure component has one nonzero eigenvalue; the dead columns
        # must still give unit-norm tables
        v = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        rho = DensityMatrix((("x", 2), ("y", 2)), np.outer(v, v.conj()))
        ext = DiagonalExtension([1.0], [rho])
        assert reconstruct(ext) < 1e-9


class TestReduceQbnet:
    def test_random_reducible_preserves_amplitudes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            net = random_reducible_net(rng)
            red = reduce_qbnet(net)
            got = regrouped_reduced_tensor(red, net.dag.cardinalities)
            np.testing.assert_allclose(
                got, amplitude_tensor(net).data, atol=1e-10
            )

    def test_reduced_shape(self):
        net = random_reducible_net(np.random.default_rng(3), full_shape=True)
        red = reduce_qbnet(net)
        cl, cx0, cy0, cx, cy = net.dag.cardinalities
        assert red.dag.cardinalities == (cl, cx * cx0, cy * cy0)
        assert red.dag.edges == ((0, 1), (1, 2), (0, 2))

    def test_regrouped_cards_must_match(self):
        net = random_reducible_net(np.random.default_rng(3), full_shape=True)
        cl, cx0, cy0, cx, cy = net.dag.cardinalities
        with pytest.raises(ValueError, match="cards do not match the reduced net's shape"):
            regrouped_reduced_tensor(reduce_qbnet(net), (cl, cx0, cy0, cx + 1, cy))

    def test_y0_dependence_rejected(self):
        rng = np.random.default_rng(4)
        # a generic construction net from a random extension depends on y0
        ext = random_diagonal_extension(rng, (2, 2), 2)
        net = density_to_qbnet(ext)
        with pytest.raises(NotReducibleError):
            reduce_qbnet(net)

    def test_wrong_shape_rejected(self):
        from qbnets import Dag, QBNet, node_tpm

        dag = Dag([(n, 2) for n in "abcde"], [(4, 3)])  # child feeding backward
        tpms = [node_tpm(j, dag.parents(j), t) for j, t in enumerate(
            [[1, 0], [1, 0], [1, 0], np.eye(2), [1, 0]]
        )]
        with pytest.raises(ValueError, match="construction shape"):
            reduce_qbnet(QBNet(dag, tpms))

    def test_screened_form_always_reducible(self):
        # nets whose x table never mentions y0 reduce unconditionally
        rng = np.random.default_rng(5)
        for _ in range(10):
            net = random_reducible_net(rng, full_shape=False)
            red = reduce_qbnet(net)
            got = regrouped_reduced_tensor(red, net.dag.cardinalities)
            np.testing.assert_allclose(got, amplitude_tensor(net).data, atol=1e-10)
