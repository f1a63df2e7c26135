import logging

import numpy as np
import pytest

from qbnets import (
    DensityMatrix,
    assembly_error,
    cmi_diagonal,
    quantum_mutual_information,
    squashed_entanglement,
)
from qbnets.sampling import random_density_matrix
from qbnets.squashed import _members, _purification, _retract, _tangent, _value_grad, _witness_from

from conftest import wootters_eof

LN2 = np.log(2.0)


def bell_state(u_x=None, u_y=None):
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    if u_x is not None:
        v = (np.kron(u_x, u_y) @ v.reshape(-1)).reshape(-1)
    return DensityMatrix((("x", 2), ("y", 2)), np.outer(v, v.conj()))


def haar_unitary(rng, d=2):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def state_of_rank(rng, dx, dy, rank):
    g = complex_normal(rng, dx * dy, rank)
    m = g @ g.conj().T
    return DensityMatrix((("x", dx), ("y", dy)), m / np.trace(m).real)


def half_mi_or_eof(rho):
    return min(0.5 * quantum_mutual_information(rho, "x", "y"), wootters_eof(rho.matrix))


class TestAnchors:
    def test_product_state_zero(self):
        rng = np.random.default_rng(0)
        a = random_density_matrix((("x", 2),), rng)
        b = random_density_matrix((("y", 2),), rng)
        rho = DensityMatrix((("x", 2), ("y", 2)), np.kron(a.matrix, b.matrix))
        result = squashed_entanglement(rho, restarts=4, budget=500)
        assert result.value <= 1e-6

    def test_bell_state_forced_by_purity(self):
        result = squashed_entanglement(bell_state())
        assert result.value == pytest.approx(LN2, abs=1e-6)
        assert result.restart == -1  # the trivial extension is already exact

    def test_classically_correlated_mixture(self):
        rho = DensityMatrix(
            (("x", 2), ("y", 2)), np.diag([0.5, 0, 0, 0.5]).astype(complex)
        )
        result = squashed_entanglement(rho, restarts=4, budget=500)
        assert result.value <= 1e-3
        assert assembly_error(rho, result.witness) <= 1e-8


class TestContracts:
    def test_value_is_half_witness_cmi(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix((("x", 2), ("y", 2)), rng)
        result = squashed_entanglement(rho, restarts=3, budget=300)
        assert result.value == pytest.approx(0.5 * cmi_diagonal(result.witness), abs=1e-12)

    def test_witness_assembles_to_input(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = random_density_matrix((("x", 2), ("y", 2)), rng)
            result = squashed_entanglement(rho, restarts=3, budget=300)
            assert assembly_error(rho, result.witness) <= 1e-8

    def test_upper_bounded_by_half_mutual_information(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_density_matrix((("x", 2), ("y", 2)), rng)
            result = squashed_entanglement(rho, restarts=2, budget=200)
            bound = 0.5 * quantum_mutual_information(rho, "x", "y")
            assert result.value <= bound + 1e-9

    def test_optimizer_beats_trivial_on_noisy_bell(self):
        noisy = 0.6 * bell_state().matrix + 0.4 * np.eye(4) / 4
        rho = DensityMatrix((("x", 2), ("y", 2)), noisy)
        result = squashed_entanglement(rho, restarts=4, budget=600)
        trivial = 0.5 * quantum_mutual_information(rho, "x", "y")
        assert result.value < trivial - 1e-3
        assert result.restart >= 0

    def test_lam_card_below_rank_rejected(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix((("x", 2), ("y", 2)), rng)
        with pytest.raises(ValueError, match="rank"):
            squashed_entanglement(rho, lam_card=2)

    def test_three_labels_rejected(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix((("x", 2), ("y", 2), ("z", 2)), rng)
        with pytest.raises(ValueError, match="two label"):
            squashed_entanglement(rho)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix((("x", 2), ("y", 2)), rng)
        r1 = squashed_entanglement(rho, restarts=2, budget=150, seed=9)
        r2 = squashed_entanglement(rho, restarts=2, budget=150, seed=9)
        assert r1.value == r2.value


class TestLocalUnitaryInvariance:
    def test_bell_under_local_rotations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = bell_state(haar_unitary(rng), haar_unitary(rng))
            result = squashed_entanglement(rho)
            assert result.value == pytest.approx(LN2, abs=1e-3)


class TestWoottersFloor:
    """Members are pure, so the search's optimum is min(1/2 I, E_F): a value
    below it would be a bug, not a good optimizer."""

    def test_oracle_anchors(self):
        assert wootters_eof(bell_state().matrix) == pytest.approx(LN2, abs=1e-12)
        rng = np.random.default_rng(22)
        a = random_density_matrix((("x", 2),), rng)
        b = random_density_matrix((("y", 2),), rng)
        assert wootters_eof(np.kron(a.matrix, b.matrix)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_oracle_on_rank_two_state(self, p):
        # p |Phi+><Phi+| + (1 - p) |01><01| has concurrence p; its two zero
        # eigenvalues come out of LAPACK as roundoff that must not reach C
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = p * np.outer(phi, phi) + (1 - p) * np.diag([0.0, 1.0, 0.0, 0.0])
        q = 0.5 * (1 + np.sqrt(1 - p * p))
        eof = -q * np.log(q) - (1 - q) * np.log(1 - q)
        assert wootters_eof(rho) == pytest.approx(eof, rel=0, abs=1e-12)

    @staticmethod
    def states():
        rng = np.random.default_rng(23)
        states = [random_density_matrix((("x", 2), ("y", 2)), rng) for _ in range(4)]
        for p in (0.5, 0.65, 0.8, 0.95):
            bell = bell_state(haar_unitary(rng), haar_unitary(rng)).matrix
            noise = random_density_matrix((("x", 2), ("y", 2)), rng).matrix
            states.append(DensityMatrix((("x", 2), ("y", 2)), p * bell + (1 - p) * noise))
        return states

    def test_value_at_least_min_of_half_mi_and_eof(self):
        entangled = 0
        for rho in self.states():
            floor = half_mi_or_eof(rho)
            entangled += floor > 1e-3
            result = squashed_entanglement(rho, restarts=2, budget=200)
            assert result.value >= floor - 1e-12
        assert entangled >= 4  # the floor is not trivially zero

    def test_value_reaches_min_of_half_mi_and_eof(self):
        # the optimum is the floor, and the descent gets there
        states = self.states()
        for p in (0.5, 0.7, 0.9):
            noisy = p * bell_state().matrix + (1 - p) * np.eye(4) / 4
            states.append(DensityMatrix((("x", 2), ("y", 2)), noisy))
        for rho in states:
            result = squashed_entanglement(rho, restarts=2, budget=1000)
            assert result.value <= half_mi_or_eof(rho) + 1e-6


class TestGradient:
    @pytest.mark.parametrize("dx, rank", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_matches_central_differences_along_tangents(self, dx, rank):
        rng = np.random.default_rng(40 + 10 * dx + rank)
        rho = state_of_rank(rng, dx, 2, rank)
        psi = _purification(rho)
        assert psi.shape == (dx, 2, rank)
        v = _retract(complex_normal(rng, rank * rank, rank))
        value, grad = _value_grad(psi, v)
        # f is half the CMI of the members' extension
        witness = _witness_from(rho, _members(psi, v))
        assert value == pytest.approx(0.5 * cmi_diagonal(witness), abs=1e-12)
        h = 1e-5
        for _ in range(3):
            d = _tangent(v, complex_normal(rng, *v.shape))
            d /= np.linalg.norm(d)
            central = (_value_grad(psi, v + h * d)[0] - _value_grad(psi, v - h * d)[0]) / (2 * h)
            assert 2.0 * np.vdot(grad, d).real == pytest.approx(central, rel=1e-6)

    def test_tangent_directions_keep_the_isometry_to_first_order(self):
        rng = np.random.default_rng(48)
        v = _retract(complex_normal(rng, 9, 3))
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-14)
        d = _tangent(v, complex_normal(rng, 9, 3))
        skew = v.conj().T @ d
        assert np.allclose(skew, -skew.conj().T, atol=1e-14)


class TestLogging:
    def test_one_info_line_per_restart_and_nothing_on_stdout(self, caplog, capsys):
        rho = random_density_matrix((("x", 2), ("y", 2)), np.random.default_rng(10))
        with caplog.at_level(logging.INFO, logger="qbnets"):
            result = squashed_entanglement(rho, restarts=3, budget=100)
        records = [r for r in caplog.records if r.name == "qbnets.squashed"]
        assert [r.args[0] for r in records] == [0, 1, 2]
        assert all(r.levelno == logging.INFO for r in records)
        assert sum(r.args[2] for r in records) == result.evaluations
        assert min(r.args[1] for r in records) == pytest.approx(result.value, abs=1e-12)
        assert records[0].getMessage().startswith("squashed restart 0: value ")
        assert capsys.readouterr().out == ""
        assert logging.getLogger("qbnets.squashed").handlers == []
