import logging

import numpy as np
import pytest

from qbnets import (
    DensityMatrix,
    assembly_error,
    cmi_diagonal,
    partial_trace,
    quantum_mutual_information,
    squashed,
    squashed_entanglement,
    von_neumann_entropy,
)
from qbnets.sampling import random_density_matrix
from qbnets.qinfo import _formation_entropy, _pair_spectrum
from qbnets.squashed import (
    _members,
    _purification,
    _retract,
    _smaller_side_first,
    _tangent,
    _value_grad,
    _witness_from,
)

from conftest import bb_descend, eigh_value_grad, wootters_eof

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


def rank_two_bell_mixture(p):
    """p |Phi+><Phi+| + (1 - p) |01><01|, of concurrence p, and its E_F."""
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = p * np.outer(phi, phi) + (1 - p) * np.diag([0.0, 1.0, 0.0, 0.0])
    q = 0.5 * (1 + np.sqrt(1 - p * p))
    return rho, -q * np.log(q) - (1 - q) * np.log(1 - q)


def reference_states():
    """The six benchmark states: Bell states in white noise, then
    random_density_matrix under generators 0, 1 and 2."""
    bell = bell_state().matrix
    states = [DensityMatrix((("x", 2), ("y", 2)), p * bell + (1 - p) * np.eye(4) / 4) for p in (0.5, 0.7, 0.9)]
    for k in range(3):
        states.append(random_density_matrix((("x", 2), ("y", 2)), np.random.default_rng(k)))
    return states


def low_rank_states():
    """Random 2 x 2 and 2 x 3 states of ranks 2 to 4."""
    rng = np.random.default_rng(60)
    return [state_of_rank(rng, 2, dy, rank) for dy in (2, 3) for rank in (2, 3, 4) for _ in range(2)]


def bb_reference(monkeypatch, rho, **kwargs):
    """squashed_entanglement with the Barzilai-Borwein descent swapped in."""
    with monkeypatch.context() as m:
        m.setattr(squashed, "_descend", bb_descend)
        return squashed_entanglement(rho, **kwargs)


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

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"restarts": 0}, "restarts"),
            ({"restarts": -1}, "restarts"),
            ({"budget": 0}, "budget"),
            ({"budget": -5}, "budget"),
            ({"lam_card": 0}, "lam_card"),
            ({"lam_card": 16.7}, "lam_card"),
            ({"lam_card": 16.0}, "lam_card"),
            ({"lam_card": True}, "lam_card"),
        ],
    )
    def test_vacuous_or_non_integer_counts_rejected(self, kwargs, name):
        # restarts=0 used to return the trivial value unsearched, budget=0
        # still spent one evaluation a restart, and 16.7 members became 16
        rho = random_density_matrix((("x", 2), ("y", 2)), np.random.default_rng(4))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            squashed_entanglement(rho, **kwargs)

    @pytest.mark.parametrize("restarts", [1, 2])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_not_a_non_negative_integer_rejected_before_any_work(self, monkeypatch, seed, restarts):
        # -1 and 1.5 used to pass at one restart, where no seed is drawn,
        # and fail at two only after restart 0's whole descent
        rho = random_density_matrix((("x", 2), ("y", 2)), np.random.default_rng(4))
        descents = []
        monkeypatch.setattr(squashed, "_descend", lambda *args: descents.append(args))
        with pytest.raises(ValueError, match="^seed must be"):
            squashed_entanglement(rho, restarts=restarts, budget=50, seed=seed)
        assert descents == []

    def test_numpy_integer_seed_accepted(self):
        rho = random_density_matrix((("x", 2), ("y", 2)), np.random.default_rng(4))
        ours = squashed_entanglement(rho, restarts=2, budget=50, seed=np.int64(3))
        plain = squashed_entanglement(rho, restarts=2, budget=50, seed=3)
        assert ours.value == plain.value and ours.evaluations == plain.evaluations

    def test_counts_checked_before_the_pure_state_shortcut(self):
        with pytest.raises(ValueError, match="^restarts must be"):
            squashed_entanglement(bell_state(), restarts=0)

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


class TestWitness:
    def test_members_validated_as_one_stack_match_one_at_a_time(self):
        rng = np.random.default_rng(49)
        for rho in reference_states() + low_rank_states():
            psi = _purification(rho)
            rank = psi.shape[2]
            phi = _members(psi, _retract(complex_normal(rng, rank * rank, rank)))
            witness = _witness_from(rho, phi)
            assert assembly_error(rho, witness) <= 1e-14
            p = (np.abs(phi) ** 2).sum(axis=(1, 2))
            vecs = phi.reshape(len(phi), -1) / np.sqrt(p)[:, None]
            assert len(witness.components) == len(vecs)
            for comp, x in zip(witness.components, vecs):
                assert comp.labels == rho.labels and not comp.matrix.flags.writeable
                assert np.array_equal(comp.matrix, DensityMatrix(rho.labels, np.outer(x, x.conj())).matrix)


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
        # the two zero eigenvalues of rank_two_bell_mixture(p) come out of
        # LAPACK as roundoff that must not reach C
        rho, eof = rank_two_bell_mixture(p)
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


class TestFormationEntropy:
    """``qinfo._formation_entropy``, Wootters' tau-matrix form on the
    purification, against ``conftest.wootters_eof`` on the density matrix."""

    @staticmethod
    def eof(matrix):
        return _formation_entropy(_purification(DensityMatrix((("x", 2), ("y", 2)), matrix)))

    def test_anchors(self):
        assert self.eof(bell_state().matrix) == pytest.approx(LN2, rel=0, abs=1e-14)
        rng = np.random.default_rng(22)
        a = random_density_matrix((("x", 2),), rng)
        b = random_density_matrix((("y", 2),), rng)
        assert self.eof(np.kron(a.matrix, b.matrix)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_rank_two_closed_form(self, p):
        rho, eof = rank_two_bell_mixture(p)
        assert self.eof(rho) == pytest.approx(eof, rel=0, abs=1e-13)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_matches_the_reference_on_random_states(self, rank):
        rng = np.random.default_rng(40 + rank)
        for _ in range(20):
            rho = state_of_rank(rng, 2, 2, rank).matrix
            assert self.eof(rho) == pytest.approx(wootters_eof(rho), rel=0, abs=1e-13)


def without_the_floor(monkeypatch, rho, **kwargs):
    """squashed_entanglement with a floor of -inf, which stops neither a
    descent nor the restarts: the search as it ran before the two-qubit
    stop, on states whose values are not within EARLY_STOP of 0."""
    with monkeypatch.context() as m:
        m.setattr(squashed, "_formation_entropy", lambda psi: -np.inf)
        return squashed_entanglement(rho, **kwargs)


class TestTwoQubitFloor:
    """On a 2 x 2 state each descent ends, and the restarts stop, once a
    value is within EARLY_STOP of F = min(1/2 I, E_F), which no restart
    can go below."""

    @pytest.mark.parametrize("kwargs", [dict(restarts=2, budget=1000), {}], ids=["2x1000", "defaults"])
    def test_reference_states_keep_their_values_in_fewer_evaluations(self, monkeypatch, kwargs):
        results = [squashed_entanglement(rho, **kwargs) for rho in reference_states()]
        for rho, result in zip(reference_states(), results):
            assert result.value == pytest.approx(without_the_floor(monkeypatch, rho, **kwargs).value, rel=0, abs=1e-12)
            assert result.floor == pytest.approx(half_mi_or_eof(rho), rel=0, abs=1e-13)
            assert result.value <= result.floor + squashed.EARLY_STOP
        assert [r.evaluations for r in results] == [29, 23, 0, 38, 56, 31]  # 177 in all

    def test_each_descent_ends_at_its_first_value_within_reach_of_the_floor(self, monkeypatch):
        restarts = []

        def recording_descend(psi, v, budget, stop):
            restarts.append([])
            return descend(psi, v, budget, stop)

        def recording_value_grad(psi, v):
            value, grad = value_grad(psi, v)
            restarts[-1].append(value)
            return value, grad

        descend, value_grad = squashed._descend, squashed._value_grad
        monkeypatch.setattr(squashed, "_descend", recording_descend)
        monkeypatch.setattr(squashed, "_value_grad", recording_value_grad)
        for rho in reference_states():
            restarts.clear()
            result = squashed_entanglement(rho, restarts=2, budget=1000)
            stop = result.floor + squashed.EARLY_STOP
            # restart 0 of a Werner state starts, and ends, at a stationary point
            for values in restarts:
                assert min(values[:-1], default=np.inf) > stop
            assert restarts == [] or restarts[-1][-1] <= stop
            assert result.evaluations == sum(map(len, restarts))

    @pytest.mark.parametrize("budget", [2, 5])
    def test_a_budget_short_of_the_floor_runs_every_restart(self, caplog, budget):
        rho = random_density_matrix((("x", 2), ("y", 2)), np.random.default_rng(10))
        with caplog.at_level(logging.INFO, logger="qbnets.squashed"):
            result = squashed_entanglement(rho, restarts=3, budget=budget)
        assert [r.args[0] for r in caplog.records] == [0, 1, 2]
        assert result.evaluations == 3 * budget
        assert result.value > result.floor + squashed.EARLY_STOP

    def test_floor_of_a_pure_state_is_its_value(self):
        result = squashed_entanglement(bell_state())
        assert result.floor == pytest.approx(LN2, rel=0, abs=1e-14)
        assert result.value == pytest.approx(result.floor, rel=0, abs=1e-14)

    @pytest.mark.parametrize(
        "shape, value, evaluations",
        [
            ((2, 3), 9.384788254467823e-13, 164),
            ((3, 2), 7.2506003705978e-05, 2000),
            ((3, 3), 0.05098314975316753, 1346),
        ],
    )
    def test_other_shapes_search_as_before(self, shape, value, evaluations):
        labels = (("x", shape[0]), ("y", shape[1]))
        rho = random_density_matrix(labels, np.random.default_rng(7))
        result = squashed_entanglement(rho, restarts=2, budget=1000)
        assert result.floor is None
        assert result.evaluations == evaluations
        assert result.value == pytest.approx(value, rel=0, abs=1e-12)


class TestAgainstBarzilaiBorwein:
    """The L-BFGS search against the Barzilai-Borwein steepest descent it
    replaced (``conftest.bb_descend``), at the benchmark's 2 x 1000."""

    def test_never_above_the_reference(self, monkeypatch):
        for rho in reference_states() + low_rank_states():
            result = squashed_entanglement(rho, restarts=2, budget=1000)
            reference = bb_reference(monkeypatch, rho, restarts=2, budget=1000)
            assert result.value <= reference.value + 1e-12

    def test_fewer_evaluations_on_the_reference_states(self, monkeypatch):
        ours = sum(squashed_entanglement(rho, restarts=2, budget=1000).evaluations for rho in reference_states())
        theirs = sum(bb_reference(monkeypatch, rho, restarts=2, budget=1000).evaluations for rho in reference_states())
        assert ours < theirs

    def test_reference_states_reach_the_floor(self):
        expected = (0.0815272, 0.2846348, 0.5187570, 0.0070926, 0.0258694, 0.0236847)
        for rho, value in zip(reference_states(), expected):
            result = squashed_entanglement(rho, restarts=2, budget=1000)
            assert result.value <= half_mi_or_eof(rho) + 1e-12
            assert result.value == pytest.approx(value, abs=1e-6)


class TestLineSearchStop:
    def test_step_below_roundoff_ends_the_restart(self, monkeypatch):
        # every trial reads worse than the start, so Armijo's condition
        # never holds; without the step floor the one line search would
        # spend the whole budget re-reading the same retracted point
        psi = _purification(reference_states()[3])
        calls = []

        def every_trial_worse(psi, v):
            value, grad = _value_grad(psi, v)
            calls.append(v)
            return value + (1.0 if len(calls) > 1 else 0.0), grad

        monkeypatch.setattr(squashed, "_value_grad", every_trial_worse)
        start = np.eye(16, 4, dtype=complex)
        value, v, used = squashed._descend(psi, start, 1000, squashed.EARLY_STOP)
        assert used == len(calls) <= 60
        assert np.array_equal(v, start)
        assert value == _value_grad(psi, start)[0]


class TestDescentFallback:
    def test_non_descent_direction_restarts_from_the_gradient(self, monkeypatch):
        # a quasi-Newton direction that ascends (here -xi) is replaced by
        # the tangent gradient and the memory cleared, so the restart
        # still lowers the value within its budget
        psi = _purification(reference_states()[3])
        held = []

        def ascent(v, xi, pairs):
            held.append(len(pairs))
            return -xi

        monkeypatch.setattr(squashed, "_lbfgs_direction", ascent)
        start = np.eye(16, 4, dtype=complex)
        value, v, used = squashed._descend(psi, start, 200, squashed.EARLY_STOP)
        assert held and max(held) <= 1 and used <= 200
        assert value < _value_grad(psi, start)[0] - 1e-3


class TestLowerBound:
    """``lower`` is the coherent information, which bounds E_sq from below."""

    def test_below_the_value(self):
        rng = np.random.default_rng(61)
        states = reference_states() + low_rank_states()
        states += [random_density_matrix((("x", 2), ("y", 3)), rng) for _ in range(3)]
        for rho in states:
            result = squashed_entanglement(rho, restarts=2, budget=300)
            assert 0.0 <= result.lower <= result.value + 1e-12

    def test_positive_on_a_nearly_pure_bell_state(self):
        rho = DensityMatrix((("x", 2), ("y", 2)), 0.95 * bell_state().matrix + 0.05 * np.eye(4) / 4)
        assert squashed_entanglement(rho, restarts=1, budget=10).lower > 0.4

    @pytest.mark.parametrize("dy", [2, 3])
    def test_equals_value_and_marginal_entropy_on_pure_states(self, dy):
        rng = np.random.default_rng(62 + dy)
        for _ in range(5):
            rho = state_of_rank(rng, 2, dy, 1)
            result = squashed_entanglement(rho)
            s_x = von_neumann_entropy(partial_trace(rho, ["x"]))
            assert result.lower == pytest.approx(s_x, abs=1e-12)
            assert result.value == pytest.approx(s_x, abs=1e-12)


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


def product_column_psi(rng, dx, dy):
    """psi[x, y, e] whose first two columns are product vectors and whose
    last is entangled: under the identity isometry, rank-one members
    next to a rank-two one."""
    cols = [np.outer(complex_normal(rng, dx), complex_normal(rng, dy)) for _ in range(2)]
    cols.append(complex_normal(rng, dx, dy))
    psi = np.stack(cols, axis=-1)
    return psi / np.linalg.norm(psi)


def with_zero_row(rng, n, rank):
    """An n-by-rank isometry whose second row is zero: an empty member."""
    v = _retract(complex_normal(rng, n - 1, rank))
    return np.insert(v, 1, 0.0, axis=0)


class TestEighKernel:
    def test_product_members_gradient_rows_stay_at_roundoff(self):
        # the rows are exactly zero: phi has no part along M's null space,
        # so K must give it no weight, not -ln(EIG_FLOOR / p) (about 690)
        worst = 0.0
        for seed in range(200):
            psi = product_column_psi(np.random.default_rng(seed), 3, 3)
            _, grad = _value_grad(psi, np.eye(5, 3, dtype=complex))
            worst = max(worst, float(np.abs(grad[:2]).max()))
        assert worst <= 1e-14


class TestClosedFormKernel:
    """The closed 2 x 2 form of ``_value_grad``, on psi with its smaller side
    first as the descent passes it, against the ``eigh`` of every member's
    x-marginal (``conftest.eigh_value_grad``)."""

    @staticmethod
    def assert_matches_eigh(psi, v):
        value, grad = _value_grad(_smaller_side_first(psi), v)
        ref_value, ref_grad = eigh_value_grad(psi, v)
        assert abs(value - ref_value) <= 1e-14
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("dx, dy", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_random_isometries(self, dx, dy, rank):
        rng = np.random.default_rng(70 + 10 * dx + dy + rank)
        psi = _purification(state_of_rank(rng, dx, dy, rank))
        assert psi.shape == (dx, dy, rank)
        for n in (rank, rank * rank):
            self.assert_matches_eigh(psi, _retract(complex_normal(rng, n, rank)))

    @pytest.mark.parametrize("p", [0.5, 0.7])
    def test_identity_isometry_on_bell_states_in_noise(self, p):
        # members with a == d and b == 0 exactly: ties, where beta = -1 / lam;
        # the isometry's last twelve rows are zero, so are their members
        rho = DensityMatrix((("x", 2), ("y", 2)), p * bell_state().matrix + (1 - p) * np.eye(4) / 4)
        psi = _purification(rho)
        v = np.eye(16, 4, dtype=complex)
        phi = _members(psi, v)
        gram = phi @ phi.conj().swapaxes(1, 2)
        lo, hi = _pair_spectrum(gram[:, 0, 0].real, gram[:, 1, 1].real, np.abs(gram[:, 1, 0]))
        assert np.any((lo == hi) & (hi > 0.0))
        self.assert_matches_eigh(psi, v)

    @pytest.mark.parametrize("dx, dy", [(2, 2), (2, 3), (3, 2)])
    def test_isometry_with_a_zero_row(self, dx, dy):
        rng = np.random.default_rng(80 + 10 * dx + dy)
        psi = _purification(state_of_rank(rng, dx, dy, 3))
        self.assert_matches_eigh(psi, with_zero_row(rng, 9, 3))

    @pytest.mark.parametrize("dx, dy", [(2, 2), (2, 3), (3, 2)])
    def test_rank_one_members(self, dx, dy):
        rng = np.random.default_rng(90 + 10 * dx + dy)
        psi = product_column_psi(rng, dx, dy)
        v = np.eye(5, 3, dtype=complex)
        phi = _members(psi, v)
        ranks = [np.linalg.matrix_rank(m, tol=1e-12) for m in phi[:3]]
        assert ranks == [1, 1, 2]
        self.assert_matches_eigh(psi, v)

    def test_no_eigendecomposition_on_a_qubit_side(self, monkeypatch):
        rng = np.random.default_rng(95)
        for dx, dy in ((2, 3), (3, 2)):
            psi = _purification(state_of_rank(rng, dx, dy, 3))
            v = _retract(complex_normal(rng, 9, 3))
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", None)
                value, _, used = squashed._descend(psi, v, 20, squashed.EARLY_STOP)
            assert used > 1 and value < _value_grad(psi, v)[0]

    def test_the_smaller_side_is_a_contiguous_copy(self):
        psi = _purification(state_of_rank(np.random.default_rng(96), 3, 2, 3))
        swapped = _smaller_side_first(psi)
        assert swapped.shape == (2, 3, 3) and swapped.flags.c_contiguous
        assert np.array_equal(swapped, psi.swapaxes(0, 1))
        assert _smaller_side_first(swapped) is swapped


class TestLogging:
    def test_one_info_line_per_restart_and_nothing_on_stdout(self, caplog, capsys):
        # a 2 x 3 state has no two-qubit floor, so every restart runs
        rho = random_density_matrix((("x", 2), ("y", 3)), np.random.default_rng(10))
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

    def test_one_info_line_when_the_floor_ends_the_search(self, caplog):
        rho = random_density_matrix((("x", 2), ("y", 2)), np.random.default_rng(10))
        with caplog.at_level(logging.INFO, logger="qbnets"):
            result = squashed_entanglement(rho, restarts=3, budget=100)
        records = [r for r in caplog.records if r.name == "qbnets.squashed"]
        assert [r.getMessage().split(":")[0] for r in records] == [
            "squashed restart 0",
            f"squashed search stopped at the two-qubit floor {result.floor:.6g} before restart 1",
        ]
        assert all(r.levelno == logging.INFO for r in records)
        assert records[0].args[2] == result.evaluations
