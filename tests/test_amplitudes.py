import itertools

import numpy as np
import pytest

from qbnets import (
    CapacityError,
    Dag,
    ImpossibleEvidenceError,
    Multinode,
    QBNet,
    ZeroProbabilityError,
    amplitude_tensor,
    conditional_amplitude,
    joint_amplitude,
    labeled,
    marginal_probability,
    marginalize,
    node_tpm,
    posterior_oracle,
    vector_amplitude,
)
from qbnets.sampling import random_dag, random_qbnet

from conftest import assignments, brute_joint, brute_joint_table, brute_posterior

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def single_node_net():
    dag = Dag([("a", 2)], [])
    return QBNet(dag, [node_tpm(0, (), [1.0, 0.0])])


def hadamard_root_net():
    dag = Dag([("a", 2)], [])
    return QBNet(dag, [node_tpm(0, (), [INV_SQRT2, INV_SQRT2])])


def two_roots_net():
    dag = Dag([("a", 2), ("b", 2)], [])
    return QBNet(
        dag,
        [
            node_tpm(0, (), [INV_SQRT2, INV_SQRT2]),
            node_tpm(1, (), [INV_SQRT2, INV_SQRT2]),
        ],
    )


def copy_chain_net():
    dag = Dag([("a", 2), ("b", 2)], [(0, 1)])
    ident = np.eye(2)
    return QBNet(
        dag,
        [node_tpm(0, (), [INV_SQRT2, INV_SQRT2]), node_tpm(1, (0,), ident)],
    )


class TestNodeTpm:
    def test_norm_violation_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            node_tpm(0, (), [1.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        # NaN compares False against every tolerance, so it needs its own check
        with pytest.raises(ValueError, match="non-finite"):
            node_tpm(0, (), [bad, 0.0])

    def test_overflowing_norm_rejected(self):
        # the squared norm overflows; it is reported, without a RuntimeWarning
        with pytest.raises(ValueError, match="unit norm by inf"):
            node_tpm(0, (), [1e200, 0.0])

    def test_parent_mismatch_rejected(self):
        dag = Dag([("a", 2), ("b", 2)], [(0, 1)])
        with pytest.raises(ValueError, match="parents"):
            QBNet(dag, [node_tpm(0, (), [1, 0]), node_tpm(1, (), [1, 0])])


class TestJointAmplitude:
    def test_single_node(self):
        assert joint_amplitude(single_node_net(), [0]) == 1.0

    def test_copy_chain(self):
        net = copy_chain_net()
        assert joint_amplitude(net, [0, 0]) == pytest.approx(INV_SQRT2)
        assert joint_amplitude(net, [0, 1]) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            joint_amplitude(single_node_net(), [2])

    def test_matches_hand_multiplication(self):
        rng = np.random.default_rng(0)
        dag = Dag([("a", 2), ("b", 2), ("c", 2)], [(0, 1), (0, 2), (1, 2)])
        net = random_qbnet(dag, rng)
        for a in assignments(dag):
            assert joint_amplitude(net, a) == pytest.approx(brute_joint(net, a))


class TestAmplitudeTensor:
    def test_single_node(self):
        amp = amplitude_tensor(single_node_net())
        np.testing.assert_allclose(amp.data, [1.0, 0.0])

    def test_two_hadamard_roots(self):
        amp = amplitude_tensor(two_roots_net())
        np.testing.assert_allclose(amp.data, np.full((2, 2), 0.5))

    def test_unit_norm_random(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            net = random_qbnet(random_dag(rng, int(rng.integers(1, 6))), rng)
            total = float((np.abs(amplitude_tensor(net).data) ** 2).sum())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_cap_enforced(self):
        dag = Dag([(f"n{i}", 2) for i in range(6)], [])
        net = random_qbnet(dag, np.random.default_rng(2))
        with pytest.raises(CapacityError):
            amplitude_tensor(net, cap=32)

    def test_entries_match_joint_amplitude(self):
        rng = np.random.default_rng(3)
        net = random_qbnet(random_dag(rng, 4), rng)
        amp = amplitude_tensor(net)
        for a in assignments(net.dag):
            assert amp.data[a] == pytest.approx(joint_amplitude(net, a))


class TestVectorAmplitude:
    def test_all_nodes_gives_scalar(self):
        net = copy_chain_net()
        amp = vector_amplitude(net, [0, 1], (0, 0))
        assert amp.labels == ()
        assert amp.item() == pytest.approx(joint_amplitude(net, [0, 0]))

    def test_empty_multinode_gives_full_tensor(self):
        net = copy_chain_net()
        amp = vector_amplitude(net, [], ())
        assert amp.labels == (0, 1)
        np.testing.assert_allclose(amp.data, amplitude_tensor(net).data)

    def test_squared_norm_is_marginal_probability(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            net = random_qbnet(random_dag(rng, 4), rng)
            table = brute_joint_table(net)
            for r in range(1, 4):
                for members in itertools.combinations(range(4), r):
                    m = Multinode(members)
                    other = tuple(
                        i for i in range(4) if i not in members
                    )
                    for values in itertools.product(
                        *(range(net.dag.cardinality(i)) for i in members)
                    ):
                        amp = vector_amplitude(net, m, values)
                        idx = [slice(None)] * 4
                        for i, v in zip(members, values):
                            idx[i] = v
                        expect = table[tuple(idx)].sum()
                        assert amp.norm() ** 2 == pytest.approx(expect, abs=1e-10)


class TestMarginalProbability:
    def test_single_node(self):
        np.testing.assert_allclose(marginal_probability(single_node_net(), [0]), [1, 0])

    def test_hadamard_uniform(self):
        np.testing.assert_allclose(
            marginal_probability(hadamard_root_net(), [0]), [0.5, 0.5]
        )

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(5)
        dag = random_dag(rng, 4)
        net = random_qbnet(dag, rng)
        table = brute_joint_table(net)
        got = marginal_probability(net, [2])
        expect = table.sum(axis=(0, 1, 3))
        np.testing.assert_allclose(got, expect, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)


class TestConditionalAmplitude:
    def test_complement_empty(self):
        net = copy_chain_net()
        cond = conditional_amplitude(net, b=[1], a=[0], b_values=(0,), a_values=(0,))
        assert cond.numerator.labels == ()
        assert cond.probability == pytest.approx(1.0)

    def test_independent_roots_factorize(self):
        net = two_roots_net()
        cond = conditional_amplitude(net, b=[1], a=[0], b_values=(1,), a_values=(0,))
        assert cond.probability == pytest.approx(0.5, abs=1e-10)

    def test_matches_oracle_ratio(self):
        rng = np.random.default_rng(6)
        dag = random_dag(rng, 4)
        net = random_qbnet(dag, rng)
        table = brute_joint_table(net)
        cond = conditional_amplitude(net, b=[1, 3], a=[0], b_values=(1, 0), a_values=(1,))
        expect = table[1, 1, :, 0].sum() / table[1].sum()
        assert cond.probability == pytest.approx(expect, abs=1e-10)

    def test_zero_probability_conditioning_rejected(self):
        net = single_node_net()  # state 1 has amplitude 0
        dag = Dag([("a", 2), ("b", 2)], [])
        net = QBNet(
            dag, [node_tpm(0, (), [1, 0]), node_tpm(1, (), [INV_SQRT2, INV_SQRT2])]
        )
        with pytest.raises(ZeroProbabilityError):
            conditional_amplitude(net, b=[1], a=[0], b_values=(0,), a_values=(1,))


class TestMarginalize:
    def test_empty_is_identity(self):
        amp = labeled((0, 1), np.arange(4, dtype=complex).reshape(2, 2))
        out = marginalize(amp, [])
        assert out.labels == amp.labels
        np.testing.assert_allclose(out.data, amp.data)

    def test_hadamard_sums_to_sqrt2(self):
        amp = amplitude_tensor(hadamard_root_net())
        out = marginalize(amp, [0])
        assert out.item() == pytest.approx(np.sqrt(2.0))

    def test_unknown_label_rejected(self):
        amp = labeled((0,), np.ones(2, dtype=complex))
        with pytest.raises(ValueError, match="unknown"):
            marginalize(amp, [5])

    def test_matches_slice_sums(self):
        rng = np.random.default_rng(7)
        net = random_qbnet(random_dag(rng, 4), rng)
        full = amplitude_tensor(net)
        collapsed = marginalize(full, [1, 3])
        for a0 in range(net.dag.cardinality(0)):
            for a2 in range(net.dag.cardinality(2)):
                total = 0.0 + 0.0j
                for a1 in range(net.dag.cardinality(1)):
                    for a3 in range(net.dag.cardinality(3)):
                        total += joint_amplitude(net, [a0, a1, a2, a3])
                assert collapsed.data[a0, a2] == pytest.approx(total, abs=1e-10)


class TestPosteriorOracle:
    def test_no_evidence_equals_marginal(self):
        rng = np.random.default_rng(8)
        net = random_qbnet(random_dag(rng, 4), rng)
        np.testing.assert_allclose(
            posterior_oracle(net, [1], {}),
            marginal_probability(net, [1]),
            atol=1e-12,
        )

    def test_full_evidence_is_normalized_slice(self):
        rng = np.random.default_rng(9)
        net = random_qbnet(random_dag(rng, 3), rng)
        table = brute_joint_table(net)
        ev = {0: 1, 2: 0}
        got = posterior_oracle(net, [1], ev)
        expect = table[1, :, 0] / table[1, :, 0].sum()
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            dag = random_dag(rng, 4)
            net = random_qbnet(dag, rng)
            ev = {0: int(rng.integers(dag.cardinality(0)))}
            got = posterior_oracle(net, [1, 3], ev)
            np.testing.assert_allclose(got, brute_posterior(net, [1, 3], ev), atol=1e-12)

    def test_impossible_evidence_rejected(self):
        dag = Dag([("a", 2)], [])
        net = QBNet(dag, [node_tpm(0, (), [1, 0])])
        with pytest.raises(ImpossibleEvidenceError):
            posterior_oracle(net, [], {0: 1})

    def test_query_overlapping_evidence_rejected(self):
        net = copy_chain_net()
        with pytest.raises(ValueError, match="disjoint"):
            posterior_oracle(net, [0], {0: 1})


class TestAlgebraIdentities:
    """Marginalization, splitting, Bayes, and norm identities on random nets."""

    def _net(self, seed):
        rng = np.random.default_rng(seed)
        return random_qbnet(random_dag(rng, int(rng.integers(2, 5))), rng)

    def test_splitting_rule(self):
        # summing joint-slice kets over one multinode's states recovers
        # the coarser ket, entrywise over the common complement
        for seed in range(12):
            net = self._net(seed)
            n = net.dag.node_count
            a, b = Multinode([0]), Multinode([1])
            for a_val in range(net.dag.cardinality(0)):
                target = vector_amplitude(net, a, (a_val,)).sum_over(
                    [1] if n > 1 else []
                )
                acc = None
                for b_val in range(net.dag.cardinality(1)):
                    piece = vector_amplitude(net, a | b, (a_val, b_val))
                    acc = piece if acc is None else labeled(
                        acc.labels, acc.data + piece.data
                    )
                assert acc.labels == target.labels
                np.testing.assert_allclose(acc.data, target.data, atol=1e-10)

    def test_bayes_rule_ratio(self):
        # the conditional's squared-norm ratio equals the oracle posterior
        for seed in range(8):
            net = self._net(seed + 100)
            dag = net.dag
            ev_node = dag.node_count - 1
            ev_val = 0
            if abs(marginal_probability(net, [ev_node])[ev_val]) < 1e-12:
                continue
            post = posterior_oracle(net, [0], {ev_node: ev_val})
            for q in range(dag.cardinality(0)):
                cond = conditional_amplitude(
                    net, b=[0], a=[ev_node], b_values=(q,), a_values=(ev_val,)
                )
                assert cond.probability == pytest.approx(post[q], abs=1e-10)

    def test_conditional_norm_identity(self):
        for seed in range(8):
            net = self._net(seed + 200)
            table = brute_joint_table(net)
            n = net.dag.node_count
            cond = conditional_amplitude(net, b=[1], a=[0], b_values=(0,), a_values=(0,))
            joint = table[0, 0].sum() if n > 2 else table[0, 0]
            prior = table[0].sum()
            assert cond.probability == pytest.approx(joint / prior, abs=1e-9)
