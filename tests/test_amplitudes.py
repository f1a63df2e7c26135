import itertools
import time
import tracemalloc

import numpy as np
import pytest

from qbnets import (
    CapacityError,
    Dag,
    DensityMatrix,
    FactorGraphNet,
    ImpossibleEvidenceError,
    Multinode,
    QBNet,
    ZeroProbabilityError,
    amplitude_tensor,
    bipartite_beliefs,
    conditional_amplitude,
    diagonal_blocks,
    init_messages,
    joint_amplitude,
    labeled,
    marginal_probability,
    marginalize,
    multiply,
    node_tpm,
    posterior_oracle,
    propagate_polytree,
    reduce_qbnet,
    validate_evidence,
    vector_amplitude,
)
from qbnets import network
from qbnets.sampling import random_dag, random_evidence, random_qbnet, random_reducible_net

from conftest import (
    assignments, brute_joint, brute_joint_table, brute_posterior, chain_forward_backward, refused_peak_bytes
)

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


def binary_chain(n, rng):
    dag = Dag([(f"v{i}", 2) for i in range(n)], [(i - 1, i) for i in range(1, n)])
    return random_qbnet(dag, rng)


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

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="node 0: table rank 1 but 1 parents"):
            node_tpm(0, (1,), [1, 0])

    def test_table_count_mismatch_rejected(self):
        dag = Dag([("a", 2), ("b", 2)], [])
        with pytest.raises(ValueError, match="2 nodes but 1 tables"):
            QBNet(dag, [node_tpm(0, (), [1, 0])])

    def test_misdeclared_node_rejected(self):
        dag = Dag([("a", 2), ("b", 2)], [])
        with pytest.raises(ValueError, match="table 0 is declared for node 1"):
            QBNet(dag, [node_tpm(1, (), [1, 0]), node_tpm(1, (), [1, 0])])

    def test_wrong_shape_rejected(self):
        dag = Dag([("a", 3)], [])
        with pytest.raises(ValueError, match=r"node 0: table shape \(2,\), expected \(3,\)"):
            QBNet(dag, [node_tpm(0, (), [1, 0])])


class TestLabeledAmplitude:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be distinct"):
            labeled((0, 0), np.eye(2))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1 labels for a rank-2 tensor"):
            labeled((0,), np.eye(2))

    def test_non_integer_labels_rejected(self):
        # int() would truncate these to the labels (0, 1)
        with pytest.raises(ValueError, match="label 0.5 is not an integer"):
            labeled((0.5, 1.9), np.eye(2))

    @pytest.mark.parametrize(
        "data, entry",
        [([[1, 0], [np.nan, 1]], r"\(nan\+0j\) at \(1, 0\)"),
         (np.full((2, 2), np.inf), r"\(inf\+0j\) at \(0, 0\)"),
         ([[1, 0], [0, complex(0, np.nan)]], r"nanj at \(1, 1\)")],
        ids=["nan", "inf", "complex nan"],
    )
    def test_non_finite_data_rejected(self, data, entry):
        with pytest.raises(ValueError, match="data has a non-finite entry " + entry):
            labeled((0, 1), data)

    def test_multiply_refuses_a_cardinality_clash(self):
        with pytest.raises(ValueError, match="label 0 has cardinality 2 on one side and 3 on the other"):
            multiply(labeled((0,), [1, 0]), labeled((0, 1), np.ones((3, 2))))


def _unconverged_chain_beliefs(tol):
    net = FactorGraphNet(
        roots=[("a", 2), ("b", 2), ("c", 2)],
        factors=[
            ("f", (0, 1), np.array([[1.0, 0.2], [0.1, 1.0]])),
            ("g", (1, 2), np.array([[1.0, 0.9], [0.3, 1.0]])),
        ],
    )
    return bipartite_beliefs(net, init_messages(net), tol=tol)


def _off_block_state(atol):
    plus_zero = np.kron([1.0, 1.0], [1.0, 0.0]) / np.sqrt(2.0)
    rho = DensityMatrix((("lam", 2), ("x", 2)), np.outer(plus_zero, plus_zero).astype(complex))
    return diagonal_blocks(rho, "lam", atol=atol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-12])
@pytest.mark.parametrize(
    "name, call",
    [
        # each input fails the check its tolerance bounds, so a tolerance
        # that compares False against everything would let it through
        ("tol", _unconverged_chain_beliefs),
        ("atol", lambda atol: node_tpm(0, (), [1, 1], atol=atol)),
        ("atol", _off_block_state),
        ("atol", lambda atol: reduce_qbnet(random_reducible_net(np.random.default_rng(3)), atol)),
    ],
    ids=["bipartite_beliefs", "node_tpm", "diagonal_blocks", "reduce_qbnet"],
)
def test_tolerance_must_be_finite_and_nonnegative(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
        call(bad)


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

    def test_matches_the_sliced_joint(self):
        # the product of the sliced tables against the whole joint sliced
        rng = np.random.default_rng(15)
        for _ in range(40):
            dag = random_dag(rng, int(rng.integers(1, 11)), max_card=3)
            net = random_qbnet(dag, rng)
            fix = random_evidence(dag, rng)
            got = vector_amplitude(net, sorted(fix), [fix[m] for m in sorted(fix)])
            want = amplitude_tensor(net).slice_at(fix)
            assert got.labels == want.labels
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-15)

    def test_cap_counts_the_returned_ket(self):
        # a 21-node chain, whose joint (2^21 amplitudes) is above the cap,
        # with its last ten nodes fixed: the ket holds 2^11
        net = binary_chain(21, np.random.default_rng(16))
        tail = list(range(11, 21))
        tracemalloc.start()
        try:
            ket = vector_amplitude(net, tail, [1] * 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ket.labels == tuple(range(11)) and peak < 2**20
        rng = np.random.default_rng(17)
        for head in rng.integers(0, 2, size=(5, 11)).tolist():
            assert abs(ket.data[tuple(head)] - brute_joint(net, head + [1] * 10)) < 1e-15
        with pytest.raises(CapacityError, match="ket would hold 2048 entries"):
            vector_amplitude(net, tail, [1] * 10, cap=2**10)
        assert refused_peak_bytes(lambda: vector_amplitude(net, tail, [1] * 10, cap=2**10)) < 2**16


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
    def test_overlapping_multinodes_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            conditional_amplitude(copy_chain_net(), b=[0, 1], a=[1], b_values=(0, 0), a_values=(0,))

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

    def test_numerator_is_the_denominator_sliced(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            dag = random_dag(rng, int(rng.integers(2, 9)), max_card=3)
            net = random_qbnet(dag, rng)
            a, b = (sorted(m) for m in np.array_split(rng.permutation(dag.node_count), 2))
            a_values = [int(rng.integers(dag.cardinality(i))) for i in a]
            b_values = [int(rng.integers(dag.cardinality(i))) for i in b]
            cond = conditional_amplitude(net, b, a, b_values, a_values)
            fix = dict(zip(a + b, a_values + b_values))
            want = vector_amplitude(net, sorted(fix), [fix[m] for m in sorted(fix)])
            assert cond.numerator.labels == want.labels
            np.testing.assert_allclose(cond.numerator.data, want.data, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("b_values", [(), (0, 0), (-1,), (2,)])
    def test_bad_numerator_values_rejected(self, b_values):
        with pytest.raises(ValueError):
            conditional_amplitude(two_roots_net(), b=[1], a=[0], b_values=b_values, a_values=(0,))

    def test_zero_probability_conditioning_rejected(self):
        net = single_node_net()  # state 1 has amplitude 0
        dag = Dag([("a", 2), ("b", 2)], [])
        net = QBNet(
            dag, [node_tpm(0, (), [1, 0]), node_tpm(1, (), [INV_SQRT2, INV_SQRT2])]
        )
        with pytest.raises(ZeroProbabilityError):
            conditional_amplitude(net, b=[1], a=[0], b_values=(0,), a_values=(1,))


class TestEvidenceOutOfRange:
    """Evidence naming a node or a state outside the net is refused by the
    check and by every caller; a negative node or state would otherwise
    index from the end of a table."""

    @staticmethod
    def net():
        dag = Dag([("a", 2), ("b", 3), ("c", 2)], [(0, 1), (1, 2)])
        return random_qbnet(dag, np.random.default_rng(19))

    CASES = [({-1: 0}, "node -1"), ({3: 0}, "node 3"), ({1: -1}, "state -1"), ({1: 3}, "state 3")]

    @pytest.mark.parametrize("evidence, what", CASES)
    @pytest.mark.parametrize("call", ("validate_evidence", "posterior_oracle", "propagate_polytree"))
    def test_refused(self, call, evidence, what):
        net = self.net()
        calls = {
            "validate_evidence": lambda: validate_evidence(net.dag, evidence),
            "posterior_oracle": lambda: posterior_oracle(net, [2], evidence),
            "propagate_polytree": lambda: propagate_polytree(net, evidence),
        }
        with pytest.raises(ValueError, match=f"{what},? out of range"):
            calls[call]()


class TestFixedValuesNotCoerced:
    """The dense references refuse a fixed value that is a bool or not an
    integer, where it was once truncated to a state or used as a mask."""

    @staticmethod
    def net():
        dag = Dag([("a", 2), ("b", 2)], [(0, 1)])
        return random_qbnet(dag, np.random.default_rng(20))

    def test_vector_amplitude_refuses_a_float_state(self):
        with pytest.raises(ValueError, match="1.5 is not an integer"):
            vector_amplitude(self.net(), [0, 1], [1.5, 0])

    def test_conditional_amplitude_refuses_a_float_state(self):
        with pytest.raises(ValueError, match="0.7 is not an integer"):
            conditional_amplitude(self.net(), [1], [0], [0.7], [1])

    @pytest.mark.parametrize("assignment", [[True, 0], [1.5, 0]])
    def test_joint_amplitude_refuses_a_non_integer_state(self, assignment):
        with pytest.raises(ValueError, match="is not an integer"):
            joint_amplitude(self.net(), assignment)

    def test_joint_amplitude_is_the_ket_fixing_every_node(self):
        net = self.net()
        for assignment in itertools.product(range(2), repeat=2):
            got = joint_amplitude(net, np.array(assignment))
            assert type(got) is complex
            assert got == vector_amplitude(net, [0, 1], assignment).item()


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

    def test_non_integer_label_rejected(self):
        # int() would truncate 0.7 to label 0 and sum it out
        amp = labeled((0,), np.ones(2, dtype=complex))
        with pytest.raises(ValueError, match="label 0.7 is not an integer"):
            marginalize(amp, [0.7])

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

    def test_impossible_evidence_rejected(self, monkeypatch):
        dag = Dag([("a", 2)], [])
        net = QBNet(dag, [node_tpm(0, (), [1, 0])])
        with pytest.raises(ImpossibleEvidenceError, match="the observed states have zero probability"):
            posterior_oracle(net, [], {0: 1})
        # and when the zero total is summed over many blocks
        monkeypatch.setattr(network, "_ORACLE_AMPLITUDES", 1)
        dag = Dag([("a", 2), ("b", 2), ("c", 2)], [(0, 2)])
        tables = [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, INV_SQRT2], [[1, 1], [0, 0]]]
        net = QBNet(dag, [node_tpm(j, dag.parents(j), t) for j, t in enumerate(tables)])
        with pytest.raises(ImpossibleEvidenceError, match="the observed states have zero probability"):
            posterior_oracle(net, [0, 1], {2: 1})

    def test_query_overlapping_evidence_rejected(self):
        net = copy_chain_net()
        with pytest.raises(ValueError, match="disjoint"):
            posterior_oracle(net, [0], {0: 1})

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_blocks_match_enumeration(self, monkeypatch, block):
        # small blocks fix or cut the leading hidden nodes, so many blocks
        # run; the queries take none, the first hidden node, a random
        # subset and every hidden node
        monkeypatch.setattr(network, "_ORACLE_AMPLITUDES", block)
        rng = np.random.default_rng(11)
        for _ in range(8):
            dag = random_dag(rng, int(rng.integers(3, 10)), max_card=3)
            net = random_qbnet(dag, rng)
            evidence = random_evidence(dag, rng)
            hidden = [j for j in range(dag.node_count) if j not in evidence]
            subset = [j for j in hidden if rng.random() < 0.5]
            for query in ([], hidden[:1], subset, hidden):
                got = posterior_oracle(net, query, evidence)
                np.testing.assert_allclose(got, brute_posterior(net, query, evidence), rtol=0, atol=1e-12)

    def test_long_chain_held_to_blocks(self):
        # 2^19 hidden amplitudes; the joint over all 20 nodes took 24 MB
        net = binary_chain(20, np.random.default_rng(12))
        tracemalloc.start()
        try:
            got = posterior_oracle(net, [0], {19: 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        np.testing.assert_allclose(got, chain_forward_backward(net, {19: 1})[0], rtol=0, atol=1e-12)

    def test_large_node_split_into_ranges(self):
        # a root with 2^18 states runs in a few blocks of its states, not
        # in 2^18 blocks of one state
        states = 2**18
        assert len(list(network._oracle_blocks([states], network._ORACLE_AMPLITUDES))) == 4
        rng = np.random.default_rng(13)
        table = rng.normal(size=states) + 1j * rng.normal(size=states)
        table /= np.linalg.norm(table)
        net = QBNet(Dag([("r", states)], []), [node_tpm(0, (), table)])
        start = time.perf_counter()
        got = posterior_oracle(net, [0], {})
        assert time.perf_counter() - start < 1.0
        want = np.abs(table) ** 2
        np.testing.assert_allclose(got, want / want.sum(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("evidence", [{}, {21: 1}])
    def test_cap_refused_before_any_block(self, evidence):
        # the cap counts the hidden joint: 2^21 amplitudes on both chains
        net = binary_chain(21 + len(evidence), np.random.default_rng(14))
        with pytest.raises(CapacityError, match="hidden joint would hold 2097152 entries, above the cap of 1048576"):
            posterior_oracle(net, [0], evidence)
        assert refused_peak_bytes(lambda: posterior_oracle(net, [0], evidence)) < 2**20

    def test_hidden_joint_at_the_cap_runs(self):
        # 21 nodes, one observed: the joint over every node (2^21) is
        # above the cap, the 2^20 amplitudes the blocks visit are not
        net = binary_chain(21, np.random.default_rng(14))
        got = posterior_oracle(net, [0], {20: 1})
        np.testing.assert_allclose(got, chain_forward_backward(net, {20: 1})[0], rtol=0, atol=1e-12)


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
