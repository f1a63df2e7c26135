import itertools

import numpy as np
import pytest

from qbnets import (
    ClassicalDistribution,
    Dag,
    DensityMatrix,
    FactorGraphNet,
    Multinode,
    classical_cmi,
    d_separated,
    is_polytree,
    net_to_density,
    node_tpm,
    posterior_oracle,
    topological_order,
)
from qbnets.graph import as_multinode
from qbnets.sampling import random_qbnet
from qbnets.verify import _assignment_codes, canonical_separated_cases, enumerate_dags

from conftest import brute_d_separated


def chain(n=3):
    return Dag([(f"n{i}", 2) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


class TestDagValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag([("a", 2), ("b", 2)], [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            Dag([("a", 2)], [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dag([("a", 2), ("b", 2)], [(0, 1), (0, 1)])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range"):
            Dag([("a", 2), ("b", 2)], [(0, 2)])

    def test_bad_cardinality_rejected(self):
        with pytest.raises(ValueError, match="cardinality"):
            Dag([("a", 0)], [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Dag([("a", 2), ("a", 2)], [])

    def test_parent_order_follows_edges(self):
        dag = Dag([("a", 2), ("b", 2), ("c", 2)], [(1, 2), (0, 2)])
        assert dag.parents(2) == (1, 0)

    def test_equal_graphs_built_apart_hash_alike(self):
        # the interleaving of edges across children carries no meaning,
        # a node's parent order does
        nodes = [("a", 2), ("b", 2), ("c", 3)]
        first, second = Dag(nodes, [(0, 2), (1, 2), (0, 1)]), Dag(nodes, [(0, 1), (0, 2), (1, 2)])
        assert first is not second and first == second and hash(first) == hash(second)
        assert first != Dag(nodes, [(1, 2), (0, 2), (0, 1)])
        assert first.neighbors(0) == (1, 2) and first.neighbors(2) == (0, 1)


class TestMultinode:
    def test_sorted_and_deduped(self):
        assert Multinode([3, 1, 3]).members == (1, 3)
        assert Multinode([1, 3]) == Multinode((3, 1))

    def test_complement_partitions(self):
        dag = chain(4)
        m = Multinode([0, 2])
        c = m.complement(dag)
        assert c.members == (1, 3)
        assert (m | c).members == (0, 1, 2, 3)
        assert m.isdisjoint(c)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Multinode([-1])


def _chain_net():
    return random_qbnet(chain(3), np.random.default_rng(2))


class TestIntegerArguments:
    """Node indices, cardinalities and label dimensions that are bools or
    not integers are refused, where they were once truncated by ``int``."""

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda: Multinode([1.5]), "node index 1.5"),
            (lambda: Multinode(["1"]), "node index '1'"),
            (lambda: posterior_oracle(_chain_net(), [0.9], {}), "node index 0.9"),
            (lambda: net_to_density(_chain_net(), [1.7]), "node index 1.7"),
            (lambda: d_separated(chain(3), [0.5], [2], [1]), "node index 0.5"),
            (lambda: Dag([("a", 2.7)]), "node 'a' cardinality 2.7"),
            (lambda: Dag([("a", True)]), "node 'a' cardinality True"),
            (lambda: Dag([("a", 2), ("b", 2)], [(0.5, 1)]), "edge endpoint 0.5"),
            (lambda: node_tpm(0.5, (), [1, 0]), "node index 0.5"),
            (lambda: FactorGraphNet([("x", 2.9)], [("f", (0,), [1, 1])]), "root 'x' cardinality 2.9"),
            (lambda: DensityMatrix([("x", 2.9)], np.eye(2) / 2), "label 'x' dimension 2.9"),
        ],
        ids=[
            "multinode_float", "multinode_str", "posterior_oracle", "net_to_density", "d_separated",
            "dag_float_card", "dag_bool_card", "dag_float_edge", "node_tpm", "factor_graph", "density_matrix",
        ],
    )
    def test_refused(self, call, what):
        with pytest.raises(ValueError, match=f"^{what} is not an integer$"):
            call()

    def test_numpy_integers_accepted(self):
        assert as_multinode(np.int64(1)) == as_multinode(1) == Multinode([1])
        dag = Dag([("a", np.int64(2)), ("b", np.int32(3))], [(np.int64(0), np.int64(1))])
        assert dag.cardinalities == (2, 3) and dag.edges == ((0, 1),)
        assert all(type(x) is int for x in dag.cardinalities + dag.edges[0])


class TestTopologicalOrder:
    def test_single_node(self):
        assert topological_order(Dag([("a", 2)], [])) == [0]

    def test_chain(self):
        assert topological_order(chain(3)) == [0, 1, 2]

    def test_cross_pair_order_is_forced(self, cross_pair_dag):
        # oracle: enumerate every permutation respecting the edges
        n = cross_pair_dag.node_count
        edges = cross_pair_dag.edges
        valid = [
            p
            for p in itertools.permutations(range(n))
            if all(p.index(a) < p.index(b) for a, b in edges)
        ]
        assert valid == [(0, 1, 2, 3, 4)]
        assert topological_order(cross_pair_dag) == [0, 1, 2, 3, 4]

    def test_tie_break_by_index(self):
        dag = Dag([("a", 2), ("b", 2), ("c", 2)], [(2, 1)])
        assert topological_order(dag) == [0, 2, 1]


class TestIsPolytree:
    def test_chain_true(self):
        assert is_polytree(chain(3))

    def test_diamond_false(self):
        diamond = Dag(
            [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        assert not is_polytree(diamond)

    def test_screened_pair_false(self, screened_pair_dag):
        # skeleton carries the cycle lam - x0 - x - lam
        assert not is_polytree(screened_pair_dag)

    def test_forest_counts(self):
        forest = Dag([("a", 2), ("b", 2), ("c", 2)], [(0, 1)])
        assert is_polytree(forest)


class TestDSeparation:
    def test_cross_pair_connected(self, cross_pair_dag):
        assert not d_separated(cross_pair_dag, [3], [4], [0])

    def test_screened_pair_separated(self, screened_pair_dag):
        assert d_separated(screened_pair_dag, [3], [4], [0])

    def test_chain_blocked_by_middle(self):
        dag = Dag([("x", 2), ("lam", 2), ("y", 2)], [(0, 1), (1, 2)])
        assert d_separated(dag, [0], [2], [1])
        assert not d_separated(dag, [0], [2], [])

    def test_collider_activated_by_middle(self):
        dag = Dag([("x", 2), ("lam", 2), ("y", 2)], [(0, 1), (2, 1)])
        assert not d_separated(dag, [0], [2], [1])
        assert d_separated(dag, [0], [2], [])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            d_separated(chain(3), [0], [0], [1])


def _triples(n):
    for code in itertools.product(range(4), repeat=n):
        if 1 not in code or 2 not in code:
            continue
        a = [i for i, c in enumerate(code) if c == 1]
        b = [i for i, c in enumerate(code) if c == 2]
        z = [i for i, c in enumerate(code) if c == 3]
        yield a, b, z


def _dag_from_masks(parents, card=2):
    edges = [
        (p, c)
        for c, mask in enumerate(parents)
        for p in range(len(parents))
        if mask >> p & 1
    ]
    return Dag([(f"n{i}", card) for i in range(len(parents))], edges)


class TestDSeparationProperties:
    def test_matches_reachability_oracle_exhaustive(self):
        # every DAG on up to 4 nodes, every disjoint triple
        for n in range(2, 5):
            for parents in enumerate_dags(n):
                dag = _dag_from_masks(parents)
                for a, b, z in _triples(n):
                    assert d_separated(dag, a, b, z) == brute_d_separated(
                        dag, a, b, z
                    ), (parents, a, b, z)

    def test_matches_reachability_oracle_sampled_five_nodes(self):
        rng = np.random.default_rng(42)
        dags = enumerate_dags(5)
        codes = _assignment_codes(5)
        for _ in range(1500):
            parents = dags[rng.integers(len(dags))]
            dag = _dag_from_masks(parents)
            code = codes[rng.integers(len(codes))]
            a = [i for i in range(5) if code[i] == 1]
            b = [i for i in range(5) if code[i] == 2]
            z = [i for i in range(5) if code[i] == 3]
            assert d_separated(dag, a, b, z) == brute_d_separated(dag, a, b, z)

    def test_symmetric_in_a_and_b(self):
        for n in range(2, 5):
            for parents in enumerate_dags(n):
                dag = _dag_from_masks(parents)
                for a, b, z in _triples(n):
                    assert d_separated(dag, a, b, z) == d_separated(dag, b, a, z)
        # five-node coverage through the deduplicated census classes
        cases, _, _ = canonical_separated_cases(5)
        for parents, (am, bm, zm) in cases[::7]:
            dag = _dag_from_masks(parents)
            a = [i for i in range(5) if am >> i & 1]
            b = [i for i in range(5) if bm >> i & 1]
            z = [i for i in range(5) if zm >> i & 1]
            assert d_separated(dag, b, a, z)

    def test_monotone_decomposition(self):
        # separated from a union means separated from each part
        for n in range(3, 5):
            for parents in enumerate_dags(n):
                dag = _dag_from_masks(parents)
                for code in itertools.product(range(4), repeat=n):
                    if 1 not in code or 2 not in code or 3 not in code:
                        continue
                    a = [i for i, c in enumerate(code) if c == 1]
                    bc = [i for i, c in enumerate(code) if c in (2, 3)]
                    b = [i for i, c in enumerate(code) if c == 2]
                    z = [i for i, c in enumerate(code) if c == 0]
                    if d_separated(dag, a, bc, z):
                        assert d_separated(dag, a, b, z)


def _random_classical_net(dag, rng):
    tables = []
    for j in range(dag.node_count):
        shape = (dag.cardinality(j),) + tuple(dag.cardinality(p) for p in dag.parents(j))
        t = rng.random(shape) + 0.05
        tables.append(t / t.sum(axis=0, keepdims=True))
    return tables


def _classical_joint(dag, tables):
    dist = np.zeros(dag.cardinalities)
    for a in itertools.product(*(range(c) for c in dag.cardinalities)):
        p = 1.0
        for j, t in enumerate(tables):
            p *= t[(a[j],) + tuple(a[q] for q in dag.parents(j))]
        dist[a] = p
    return dist


class TestClassicalOracleAgreement:
    """d-separated triples must show zero classical CMI on sampled nets."""

    def _check(self, dag, a, b, z, rng, samples):
        names = dag.names
        for _ in range(samples):
            joint = _classical_joint(dag, _random_classical_net(dag, rng))
            dist = ClassicalDistribution(list(zip(names, dag.cardinalities)), joint)
            cmi = classical_cmi(
                dist,
                [names[i] for i in a],
                [names[i] for i in b],
                [names[i] for i in z],
            )
            assert abs(cmi) < 1e-9

    def test_exhaustive_small(self):
        rng = np.random.default_rng(7)
        for n in range(2, 4):
            for parents in enumerate_dags(n):
                dag = _dag_from_masks(parents)
                for a, b, z in _triples(n):
                    if d_separated(dag, a, b, z):
                        self._check(dag, a, b, z, rng, samples=5)

    def test_sampled_larger(self):
        rng = np.random.default_rng(8)
        for n in (4, 5):
            dags = enumerate_dags(n)
            hits = 0
            while hits < 60:
                parents = dags[rng.integers(len(dags))]
                dag = _dag_from_masks(parents)
                code = _assignment_codes(n)[rng.integers(len(_assignment_codes(n)))]
                a = [i for i in range(n) if code[i] == 1]
                b = [i for i in range(n) if code[i] == 2]
                z = [i for i in range(n) if code[i] == 3]
                if d_separated(dag, a, b, z):
                    self._check(dag, a, b, z, rng, samples=3)
                    hits += 1
