"""The elimination's contraction core, ``network._contract``, the
reduced states that sum through it, and the einsum limits that the
polytree driver's family-local contractions must also respect."""

import math

import numpy as np
import pytest

from qbnets import (
    CapacityError, Dag, check_dsep_forward, net_to_density, propagate_polytree, search_dsep_witness
)
from qbnets.network import _MAX_OPERANDS, DEFAULT_CAP, _contract, _doubled_contraction, _doubled_plan
from qbnets.sampling import _draw_tables, random_dag, random_qbnet

from conftest import (
    brute_posterior, brute_reduced_state, dense_reduced_state, refused_peak_bytes, scan_elimination
)


def broadcast_product(parts, out, card):
    """Sum-product by broadcasting every part over all indices at once."""
    labels = sorted(card)
    total = np.ones([card[i] for i in labels], dtype=complex)
    for idx, data in parts:
        order = sorted(range(len(idx)), key=lambda k: idx[k])
        shape = [card[i] if i in idx else 1 for i in labels]
        total = total * np.transpose(data, order).reshape(shape)
    summed = total.sum(axis=tuple(k for k, i in enumerate(labels) if i not in out))
    held = [i for i in labels if i in out]
    return np.transpose(summed, [held.index(i) for i in out])


class TestContract:
    card = {7: 2, 60: 1, 3: 3, 99: 1, 42: 2, 5: 1}

    def parts(self, rng, count):
        labels = list(self.card)
        parts = []
        for _ in range(count):
            idx = tuple(rng.choice(labels, size=int(rng.integers(1, 4)), replace=False).tolist())
            shape = [self.card[i] for i in idx]
            parts.append((idx, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
        return parts

    def test_more_parts_than_one_einsum_call_takes(self):
        rng = np.random.default_rng(69)
        cap = math.prod(self.card.values())
        for out in ((99, 42, 60, 3), (5, 60), (), (3, 7, 42, 99, 60, 5)):
            parts = self.parts(rng, 2 * _MAX_OPERANDS + 3)
            got = _contract(parts, out, self.card, cap)
            want = broadcast_product(parts, out, self.card)
            assert np.shape(got) == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_merged_group_held_to_cap(self):
        parts = self.parts(np.random.default_rng(70), _MAX_OPERANDS + 1)
        scope = set().union(*(idx for idx, _ in parts[:_MAX_OPERANDS]))
        with pytest.raises(CapacityError):
            _contract(parts, (), self.card, math.prod(self.card[i] for i in scope) - 1)


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="NumPy 1.x arrays hold at most 32 axes; the hub's table has 54",
)
def test_family_past_the_einsum_subscript_limit():
    # the hub has 53 one-state parents and one binary child: its table has
    # rank 54, more axes than np.einsum has subscript letters (52)
    hub, child = 53, 54
    cards = [1] * 53 + [2, 2]
    edges = [(p, hub) for p in range(53)] + [(hub, child)]
    dag = Dag([(f"v{i}", card) for i, card in enumerate(cards)], edges)
    net = random_qbnet(dag, np.random.default_rng(71))
    for evidence in ({}, {child: 0}, {child: 1}):
        beliefs = propagate_polytree(net, evidence)
        for node in (0, 52, hub, child):
            want = brute_posterior(net, [node], evidence)
            np.testing.assert_allclose(beliefs[node].table, want, rtol=0, atol=1e-12)
    for keep, diag in (([0], [child]), ([hub], [child]), ([0, hub, child], [])):
        got = net_to_density(net, keep, diag).matrix
        np.testing.assert_allclose(got, brute_reduced_state(net, keep, diag), rtol=0, atol=1e-12)


def test_multi_state_parent_past_the_einsum_subscript_limit():
    # the hub's last declared parent is binary and comes after 53
    # one-state ones: it is the family's 55th axis but its second
    # multi-state one, so it takes the second letter
    parent, hub, child = 53, 54, 55
    cards = [1] * 53 + [2, 2, 2]
    edges = [(p, hub) for p in range(54)] + [(hub, child)]
    dag = Dag([(f"v{i}", card) for i, card in enumerate(cards)], edges)
    net = random_qbnet(dag, np.random.default_rng(72))
    for evidence in ({}, {child: 1}, {parent: 0}):
        beliefs = propagate_polytree(net, evidence)
        for node in (parent, hub, child):
            if node not in evidence:
                want = brute_posterior(net, [node], evidence)
                np.testing.assert_allclose(beliefs[node].table, want, rtol=0, atol=1e-12)
        want = brute_posterior(net, [hub, parent] if parent not in evidence else [hub], evidence)
        family = beliefs[hub].family.reshape(want.shape)
        np.testing.assert_allclose(family, want, rtol=0, atol=1e-12)


def band(n, width, extra=0):
    """n binary nodes, each with the ``width`` nodes before it as parents,
    then ``extra`` isolated binary nodes."""
    edges = [(p, i) for i in range(n) for p in range(max(0, i - width), i)]
    return Dag([(f"v{i}", 2) for i in range(n + extra)], edges)


class TestWideBands:
    """Eliminating a band's inner nodes multiplies up to width + 2 tables
    with width + 1 indices each in one einsum call, several hundred
    subscripts in all."""

    @pytest.mark.parametrize("width", [13, 14, 15])
    @pytest.mark.parametrize("wide", [False, True])
    def test_reduced_state_matches_dense(self, width, wide):
        n = 20 if wide else width + 2
        net = random_qbnet(band(n, width), np.random.default_rng([74, width, n]))
        for keep, diag in (([0, n - 1], [7]), ([n // 2], []), ([], [1, n - 2])):
            got = net_to_density(net, keep, diag)
            want = dense_reduced_state(net, keep, diag)
            np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)

    def test_sampled_checks_run(self):
        # every triple of the band that is d-separated conditions on at
        # least 13 nodes, a 2^15-dimensional state whose 2^30 entries the
        # default cap refuses; an isolated node is d-separated from the
        # band's last node with no conditioning
        report = check_dsep_forward(band(20, 13, extra=1), [20], [19], trials=3)
        assert report.passed and report.trials_run == 3
        report = search_dsep_witness(band(20, 13), [0], [19], trials=2)
        assert np.isfinite(report.max_cmi) and report.trials_run >= 1

    def test_separated_triple_refused_before_any_table_is_drawn(self):
        # 19's parents 6..18 screen it from 0; the dephased state over
        # {0, 19} and 6..18 is 2^15-dimensional, 2^30 entries
        z = range(6, 19)
        with pytest.raises(CapacityError, match="1073741824 entries"):
            _doubled_plan(band(20, 13), {0, 19}, set(z), DEFAULT_CAP)
        peak = refused_peak_bytes(lambda: check_dsep_forward(band(20, 13), [0], [19], z, trials=3))
        assert peak < 2**20


def _random_held(rng, n, held=3):
    """Disjoint random keep and diag sets of at most ``held`` nodes in all,
    whose union is not empty."""
    codes = np.zeros(n, dtype=int)  # 0 traced, 1 kept, 2 dephased
    picked = rng.choice(n, size=int(rng.integers(1, min(n, held) + 1)), replace=False)
    codes[picked] = rng.integers(1, 3, size=len(picked))
    return [i for i in range(n) if codes[i] == 1], [i for i in range(n) if codes[i] == 2]


class TestEliminationOrder:
    """The plan's heap against the O(n^2) scan of ``tests/conftest.py``."""

    def test_heap_order_matches_scan(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            n = int(rng.integers(1, 31))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.02, 0.4)))
            keep, diag = _random_held(rng, n, held=n)
            plan = _doubled_plan(dag, keep, diag, math.inf)
            order, (steps, final) = scan_elimination(dag, keep, diag)
            assert list(plan.order) == order, (dag, keep, diag)
            # each factor goes to the step of its first eliminated index
            assert [list(keys) for keys in plan.steps] == [list(keys) for keys in steps]
            assert list(plan.final) == final

    def test_plan_refused_exactly_above_its_largest_array(self):
        rng = np.random.default_rng(75)
        for _ in range(100):
            n = int(rng.integers(1, 16))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.05, 0.5)))
            keep, diag = _random_held(rng, n, held=n)
            plan = _doubled_plan(dag, keep, diag, math.inf)
            # every node table, every intermediate and the D x D state
            sizes = [math.prod(plan.card[i] for i in idx) for idx in plan.scopes + (plan.out,)]
            assert plan.largest == max(sizes)
            assert _doubled_plan(dag, keep, diag, plan.largest).largest == plan.largest
            with pytest.raises(CapacityError):
                _doubled_plan(dag, keep, diag, plan.largest - 1)

    def test_reduced_states_bit_identical_to_scan(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.1, 0.4)))
            net = random_qbnet(dag, rng)
            keep, diag = _random_held(rng, n)
            held = sorted(keep + diag)
            dim = math.prod(dag.cardinality(i) for i in held)
            _, want = scan_elimination(dag, keep, diag, [tpm.table for tpm in net.tpms])
            want = want.reshape(dim, dim)
            want = 0.5 * (want + want.conj().T)
            assert np.array_equal(net_to_density(net, keep, diag).matrix, want)


class TestDoubledContraction:
    """The last product written onto the diagonal blocks, and a single
    net contracted without the trial axis."""

    def test_stack_matches_single_nets(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.1, 0.5)))
            keep, diag = _random_held(rng, n)
            plan = _doubled_plan(dag, keep, diag, DEFAULT_CAP)
            tables = _draw_tables(dag, [np.random.default_rng([78, t]) for t in range(3)])
            stack = _doubled_contraction(plan, tables)
            assert stack.shape[0] == 3
            for t in range(3):
                single = _doubled_contraction(plan, [table[t : t + 1] for table in tables])
                assert single.shape == (1,) + stack.shape[1:]
                np.testing.assert_allclose(stack[t], single[0], rtol=0, atol=1e-15)

    def test_three_dephased_and_one_kept_node_match_dense(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            n = int(rng.integers(4, 11))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.1, 0.5)))
            net = random_qbnet(dag, rng)
            kept, *diag = (int(i) for i in rng.choice(n, size=4, replace=False))
            got = net_to_density(net, [kept], diag)
            want = dense_reduced_state(net, [kept], diag)
            assert got.labels == want.labels
            np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)
