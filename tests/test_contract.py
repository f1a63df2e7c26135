"""Reduced states by the planned einsum calls of ``network._doubled_plan``,
merge calls included, the cache that plans each query shape once, and
the einsum limits that the polytree driver's family-local contractions
must also respect."""

import math

import numpy as np
import pytest

from qbnets import (
    CapacityError, Dag, check_dsep_forward, net_to_density, propagate_polytree, search_dsep_witness
)
from qbnets.graph import Multinode
from qbnets.network import (
    _MAX_OPERANDS,
    DEFAULT_CAP,
    _built_plan,
    _doubled_blocks,
    _doubled_contraction,
    _doubled_plan,
)
from qbnets.sampling import _draw_tables, random_dag, random_qbnet

from conftest import (
    brute_posterior,
    brute_reduced_state,
    counted_contractions,
    dense_reduced_state,
    refused_peak_bytes,
    scan_elimination,
)


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


def test_call_past_the_einsum_subscript_limit_refused_by_the_plan():
    # eliminating one of 53 binary parents of a kept child joins the
    # other 52 parents and the child's ket and bra: 55 multi-state
    # indices in one call, past einsum's 52 letters
    child = 53
    dag = Dag([(f"v{i}", 2) for i in range(54)], [(p, child) for p in range(53)])
    with pytest.raises(ValueError, match="one einsum call takes at most 52 indices"):
        _doubled_plan(dag, {child}, set(), math.inf)


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


def unmerged(plan):
    """The factor keys of each elimination step of ``plan`` and of its
    last product, each merge call folded back into the call that takes
    its result and step s's result keyed 2n + s. A merge keeps every
    index of its factors; an elimination step sums one out."""
    n2 = 2 * plan.n
    factors = {k: [k] for k in range(n2)}
    groups = []
    for c, keys in enumerate(plan.calls):
        got = [k for key in keys for k in factors[key]]
        union = set().union(*(plan.scopes[k] for k in keys))
        if c + 1 < len(plan.calls) and set(plan.scopes[n2 + c]) == union:
            factors[n2 + c] = got
        else:
            factors[n2 + c] = [n2 + len(groups)]
            groups.append(got)
    return groups[:-1], groups[-1]


def star(leaves):
    """A binary hub, node 0, whose ``leaves`` binary children are leaves."""
    return Dag([("hub", 2)] + [(f"l{i}", 2) for i in range(leaves)], [(0, i) for i in range(1, leaves + 1)])


class TestEliminationOrder:
    """The plan's heap against the O(n^2) scan of ``tests/conftest.py``."""

    def test_heap_order_matches_scan(self):
        rng = np.random.default_rng(72)
        merged = 0
        for _ in range(300):
            n = int(rng.integers(1, 31))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.02, 0.4)))
            keep, diag = _random_held(rng, n, held=n)
            plan = _doubled_plan(dag, keep, diag, math.inf)
            order, (steps, final) = scan_elimination(dag, keep, diag)
            assert list(plan.order) == order, (dag, keep, diag)
            assert max(len(keys) for keys in plan.calls) <= _MAX_OPERANDS
            merged += len(plan.calls) > len(plan.order) + 1
            # each factor goes to the step of its first eliminated index
            assert unmerged(plan) == ([list(keys) for keys in steps], final)
        assert merged

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


def recorded_sizes(monkeypatch):
    """Patch ``np.einsum`` to record the size of each result; returns the
    list it appends them to."""
    sizes = []
    einsum = np.einsum

    def recording(*args, **kwargs):
        result = einsum(*args, **kwargs)
        sizes.append(result.size)
        return result

    monkeypatch.setattr(np, "einsum", recording)
    return sizes


class TestPlannedCalls:
    """Every einsum call of a reduced state is a call of the plan, whose
    ``largest`` counts its result."""

    @staticmethod
    def check(sizes, dag, keep, diag, cap=DEFAULT_CAP):
        plan = _doubled_plan(dag, keep, diag, cap)
        for trials in (1, 3):
            tables = _draw_tables(dag, [np.random.default_rng([80, t]) for t in range(trials)])
            sizes.clear()
            _doubled_contraction(plan, tables)
            # every result of a stack carries the trial axis
            sizes[:] = [size // trials for size in sizes]
            assert len(sizes) == len(plan.calls)
            assert max(sizes) <= plan.largest
        return plan

    def test_results_within_largest_on_random_dags(self, monkeypatch):
        sizes = recorded_sizes(monkeypatch)
        rng = np.random.default_rng(80)
        for _ in range(60):
            n = int(rng.integers(1, 21))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.05, 0.4)))
            keep, diag = _random_held(rng, n)
            try:
                self.check(sizes, dag, keep, diag, cap=2**14)
            except CapacityError:
                continue

    def test_results_within_largest_with_merge_calls(self, monkeypatch):
        # the 70-leaf hub of test_many_factors_on_one_node, and the star
        # whose merge call is the largest array of its reduction
        sizes = recorded_sizes(monkeypatch)
        for dag, keep, largest in ((star(70), [0], 4), (star(40), [1, 2], 32)):
            plan = self.check(sizes, dag, keep, [])
            assert len(plan.calls) > len(plan.order) + 1
            assert plan.largest == max(sizes) == largest

    def test_one_einsum_call_per_planned_call(self, monkeypatch):
        # a net with one-state nodes, whose axes no subscript names
        dag = Dag(
            [("l1", 2), ("u", 1), ("x", 2), ("y", 3), ("w", 1), ("v", 2)],
            [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 5), (4, 5)],
        )
        calls = counted_contractions(monkeypatch)
        for keep, diag in (([2, 3], [0, 1]), ([5], []), ([1], [4])):
            plan = _doubled_plan(dag, keep, diag, DEFAULT_CAP)
            for trials in (1, 3):
                tables = _draw_tables(dag, [np.random.default_rng([82, t]) for t in range(trials)])
                calls.clear()
                _doubled_contraction(plan, tables)
                assert [args[0] for args in calls] == list(plan.subscripts)
                assert len(calls) == len(plan.calls)

    def test_merge_call_above_cap_refused_by_the_plan(self):
        # eliminating the hub multiplies 44 factors; the merge call of the
        # first 32 keeps the hub and both kept leaves' kets and bras
        with pytest.raises(CapacityError, match="the largest array of the reduction would hold 32 entries"):
            _doubled_plan(star(40), {1, 2}, set(), 20)
        net = random_qbnet(star(40), np.random.default_rng(81))
        peak = refused_peak_bytes(lambda: net_to_density(net, [1, 2], cap=20))
        assert peak < 2**20


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


    def test_blocks_are_the_dense_states_diagonal_blocks(self):
        # one-state nodes and a single net (its trial axis squeezed) included
        rng = np.random.default_rng(83)
        one_state = 0
        for _ in range(60):
            n = int(rng.integers(1, 9))
            cards = rng.integers(1, 4, size=n).tolist()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            dag = Dag([(f"v{i}", c) for i, c in enumerate(cards)], edges)
            keep, diag = _random_held(rng, n, held=4)
            one_state += any(cards[j] == 1 for j in keep + diag)
            plan = _doubled_plan(dag, keep, diag, DEFAULT_CAP)
            for trials in (1, 3):
                tables = _draw_tables(dag, [np.random.default_rng([84, t]) for t in range(trials)])
                rho = _doubled_contraction(plan, tables)
                blocks = _doubled_blocks(plan, tables)
                d_z = math.prod(cards[j] for j in diag)
                d_k = math.prod(cards[j] for j in keep)
                assert blocks.shape == (trials, d_z, d_k, d_k)
                # rows and columns over the held nodes ascending: regroup
                # them as (z, kept) to read the dense state's blocks
                held = sorted(keep + diag)
                order = [held.index(j) for j in sorted(diag) + sorted(keep)]
                dims = tuple(cards[j] for j in held)
                dense = rho.reshape((trials,) + dims + dims).transpose(
                    [0] + [1 + i for i in order] + [1 + len(held) + i for i in order]
                ).reshape(trials, d_z, d_k, d_z, d_k)
                want = dense[:, np.arange(d_z), :, np.arange(d_z), :].swapaxes(0, 1)
                assert np.array_equal(blocks, want)
        assert one_state >= 10


def chain(n):
    return Dag([(f"v{i}", 2) for i in range(n)], [(i - 1, i) for i in range(1, n)])


class TestPlanCache:
    """``_doubled_plan`` looks plans up in a bounded cache of
    ``_built_plan`` keyed on (dag, keep, diag, cap); refusals are never
    cached."""

    def test_cached_plan_gives_bit_identical_states(self):
        rng = np.random.default_rng(83)
        cases = [(star(70), [0], []), (star(40), [1, 2], [3])]
        for _ in range(40):
            n = int(rng.integers(1, 11))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.1, 0.5)))
            # about a third of the nodes get one state
            cards = np.where(rng.random(n) < 0.3, 1, dag.cardinalities)
            dag = Dag([(name, int(c)) for name, c in zip(dag.names, cards)], dag.edges)
            cases.append((dag, *_random_held(rng, n)))
        merged = 0
        for dag, keep, diag in cases:
            tables = _draw_tables(dag, [np.random.default_rng([84, t]) for t in range(3)])
            _built_plan.cache_clear()
            fresh = _doubled_plan(dag, keep, diag, DEFAULT_CAP)
            want = _doubled_contraction(fresh, tables)
            cached = _doubled_plan(dag, keep, diag, DEFAULT_CAP)
            assert cached is fresh and _built_plan.cache_info().hits == 1
            merged += len(fresh.calls) > len(fresh.order) + 1
            assert np.array_equal(_doubled_contraction(cached, tables), want)
            _built_plan.cache_clear()
            again = _doubled_plan(dag, keep, diag, DEFAULT_CAP)
            assert again is not fresh and vars(again) == vars(fresh)
            assert np.array_equal(_doubled_contraction(again, tables), want)
            # every field is a tuple, a string or a number: no caller can
            # change the plan that the next one gets
            hash(tuple(vars(again).values()))
        assert merged == 2

    def test_equal_graphs_built_apart_share_an_entry(self):
        _built_plan.cache_clear()
        first = _doubled_plan(band(8, 2), [0, 7], [4], DEFAULT_CAP)
        second = _doubled_plan(band(8, 2), [0, 7], [4], DEFAULT_CAP)
        assert second is first
        info = _built_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_held_sets_of_any_type_and_order_share_an_entry(self):
        _built_plan.cache_clear()
        dag = band(8, 2)
        plans = [
            _doubled_plan(dag, keep, diag, DEFAULT_CAP)
            for keep, diag in (
                ([0, 7], [5, 3]),
                ((7, 0), (3, 5)),
                ({7, 0}, {5, 3}),
                (Multinode([7, 0]), Multinode([3, 5])),
                ([7, 0, 7], [5, 3, 5, 3]),
            )
        ]
        assert all(plan is plans[0] for plan in plans)
        assert plans[0].diag == (3, 5)
        info = _built_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 1, 1)

    def test_entries_stay_within_the_bound(self):
        _built_plan.cache_clear()
        bound = _built_plan.cache_info().maxsize
        assert bound is not None
        for n in range(1, bound + 6):
            _doubled_plan(chain(n), [n - 1], [], DEFAULT_CAP)
            assert _built_plan.cache_info().currsize == min(n, bound)
        # the least recently used shape went first
        misses = _built_plan.cache_info().misses
        _doubled_plan(chain(1), [0], [], DEFAULT_CAP)
        assert _built_plan.cache_info().misses == misses + 1

    def test_refusals_raised_on_every_call(self):
        _built_plan.cache_clear()
        dag = band(12, 3)
        plan = _doubled_plan(dag, [0, 11], [6], math.inf)
        for _ in range(2):
            with pytest.raises(CapacityError):
                _doubled_plan(dag, [0, 11], [6], plan.largest - 1)
            assert _doubled_plan(dag, [0, 11], [6], plan.largest).largest == plan.largest
            with pytest.raises(CapacityError, match="would hold 32 entries"):
                _doubled_plan(star(40), {1, 2}, set(), 20)
            with pytest.raises(ValueError, match="must name at least one node"):
                _doubled_plan(dag, [], [], DEFAULT_CAP)
        # only the two plans made under caps they fit are kept
        assert _built_plan.cache_info().currsize == 2
