import numpy as np
import pytest

from qbnets import (
    Belief,
    CapacityError,
    ConvergenceError,
    FactorGraphNet,
    ImpossibleEvidenceError,
    MessageState,
    StructureError,
    bipartite_beliefs,
    bipartite_iterate,
    factor_graph_to_qbnet,
    init_messages,
    posterior_oracle,
    propagate_polytree,
    run_bipartite,
)
from qbnets.amplitudes import labeled
from qbnets.bipartite import _state_gap
from qbnets.sampling import random_factor_tree

from conftest import counted_contractions, unfolded_messages


def pair_factor_net(table=None):
    table = table if table is not None else np.array([[1.0, 2.0], [0.5, 1.0j]])
    return FactorGraphNet(
        roots=[("x0", 2), ("x1", 2)], factors=[("f0", (0, 1), table)]
    )


class TestFactorGraphNet:
    def test_cycle_rejected(self):
        with pytest.raises(StructureError):
            FactorGraphNet(
                roots=[("a", 2), ("b", 2)],
                factors=[
                    ("f", (0, 1), np.ones((2, 2))),
                    ("g", (0, 1), np.ones((2, 2))),
                ],
            )

    def test_zero_table_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            FactorGraphNet(roots=[("a", 2)], factors=[("f", (0,), np.zeros(2))])

    def test_non_finite_table_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            FactorGraphNet([("a", 2)], [("f", (0,), [np.nan, 1.0])])

    def test_root_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="names root index 1"):
            FactorGraphNet(roots=[("a", 2)], factors=[("f", (1,), np.ones(2))])

    def test_wrong_table_shape_rejected(self):
        with pytest.raises(ValueError, match=r"table shape \(3,\), expected \(2,\)"):
            FactorGraphNet(roots=[("a", 2)], factors=[("f", (0,), np.ones(3))])

    def test_repeated_neighbor_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            FactorGraphNet(roots=[("a", 2)], factors=[("f", (0, 0), np.ones((2, 2)))])

    def test_factor_named_like_a_root_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            FactorGraphNet(roots=[("a", 2), ("b", 2)], factors=[("b", (0,), np.ones(2))])

    def test_empty_factor_name_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            FactorGraphNet(roots=[("a", 2)], factors=[("", (0,), np.ones(2))])

    def test_skeleton_links_each_root_to_its_factors(self):
        fg = FactorGraphNet(
            roots=[("a", 2), ("b", 3), ("c", 2)],
            factors=[("f", (1, 0), np.ones((3, 2))), ("g", (1, 2), np.ones((3, 2)))],
        )
        assert fg.skeleton.names == ("a", "b", "c", "f", "g")
        assert fg.skeleton.cardinalities == (2, 3, 2, 2, 2)
        assert fg.skeleton.parents(3) == (1, 0) and fg.skeleton.parents(4) == (1, 2)


class TestIteration:
    def test_single_unary_factor_converges_in_one_step(self):
        net = FactorGraphNet(roots=[("a", 2)], factors=[("f", (0,), [3.0, 4.0])])
        state = bipartite_iterate(net, init_messages(net))
        again = bipartite_iterate(net, state)
        np.testing.assert_allclose(
            state.to_root[(0, 0)].data, again.to_root[(0, 0)].data, atol=1e-15
        )
        beliefs = bipartite_beliefs(net, state)
        np.testing.assert_allclose(beliefs.roots[0].table, [9 / 25, 16 / 25], atol=1e-12)

    def test_pair_factor_message_carries_far_root(self):
        net = pair_factor_net()
        state = bipartite_iterate(net, init_messages(net))
        msg = state.to_root[(0, 0)]
        assert msg.labels == (0, 1)
        # profile over the carrier: sum |f|^2 over the hidden far root
        profile = (np.abs(msg.data) ** 2).sum(axis=1)
        expect = (np.abs(net.factors[0].table) ** 2).sum(axis=1)
        np.testing.assert_allclose(profile / profile.sum(), expect / expect.sum(), atol=1e-12)

    def test_tree_reaches_fixed_point_within_diameter(self):
        for seed in range(8):
            rng = np.random.default_rng([41, seed])
            net = random_factor_tree(rng)
            edges = sum(len(f.neighbors) for f in net.factors)
            state = init_messages(net)
            for _ in range(edges + 2):
                state = bipartite_iterate(net, state)
            again = bipartite_iterate(net, state)
            for key, amp in state.to_root.items():
                assert amp.labels == again.to_root[key].labels
                np.testing.assert_allclose(
                    amp.data, again.to_root[key].data, atol=1e-12
                )

    def test_beliefs_refuse_unconverged_state(self):
        net = FactorGraphNet(
            roots=[("a", 2), ("b", 2), ("c", 2)],
            factors=[
                ("f", (0, 1), np.array([[1.0, 0.2], [0.1, 1.0]])),
                ("g", (1, 2), np.array([[1.0, 0.9], [0.3, 1.0]])),
            ],
        )
        with pytest.raises(ConvergenceError):
            bipartite_beliefs(net, init_messages(net))


class TestBeliefs:
    def test_single_unary_factor_squared_table(self):
        net = FactorGraphNet(roots=[("a", 3)], factors=[("f", (0,), [1.0, 1.0j, 2.0])])
        beliefs = run_bipartite(net)
        np.testing.assert_allclose(beliefs.roots[0].table, [1 / 6, 1 / 6, 4 / 6], atol=1e-12)

    def test_disconnected_root_uniform(self):
        net = FactorGraphNet(
            roots=[("a", 2), ("lonely", 3)], factors=[("f", (0,), [1.0, 2.0])]
        )
        beliefs = run_bipartite(net)
        np.testing.assert_allclose(beliefs.roots[1].table, np.full(3, 1 / 3), atol=1e-12)

    def test_factors_with_disjoint_support_are_impossible(self):
        # f0 allows only a = 0 and f1 only a = 1: no state of a survives
        unaries = [("f0", (0,), [1.0, 0.0]), ("f1", (0,), [0.0, 1j])]
        net = FactorGraphNet([("a", 2)], unaries)
        with pytest.raises(ImpossibleEvidenceError):
            run_bipartite(net)
        state = init_messages(net)
        for _ in range(3):
            state = bipartite_iterate(net, state)
        with pytest.raises(ImpossibleEvidenceError):
            bipartite_beliefs(net, state)
        # with a third factor on a, the literal update into it multiplies
        # the two disjoint messages
        net = FactorGraphNet([("a", 2), ("b", 2)], [*unaries, ("g", (0, 1), np.ones((2, 2)))])
        with pytest.raises(ImpossibleEvidenceError):
            run_bipartite(net)
        with pytest.raises(ImpossibleEvidenceError):
            bipartite_iterate(net, bipartite_iterate(net, init_messages(net)))

    def test_root_beliefs_are_the_polytree_beliefs(self):
        for seed in range(6):
            fg = random_factor_tree(np.random.default_rng([44, seed]))
            polytree = propagate_polytree(*factor_graph_to_qbnet(fg))
            roots = run_bipartite(fg).roots
            assert sorted(roots) == list(range(fg.root_count))
            for i, belief in roots.items():
                want = polytree[i]
                assert isinstance(belief, Belief)
                assert belief.node == want.node == i
                assert belief.family_nodes == want.family_nodes == (i,)
                np.testing.assert_array_equal(belief.family, want.family)
                np.testing.assert_array_equal(belief.table, want.table)

    def test_matches_equivalent_qbnet_oracle(self):
        for seed in range(12):
            rng = np.random.default_rng([43, seed])
            fg = random_factor_tree(rng)
            beliefs = run_bipartite(fg)
            net, evidence = factor_graph_to_qbnet(fg)
            for i, rb in beliefs.roots.items():
                expect = posterior_oracle(net, [i], evidence)
                np.testing.assert_allclose(rb.table, expect, atol=1e-8)
            for a, fb in beliefs.factors.items():
                nb = fg.factors[a].neighbors
                expect = posterior_oracle(net, nb, evidence)
                srt = tuple(sorted(nb))
                expect = np.transpose(expect, tuple(srt.index(i) for i in nb))
                np.testing.assert_allclose(fb.table, expect, atol=1e-8)


class TestEquivalentQbnet:
    def test_structure(self):
        fg = pair_factor_net()
        net, evidence = factor_graph_to_qbnet(fg)
        assert net.dag.names == ("x0", "x1", "f0")
        assert net.dag.cardinalities == (2, 2, 2)
        assert evidence == {2: 1}
        assert net.dag == fg.skeleton

    def test_built_once_with_fresh_evidence(self):
        fg = pair_factor_net()
        net, evidence = factor_graph_to_qbnet(fg)
        evidence[2] = 0
        again, fresh = factor_graph_to_qbnet(fg)
        assert again is net and fresh == {2: 1}

    def test_run_builds_no_table(self, monkeypatch):
        from qbnets import bipartite, network

        fg = random_factor_tree(np.random.default_rng(68))
        want = run_bipartite(fg)

        def refuse(*args, **kwargs):
            raise AssertionError("run_bipartite rebuilt the equivalent net")

        for module, name in ((bipartite, "node_tpm"), (network, "node_tpm"), (bipartite, "QBNet")):
            monkeypatch.setattr(module, name, refuse)
        got = run_bipartite(fg)
        for i, rb in got.roots.items():
            np.testing.assert_array_equal(rb.table, want.roots[i].table)
        for a, fb in got.factors.items():
            np.testing.assert_array_equal(fb.table, want.factors[a].table)

    def test_one_contraction_per_message_and_per_belief(self, monkeypatch):
        calls = counted_contractions(monkeypatch)
        trees = 0
        for seed in range(8):
            fg = random_factor_tree(np.random.default_rng([69, seed]))
            n, edges = fg.skeleton.node_count, len(fg.skeleton.edges)
            calls.clear()
            run_bipartite(fg)
            assert len(calls) == 2 * edges + n
            trees += edges == n - 1
        assert trees >= 2

    def test_scaling_does_not_change_beliefs(self):
        t = np.array([[1.0, 2.0], [0.5, 1.0j]])
        b1 = run_bipartite(pair_factor_net(t))
        b2 = run_bipartite(pair_factor_net(3.7 * t))
        np.testing.assert_allclose(b1.roots[0].table, b2.roots[0].table, atol=1e-12)


class TestFold:
    def test_fold_changes_no_belief(self):
        most_labels = 0
        for seed in range(30):
            rng = np.random.default_rng([47, seed])
            fg = random_factor_tree(rng, max_factors=5, max_roots=7)
            edges = sum(len(f.neighbors) for f in fg.factors)
            state = init_messages(fg)
            for _ in range(edges + 3):  # the literal updates, never folded
                new = bipartite_iterate(fg, state)
                gap = _state_gap(new, state)
                state = new
                if gap <= 1e-12:
                    break
            assert gap <= 1e-12
            most_labels = max(
                most_labels, max(len(m.labels) for m in state.to_root.values())
            )
            want = bipartite_beliefs(fg, state)
            got = run_bipartite(fg)
            for i, rb in got.roots.items():
                assert rb.family_nodes == want.roots[i].family_nodes == (i,)
                np.testing.assert_allclose(rb.family, want.roots[i].family, rtol=0, atol=1e-12)
                np.testing.assert_allclose(rb.table, want.roots[i].table, rtol=0, atol=1e-12)
            for a, fb in got.factors.items():
                nb = fg.factors[a].neighbors
                assert fb.table.shape == tuple(fg.cardinality(i) for i in nb)
                np.testing.assert_allclose(fb.table, want.factors[a].table, rtol=0, atol=1e-12)
        assert most_labels >= 3  # the unfolded messages really carried hidden axes

    def test_fixed_point_is_the_rules_over_one_schedule(self):
        # run to its fixed point, a generation holds, unfolded, the kets the
        # polytree rules send once each over a collect and a distribute sweep
        compared = most_labels = 0
        for seed in range(40):
            fg = random_factor_tree(np.random.default_rng([71, seed]), max_factors=6)
            state = init_messages(fg)
            for _ in range(sum(len(f.neighbors) for f in fg.factors) + 3):
                new = bipartite_iterate(fg, state)
                gap = _state_gap(new, state)
                state = new
                if gap == 0.0:
                    break
            assert gap == 0.0
            net, evidence = factor_graph_to_qbnet(fg)
            want = unfolded_messages(net, evidence)
            nr = fg.root_count
            got = {(nr + a, i): amp for (a, i), amp in state.to_root.items()}
            got.update({(i, nr + a): amp for (a, i), amp in state.to_factor.items()})
            assert set(got) == set(want)
            for key, msg in want.items():
                assert got[key].labels == msg.data.labels
                np.testing.assert_allclose(got[key].data, msg.data.data, rtol=0, atol=1e-15)
                most_labels = max(most_labels, len(msg.data.labels))
            compared += len(want)
        assert compared >= 40
        assert most_labels >= 3  # the unfolded messages really carried hidden axes

    def test_driver_messages_are_a_fixed_point(self, monkeypatch):
        # the schedule alone reaches the fixed point: the driver never
        # measures a gap, and one more literal iteration moves nothing
        from qbnets import bipartite, qbp

        sent = {}
        real_edge_message = qbp._edge_message

        def capture(step, weights, inbox):
            sent[step[:2]] = real_edge_message(step, weights, inbox)
            return sent[step[:2]]

        def refuse(*args):
            raise AssertionError("the driver measured a gap between generations")

        for seed in range(12):
            fg = random_factor_tree(np.random.default_rng([53, seed]))
            sent.clear()
            with monkeypatch.context() as m:
                m.setattr(qbp, "_edge_message", capture)
                m.setattr(bipartite, "_state_gap", refuse)
                got = run_bipartite(fg)
            # each vector mu wrapped as the folded ket sqrt(mu), keyed by
            # (factor, root) as bipartite_iterate keys its messages
            nr = fg.root_count
            to_root, to_factor = {}, {}
            for (s, r), (carrier, mu) in sent.items():
                key, box = ((r - nr, s), to_factor) if s < nr else ((s - nr, r), to_root)
                box[key] = labeled((carrier,), np.sqrt(mu))
            want = bipartite_beliefs(fg, MessageState(to_root, to_factor), tol=1e-12)
            for i, rb in got.roots.items():
                np.testing.assert_allclose(rb.table, want.roots[i].table, rtol=0, atol=1e-14)
            for a, fb in got.factors.items():
                np.testing.assert_allclose(fb.table, want.factors[a].table, rtol=0, atol=1e-14)


class TestCapacity:
    def test_iterate_refuses_product_above_cap(self):
        # unfolded messages into f0 carrying nine hidden roots each: the
        # update for root 0 would hold over 2^21 entries, above DEFAULT_CAP
        net = FactorGraphNet(
            roots=[(f"x{i}", 2) for i in range(21)],
            factors=[("f0", (0, 1, 2), np.ones((2, 2, 2)))],
        )
        rng = np.random.default_rng(0)
        to_factor = dict(init_messages(net).to_factor)
        to_factor[(0, 1)] = labeled((1, *range(3, 12)), rng.normal(size=(2,) * 10))
        to_factor[(0, 2)] = labeled((2, *range(12, 21)), rng.normal(size=(2,) * 10))
        state = MessageState(init_messages(net).to_root, to_factor)
        with pytest.raises(CapacityError):
            bipartite_iterate(net, state)


class TestMessageCore:
    def test_driver_sends_each_message_once(self, monkeypatch):
        # one collect and one distribute sweep: two messages per skeleton
        # edge, and no literal update or gap between generations
        from qbnets import bipartite, qbp

        def refuse(*args):
            raise AssertionError("the driver iterated generations")

        sent = []
        real_edge_message = qbp._edge_message

        def counting_edge_message(step, *args):
            sent.append(step[:2])  # (sender, receiver)
            return real_edge_message(step, *args)

        monkeypatch.setattr(bipartite, "bipartite_iterate", refuse)
        monkeypatch.setattr(bipartite, "_state_gap", refuse)
        monkeypatch.setattr(qbp, "_edge_message", counting_edge_message)
        for seed in range(12):
            fg = random_factor_tree(np.random.default_rng([59, seed]))
            sent.clear()
            run_bipartite(fg)
            edges = fg.skeleton.edges
            assert len(sent) == 2 * len(edges)
            assert set(sent) == set(edges) | {(c, p) for p, c in edges}

    def test_root_in_more_factors_than_einsum_operands(self):
        # root 0 sits in 70 unary factors and two pairwise ones: each of
        # its messages and its belief combine about 70 incoming kets, more
        # than one np.einsum call takes. The literal updates agree.
        rng = np.random.default_rng(64)

        def table(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        fg = FactorGraphNet(
            roots=[("a", 3), ("b", 2), ("c", 2)],
            factors=[(f"u{k}", (0,), table(3)) for k in range(70)]
            + [("f", (0, 1), table(3, 2)), ("g", (2, 0), table(2, 3))],
        )
        state = init_messages(fg)
        for _ in range(10):
            state = bipartite_iterate(fg, state)
        want = bipartite_beliefs(fg, state)
        got = run_bipartite(fg)
        for i, rb in got.roots.items():
            np.testing.assert_allclose(rb.table, want.roots[i].table, rtol=0, atol=1e-12)
        for a, fb in got.factors.items():
            np.testing.assert_allclose(fb.table, want.factors[a].table, rtol=0, atol=1e-12)

    def test_factor_at_numpy_1_rank_limit(self):
        # one two-state and thirty one-state neighbors: the factor's node in
        # the equivalent net has a rank-32 table, NumPy 1.x's largest rank,
        # and its belief combines that table with 31 incoming messages
        rng = np.random.default_rng(66)
        shape = (2,) + (1,) * 30
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        fg = FactorGraphNet(
            roots=[("x0", 2)] + [(f"x{i}", 1) for i in range(1, 31)],
            factors=[("f", range(31), table)],
        )
        got = run_bipartite(fg)
        net, evidence = factor_graph_to_qbnet(fg)
        for i, rb in got.roots.items():
            want = posterior_oracle(net, [i], evidence)
            np.testing.assert_allclose(rb.table, want, rtol=0, atol=1e-12)
        want = posterior_oracle(net, range(31), evidence)
        np.testing.assert_allclose(got.factors[0].table, want, rtol=0, atol=1e-12)
