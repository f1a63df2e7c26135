import functools

import numpy as np
import pytest

from qbnets import (
    AmplitudeMessage,
    CapacityError,
    Dag,
    ImpossibleEvidenceError,
    QBNet,
    SchedulingError,
    StructureError,
    compute_lambda,
    compute_pi,
    node_tpm,
    posterior_oracle,
    propagate_polytree,
    rule1_lambda_to_parent,
    rule2_pi_to_child,
)
from qbnets import network, qbp
from qbnets.amplitudes import labeled, multiply
from qbnets.sampling import random_evidence, random_polytree_dag, random_qbnet

from conftest import (
    brute_posterior, chain_forward_backward, counted_contractions, refused_peak_bytes, unfolded_messages
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def chain_net(rng=None):
    """x -> y with a Hadamard-like root and a random child table."""
    dag = Dag([("x", 2), ("y", 2)], [(0, 1)])
    rng = rng or np.random.default_rng(0)
    return random_qbnet(dag, rng)


def assert_close_up_to_phase(actual, desired, atol=1e-12):
    """Messages are defined up to one overall constant; align it first."""
    actual, desired = np.asarray(actual), np.asarray(desired)
    k = np.argmax(np.abs(desired))
    phase = actual.flat[k] / desired.flat[k]
    assert abs(abs(phase) - np.linalg.norm(actual) / np.linalg.norm(desired)) < atol
    np.testing.assert_allclose(actual, desired * phase, atol=atol)


def run_against_oracle(net, evidence):
    beliefs = propagate_polytree(net, evidence)
    for node, belief in beliefs.items():
        if node in evidence:
            expect = np.zeros(net.dag.cardinality(node))
            expect[evidence[node]] = 1.0
        else:
            expect = posterior_oracle(net, [node], evidence)
        np.testing.assert_allclose(belief.table, expect, atol=1e-8)


class TestComputePi:
    def test_root_equals_root_table(self):
        net = chain_net()
        msg = compute_pi(net, 0)
        assert msg.carrier == 0 and msg.hidden == ()
        np.testing.assert_allclose(msg.data.data, net.tpms[0].table, atol=1e-12)

    def test_clamped_parent_selects_column(self):
        net = chain_net()
        parent_msg = compute_pi(net, 0, evidence={0: 1})
        msg = compute_pi(net, 1, [_as_pi_edge(parent_msg, 1)], evidence={0: 1})
        assert_close_up_to_phase(msg.data.data, net.tpms[1].table[:, 1])

    def test_missing_parent_message_rejected(self):
        net = chain_net()
        with pytest.raises(SchedulingError):
            compute_pi(net, 1, [])


def _as_pi_edge(msg, target):
    """Re-address a node's pi aggregate as the message it sends onward."""
    from qbnets.qbp import AmplitudeMessage

    return AmplitudeMessage(msg.source, target, "pi", msg.carrier, msg.data)


class TestOwnAggregateChecked:
    """Rules 1 and 2 refuse a node aggregate that is missing or has the
    wrong kind, carrier or source."""

    @staticmethod
    def spoiled(good, field):
        source, kind, carrier = good.source, good.kind, good.carrier
        if field == "kind":
            kind = "pi" if kind == "lambda" else "lambda"
        elif field == "carrier":
            carrier = 1 - carrier
        else:
            source = 1 - source
        return AmplitudeMessage(source, good.target, kind, carrier, good.data)

    @pytest.mark.parametrize("field", [None, "kind", "carrier", "source"])
    def test_rule1(self, field):
        net = chain_net()
        lam = None if field is None else self.spoiled(compute_lambda(net, 1), field)
        with pytest.raises(SchedulingError):
            rule1_lambda_to_parent(net, 1, 0, lam)

    @pytest.mark.parametrize("field", ["kind", "carrier", "source"])
    def test_rule2(self, field):
        net = chain_net()
        with pytest.raises(SchedulingError):
            rule2_pi_to_child(net, 0, 1, self.spoiled(compute_pi(net, 0), field))

    def test_leaf_refuses_stray_messages(self):
        net = chain_net()
        pi_x = compute_pi(net, 0)
        pi_y = compute_pi(net, 1, [_as_pi_edge(pi_x, 1)])
        with pytest.raises(SchedulingError, match="unexpected"):
            rule2_pi_to_child(net, 1, 0, pi_y, [_as_pi_edge(pi_x, 1)])


class TestComputeLambda:
    def test_leaf_is_uniform(self):
        net = chain_net()
        msg = compute_lambda(net, 1)
        assert msg.hidden == ()
        np.testing.assert_allclose(msg.data.data, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_observed_child_contributes_its_column(self):
        net = chain_net()
        lam_y = compute_lambda(net, 1, evidence={1: 0})
        msg = rule1_lambda_to_parent(net, 1, 0, lam_y, evidence={1: 0})
        expect = net.tpms[1].table[0, :]
        np.testing.assert_allclose(
            msg.data.data, expect / np.linalg.norm(expect), atol=1e-12
        )


class TestRule1:
    def test_parentless_node_sends_constant(self):
        net = chain_net()
        msg = rule1_lambda_to_parent(net, 0, 1)
        np.testing.assert_allclose(msg.data.data, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_uniform_profile_from_column_normalization(self):
        # one parent, no children, node unobserved: after squaring and
        # summing the hidden node axis, the profile over the parent is flat
        net = chain_net(np.random.default_rng(5))
        lam_y = compute_lambda(net, 1, [])
        msg = rule1_lambda_to_parent(net, 1, 0, lam_y, [])
        assert set(msg.hidden) == {1}
        squared = np.abs(msg.data.data) ** 2
        axis = msg.data.labels.index(0)
        profile = squared.sum(axis=1 - axis)
        np.testing.assert_allclose(profile, profile[0], atol=1e-12)


    def test_target_out_of_range_or_not_a_parent_rejected(self):
        net = random_qbnet(Dag([("x", 2), ("y", 2), ("z", 2)], [(0, 1)]), np.random.default_rng(7))
        with pytest.raises(ValueError, match="parent index 3 out of range"):
            rule1_lambda_to_parent(net, 1, 3)
        with pytest.raises(ValueError, match="node 2 is not a parent of node 1"):
            rule1_lambda_to_parent(net, 1, 2)


class TestRule2:
    def test_target_not_a_child_rejected(self):
        net = random_qbnet(Dag([("x", 2), ("y", 2), ("z", 2)], [(0, 1)]), np.random.default_rng(7))
        with pytest.raises(ValueError, match="node 2 is not a child of node 0"):
            rule2_pi_to_child(net, 0, 2, compute_pi(net, 0))

    def test_single_child_gets_normalized_pi(self):
        net = chain_net()
        pi_x = compute_pi(net, 0)
        msg = rule2_pi_to_child(net, 0, 1, pi_x, [])
        np.testing.assert_allclose(msg.data.data, pi_x.data.data, atol=1e-12)
        assert msg.target == 1 and msg.carrier == 0

    def test_leaf_boundary_forwards_pi(self):
        net = chain_net()
        pi_y = compute_pi(net, 1, [_as_pi_edge(compute_pi(net, 0), 1)])
        msg = rule2_pi_to_child(net, 1, 0, pi_y, [])
        np.testing.assert_allclose(msg.data.data, pi_y.data.data, atol=1e-12)
        assert msg.carrier == 1

    def test_other_children_multiply_in(self):
        dag = Dag([("x", 2), ("y", 2), ("z", 2)], [(0, 1), (0, 2)])
        net = random_qbnet(dag, np.random.default_rng(6))
        pi_x = compute_pi(net, 0)
        lam_z = compute_lambda(net, 2, evidence={2: 1})
        msg_z = rule1_lambda_to_parent(net, 2, 0, lam_z, evidence={2: 1})
        out = rule2_pi_to_child(net, 0, 1, pi_x, [msg_z], evidence={2: 1})
        expect = net.tpms[0].table * net.tpms[2].table[1, :]
        np.testing.assert_allclose(
            out.data.data, expect / np.linalg.norm(expect), atol=1e-12
        )


class TestPropagate:
    def test_single_root_no_evidence(self):
        net = chain_net()
        beliefs = propagate_polytree(net, {})
        np.testing.assert_allclose(
            beliefs[0].table, np.abs(net.tpms[0].table) ** 2, atol=1e-12
        )

    def test_chain_with_observed_child(self):
        # two-line hand contraction: P(x | y=v) prop |A(v|x) A(x)|^2
        net = chain_net(np.random.default_rng(7))
        v = 1
        beliefs = propagate_polytree(net, {1: v})
        hand = np.abs(net.tpms[1].table[v, :] * net.tpms[0].table) ** 2
        np.testing.assert_allclose(beliefs[0].table, hand / hand.sum(), atol=1e-12)

    def test_non_polytree_rejected(self):
        diamond = Dag(
            [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        net = random_qbnet(diamond, np.random.default_rng(8))
        with pytest.raises(StructureError):
            propagate_polytree(net, {})

    def test_impossible_evidence_rejected(self):
        dag = Dag([("x", 2), ("y", 2)], [(0, 1)])
        net = QBNet(
            dag,
            [node_tpm(0, (), [1, 0]), node_tpm(1, (0,), np.eye(2))],
        )
        with pytest.raises(ImpossibleEvidenceError):
            propagate_polytree(net, {1: 1})

    def test_non_integer_evidence_rejected(self):
        net = chain_net()
        for evidence in ({1: 1.7}, {0.5: 1}, {1: "1"}, {1: True}, {True: 1}):
            with pytest.raises(ValueError, match="not an integer"):
                propagate_polytree(net, evidence)
        beliefs = propagate_polytree(net, {np.int64(1): np.int32(1)})
        np.testing.assert_allclose(beliefs[1].table, [0, 1], atol=1e-12)

    def test_disconnected_components_independent(self):
        dag = Dag([("a", 2), ("b", 3)], [])
        net = random_qbnet(dag, np.random.default_rng(9))
        beliefs = propagate_polytree(net, {0: 1})
        np.testing.assert_allclose(beliefs[0].table, [0, 1], atol=1e-12)
        np.testing.assert_allclose(
            beliefs[1].table, np.abs(net.tpms[1].table) ** 2, atol=1e-12
        )

    def test_matches_oracle_small_fixed(self):
        # w -> x -> y, x -> z: one collect/distribute pass, all posteriors
        dag = Dag([("w", 2), ("x", 3), ("y", 2), ("z", 2)], [(0, 1), (1, 2), (1, 3)])
        net = random_qbnet(dag, np.random.default_rng(10))
        run_against_oracle(net, {2: 1})

    def test_matches_oracle_random_campaign(self):
        count = 0
        trial = 0
        while count < 40:
            rng = np.random.default_rng([21, trial])
            trial += 1
            dag = random_polytree_dag(rng, int(rng.integers(1, 9)))
            net = random_qbnet(dag, rng)
            evidence = random_evidence(dag, rng)
            try:
                run_against_oracle(net, evidence)
            except ImpossibleEvidenceError:
                continue
            count += 1

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(22)
        dag = random_polytree_dag(rng, 5)
        net = random_qbnet(dag, rng)
        ev = {0: 0}
        beliefs = propagate_polytree(net, ev)
        for node in range(1, 5):
            expect = brute_posterior(net, [node], ev)
            np.testing.assert_allclose(beliefs[node].table, expect, atol=1e-10)


class TestStability:
    def test_second_sweep_changes_nothing(self, monkeypatch):
        # recompute every fixed-point message from its own inputs: the
        # driver's own steps, weights and final inbox, kept by its hook
        rng = np.random.default_rng(23)
        dag = random_polytree_dag(rng, 7)
        net = random_qbnet(dag, rng)
        evidence = random_evidence(dag, rng)
        try:
            propagate_polytree(net, evidence)
        except ImpossibleEvidenceError:
            evidence = {}
        steps = []
        edge_message = qbp._edge_message

        def keeping(step, weights, inbox):
            steps.append((step, weights, inbox))
            return edge_message(step, weights, inbox)

        monkeypatch.setattr(qbp, "_edge_message", keeping)
        propagate_polytree(net, evidence)
        assert len(steps) == 2 * len(dag.edges)
        for step, weights, inbox in steps:
            s, r = step[:2]
            carrier, mu = edge_message(step, weights, inbox)
            assert carrier == inbox[(s, r)][0]
            np.testing.assert_allclose(mu, inbox[(s, r)][1], atol=1e-12)


class TestInvariances:
    def test_global_phase_leaves_posteriors_alone(self):
        for seed in range(10):
            rng = np.random.default_rng([31, seed])
            dag = random_polytree_dag(rng, int(rng.integers(2, 7)))
            net = random_qbnet(dag, rng)
            theta = rng.uniform(0, 2 * np.pi)
            spun = QBNet(
                net.dag,
                [
                    node_tpm(j, t.parents, t.table * np.exp(1j * theta))
                    for j, t in enumerate(net.tpms)
                ],
            )
            b1 = propagate_polytree(net, {})
            b2 = propagate_polytree(spun, {})
            for node in b1:
                np.testing.assert_allclose(b1[node].table, b2[node].table, atol=1e-10)
                np.testing.assert_allclose(
                    posterior_oracle(net, [node], {}),
                    posterior_oracle(spun, [node], {}),
                    atol=1e-10,
                )

    def test_classical_embedding(self):
        # real square-root tables reproduce classical inference
        rng = np.random.default_rng(33)
        dag = random_polytree_dag(rng, 6)
        tpms = []
        for j in range(6):
            shape = (dag.cardinality(j),) + tuple(
                dag.cardinality(p) for p in dag.parents(j)
            )
            p = rng.random(shape) + 0.05
            p /= p.sum(axis=0, keepdims=True)
            tpms.append(node_tpm(j, dag.parents(j), np.sqrt(p)))
        net = QBNet(dag, tpms)
        ev = {5: 0}
        beliefs = propagate_polytree(net, ev)
        for node in range(5):
            expect = brute_posterior(net, [node], ev)
            np.testing.assert_allclose(beliefs[node].table, expect, atol=1e-10)


def unfolded_tables(net, evidence):
    """The paper's rules composed literally over the two sweeps, no fold.

    Returns the belief tables and the largest number of hidden axes any
    message carried.
    """
    dag = net.dag
    inbox = unfolded_messages(net, evidence)
    tables = {}
    for node in range(dag.node_count):
        lam = compute_lambda(net, node, [inbox[(c, node)] for c in dag.children(node)], evidence)
        pi = compute_pi(net, node, [inbox[(p, node)] for p in dag.parents(node)], evidence)
        amp = multiply(lam.data, pi.data)
        axis = amp.labels.index(node)
        squared = np.abs(amp.data) ** 2
        table = squared.sum(axis=tuple(k for k in range(squared.ndim) if k != axis))
        tables[node] = table / table.sum()
    return tables, max((len(m.hidden) for m in inbox.values()), default=0)


class TestFold:
    def test_fold_changes_no_belief(self):
        compared = 0
        most_hidden = 0
        for trial in range(60):
            rng = np.random.default_rng([51, trial])
            dag = random_polytree_dag(rng, int(rng.integers(2, 9)))
            net = random_qbnet(dag, rng)
            evidence = random_evidence(dag, rng)
            try:
                want, hidden = unfolded_tables(net, evidence)
            except ImpossibleEvidenceError:
                with pytest.raises(ImpossibleEvidenceError):
                    propagate_polytree(net, evidence)
                continue
            beliefs = propagate_polytree(net, evidence)
            for node, table in want.items():
                np.testing.assert_allclose(beliefs[node].table, table, rtol=0, atol=1e-12)
            compared += 1
            most_hidden = max(most_hidden, hidden)
        assert compared >= 40
        assert most_hidden >= 3  # the unfolded messages really carried hidden axes

    def test_belief_family_spans_node_and_unobserved_parents(self):
        dag = Dag([("a", 2), ("b", 3), ("c", 2), ("d", 2)], [(0, 2), (1, 2), (2, 3)])
        net = random_qbnet(dag, np.random.default_rng(52))
        beliefs = propagate_polytree(net, {1: 2, 3: 0})
        assert beliefs[2].family_nodes == (0, 2)
        assert beliefs[3].family_nodes == (2, 3)
        assert beliefs[0].family_nodes == (0,)
        for belief in beliefs.values():
            assert belief.family.shape == tuple(dag.cardinality(i) for i in belief.family_nodes)

    def test_forward_backward_reference_matches_enumeration(self):
        dag = Dag([(f"c{i}", 2) for i in range(6)], [(i, i + 1) for i in range(5)])
        net = random_qbnet(dag, np.random.default_rng(54))
        evidence = {5: 1, 2: 0}
        want = chain_forward_backward(net, evidence)
        for node in range(6):
            if node not in evidence:
                np.testing.assert_allclose(
                    want[node], brute_posterior(net, [node], evidence), atol=1e-12
                )

    def test_long_chain_messages_stay_carrier_sized(self, monkeypatch):
        # unfolded, the last message of this chain would hold 2^199 amplitudes
        n = 200
        dag = Dag([(f"c{i}", 2) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
        net = random_qbnet(dag, np.random.default_rng(53))
        evidence = {n - 1: 1, n // 2: 0}
        sent = []
        edge_message = qbp._edge_message

        def recording(step, weights, box):
            carrier, mu = edge_message(step, weights, box)
            sent.append((*step[:2], carrier, mu))
            return carrier, mu

        monkeypatch.setattr(qbp, "_edge_message", recording)
        beliefs = propagate_polytree(net, evidence)
        assert len(sent) == 2 * (n - 1)
        for sender, receiver, carrier, mu in sent:
            assert carrier == min(sender, receiver) and mu.shape == (2,)
            assert mu.min() >= 0 and abs(mu.sum() - 1) < 1e-12
        want = chain_forward_backward(net, evidence)
        for node in range(n):
            np.testing.assert_allclose(beliefs[node].table, want[node], rtol=0, atol=1e-10)


class TestCapacity:
    """Rules called by hand on unfolded messages refuse a product above
    DEFAULT_CAP (2^20 entries) before building it."""

    @staticmethod
    def net():
        # node 0 with parents 1, 2 and children 3, 4; nodes 5..24 stand
        # in for the hidden upstream nodes the messages carry
        dag = Dag([(f"n{i}", 2) for i in range(25)], [(1, 0), (2, 0), (0, 3), (0, 4)])
        return random_qbnet(dag, np.random.default_rng(30))

    @staticmethod
    def message(source, target, kind, carrier, hidden):
        labels = (carrier, *hidden)
        data = np.random.default_rng(source).normal(size=(2,) * len(labels))
        return AmplitudeMessage(source, target, kind, carrier, labeled(labels, data))

    def test_compute_pi(self):
        msgs = [self.message(1, 0, "pi", 1, range(5, 14)), self.message(2, 0, "pi", 2, range(14, 23))]
        with pytest.raises(CapacityError):
            compute_pi(self.net(), 0, msgs)

    def test_compute_lambda(self):
        msgs = [self.message(3, 0, "lambda", 0, range(5, 15)), self.message(4, 0, "lambda", 0, range(15, 25))]
        with pytest.raises(CapacityError):
            compute_lambda(self.net(), 0, msgs)

    def test_rule1(self):
        lam = self.message(0, 0, "lambda", 0, range(5, 15))
        other = [self.message(2, 0, "pi", 2, range(15, 24))]
        with pytest.raises(CapacityError):
            rule1_lambda_to_parent(self.net(), 0, 1, lam, other)

    def test_rule2(self):
        pi = self.message(0, 0, "pi", 0, range(5, 15))
        other = [self.message(4, 0, "lambda", 0, range(15, 25))]
        with pytest.raises(CapacityError):
            rule2_pi_to_child(self.net(), 0, 3, pi, other)

    @pytest.mark.parametrize("rule", ["compute_pi", "compute_lambda", "rule1", "rule2"])
    def test_refused_before_the_first_multiply(self, rule):
        # two messages of a carrier and 19 hidden axes each: every part
        # fits in 2^20 entries, the product of all of them does not
        dag = Dag([(f"n{i}", 2) for i in range(43)], [(1, 0), (2, 0), (0, 3), (0, 4)])
        net = random_qbnet(dag, np.random.default_rng(30))
        first, second = range(5, 24), range(24, 43)
        if rule == "compute_pi":
            msgs = [self.message(1, 0, "pi", 1, first), self.message(2, 0, "pi", 2, second)]
            call = functools.partial(compute_pi, net, 0, msgs)
        elif rule == "compute_lambda":
            msgs = [self.message(3, 0, "lambda", 0, first), self.message(4, 0, "lambda", 0, second)]
            call = functools.partial(compute_lambda, net, 0, msgs)
        elif rule == "rule1":
            lam = self.message(0, 0, "lambda", 0, first)
            other = [self.message(2, 0, "pi", 2, second)]
            call = functools.partial(rule1_lambda_to_parent, net, 0, 1, lam, other)
        else:
            pi = self.message(0, 0, "pi", 0, first)
            other = [self.message(4, 0, "lambda", 0, second)]
            call = functools.partial(rule2_pi_to_child, net, 0, 3, pi, other)
        # one 2^20-entry partial product alone would take 16 MB
        assert refused_peak_bytes(call) < 2**16

    def test_literal_belief_refused(self):
        # node 0's pi aggregate (node 0, its parent 1 and 18 hidden axes)
        # and its lambda aggregate (node 0 and 19 hidden axes) hold 2^20
        # entries each; their product would hold 2^39
        dag = Dag([(f"n{i}", 2) for i in range(40)], [(1, 0), (0, 2)])
        net = random_qbnet(dag, np.random.default_rng(31))
        inbox = {
            (1, 0): self.message(1, 0, "pi", 1, range(3, 21)),
            (2, 0): self.message(2, 0, "lambda", 0, range(21, 40)),
        }
        with pytest.raises(CapacityError, match=f"belief would hold {2**39} entries"):
            qbp._literal_belief(net, 0, inbox, {})


def recorded_messages(monkeypatch):
    """Patch the driver's per-message hook to keep every message it sends,
    each vector mu wrapped as the ket sqrt(mu) the literal rules take."""
    inbox = {}
    edge_message = qbp._edge_message

    def recording(step, weights, box):
        carrier, mu = edge_message(step, weights, box)
        sender, receiver = step[:2]
        kind = "lambda" if carrier == receiver else "pi"
        ket = labeled((carrier,), np.sqrt(mu))
        inbox[(sender, receiver)] = AmplitudeMessage(sender, receiver, kind, carrier, ket)
        return carrier, mu

    monkeypatch.setattr(qbp, "_edge_message", recording)
    return inbox


def forbid(monkeypatch, module, *names):
    def refuse(*args, **kwargs):
        raise AssertionError("the driver called a literal rule or an amplitude product")

    for name in names:
        monkeypatch.setattr(module, name, refuse)


class TestMessageCore:
    def test_evidence_validated_once_per_run(self, monkeypatch):
        dag = Dag([("a", 2), ("b", 3), ("c", 2), ("d", 2)], [(0, 1), (3, 1), (1, 2)])
        net = random_qbnet(dag, np.random.default_rng(60))
        calls = []
        validate = qbp.validate_evidence

        def counting(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(qbp, "validate_evidence", counting)
        propagate_polytree(net, {2: 1, 3: 0})
        assert len(calls) == 1

    def test_driver_calls_no_rule_and_no_product(self, monkeypatch):
        from qbnets import amplitudes, network

        forbid(monkeypatch, qbp, "compute_pi", "compute_lambda", "rule1_lambda_to_parent",
               "rule2_pi_to_child", "_capped_product")
        forbid(monkeypatch, amplitudes, "multiply", "product")
        forbid(monkeypatch, network, "_capped_product", "product")
        for trial in range(10):
            rng = np.random.default_rng([61, trial])
            dag = random_polytree_dag(rng, 8, max_card=3)
            net = random_qbnet(dag, rng)
            try:
                propagate_polytree(net, random_evidence(dag, rng))
            except ImpossibleEvidenceError:
                pass

    def test_belief_family_is_the_public_rules_at_the_fixed_point(self, monkeypatch):
        inbox = recorded_messages(monkeypatch)
        seen = {"card 3": 0, "several parents": 0, "observed parent": 0}
        for trial in range(40):
            rng = np.random.default_rng([62, trial])
            dag = random_polytree_dag(rng, int(rng.integers(3, 9)), max_card=3)
            net = random_qbnet(dag, rng)
            evidence = random_evidence(dag, rng, observe_prob=0.5)
            inbox.clear()
            try:
                beliefs = propagate_polytree(net, evidence)
            except ImpossibleEvidenceError:
                continue
            for node, belief in beliefs.items():
                want = qbp._literal_belief(net, node, inbox, evidence)
                assert belief.family_nodes == want.family_nodes
                np.testing.assert_allclose(belief.family, want.family, rtol=0, atol=1e-12)
                np.testing.assert_allclose(belief.table, want.table, rtol=0, atol=1e-12)
                parents = dag.parents(node)
                seen["card 3"] += dag.cardinality(node) == 3
                seen["several parents"] += len(parents) > 1
                seen["observed parent"] += any(p in evidence for p in parents)
        assert min(seen.values()) >= 5, seen

    def test_family_is_the_oracle_posterior(self):
        compared = 0
        for trial in range(40):
            rng = np.random.default_rng([64, trial])
            dag = random_polytree_dag(rng, int(rng.integers(1, 11)), max_card=3)
            net = random_qbnet(dag, rng)
            evidence = random_evidence(dag, rng, observe_prob=0.4)
            try:
                beliefs = propagate_polytree(net, evidence)
            except ImpossibleEvidenceError:
                continue
            for node, belief in beliefs.items():
                hidden = [i for i in belief.family_nodes if i not in evidence]
                want = np.zeros(belief.family.shape)
                at = tuple(evidence.get(i, slice(None)) for i in belief.family_nodes)
                want[at] = posterior_oracle(net, hidden, evidence) if hidden else 1.0
                np.testing.assert_allclose(belief.family, want, rtol=0, atol=1e-12)
                parents = tuple(k for k, i in enumerate(belief.family_nodes) if i != node)
                np.testing.assert_allclose(belief.table, want.sum(axis=parents), rtol=0, atol=1e-12)
            compared += 1
        assert compared >= 20

    def test_belief_vanishes_while_every_message_is_nonzero(self, monkeypatch):
        # a uniform root copied into two children observed at 0 and at 1:
        # each child's message alone allows one root state, so every
        # message is nonzero, but no root state allows both
        inbox = recorded_messages(monkeypatch)
        dag = Dag([("x", 2), ("y", 2), ("z", 2)], [(0, 1), (0, 2)])
        root, copy = node_tpm(0, (), [INV_SQRT2] * 2), np.eye(2)
        net = QBNet(dag, [root, node_tpm(1, (0,), copy), node_tpm(2, (0,), copy)])
        with pytest.raises(ImpossibleEvidenceError, match="belief vanished"):
            propagate_polytree(net, {1: 0, 2: 1})
        assert len(inbox) == 4 and all(np.any(m.data.data) for m in inbox.values())

    def test_one_contraction_per_message_and_per_belief(self, monkeypatch):
        # each directed edge's message and each node's belief is one
        # contraction; nothing else contracts
        calls = counted_contractions(monkeypatch)
        for trial in range(10):
            rng = np.random.default_rng([67, trial])
            n = int(rng.integers(1, 11))
            dag = random_polytree_dag(rng, n, max_card=3)
            net = random_qbnet(dag, rng)
            calls.clear()
            propagate_polytree(net)
            assert len(dag.edges) == n - 1
            assert len(calls) == 2 * (n - 1) + n

    def test_hub_with_more_neighbors_than_einsum_operands(self):
        # a root -> hub -> 70 leaves: every message out of the hub and the
        # hub's belief combine 70 incoming kets, more than one np.einsum
        # call takes. Most leaves have one state, so enumeration is cheap.
        cards = [2, 3] + [2] * 8 + [1] * 62
        edges = [(0, 1)] + [(1, leaf) for leaf in range(2, 72)]
        dag = Dag([(f"v{i}", card) for i, card in enumerate(cards)], edges)
        net = random_qbnet(dag, np.random.default_rng(63))
        for evidence in ({}, {2: 1, 3: 0, 5: 1, **{leaf: 0 for leaf in range(20, 50)}}):
            beliefs = propagate_polytree(net, evidence)
            for node, card in enumerate(cards):
                want = brute_posterior(net, [node], evidence) if card > 1 else [1.0]
                np.testing.assert_allclose(beliefs[node].table, want, rtol=0, atol=1e-10)

    def test_family_table_at_numpy_1_rank_limit(self):
        # x has 31 one-state parents and one child: its table has rank 32,
        # NumPy 1.x's largest rank, and its belief combines that table with
        # 32 incoming messages. The dense oracle would build a rank-33
        # tensor, which NumPy 1.x cannot hold, so the reference enumerates.
        cards = [2] + [1] * 31 + [2]
        edges = [(p, 0) for p in range(1, 32)] + [(0, 32)]
        dag = Dag([(f"v{i}", card) for i, card in enumerate(cards)], edges)
        net = random_qbnet(dag, np.random.default_rng(65))
        for evidence in ({32: 0}, {32: 1}):
            beliefs = propagate_polytree(net, evidence)
            want = brute_posterior(net, [0], evidence)
            np.testing.assert_allclose(beliefs[0].table, want, rtol=0, atol=1e-12)


def one_state_polytree(rng, n):
    """A random polytree on n nodes, about a third of them with one state."""
    dag = random_polytree_dag(rng, n, max_card=3)
    cards = np.where(rng.random(n) < 0.3, 1, dag.cardinalities)
    return Dag([(name, int(c)) for name, c in zip(dag.names, cards)], dag.edges)


class TestScheduleCache:
    """``propagate_polytree`` looks its schedule up in a bounded cache of
    ``_polytree_schedule`` keyed on (dag, observed nodes); refusals are
    never cached."""

    def test_cached_schedule_gives_bit_identical_beliefs(self):
        schedule = qbp._polytree_schedule
        one_state = observed = 0
        for trial in range(40):
            rng = np.random.default_rng([86, trial])
            dag = one_state_polytree(rng, int(rng.integers(1, 13)))
            net = random_qbnet(dag, rng)
            evidence = random_evidence(dag, rng, observe_prob=0.4)
            schedule.cache_clear()
            try:
                fresh = propagate_polytree(net, evidence)
            except ImpossibleEvidenceError:
                continue
            cached = propagate_polytree(net, evidence)
            assert schedule.cache_info().hits == 1
            schedule.cache_clear()
            again = propagate_polytree(net, evidence)
            for want in (cached, again):
                assert want.keys() == fresh.keys()
                for node, belief in want.items():
                    assert belief.family_nodes == fresh[node].family_nodes
                    assert np.array_equal(belief.family, fresh[node].family)
                    assert np.array_equal(belief.table, fresh[node].table)
            # every part is a tuple, a string, a number or None: no caller
            # can change the schedule that the next one gets
            hash(schedule(dag, frozenset(evidence)))
            one_state += 1 in dag.cardinalities
            observed += bool(evidence)
        assert one_state >= 10 and observed >= 10

    def test_equal_shapes_share_an_entry(self):
        def build():
            return Dag([("a", 2), ("b", 3), ("c", 1), ("d", 2)], [(0, 1), (2, 1), (1, 3)])

        first, second = build(), build()
        assert first is not second and first == second and hash(first) == hash(second)
        qbp._polytree_schedule.cache_clear()
        propagate_polytree(random_qbnet(first, np.random.default_rng(87)), {1: 0, 3: 1})
        propagate_polytree(random_qbnet(second, np.random.default_rng(88)), {3: 0, 1: 2})
        propagate_polytree(random_qbnet(second, np.random.default_rng(89)), {np.int64(1): 1, 3: 1})
        info = qbp._polytree_schedule.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)

    def test_entries_stay_within_the_bound(self):
        # 37 observed sets on one chain: more shapes than the cache keeps
        dag = Dag([(f"c{i}", 2) for i in range(6)], [(i, i + 1) for i in range(5)])
        net = random_qbnet(dag, np.random.default_rng(90))
        schedule = qbp._polytree_schedule
        schedule.cache_clear()
        bound = schedule.cache_info().maxsize
        assert bound == network._PLANS_CACHED
        for k in range(37):
            propagate_polytree(net, {i: 0 for i in range(6) if k >> i & 1})
            assert schedule.cache_info().currsize == min(k + 1, bound)
        assert schedule.cache_info().misses == 37

    def test_non_polytree_refused_on_every_call(self):
        dag = Dag([("a", 2), ("b", 2), ("c", 2), ("d", 2)], [(0, 1), (0, 2), (1, 3), (2, 3)])
        net = random_qbnet(dag, np.random.default_rng(91))
        qbp._polytree_schedule.cache_clear()
        for _ in range(2):
            with pytest.raises(StructureError, match="polytree"):
                propagate_polytree(net, {3: 1})
        info = qbp._polytree_schedule.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    def test_refused_evidence_takes_no_slot(self):
        # the evidence is validated before the schedule lookup, so a refused
        # call neither adds an entry nor evicts one, and on a non-polytree
        # the bad evidence is what is named
        chain = Dag([("a", 2), ("b", 2)], [(0, 1)])
        diamond = Dag([("a", 2), ("b", 2), ("c", 2), ("d", 2)], [(0, 1), (0, 2), (1, 3), (2, 3)])
        schedule = qbp._polytree_schedule
        schedule.cache_clear()
        propagate_polytree(random_qbnet(chain, np.random.default_rng(92)), {1: 0})
        for dag in (chain, diamond):
            net = random_qbnet(dag, np.random.default_rng(93))
            for evidence in ({99: 0}, {"a": 0}, {0: 5}):
                with pytest.raises(ValueError, match="out of range|not an integer"):
                    propagate_polytree(net, evidence)
                assert schedule.cache_info().currsize == 1
        assert schedule.cache_info().misses == 1

    def test_impossible_evidence_raised_on_a_hit(self):
        # x is 0 for sure, so x = 1 is impossible, under the schedule that
        # x = 0 made
        dag = Dag([("x", 2), ("y", 2)], [(0, 1)])
        net = QBNet(dag, [node_tpm(0, (), [1.0, 0.0]), node_tpm(1, (0,), np.eye(2))])
        qbp._polytree_schedule.cache_clear()
        propagate_polytree(net, {0: 0})
        for _ in range(2):
            with pytest.raises(ImpossibleEvidenceError):
                propagate_polytree(net, {0: 1})
        info = qbp._polytree_schedule.cache_info()
        assert (info.hits, info.misses) == (2, 1)
