import hashlib
import itertools
import json
import logging
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from qbnets import (
    CapacityError,
    Dag,
    ImpossibleEvidenceError,
    InvalidStateError,
    bp_campaign,
    check_dsep_forward,
    d_separated,
    dsep_forward_census,
    enumerate_dags,
    net_to_density,
    quantum_cmi,
    search_dsep_witness,
    sides_assignable,
)
from qbnets.graph import (
    _d_separated_arrays,
    _d_separated_masks,
    _sides_assignable_arrays,
    _sides_assignable_masks,
    as_multinode,
)
from qbnets.network import DEFAULT_CAP, _doubled_plan
from qbnets.sampling import _draw_tables, random_dag
from qbnets import verify  # the module, for monkeypatching its names
from qbnets.verify import (
    _CENSUS_AMPLITUDES,
    _assignment_codes,
    _census_cmis,
    _census_kets,
    _class_representatives,
    _sampled_cmis,
    canonical_separated_cases,
)

from conftest import (
    key_matrix_separated_cases,
    per_case_census_cmi,
    per_case_census_kets,
    per_model_cmis,
    per_model_report,
    per_node_tables,
    set_closure_dags,
    split_search_assignable,
)


class TestForwardCheck:
    def test_screened_pair_passes(self, screened_pair_dag):
        report = check_dsep_forward(screened_pair_dag, [3], [4], [0], trials=25, seed=0)
        assert report.passed and report.max_cmi <= 1e-9
        assert report.trials_run == 25

    def test_chain_passes(self):
        dag = Dag([("x", 2), ("lam", 2), ("y", 2)], [(0, 1), (1, 2)])
        report = check_dsep_forward(dag, [0], [2], [1], trials=25, seed=1)
        assert report.passed

    def test_disconnected_pair_exact_zero(self):
        dag = Dag([("x", 2), ("y", 2)], [])
        report = check_dsep_forward(dag, [0], [1], [], trials=10, seed=2)
        assert report.max_cmi <= 1e-12

    def test_requires_separated_triple(self, cross_pair_dag):
        with pytest.raises(ValueError, match="d-separated"):
            check_dsep_forward(cross_pair_dag, [3], [4], [0])

    def test_report_is_reproducible_json(self, screened_pair_dag):
        r1 = check_dsep_forward(screened_pair_dag, [3], [4], [0], trials=5, seed=3)
        r2 = check_dsep_forward(screened_pair_dag, [3], [4], [0], trials=5, seed=3)
        assert r1.to_json(include_wall_time=False) == r2.to_json(include_wall_time=False)
        payload = json.loads(r1.to_json())
        assert payload["kind"] == "forward"


class TestWitnessSearch:
    def test_cross_pair_witness_found(self, cross_pair_dag):
        report = search_dsep_witness(cross_pair_dag, [3], [4], [0], trials=100, seed=0)
        assert report.passed and report.max_cmi > 1e-3
        assert report.witness_seed is not None

    def test_conditioned_collider_witness_found(self):
        dag = Dag([("x", 2), ("c", 2), ("y", 2)], [(0, 1), (2, 1)])
        report = search_dsep_witness(dag, [0], [2], [1], trials=100, seed=0)
        assert report.passed

    def test_requires_connected_triple(self):
        dag = Dag([("x", 2), ("y", 2)], [])
        with pytest.raises(ValueError, match="not d-separated"):
            search_dsep_witness(dag, [0], [1], [])


def _random_triple(rng, n, held=5):
    """Disjoint nonempty a and b and a possibly empty z on n >= 2 nodes,
    with at most ``held`` nodes in all."""
    codes = np.zeros(n, dtype=int)  # 0 traced, 1 a, 2 b, 3 z
    picked = rng.choice(n, size=int(rng.integers(2, min(n, held) + 1)), replace=False)
    codes[picked] = [1, 2] + rng.integers(1, 4, size=len(picked) - 2).tolist()
    return tuple(as_multinode([i for i in range(n) if codes[i] == c]) for c in (1, 2, 3))


# The sampled checks take each CMI from the dephased state's z-blocks
# (qinfo._dephased_cmi), the per-model reference from the dense state
# (quantum_cmi): both exact, with different roundoff. They differ by at
# most 5.3e-14 on one CMI (the 60 random checks below and 200 more, seed
# 7), and by at most 6.3e-14 on the max_cmi of 60 random 20-trial checks.
DENSE_ATOL = 1e-13


class TestBatchedChecks:
    """The checks' batched draw, contraction and CMI against one model at
    a time through ``random_qbnet``, ``net_to_density`` and ``quantum_cmi``."""

    def test_one_call_draw_matches_per_node_draws(self):
        rng = np.random.default_rng(80)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(1, 9)), max_card=4, edge_prob=0.5)
            seed = int(rng.integers(0, 2**31))
            rngs = [np.random.default_rng([seed, t]) for t in range(3)]
            stacks = _draw_tables(dag, rngs)
            for t, drawn in enumerate(rngs):
                ref = np.random.default_rng([seed, t])
                for stack, want in zip(stacks, per_node_tables(dag, ref)):
                    assert np.array_equal(stack[t], want)
                # and the generator is left where the per-node draws leave it
                assert drawn.normal() == ref.normal()

    def test_one_call_draw_matches_per_node_draws_from_one_to_ten_states(self):
        # one-state nodes, one-column tables side by side, and columns of
        # eight states and more, which NumPy sums pairwise when contiguous
        rng = np.random.default_rng(84)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            cards = rng.integers(1, 11, size=n).tolist()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            dag = Dag([(f"v{i}", c) for i, c in enumerate(cards)], edges)
            if max(math.prod(dag.cardinality(k) for k in (j,) + dag.parents(j)) for j in range(n)) > 4096:
                continue
            rngs = [np.random.default_rng([85, t]) for t in range(3)]
            stacks = _draw_tables(dag, rngs)
            for t, drawn in enumerate(rngs):
                ref = np.random.default_rng([85, t])
                for stack, want in zip(stacks, per_node_tables(dag, ref)):
                    assert stack.flags.c_contiguous and np.array_equal(stack[t], want)
                assert drawn.normal() == ref.normal()

    def test_draw_refusal_names_the_failing_node(self):
        # a -> b -> c, all binary: b's and c's columns are checked as one
        # array, and a non-finite entry of c's table must name c
        dag = Dag([("a", 2), ("b", 2), ("c", 2)], [(0, 1), (1, 2)])

        class Broken:
            def normal(self, size):
                draw = np.random.default_rng(86).normal(size=size)
                draw[2 * (2 + 4) + 1] = np.nan  # c's first entries start after a's and b's
                return draw

        with np.errstate(invalid="ignore"):  # normalizing the NaN column
            with pytest.raises(ValueError, match="node 2: table has a non-finite entry"):
                _draw_tables(dag, [np.random.default_rng(87), Broken()])

    def test_cmis_match_per_model_reference(self):
        rng = np.random.default_rng(81)
        shapes = set()
        for _ in range(60):
            n = int(rng.integers(2, 9))
            dag = random_dag(rng, n, max_card=3, edge_prob=float(rng.uniform(0.2, 0.6)))
            a, b, z = _random_triple(rng, n)
            shapes.add((len(a) > 1, len(b) > 1, len(z) > 0))
            seed = int(rng.integers(0, 2**31))
            got = np.concatenate(list(_sampled_cmis(dag, a, b, z, seed, 6)))
            want = per_model_cmis(dag, a, b, z, seed, 6)
            np.testing.assert_allclose(got, want, rtol=0, atol=DENSE_ATOL)
        # multi-node a and b together, and z both empty and not, were drawn
        assert any(s[0] and s[1] for s in shapes)
        assert {s[2] for s in shapes} == {False, True}

    @pytest.mark.parametrize(
        "kind, dag, triple, trials, seed, bound",
        [
            ("forward", "screened", ([3], [4], [0]), 25, 0, 1e-9),
            ("forward", "chain", ([0], [2], [1]), 25, 1, 1e-9),
            ("forward", "disconnected", ([0], [1], []), 10, 2, 1e-9),
            ("forward", "collider", ([0], [1], []), 20, 3, 1e-9),
            ("witness", "cross", ([3], [4], [0]), 30, 0, 1e-3),
            # found at trial 3, first of the third chunk (1, 2, then 4 trials)
            ("witness", "conditioned_collider", ([0], [2], [1]), 100, 7, 0.3),
            # found at trial 10, inside the fourth chunk (trials 7 to 14)
            ("witness", "conditioned_collider", ([0], [2], [1]), 30, 33, 0.45),
            # no witness: every trial runs
            ("witness", "conditioned_collider", ([0], [2], [1]), 12, 7, 10.0),
        ],
    )
    def test_reports_match_per_model_reference(
        self, screened_pair_dag, cross_pair_dag, kind, dag, triple, trials, seed, bound
    ):
        dag = {
            "screened": screened_pair_dag,
            "cross": cross_pair_dag,
            "chain": Dag([("x", 2), ("lam", 2), ("y", 2)], [(0, 1), (1, 2)]),
            "disconnected": Dag([("x", 2), ("y", 2)], []),
            "collider": Dag([("a", 2), ("b", 2), ("c", 3)], [(0, 2), (1, 2)]),
            "conditioned_collider": Dag([("x", 2), ("c", 2), ("y", 2)], [(0, 1), (2, 1)]),
        }[dag]
        run = check_dsep_forward if kind == "forward" else search_dsep_witness
        bound_name = "tol" if kind == "forward" else "threshold"
        report = json.loads(
            run(dag, *triple, trials=trials, seed=seed, **{bound_name: bound}).to_json(
                include_wall_time=False
            )
        )
        want = per_model_report(kind, dag, *triple, trials, seed, bound)
        max_cmi = want.pop("max_cmi")
        assert report.pop("max_cmi") == pytest.approx(max_cmi, rel=0, abs=DENSE_ATOL)
        if max_cmi <= 1e-12:
            # every CMI is roundoff, whose largest trial the two kernels need not share
            del report["witness_seed"], want["witness_seed"]
        assert {k: report[k] for k in want} == want
        if bound in (0.3, 0.45):
            assert (want["trials_run"], want["witness_seed"]) == {0.3: (4, 3), 0.45: (11, 10)}[bound]
        if bound == 10.0:
            assert want["trials_run"] == trials and not want["passed"]

    def test_witness_search_past_the_cap_raises(self):
        # the hidden parent's step would hold 2^22 = 4,194,304 > 2^20 entries
        dag = Dag([("h", 2)] + [(f"c{i}", 2) for i in range(1, 12)], [(0, i) for i in range(1, 12)])
        with pytest.raises(CapacityError):
            search_dsep_witness(dag, list(range(1, 7)), list(range(7, 12)), [], trials=3)

    def test_small_cap_chunks_give_the_same_cmis(self, screened_pair_dag):
        a, b, z = (as_multinode(m) for m in ([3], [4], [0]))
        largest = _doubled_plan(screened_pair_dag, a | b, z, DEFAULT_CAP).largest
        whole = list(_sampled_cmis(screened_pair_dag, a, b, z, 5, 9))
        assert [len(c) for c in whole] == [9]
        for grow in (False, True):
            chunks = list(_sampled_cmis(screened_pair_dag, a, b, z, 5, 9, grow, cap=2 * largest))
            assert [len(c) for c in chunks] == ([2, 2, 2, 2, 1] if not grow else [1, 2, 2, 2, 2])
            np.testing.assert_allclose(np.concatenate(chunks), whole[0], rtol=0, atol=1e-15)

    def test_band_check_holds_blocks_only(self):
        # a 16-node binary band (each node's two predecessors its parents),
        # a = {0} and b = {15} screened by six nodes: the dense state would
        # be 256 x 256, 20 x 256^2 x 16 B (21 MB) for the stack, where the
        # 64 blocks of 4 x 4 are 20 x 64 x 16 x 16 B (0.3 MB)
        dag = Dag([(f"v{i}", 2) for i in range(16)], [(i - k, i) for i in range(16) for k in (1, 2) if i >= k])
        a, b, z = (as_multinode(m) for m in ([0], [15], [2, 3, 7, 8, 11, 12]))
        report = check_dsep_forward(dag, a, b, z, trials=20, seed=1)
        assert report.passed and report.trials_run == 20
        got = np.concatenate(list(_sampled_cmis(dag, a, b, z, 1, 20)))
        np.testing.assert_allclose(got, per_model_cmis(dag, a, b, z, 1, 20), rtol=0, atol=DENSE_ATOL)
        tracemalloc.start()
        try:
            check_dsep_forward(dag, a, b, z, trials=20, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    @pytest.mark.parametrize("onestate", [False, True])
    def test_one_trial_chunks_give_the_same_cmis(self, screened_pair_dag, onestate):
        # chunks of one trial, whose trial axis the contraction squeezes;
        # and a one-state node u in z, the shape of the CI's onestate.json
        if onestate:
            dag = Dag(
                [("l1", 2), ("u", 1), ("x", 2), ("y", 3), ("w", 1), ("v", 2)],
                [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 5), (4, 5)],
            )
            a, b, z = (as_multinode(m) for m in ([2], [3], [0, 1]))
        else:
            dag = screened_pair_dag
            a, b, z = (as_multinode(m) for m in ([3], [4], [0]))
        whole = list(_sampled_cmis(dag, a, b, z, 6, 20))
        assert [len(c) for c in whole] == [20]
        largest = _doubled_plan(dag, a | b, z, DEFAULT_CAP).largest
        for grow in (False, True):
            chunks = list(_sampled_cmis(dag, a, b, z, 6, 20, grow, cap=largest))
            assert [len(c) for c in chunks] == [1] * 20
            np.testing.assert_allclose(np.concatenate(chunks), whole[0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("spoil, message", [
        (lambda rho: np.where(np.eye(rho.shape[-1], dtype=bool), np.nan, rho), "non-finite"),
        (lambda rho: 2 * rho, "trace is 2"),
    ], ids=["nan", "trace"])
    def test_contracted_states_checked(self, monkeypatch, screened_pair_dag, spoil, message):
        contraction = verify._doubled_blocks
        monkeypatch.setattr(verify, "_doubled_blocks", lambda *args: spoil(contraction(*args)))
        with pytest.raises(InvalidStateError, match=message):
            check_dsep_forward(screened_pair_dag, [3], [4], [0], trials=4)

    def test_each_check_logs_one_line(self, screened_pair_dag, cross_pair_dag, caplog):
        with caplog.at_level(logging.INFO, logger="qbnets"):
            check_dsep_forward(screened_pair_dag, [3], [4], [0], trials=7, seed=0)
            report = search_dsep_witness(cross_pair_dag, [3], [4], [0], trials=50, seed=0)
        lines = [r.getMessage() for r in caplog.records if r.name == "qbnets.verify"]
        assert len(lines) == 2
        assert all(r.levelno == logging.INFO for r in caplog.records)
        assert lines[0].startswith("forward check: 7 of 7 trials in 1 chunks, ")
        assert lines[1].startswith(f"witness check: {report.trials_run} of 50 trials in ")
        assert all(line.endswith(" s") for line in lines)


class TestBpCampaign:
    def test_single_node(self):
        report = bp_campaign(count=1, max_nodes=1, seed=0)
        assert report.passed and report.max_deviation <= 1e-15

    def test_small_campaign_passes(self):
        report = bp_campaign(count=12, max_nodes=8, seed=0)
        assert report.passed and report.max_deviation <= 1e-8

    def test_bit_identical_reports(self):
        r1 = bp_campaign(count=6, max_nodes=6, seed=5)
        r2 = bp_campaign(count=6, max_nodes=6, seed=5)
        assert r1 == r2
        assert r1.to_json() == r2.to_json()

    def test_impossible_evidence_is_drawn_again(self, monkeypatch):
        # the first trial's first evidence is refused; the trial draws new
        # evidence from its generator and runs again
        calls = []
        propagate = verify.propagate_polytree

        def refuse_once(net, evidence):
            calls.append(evidence)
            if len(calls) == 1:
                raise ImpossibleEvidenceError("impossible evidence: refused once")
            return propagate(net, evidence)

        monkeypatch.setattr(verify, "propagate_polytree", refuse_once)
        report = bp_campaign(count=3, max_nodes=6, seed=0)
        assert report.passed and len(calls) == 4


class TestVacuousRunsRejected:
    @pytest.mark.parametrize(
        "kwargs", [{"trials": 0}, {"trials": -3}, {"tol": -1e-9}, {"tol": float("nan")}]
    )
    def test_forward_check(self, screened_pair_dag, kwargs):
        with pytest.raises(ValueError, match="trials|tol"):
            check_dsep_forward(screened_pair_dag, [3], [4], [0], **kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"trials": 0}, {"threshold": -1.0}, {"threshold": float("inf")}]
    )
    def test_witness_search(self, cross_pair_dag, kwargs):
        with pytest.raises(ValueError, match="trials|threshold"):
            search_dsep_witness(cross_pair_dag, [3], [4], [0], **kwargs)

    @pytest.mark.parametrize("check", [check_dsep_forward, search_dsep_witness])
    @pytest.mark.parametrize(
        "a, b, empty", [([], [2], "a"), ([0], [], "b"), ([], [], "a")], ids=["a", "b", "both"]
    )
    def test_empty_tested_set(self, check, a, b, empty):
        # an empty set is d-separated from anything, so a forward check of
        # it used to pass without testing a node
        chain = Dag([("x", 2), ("lam", 2), ("y", 2)], [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=f"tested set {empty} is empty"):
            check(chain, a, b, [1])

    @pytest.mark.parametrize("kwargs", [{"count": 0}, {"count": -1}, {"tol": float("nan")}])
    def test_bp_campaign(self, kwargs):
        with pytest.raises(ValueError, match="count|tol"):
            bp_campaign(**{"count": 2, **kwargs})

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"max_nodes": 0}, "max_nodes"), ({"max_card": 1}, "max_card"), ({"max_card": 0}, "max_card")],
    )
    def test_bp_campaign_sizes_named(self, kwargs, name):
        # NumPy used to fail inside the sampler with "low >= high"
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            bp_campaign(count=2, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"max_nodes": 0},
            {"card": 0},
            {"tol": -1.0},
            {"tol": float("inf")},
        ],
    )
    def test_census(self, kwargs):
        with pytest.raises(ValueError, match="trials|max_nodes|card|tol"):
            dsep_forward_census(**{"max_nodes": 2, **kwargs})

    @pytest.mark.parametrize("max_card", [2.5, True, "3"])
    def test_bp_campaign_max_card_not_an_integer(self, max_card):
        # 2.5 used to run, and "3" failed with a TypeError
        with pytest.raises(ValueError, match="^max_card must be an integer"):
            bp_campaign(count=2, max_card=max_card)

    @staticmethod
    def _work_reached(*args, **kwargs):
        raise LookupError("work reached")

    # -1 and 1.5 used to fail inside NumPy after the plan or the
    # canonicalization had run; True and "3" ran and were reported. The
    # refusal comes before the d-separation test, so one chain serves the
    # forward check and the witness search
    _chain = Dag([("x", 2), ("lam", 2), ("y", 2)], [(0, 1), (1, 2)])

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    @pytest.mark.parametrize(
        "run, first_work",
        [
            (lambda dag, seed: check_dsep_forward(dag, [0], [2], [1], trials=3, seed=seed), "d_separated"),
            (lambda dag, seed: search_dsep_witness(dag, [0], [2], [1], trials=3, seed=seed), "d_separated"),
            (lambda dag, seed: bp_campaign(count=2, seed=seed), "random_polytree_dag"),
            (lambda dag, seed: dsep_forward_census(max_nodes=3, trials=2, seed=seed), "canonical_separated_cases"),
        ],
        ids=["forward_check", "witness_search", "bp_campaign", "census"],
    )
    def test_seed_not_a_non_negative_integer_rejected_before_any_work(
        self, monkeypatch, run, first_work, seed
    ):
        monkeypatch.setattr(verify, first_work, self._work_reached)
        with pytest.raises(ValueError, match="^seed must be"):
            run(self._chain, seed)


class TestCensusCap:
    @pytest.mark.parametrize("max_nodes", [6, 7])
    def test_census_above_five_nodes_refused_at_once(self, max_nodes):
        # at n = 6 canonicalization alone takes about 7.5 s and 2 GB, and the
        # sampled models of its 376,006 separated classes would take minutes
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="ROADMAP item 7"):
            dsep_forward_census(max_nodes=max_nodes, trials=1)
        with pytest.raises(CapacityError, match="at most 5 nodes"):
            canonical_separated_cases(max_nodes)
        assert time.perf_counter() - start < 0.5

    @staticmethod
    def _canonicalization_reached(*args):
        raise LookupError("canonicalization reached")

    @pytest.mark.parametrize(
        "card, trials, amplitudes",
        # one n = 5 case's kets: 50 x 17^5 (about 1.1 GB), 50 x 8^5
        [(17, 50, 70_992_850), (8, 50, 1_638_400), (17, 1, 1_419_857)],
    )
    def test_census_kets_above_cap_refused_at_once(self, monkeypatch, card, trials, amplitudes):
        monkeypatch.setattr(verify, "canonical_separated_cases", self._canonicalization_reached)
        refusal = f"would hold {amplitudes} entries, above the cap of {DEFAULT_CAP}"
        with pytest.raises(CapacityError, match=refusal):
            dsep_forward_census(max_nodes=5, trials=trials, card=card)

    @pytest.mark.parametrize("card", [2, 3])  # 1,600 and 12,150 amplitudes a case
    def test_census_kets_under_cap_run(self, monkeypatch, card):
        monkeypatch.setattr(verify, "canonical_separated_cases", self._canonicalization_reached)
        with pytest.raises(LookupError, match="canonicalization reached"):
            dsep_forward_census(max_nodes=5, card=card)


class TestEnumeration:
    def test_dag_counts(self):
        # known counts of labeled DAGs
        assert len(enumerate_dags(1)) == 1
        assert len(enumerate_dags(2)) == 3
        assert len(enumerate_dags(3)) == 25
        assert len(enumerate_dags(4)) == 543

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_set_closure_reference(self, n):
        assert enumerate_dags(n) == set_closure_dags(n)

    def test_separated_class_reps_are_separated(self):
        cases, classes, labeled = canonical_separated_cases(3)
        assert labeled == 25 * 18
        assert classes >= len(cases)
        for parents, (a, b, z) in cases:
            assert _d_separated_masks(parents, a, b, z)


@pytest.fixture(scope="module")
def census_cases():
    return {n: canonical_separated_cases(n)[0] for n in range(1, 6)}


class TestSidesAssignable:
    def test_no_hidden_nodes_is_assignable(self):
        dag = Dag([("x", 2), ("lam", 2), ("y", 2)], [(0, 1), (1, 2)])
        assert sides_assignable(dag, [0], [2], [1])

    def test_collider_child_not_assignable(self):
        dag = Dag([("a", 2), ("b", 2), ("c", 2)], [(0, 2), (1, 2)])
        assert not sides_assignable(dag, [0], [1], [])

    def test_screened_pair_assignable(self, screened_pair_dag):
        assert sides_assignable(screened_pair_dag, [3], [4], [0])

    def test_hidden_sink_with_hidden_parents_not_assignable(self):
        # sufficient, not necessary: node 4 joins the sides, yet the CMI is zero
        dag = Dag([(f"n{i}", 2) for i in range(5)], [(0, 2), (1, 3), (0, 4), (1, 4)])
        assert d_separated(dag, [2], [3], [])
        assert not sides_assignable(dag, [2], [3], [])

    @pytest.mark.parametrize(
        "a, b, z", [([0], [0], []), ([0], [2], [0]), ([0], [2], [1, 2])], ids=["ab", "az", "bz"]
    )
    def test_overlapping_triple_rejected(self, a, b, z):
        chain = Dag([("x", 2), ("lam", 2), ("y", 2)], [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="disjoint"):
            sides_assignable(chain, a, b, z)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_split_search_on_every_labeled_triple(self, n):
        codes = _assignment_codes(n)
        triples = [
            tuple(sum(1 << i for i, c in enumerate(code) if c == k) for k in (1, 2, 3))
            for code in codes.tolist()
        ]
        for parents in enumerate_dags(n):
            for a, b, z in triples:
                assignable = _sides_assignable_masks(parents, a, b, z)
                assert assignable == split_search_assignable(parents, a, b, z)
                assert not assignable or _d_separated_masks(parents, a, b, z)

    def test_matches_split_search_on_five_node_classes(self, census_cases):
        for parents, masks in census_cases[5]:
            assert _sides_assignable_masks(parents, *masks) == split_search_assignable(parents, *masks)

    def test_assignable_class_counts(self, census_cases):
        # the census's assignable_classes for n <= 4 and n <= 5, without any CMI
        counts = [
            sum(_sides_assignable_masks(parents, *masks) for parents, masks in census_cases[n])
            for n in range(1, 6)
        ]
        assert sum(counts[:4]) == 193
        assert sum(counts) == 5_628


class TestBatchedSeparation:
    """The array route of d-separation and side-assignability against the
    bitmask core, one call per predicate and DAG or per node count."""

    PREDICATES = [
        (_d_separated_arrays, _d_separated_masks),
        (_sides_assignable_arrays, _sides_assignable_masks),
    ]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_labeled_triple(self, n):
        # every disjoint triple, empty sets included, on every labeled DAG
        codes = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.int64)
        bits = 1 << np.arange(n, dtype=np.int64)
        a, b, z = ((codes == c) @ bits for c in (1, 2, 3))
        triples = list(zip(a.tolist(), b.tolist(), z.tolist()))
        for parents in enumerate_dags(n):
            for batched, single in self.PREDICATES:
                got = batched(parents, a, b, z).tolist()
                assert got == [single(parents, *t) for t in triples], (parents, single)

    def test_every_five_node_class_representative(self):
        # one DAG per triple, as the census decides them
        parents, triples, _ = _class_representatives(5)
        assert len(triples) == 72_584
        rows = list(zip(parents.tolist(), triples.tolist()))
        for batched, single in self.PREDICATES:
            got = batched(parents, *triples.T).tolist()
            assert got == [single(pa, *t) for pa, t in rows], single
        assert int(_d_separated_arrays(parents, *triples.T).sum()) == 6_637


class TestCanonicalization:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_key_matrix_reference(self, n):
        got = canonical_separated_cases(n)
        assert repr(got) == repr(key_matrix_separated_cases(n))

    # sha256 of repr(case list) and (classes, labeled cases, separated cases)
    PINNED = {
        3: ("8f51b728e2e447d86f3daf0f75eedc7818654152e75e8085260ff51f98896baf", (42, 450, 11)),
        4: ("bfc6ad1ae693c46a9a6f07502f2cc80603318ea570b04c49c508599bafbc329b", (1_333, 59_730, 209)),
        5: (
            "41d91e36a2041953d04f4dde7351919979db1387836dce21a73f93ad78b27201",
            (72_584, 16_690_170, 6_637),
        ),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_case_list_pinned(self, n):
        # the census draws class idx's models from default_rng([seed, n, idx]),
        # so the case list and its order are part of every census answer
        digest, counts = self.PINNED[n]
        cases, classes, labeled = canonical_separated_cases(n)
        assert (classes, labeled, len(cases)) == counts
        assert hashlib.sha256(repr(cases).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", range(0, 6))
    def test_orbit_stabilizer_coverage_counts_labeled_cases(self, n):
        # the coverage never lists labeled DAGs; the reference lists them all
        _, _, labeled = _class_representatives(n)
        assert labeled == len(enumerate_dags(n)) * len(_assignment_codes(n))

    def test_census_never_lists_labeled_dags(self, monkeypatch):
        def listed(n):
            raise AssertionError(f"labeled DAGs on {n} nodes listed")

        monkeypatch.setattr(verify, "enumerate_dags", listed)
        report = dsep_forward_census(max_nodes=4, trials=2)
        assert (report.classes, report.separated_classes) == (1_377, 221)

    def test_five_node_canonicalization_peak(self):
        # about 11 MB; relabeling the 29,281 labeled DAGs too would take about 42 MB
        tracemalloc.start()
        try:
            _class_representatives(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def _library_case_cmi(parents, masks, trials, rng, card):
    """Largest |CMI| of one census case through net_to_density and quantum_cmi,
    on nets rebuilt from the same draws as the census's batched sampler."""
    from qbnets import QBNet, node_tpm

    n = len(parents)
    pa = [[p for p in range(n) if parents[j] >> p & 1] for j in range(n)]
    dag = Dag([(f"n{j}", card) for j in range(n)], [(p, j) for j in range(n) for p in pa[j]])
    tables = []
    for j in range(n):
        shape = (trials, card) + (card,) * len(pa[j])
        t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        tables.append(t / np.sqrt((np.abs(t) ** 2).sum(axis=1, keepdims=True)))
    a, b, z = ([i for i in range(n) if m >> i & 1] for m in masks)
    worst = 0.0
    for trial in range(trials):
        net = QBNet(dag, [node_tpm(j, pa[j], tables[j][trial]) for j in range(n)])
        rho = net_to_density(net, keep=a + b, diag=z)
        names = [[f"n{i}" for i in g] for g in (a, b, z)]
        worst = max(worst, abs(quantum_cmi(rho, *names)))
    return worst


class TestCensusMachinery:
    # (parents, masks, trials, card)
    LIBRARY_CASES = [
        # a -> c <- b, c traced, z empty
        ((0, 0, 3), (1, 2, 0), 1, 2),
        ((0, 0, 3), (1, 2, 0), 4, 3),
        # lam screens x from y; x0 and y0 traced, z = {lam}
        ((0, 1, 1, 3, 5), (8, 16, 1), 4, 2),
        # a -> c <- b -> d, c traced, z = {d}
        ((0, 0, 3, 2), (1, 2, 8), 4, 2),
        ((0, 0, 3, 2), (1, 2, 8), 3, 3),
        # no hidden node, z = {c} in a chain a -> c -> b
        ((0, 4, 1), (1, 2, 4), 4, 2),
    ]

    def test_batched_cmi_matches_library_path(self):
        for parents, masks, trials, card in self.LIBRARY_CASES:
            got = _census_cmis(
                [(parents, masks)], trials, [np.random.default_rng([0, 99])], card
            )[0]
            expect = _library_case_cmi(
                parents, masks, trials, np.random.default_rng([0, 99]), card
            )
            assert got == pytest.approx(expect, abs=1e-12), (parents, masks, card)

    def test_census_small_scope(self):
        report = dsep_forward_census(max_nodes=3, trials=20, seed=0)
        assert report.separated_classes == 12  # 1 two-node class + 11 three-node
        # the collider class violates; every side-assignable class is clean
        assert report.violations > 0
        assert report.violations_assignable == 0
        assert report.max_cmi_assignable <= 1e-9

    def test_census_deterministic(self):
        r1 = dsep_forward_census(max_nodes=3, trials=5, seed=1)
        r2 = dsep_forward_census(max_nodes=3, trials=5, seed=1)
        assert r1.to_json(include_wall_time=False) == r2.to_json(include_wall_time=False)

    def test_census_logs_one_line_per_node_count(self, caplog):
        with caplog.at_level(logging.INFO, logger="qbnets"):
            report = dsep_forward_census(max_nodes=3, trials=2, seed=0)
        lines = [r.getMessage() for r in caplog.records if r.name.startswith("qbnets")]
        assert len(lines) == 3
        assert all(r.levelno == logging.INFO for r in caplog.records)
        # n = 3: 25 labeled DAGs x 18 triples, 42 classes, 11 of them separated
        assert lines[2].startswith("census n=3: 450 labeled cases, 42 classes, 11 separated, ")
        assert lines[2].endswith(" s")
        assert report.labeled_cases == sum(int(line.split()[2]) for line in lines)
        # the library leaves handling to the application
        assert logging.getLogger("qbnets").handlers == []
        assert logging.getLogger("qbnets.verify").handlers == []

    def test_census_log_lines_carry_stage_seconds(self, caplog):
        with caplog.at_level(logging.INFO, logger="qbnets.verify"):
            dsep_forward_census(max_nodes=4, trials=2, seed=0)
        lines = [r.getMessage() for r in caplog.records if r.name == "qbnets.verify"]
        assert len(lines) == 4
        for n, line in enumerate(lines, start=1):
            m = re.fullmatch(
                rf"census n={n}: \d+ labeled cases, \d+ classes, (\d+) separated, "
                r"canonicalization (\S+) s, models (\S+) s in (\d+) slices, total (\S+) s",
                line,
            )
            assert m, line
            separated, slices = int(m[1]), int(m[4])
            canon, models, total = float(m[2]), float(m[3]), float(m[5])
            assert min(canon, models) >= 0.0
            assert canon + models == pytest.approx(total, abs=2e-3)
            # 2 binary trials: one slice holds every case of a node count
            assert slices == min(separated, 1)


class TestBpCampaignLog:
    def test_one_line_per_campaign(self, caplog):
        with caplog.at_level(logging.INFO, logger="qbnets"):
            report = bp_campaign(count=5, max_nodes=5, seed=3)
        lines = [r.getMessage() for r in caplog.records if r.name == "qbnets.verify"]
        assert len(lines) == 1
        assert lines[0].startswith(f"bp campaign: 5 nets, max deviation {report.max_deviation:.3g}, ")
        assert lines[0].endswith(" s")
        assert logging.getLogger("qbnets").handlers == []


class TestBatchedCensus:
    """The census's batched sampler and CMI against the per-case routine
    of ``tests/conftest.py``, on every case with n <= 4."""

    TRIALS = 50
    SEEDS_CARDS = [(1, 2), (2, 2), (1, 3), (2, 3)]

    @pytest.fixture(scope="class")
    def reference(self, census_cases):
        """Per-case largest |CMI|, {(seed, card): {n: [one per case]}}."""
        return {
            (seed, card): {
                n: [
                    per_case_census_cmi(
                        parents, masks, self.TRIALS, np.random.default_rng([seed, n, idx]), card
                    )
                    for idx, (parents, masks) in enumerate(census_cases[n])
                ]
                for n in range(2, 5)
            }
            for seed, card in self.SEEDS_CARDS
        }

    @pytest.mark.parametrize("seed, card", SEEDS_CARDS)
    def test_kets_equal_per_case_kets_bit_for_bit(self, census_cases, seed, card):
        # the sample streams are unchanged: same draws, same arithmetic
        for n in range(2, 5):
            cases = census_cases[n]
            rngs = [np.random.default_rng([seed, n, idx]) for idx in range(len(cases))]
            kets = _census_kets(cases, self.TRIALS, rngs, card)
            for idx, (parents, _) in enumerate(cases):
                ref = np.random.default_rng([seed, n, idx])
                expect = per_case_census_kets(parents, self.TRIALS, ref, card)
                assert np.array_equal(kets[idx], expect), (n, idx)
                # and the generator is left where the per-node draws leave it
                assert rngs[idx].normal() == ref.normal(), (n, idx)

    @pytest.mark.parametrize("seed, card", SEEDS_CARDS)
    def test_cmis_match_per_case_reference(self, census_cases, reference, seed, card):
        for n in range(2, 5):
            cases = census_cases[n]
            # in slices of the amplitude budget, as the census feeds it
            step = max(1, _CENSUS_AMPLITUDES // (self.TRIALS * card**n))
            rngs = [np.random.default_rng([seed, n, idx]) for idx in range(len(cases))]
            got = np.concatenate([
                _census_cmis(cases[lo : lo + step], self.TRIALS, rngs[lo : lo + step], card)
                for lo in range(0, len(cases), step)
            ])
            np.testing.assert_allclose(got, reference[seed, card][n], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("card", [2, 3])
    def test_report_independent_of_slicing(self, monkeypatch, caplog, census_cases, card):
        # one case a slice, the default budget, and one slice per node count
        reports, slices = [], []
        for budget in (1, _CENSUS_AMPLITUDES, 2**40):
            monkeypatch.setattr(verify, "_CENSUS_AMPLITUDES", budget)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="qbnets.verify"):
                report = dsep_forward_census(max_nodes=4, trials=self.TRIALS, seed=1, card=card)
            reports.append(report.to_json(include_wall_time=False))
            lines = [r.getMessage() for r in caplog.records]
            slices.append([int(re.search(r"in (\d+) slices", line)[1]) for line in lines])
        assert reports[0] == reports[1] == reports[2]
        cases = [len(census_cases[n]) for n in range(1, 5)]
        assert slices[0] == cases
        assert slices[2] == [min(c, 1) for c in cases]
        assert slices[0] != slices[1] != slices[2]

    @pytest.mark.parametrize("seed, card", SEEDS_CARDS)
    def test_report_matches_per_case_reference(self, census_cases, reference, seed, card):
        report = dsep_forward_census(max_nodes=4, trials=self.TRIALS, seed=seed, card=card)
        flat = [
            (cmi, n, case)
            for n in range(2, 5)
            for cmi, case in zip(reference[seed, card][n], census_cases[n])
        ]
        assignable = [cmi for cmi, _, case in flat if _sides_assignable_masks(case[0], *case[1])]
        worst, n, (parents, masks) = max(flat, key=lambda item: item[0])
        assert report.violations == sum(cmi > report.tol for cmi, _, _ in flat)
        assert report.violations_assignable == sum(cmi > report.tol for cmi in assignable)
        assert report.assignable_classes == len(assignable)
        assert report.max_cmi == pytest.approx(worst, rel=0, abs=1e-14)
        assert report.max_cmi_assignable == pytest.approx(max(assignable), rel=0, abs=1e-14)
        assert report.worst_case == f"n={n} parents={parents} a,b,z={masks}"


class TestCensusCases:
    """The census's graph half, the cases and their side-assignability,
    made afresh by every census."""

    @staticmethod
    def _report(**kwargs) -> str:
        return dsep_forward_census(**kwargs).to_json(include_wall_time=False)

    @pytest.mark.parametrize("card, trials", [(2, 50), (3, 7)])
    def test_cold_and_warm_reports_identical(self, card, trials):
        cold = self._report(max_nodes=4, trials=trials, seed=5, card=card)
        # another shape in between
        self._report(max_nodes=3, trials=trials + 1, seed=6, card=card + 1)
        assert self._report(max_nodes=4, trials=trials, seed=5, card=card) == cold

    def test_every_census_canonicalizes(self, monkeypatch):
        made = []

        def counted(n):
            made.append(n)
            return canonical_separated_cases(n)

        monkeypatch.setattr(verify, "canonical_separated_cases", counted)
        first = self._report(max_nodes=3, trials=4, seed=1)
        assert self._report(max_nodes=3, trials=4, seed=1) == first
        assert made == [1, 2, 3, 1, 2, 3]

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"max_nodes": 6}, CapacityError),
            ({"max_nodes": 5, "card": 17}, CapacityError),  # kets above the cap
            ({"trials": 0}, ValueError),
            ({"trials": 2.0}, ValueError),
            ({"card": 0}, ValueError),
            ({"tol": -1.0}, ValueError),
            ({"tol": float("nan")}, ValueError),
        ],
    )
    def test_no_refusal_leaves_an_entry(self, monkeypatch, kwargs, error):
        # each refusal comes before the graph half is made
        monkeypatch.setattr(
            verify, "canonical_separated_cases", TestCensusCap._canonicalization_reached
        )
        with pytest.raises(error):
            dsep_forward_census(**{"max_nodes": 4, "trials": 3, **kwargs})

    def test_callers_share_nothing_mutable(self):
        before = self._report(max_nodes=4, trials=3, seed=2)
        for n in range(1, 5):
            cases, _, _ = canonical_separated_cases(n)
            cases.reverse()
            cases[:1] = []
        assert self._report(max_nodes=4, trials=3, seed=2) == before

    def test_memory_held_to_one_slice(self):
        # a census of large kets holds one slice's kets and gather orders
        # while it runs (3.3 MB peak), and nothing after it returns.
        # Keeping each case's card^n gather order would hold
        # 209 x 8^4 x 8 bytes (6.8 MB) here, and 55 GB at n = 5 and card 16.
        dsep_forward_census(max_nodes=4, trials=1)
        tracemalloc.start()
        try:
            dsep_forward_census(max_nodes=4, trials=1, card=8)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 100_000
        assert peak < 5_000_000
