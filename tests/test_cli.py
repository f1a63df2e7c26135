import json
import subprocess
import sys

import numpy as np
import pytest

from qbnets import Dag, DensityMatrix, QBNet, node_tpm, posterior_oracle, quantum_cmi
from qbnets.cli import main
from qbnets.io import (
    density_from_json,
    density_to_json,
    extension_to_json,
    qbnet_from_json,
    qbnet_to_json,
    load_json,
    save_json,
)
from qbnets.sampling import (
    random_diagonal_extension,
    random_density_matrix,
    random_polytree_dag,
    random_qbnet,
    random_reducible_net,
)


@pytest.fixture
def screened_net_file(tmp_path, screened_pair_dag):
    net = random_qbnet(screened_pair_dag, np.random.default_rng(0))
    path = tmp_path / "net.json"
    save_json(path, qbnet_to_json(net))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDsep:
    def test_screened_pair_true(self, capsys, screened_net_file):
        code, out, _ = run(capsys, "dsep", screened_net_file, "--a", "x", "--b", "y", "--z", "lam")
        assert code == 0 and out.strip() == "true"

    def test_bare_graph_accepted(self, capsys, tmp_path):
        save_json(
            tmp_path / "dag.json",
            {
                "nodes": [
                    {"name": "x", "states": 2, "parents": []},
                    {"name": "y", "states": 2, "parents": ["x"]},
                ]
            },
        )
        code, out, _ = run(capsys, "dsep", str(tmp_path / "dag.json"), "--a", "x", "--b", "y")
        assert code == 0 and out.strip() == "false"

    def test_unknown_name_is_usage_error(self, capsys, screened_net_file):
        code, _, err = run(capsys, "dsep", screened_net_file, "--a", "nope", "--b", "y")
        assert code == 2 and "nope" in err


class TestInfer:
    def test_bp_and_oracle_agree(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        net = random_qbnet(random_polytree_dag(rng, 6), rng)
        path = tmp_path / "net.json"
        save_json(path, qbnet_to_json(net))
        name = net.dag.name(0)
        code, out_bp, _ = run(
            capsys, "infer", str(path), "--evidence", f"{name}=0", "--method", "bp"
        )
        code2, out_or, _ = run(
            capsys, "infer", str(path), "--evidence", f"{name}=0", "--method", "oracle"
        )
        assert code == 0 and code2 == 0
        bp = json.loads(out_bp)["posteriors"]
        oracle = json.loads(out_or)["posteriors"]
        assert bp.keys() == oracle.keys()
        for node in bp:
            np.testing.assert_allclose(bp[node], oracle[node], atol=1e-8)

    def test_impossible_evidence_exits_one(self, capsys, tmp_path):
        save_json(
            tmp_path / "net.json",
            {
                "nodes": [{"name": "a", "states": 2, "parents": []}],
                "tpms": {"a": [[1.0, 0.0], [0.0, 0.0]]},
            },
        )
        code, _, err = run(
            capsys, "infer", str(tmp_path / "net.json"), "--evidence", "a=1", "--method", "oracle"
        )
        assert code == 1 and "impossible evidence" in err

    def test_vanishing_belief_exits_one(self, capsys, tmp_path):
        # every message of this net is nonzero, but every belief is zero
        dag = Dag([("x", 2), ("y", 2), ("z", 2)], [(0, 1), (0, 2)])
        root = node_tpm(0, (), [2 ** -0.5] * 2)
        net = QBNet(dag, [root, node_tpm(1, (0,), np.eye(2)), node_tpm(2, (0,), np.eye(2))])
        save_json(tmp_path / "net.json", qbnet_to_json(net))
        code, out, err = run(
            capsys, "infer", str(tmp_path / "net.json"), "--evidence", "y=0,z=1", "--method", "bp"
        )
        assert code == 1 and out == "" and "impossible evidence" in err

    def test_non_finite_table_is_input_error(self, capsys, tmp_path):
        # json writes and reads NaN as a bare token
        save_json(
            tmp_path / "net.json",
            {
                "nodes": [{"name": "a", "states": 2, "parents": []}],
                "tpms": {"a": [[float("nan"), 0.0], [0.0, 0.0]]},
            },
        )
        for method in ("bp", "oracle"):
            code, out, err = run(capsys, "infer", str(tmp_path / "net.json"), "--method", method)
            assert code == 2 and out == "" and "non-finite" in err

    def test_overflowing_table_is_input_error(self, capsys, tmp_path):
        # squaring 1e200 overflows: the loader rejects it instead of warning
        save_json(
            tmp_path / "net.json",
            {
                "nodes": [{"name": "a", "states": 2, "parents": []}],
                "tpms": {"a": [[1e200, 0.0], [1e200, 0.0]]},
            },
        )
        code, out, err = run(capsys, "infer", str(tmp_path / "net.json"))
        assert code == 2 and out == "" and "unit-norm" in err

    def test_oracle_over_the_cap_exits_one(self, capsys, tmp_path):
        # 21 binary nodes, none observed: the hidden joint is 2^21 > 2^20
        dag = Dag([(f"v{i}", 2) for i in range(21)], [(i - 1, i) for i in range(1, 21)])
        save_json(tmp_path / "chain.json", qbnet_to_json(random_qbnet(dag, np.random.default_rng(5))))
        code, out, err = run(capsys, "infer", str(tmp_path / "chain.json"), "--method", "oracle")
        assert code == 1 and out == "" and "hidden joint would hold 2097152 entries" in err

    def test_oracle_matches_per_node_oracle(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        net = random_qbnet(random_polytree_dag(rng, 7, max_card=3), rng)
        path = tmp_path / "net.json"
        save_json(path, qbnet_to_json(net))
        net = qbnet_from_json(load_json(path))
        dag = net.dag
        evidence = {1: 0, 4: 1}
        spec = ",".join(f"{dag.name(i)}={v}" for i, v in evidence.items())
        for query in ([5, 0, 3], []):
            names = ",".join(dag.name(i) for i in query)
            code, out, _ = run(
                capsys, "infer", str(path), "--evidence", spec, "--method", "oracle",
                *(("--query", names) if names else ()),
            )
            assert code == 0
            got = json.loads(out)["posteriors"]
            want = sorted(query) or [i for i in range(dag.node_count) if i not in evidence]
            assert list(got) == [dag.name(i) for i in want]
            for i in want:
                np.testing.assert_allclose(
                    got[dag.name(i)], posterior_oracle(net, [i], evidence), rtol=0, atol=1e-12
                )

    def test_query_selection(self, capsys, screened_net_file):
        code, out, _ = run(capsys, "infer", screened_net_file, "--method", "oracle", "--query", "x")
        assert code == 0
        assert list(json.loads(out)["posteriors"].keys()) == ["x"]

    @pytest.mark.parametrize("method", ["bp", "oracle"])
    def test_query_in_evidence_is_usage_error(self, capsys, screened_net_file, method):
        code, out, err = run(
            capsys, "infer", screened_net_file, "--evidence", "y=1",
            "--query", "x,y", "--method", method,
        )
        assert code == 2 and out == ""
        assert "query nodes must be disjoint from evidence nodes" in err

    @pytest.mark.parametrize("method", ["bp", "oracle"])
    @pytest.mark.parametrize(
        "evidence, message",
        [
            ("-1=0", "unknown node name '-1'"),
            ("n3=0", "unknown node name 'n3'"),
            ("n1=-1", "state -1 out of range"),
            ("n1=3", "state 3 out of range"),
        ],
    )
    def test_evidence_out_of_range_is_usage_error(self, capsys, tmp_path, method, evidence, message):
        # nodes n0..n2, n1 with three states
        dag = Dag([("n0", 2), ("n1", 3), ("n2", 2)], [(0, 1), (1, 2)])
        path = str(tmp_path / "net.json")
        save_json(path, qbnet_to_json(random_qbnet(dag, np.random.default_rng(19))))
        code, out, err = run(capsys, "infer", path, f"--evidence={evidence}", "--method", method)
        assert code == 2 and out == "" and message in err

    def test_evidence_item_without_state_is_usage_error(self, capsys, screened_net_file):
        code, out, err = run(capsys, "infer", screened_net_file, "--evidence", "x")
        assert code == 2 and out == "" and "is not name=state" in err

    def test_repeated_evidence_node_is_usage_error(self, capsys, screened_net_file):
        code, out, err = run(capsys, "infer", screened_net_file, "--evidence", "y=1,y=0")
        assert code == 2 and out == "" and "twice" in err

    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        # the parser is built once per process; no flag may leak into the next call
        dag = Dag([("a", 2), ("b", 3), ("c", 2), ("d", 2)], [(0, 1), (3, 1), (1, 2)])
        path = str(tmp_path / "net.json")
        save_json(path, qbnet_to_json(random_qbnet(dag, np.random.default_rng(4))))
        calls = [
            ("--query", "a"),
            ("--method", "oracle"),
            ("--evidence", "c=1,d=0"),
            (),
            ("--evidence", "b=2", "--method", "oracle", "--query", "a,c"),
            ("--query", "b,d"),
        ]
        for flags in calls:
            argv = ["infer", path, *flags]
            fresh = subprocess.run(
                [sys.executable, "-m", "qbnets.cli", *argv], capture_output=True, text=True
            )
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            assert code == 0


class TestEntropy:
    def test_non_finite_state_is_input_error(self, capsys, tmp_path):
        save_json(
            tmp_path / "rho.json",
            {
                "labels": [{"name": "x", "dim": 2}],
                "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]],
            },
        )
        code, out, err = run(capsys, "entropy", str(tmp_path / "rho.json"))
        assert code == 2 and out == "" and "non-finite" in err

    def test_huge_entries_are_an_invalid_state(self, capsys, tmp_path):
        # a Hermiticity check on these entries would overflow
        save_json(
            tmp_path / "rho.json",
            {
                "labels": [{"name": "x", "dim": 2}],
                "matrix": [[[0.5, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.5, 0.0]]],
            },
        )
        code, out, err = run(capsys, "entropy", str(tmp_path / "rho.json"))
        # an invalid state, as for any matrix that fails the state checks
        assert code == 1 and out == "" and "real or imaginary part" in err

    def test_plain_entropy(self, capsys, tmp_path):
        rho = random_density_matrix((("x", 2),), np.random.default_rng(2))
        save_json(tmp_path / "rho.json", density_to_json(rho))
        code, out, _ = run(capsys, "entropy", str(tmp_path / "rho.json"))
        w = np.linalg.eigvalsh(rho.matrix)
        assert code == 0
        assert float(out) == pytest.approx(float(-(w * np.log(w)).sum()), abs=1e-10)

    def test_mutual_and_cmi(self, capsys, tmp_path):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        bell = np.outer(v, v.conj())
        save_json(
            tmp_path / "bell.json",
            density_to_json_from(bell),
        )
        code, out, _ = run(capsys, "entropy", str(tmp_path / "bell.json"), "--mutual", "x:y")
        assert code == 0 and float(out) == pytest.approx(2 * np.log(2), abs=1e-10)
        code, out, _ = run(capsys, "entropy", str(tmp_path / "bell.json"), "--conditional", "y")
        assert code == 0 and float(out) == pytest.approx(-np.log(2), abs=1e-10)

    @pytest.fixture
    def ghz_file(self, tmp_path):
        """The three-qubit GHZ state over a, b, c, its nonzero entries 1/2."""
        m = np.zeros((8, 8))
        m[np.ix_([0, 7], [0, 7])] = 0.5
        save_json(tmp_path / "ghz.json", density_to_json(DensityMatrix((("a", 2), ("b", 2), ("c", 2)), m)))
        return str(tmp_path / "ghz.json")

    def test_pure_state_prints_positive_zero(self, capsys, ghz_file):
        code, out, _ = run(capsys, "entropy", ghz_file)
        assert code == 0 and out == "0.0\n"

    def test_cmi_prints_quantum_cmi(self, capsys, ghz_file):
        code, out, _ = run(capsys, "entropy", ghz_file, "--cmi", "a:b|c")
        want = quantum_cmi(density_from_json(load_json(ghz_file)), ["a"], ["b"], ["c"])
        assert code == 0 and out == f"{want}\n"
        assert want == pytest.approx(np.log(2), abs=1e-12)

    @pytest.mark.parametrize("flag, spec, message", [
        ("--cmi", "a:b", "x:y|z"), ("--cmi", "a|c", "x:y|z"), ("--mutual", "a", "two groups"),
    ])
    def test_malformed_groups_exit_two(self, capsys, ghz_file, flag, spec, message):
        code, out, err = run(capsys, "entropy", ghz_file, flag, spec)
        assert code == 2 and out == "" and message in err


def density_to_json_from(matrix):
    return density_to_json(DensityMatrix((("x", 2), ("y", 2)), matrix))


class TestEsq:
    def test_value_and_witness_file(self, capsys, tmp_path):
        mix = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        save_json(tmp_path / "rho.json", density_to_json_from(mix))
        witness = tmp_path / "witness.json"
        code, out, _ = run(
            capsys,
            "esq",
            str(tmp_path / "rho.json"),
            "--restarts", "3",
            "--budget", "300",
            "--witness", str(witness),
        )
        assert code == 0
        assert json.loads(out)["value"] <= 1e-3
        assert witness.exists()
        from qbnets.io import extension_from_json

        ext = extension_from_json(load_json(witness))
        assert abs(float(ext.weights.sum()) - 1.0) < 1e-10

    @pytest.mark.parametrize("flag", ["--budget", "--restarts"])
    def test_vacuous_search_exits_2(self, capsys, tmp_path, flag):
        mix = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        save_json(tmp_path / "rho.json", density_to_json_from(mix))
        code, out, err = run(capsys, "esq", str(tmp_path / "rho.json"), flag, "0")
        assert code == 2 and out == ""
        assert f"{flag[2:]} must be at least 1" in err


class TestConstructionCommands:
    def test_from_density_round_trip(self, capsys, tmp_path):
        ext = random_diagonal_extension(np.random.default_rng(3), (2, 2), 2)
        save_json(tmp_path / "ext.json", extension_to_json(ext))
        out_net = tmp_path / "net.json"
        code, _, _ = run(capsys, "from-density", str(tmp_path / "ext.json"), "-o", str(out_net))
        assert code == 0
        written = load_json(out_net)
        reparsed = qbnet_from_json(written)
        rewritten = qbnet_to_json(reparsed)
        for name, flat in written["tpms"].items():
            np.testing.assert_allclose(flat, rewritten["tpms"][name], atol=1e-12)

    def test_reduce_reducible(self, capsys, tmp_path):
        net = random_reducible_net(np.random.default_rng(4))
        save_json(tmp_path / "net.json", qbnet_to_json(net))
        out = tmp_path / "reduced.json"
        code, _, _ = run(capsys, "reduce", str(tmp_path / "net.json"), "-o", str(out))
        assert code == 0
        reduced = qbnet_from_json(load_json(out))
        assert reduced.dag.node_count == 3

    def test_reduce_rejects_dependent(self, capsys, tmp_path):
        ext = random_diagonal_extension(np.random.default_rng(5), (2, 2), 2)
        save_json(tmp_path / "ext.json", extension_to_json(ext))
        net_path = tmp_path / "net.json"
        run(capsys, "from-density", str(tmp_path / "ext.json"), "-o", str(net_path))
        code, _, err = run(capsys, "reduce", str(net_path), "-o", str(tmp_path / "r.json"))
        assert code == 1 and "reduction" in err


class TestVerifyCommand:
    def test_dsep_auto_selects_direction(self, capsys, tmp_path, screened_pair_dag):
        net = random_qbnet(screened_pair_dag, np.random.default_rng(6))
        path = tmp_path / "net.json"
        save_json(path, qbnet_to_json(net))
        code, out, _ = run(
            capsys, "verify", "dsep", "--dag", str(path),
            "--a", "x", "--b", "y", "--z", "lam", "--trials", "10",
        )
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "forward" and report["passed"]

        code, out, _ = run(
            capsys, "verify", "dsep", "--dag", str(path),
            "--a", "x", "--b", "y", "--trials", "50",
        )
        report = json.loads(out)
        assert code == 0
        assert report["kind"] == "witness" and report["passed"]

    def test_failed_forward_check_exits_one_and_prints_its_report(self, capsys, tmp_path):
        # a -> c <- b with c traced out: a and b are d-separated but end
        # up entangled, so the forward check fails
        path = tmp_path / "collider.json"
        save_json(
            path,
            {
                "nodes": [
                    {"name": "a", "states": 2},
                    {"name": "b", "states": 2},
                    {"name": "c", "states": 2, "parents": ["a", "b"]},
                ]
            },
        )
        code, out, _ = run(
            capsys, "verify", "dsep", "--dag", str(path), "--a", "a", "--b", "b", "--trials", "5"
        )
        report = json.loads(out)
        assert code == 1
        assert report["kind"] == "forward" and not report["passed"]
        assert report["max_cmi"] == pytest.approx(0.65, abs=0.01)

    def test_bp_campaign(self, capsys):
        code, out, _ = run(capsys, "verify", "bp", "--trials", "5", "--max-nodes", "5")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_zero_trials_exits_two(self, capsys, tmp_path, screened_pair_dag):
        net = random_qbnet(screened_pair_dag, np.random.default_rng(6))
        path = tmp_path / "net.json"
        save_json(path, qbnet_to_json(net))
        for b in ("y", "x0"):  # forward check, then witness search
            code, out, err = run(
                capsys, "verify", "dsep", "--dag", str(path),
                "--a", "x", "--b", b, "--z", "lam", "--trials", "0",
            )
            assert code == 2 and out == "" and "trials" in err
        code, out, err = run(capsys, "verify", "bp", "--trials", "0")
        assert code == 2 and out == "" and "count" in err

    def test_dsep_without_dag_exits_two(self, capsys):
        code, out, err = run(capsys, "verify", "dsep", "--a", "x", "--b", "y")
        assert code == 2 and out == "" and "needs --dag" in err

    def test_dsep_without_tested_sets_exits_two(self, capsys, tmp_path, screened_pair_dag):
        path = tmp_path / "dag.json"
        save_json(path, qbnet_to_json(random_qbnet(screened_pair_dag, np.random.default_rng(6))))
        for flags in (("--z", "lam"), (), ("--a", "x", "--z", "lam")):
            code, out, err = run(capsys, "verify", "dsep", "--dag", str(path), *flags)
            assert code == 2 and out == "" and "is empty" in err


class TestErrorHandling:
    def test_malformed_json_exits_two_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [,]}')
        code, _, err = run(capsys, "dsep", str(bad), "--a", "x", "--b", "y")
        assert code == 2 and "line 1" in err

    def test_unknown_flag_exits_two(self, capsys, screened_net_file):
        code, _, _ = run(capsys, "dsep", screened_net_file, "--a", "x", "--b", "y", "--frobnicate", "1")
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "dsep", "no-such-file.json", "--a", "x", "--b", "y")
        assert code == 2

    @pytest.mark.parametrize(
        "obj, path",
        [
            ({"nodes": 7, "tpms": {}}, "nodes: expected a list"),
            (
                {"nodes": [{"name": "a", "states": 2, "parents": "a"}], "tpms": {}},
                "nodes[0].parents: expected a list",
            ),
            ({"nodes": [{"name": "a", "states": None}], "tpms": {}}, "nodes[0].states: expected an integer"),
        ],
    )
    def test_wrongly_typed_net_exits_two_with_path(self, capsys, tmp_path, obj, path):
        save_json(tmp_path / "net.json", obj)
        code, _, err = run(capsys, "infer", str(tmp_path / "net.json"))
        assert code == 2 and path in err

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        code, _, err = run(capsys, "dsep", str(bad), "--a", "x", "--b", "y")
        assert code == 2 and "nested" in err
