import json

import numpy as np
import pytest

from qbnets import amplitude_tensor
from qbnets.io import (
    dag_from_json,
    density_from_json,
    density_to_json,
    extension_from_json,
    extension_to_json,
    factor_graph_from_json,
    factor_graph_to_json,
    qbnet_from_json,
    qbnet_to_json,
)
from qbnets.network import COLUMN_NORM_ATOL, _column_norm_error
from qbnets.sampling import (
    random_diagonal_extension,
    random_density_matrix,
    random_factor_tree,
    random_polytree_dag,
    random_qbnet,
)


class TestQbnetRoundTrip:
    def test_tables_and_graph_survive(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            dag = random_polytree_dag(rng, int(rng.integers(1, 7)))
            net = random_qbnet(dag, rng)
            back = qbnet_from_json(json.loads(json.dumps(qbnet_to_json(net))))
            assert back.dag == net.dag
            for mine, theirs in zip(net.tpms, back.tpms):
                np.testing.assert_allclose(theirs.table, mine.table, atol=1e-12)

    def test_flat_order_is_own_state_fastest(self):
        rng = np.random.default_rng(1)
        dag = random_polytree_dag(rng, 2)
        net = random_qbnet(dag, rng)
        obj = qbnet_to_json(net)
        child = 1 if net.dag.parents(1) else 0
        flat = obj["tpms"][net.dag.name(child)]
        table = net.tpms[child].table
        assert flat[0] == pytest.approx([table[0, 0].real, table[0, 0].imag])
        assert flat[1] == pytest.approx([table[1, 0].real, table[1, 0].imag])

    def test_norm_violation_rejected(self):
        obj = {
            "nodes": [{"name": "a", "states": 2, "parents": []}],
            "tpms": {"a": [[1.0, 0.0], [0.1, 0.0]]},
        }
        with pytest.raises(ValueError, match="unit-norm"):
            qbnet_from_json(obj)

    def test_mild_roundoff_renormalized(self):
        eps = 3e-9
        obj = {
            "nodes": [{"name": "a", "states": 2, "parents": []}],
            "tpms": {"a": [[1.0 + eps, 0.0], [0.0, 0.0]]},
        }
        net = qbnet_from_json(obj)
        assert abs(net.tpms[0].table[0]) == pytest.approx(1.0, abs=1e-15)

    def test_table_off_by_1e_9_loads_renormalized(self):
        # off by more than node_tpm allows, less than the loader allows:
        # the loader's own check is its only norm pass, and the table
        # comes back within the constructor's tolerance
        rng = np.random.default_rng(2)
        net = random_qbnet(random_polytree_dag(rng, 4, max_card=3), rng)
        child = next(j for j in range(4) if net.dag.parents(j))
        want = net.tpms[child].table
        off = want * np.sqrt(1.0 + 1e-9)
        assert COLUMN_NORM_ATOL < _column_norm_error(off) == pytest.approx(1e-9, rel=1e-6)
        obj = qbnet_to_json(net)
        obj["tpms"][net.dag.name(child)] = [[v.real, v.imag] for v in off.ravel(order="F")]
        got = qbnet_from_json(obj).tpms[child]
        assert got.table.dtype == np.complex128 and got.table.shape == want.shape
        assert got.column_norm_error() <= COLUMN_NORM_ATOL
        np.testing.assert_allclose(got.table, want, rtol=0, atol=1e-15)

    def test_unknown_parent_rejected(self):
        obj = {
            "nodes": [{"name": "a", "states": 2, "parents": ["ghost"]}],
            "tpms": {"a": [[1.0, 0.0], [0.0, 0.0]]},
        }
        with pytest.raises(ValueError, match="ghost"):
            dag_from_json(obj)


class TestRefusals:
    """Well-typed files that still describe no net or factor graph."""

    A = {"name": "a", "states": 2}

    def test_duplicate_node_names(self):
        with pytest.raises(ValueError, match="duplicate node names"):
            dag_from_json({"nodes": [self.A, self.A]})

    def test_node_without_table(self):
        obj = {"nodes": [self.A, {"name": "b", "states": 2}], "tpms": {"a": [[1, 0], [0, 0]]}}
        with pytest.raises(ValueError, match="no table for node 'b'"):
            qbnet_from_json(obj)

    def test_net_table_with_wrong_entry_count(self):
        obj = {"nodes": [self.A], "tpms": {"a": [[1, 0], [0, 0], [0, 0]]}}
        with pytest.raises(ValueError, match="table of 'a' has 3 entries, expected 2"):
            qbnet_from_json(obj)

    def test_factor_table_with_wrong_entry_count(self):
        obj = {"roots": [self.A], "factors": [{"name": "f", "nb": ["a"], "table": [[1, 0]]}]}
        with pytest.raises(ValueError, match="table of factor 'f' has 1 entries, expected 2"):
            factor_graph_from_json(obj)

    def test_factor_naming_an_unknown_root(self):
        obj = {"roots": [self.A], "factors": [{"name": "f", "nb": ["b"], "table": [[1, 0], [0, 0]]}]}
        with pytest.raises(ValueError, match="factor 'f' names unknown root 'b'"):
            factor_graph_from_json(obj)


class TestDensityRoundTrip:
    def test_state_survives(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix((("x", 2), ("y", 3)), rng)
        back = density_from_json(json.loads(json.dumps(density_to_json(rho))))
        assert back.labels == rho.labels
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=0)

    def test_extension_survives(self):
        rng = np.random.default_rng(3)
        ext = random_diagonal_extension(rng, (2, 3), 2)
        back = extension_from_json(json.loads(json.dumps(extension_to_json(ext))))
        np.testing.assert_allclose(back.weights, ext.weights, atol=0)
        for mine, theirs in zip(ext.components, back.components):
            assert theirs.labels == mine.labels
            np.testing.assert_allclose(theirs.matrix, mine.matrix, atol=0)

    def test_extension_without_labels_needs_square_dim(self):
        rng = np.random.default_rng(4)
        ext = random_diagonal_extension(rng, (2, 2), 1)
        obj = extension_to_json(ext)
        del obj["labels"]
        back = extension_from_json(obj)
        assert back.component_labels == (("x", 2), ("y", 2))

        ext6 = random_diagonal_extension(rng, (2, 3), 1)
        obj = extension_to_json(ext6)
        del obj["labels"]
        with pytest.raises(ValueError, match="labels"):
            extension_from_json(obj)


class TestMatrixRejected:
    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[[1, 0], [0, 0]]], "not square"),
            ([[1, 0], [0, 1]], "pairs"),
            ([[[1, 0], [0, 0]], [[0, 0]]], "pairs"),
            ([[[float("nan"), 0], [0, 0]], [[0, 0], [0, 0]]], "non-finite"),
        ],
        ids=["one_by_two", "real_entries", "ragged_rows", "nan"],
    )
    def test_state_matrix(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            density_from_json({"labels": [{"name": "x", "dim": 2}], "matrix": matrix})


class TestFactorGraphRoundTrip:
    def test_survives(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            fg = random_factor_tree(rng)
            back = factor_graph_from_json(json.loads(json.dumps(factor_graph_to_json(fg))))
            assert back.roots == fg.roots
            for mine, theirs in zip(fg.factors, back.factors):
                assert theirs.name == mine.name
                assert theirs.neighbors == mine.neighbors
                np.testing.assert_allclose(theirs.table, mine.table, atol=0)

    def test_first_neighbor_varies_fastest(self):
        fg = factor_graph_from_json(
            {
                "roots": [{"name": "a", "states": 2}, {"name": "b", "states": 2}],
                "factors": [
                    {
                        "name": "f",
                        "nb": ["a", "b"],
                        "table": [[1, 0], [2, 0], [3, 0], [4, 0]],
                    }
                ],
            }
        )
        np.testing.assert_allclose(fg.factors[0].table, [[1, 3], [2, 4]])


class TestAmplitudePreservation:
    def test_loaded_net_has_same_joint(self):
        rng = np.random.default_rng(6)
        dag = random_polytree_dag(rng, 5)
        net = random_qbnet(dag, rng)
        back = qbnet_from_json(qbnet_to_json(net))
        np.testing.assert_allclose(
            amplitude_tensor(back).data, amplitude_tensor(net).data, atol=1e-12
        )


class TestWrongJsonTypes:
    """Every wrongly typed value is a ValueError naming its path."""

    NODE = {"name": "a", "states": 2, "parents": []}

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([], "net file: expected an object"),
            ({"nodes": 7, "tpms": {}}, "nodes: expected a list"),
            ({"nodes": False, "tpms": {}}, "nodes: expected a list"),
            ({"nodes": [3], "tpms": {}}, "nodes[0]: expected an object"),
            ({"nodes": [{**NODE, "parents": "a"}], "tpms": {}}, "nodes[0].parents: expected a list"),
            ({"nodes": [{**NODE, "parents": [{}]}], "tpms": {}}, "nodes[0].parents[0]: expected a string"),
            ({"nodes": [{**NODE, "states": None}], "tpms": {}}, "nodes[0].states: expected an integer"),
            ({"nodes": [{**NODE, "states": True}], "tpms": {}}, "nodes[0].states: expected an integer"),
            ({"nodes": [{**NODE, "name": ["a"]}], "tpms": {}}, "nodes[0].name: expected a string"),
            ({"nodes": [NODE], "tpms": 5}, "tpms: expected an object"),
            ({"nodes": [{"states": 2}], "tpms": {}}, "nodes[0]: missing key 'name'"),
        ],
    )
    def test_net(self, obj, message):
        with pytest.raises(ValueError) as info:
            qbnet_from_json(obj)
        assert message in str(info.value)

    def test_state(self):
        with pytest.raises(ValueError, match=r"labels\[0\]\.dim: expected an integer"):
            density_from_json({"labels": [{"name": "x", "dim": "2"}], "matrix": [[[1, 0]]]})
        with pytest.raises(ValueError, match="labels: expected a list"):
            density_from_json({"labels": {"name": "x"}, "matrix": [[[1, 0]]]})

    def test_extension(self):
        with pytest.raises(ValueError, match=r"weights\[0\]: expected a number"):
            extension_from_json({"weights": [{}], "components": []})

    def test_factor_graph(self):
        obj = {
            "roots": [{"name": "a", "states": 2}],
            "factors": [{"name": "f", "nb": "a", "table": [[1, 0], [0, 0]]}],
        }
        with pytest.raises(ValueError, match=r"factors\[0\]\.nb: expected a list"):
            factor_graph_from_json(obj)
