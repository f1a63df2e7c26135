"""JSON file formats for nets, graphs, states, extensions, and factor graphs.

Complex numbers are written as ``[re, im]`` pairs of decimal doubles.
Net tables are flattened with the node's own state varying fastest,
then the parents in declared order; factor tables with the first
neighbor's state varying fastest. Loaders validate structure and the
unit-norm table condition (rejecting deviations beyond 1e-8, then
renormalizing the surviving roundoff away). A value of the wrong JSON
type raises ``ValueError`` naming its path in the file, as in
``nodes[0].parents: expected a list``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .bipartite import FactorGraphNet
from .graph import Dag
from .network import QBNet, node_tpm
from .qinfo import DensityMatrix, DiagonalExtension

LOAD_NORM_ATOL = 1e-8


def _pairs(flat: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in flat]


def _from_pairs(pairs, what: str) -> np.ndarray:
    try:
        arr = np.array(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: entries must be [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what}: entries must be [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has a non-finite entry")
    return arr[:, 0] + 1j * arr[:, 1]


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number"}


def _typed(value: Any, kind: type, path: str):
    """``value`` if it has the JSON type ``kind`` (``float``: any number)."""
    ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok or (kind in (int, float) and isinstance(value, bool)):
        raise ValueError(f"{path}: expected {_KINDS[kind]}")
    return value


def _member(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field(obj: dict, key: str, kind: type, path: str = ""):
    """The required member ``key`` of the object at ``path``, typed."""
    if key not in obj:
        raise ValueError(f"{path or 'file'}: missing key {key!r}")
    return _typed(obj[key], kind, _member(path, key))


def _list_of(obj: dict, key: str, kind: type, path: str = "") -> list:
    """The required list member ``key``, each element of type ``kind``."""
    items = _field(obj, key, list, path)
    for k, item in enumerate(items):
        _typed(item, kind, f"{_member(path, key)}[{k}]")
    return items


# -- qbnets -----------------------------------------------------------------


def qbnet_to_json(net: QBNet) -> dict:
    dag = net.dag
    nodes = [
        {
            "name": dag.name(j),
            "states": dag.cardinality(j),
            "parents": [dag.name(p) for p in dag.parents(j)],
        }
        for j in range(dag.node_count)
    ]
    tpms = {
        dag.name(j): _pairs(net.tpms[j].table.ravel(order="F"))
        for j in range(dag.node_count)
    }
    return {"nodes": nodes, "tpms": tpms}


def dag_from_json(obj: dict) -> Dag:
    _typed(obj, dict, "net file")
    nodes_spec = _list_of(obj, "nodes", dict)
    nodes = []
    parent_names = []
    for k, entry in enumerate(nodes_spec):
        path = f"nodes[{k}]"
        nodes.append((_field(entry, "name", str, path), _field(entry, "states", int, path)))
        parent_names.append(_list_of(entry, "parents", str, path) if "parents" in entry else [])
    index = {name: i for i, (name, _) in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError("net file: duplicate node names")
    edges = []
    for child, ((name, _), pnames) in enumerate(zip(nodes, parent_names)):
        for pname in pnames:
            if pname not in index:
                raise ValueError(f"node {name!r} lists unknown parent {pname!r}")
            edges.append((index[pname], child))
    return Dag(nodes, edges)


def qbnet_from_json(obj: dict) -> QBNet:
    dag = dag_from_json(obj)
    tables = _field(obj, "tpms", dict)
    tpms = []
    for j in range(dag.node_count):
        name = dag.name(j)
        if name not in tables:
            raise ValueError(f"net file: no table for node {name!r}")
        flat = _from_pairs(tables[name], f"table of {name!r}")
        shape = (dag.cardinality(j),) + tuple(
            dag.cardinality(p) for p in dag.parents(j)
        )
        if flat.size != math.prod(shape):
            raise ValueError(
                f"table of {name!r} has {flat.size} entries, expected {math.prod(shape)}"
            )
        table = flat.reshape(shape, order="F")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
            sums = (np.abs(table) ** 2).sum(axis=0)
        err = float(np.max(np.abs(sums - 1.0))) if sums.size else 0.0
        if err > LOAD_NORM_ATOL:
            raise ValueError(
                f"table of {name!r} violates the unit-norm condition by {err:.3g}"
            )
        table = table / np.sqrt(sums)
        tpms.append(node_tpm(j, dag.parents(j), table))
    return QBNet(dag, tpms)


# -- density matrices and extensions ----------------------------------------


def _labels_to_json(labels) -> list[dict]:
    return [{"name": n, "dim": d} for n, d in labels]


def _labels_from_json(obj: dict) -> tuple[tuple[str, int], ...]:
    return tuple(
        (_field(entry, "name", str, f"labels[{k}]"), _field(entry, "dim", int, f"labels[{k}]"))
        for k, entry in enumerate(_list_of(obj, "labels", dict))
    )


def _matrix_to_json(mat: np.ndarray) -> list:
    return [_pairs(row) for row in mat]


def _matrix_from_json(rows, what: str) -> np.ndarray:
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: matrix entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what}: matrix must be square with [re, im] entries")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what}: matrix has a non-finite entry")
    return arr[..., 0] + 1j * arr[..., 1]


def density_to_json(rho: DensityMatrix) -> dict:
    return {
        "labels": _labels_to_json(rho.labels),
        "matrix": _matrix_to_json(rho.matrix),
    }


def density_from_json(obj: dict) -> DensityMatrix:
    _typed(obj, dict, "state file")
    labels = _labels_from_json(obj)
    matrix = _matrix_from_json(_field(obj, "matrix", list), "state file")
    return DensityMatrix(labels, matrix)


def extension_to_json(ext: DiagonalExtension) -> dict:
    return {
        "weights": [float(w) for w in ext.weights],
        "components": [_matrix_to_json(c.matrix) for c in ext.components],
        "labels": _labels_to_json(ext.component_labels),
    }


def extension_from_json(obj: dict) -> DiagonalExtension:
    _typed(obj, dict, "extension file")
    weights = _list_of(obj, "weights", float)
    comps = _field(obj, "components", list)
    mats = [
        _matrix_from_json(entry, f"extension component {k}")
        for k, entry in enumerate(comps)
    ]
    if "labels" in obj:
        labels = _labels_from_json(obj)
    else:
        # the format allows omitting labels; a square split is the only
        # unambiguous default
        dim = mats[0].shape[0] if mats else 0
        side = int(round(dim**0.5))
        if side * side != dim:
            raise ValueError(
                "extension file has no labels and the component dimension "
                f"{dim} is not a perfect square; add a 'labels' key"
            )
        labels = (("x", side), ("y", side))
    components = [DensityMatrix(labels, m) for m in mats]
    return DiagonalExtension(weights, components)


# -- factor graphs -----------------------------------------------------------


def factor_graph_to_json(net: FactorGraphNet) -> dict:
    roots = [{"name": n, "states": c} for n, c in net.roots]
    factors = []
    for f in net.factors:
        factors.append(
            {
                "name": f.name,
                "nb": [net.roots[i][0] for i in f.neighbors],
                "table": _pairs(f.table.ravel(order="F")),
            }
        )
    return {"roots": roots, "factors": factors}


def factor_graph_from_json(obj: dict) -> FactorGraphNet:
    _typed(obj, dict, "factor graph file")
    roots = [
        (_field(r, "name", str, f"roots[{k}]"), _field(r, "states", int, f"roots[{k}]"))
        for k, r in enumerate(_list_of(obj, "roots", dict))
    ]
    index = {name: i for i, (name, _) in enumerate(roots)}
    factors = []
    for k, entry in enumerate(_list_of(obj, "factors", dict)):
        path = f"factors[{k}]"
        name = _field(entry, "name", str, path)
        nb = []
        for rname in _list_of(entry, "nb", str, path):
            if rname not in index:
                raise ValueError(f"factor {name!r} names unknown root {rname!r}")
            nb.append(index[rname])
        flat = _from_pairs(_field(entry, "table", list, path), f"table of {name!r}")
        shape = tuple(roots[i][1] for i in nb)
        expected = math.prod(shape)
        if flat.size != expected:
            raise ValueError(
                f"table of factor {name!r} has {flat.size} entries, expected {expected}"
            )
        table = flat.reshape(shape, order="F")
        factors.append((name, nb, table))
    return FactorGraphNet(roots, factors)


# -- path helpers ------------------------------------------------------------


def load_json(path) -> dict:
    text = Path(path).read_text()
    return json.loads(text)


def save_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=False) + "\n")
