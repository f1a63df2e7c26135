"""Property tests of the file formats. Needs hypothesis; skipped without it.

* arbitrary JSON handed to the net loader either loads or raises
  ValueError, never any other exception;
* nets, density matrices, extensions and factor graphs survive
  ``*_to_json`` -> ``json.dumps``/``loads`` -> ``*_from_json``;
* arbitrary JSON given as the input file of any subcommand makes
  ``cli.main`` return 0, 1 or 2 and raise nothing.
"""

import contextlib
import io
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qbnets import Dag, DensityMatrix, DiagonalExtension  # noqa: E402
from qbnets.bipartite import FactorGraphNet  # noqa: E402
from qbnets.cli import main  # noqa: E402
from qbnets.io import (  # noqa: E402
    density_from_json,
    density_to_json,
    extension_from_json,
    extension_to_json,
    factor_graph_from_json,
    factor_graph_to_json,
    qbnet_from_json,
    qbnet_to_json,
)
from qbnets.sampling import random_factor_tree, random_qbnet, random_reducible_net  # noqa: E402

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)
NAMES = st.sampled_from(["a", "b", "c"])
PAIRS = st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2), max_size=4)
# net-shaped objects whose members are sometimes valid, sometimes any JSON,
# so the search reaches past the top-level key checks
NODE = st.fixed_dictionaries(
    {},
    optional={
        "name": NAMES | JSON,
        "states": st.integers(0, 3) | JSON,
        "parents": st.lists(NAMES, max_size=2) | JSON,
    },
)
NET = st.fixed_dictionaries(
    {},
    optional={
        "nodes": st.lists(NODE | JSON, max_size=3) | JSON,
        "tpms": st.dictionaries(NAMES, PAIRS | JSON, max_size=3) | JSON,
    },
)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(NET | JSON)
def test_arbitrary_json_loads_or_raises_value_error(obj):
    try:
        qbnet_from_json(obj)
    except ValueError:
        pass


# -- round trips ---------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)


def unique_names(count):
    # often "a", "b", ..., so the command-line property's --a a --b b resolve
    drawn = st.lists(st.text(min_size=1, max_size=4), min_size=count, max_size=count, unique=True)
    return st.just(list("abcdefghij"[:count])) | drawn


def sized_names(count):
    """``count`` (unique name, size 1-3) pairs."""
    sizes = st.lists(st.integers(1, 3), min_size=count, max_size=count)
    return st.tuples(unique_names(count), sizes).map(lambda pair: list(zip(*pair)))


@st.composite
def nets(draw):
    """Any DAG on up to four nodes (names, cardinalities, parent order drawn),
    with seeded Gaussian unit-norm tables."""
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[j]) for j in range(n) for i in range(j) if draw(st.booleans())]
    dag = Dag(draw(sized_names(n)), draw(st.permutations(edges)))
    return random_qbnet(dag, np.random.default_rng(draw(SEEDS)))


LABELS = st.integers(1, 3).flatmap(sized_names).map(tuple)


@st.composite
def densities(draw, labels_=None):
    """G G* / tr, with G a drawn dim x rank complex matrix: any rank."""
    labels_ = labels_ if labels_ is not None else draw(LABELS)
    dim = int(np.prod([d for _, d in labels_]))
    rank = draw(st.integers(1, dim))
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * dim * rank, max_size=2 * dim * rank))
    g = np.reshape(parts[::2], (dim, rank)) + 1j * np.reshape(parts[1::2], (dim, rank))
    mat = g @ g.conj().T
    trace = float(np.trace(mat).real)
    hypothesis.assume(trace > 1e-3)
    return DensityMatrix(labels_, mat / trace)


@st.composite
def extensions(draw):
    labels_ = draw(LABELS)
    count = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=count, max_size=count)))
    hypothesis.assume(weights.sum() > 1e-3)
    components = [draw(densities(labels_)) for _ in range(count)]
    return DiagonalExtension(weights / weights.sum(), components)


@st.composite
def factor_graphs(draw):
    """A seeded random factor tree with drawn root and factor names."""
    tree = random_factor_tree(np.random.default_rng(draw(SEEDS)))
    names = draw(unique_names(len(tree.roots) + len(tree.factors)))
    roots = [(name, card) for name, (_, card) in zip(names, tree.roots)]
    factor_names = names[len(roots):]
    factors = [(name, f.neighbors, f.table) for name, f in zip(factor_names, tree.factors)]
    return FactorGraphNet(roots, factors)


def through_json(obj):
    return json.loads(json.dumps(obj))


def assert_same_state(got, want):
    assert got.labels == want.labels
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(nets())
def test_net_round_trip(net):
    back = qbnet_from_json(through_json(qbnet_to_json(net)))
    assert back.dag == net.dag
    for got, want in zip(back.tpms, net.tpms):
        np.testing.assert_allclose(got.table, want.table, rtol=0, atol=1e-12)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(densities())
def test_density_round_trip(rho):
    assert_same_state(density_from_json(through_json(density_to_json(rho))), rho)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(extensions())
def test_extension_round_trip(ext):
    back = extension_from_json(through_json(extension_to_json(ext)))
    np.testing.assert_allclose(back.weights, ext.weights, rtol=0, atol=1e-12)
    assert len(back.components) == len(ext.components)
    for got, want in zip(back.components, ext.components):
        assert_same_state(got, want)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(factor_graphs())
def test_factor_graph_round_trip(graph):
    back = factor_graph_from_json(through_json(factor_graph_to_json(graph)))
    assert back.roots == graph.roots
    assert len(back.factors) == len(graph.factors)
    for got, want in zip(back.factors, graph.factors):
        assert (got.name, got.neighbors) == (want.name, want.neighbors)
        np.testing.assert_allclose(got.table, want.table, rtol=0, atol=1e-12)


# -- the command line on arbitrary input files ---------------------------------

# each command gets arbitrary JSON, malformed net-shaped objects, and valid
# files of the format it reads (which carry it past loading)
VALID = {
    "net": nets().map(qbnet_to_json)
    | SEEDS.map(np.random.default_rng).map(random_reducible_net).map(qbnet_to_json),
    "state": densities().map(density_to_json),
    "extension": extensions().map(extension_to_json),
}
COMMANDS = {
    "infer": ("net", ["infer", "{in}"]),
    "dsep": ("net", ["dsep", "{in}", "--a", "a", "--b", "b"]),
    "entropy": ("state", ["entropy", "{in}"]),
    "esq": ("state", ["esq", "{in}", "--restarts", "1", "--budget", "5"]),
    "from-density": ("extension", ["from-density", "{in}", "-o", "{out}"]),
    "reduce": ("net", ["reduce", "{in}", "-o", "{out}"]),
    "verify dsep": (
        "net",
        ["verify", "dsep", "--dag", "{in}", "--a", "a", "--b", "b", "--trials", "2"],
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=st.data())
def test_any_input_file_gives_an_exit_code(command, data, tmp_path_factory):
    fmt, argv = COMMANDS[command]
    obj = data.draw(JSON | NET | VALID[fmt], label="input file")
    workdir = tmp_path_factory.mktemp("cli")
    paths = {"in": str(workdir / "in.json"), "out": str(workdir / "out.json")}
    with open(paths["in"], "w") as handle:
        json.dump(obj, handle)
    argv = [arg.format(**paths) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
