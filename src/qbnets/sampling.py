"""Seeded random generators for nets, graphs, states, and factor trees.

Table columns are drawn as independent complex Gaussian vectors and
normalized to unit 2-norm, which is exactly the constraint a node table
must satisfy and imposes nothing else. Everything takes a
``numpy.random.Generator`` (or a seed) so campaigns are reproducible.
"""

from __future__ import annotations

import numpy as np

from .bipartite import FactorGraphNet
from .graph import Dag
from .network import QBNet, node_tpm
from .qinfo import DensityMatrix, DiagonalExtension


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _unit_columns(rng: np.random.Generator, shape: tuple, batch: tuple = ()) -> np.ndarray:
    """Gaussian tables of ``shape``, unit-norm along its first axis, stacked over ``batch``."""
    shape = batch + shape
    table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    norms = np.sqrt((np.abs(table) ** 2).sum(axis=len(batch), keepdims=True))
    return table / norms


def random_qbnet(dag: Dag, rng) -> QBNet:
    """A net on ``dag`` with independent Gaussian unit-norm table columns."""
    rng = rng_from(rng)
    tpms = []
    for j in range(dag.node_count):
        shape = (dag.cardinality(j),) + tuple(
            dag.cardinality(p) for p in dag.parents(j)
        )
        tpms.append(node_tpm(j, dag.parents(j), _unit_columns(rng, shape)))
    return QBNet(dag, tpms)


def random_cards(rng, n: int, max_card: int = 3, min_card: int = 2) -> list[int]:
    rng = rng_from(rng)
    return [int(rng.integers(min_card, max_card + 1)) for _ in range(n)]


def random_polytree_dag(
    rng, n_nodes: int, max_card: int = 3, min_card: int = 2
) -> Dag:
    """A random tree skeleton with random edge orientations and cardinalities."""
    rng = rng_from(rng)
    cards = random_cards(rng, n_nodes, max_card, min_card)
    nodes = [(f"n{i}", cards[i]) for i in range(n_nodes)]
    edges = []
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        if rng.integers(0, 2):
            edges.append((j, i))
        else:
            edges.append((i, j))
    return Dag(nodes, edges)


def random_dag(rng, n_nodes: int, max_card: int = 3, edge_prob: float = 0.4) -> Dag:
    """A random DAG: each (i, j) with i < j becomes an edge independently."""
    rng = rng_from(rng)
    cards = random_cards(rng, n_nodes, max_card)
    nodes = [(f"n{i}", cards[i]) for i in range(n_nodes)]
    edges = [
        (i, j)
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < edge_prob
    ]
    return Dag(nodes, edges)


def random_evidence(dag: Dag, rng, observe_prob: float = 0.35) -> dict[int, int]:
    rng = rng_from(rng)
    evidence = {}
    for i in range(dag.node_count):
        if rng.random() < observe_prob:
            evidence[i] = int(rng.integers(0, dag.cardinality(i)))
    return evidence


def random_density_matrix(labels, rng) -> DensityMatrix:
    """A full-rank random state: G G* normalized, G complex Gaussian."""
    rng = rng_from(rng)
    labels = tuple((str(n), int(d)) for n, d in labels)
    dim = int(np.prod([d for _, d in labels]))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(labels, rho)


def random_diagonal_extension(
    rng, dims: tuple[int, int] = (2, 2), lam_card: int = 2
) -> DiagonalExtension:
    rng = rng_from(rng)
    labels = (("x", dims[0]), ("y", dims[1]))
    weights = rng.dirichlet(np.ones(lam_card))
    components = [random_density_matrix(labels, rng) for _ in range(lam_card)]
    return DiagonalExtension(weights, components)


def random_factor_tree(
    rng, max_factors: int = 4, max_roots: int = 6, max_card: int = 3
) -> FactorGraphNet:
    """A random tree-skeleton factor graph with Gaussian complex tables."""
    rng = rng_from(rng)
    n_factors = int(rng.integers(1, max_factors + 1))
    n_roots = int(rng.integers(1, max_roots + 1))
    cards = random_cards(rng, n_roots, max_card)
    roots = [(f"x{i}", cards[i]) for i in range(n_roots)]

    # grow a bipartite tree: each factor attaches to one existing root,
    # each later root attaches to one existing factor
    neighbor_sets: list[list[int]] = [[] for _ in range(n_factors)]
    neighbor_sets[0].append(0)
    placed_roots = 1
    placed_factors = 1
    while placed_factors < n_factors or placed_roots < n_roots:
        grow_factor = placed_factors < n_factors and (
            placed_roots >= n_roots or rng.integers(0, 2)
        )
        if grow_factor:
            neighbor_sets[placed_factors].append(int(rng.integers(0, placed_roots)))
            placed_factors += 1
        else:
            neighbor_sets[int(rng.integers(0, placed_factors))].append(placed_roots)
            placed_roots += 1

    factors = []
    for a in range(n_factors):
        nb = tuple(neighbor_sets[a])
        shape = tuple(cards[i] for i in nb)
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        factors.append((f"f{a}", nb, table))
    return FactorGraphNet(roots, factors)


def random_reducible_net(rng, max_card: int = 3, full_shape: bool | None = None) -> QBNet:
    """A five-node construction-shaped net whose x table ignores y0.

    With ``full_shape`` the x node keeps y0 as a declared parent (its
    table is constant along that axis); otherwise y0 is simply not a
    parent. Both forms are accepted by the reduction.
    """
    rng = rng_from(rng)
    cl, cx0, cy0, cx, cy = random_cards(rng, 5, max_card)
    if full_shape is None:
        full_shape = bool(rng.integers(0, 2))
    nodes = [("lam", cl), ("x0", cx0), ("y0", cy0), ("x", cx), ("y", cy)]
    if full_shape:
        edges = [
            (0, 1),
            (1, 2), (0, 2),
            (1, 3), (2, 3), (0, 3),
            (3, 4), (1, 4), (2, 4), (0, 4),
        ]
    else:
        edges = [(0, 1), (1, 2), (0, 2), (1, 3), (0, 3), (3, 4), (1, 4), (2, 4), (0, 4)]
    dag = Dag(nodes, edges)
    tpms = []
    for j in range(5):
        shape = (dag.cardinality(j),) + tuple(dag.cardinality(p) for p in dag.parents(j))
        table = _unit_columns(rng, shape)
        if j == 3 and full_shape:
            # y0 is the axis matching its position in the declared parents
            axis = 1 + dag.parents(3).index(2)
            first = np.take(table, [0], axis=axis)
            table = np.broadcast_to(first, shape).copy()
        tpms.append(node_tpm(j, dag.parents(j), table))
    return QBNet(dag, tpms)
