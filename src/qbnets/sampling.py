"""Seeded random generators for nets, graphs, states, and factor trees.

Table columns are drawn as independent complex Gaussian vectors and
normalized to unit 2-norm, which is exactly the constraint a node table
must satisfy and imposes nothing else. Everything takes a
``numpy.random.Generator`` (or a seed) so campaigns are reproducible.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .bipartite import FactorGraphNet
from .construct import _EDGES
from .graph import Dag
from .network import NodeTpm, QBNet, _check_table, node_tpm
from .qinfo import DensityMatrix, DiagonalExtension


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _unit_norm(table: np.ndarray, axis: int) -> np.ndarray:
    """``table`` scaled to unit 2-norm along ``axis``."""
    return table / np.sqrt((np.abs(table) ** 2).sum(axis=axis, keepdims=True))


def _draw_tables(dag: Dag, rngs: Sequence[np.random.Generator]) -> list[np.ndarray]:
    """Gaussian unit-column tables of every node, one net per generator.

    Returns node j's tables stacked over the generators,
    (len(rngs), card(j), *parent cards), C-contiguous. Each generator
    draws its net node by node, the real part of a node's table before
    its imaginary part, in one ``normal`` call of the summed size: a
    ``Generator`` fills a call's output in order, so that call gives the
    numbers of one call per part and leaves the generator in the same
    state. The columns of all nodes of one cardinality are normalized
    side by side in one array and pass :func:`qbnets.network.node_tpm`'s
    checks there, once; an array that fails is checked again node by
    node, so the refusal names its first node that fails. One-column
    tables form groups of their own, states last: NumPy sums a
    contiguous axis pairwise and a strided one in order, so each column
    is summed, and each table comes out, as in a draw node by node.
    """
    count = len(rngs)
    shapes = [
        (dag.cardinality(j),) + tuple(dag.cardinality(p) for p in dag.parents(j))
        for j in range(dag.node_count)
    ]
    sizes = [math.prod(shape) for shape in shapes]
    raw = np.stack([rng.normal(size=2 * sum(sizes)) for rng in rngs])
    lo = [0, *itertools.accumulate(2 * size for size in sizes)]
    groups: dict[tuple[int, bool], list[int]] = {}
    for j, (shape, size) in enumerate(zip(shapes, sizes)):
        groups.setdefault((shape[0], size == shape[0]), []).append(j)
    tables: dict[int, np.ndarray] = {}
    for (card, single), nodes in groups.items():
        # (T, tables, states) for one-column tables, else (T, states, columns)
        axis, side = (2, 1) if single else (1, 2)
        shape = (count, 1, card) if single else (count, card, -1)
        re = np.concatenate([raw[:, lo[j] : lo[j] + sizes[j]].reshape(shape) for j in nodes], side)
        im = np.concatenate([raw[:, lo[j] + sizes[j] : lo[j + 1]].reshape(shape) for j in nodes], side)
        group = _unit_norm(re + 1j * im, axis)
        at = 0
        for j in nodes:
            width = sizes[j] // card
            block = group[:, at : at + width] if single else group[:, :, at : at + width]
            tables[j] = np.ascontiguousarray(block).reshape((count,) + shapes[j])
            at += width
        try:
            _check_table(nodes[0], group, lead=axis)
        except ValueError:
            for j in nodes:
                _check_table(j, tables[j], lead=1)
            raise
    return [tables[j] for j in range(len(shapes))]


def random_qbnet(dag: Dag, rng) -> QBNet:
    """A net on ``dag`` with independent Gaussian unit-norm table columns."""
    tables = _draw_tables(dag, [rng_from(rng)])
    return QBNet(dag, [NodeTpm(j, dag.parents(j), t[0]) for j, t in enumerate(tables)])


def random_cards(rng, n: int, max_card: int = 3) -> list[int]:
    """``n`` cardinalities drawn uniformly from 2 to ``max_card``."""
    rng = rng_from(rng)
    return [int(rng.integers(2, max_card + 1)) for _ in range(n)]


def random_polytree_dag(rng, n_nodes: int, max_card: int = 3) -> Dag:
    """A random tree skeleton with random edge orientations and cardinalities."""
    rng = rng_from(rng)
    cards = random_cards(rng, n_nodes, max_card)
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
    cards = random_cards(rng, 5, max_card)
    if full_shape is None:
        full_shape = bool(rng.integers(0, 2))
    edges = _EDGES if full_shape else [e for e in _EDGES if e != (2, 3)]
    net = random_qbnet(Dag(list(zip(("lam", "x0", "y0", "x", "y"), cards)), edges), rng)
    if not full_shape:
        return net
    # y0 is the axis matching its position in x's declared parents
    parents = net.dag.parents(3)
    table = net.tpms[3].table
    first = np.take(table, [0], axis=1 + parents.index(2))
    tpms = list(net.tpms)
    tpms[3] = node_tpm(3, parents, np.broadcast_to(first, table.shape).copy())
    return QBNet(net.dag, tpms)
