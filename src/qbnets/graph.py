"""Directed acyclic graphs, multinode set algebra, and graph separation.

Two separation predicates, both purely topological: they never look at
amplitudes or probabilities, so the same functions serve the classical
and the quantum independence theorems. :func:`d_separated` is the
classical d-separation test; :func:`sides_assignable` asks whether the
off-triple nodes split into two sides that stay d-separated, the
condition under which the quantum forward statement survives partial
tracing. Both run on one bitmask core, :func:`_moral_separated`:
reachability in a moral graph once the conditioning nodes are deleted,
on the ancestral closure of the triple for the first and on the whole
DAG for the second. The census decides thousands of triples at a time
through the same route run as int64 array operations,
:func:`_moral_separated_arrays`, whose loops run over nodes, not over
triples.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

import numpy as np


def _as_int(value, what: str) -> int:
    """``value`` as an ``int``: Python and NumPy integers pass, while a
    bool, a float or a string raises ValueError instead of being
    truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


class Multinode:
    """A set of DAG node indices treated as one composite variable.

    Members are stored sorted and duplicate-free, so two multinodes over
    the same nodes compare equal structurally.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int] = ()) -> None:
        seen = sorted({_as_int(m, "node index") for m in members})
        if seen and seen[0] < 0:
            raise ValueError("node indices must be nonnegative")
        object.__setattr__(self, "members", tuple(seen))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Multinode is immutable")

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: int) -> bool:
        return item in self.members

    def __eq__(self, other) -> bool:
        if isinstance(other, Multinode):
            return self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"Multinode({list(self.members)})"

    def __or__(self, other: "Multinode") -> "Multinode":
        return Multinode(self.members + as_multinode(other).members)

    def __and__(self, other: "Multinode") -> "Multinode":
        other = as_multinode(other)
        return Multinode(m for m in self.members if m in other)

    def isdisjoint(self, other: "Multinode") -> bool:
        return not set(self.members) & set(as_multinode(other).members)

    def complement(self, dag: "Dag") -> "Multinode":
        """All nodes of ``dag`` not in this multinode."""
        self.validate(dag)
        inside = set(self.members)
        return Multinode(i for i in range(dag.node_count) if i not in inside)

    def validate(self, dag: "Dag") -> None:
        if self.members and self.members[-1] >= dag.node_count:
            raise ValueError(
                f"node index {self.members[-1]} out of range for a "
                f"{dag.node_count}-node graph"
            )


def as_multinode(obj) -> Multinode:
    """Coerce an iterable of node indices (or a Multinode) to a Multinode."""
    if isinstance(obj, Multinode):
        return obj
    if isinstance(obj, (int, np.integer)):
        return Multinode((obj,))
    return Multinode(obj)


class Dag:
    """A directed acyclic graph with named nodes and per-node state counts.

    Parameters
    ----------
    nodes : sequence of (name, cardinality)
        Node names must be unique and nonempty; cardinalities >= 1.
    edges : sequence of (parent index, child index)
        No self loops, no duplicates, no directed cycle. The order in
        which a node's in-edges appear fixes its declared parent order.
    """

    __slots__ = ("_nodes", "_edges", "_parents", "_children", "_index", "_hash")

    def __init__(
        self,
        nodes: Sequence[tuple[str, int]],
        edges: Sequence[tuple[int, int]] = (),
    ) -> None:
        clean_nodes = []
        for name, card in nodes:
            name = str(name)
            card = _as_int(card, f"node {name!r} cardinality")
            if not name:
                raise ValueError("node names must be nonempty")
            if card < 1:
                raise ValueError(f"node {name!r} has cardinality {card}; need >= 1")
            clean_nodes.append((name, card))
        names = [n for n, _ in clean_nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")

        n = len(clean_nodes)
        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        clean_edges = []
        seen = set()
        for p, c in edges:
            p, c = _as_int(p, "edge endpoint"), _as_int(c, "edge endpoint")
            if not (0 <= p < n and 0 <= c < n):
                raise ValueError(f"edge ({p}, {c}) out of range")
            if p == c:
                raise ValueError(f"self loop on node {p}")
            if (p, c) in seen:
                raise ValueError(f"duplicate edge ({p}, {c})")
            seen.add((p, c))
            clean_edges.append((p, c))
            parents[c].append(p)
            children[p].append(c)

        object.__setattr__(self, "_nodes", tuple(clean_nodes))
        object.__setattr__(self, "_edges", tuple(clean_edges))
        object.__setattr__(self, "_parents", tuple(tuple(ps) for ps in parents))
        object.__setattr__(self, "_children", tuple(tuple(cs) for cs in children))
        object.__setattr__(self, "_index", {name: i for i, (name, _) in enumerate(clean_nodes)})
        object.__setattr__(self, "_hash", hash((self._nodes, self._parents)))

        # raises on a directed cycle
        topological_order(self)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Dag is immutable")

    @property
    def nodes(self) -> tuple[tuple[str, int], ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._nodes)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(card for _, card in self._nodes)

    def name(self, i: int) -> str:
        return self._nodes[i][0]

    def cardinality(self, i: int) -> int:
        return self._nodes[i][1]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown node name {name!r}") from None

    def parents(self, i: int) -> tuple[int, ...]:
        """Parents of node ``i`` in declared (edge) order."""
        return self._parents[i]

    def children(self, i: int) -> tuple[int, ...]:
        return self._children[i]

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(self._parents[i] + self._children[i]))  # disjoint, no repeats

    def __eq__(self, other) -> bool:
        # same nodes and same declared parent order per node; the global
        # interleaving of edges across children carries no meaning
        if isinstance(other, Dag):
            return self._nodes == other._nodes and self._parents == other._parents
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        spec = ", ".join(f"{n}:{c}" for n, c in self._nodes)
        arcs = ", ".join(f"{p}->{c}" for p, c in self._edges)
        return f"Dag([{spec}], [{arcs}])"


def topological_order(dag: Dag) -> list[int]:
    """Parents-before-children node order; ties broken by node index."""
    n = dag.node_count
    indegree = [len(dag.parents(i)) for i in range(n)]
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for c in dag.children(i):
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != n:
        raise ValueError("edges contain a directed cycle")
    return order


def is_polytree(dag: Dag) -> bool:
    """True iff the undirected skeleton is acyclic (a forest counts)."""
    root = list(range(dag.node_count))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for p, c in dag.edges:
        rp, rc = find(p), find(c)
        if rp == rc:
            return False
        root[rp] = rc
    return True


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _parent_masks(dag: Dag) -> list[int]:
    masks = [0] * dag.node_count
    for p, c in dag.edges:
        masks[c] |= 1 << p
    return masks


def _ancestral(parents: Sequence[int], nodes: int) -> int:
    """``nodes`` together with all of their ancestors, as a bitmask."""
    frontier = nodes
    while frontier:
        step = 0
        for i in _bits(frontier):
            step |= parents[i]
        frontier = step & ~nodes
        nodes |= frontier
    return nodes


def _moral_separated(parents: Sequence[int], nodes: int, a: int, b: int, z: int) -> bool:
    """Does ``a`` fail to reach ``b`` in the moral graph of ``nodes`` minus ``z``?

    The moral graph of the subgraph induced on ``nodes`` marries the
    co-parents of every child and drops edge directions. The one
    reachability core behind both :func:`d_separated` and
    :func:`sides_assignable`.
    """
    adj = [0] * len(parents)
    for c in _bits(nodes):
        ps = parents[c] & nodes
        for p in _bits(ps):
            adj[p] |= 1 << c
            adj[c] |= 1 << p
            adj[p] |= ps & ~(1 << p)

    alive = nodes & ~z
    reach = a & alive
    frontier = reach
    while frontier:
        step = 0
        for i in _bits(frontier):
            step |= adj[i]
        frontier = step & alive & ~reach
        reach |= frontier
    return not reach & b


def _d_separated_masks(parents: Sequence[int], a: int, b: int, z: int) -> bool:
    """Bitmask d-separation: moral separation on the ancestral closure of
    ``a | b | z`` (Lauritzen, Dawid, Larsen & Leimer, Networks 20:491, 1990)."""
    return _moral_separated(parents, _ancestral(parents, a | b | z), a, b, z)


def _sides_assignable_masks(parents: Sequence[int], a: int, b: int, z: int) -> bool:
    """Bitmask side-assignability: moral separation on the whole DAG."""
    return _moral_separated(parents, (1 << len(parents)) - 1, a, b, z)


# the bitmask route over arrays of cases: ``a``, ``b``, ``z`` and ``nodes``
# are int64 arrays of bitmasks, one entry per case, and ``parents`` holds
# parent masks on its last axis, (n,) for one DAG or (..., n) with one DAG
# per case; every loop runs over nodes and steps, none over cases


def _union_over(mask: np.ndarray, sets: list) -> np.ndarray:
    """The union of ``sets[i]`` over the nodes i of each ``mask``."""
    out = 0
    for i, s in enumerate(sets):
        out = out | np.where(mask & (1 << i), s, 0)
    return out


def _moral_separated_arrays(parents, nodes, a, b, z) -> np.ndarray:
    """:func:`_moral_separated` of each case, as a bool array.

    In the moral graph of ``nodes``, node p is joined to its parents and
    to each child c in ``nodes`` together with c's other parents; edges to
    nodes outside ``nodes`` never carry the reach, which stays inside
    ``nodes`` minus z.
    """
    parents = np.asarray(parents, dtype=np.int64)
    n = parents.shape[-1]
    pa = [parents[..., i] for i in range(n)]
    children = [sum((pa[c] >> p & 1) << c for c in range(n)) for p in range(n)]
    families = [np.where(nodes & (1 << c), (1 << c) | pa[c], 0) for c in range(n)]
    adj = [pa[p] | _union_over(children[p], families) for p in range(n)]
    alive = nodes & ~z
    reach = frontier = a & alive
    while frontier.any():
        frontier = _union_over(frontier, adj) & alive & ~reach
        reach = reach | frontier
    return (reach & b) == 0


def _d_separated_arrays(parents, a, b, z) -> np.ndarray:
    """:func:`_d_separated_masks` of each case: the ancestral closure of
    a | b | z gains the parents of its nodes until it stops growing."""
    parents = np.asarray(parents, dtype=np.int64)
    pa = [parents[..., i] for i in range(parents.shape[-1])]
    nodes = a | b | z
    while True:
        grown = nodes | _union_over(nodes, pa)
        if np.array_equal(grown, nodes):
            return _moral_separated_arrays(parents, nodes, a, b, z)
        nodes = grown


def _sides_assignable_arrays(parents, a, b, z) -> np.ndarray:
    """:func:`_sides_assignable_masks` of each case."""
    parents = np.asarray(parents, dtype=np.int64)
    return _moral_separated_arrays(parents, (1 << parents.shape[-1]) - 1, a, b, z)


def _triple_masks(dag: Dag, a, b, z) -> tuple[list[int], int, int, int]:
    """Parent masks and (a, b, z) bitmasks of a checked, disjoint triple."""
    a, b, z = as_multinode(a), as_multinode(b), as_multinode(z)
    for m in (a, b, z):
        m.validate(dag)
    if not (a.isdisjoint(b) and a.isdisjoint(z) and b.isdisjoint(z)):
        raise ValueError("multinodes a, b, z must be pairwise disjoint")
    a, b, z = (sum(1 << i for i in m) for m in (a, b, z))
    return _parent_masks(dag), a, b, z


def d_separated(dag: Dag, a, b, z=()) -> bool:
    """Test whether node sets ``a`` and ``b`` are d-separated given ``z``.

    Parameters
    ----------
    dag : Dag
    a, b, z : Multinode or iterable of node indices
        Must be pairwise disjoint; ``z`` may be empty.

    Returns
    -------
    bool
        True iff every undirected path between ``a`` and ``b`` is blocked
        by ``z`` in the usual sense (chains and forks blocked by observed
        middles, colliders blocked unless they or a descendant are
        observed).
    """
    return _d_separated_masks(*_triple_masks(dag, a, b, z))


def sides_assignable(dag: Dag, a, b, z=()) -> bool:
    """Can the off-triple nodes be split into an a-side and a b-side?

    True when some partition of the remaining nodes into H_a and H_b
    keeps (a | H_a) d-separated from (b | H_b) given z. When it exists,
    tracing the hidden nodes out is a local channel on each side, so the
    dephased conditional mutual information of the reduced state is
    forced to zero; when it does not, tracing can entangle the two sides
    and the reduced CMI is free to be positive. Arguments are checked
    as in :func:`d_separated`.

    Those sets cover every node, so their ancestral closure is the whole
    DAG, and the split exists iff ``a`` does not reach ``b`` in the moral
    graph of the whole DAG once z is deleted. If it does not, put the
    hidden nodes ``a`` reaches on a's side and the rest on b's side.
    Conversely, any a-b path would cross between the sides on a moral edge.

    The condition is sufficient, not necessary. A hidden sink whose
    parents are all hidden drops out exactly: tracing it is a channel on
    its parents, which are traced out as well. So in 0->2, 1->3,
    {0,1}->4 with a={2}, b={3}, z={} the triple is unassignable (node 4
    joins the two sides) yet the CMI is zero in every model, as for
    the same graph without node 4. In the five-node census at seed 404
    the only unassignable classes with zero CMI are three of this shape.
    """
    return _sides_assignable_masks(*_triple_masks(dag, a, b, z))
