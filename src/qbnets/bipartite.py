"""Quantum belief propagation on bipartite (factor graph) nets.

Roots are variables; leaves are factor nodes observed in their "on"
state, each carrying a complex amplitude table over its neighbor roots.
:func:`bipartite_iterate` applies the paper's updates literally, with
ket messages exactly as in the polytree case: the factor-to-root update
keeps every unobserved neighbor as a hidden tensor axis rather than
summing amplitudes, and the root-to-factor update is an entrywise
product over disjoint hidden axes. Like the dense paths, it raises
:class:`~qbnets.errors.CapacityError` before building a product of more
than ``DEFAULT_CAP`` entries. It is synchronous: one iteration
recomputes every message from the previous generation (messages between
non-adjacent pairs simply do not exist and therefore carry over
trivially). On a tree skeleton the messages stop changing after at most
diameter-many iterations.

:func:`run_bipartite` is :func:`~qbnets.qbp.propagate_polytree` on the
equivalent qbnet of :func:`factor_graph_to_qbnet`, whose skeleton is the
factor graph's. Its messages are Pearl's lambda/pi vectors on the
squared tables, each sent once; they are the messages of
:func:`bipartite_iterate` at its fixed point folded onto their roots
and squared, so the beliefs are the same. Root beliefs are
:class:`~qbnets.qbp.Belief` objects on either route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .amplitudes import LabeledAmplitude, fold, labeled, multiply
from .errors import ConvergenceError, StructureError
from .graph import Dag, is_polytree
from .network import QBNet, _capped_multiply, node_tpm
from .qbp import Belief, _assert_disjoint, _squared_table, _unit, propagate_polytree


@dataclass(frozen=True, eq=False)
class Factor:
    name: str
    neighbors: tuple[int, ...]
    table: np.ndarray  # axes follow the declared neighbor order


class FactorGraphNet:
    """Roots with cardinalities plus amplitude-table leaf factors.

    ``skeleton`` is the bipartite skeleton as a :class:`~qbnets.graph.Dag`:
    the roots, then one binary node per factor, with an edge from each
    root to each factor that lists it, in the factor's declared neighbor
    order. Names must be nonempty and distinct across roots and factors;
    the skeleton must be acyclic, and disconnected roots are allowed.

    The equivalent qbnet on that skeleton is built here, once: uniform
    roots, and per factor a binary node whose "on" column is the factor
    table rescaled by its largest magnitude, so it fits in a unit-column
    table (rescaling a factor never changes beliefs).
    """

    __slots__ = ("roots", "factors", "_net")

    def __init__(
        self,
        roots: Sequence[tuple[str, int]],
        factors: Sequence[tuple[str, Sequence[int], object]],
    ) -> None:
        clean_roots = [(str(name), int(card)) for name, card in roots]
        clean_factors = []
        for name, nb, table in factors:
            name = str(name)
            nb = tuple(int(i) for i in nb)
            if len(set(nb)) != len(nb):
                raise ValueError(f"factor {name!r} lists a root twice")
            for i in nb:
                if not 0 <= i < len(clean_roots):
                    raise ValueError(f"factor {name!r} names root index {i}")
            arr = np.asarray(table, dtype=np.complex128)
            expect = tuple(clean_roots[i][1] for i in nb)
            if arr.shape != expect:
                raise ValueError(
                    f"factor {name!r} table shape {arr.shape}, expected {expect}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"factor {name!r} table has a non-finite entry")
            if not np.any(arr):
                raise ValueError(f"factor {name!r} table is identically zero")
            clean_factors.append(Factor(name, nb, arr))

        nr = len(clean_roots)
        skeleton = Dag(
            clean_roots + [(f.name, 2) for f in clean_factors],
            [(i, nr + a) for a, f in enumerate(clean_factors) for i in f.neighbors],
        )
        if not is_polytree(skeleton):
            raise StructureError(
                "factor graph skeleton has a cycle; exact message "
                "passing here requires a tree"
            )

        tpms = [
            node_tpm(i, (), np.full(card, 1.0 / math.sqrt(card)))
            for i, (_, card) in enumerate(clean_roots)
        ]
        for a, f in enumerate(clean_factors):
            on = f.table / float(np.max(np.abs(f.table)))
            off = np.sqrt(np.clip(1.0 - np.abs(on) ** 2, 0.0, None))
            tpms.append(node_tpm(nr + a, f.neighbors, np.stack([off, on], axis=0)))

        object.__setattr__(self, "roots", tuple(clean_roots))
        object.__setattr__(self, "factors", tuple(clean_factors))
        object.__setattr__(self, "_net", QBNet(skeleton, tpms))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FactorGraphNet is immutable")

    @property
    def skeleton(self) -> Dag:
        return self._net.dag

    @property
    def root_count(self) -> int:
        return len(self.roots)

    def cardinality(self, i: int) -> int:
        return self.roots[i][1]

    def factors_of(self, i: int) -> tuple[int, ...]:
        nr = self.root_count
        return tuple(c - nr for c in self.skeleton.children(i))

    def factor_amplitude(self, a: int) -> LabeledAmplitude:
        f = self.factors[a]
        return labeled(f.neighbors, f.table)


@dataclass(frozen=True, eq=False)
class MessageState:
    """One message each way on every skeleton edge, keyed by (factor, root):
    a generation of :func:`bipartite_iterate`."""

    to_root: dict[tuple[int, int], LabeledAmplitude]
    to_factor: dict[tuple[int, int], LabeledAmplitude]


def _uniform(net: FactorGraphNet, i: int) -> LabeledAmplitude:
    card = net.cardinality(i)
    return labeled((i,), np.full(card, 1.0 / math.sqrt(card)))


def init_messages(net: FactorGraphNet) -> MessageState:
    to_root = {}
    to_factor = {}
    for a, f in enumerate(net.factors):
        for i in f.neighbors:
            to_root[(a, i)] = _uniform(net, i)
            to_factor[(a, i)] = _uniform(net, i)
    return MessageState(to_root, to_factor)


def bipartite_iterate(net: FactorGraphNet, state: MessageState) -> MessageState:
    """One synchronous generation of root and factor traversals."""
    new_to_factor = {}
    for i in range(net.root_count):
        for a in net.factors_of(i):
            parts = [state.to_root[(b, i)] for b in net.factors_of(i) if b != a]
            _assert_disjoint(parts, (i,))
            data = _uniform(net, i) if not parts else parts[0]
            for part in parts[1:]:
                data = _capped_multiply(data, part)
            new_to_factor[(a, i)] = _unit(data)

    new_to_root = {}
    for a, f in enumerate(net.factors):
        for i in f.neighbors:
            parts = [state.to_factor[(a, k)] for k in f.neighbors if k != i]
            _assert_disjoint(parts, f.neighbors)
            data = net.factor_amplitude(a)
            for part in parts:
                data = _capped_multiply(data, part)
            new_to_root[(a, i)] = _unit(data)

    return MessageState(new_to_root, new_to_factor)


def _folded(state: MessageState) -> MessageState:
    """Every message of a generation folded onto its root."""
    return MessageState(
        {key: fold(amp, key[1]) for key, amp in state.to_root.items()},
        {key: fold(amp, key[1]) for key, amp in state.to_factor.items()},
    )


def _state_gap(a: MessageState, b: MessageState) -> float:
    """The largest entry-wise move between two generations, or inf if
    any message changed labels."""
    both = ((a.to_root, b.to_root), (a.to_factor, b.to_factor))
    pairs = [(amp, theirs[key]) for mine, theirs in both for key, amp in mine.items()]
    if any(x.labels != y.labels for x, y in pairs):
        return math.inf
    new = np.concatenate([np.zeros(0), *(x.data.ravel() for x, _ in pairs)])
    old = np.concatenate([np.zeros(0), *(y.data.ravel() for _, y in pairs)])
    return float(np.max(np.abs(new - old), initial=0.0))


@dataclass(frozen=True, eq=False)
class FactorBelief:
    """The joint posterior of a factor's neighbors. Built from folded
    messages, ``amplitude`` spans exactly those neighbor roots."""

    factor: int
    amplitude: LabeledAmplitude
    table: np.ndarray  # axes follow the factor's declared neighbor order


@dataclass(frozen=True, eq=False)
class BipartiteBeliefs:
    """Posteriors; each root's is a :class:`~qbnets.qbp.Belief` of that root."""

    roots: dict[int, Belief]
    factors: dict[int, FactorBelief]


def bipartite_beliefs(
    net: FactorGraphNet, state: MessageState, tol: float = 1e-12
) -> BipartiteBeliefs:
    """Beliefs at a fixed point: per-root and per-factor-neighborhood tables.

    Refuses (with :class:`ConvergenceError`) if one more iteration would
    still move any message by more than ``tol``. Both generations are
    folded before they are compared, so ``state`` may be folded or not.
    """
    gap = _state_gap(_folded(bipartite_iterate(net, state)), _folded(state))
    if gap > tol:
        raise ConvergenceError(
            f"messages are not a fixed point: one more iteration moves them by {gap:.3g}"
        )
    return _read_beliefs(net, state)


def _read_beliefs(net: FactorGraphNet, state: MessageState) -> BipartiteBeliefs:
    roots = {}
    for i in range(net.root_count):
        parts = [state.to_root[(a, i)] for a in net.factors_of(i)]
        _assert_disjoint(parts, (i,))
        data = _uniform(net, i) if not parts else parts[0]
        for part in parts[1:]:
            data = multiply(data, part)
        amp = _unit(data)
        roots[i] = Belief(i, amp, _squared_table(amp, (i,)))

    factors = {}
    for a, f in enumerate(net.factors):
        data = net.factor_amplitude(a)
        parts = [state.to_factor[(a, k)] for k in f.neighbors]
        _assert_disjoint(parts, f.neighbors)
        for part in parts:
            data = multiply(data, part)
        amp = _unit(data)
        factors[a] = FactorBelief(a, amp, _squared_table(amp, f.neighbors))

    return BipartiteBeliefs(roots, factors)


def run_bipartite(net: FactorGraphNet) -> BipartiteBeliefs:
    """Exact beliefs of a factor graph net.

    This is :func:`~qbnets.qbp.propagate_polytree` on the equivalent
    qbnet, each message sent once and holding one entry per state of its
    root. A factor's belief is its node's amplitude at the "on" state.
    """
    beliefs = propagate_polytree(*factor_graph_to_qbnet(net))
    nr = net.root_count
    roots = {i: beliefs[i] for i in range(nr)}
    factors = {}
    for a, f in enumerate(net.factors):
        amp = beliefs[nr + a].amplitude.slice_at({nr + a: 1})
        factors[a] = FactorBelief(a, amp, _squared_table(amp, f.neighbors))
    return BipartiteBeliefs(roots, factors)


def factor_graph_to_qbnet(net: FactorGraphNet) -> tuple[QBNet, dict[int, int]]:
    """The equivalent qbnet that ``net`` built, and evidence clamping every
    factor node to its "on" state. :func:`run_bipartite` propagates on
    this net, and exact inference on it is the oracle the bipartite
    message passing is tested against.
    """
    nr = net.root_count
    return net._net, {nr + a: 1 for a in range(len(net.factors))}
