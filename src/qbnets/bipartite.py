"""Quantum belief propagation on bipartite (factor graph) nets.

Roots are variables; leaves are factor nodes observed in their "on"
state, each carrying a complex amplitude table over its neighbor roots.
Every route here runs on the equivalent qbnet of
:func:`factor_graph_to_qbnet`, whose skeleton is the factor graph's.
:func:`bipartite_iterate` is the polytree rules of :mod:`qbnets.qbp`
run synchronously on it: one generation recomputes every unfolded ket
message from the previous one, and a rule whose product would hold more
than ``DEFAULT_CAP`` entries raises :class:`~qbnets.errors.CapacityError`
before its first multiply. On a tree skeleton the messages stop
changing after at most diameter-many generations;
:func:`bipartite_beliefs` reads a fixed point out through the rules.

:func:`run_bipartite` is :func:`~qbnets.qbp.propagate_polytree` on the
equivalent net. Its messages are Pearl's lambda/pi vectors on the
squared tables |A|^2, each sent once; they are the messages of
:func:`bipartite_iterate` at its fixed point folded onto their roots
and squared, so the beliefs are the same. A node's belief, BEL = lambda
* pi on |A|^2, is the ``family`` of a :class:`~qbnets.qbp.Belief`: the
posterior of the node and its unobserved parents. A root's belief is
that object and a factor's table is its node's family at "on", on
either route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .amplitudes import LabeledAmplitude, fold
from .errors import ConvergenceError, StructureError
from .graph import Dag, _as_int, is_polytree
from .network import QBNet, _require_tolerance, node_tpm, tpm_amplitude
from .qbp import AmplitudeMessage, Belief, _literal_belief, _literal_message, propagate_polytree


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
        clean_roots = [(str(name), _as_int(card, f"root {name!r} cardinality")) for name, card in roots]
        clean_factors = []
        for name, nb, table in factors:
            name = str(name)
            nb = tuple(_as_int(i, f"factor {name!r}: root index") for i in nb)
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


@dataclass(frozen=True, eq=False)
class MessageState:
    """One message each way on every skeleton edge, keyed by (factor, root):
    a generation of :func:`bipartite_iterate`."""

    to_root: dict[tuple[int, int], LabeledAmplitude]
    to_factor: dict[tuple[int, int], LabeledAmplitude]


def init_messages(net: FactorGraphNet) -> MessageState:
    """Every message the uniform ket over its root: that root's table."""
    nr = net.root_count
    uniform = {(c - nr, i): tpm_amplitude(net._net, i) for i, c in net.skeleton.edges}
    return MessageState(uniform, dict(uniform))


def _inbox(net: FactorGraphNet, state: MessageState) -> dict[tuple[int, int], AmplitudeMessage]:
    """``state`` as the equivalent net's messages, keyed by (sender, receiver)."""
    nr, inbox = net.root_count, {}
    for (a, i), m in state.to_root.items():
        inbox[(nr + a, i)] = AmplitudeMessage(nr + a, i, "lambda", i, m)
    for (a, i), m in state.to_factor.items():
        inbox[(i, nr + a)] = AmplitudeMessage(i, nr + a, "pi", i, m)
    return inbox


def bipartite_iterate(net: FactorGraphNet, state: MessageState) -> MessageState:
    """One synchronous generation of the polytree rules on the equivalent net."""
    qb, evidence = factor_graph_to_qbnet(net)
    inbox, nr = _inbox(net, state), net.root_count
    return MessageState(
        {(c - nr, i): _literal_message(qb, c, i, inbox, evidence).data for i, c in qb.dag.edges},
        {(c - nr, i): _literal_message(qb, i, c, inbox, evidence).data for i, c in qb.dag.edges},
    )


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
    """The joint posterior of a factor's neighbors."""

    factor: int
    table: np.ndarray  # axes follow the factor's declared neighbor order


@dataclass(frozen=True, eq=False)
class BipartiteBeliefs:
    """Posteriors; each root's is a :class:`~qbnets.qbp.Belief` of that root."""

    roots: dict[int, Belief]
    factors: dict[int, FactorBelief]


def _beliefs(net: FactorGraphNet, beliefs: Mapping[int, Belief]) -> BipartiteBeliefs:
    """The equivalent net's beliefs per root, and per factor its node's
    family at "on"; that family spans the factor's neighbors, ascending,
    and then the node, which is numbered after every root."""
    nr = net.root_count
    factors = {}
    for a, f in enumerate(net.factors):
        on = beliefs[nr + a].family[..., 1]
        order = sorted(f.neighbors)
        factors[a] = FactorBelief(a, np.transpose(on, [order.index(i) for i in f.neighbors]))
    return BipartiteBeliefs({i: beliefs[i] for i in range(nr)}, factors)


def bipartite_beliefs(
    net: FactorGraphNet, state: MessageState, tol: float = 1e-12
) -> BipartiteBeliefs:
    """Beliefs at a fixed point: per-root and per-factor-neighborhood tables,
    read out through the polytree rules on the equivalent net.

    Refuses (with :class:`ConvergenceError`) if one more iteration would
    still move any message by more than ``tol``. Both generations are
    folded before they are compared, so ``state`` may be folded or not.
    """
    _require_tolerance("tol", tol)
    gap = _state_gap(_folded(bipartite_iterate(net, state)), _folded(state))
    if gap > tol:
        raise ConvergenceError(
            f"messages are not a fixed point: one more iteration moves them by {gap:.3g}"
        )
    qb, evidence = factor_graph_to_qbnet(net)
    inbox = _inbox(net, state)
    beliefs = {j: _literal_belief(qb, j, inbox, evidence) for j in range(qb.dag.node_count)}
    return _beliefs(net, beliefs)


def run_bipartite(net: FactorGraphNet) -> BipartiteBeliefs:
    """Exact beliefs of a factor graph net.

    This is :func:`~qbnets.qbp.propagate_polytree` on the equivalent
    qbnet, each message sent once and holding one entry per state of its
    root.
    """
    return _beliefs(net, propagate_polytree(*factor_graph_to_qbnet(net)))


def factor_graph_to_qbnet(net: FactorGraphNet) -> tuple[QBNet, dict[int, int]]:
    """The equivalent qbnet that ``net`` built, and evidence clamping every
    factor node to its "on" state. :func:`run_bipartite` propagates on
    this net, and exact inference on it is the oracle the bipartite
    message passing is tested against.
    """
    nr = net.root_count
    return net._net, {nr + a: 1 for a in range(len(net.factors))}
