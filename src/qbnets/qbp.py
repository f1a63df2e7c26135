"""Quantum belief propagation on polytrees.

The paper's messages are kets, not probability tables, and its rules
are pure tensor algebra on them:

* products in the rules are entrywise products over disjoint hidden
  axes (the polytree guarantees disjointness, and it is asserted);
* sums over unobserved variables keep the variable as a hidden axis
  instead of summing amplitudes, which is what makes squared norms of
  the final beliefs exact posteriors;
* sums over observed variables collapse to the observed value, because
  every table axis of an observed node is masked to a one-hot slice.

Applied literally, a message would carry the edge variable (its
carrier c) plus one hidden axis H for every unobserved node of the
sending subtree, so its size grows exponentially with that subtree.
The rule functions stay literal: handed unfolded messages they return
the paper's messages, and refuse a product of more than ``DEFAULT_CAP``
entries with :class:`~qbnets.errors.CapacityError` before its first multiply.
:func:`~qbnets.bipartite.bipartite_iterate` runs them synchronously on
the equivalent net of a factor graph, each message out of its inbox.

:func:`propagate_polytree` sends each message folded onto its carrier,
as the real vector mu(c) = sum_H |m(c, H)|^2 normalized to sum to one.
This is exact: no rule ever sums amplitudes over an unobserved axis, so
for every carrier configuration sum_H |prod_k m_k|^2 = prod_k sum_{H_k}
|m_k|^2. Folded, the rules are Pearl's lambda/pi propagation on the
real family weights W_j = |A_j|^2, observed axes masked: the message
from node j is W_j contracted with the messages from its other
neighbors. On a polytree one collect sweep and one distribute sweep
reach the exact fixed point; a further sweep reproduces every message.
A node's belief is Pearl's BEL = lambda * pi on the same weights, W_j
contracted with every message j received: the posterior of j and its
unobserved parents. Every message and belief is one np.einsum call on
W_j (one-state axes dropped, a fixed letter per family axis), the
children's messages first multiplied into Pearl's lambda; the calls are
scheduled once per graph and set of observed nodes, then looked up.
:func:`~qbnets.bipartite.run_bipartite` runs this driver on the
equivalent net of a factor graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .amplitudes import LabeledAmplitude, labeled
from .errors import ImpossibleEvidenceError, SchedulingError, StructureError
from .graph import Dag, is_polytree
from .network import _LETTERS, _PLANS_CACHED, DEFAULT_CAP, QBNet, _capped_product, validate_evidence


@dataclass(frozen=True, eq=False)
class AmplitudeMessage:
    """A ket-valued message on one directed edge of the skeleton.

    ``kind`` is "pi" for parent-to-child flow and "lambda" for
    child-to-parent flow. ``carrier`` is the edge variable (the target
    parent for a lambda message, the sending node for a pi message);
    every other label of ``data`` is a hidden unobserved node owned by
    the sending subtree. These are the messages of the literal rules;
    :func:`propagate_polytree` sends plain lambda/pi vectors instead.
    Node-local aggregates (the pi and lambda of a node itself) use
    source == target.
    """

    source: int
    target: int
    kind: str
    carrier: int
    data: LabeledAmplitude

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(l for l in self.data.labels if l != self.carrier)


@dataclass(frozen=True, eq=False)
class Belief:
    """A node's posterior.

    ``family`` is P(node, unobserved parents | evidence), a real array
    that sums to one, with one axis per label of ``family_nodes``: the
    node and its unobserved parents, ascending. ``table`` is the family
    summed over the parent axes, the node's marginal.
    """

    node: int
    family_nodes: tuple[int, ...]
    family: np.ndarray
    table: np.ndarray


def _family_nodes(dag: Dag, node: int, observed: Collection[int]) -> tuple[tuple[int, ...], ...]:
    """The node and its unobserved parents, ascending, and the parents' places among them."""
    keep = tuple(sorted(l for l in (node, *dag.parents(node)) if l == node or l not in observed))
    return keep, tuple([k for k, l in enumerate(keep) if l != node])


def _belief(node: int, family_nodes: tuple[int, ...], weight: np.ndarray, axes) -> Belief:
    """The belief whose family is ``weight`` normalized, summed over ``axes`` for its table."""
    total = np.add.reduce(weight, axis=None)
    if total == 0.0:
        raise ImpossibleEvidenceError("impossible evidence: a belief vanished identically")
    family = weight / total
    table = np.add.reduce(family, axis=axes)
    return Belief(node, family_nodes, family, table)


def _masked_tpm(net: QBNet, node: int, evidence: Mapping[int, int]) -> LabeledAmplitude:
    axes = (node, *net.tpms[node].parents)
    return labeled(axes, _masked(net.tpms[node].table, axes, evidence))


def _combine(head: Sequence[LabeledAmplitude], messages, evidence: Mapping[int, int], carrier: int):
    """The tail of every rule: the ``head`` parts times each message in
    source order as one capped product, with its observed axes other
    than ``carrier`` summed out, at unit 2-norm."""
    parts = [*head, *(m.data for m in sorted(messages, key=lambda m: m.source))]
    data = _capped_product(parts, DEFAULT_CAP, "product")
    data = data.sum_over(l for l in data.labels if l in evidence and l != carrier)
    norm = data.norm()
    if norm == 0.0:
        raise ImpossibleEvidenceError("impossible evidence: a message vanished identically")
    return data.scaled(1.0 / norm)


def _expect_messages(
    messages: Sequence[AmplitudeMessage],
    senders: Iterable[int],
    kind: str,
    carrier_of: dict[int, int],
) -> None:
    have = {m.source: m for m in messages}
    missing = set(senders) - set(have)
    if missing:
        raise SchedulingError(f"missing {kind} messages from nodes {sorted(missing)}")
    extra = set(have) - set(senders)
    if extra:
        raise SchedulingError(f"unexpected messages from nodes {sorted(extra)}")
    for src, msg in have.items():
        if msg.kind != kind or msg.carrier != carrier_of[src]:
            raise SchedulingError(
                f"message from node {src} has kind {msg.kind!r} and carrier "
                f"{msg.carrier}, expected {kind!r} with carrier {carrier_of[src]}"
            )


def compute_pi(
    net: QBNet,
    node: int,
    parent_messages: Sequence[AmplitudeMessage] = (),
    evidence: Mapping[int, int] | None = None,
) -> AmplitudeMessage:
    """The node's pi aggregate: its table contracted with all parent messages.

    For a root this is just the (evidence-masked, normalized) root table.
    Observed parents collapse to their observed value; unobserved parents
    stay as hidden axes of the result.
    """
    evidence = validate_evidence(net.dag, evidence or {})
    parents = net.dag.parents(node)
    _expect_messages(parent_messages, parents, "pi", {p: p for p in parents})
    _assert_disjoint([m.data for m in parent_messages], [node, *parents])
    data = _combine([_masked_tpm(net, node, evidence)], parent_messages, evidence, node)
    return AmplitudeMessage(node, node, "pi", node, data)


def compute_lambda(
    net: QBNet,
    node: int,
    child_messages: Sequence[AmplitudeMessage] = (),
    evidence: Mapping[int, int] | None = None,
) -> AmplitudeMessage:
    """The node's lambda aggregate: the product of all child messages.

    For a leaf this is the uniform (all equal entries) tensor over the
    node's states.
    """
    evidence = validate_evidence(net.dag, evidence or {})
    children = net.dag.children(node)
    _expect_messages(child_messages, children, "lambda", {c: node for c in children})
    _assert_disjoint([m.data for m in child_messages], [node])
    ones = labeled((node,), np.ones(net.dag.cardinality(node)))
    data = _combine([ones], child_messages, evidence, node)
    return AmplitudeMessage(node, node, "lambda", node, data)


def rule1_lambda_to_parent(
    net: QBNet,
    node: int,
    parent: int,
    lambda_message: AmplitudeMessage | None = None,
    other_parent_messages: Sequence[AmplitudeMessage] = (),
    evidence: Mapping[int, int] | None = None,
) -> AmplitudeMessage:
    """Lambda message from a node to one of its parents.

    Combines the node's lambda aggregate, its table, and the pi messages
    from every other parent; the carrier is the target parent's
    variable. A parentless node degenerately sends a constant message
    (and needs no lambda aggregate).
    """
    evidence = validate_evidence(net.dag, evidence or {})
    dag = net.dag
    if not 0 <= parent < dag.node_count:
        raise ValueError(f"parent index {parent} out of range")
    parents = dag.parents(node)
    if not parents:
        card = dag.cardinality(parent)
        data = labeled((parent,), np.full(card, 1.0 / np.sqrt(card)))
        return AmplitudeMessage(node, parent, "lambda", parent, data)
    if parent not in parents:
        raise ValueError(f"node {parent} is not a parent of node {node}")
    _expect_messages([lambda_message] if lambda_message else [], [node], "lambda", {node: node})
    others = tuple(p for p in parents if p != parent)
    _expect_messages(other_parent_messages, others, "pi", {p: p for p in others})
    _assert_disjoint([m.data for m in (lambda_message, *other_parent_messages)], [node, *parents])
    head = [_masked_tpm(net, node, evidence), lambda_message.data]
    data = _combine(head, other_parent_messages, evidence, parent)
    return AmplitudeMessage(node, parent, "lambda", parent, data)


def rule2_pi_to_child(
    net: QBNet,
    node: int,
    child: int,
    pi_message: AmplitudeMessage,
    other_child_messages: Sequence[AmplitudeMessage] = (),
    evidence: Mapping[int, int] | None = None,
) -> AmplitudeMessage:
    """Pi message from a node to one of its children.

    The node's pi aggregate times the lambda messages from every other
    child, entrywise in the node's variable. For a node whose only child
    is the target, this is just the renormalized pi aggregate; a leaf
    degenerately sends its pi aggregate onward unchanged, and takes no
    other messages.
    """
    evidence = validate_evidence(net.dag, evidence or {})
    dag = net.dag
    children = dag.children(node)
    if children and child not in children:
        raise ValueError(f"node {child} is not a child of node {node}")
    _expect_messages([pi_message], [node], "pi", {node: node})
    others = tuple(c for c in children if c != child)
    _expect_messages(other_child_messages, others, "lambda", {c: node for c in others})
    _assert_disjoint([m.data for m in (pi_message, *other_child_messages)], [node])
    data = _combine([pi_message.data], other_child_messages, evidence, node)
    return AmplitudeMessage(node, child, "pi", node, data)


def _literal_message(net: QBNet, sender: int, receiver: int, inbox, evidence) -> AmplitudeMessage:
    """Rule 1 to a parent or rule 2 to a child, out of ``inbox[(k, sender)]``."""
    dag = net.dag
    from_children = [inbox[(c, sender)] for c in dag.children(sender) if c != receiver]
    from_parents = [inbox[(p, sender)] for p in dag.parents(sender) if p != receiver]
    if receiver in dag.parents(sender):
        lam = compute_lambda(net, sender, from_children, evidence)
        return rule1_lambda_to_parent(net, sender, receiver, lam, from_parents, evidence)
    pi = compute_pi(net, sender, from_parents, evidence)
    return rule2_pi_to_child(net, sender, receiver, pi, from_children, evidence)


def _literal_belief(net: QBNet, node: int, inbox, evidence) -> Belief:
    """The belief whose family is the squared norm of the product of the
    node's lambda and pi aggregates out of ``inbox``, hidden axes summed."""
    dag = net.dag
    lam = compute_lambda(net, node, [inbox[(c, node)] for c in dag.children(node)], evidence)
    pi = compute_pi(net, node, [inbox[(p, node)] for p in dag.parents(node)], evidence)
    amp = _capped_product([lam.data, pi.data], DEFAULT_CAP, "belief")
    weight = np.abs(amp.data) ** 2
    keep, axes = _family_nodes(dag, node, evidence)
    # amp.labels and keep both ascend, so the sum's axes follow keep
    hidden = tuple(k for k, l in enumerate(amp.labels) if l not in keep)
    return _belief(node, keep, weight.sum(axis=hidden), axes)


def _assert_disjoint(parts: Iterable[LabeledAmplitude], local: Collection[int]) -> None:
    """Each part may meet ``local`` only in its carrier, and no two parts
    may share a hidden label; otherwise the graph walked is not a tree."""
    owned: set[int] = set()
    for part in parts:
        hidden = [l for l in part.labels if l not in local]
        if len(part.labels) - len(hidden) > 1 or owned.intersection(hidden):
            raise AssertionError("a hidden label reached one combination twice; not a tree")
        owned.update(hidden)


def _masked(table: np.ndarray, axes: tuple[int, ...], evidence: Mapping[int, int]) -> np.ndarray:
    """``table`` (one axis per label of ``axes``) with each observed axis masked."""
    if not any(label in evidence for label in axes):
        return table
    index = tuple(evidence.get(label, slice(None)) for label in axes)
    out = np.zeros_like(table)
    out[index] = table[index]
    return out


# The message core of propagate_polytree. A message is a pair (carrier, mu):
# Pearl's lambda or pi on the squared family weights, summing to one.


def _skeleton_sweeps(dag: Dag) -> list[tuple[int, int]]:
    """Directed edges (sender, receiver) in collect-then-distribute order."""
    parent_of: dict[int, int] = {}
    sends: list[tuple[int, int]] = []
    for start in range(dag.node_count):
        if start in parent_of:
            continue
        parent_of[start] = start
        order = [start]
        for u in order:  # breadth first; the list grows as it is walked
            for v in dag.neighbors(u):
                if v not in parent_of:
                    parent_of[v] = u
                    order.append(v)
        sends += [(u, parent_of[u]) for u in reversed(order[1:])]  # collect: toward the root
        sends += [(parent_of[u], u) for u in order[1:]]  # distribute: toward the leaves
    return sends


def _gather_call(dag: Dag, letters: list[str], node: int, out, skip: int | None = None) -> tuple:
    """W_node times every message but the one from ``skip``, onto ``out``: children (their
    product is lambda), parents, one-state carriers ([1.0]) left out; subscripts; a short shape."""
    parents, lam = dag.parents(node), dag.children(node) if letters[0] else ()
    if skip in lam:
        lam = tuple([c for c in lam if c != skip])
    pis = parents
    if skip in parents or "" in letters:
        pis = tuple([p for p, letter in zip(parents, letters[1:]) if letter and p != skip])
    subs = ["".join(letters)] + letters[:1] * bool(lam) + [letters[1 + parents.index(p)] for p in pis]
    held = "".join([letters[0] if l == node else letters[1 + parents.index(l)] for l in out])
    shape = None if len(held) == len(out) else tuple([dag.cardinality(l) for l in out])
    return lam, pis, ",".join(subs) + "->" + held, shape


@functools.lru_cache(maxsize=_PLANS_CACHED)
def _polytree_schedule(dag: Dag, observed: frozenset[int]) -> tuple:
    """Per node, its family if one is ``observed`` (else None) and W_j's shape; per message
    in sweep order, (sender, receiver, carrier, *call); per belief, (node, keep, axes, *call)."""
    if not is_polytree(dag):
        raise StructureError("belief propagation here requires a polytree skeleton")
    card, layout, letters, beliefs = dag.cardinalities, [], [], []
    for j in range(dag.node_count):
        family = (j, *dag.parents(j))
        free = iter(_LETTERS)
        letters.append([next(free) if card[l] != 1 else "" for l in family])
        shape = tuple([card[l] for l in family if card[l] != 1])
        layout.append((None if observed.isdisjoint(family) else family, shape))
        keep, axes = _family_nodes(dag, j, observed)
        beliefs.append((j, keep, axes) + _gather_call(dag, letters[j], j, keep))
    messages = []
    for s, r in _skeleton_sweeps(dag):
        carrier = r if r in dag.parents(s) else s
        messages.append((s, r, carrier) + _gather_call(dag, letters[s], s, (carrier,), r))
    return tuple(layout), tuple(messages), tuple(beliefs)


def _gathered(weight: np.ndarray, inbox: dict, node: int, lam, pis, subs: str, shape) -> np.ndarray:
    """A call of :func:`_gather_call` run on ``weight`` and on ``inbox``."""
    arrays = [weight]
    if lam:
        product = inbox[lam[0], node][1]
        for c in lam[1:]:
            product = product * inbox[c, node][1]
        arrays.append(product)
    for p in pis:
        arrays.append(inbox[p, node][1])
    result = np.einsum(subs, *arrays)
    return result if shape is None else result.reshape(shape)


def _edge_message(step: tuple, weights: list, inbox: dict) -> tuple[int, np.ndarray]:
    """The message of a scheduled ``step``: lambda to a parent, pi to a child."""
    sender, _, carrier, lam, pis, subs, shape = step
    mu = _gathered(weights[sender], inbox, sender, lam, pis, subs, shape)
    total = np.add.reduce(mu)
    if total == 0.0:
        raise ImpossibleEvidenceError("impossible evidence: a message vanished identically")
    return carrier, mu / total


def propagate_polytree(
    net: QBNet, evidence: Mapping[int, int] | None = None
) -> dict[int, Belief]:
    """Exact posteriors for every node of a polytree net.

    One collect sweep and one distribute sweep compute all fixed-point
    messages, each a lambda or pi vector with one entry per state of its
    edge variable. Each node's belief is one more contraction: its
    masked squared table times every message it received, onto the node
    and its unobserved parents, normalized. That is the family posterior;
    summed over the parents it is the node's table.

    Everything but the arrays depends on ``net.dag`` and the observed nodes
    alone, so each such shape is scheduled once and kept in an LRU cache of
    ``_PLANS_CACHED`` (32); the polytree check runs on a miss alone. Binary
    chains of 200 and 1,000 nodes observed at the far end take 3.2 and 17 ms
    a call cached (45 kB, 0.5 MB traced), 4.8 and 25 ms not (2-vCPU host).

    Raises
    ------
    StructureError
        if the skeleton has an undirected cycle.
    ImpossibleEvidenceError
        if the evidence has probability zero.
    """
    dag = net.dag
    layout, messages, beliefs = _polytree_schedule(dag, frozenset(evidence or ()))
    evidence = validate_evidence(dag, evidence or {})
    weights = [(w if family is None else _masked(w, family, evidence)).reshape(shape)
               for w, (family, shape) in zip((np.square(np.abs(t.table)) for t in net.tpms), layout)]
    inbox: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
    for step in messages:
        inbox[step[0], step[1]] = _edge_message(step, weights, inbox)
    return {j: _belief(j, keep, _gathered(weights[j], inbox, j, lam, pis, subs, shape), axes)
            for j, keep, axes, lam, pis, subs, shape in beliefs}
