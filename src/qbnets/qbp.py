"""Quantum belief propagation on polytrees.

Messages here are kets, not probability tables. The paper's rules are
pure tensor algebra on them:

* products in the rules are entrywise products over disjoint hidden
  axes (the polytree guarantees disjointness, and it is asserted);
* sums over unobserved variables keep the variable as a hidden axis
  instead of summing amplitudes, which is what makes squared norms of
  the final beliefs exact posteriors;
* sums over observed variables collapse to the observed value, because
  every table axis of an observed node is masked to a one-hot slice.

Applied literally, a message would carry the edge variable (its
carrier c) plus one hidden axis H for every unobserved node of the
sending subtree, so its size would grow exponentially with that
subtree. :func:`propagate_polytree` instead folds every message it sends
onto its carrier, m'(c) = ||m(c, .)||_2 (:func:`~qbnets.amplitudes.fold`).
This is exact: no rule ever sums amplitudes over an unobserved axis, so
for every carrier configuration sum_H |prod_k m_k|^2 =
prod_k sum_{H_k} |m_k|^2, and every belief table is unchanged. Each
rule's intermediate is then at most one family table: a node, its
parents and one carrier.

The rule functions themselves do not fold; handed unfolded messages
they return the literal messages of the paper, and raise
:class:`~qbnets.errors.CapacityError` before building a product of more
than ``DEFAULT_CAP`` entries. Each outgoing message is
rescaled to unit 2-norm; the rules are stated up to normalization, and
the final probability tables renormalize anyway. On a polytree one
collect sweep and one distribute sweep reach the exact fixed point; a
further sweep reproduces every message bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .amplitudes import LabeledAmplitude, fold, labeled, multiply, one_hot
from .errors import ImpossibleEvidenceError, SchedulingError, StructureError
from .graph import Dag, is_polytree
from .network import QBNet, _capped_multiply, tpm_amplitude, validate_evidence


@dataclass(frozen=True, eq=False)
class AmplitudeMessage:
    """A ket-valued message on one directed edge of the skeleton.

    ``kind`` is "pi" for parent-to-child flow and "lambda" for
    child-to-parent flow. ``carrier`` is the edge variable (the target
    parent for a lambda message, the sending node for a pi message);
    every other label of ``data`` is a hidden unobserved node owned by
    the sending subtree. Messages sent by :func:`propagate_polytree` are
    folded and have no hidden labels. Node-local aggregates (the pi and
    lambda of a node itself) use source == target.
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

    ``amplitude`` is the normalized product of the node's lambda and pi
    aggregates. Built from folded messages it spans the node and its
    unobserved parents. ``table`` is its squared norm summed over the
    parents, normalized over the node's states.
    """

    node: int
    amplitude: LabeledAmplitude
    table: np.ndarray


def _masked_tpm(net: QBNet, node: int, evidence: Mapping[int, int]) -> LabeledAmplitude:
    amp = tpm_amplitude(net, node)
    for label in amp.labels:
        if label in evidence:
            amp = multiply(amp, one_hot(label, amp.card(label), evidence[label]))
    return amp


def _assert_disjoint_hidden(messages: Sequence[AmplitudeMessage], local: Iterable[int]) -> None:
    """Hidden labels must be owned by exactly one incoming subtree."""
    local = set(local)
    owner: dict[int, AmplitudeMessage] = {}
    for msg in messages:
        for label in msg.hidden:
            if label in local or label in owner:
                raise AssertionError(
                    f"hidden label {label} reached node-local combination "
                    f"twice; the graph walked is not a polytree"
                )
            owner[label] = msg


def _finish(
    data: LabeledAmplitude, carrier: int, evidence: Mapping[int, int]
) -> LabeledAmplitude:
    """Collapse observed non-carrier axes and rescale to unit norm."""
    drop = [l for l in data.labels if l in evidence and l != carrier]
    out = data.sum_over(drop)
    norm = out.norm()
    if norm == 0.0:
        raise ImpossibleEvidenceError(
            "impossible evidence: a subtree's amplitude vanished identically"
        )
    return out.scaled(1.0 / norm)


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
    _assert_disjoint_hidden(parent_messages, [node, *parents])
    data = _masked_tpm(net, node, evidence)
    for msg in sorted(parent_messages, key=lambda m: m.source):
        data = _capped_multiply(data, msg.data)
    return AmplitudeMessage(node, node, "pi", node, _finish(data, node, evidence))


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
    _assert_disjoint_hidden(child_messages, [node])
    data = labeled((node,), np.ones(net.dag.cardinality(node)))
    for msg in sorted(child_messages, key=lambda m: m.source):
        data = _capped_multiply(data, msg.data)
    return AmplitudeMessage(node, node, "lambda", node, _finish(data, node, evidence))


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
    if lambda_message is None:
        raise SchedulingError("rule 1 needs the node's own lambda aggregate")
    others = tuple(p for p in parents if p != parent)
    _expect_messages(other_parent_messages, others, "pi", {p: p for p in others})
    if lambda_message.kind != "lambda" or lambda_message.carrier != node:
        raise SchedulingError("rule 1 needs the node's own lambda aggregate")
    incoming = [lambda_message, *other_parent_messages]
    _assert_disjoint_hidden(incoming, [node, *parents])
    data = _masked_tpm(net, node, evidence)
    data = _capped_multiply(data, lambda_message.data)
    for msg in sorted(other_parent_messages, key=lambda m: m.source):
        data = _capped_multiply(data, msg.data)
    return AmplitudeMessage(node, parent, "lambda", parent, _finish(data, parent, evidence))


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
    degenerately sends its pi aggregate onward unchanged.
    """
    evidence = validate_evidence(net.dag, evidence or {})
    dag = net.dag
    children = dag.children(node)
    if not children:
        if pi_message.kind != "pi" or pi_message.carrier != node:
            raise SchedulingError("rule 2 needs the node's own pi aggregate")
        data = _finish(pi_message.data, node, evidence)
        return AmplitudeMessage(node, child, "pi", node, data)
    if child not in children:
        raise ValueError(f"node {child} is not a child of node {node}")
    others = tuple(c for c in children if c != child)
    _expect_messages(other_child_messages, others, "lambda", {c: node for c in others})
    if pi_message.kind != "pi" or pi_message.carrier != node:
        raise SchedulingError("rule 2 needs the node's own pi aggregate")
    incoming = [pi_message, *other_child_messages]
    _assert_disjoint_hidden(incoming, [node])
    data = pi_message.data
    for msg in sorted(other_child_messages, key=lambda m: m.source):
        data = _capped_multiply(data, msg.data)
    return AmplitudeMessage(node, child, "pi", node, _finish(data, node, evidence))


def _skeleton_sweeps(dag: Dag) -> list[tuple[int, int]]:
    """Directed edges (sender, receiver) in collect-then-distribute order."""
    n = dag.node_count
    visited = [False] * n
    sends: list[tuple[int, int]] = []
    for start in range(n):
        if visited[start]:
            continue
        parent_of: dict[int, int | None] = {start: None}
        order = [start]
        visited[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in dag.neighbors(u):
                if not visited[v]:
                    visited[v] = True
                    parent_of[v] = u
                    order.append(v)
                    queue.append(v)
        for u in reversed(order):  # collect: leaves toward the root
            if parent_of[u] is not None:
                sends.append((u, parent_of[u]))
        for u in order:  # distribute: root toward the leaves
            for v in dag.neighbors(u):
                if parent_of.get(v) == u:
                    sends.append((u, v))
    return sends


def _edge_message(
    net: QBNet,
    sender: int,
    receiver: int,
    inbox: dict[tuple[int, int], AmplitudeMessage],
    evidence: Mapping[int, int],
) -> AmplitudeMessage:
    dag = net.dag
    parents = dag.parents(sender)
    children = dag.children(sender)
    from_children = [inbox[(c, sender)] for c in children if c != receiver]
    from_parents = [inbox[(p, sender)] for p in parents if p != receiver]
    if receiver in parents:
        lam = compute_lambda(net, sender, from_children, evidence)
        msg = rule1_lambda_to_parent(net, sender, receiver, lam, from_parents, evidence)
    else:
        pi = compute_pi(net, sender, from_parents, evidence)
        msg = rule2_pi_to_child(net, sender, receiver, pi, from_children, evidence)
    return replace(msg, data=fold(msg.data, msg.carrier))


def propagate_polytree(
    net: QBNet, evidence: Mapping[int, int] | None = None
) -> dict[int, Belief]:
    """Exact posteriors for every node of a polytree net.

    One collect sweep and one distribute sweep compute all fixed-point
    messages, each folded onto its carrier as it is sent, so every
    message holds one entry per state of its edge variable. Each node's
    belief is the entrywise product of its lambda and pi aggregates, and
    the returned table is the squared norm of that ket over the node's
    unobserved parents, normalized over the node's states.

    Raises
    ------
    StructureError
        if the skeleton has an undirected cycle.
    ImpossibleEvidenceError
        if the evidence has probability zero.
    """
    if not is_polytree(net.dag):
        raise StructureError("belief propagation here requires a polytree skeleton")
    evidence = validate_evidence(net.dag, evidence or {})

    inbox: dict[tuple[int, int], AmplitudeMessage] = {}
    for sender, receiver in _skeleton_sweeps(net.dag):
        inbox[(sender, receiver)] = _edge_message(net, sender, receiver, inbox, evidence)

    beliefs: dict[int, Belief] = {}
    for node in range(net.dag.node_count):
        lam = compute_lambda(
            net, node, [inbox[(c, node)] for c in net.dag.children(node)], evidence
        )
        pi = compute_pi(
            net, node, [inbox[(p, node)] for p in net.dag.parents(node)], evidence
        )
        _assert_disjoint_hidden([lam, pi], [])
        amp = _finish(multiply(lam.data, pi.data), node, evidence)
        squared = np.abs(amp.data) ** 2
        axis = amp.labels.index(node)
        drop = tuple(k for k in range(len(amp.labels)) if k != axis)
        table = squared.sum(axis=drop) if drop else squared
        total = float(table.sum())
        if total == 0.0:
            raise ImpossibleEvidenceError(
                "impossible evidence: every state of node "
                f"{net.dag.name(node)} has zero posterior mass"
            )
        beliefs[node] = Belief(node, amp, table / total)
    return beliefs
