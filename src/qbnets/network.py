"""Quantum Bayesian networks and their exact amplitude algebra.

A net attaches one complex table per node: the entry ``A(x_j | pa)`` is
a probability amplitude, and each parent configuration's column has unit
2-norm, so the squared joint amplitude is a bona fide joint probability.
The functions below realize the vector-amplitude algebra on top of that:
joint tensors, kets over a multinode's complement, marginals,
conditionals, and the brute-force posterior used as the inference oracle
throughout the test suite. Those build the joint tensor over every node
and are the dense references. Reduced states instead come from variable
elimination over the doubled network {A_j, A_j*}, whose intermediates
follow the net's width rather than its size.

``_contract`` is the package's one contraction core: the elimination
here and quantum belief propagation in :mod:`qbnets.qbp` both sum
products of node tables through it, with node labels as indices.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .amplitudes import LabeledAmplitude, labeled, multiply, product
from .errors import CapacityError, ImpossibleEvidenceError, ZeroProbabilityError
from .graph import Dag, as_multinode

#: Largest dense joint tensor (in amplitudes) the exact routines will build.
DEFAULT_CAP = 2**20

COLUMN_NORM_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class NodeTpm:
    """The complex transition table attached to one node.

    ``table[x, p1, p2, ...]`` is ``A(x | p1, p2, ...)`` with parent axes
    in the node's declared parent order. Every column (fixed parent
    configuration) must have unit 2-norm.
    """

    node: int
    parents: tuple[int, ...]
    table: np.ndarray

    def column_norm_error(self) -> float:
        return _column_norm_error(self.table)


def _column_norm_error(table: np.ndarray, axis: int = 0) -> float:
    """Largest deviation from 1 of a squared column norm along ``axis``."""
    sums = (np.abs(table) ** 2).sum(axis=axis)
    return float(np.max(np.abs(sums - 1.0))) if sums.size else 0.0


def _check_table(node: int, table: np.ndarray, atol: float = COLUMN_NORM_ATOL, lead: int = 0) -> None:
    """Reject a non-finite table, or one whose columns are not unit vectors.

    ``table`` may carry ``lead`` leading stack axes; the state axis
    follows them.
    """
    if not np.isfinite(table).all():
        raise ValueError(f"node {node}: table has a non-finite entry")
    err = _column_norm_error(table, lead)
    if err > atol:
        raise ValueError(
            f"node {node}: a parent configuration's amplitudes deviate from "
            f"unit norm by {err:.3g} (allowed {atol:.3g})"
        )


def node_tpm(node: int, parents: Sequence[int], table, atol: float = COLUMN_NORM_ATOL) -> NodeTpm:
    arr = np.asarray(table, dtype=np.complex128)
    parents = tuple(int(p) for p in parents)
    if arr.ndim != 1 + len(parents):
        raise ValueError(
            f"node {node}: table rank {arr.ndim} but {len(parents)} parents"
        )
    with np.errstate(over="ignore"):  # a norm that overflows is inf, rejected
        _check_table(node, arr, atol)
    return NodeTpm(int(node), parents, arr)


class QBNet:
    """A Dag plus one unit-column complex table per node."""

    __slots__ = ("dag", "tpms")

    def __init__(self, dag: Dag, tpms: Sequence[NodeTpm]) -> None:
        if len(tpms) != dag.node_count:
            raise ValueError(
                f"{dag.node_count} nodes but {len(tpms)} tables"
            )
        for j, tpm in enumerate(tpms):
            if tpm.node != j:
                raise ValueError(f"table {j} is declared for node {tpm.node}")
            if tpm.parents != dag.parents(j):
                raise ValueError(
                    f"node {j}: table parents {tpm.parents} do not match "
                    f"graph parents {dag.parents(j)}"
                )
            expect = (dag.cardinality(j),) + tuple(
                dag.cardinality(p) for p in tpm.parents
            )
            if tpm.table.shape != expect:
                raise ValueError(
                    f"node {j}: table shape {tpm.table.shape}, expected {expect}"
                )
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "tpms", tuple(tpms))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("QBNet is immutable")

    def __repr__(self) -> str:
        return f"QBNet({self.dag!r})"


def validate_evidence(dag: Dag, evidence: Mapping[int, int]) -> dict[int, int]:
    out = {}
    for node, value in evidence.items():
        if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in (node, value)):
            raise ValueError(f"evidence {node!r}: {value!r} is not an integer node and state")
        node, value = int(node), int(value)
        if not 0 <= node < dag.node_count:
            raise ValueError(f"evidence names node {node}, out of range")
        if not 0 <= value < dag.cardinality(node):
            raise ValueError(
                f"evidence state {value} out of range for node "
                f"{dag.name(node)} (cardinality {dag.cardinality(node)})"
            )
        out[node] = value
    return out


def tpm_amplitude(net: QBNet, node: int) -> LabeledAmplitude:
    """Node table as a labeled tensor over {node} and its parents."""
    tpm = net.tpms[node]
    return labeled((node,) + tpm.parents, tpm.table)


def _check_cap(dims: Iterable[int], cap: int, what: str = "joint tensor") -> None:
    total = math.prod(dims)
    if total > cap:
        raise CapacityError(
            f"{what} would hold {total} entries, above the cap of {cap}"
        )


def _capped_multiply(a: LabeledAmplitude, b: LabeledAmplitude) -> LabeledAmplitude:
    """``multiply(a, b)``, refused before it is built if it would hold
    more than ``DEFAULT_CAP`` entries. The product of the two sizes
    bounds the product's size, so the exact count is only taken when
    that bound is above the cap."""
    if a.data.size * b.data.size > DEFAULT_CAP:
        dims = dict(zip(a.labels, a.data.shape))
        dims.update(zip(b.labels, b.data.shape))
        _check_cap(dims.values(), DEFAULT_CAP, "product")
    return multiply(a, b)


def joint_amplitude(net: QBNet, assignment: Sequence[int]) -> complex:
    """Product of table entries at one full assignment."""
    dag = net.dag
    if len(assignment) != dag.node_count:
        raise ValueError(
            f"assignment length {len(assignment)} for {dag.node_count} nodes"
        )
    for j, x in enumerate(assignment):
        if not 0 <= x < dag.cardinality(j):
            raise ValueError(
                f"state {x} out of range for node {dag.name(j)}"
            )
    value = 1.0 + 0.0j
    for j, tpm in enumerate(net.tpms):
        idx = (assignment[j],) + tuple(assignment[p] for p in tpm.parents)
        value *= tpm.table[idx]
    return value


def amplitude_tensor(net: QBNet, cap: int = DEFAULT_CAP) -> LabeledAmplitude:
    """The full joint amplitude as a tensor over every node.

    Its global squared norm is 1 up to roundoff, by the unit-column
    condition on every table.
    """
    _check_cap(net.dag.cardinalities, cap)
    return product(tpm_amplitude(net, j) for j in range(net.dag.node_count))


# Operands per np.einsum call; NumPy 1.x allows 32, NumPy 2 allows 64.
_MAX_OPERANDS = 32

_Factor = tuple[tuple[int, ...], np.ndarray]


def _einsum(parts: Sequence[_Factor], out: Sequence[int]) -> np.ndarray:
    """Sum-product of ``parts`` onto the indices ``out``, in one einsum call.

    One-state axes are dropped before the call and restored in the
    output, and the other indices are renumbered from 0 for this call
    alone, so NumPy's limit on subscript symbols bounds the multi-state
    indices of one step, not the indices of the net.
    """
    local: dict[int, int] = {}
    args: list = []
    for idx, data in parts:
        if 1 in data.shape:
            idx = [i for i, d in zip(idx, data.shape) if d != 1]
            data = data.reshape([d for d in data.shape if d != 1])
        args += [data, [local.setdefault(i, len(local)) for i in idx]]
    subs = [local[i] for i in out if i in local]
    result = np.einsum(*args, subs)
    if len(subs) < len(out):
        result = np.expand_dims(result, [k for k, i in enumerate(out) if i not in local])
    return result


def _contract(
    parts: Sequence[_Factor], out: Sequence[int], card: Mapping[int, int], cap: int
) -> np.ndarray:
    """Sum-product of ``parts`` onto ``out``, with at most ``_MAX_OPERANDS``
    operands per einsum call. A group of parts merged ahead of the
    summation keeps all of its indices and is held to ``cap`` too."""
    parts = list(parts)
    while len(parts) > _MAX_OPERANDS:
        head, parts = parts[:_MAX_OPERANDS], parts[_MAX_OPERANDS:]
        scope = sorted(set().union(*(idx for idx, _ in head)))
        _check_cap((card[i] for i in scope), cap, "an elimination step")
        parts.insert(0, (tuple(scope), _einsum(head, scope)))
    return _einsum(parts, out)


# the index label of the trial axis that every table of a doubled
# contraction carries; its cardinality is 1 in the plan, so it enters no
# score and no capacity check
_TRIAL = -1


@dataclass(frozen=True, eq=False)
class _DoubledPlan:
    """The elimination schedule of a doubled network, without its tables.

    ``scopes[k]`` is the index tuple of factor k: 2j is node j's table,
    2j + 1 its conjugate, and 2n + s the intermediate of step s.
    ``steps[s]`` lists the factors that step s multiplies and sums over
    its node; ``final`` lists the factors left for the last product onto
    ``out``, which also takes one identity per ``diag`` node. ``largest``
    is the size of the largest per-model array the schedule holds: a
    node table, an intermediate or the D x D state.
    """

    n: int
    card: dict[int, int]
    scopes: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]
    final: tuple[int, ...]
    diag: tuple[int, ...]
    out: tuple[int, ...]
    largest: int
    cap: int


def _doubled_plan(dag: Dag, keep, diag, cap: int) -> _DoubledPlan:
    """Plan the contraction of the doubled network {A_j, A_j*} onto the
    held nodes ``keep | diag``; it depends on the graph alone.

    Node j's ket index is j. Its bra index is n + j when j is in
    ``keep`` and j itself otherwise, so kept nodes keep separate ket
    and bra indices, ``diag`` nodes share one index, and every other
    node is summed out. Those traced nodes are eliminated one at a time
    (variable elimination), always the one whose intermediate would be
    smallest, ties going to the lower node index. A heap holds the
    scores; eliminating a node changes the scores of its neighbours
    alone, so only they are re-scored and pushed, and an entry whose
    score is no longer current is skipped when it comes up (Koller &
    Friedman, *Probabilistic Graphical Models*, 2009, ch. 9).

    Raises
    ------
    ValueError
        if ``keep | diag`` is empty.
    CapacityError
        if the reduced state's dimension, or an intermediate's number of
        entries, is above ``cap``. The final product over the held
        indices is the caller's output and is not held to ``cap``.
    """
    n = dag.node_count
    kept = set(keep)
    held = kept | set(diag)
    if not held:
        raise ValueError("keep | diag must name at least one node")
    held_dim = math.prod(dag.cardinality(i) for i in held)
    if held_dim > cap:
        raise CapacityError(
            f"reduced state would be {held_dim}-dimensional, above the cap of {cap}"
        )
    bra = [n + j if j in kept else j for j in range(n)]
    card = {_TRIAL: 1}
    for j in range(n):
        card[j] = card[n + j] = dag.cardinality(j)

    scopes: list[tuple[int, ...]] = []
    live: set[int] = set()
    where: dict[int, set[int]] = {i: set() for i in card}

    def add(idx: tuple[int, ...]) -> None:
        for i in idx:
            where[i].add(len(scopes))
        live.add(len(scopes))
        scopes.append(idx)

    for j in range(n):
        idx = (j,) + dag.parents(j)
        add(idx)
        add(tuple(bra[i] for i in idx))

    def scope(v: int) -> tuple[int, ...]:
        return tuple(sorted(set().union(*(scopes[k] for k in where[v])) - {v}))

    def size(idx: tuple[int, ...]) -> int:
        return math.prod(card[i] for i in idx)

    largest = max([held_dim**2] + [size(idx) for idx in scopes])
    score = {v: size(scope(v)) for v in range(n) if v not in held}
    heap = [(s, v) for v, s in score.items()]
    heapq.heapify(heap)
    order, steps = [], []
    while heap:
        s, v = heapq.heappop(heap)
        if score.get(v) != s:
            continue
        del score[v]
        out = scope(v)
        _check_cap((card[i] for i in out), cap, "an elimination step")
        keys = tuple(sorted(where[v]))
        for k in keys:
            live.discard(k)
            for i in scopes[k]:
                where[i].discard(k)
        order.append(v)
        steps.append(keys)
        add(out)
        largest = max(largest, size(out))
        for u in out:
            if u in score:
                score[u] = size(scope(u))
                heapq.heappush(heap, (score[u], u))

    kets = sorted(held)
    return _DoubledPlan(
        n=n,
        card=card,
        scopes=tuple(scopes),
        order=tuple(order),
        steps=tuple(steps),
        final=tuple(sorted(live)),
        diag=tuple(diag),
        out=tuple(kets) + tuple(n + j for j in kets),
        largest=largest,
        cap=cap,
    )


def _doubled_contraction(plan: _DoubledPlan, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Run ``plan`` on node tables that carry one leading trial axis.

    ``tables[j]`` is node j's table stacked over T trials, (T, *shape);
    every factor gets the trial axis under its own label, so one einsum
    per step serves all trials and each step's order is the plan's. A
    single net is the case T = 1, whose trial axis the contraction core
    drops before each call. The last step writes the product onto the
    diagonal blocks of the ``diag`` nodes. Returns the held nodes'
    kets, then their bras, each group ascending, after the trial axis.
    A group that ``_contract`` merges ahead of a step is held to the
    plan's ``cap`` per trial.
    """
    data: list[np.ndarray | None] = [x for t in tables for x in (t, t.conj())]

    def parts(keys: Sequence[int]) -> list[_Factor]:
        got = [((_TRIAL,) + plan.scopes[k], data[k]) for k in keys]
        for k in keys:
            data[k] = None
        return got

    for keys in plan.steps:
        out = (_TRIAL,) + plan.scopes[len(data)]
        data.append(_contract(parts(keys), out, plan.card, plan.cap))
    last = parts(plan.final)
    last += [((j, plan.n + j), np.eye(plan.card[j])) for j in plan.diag]
    out = (_TRIAL,) + plan.out
    # every part left lies inside the output, so no merged group outgrows it
    return _contract(last, out, plan.card, math.prod(plan.card[i] for i in out))


def vector_amplitude(
    net: QBNet, a, a_values: Sequence[int], cap: int = DEFAULT_CAP
) -> LabeledAmplitude:
    """The ket over the complement of ``a`` with ``a`` fixed at ``a_values``.

    ``a_values`` aligns with the multinode's sorted members. The squared
    norm of the result equals the marginal probability of the assignment.
    Boundary cases: an empty ``a`` returns the full joint tensor, and
    ``a`` = all nodes returns a zero-axis tensor holding the joint
    amplitude.
    """
    a = as_multinode(a)
    a.validate(net.dag)
    if len(a_values) != len(a):
        raise ValueError(f"{len(a)} nodes in multinode but {len(a_values)} values")
    fix = dict(zip(a.members, (int(v) for v in a_values)))
    fix = validate_evidence(net.dag, fix)
    amp = amplitude_tensor(net, cap)
    return amp.slice_at(fix)


def marginal_probability(net: QBNet, a, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Probability table over the multinode ``a`` (axes in sorted order):
    :func:`posterior_oracle` with no evidence, so it stays dense."""
    return posterior_oracle(net, a, {}, cap)


@dataclass(frozen=True, eq=False)
class ConditionalAmplitude:
    """The pair of kets behind a conditional vector amplitude.

    Written like a quotient, but never divided: the object is the tuple
    (ket with both multinodes fixed, ket with the conditioning multinode
    fixed). Its squared-norm ratio is the conditional probability.
    """

    numerator: LabeledAmplitude
    denominator: LabeledAmplitude

    @property
    def probability(self) -> float:
        return self.numerator.norm() ** 2 / self.denominator.norm() ** 2


def conditional_amplitude(
    net: QBNet,
    b,
    a,
    b_values: Sequence[int],
    a_values: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> ConditionalAmplitude:
    a, b = as_multinode(a), as_multinode(b)
    if not a.isdisjoint(b):
        raise ValueError("conditioned and conditioning multinodes must be disjoint")
    denominator = vector_amplitude(net, a, a_values, cap)
    if denominator.norm() == 0.0:
        raise ZeroProbabilityError(
            "conditioning assignment has zero probability; the quotient "
            "of kets is undefined there"
        )
    joint = a | b
    fix = dict(zip(a.members, a_values))
    fix.update(zip(b.members, b_values))
    joint_values = [fix[m] for m in joint.members]
    numerator = vector_amplitude(net, joint, joint_values, cap)
    return ConditionalAmplitude(numerator, denominator)


def posterior_oracle(
    net: QBNet,
    query,
    evidence: Mapping[int, int],
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Exact posterior over ``query`` given ``evidence``, by brute force.

    Slices the full joint tensor at the evidence, squares, sums out the
    hidden nodes, and normalizes. Deliberately exponential; this is the
    reference answer every message-passing routine is tested against.
    """
    query = as_multinode(query)
    query.validate(net.dag)
    evidence = validate_evidence(net.dag, evidence)
    if any(q in evidence for q in query):
        raise ValueError("query nodes must be disjoint from evidence nodes")

    amp = amplitude_tensor(net, cap)
    clamped = amp.slice_at(evidence)
    squared = np.abs(clamped.data) ** 2
    total = float(squared.sum())
    if total == 0.0:
        raise ImpossibleEvidenceError("impossible evidence: the observed states have zero probability")
    drop = tuple(k for k, l in enumerate(clamped.labels) if l not in query)
    table = squared.sum(axis=drop) if drop else squared
    return table / total
