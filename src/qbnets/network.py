"""Quantum Bayesian networks and their exact amplitude algebra.

A net attaches one complex table per node: the entry ``A(x_j | pa)`` is
a probability amplitude, and each parent configuration's column has unit
2-norm, so the squared joint amplitude is a bona fide joint probability.
The functions below realize the vector-amplitude algebra on top of that:
joint tensors, kets over a multinode's complement, marginals,
conditionals, and the brute-force posterior used as the inference oracle
throughout the test suite. Those are the dense references: products of
the node tables sliced at the fixed values, visiting every amplitude
those values allow, the oracle one bounded block at a time, each capped
before its first multiply, as are the literal rules of
:mod:`qbnets.qbp`. Reduced states instead come from variable elimination
over the doubled network {A_j, A_j*}, planned on its interaction graph,
whose intermediates follow the net's width rather than its size. Its
last product runs over the held indices alone, so it holds the diagonal
blocks of the dephased nodes and nothing else, and is read out two ways:
written straight onto those blocks of a dense state, for
``qinfo.net_to_density``, or kept as a stack of the blocks, for the
sampled d-separation checks of :mod:`qbnets.verify`. One net and a stack
of sampled nets run the same calls, the trial axis of a stack being the
``...`` of every subscript.

The plan is the whole program: the einsum calls, merges of more factors
than one call takes included, each result counted against the cap and
each call's subscripts written before any table is drawn, so running it
is one ``np.einsum`` call per planned call; each query shape is planned
once and then looked up. The polytree driver in :mod:`qbnets.qbp`
schedules its calls the same way, under the same bound.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .amplitudes import LabeledAmplitude, labeled, product
from .errors import CapacityError, ImpossibleEvidenceError, ZeroProbabilityError
from .graph import Dag, _as_int, as_multinode

#: Largest dense joint tensor (in amplitudes) the exact routines will build.
DEFAULT_CAP = 2**20

# most joint amplitudes one block of posterior_oracle holds
_ORACLE_AMPLITUDES = 2**16

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
    _require_tolerance("atol", atol)
    node = _as_int(node, "node index")
    arr = np.asarray(table, dtype=np.complex128)
    parents = tuple(_as_int(p, f"node {node}: parent index") for p in parents)
    if arr.ndim != 1 + len(parents):
        raise ValueError(
            f"node {node}: table rank {arr.ndim} but {len(parents)} parents"
        )
    with np.errstate(over="ignore"):  # a norm that overflows is inf, rejected
        _check_table(node, arr, atol)
    return NodeTpm(node, parents, arr)


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
        node = _as_int(node, "evidence node")
        value = _as_int(value, f"evidence state of node {node}:")
        if not 0 <= node < dag.node_count:
            raise ValueError(f"evidence names node {node}, out of range")
        if not 0 <= value < dag.cardinality(node):
            raise ValueError(
                f"evidence state {value} out of range for node "
                f"{dag.name(node)} (cardinality {dag.cardinality(node)})"
            )
        out[node] = value
    return out


def _require_unobserved(query, evidence: Mapping[int, int]) -> None:
    if any(q in evidence for q in query):
        raise ValueError("query nodes must be disjoint from evidence nodes")


def tpm_amplitude(net: QBNet, node: int) -> LabeledAmplitude:
    """Node table as a labeled tensor over {node} and its parents."""
    tpm = net.tpms[node]
    return labeled((node,) + tpm.parents, tpm.table)


def _require_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _require_positive(name: str, value: int, least: int = 1) -> None:
    """Reject a count that is not an integer (bools and floats included)
    or that is below ``least``: by default one that would make a run
    vacuous."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_cap(dims: Iterable[int], cap: int, what: str = "joint tensor") -> None:
    total = math.prod(dims)
    if total > cap:
        raise CapacityError(
            f"{what} would hold {total} entries, above the cap of {cap}"
        )


def _capped_product(parts: Sequence[LabeledAmplitude], cap: int, what: str) -> LabeledAmplitude:
    """``product(parts)``, multiplied in the order given, refused before
    the first multiply if it would hold more than ``cap`` entries. Each
    partial product spans a subset of the union of the parts' labels,
    so nothing built is larger than the size checked here."""
    dims = {l: d for p in parts for l, d in zip(p.labels, p.data.shape)}
    _check_cap(dims.values(), cap, what)
    return product(parts)


def joint_amplitude(net: QBNet, assignment: Sequence[int]) -> complex:
    """Product of table entries at one full assignment: the
    :func:`vector_amplitude` that fixes every node."""
    return vector_amplitude(net, range(net.dag.node_count), assignment).item()


def amplitude_tensor(net: QBNet, cap: int = DEFAULT_CAP) -> LabeledAmplitude:
    """The full joint amplitude as a tensor over every node.

    Its global squared norm is 1 up to roundoff, by the unit-column
    condition on every table.
    """
    tables = [tpm_amplitude(net, j) for j in range(net.dag.node_count)]
    return _capped_product(tables, cap, "joint tensor")


# Operands per np.einsum call; NumPy 1.x allows 32, NumPy 2 allows 64.
_MAX_OPERANDS = 32

# einsum's subscript symbols, in the order NumPy gives integer subscripts
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True, eq=False)
class _DoubledPlan:
    """The contraction schedule of a doubled network, without its tables.

    ``scopes[k]`` is the index tuple of factor k: 2j is node j's table,
    2j + 1 its conjugate, and 2n + c the result of call c, which
    multiplies the factors ``calls[c]`` and sums out the indices its
    result lacks. The calls are the elimination steps in ``order``, then
    the last product; ahead of one with more than ``_MAX_OPERANDS``
    factors, merge calls multiply its first ``_MAX_OPERANDS`` factors
    left, keeping all their indices, and put the result first.
    ``subscripts[c]`` is call c's einsum string: its multi-state indices
    lettered in order of first use, its one-state indices left out, and
    ``...`` leading every operand and the result for the trial axis.
    ``out`` is the state's indices, the held kets then their bras; a
    ``diag`` node's bra is its ket in every factor, so the last product
    runs over the distinct indices and fills that node's diagonal.
    ``largest`` is the size of the largest per-model array: a node
    table, a call's result or the D x D state. ``card[i]`` is index i's
    cardinality, for the kets 0 ... n - 1 and the bras n ... 2n - 1.
    Every field is a tuple, since one plan serves every caller that asks
    for its query shape.
    """

    n: int
    card: tuple[int, ...]
    scopes: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    calls: tuple[tuple[int, ...], ...]
    subscripts: tuple[str, ...]
    diag: tuple[int, ...]
    out: tuple[int, ...]
    largest: int


def _doubled_plan(dag: Dag, keep, diag, cap: int) -> _DoubledPlan:
    """Plan the contraction of the doubled network {A_j, A_j*} onto the
    held nodes ``keep | diag``; it depends on the graph alone.

    Node j's ket index is j. Its bra index is n + j when j is in
    ``keep`` and j itself otherwise, so kept nodes keep separate ket
    and bra indices, ``diag`` nodes share one index, and every other
    node is summed out. Those traced nodes are eliminated one at a time
    (variable elimination) on the interaction graph, whose edges join
    the indices of each factor: a node's intermediate spans its
    neighbours, and eliminating it joins those to each other. The next
    node is always the one whose intermediate would be smallest, ties
    going to the lower node index. A heap holds the scores; eliminating
    a node changes the scores of its neighbours alone, so only they are
    re-scored and pushed, and an entry whose score is no longer current
    is skipped when it comes up (Koller & Friedman, *Probabilistic
    Graphical Models*, 2009, ch. 9). Once the order is fixed, each
    factor joins the step of the first of its indices to be eliminated,
    or the last product if none of them is, and the steps and the last
    product become einsum calls, merges included, each with its
    subscripts. Each call letters its own indices, so NumPy's 52
    subscript letters bound the multi-state indices of one call, not
    those of the net; the subscripts are strings, since NumPy copies
    integer subscript lists into a 256-character buffer, which a call
    with many operands overruns.

    A plan depends on the query's shape alone, so plans are looked up,
    not made per call: the last ``_PLANS_CACHED`` (32) are kept in a
    least-recently-used cache keyed on (``dag``, ``keep`` as a
    frozenset, ``diag`` as a sorted tuple of distinct nodes, ``cap``).
    ``Dag`` hashes and compares by its nodes and parents, so equal graphs
    built apart share an entry. A refusal is an exception and is never
    cached, so every call below raises it anew, in the order given. On
    binary chains with the middle node dephased, a cached plan holds
    about 4.5 kB of traced memory at 20 nodes, 53 kB at 200 and 320 kB
    at 1,000; a call that finds it takes about 1 us at each size (a
    ``Dag`` keeps its hash), where making it takes 0.2, 1.9 and 10 ms
    (2-vCPU host).

    Raises
    ------
    ValueError
        if ``keep | diag`` is empty, or if a call has more than 52
        multi-state indices.
    CapacityError
        if ``largest`` is above ``cap``: checked once, on the finished
        schedule, before anything is drawn or contracted.
    """
    return _built_plan(dag, frozenset(keep), tuple(sorted(set(diag))), cap)


# query shapes each cache keeps: a benchmark pass asks _doubled_plan for about ten
# (reduced_states), qbp's schedules for 25 (3 chains, 12 polytrees, 6 factor trees, 4 CLI calls)
_PLANS_CACHED = 32


@functools.lru_cache(maxsize=_PLANS_CACHED)
def _built_plan(dag: Dag, kept: frozenset[int], diag: tuple[int, ...], cap: int) -> _DoubledPlan:
    """The plan :func:`_doubled_plan` describes, made afresh."""
    n = dag.node_count
    held = kept | set(diag)
    if not held:
        raise ValueError("keep | diag must name at least one node")
    bra = [n + j if j in kept else j for j in range(n)]
    card = dag.cardinalities * 2

    scopes: list[tuple[int, ...]] = []
    near: dict[int, set[int]] = {i: set() for i in range(2 * n)}
    for j in range(n):
        idx = (j,) + dag.parents(j)
        for scope in (idx, tuple(bra[i] for i in idx)):
            scopes.append(scope)
            for i in scope:
                near[i].update(scope)
    for i, nb in near.items():
        nb.discard(i)

    def size(idx: Iterable[int]) -> int:
        return math.prod(card[i] for i in idx)

    score = {v: size(near[v]) for v in range(n) if v not in held}
    heap = [(s, v) for v, s in score.items()]
    heapq.heapify(heap)
    order, inter = [], []
    while heap:
        s, v = heapq.heappop(heap)
        if score.get(v) != s:
            continue
        del score[v]
        out = near.pop(v)
        order.append(v)
        inter.append(tuple(sorted(out)))
        for u in out:
            near[u] = (near[u] | out) - {u, v}
            if u in score:
                score[u] = size(near[u])
                heapq.heappush(heap, (score[u], u))

    # the factors of each step, then of the last product, by key
    step = {v: s for s, v in enumerate(order)}
    groups: list[list[int]] = [[] for _ in range(len(order) + 1)]
    for k, scope in enumerate(scopes + inter):
        groups[min((step[i] for i in scope if i in step), default=-1)].append(k)

    kets = sorted(held)
    out = tuple(kets) + tuple(n + j for j in kets)
    results = inter + [tuple(kets) + tuple(n + j for j in kets if j not in diag)]
    calls = []
    key = {}  # step s's intermediate, numbered past the merge calls before it
    for s, (group, result) in enumerate(zip(groups, results)):
        keys = [key.get(k, k) for k in group]
        while len(keys) > _MAX_OPERANDS:
            calls.append(tuple(keys[:_MAX_OPERANDS]))
            keys = [len(scopes)] + keys[_MAX_OPERANDS:]
            scopes.append(tuple(sorted(set().union(*(scopes[k] for k in calls[-1])))))
        key[2 * n + s] = len(scopes)
        calls.append(tuple(keys))
        scopes.append(result)

    largest = max(size(idx) for idx in scopes + [out])
    _check_cap((largest,), cap, "the largest array of the reduction")
    subscripts = []
    for c, keys in enumerate(calls):
        letter: dict[int, str] = {}
        terms = []
        for k in keys:
            term = "..."
            for i in scopes[k]:
                if card[i] > 1:
                    if i not in letter:
                        if len(letter) == len(_LETTERS):
                            raise ValueError(f"one einsum call takes at most {len(_LETTERS)} indices")
                        letter[i] = _LETTERS[len(letter)]
                    term += letter[i]
            terms.append(term)
        held = "".join([letter[i] for i in scopes[2 * n + c] if i in letter])
        subscripts.append(",".join(terms) + "->..." + held)
    return _DoubledPlan(
        n=n,
        card=card,
        scopes=tuple(scopes),
        order=tuple(order),
        calls=tuple(calls),
        subscripts=tuple(subscripts),
        diag=diag,
        out=out,
        largest=largest,
    )


def _held_product(plan: _DoubledPlan, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Run ``plan`` on node tables that carry one leading trial axis.

    ``tables[j]`` is node j's table stacked over T trials, (T, *shape).
    Every size-1 axis of each table is dropped once, on entry: the
    one-state axes, and the trial axis of a single net, T = 1. The
    trial axis, if left, is the ``...`` of the plan's subscripts, so
    each of its einsum calls serves all trials and runs as planned. The
    last call runs over the distinct multi-state held indices only (a
    ``diag`` node's bra index is its ket index), so its result holds
    every diagonal block of the ``diag`` nodes and nothing else, and no
    identity factor enters any product. Returns that result, the trial
    axis first (also for T = 1), then the multi-state indices of the
    last call's scope in order. No array here is larger per trial than
    the plan's ``largest``.
    """
    squeezed = [t.squeeze() for t in tables]
    data: list[np.ndarray | None] = [x for t in squeezed for x in (t, t.conj())]
    for keys, subscripts in zip(plan.calls, plan.subscripts):
        operands = [data[k] for k in keys]
        for k in keys:
            data[k] = None
        data.append(np.einsum(subscripts, *operands))
    shape = tuple(plan.card[i] for i in plan.scopes[-1] if plan.card[i] > 1)
    return data[-1].reshape((len(tables[0]),) + shape)


def _doubled_contraction(plan: _DoubledPlan, tables: Sequence[np.ndarray]) -> np.ndarray:
    """The dense readout of :func:`_held_product`: the (T, D, D) stack of
    the states' Hermitian parts, rows and columns over the held nodes
    ascending.

    The last call's result is written through a strided view onto the
    diagonal blocks of the ``diag`` nodes in a zero state stack, so the
    state holds d_Z times more entries than the blocks; the plan's
    ``largest`` counts the D x D state. ``qinfo.net_to_density`` reads
    its state here.
    """
    product = _held_product(plan, tables)
    count = len(product)
    kets = plan.out[: len(plan.out) // 2]
    dims = tuple(plan.card[j] for j in kets)
    dim = math.prod(dims)
    rho = np.zeros((count, dim, dim), dtype=np.complex128)
    # rho with its axes split per node, (T, kets, bras); a diag node's
    # axis steps along its ket and bra axes at once, down their diagonal,
    # and a one-state node's axes are left out, as in the last result
    full = rho.reshape((count,) + dims + dims)
    ket, bra = full.strides[1 : 1 + len(kets)], full.strides[1 + len(kets) :]
    axes = [(s, t, j in plan.diag) for j, s, t in zip(kets, ket, bra) if plan.card[j] > 1]
    strides = (
        full.strides[:1]
        + tuple(s + t if d else s for s, t, d in axes)
        + tuple(t for _, t, d in axes if not d)
    )
    np.lib.stride_tricks.as_strided(full, product.shape, strides)[...] = product
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def _doubled_blocks(plan: _DoubledPlan, tables: Sequence[np.ndarray]) -> np.ndarray:
    """The block readout of :func:`_held_product`: the (T, d_Z, d_K, d_K)
    stack of the Hermitian parts of the states' diagonal blocks, one per
    joint state of the ``diag`` nodes Z (ascending, the last varying
    fastest), rows and columns over the kept nodes K ascending.

    Each block is the last call's result at one value of Z, its axes
    put in order, so the stack holds d_Z d_K^2 entries per state where
    the dense state of :func:`_doubled_contraction` holds d_Z^2 d_K^2,
    and block z equals that state's z-th diagonal block bit for bit.
    """
    product = _held_product(plan, tables)
    kept = [j for j in plan.out[: len(plan.out) // 2] if j not in plan.diag]
    axes = [i for i in plan.scopes[-1] if plan.card[i] > 1]
    order = [0] + [
        1 + axes.index(i) for i in (*plan.diag, *kept, *(plan.n + j for j in kept)) if plan.card[i] > 1
    ]
    d_z = math.prod(plan.card[j] for j in plan.diag)
    d_k = math.prod(plan.card[j] for j in kept)
    blocks = product.transpose(order).reshape(len(product), d_z, d_k, d_k)
    return 0.5 * (blocks + blocks.conj().swapaxes(-1, -2))


def vector_amplitude(
    net: QBNet, a, a_values: Sequence[int], cap: int = DEFAULT_CAP
) -> LabeledAmplitude:
    """The ket over the complement of ``a`` with ``a`` fixed at ``a_values``.

    ``a_values`` aligns with the multinode's sorted members. The squared
    norm of the result equals the marginal probability of the assignment.
    The ket is the product of the node tables sliced at ``a_values``, and
    is refused before any product when it would hold more than ``cap``
    amplitudes. Boundary cases: an empty ``a`` returns the full joint
    tensor, and ``a`` = all nodes returns a zero-axis tensor holding the
    joint amplitude.
    """
    return _capped_product(_sliced_tables(net, _fixed_values(net, a, a_values)), cap, "ket")


def _fixed_values(net: QBNet, a, a_values: Sequence[int]) -> dict[int, int]:
    """The multinode ``a``'s sorted members mapped to ``a_values``, each
    pair validated as evidence."""
    a = as_multinode(a)
    a.validate(net.dag)
    if len(a_values) != len(a):
        raise ValueError(f"{len(a)} nodes in multinode but {len(a_values)} values")
    return validate_evidence(net.dag, dict(zip(a.members, a_values)))


def _sliced_tables(net: QBNet, fix: Mapping[int, int]) -> list[LabeledAmplitude]:
    """Every node's table with the labels of ``fix`` fixed at their values."""
    return [tpm_amplitude(net, j).slice_at(fix) for j in range(net.dag.node_count)]


def marginal_probability(net: QBNet, a, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Probability table over the multinode ``a`` (axes in sorted order):
    :func:`posterior_oracle` with no evidence, so it stays dense. The
    joint is built in bounded blocks, and ``cap`` still refuses a net
    whose joint over every node would hold more than ``cap`` entries."""
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
    """The kets behind P(b = b_values | a = a_values): the denominator is
    :func:`vector_amplitude` at ``a_values``, built once, and the
    numerator is that ket sliced at ``b_values``."""
    a, b = as_multinode(a), as_multinode(b)
    if not a.isdisjoint(b):
        raise ValueError("conditioned and conditioning multinodes must be disjoint")
    denominator = vector_amplitude(net, a, a_values, cap)
    if denominator.norm() == 0.0:
        raise ZeroProbabilityError(
            "conditioning assignment has zero probability; the quotient "
            "of kets is undefined there"
        )
    numerator = denominator.slice_at(_fixed_values(net, b, b_values))
    return ConditionalAmplitude(numerator, denominator)


def _oracle_blocks(cards: Sequence[int], budget: int):
    """Indices over nodes of cardinalities ``cards`` that cover all their
    joint states in blocks of at most ``budget`` states (``budget`` >= 1).

    The trailing nodes whose product fits in ``budget`` are held whole,
    the node before them is cut into ranges of ``budget`` // that product
    states, never more ranges than it has states, and the leading nodes
    are fixed at each of their joint states in turn.
    """
    k, tail = len(cards), 1
    while k and tail * cards[k - 1] <= budget:
        k -= 1
        tail *= cards[k]
    whole = (slice(None),) * (len(cards) - k)
    if not k:
        yield whole
        return
    step = budget // tail
    for lead in itertools.product(*(range(c) for c in cards[: k - 1])):
        for start in range(0, cards[k - 1], step):
            yield lead + (slice(start, start + step),) + whole


def posterior_oracle(
    net: QBNet,
    query,
    evidence: Mapping[int, int],
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Exact posterior over ``query`` given ``evidence``, by brute force.

    Every node table is sliced at the evidence; the joint amplitude of
    the hidden nodes is then built in blocks of at most 2^16 entries
    (``_ORACLE_AMPLITUDES``; leading hidden nodes fixed, or cut into
    ranges of states) as the product of the sliced tables. Each
    block is squared, summed onto the query axes and added into the
    result, which is normalized once at the end. Every joint amplitude
    of the hidden nodes is still visited, with no elimination order:
    this is the dense reference every message-passing routine is tested
    against. ``cap`` counts what the blocks visit, the hidden joint, and
    refuses a net whose hidden joint would hold more than ``cap``
    amplitudes before any block is built; the observed nodes do not
    count. The cost follows that count and the number of tables each
    block multiplies: about 15 ms per 2^20 amplitudes visited on a
    20-node binary chain, about 50 ms for as many on a 40-node chain
    with 20 nodes observed (2-vCPU x86-64 host, NumPy 2.4).
    """
    query = as_multinode(query)
    query.validate(net.dag)
    evidence = validate_evidence(net.dag, evidence)
    _require_unobserved(query, evidence)
    hidden = [j for j in range(net.dag.node_count) if j not in evidence]
    cards = [net.dag.cardinality(j) for j in hidden]
    _check_cap(cards, cap, "hidden joint")

    tables = _sliced_tables(net, evidence)
    result = np.zeros([net.dag.cardinality(q) for q in query.members])
    total = 0.0
    for block in _oracle_blocks(cards, _ORACLE_AMPLITUDES):
        at = dict(zip(hidden, block))
        joint = product(t.slice_at(at) for t in tables)
        # in C order, so the sums run in node order whatever the strides
        # of the sliced tables
        squared = np.abs(joint.data, order="C") ** 2
        total += float(squared.sum())
        drop = tuple(k for k, l in enumerate(joint.labels) if l not in query)
        result[tuple(at[q] for q in query.members)] += squared.sum(axis=drop)
    if total == 0.0:
        raise ImpossibleEvidenceError("impossible evidence: the observed states have zero probability")
    result /= total
    return result
