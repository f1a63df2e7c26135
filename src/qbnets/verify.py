"""Empirical verification campaigns.

Three kinds of experiment, all seeded and reproducible:

* forward d-separation checks: on a d-separated triple whose hidden
  nodes can be assigned to the two sides
  (:func:`qbnets.graph.sides_assignable`, one moral-graph reachability
  test), every sampled net gives (numerically) zero conditional mutual
  information once the conditioning nodes are dephased. On other
  d-separated triples the CMI can be positive: tracing out a coherent
  common child entangles its parents;
* converse witness searches: on a non-separated triple, some sampled
  net must show clearly nonzero conditional mutual information;
* belief-propagation campaigns: random polytrees with random evidence,
  message passing against the brute-force posterior.

A forward check or witness search contracts all its sampled models at
once. Trial t still draws its net from ``default_rng([seed, t])``, but
the trials' tables are drawn as per-node stacks
(``sampling._draw_tables``), the elimination order of the doubled
network is planned once from the graph (``network._doubled_plan``), and
each elimination step is one einsum over the stack, the trial axis under
its own index label (``network._doubled_contraction``). The (T, D, D)
reduced states then go to one call of the batched CMI kernel of
:mod:`qbnets.qinfo`. A chunk holds at most max(1, ``DEFAULT_CAP`` // m)
trials, m being the largest per-model array of the plan (a node table,
an intermediate or the D x D state), so no array of a chunk holds more
than ``DEFAULT_CAP`` entries unless one model's does; a witness search
runs chunks of 1, 2, 4, ... trials and stops at its first witness. Each
check logs one INFO line to the ``qbnets.verify`` logger.

``dsep_forward_census`` scales the forward check up to every DAG with at
most five nodes. Because the property is invariant under node
relabeling, (graph, triple) cases are deduplicated up to isomorphism
(including swapping the two tested sets) by reducing the triples of one
labeled copy of each unlabeled DAG under its automorphisms; the labeled
DAGs, their relabelings, and the d-separation and side-assignability of
every class representative are computed as int64 bitmask arrays, with
loops over nodes and relabelings only. The classes are measured in
slices of a few cases: cases on the same DAG share each node's table
product into their sampled joint kets, and cases with equal set sizes
share one call of the purification CMI kernel of :mod:`qbnets.qinfo`,
which never forms a density matrix. Each case still draws its models
from its own generator, so no answer depends on the slicing. The full
sweep takes about four seconds, and it logs one INFO line per node count
to the ``qbnets.verify`` logger, a child of ``qbnets``; the library adds
no handler. Above five nodes the enumeration would not fit in memory,
and the census raises CapacityError at once.

Every run must do work: a trial or model count below one, and a
negative or non-finite tolerance, raise ValueError.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from .errors import CapacityError, ImpossibleEvidenceError, InvalidStateError
from .graph import (
    Dag,
    _bits,
    _d_separated_arrays,
    _sides_assignable_arrays,
    as_multinode,
    d_separated,
    sides_assignable,
)
from .network import DEFAULT_CAP, _doubled_contraction, _doubled_plan, posterior_oracle
from .qbp import propagate_polytree
from .qinfo import TRACE_ATOL, _cmi, _purified_cmi
from .sampling import _draw_tables, _unit_norm, random_evidence, random_polytree_dag, random_qbnet

_log = logging.getLogger(__name__)


def _dag_description(dag: Dag) -> str:
    spec = ",".join(f"{n}:{c}" for n, c in dag.nodes)
    arcs = ",".join(f"{p}->{c}" for p, c in dag.edges)
    return f"{spec};{arcs}"


@dataclass(frozen=True)
class TrialReport:
    kind: str
    dag: str
    a: tuple[str, ...]
    b: tuple[str, ...]
    z: tuple[str, ...]
    trials: int
    trials_run: int
    seed: int
    max_cmi: float
    witness_seed: int | None
    passed: bool
    wall_time: float

    def to_json(self, include_wall_time: bool = True) -> str:
        payload = asdict(self)
        if not include_wall_time:
            payload.pop("wall_time")
        return json.dumps(payload, sort_keys=True)


def _triple_names(dag: Dag, m) -> tuple[str, ...]:
    return tuple(dag.name(i) for i in as_multinode(m))


def _require_positive(name: str, value: int) -> None:
    """Reject a count that would make a run vacuous."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _require_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def check_dsep_forward(
    dag: Dag, a, b, z=(), trials: int = 100, seed: int = 0, tol: float = 1e-9
) -> TrialReport:
    """Sampled forward check: is the dephased CMI below ``tol``?

    Requires the triple to actually be d-separated; every trial samples
    a fresh net on the graph, reduces it to a state over the triple with
    the conditioning nodes dephased, and measures the CMI. Trial t's
    net is ``random_qbnet(dag, default_rng([seed, t]))``, but the
    trials are contracted as stacks, in chunks of at most
    max(1, ``DEFAULT_CAP`` // m) trials with m one model's largest
    array: one chunk at the usual sizes (see :func:`_run_trials`). The
    CMI is forced to zero when the triple is also
    :func:`sides_assignable`; otherwise ``passed`` can be False on a
    d-separated triple (in a -> c <- b with c traced out, a and b end up
    entangled).
    """
    _require_positive("trials", trials)
    _require_tolerance("tol", tol)
    a, b, z = as_multinode(a), as_multinode(b), as_multinode(z)
    if not d_separated(dag, a, b, z):
        raise ValueError("forward check requires a d-separated triple")
    return _run_trials("forward", dag, a, b, z, trials, seed, tol)


def search_dsep_witness(
    dag: Dag, a, b, z=(), trials: int = 100, seed: int = 0, threshold: float = 1e-3
) -> TrialReport:
    """Converse search: on a non-separated triple, find a model with CMI
    above ``threshold``. Stops at the first witness."""
    _require_positive("trials", trials)
    _require_tolerance("threshold", threshold)
    a, b, z = as_multinode(a), as_multinode(b), as_multinode(z)
    if d_separated(dag, a, b, z):
        raise ValueError("witness search requires a triple that is not d-separated")
    return _run_trials("witness", dag, a, b, z, trials, seed, threshold)


def _sampled_cmis(
    dag: Dag, a, b, z, seed: int, trials: int, grow: bool = False, cap: int = DEFAULT_CAP
) -> Iterator[np.ndarray]:
    """Dephased CMIs S(a:b|z) of trials 0, 1, ..., ``trials`` - 1, in chunks.

    Trial t samples its net from ``default_rng([seed, t])`` as
    :func:`qbnets.sampling.random_qbnet` would. A chunk of trials is
    drawn as one stack of tables, contracted onto ``a | b`` with ``z``
    dephased in one run of a plan made once from the graph
    (``network._doubled_plan``), and its (T, D, D) states go to one
    call of the CMI kernel, whose full-state entropy holds the spectrum
    check of every state. A chunk holds at most max(1, ``cap`` // m)
    trials, m being the plan's largest per-model array, so each array
    of a chunk stays within ``cap`` entries whenever one model's does.
    With ``grow`` the chunks start at one trial and double up to that
    bound, so a search that stops at its first trial costs one model.

    Raises CapacityError, or InvalidStateError on a state that is not
    finite or has a trace off 1, where ``net_to_density`` would.
    """
    held = (a | b | z).members
    dims = tuple(dag.cardinality(i) for i in held)
    x, y, w = (tuple(held.index(i) for i in m) for m in (a, b, z))
    plan = _doubled_plan(dag, a | b, z, cap)
    width = max(1, cap // plan.largest)
    lo, size = 0, 1 if grow else width
    while lo < trials:
        hi = min(trials, lo + min(size, width))
        tables = _draw_tables(dag, [np.random.default_rng([seed, t]) for t in range(lo, hi)])
        rho = _doubled_contraction(plan, tables).reshape((hi - lo,) + (math.prod(dims),) * 2)
        rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
        if not np.isfinite(rho).all():
            raise InvalidStateError("matrix has a non-finite entry")
        trace = np.trace(rho, axis1=-2, axis2=-1)
        off = np.abs(trace - 1.0)
        if float(off.max()) > TRACE_ATOL:
            raise InvalidStateError(f"trace is {complex(trace[off.argmax()]):.12g}, expected 1")
        yield _cmi(rho, dims, x, y, w)
        lo, size = hi, 2 * size


def _run_trials(
    kind: str, dag: Dag, a, b, z, trials: int, seed: int, bound: float
) -> TrialReport:
    """Sample up to ``trials`` nets and keep the largest |CMI| and its trial.

    A forward check runs every trial and passes if no CMI exceeds
    ``bound``; a witness search stops at the first CMI above ``bound``
    and passes if it found one. The trials run in chunks of
    :func:`_sampled_cmis`: as few as fit within ``DEFAULT_CAP`` for a
    forward check (one chunk at benchmark sizes), and chunks of 1, 2,
    4, ... trials for a witness search. Each check logs one INFO line:
    its kind, the trials run, the chunks and the seconds.
    """
    start = time.perf_counter()
    witness = kind == "witness"
    done = []
    for chunk in _sampled_cmis(dag, a, b, z, seed, trials, grow=witness):
        cmis = np.abs(chunk)
        if witness and (cmis > bound).any():
            done.append(cmis[: int(np.argmax(cmis > bound)) + 1])
            break
        done.append(cmis)
    cmis = np.concatenate(done)
    worst = int(np.argmax(cmis))
    max_cmi = float(cmis[worst])
    found = max_cmi > bound
    elapsed = time.perf_counter() - start
    _log.info(
        "%s check: %d of %d trials in %d chunks, %.3f s",
        kind, len(cmis), trials, len(done), elapsed,
    )
    return TrialReport(
        kind=kind,
        dag=_dag_description(dag),
        a=_triple_names(dag, a),
        b=_triple_names(dag, b),
        z=_triple_names(dag, z),
        trials=trials,
        trials_run=len(cmis),
        seed=seed,
        max_cmi=max_cmi,
        witness_seed=worst if max_cmi > 0.0 else None,
        passed=found if witness else not found,
        wall_time=elapsed,
    )


@dataclass(frozen=True)
class CampaignReport:
    count: int
    max_nodes: int
    max_card: int
    seed: int
    max_deviation: float
    worst_trial: int | None
    passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def bp_campaign(
    count: int,
    max_nodes: int = 10,
    max_card: int = 3,
    seed: int = 0,
    tol: float = 1e-8,
) -> CampaignReport:
    """Random polytrees + random evidence: message passing vs the oracle.

    The report is a pure function of the arguments: the same seed gives
    a bit-identical report. Each campaign logs one INFO line to the
    ``qbnets.verify`` logger: nets, largest deviation and seconds.
    """
    _require_positive("count", count)
    _require_positive("max_nodes", max_nodes)
    if max_card < 2:
        raise ValueError(f"max_card must be at least 2, got {max_card}")
    _require_tolerance("tol", tol)
    start = time.perf_counter()
    max_dev = 0.0
    worst = None
    for t in range(count):
        rng = np.random.default_rng([seed, t])
        n = int(rng.integers(1, max_nodes + 1))
        dag = random_polytree_dag(rng, n, max_card=max_card)
        net = random_qbnet(dag, rng)
        evidence = random_evidence(dag, rng)
        for _ in range(20):
            try:
                beliefs = propagate_polytree(net, evidence)
                break
            except ImpossibleEvidenceError:
                evidence = random_evidence(dag, rng)
        else:  # pragma: no cover - measure-zero with Gaussian tables
            raise RuntimeError("could not draw possible evidence")
        for node, belief in beliefs.items():
            if node in evidence:
                continue
            expect = posterior_oracle(net, [node], evidence)
            dev = float(np.max(np.abs(belief.table - expect)))
            if dev > max_dev:
                max_dev, worst = dev, t
    _log.info(
        "bp campaign: %d nets, max deviation %.3g, %.3f s",
        count, max_dev, time.perf_counter() - start,
    )
    return CampaignReport(
        count=count,
        max_nodes=max_nodes,
        max_card=max_card,
        seed=seed,
        max_deviation=max_dev,
        worst_trial=worst,
        passed=max_dev <= tol,
    )


# ---------------------------------------------------------------------------
# exhaustive small-graph census of the forward direction
# ---------------------------------------------------------------------------


def _relabeled_codes(parents: np.ndarray) -> np.ndarray:
    """Integer code of each DAG under each relabeling, shape (n!, DAGs).

    ``parents`` holds one DAG's parent masks per row. Row k of the result
    relabels by the k-th of ``itertools.permutations(range(n))``
    (identity first), which moves node i to node perm[i]. A code packs
    the parent masks with node 0's most significant, so code order is
    the order of the parent tuples.
    """
    n = parents.shape[1]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    tables = np.zeros((len(perms), 1 << n), dtype=np.int64)  # mask -> image
    for i in range(n):
        tables |= (masks >> i & 1) << perms[:, i, None]
    place = (1 << n) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = np.empty((len(perms), len(parents)), dtype=np.int64)
    for k, perm in enumerate(perms):
        # node i's image mask becomes the parent mask of node perm[i]
        codes[k] = tables[k][parents] @ place[perm]
    return codes


def enumerate_dags(n: int) -> list[tuple[int, ...]]:
    """Every labeled DAG on ``n`` nodes, as a tuple of parent bitmasks.

    Enumerates edge subsets compatible with the identity order, then
    closes under relabeling; each DAG appears exactly once, in sorted
    order.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    patterns = np.arange(1 << len(pairs), dtype=np.int64)
    parents = np.zeros((len(patterns), n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        parents[:, j] |= (patterns >> k & 1) << i
    # sorted and deduplicated by hand: a plain np.unique imports numpy.ma
    # (about 25 ms and 1 MB on a cold start)
    codes = np.sort(_relabeled_codes(parents).ravel())
    codes = codes[np.diff(codes, prepend=-1) != 0]
    place = (1 << n) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return [tuple(row) for row in (codes[:, None] // place % (1 << n)).tolist()]


def _assignment_codes(n: int) -> np.ndarray:
    """Node codes 0=out, 1=A, 2=B, 3=Z for every valid disjoint triple."""
    codes = [
        c
        for c in itertools.product(range(4), repeat=n)
        if 1 in c and 2 in c
    ]
    return np.array(codes, dtype=np.int64)


# the largest census: at n = 6 the relabeled integers of the 3,781,503
# labeled DAGs fill a 720 x 3,781,503 int64 matrix (about 22 GB)
_CENSUS_MAX_NODES = 5


def _require_census_size(n: int) -> None:
    if n > _CENSUS_MAX_NODES:
        raise CapacityError(
            f"the census enumerates labeled DAGs with at most {_CENSUS_MAX_NODES} "
            f"nodes, got {n}; at 6 nodes its relabeled-DAG matrix would take about "
            "22 GB (ROADMAP item 7 builds unlabeled DAGs one sink at a time instead)"
        )


def _class_representatives(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One (DAG, triple) case per class of cases on ``n`` nodes.

    Returns the cases' parent masks (cases, n), their (a, b, z) bitmasks
    (cases, 3), both int64, and the number of labeled cases covered.

    Isomorph-free reduction (McKay, J. Algorithms 26:306, 1998): a DAG's
    canonical form is the least of its n! relabeled integers, and only
    the first labeled copy of each unlabeled DAG is kept. On that copy
    the triples are reduced under its automorphisms (the relabelings
    that give back the same integer) times the A/B swap, and each orbit
    keeps its first triple in :func:`_assignment_codes` order. So every
    class is represented by its smallest (DAG index, triple index) case,
    and the cases come in that order.
    """
    _require_census_size(n)
    dags = enumerate_dags(n)
    codes = _assignment_codes(n)
    if codes.size == 0:
        return np.zeros((0, n), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 0
    perms = list(itertools.permutations(range(n)))  # identity first
    dag_masks = np.array(dags, dtype=np.int64)
    relabeled_ints = _relabeled_codes(dag_masks)
    _, first_copies = np.unique(relabeled_ints.min(axis=0), return_index=True)

    # triple codes packed with node 0 most significant, so that packed
    # order is the order of ``codes``; one row per relabeling, plain and
    # with A and B swapped
    pow4 = 4 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    images = np.stack([codes[:, np.argsort(perm)] for perm in perms])
    packed = images @ pow4
    swapped = np.array([0, 2, 1, 3], dtype=np.int64)[images] @ pow4
    bits = 1 << np.arange(n, dtype=np.int64)
    triples = np.stack([(codes == c) @ bits for c in (1, 2, 3)], axis=1)

    owners, reps = [], []
    for d in sorted(int(i) for i in first_copies):
        auts = relabeled_ints[:, d] == relabeled_ints[0, d]
        orbit_min = np.minimum(packed[auts].min(axis=0), swapped[auts].min(axis=0))
        rep = np.flatnonzero(orbit_min == packed[0])
        owners.append(np.full(len(rep), d))
        reps.append(rep)
    owners = np.concatenate(owners)
    return dag_masks[owners], triples[np.concatenate(reps)], len(dags) * codes.shape[0]


def canonical_separated_cases(n: int) -> tuple[list[tuple[tuple[int, ...], tuple[int, int, int]]], int, int]:
    """Deduplicate (DAG, triple) cases up to relabeling and A/B swap.

    Returns (separated cases as (parent masks, (a, b, z) bitmasks),
    number of deduplicated classes, number of labeled cases covered).
    Only the d-separated classes are returned; they are the ones the
    forward statement is about.

    Each class is represented by its smallest (DAG index, triple index)
    case (:func:`_class_representatives`), and the cases come in that
    order: the case list, and with it each ``default_rng([seed, n,
    idx])`` stream of the census, depends only on the classes, not on
    how they are found. d-separation is decided for every representative
    at once by :func:`qbnets.graph._d_separated_arrays`, the bitmask
    route of ``d_separated`` run as array operations. Raises
    CapacityError above five nodes.
    """
    parents, triples, labeled = _class_representatives(n)
    keep = _d_separated_arrays(parents, *triples.T)
    cases = [
        (tuple(pa), tuple(masks))
        for pa, masks in zip(parents[keep].tolist(), triples[keep].tolist())
    ]
    return cases, len(triples), labeled


# cases per batched CMI evaluation of the census: large enough to share
# each kernel call among many cases, small enough to keep memory flat
# (32 runs the n <= 4 census about 10 % faster, in 190 of 200 alternating
# passes, for about 0.4 MB more peak RSS and 45 % more traced peak)
_CENSUS_SLICE = 16


def _census_kets(
    cases: list[tuple[tuple[int, ...], tuple[int, int, int]]],
    trials: int,
    rngs: list[np.random.Generator],
    card: int,
) -> np.ndarray:
    """Sampled joint kets of census cases on n nodes, (cases, trials, *[card] * n).

    Case i draws its ``trials`` nets from ``rngs[i]`` as one case
    sampled alone would: node by node, the real part of the node's
    tables before the imaginary part, each column scaled to unit norm by
    :func:`qbnets.sampling._unit_norm`. Consecutive cases on the
    same DAG stack their tables, so each node's table is normalized and
    multiplied into the kets of the whole run of cases at once.
    """
    n = len(cases[0][0])
    kets = np.ones((len(cases), trials) + (card,) * n, dtype=np.complex128)
    start = 0
    for parents, run in itertools.groupby(cases, key=lambda case: case[0]):
        stop = start + len(list(run))
        amp = kets[start:stop]
        for j in range(n):
            pa = sorted(_bits(parents[j]))
            shape = (2, trials) + (card,) * (1 + len(pa))
            raw = np.stack([rng.normal(size=shape) for rng in rngs[start:stop]])
            table = _unit_norm(raw[:, 0] + 1j * raw[:, 1], 2)
            labels = sorted([j] + pa)
            order = [0, 1] + [2 + ([j] + pa).index(l) for l in labels]
            absent = [2 + i for i in range(n) if i not in labels]
            amp *= np.expand_dims(table.transpose(order), absent)
        start = stop
    return kets


def _census_cmis(
    cases: list[tuple[tuple[int, ...], tuple[int, int, int]]],
    trials: int,
    rngs: list[np.random.Generator],
    card: int,
) -> np.ndarray:
    """Largest |CMI| over each census case's sampled nets, one per case.

    The cases share a node count. Each case's kets (:func:`_census_kets`)
    have their node axes reordered to (z, a, b, rest) and merged into
    one axis per set, the traced rest becoming the purifying axis, so the
    stack is a purification of the reduced states.
    :func:`qbnets.qinfo._purified_cmi` takes the CMI, dephased on z,
    from Gram spectra of the z-blocks without forming a density matrix,
    in one call for all cases with equal (|a|, |b|, |z|). With z first,
    every block layout it takes but the one for S(b, z) is a view of
    the reordered kets.
    """
    n = len(cases[0][0])
    kets = _census_kets(cases, trials, rngs, card).reshape(len(cases), trials, -1)
    index = np.arange(card**n).reshape((card,) * n)
    orders = np.empty((len(cases), card**n), dtype=np.intp)
    shapes: dict[tuple[int, int, int], list[int]] = {}
    for i, (_, (a, b, z)) in enumerate(cases):
        rest = [k for k in range(n) if not (a | b | z) >> k & 1]
        orders[i] = index.transpose([*_bits(z), *_bits(a), *_bits(b), *rest]).ravel()
        shapes.setdefault((a.bit_count(), b.bit_count(), z.bit_count()), []).append(i)

    out = np.empty(len(cases))
    for (na, nb, nz), members in shapes.items():
        dims = ((card**nz,) if nz else ()) + (card**na, card**nb)
        psi = kets[
            np.array(members)[:, None, None],
            np.arange(trials)[:, None],
            orders[members][:, None, :],
        ]
        psi = psi.reshape((-1,) + dims + (card ** (n - na - nb - nz),))
        x, y = len(dims) - 2, len(dims) - 1
        cmi = _purified_cmi(psi, dims, (x,), (y,), (0,) if nz else ())
        out[members] = np.abs(cmi).reshape(len(members), trials).max(axis=1)
    return out


@dataclass(frozen=True)
class CensusReport:
    max_nodes: int
    trials: int
    seed: int
    card: int
    tol: float
    labeled_cases: int
    classes: int
    separated_classes: int
    assignable_classes: int
    models: int
    max_cmi: float
    max_cmi_assignable: float
    violations: int
    violations_assignable: int
    worst_case: str | None
    passed: bool
    wall_time: float = field(compare=False, default=0.0)

    def to_json(self, include_wall_time: bool = True) -> str:
        payload = asdict(self)
        if not include_wall_time:
            payload.pop("wall_time")
        return json.dumps(payload, sort_keys=True)


def dsep_forward_census(
    max_nodes: int = 5,
    trials: int = 50,
    seed: int = 0,
    card: int = 2,
    tol: float = 1e-9,
) -> CensusReport:
    """Forward d-separation check over all DAGs with up to ``max_nodes`` nodes.

    Every disjoint (A, B, Z) triple on every DAG is covered; cases are
    collapsed up to relabeling (the tested property is label-invariant)
    by :func:`canonical_separated_cases`, and each surviving d-separated
    class gets ``trials`` random ``card``-ary models, drawn from
    ``default_rng([seed, n, idx])`` with ``idx`` the class's place in
    the case list. :func:`_census_cmis` measures them from Gram spectra
    of the sampled kets, a slice of cases per call. ``passed`` demands
    zero violations over every separated class, which quantum nets do
    not satisfy: with ``card`` >= 2 and a small ``tol`` it is False for
    any census that reaches n = 3, where a -> c <- b with c traced out
    entangles a and b.

    The report therefore splits the classes by
    :func:`qbnets.graph.sides_assignable`. Tracing out a node that
    bridges the two tested sides (a common child, say) can entangle them
    even though they are d-separated, so
    violations occur only in the unassignable classes;
    ``violations_assignable`` is zero, which is the form of the forward
    statement that survives partial tracing.

    Each node count logs one INFO line: labeled cases, classes,
    separated classes, and the seconds of canonicalization, of the
    models (sampling, CMIs and side-assignability) and in total.
    Raises CapacityError, before any work, for ``max_nodes`` above five.
    """
    _require_positive("max_nodes", max_nodes)
    _require_census_size(max_nodes)
    _require_positive("trials", trials)
    _require_positive("card", card)
    _require_tolerance("tol", tol)
    start = time.perf_counter()
    labeled_cases = 0
    classes = 0
    separated = 0
    assignable_count = 0
    models = 0
    max_cmi = 0.0
    max_cmi_assignable = 0.0
    violations = 0
    violations_assignable = 0
    worst = None
    for n in range(1, max_nodes + 1):
        n_start = time.perf_counter()
        cases, n_classes, n_labeled = canonical_separated_cases(n)
        canonicalized = time.perf_counter()
        labeled_cases += n_labeled
        classes += n_classes
        separated += len(cases)
        case_parents = np.array([pa for pa, _ in cases], dtype=np.int64).reshape(-1, n)
        case_masks = np.array([masks for _, masks in cases], dtype=np.int64).reshape(-1, 3)
        sides = _sides_assignable_arrays(case_parents, *case_masks.T).tolist()
        for lo in range(0, len(cases), _CENSUS_SLICE):
            chunk = cases[lo : lo + _CENSUS_SLICE]
            rngs = [np.random.default_rng([seed, n, lo + k]) for k in range(len(chunk))]
            cmis = _census_cmis(chunk, trials, rngs, card)
            for k, cmi in enumerate(cmis.tolist()):
                parents, masks = chunk[k]
                models += trials
                if sides[lo + k]:
                    assignable_count += 1
                    max_cmi_assignable = max(max_cmi_assignable, cmi)
                    if cmi > tol:
                        violations_assignable += 1
                if cmi > max_cmi:
                    max_cmi = cmi
                    worst = f"n={n} parents={parents} a,b,z={masks}"
                if cmi > tol:
                    violations += 1
        n_stop = time.perf_counter()
        _log.info(
            "census n=%d: %d labeled cases, %d classes, %d separated, "
            "canonicalization %.3f s, models %.3f s, total %.3f s",
            n, n_labeled, n_classes, len(cases),
            canonicalized - n_start, n_stop - canonicalized, n_stop - n_start,
        )
    return CensusReport(
        max_nodes=max_nodes,
        trials=trials,
        seed=seed,
        card=card,
        tol=tol,
        labeled_cases=labeled_cases,
        classes=classes,
        separated_classes=separated,
        assignable_classes=assignable_count,
        models=models,
        max_cmi=max_cmi,
        max_cmi_assignable=max_cmi_assignable,
        violations=violations,
        violations_assignable=violations_assignable,
        worst_case=worst,
        passed=violations == 0,
        wall_time=time.perf_counter() - start,
    )
