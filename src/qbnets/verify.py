"""Empirical verification campaigns.

Three kinds of experiment, all seeded and reproducible:

* forward d-separation checks: on a d-separated triple whose hidden
  nodes can be assigned to the two sides (:func:`sides_assignable`),
  every sampled net gives (numerically) zero conditional mutual
  information once the conditioning nodes are dephased. On other
  d-separated triples the CMI can be positive: tracing out a coherent
  common child entangles its parents;
* converse witness searches: on a non-separated triple, some sampled
  net must show clearly nonzero conditional mutual information;
* belief-propagation campaigns: random polytrees with random evidence,
  message passing against the brute-force posterior.

``dsep_forward_census`` scales the forward check up to every DAG with at
most five nodes. Because the property is invariant under node
relabeling, (graph, triple) cases are deduplicated up to isomorphism
(including swapping the two tested sets), and each case's model trials
are sampled as one stack and measured by one call of the batched CMI
kernel of :mod:`qbnets.qinfo`; this is what makes the full sweep finish
in about a minute.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ImpossibleEvidenceError
from .graph import (
    Dag,
    _bits,
    _d_separated_masks,
    _parent_masks,
    as_multinode,
    d_separated,
)
from .network import posterior_oracle
from .qbp import propagate_polytree
from .qinfo import _cmi, _dephase_mask, net_to_density, quantum_cmi
from .sampling import _unit_columns, random_evidence, random_polytree_dag, random_qbnet


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


def _sampled_cmi(dag: Dag, a, b, z, seed: int, trial: int) -> float:
    rng = np.random.default_rng([seed, trial])
    net = random_qbnet(dag, rng)
    rho = net_to_density(net, keep=a | b, diag=z)
    return quantum_cmi(
        rho, _triple_names(dag, a), _triple_names(dag, b), _triple_names(dag, z)
    )


def check_dsep_forward(
    dag: Dag, a, b, z=(), trials: int = 100, seed: int = 0, tol: float = 1e-9
) -> TrialReport:
    """Sampled forward check: is the dephased CMI below ``tol``?

    Requires the triple to actually be d-separated; every trial samples
    a fresh net on the graph, reduces it to a state over the triple with
    the conditioning nodes dephased, and measures the CMI. The CMI is
    forced to zero when the triple is also :func:`sides_assignable`;
    otherwise ``passed`` can be False on a d-separated triple (in
    a -> c <- b with c traced out, a and b end up entangled).
    """
    a, b, z = as_multinode(a), as_multinode(b), as_multinode(z)
    if not d_separated(dag, a, b, z):
        raise ValueError("forward check requires a d-separated triple")
    start = time.perf_counter()
    max_cmi = 0.0
    worst = None
    for t in range(trials):
        cmi = abs(_sampled_cmi(dag, a, b, z, seed, t))
        if cmi > max_cmi:
            max_cmi, worst = cmi, t
    return TrialReport(
        kind="forward",
        dag=_dag_description(dag),
        a=_triple_names(dag, a),
        b=_triple_names(dag, b),
        z=_triple_names(dag, z),
        trials=trials,
        trials_run=trials,
        seed=seed,
        max_cmi=max_cmi,
        witness_seed=worst,
        passed=max_cmi <= tol,
        wall_time=time.perf_counter() - start,
    )


def search_dsep_witness(
    dag: Dag, a, b, z=(), trials: int = 100, seed: int = 0, threshold: float = 1e-3
) -> TrialReport:
    """Converse search: on a non-separated triple, find a model with CMI
    above ``threshold``. Stops at the first witness."""
    a, b, z = as_multinode(a), as_multinode(b), as_multinode(z)
    if d_separated(dag, a, b, z):
        raise ValueError("witness search requires a triple that is not d-separated")
    start = time.perf_counter()
    max_cmi = 0.0
    witness = None
    run = 0
    for t in range(trials):
        run += 1
        cmi = abs(_sampled_cmi(dag, a, b, z, seed, t))
        if cmi > max_cmi:
            max_cmi, witness = cmi, t
        if cmi > threshold:
            break
    return TrialReport(
        kind="witness",
        dag=_dag_description(dag),
        a=_triple_names(dag, a),
        b=_triple_names(dag, b),
        z=_triple_names(dag, z),
        trials=trials,
        trials_run=run,
        seed=seed,
        max_cmi=max_cmi,
        witness_seed=witness,
        passed=max_cmi > threshold,
        wall_time=time.perf_counter() - start,
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
    a bit-identical report.
    """
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


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i in _bits(mask):
        out |= 1 << perm[i]
    return out


def enumerate_dags(n: int) -> list[tuple[int, ...]]:
    """Every labeled DAG on ``n`` nodes, as a tuple of parent bitmasks.

    Enumerates edge subsets compatible with the identity order, then
    closes under relabeling; each DAG appears exactly once.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(itertools.permutations(range(n)))
    tables = [
        [_permute_mask(m, perm) for m in range(1 << n)] for perm in perms
    ]
    seen: set[tuple[int, ...]] = set()
    for pattern in range(1 << len(pairs)):
        parents = [0] * n
        for k, (i, j) in enumerate(pairs):
            if pattern >> k & 1:
                parents[j] |= 1 << i
        for perm, table in zip(perms, tables):
            relabeled = [0] * n
            for c in range(n):
                relabeled[perm[c]] = table[parents[c]]
            seen.add(tuple(relabeled))
    return sorted(seen)


def _assignment_codes(n: int) -> np.ndarray:
    """Node codes 0=out, 1=A, 2=B, 3=Z for every valid disjoint triple."""
    codes = [
        c
        for c in itertools.product(range(4), repeat=n)
        if 1 in c and 2 in c
    ]
    return np.array(codes, dtype=np.int64)


def canonical_separated_cases(n: int) -> tuple[list[tuple[tuple[int, ...], tuple[int, int, int]]], int, int]:
    """Deduplicate (DAG, triple) cases up to relabeling and A/B swap.

    Returns (separated cases as (parent masks, (a, b, z) bitmasks),
    number of deduplicated classes, number of labeled cases covered).
    Only the d-separated classes are returned; they are the ones the
    forward statement is about.
    """
    dags = enumerate_dags(n)
    codes = _assignment_codes(n)
    if codes.size == 0:
        return [], 0, 0
    perms = list(itertools.permutations(range(n)))
    pow4 = 4 ** np.arange(n, dtype=np.int64)
    swap = np.array([0, 2, 1, 3], dtype=np.int64)

    packed = []
    for perm in perms:
        inv = np.argsort(np.array(perm))
        permuted = codes[:, inv]
        packed.append(permuted @ pow4)
        packed.append(swap[permuted] @ pow4)

    dag_masks = np.array(dags, dtype=np.int64)
    pow2n = (1 << n) ** np.arange(n, dtype=np.int64)
    dag_ints = []
    for perm in perms:
        table = np.array([_permute_mask(m, perm) for m in range(1 << n)], dtype=np.int64)
        relabeled = np.empty_like(dag_masks)
        relabeled[:, list(perm)] = table[dag_masks]
        ints = relabeled @ pow2n
        dag_ints.append(ints)
        dag_ints.append(ints)  # swapping A and B leaves the graph alone

    base = np.int64(4**n)
    keys = None
    buf = np.empty((len(dags), codes.shape[0]), dtype=np.int64)
    for variant in range(len(packed)):
        np.multiply(dag_ints[variant][:, None], base, out=buf)
        np.add(buf, packed[variant][None, :], out=buf)
        if keys is None:
            keys = buf.copy()
        else:
            np.minimum(keys, buf, out=keys)

    _, first = np.unique(keys.ravel(), return_index=True)
    t_count = codes.shape[0]
    cases = []
    for flat in sorted(int(i) for i in first):
        parents = dags[flat // t_count]
        code = codes[flat % t_count]
        a = b = z = 0
        for i, c in enumerate(code):
            if c == 1:
                a |= 1 << i
            elif c == 2:
                b |= 1 << i
            elif c == 3:
                z |= 1 << i
        if _d_separated_masks(parents, a, b, z):
            cases.append((parents, (a, b, z)))
    return cases, int(len(first)), len(dags) * t_count


def _sides_assignable_masks(parents, a: int, b: int, z: int) -> bool:
    n = len(parents)
    hidden = ((1 << n) - 1) & ~(a | b | z)
    hidden_bits = list(_bits(hidden))
    for pick in range(1 << len(hidden_bits)):
        ha = 0
        for k, bit in enumerate(hidden_bits):
            if pick >> k & 1:
                ha |= 1 << bit
        if _d_separated_masks(parents, a | ha, b | (hidden & ~ha), z):
            return True
    return False


def sides_assignable(dag: Dag, a, b, z=()) -> bool:
    """Can the off-triple nodes be split into an a-side and a b-side?

    True when some partition of the remaining nodes into H_a and H_b
    keeps (a | H_a) d-separated from (b | H_b) given z. When it exists,
    tracing the hidden nodes out is a local channel on each side, so the
    dephased conditional mutual information of the reduced state is
    forced to zero; when it does not, tracing can entangle the two sides
    and the reduced CMI is free to be positive.

    The condition is sufficient, not necessary. A hidden sink whose
    parents are all hidden drops out exactly: tracing it is a channel on
    its parents, which are traced out as well. So in 0->2, 1->3,
    {0,1}->4 with a={2}, b={3}, z={} the triple is unassignable (node 4
    joins the two sides) yet the CMI is zero in every model, as for
    the same graph without node 4. In the five-node census at seed 404
    the only unassignable classes with zero CMI are three of this shape.
    """
    a, b, z = as_multinode(a), as_multinode(b), as_multinode(z)
    for m in (a, b, z):
        m.validate(dag)

    def mask(m) -> int:
        out = 0
        for i in m:
            out |= 1 << i
        return out

    return _sides_assignable_masks(_parent_masks(dag), mask(a), mask(b), mask(z))


def _census_case_cmi(
    parents: tuple[int, ...],
    masks: tuple[int, int, int],
    trials: int,
    rng: np.random.Generator,
    card: int,
) -> float:
    """Largest |CMI| over a batch of sampled nets for one census case.

    The ``trials`` nets are sampled as one stack and multiplied into a
    small dense joint; the stack of reduced states, dephased on z, goes
    through one call of the batched CMI kernel.
    """
    n = len(parents)
    amp = np.ones((trials,) + (card,) * n, dtype=np.complex128)
    for j in range(n):
        pa = sorted(_bits(parents[j]))
        table = _unit_columns(rng, (card,) * (1 + len(pa)), batch=(trials,))
        labels = sorted([j] + pa)
        order = [0] + [1 + ([j] + pa).index(l) for l in labels]
        amp = amp * table.transpose(order).reshape(
            [trials] + [card if i in labels else 1 for i in range(n)]
        )

    keep = sorted(_bits(masks[0] | masks[1] | masks[2]))
    rest = [i for i in range(n) if i not in keep]
    stacked = amp.transpose([0] + [1 + i for i in keep] + [1 + i for i in rest])
    stacked = stacked.reshape(trials, card ** len(keep), -1)
    rho = np.einsum("tkr,tlr->tkl", stacked, stacked.conj())

    dims = (card,) * len(keep)
    a, b, z = (tuple(keep.index(i) for i in _bits(m)) for m in masks)
    if z:
        rho = rho * _dephase_mask(dims, z)
    return float(np.max(np.abs(_cmi(rho, dims, a, b, z))))


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
    collapsed up to relabeling (the tested property is label-invariant),
    and each surviving d-separated class gets ``trials`` random
    ``card``-ary models. ``passed`` demands zero violations over every
    separated class, which quantum nets do not satisfy: with ``card``
    >= 2 and a small ``tol`` it is False for any census that reaches
    n = 3, where a -> c <- b with c traced out entangles a and b.

    The report therefore splits the classes by :func:`sides_assignable`.
    Tracing out a node that bridges the two tested sides (a common
    child, say) can entangle them even though they are d-separated, so
    violations occur only in the unassignable classes;
    ``violations_assignable`` is zero, which is the form of the forward
    statement that survives partial tracing.
    """
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
        cases, n_classes, n_labeled = canonical_separated_cases(n)
        labeled_cases += n_labeled
        classes += n_classes
        separated += len(cases)
        for idx, (parents, masks) in enumerate(cases):
            rng = np.random.default_rng([seed, n, idx])
            cmi = _census_case_cmi(parents, masks, trials, rng, card)
            models += trials
            assignable = _sides_assignable_masks(parents, *masks)
            if assignable:
                assignable_count += 1
                max_cmi_assignable = max(max_cmi_assignable, cmi)
                if cmi > tol:
                    violations_assignable += 1
            if cmi > max_cmi:
                max_cmi = cmi
                worst = f"n={n} parents={parents} a,b,z={masks}"
            if cmi > tol:
                violations += 1
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
