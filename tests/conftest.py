"""Shared fixtures and independent brute-force oracles.

The oracles here recompute quantities by direct enumeration with their
own lookup code, so the library's tensor algebra is never checking
itself.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qbnets import (
    CapacityError,
    Dag,
    DensityMatrix,
    amplitude_tensor,
    compute_lambda,
    compute_pi,
    dephase,
    qbp,
    rule1_lambda_to_parent,
    rule2_pi_to_child,
)
from qbnets.qinfo import _check_spectrum
from qbnets.squashed import EIG_FLOOR, _members, _retract, _tangent, _value_grad


@pytest.fixture
def cross_pair_dag():
    """Five nodes (lam, x0, y0, x, y) with every construction edge,
    including x -> y. The pair (x, y) is not d-separated by lam."""
    return Dag(
        nodes=[("lam", 2), ("x0", 2), ("y0", 2), ("x", 2), ("y", 2)],
        edges=[
            (0, 1),
            (1, 2), (0, 2),
            (1, 3), (2, 3), (0, 3),
            (3, 4), (1, 4), (2, 4), (0, 4),
        ],
    )


@pytest.fixture
def screened_pair_dag():
    """Five nodes where lam screens x from y: x0 -> x, y0 -> y, lam -> all."""
    return Dag(
        nodes=[("lam", 2), ("x0", 2), ("y0", 2), ("x", 2), ("y", 2)],
        edges=[(0, 1), (0, 2), (1, 3), (0, 3), (2, 4), (0, 4)],
    )


def assignments(dag):
    return itertools.product(*(range(dag.cardinality(i)) for i in range(dag.node_count)))


def brute_joint(net, assignment):
    """Joint amplitude by direct table lookups (no tensor machinery)."""
    value = 1.0 + 0.0j
    for j, tpm in enumerate(net.tpms):
        idx = [assignment[j]] + [assignment[p] for p in tpm.parents]
        value *= complex(tpm.table[tuple(idx)])
    return value


def brute_joint_table(net):
    """|amplitude|^2 over all assignments, as a dense array."""
    dag = net.dag
    table = np.zeros(dag.cardinalities)
    for a in assignments(dag):
        table[a] = abs(brute_joint(net, a)) ** 2
    return table


def brute_posterior(net, query, evidence):
    """Posterior over the sorted query nodes by direct enumeration."""
    dag = net.dag
    query = sorted(query)
    shape = tuple(dag.cardinality(i) for i in query)
    table = np.zeros(shape)
    total = 0.0
    for a in assignments(dag):
        if any(a[k] != v for k, v in evidence.items()):
            continue
        w = abs(brute_joint(net, a)) ** 2
        total += w
        table[tuple(a[i] for i in query)] += w
    return table / total


def brute_reduced_state(net, keep, diag=()):
    """The reduced state over the sorted ``keep | diag``, dephased on
    ``diag``, by enumeration: each assignment x pairs with every y that
    differs from x on ``keep`` alone, adding psi(x) psi(y)* at (x, y)."""
    dag = net.dag
    held = sorted({*keep, *diag})
    dims = [dag.cardinality(i) for i in held]
    rho = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for x in assignments(dag):
        row = np.ravel_multi_index([x[i] for i in held], dims)
        for values in itertools.product(*(range(dag.cardinality(i)) for i in keep)):
            y = list(x)
            for i, v in zip(keep, values):
                y[i] = v
            col = np.ravel_multi_index([y[i] for i in held], dims)
            rho[row, col] += brute_joint(net, x) * np.conj(brute_joint(net, y))
    return rho


def refused_peak_bytes(call):
    """Peak traced memory while ``call`` runs; it must raise CapacityError."""
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_reduced_state(net, keep, diag=()):
    """The reduced state by the dense route: the full joint ket as a
    matrix psi, rows over the held ``keep | diag`` and columns over the
    traced nodes, gives the partial trace psi psi^dagger, which is then
    dephased on ``diag``. It never builds the full projector, so it
    reaches every net whose joint tensor fits in ``DEFAULT_CAP``."""
    dag = net.dag
    held = sorted({*keep, *diag})
    amp = amplitude_tensor(net)
    order = held + [i for i in amp.labels if i not in held]
    psi = np.transpose(amp.data, [amp.labels.index(i) for i in order])
    psi = psi.reshape(math.prod(dag.cardinality(i) for i in held), -1)
    labels = tuple((dag.name(i), dag.cardinality(i)) for i in held)
    return dephase(DensityMatrix(labels, psi @ psi.conj().T), [dag.name(i) for i in diag])


def chain_forward_backward(net, evidence):
    """Posteriors of the chain 0 -> 1 -> ... -> n-1, one table per node.

    Classical forward-backward on the squared tables |A_j|^2, whose
    columns sum to one; it reads ``net.tpms`` directly and runs in time
    linear in the chain length.
    """
    n = net.dag.node_count
    probs = [np.abs(tpm.table) ** 2 for tpm in net.tpms]  # probs[j][x_j, x_{j-1}]

    def likelihood(j):
        mask = np.ones(probs[j].shape[0])
        if j in evidence:
            mask[:] = 0.0
            mask[evidence[j]] = 1.0
        return mask

    forward = [probs[0] * likelihood(0)]
    for j in range(1, n):
        f = (probs[j] @ forward[-1]) * likelihood(j)
        forward.append(f / f.sum())
    backward = [np.ones(probs[-1].shape[0])]
    for j in range(n - 1, 0, -1):
        b = probs[j].T @ (likelihood(j) * backward[-1])
        backward.append(b / b.sum())
    backward.reverse()
    posteriors = []
    for f, b in zip(forward, backward):
        p = f * b
        posteriors.append(p / p.sum())
    return posteriors


def counted_contractions(monkeypatch):
    """Patch ``np.einsum`` to record the arguments of every call made while
    the patch holds; returns the list it appends them to. The driver's
    one contraction site is the ``np.einsum`` call in ``qbp._gathered``,
    once per message or belief of the run's cached schedule, so during a
    run every recorded call is a message or a belief, and nothing else
    contracts. A reduced state's is the call in
    ``network._doubled_contraction``, once per planned call."""
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    return calls


def unfolded_messages(net, evidence):
    """The paper's rules composed literally over the collect and
    distribute sweeps, no fold: every message of a polytree net, keyed by
    (sender, receiver), each computed once from the messages before it."""
    dag = net.dag
    inbox = {}
    for s, r in qbp._skeleton_sweeps(dag):
        from_children = [inbox[(c, s)] for c in dag.children(s) if c != r]
        from_parents = [inbox[(p, s)] for p in dag.parents(s) if p != r]
        if r in dag.parents(s):
            lam = compute_lambda(net, s, from_children, evidence)
            inbox[(s, r)] = rule1_lambda_to_parent(net, s, r, lam, from_parents, evidence)
        else:
            pi = compute_pi(net, s, from_parents, evidence)
            inbox[(s, r)] = rule2_pi_to_child(net, s, r, pi, from_children, evidence)
    return inbox


def brute_d_separated(dag, a, b, z):
    """Active-trail reachability oracle, independent of moralization.

    Standard two-direction walk: a node left "upward" spreads to parents
    and children unless conditioned on; a node entered "downward" spreads
    to children unless conditioned on, and bounces to parents only if it
    is a conditioning node or an ancestor of one (collider activation).
    """
    a, b, z = set(a), set(b), set(z)
    if not a or not b:
        return True
    anc_of_z = set(z)
    changed = True
    while changed:
        changed = False
        for p, c in dag.edges:
            if c in anc_of_z and p not in anc_of_z:
                anc_of_z.add(p)
                changed = True

    visited = set()
    frontier = [(x, "up") for x in a]
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in z and node in b:
            return False
        if direction == "up" and node not in z:
            for p in dag.parents(node):
                frontier.append((p, "up"))
            for c in dag.children(node):
                frontier.append((c, "down"))
        elif direction == "down":
            if node not in z:
                for c in dag.children(node):
                    frontier.append((c, "down"))
            if node in anc_of_z:
                for p in dag.parents(node):
                    frontier.append((p, "up"))
    return True


def _permute_mask(mask, perm):
    """Image of a node bitmask under a relabeling that moves i to perm[i]."""
    from qbnets.graph import _bits

    return sum(1 << perm[i] for i in _bits(mask))


def set_closure_dags(n):
    """Every labeled DAG on n nodes as sorted parent-mask tuples: the edge
    subsets of the identity order, closed under relabeling through a set.
    The reference for ``verify.enumerate_dags``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(itertools.permutations(range(n)))
    tables = [[_permute_mask(m, perm) for m in range(1 << n)] for perm in perms]
    seen = set()
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


def key_matrix_separated_cases(n):
    """Isomorphism classes of (DAG, triple) cases by brute-force keys.

    The reference for ``verify.canonical_separated_cases``: every
    labeled case gets the key min over all n! relabelings and the A/B
    swap of (relabeled DAG integer, packed triple), and each class is
    represented by its first case in (DAG index, triple index) order.
    Builds a (DAGs x triples) key matrix, so keep n <= 4.
    """
    from qbnets.graph import _d_separated_masks
    from qbnets.verify import _assignment_codes, enumerate_dags

    dags = enumerate_dags(n)
    codes = _assignment_codes(n)
    if codes.size == 0:
        return [], 0, 0
    perms = list(itertools.permutations(range(n)))
    pow4 = 4 ** np.arange(n, dtype=np.int64)
    swap = np.array([0, 2, 1, 3], dtype=np.int64)
    dag_masks = np.array(dags, dtype=np.int64)
    pow2n = (1 << n) ** np.arange(n, dtype=np.int64)
    keys = None
    for perm in perms:
        permuted = codes[:, np.argsort(np.array(perm))]
        table = np.array([_permute_mask(m, perm) for m in range(1 << n)], dtype=np.int64)
        relabeled = np.empty_like(dag_masks)
        relabeled[:, list(perm)] = table[dag_masks]
        dag_ints = (relabeled @ pow2n)[:, None] * np.int64(4**n)
        for packed in (permuted @ pow4, swap[permuted] @ pow4):
            variant = dag_ints + packed[None, :]
            keys = variant if keys is None else np.minimum(keys, variant)

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


def split_search_assignable(parents, a, b, z):
    """Side-assignability by trying every split of the hidden nodes.

    The reference for ``graph._sides_assignable_masks``: 2^|hidden|
    d-separation tests, one per split of the off-triple nodes between
    the a-side and the b-side.
    """
    from qbnets.graph import _bits, _d_separated_masks

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


def per_case_census_kets(parents, trials, rng, card):
    """Sampled joint kets of one census case, (trials, *[card] * n).

    The census's sampler one case at a time, the reference for
    ``verify._census_kets``: node by node, each node's ``trials`` tables
    drawn real part first, then imaginary part, with columns scaled to
    unit norm, multiplied into a dense joint ket.
    """
    from qbnets.graph import _bits

    n = len(parents)
    amp = np.ones((trials,) + (card,) * n, dtype=np.complex128)
    for j in range(n):
        pa = sorted(_bits(parents[j]))
        shape = (trials,) + (card,) * (1 + len(pa))
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        table = table / np.sqrt((np.abs(table) ** 2).sum(axis=1, keepdims=True))
        labels = sorted([j] + pa)
        order = [0] + [1 + ([j] + pa).index(l) for l in labels]
        amp = amp * table.transpose(order).reshape(
            [trials] + [card if i in labels else 1 for i in range(n)]
        )
    return amp


def per_case_census_cmi(parents, masks, trials, rng, card):
    """Largest |CMI| over one census case's sampled nets, case by case.

    The reference for ``verify._census_cmis``: the kept nodes of
    :func:`per_case_census_kets` stay as separate axes in node order,
    the others fold into one purifying axis, and one purification-kernel
    call takes the CMI dephased on z.
    """
    from qbnets.graph import _bits
    from qbnets.qinfo import _purified_cmi

    n = len(parents)
    amp = per_case_census_kets(parents, trials, rng, card)
    keep = sorted(_bits(masks[0] | masks[1] | masks[2]))
    rest = [i for i in range(n) if i not in keep]
    dims = (card,) * len(keep)
    psi = amp.transpose([0] + [1 + i for i in keep] + [1 + i for i in rest])
    psi = psi.reshape((trials,) + dims + (-1,))
    a, b, z = (tuple(keep.index(i) for i in _bits(m)) for m in masks)
    return float(np.max(np.abs(_purified_cmi(psi, dims, a, b, z))))


def per_model_cmis(dag, a, b, z, seed, trials):
    """Dephased CMI S(a:b|z) of each sampled net of a d-separation check,
    one model at a time through the public functions.

    The reference for ``verify._sampled_cmis``: trial t's net is
    ``random_qbnet(dag, default_rng([seed, t]))``, reduced by
    ``net_to_density`` and measured by ``quantum_cmi``.
    """
    from qbnets import net_to_density, quantum_cmi
    from qbnets.sampling import random_qbnet

    names = [[dag.name(i) for i in sorted(m)] for m in (a, b, z)]
    out = []
    for t in range(trials):
        net = random_qbnet(dag, np.random.default_rng([seed, t]))
        rho = net_to_density(net, keep=[*a, *b], diag=list(z))
        out.append(quantum_cmi(rho, *names))
    return np.array(out)


def per_model_report(kind, dag, a, b, z, trials, seed, bound):
    """The report fields of a forward check (``kind`` "forward") or a
    witness search ("witness") from :func:`per_model_cmis`, trial by
    trial: the largest |CMI| and its first trial, a search stopping at
    its first CMI above ``bound``."""
    cmis = per_model_cmis(dag, a, b, z, seed, trials)
    max_cmi, worst, run = 0.0, None, 0
    for t, cmi in enumerate(np.abs(cmis).tolist()):
        run += 1
        if cmi > max_cmi:
            max_cmi, worst = cmi, t
        if kind == "witness" and cmi > bound:
            break
    found = max_cmi > bound
    return {
        "trials_run": run,
        "max_cmi": max_cmi,
        "witness_seed": worst,
        "passed": found if kind == "witness" else not found,
    }


def per_node_tables(dag, rng):
    """Gaussian unit-column node tables drawn with two ``normal`` calls
    per node, real part then imaginary part: the reference for the
    one-call draw of ``sampling._draw_tables``."""
    tables = []
    for j in range(dag.node_count):
        shape = (dag.cardinality(j),) + tuple(dag.cardinality(p) for p in dag.parents(j))
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        tables.append(table / np.sqrt((np.abs(table) ** 2).sum(axis=0, keepdims=True)))
    return tables


def scan_elimination(dag, keep, diag, tables=None):
    """Variable elimination of the doubled network {A_j, A_j*} with the
    next node found by scanning every remaining node, O(n^2) in all.

    The reference for ``network._doubled_plan``'s heap: node j's ket
    index is j and its bra index n + j if j is kept, j otherwise; the
    traced node whose intermediate would be smallest goes next, ties to
    the lower index. Returns the elimination order and, given the node
    tables of one net, the contraction onto the held kets then bras,
    each step and the last product one ``np.einsum`` call on integer
    subscript lists (the net-wide indices themselves, so at most 26
    nodes), without a capacity limit, and with one identity factor per
    ``diag`` node in the last product; no step of a net of at most 10
    nodes reaches the 32 operands of one call. Without tables it returns
    the order and the pair (factor keys of each step, factor keys of the
    last product): 2j node j's table, 2j + 1 its conjugate, 2n + s the
    intermediate of step s, as ``network._DoubledPlan.scopes`` numbers
    them when no step needs a merge call.
    """
    n = dag.node_count
    kept = set(keep)
    bra = [n + j if j in kept else j for j in range(n)]
    card = {}
    for j in range(n):
        card[j] = card[n + j] = dag.cardinality(j)
    factors = {}
    where = {i: set() for i in card}
    keys = itertools.count()

    def add(idx, data):
        key = next(keys)
        factors[key] = (idx, data)
        for i in idx:
            where[i].add(key)

    for j in range(n):
        idx = (j,) + dag.parents(j)
        add(idx, None if tables is None else tables[j])
        add(tuple(bra[i] for i in idx), None if tables is None else tables[j].conj())

    def scope(v):
        return tuple(sorted(set().union(*(factors[k][0] for k in where[v])) - {v}))

    def einsum(parts, out):
        return np.einsum(*[x for idx, data in parts for x in (data, list(idx))], list(out))

    held = kept | set(diag)
    score = {v: math.prod(card[i] for i in scope(v)) for v in range(n) if v not in held}
    order, steps = [], []
    while score:
        v = min(score, key=lambda u: (score[u], u))
        order.append(v)
        out = scope(v)
        steps.append(tuple(sorted(where[v])))
        parts = []
        for k in steps[-1]:
            part = factors.pop(k)
            for i in part[0]:
                where[i].discard(k)
            parts.append(part)
        add(out, None if tables is None else einsum(parts, out))
        del score[v]
        for u in out:
            if u in score:
                score[u] = math.prod(card[i] for i in scope(u))
    if tables is None:
        return order, (steps, sorted(factors))

    for j in sorted(diag):
        add((j, n + j), np.eye(card[j]))
    kets = sorted(held)
    out = tuple(kets) + tuple(n + j for j in kets)
    return order, einsum(list(factors.values()), out)


_SIGMA_Y2 = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _zero_roundoff(w):
    return np.where(w < 1e-12, 0.0, w)


def wootters_eof(matrix):
    """Entanglement of formation of a two-qubit state, in nats (Wootters,
    PRL 80:2245, 1998).

    The concurrence is C = max(0, l1 - l2 - l3 - l4), with l the
    decreasing square roots of the eigenvalues of the Hermitian
    sqrt(rho) rho~ sqrt(rho), rho~ the spin flip of rho; E_F is the binary
    entropy of (1 + sqrt(1 - C^2)) / 2. Eigenvalues below 1e-12 are
    zeroed before each square root: a roundoff eigenvalue of ~1e-17 on a
    rank-deficient state would otherwise enter C as ~3e-9.
    """
    rho = np.asarray(matrix, dtype=np.complex128)
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(_zero_roundoff(w))) @ v.conj().T
    flipped = _SIGMA_Y2 @ rho.conj() @ _SIGMA_Y2
    lam = np.sqrt(_zero_roundoff(np.linalg.eigvalsh(root @ flipped @ root)))[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    p = 0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c)))
    return float(sum(-q * np.log(q) for q in (p, 1.0 - p) if q > 0.0))


def eigh_value_grad(psi, v):
    """The squashed objective and its gradient by one ``eigh`` of the
    members' x-marginals, whatever their size: the reference for the
    closed 2 x 2 form of ``qbnets.squashed._value_grad``."""
    phi = _members(psi, v)
    w, u = np.linalg.eigh(phi @ phi.conj().swapaxes(1, 2))
    _check_spectrum(w)
    w = np.maximum(w, EIG_FLOOR)
    log_ratio = np.log(w) - np.log(w.sum(axis=1))[:, None]
    k_phi = u @ (-log_ratio[:, :, None] * (u.conj().swapaxes(1, 2) @ phi))
    grad = k_phi.reshape(len(v), -1) @ psi.reshape(-1, psi.shape[2]).conj()
    return float(-(w * log_ratio).sum()), grad


def bb_descend(psi, v, budget, stop):
    """The squashed search's former descent, kept as the reference:
    Riemannian steepest descent with Barzilai-Borwein steps and Armijo
    backtracking; every value-and-gradient call is one evaluation of the
    budget. Drop-in for ``qbnets.squashed._descend``."""
    value, g = _value_grad(psi, v)
    xi, used, step = _tangent(v, g), 1, 1.0
    while used < budget and value > stop:
        slope = float(np.vdot(xi, xi).real)
        if slope < 1e-26:
            break
        while True:  # Armijo backtracking from the Barzilai-Borwein step
            trial = _retract(v - step * xi)
            trial_value, g = _value_grad(psi, trial)
            used += 1
            accepted = trial_value <= value - 1e-4 * step * slope
            if accepted or used >= budget:
                break
            step *= 0.5
        if not accepted:
            break
        trial_xi = _tangent(trial, g)
        s, y = trial - v, trial_xi - xi
        sy = float(np.vdot(s, y).real)
        step = sy / float(np.vdot(y, y).real) if sy > 0.0 else 1.0
        gain = value - trial_value
        v, value, xi = trial, trial_value, trial_xi
        if gain < 1e-15:
            break
    return value, v, used
