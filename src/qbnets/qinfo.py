"""Density matrices, entropies, dephasing, and block-diagonal extensions.

Entropies are in nats throughout. Quantum conditional and mutual
informations are the usual linear combinations of von Neumann entropies
of partial traces; their classical twins operate on plain probability
tables. Every quantum entropy, partial trace, dephasing and CMI in the
package runs on one batched core of raw-array kernels that take stacks
with leading batch axes (the census and the squashed-entanglement
objective pass stacks). Density-matrix stacks go through the dense CMI
kernel; a stack of pure-state purifications goes through the
purification kernel, which takes each entropy of the dephased state from
Gram matrices of the kets' blocks, on whichever side is smaller (a pure
state's reductions share their nonzero spectrum with their complement's),
so the census never forms a density matrix. A :class:`DensityMatrix` is
validated once, at the boundary where it is built; the information
functions reduce its raw matrix without building intermediate states,
and the entropy kernel holds the one eigenvalue check on computed states.
A :class:`DiagonalExtension` is an ensemble {P(lam), rho^lam}
whose assembled state is block diagonal in the lam basis; its
conditional mutual information reduces to a weighted sum of per-block
mutual informations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidStateError
from .graph import as_multinode
from .network import DEFAULT_CAP, QBNet, _doubled_contraction, _doubled_plan

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIG_REJECT = -1e-8

Labels = tuple[tuple[str, int], ...]


def _clean_labels(labels) -> Labels:
    out = []
    for name, dim in labels:
        name, dim = str(name), int(dim)
        if dim < 1:
            raise ValueError(f"label {name!r} has dimension {dim}")
        out.append((name, dim))
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise ValueError("label names must be unique")
    return tuple(out)


def _group(g) -> tuple[str, ...]:
    if isinstance(g, str):
        return (g,)
    return tuple(str(x) for x in g)


def _check_spectrum(w: np.ndarray) -> None:
    if w.size and float(w.min()) < EIG_REJECT:
        raise InvalidStateError(
            f"smallest eigenvalue {float(w.min()):.3g} is below {EIG_REJECT:.1g}"
        )


class DensityMatrix:
    """A labeled Hermitian positive-semidefinite trace-one matrix.

    ``labels`` is an ordered tuple of (name, dimension) pairs; the
    matrix acts on their tensor product, row-major in label order.
    """

    __slots__ = ("labels", "matrix")

    def __init__(self, labels, matrix) -> None:
        labels = _clean_labels(labels)
        arr = np.array(matrix, dtype=np.complex128)
        dim = int(np.prod([d for _, d in labels])) if labels else 1
        if arr.shape != (dim, dim):
            raise ValueError(f"matrix shape {arr.shape}, expected {(dim, dim)}")
        if not np.isfinite(arr).all():
            raise InvalidStateError("matrix has a non-finite entry")
        # a state's entries have modulus at most 1; parts above 2, which no
        # matrix passing the checks below has, would overflow those checks
        big = float(np.abs(arr.view(np.float64)).max())
        if big > 2.0:
            raise InvalidStateError(f"an entry has a real or imaginary part of size {big:.3g}")
        herm = float(np.max(np.abs(arr - arr.conj().T))) if dim else 0.0
        if herm > HERMITIAN_ATOL:
            raise InvalidStateError(f"matrix deviates from Hermitian by {herm:.3g}")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvalidStateError(f"trace is {tr:.12g}, expected 1")
        _check_spectrum(np.linalg.eigvalsh(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("DensityMatrix is immutable")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dim_of(self, name: str) -> int:
        for n, d in self.labels:
            if n == name:
                return d
        raise ValueError(f"unknown label {name!r}")

    def tensor(self) -> np.ndarray:
        """View of the matrix with one row axis and one column axis per label."""
        return self.matrix.reshape(self.dims + self.dims)

    def __repr__(self) -> str:
        spec = ", ".join(f"{n}:{d}" for n, d in self.labels)
        return f"DensityMatrix([{spec}])"


def reordered(rho: DensityMatrix, names: Sequence[str]) -> DensityMatrix:
    """The same state with its labels permuted into the given order."""
    names = tuple(names)
    if sorted(names) != sorted(rho.names):
        raise ValueError("new order must be a permutation of the labels")
    if names == rho.names:
        return rho
    perm = tuple(rho.names.index(n) for n in names)
    k = len(perm)
    tens = rho.tensor().transpose(perm + tuple(k + p for p in perm))
    d = rho.dim
    return DensityMatrix(
        tuple((n, rho.dim_of(n)) for n in names), tens.reshape(d, d)
    )


def _label_positions(rho: DensityMatrix, group) -> tuple[int, ...]:
    """Ascending positions of the named labels; an unknown name is an error."""
    names = set(_group(group))
    unknown = names - set(rho.names)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    return tuple(i for i, n in enumerate(rho.names) if n in names)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every label not named in ``keep`` (original order kept)."""
    pos = _label_positions(rho, keep)
    if len(pos) == len(rho.labels):
        return rho
    reduced = _reduce(rho.matrix, rho.dims, pos)
    reduced = 0.5 * (reduced + reduced.conj().T)
    return DensityMatrix(tuple(rho.labels[i] for i in pos), reduced)


def dephase(rho: DensityMatrix, labels) -> DensityMatrix:
    """Zero every block off-diagonal in the computational basis of ``labels``.

    Idempotent and trace preserving; realizes conditioning on a variable
    that has been measured without recording the outcome.
    """
    pos = _label_positions(rho, labels)
    if not pos:
        return rho
    return DensityMatrix(rho.labels, rho.matrix * _dephase_mask(rho.dims, pos))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Shannon entropy of the spectrum, in nats; 0 ln 0 := 0."""
    return float(_spectral_entropy(rho.matrix))


def _partition(rho: DensityMatrix, *groups) -> list[tuple[int, ...]]:
    """Label positions of each group; the groups must partition the labels."""
    groups = [_group(g) for g in groups]
    flat = [n for g in groups for n in g]
    if len(set(flat)) != len(flat):
        raise ValueError("label groups must be disjoint")
    if set(flat) != set(rho.names):
        raise ValueError(
            f"groups {sorted(flat)} must partition the labels {sorted(rho.names)}"
        )
    return [_label_positions(rho, g) for g in groups]


def quantum_conditional_entropy(rho: DensityMatrix, x, y) -> float:
    """S(x|y) = S(x,y) - S(y)."""
    _, y = _partition(rho, x, y)
    return float(_spectral_entropy(rho.matrix) - _entropy_on(rho.matrix, rho.dims, y))


def quantum_mutual_information(rho: DensityMatrix, x, y) -> float:
    """S(x:y) = S(x) + S(y) - S(x,y): :func:`quantum_cmi` with nothing
    conditioned on."""
    return quantum_cmi(rho, x, y)


def quantum_cmi(rho: DensityMatrix, x, y, z=()) -> float:
    """S(x:y|z) = S(x,z) + S(y,z) - S(z) - S(x,y,z).

    With an empty ``z`` this is the mutual information.
    """
    x, y, z = _partition(rho, x, y, z)
    return float(_cmi(rho.matrix, rho.dims, x, y, z))


# -- the batched core: raw (..., D, D) stacks (or, for the purification
# kernel, (..., *dims, r) kets) over labels of dimensions ``dims``, label
# groups given as positions; no DensityMatrix is built here


def _spectral_entropy(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of each matrix of a Hermitian stack, in nats.

    The one spectrum check on computed states (:func:`_spectrum_entropy`).
    A 1 x 1 matrix is its own eigenvalue and a 2 x 2 matrix goes through
    the closed form of :func:`_pair_entropy`, which saves one LAPACK call
    per matrix (squashed-entanglement members and qubit reductions);
    larger matrices go to ``eigvalsh``.
    """
    size = mats.shape[-1]
    if size == 1:
        return _spectrum_entropy(mats[..., 0].real)
    if size == 2:
        return _pair_entropy(mats[..., 0, 0].real, mats[..., 1, 1].real, np.abs(mats[..., 1, 0]))
    return _spectrum_entropy(np.linalg.eigvalsh(mats))


def _spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """-sum w ln w over the last axis of a stack of spectra.

    An eigenvalue below ``EIG_REJECT`` anywhere in the stack raises
    InvalidStateError; roundoff above it is clipped away, and 0 ln 0 := 0.
    """
    _check_spectrum(w)
    w = np.clip(w, 0.0, 1.0)
    return -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=-1)


def _pair_entropy(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entropy of each Hermitian [[a, b*], [b, d]] from a, d and |b|.

    The eigenvalues are m -+ hypot(h, |b|), with m = (a + d) / 2 and
    h = (a - d) / 2: the one 2 x 2 spectrum formula of the package.
    """
    m = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), b)
    return _spectrum_entropy(np.stack([m - r, m + r], axis=-1))


def _reduce(mats: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Partial trace of a stack onto the label positions ``keep``."""
    k, keep = len(dims), sorted(keep)
    tens = mats.reshape((-1,) + dims * 2)
    cols = [k + i + 1 if i in keep else i + 1 for i in range(k)]
    out = [0] + [i + 1 for i in keep] + [k + i + 1 for i in keep]
    d = math.prod(dims[i] for i in keep)
    reduced = np.einsum(tens, list(range(k + 1)) + cols, out)
    return reduced.reshape(mats.shape[:-2] + (d, d))


def _dephase_mask(dims: tuple[int, ...], positions) -> np.ndarray:
    """(D, D) mask of the blocks diagonal in the labels at ``positions``."""
    d = math.prod(dims)
    idx = np.arange(d)
    mask = np.ones((d, d), dtype=bool)
    stride = d
    for pos, dim in enumerate(dims):
        stride //= dim
        if pos in positions:
            comp = (idx // stride) % dim
            mask &= comp[:, None] == comp[None, :]
    return mask


def _entropy_on(mats: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Entropy of each state's reduction onto the label positions ``keep``."""
    if not keep:
        return np.zeros(mats.shape[:-2])
    return _spectral_entropy(_reduce(mats, dims, keep))


def _cmi(mats: np.ndarray, dims: tuple[int, ...], x, y, z=()) -> np.ndarray:
    """S(x:y|z) of each state of a stack; ``x``, ``y`` and ``z`` are
    disjoint position tuples covering every label (empty ``z``: the MI)."""
    return (
        _entropy_on(mats, dims, x + z)
        + _entropy_on(mats, dims, y + z)
        - _entropy_on(mats, dims, z)
        - _spectral_entropy(mats)
    )


def _purified_cmi(psi: np.ndarray, dims: tuple[int, ...], x, y, z=()) -> np.ndarray:
    """S(x:y|z) of each state psi psi^dagger of a stack, dephased on ``z``.

    ``psi`` has shape (..., *dims, r): an unnormalized purification of
    each state over the labels of dimensions ``dims``, its last axis the
    purifying system; ``x``, ``y`` and ``z`` are disjoint position tuples
    covering every label. No dense state is built. Dephasing on ``z``
    makes the state block diagonal, one block psi_z psi_z^dagger per
    value of ``z``, so each entropy is the sum over blocks of the entropy
    of the block's reduction. The reduction of a block onto a group g has
    the nonzero spectrum of the Gram matrix M M^dagger and of M^dagger M
    alike (Schmidt decomposition), with M the block as a matrix from the
    g labels to the other kept labels and the purifying system; only the
    smaller side is used. The Gram matrix of k rows r_i has the entries
    <r_i, r_j>, each a sum over the long axis: with k = 1 its eigenvalue
    is the row's squared norm, with k = 2 the entries go straight to the
    closed form of :func:`_pair_entropy`, and only k >= 3 builds the
    Gram matrix for ``eigvalsh``. So the small sides, which most census
    blocks have, pay for no stack of tiny matrix products.
    """
    lead = psi.ndim - len(dims) - 1
    dz = math.prod(dims[i] for i in z)

    def entropy(group) -> np.ndarray:
        if not group and not z:
            return np.zeros(psi.shape[:lead])
        rest = [i for i in range(len(dims)) if i not in group and i not in z]
        order = [lead + i for i in (*z, *group, *rest)]
        blocks = psi.transpose(list(range(lead)) + order + [psi.ndim - 1])
        dg = math.prod(dims[i] for i in group)
        blocks = blocks.reshape(psi.shape[:lead] + (dz, dg, -1))
        rows = blocks if dg <= blocks.shape[-1] else blocks.swapaxes(-1, -2)
        conj = rows.conj()
        side = rows.shape[-2]
        if side == 1:
            w = _spectrum_entropy(np.einsum("...i,...i->...", rows, conj).real)
        elif side == 2:
            norms = np.einsum("...i,...i->...", rows, conj).real
            b = np.einsum("...i,...i->...", rows[..., 0, :], conj[..., 1, :])
            w = _pair_entropy(norms[..., 0], norms[..., 1], np.abs(b))
        else:
            w = _spectral_entropy(rows @ conj.swapaxes(-1, -2))
        return w.sum(axis=-1)

    return entropy(x) + entropy(y) - entropy(()) - entropy(x + y)


class ClassicalDistribution:
    """A labeled nonnegative real table summing to one.

    A total within 1e-10 of one is divided out, so every entropy is of a
    table that sums to one up to roundoff.
    """

    __slots__ = ("labels", "table")

    def __init__(self, labels, table) -> None:
        labels = _clean_labels(labels)
        arr = np.array(table, dtype=float)
        dims = tuple(d for _, d in labels)
        if arr.shape != dims:
            raise ValueError(f"table shape {arr.shape}, expected {dims}")
        if not np.isfinite(arr).all():
            raise ValueError("table has a non-finite entry")
        if arr.size and float(arr.min()) < -1e-12:
            raise ValueError(f"negative probability mass {float(arr.min()):.3g}")
        arr = np.clip(arr, 0.0, None)
        with np.errstate(over="ignore"):  # an overflowing total is inf, rejected below
            total = float(arr.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"table sums to {total!r}, expected 1")
        arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", arr)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ClassicalDistribution is immutable")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.labels)

    def marginal(self, names) -> np.ndarray:
        keep = set(_group(names))
        unknown = keep - set(self.names)
        if unknown:
            raise ValueError(f"unknown labels {sorted(unknown)}")
        drop = tuple(i for i, (n, _) in enumerate(self.labels) if n not in keep)
        return self.table.sum(axis=drop) if drop else self.table


def _shannon(table: np.ndarray) -> float:
    p = table[table > 0.0]
    return float(-(p * np.log(p)).sum())


def classical_entropy(dist: ClassicalDistribution, of=None) -> float:
    """Shannon entropy of the labels ``of`` (all of them when None), in
    nats; an empty group has entropy exactly 0."""
    if of is None:
        return _shannon(dist.table)
    of = _group(of)
    return _shannon(dist.marginal(of)) if of else 0.0


def classical_conditional_entropy(dist: ClassicalDistribution, x, y) -> float:
    x, y = _group(x), _group(y)
    return classical_entropy(dist, x + y) - classical_entropy(dist, y)


def classical_mutual_information(dist: ClassicalDistribution, x, y) -> float:
    """H(x) + H(y) - H(x,y): :func:`classical_cmi` with nothing
    conditioned on."""
    return classical_cmi(dist, x, y)


def classical_cmi(dist: ClassicalDistribution, x, y, z=()) -> float:
    """H(x,z) + H(y,z) - H(z) - H(x,y,z); with an empty ``z`` the
    entropy of no labels is 0 and this is the mutual information."""
    x, y, z = _group(x), _group(y), _group(z)
    return (
        classical_entropy(dist, x + z)
        + classical_entropy(dist, y + z)
        - classical_entropy(dist, z)
        - classical_entropy(dist, x + y + z)
    )


class DiagonalExtension:
    """Weights P(lam) with one component state per lam value.

    Assembles to a state over (lam, components' labels) that is block
    diagonal in lam.
    """

    __slots__ = ("weights", "components")

    def __init__(self, weights, components: Sequence[DensityMatrix]) -> None:
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.isfinite(w).all():
            raise ValueError("weights have a non-finite entry")
        if float(w.min()) < -1e-12:
            raise ValueError(f"negative weight {float(w.min()):.3g}")
        w = np.clip(w, 0.0, None)
        with np.errstate(over="ignore"):  # an overflowing total is inf, rejected below
            total = float(w.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        components = tuple(components)
        if len(components) != w.size:
            raise ValueError(
                f"{w.size} weights but {len(components)} components"
            )
        first = components[0].labels
        for comp in components[1:]:
            if comp.labels != first:
                raise ValueError("all components must carry identical labels")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("DiagonalExtension is immutable")

    @property
    def lam_cardinality(self) -> int:
        return int(self.weights.size)

    @property
    def component_labels(self) -> Labels:
        return self.components[0].labels

    def assemble(self, lam_name: str = "lam") -> DensityMatrix:
        """The block-diagonal state over (lam, component labels)."""
        if lam_name in [n for n, _ in self.component_labels]:
            raise ValueError(f"label {lam_name!r} already used by the components")
        d = self.components[0].dim
        L = self.lam_cardinality
        big = np.zeros((L * d, L * d), dtype=np.complex128)
        for k in range(L):
            big[k * d : (k + 1) * d, k * d : (k + 1) * d] = (
                self.weights[k] * self.components[k].matrix
            )
        labels = ((lam_name, L),) + self.component_labels
        return DensityMatrix(labels, big)


def diagonal_blocks(rho: DensityMatrix, lam_name: str, atol: float = 1e-10) -> DiagonalExtension:
    """Split a lam-block-diagonal state into its weighted components."""
    front = reordered(rho, (lam_name,) + tuple(n for n in rho.names if n != lam_name))
    L = front.dims[0]
    d = front.dim // L
    mat = front.matrix
    off = mat[~_dephase_mask(front.dims, (0,))]
    residual = float(np.max(np.abs(off))) if off.size else 0.0
    if residual > atol:
        raise ValueError(
            f"state is not block diagonal in {lam_name!r}: off-block residual {residual:.3g}"
        )
    weights = []
    components = []
    labels = front.labels[1:]
    dim_rest = d
    for k in range(L):
        block = mat[k * d : (k + 1) * d, k * d : (k + 1) * d]
        p = float(np.trace(block).real)
        p = max(p, 0.0)
        weights.append(p)
        if p > 0.0:
            components.append(DensityMatrix(labels, block / p))
        else:
            components.append(
                DensityMatrix(labels, np.eye(dim_rest, dtype=np.complex128) / dim_rest)
            )
    weights = np.array(weights)
    weights = weights / weights.sum()
    return DiagonalExtension(weights, components)


def cmi_diagonal(ext: DiagonalExtension, x=None, y=None) -> float:
    """Conditional mutual information of a block-diagonal extension.

    Equals ``sum_lam P(lam) [S(rho^lam_x) + S(rho^lam_y) - S(rho^lam)]``,
    which agrees with :func:`quantum_cmi` of the assembled state. With
    two-label components the (x, y) split defaults to (first, second).
    """
    names = [n for n, _ in ext.component_labels]
    if x is None and y is None:
        if len(names) != 2:
            raise ValueError(
                "components carry more than two labels; pass the x and y groups"
            )
        x, y = (names[0],), (names[1],)
    elif x is None or y is None:
        raise ValueError("pass both the x and the y group, or neither")
    first = ext.components[0]
    x, y = _partition(first, x, y)
    live = ext.weights > 0.0
    mats = np.stack([c.matrix for c, on in zip(ext.components, live) if on])
    per = _cmi(mats, first.dims, x, y)
    return float(sum(ext.weights[live] * per))


def net_to_density(net: QBNet, keep, diag=(), cap: int = DEFAULT_CAP) -> DensityMatrix:
    """Reduced state of a net's joint ket, dephased on the ``diag`` nodes.

    This is the pure projector of the joint ket, traced down to
    ``keep | diag`` with the blocks off-diagonal in the ``diag``
    computational basis zeroed: the class of states a graph can generate
    when the conditioning nodes are read out without keeping coherences.
    It is computed as the contraction of the doubled network
    {A_j, A_j*} by variable elimination, so no tensor over all nodes is
    built: kept nodes keep separate ket and bra indices, ``diag`` nodes
    share one, and every other node is summed out. The product over the
    held nodes is written straight onto the diagonal blocks of the
    ``diag`` nodes. The elimination is planned from the graph alone
    (``network._doubled_plan``) and run on the tables as a stack of one
    trial (``network._doubled_contraction``): the route by which the
    sampled d-separation checks of :mod:`qbnets.verify` contract all
    their models at once.

    ``cap`` bounds the dimension of the reduced state and the number of
    entries of every intermediate of the elimination; exceeding either
    raises :class:`CapacityError` before anything that large is built.
    """
    keep, diag = as_multinode(keep), as_multinode(diag)
    keep.validate(net.dag)
    diag.validate(net.dag)
    if not keep.isdisjoint(diag):
        raise ValueError("keep and diag multinodes must be disjoint")
    plan = _doubled_plan(net.dag, keep, diag, cap)
    rho = _doubled_contraction(plan, [tpm.table[None] for tpm in net.tpms])
    held = keep | diag
    held_dim = math.prod(net.dag.cardinality(i) for i in held)
    rho = rho.reshape(held_dim, held_dim)
    rho = 0.5 * (rho + rho.conj().T)
    labels = tuple((net.dag.name(i), net.dag.cardinality(i)) for i in held)
    return DensityMatrix(labels, rho)
