"""Density matrices, entropies, dephasing, and block-diagonal extensions.

Entropies are in nats throughout. Quantum conditional and mutual
informations are the usual linear combinations of von Neumann entropies
of partial traces; their classical twins operate on plain probability
tables. Every quantum entropy, partial trace, dephasing and CMI in the
package runs on one batched core of raw-array kernels that take stacks
with leading batch axes (the census and the squashed-entanglement
objective pass stacks). A :class:`DensityMatrix` is validated once, at
the boundary where it is built; the information functions reduce its raw
matrix without building intermediate states, and the entropy kernel
holds the one eigenvalue check on computed states.
A :class:`DiagonalExtension` is an ensemble {P(lam), rho^lam}
whose assembled state is block diagonal in the lam basis; its
conditional mutual information reduces to a weighted sum of per-block
mutual informations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CapacityError, InvalidStateError
from .graph import as_multinode
from .network import DEFAULT_CAP, QBNet, _doubled_contraction

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
    """S(x:y) = S(x) + S(y) - S(x,y)."""
    x, y = _partition(rho, x, y)
    return float(_cmi(rho.matrix, rho.dims, x, y))


def quantum_cmi(rho: DensityMatrix, x, y, z=()) -> float:
    """S(x:y|z) = S(x,z) + S(y,z) - S(z) - S(x,y,z).

    With an empty ``z`` this is the mutual information.
    """
    x, y, z = _partition(rho, x, y, z)
    return float(_cmi(rho.matrix, rho.dims, x, y, z))


# -- the batched core: raw (..., D, D) stacks over labels of dimensions
# ``dims``, label groups given as positions; no DensityMatrix is built here


def _spectral_entropy(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of each matrix of a Hermitian stack, in nats.

    The one spectrum check on computed states: an eigenvalue below
    ``EIG_REJECT`` anywhere in the stack raises InvalidStateError;
    roundoff above it is clipped away, and 0 ln 0 := 0.
    """
    w = np.linalg.eigvalsh(mats)
    _check_spectrum(w)
    w = np.clip(w, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log(w), 0.0)
    return -terms.sum(axis=-1)


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


class ClassicalDistribution:
    """A labeled nonnegative real table summing to one."""

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
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"table sums to {total!r}, expected 1")
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
    if of is None:
        return _shannon(dist.table)
    return _shannon(dist.marginal(of))


def classical_conditional_entropy(dist: ClassicalDistribution, x, y) -> float:
    x, y = _group(x), _group(y)
    return classical_entropy(dist, x + y) - classical_entropy(dist, y)


def classical_mutual_information(dist: ClassicalDistribution, x, y) -> float:
    x, y = _group(x), _group(y)
    return (
        classical_entropy(dist, x)
        + classical_entropy(dist, y)
        - classical_entropy(dist, x + y)
    )


def classical_cmi(dist: ClassicalDistribution, x, y, z=()) -> float:
    x, y, z = _group(x), _group(y), _group(z)
    if not z:
        return classical_mutual_information(dist, x, y)
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
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {float(w.sum())!r}, expected 1")
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
    ``diag`` nodes.

    ``cap`` bounds the dimension of the reduced state and the number of
    entries of every intermediate of the elimination; exceeding either
    raises :class:`CapacityError` before anything that large is built.
    """
    keep, diag = as_multinode(keep), as_multinode(diag)
    keep.validate(net.dag)
    diag.validate(net.dag)
    if not keep.isdisjoint(diag):
        raise ValueError("keep and diag multinodes must be disjoint")
    held = keep | diag
    if not held:
        raise ValueError("keep | diag must name at least one node")
    held_dim = int(np.prod([net.dag.cardinality(i) for i in held]))
    if held_dim > cap:
        raise CapacityError(
            f"reduced state would be {held_dim}-dimensional, above the cap of {cap}"
        )
    joint = _doubled_contraction(net, keep, diag, cap)
    # axes of ``joint``: kept kets, kept bras, diag; held position p is
    # row axis p and column axis h + p of the state
    h = len(held)
    pos = {node: p for p, node in enumerate(held)}
    subs = [pos[i] for i in keep] + [h + pos[i] for i in keep] + [pos[i] for i in diag]
    args = [joint, subs]
    for i in diag:
        args += [np.eye(net.dag.cardinality(i)), [pos[i], h + pos[i]]]
    rho = np.einsum(*args, list(range(2 * h))).reshape(held_dim, held_dim)
    rho = 0.5 * (rho + rho.conj().T)
    labels = tuple((net.dag.name(i), net.dag.cardinality(i)) for i in held)
    return DensityMatrix(labels, rho)
