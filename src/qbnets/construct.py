"""Building a qbnet from a block-diagonal density matrix, and back down.

``density_to_qbnet`` turns an extension {P(lam), rho^lam over (x, y)}
into a five-node net (lam, x0, y0, x, y): each component is
eigendecomposed as U D U*, the eigenvalues become a classical table
P(x0, y0 | lam) carried by square-root amplitudes, and U becomes the
amplitude of (x, y) given (x0, y0, lam), split into a chain of two
unit-column tables. Tracing the resulting joint ket down to (x, y, lam)
and dephasing lam reproduces the assembled input exactly.

``reduce_qbnet`` goes the other way on shape: when the x table does not
actually depend on y0, the five nodes collapse to three by fusing
(x, x0) and (y, y0) into composite nodes. Composite states are indexed
base-major: state(X) = x * card(x0) + x0, and likewise for Y.
"""

from __future__ import annotations

import numpy as np

from .errors import NotReducibleError
from .graph import Dag
from .network import QBNet, _require_tolerance, node_tpm
from .qinfo import DiagonalExtension, _check_spectrum


# the construction's edges over (lam, x0, y0, x, y): every earlier node is a parent
_EDGES = (
    (0, 1),
    (1, 2), (0, 2),
    (1, 3), (2, 3), (0, 3),
    (3, 4), (1, 4), (2, 4), (0, 4),
)


def _fresh_names(ext: DiagonalExtension) -> tuple[str, str, str, str, str]:
    (x_name, _), (y_name, _) = ext.component_labels
    taken = {x_name, y_name}
    fresh = []
    for name in ("lam", f"{x_name}0", f"{y_name}0"):
        while name in taken:
            name += "_"
        taken.add(name)
        fresh.append(name)
    return (*fresh, x_name, y_name)


def density_to_qbnet(ext: DiagonalExtension) -> QBNet:
    """Emit the five-node net whose dephased (x, y, lam) state is ``ext``.

    Node order is (lam, x0, y0, x, y). The tables are, per lam:
    sqrt(P(lam)), sqrt(P(x0|lam)), sqrt(P(y0|x0,lam)) from the
    eigenvalues, and the eigenvector unitary split as
    A(x|x0,y0,lam) * A(y|x,x0,y0,lam). Eigenvector phase and ordering
    freedom changes the tables but never the reconstructed state.
    """
    if len(ext.component_labels) != 2:
        raise ValueError("components must carry exactly two labels (x, y)")
    (x_name, cx), (y_name, cy) = ext.component_labels
    lam_name, x0_name, y0_name, _, _ = _fresh_names(ext)
    cl = ext.lam_cardinality
    d = cx * cy

    p_r0 = np.empty((cl, cx, cy))
    a_x = np.empty((cx, cx, cy, cl), dtype=np.complex128)
    a_y = np.empty((cy, cx, cx, cy, cl), dtype=np.complex128)

    for k, comp in enumerate(ext.components):
        w, u = np.linalg.eigh(comp.matrix)
        _check_spectrum(w)
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        p_r0[k] = w.reshape(cx, cy)
        cols = u.reshape(cx, cy, d)  # cols[x, y, r0]
        px_given = (np.abs(cols) ** 2).sum(axis=1)  # (cx, d)
        root_px = np.sqrt(px_given)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = cols / root_px[:, None, :]
        dead = px_given == 0.0
        if dead.any():
            rel = rel.copy()
            uniform = np.full(cy, 1.0 / np.sqrt(cy))
            for x_idx, r0 in zip(*np.nonzero(dead)):
                rel[x_idx, :, r0] = uniform
        a_x[:, :, :, k] = root_px.reshape(cx, cx, cy)
        a_y[:, :, :, :, k] = rel.transpose(1, 0, 2).reshape(cy, cx, cx, cy)

    p_x0 = p_r0.sum(axis=2)  # (cl, cx)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_y0_given = p_r0 / p_x0[:, :, None]
    dead = p_x0 == 0.0
    if dead.any():
        p_y0_given = np.where(dead[:, :, None], 1.0 / cy, p_y0_given)

    dag = Dag(
        nodes=[
            (lam_name, cl),
            (x0_name, cx),
            (y0_name, cy),
            (x_name, cx),
            (y_name, cy),
        ],
        edges=_EDGES,
    )
    tpms = [
        node_tpm(0, (), np.sqrt(ext.weights)),
        node_tpm(1, (0,), np.sqrt(p_x0).T),
        node_tpm(2, (1, 0), np.sqrt(p_y0_given).transpose(2, 1, 0)),
        node_tpm(3, (1, 2, 0), a_x),
        node_tpm(4, (3, 1, 2, 0), a_y),
    ]
    return QBNet(dag, tpms)


def _expand_table(net: QBNet, node: int, target_parents: tuple[int, ...]) -> np.ndarray:
    """Broadcast a node's table up to the axis order (node, *target_parents)."""
    tpm = net.tpms[node]
    cards = net.dag.cardinalities
    src_axes = {p: 1 + k for k, p in enumerate(tpm.parents)}
    perm = [0] + [src_axes[p] for p in target_parents if p in src_axes]
    arr = tpm.table.transpose(perm)
    shape = [cards[node]] + [
        cards[p] if p in src_axes else 1 for p in target_parents
    ]
    arr = arr.reshape(shape)
    full = [cards[node]] + [cards[p] for p in target_parents]
    return np.broadcast_to(arr, full)


def reduce_qbnet(net: QBNet, atol: float = 1e-10) -> QBNet:
    """Fuse a five-node construction-shaped net down to three nodes.

    Requires node order (lam, x0, y0, x, y) with parent sets contained in
    the construction shape, and the x table independent of y0 within
    ``atol`` (raises :class:`NotReducibleError` otherwise). The output
    net is (lam, X, Y) with X = (x, x0) and Y = (y, y0); its joint
    amplitude equals the input's entrywise after regrouping the state
    indices.
    """
    _require_tolerance("atol", atol)
    dag = net.dag
    if dag.node_count != 5:
        raise ValueError("expected a five-node construction-shaped net")
    for j in range(5):
        extra = set(dag.parents(j)) - set(range(j))
        if extra:
            raise ValueError(
                f"node {dag.name(j)} has parents outside the construction shape"
            )
    cl, cx0, cy0, cx, cy = dag.cardinalities

    a_lam = net.tpms[0].table
    a_x0 = _expand_table(net, 1, (0,))  # (cx0, cl)
    a_y0 = _expand_table(net, 2, (1, 0))  # (cy0, cx0, cl)
    x_tab = _expand_table(net, 3, (1, 2, 0))  # (cx, cx0, cy0, cl)
    a_y = _expand_table(net, 4, (3, 1, 2, 0))  # (cy, cx, cx0, cy0, cl)

    spread = float(np.max(np.abs(x_tab - x_tab[:, :, :1, :]))) if cy0 > 1 else 0.0
    if 2 in dag.parents(3) and spread > atol:
        raise NotReducibleError(
            f"x table varies with y0 by {spread:.3g}; the composite-node "
            f"reduction requires independence within {atol:.3g}"
        )
    a_x = x_tab[:, :, 0, :]  # (cx, cx0, cl)

    lam_name = dag.name(0)
    x_name, x0_name = dag.name(3), dag.name(1)
    y_name, y0_name = dag.name(4), dag.name(2)
    big_x = f"{x_name}+{x0_name}"
    big_y = f"{y_name}+{y0_name}"

    # X table: A(x|x0,lam) A(x0|lam) at composite state x*cx0 + x0.
    x_table = (a_x * a_x0[None, :, :]).reshape(cx * cx0, cl)
    # Y table: A(y|x,x0,y0,lam) A(y0|x0,lam) at composite y*cy0 + y0,
    # conditioned on composite X and lam.
    y_table = (
        a_y.transpose(0, 3, 1, 2, 4) * a_y0[None, :, None, :, :]
    ).reshape(cy * cy0, cx * cx0, cl)

    out_dag = Dag(
        nodes=[(lam_name, cl), (big_x, cx * cx0), (big_y, cy * cy0)],
        edges=[(0, 1), (1, 2), (0, 2)],
    )
    tpms = [
        node_tpm(0, (), a_lam),
        node_tpm(1, (0,), x_table),
        node_tpm(2, (1, 0), y_table),
    ]
    return QBNet(out_dag, tpms)


def regrouped_reduced_tensor(reduced: QBNet, cards: tuple[int, int, int, int, int]) -> np.ndarray:
    """Joint tensor of a reduced net rearranged onto five-node axes.

    ``cards`` are the (lam, x0, y0, x, y) cardinalities of the net that
    was reduced. Returns the reduced net's joint amplitude as an array
    over those five axes, in that order, for entrywise comparison with
    the original net's joint tensor.
    """
    from .network import amplitude_tensor

    cl, cx0, cy0, cx, cy = cards
    if reduced.dag.cardinalities != (cl, cx * cx0, cy * cy0):
        raise ValueError("cards do not match the reduced net's shape")
    amp = amplitude_tensor(reduced)
    data = amp.data.reshape(cl, cx, cx0, cy, cy0)
    return data.transpose(0, 2, 4, 1, 3)
