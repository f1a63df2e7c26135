"""Squashed entanglement over block-diagonal extensions.

The quantity minimized is half the conditional mutual information of an
extension {P(lam), rho^lam} that assembles back to the given two-party
state. The search space is parametrized through a purification
psi[x, y, e] of rank r: every ensemble decomposition with at most n
members arises from a rank-one n-outcome measurement on the purifying
system, that is from an n-by-r isometry V, with unnormalized members
phi_l = sum_e psi[:, :, e] V[l, e]. Members are pure, so half the CMI is
f(V) = sum_l p_l S(M_l / p_l), with M_l the x-marginal of phi_l and
p_l = Tr M_l. One eigendecomposition of the stack of M_l gives f and its
Euclidean gradient G[l, e] = Tr(psi_e^dag K_l phi_l), K_l = -ln(M_l / p_l).
V descends along the gradient projected onto the Stiefel tangent space,
retracted by a phase-fixed QR, with Barzilai-Borwein steps and Armijo
backtracking (Abrudan, Eriksson & Koivunen, IEEE TSP 56:1134, 2008).
A restart stops when its budget is spent, its value reaches EARLY_STOP,
an accepted step gains under 1e-15 or the tangent gradient vanishes.

The trivial single-member extension (the state itself) is always
feasible and is always scored first, so the reported value can never
exceed half the mutual information. For a pure input every extension
has identical components, so the trivial answer is already exact and no
search is run.

The minimization is heuristic, and the value bounds two quantities from
above. The C-squashed entanglement is the infimum of half the CMI over
extensions with a classical lam, such as the ones searched here; the
squashed entanglement E_sq takes the infimum over every quantum
extension, so E_sq <= C-squashed <= value. The witness extension
achieves the value. Since every searched member is pure, a searched
extension scores at least the entanglement of formation, so the value
never falls below min(I / 2, E_F), and the search's optimum is that floor.
Each restart logs one INFO line to the ``qbnets.squashed`` logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .qinfo import DensityMatrix, DiagonalExtension, _check_spectrum, cmi_diagonal

RANK_TOL = 1e-12
WEIGHT_TOL = 1e-12
EARLY_STOP = 1e-12
EIG_FLOOR = 1e-300  # clip for ln; the sqrt(lam) ln(lam) terms it touches vanish

_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class EsqResult:
    value: float
    witness: DiagonalExtension
    restart: int  # -1 when the trivial extension won
    evaluations: int


def _purification(rho: DensityMatrix) -> np.ndarray:
    """Return psi[x, y, e] with sum_e of |psi><psi| giving back rho."""
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > RANK_TOL
    return (v[:, keep] * np.sqrt(w[keep])).reshape(rho.dims + (-1,))


def _members(psi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unnormalized members phi[lam, x, y] = sum_e psi[x, y, e] v[lam, e]."""
    return (v @ psi.reshape(-1, psi.shape[2]).T).reshape((-1,) + psi.shape[:2])


def _value_grad(psi: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """f(V) = sum_l p_l S(M_l / p_l) and its Euclidean gradient G, with
    df = 2 Re Tr(G^dag dV)."""
    phi = _members(psi, v)
    w, u = np.linalg.eigh(phi @ phi.conj().swapaxes(1, 2))
    _check_spectrum(w)
    w = np.maximum(w, EIG_FLOOR)
    log_ratio = np.log(w) - np.log(w.sum(axis=1))[:, None]
    k_phi = u @ (-log_ratio[:, :, None] * (u.conj().swapaxes(1, 2) @ phi))
    grad = k_phi.reshape(len(v), -1) @ psi.reshape(-1, psi.shape[2]).conj()
    return float(-(w * log_ratio).sum()), grad


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection of g onto the Stiefel tangent space at v."""
    vg = v.conj().T @ g
    return g - v @ (0.5 * (vg + vg.conj().T))


def _retract(a: np.ndarray) -> np.ndarray:
    """Q factor of a, with its phases fixed so that R has a positive diagonal."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _descend(psi: np.ndarray, v: np.ndarray, budget: int):
    """Riemannian gradient descent on the isometry; every value-and-gradient
    call is one evaluation of the budget."""
    value, g = _value_grad(psi, v)
    xi, used, step = _tangent(v, g), 1, 1.0
    while used < budget and value > EARLY_STOP:
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


def _witness_from(rho: DensityMatrix, phi: np.ndarray) -> DiagonalExtension:
    p = (np.abs(phi) ** 2).sum(axis=(1, 2))
    live = p > WEIGHT_TOL
    vecs = phi[live].reshape(int(live.sum()), -1) / np.sqrt(p[live])[:, None]
    components = [DensityMatrix(rho.labels, np.outer(x, x.conj())) for x in vecs]
    return DiagonalExtension(p[live] / p[live].sum(), components)


def squashed_entanglement(
    rho: DensityMatrix,
    lam_card: int | None = None,
    restarts: int = 16,
    budget: int = 2000,
    seed: int = 0,
) -> EsqResult:
    """Heuristically minimize half the extension CMI of a two-party state.

    Parameters
    ----------
    rho : DensityMatrix over exactly two labels
    lam_card : number of extension members; defaults to rank(rho) squared
    restarts : restart 0 starts at the identity isometry (the eigenbasis
        ensemble); later restarts start from Haar-random isometries
    budget : value or value-and-gradient evaluations per restart
    seed : master seed; restart r draws from ``default_rng([seed, r])``

    Returns
    -------
    EsqResult
        ``value`` is half the CMI of ``witness`` (recomputed exactly);
        the witness always assembles back to ``rho``. It is an upper
        bound, E_sq <= C-squashed entanglement <= ``value``, with no
        certificate of how close it is to either.
    """
    if len(rho.labels) != 2:
        raise ValueError("squashed entanglement needs exactly two label groups")

    trivial = DiagonalExtension(np.ones(1), (rho,))
    best_value, best_witness, best_restart = 0.5 * cmi_diagonal(trivial), trivial, -1
    evaluations = 0
    psi = _purification(rho)
    rank = psi.shape[2]
    if rank == 1:
        # Pure state: every feasible extension repeats the state itself,
        # so the trivial extension already attains the minimum.
        return EsqResult(best_value, best_witness, -1, 0)

    n = int(lam_card) if lam_card is not None else rank * rank
    if n < rank:
        raise ValueError(f"lam cardinality {n} cannot resolve a rank-{rank} purifier")

    for r in range(restarts):
        if best_value <= EARLY_STOP:
            break
        v0 = np.eye(n, rank, dtype=complex)
        if r > 0:
            gauss = np.random.default_rng([seed, r]).normal(size=(2, n, rank))
            v0 = _retract(gauss[0] + 1j * gauss[1])
        value, v, used = _descend(psi, v0, budget)
        evaluations += used
        _log.info("squashed restart %d: value %.6g, %d evaluations", r, value, used)
        if value < best_value - 1e-15:
            best_witness = _witness_from(rho, _members(psi, v))
            best_value = 0.5 * cmi_diagonal(best_witness)
            best_restart = r
    return EsqResult(best_value, best_witness, best_restart, evaluations)


def assembly_error(rho: DensityMatrix, ext: DiagonalExtension) -> float:
    """Largest entrywise deviation of the assembled extension from rho."""
    acc = np.zeros_like(rho.matrix)
    for p, comp in zip(ext.weights, ext.components):
        acc = acc + p * comp.matrix
    return float(np.max(np.abs(acc - rho.matrix)))
