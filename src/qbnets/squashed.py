"""Squashed entanglement over block-diagonal extensions.

The quantity minimized is half the conditional mutual information of an
extension {P(lam), rho^lam} that assembles back to the given two-party
state. The search space is parametrized through a purification
psi[x, y, e] of rank r: every ensemble decomposition with at most n
members arises from a rank-one n-outcome measurement on the purifying
system, that is from an n-by-r isometry V, with unnormalized members
phi_l = sum_e psi[:, :, e] V[l, e]. Members are pure, so half the CMI is
f(V) = sum_l p_l S(M_l / p_l), with M_l the marginal of phi_l on its
smaller side (pure members have S(x) = S(y)) and p_l = Tr M_l. The
spectra of the stack of M_l give f and its Euclidean gradient
G[l, e] = Tr(psi_e^dag K_l phi_l), K_l = -ln(M_l / p_l). On a side of 2
each spectrum comes from the closed 2 x 2 formula, and K_l = alpha_l I +
beta_l M_l with alpha_l + beta_l lam = -ln(lam / p_l) at both eigenvalues
(the tangent line at a tie); other sides take one eigendecomposition of
the stack.
V descends on the Stiefel manifold (Abrudan, Eriksson & Koivunen, IEEE
TSP 56:1134, 2008) by Riemannian L-BFGS (Huang, Gallivan & Absil, SIAM
J. Optim. 25:1660, 2015). The direction is the two-loop recursion applied
to the tangent gradient (G projected onto the tangent space) over the
last _MEMORY pairs of steps and gradient changes, which are kept as
plain ambient arrays without vector transport; it is projected onto the
tangent space again. Where it does not descend, the tangent gradient
replaces it and the memory is cleared. Each step is retracted by a
phase-fixed QR and halved from length 1 until Armijo's condition holds.
A restart stops when its budget is spent, an accepted value is within
EARLY_STOP of 0 (of F on a 2 x 2 state, below), an accepted step gains
under 1e-15 or the tangent gradient vanishes. It also stops, as
converged, when a line search has halved its step below
_MIN_STEP = 2^-52 without meeting Armijo's condition: the trial then moves
the isometry by under one unit roundoff of the quasi-Newton step, so
further halvings only re-read the same point (the six reference states
of the ``esq`` benchmark workload need at most 11 halvings).
The evaluation count is fixed for a given code but follows roundoff: an
arithmetic rewrite that is exact in real numbers can move it.

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
On a 2 x 2 state that floor F comes first, E_F from Wootters' tau matrix
of the purification (:func:`qbnets.qinfo._formation_entropy`): each
descent ends at its first accepted value within EARLY_STOP of F, and the
restarts stop once the best value is. ``EsqResult.floor`` reports F,
None on other shapes. Elsewhere a restart can end at a local minimum
above the optimum, so the value depends on the restarts run: on a rank-6
3 x 3 state both of 2 restarts stop at local minima, the better at
0.190704, against 0.190520 with 4 restarts. It remains an upper bound.
From below, E_sq is at least the coherent information
max(0, S(x) - S(xy), S(y) - S(xy)): by the hashing inequality that is
at most the one-way distillable entanglement, which is at most E_sq.
Each restart logs one INFO line to the ``qbnets.squashed`` logger, and
a stop at the two-qubit floor logs one more.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .network import _require_positive
from .qinfo import (
    DensityMatrix,
    DiagonalExtension,
    _check_spectrum,
    _density_stack,
    _entropy_on,
    _formation_entropy,
    _pair_spectrum,
    _spectral_entropy,
    cmi_diagonal,
)

RANK_TOL = 1e-12
WEIGHT_TOL = 1e-12
EARLY_STOP = 1e-12
EIG_FLOOR = 1e-300  # clip for ln; the sqrt(lam) ln(lam) terms it touches vanish
_MEMORY = 5  # (s, y) pairs kept by the L-BFGS direction
_MIN_STEP = 2.0**-52  # a line search whose step falls below this ends the restart

_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class EsqResult:
    value: float
    witness: DiagonalExtension
    restart: int  # -1 when the trivial extension won
    evaluations: int
    lower: float  # coherent information, a lower bound on E_sq
    floor: float | None  # min(I / 2, E_F) on a 2 x 2 state, the search's optimum


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
    df = 2 Re Tr(G^dag dV).

    M_l is the marginal on psi's first side, which :func:`_descend` makes
    the smaller one. A side of 2 gets each spectrum from
    :func:`_pair_spectrum` and applies K_l = -ln(M_l / p_l) as
    alpha_l I + beta_l M_l; other sides go through ``eigh``.
    """
    phi = _members(psi, v)
    gram = phi @ phi.conj().swapaxes(1, 2)
    if gram.shape[1] == 2:
        lo, hi = _pair_spectrum(gram[:, 0, 0].real, gram[:, 1, 1].real, np.abs(gram[:, 1, 0]))
        _check_spectrum(lo)
        lo, hi = np.maximum(lo, EIG_FLOOR), np.maximum(hi, EIG_FLOOR)
        log_p = np.log(lo + hi)
        log_lo, log_hi = np.log(lo) - log_p, np.log(hi) - log_p
        # beta is the divided difference of -ln(lam / p) over (lo, hi), -1 / lam
        # at a tie; a member with lo at the floor is rank one, phi has no part
        # for the ln of the floor to act on, and beta = 0 keeps that roundoff out
        gap = hi - lo
        beta = np.divide(log_lo - log_hi, gap, out=-1.0 / hi, where=gap > 0.0)
        beta[lo <= EIG_FLOOR] = 0.0
        alpha = -log_hi - beta * hi
        k_phi = alpha[:, None, None] * phi + beta[:, None, None] * (gram @ phi)
        value = -(lo * log_lo + hi * log_hi).sum()
    else:
        w, u = np.linalg.eigh(gram)
        _check_spectrum(w)
        w = np.maximum(w, EIG_FLOOR)
        log_ratio = np.log(w) - np.log(w.sum(axis=1))[:, None]
        # as beta = 0 above: phi has no part along an eigenvalue at the
        # floor, so K gets no weight there to multiply roundoff by
        k = np.where(w > EIG_FLOOR, -log_ratio, 0.0)
        k_phi = u @ (k[:, :, None] * (u.conj().swapaxes(1, 2) @ phi))
        value = -(w * log_ratio).sum()
    grad = k_phi.reshape(len(v), -1) @ psi.reshape(-1, psi.shape[2]).conj()
    return float(value), grad


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection of g onto the Stiefel tangent space at v."""
    vg = v.conj().T @ g
    return g - v @ (0.5 * (vg + vg.conj().T))


def _retract(a: np.ndarray) -> np.ndarray:
    """Q factor of a, with its phases fixed so that R has a positive diagonal."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _smaller_side_first(psi: np.ndarray) -> np.ndarray:
    """psi[x, y, e], or a contiguous psi[y, x, e] when y is the smaller side.

    Members are pure, so S(x) = S(y) and f(V) and its gradient are the same
    on either side; the smaller one has the smaller marginals."""
    if psi.shape[0] > psi.shape[1]:
        return np.ascontiguousarray(psi.swapaxes(0, 1))
    return psi


def _lbfgs_direction(v: np.ndarray, xi: np.ndarray, pairs) -> np.ndarray:
    """L-BFGS two-loop recursion (Liu & Nocedal, Math. Prog. 45:503, 1989)
    on the tangent gradient xi, projected back onto the tangent space at v.

    ``pairs`` holds (s, y, 1 / <s, y>) as plain ambient arrays, without
    vector transport; the initial scaling <s, y> / <y, y> of the newest
    pair is the Barzilai-Borwein step. With no pairs the direction is xi.
    """
    q, alphas = xi, []
    for s, y, inv_sy in reversed(pairs):
        alpha = inv_sy * float(np.vdot(s, q).real)
        q = q - alpha * y
        alphas.append(alpha)
    if pairs:
        _, y, inv_sy = pairs[-1]
        q = q / (inv_sy * float(np.vdot(y, y).real))
    for (s, y, inv_sy), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - inv_sy * float(np.vdot(y, q).real)) * s
    return _tangent(v, q)


def _descend(psi: np.ndarray, v: np.ndarray, budget: int, stop: float):
    """Riemannian L-BFGS on the isometry, ending at its first accepted
    value <= ``stop``; every value-and-gradient call is one evaluation of
    the budget."""
    psi = _smaller_side_first(psi)
    value, g = _value_grad(psi, v)
    xi, used, pairs = _tangent(v, g), 1, deque(maxlen=_MEMORY)
    while used < budget and value > stop:
        if float(np.vdot(xi, xi).real) < 1e-26:
            break
        d = _lbfgs_direction(v, xi, pairs)
        slope = float(np.vdot(xi, d).real)
        if not slope > 0.0:  # not a descent direction: restart the memory
            d, slope = xi, float(np.vdot(xi, xi).real)
            pairs.clear()
        step = 1.0
        while True:  # Armijo backtracking from the quasi-Newton step
            trial = _retract(v - step * d)
            trial_value, g = _value_grad(psi, trial)
            used += 1
            accepted = trial_value <= value - 1e-4 * step * slope
            if accepted or used >= budget or step < _MIN_STEP:
                break
            step *= 0.5
        if not accepted:
            break
        trial_xi = _tangent(trial, g)
        s, y = trial - v, trial_xi - xi
        sy = float(np.vdot(s, y).real)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        gain = value - trial_value
        v, value, xi = trial, trial_value, trial_xi
        if gain < 1e-15:
            break
    return value, v, used


def _witness_from(rho: DensityMatrix, phi: np.ndarray) -> DiagonalExtension:
    """The extension of the members with weight, validated as one stack."""
    p = (np.abs(phi) ** 2).sum(axis=(1, 2))
    live = p > WEIGHT_TOL
    vecs = phi[live].reshape(int(live.sum()), -1) / np.sqrt(p[live])[:, None]
    components = _density_stack(rho.labels, vecs[:, :, None] * vecs.conj()[:, None, :])
    return DiagonalExtension(p[live] / p[live].sum(), components)


def _coherent_information(rho: DensityMatrix) -> float:
    """max(0, S(x) - S(xy), S(y) - S(xy)), a lower bound on E_sq."""
    s_x, s_y = (_entropy_on(rho.matrix, rho.dims, (k,)) for k in (0, 1))
    return max(0.0, float(max(s_x, s_y) - _spectral_entropy(rho.matrix)))


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
    lam_card : number of extension members, a positive integer; defaults
        to rank(rho) squared
    restarts : at most this many descents, at least 1; each descent
        ends at its first value within EARLY_STOP of 0, or of ``floor``,
        and so do the restarts once the best value is; restart 0
        starts at the identity isometry (the eigenbasis ensemble); later
        restarts start from Haar-random isometries
    budget : value-and-gradient evaluations per restart, at least 1
    seed : master seed, a non-negative integer; restart r draws from
        ``default_rng([seed, r])``

    Each restart is one Riemannian L-BFGS descent on the isometry (see
    the module docstring).

    Returns
    -------
    EsqResult
        ``value`` is half the CMI of ``witness`` (recomputed exactly);
        the witness always assembles back to ``rho``. It is an upper
        bound, E_sq <= C-squashed entanglement <= ``value``, with no
        certificate of how close it is to either. ``lower`` is the
        coherent information max(0, S(x) - S(xy), S(y) - S(xy)), a lower
        bound on E_sq; on a pure state both bounds equal S(x). ``floor``
        is min(I / 2, E_F) on a 2 x 2 state, the least value any searched
        extension can reach, and None otherwise. Off 2 x 2, more restarts
        can lower the value: a descent can stop at a local minimum.
    """
    if len(rho.labels) != 2:
        raise ValueError("squashed entanglement needs exactly two label groups")
    _require_positive("restarts", restarts)
    _require_positive("budget", budget)
    _require_positive("seed", seed, least=0)
    if lam_card is not None:
        _require_positive("lam_card", lam_card)

    trivial = DiagonalExtension(np.ones(1), (rho,))
    best_value, best_witness, best_restart = 0.5 * cmi_diagonal(trivial), trivial, -1
    lower = _coherent_information(rho)
    evaluations = 0
    psi = _purification(rho)
    floor = min(best_value, _formation_entropy(psi)) if psi.shape[:2] == (2, 2) else None
    rank = psi.shape[2]
    if rank == 1:
        # Pure state: every feasible extension repeats the state itself,
        # so the trivial extension already attains the minimum.
        return EsqResult(best_value, best_witness, -1, 0, lower, floor)

    n = lam_card if lam_card is not None else rank * rank
    if n < rank:
        raise ValueError(f"lam cardinality {n} cannot resolve a rank-{rank} purifier")

    stop = EARLY_STOP if floor is None else floor + EARLY_STOP
    for r in range(restarts):
        if best_value <= stop:
            if floor is not None:
                _log.info("squashed search stopped at the two-qubit floor %.6g before restart %d", floor, r)
            break
        v0 = np.eye(n, rank, dtype=complex)
        if r > 0:
            gauss = np.random.default_rng([seed, r]).normal(size=(2, n, rank))
            v0 = _retract(gauss[0] + 1j * gauss[1])
        value, v, used = _descend(psi, v0, budget, stop)
        evaluations += used
        _log.info("squashed restart %d: value %.6g, %d evaluations", r, value, used)
        if value < best_value - 1e-15:
            best_witness = _witness_from(rho, _members(psi, v))
            best_value = 0.5 * cmi_diagonal(best_witness)
            best_restart = r
    return EsqResult(best_value, best_witness, best_restart, evaluations, lower, floor)


def assembly_error(rho: DensityMatrix, ext: DiagonalExtension) -> float:
    """Largest entrywise deviation of the assembled extension from rho."""
    acc = np.zeros_like(rho.matrix)
    for p, comp in zip(ext.weights, ext.components):
        acc = acc + p * comp.matrix
    return float(np.max(np.abs(acc - rho.matrix)))
