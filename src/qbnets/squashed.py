"""Squashed entanglement over block-diagonal extensions.

The quantity minimized is half the conditional mutual information of an
extension {P(lam), rho^lam} that assembles back to the given two-party
state. The search space is parametrized through a purification: every
ensemble decomposition with at most n members arises from a rank-one
n-outcome measurement on the purifying system, and every such
measurement comes from the first columns of an n-by-n unitary. The
unitary is driven by a Hermitian generator whose real parameters are
optimized by restarted coordinate descent. Each objective evaluation
measures all members' marginal entropies in one call of the batched
entropy kernel of :mod:`qbnets.qinfo`.

The trivial single-member extension (the state itself) is always
feasible and is always scored first, so the reported value can never
exceed half the mutual information. For a pure input every extension
has identical components, so the trivial answer is already exact and no
search is run. The minimization is heuristic: the result is a certified
upper bound on the true minimum, together with the witness extension
that achieves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qinfo import DensityMatrix, DiagonalExtension, _spectral_entropy, cmi_diagonal

RANK_TOL = 1e-12
WEIGHT_TOL = 1e-12
EARLY_STOP = 1e-12


@dataclass(frozen=True, eq=False)
class EsqResult:
    value: float
    witness: DiagonalExtension
    restart: int  # -1 when the trivial extension won
    evaluations: int


def _purification(rho: DensityMatrix) -> tuple[np.ndarray, int]:
    """Return psi[x, y, e] with sum_e of |psi><psi| giving back rho."""
    (x_name, dx), (y_name, dy) = rho.labels
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > RANK_TOL
    w, v = w[keep], v[:, keep]
    rank = int(w.size)
    psi = (v * np.sqrt(w)[None, :]).reshape(dx, dy, rank)
    return psi, rank


def _hermitian_from(theta: np.ndarray, n: int) -> np.ndarray:
    m = theta.reshape(n, n)
    return 0.5 * (m + m.T) + 0.5j * (m - m.T)


def _unitary_from(theta: np.ndarray, n: int) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitian_from(theta, n))
    return (v * np.exp(1j * w)[None, :]) @ v.conj().T


def _ensemble(psi: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized members phi[lam, x, y] and their weights."""
    rank = psi.shape[2]
    phi = np.einsum("xye,le->lxy", psi, u[:, :rank])
    p = (np.abs(phi) ** 2).sum(axis=(1, 2))
    return phi, p


def _avg_member_entropy(phi: np.ndarray, p: np.ndarray) -> float:
    """Sum of p(lam) times the x-marginal entropy of each pure member."""
    live = p > WEIGHT_TOL
    if not live.any():
        return 0.0
    phi = phi[live]
    pw = p[live]
    rho_x = np.einsum("lxy,lzy->lxz", phi, phi.conj()) / pw[:, None, None]
    return float((pw * _spectral_entropy(rho_x)).sum())


def _coordinate_descent(objective, theta: np.ndarray, budget: int):
    """Greedy per-coordinate search with a shrinking step."""
    current = objective(theta)
    used = 1
    step = np.pi / 4
    while used < budget and step > 1e-6 and current > EARLY_STOP:
        improved = False
        for k in range(theta.size):
            if used >= budget:
                break
            for sign in (1.0, -1.0):
                trial = theta.copy()
                trial[k] += sign * step
                value = objective(trial)
                used += 1
                if value < current - 1e-14:
                    theta, current = trial, value
                    improved = True
                    break
                if used >= budget:
                    break
        if not improved:
            step *= 0.5
    return current, theta, used


def _witness_from(rho: DensityMatrix, phi: np.ndarray, p: np.ndarray) -> DiagonalExtension:
    live = p > WEIGHT_TOL
    weights = p[live]
    weights = weights / weights.sum()
    components = []
    for member in phi[live]:
        vec = member.reshape(-1)
        mat = np.outer(vec, vec.conj())
        mat = mat / np.trace(mat).real
        components.append(DensityMatrix(rho.labels, mat))
    return DiagonalExtension(weights, components)


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
    restarts : restart 0 starts at the identity unitary (the eigenbasis
        ensemble); later restarts start from random generators
    budget : objective evaluations per restart
    seed : master seed; restart r draws from ``default_rng([seed, r])``

    Returns
    -------
    EsqResult
        ``value`` is half the CMI of ``witness`` (recomputed exactly);
        the witness always assembles back to ``rho``.
    """
    if len(rho.labels) != 2:
        raise ValueError("squashed entanglement needs exactly two label groups")

    trivial = DiagonalExtension(np.ones(1), (rho,))
    best_value = 0.5 * cmi_diagonal(trivial)
    best_witness = trivial
    best_restart = -1
    evaluations = 0

    psi, rank = _purification(rho)
    if rank == 1:
        # Pure state: every feasible extension repeats the state itself,
        # so the trivial extension already attains the minimum.
        return EsqResult(best_value, best_witness, -1, 0)

    n = int(lam_card) if lam_card is not None else rank * rank
    if n < rank:
        raise ValueError(
            f"lam cardinality {n} cannot resolve a rank-{rank} purifier"
        )

    def objective(theta: np.ndarray) -> float:
        phi, p = _ensemble(psi, _unitary_from(theta, n))
        # members are pure, so S(x) = S(y) and the component terms double
        return 2.0 * _avg_member_entropy(phi, p)

    for r in range(restarts):
        if best_value <= EARLY_STOP:
            break
        rng = np.random.default_rng([seed, r])
        theta0 = np.zeros(n * n) if r == 0 else rng.normal(size=n * n)
        value, theta, used = _coordinate_descent(objective, theta0, budget)
        evaluations += used
        if 0.5 * value < best_value - 1e-15:
            phi, p = _ensemble(psi, _unitary_from(theta, n))
            best_witness = _witness_from(rho, phi, p)
            best_value = 0.5 * cmi_diagonal(best_witness)
            best_restart = r

    return EsqResult(best_value, best_witness, best_restart, evaluations)


def assembly_error(rho: DensityMatrix, ext: DiagonalExtension) -> float:
    """Largest entrywise deviation of the assembled extension from rho."""
    acc = np.zeros_like(rho.matrix)
    for p, comp in zip(ext.weights, ext.components):
        acc = acc + p * comp.matrix
    return float(np.max(np.abs(acc - rho.matrix)))
