"""Wootters' closed-form entanglement of formation of a two-qubit state.

Reference: W. K. Wootters, Phys. Rev. Lett. 80, 2245 (1998). The value is
the minimum, over pure-state decompositions of the state, of the average
entanglement entropy of the members, in nats. It is the optimum of the
search space ``qbnets.squashed_entanglement`` explores today.
"""

from __future__ import annotations

import numpy as np

_SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def concurrence(rho: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4) for the decreasing square roots l of the
    eigenvalues of rho times its spin flip."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit density matrix, got {rho.shape}")
    flipped = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    eig = np.linalg.eigvals(rho @ flipped)
    lam = np.sort(np.sqrt(np.clip(eig.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def entanglement_of_formation(rho: np.ndarray) -> float:
    """E_F in nats: the binary entropy of (1 + sqrt(1 - C^2)) / 2."""
    c = concurrence(rho)
    x = 0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c)))
    return float(-sum(p * np.log(p) for p in (x, 1.0 - x) if p > 0.0))
