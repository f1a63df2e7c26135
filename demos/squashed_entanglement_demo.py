"""Squashed entanglement of two-qubit states.

Half the minimum conditional mutual information over block-diagonal
extensions, minimized by restarted Riemannian L-BFGS over the isometry
that measures a purifier (``budget`` counts value-and-gradient
evaluations per restart). The value is an upper bound,
E_sq <= C-squashed <= value. Three anchors have known answers; a
noisy Bell state shows the optimizer actually beating the trivial bound,
down to its entanglement of formation.
"""

import numpy as np

from qbnets import DensityMatrix, quantum_mutual_information, squashed_entanglement
from qbnets.sampling import random_density_matrix

rng = np.random.default_rng(17)

a = random_density_matrix((("x", 2),), rng)
b = random_density_matrix((("y", 2),), rng)
product = DensityMatrix((("x", 2), ("y", 2)), np.kron(a.matrix, b.matrix))

v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
bell = DensityMatrix((("x", 2), ("y", 2)), np.outer(v, v.conj()))

mixture = DensityMatrix((("x", 2), ("y", 2)), np.diag([0.5, 0, 0, 0.5]).astype(complex))

noisy = DensityMatrix((("x", 2), ("y", 2)), 0.7 * bell.matrix + 0.3 * np.eye(4) / 4)

for name, rho, expected in [
    ("product state", product, "0"),
    ("bell pair", bell, "ln 2 = 0.693147"),
    ("classical mixture", mixture, "0"),
    ("noisy bell", noisy, "strictly below half the mutual information"),
]:
    result = squashed_entanglement(rho, seed=1)
    half_mi = 0.5 * quantum_mutual_information(rho, "x", "y")
    print(f"{name:>18}: E = {result.value:.6f}   (half MI = {half_mi:.6f}, expected {expected})")
    print(f"{'':>18}  witness members: {result.witness.lam_cardinality}, "
          f"found at restart {result.restart}")
