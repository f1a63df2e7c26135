"""Quantum belief propagation on a polytree, against the exact oracle.

Each message is Pearl's lambda or pi vector on the squared tables: one
real entry per state of its edge variable, summing to one. It stands for
the paper's ket message folded onto that variable, which drops the
hidden axes of the sending subtree without changing any belief. Two
sweeps reach the exact fixed point, and each node's belief, BEL =
lambda * pi on the same squared tables, reproduces the brute-force
posterior.
"""

import numpy as np

from qbnets import posterior_oracle, propagate_polytree
from qbnets.sampling import random_evidence, random_polytree_dag, random_qbnet

rng = np.random.default_rng(2024)
dag = random_polytree_dag(rng, 8, max_card=3)
net = random_qbnet(dag, rng)
evidence = random_evidence(dag, rng)

print("graph:", dag)
print("evidence:", {dag.name(k): v for k, v in evidence.items()})
print()

beliefs = propagate_polytree(net, evidence)
print(f"{'node':>6} {'message passing':>34} {'oracle':>34}")
for node in range(dag.node_count):
    if node in evidence:
        continue
    bp = beliefs[node].table
    oracle = posterior_oracle(net, [node], evidence)
    bp_s = np.array2string(bp, precision=6)
    or_s = np.array2string(oracle, precision=6)
    print(f"{dag.name(node):>6} {bp_s:>34} {or_s:>34}")

worst = max(
    float(np.max(np.abs(beliefs[n].table - posterior_oracle(net, [n], evidence))))
    for n in range(dag.node_count)
    if n not in evidence
)
print(f"\nmax deviation: {worst:.2e}")
