"""Message passing on a bipartite net (factor graph with amplitude tables).

Roots exchange ket messages with factor leaves. The literal synchronous
iterations (``bipartite_iterate``) freeze after diameter-many rounds;
``run_bipartite`` reaches the same fixed point by sending each message
once, in one collect and one distribute sweep over the tree skeleton.
Its beliefs match exact inference on the equivalent qbnet in which every
factor is an observed binary node.
"""

import numpy as np

from qbnets import (
    FactorGraphNet,
    bipartite_iterate,
    factor_graph_to_qbnet,
    init_messages,
    posterior_oracle,
    run_bipartite,
)

net = FactorGraphNet(
    roots=[("u", 2), ("v", 2), ("w", 3)],
    factors=[
        ("pair", (0, 1), np.array([[1.0, 0.3j], [0.5, 1.0]])),
        ("triple", (1, 2), np.array([[1.0, 0.2, 0.1], [0.4j, 1.0, 0.9]])),
        ("bias", (0,), np.array([1.0, 0.6])),
    ],
)

state = init_messages(net)
for sweep in range(6):
    new = bipartite_iterate(net, state)
    gap = max(
        float(np.max(np.abs(new.to_root[k].data - state.to_root[k].data)))
        if new.to_root[k].labels == state.to_root[k].labels
        else np.inf
        for k in new.to_root
    )
    state = new
    print(f"sweep {sweep + 1}: max message change {gap:.3e}")

beliefs = run_bipartite(net)
qb, evidence = factor_graph_to_qbnet(net)
print("\nroot beliefs vs the equivalent-net oracle:")
for i, rb in beliefs.roots.items():
    oracle = posterior_oracle(qb, [i], evidence)
    print(f"  {net.roots[i][0]}: {np.round(rb.table, 6)}  |  {np.round(oracle, 6)}")

print("\nfactor-neighborhood belief for 'pair':")
print(np.round(beliefs.factors[0].table, 6))
