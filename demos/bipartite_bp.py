"""Message passing on a bipartite net (factor graph with amplitude tables).

The literal synchronous iterations (``bipartite_iterate``) exchange ket
messages between roots and factor leaves and freeze after
diameter-many rounds; the change printed per sweep is the largest move
of any message in either direction, each folded onto its root.
``run_bipartite`` is the polytree driver run on the equivalent qbnet, in
which every factor is an observed binary node: it sends each message
once, as a lambda/pi vector over its root, and its beliefs match exact
inference on that net.
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
from qbnets.amplitudes import fold


def message_change(new, old):
    """The largest entry-wise move between two generations, over the
    factor-to-root and the root-to-factor messages, each folded onto its root."""
    boxes = ((new.to_root, old.to_root), (new.to_factor, old.to_factor))
    return max(
        float(np.max(np.abs(fold(mine[key], key[1]).data - fold(theirs[key], key[1]).data)))
        for mine, theirs in boxes
        for key in mine
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
    print(f"sweep {sweep + 1}: max message change {message_change(new, state):.3e}")
    state = new

beliefs = run_bipartite(net)
qb, evidence = factor_graph_to_qbnet(net)
print("\nroot beliefs vs the equivalent-net oracle:")
for i, rb in beliefs.roots.items():
    oracle = posterior_oracle(qb, [i], evidence)
    print(f"  {net.roots[i][0]}: {np.round(rb.table, 6)}  |  {np.round(oracle, 6)}")

print("\nfactor-neighborhood belief for 'pair':")
print(np.round(beliefs.factors[0].table, 6))
