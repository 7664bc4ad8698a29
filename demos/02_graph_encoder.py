"""The per-behavior graph encoder and its exact adjoint.

Each behavior's interactions become a symmetric-normalized bipartite
adjacency; propagation averages the 0..L hop spreads of the base embedding
tables.  The adjoint is what the gradient engine uses to pull loss gradients
back from behavior-specific embeddings onto the shared base tables.
"""

import numpy as np

from mbrobust import build_graph, propagate, propagate_adjoint
from mbrobust.synthetic import planted_dataset

ds = planted_dataset(seed=0, num_users=8, num_items=8, num_groups=2,
                     target_per_user=4, aux_per_user=3)
g = build_graph(ds, "buy")
print("nodes:", g.num_nodes, " edges (directed):", g.adjacency.nnz)
print("weights are 1/sqrt(deg_u * deg_i); row sums stay <= 1:")
print(np.round(np.asarray(g.adjacency.sum(axis=1)).ravel(), 3))

rng = np.random.default_rng(0)
Zu = rng.normal(0, 0.1, (8, 4))
Zi = rng.normal(0, 0.1, (8, 4))

# --- propagation smooths embeddings over the interaction graph ---------------
out0 = propagate(g, Zu, Zi, num_layers=0)   # L = 0 is the identity
out2 = propagate(g, Zu, Zi, num_layers=2)
print("\nL=0 returns the inputs exactly:", np.array_equal(out0.P, Zu))
print("L=2 user row 0 before:", np.round(Zu[0], 3))
print("L=2 user row 0 after :", np.round(out2.P[0], 3))

# --- the adjoint identity <y, Mx> == <M*y, x> --------------------------------
# M is symmetric, so its adjoint is M itself: the same function
print("\npropagate_adjoint is propagate:", propagate_adjoint is propagate)
dP = rng.normal(size=(8, 4))
dQ = rng.normal(size=(8, 4))
du, di = propagate_adjoint(g, dP, dQ, num_layers=2)
forward = np.sum(dP * out2.P) + np.sum(dQ * out2.Q)
backward = np.sum(du * Zu) + np.sum(di * Zi)
print(f"\nforward  <y, Mx> = {forward:+.15f}")
print(f"backward <M*y,x> = {backward:+.15f}")
print(f"difference       = {abs(forward - backward):.2e}")
