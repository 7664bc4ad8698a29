"""Per-behavior bipartite graph operators.

Each behavior's interaction set becomes a symmetric-normalized adjacency over
the stacked (users + items) node set, with edge weight 1/sqrt(deg_u * deg_i).
Propagation multiplies the stacked embedding matrix by that operator L times
and averages the layer outputs uniformly; since the operator is symmetric,
the exact adjoint (needed by the hand-written gradient engine) is the same
averaged polynomial applied to the cotangent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .data import InteractionDataset


@dataclass(frozen=True)
class BehaviorGraph:
    num_users: int
    num_items: int
    adjacency: sp.csr_matrix  # (U+I) x (U+I), symmetric, normalized

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items


class BehaviorEmbeddings(NamedTuple):
    P: np.ndarray  # |U| x d user embeddings
    Q: np.ndarray  # |I| x d item embeddings


def build_graph(ds: InteractionDataset, behavior: str) -> BehaviorGraph:
    """Build the normalized adjacency for one behavior.

    Zero-degree nodes simply have no incident entries (1/sqrt(0) never
    occurs).  Edges are sorted by (row, col) so sparse products accumulate
    in a deterministic order.
    """
    if behavior not in ds.manifest.behaviors:
        raise KeyError(f"behavior {behavior!r} not declared in manifest")
    n_u, n_i = ds.manifest.num_users, ds.manifest.num_items
    indptr, items = ds.user_items(behavior)
    deg_u = np.diff(indptr)
    deg_i = np.bincount(items, minlength=n_i)
    weights = 1.0 / np.sqrt(np.repeat(deg_u, deg_u) * deg_i[items])
    rating = sp.csr_matrix((weights, items, indptr), shape=(n_u, n_i))
    adj = sp.bmat([[None, rating], [rating.T, None]], format="csr")
    adj.sort_indices()
    return BehaviorGraph(num_users=n_u, num_items=n_i, adjacency=adj)


def propagate(
    g: BehaviorGraph, user_emb: np.ndarray, item_emb: np.ndarray, num_layers: int
) -> BehaviorEmbeddings:
    """Average the 0..L hop propagations of the stacked base embeddings.

    With L = 0 the output equals the input.  A fully isolated node keeps
    only its layer-0 term, so its output is base / (L + 1).
    """
    if num_layers < 0:
        raise ValueError("layer count must be >= 0")
    if user_emb.shape[0] != g.num_users or item_emb.shape[0] != g.num_items:
        raise ValueError(
            f"embedding shapes {user_emb.shape}/{item_emb.shape} do not match "
            f"graph with {g.num_users} users / {g.num_items} items"
        )
    if user_emb.shape[1] != item_emb.shape[1]:
        raise ValueError("user and item embedding dimensions differ")
    out = cur = np.vstack([user_emb, item_emb]).astype(np.float64, copy=False)
    for _ in range(num_layers):  # each product is taken before ``out`` is added to
        cur = g.adjacency @ cur
        out += cur
    out /= num_layers + 1
    return BehaviorEmbeddings(out[: g.num_users], out[g.num_users :])


# The exact vector-Jacobian product of `propagate`: the operator
# (1/(L+1)) * sum_l A^l is symmetric because the normalized adjacency is, so
# the adjoint maps the (d_P, d_Q) cotangent through the same polynomial.
propagate_adjoint = propagate
