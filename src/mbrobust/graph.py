"""Per-behavior bipartite graph operators.

Each behavior's interaction set becomes a symmetric-normalized adjacency over
the stacked (users + items) node set, with edge weight 1/sqrt(deg_u * deg_i).
Propagation multiplies the stacked embedding matrix by that operator L times
and averages the layer outputs uniformly; since the operator is symmetric,
the exact adjoint (needed by the hand-written gradient engine) is the same
averaged polynomial applied to the cotangent.

A training step reuses one `Workspace` for every table it computes, so the
step allocates nothing of the tables' size once the workspace is warm.  The
last layer of a propagation is streamed: its product is formed a block of
rows at a time (`row_blocks`) and added to the result at once, so no table
holds it, and a propagation of L <= 2 layers needs at most one table beside
its result.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .data import InteractionDataset


@dataclass(frozen=True)
class BehaviorGraph:
    num_users: int
    num_items: int
    adjacency: sp.csr_matrix  # (U+I) x (U+I), symmetric, normalized

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items


# the workspace buffers any function may use between its own calls: tables,
# and buffers of one row block (`row_blocks`)
SCRATCH = (("scratch", 0), ("scratch", 1))
BLOCK_SCRATCH = (("block", 0), ("block", 1))
# the workspace buffer `propagate` writes its result to
PROPAGATED = "propagated"
# rows per block of a streamed table pass (the last propagation layer, Adam's
# update): a block buffer is 256 KiB at d = 64
BLOCK_ROWS = 512


class Workspace:
    """Named float64 buffers that a caller creates once and reuses.

    ``get(name, shape)`` returns a C-contiguous float64 array of ``shape``:
    a view of the front of the buffer called ``name``, which is allocated on
    the first request and grows only when a request needs more room.  Its
    contents are whatever the last user of that name left there, so an array
    from ``get`` is valid until the next request for the same name.

    The `SCRATCH` and `BLOCK_SCRATCH` names are shared: a function may use
    them for what it computes, but holds nothing in them across a call that
    takes the workspace.  A training step holds three table-sized buffers:
    the fused tables, `PROPAGATED` and ``SCRATCH[0]`` (``SCRATCH[1]`` only
    from three propagation layers on); its streamed passes use the two
    `BLOCK_SCRATCH` buffers of one row block.  Ranking
    (`evaluation.held_out_rank`) borrows the tables that fusion leaves idle,
    `PROPAGATED` and ``SCRATCH[0]``, and ``BLOCK_SCRATCH[0]``, through float32
    and bool views of their bytes, so validation adds no buffer.
    """

    def __init__(self):
        self._buffers: dict[Hashable, np.ndarray] = {}

    def get(self, name: Hashable, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


class BehaviorEmbeddings(NamedTuple):
    P: np.ndarray  # |U| x d user embeddings
    Q: np.ndarray  # |I| x d item embeddings


def build_graph(ds: InteractionDataset, behavior: str) -> BehaviorGraph:
    """Build the normalized adjacency for one behavior.

    Zero-degree nodes simply have no incident entries (1/sqrt(0) never
    occurs).  Edges are sorted by (row, col) so sparse products accumulate
    in a deterministic order: the user rows are the behavior's CSR rows
    (`InteractionDataset.user_items`, items ascending) and the item rows
    their transpose, so no sort runs.
    """
    if behavior not in ds.manifest.behaviors:
        raise KeyError(f"behavior {behavior!r} not declared in manifest")
    n_u, n_i = ds.manifest.num_users, ds.manifest.num_items
    indptr, items = ds.user_items(behavior)
    deg_u = np.diff(indptr)
    deg_i = np.bincount(items, minlength=n_i)
    weights = 1.0 / np.sqrt(np.repeat(deg_u, deg_u) * deg_i[items])
    rating = sp.csr_matrix((weights, items, indptr), shape=(n_u, n_i))
    # the item rows are the rating's columns, each with its users ascending
    by_item = rating.tocsc()
    adj = sp.csr_matrix(
        (np.concatenate([rating.data, by_item.data]),
         np.concatenate([rating.indices + n_u, by_item.indices]),
         np.concatenate([rating.indptr, rating.nnz + by_item.indptr[1:]])),
        shape=(n_u + n_i, n_u + n_i),
    )
    return BehaviorGraph(num_users=n_u, num_items=n_i, adjacency=adj)


def row_blocks(num_rows: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` bounds of consecutive blocks of `BLOCK_ROWS` rows (the
    last one shorter) that cover ``num_rows`` rows."""
    return [(lo, min(lo + BLOCK_ROWS, num_rows)) for lo in range(0, num_rows, BLOCK_ROWS)]


def _spmm_into(
    a: sp.spmatrix, x: np.ndarray, out: np.ndarray, rows: tuple[int, int] | None = None
) -> np.ndarray:
    """``a @ x``, or its rows ``lo:hi`` when ``rows`` is ``(lo, hi)``,
    written into ``out`` and returned, bit for bit.

    ``a @ x`` zeroes a fresh result and runs scipy's ``csr_matvecs`` or
    ``csc_matvecs`` kernel into it; this runs the same kernel into the
    caller's buffer, so a loop of products allocates nothing.  A row range
    passes the kernel ``indptr[lo:hi+1]`` with the whole ``indices`` and
    ``data``: the offsets are absolute, and each row is accumulated as in the
    whole product.  The kernel reads and writes through raw pointers without
    bounds checks, so ``a`` must be an M×N float64 CSR or CSC matrix (CSR for
    a row range, ``0 <= lo <= hi <= M``), ``x`` a C-contiguous float64 (N, d)
    array and ``out`` a writeable C-contiguous float64 (hi − lo, d) array
    that does not overlap ``x``; otherwise `ValueError` is raised and nothing
    is written.
    """
    m, n = a.shape
    if a.format not in ("csr", "csc") or a.dtype != np.float64:
        raise ValueError(f"need a float64 CSR or CSC matrix, got {a.dtype} {a.format}")
    lo, hi = (0, m) if rows is None else rows
    if (lo, hi) != (0, m) and (a.format != "csr" or not 0 <= lo <= hi <= m):
        raise ValueError(f"rows {lo}:{hi} need a CSR matrix and 0 <= lo <= hi <= {m}")
    for name, arr, count in (("x", x, n), ("out", out, hi - lo)):
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                and arr.ndim == 2 and arr.shape[0] == count and arr.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous float64 array with {count} rows")
    if x.shape[1] != out.shape[1]:
        raise ValueError(f"x has {x.shape[1]} columns but out has {out.shape[1]}")
    if not out.flags.writeable or np.may_share_memory(x, out):
        raise ValueError("out must be writeable and must not overlap x")
    out.fill(0.0)
    # a CSC product takes every column's offsets; a CSR one, its rows' only
    indptr = a.indptr[lo : hi + 1] if a.format == "csr" else a.indptr
    kernel = getattr(_sparsetools, a.format + "_matvecs")
    kernel(hi - lo, n, x.shape[1], indptr, a.indices, a.data, x.ravel(), out.ravel())
    return out


def propagate(
    g: BehaviorGraph,
    user_emb: np.ndarray,
    item_emb: np.ndarray,
    num_layers: int,
    *,
    workspace: Workspace | None = None,
) -> BehaviorEmbeddings:
    """Average the 0..L hop propagations of the stacked base embeddings.

    With L = 0 the output equals the input.  A fully isolated node keeps
    only its layer-0 term, so its output is base / (L + 1).

    The result and the layer products are written to ``workspace``'s
    buffers (a fresh workspace when None): ``P`` and ``Q`` are views of its
    (U+I)×d `PROPAGATED` buffer, valid until the workspace's next use.
    Inputs that are views of that buffer's own user and item rows are used
    where they are, so a caller can build its input there without a copy.
    Every layer but the last alternates the `SCRATCH` tables; the last is
    formed a row block at a time (`row_blocks`) and each block is added to
    the result as soon as it is formed, with the same additions in the same
    order as a whole-table product.
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
    ws = Workspace() if workspace is None else workspace
    shape = (g.num_nodes, user_emb.shape[1])
    out = cur = ws.get(PROPAGATED, shape)
    out[: g.num_users] = user_emb  # numpy skips a copy of a view onto itself
    out[g.num_users :] = item_emb
    for k in range(num_layers - 1):  # each product is taken before ``out`` is added to
        cur = _spmm_into(g.adjacency, cur, ws.get(SCRATCH[k % 2], shape))
        out += cur
    if num_layers == 1:  # the blocks must not read rows they have added to
        cur = ws.get(SCRATCH[0], shape)
        cur[...] = out
    if num_layers:
        for lo, hi in row_blocks(shape[0]):
            block = ws.get(BLOCK_SCRATCH[0], (hi - lo, shape[1]))
            out[lo:hi] += _spmm_into(g.adjacency, cur, block, (lo, hi))
    out /= num_layers + 1
    return BehaviorEmbeddings(out[: g.num_users], out[g.num_users :])


# The exact vector-Jacobian product of `propagate`: the operator
# (1/(L+1)) * sum_l A^l is symmetric because the normalized adjacency is, so
# the adjoint maps the (d_P, d_Q) cotangent through the same polynomial.
propagate_adjoint = propagate
