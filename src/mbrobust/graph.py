"""Per-behavior bipartite graph operators, and the workspace of reused
buffers.

Each behavior's interaction set becomes a symmetric-normalized adjacency over
the stacked (users + items) node set, with edge weight 1/sqrt(deg_u * deg_i).
Propagation multiplies the stacked embedding matrix by that operator L times
and averages the layer outputs uniformly; since the operator is symmetric,
the exact adjoint (needed by the hand-written gradient engine) is the same
averaged polynomial applied to the cotangent.

Every table a training step, validation or ranking computes is a buffer of
one `Workspace`, whose docstring gives the plan: each buffer's name, its size
and the phases that write it.
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


# the names of the package's workspace buffers; `Workspace` gives their plan
FUSED = "fused"
PROPAGATED = "propagated"
SCRATCH = (("scratch", 0), ("scratch", 1))
BLOCK_SCRATCH = (("block", 0), ("block", 1))
ALIGN_BLOCK, ALIGN_ROWS, ALIGN_COLS = "align_block", "align_rows", "align_cols"
# rows per block of a streamed table pass (the last propagation layer, Adam's
# update): a block buffer is 256 KiB at d = 64
BLOCK_ROWS = 512
# each part of a buffer starts a multiple of this many bytes into it, so a
# view of any dtype is as aligned as the buffer and matmul copies none
PART_ALIGN = 64


def _require_apart(outs, ins, message: str) -> None:
    """Raise `ValueError` with ``message`` unless each of ``outs`` is writeable
    and its bounds overlap none of ``ins`` (`np.may_share_memory`)."""
    for out in outs:
        if not out.flags.writeable or any(np.may_share_memory(out, i) for i in ins):
            raise ValueError(message)


class Workspace:
    """Named byte buffers that a caller creates once and reuses.

    ``get(name, shape, dtype)`` returns a C-contiguous ``dtype`` array
    (float64 by default) at the front of the buffer ``name``; `parts` lays
    several arrays out in one buffer.  A buffer is allocated on the first
    request and replaced only when a request needs more bytes, so earlier
    views keep their contents; it holds whatever its last user left there,
    in any dtype.  Any hashable is a name.  The package's buffers, where a
    table is (U+I)×d float64:

    ====================  ==============  ==========================================
    buffer                size            written by
    ====================  ==============  ==========================================
    `FUSED`               table           `losses.total_loss`'s fused sum, then its
                                          summed adjoints (the gradient);
                                          `evaluation.fused_embeddings`
    `PROPAGATED`          table           `propagate`'s result; ``total_loss``'s
                                          cotangent; ranking's float32 tables and masks
    ``SCRATCH[0]``        table           `propagate`'s layer products (a copy at L = 1);
                                          the margin scatter; the L2 block; ranking's
                                          score block
    ``SCRATCH[1]``        table           `propagate`, only from L ≥ 3
    ``BLOCK_SCRATCH[0]``  `BLOCK_ROWS`×d  `propagate`'s last layer; Adam's step; the
                                          ranking screen's scaling
    ``BLOCK_SCRATCH[1]``  `BLOCK_ROWS`×d  Adam's denominator
    `ALIGN_BLOCK`         rows×n logits   `losses.rrm_loss`
    `ALIGN_ROWS`          rows×d          ``rrm_loss``'s block row products
    `ALIGN_COLS`          n×d             ``rrm_loss``'s column products; its gradient
    ====================  ==============  ==========================================

    A view is valid until the next writer of its buffer runs; the
    `SCRATCH` and `BLOCK_SCRATCH` buffers hold nothing across a call that
    takes the workspace.  So a training step holds three tables (four from
    L = 3 on), and ranking, which reads the fused tables, writes only
    buffers that fusion leaves idle: validation adds no buffer.
    """

    def __init__(self):
        self._buffers: dict[Hashable, np.ndarray] = {}

    def get(self, name: Hashable, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        return self.parts(name, [(shape, dtype)])[0]

    def parts(self, name: Hashable, parts, *, apart=()) -> list[np.ndarray]:
        """C-contiguous arrays of the ``(shape, dtype)`` ``parts``, one after
        another in the buffer ``name``, each `PART_ALIGN`-aligned; the buffer
        is sized once for all of them.  `ValueError` is raised when one may
        overlap an array of ``apart``."""
        starts, end = [], 0
        for shape, dtype in parts:
            starts.append(-(-end // PART_ALIGN) * PART_ALIGN)
            end = starts[-1] + math.prod(shape) * np.dtype(dtype).itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < end:
            buf = self._buffers[name] = np.empty(end, dtype=np.uint8)
        views = [np.ndarray(shape, dtype, buf, at) for (shape, dtype), at in zip(parts, starts)]
        _require_apart(views, apart, f"an operand shares the workspace buffer {name!r}")
        return views


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
    _require_apart([out], [x], "out must be writeable and must not overlap x")
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

    The result and the layer products are ``workspace``'s buffers (a fresh
    workspace when None; `Workspace` gives the plan): ``P`` and ``Q`` are
    views of `PROPAGATED`, where inputs that are views of its own rows are
    used without a copy.  The last layer is formed and added to the result a
    row block at a time (`row_blocks`), with the same additions in the same
    order as a whole-table product, so L ≤ 2 layers need one table beside
    the result.
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
