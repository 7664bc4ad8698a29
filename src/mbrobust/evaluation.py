"""Full-ranking top-K evaluation (HR@K, NDCG@K) under the leave-one-out
protocol, plus the noise-injection robustness sweep."""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import graph, seeds
from .data import (
    DatasetError,
    InteractionDataset,
    PerturbationSpec,
    SplitDataset,
    perturb,
    split_leave_one_out,
)
from .graph import (
    BehaviorGraph,
    Workspace,
    build_graph,
    propagate,
)
from .losses import ModelState, _add_to_sum

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalReport:
    hr: dict[int, float]
    ndcg: dict[int, float]
    num_evaluated_users: int
    excluded_train_items: bool
    per_user_ranks: tuple[tuple[int, int], ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "ks": sorted(self.hr),
            "hr": {str(k): self.hr[k] for k in sorted(self.hr)},
            "ndcg": {str(k): self.ndcg[k] for k in sorted(self.ndcg)},
            "users": self.num_evaluated_users,
            "excluded_train_items": self.excluded_train_items,
        }


def fused_embeddings(
    state: ModelState, graphs: dict[str, BehaviorGraph], workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate every behavior graph and average the results: their sum in
    graph order, divided once by the behavior count (`losses._add_to_sum`),
    one behavior at a time through ``workspace`` (a fresh one when None;
    `graph.Workspace` gives the plan): the two tables are views of `graph.FUSED`."""
    if not graphs:
        raise ValueError("fusion needs at least one behavior")
    ws = Workspace() if workspace is None else workspace
    num_users = state.user_emb.shape[0]
    fused = ws.get(graph.FUSED, (num_users + state.item_emb.shape[0], state.user_emb.shape[1]))
    for k, g in enumerate(graphs.values()):
        emb = propagate(g, state.user_emb, state.item_emb, state.hp.num_layers, workspace=ws)
        _add_to_sum(fused, emb, first=k == 0)
    fused /= len(graphs)
    return fused[:num_users], fused[num_users:]


# Scores held at once while ranking (4 MiB of float32 in the screen, 8 MiB of
# float64 for the rows it leaves), and never more than the workspace table
# that holds them (`_block_rows`): one GEMM scores a block of users.
RANK_BLOCK_SCORES = 1 << 20

_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoffs of float32 and float64


def _block_rows(z_user, z_item, itemsize: int, num_ranked: int) -> int:
    """Users per block of ``itemsize``-byte scores: as many as
    `RANK_BLOCK_SCORES` scores allow, and a (U+I)×d float64 table holds, but
    at least 1 and at most the ``num_ranked`` users."""
    num_items, dim = z_item.shape
    table_bytes = 8 * (z_user.shape[0] + num_items) * dim
    return min(max(1, min(RANK_BLOCK_SCORES, table_bytes // itemsize) // num_items), num_ranked)


def _exclusions(rows, u: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(block row, item) of every excluded score of the block's users ``u``;
    a held-out item ``h`` among its user's exclusions is an error."""
    indptr, items = rows
    starts = indptr[u]
    counts = indptr[u + 1] - starts
    owner = np.repeat(np.arange(len(u)), counts)
    # entry k of the block's concatenated rows, offset from its row's first
    first = np.cumsum(counts) - counts
    excluded = items[starts[owner] + np.arange(len(owner)) - first[owner]]
    clash = np.flatnonzero(excluded == h[owner])
    if len(clash):
        k = owner[clash[0]]
        raise ValueError(
            f"held-out item {h[k]} of user {u[k]} is excluded; "
            "split invariant violated upstream"
        )
    return owner, excluded


def _float64_ranks(z_user, z_item, users, held, rows, ws) -> np.ndarray:
    """`held_out_rank` from float64 scores, a block of `_block_rows` users at
    a time, in ``ws``'s buffers (`graph.Workspace` gives the plan).

    Excluded scores are overwritten with NaN, which compares neither greater
    than nor equal to any score, so they never count; the held-out item is
    neither above nor before itself.
    """
    num_items = z_item.shape[0]
    tables = (z_user, z_item)
    block = _block_rows(z_user, z_item, 8, len(users))
    (scores_buf,) = ws.parts(graph.SCRATCH[0], [((block, num_items), np.float64)], apart=tables)
    mask_buf, before_buf = ws.parts(graph.PROPAGATED, [((block, num_items), bool)] * 2,
                                    apart=tables)
    item_ids = np.arange(num_items)
    ranks = np.empty(len(users), dtype=np.int64)
    for start in range(0, len(users), block):
        u, h = users[start : start + block], held[start : start + block]
        scores, mask, before = scores_buf[: len(u)], mask_buf[: len(u)], before_buf[: len(u)]
        np.matmul(z_user[u], z_item.T, out=scores)
        s_held = scores[np.arange(len(u)), h][:, None]
        if rows is not None:
            scores[_exclusions(rows, u, h)] = np.nan
        better = _row_counts(np.greater(scores, s_held, out=mask))
        np.equal(scores, s_held, out=mask)
        mask &= np.less(item_ids, h[:, None], out=before)
        tied_before = _row_counts(mask)
        ranks[start : start + block] = 1 + better + tied_before
    return ranks


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries per row, counted as set bits of the row packed 8 to a
    byte (packing pads a row with zero bits): about two thirds of the time of
    summing its bytes."""
    return np.bitwise_count(np.packbits(mask, axis=1)).sum(axis=1, dtype=np.int64)


def _screen_table(z: np.ndarray, out: np.ndarray, norms: np.ndarray, ws: Workspace):
    """Write ``z`` times a power of two ``2**e`` that brings every entry below
    1 in magnitude (exact, up to float64 underflow) into the float32 ``out``
    of ``z``'s shape, and the scaled rows' float64 norms into ``norms``;
    return ``e``, or None when ``z`` has a non-finite entry.

    A row block (`graph.row_blocks`) at a time is scaled in a ``ws`` buffer
    (`graph.Workspace` gives the plan), measured and cast, so no float64 copy
    of the table exists.
    """
    top = float(np.maximum(np.max(z, initial=0.0), -np.min(z, initial=0.0)))  # NaN stays
    if not math.isfinite(top):
        return None
    e = -math.frexp(top)[1]
    for lo, hi in graph.row_blocks(z.shape[0]):
        scaled = np.ldexp(z[lo:hi], e, out=ws.get(graph.BLOCK_SCRATCH[0], (hi - lo, z.shape[1])))
        np.sqrt(np.einsum("ij,ij->i", scaled, scaled), out=norms[lo:hi])
        out[lo:hi] = scaled
    return e


def _float32_screen(z_user, z_item, users, held, rows, ws):
    """`held_out_rank` from a float32 product wherever that provably gives
    the float64 rank, and a mask of the rows where it may not; None when a
    table is non-finite or its scale is too far from 1.

    The scaled float32 tables (the item table as a C-contiguous (d, I)
    operand), and the float32 scores of a block of `_block_rows` users and
    their mask, are ``ws``'s buffers (`graph.Workspace` gives the plan).

    Against the float64 score of any summation order, a float32 score ``S``
    of user ``x`` and item ``y`` (both scaled by powers of two to entries
    below 1) errs by at most ``C·‖x‖·‖y‖ + η``, where ``C`` sums the two
    roundings of the inputs to float32, ``γ_d`` of the float32 dot product
    (any order, with or without FMA) and ``γ_d`` of the float64 one,
    ``γ_d = d·u / (1 − d·u)`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.1), and ``η`` covers underflow.  So an item whose ``S``
    is above the held-out item's ``S_h`` by more than the band
    ``C·‖x‖·(max_j ‖y_j‖ + ‖y_h‖) + 2η`` scores higher in float64 too, and
    one below by more scores lower; a row with no other item inside the
    band has no tie to break.
    """
    (num_users, dim), num_items = z_user.shape, z_item.shape[0]
    if dim * _U32 >= 0.5:
        return None
    tables = (z_user, z_item)
    block = _block_rows(z_user, z_item, 4, len(users))
    x32, y32, mask_buf = ws.parts(
        graph.PROPAGATED, [((num_users, dim), np.float32), ((dim, num_items), np.float32),
                           ((block, num_items), bool)], apart=tables)
    (scores_buf,) = ws.parts(graph.SCRATCH[0], [((block, num_items), np.float32)], apart=tables)
    x_norm, y_norm = np.empty(num_users), np.empty(num_items)
    # the item operand is written transposed, so each block's gemm reads a
    # C-contiguous (d, I) table
    ex = _screen_table(z_user, x32, x_norm, ws)
    ey = None if ex is None else _screen_table(z_item, y32.T, y_norm, ws)
    # beyond this the float64 scores may overflow, or their underflow swamps
    # the band
    if ey is None or abs(ex + ey) >= 1000:
        return None
    gamma32 = dim * _U32 / (1 - dim * _U32)
    gamma64 = dim * _U64 / (1 - dim * _U64)
    # the 2**-20 margin covers the float64 rounding of the norms and the band
    c = (2 * _U32 + _U32**2 + gamma32 * (1 + _U32) ** 2 + gamma64) * (1 + 2.0**-20)
    # per score: float32 underflow, flushed to zero or not (under 3·2**-126
    # per term), and float64 underflow (2**-1075 per term in the tables' own
    # units, 2**(ex + ey - 1075) in the scaled ones)
    eta = dim * (2.0**-124 + math.ldexp(1.0, ex + ey - 1074))
    y_top = float(np.max(y_norm, initial=0.0))

    ranks = np.empty(len(users), dtype=np.int64)
    unsure = np.zeros(len(users), dtype=bool)
    up, down = np.float32(np.inf), np.float32(-np.inf)
    for start in range(0, len(users), block):
        u, h = users[start : start + block], held[start : start + block]
        scores, mask = scores_buf[: len(u)], mask_buf[: len(u)]
        np.matmul(x32[u], y32, out=scores)
        s_held = scores[np.arange(len(u)), h].astype(np.float64)
        band = c * x_norm[u] * (y_top + y_norm[h]) + 2 * eta
        # one float32 step outward covers rounding the float64 sums
        hi = np.nextafter((s_held + band).astype(np.float32), up)[:, None]
        lo = np.nextafter((s_held - band).astype(np.float32), down)[:, None]
        if rows is not None:  # NaN is neither above hi nor at or above lo
            scores[_exclusions(rows, u, h)] = np.nan
        better = _row_counts(np.greater(scores, hi, out=mask))
        # the held-out item is in its own band; any other item makes it unsure
        in_band = _row_counts(np.greater_equal(scores, lo, out=mask))
        unsure[start : start + block] = in_band > better + 1
        ranks[start : start + block] = 1 + better
    return ranks, unsure


def held_out_rank(
    z_user: np.ndarray,
    z_item: np.ndarray,
    users: np.ndarray,
    held: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray] | None,
    *,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """1-based rank of each held-out item ``held[k]`` for user ``users[k]``
    among the non-excluded items by their float64 scores ``z_user @
    z_item.T``; ``rows`` are the CSR rows of each user's excluded items, or
    None.  Score ties are broken by ascending item id, so ranks are
    deterministic.

    A float32 product, cheaper than the float64 one and with a proven error
    bound, screens the comparisons (`_float32_screen`).  The users it cannot
    settle, those with another item within rounding distance of the held-out
    one, are ranked from float64 scores, as is every user when a table is
    non-finite or its scale is too far from 1.

    Its buffers are ``workspace``'s (a fresh one when None), as
    `graph.Workspace` plans them, so ranking on a warm workspace allocates
    nothing of a table's size.  A ``z_user`` or ``z_item`` that shares one
    (`propagate`'s result does) raises `ValueError`.  No users give no ranks.
    """
    if not len(users):
        return np.empty(0, dtype=np.int64)
    ws = Workspace() if workspace is None else workspace
    screened = _float32_screen(z_user, z_item, users, held, rows, ws)
    if screened is None:
        return _float64_ranks(z_user, z_item, users, held, rows, ws)
    ranks, unsure = screened
    if unsure.any():
        ranks[unsure] = _float64_ranks(z_user, z_item, users[unsure], held[unsure], rows, ws)
    return ranks


def evaluate(
    state: ModelState,
    split: SplitDataset,
    ks: tuple[int, ...] = (10, 20),
    exclude_train: bool = True,
    pairs: tuple[tuple[int, int], ...] | None = None,
    graphs: dict[str, BehaviorGraph] | None = None,
    record_ranks: bool = False,
    workspace: Workspace | None = None,
) -> EvalReport:
    """HR@K and NDCG@K over held-out pairs (the test set by default).

    Every item is a candidate except, when ``exclude_train`` is set, the
    user's training-target items.  With a single relevant item the ideal DCG
    is 1, so a user's NDCG@K contribution is 1/log2(rank+1) when the rank is
    within K and 0 otherwise.  Fusion and ranking share ``workspace`` (a
    fresh one when None), so a warm workspace gains no buffer.
    """
    eval_pairs = split.test if pairs is None else pairs
    if not eval_pairs:
        raise ValueError("no held-out pairs to evaluate")
    if graphs is None:
        graphs = {b: build_graph(split.train, b) for b in split.train.active_behaviors}
    ws = Workspace() if workspace is None else workspace
    z_user, z_item = fused_embeddings(state, graphs, ws)
    rows = split.train.user_items(split.train.manifest.target) if exclude_train else None
    users, held = np.array(eval_pairs, dtype=np.int64).reshape(-1, 2).T
    ranks = held_out_rank(z_user, z_item, users, held, rows, workspace=ws)
    ranks = list(zip(users.tolist(), ranks.tolist()))

    n = len(ranks)
    hr = {}
    ndcg = {}
    for k in ks:
        hits = sum(1 for _, r in ranks if r <= k)
        gain = sum(1.0 / math.log2(r + 1) for _, r in ranks if r <= k)
        hr[k] = hits / n
        ndcg[k] = gain / n
    return EvalReport(
        hr=hr,
        ndcg=ndcg,
        num_evaluated_users=n,
        excluded_train_items=exclude_train,
        per_user_ranks=tuple(ranks) if record_ranks else None,
    )


# ----------------------------------------------------------------------
# Robustness sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    mode: str
    ratio: float
    report: EvalReport
    rel_drop_hr10: float
    rel_drop_ndcg10: float


def _rel_drop(baseline: float, value: float) -> float:
    if baseline == 0.0:
        return 0.0
    return (baseline - value) / baseline


def robustness_sweep(
    ds: InteractionDataset,
    cfg,
    ratios: list[float],
    modes: list[str],
    seed: int,
    *,
    on_checked: Callable[[], None] = lambda: None,
) -> list[SweepRow]:
    """Train on the clean split, then retrain after perturbing auxiliary
    training edges at each (mode, ratio) and measure the relative metric
    drop on the untouched test set.

    Each sweep cell perturbs with its own sub-seed derived from ``seed``;
    every training run restarts from the same initialization.  The grid and
    the data are checked first; ``on_checked`` runs once they pass, before
    the first training run.  Every training run and evaluation computes its
    tables in one workspace.
    """
    from .training import train  # local import to avoid a module cycle

    aux = ds.manifest.auxiliary
    # every cell's spec is built, and so checked, before the first training run
    specs = [
        PerturbationSpec(mode, ratio, aux, seeds.stream_seed(seed, "perturbation", cell))
        for cell, (mode, ratio) in enumerate(product(modes, ratios), start=1)
    ]
    split = split_leave_one_out(ds)
    if not split.test:  # before any training run, which could not be evaluated
        raise DatasetError("no held-out pairs to evaluate: no user has >= 3 target interactions")
    on_checked()
    ws = Workspace()
    state, _ = train(split, cfg, ws)
    baseline = evaluate(state, split, ks=(10,), workspace=ws)
    rows = [SweepRow("baseline", 0.0, baseline, 0.0, 0.0)]

    for spec in specs:
        noisy_split = replace(split, train=perturb(split.train, spec))
        state_n, _ = train(noisy_split, cfg, ws)
        report = evaluate(state_n, noisy_split, ks=(10,), workspace=ws)
        rows.append(
            SweepRow(
                mode=spec.mode,
                ratio=spec.ratio,
                report=report,
                rel_drop_hr10=_rel_drop(baseline.hr[10], report.hr[10]),
                rel_drop_ndcg10=_rel_drop(baseline.ndcg[10], report.ndcg[10]),
            )
        )
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["mode,ratio,hr10,ndcg10,rel_drop_hr10,rel_drop_ndcg10"]
    for r in rows:
        lines.append(
            f"{r.mode},{r.ratio!r},{r.report.hr[10]!r},{r.report.ndcg[10]!r},"
            f"{r.rel_drop_hr10!r},{r.rel_drop_ndcg10!r}"
        )
    return "\n".join(lines) + "\n"
