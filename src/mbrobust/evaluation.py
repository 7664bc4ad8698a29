"""Full-ranking top-K evaluation (HR@K, NDCG@K) under the leave-one-out
protocol, plus the noise-injection robustness sweep."""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import seeds
from .data import (
    DatasetError,
    InteractionDataset,
    PerturbationSpec,
    SplitDataset,
    perturb,
    split_leave_one_out,
)
from .graph import BehaviorGraph, build_graph, propagate
from .losses import ModelState, fuse

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
    state: ModelState, graphs: dict[str, BehaviorGraph]
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate every behavior graph and average the results."""
    P, Q = {}, {}
    for b, g in graphs.items():
        emb = propagate(g, state.user_emb, state.item_emb, state.hp.num_layers)
        P[b], Q[b] = emb.P, emb.Q
    return fuse(P, Q)


# Scores held at once while ranking (2 MiB of float32 in the screen, 4 MiB of
# float64 for the rows it leaves): a block of users is as many as fit, so one
# GEMM scores the block against every item.
RANK_BLOCK_SCORES = 1 << 19

_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoffs of float32 and float64


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


def _float64_ranks(z_user, z_item, users, held, rows) -> np.ndarray:
    """`held_out_rank` from float64 scores, a block of users at a time.

    Excluded scores are overwritten with NaN, which compares neither greater
    than nor equal to any score, so they never count; the held-out item is
    neither above nor before itself.
    """
    num_items = z_item.shape[0]
    block = max(1, RANK_BLOCK_SCORES // num_items)
    item_ids = np.arange(num_items)
    ranks = np.empty(len(users), dtype=np.int64)
    for start in range(0, len(users), block):
        u, h = users[start : start + block], held[start : start + block]
        scores = z_user[u] @ z_item.T
        s_held = scores[np.arange(len(u)), h][:, None]
        if rows is not None:
            scores[_exclusions(rows, u, h)] = np.nan
        better = np.count_nonzero(scores > s_held, axis=1)
        tied = (scores == s_held) & (item_ids < h[:, None])
        tied_before = np.count_nonzero(tied, axis=1)
        ranks[start : start + block] = 1 + better + tied_before
    return ranks


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries per row: summing the bytes as int32 takes half the time
    of ``np.count_nonzero(mask, axis=1)``."""
    return mask.view(np.uint8).sum(axis=1, dtype=np.int32)


def _screen_table(z: np.ndarray):
    """``z`` times a power of two ``2**e`` that brings every entry below 1 in
    magnitude (exact, up to float64 underflow), as float32, with ``e`` and the
    scaled rows' float64 norms; None when ``z`` has a non-finite entry."""
    top = float(np.maximum(np.max(z, initial=0.0), -np.min(z, initial=0.0)))  # NaN stays
    if not math.isfinite(top):
        return None
    e = -math.frexp(top)[1]
    scaled = np.ldexp(z, e)
    return scaled.astype(np.float32), e, np.sqrt(np.einsum("ij,ij->i", scaled, scaled))


def _float32_screen(z_user, z_item, users, held, rows):
    """`held_out_rank` from a float32 product wherever that provably gives
    the float64 rank, and a mask of the rows where it may not; None when a
    table is non-finite or its scale is too far from 1.

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
    num_items, dim = z_item.shape
    x, y = _screen_table(z_user), _screen_table(z_item)
    # beyond these the float64 scores may overflow, or their underflow
    # swamps the band
    if x is None or y is None or abs(x[1] + y[1]) >= 1000 or dim * _U32 >= 0.5:
        return None
    (x32, ex, x_norm), (y32, ey, y_norm) = x, y
    gamma32 = dim * _U32 / (1 - dim * _U32)
    gamma64 = dim * _U64 / (1 - dim * _U64)
    # the 2**-20 margin covers the float64 rounding of the norms and the band
    c = (2 * _U32 + _U32**2 + gamma32 * (1 + _U32) ** 2 + gamma64) * (1 + 2.0**-20)
    # per score: float32 underflow, flushed to zero or not (under 3·2**-126
    # per term), and float64 underflow (2**-1075 per term in the tables' own
    # units, 2**(ex + ey - 1075) in the scaled ones)
    eta = dim * (2.0**-124 + math.ldexp(1.0, ex + ey - 1074))
    y_top = float(np.max(y_norm, initial=0.0))

    block = max(1, RANK_BLOCK_SCORES // num_items)
    ranks = np.empty(len(users), dtype=np.int64)
    unsure = np.zeros(len(users), dtype=bool)
    up, down = np.float32(np.inf), np.float32(-np.inf)
    for start in range(0, len(users), block):
        u, h = users[start : start + block], held[start : start + block]
        scores = x32[u] @ y32.T
        s_held = scores[np.arange(len(u)), h].astype(np.float64)
        band = c * x_norm[u] * (y_top + y_norm[h]) + 2 * eta
        # one float32 step outward covers rounding the float64 sums
        hi = np.nextafter((s_held + band).astype(np.float32), up)[:, None]
        lo = np.nextafter((s_held - band).astype(np.float32), down)[:, None]
        if rows is not None:  # NaN is neither above hi nor at or above lo
            scores[_exclusions(rows, u, h)] = np.nan
        better = _row_counts(scores > hi)
        # the held-out item is in its own band; any other item makes it unsure
        unsure[start : start + block] = _row_counts(scores >= lo) > better + 1
        ranks[start : start + block] = 1 + better
    return ranks, unsure


def held_out_rank(
    z_user: np.ndarray,
    z_item: np.ndarray,
    users: np.ndarray,
    held: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """1-based rank of each held-out item ``held[k]`` for user ``users[k]``
    among the non-excluded items by their float64 scores ``z_user @
    z_item.T``; ``rows`` are the CSR rows of each user's excluded items, or
    None.  Score ties are broken by ascending item id, so ranks are
    deterministic.

    A float32 product with a proven error bound screens the comparisons
    (`_float32_screen`).  The users it cannot settle, those with another
    item within rounding distance of the held-out one, are ranked from
    float64 scores, as is every user when a table is non-finite or its scale
    is too far from 1.
    """
    screened = _float32_screen(z_user, z_item, users, held, rows)
    if screened is None:
        return _float64_ranks(z_user, z_item, users, held, rows)
    ranks, unsure = screened
    if unsure.any():
        ranks[unsure] = _float64_ranks(z_user, z_item, users[unsure], held[unsure], rows)
    return ranks


def evaluate(
    state: ModelState,
    split: SplitDataset,
    ks: tuple[int, ...] = (10, 20),
    exclude_train: bool = True,
    pairs: tuple[tuple[int, int], ...] | None = None,
    graphs: dict[str, BehaviorGraph] | None = None,
    record_ranks: bool = False,
) -> EvalReport:
    """HR@K and NDCG@K over held-out pairs (the test set by default).

    Every item is a candidate except, when ``exclude_train`` is set, the
    user's training-target items.  With a single relevant item the ideal DCG
    is 1, so a user's NDCG@K contribution is 1/log2(rank+1) when the rank is
    within K and 0 otherwise.
    """
    eval_pairs = split.test if pairs is None else pairs
    if not eval_pairs:
        raise ValueError("no held-out pairs to evaluate")
    if graphs is None:
        graphs = {b: build_graph(split.train, b) for b in split.train.active_behaviors}
    z_user, z_item = fused_embeddings(state, graphs)
    rows = split.train.user_items(split.train.manifest.target) if exclude_train else None
    users, held = np.array(eval_pairs, dtype=np.int64).reshape(-1, 2).T
    ranks = held_out_rank(z_user, z_item, users, held, rows)
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
    the first training run.
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
    state, _ = train(split, cfg)
    baseline = evaluate(state, split, ks=(10,))
    rows = [SweepRow("baseline", 0.0, baseline, 0.0, 0.0)]

    for spec in specs:
        noisy_split = replace(split, train=perturb(split.train, spec))
        state_n, _ = train(noisy_split, cfg)
        report = evaluate(state_n, noisy_split, ks=(10,))
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
