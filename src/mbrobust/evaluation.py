"""Full-ranking top-K evaluation (HR@K, NDCG@K) under the leave-one-out
protocol, plus the noise-injection robustness sweep."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import seeds
from .data import (
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


# Scores held at once while ranking (4 MiB of float64): a block of users is
# as many as fit, so one GEMM scores the block against every item.
RANK_BLOCK_SCORES = 1 << 19


def held_out_rank(
    z_user: np.ndarray,
    z_item: np.ndarray,
    users: np.ndarray,
    held: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """1-based rank of each held-out item ``held[k]`` for user ``users[k]``
    among the non-excluded items, a block of users at a time; ``rows`` are
    the CSR rows of each user's excluded items, or None.

    Score ties are broken by ascending item id, so ranks are deterministic.
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
        at = np.arange(len(u))
        s_held = scores[at, h][:, None]
        if rows is not None:
            indptr, items = rows
            starts = indptr[u]
            counts = indptr[u + 1] - starts
            owner = np.repeat(at, counts)
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
            scores[owner, excluded] = np.nan
        better = np.count_nonzero(scores > s_held, axis=1)
        tied = (scores == s_held) & (item_ids < h[:, None])
        tied_before = np.count_nonzero(tied, axis=1)
        ranks[start : start + block] = 1 + better + tied_before
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
) -> list[SweepRow]:
    """Train on the clean split, then retrain after perturbing auxiliary
    training edges at each (mode, ratio) and measure the relative metric
    drop on the untouched test set.

    Each sweep cell perturbs with its own sub-seed derived from ``seed``;
    every training run restarts from the same initialization.
    """
    from .training import train  # local import to avoid a module cycle

    split = split_leave_one_out(ds)
    aux = split.train.manifest.auxiliary
    # every cell's spec is built, and so checked, before the first training run
    specs = [
        PerturbationSpec(mode, ratio, aux, seeds.stream_seed(seed, "perturbation", cell))
        for cell, (mode, ratio) in enumerate(product(modes, ratios), start=1)
    ]
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
