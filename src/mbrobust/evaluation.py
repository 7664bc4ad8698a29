"""Full-ranking top-K evaluation (HR@K, NDCG@K) under the leave-one-out
protocol, plus the noise-injection robustness sweep."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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


def held_out_rank(
    z_user: np.ndarray,
    z_item: np.ndarray,
    user: int,
    held_item: int,
    exclusions: set[int],
) -> int:
    """1-based rank of the held-out item among non-excluded candidates.

    Score ties are broken by ascending item id, so ranks are deterministic.
    """
    if held_item in exclusions:
        raise ValueError(
            f"held-out item {held_item} of user {user} is excluded; "
            "split invariant violated upstream"
        )
    scores = z_item @ z_user[user]
    s_held = scores[held_item]
    candidate = np.ones(len(scores), dtype=bool)
    for i in exclusions:
        candidate[i] = False
    candidate[held_item] = False
    better = np.count_nonzero(candidate & (scores > s_held))
    tied_before = np.count_nonzero(
        candidate & (scores == s_held) & (np.arange(len(scores)) < held_item)
    )
    return 1 + better + tied_before


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
        ds = split.train
        graphs = {b: build_graph(ds, b) for b in ds.manifest.behaviors if ds.edges[b]}
    z_user, z_item = fused_embeddings(state, graphs)

    if exclude_train:
        indptr, items = split.train.user_items(split.train.manifest.target)
    ranks = []
    for u, i in eval_pairs:
        exclusions = (
            set(items[indptr[u] : indptr[u + 1]].tolist()) if exclude_train else set()
        )
        ranks.append((u, held_out_rank(z_user, z_item, u, i, exclusions)))

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
    state, _ = train(split, cfg)
    baseline = evaluate(state, split, ks=(10,))
    rows = [SweepRow("baseline", 0.0, baseline, 0.0, 0.0)]

    cell = 0
    for mode in modes:
        for ratio in ratios:
            cell += 1
            spec = PerturbationSpec(
                mode=mode,
                ratio=ratio,
                behaviors=aux,
                seed=seeds.stream_seed(seed, "perturbation", cell),
            )
            noisy_train = perturb(split.train, spec)
            noisy_split = SplitDataset(
                train=noisy_train,
                validation=split.validation,
                test=split.test,
                users_without_holdout=split.users_without_holdout,
            )
            state_n, _ = train(noisy_split, cfg)
            report = evaluate(state_n, noisy_split, ks=(10,))
            rows.append(
                SweepRow(
                    mode=mode,
                    ratio=ratio,
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
