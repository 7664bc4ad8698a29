"""Finite-difference verification of the hand-written gradient engine.

`run_gradcheck` builds small random multi-behavior fixtures, evaluates the
analytic gradient of the total objective, and compares it against central
finite differences over every base-embedding entry, for every combination of
invariance variant, alignment denominator, and invariance scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import seeds
from .data import DatasetManifest, InteractionDataset, SplitDataset
from .graph import build_graph
from .losses import (
    Hyperparameters,
    IRM_VARIANTS,
    ModelState,
    ORM_SCOPES,
    RRM_MODES,
    total_loss,
)
from .training import TripletSampler

DEFAULT_TOLERANCE = 1e-5


def numeric_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of f() with respect to x, perturbed in place."""
    g = np.zeros(x.size, dtype=np.float64)
    for k in range(x.size):
        orig = x.flat[k]
        x.flat[k] = orig + h
        up = f()
        x.flat[k] = orig - h
        down = f()
        x.flat[k] = orig
        g[k] = (up - down) / (2.0 * h)
    return g.reshape(x.shape)


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max of |a-b| / max(|a|, |b|, 1) over all entries."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def random_fixture(
    rng: np.random.Generator,
    num_users: int = 6,
    num_items: int = 6,
    num_behaviors: int = 2,
    density: float = 0.4,
):
    """A random in-memory dataset plus a valid triplet batch for it.

    Every behavior gets a nonempty edge set, and every triplet satisfies the
    membership rule (positive observed, negative unobserved) against it.
    """
    names = [f"b{k}" for k in range(num_behaviors)]
    target = names[-1]
    edges = {}
    for b in names:
        bucket = {}
        while not bucket:
            mask = rng.random((num_users, num_items)) < density
            # keep at least one non-edge per user so negatives exist
            for u in range(num_users):
                if mask[u].all():
                    mask[u, rng.integers(num_items)] = False
            for u, i in zip(*np.nonzero(mask)):
                bucket[(int(u), int(i))] = int(rng.integers(0, 100))
        edges[b] = bucket
    manifest = DatasetManifest(
        behaviors=tuple(names), target=target,
        num_users=num_users, num_items=num_items,
    )
    ds = InteractionDataset(
        manifest=manifest,
        edges=edges,
        user_ids=tuple(f"u{k}" for k in range(num_users)),
        item_ids=tuple(f"i{k}" for k in range(num_items)),
    )

    batch_users = np.arange(num_users, dtype=np.int64)
    batch = TripletSampler(SplitDataset(ds, (), ())).sample(batch_users, rng)
    return ds, batch, batch_users


@dataclass(frozen=True)
class GradCheckResult:
    path: str
    max_rel_error: float
    passed: bool


def run_gradcheck(
    seed: int = 0,
    sizes: tuple[tuple[int, int, int], ...] = ((6, 6, 2), (8, 8, 3)),
    dim: int = 4,
    num_layers: int = 1,
    h: float = 1e-5,
    tolerance: float = DEFAULT_TOLERANCE,
    variants=IRM_VARIANTS,
    modes=RRM_MODES,
    scopes=ORM_SCOPES,
) -> list[GradCheckResult]:
    """Compare analytic and finite-difference gradients across all variants.

    ``sizes`` entries are (num_users, num_items, num_behaviors), all checked
    before the first fixture is drawn; an empty ``sizes`` is a ``ValueError``,
    since no path would be checked.  Each
    variant combination is one checked path named
    ``"<variant>|<mode>|<scope>|u<U>i<I>b<B>"``.
    """
    if not sizes:
        raise ValueError("no fixture sizes to check")
    # below these sizes `random_fixture` has no behavior, or redraws forever
    # for an edge per behavior that leaves every user a non-edge
    for u, i, b in sizes:
        if u < 1 or i < 2 or b < 1:
            raise ValueError(f"fixture size {u}x{i}x{b} needs U >= 1, I >= 2 and B >= 1")
    rng = seeds.spawn(seed, "gradcheck")
    results = []
    for num_users, num_items, num_behaviors in sizes:
        ds, batch, batch_users = random_fixture(
            rng, num_users, num_items, num_behaviors
        )
        graphs = {b: build_graph(ds, b) for b in ds.manifest.behaviors}
        base_user = rng.normal(0.0, 0.5, (num_users, dim))
        base_item = rng.normal(0.0, 0.5, (num_items, dim))
        for variant, mode, scope in product(variants, modes, scopes):
            path = f"{variant}|{mode}|{scope}|u{num_users}i{num_items}b{num_behaviors}"
            hp = Hyperparameters(
                dim=dim,
                num_layers=num_layers,
                tau=0.5,
                lambda_rrm=0.7,
                lambda_orm=1.3,
                lambda_reg=0.01,
                irm_variant=variant,
                orm_scope=scope,
                rrm_denominator=mode,
            )
            state = ModelState(base_user.copy(), base_item.copy(), hp)

            def objective() -> float:
                breakdown, _ = total_loss(
                    state, graphs, batch, batch_users, ds.manifest.target
                )
                return breakdown.total

            _, grads = total_loss(state, graphs, batch, batch_users, ds.manifest.target)
            fd_user = numeric_gradient(objective, state.user_emb, h)
            fd_item = numeric_gradient(objective, state.item_emb, h)
            err = max(
                max_rel_error(grads.d_user, fd_user),
                max_rel_error(grads.d_item, fd_item),
            )
            results.append(GradCheckResult(path, err, err <= tolerance))
    return results
