"""Seeded synthetic fixtures with planted group structure.

Users and items fall into matched latent groups; target interactions stay
within a user's matched item group, so a model that recovers the groups can
rank every held-out item inside the top group-sized slice.  Auxiliary
behaviors either echo that structure (mostly within-group), copy target
pairs outright (well-aligned), or ignore it (pure noise).
"""

from __future__ import annotations

import math

import numpy as np

from . import seeds
from .data import EdgeSet, InteractionDataset, nth_absent


def _dataset(behaviors, target, rows, num_users, num_items) -> InteractionDataset:
    """A dataset from per-behavior lists of (user, item, timestamp) rows."""
    edges = {
        b: EdgeSet(*np.array(rows[b], dtype=np.int64).reshape(-1, 3).T, num_items)
        for b in behaviors
    }
    width_u = len(str(num_users - 1))
    width_i = len(str(num_items - 1))
    return InteractionDataset.assemble(behaviors, target, edges,
                                       [f"u{k:0{width_u}d}" for k in range(num_users)],
                                       [f"i{k:0{width_i}d}" for k in range(num_items)])


def _matched_items(num_users: int, num_items: int, num_groups: int):
    """Each user's matched item group, in user order: users and items fall
    into ``num_groups`` equal runs of consecutive ids, and user run g is
    matched to item run g."""
    if num_users % num_groups or num_items % num_groups:
        raise ValueError("users and items must divide evenly into groups")
    users_per_group = num_users // num_groups
    items_per_group = num_items // num_groups
    starts = (u // users_per_group * items_per_group for u in range(num_users))
    return (np.arange(s, s + items_per_group) for s in starts)


def planted_dataset(
    seed: int,
    num_users: int = 40,
    num_items: int = 40,
    num_groups: int = 4,
    target_per_user: int = 6,
    aux_per_user: int = 10,
    within_group: float = 0.9,
    aux_behaviors: tuple[str, ...] = ("view", "cart"),
    target: str = "buy",
) -> InteractionDataset:
    """Planted-preference dataset: target edges within matched groups,
    auxiliary edges mostly (``within_group`` fraction) within-group.

    Target timestamps run 1..k per user so the leave-one-out split is well
    defined; auxiliary edges get timestamp 0 (they precede every target).
    """
    groups = _matched_items(num_users, num_items, num_groups)
    rng = seeds.spawn(seed, "fixture")
    rows: dict[str, list[tuple[int, int, int]]] = {b: [] for b in (*aux_behaviors, target)}
    for u, own in enumerate(groups):
        picked = rng.choice(own, size=target_per_user, replace=False)
        rows[target] += [(u, item, ts) for ts, item in enumerate(picked.tolist(), start=1)]
        n_within = round(within_group * aux_per_user)
        for b in aux_behaviors:
            inside = rng.choice(own, size=min(n_within, len(own)), replace=False)
            # the same draw as choosing from the items outside ``own``
            outside = nth_absent(own, rng.choice(
                num_items - len(own), size=aux_per_user - len(inside), replace=False
            ))
            rows[b] += [(u, item, 0) for item in (*inside.tolist(), *outside.tolist())]

    return _dataset((*aux_behaviors, target), target, rows, num_users, num_items)


def planted_dataset_mixed_alignment(
    seed: int,
    num_users: int = 40,
    num_items: int = 40,
    num_groups: int = 4,
    target_per_user: int = 5,
    aligned_fraction: float = 0.95,
    noise_per_user: int = 12,
    aligned_behavior: str = "aligned",
    noise_behavior: str = "noise",
    target: str = "buy",
) -> InteractionDataset:
    """Planted dataset with one well-aligned and one pure-noise auxiliary.

    The aligned behavior copies ``aligned_fraction`` of all target pairs
    (alignment ratio >= that fraction by construction); the noise behavior
    samples user-item pairs disjoint from the target set, keeping its
    alignment ratio at 0.
    """
    groups = _matched_items(num_users, num_items, num_groups)
    if noise_per_user > num_items - target_per_user:
        raise ValueError(
            f"noise_per_user={noise_per_user} exceeds the {num_items - target_per_user} "
            "items outside each user's target set"
        )
    rng = seeds.spawn(seed, "fixture")
    picked = [rng.choice(own, size=target_per_user, replace=False).tolist() for own in groups]
    rows = {target: [(u, item, ts) for u, items in enumerate(picked)
                     for ts, item in enumerate(items, start=1)]}

    target_pairs = sorted((u, item) for u, item, _ in rows[target])
    n_copy = math.ceil(aligned_fraction * len(target_pairs))
    copied = rng.choice(len(target_pairs), size=n_copy, replace=False)
    rows[aligned_behavior] = [(*target_pairs[k], 0) for k in copied.tolist()]

    rows[noise_behavior] = []
    for u, items in enumerate(picked):
        taken = set(items)  # the user's target items, then their noise items
        while len(taken) < len(items) + noise_per_user:
            item = int(rng.integers(num_items))
            if item not in taken:
                taken.add(item)
                rows[noise_behavior].append((u, item, 0))

    return _dataset(
        (aligned_behavior, noise_behavior, target),
        target,
        rows,
        num_users,
        num_items,
    )
