"""Vectorized planted matched-group data for the benchmark.

The structure matches ``mbrobust.synthetic.planted_dataset``: users and items
fall into matched groups; each user's target items are distinct items of its
own group with timestamps 1..k in draw order; each auxiliary behavior gives a
user ``round(within_group * aux_per_user)`` distinct items of its own group and
the rest distinct items of other groups, all with timestamp 0.

``planted_dataset`` draws per user with ``setdiff1d`` and ``choice`` and takes
close to a minute at 20k x 20k, which would swamp the run budget, so the
benchmark draws whole matrices at once here and writes the files the program
then loads.  Raw ids are zero-padded (``u00042``), so the program's sorted id
map gives dense id == generator index.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Planted:
    num_users: int
    num_items: int
    num_groups: int
    target_per_user: int
    aux_per_user: int
    within_group: float = 0.9
    aux_behaviors: tuple[str, ...] = ("view", "cart")
    target: str = "buy"

    @property
    def behaviors(self) -> tuple[str, ...]:
        return (*self.aux_behaviors, self.target)


def _distinct_rows(rng: np.random.Generator, rows: int, k: int, span: int) -> np.ndarray:
    """(rows, k) offsets in [0, span), distinct within each row, in draw order.

    Rows that drew a duplicate are redrawn whole until none remain; with
    k * k much smaller than span that takes a few passes.
    """
    if 4 * k > span:
        raise ValueError(f"cannot draw {k} distinct values from {span} cheaply")
    out = rng.integers(0, span, (rows, k))
    bad = np.arange(rows)
    while True:
        s = np.sort(out[bad], axis=1)
        bad = bad[np.any(s[:, 1:] == s[:, :-1], axis=1)]
        if len(bad) == 0:
            return out
        out[bad] = rng.integers(0, span, (len(bad), k))


def planted_edges(spec: Planted, seed: int) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """behavior -> (users, items, timestamps), each an int64 array."""
    if spec.num_users % spec.num_groups or spec.num_items % spec.num_groups:
        raise ValueError("users and items must divide evenly into groups")
    rng = np.random.default_rng(seed)
    U, I, G = spec.num_users, spec.num_items, spec.num_groups
    ipg = I // G
    group_start = (np.arange(U) // (U // G)) * ipg  # first item of each user's group
    users = np.arange(U)

    edges = {}
    k = spec.target_per_user
    items = group_start[:, None] + _distinct_rows(rng, U, k, ipg)
    ts = np.broadcast_to(np.arange(1, k + 1), (U, k))
    edges[spec.target] = (np.repeat(users, k), items.ravel(), ts.ravel().copy())

    n_in = round(spec.within_group * spec.aux_per_user)
    n_out = spec.aux_per_user - n_in
    for b in spec.aux_behaviors:
        inside = group_start[:, None] + _distinct_rows(rng, U, n_in, ipg)
        # offsets into the I - ipg items outside the group, shifted past it
        off = _distinct_rows(rng, U, n_out, I - ipg)
        outside = np.where(off < group_start[:, None], off, off + ipg)
        row_items = np.concatenate([inside, outside], axis=1)
        n = row_items.shape[1]
        edges[b] = (np.repeat(users, n), row_items.ravel(), np.zeros(U * n, dtype=np.int64))
    return edges


def _width(n: int) -> int:
    return len(str(n - 1))


def write_dataset(spec: Planted, seed: int, path: str) -> None:
    """Write a dataset directory in the layout ``mbrobust.load_dataset`` reads."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"behaviors": list(spec.behaviors), "target": spec.target}, fh)
    wu, wi = _width(spec.num_users), _width(spec.num_items)
    for b, (u, i, t) in planted_edges(spec, seed).items():
        lines = [f"u{a:0{wu}d}\ti{c:0{wi}d}\t{d}\n" for a, c, d in zip(u.tolist(), i.tolist(), t.tolist())]
        with open(os.path.join(path, f"{b}.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def planted_embeddings(spec: Planted, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Base tables whose first coordinates encode the group, plus small noise,
    so a checkpoint built from them ranks own-group items first."""
    if dim < spec.num_groups:
        raise ValueError("dim must be at least the number of groups")
    rng = np.random.default_rng([seed, 1])
    U, I, G = spec.num_users, spec.num_items, spec.num_groups
    user = rng.normal(0.0, 0.05, (U, dim))
    item = rng.normal(0.0, 0.05, (I, dim))
    user[np.arange(U), np.arange(U) // (U // G)] += 1.0
    item[np.arange(I), np.arange(I) // (I // G)] += 1.0
    return user, item
