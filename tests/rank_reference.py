"""The float64 ranking that `mbrobust.evaluation.held_out_rank` replaced with
a float32 screen, kept as the reference the parity property in
``test_evaluation.py`` compares the screen to.

It scores a block of users against every item with one float64 product and
counts, per row, the strictly better items and the equal-scoring ones of a
lower id.
"""

from __future__ import annotations

import numpy as np

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
