"""The alignment loss in the expression form that `mbrobust.losses.rrm_loss`
replaced with in-place products, kept as the reference the bit-parity
property in ``test_losses.py`` compares it to.

Each auxiliary behavior's gradient is written as whole-array expressions,
each of which allocates its temporaries; the n×n logits are walked in row
blocks of ``block_scores // n`` rows, as `rrm_loss` walks them.
"""

from __future__ import annotations

import numpy as np

_NORM_FLOOR = 1e-30


def _unit_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(X, axis=1), _NORM_FLOOR)
    return X / norms[:, None], norms


def rrm_loss(
    user_rows: dict[str, np.ndarray],
    target: str,
    tau: float,
    mode: str,
    block_scores: int,
    backward: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    """The value and, with ``backward``, the gradient of each behavior's rows
    (the target's included); ``rrm_loss``'s inputs, already validated."""
    aux = [b for b in user_rows if b != target]
    Y = user_rows[target]
    n, d = Y.shape

    scale = 1.0 / (len(aux) * n)
    Y_hat, y_norm = _unit_rows(Y)
    grads = {}
    d_Y = np.zeros_like(Y)
    total = 0.0
    rows = min(n, max(1, block_scores // n))
    buf, row_buf, col_buf = np.empty((rows, n)), np.empty((rows, d)), np.empty((n, d))
    for b in aux:
        X_hat, x_norm = _unit_rows(user_rows[b])
        X_hat_t = X_hat.T.copy()

        c_pos = np.einsum("ij,ij->i", X_hat, Y_hat)
        z_pos = c_pos / tau
        denom = np.empty(n)
        n1 = np.zeros_like(X_hat) if backward else None
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            W = np.matmul(X_hat[lo:hi], X_hat_t, out=buf[: hi - lo])
            W /= tau
            np.fill_diagonal(W[:, lo:hi], -np.inf)

            row_max = np.max(W, axis=1)
            W -= row_max[:, None]
            np.exp(W, out=W)
            lse_neg = row_max + np.log(np.sum(W, axis=1))
            if mode == "with_positive":
                denom[lo:hi] = np.logaddexp(z_pos[lo:hi], lse_neg)
            else:
                denom[lo:hi] = lse_neg
            if not backward:
                continue
            W *= np.exp(row_max - denom[lo:hi])[:, None]
            n1[lo:hi] += np.matmul(W, X_hat, out=row_buf[: hi - lo])
            n1 += np.matmul(W.T, X_hat[lo:hi], out=col_buf)
        total += float(np.sum(-z_pos + denom)) * scale
        if not backward:
            continue

        if mode == "with_positive":
            g_pos = -1.0 + np.exp(z_pos - denom)
        else:
            g_pos = np.full(n, -1.0)
        gp = (scale * g_pos)[:, None]
        d_X = gp * (Y_hat - c_pos[:, None] * X_hat) / (tau * x_norm[:, None])
        d_Y += gp * (X_hat - c_pos[:, None] * Y_hat) / (tau * y_norm[:, None])

        n2 = np.einsum("ij,ij->i", X_hat, n1)[:, None] * X_hat
        d_X += scale * (n1 - n2) / (tau * x_norm[:, None])
        grads[b] = d_X
    if backward:
        grads[target] = d_Y
    return total, grads
