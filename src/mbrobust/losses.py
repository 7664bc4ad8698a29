"""Training objectives and their exact gradients with respect to the base
embedding tables.

The total objective is

    total = main + lambda_rrm * rrm + lambda_orm * orm

where ``main`` is BPR over fused target scores plus an L2 term on the base
tables, ``rrm`` is a target-anchored contrastive alignment loss over user
embeddings, and ``orm`` is a cross-behavior invariance penalty: either the
variance of per-behavior BPR risks (``rex``) or a squared risk-gradient
penalty with respect to a scalar score multiplier frozen at 1 (``irm_v1`` /
``irm_v2``).  Per-behavior BPR risks are always reported but enter the
gradient only through the invariance penalty.

All gradients here are derived by hand and are validated against central
finite differences in the test suite; everything runs in float64.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import DatasetError
from .graph import BehaviorGraph, propagate, propagate_adjoint

log = logging.getLogger(__name__)

IRM_VARIANTS = ("rex", "irm_v1", "irm_v2")
ORM_SCOPES = ("all_behaviors", "aux_only")
RRM_MODES = ("with_positive", "literal")
# the choice-valued hyperparameters and their values
CHOICES = {"irm_variant": IRM_VARIANTS, "orm_scope": ORM_SCOPES, "rrm_denominator": RRM_MODES}

_NORM_FLOOR = 1e-30  # cosine guard; embeddings are never legitimately zero
# logits per row block of rrm_loss (rows = this // batch size, at least one):
# of 2^16 to 2^19, all took the same time on the benchmark's train batches
# (1024 and 928 users, single-threaded); 2^17 keeps the block at 1 MiB, and
# 2^16 was 1.15x slower at 2048 users and 1.4x at 4096
ALIGN_BLOCK_SCORES = 1 << 17


@dataclass(frozen=True)
class Hyperparameters:
    dim: int = 64
    num_layers: int = 2
    tau: float = 0.2
    lambda_rrm: float = 1.0
    lambda_orm: float = 1.0
    lambda_reg: float = 1e-4
    irm_variant: str = "rex"
    orm_scope: str = "all_behaviors"
    rrm_denominator: str = "with_positive"
    lr: float = 1e-3
    batch_size: int = 1024
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "num_layers", "batch_size", "max_epochs", "patience", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        if self.num_layers < 0:
            raise ValueError("layer count must be >= 0")
        # the chained comparisons are false for NaN as well as out of range
        if not 0 < self.tau < np.inf:
            raise ValueError("temperature must be > 0 and finite")
        if not 0 < self.lr < np.inf:
            raise ValueError("learning rate must be > 0 and finite")
        for name in ("lambda_rrm", "lambda_orm", "lambda_reg"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        if self.max_epochs < 0:  # 0 is legal: train returns the initial state
            raise ValueError("max_epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass
class ModelState:
    """Trainable parameters: the two base embedding tables."""

    user_emb: np.ndarray  # |U| x d
    item_emb: np.ndarray  # |I| x d
    hp: Hyperparameters

    def copy(self) -> "ModelState":
        return ModelState(self.user_emb.copy(), self.item_emb.copy(), self.hp)


@dataclass(frozen=True)
class TripletBatch:
    """(user, positive item, negative item) index triplets.

    ``per_behavior[b]`` holds the behavior-b triplets; ``main`` holds the
    target-supervision triplets for the fused scores.  All arrays are
    (n, 3) int64.
    """

    per_behavior: dict[str, np.ndarray]
    main: np.ndarray


@dataclass(frozen=True)
class LossBreakdown:
    bpr: dict[str, float]
    rrm: float
    orm: float
    main: float
    reg: float
    total: float

    def terms(self) -> dict[str, float]:
        """Every term by its log name, the constituents before the total."""
        return {
            "main": self.main,
            "reg": self.reg,
            "rrm": self.rrm,
            "orm": self.orm,
            **{f"bpr_{b}": v for b, v in self.bpr.items()},
            "total": self.total,
        }


@dataclass
class GradientBuffer:
    d_user: np.ndarray
    d_item: np.ndarray


# ----------------------------------------------------------------------
# BPR
# ----------------------------------------------------------------------

def _check_triplets(triplets: np.ndarray) -> np.ndarray:
    triplets = np.asarray(triplets, dtype=np.int64)
    if triplets.ndim != 2 or triplets.shape[1] != 3:
        raise ValueError("triplets must be an (n, 3) array")
    if triplets.shape[0] == 0:
        raise ValueError("empty triplet list")
    return triplets


def _margins(P: np.ndarray, Q: np.ndarray, triplets: np.ndarray) -> np.ndarray:
    users, pos, neg = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    return np.einsum("ij,ij->i", P[users], Q[pos] - Q[neg])


def _scatter_margin_grads(
    d_P: np.ndarray,
    d_Q: np.ndarray,
    P: np.ndarray,
    Q: np.ndarray,
    triplets: np.ndarray,
    coef: np.ndarray,
) -> None:
    """Accumulate coef_t * d(margin_t)/d(P, Q) into the buffers.

    Each buffer takes one sparse (rows x triplets) product: column t holds
    coef_t at user t for P, and coef_t at pos t and -coef_t at neg t for Q,
    so repeated rows sum inside the product.
    """
    users, pos, neg = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    n = len(triplets)
    cols = np.arange(n + 1)
    to_users = sp.csc_matrix((coef, users, cols), shape=(P.shape[0], n))
    d_P += to_users @ (Q[pos] - Q[neg])
    to_items = sp.csc_matrix(
        (np.column_stack((coef, -coef)).ravel(), triplets[:, 1:].ravel(), 2 * cols),
        shape=(Q.shape[0], n),
    )
    d_Q += to_items @ P[users]


def _bpr_risk(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean -log sigmoid(m) over the margins and its derivative per margin.

    Uses logaddexp for the log-sigmoid so large margins neither overflow nor
    lose the gradient's sign.
    """
    return float(np.mean(np.logaddexp(0.0, -m))), -expit(-m) / len(m)


def bpr_loss(
    P: np.ndarray, Q: np.ndarray, triplets: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean -log sigmoid(score margin) and its gradient."""
    triplets = _check_triplets(triplets)
    loss, d_m = _bpr_risk(_margins(P, Q, triplets))
    d_P = np.zeros_like(P)
    d_Q = np.zeros_like(Q)
    _scatter_margin_grads(d_P, d_Q, P, Q, triplets, d_m)
    return loss, d_P, d_Q


# ----------------------------------------------------------------------
# Target-anchored contrastive alignment (user side only)
# ----------------------------------------------------------------------

def _unit_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(X, axis=1), _NORM_FLOOR)
    return X / norms[:, None], norms


def rrm_loss(
    user_embs: dict[str, np.ndarray],
    target: str,
    batch_users: np.ndarray,
    tau: float,
    mode: str = "with_positive",
    *,
    backward: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    """InfoNCE-style alignment of auxiliary user embeddings to the target.

    For each auxiliary behavior b and batch user u the positive logit is
    cos(p_u^b, p_u^target)/tau and the negatives are cos(p_u^b, p_v^b)/tau
    over the other batch users v.  ``with_positive`` includes the positive
    term in the denominator (bounded below); ``literal`` uses the
    negatives-only denominator.  The loss is averaged over batch users and
    auxiliary behaviors; gradients flow into every passed embedding matrix,
    the target one included.  Without ``backward`` only the value is
    computed and the gradient dict is empty.  ``batch_users`` must be
    distinct: a repeated user would be its own negative.
    """
    if mode not in RRM_MODES:
        raise ValueError(f"mode must be one of {RRM_MODES}")
    if target not in user_embs:
        raise KeyError(f"target behavior {target!r} missing from embeddings")
    batch_users = np.asarray(batch_users, dtype=np.int64)
    aux = [b for b in user_embs if b != target]
    grads = {b: np.zeros_like(E) for b, E in user_embs.items()} if backward else {}
    if not aux:
        log.warning("alignment loss skipped: no auxiliary behaviors")
        return 0.0, grads
    n = len(batch_users)
    if n < 2:
        raise ValueError("alignment loss needs at least 2 batch users")
    if len(np.unique(batch_users)) != n:
        raise ValueError("alignment loss needs distinct batch users")

    scale = 1.0 / (len(aux) * n)
    Y = user_embs[target][batch_users]
    Y_hat, y_norm = _unit_rows(Y)
    d_Y = np.zeros_like(Y)
    total = 0.0
    # the n x n logits are walked in blocks of rows, one reused buffer
    rows = min(n, max(1, ALIGN_BLOCK_SCORES // n))
    buf = np.empty((rows, n))
    for b in aux:
        X_hat, x_norm = _unit_rows(user_embs[b][batch_users])
        # a copy, not a view: a one-block batch's X_hat @ X_hat.T goes to syrk
        X_hat_t = X_hat.T.copy()

        c_pos = np.einsum("ij,ij->i", X_hat, Y_hat)
        z_pos = c_pos / tau
        denom = np.empty(n)
        n1 = np.zeros_like(X_hat) if backward else None
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            W = np.matmul(X_hat[lo:hi], X_hat_t, out=buf[: hi - lo])  # cosines
            W /= tau
            np.fill_diagonal(W[:, lo:hi], -np.inf)  # a user is never its own negative

            row_max = np.max(W, axis=1)
            W -= row_max[:, None]
            np.exp(W, out=W)  # exp(Z - row_max)
            lse_neg = row_max + np.log(np.sum(W, axis=1))
            if mode == "with_positive":
                denom[lo:hi] = np.logaddexp(z_pos[lo:hi], lse_neg)
            else:
                denom[lo:hi] = lse_neg
            if not backward:
                continue
            W *= np.exp(row_max - denom[lo:hi])[:, None]  # exp(Z - denom), zero diagonal

            # negatives: logits Z_ij touch X_i and X_j symmetrically, so the
            # weights enter as W + W.T: the block's rows give its users' row
            # side, and its columns add to every user's column side
            n1[lo:hi] += W @ X_hat
            n1 += W.T @ X_hat[lo:hi]
        total += float(np.sum(-z_pos + denom)) * scale
        if not backward:
            continue

        # d z_pos / dX and dY (cosine chain rule)
        if mode == "with_positive":
            g_pos = -1.0 + np.exp(z_pos - denom)
        else:
            g_pos = np.full(n, -1.0)
        gp = (scale * g_pos)[:, None]
        d_X = gp * (Y_hat - c_pos[:, None] * X_hat) / (tau * x_norm[:, None])
        d_Y += gp * (X_hat - c_pos[:, None] * Y_hat) / (tau * y_norm[:, None])

        # the cosine chain rule's radial part: with C_ij = x_i . x_j, the row
        # plus column sums of (W * C) are x_i . n1_i
        n2 = np.einsum("ij,ij->i", X_hat, n1)[:, None] * X_hat
        d_X += scale * (n1 - n2) / (tau * x_norm[:, None])

        grads[b][batch_users] += d_X  # batch users are distinct
    if backward:
        grads[target][batch_users] += d_Y
    return total, grads


# ----------------------------------------------------------------------
# Cross-behavior invariance penalties
# ----------------------------------------------------------------------

def _orm_scope(behaviors, scope: str, target: str) -> list[str]:
    """The behaviors an invariance penalty covers: all of them, or all but
    the target under ``aux_only``."""
    if scope not in ORM_SCOPES:
        raise ValueError(f"scope must be one of {ORM_SCOPES}")
    return [b for b in behaviors if scope == "all_behaviors" or b != target]


def orm_loss(
    risks: dict[str, float], scope: str, target: str
) -> tuple[float, dict[str, float]]:
    """Variance of per-behavior risks and its exact partials.

    ``all_behaviors``: population variance (1/|B|) sum_b (L_b - mean)^2.
    ``aux_only``: (1/(|B|-1)) sum over non-target behaviors, with the mean
    still taken over all behaviors.  Partials account for each risk's
    effect through the shared mean.
    """
    in_scope = _orm_scope(risks, scope, target)
    if len(risks) < 2:
        raise ValueError("risk variance needs at least 2 behaviors")
    if not in_scope:
        raise ValueError("aux_only scope has no auxiliary risks")
    keys = list(risks)
    denom = len(keys) if scope == "all_behaviors" else len(keys) - 1
    values = np.array([risks[b] for b in keys], dtype=np.float64)
    if np.ptp(values) == 0.0:  # equal risks: exactly zero, no rounding residue
        return 0.0, {b: 0.0 for b in keys}
    mean = values.mean()
    dev = {b: risks[b] - mean for b in keys}
    value = sum(dev[b] ** 2 for b in in_scope) / denom
    scope_dev_sum = sum(dev[b] for b in in_scope)
    n = len(keys)
    partials = {
        b: (2.0 / denom) * ((dev[b] if b in in_scope else 0.0) - scope_dev_sum / n)
        for b in keys
    }
    return float(value), partials


def _irm_term(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared d(risk)/dw at w=1 for scores scaled by a scalar w, and its
    derivative per margin.

    risk(w) = mean softplus(-w * m); at w = 1 its derivative is
    g = -(1/n) sum m * sigmoid(-m), so the term is g^2 with d/dm = 2 g dg/dm.
    ``irm_v1`` (trainable multiplier evaluated at w = 1) and ``irm_v2``
    (multiplier frozen at 1) share this term: with a parameter-free
    dot-product predictor their numerics are identical.
    """
    n = len(m)
    s = expit(-m)
    g = float(-np.sum(m * s) / n)
    # d/dm of each term -m*s/n, with ds/dm = -s(1-s)
    dg_dm = -(s - m * s * (1.0 - s)) / n
    return g * g, 2.0 * g * dg_dm


# ----------------------------------------------------------------------
# Fusion and the main objective
# ----------------------------------------------------------------------

def fuse(
    P_by_behavior: dict[str, np.ndarray], Q_by_behavior: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight mean of the behavior-specific embeddings."""
    if not P_by_behavior:
        raise ValueError("fusion needs at least one behavior")
    z_u = np.mean(list(P_by_behavior.values()), axis=0)
    z_i = np.mean(list(Q_by_behavior.values()), axis=0)
    return z_u, z_i


def main_loss(
    fused_user: np.ndarray,
    fused_item: np.ndarray,
    triplets: np.ndarray,
    state: ModelState,
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BPR over fused target scores plus L2 on the base tables.

    Returns (loss, reg_term, d_fused_user, d_fused_item, d_user_emb,
    d_item_emb); the L2 gradient acts on the base parameters directly, not
    through propagation.
    """
    bpr, d_zu, d_zi = bpr_loss(fused_user, fused_item, triplets)
    lam = state.hp.lambda_reg
    reg = lam * (
        float(np.sum(state.user_emb**2)) + float(np.sum(state.item_emb**2))
    )
    d_user = 2.0 * lam * state.user_emb
    d_item = 2.0 * lam * state.item_emb
    return bpr + reg, reg, d_zu, d_zi, d_user, d_item


# ----------------------------------------------------------------------
# Full forward/backward pass
# ----------------------------------------------------------------------

class ObjectiveError(DatasetError):
    """A constituent of the total objective failed on the batch it was given,
    a data error; the message names it."""


def total_loss(
    state: ModelState,
    graphs: dict[str, BehaviorGraph],
    batch: TripletBatch,
    batch_users: np.ndarray,
    target: str,
) -> tuple[LossBreakdown, GradientBuffer]:
    """One full forward and backward pass over a batch.

    Propagates every behavior graph, computes per-behavior BPR risks, the
    alignment loss over batch users, the configured invariance penalty, and
    the fused main loss, then pushes every gradient path back through the
    propagation adjoint into one buffer shaped like the base tables.
    """
    hp = state.hp
    behaviors = list(graphs)
    if target not in behaviors:
        raise ObjectiveError(f"target behavior {target!r} has no graph")

    embs = {
        b: propagate(graphs[b], state.user_emb, state.item_emb, hp.num_layers)
        for b in behaviors
    }

    sampled = [
        b
        for b in behaviors
        if b in batch.per_behavior and len(batch.per_behavior[b]) > 0
    ]
    trips: dict[str, np.ndarray] = {}
    margins: dict[str, np.ndarray] = {}
    risks: dict[str, float] = {}
    d_risks: dict[str, np.ndarray] = {}
    for b in sampled:
        trips[b] = _check_triplets(batch.per_behavior[b])
        margins[b] = _margins(embs[b].P, embs[b].Q, trips[b])
        risks[b], d_risks[b] = _bpr_risk(margins[b])

    # alignment term
    aux = [b for b in behaviors if b != target]
    if aux and len(batch_users) >= 2:
        # at lambda_rrm = 0 only the value is used: it still reaches the log
        rrm_val, rrm_grads = rrm_loss(
            {b: embs[b].P for b in behaviors}, target, batch_users, hp.tau,
            hp.rrm_denominator, backward=hp.lambda_rrm != 0.0,
        )
    else:
        if aux:
            log.warning("alignment loss skipped: batch has fewer than 2 users")
        else:
            log.debug("alignment loss skipped: no auxiliary behaviors")
        rrm_val, rrm_grads = 0.0, {}

    # invariance term, kept per behavior as (weight, d(term)/d(margin)) so one
    # scatter serves every variant in the backward pass
    orm_val = 0.0
    orm_terms: dict[str, tuple[float, np.ndarray]] = {}
    if hp.irm_variant == "rex":
        # two distinct sampled behaviors include an auxiliary one, so either
        # scope of the variance is nonempty
        if len(sampled) >= 2:
            orm_val, partials = orm_loss(risks, hp.orm_scope, target)
            orm_terms = {b: (w, d_risks[b]) for b, w in partials.items()}
        else:
            log.debug("invariance penalty skipped: fewer than 2 sampled risks")
    else:  # irm_v1 and irm_v2 share one penalty
        scope = _orm_scope(sampled, hp.orm_scope, target)
        for b in scope:
            term, d_m = _irm_term(margins[b])
            orm_val += term
            orm_terms[b] = (1.0, d_m)
        if not scope:
            log.debug("invariance penalty skipped: no sampled behaviors in scope")

    # fused main term
    z_u, z_i = fuse({b: embs[b].P for b in behaviors}, {b: embs[b].Q for b in behaviors})
    try:
        main_val, reg_val, d_zu, d_zi, d_user_reg, d_item_reg = main_loss(
            z_u, z_i, batch.main, state
        )
    except ValueError as exc:
        raise ObjectiveError(f"main loss: {exc}") from exc

    total = main_val + hp.lambda_rrm * rrm_val + hp.lambda_orm * orm_val

    # ---- backward ----
    # fuse takes the mean over behaviors, so each cotangent starts from 1/|B|
    # of the fused one; the alignment and invariance terms add to it
    outs = []
    for b in behaviors:
        d_P, d_Q = d_zu / len(behaviors), d_zi / len(behaviors)
        if b in rrm_grads:
            d_P += hp.lambda_rrm * rrm_grads[b]
        if b in orm_terms and hp.lambda_orm != 0.0:
            w, d_m = orm_terms[b]
            _scatter_margin_grads(
                d_P, d_Q, embs[b].P, embs[b].Q, trips[b], hp.lambda_orm * w * d_m
            )
        outs.append(propagate_adjoint(graphs[b], d_P, d_Q, hp.num_layers))
    d_user = sum(g.P for g in outs) + d_user_reg
    d_item = sum(g.Q for g in outs) + d_item_reg

    breakdown = LossBreakdown(
        bpr=risks, rrm=rrm_val, orm=orm_val, main=main_val, reg=reg_val, total=total
    )
    return breakdown, GradientBuffer(d_user=d_user, d_item=d_item)
