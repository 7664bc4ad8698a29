"""Training objectives and their exact gradients with respect to the base
embedding tables.

The total objective is

    total = main + lambda_rrm * rrm + lambda_orm * orm

where ``main`` is BPR over fused target scores (`main_loss`) plus an L2
term on the base tables, ``rrm`` is a target-anchored contrastive alignment
loss over user embeddings, and ``orm`` is a cross-behavior invariance
penalty: either the variance of per-behavior BPR risks (``rex``) or a
squared risk-gradient penalty with respect to a scalar score multiplier
frozen at 1 (``irm_v1`` / ``irm_v2``).  Per-behavior BPR risks are always
reported but enter the gradient only through the invariance penalty.
`total_loss` alone composes the objective: it decides which terms run on a
batch and computes the L2 term's value and gradient.

All gradients here are derived by hand and are validated against central
finite differences in the test suite; everything runs in float64.

`total_loss` streams the behaviors through one `graph.Workspace`: each
behavior is propagated into the same buffers, the rows the losses read are
gathered, and its tables are added to the fused sum before the next one is
propagated.  A step holds three table-sized buffers (four from three
propagation layers on): the fused sum, the propagation result and one
scratch table, because the last propagation layer is streamed in row
blocks.  Every BPR-style term, main and invariance alike, returns its
`_gather` rows and a derivative per margin, which the backward pass
scatters into each cotangent with `_scatter_margin_grads`: no loss term
writes a table.  A batch user's row of a behavior is gathered once, for the
alignment term and that behavior's BPR rows alike, and the alignment
gradient is formed in place.  Arrays returned with a workspace are views of
its buffers, valid until its next use.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import DatasetError
from .graph import (
    PROPAGATED,
    SCRATCH,
    BehaviorEmbeddings,
    BehaviorGraph,
    Workspace,
    _spmm_into,
    propagate,
    propagate_adjoint,
)

IRM_VARIANTS = ("rex", "irm_v1", "irm_v2")
ORM_SCOPES = ("all_behaviors", "aux_only")
RRM_MODES = ("with_positive", "literal")
# the choice-valued hyperparameters and their values
CHOICES = {"irm_variant": IRM_VARIANTS, "orm_scope": ORM_SCOPES, "rrm_denominator": RRM_MODES}

_NORM_FLOOR = 1e-30  # cosine guard; embeddings are never legitimately zero
# the largest margin whose exp is finite: 709.782712893384
_LOG_MAX = math.log(sys.float_info.max)
# logits per row block of rrm_loss (rows = this // batch size, at least one):
# of 2^16 to 2^19, all took the same time on the benchmark's train batches
# (1024 and 928 users, single-threaded); 2^17 keeps the block at 1 MiB, and
# 2^16 was 1.15x slower at 2048 users and 1.4x at 4096
ALIGN_BLOCK_SCORES = 1 << 17


def _require_integers(config, *names: str) -> None:
    """Raise `ValueError` unless each named field is an integer (not a bool)."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
        _require_integers(self, "dim", "num_layers", "batch_size", "max_epochs",
                          "patience", "seed")
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
    """A batch's loss terms, and in ``ran`` the optional ones, "rrm" and
    "orm", that were computed (at a zero λ too): the one record of which ran,
    which `training.train` counts.  ``ran`` is not a term: `terms` leaves it out."""

    bpr: dict[str, float]
    rrm: float
    orm: float
    main: float
    reg: float
    total: float
    ran: frozenset[str] = frozenset()

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


def _gather(
    P: np.ndarray, Q: np.ndarray, triplets: np.ndarray, user_rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The rows the triplets' margins read: ``P[users]`` and ``Q[pos] - Q[neg]``;
    ``user_rows``, when given, is ``P[users]`` gathered already."""
    users, pos, neg = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    return P[users] if user_rows is None else user_rows, Q[pos] - Q[neg]


def _scatter_margin_grads(
    d_P: np.ndarray,
    d_Q: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray],
    triplets: np.ndarray,
    coef: np.ndarray,
    workspace: Workspace,
) -> None:
    """Accumulate coef_t * d(margin_t)/d(P, Q) into the buffers, from the
    `_gather` ``rows`` of P and Q.

    Each buffer takes one sparse (rows x triplets) product, formed in a
    scratch buffer of the workspace: column t holds coef_t at user t for P,
    and coef_t at pos t and -coef_t at neg t for Q, so repeated rows sum
    inside the product.
    """
    user_rows, item_diff = rows
    users = triplets[:, 0]
    n = len(triplets)
    cols = np.arange(n + 1)
    to_users = sp.csc_matrix((coef, users, cols), shape=(d_P.shape[0], n))
    d_P += _spmm_into(to_users, item_diff, workspace.get(SCRATCH[0], d_P.shape))
    to_items = sp.csc_matrix(
        (np.column_stack((coef, -coef)).ravel(), triplets[:, 1:].ravel(), 2 * cols),
        shape=(d_Q.shape[0], n),
    )
    d_Q += _spmm_into(to_items, user_rows, workspace.get(SCRATCH[0], d_Q.shape))


def _sigmoid_neg(m: np.ndarray) -> np.ndarray:
    """sigmoid(-m) per margin, bit for bit as SciPy's logistic function
    computes it: ``1 / (1 + exp(m))`` with the C library's ``exp``.

    ``math.exp`` is that ``exp``; ``np.exp``'s SIMD kernel is not, and
    differs from it by an ulp on about 2% of margins.  A margin above
    `_LOG_MAX`, whose ``exp`` overflows, gives exactly 0; NaN stays NaN.
    Computing it here keeps SciPy's special-function module (about 6.5 MiB)
    out of a training process.
    """
    e = np.fromiter(map(math.exp, np.minimum(m, _LOG_MAX).tolist()), np.float64, m.size)
    s = 1.0 / (1.0 + e)
    s[m > _LOG_MAX] = 0.0
    return s


def _bpr_risk(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean -log sigmoid(m) over the margins and its derivative per margin.

    Uses logaddexp for the log-sigmoid so large margins neither overflow nor
    lose the gradient's sign.
    """
    return float(np.mean(np.logaddexp(0.0, -m))), -_sigmoid_neg(m) / len(m)


# ----------------------------------------------------------------------
# Target-anchored contrastive alignment (user side only)
# ----------------------------------------------------------------------

def _unit_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(X, axis=1), _NORM_FLOOR)
    return X / norms[:, None], norms


def rrm_loss(
    user_rows: dict[str, np.ndarray],
    target: str,
    tau: float,
    mode: str = "with_positive",
    *,
    backward: bool = True,
    workspace: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """InfoNCE-style alignment of auxiliary user embeddings to the target.

    ``user_rows[b]`` holds behavior b's n x d rows of the batch users, in
    the same user order for every behavior.  For each auxiliary behavior b
    and batch user u the positive logit is cos(p_u^b, p_u^target)/tau and
    the negatives are cos(p_u^b, p_v^b)/tau over the other batch users v.
    ``with_positive`` includes the positive term in the denominator
    (bounded below); ``literal`` uses the negatives-only denominator.  The
    loss is averaged over batch users and auxiliary behaviors.  The
    gradient of each passed behavior, the target included, is returned in
    the rows' order.  Without ``backward`` only the value is computed and
    the gradient dict is empty.  The users must be distinct: a repeated
    user would be its own negative.  The rows need at least one auxiliary
    behavior and 2 users.

    Comparing every pair of the n batch users costs O(n²·d) per auxiliary
    behavior; the n×n logits are walked in row blocks of one reused buffer
    (``ALIGN_BLOCK_SCORES`` logits), so the scratch does not grow with n².
    That buffer and the two products of each block are ``workspace``'s (a
    fresh workspace when None).  Each auxiliary behavior's gradient is
    formed in place, in its own returned array and the block's freed column
    buffer, and its unit rows, their transpose and the negatives' sum are
    released before the next behavior, so beside the rows passed in and the
    gradients returned the function holds a few n×d arrays at once.
    """
    if mode not in RRM_MODES:
        raise ValueError(f"mode must be one of {RRM_MODES}")
    if target not in user_rows:
        raise KeyError(f"target behavior {target!r} missing from the rows")
    if len({rows.shape for rows in user_rows.values()}) != 1:
        raise ValueError("every behavior needs the rows of the same batch users")
    aux = [b for b in user_rows if b != target]
    Y = user_rows[target]
    n, d = Y.shape
    if not aux:
        raise ValueError("alignment loss needs an auxiliary behavior besides the target")
    if n < 2:
        raise ValueError("alignment loss needs at least 2 batch users")

    scale = 1.0 / (len(aux) * n)
    Y_hat, y_norm = _unit_rows(Y)
    grads = {}
    d_Y = np.zeros_like(Y)
    total = 0.0
    # the n x n logits are walked in blocks of rows, one reused buffer
    rows = min(n, max(1, ALIGN_BLOCK_SCORES // n))
    ws = Workspace() if workspace is None else workspace
    buf = ws.get("align_block", (rows, n))
    for b in aux:
        X_hat, x_norm = _unit_rows(user_rows[b])
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
            n1[lo:hi] += np.matmul(W, X_hat, out=ws.get("align_rows", (hi - lo, d)))
            n1 += np.matmul(W.T, X_hat[lo:hi], out=ws.get("align_cols", (n, d)))
        del X_hat_t
        total += float(np.sum(-z_pos + denom)) * scale
        if backward:
            # d z_pos / dX and dY (cosine chain rule), formed in place in d_X
            # and in "align_cols", free once the blocks are done
            if mode == "with_positive":
                g_pos = -1.0 + np.exp(z_pos - denom)
            else:
                g_pos = np.full(n, -1.0)
            gp = (scale * g_pos)[:, None]
            c = c_pos[:, None]
            tmp = ws.get("align_cols", (n, d))
            d_X = np.multiply(c, X_hat)
            np.subtract(Y_hat, d_X, out=d_X)
            d_X *= gp
            d_X /= tau * x_norm[:, None]
            np.multiply(c, Y_hat, out=tmp)
            np.subtract(X_hat, tmp, out=tmp)
            tmp *= gp
            tmp /= tau * y_norm[:, None]
            d_Y += tmp

            # the cosine chain rule's radial part: with C_ij = x_i . x_j, the
            # row plus column sums of (W * C) are x_i . n1_i
            np.multiply(np.einsum("ij,ij->i", X_hat, n1)[:, None], X_hat, out=tmp)
            np.subtract(n1, tmp, out=tmp)
            tmp *= scale
            tmp /= tau * x_norm[:, None]
            d_X += tmp
            grads[b] = d_X
        del X_hat, n1
    if backward:
        grads[target] = d_Y
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
    if len(risks) < 2:  # 2 distinct keys leave either scope nonempty
        raise ValueError("risk variance needs at least 2 behaviors")
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
    s = _sigmoid_neg(m)
    g = float(-np.sum(m * s) / n)
    # d/dm of each term -m*s/n, with ds/dm = -s(1-s)
    dg_dm = -(s - m * s * (1.0 - s)) / n
    return g * g, 2.0 * g * dg_dm


# ----------------------------------------------------------------------
# Fusion and the main objective
# ----------------------------------------------------------------------

def _add_to_sum(total: np.ndarray, emb: BehaviorEmbeddings, first: bool) -> None:
    """Add one behavior's tables to a running sum over the stacked (users +
    items) rows of ``total``.  Fusion is this sum in behavior order, divided
    once by the behavior count at the end: ``np.mean``'s arithmetic over the
    stacked tables, without the stack."""
    users, items = total[: emb.P.shape[0]], total[emb.P.shape[0] :]
    if first:
        users[...], items[...] = emb.P, emb.Q
    else:
        users += emb.P
        items += emb.Q


def main_loss(
    fused_user: np.ndarray, fused_item: np.ndarray, triplets: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """BPR risk over fused target scores.

    Returns (risk, rows, d_margin): the fused tables' `_gather` rows and the
    derivative per margin, which `_scatter_margin_grads` turns into the
    fused tables' gradient.
    """
    triplets = _check_triplets(triplets)
    rows = _gather(fused_user, fused_item, triplets)
    risk, d_margin = _bpr_risk(np.einsum("ij,ij->i", *rows))
    return risk, rows, d_margin


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
    workspace: Workspace | None = None,
) -> tuple[LossBreakdown, GradientBuffer]:
    """One full forward and backward pass over a batch.

    Propagates every behavior graph, computes per-behavior BPR risks, the
    alignment loss over batch users, the configured invariance penalty, the
    fused BPR risk and the L2 term, then pushes every gradient path back
    through the propagation adjoint into one buffer shaped like the base
    tables.  Which terms run is decided here alone, from the batch, and the
    breakdown's ``ran`` records it, so no caller or term needs to know.

    The behaviors stream through ``workspace`` (a fresh one when None): each
    is propagated into the same buffers and keeps only the rows the losses
    read, so the step holds three table-sized buffers (the fused tables,
    `graph.PROPAGATED` and ``SCRATCH[0]``; ``SCRATCH[1]`` too from three
    propagation layers on).  The returned gradients are views of them, valid
    until the workspace's next use.  A behavior's batch-user rows are
    gathered once: when its triplets' users are the batch users in order,
    as the sampler draws them for a behavior in which no user was skipped,
    its BPR rows and the alignment term share that array.
    """
    hp = state.hp
    behaviors = list(graphs)
    if target not in behaviors:
        raise ObjectiveError(f"target behavior {target!r} has no graph")
    ws = Workspace() if workspace is None else workspace
    batch_users = np.asarray(batch_users, dtype=np.int64)
    num_users = state.user_emb.shape[0]
    shape = (num_users + state.item_emb.shape[0], state.user_emb.shape[1])

    # per behavior, in graph order (it orders the variance's sum and bpr_*):
    # the batch users' rows for the alignment term and, for a sampled
    # behavior, the rows its triplets read; then its tables join the sum.
    # The sampler draws in batch order, so triplets whose users are the batch
    # users read the alignment rows themselves, made read-only: an in-place
    # write to them would corrupt both terms' backward pass
    aligned = len(batch_users) >= 2 and len(behaviors) > 1
    align_rows, trips, rows, margins, risks, d_risks = {}, {}, {}, {}, {}, {}
    fused = ws.get("fused", shape)
    for k, b in enumerate(behaviors):
        emb = propagate(graphs[b], state.user_emb, state.item_emb, hp.num_layers,
                        workspace=ws)
        if aligned:
            align_rows[b] = emb.P[batch_users]
        if len(batch.per_behavior.get(b, ())):
            trips[b] = _check_triplets(batch.per_behavior[b])
            shared = None
            if aligned and np.array_equal(trips[b][:, 0], batch_users):
                shared = align_rows[b]
                shared.flags.writeable = False
            rows[b] = _gather(emb.P, emb.Q, trips[b], shared)
            margins[b] = np.einsum("ij,ij->i", *rows[b])
            risks[b], d_risks[b] = _bpr_risk(margins[b])
        _add_to_sum(fused, emb, first=k == 0)
    fused /= len(behaviors)

    # alignment: on every batch of 2 or more users with an auxiliary behavior;
    # at lambda_rrm = 0 only its value is used, for the log.  Its input is the
    # gathered rows, so the users are checked here: a repeated user would be
    # its own negative
    if aligned:
        if len(np.unique(batch_users)) != len(batch_users):
            raise ValueError("alignment loss needs distinct batch users")
        rrm_val, rrm_grads = rrm_loss(align_rows, target, hp.tau, hp.rrm_denominator,
                                      backward=hp.lambda_rrm != 0.0, workspace=ws)
    else:
        rrm_val, rrm_grads = 0.0, {}

    # invariance term, kept per behavior as (weight, d(term)/d(margin)) so one
    # scatter serves every variant in the backward pass
    orm_val = 0.0
    orm_terms: dict[str, tuple[float, np.ndarray]] = {}
    if hp.irm_variant != "rex":  # irm_v1 and irm_v2 share one penalty
        for b in _orm_scope(risks, hp.orm_scope, target):
            term, d_m = _irm_term(margins[b])
            orm_val += term
            orm_terms[b] = (1.0, d_m)
    elif len(risks) >= 2:
        orm_val, partials = orm_loss(risks, hp.orm_scope, target)
        orm_terms = {b: (w, d_risks[b]) for b, w in partials.items()}

    # fused main term
    try:
        main_trips = _check_triplets(batch.main)
        risk, main_rows, d_main = main_loss(fused[:num_users], fused[num_users:],
                                            main_trips)
    except ValueError as exc:
        raise ObjectiveError(f"main loss: {exc}") from exc

    # ---- backward ----
    # fusion is the mean over behaviors, so each cotangent starts from 1/|B|
    # of the main term's scatter, then the alignment and invariance terms add
    # to it, in the buffer the adjoint starts from; the adjoints, in behavior
    # order, are summed from zeros in the fused tables' buffer, now unread
    cot = ws.get(PROPAGATED, shape)
    d_P, d_Q = cot[:num_users], cot[num_users:]
    grad = fused
    grad.fill(0.0)
    for b in behaviors:
        cot.fill(0.0)
        _scatter_margin_grads(d_P, d_Q, main_rows, main_trips, d_main, ws)
        cot /= len(behaviors)
        if b in rrm_grads:  # the batch users' rows; exact, as they are distinct
            d_P[batch_users] += hp.lambda_rrm * rrm_grads[b]
        if b in orm_terms and hp.lambda_orm != 0.0:
            w, d_m = orm_terms[b]
            _scatter_margin_grads(d_P, d_Q, rows[b], trips[b], hp.lambda_orm * w * d_m, ws)
        _add_to_sum(grad, propagate_adjoint(graphs[b], d_P, d_Q, hp.num_layers,
                                            workspace=ws), first=False)
    d_user, d_item = grad[:num_users], grad[num_users:]

    # L2 on the base tables, value and gradient: it acts on them directly,
    # not through propagation
    sq_user, sq_item = (float(np.sum(np.square(e, out=ws.get(SCRATCH[0], e.shape))))
                        for e in (state.user_emb, state.item_emb))
    reg_val = hp.lambda_reg * (sq_user + sq_item)
    for d, e in ((d_user, state.user_emb), (d_item, state.item_emb)):
        d += np.multiply(e, 2.0 * hp.lambda_reg, out=ws.get(SCRATCH[0], e.shape))

    main_val = risk + reg_val
    total = main_val + hp.lambda_rrm * rrm_val + hp.lambda_orm * orm_val
    ran = frozenset(name for name, did in (("rrm", aligned), ("orm", orm_terms)) if did)
    breakdown = LossBreakdown(bpr=risks, rrm=rrm_val, orm=orm_val, main=main_val,
                              reg=reg_val, total=total, ran=ran)
    return breakdown, GradientBuffer(d_user=d_user, d_item=d_item)
