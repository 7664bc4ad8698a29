"""Every loss against closed forms and central finite differences.

The finite-difference helper here is the independent oracle for all
analytic gradients; closed-form expectations are computed inline from the
defining formulas.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit, logsumexp

import mbrobust
from mbrobust import gradcheck, graph, losses
from mbrobust.gradcheck import max_rel_error, numeric_gradient, run_gradcheck
from mbrobust.graph import Workspace, build_graph, propagate
from mbrobust.data import SplitDataset, split_leave_one_out
from mbrobust.evaluation import evaluate, fused_embeddings
from mbrobust.losses import (
    IRM_VARIANTS,
    ORM_SCOPES,
    RRM_MODES,
    GradientBuffer,
    Hyperparameters,
    ModelState,
    ObjectiveError,
    TripletBatch,
    _irm_term,
    _scatter_margin_grads,
    _sigmoid_neg,
    main_loss,
    orm_loss,
    rrm_loss,
    total_loss,
)
from mbrobust.synthetic import planted_dataset
from mbrobust.training import TripletSampler, adam_step, init_optimizer

import align_reference
from conftest import make_dataset


class TestHyperparameters:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            Hyperparameters(tau=0.0)
        with pytest.raises(ValueError, match="lambda_orm"):
            Hyperparameters(lambda_orm=-0.1)
        with pytest.raises(ValueError, match="irm_variant"):
            Hyperparameters(irm_variant="rex2")
        with pytest.raises(ValueError, match="layer count"):
            Hyperparameters(num_layers=-1)

    @pytest.mark.parametrize("field, value, message", [
        ("tau", math.nan, "temperature"),
        ("tau", math.inf, "temperature"),
        ("lr", -1.0, "learning rate"),
        ("lr", 0.0, "learning rate"),
        ("lr", math.inf, "learning rate"),
        ("lr", math.nan, "learning rate"),
        ("lambda_rrm", math.inf, "lambda_rrm"),
        ("lambda_orm", math.nan, "lambda_orm"),
        ("lambda_reg", math.nan, "lambda_reg"),
    ])
    def test_non_finite_or_non_positive_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            Hyperparameters(**{field: value})


def _bpr_term(P, Q, triplets):
    """`main_loss` on fused tables P and Q, and the gradients with respect to
    them that `_scatter_margin_grads` forms from its rows and d_margin."""
    risk, rows, d_margin = main_loss(P, Q, triplets)
    d_P, d_Q = np.zeros_like(P), np.zeros_like(Q)
    _scatter_margin_grads(d_P, d_Q, rows, np.asarray(triplets), d_margin, Workspace())
    return risk, d_P, d_Q


class TestBprLoss:
    """`main_loss`, the BPR risk over fused tables."""

    def test_equal_scores_give_log_two(self):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(2, 4))
        Q = np.vstack([rng.normal(size=4)] * 2)  # q_i == q_j -> zero margin
        triplets = np.array([[0, 0, 1], [1, 0, 1]])
        loss, _, _ = _bpr_term(P, Q, triplets)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_margin_saturates(self):
        P = np.array([[10.0, 0.0]])
        Q = np.array([[10.0, 0.0], [-10.0, 0.0]])
        loss, dP, dQ = _bpr_term(P, Q, np.array([[0, 0, 1]]))
        assert loss < 1e-10
        assert np.max(np.abs(dP)) < 1e-10
        assert np.max(np.abs(dQ)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        # the scatter of d_margin over the returned rows
        rng = np.random.default_rng(1)
        P = rng.normal(size=(3, 4))
        Q = rng.normal(size=(5, 4))
        triplets = np.array([[0, 0, 1], [1, 2, 3], [2, 4, 0]])
        _, dP, dQ = _bpr_term(P, Q, triplets)
        fd_P = numeric_gradient(lambda: _bpr_term(P, Q, triplets)[0], P)
        fd_Q = numeric_gradient(lambda: _bpr_term(P, Q, triplets)[0], Q)
        assert max_rel_error(dP, fd_P) <= 1e-6
        assert max_rel_error(dQ, fd_Q) <= 1e-6

    def test_empty_triplets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            main_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.empty((0, 3), dtype=int))

    def test_repeated_rows_sum_their_gradients(self):
        # users and items recur across triplets, items as positive in one
        # triplet and negative in another, and once as both in the same one
        rng = np.random.default_rng(4)
        P = rng.normal(size=(3, 4))
        Q = rng.normal(size=(4, 4))
        triplets = np.array([[0, 1, 2], [0, 1, 2], [1, 3, 3], [1, 2, 1],
                             [2, 1, 0], [0, 0, 2]])
        _, dP, dQ = _bpr_term(P, Q, triplets)
        fd_P = numeric_gradient(lambda: _bpr_term(P, Q, triplets)[0], P)
        fd_Q = numeric_gradient(lambda: _bpr_term(P, Q, triplets)[0], Q)
        assert max_rel_error(dP, fd_P) <= 1e-6
        assert max_rel_error(dQ, fd_Q) <= 1e-6


# ±0, the smallest and largest subnormals, ±inf, NaN, the largest margin
# whose exp is finite and its neighbours, and margins whose exp underflows
_SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                  -2.225073858507201e-308, math.inf, -math.inf, math.nan,
                  709.782712893384, *np.nextafter(709.782712893384, [-math.inf, math.inf]),
                  -709.782712893384, -745.1332191019411, -745.2, -746.0, -1e308]


@settings(deadline=None, max_examples=200)
@given(arrays(np.float64, st.integers(0, 64),
              elements=st.one_of(st.sampled_from(_SIGMOID_EDGES),
                                 st.floats(-800.0, 800.0), st.floats())),
       st.integers(0, 2**32 - 1), st.sampled_from([1e-8, 1e-3, 1.0, 30.0, 300.0]))
def test_sigmoid_is_scipy_expit_bit_for_bit(edges, seed, scale):
    # plus random margins: np.exp's SIMD kernel is an ulp off libm on about
    # 2% of them, so a sigmoid built on it fails here
    m = np.concatenate([edges, np.random.default_rng(seed).normal(0.0, scale, 256)])
    got, want = _sigmoid_neg(m), expit(-m)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _rrm_reference(embs, target, users, tau, mode):
    """rrm_loss one (behavior, batch row) at a time: scipy's logsumexp over
    the row's logits, and the cosine chain rule applied per logit."""
    aux = [b for b in embs if b != target]
    scale = 1.0 / (len(aux) * len(users))
    unit = {b: E / np.linalg.norm(E, axis=1)[:, None] for b, E in embs.items()}
    norm = {b: np.linalg.norm(E, axis=1) for b, E in embs.items()}

    def d_cos(b, u, c_b, v):  # d cos(row u of b, row v of c_b) / d (row u of b)
        a, c = unit[b][u], unit[c_b][v]
        return (c - (a @ c) * a) / norm[b][u]

    value = 0.0
    grads = {b: np.zeros_like(E) for b, E in embs.items()}
    for b in aux:
        for u in users:
            others = [v for v in users if v != u]
            z_pos = unit[b][u] @ unit[target][u] / tau
            z_neg = np.array([unit[b][u] @ unit[b][v] / tau for v in others])
            if mode == "with_positive":
                lse = logsumexp(np.append(z_neg, z_pos))
                p_pos = np.exp(z_pos - lse)
            else:
                lse = logsumexp(z_neg)
                p_pos = 0.0
            value += scale * (lse - z_pos)
            g = scale * (p_pos - 1.0) / tau
            grads[b][u] += g * d_cos(b, u, target, u)
            grads[target][u] += g * d_cos(target, u, b, u)
            for v, z in zip(others, z_neg):
                g = scale * np.exp(z - lse) / tau
                grads[b][u] += g * d_cos(b, u, b, v)
                grads[b][v] += g * d_cos(b, v, b, u)
    return value, grads


class TestRrmLoss:
    @staticmethod
    def _blocks(monkeypatch, rows, n):
        """Walk n batch users in blocks of ``rows`` (None: one block)."""
        if rows is not None:
            monkeypatch.setattr(losses, "ALIGN_BLOCK_SCORES", rows * n)

    @pytest.mark.parametrize("mode, tau, rows", [
        pytest.param(m, t, r, id=f"{m}-{t}" + (f"-rows{r}" if r else ""))
        for r in (None, 3) for m in RRM_MODES for t in (0.2, 1e-3)
    ])
    def test_matches_per_row_reference(self, mode, tau, rows, monkeypatch):
        # tau = 1e-3 puts logits near 1000, where an unshifted exp overflows
        rng = np.random.default_rng(5)
        embs = {b: rng.normal(size=(80, 8)) for b in ("view", "cart", "buy")}
        users = rng.permutation(80)[:64]  # 3-row blocks leave a ragged last one
        self._blocks(monkeypatch, rows, len(users))
        batch_rows = {b: E[users] for b, E in embs.items()}
        value, grads = rrm_loss(batch_rows, "buy", tau, mode)
        ref_value, ref_grads = _rrm_reference(embs, "buy", users, tau, mode)
        assert math.isfinite(value)
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert rrm_loss(batch_rows, "buy", tau, mode, backward=False)[0] == value
        for b in embs:
            # the gradient holds the batch rows, in batch order
            ref = ref_grads[b][users]
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(grads[b] - ref)) <= 1e-12 * scale, b

    def test_perfect_alignment_orthogonal_negatives_closed_form(self):
        # aux embeddings orthogonal across users, target equal to aux:
        # per-user loss is -log(e^{1/tau} / (e^{1/tau} + (n-1)))
        n, tau = 4, 0.5
        aux = np.eye(n)
        embs = {"view": aux.copy(), "buy": aux.copy()}
        loss, _ = rrm_loss(embs, "buy", tau, "with_positive")
        expected = -math.log(
            math.exp(1 / tau) / (math.exp(1 / tau) + (n - 1) * 1.0)
        )
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_literal_identical_embeddings_is_zero(self):
        row = np.array([0.3, -0.7, 0.2])
        embs = {"view": np.vstack([row, row]), "buy": np.vstack([row, row])}
        loss, _ = rrm_loss(embs, "buy", 0.2, "literal")
        assert loss == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode, tau, rows", [
        *(pytest.param(m, 0.4, None, id=m) for m in RRM_MODES),
        *(pytest.param(m, t, 3, id=f"{m}-{t}-rows3") for m in RRM_MODES for t in (0.2, 1e-3)),
    ])
    def test_gradient_matches_finite_differences(self, mode, tau, rows, monkeypatch):
        rng = np.random.default_rng(2)
        # 4 users: 3-row blocks leave a ragged last one
        embs = {b: rng.normal(size=(4, 3)) for b in ("view", "cart", "buy")}
        self._blocks(monkeypatch, rows, 4)
        value, grads = rrm_loss(embs, "buy", tau, mode)
        assert rrm_loss(embs, "buy", tau, mode, backward=False)[0] == value
        for b in embs:
            fd = numeric_gradient(lambda: rrm_loss(embs, "buy", tau, mode)[0], embs[b])
            assert max_rel_error(grads[b], fd) <= 1e-6, b

    def test_scratch_stays_below_one_batch_by_batch_matrix(self):
        # the logits are walked in row blocks, so no n x n matrix is ever
        # allocated
        n, d = 2048, 16
        rng = np.random.default_rng(6)
        embs = {b: rng.normal(size=(n, d)) for b in ("view", "cart", "buy")}
        tracemalloc.start()
        try:
            _, grads = rrm_loss(embs, "buy", 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(g.nbytes for g in grads.values()) < n * n * 8

    def test_scale_invariance_of_value(self):
        rng = np.random.default_rng(3)
        embs = {"view": rng.normal(size=(4, 3)), "buy": rng.normal(size=(4, 3))}
        base, _ = rrm_loss(embs, "buy", 0.3)
        scaled = {b: 3.7 * E for b, E in embs.items()}
        value, _ = rrm_loss(scaled, "buy", 0.3)
        assert value == pytest.approx(base, abs=1e-12)

    def test_no_auxiliary_rejected(self):
        # total_loss runs alignment only with an auxiliary behavior
        with pytest.raises(ValueError, match="auxiliary behavior"):
            rrm_loss({"buy": np.ones((3, 2))}, "buy", 0.2)

    def test_single_user_batch_rejected(self):
        embs = {"view": np.ones((1, 2)), "buy": np.ones((1, 2))}
        with pytest.raises(ValueError, match="2 batch users"):
            rrm_loss(embs, "buy", 0.2)

    def test_rows_of_different_batches_rejected(self):
        embs = {"view": np.ones((3, 2)), "buy": np.ones((2, 2))}
        with pytest.raises(ValueError, match="same batch users"):
            rrm_loss(embs, "buy", 0.2)

    @settings(deadline=None, max_examples=120)
    @given(st.integers(2, 300), st.sampled_from([1, 3, 8, 16, 64]),
           st.sampled_from([1e-3, 0.2, 1.0, 5.0]), st.sampled_from(RRM_MODES),
           st.booleans(), st.sampled_from(["one", "two", "many"]), st.integers(1, 3),
           st.integers(0, 3), st.integers(0, 2**32 - 1), st.booleans())
    def test_in_place_gradient_is_the_expression_form_bit_for_bit(
            self, n, d, tau, mode, backward, blocks, num_aux, target_at, seed, stale):
        # the in-place products against the expression form they replaced,
        # over 1, 2 and n row blocks, with a fresh workspace or one whose
        # buffers hold NaN, so that reading a stale entry shows
        rng = np.random.default_rng(seed)
        names = [f"b{k}" for k in range(num_aux + 1)]
        target = names[min(target_at, num_aux)]
        embs = {b: rng.normal(size=(n, d)) for b in names}
        rows = {"one": n, "two": (n + 1) // 2, "many": 1}[blocks]
        ws = Workspace()
        if stale:
            for name, shape in (("align_block", (n, n)), ("align_rows", (n, d)),
                                ("align_cols", (n, d))):
                ws.get(name, shape).fill(np.nan)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(losses, "ALIGN_BLOCK_SCORES", rows * n)
            value, grads = rrm_loss(embs, target, tau, mode, backward=backward, workspace=ws)
        ref_value, ref_grads = align_reference.rrm_loss(embs, target, tau, mode, rows * n,
                                                        backward)
        assert value.hex() == ref_value.hex()
        assert list(grads) == list(ref_grads)
        for b, g in ref_grads.items():
            assert grads[b].tobytes() == g.tobytes(), b


class TestOrmLoss:
    def test_equal_risks_zero_value_zero_partials(self):
        value, partials = orm_loss({"a": 0.4, "b": 0.4, "c": 0.4},
                                   "all_behaviors", "c")
        assert value == 0.0
        assert all(p == 0.0 for p in partials.values())

    def test_two_risk_closed_form(self):
        value, partials = orm_loss({"a": 0.0, "b": 2.0}, "all_behaviors", "b")
        assert value == pytest.approx(1.0, abs=1e-15)
        assert partials["a"] == pytest.approx(-1.0, abs=1e-15)
        assert partials["b"] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("scope", ["all_behaviors", "aux_only"])
    def test_partials_match_finite_differences(self, scope):
        rng = np.random.default_rng(4)
        risks = {f"b{k}": float(rng.uniform(0.1, 2.0)) for k in range(4)}
        target = "b3"
        _, partials = orm_loss(risks, scope, target)
        h = 1e-6
        for b in risks:
            up = dict(risks)
            up[b] += h
            down = dict(risks)
            down[b] -= h
            fd = (orm_loss(up, scope, target)[0] - orm_loss(down, scope, target)[0]) / (
                2 * h
            )
            assert abs(partials[b] - fd) <= 1e-10 * max(1.0, abs(fd))

    def test_aux_only_uses_all_behavior_mean(self):
        # one aux risk L_a, target L_t: value = (L_a - (L_a+L_t)/2)^2 / 1
        value, _ = orm_loss({"aux": 1.0, "tgt": 0.0}, "aux_only", "tgt")
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_fewer_than_two_risks_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            orm_loss({"a": 1.0}, "all_behaviors", "a")


class TestIrmPenalty:
    def test_zero_margins_zero_penalty(self):
        value, d_m = _irm_term(np.zeros(2))
        assert value == 0.0
        assert np.all(d_m == 0.0)

    def test_single_triplet_closed_form(self):
        # margin m: penalty = (m * sigmoid(-m))^2
        m = 1.25
        value, _ = _irm_term(np.array([m]))
        expected = (m * (1.0 / (1.0 + math.exp(m)))) ** 2
        assert value == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        m = np.random.default_rng(5).normal(size=5)
        _, d_m = _irm_term(m)
        assert max_rel_error(d_m, numeric_gradient(lambda: _irm_term(m)[0], m)) <= 1e-5

    def test_v1_and_v2_share_numerics(self):
        results = []
        for variant in ("irm_v1", "irm_v2"):
            ds, graphs, state, batch, users = _two_behavior_setup(
                np.random.default_rng(6), irm_variant=variant
            )
            results.append(total_loss(state, graphs, batch, users, "buy"))
        (b1, g1), (b2, g2) = results
        assert b1 == b2
        assert b1.orm > 0.0
        np.testing.assert_array_equal(g1.d_user, g2.d_user)
        np.testing.assert_array_equal(g1.d_item, g2.d_item)


class TestFuseAndMain:
    def test_total_loss_main_is_main_loss_of_fused_embeddings(self):
        # total_loss and evaluation.fused_embeddings stream one fusion sum,
        # and the L2 term on the base tables joins the fused risk
        graphs, state, sampler = _planted_step_setup()
        rng = np.random.default_rng(22)
        users = rng.permutation(len(state.user_emb))[:64]
        batch = sampler.sample(users, rng)
        breakdown, _ = total_loss(state, graphs, batch, users, "buy")
        reg = state.hp.lambda_reg * (float(np.sum(state.user_emb ** 2))
                                     + float(np.sum(state.item_emb ** 2)))
        risk = main_loss(*fused_embeddings(state, graphs), batch.main)[0]
        assert len(graphs) == 3 and reg > 0.0
        assert breakdown.reg.hex() == reg.hex()
        assert breakdown.main.hex() == (risk + breakdown.reg).hex()

    def test_main_loss_zero_margin_is_log_two(self):
        zu = np.random.default_rng(9).normal(size=(2, 2))
        zi = np.vstack([np.ones(2), np.ones(2)])
        risk, *_ = main_loss(zu, zi, np.array([[0, 0, 1]]))
        assert risk == pytest.approx(math.log(2.0), abs=1e-12)

    def test_regularizer_zero_at_zero_embeddings(self):
        ds = make_dataset({"buy": {(0, 0): 1, (1, 1): 1}}, "buy", num_users=2, num_items=2)
        hp = Hyperparameters(dim=2, num_layers=1, lambda_reg=1.0)
        state = ModelState(np.zeros((2, 2)), np.zeros((2, 2)), hp)
        batch = TripletBatch({"buy": np.array([[0, 0, 1]])}, np.array([[0, 0, 1]]))
        breakdown, grads = total_loss(state, {"buy": build_graph(ds, "buy")}, batch,
                                      np.array([0, 1]), "buy")
        assert breakdown.main == pytest.approx(math.log(2.0), abs=1e-12)
        assert breakdown.reg == 0.0
        assert not np.any(grads.d_user) and not np.any(grads.d_item)

    def test_gradients_match_finite_differences(self):
        # with respect to the fused tables, the risk moves as the scatter of
        # d_margin over the returned rows; the L2 gradient on the base tables
        # is checked through total_loss
        rng = np.random.default_rng(10)
        zu = rng.normal(size=(3, 3))
        zi = rng.normal(size=(4, 3))
        triplets = np.array([[0, 0, 1], [1, 2, 3], [2, 3, 0]])
        _, d_zu, d_zi = _bpr_term(zu, zi, triplets)

        def value():
            return main_loss(zu, zi, triplets)[0]

        assert max_rel_error(d_zu, numeric_gradient(value, zu)) <= 1e-6
        assert max_rel_error(d_zi, numeric_gradient(value, zi)) <= 1e-6


def _two_behavior_setup(rng, lambda_rrm=0.7, lambda_orm=1.1, **hp_kwargs):
    ds = make_dataset(
        {
            "view": {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 0): 1, (4, 3): 1,
                     (5, 4): 1, (0, 5): 1},
            "buy": {(0, 0): 1, (1, 2): 1, (2, 4): 1, (3, 3): 1, (4, 1): 1,
                    (5, 5): 1},
        },
        "buy",
        num_users=6,
        num_items=6,
    )
    graphs = {b: build_graph(ds, b) for b in ds.manifest.behaviors}
    hp = Hyperparameters(
        dim=4, num_layers=1, tau=0.5, lambda_rrm=lambda_rrm,
        lambda_orm=lambda_orm, lambda_reg=0.01, **hp_kwargs,
    )
    state = ModelState(
        rng.normal(0, 0.5, (6, 4)), rng.normal(0, 0.5, (6, 4)), hp
    )
    batch = TripletBatch(
        per_behavior={
            "view": np.array([[0, 0, 2], [1, 1, 0], [3, 0, 1], [4, 3, 0]]),
            "buy": np.array([[0, 0, 1], [1, 2, 0], [2, 4, 0], [3, 3, 2]]),
        },
        main=np.array([[0, 0, 3], [1, 2, 5], [4, 1, 0], [5, 5, 1]]),
    )
    users = np.arange(6)
    return ds, graphs, state, batch, users


class TestTotalLoss:
    def test_target_without_graph_is_objective_error(self):
        ds, graphs, state, batch, users = _two_behavior_setup(np.random.default_rng(9))
        del graphs["buy"]
        with pytest.raises(ObjectiveError, match="target behavior 'buy' has no graph"):
            total_loss(state, graphs, batch, users, "buy")

    def test_batch_without_main_triplets_is_objective_error(self):
        ds, graphs, state, batch, users = _two_behavior_setup(np.random.default_rng(9))
        batch = TripletBatch(batch.per_behavior, np.empty((0, 3), dtype=np.int64))
        with pytest.raises(ObjectiveError, match="^main loss: empty"):
            total_loss(state, graphs, batch, users, "buy")

    def test_switch_off_reduces_to_main_path(self):
        rng = np.random.default_rng(11)
        ds, graphs, state, batch, users = _two_behavior_setup(
            rng, lambda_rrm=0.0, lambda_orm=0.0
        )
        breakdown, grads = total_loss(state, graphs, batch, users, "buy")
        assert breakdown.total == breakdown.main

        # reference: gradient of the main path alone via finite differences
        def main_only():
            b, _ = total_loss(state, graphs, batch, users, "buy")
            return b.main

        fd_user = numeric_gradient(main_only, state.user_emb)
        assert max_rel_error(grads.d_user, fd_user) <= 1e-5

    @pytest.mark.parametrize("mode", RRM_MODES)
    def test_zero_lambda_rrm_takes_the_alignment_value_alone(self, mode, monkeypatch):
        # the logged value is rrm_loss's; everything else, gradients included,
        # matches a batch whose alignment term is skipped outright
        rng = np.random.default_rng(13)
        ds, graphs, state, batch, users = _two_behavior_setup(
            rng, lambda_rrm=0.0, rrm_denominator=mode
        )
        embs = {b: propagate(graphs[b], state.user_emb, state.item_emb, 1).P[users]
                for b in graphs}
        value, _ = rrm_loss(embs, "buy", 0.5, mode)
        skipped, skipped_grads = total_loss(state, graphs, batch, users[:1], "buy")

        def no_backward(*args, backward=True, **kwargs):
            if backward:
                raise AssertionError("rrm_loss computes gradients nobody reads")
            return rrm_loss(*args, backward=False, **kwargs)

        monkeypatch.setattr(losses, "rrm_loss", no_backward)
        breakdown, grads = total_loss(state, graphs, batch, users, "buy")
        assert breakdown.rrm == value > 0.0
        assert replace(breakdown, rrm=0.0, ran=breakdown.ran - {"rrm"}) == skipped
        np.testing.assert_array_equal(grads.d_user, skipped_grads.d_user)
        np.testing.assert_array_equal(grads.d_item, skipped_grads.d_item)

    def test_single_behavior_degenerates_to_main(self):
        rng = np.random.default_rng(12)
        ds = make_dataset({"buy": {(0, 0): 1, (1, 1): 1, (2, 2): 1}}, "buy",
                          num_users=3, num_items=3)
        graphs = {"buy": build_graph(ds, "buy")}
        hp = Hyperparameters(dim=3, num_layers=1, lambda_rrm=1.0, lambda_orm=1.0,
                             lambda_reg=0.0)
        state = ModelState(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), hp)
        batch = TripletBatch(
            per_behavior={"buy": np.array([[0, 0, 1], [1, 1, 2]])},
            main=np.array([[0, 0, 2], [2, 2, 0]]),
        )
        breakdown, _ = total_loss(state, graphs, batch, np.arange(3), "buy")
        assert breakdown.rrm == 0.0
        assert breakdown.orm == 0.0
        assert breakdown.total == breakdown.main

    def test_single_behavior_never_runs_alignment(self, monkeypatch):
        # total_loss alone decides: rrm_loss is not called without an
        # auxiliary behavior, and the breakdown records that it did not run
        rng = np.random.default_rng(18)
        ds = make_dataset({"buy": {(0, 0): 1, (1, 1): 1, (2, 2): 1}}, "buy",
                          num_users=3, num_items=3)
        hp = Hyperparameters(dim=3, num_layers=1, lambda_rrm=1.0)
        state = ModelState(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), hp)
        batch = TripletBatch({"buy": np.array([[0, 0, 1], [1, 1, 2]])},
                             np.array([[0, 0, 2], [2, 2, 0]]))
        monkeypatch.setattr(losses, "rrm_loss",
                            lambda *args, **kwargs: pytest.fail("alignment ran"))
        breakdown, _ = total_loss(state, {"buy": build_graph(ds, "buy")}, batch,
                                  np.arange(3), "buy")
        assert breakdown.rrm == 0.0
        assert "rrm" not in breakdown.ran

    @pytest.mark.parametrize("behaviors, users, hp_kwargs, ran", [
        (("buy",), [0, 1], {}, set()),
        (("buy",), [0, 1], {"irm_variant": "irm_v1"}, {"orm"}),
        (("buy",), [0, 1], {"irm_variant": "irm_v2"}, {"orm"}),
        (("buy",), [0, 1], {"irm_variant": "irm_v1", "orm_scope": "aux_only"}, set()),
        (("view", "cart", "buy"), [0], {}, {"orm"}),
        (("view", "cart", "buy"), [0, 1], {}, {"rrm", "orm"}),
        (("view", "cart", "buy"), [0, 1], {"lambda_rrm": 0.0, "lambda_orm": 0.0},
         {"rrm", "orm"}),
    ], ids=["single-rex", "single-irm_v1", "single-irm_v2", "single-irm_v1-aux_only",
            "three-one_user", "three-two_users", "three-zero_lambdas"])
    def test_breakdown_records_which_terms_ran(self, behaviors, users, hp_kwargs, ran):
        # each user has one item per behavior; its triplet's negative is the next item
        edges = {"view": {(0, 1): 1, (1, 2): 1}, "cart": {(0, 2): 1, (1, 0): 1},
                 "buy": {(0, 0): 1, (1, 1): 1}}
        ds = make_dataset({b: edges[b] for b in behaviors}, "buy", num_users=2,
                          num_items=3)
        rng = np.random.default_rng(21)
        hp = Hyperparameters(dim=3, num_layers=1, **hp_kwargs)
        state = ModelState(rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), hp)
        trips = {b: np.array([[u, i, (i + 1) % 3] for u, i in edges[b] if u in users])
                 for b in behaviors}
        breakdown, _ = total_loss(state, {b: build_graph(ds, b) for b in behaviors},
                                  TripletBatch(trips, trips["buy"]), np.array(users),
                                  "buy")
        assert breakdown.ran == ran

    def test_one_user_batch_without_auxiliary_behavior(self):
        ds = make_dataset({"buy": {(0, 0): 1, (1, 1): 1}}, "buy", num_users=2, num_items=3)
        hp = Hyperparameters(dim=2, num_layers=1, lambda_reg=0.0)
        rng = np.random.default_rng(15)
        state = ModelState(rng.normal(size=(2, 2)), rng.normal(size=(3, 2)), hp)
        batch = TripletBatch({"buy": np.array([[0, 0, 2]])}, np.array([[0, 0, 1]]))
        breakdown, _ = total_loss(state, {"buy": build_graph(ds, "buy")}, batch,
                                  np.array([0]), "buy")
        assert breakdown.rrm == breakdown.orm == 0.0
        assert breakdown.total == breakdown.main

    @pytest.mark.parametrize("scope", ORM_SCOPES)
    @pytest.mark.parametrize("variant", IRM_VARIANTS)
    def test_target_alone_sampled(self, variant, scope):
        # one sampled risk: no variance, and IRM covers the target only when
        # its scope includes the target
        _, graphs, state, batch, users = _two_behavior_setup(
            np.random.default_rng(16), irm_variant=variant, orm_scope=scope
        )
        trips = batch.per_behavior["buy"]
        batch = TripletBatch({"view": np.empty((0, 3), dtype=np.int64), "buy": trips},
                             batch.main)
        breakdown, grads = total_loss(state, graphs, batch, users, "buy")
        assert list(breakdown.bpr) == ["buy"]
        if variant != "rex" and scope == "all_behaviors":
            emb = propagate(graphs["buy"], state.user_emb, state.item_emb, 1)
            margins = np.einsum("ij,ij->i", emb.P[trips[:, 0]],
                                emb.Q[trips[:, 1]] - emb.Q[trips[:, 2]])
            assert breakdown.orm == _irm_term(margins)[0] > 0.0
            return
        assert breakdown.orm == 0.0
        off = replace(state, hp=replace(state.hp, lambda_orm=0.0))
        _, off_grads = total_loss(off, graphs, batch, users, "buy")
        np.testing.assert_array_equal(grads.d_user, off_grads.d_user)
        np.testing.assert_array_equal(grads.d_item, off_grads.d_item)

    @pytest.mark.parametrize("variant", IRM_VARIANTS)
    def test_a_user_without_an_auxiliary_edge_gathers_its_own_rows(self, variant,
                                                                   monkeypatch):
        # user 4 has no view edge, so the view triplets skip it and gather
        # their own rows, while the buy triplets share the alignment rows
        ds = make_dataset(
            {
                "view": {(0, 1): 1, (0, 3): 1, (1, 0): 1, (2, 4): 1, (3, 2): 1,
                         (5, 5): 1, (5, 0): 1},
                "buy": {(0, 0): 1, (1, 2): 1, (2, 4): 1, (3, 3): 1, (4, 1): 1,
                        (5, 5): 1, (4, 0): 1},
            },
            "buy", num_users=6, num_items=6,
        )
        graphs = {b: build_graph(ds, b) for b in ds.manifest.behaviors}
        hp = Hyperparameters(dim=4, num_layers=2, tau=0.5, lambda_rrm=0.7, lambda_orm=1.1,
                             lambda_reg=0.01, irm_variant=variant)
        rng = np.random.default_rng(23)
        state = ModelState(rng.normal(0, 0.5, (6, 4)), rng.normal(0, 0.5, (6, 4)), hp)
        users = rng.permutation(6)
        batch = TripletSampler(SplitDataset(ds, (), ())).sample(users, rng)
        assert not np.array_equal(batch.per_behavior["view"][:, 0], users)
        assert np.array_equal(batch.per_behavior["buy"][:, 0], users)

        seen = {}
        real = losses.rrm_loss

        def spy(user_rows, *args, **kwargs):
            seen.update(user_rows)
            return real(user_rows, *args, **kwargs)

        monkeypatch.setattr(losses, "rrm_loss", spy)
        breakdown, grads = total_loss(state, graphs, batch, users, "buy")
        assert breakdown.ran == {"rrm", "orm"}
        # the shared rows are read-only; the view rows were not shared
        with pytest.raises(ValueError, match="read-only"):
            seen["buy"][0, 0] = 0.0
        assert seen["view"].flags.writeable

        def objective():
            return total_loss(state, graphs, batch, users, "buy")[0].total

        for analytic, table in ((grads.d_user, state.user_emb),
                                (grads.d_item, state.item_emb)):
            fd = numeric_gradient(objective, table)
            assert max_rel_error(analytic, fd) <= gradcheck.DEFAULT_TOLERANCE

    def test_breakdown_recomposes(self):
        rng = np.random.default_rng(13)
        for variant in ("rex", "irm_v1", "irm_v2"):
            ds, graphs, state, batch, users = _two_behavior_setup(
                rng, irm_variant=variant
            )
            b, _ = total_loss(state, graphs, batch, users, "buy")
            recomposed = (
                b.main + state.hp.lambda_rrm * b.rrm + state.hp.lambda_orm * b.orm
            )
            assert abs(b.total - recomposed) <= 1e-12
            assert set(b.bpr) == {"view", "buy"}

    def test_keystone_end_to_end_finite_differences(self):
        rng = np.random.default_rng(14)
        ds, graphs, state, batch, users = _two_behavior_setup(rng)
        _, grads = total_loss(state, graphs, batch, users, "buy")

        def objective():
            b, _ = total_loss(state, graphs, batch, users, "buy")
            return b.total

        fd_user = numeric_gradient(objective, state.user_emb)
        fd_item = numeric_gradient(objective, state.item_emb)
        assert max_rel_error(grads.d_user, fd_user) <= 1e-5
        assert max_rel_error(grads.d_item, fd_item) <= 1e-5

    def test_orm_gradient_vanishes_for_equal_risks(self):
        value, partials = orm_loss({"a": 0.7, "b": 0.7}, "all_behaviors", "b")
        assert value == 0.0 and partials == {"a": 0.0, "b": 0.0}

    @pytest.mark.parametrize("num_layers, block_rows", [(2, 512), (1, 2)])
    def test_every_path_passes_through_the_streamed_layer(self, monkeypatch, num_layers,
                                                         block_rows):
        # 2-row blocks split the 16-node fixture's last layer into 8
        monkeypatch.setattr(graph, "BLOCK_ROWS", block_rows)
        results = run_gradcheck(sizes=((8, 8, 3),), num_layers=num_layers)
        assert len(results) == 12
        assert [r.path for r in results if not r.passed] == []

    def test_corrupted_gradient_path_is_caught(self, monkeypatch):
        def biased(*args):
            breakdown, grads = total_loss(*args)
            return breakdown, GradientBuffer(grads.d_user + 1e-3, grads.d_item)

        # finite differences read only the loss value, which stays true
        monkeypatch.setattr(gradcheck, "total_loss", biased)
        results = run_gradcheck(
            seed=0, sizes=((5, 5, 2),), variants=("rex",),
            modes=("with_positive",), scopes=("all_behaviors",),
        )
        assert len(results) == 1
        assert not results[0].passed
        assert results[0].path == "rex|with_positive|all_behaviors|u5i5b2"


def _planted_step_setup(num_users=400, num_items=300, dim=32, **hp_kwargs):
    """Graphs, a seeded state and a triplet sampler on a planted split."""
    split = split_leave_one_out(planted_dataset(7, num_users=num_users, num_items=num_items))
    ds = split.train
    graphs = {b: build_graph(ds, b) for b in ds.active_behaviors}
    hp = Hyperparameters(dim=dim, num_layers=2, lambda_reg=1e-3, **hp_kwargs)
    rng = np.random.default_rng(17)
    state = ModelState(rng.normal(0, 0.1, (num_users, dim)),
                       rng.normal(0, 0.1, (num_items, dim)), hp)
    return graphs, state, TripletSampler(split)


class TestWorkspaceStep:
    def test_warm_step_allocates_less_than_one_table(self):
        # the batch's own arrays are a few KiB; the tables are 384 KB
        graphs, state, sampler = _planted_step_setup(2000, 1000, dim=16)
        table_bytes = state.user_emb.nbytes + state.item_emb.nbytes
        rng = np.random.default_rng(18)
        opt = init_optimizer(state)
        ws = Workspace()
        for warm in (True, False):
            users = rng.permutation(len(state.user_emb))[:32]
            batch = sampler.sample(users, rng)
            if not warm:
                tracemalloc.start()
            try:
                _, grads = total_loss(state, graphs, batch, users, "buy", ws)
                adam_step(state, opt, grads, 1e-2, ws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < table_bytes

    def test_first_step_holds_four_tables_and_a_half_at_most(self):
        # a fresh workspace's first step allocates its four table-sized
        # buffers (fused, propagated and the scratch pair) and the batch's
        # small arrays; no loss term adds a table of its own
        graphs, state, sampler = _planted_step_setup(2000, 1000, dim=16)
        table_bytes = state.user_emb.nbytes + state.item_emb.nbytes
        rng = np.random.default_rng(18)
        opt = init_optimizer(state)
        users = rng.permutation(len(state.user_emb))[:32]
        batch = sampler.sample(users, rng)
        ws = Workspace()
        tracemalloc.start()
        try:
            _, grads = total_loss(state, graphs, batch, users, "buy", ws)
            adam_step(state, opt, grads, 1e-2, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * table_bytes

    def test_first_step_holds_three_tables_and_a_half_at_most(self):
        # at two layers the step's tables are the fused, the propagated and
        # one scratch table: the last layer's product and Adam's temporaries
        # are the two block buffers (2 x 512 rows, a third of a table here)
        graphs, state, sampler = _planted_step_setup(2000, 1000, dim=16)
        table_bytes = state.user_emb.nbytes + state.item_emb.nbytes
        rng = np.random.default_rng(18)
        opt = init_optimizer(state)
        users = rng.permutation(len(state.user_emb))[:32]
        batch = sampler.sample(users, rng)
        ws = Workspace()
        tracemalloc.start()
        try:
            _, grads = total_loss(state, graphs, batch, users, "buy", ws)
            adam_step(state, opt, grads, 1e-2, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * table_bytes

    def test_warm_step_holds_each_batch_row_once(self):
        # beside its workspace a warm step holds batch-sized arrays alone: a
        # behavior's batch-user rows serve its alignment and BPR terms, and
        # the alignment gradients are formed in place (14.1 n x d arrays
        # here; a second gather per behavior and whole-array gradient
        # expressions take it past 21)
        graphs, state, sampler = _planted_step_setup(2000, 1000, dim=16)
        n = 512
        rng = np.random.default_rng(18)
        ws = Workspace()
        for warm in (True, False):
            users = rng.permutation(len(state.user_emb))[:n]
            batch = sampler.sample(users, rng)
            if not warm:
                tracemalloc.start()
            try:
                total_loss(state, graphs, batch, users, "buy", ws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 15 * n * state.hp.dim * 8

    def test_warm_validation_allocates_less_than_one_table(self):
        # validation ranks in the tables that fusion leaves idle (the
        # propagated and first scratch tables, and a block buffer): after a
        # step and one validation, a second allocates only per-user arrays
        # (0.73 of a table here; float64 copies of the tables, their float32
        # casts and fresh score blocks took it to 8.1)
        graphs, state, sampler = _planted_step_setup(2000, 1000, dim=16)
        split = split_leave_one_out(planted_dataset(7, num_users=2000, num_items=1000))
        table_bytes = state.user_emb.nbytes + state.item_emb.nbytes
        rng = np.random.default_rng(18)
        ws = Workspace()
        users = rng.permutation(len(state.user_emb))[:32]
        _, grads = total_loss(state, graphs, sampler.sample(users, rng), users, "buy", ws)
        adam_step(state, init_optimizer(state), grads, 1e-2, ws)
        reports = []
        for warm in (True, False):
            if not warm:
                tracemalloc.start()
            try:
                reports.append(evaluate(state, split, ks=(10,), pairs=split.validation,
                                        graphs=graphs, workspace=ws))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert reports[0] == reports[1]
        assert peak < table_bytes

    @pytest.mark.parametrize("variant", IRM_VARIANTS)
    def test_a_shared_workspace_gives_the_bits_of_fresh_ones(self, variant):
        # three steps of different batch sizes, with the state updated in
        # between, once through one workspace and once through fresh ones
        results = []
        for shared in (Workspace(), None):
            graphs, state, sampler = _planted_step_setup(irm_variant=variant)
            opt = init_optimizer(state)
            rng = np.random.default_rng(19)
            steps = []
            for n in (64, 37, 64):
                users = rng.permutation(len(state.user_emb))[:n]
                batch = sampler.sample(users, rng)
                breakdown, grads = total_loss(state, graphs, batch, users, "buy", shared)
                steps.append((breakdown, grads.d_user.tobytes(), grads.d_item.tobytes()))
                adam_step(state, opt, grads, 1e-2, shared)
            results.append((steps, state.user_emb.tobytes(), state.item_emb.tobytes()))
        assert results[0] == results[1]

    def test_repeated_batch_users_are_rejected(self):
        graphs, state, sampler = _planted_step_setup()
        users = np.array([3, 5, 3])
        batch = sampler.sample(users, np.random.default_rng(20))
        with pytest.raises(ValueError, match="distinct batch users"):
            total_loss(state, graphs, batch, users, "buy", Workspace())


_IMPORT_PROBE = """
import sys
import numpy as np
import mbrobust as m

m.save_dataset(m.planted_dataset(7), sys.argv[1])
ds = m.load_dataset(sys.argv[1])
m.diagnose(ds)
m.perturb(ds, m.PerturbationSpec("add", 0.2, ("view",), 0))
split = m.split_leave_one_out(ds)
hp = m.Hyperparameters(dim=8, max_epochs=1, seed=3)
rng = np.random.default_rng(3)
sizes = ds.manifest
state = m.ModelState(rng.normal(size=(sizes.num_users, 8)), rng.normal(size=(sizes.num_items, 8)), hp)
m.evaluate(state, split)
m.train(split, m.TrainConfig(hp=hp))
print("scipy.special" in sys.modules)
"""


def test_scipy_special_never_loads(tmp_path):
    # a fresh process, since this one has imported scipy.special already
    src = os.path.dirname(os.path.dirname(mbrobust.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "planted")],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
