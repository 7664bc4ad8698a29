"""Every loss against closed forms and central finite differences.

The finite-difference helper here is the independent oracle for all
analytic gradients; closed-form expectations are computed inline from the
defining formulas.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from mbrobust import gradcheck, losses
from mbrobust.gradcheck import max_rel_error, numeric_gradient, run_gradcheck
from mbrobust.graph import build_graph, propagate
from mbrobust.losses import (
    RRM_MODES,
    GradientBuffer,
    Hyperparameters,
    ModelState,
    ObjectiveError,
    TripletBatch,
    _irm_term,
    bpr_loss,
    fuse,
    main_loss,
    orm_loss,
    rrm_loss,
    total_loss,
)

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


class TestBprLoss:
    def test_equal_scores_give_log_two(self):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(2, 4))
        Q = np.vstack([rng.normal(size=4)] * 2)  # q_i == q_j -> zero margin
        triplets = np.array([[0, 0, 1], [1, 0, 1]])
        loss, _, _ = bpr_loss(P, Q, triplets)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_margin_saturates(self):
        P = np.array([[10.0, 0.0]])
        Q = np.array([[10.0, 0.0], [-10.0, 0.0]])
        loss, dP, dQ = bpr_loss(P, Q, np.array([[0, 0, 1]]))
        assert loss < 1e-10
        assert np.max(np.abs(dP)) < 1e-10
        assert np.max(np.abs(dQ)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        P = rng.normal(size=(3, 4))
        Q = rng.normal(size=(5, 4))
        triplets = np.array([[0, 0, 1], [1, 2, 3], [2, 4, 0]])
        _, dP, dQ = bpr_loss(P, Q, triplets)
        fd_P = numeric_gradient(lambda: bpr_loss(P, Q, triplets)[0], P)
        fd_Q = numeric_gradient(lambda: bpr_loss(P, Q, triplets)[0], Q)
        assert max_rel_error(dP, fd_P) <= 1e-6
        assert max_rel_error(dQ, fd_Q) <= 1e-6

    def test_empty_triplets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bpr_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.empty((0, 3), dtype=int))

    def test_repeated_rows_sum_their_gradients(self):
        # users and items recur across triplets, items as positive in one
        # triplet and negative in another, and once as both in the same one
        rng = np.random.default_rng(4)
        P = rng.normal(size=(3, 4))
        Q = rng.normal(size=(4, 4))
        triplets = np.array([[0, 1, 2], [0, 1, 2], [1, 3, 3], [1, 2, 1],
                             [2, 1, 0], [0, 0, 2]])
        _, dP, dQ = bpr_loss(P, Q, triplets)
        fd_P = numeric_gradient(lambda: bpr_loss(P, Q, triplets)[0], P)
        fd_Q = numeric_gradient(lambda: bpr_loss(P, Q, triplets)[0], Q)
        assert max_rel_error(dP, fd_P) <= 1e-6
        assert max_rel_error(dQ, fd_Q) <= 1e-6


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
        value, grads = rrm_loss(embs, "buy", users, tau, mode)
        ref_value, ref_grads = _rrm_reference(embs, "buy", users, tau, mode)
        assert math.isfinite(value)
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert rrm_loss(embs, "buy", users, tau, mode, backward=False)[0] == value
        for b in embs:
            scale = np.max(np.abs(ref_grads[b]))
            assert np.max(np.abs(grads[b] - ref_grads[b])) <= 1e-12 * scale, b

    def test_duplicate_batch_users_rejected(self):
        embs = {"view": np.eye(3), "buy": np.eye(3)}
        with pytest.raises(ValueError, match="distinct"):
            rrm_loss(embs, "buy", np.array([0, 1, 0]), 0.2)

    def test_perfect_alignment_orthogonal_negatives_closed_form(self):
        # aux embeddings orthogonal across users, target equal to aux:
        # per-user loss is -log(e^{1/tau} / (e^{1/tau} + (n-1)))
        n, tau = 4, 0.5
        aux = np.eye(n)
        embs = {"view": aux.copy(), "buy": aux.copy()}
        users = np.arange(n)
        loss, _ = rrm_loss(embs, "buy", users, tau, "with_positive")
        expected = -math.log(
            math.exp(1 / tau) / (math.exp(1 / tau) + (n - 1) * 1.0)
        )
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_literal_identical_embeddings_is_zero(self):
        row = np.array([0.3, -0.7, 0.2])
        embs = {"view": np.vstack([row, row]), "buy": np.vstack([row, row])}
        loss, _ = rrm_loss(embs, "buy", np.array([0, 1]), 0.2, "literal")
        assert loss == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode, tau, rows", [
        *(pytest.param(m, 0.4, None, id=m) for m in RRM_MODES),
        *(pytest.param(m, t, 3, id=f"{m}-{t}-rows3") for m in RRM_MODES for t in (0.2, 1e-3)),
    ])
    def test_gradient_matches_finite_differences(self, mode, tau, rows, monkeypatch):
        rng = np.random.default_rng(2)
        embs = {
            "view": rng.normal(size=(5, 3)),
            "cart": rng.normal(size=(5, 3)),
            "buy": rng.normal(size=(5, 3)),
        }
        users = np.array([0, 1, 2, 3])  # 3-row blocks leave a ragged last one
        self._blocks(monkeypatch, rows, len(users))
        value, grads = rrm_loss(embs, "buy", users, tau, mode)
        assert rrm_loss(embs, "buy", users, tau, mode, backward=False)[0] == value
        for b in embs:
            fd = numeric_gradient(
                lambda: rrm_loss(embs, "buy", users, tau, mode)[0], embs[b]
            )
            assert max_rel_error(grads[b], fd) <= 1e-6, b

    def test_scratch_stays_below_one_batch_by_batch_matrix(self):
        # the logits are walked in row blocks, so no n x n matrix is ever
        # allocated
        n, d = 2048, 16
        rng = np.random.default_rng(6)
        embs = {b: rng.normal(size=(n, d)) for b in ("view", "cart", "buy")}
        tracemalloc.start()
        try:
            _, grads = rrm_loss(embs, "buy", np.arange(n), 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(g.nbytes for g in grads.values()) < n * n * 8

    def test_scale_invariance_of_value(self):
        rng = np.random.default_rng(3)
        embs = {"view": rng.normal(size=(4, 3)), "buy": rng.normal(size=(4, 3))}
        users = np.arange(4)
        base, _ = rrm_loss(embs, "buy", users, 0.3)
        scaled = {b: 3.7 * E for b, E in embs.items()}
        value, _ = rrm_loss(scaled, "buy", users, 0.3)
        assert value == pytest.approx(base, abs=1e-12)

    def test_no_auxiliary_returns_zero(self):
        embs = {"buy": np.ones((3, 2))}
        loss, grads = rrm_loss(embs, "buy", np.arange(3), 0.2)
        assert loss == 0.0
        assert np.all(grads["buy"] == 0.0)

    def test_single_user_batch_rejected(self):
        embs = {"view": np.ones((3, 2)), "buy": np.ones((3, 2))}
        with pytest.raises(ValueError, match="2 batch users"):
            rrm_loss(embs, "buy", np.array([0]), 0.2)


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
    def test_single_behavior_identity(self):
        P = np.arange(6.0).reshape(2, 3)
        z_u, _ = fuse({"a": P}, {"a": P})
        np.testing.assert_array_equal(z_u, P)

    def test_opposite_embeddings_cancel(self):
        X = np.random.default_rng(7).normal(size=(3, 2))
        z_u, _ = fuse({"a": X, "b": -X}, {"a": X, "b": -X})
        np.testing.assert_allclose(z_u, 0.0, atol=1e-16)

    def test_mean_matches_elementwise_oracle(self):
        rng = np.random.default_rng(8)
        Ps = {f"b{k}": rng.normal(size=(3, 4)) for k in range(3)}
        z_u, _ = fuse(Ps, Ps)
        expected = np.zeros((3, 4))
        for r in range(3):
            for c in range(4):
                expected[r, c] = sum(Ps[b][r, c] for b in Ps) / 3.0
        np.testing.assert_array_equal(z_u, expected)

    def test_main_loss_zero_margin_is_log_two(self):
        hp = Hyperparameters(dim=2, lambda_reg=0.0)
        state = ModelState(np.zeros((2, 2)), np.zeros((2, 2)), hp)
        zu = np.random.default_rng(9).normal(size=(2, 2))
        zi = np.vstack([np.ones(2), np.ones(2)])
        loss, reg, *_ = main_loss(zu, zi, np.array([[0, 0, 1]]), state)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert reg == 0.0

    def test_regularizer_zero_at_zero_embeddings(self):
        hp = Hyperparameters(dim=2, lambda_reg=1.0)
        state = ModelState(np.zeros((2, 2)), np.zeros((2, 2)), hp)
        zu = np.zeros((2, 2))
        zi = np.zeros((2, 2))
        loss, reg, *_ = main_loss(zu, zi, np.array([[0, 0, 1]]), state)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert reg == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        hp = Hyperparameters(dim=3, lambda_reg=0.05)
        state = ModelState(rng.normal(size=(3, 3)), rng.normal(size=(4, 3)), hp)
        zu = rng.normal(size=(3, 3))
        zi = rng.normal(size=(4, 3))
        triplets = np.array([[0, 0, 1], [1, 2, 3], [2, 3, 0]])
        _, _, d_zu, d_zi, d_user, d_item = main_loss(zu, zi, triplets, state)

        def value():
            return main_loss(zu, zi, triplets, state)[0]

        assert max_rel_error(d_zu, numeric_gradient(value, zu)) <= 1e-6
        assert max_rel_error(d_zi, numeric_gradient(value, zi)) <= 1e-6
        assert max_rel_error(d_user, numeric_gradient(value, state.user_emb)) <= 1e-6
        assert max_rel_error(d_item, numeric_gradient(value, state.item_emb)) <= 1e-6


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
        embs = {b: propagate(graphs[b], state.user_emb, state.item_emb, 1).P
                for b in graphs}
        value, _ = rrm_loss(embs, "buy", users, 0.5, mode)
        skipped, skipped_grads = total_loss(state, graphs, batch, users[:1], "buy")

        def no_backward(*args, backward=True, **kwargs):
            if backward:
                raise AssertionError("rrm_loss computes gradients nobody reads")
            return rrm_loss(*args, backward=False, **kwargs)

        monkeypatch.setattr(losses, "rrm_loss", no_backward)
        breakdown, grads = total_loss(state, graphs, batch, users, "buy")
        assert breakdown.rrm == value > 0.0
        assert replace(breakdown, rrm=0.0) == skipped
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
