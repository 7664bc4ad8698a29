"""Adam updates against hand-computed recurrences, sampler contracts, and
the training loop's determinism and bookkeeping."""

import importlib.util
import json
import logging
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrobust import graph, losses, training
from mbrobust.graph import Workspace
from mbrobust.data import (
    DatasetError,
    DatasetManifest,
    SplitDataset,
    drop_behaviors,
    nth_absent,
    split_leave_one_out,
)
from mbrobust.losses import GradientBuffer, Hyperparameters, LossBreakdown, ModelState
from mbrobust.synthetic import planted_dataset
from mbrobust.training import (
    CheckpointError,
    NonFiniteGradientError,
    TrainConfig,
    TripletSampler,
    adam_step,
    format_log,
    init_optimizer,
    load_checkpoint,
    manifest_hash,
    save_checkpoint,
    train,
)

from conftest import make_dataset


def adam_oracle(theta, grads, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step-by-step reference recurrence for a fixed gradient sequence."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def _saturated_view_split():
    """Two users and three items, of which user 0 has every one in "view"."""
    ds = make_dataset(
        {"view": {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1},
         "buy": {(0, 0): 1, (1, 1): 1}},
        "buy", num_users=2, num_items=3,
    )
    return SplitDataset(ds, (), ())


def _state(rng, n_u=3, n_i=4, dim=2):
    hp = Hyperparameters(dim=dim)
    return ModelState(rng.normal(size=(n_u, dim)), rng.normal(size=(n_i, dim)), hp)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        rng = np.random.default_rng(0)
        state = _state(rng)
        before_u = state.user_emb.copy()
        opt = init_optimizer(state)
        grads = GradientBuffer(np.zeros_like(state.user_emb),
                               np.zeros_like(state.item_emb))
        adam_step(state, opt, grads, lr=0.1)
        np.testing.assert_array_equal(state.user_emb, before_u)
        assert opt.step_count == 1

    def test_first_step_matches_closed_form(self):
        rng = np.random.default_rng(1)
        state = _state(rng)
        theta0 = state.user_emb.copy()
        g = rng.normal(size=state.user_emb.shape)
        opt = init_optimizer(state)
        adam_step(state, opt, GradientBuffer(g, np.zeros_like(state.item_emb)), 0.01)
        expected = adam_oracle(theta0, [g], lr=0.01, steps=1)
        np.testing.assert_allclose(state.user_emb, expected, atol=1e-15)

    def test_two_identical_steps_match_hand_recurrence(self):
        rng = np.random.default_rng(2)
        state = _state(rng)
        theta0 = state.item_emb.copy()
        g = rng.normal(size=state.item_emb.shape)
        opt = init_optimizer(state)
        buf = GradientBuffer(np.zeros_like(state.user_emb), g)
        adam_step(state, opt, buf, 0.05)
        adam_step(state, opt, buf, 0.05)
        expected = adam_oracle(theta0, [g, g], lr=0.05, steps=2)
        np.testing.assert_allclose(state.item_emb, expected, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(num_users=st.integers(1, 9), num_items=st.integers(1, 9), dim=st.integers(1, 4),
           block_rows=st.integers(1, 4), steps=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_row_blocks_give_the_bits_of_the_whole_table_update(
            self, num_users, num_items, dim, block_rows, steps, seed):
        # 1-row tables and row counts off the block size included
        rng = np.random.default_rng(seed)
        state = _state(rng, num_users, num_items, dim)
        tables = [state.user_emb.copy(), state.item_emb.copy()]
        moments = [(np.zeros_like(t), np.zeros_like(t)) for t in tables]
        opt = init_optimizer(state)
        with mock.patch.object(graph, "BLOCK_ROWS", block_rows):
            for t in range(1, steps + 1):
                grads = [rng.normal(size=table.shape) for table in tables]
                adam_step(state, opt, GradientBuffer(*grads), 0.01)
                c1, c2 = 1.0 - training.ADAM_BETA1**t, 1.0 - training.ADAM_BETA2**t
                for theta, (m, v), g in zip(tables, moments, grads):
                    # the whole-table update, in adam_step's operations and order
                    m *= training.ADAM_BETA1
                    m += g * (1.0 - training.ADAM_BETA1)
                    v *= training.ADAM_BETA2
                    v += g * (1.0 - training.ADAM_BETA2) * g
                    theta -= m / c1 * 0.01 / (np.sqrt(v / c2) + training.ADAM_EPS)
        for got, want in ((state.user_emb, tables[0]), (state.item_emb, tables[1]),
                          (opt.m_user, moments[0][0]), (opt.v_user, moments[0][1]),
                          (opt.m_item, moments[1][0]), (opt.v_item, moments[1][1])):
            assert got.tobytes() == want.tobytes()

    def test_non_finite_gradient_names_tensor(self):
        rng = np.random.default_rng(3)
        state = _state(rng)
        opt = init_optimizer(state)
        bad = np.zeros_like(state.item_emb)
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteGradientError, match="item embedding"):
            adam_step(state, opt, GradientBuffer(np.zeros_like(state.user_emb), bad),
                      0.01)


class TestSampling:
    def test_forced_negative_with_two_items(self):
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy", num_users=1, num_items=2)
        split = split_leave_one_out(ds)
        batch = TripletSampler(split).sample(np.array([0]), np.random.default_rng(0))
        assert batch.per_behavior["buy"].tolist() == [[0, 0, 1]]
        assert batch.main.tolist() == [[0, 0, 1]]

    def test_user_without_edges_in_behavior_is_skipped(self):
        ds = make_dataset(
            {"view": {(0, 0): 1}, "cart": {(1, 1): 1},
             "buy": {(0, 0): 1, (1, 1): 1}},
            "buy",
        )
        split = split_leave_one_out(ds)
        batch = TripletSampler(split).sample(np.array([0, 1]),
                                             np.random.default_rng(0))
        assert batch.per_behavior["view"][:, 0].tolist() == [0]
        assert batch.per_behavior["cart"][:, 0].tolist() == [1]
        assert sorted(batch.per_behavior["buy"][:, 0].tolist()) == [0, 1]

    def test_triplet_membership_rule(self):
        rng = np.random.default_rng(4)
        ds = planted_dataset(seed=5, num_users=12, num_items=12, num_groups=4,
                             target_per_user=3, aux_per_user=4)
        split = split_leave_one_out(ds)
        sampler = TripletSampler(split)
        for _ in range(10):
            batch = sampler.sample(np.arange(12), rng)
            for b, triplets in batch.per_behavior.items():
                for u, pos, neg in triplets:
                    assert (u, pos) in split.train.edges[b]
                    assert (u, neg) not in split.train.edges[b]
            for u, pos, neg in batch.main:
                assert (u, pos) in split.train.edges["buy"]
                assert (u, neg) not in split.train.edges["buy"]

    def test_complement_fallback_obeys_membership_rule(self, monkeypatch):
        # with one try every rejected candidate falls back to the complement
        monkeypatch.setattr(TripletSampler, "REJECTION_CAP", 1)
        fallbacks = []

        def counted(present, ranks):
            fallbacks.append(ranks)
            return nth_absent(present, ranks)

        monkeypatch.setattr(training, "nth_absent", counted)
        ds = planted_dataset(seed=5, num_users=12, num_items=12, num_groups=4,
                             target_per_user=3, aux_per_user=4)
        split = split_leave_one_out(ds)
        sampler = TripletSampler(split)
        rng = np.random.default_rng(4)
        negatives = {b: set() for b in ds.manifest.behaviors}
        # enough batches for the coverage check below to hold under each of
        # 100 rng seeds (at 40 it held under about a third of them)
        for _ in range(120):
            batch = sampler.sample(np.arange(12), rng)
            for b, triplets in [*batch.per_behavior.items(), ("buy", batch.main)]:
                for u, pos, neg in triplets:
                    assert (u, pos) in split.train.edges[b]
                    assert (u, neg) not in split.train.edges[b]
                    negatives[b].add((int(u), int(neg)))
        assert sampler.saturated_skips == 0
        assert len(fallbacks) > 100
        every_pair = {(u, i) for u in range(12) for i in range(12)}
        for b in ds.manifest.behaviors:  # and reaches every unobserved pair
            assert negatives[b] == every_pair - set(split.train.edges[b])

    def test_saturated_user_is_skipped_and_counted(self):
        # user 0 has every item in "view"; their target triplet is still drawn
        sampler = TripletSampler(_saturated_view_split())
        batch = sampler.sample(np.array([0, 1]), np.random.default_rng(0))
        assert sampler.saturated_skips == 1
        assert batch.per_behavior["view"][:, 0].tolist() == [1]
        assert batch.per_behavior["buy"][:, :2].tolist() == [[0, 0], [1, 1]]
        assert batch.main[:, :2].tolist() == [[0, 0], [1, 1]]
        assert batch.main[0, 2] in (1, 2)

    def test_positive_sampling_is_uniform(self):
        # counts per train positive should sit within 3 sigma of uniform
        items = {(0, i): 1 for i in range(4)}
        ds = make_dataset({"buy": items}, "buy", num_users=1, num_items=8)
        split = split_leave_one_out(ds)
        # fewer than 3 interactions would be held out; 4 -> 2 remain in train
        train_items = sorted(i for _, i in split.train.edges["buy"])
        sampler = TripletSampler(split)
        rng = np.random.default_rng(123)
        n_draws = 400
        counts = {i: 0 for i in train_items}
        for _ in range(n_draws):
            batch = sampler.sample(np.array([0]), rng)
            counts[int(batch.main[0, 1])] += 1
        p = 1.0 / len(train_items)
        sigma = np.sqrt(n_draws * p * (1 - p))
        for i, c in counts.items():
            assert abs(c - n_draws * p) <= 3 * sigma, (i, c)


def scalar_sample(split, batch_users, rng, cap):
    """The reference sampler: one scalar draw at a time, in the loop order
    `TripletSampler.sample` keeps.  Returns the batch and the saturated skips."""
    ds = split.train
    num_items = ds.manifest.num_items
    rows = {b: ds.user_items(b) for b in ds.manifest.behaviors}
    skips = 0

    def draw(b, u):
        nonlocal skips
        indptr, items = rows[b]
        row = items[indptr[u]: indptr[u + 1]]
        if len(row) == 0:
            return None
        pos = int(row[rng.integers(len(row))])
        for _ in range(cap):
            cand = int(rng.integers(num_items))
            if (u, cand) not in ds.edges[b]:
                return pos, cand
        free = num_items - len(row)
        if free == 0:
            skips += 1
            return None
        return pos, int(nth_absent(row, rng.integers(free)))

    per_behavior = {b: [] for b in ds.manifest.behaviors}
    main = []
    for u in batch_users:
        u = int(u)
        for b in ds.manifest.behaviors:
            drawn = draw(b, u)
            if drawn is not None:
                per_behavior[b].append((u, *drawn))
        drawn = draw(ds.manifest.target, u)
        if drawn is not None:
            main.append((u, *drawn))

    def to_array(triplets):
        return np.array(triplets, dtype=np.int64).reshape(-1, 3)

    batch = {b: to_array(t) for b, t in per_behavior.items()}
    return batch, to_array(main), skips


@st.composite
def sampler_cases(draw):
    """Up to 8 x 8 datasets of 1-3 behaviors whose user rows are empty,
    sparse, dense or saturated, with batches of possibly repeated users."""
    num_users = draw(st.integers(1, 8))
    num_items = draw(st.integers(1, 8))
    every_item = frozenset(range(num_items))
    rows = st.one_of(st.just(frozenset()), st.just(every_item),
                     st.frozensets(st.sampled_from(sorted(every_item))))
    names = [f"b{k}" for k in range(draw(st.integers(1, 3)))]
    edges = {
        b: {(u, i): 0 for u in range(num_users) for i in draw(rows)} for b in names
    }
    ds = make_dataset(edges, names[-1], num_users, num_items)
    users = st.lists(st.integers(0, num_users - 1), max_size=12)
    batches = draw(st.lists(users, min_size=1, max_size=3))
    return ds, batches, draw(st.integers(0, 2**32)), draw(st.integers(1, 5))


class TestBulkSampler:
    def test_array_bounds_draw_like_sequential_scalars(self):
        # the sampler's draws rest on this: numpy's array-bound integers
        # yields, and consumes, exactly what one scalar call per bound does
        bounds = np.random.default_rng(0).integers(1, 5000, 300)
        bounds[::7] = 1
        bounds[::11] = 2**40
        bulk, scalar = np.random.default_rng(3), np.random.default_rng(3)
        values = bulk.integers(bounds)
        assert values.tolist() == [int(scalar.integers(int(n))) for n in bounds]
        assert bulk.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("cap", [1, 2, 100])
    @settings(max_examples=60, deadline=None)
    @given(case=sampler_cases())
    def test_matches_the_scalar_loop(self, cap, case):
        ds, batches, seed, window = case
        split = SplitDataset(ds, (), ())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TripletSampler, "REJECTION_CAP", cap)
            mp.setattr(TripletSampler, "WINDOW", window)  # batches cross windows
            sampler = TripletSampler(split)
            bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            skips = 0
            for users in batches:
                got = sampler.sample(np.array(users, dtype=np.int64), bulk)
                per_behavior, main, skipped = scalar_sample(split, users, scalar, cap)
                skips += skipped
                assert got.main.dtype == np.int64
                assert got.main.tolist() == main.tolist()
                assert list(got.per_behavior) == list(per_behavior)
                for b, triplets in per_behavior.items():
                    assert got.per_behavior[b].shape == triplets.shape
                    assert got.per_behavior[b].tolist() == triplets.tolist()
                assert bulk.bit_generator.state == scalar.bit_generator.state
            assert sampler.saturated_skips == skips

    def test_matches_the_scalar_loop_on_a_planted_split(self):
        # 80 users x 4 draws each cross the default window
        split = split_leave_one_out(planted_dataset(seed=2, num_users=80))
        sampler = TripletSampler(split)
        bulk, scalar = np.random.default_rng(8), np.random.default_rng(8)
        for users in np.random.default_rng(0).permuted(np.tile(np.arange(80), (3, 1)),
                                                       axis=1):
            got = sampler.sample(users, bulk)
            per_behavior, main, _ = scalar_sample(split, users, scalar, 100)
            assert got.main.tolist() == main.tolist()
            for b, triplets in per_behavior.items():
                assert got.per_behavior[b].tolist() == triplets.tolist()
            assert bulk.bit_generator.state == scalar.bit_generator.state


# a breakdown over the behaviors of `TestTrainLoop._split`
_ZERO_LOSS = LossBreakdown(bpr={"view": 0.0, "cart": 0.0, "buy": 0.0},
                           rrm=0.0, orm=0.0, main=0.0, reg=0.0, total=0.0)


def test_loss_terms_put_the_constituents_before_the_total():
    assert list(_ZERO_LOSS.terms()) == [
        "main", "reg", "rrm", "orm", "bpr_view", "bpr_cart", "bpr_buy", "total"
    ]


@pytest.mark.parametrize("value", [2.5, True, "3"])
def test_eval_every_must_be_an_integer(value):
    # 2.5 would validate only at epochs 5, 10, ...; True would pass as 1
    with pytest.raises(ValueError, match="eval_every must be an integer"):
        TrainConfig(Hyperparameters(), eval_every=value)


def _perfbench_tracing():
    """The benchmark's span tracer, loaded by path: ``perfbench`` is a
    directory of scripts, not a package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_traces_resolves():
    # the tracer rebinds these names, so removing one must fail here too
    for owner, attr, span, _ in _perfbench_tracing().TARGETS:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_a_traced_train_sees_every_step_span():
    # each step calls the traced names through their module globals: three
    # propagations, three adjoints, one alignment, one invariance (rex) and
    # one main term, plus three propagations to validate
    tracing = _perfbench_tracing()
    split = split_leave_one_out(planted_dataset(7))
    hp = Hyperparameters(dim=8, batch_size=16, max_epochs=1, seed=0, irm_variant="rex")
    with tracing.Tracer().installed() as tracer:
        train(split, TrainConfig(hp=hp, eval_every=1))
    m = tracing.per_layer(tracer.spans)
    steps = m["training.steps"]
    assert steps == m["losses.calls"] == 3  # 40 users in batches of 16
    assert m["graph.propagate_calls"] == 3 * steps + 3
    assert m["graph.adjoint_calls"] == 3 * steps
    spans = [s.name for s in tracer.spans]
    for span in ("losses.rrm", "losses.orm", "losses.main"):
        assert spans.count(span) == steps, span
    assert m["losses.orm_s"] > 0


class TestTrainLoop:
    def _split(self):
        return split_leave_one_out(planted_dataset(seed=3, num_users=16,
                                                   num_items=16, num_groups=4,
                                                   target_per_user=4,
                                                   aux_per_user=5))

    def _hp(self, **kw):
        base = dict(dim=4, num_layers=1, lambda_rrm=0.5, lambda_orm=1.0,
                    lambda_reg=1e-5, lr=0.02, batch_size=16, max_epochs=8,
                    patience=5, seed=0)
        base.update(kw)
        return Hyperparameters(**base)

    def test_zero_epochs_returns_initial_state(self):
        split = self._split()
        state, rows = train(split, TrainConfig(hp=self._hp(max_epochs=0)))
        assert rows == []
        header_only = format_log(rows, list(split.train.manifest.behaviors))
        assert header_only.count("\n") == 1
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
        expected_user = rng.normal(0.0, 0.1, state.user_emb.shape)
        np.testing.assert_array_equal(state.user_emb, expected_user)

    def test_same_seed_bitwise_identical(self):
        split = self._split()
        cfg = TrainConfig(hp=self._hp(), eval_every=2)
        s1, r1 = train(split, cfg)
        s2, r2 = train(split, cfg)
        np.testing.assert_array_equal(s1.user_emb, s2.user_emb)
        np.testing.assert_array_equal(s1.item_emb, s2.item_emb)
        behaviors = list(split.train.manifest.behaviors)

        def strip_seconds(text):
            return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_seconds(format_log(r1, behaviors)) == strip_seconds(
            format_log(r2, behaviors)
        )

    def test_a_shared_workspace_gives_the_bits_of_fresh_ones(self):
        # two runs in a row through one workspace, the second with other
        # table shapes, each against a run through a fresh workspace
        split = self._split()
        shared = Workspace()
        for hp in (self._hp(num_layers=2), self._hp(num_layers=1, dim=6)):
            cfg = TrainConfig(hp=hp, eval_every=2)
            (s1, r1), (s2, r2) = train(split, cfg, shared), train(split, cfg)
            assert s1.user_emb.tobytes() == s2.user_emb.tobytes()
            assert s1.item_emb.tobytes() == s2.item_emb.tobytes()
            assert [replace(r, seconds=0.0) for r in r1] == [replace(r, seconds=0.0) for r in r2]

    def test_loss_decreases_with_small_lr(self):
        split = self._split()
        _, rows = train(split, TrainConfig(hp=self._hp(lr=1e-3, max_epochs=5)))
        totals = [r.total for r in rows]
        assert all(b < a for a, b in zip(totals, totals[1:])), totals

    def test_checkpoint_dominates_final_epoch(self):
        split = self._split()
        cfg = TrainConfig(hp=self._hp(max_epochs=20, lr=0.05), eval_every=2)
        state, rows = train(split, cfg)
        from mbrobust.evaluation import evaluate

        best = evaluate(state, split, ks=(10,), pairs=split.validation)
        evals = [r.val_hr10 for r in rows if r.val_hr10 is not None]
        assert best.hr[10] >= evals[-1]

    def test_non_finite_loss_aborts_before_adam(self, monkeypatch):
        # the main term's value is NaN while every gradient stays finite
        real_main_loss = losses.main_loss

        def nan_main_loss(*args):
            return (float("nan"), *real_main_loss(*args)[1:])

        steps = []
        monkeypatch.setattr(losses, "main_loss", nan_main_loss)
        monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
        with pytest.raises(NonFiniteGradientError, match="non-finite main loss"):
            train(self._split(), TrainConfig(hp=self._hp()))
        assert steps == []

    @pytest.mark.parametrize("term", list(_ZERO_LOSS.terms()))
    def test_each_non_finite_term_is_the_one_named(self, monkeypatch, term):
        # a NaN in one term also makes the total NaN; the term is named first
        real_total_loss = training.total_loss

        def nan_term(*args):
            breakdown, grads = real_total_loss(*args)
            nan = float("nan")
            if term.startswith("bpr_"):
                breakdown = replace(breakdown, bpr={**breakdown.bpr, term[4:]: nan})
            else:
                breakdown = replace(breakdown, **{term: nan})
            return replace(breakdown, total=nan), grads

        steps = []
        monkeypatch.setattr(training, "total_loss", nan_term)
        monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
        with pytest.raises(NonFiniteGradientError, match=f"non-finite {term} loss"):
            train(self._split(), TrainConfig(hp=self._hp()))
        assert steps == []

    def test_skipped_alignment_is_one_warning_per_run(self, caplog):
        # 40 users in batches of 39 leave a batch of 1 user in each of 6 epochs
        split = split_leave_one_out(planted_dataset(seed=7))
        caplog.set_level(logging.WARNING)
        train(split, TrainConfig(hp=self._hp(batch_size=39, max_epochs=6, patience=10)))
        skipped = [r.getMessage() for r in caplog.records if "alignment" in r.getMessage()]
        assert skipped == ["alignment loss skipped on 6 batches of fewer than 2 users"]

    @pytest.mark.parametrize("variant, orm_ran", [("rex", False), ("irm_v1", True)])
    def test_single_behavior_warns_of_the_terms_that_never_ran(self, caplog, variant,
                                                                orm_ran):
        # IRM covers the target alone under all_behaviors and runs; the risk
        # variance needs 2 behaviors and alignment an auxiliary one
        split = split_leave_one_out(planted_dataset(seed=7))
        split = replace(split, train=drop_behaviors(split.train, ("view", "cart")))
        caplog.set_level(logging.WARNING)
        _, rows = train(split, TrainConfig(hp=self._hp(irm_variant=variant, max_epochs=2)))
        messages = [r.getMessage() for r in caplog.records]
        assert [m for m in messages if "alignment" in m] == [
            "alignment never ran on any batch"]
        assert [m for m in messages if "invariance" in m] == (
            [] if orm_ran else ["invariance never ran on any batch"])
        # a term that ran on no batch is logged as None, not as 0
        assert [r.rrm for r in rows] == [None] * 2
        if orm_ran:
            assert all(r.orm > 0 for r in rows)
        else:
            assert [r.orm for r in rows] == [None] * 2

    def test_zero_epochs_warn_of_no_term(self, caplog):
        # no batch is stepped, so no term can be said to have never run
        caplog.set_level(logging.WARNING)
        train(self._split(), TrainConfig(hp=self._hp(max_epochs=0)))
        assert [r.getMessage() for r in caplog.records if "never ran" in r.getMessage()] == []

    def test_skipped_batches_are_one_warning_per_run(self, caplog):
        # user 2 has no target edge, so each epoch skips its one-user batch
        ds = make_dataset({"view": {(0, 0): 1, (1, 1): 1, (2, 2): 1},
                           "buy": {(0, 0): 1, (1, 1): 1}}, "buy", num_users=3,
                          num_items=3)
        caplog.set_level(logging.WARNING)
        train(SplitDataset(ds, (), ()),
              TrainConfig(hp=self._hp(batch_size=1, max_epochs=3)))
        skipped = [r.getMessage() for r in caplog.records
                   if "target triplets" in r.getMessage()]
        assert skipped == ["3 batches with no target triplets skipped"]

    def test_saturated_draws_are_one_warning_per_run(self, caplog):
        # user 0's "view" draw is skipped once in each of 2 epochs
        caplog.set_level(logging.WARNING)
        train(_saturated_view_split(), TrainConfig(hp=self._hp(max_epochs=2)))
        saturated = [r.getMessage() for r in caplog.records if "every item" in r.getMessage()]
        assert saturated == ["2 draws skipped for users with every item"]

    @pytest.mark.parametrize("buy, message", [
        ({}, "target behavior has no training edges"),
        # every user with a target edge has the one item as one
        ({(u, 0): 1 for u in range(4)}, "no negative can be drawn"),
    ], ids=["empty", "saturated"])
    def test_a_target_without_triplets_is_a_data_error(self, buy, message):
        ds = make_dataset({"view": {(u, 0): 1 for u in range(4)}, "buy": buy}, "buy",
                          num_users=4, num_items=1)
        with pytest.raises(DatasetError, match=message):
            train(SplitDataset(ds, (), ()), TrainConfig(hp=self._hp(max_epochs=1)))

    def test_empty_validation_trains_to_max_epochs(self):
        split = self._split()
        no_val = type(split)(train=split.train, validation=(), test=split.test)
        _, rows = train(no_val, TrainConfig(hp=self._hp(max_epochs=4)))
        assert len(rows) == 4
        assert all(r.val_hr10 is None for r in rows)


class TestCheckpoint:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        hp = Hyperparameters(dim=3, tau=0.37, lambda_rrm=0.25)
        state = ModelState(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), hp)
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy", num_users=4, num_items=5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, ds.manifest, str(path))
        loaded, meta = load_checkpoint(str(path))
        np.testing.assert_array_equal(loaded.user_emb, state.user_emb)
        np.testing.assert_array_equal(loaded.item_emb, state.item_emb)
        assert loaded.hp == hp
        assert meta["manifest_hash"] == manifest_hash(ds.manifest)

    def test_header_manifest_fields_rehash_to_its_hash(self, tmp_path):
        hp = Hyperparameters(dim=2)
        state = ModelState(np.zeros((3, 2)), np.zeros((4, 2)), hp)
        ds = make_dataset({"view": {(1, 2): None}, "buy": {(0, 0): 1}}, "buy",
                          num_users=3, num_items=4)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(state, ds.manifest, path)
        with np.load(path) as npz:
            header = json.loads(npz["header"].tobytes())
        stored = DatasetManifest(
            behaviors=tuple(header["behaviors"]), target=header["target"],
            num_users=header["num_users"], num_items=header["num_items"],
        )
        assert stored == ds.manifest
        assert manifest_hash(stored) == header["manifest_hash"]

    def test_roundtrip_is_bit_exact_at_the_given_path(self, tmp_path):
        # subnormals, a signed zero, and large entries whose scores still fit
        # in float64 (`load_checkpoint` rejects tables of ±1e308 entries)
        special = [-0.0, 5e-324, -2.5e-310, 1e150, -1e150, 0.1]
        hp = Hyperparameters(dim=3)
        state = ModelState(np.array(special).reshape(2, 3),
                           np.array(special[::-1] * 2).reshape(4, 3), hp)
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy", num_users=2, num_items=4)
        first, second = tmp_path / "ckpt.json", tmp_path / "again.json"
        save_checkpoint(state, ds.manifest, str(first))
        save_checkpoint(state, ds.manifest, str(second))
        assert sorted(os.listdir(tmp_path)) == ["again.json", "ckpt.json"]
        assert first.read_bytes() == second.read_bytes()
        loaded, _ = load_checkpoint(str(first))
        for got, want in ((loaded.user_emb, state.user_emb),
                          (loaded.item_emb, state.item_emb)):
            np.testing.assert_array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # -0.0 keeps its sign

    @pytest.mark.parametrize("second, loads", [(0.99, True), (1.01, False)])
    def test_tables_are_rejected_where_scores_could_overflow(self, tmp_path, second,
                                                             loads):
        # every score is at most ||[user_emb; item_emb]||_F^2, here
        # (1 + second^2)·2^1022: 1% below 2^1023, or 1% above, where float64
        # has no factor 2 left
        hp = Hyperparameters(dim=1)
        user = np.array([[2.0**511], [second * 2.0**511]])
        state = ModelState(user, np.zeros((4, 1)), hp)
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy", num_users=2, num_items=4)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(state, ds.manifest, path)
        if loads:
            np.testing.assert_array_equal(load_checkpoint(path)[0].user_emb, user)
        else:
            with pytest.raises(CheckpointError, match="could overflow float64"):
                load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(path))
