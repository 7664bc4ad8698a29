"""Adam updates against hand-computed recurrences, sampler contracts, and
the training loop's determinism and bookkeeping."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrobust import losses, training
from mbrobust.data import SplitDataset, nth_absent, split_leave_one_out
from mbrobust.losses import GradientBuffer, Hyperparameters, ModelState
from mbrobust.synthetic import planted_dataset
from mbrobust.training import (
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
        ds = make_dataset(
            {"view": {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1},
             "buy": {(0, 0): 1, (1, 1): 1}},
            "buy", num_users=2, num_items=3,
        )
        sampler = TripletSampler(SplitDataset(ds, (), ()))
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

    def test_roundtrip_is_bit_exact_at_the_given_path(self, tmp_path):
        special = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1]
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

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(path))
