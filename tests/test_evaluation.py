"""Ranking and metric computation against full-sort oracles and the closed
NDCG formula."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrobust import evaluation, seeds
from mbrobust.data import SplitDataset, split_leave_one_out
from mbrobust.evaluation import (
    evaluate,
    fused_embeddings,
    held_out_rank,
    robustness_sweep,
    sweep_csv,
)
from mbrobust.graph import Workspace, build_graph, propagate
from mbrobust.losses import Hyperparameters, ModelState
from mbrobust.synthetic import planted_dataset
from mbrobust.training import TrainConfig

import rank_reference
from conftest import make_dataset


def oracle_rank(scores, held_item, exclusions):
    """Full sort by (-score, item id); position of the held-out item."""
    order = sorted(
        (i for i in range(len(scores)) if i not in exclusions),
        key=lambda i: (-scores[i], i),
    )
    return order.index(held_item) + 1


def rank_of(z_user, z_item, user, held_item, exclusions):
    """`held_out_rank` of the one pair (user, held_item), with ``exclusions``
    as the user's excluded items."""
    items = np.array(sorted(exclusions), dtype=np.int64)
    indptr = np.zeros(len(z_user) + 1, dtype=np.int64)
    indptr[user + 1 :] = len(items)
    ranks = held_out_rank(z_user, z_item, np.array([user]), np.array([held_item]),
                          (indptr, items))
    return int(ranks[0])


def oracle_metrics(ranks, k):
    hr = sum(1 for r in ranks if r <= k) / len(ranks)
    ndcg = sum(1.0 / math.log2(r + 1) for r in ranks if r <= k) / len(ranks)
    return hr, ndcg


def _csr_rows(exclusions):
    """CSR rows ``(indptr, items)`` of per-user item sets."""
    indptr = np.cumsum([0] + [len(e) for e in exclusions])
    items = np.array([i for e in exclusions for i in sorted(e)], dtype=np.int64)
    return indptr, items


def _no_float64(*args):
    """Stands in for `evaluation._float64_ranks` where the screen must settle
    every row."""
    raise AssertionError("a row fell back to float64")


@st.composite
def dyadic_rank_cases(draw):
    """Tables of integers times one power of two per table, so every float64
    score is exact under any summation order, with the cases a float32 screen
    must hand to float64: duplicate item rows (exact ties), reordered copies
    of a held-out item's row (exact ties in float64 that float32 rounds
    apart) and such copies one unit step away, in entries near 2**21 where
    float32 rounds a score by more than the step, all-zero tables, and
    entries scaled by 2**±400, beyond float32's range."""
    n_u, n_i = draw(st.integers(1, 6), label="users"), draw(st.integers(1, 8), label="items")
    # float32 rounds a long dot product by several steps more often
    dim = draw(st.one_of(st.integers(1, 256), st.sampled_from([64, 256])), label="dim")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    user = rng.integers(-3, 4, (n_u, dim)).astype(float)
    item = rng.integers(-3, 4, (n_i, dim)).astype(float)
    held = rng.integers(0, n_i, n_u)
    if draw(st.integers(0, 3), label="near ties") > 0:
        item = item * 2.0**20 + rng.integers(-7, 8, (n_i, dim))
        for j in range(n_i):
            # a copy of user k's held-out item with the entries shuffled among
            # coordinates where user k's entries are equal: an exact float64
            # tie that float32 rounds differently, then maybe a unit step
            k = rng.integers(n_u)
            row = item[held[k]].copy()
            for v in np.unique(user[k]):
                at = np.flatnonzero(user[k] == v)
                row[at] = row[rng.permutation(at)]
            row[rng.integers(dim)] += rng.integers(-1, 2)
            item[j] = row
    if draw(st.booleans(), label="duplicate items"):
        item[rng.integers(0, n_i, n_i)] = item[rng.integers(0, n_i, n_i)]
    if draw(st.integers(0, 3), label="zero tables") == 0:
        zero = draw(st.sampled_from(["user", "item", "both"]))
        if zero != "item":
            user[:] = 0.0
        if zero != "user":
            item[:] = 0.0
    scales = st.sampled_from([-400, 0, 400])
    user = np.ldexp(user, draw(scales, label="user scale"))
    item = np.ldexp(item, draw(scales, label="item scale"))
    exclusions = [set(rng.choice(n_i, rng.integers(0, n_i), replace=False).tolist()) - {h}
                  for h in held.tolist()]
    rows = _csr_rows(exclusions) if draw(st.booleans(), label="exclude") else None
    return user, item, np.arange(n_u), held, rows


class TestRank:
    def test_top_score_is_rank_one(self):
        z_user = np.array([[1.0, 0.0]])
        z_item = np.array([[5.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        assert rank_of(z_user, z_item, 0, 0, set()) == 1

    def test_all_ties_rank_by_item_id(self):
        z_user = np.array([[1.0]])
        z_item = np.ones((4, 1))
        assert rank_of(z_user, z_item, 0, 0, set()) == 1
        assert rank_of(z_user, z_item, 0, 2, set()) == 3

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_items = int(rng.integers(2, 7))
            z_user = rng.normal(size=(1, 3))
            z_item = rng.normal(size=(n_items, 3))
            held = int(rng.integers(n_items))
            exclusions = {
                int(i) for i in rng.choice(n_items, size=rng.integers(0, n_items - 1),
                                           replace=False)
            } - {held}
            scores = z_item @ z_user[0]
            assert rank_of(z_user, z_item, 0, held, exclusions) == oracle_rank(
                scores, held, exclusions
            )

    def test_excluded_held_out_item_is_an_error(self):
        z = np.ones((1, 1))
        with pytest.raises(ValueError, match="excluded"):
            rank_of(z, np.ones((2, 1)), 0, 0, {0})

    @settings(max_examples=300, deadline=None)
    @given(dyadic_rank_cases(), st.integers(1, 3))
    def test_float32_screen_equals_the_float64_ranking(self, case, per_block):
        user, item, users, held, rows = case
        with pytest.MonkeyPatch.context() as mp:
            # blocks of one to three users
            mp.setattr(evaluation, "RANK_BLOCK_SCORES", len(item) * per_block)
            ranks = held_out_rank(user, item, users, held, rows)
        assert np.array_equal(ranks, rank_reference.held_out_rank(user, item, users, held, rows))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 7, 8, 9, 63, 64, 65]), st.data())
    def test_row_counts_equal_count_nonzero(self, width, data):
        # widths around a byte and a word, where packing pads the last byte
        rows = data.draw(st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
                                  max_size=6), label="rows")
        mask = np.array([[True] * width, [False] * width] + rows, dtype=bool)
        assert np.array_equal(evaluation._row_counts(mask), np.count_nonzero(mask, axis=1))

    def test_reused_block_buffers(self, monkeypatch):
        # at two users per block the first block excludes items, including
        # the held-out item of a user in the second, which excludes none, and
        # the last block holds one user, so it fills part of the buffers
        rng = np.random.default_rng(11)
        z_user, z_item = rng.normal(size=(5, 8)), rng.normal(size=(30, 8))
        users, held = np.arange(5), np.array([3, 7, 12, 20, 25])
        rows = _csr_rows([{0, 12, 20, 29}, {1, 2, 25}, set(), set(), {4}])
        expected = rank_reference.held_out_rank(z_user, z_item, users, held, rows)

        monkeypatch.setattr(evaluation, "_float64_ranks", _no_float64)
        for per_block in (1, 2):
            monkeypatch.setattr(evaluation, "RANK_BLOCK_SCORES", len(z_item) * per_block)
            assert np.array_equal(held_out_rank(z_user, z_item, users, held, rows), expected)

    def test_near_ties_reach_float64(self, monkeypatch):
        # users 1 and 4 have a duplicate of their held-out item's row, users
        # 2 and 6 a row one ulp away from it in one entry; the screen settles
        # every other user
        rng = np.random.default_rng(12)
        z_user, z_item = rng.normal(size=(8, 16)), rng.normal(size=(60, 16))
        users, held = np.arange(8), rng.permutation(50)[:8]
        for k, j in ((1, 50), (4, 51)):
            z_item[j] = z_item[held[k]]
        for k, j, entry in ((2, 52, 0), (6, 53, 9)):
            z_item[j] = z_item[held[k]]
            z_item[j, entry] = np.nextafter(z_item[j, entry], np.inf)
        calls = []
        full = evaluation._float64_ranks
        monkeypatch.setattr(evaluation, "_float64_ranks",
                            lambda *args: calls.append(args[2].tolist()) or full(*args))
        ranks = held_out_rank(z_user, z_item, users, held, None)
        assert calls == [[1, 2, 4, 6]]
        assert np.array_equal(ranks,
                              rank_reference.held_out_rank(z_user, z_item, users, held, None))

    def test_screen_holds_one_block_of_scores_and_mask(self, monkeypatch):
        # scores far apart on coordinate 0, so the screen settles every row
        # and its peak is the peak of the ranking
        num_users, num_items, dim = 3000, 4000, 32
        rng = np.random.default_rng(13)
        z_user = 1e-6 * rng.normal(size=(num_users, dim))
        z_user[:, 0] = rng.uniform(0.5, 2.0, num_users)
        z_item = 1e-6 * rng.normal(size=(num_items, dim))
        z_item[:, 0] = rng.permutation(np.linspace(-1.0, 1.0, num_items))
        users, held = np.arange(num_users), rng.integers(0, num_items, num_users)

        monkeypatch.setattr(evaluation, "_float64_ranks", _no_float64)
        tracemalloc.start()
        try:
            held_out_rank(z_user, z_item, users, held, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = (num_users + num_items) * dim * 4  # the two float32 tables
        block = evaluation.RANK_BLOCK_SCORES // num_items * num_items * 5  # float32 + bool
        # slack for the norms, the ranks and one block's user rows and packed
        # mask: a quarter of a block's scores, far below a second block
        assert peak < tables + block + 2**19

    def test_float32_tie_that_float64_breaks_is_ranked_in_float64(self):
        z_user = np.array([[1.0, 1.0]])
        z_item = np.array([[1.0, 0.0], [1.0, 2.0**-30]])
        scores32 = z_user.astype(np.float32) @ z_item.astype(np.float32).T
        assert scores32[0, 0] == scores32[0, 1]
        # item 1 scores higher in float64, so the held-out item 0 is second;
        # the float32 tie would put it first, ahead of the higher id
        assert rank_of(z_user, z_item, 0, 0, set()) == 2
        assert rank_reference.held_out_rank(z_user, z_item, np.array([0]), np.array([0]),
                                            None).tolist() == [2]

    def test_screen_ranks_separated_scores_without_float64(self, monkeypatch):
        rng = np.random.default_rng(3)
        z_user, z_item = rng.normal(size=(40, 16)), rng.normal(size=(300, 16))
        users, held = np.arange(40), rng.integers(0, 300, 40)
        exclusions = [set(rng.choice(300, 20, replace=False).tolist()) - {h}
                      for h in held.tolist()]
        rows = _csr_rows(exclusions)
        expected = rank_reference.held_out_rank(z_user, z_item, users, held, rows)

        monkeypatch.setattr(evaluation, "_float64_ranks", _no_float64)
        assert np.array_equal(held_out_rank(z_user, z_item, users, held, rows), expected)

    @pytest.mark.parametrize("case", ["nan", "inf", "overflow", "underflow"])
    def test_tables_the_screen_cannot_bound_rank_in_float64(self, case, monkeypatch):
        z_user = np.array([[1.0, 2.0], [3.0, 1.0]])
        z_item = np.array([[1.0, 1.0], [0.5, 3.0], [2.0, 1.0]])
        if case in ("nan", "inf"):
            z_item[0, 0] = np.nan if case == "nan" else np.inf
        else:  # float64 scores beyond its range: inf, or 0 after underflow
            e = 600 if case == "overflow" else -600
            z_user, z_item = np.ldexp(z_user, e), np.ldexp(z_item, e)
        users, held = np.array([0, 1]), np.array([1, 2])
        calls = []
        full = evaluation._float64_ranks
        monkeypatch.setattr(evaluation, "_float64_ranks",
                            lambda *args: calls.append(len(args[2])) or full(*args))
        with np.errstate(over="ignore"):  # the overflow case overflows by design
            ranks = held_out_rank(z_user, z_item, users, held, None)
            expected = rank_reference.held_out_rank(z_user, z_item, users, held, None)
        assert calls == [2]
        assert np.array_equal(ranks, expected)

    def test_rank_from_fused_embeddings(self):
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy", num_users=1, num_items=3)
        graphs = {"buy": build_graph(ds, "buy")}
        hp = Hyperparameters(dim=3, num_layers=0)
        state = ModelState(np.array([[1.0, 0.0, 0.0]]), np.eye(3), hp)
        z_user, z_item = fused_embeddings(state, graphs)
        assert rank_of(z_user, z_item, 0, 0, set()) == 1
        assert rank_of(z_user, z_item, 0, 1, set()) == 2  # ties by item id

    def test_fused_embeddings_stream_fuse_bit_for_bit(self):
        # the fusion is np.mean over the stacked propagations, bit for bit;
        # the planted graphs, cycled, give any number of behaviors
        ds = planted_dataset(5)
        planted = [build_graph(ds, b) for b in ds.manifest.behaviors]
        rng = np.random.default_rng(21)
        state = ModelState(rng.normal(size=(40, 8)), rng.normal(size=(40, 8)),
                           Hyperparameters(dim=8, num_layers=2))
        for count in range(1, 10):
            graphs = {f"b{k}": planted[k % len(planted)] for k in range(count)}
            embs = [propagate(g, state.user_emb, state.item_emb, 2) for g in graphs.values()]
            expected = [np.mean(np.stack([getattr(e, t) for e in embs]), axis=0) for t in "PQ"]
            ws = Workspace()
            ws.get("fused", (80, 8)).fill(np.nan)  # stale contents are overwritten
            for got in (fused_embeddings(state, graphs), fused_embeddings(state, graphs, ws)):
                assert [t.tobytes() for t in got] == [t.tobytes() for t in expected], count


def _metric_split(num_users, num_items, test_pairs, train_target=None):
    edges = {"buy": dict(train_target or {})}
    for u, i in test_pairs:
        edges["buy"].setdefault((u, 0), 1)  # keep the target behavior nonempty
    ds = make_dataset(edges, "buy", num_users=num_users, num_items=num_items)
    return SplitDataset(train=ds, validation=(), test=tuple(test_pairs))


class TestEvaluate:
    def test_rank_one_everywhere_gives_ones(self):
        # identity item table, user u points at its held-out item
        n = 4
        split = _metric_split(n, n, [(u, u) for u in range(n)],
                              train_target={})
        hp = Hyperparameters(dim=n, num_layers=0)
        state = ModelState(np.eye(n), np.eye(n), hp)
        report = evaluate(state, split, ks=(1, 5), exclude_train=False)
        assert report.hr == {1: 1.0, 5: 1.0}
        assert report.ndcg == {1: 1.0, 5: 1.0}

    def test_rank_two_closed_form(self):
        split = _metric_split(1, 3, [(0, 1)], train_target={})
        hp = Hyperparameters(dim=3, num_layers=0)
        # item 2 outranks the held-out item 1; item 0 sits below
        state = ModelState(np.array([[0.0, 1.0, 2.0]]), np.eye(3), hp)
        report = evaluate(state, split, ks=(10,), exclude_train=False)
        assert report.hr[10] == 1.0
        assert report.ndcg[10] == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert report.ndcg[10] == pytest.approx(0.6309, abs=1e-4)

    def test_planted_ranks_hand_computed(self):
        # five users with held-out ranks {1, 3, 11, 2, 7} at K=10
        planted = [1, 3, 11, 2, 7]
        n_items = 20
        z_users = []
        for r in planted:
            scores = np.full(n_items, -1.0)
            scores[0] = 0.0  # held-out item
            scores[1:r] = 1.0  # exactly r-1 better items
            z_users.append(scores)
        hp = Hyperparameters(dim=n_items, num_layers=0)
        state = ModelState(np.array(z_users), np.eye(n_items), hp)
        split = _metric_split(5, n_items, [(u, 0) for u in range(5)],
                              train_target={})
        report = evaluate(state, split, ks=(10,), exclude_train=False,
                          record_ranks=True)
        assert [r for _, r in report.per_user_ranks] == planted
        expected_hr = 4 / 5
        expected_ndcg = (1.0 + 1 / math.log2(4) + 0.0 + 1 / math.log2(3)
                         + 1 / math.log2(8)) / 5
        assert report.hr[10] == pytest.approx(expected_hr, abs=1e-15)
        assert report.ndcg[10] == pytest.approx(expected_ndcg, abs=1e-15)

    def test_metrics_monotone_in_k(self):
        rng = np.random.default_rng(1)
        ds = planted_dataset(seed=2, num_users=12, num_items=12, num_groups=4,
                             target_per_user=3, aux_per_user=4)
        split = split_leave_one_out(ds)
        hp = Hyperparameters(dim=4, num_layers=1)
        state = ModelState(rng.normal(size=(12, 4)), rng.normal(size=(12, 4)), hp)
        ks = (1, 2, 5, 8, 12)
        report = evaluate(state, split, ks=ks)
        for a, b in zip(ks, ks[1:]):
            assert report.hr[a] <= report.hr[b]
            assert report.ndcg[a] <= report.ndcg[b]
            assert report.ndcg[b] <= report.hr[b]

    def test_exclusion_removes_training_positives_from_candidacy(self):
        # the training positive scores above the held-out item; excluding it
        # must restore rank 1
        train_target = {(0, 2): 1}
        split = _metric_split(1, 3, [(0, 1)], train_target=train_target)
        hp = Hyperparameters(dim=3, num_layers=0)
        state = ModelState(np.array([[0.0, 1.0, 5.0]]), np.eye(3), hp)
        incl = evaluate(state, split, ks=(1,), exclude_train=False)
        excl = evaluate(state, split, ks=(1,), exclude_train=True)
        assert incl.hr[1] == 0.0
        assert excl.hr[1] == 1.0
        assert excl.excluded_train_items and not incl.excluded_train_items

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n_u = int(rng.integers(2, 8))
            n_i = int(rng.integers(3, 10))
            users = rng.choice(n_u, size=min(n_u, 3), replace=False)
            test_pairs = [(int(u), int(rng.integers(n_i))) for u in users]
            split = _metric_split(n_u, n_i, test_pairs, train_target={})
            hp = Hyperparameters(dim=3, num_layers=0)
            state = ModelState(rng.normal(size=(n_u, 3)),
                               rng.normal(size=(n_i, 3)), hp)
            report = evaluate(state, split, ks=(3,), exclude_train=False,
                              record_ranks=True)
            scores = state.item_emb @ state.user_emb.T
            ranks = [oracle_rank(scores[:, u], i, set()) for u, i in test_pairs]
            hr, ndcg = oracle_metrics(ranks, 3)
            assert report.hr[3] == hr
            assert report.ndcg[3] == ndcg

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_ranks_equal_full_sort_oracle(self, data):
        # small-integer embeddings make every score exact, so ties are the
        # same under any summation order
        n_u = data.draw(st.integers(1, 12), label="users")
        n_i = data.draw(st.integers(1, 8), label="items")
        dim = data.draw(st.integers(1, 3), label="dim")
        ints = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        user_emb = np.array(data.draw(st.lists(ints, min_size=n_u, max_size=n_u)), float)
        item_emb = np.array(data.draw(st.lists(ints, min_size=n_i, max_size=n_i)), float)
        held = data.draw(st.lists(st.integers(0, n_i - 1), min_size=n_u, max_size=n_u))
        exclusions = [data.draw(st.sets(st.integers(0, n_i - 1))) - {h} for h in held]
        target = {(u, i): 1 for u, excl in enumerate(exclusions) for i in excl}
        ds = make_dataset({"view": {(0, 0): 1}, "buy": target}, "buy", n_u, n_i)
        split = SplitDataset(train=ds, validation=(), test=tuple(enumerate(held)))
        state = ModelState(user_emb, item_emb, Hyperparameters(dim=dim, num_layers=0))
        exclude = data.draw(st.booleans(), label="exclude_train")
        with pytest.MonkeyPatch.context() as mp:
            # blocks of one to three users
            mp.setattr(evaluation, "RANK_BLOCK_SCORES", n_i * data.draw(st.integers(1, 3)))
            report = evaluate(state, split, ks=(1,), exclude_train=exclude,
                              record_ranks=True)
        scores = user_emb @ item_emb.T
        expected = tuple(
            (u, oracle_rank(scores[u], h, exclusions[u] if exclude else set()))
            for u, h in enumerate(held)
        )
        assert report.per_user_ranks == expected

    def test_excluded_held_out_item_is_an_error(self):
        split = _metric_split(2, 3, [(0, 1), (1, 2)], train_target={(1, 2): 1})
        state = ModelState(np.zeros((2, 1)), np.zeros((3, 1)),
                           Hyperparameters(dim=1, num_layers=0))
        with pytest.raises(ValueError, match="held-out item 2 of user 1 is excluded"):
            evaluate(state, split, ks=(1,))

    def test_empty_test_set_rejected(self):
        split = _metric_split(1, 3, [(0, 1)], train_target={})
        empty = SplitDataset(train=split.train, validation=(), test=())
        hp = Hyperparameters(dim=3, num_layers=0)
        state = ModelState(np.zeros((1, 3)), np.zeros((3, 3)), hp)
        with pytest.raises(ValueError, match="held-out"):
            evaluate(state, empty, ks=(1,))


class TestSweep:
    def _cfg(self):
        hp = Hyperparameters(dim=4, num_layers=1, lambda_rrm=0.5, lambda_orm=1.0,
                             lambda_reg=1e-5, lr=0.05, batch_size=32,
                             max_epochs=3, patience=5, seed=0)
        return TrainConfig(hp=hp, eval_every=5)

    def test_one_shared_workspace_gives_the_bits_of_fresh_buffers(self, monkeypatch):
        # the sweep passes one workspace through every run; a workspace that
        # hands out a fresh NaN-filled buffer on every request reads nothing
        # an earlier run left behind
        class FreshBuffers(Workspace):
            def get(self, name, shape):
                return np.full(shape, np.nan)

        ds = planted_dataset(seed=4, num_users=16, num_items=16, num_groups=4,
                             target_per_user=4, aux_per_user=5)
        grid = dict(ratios=[0.1, 0.3], modes=["add", "remove"], seed=0)
        shared = sweep_csv(robustness_sweep(ds, self._cfg(), **grid))
        monkeypatch.setattr(evaluation, "Workspace", FreshBuffers)
        assert sweep_csv(robustness_sweep(ds, self._cfg(), **grid)) == shared

    def test_empty_ratio_list_gives_baseline_only(self):
        ds = planted_dataset(seed=4, num_users=16, num_items=16, num_groups=4,
                             target_per_user=4, aux_per_user=5)
        rows = robustness_sweep(ds, self._cfg(), ratios=[], modes=["add"], seed=0)
        assert len(rows) == 1
        assert rows[0].mode == "baseline"

    def test_row_count_and_csv_shape(self):
        ds = planted_dataset(seed=4, num_users=16, num_items=16, num_groups=4,
                             target_per_user=4, aux_per_user=5)
        rows = robustness_sweep(ds, self._cfg(), ratios=[0.1, 0.3], modes=["add"],
                                seed=0)
        assert len(rows) == 3
        text = sweep_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "mode,ratio,hr10,ndcg10,rel_drop_hr10,rel_drop_ndcg10"
        assert len(lines) == 4

    def test_emptied_auxiliary_behavior_is_dropped_not_fatal(self):
        ds = planted_dataset(seed=4, num_users=16, num_items=16, num_groups=4,
                             target_per_user=4, aux_per_user=5)
        rows = robustness_sweep(ds, self._cfg(), ratios=[1.0], modes=["remove"],
                                seed=0)
        assert len(rows) == 2  # run continues after behaviors empty out

    def test_cell_seed_is_the_perturbation_stream_child(self):
        # cell c of a sweep perturbs with child c of the "perturbation" stream
        # (spawn key 2); this layout fixes every published sweep table
        for seed, cell in ((0, 1), (7, 3), (2**40, 12)):
            expected = int(
                np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(2, cell))
                ).integers(0, 2**63 - 1)
            )
            assert seeds.stream_seed(seed, "perturbation", cell) == expected
