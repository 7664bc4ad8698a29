"""Dataset loading, splitting, diagnostics, and perturbation.

Expected values for the fixture-based tests come from independent oracles
implemented inside this file: a separate parse/dedup pass for loading, a
sort-based oracle for the leave-one-out split, exhaustive grid enumeration
for the alignment/direct-target ratios, and a re-implementation of the
seeded complement sampler for perturbation.  The property tests at the end
compare the array store with the dict-based implementation it replaced,
kept in ``dict_reference.py``, and the byte path for canonical text with the
general reader.
"""

import math
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbrobust import data
from mbrobust.data import (
    DatasetError,
    EdgeSet,
    InteractionDataset,
    PerturbationSpec,
    compute_bar,
    compute_dt,
    diagnose,
    drop_behaviors,
    load_dataset,
    load_split,
    nth_absent,
    perturb,
    positions,
    save_dataset,
    split_leave_one_out,
    write_id_maps,
    write_split,
)

import dict_reference as reference
from conftest import edge_datasets, make_dataset, random_dataset, write_dataset_dir
from dict_reference import as_ref


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def oracle_load(path, behaviors):
    """Independent parse/dedup/sort of a dataset directory."""
    raw = {}
    for b in behaviors:
        rows = []
        with open(os.path.join(path, f"{b}.tsv"), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                rows.append((parts[0], parts[1],
                             int(parts[2]) if len(parts) > 2 else None))
        raw[b] = rows
    users = sorted({r[0] for rows in raw.values() for r in rows})
    items = sorted({r[1] for rows in raw.values() for r in rows})
    edges = {}
    for b, rows in raw.items():
        dedup = {}
        for u, i, ts in rows:
            key = (users.index(u), items.index(i))
            have = dedup.get(key, "missing")
            if have == "missing" or (
                ts is not None and (have is None or ts < have)
            ):
                dedup[key] = ts
        edges[b] = dedup
    return users, items, edges


def oracle_bar(ds, behavior):
    """Exhaustive pair enumeration over the full user x item grid."""
    target = ds.manifest.target
    hits = total = 0
    for u in range(ds.manifest.num_users):
        for i in range(ds.manifest.num_items):
            if (u, i) in ds.edges[target]:
                total += 1
                if (u, i) in ds.edges[behavior]:
                    hits += 1
    return hits / total


def oracle_dt(ds):
    """Per-pair scan of auxiliary timestamps over the full grid."""
    target = ds.manifest.target
    direct = total = 0
    for u in range(ds.manifest.num_users):
        for i in range(ds.manifest.num_items):
            if (u, i) not in ds.edges[target]:
                continue
            total += 1
            t_ts = ds.edges[target][(u, i)]
            preceded = False
            for b in ds.manifest.behaviors:
                if b == target or (u, i) not in ds.edges[b]:
                    continue
                a_ts = ds.edges[b][(u, i)]
                if t_ts is None or a_ts is None or a_ts < t_ts:
                    preceded = True
            if not preceded:
                direct += 1
    return direct / total


def oracle_split_user(entries):
    """Sort one user's (item, ts) target entries by (ts, item); last two
    are (validation, test)."""
    ordered = sorted(entries, key=lambda e: (0 if e[1] is None else e[1], e[0]))
    return ordered[-2][0], ordered[-1][0], [i for i, _ in ordered[:-2]]


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

class TestLoad:
    def test_earliest_occurrence_on_duplicate(self, tmp_path):
        path = write_dataset_dir(
            tmp_path / "dup", ["view", "buy"], "buy",
            {"view": "u1\ti1\t5\nu1\ti1\t3\n", "buy": "u1\ti1\t7\n"},
        )
        ds = load_dataset(path)
        assert ds.edges["view"] == {(0, 0): 3}

    def test_empty_target_is_an_error(self, tmp_path):
        path = write_dataset_dir(
            tmp_path / "empty", ["view", "buy"], "buy",
            {"view": "u1\ti1\n", "buy": ""},
        )
        with pytest.raises(DatasetError, match="empty target"):
            load_dataset(path)

    def test_toy_fixture_matches_independent_oracle(self, toy_dataset_dir):
        ds = load_dataset(toy_dataset_dir)
        users, items, edges = oracle_load(toy_dataset_dir, ["view", "buy"])
        assert list(ds.user_ids) == users
        assert list(ds.item_ids) == items
        assert ds.edges == edges
        assert sum(len(v) for v in ds.edges.values()) == 7
        assert ds.manifest.num_users == 3 and ds.manifest.num_items == 3

    def test_missing_behavior_file(self, tmp_path):
        path = write_dataset_dir(tmp_path / "m", ["view", "buy"], "buy",
                                 {"buy": "u\ti\t1\n"})
        with pytest.raises(DatasetError, match="missing behavior file"):
            load_dataset(path)

    def test_undeclared_behavior_file(self, tmp_path):
        path = write_dataset_dir(
            tmp_path / "u", ["buy"], "buy",
            {"buy": "u\ti\t1\n", "cart": "u\ti\t1\n"},
        )
        with pytest.raises(DatasetError, match="undeclared behavior"):
            load_dataset(path)

    def test_split_files_of_declared_behaviors_only(self, tmp_path):
        # a split written into a dataset directory is not a behavior file
        files = {"buy": "u\ti\t1\n", "train.buy": "u\ti\t1\n", "validation": "",
                 "test": ""}
        load_dataset(write_dataset_dir(tmp_path / "ok", ["buy"], "buy", files))
        path = write_dataset_dir(tmp_path / "stray", ["buy"], "buy",
                                 {**files, "train.click": "u\ti\t1\n"})
        with pytest.raises(DatasetError, match=r"'train\.click\.tsv'"):
            load_dataset(path)

    @pytest.mark.parametrize("loader", [load_dataset, load_split])
    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "/x", "a\\b", "a,b",
                                      " a", "a\n"])
    def test_bad_behavior_name_rejected_before_any_behavior_file(
        self, tmp_path, monkeypatch, loader, name
    ):
        path = write_dataset_dir(tmp_path / "n", [name, "buy"], "buy",
                                 {"buy": "u\ti\t1\n"})
        opened = []
        monkeypatch.setattr(data, "_parse_tsv", lambda *args: opened.append(args))
        with pytest.raises(DatasetError) as exc:
            loader(path)
        assert os.path.join(path, "manifest.json") in str(exc.value)
        assert repr(name) in str(exc.value)
        assert opened == []

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_dataset_dir(
            tmp_path / "bad", ["buy"], "buy",
            {"buy": "u1\ti1\t1\nu2\ti2\tnot_a_number\n"},
        )
        with pytest.raises(DatasetError, match=r"buy\.tsv:2"):
            load_dataset(path)

    def test_load_serialize_load_is_idempotent(self, toy_dataset_dir, tmp_path):
        ds = load_dataset(toy_dataset_dir)
        out = tmp_path / "roundtrip"
        save_dataset(ds, str(out))
        ds2 = load_dataset(str(out))
        assert ds2.user_ids == ds.user_ids
        assert ds2.item_ids == ds.item_ids
        assert ds2.edges == ds.edges

        map_a, map_b = tmp_path / "maps_a", tmp_path / "maps_b"
        write_id_maps(ds, str(map_a))
        write_id_maps(ds2, str(map_b))
        for name in ("users.map", "items.map"):
            assert (map_a / name).read_bytes() == (map_b / name).read_bytes()


class TestAssemble:
    @pytest.mark.parametrize("edges, message", [
        ({"buy": EdgeSet([0, 5], [0, 1], [1, 2], 2)}, "'buy' has edges outside 2 users"),
        ({"buy": EdgeSet([0], [2], [1], 3)}, "'buy' has edges outside 2 users and 2 items"),
        ({"buy": EdgeSet([0], [0], [1], 2), "view": EdgeSet([], [], [], 2)},
         r"differ on \['view'\]"),
        ({}, r"differ on \['buy'\]"),
    ], ids=["user", "items", "extra", "missing"])
    def test_edges_outside_the_dataset_rejected(self, edges, message):
        # an edge past the last user would drop out of user_items
        with pytest.raises(DatasetError, match=message):
            InteractionDataset.assemble(("buy",), "buy", edges, ["u0", "u1"], ["i0", "i1"])

    def test_edges_at_the_last_ids_accepted(self):
        edges = {"buy": EdgeSet([0, 1], [0, 1], [1, 2], 2)}
        ds = InteractionDataset.assemble(("buy",), "buy", edges, ["u0", "u1"], ["i0", "i1"])
        np.testing.assert_array_equal(ds.user_items("buy")[0], [0, 1, 2])


# ----------------------------------------------------------------------
# Leave-one-out split
# ----------------------------------------------------------------------

class TestSplit:
    def test_three_interactions_rule(self):
        ds = make_dataset(
            {"buy": {(0, 0): 1, (0, 1): 2, (0, 2): 3}}, "buy", num_items=3
        )
        split = split_leave_one_out(ds)
        assert split.test == ((0, 2),)
        assert split.validation == ((0, 1),)
        assert split.train.edges["buy"] == {(0, 0): 1}

    def test_fewer_than_three_stays_in_train(self):
        ds = make_dataset({"buy": {(0, 0): 1, (0, 1): 2}}, "buy")
        split = split_leave_one_out(ds)
        assert split.test == () and split.validation == ()
        assert split.train.edges["buy"] == {(0, 0): 1, (0, 1): 2}
        assert split.users_without_holdout == 1

    def test_tied_timestamps_break_by_item_id(self):
        entries = [(2, 5), (0, 5), (1, 5)]
        val, test, train_items = oracle_split_user(entries)
        ds = make_dataset({"buy": {(0, i): ts for i, ts in entries}}, "buy")
        split = split_leave_one_out(ds)
        assert split.test == ((0, test),)
        assert split.validation == ((0, val),)
        assert sorted(i for _, i in split.train.edges["buy"]) == sorted(train_items)
        assert (test, val, train_items) == (2, 1, [0])

    def test_auxiliary_edges_never_held_out(self):
        ds = make_dataset(
            {
                "view": {(0, 0): 1, (0, 1): 1, (0, 2): 1},
                "buy": {(0, 0): 1, (0, 1): 2, (0, 2): 3},
            },
            "buy",
        )
        split = split_leave_one_out(ds)
        assert split.train.edges["view"] == ds.edges["view"]

    def test_split_conservation_on_random_datasets(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            ds = random_dataset(rng)
            split = split_leave_one_out(ds)
            target = ds.manifest.target
            held = {}
            for u, _ in split.validation:
                held[u] = held.get(u, 0) + 1
            for u, _ in split.test:
                held[u] = held.get(u, 0) + 1
            by_user_before = {}
            for u, _ in ds.edges[target]:
                by_user_before[u] = by_user_before.get(u, 0) + 1
            by_user_after = {}
            for u, _ in split.train.edges[target]:
                by_user_after[u] = by_user_after.get(u, 0) + 1
            for u, before in by_user_before.items():
                assert by_user_after.get(u, 0) + held.get(u, 0) == before
            assert set(split.validation).isdisjoint(split.test)
            train_pairs = set(split.train.edges[target])
            assert train_pairs.isdisjoint(split.validation)
            assert train_pairs.isdisjoint(split.test)


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

class TestDiagnostics:
    def test_bar_of_target_is_one(self):
        ds = make_dataset({"view": {(0, 0): 1}, "buy": {(0, 0): 2, (1, 1): 2}}, "buy")
        assert compute_bar(ds, "buy") == 1.0

    def test_bar_disjoint_is_zero(self):
        ds = make_dataset({"view": {(2, 2): 1}, "buy": {(0, 0): 1, (1, 1): 1}}, "buy")
        assert compute_bar(ds, "view") == 0.0

    def test_bar_half_overlap_matches_oracle(self):
        ds = make_dataset(
            {
                "view": {(0, 0): 1, (1, 1): 1, (2, 2): 1},
                "buy": {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2},
            },
            "buy",
        )
        assert compute_bar(ds, "view") == 0.5
        assert compute_bar(ds, "view") == oracle_bar(ds, "view")

    def test_bar_empty_target_error(self):
        ds = make_dataset({"view": {(0, 0): 1}, "buy": {}}, "buy",
                          num_users=1, num_items=1)
        with pytest.raises(DatasetError, match="empty target"):
            compute_bar(ds, "view")

    def test_dt_fully_preceded_is_zero(self):
        ds = make_dataset(
            {"view": {(0, 0): 1, (1, 1): 2}, "buy": {(0, 0): 5, (1, 1): 5}}, "buy"
        )
        assert compute_dt(ds) == 0.0

    def test_dt_no_auxiliary_is_one(self):
        ds = make_dataset({"buy": {(0, 0): 5, (1, 1): 5}}, "buy")
        assert compute_dt(ds) == 1.0

    def test_dt_half_matches_oracle(self):
        ds = make_dataset(
            {"view": {(0, 0): 3}, "buy": {(0, 0): 5, (1, 1): 5}}, "buy"
        )
        assert compute_dt(ds) == 0.5
        assert compute_dt(ds) == oracle_dt(ds)

    def test_dt_without_timestamps_degrades_to_cooccurrence(self):
        ds = make_dataset(
            {"view": {(0, 0): None}, "buy": {(0, 0): None, (1, 1): None}}, "buy"
        )
        report = diagnose(ds)
        assert report.dt == 0.5
        assert report.dt_approximate

    def test_bar_dt_match_enumeration_oracles_on_random_data(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            ds = random_dataset(rng)
            for b in ds.manifest.behaviors:
                assert compute_bar(ds, b) == oracle_bar(ds, b)
            assert compute_dt(ds) == oracle_dt(ds)
            assert compute_bar(ds, ds.manifest.target) == 1.0

    def test_bar_monotone_under_target_aligned_additions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = random_dataset(rng, num_behaviors=2)
            target = ds.manifest.target
            aux = ds.manifest.auxiliary[0]
            missing = [p for p in ds.edges[target] if p not in ds.edges[aux]]
            before = compute_bar(ds, aux)
            if not missing:
                continue
            edges = {b: dict(v) for b, v in ds.edges.items()}
            edges[aux][missing[0]] = 0
            grown = make_dataset(edges, target,
                                 ds.manifest.num_users, ds.manifest.num_items)
            assert compute_bar(grown, aux) > before

    def test_diagnose_composes_and_orders_by_manifest(self):
        ds = make_dataset(
            {
                "view": {(0, 0): 3},
                "cart": {(1, 1): 1},
                "buy": {(0, 0): 5, (1, 1): 5},
            },
            "buy",
        )
        report = diagnose(ds)
        assert list(report.bar) == ["view", "cart", "buy"]
        assert list(report.counts) == ["view", "cart", "buy"]
        assert report.bar["view"] == oracle_bar(ds, "view")
        assert report.bar["cart"] == oracle_bar(ds, "cart")
        assert report.dt == oracle_dt(ds)
        assert report.counts == {"view": 1, "cart": 1, "buy": 2}

    def test_report_keys_are_its_fields_in_order(self):
        report = diagnose(make_dataset({"view": {(0, 0): 3}, "buy": {(0, 0): 5}}, "buy"))
        assert list(report.to_json_dict()) == [
            "num_users", "num_items", "counts", "bar", "dt", "dt_approximate"
        ]

    def test_single_behavior_diagnose(self):
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy")
        report = diagnose(ds)
        assert report.bar == {"buy": 1.0}
        assert report.dt == 1.0


# ----------------------------------------------------------------------
# Perturbation
# ----------------------------------------------------------------------

def oracle_add(ds, behavior, ratio, seed):
    """Independent re-implementation of the seeded complement sampler."""
    rng = np.random.default_rng(seed)
    existing = sorted(ds.edges[behavior])
    count = math.ceil(ratio * len(existing))
    complement = []
    for u in range(ds.manifest.num_users):
        for i in range(ds.manifest.num_items):
            if (u, i) not in ds.edges[behavior]:
                complement.append((u, i))
    picked = rng.choice(len(complement), size=count, replace=False)
    return {complement[k] for k in picked}


class TestPerturb:
    def _toy(self):
        return make_dataset(
            {
                "view": {(0, 0): 1, (0, 1): 1, (1, 2): 1, (2, 3): 1,
                         (3, 0): 1, (3, 3): 1, (1, 1): 1, (2, 0): 1},
                "buy": {(0, 0): 5, (1, 1): 5, (2, 2): 5, (3, 3): 5},
            },
            "buy",
            num_users=4,
            num_items=4,
        )

    def test_remove_count_exact(self):
        ds = make_dataset(
            {"view": {(0, i): 1 for i in range(10)}, "buy": {(0, 0): 1}},
            "buy", num_items=10,
        )
        spec = PerturbationSpec("remove", 0.05, ("view",), seed=1)
        out = perturb(ds, spec)
        assert len(out.edges["view"]) == 9  # ceil(0.05 * 10) = 1 removed
        assert set(out.edges["view"]) <= set(ds.edges["view"])

    def test_deterministic_given_seed(self):
        ds = self._toy()
        spec = PerturbationSpec("add", 0.5, ("view",), seed=99)
        assert perturb(ds, spec).edges == perturb(ds, spec).edges

    def test_add_matches_independent_seeded_sampler(self):
        ds = self._toy()
        seed = 2024
        spec = PerturbationSpec("add", 0.5, ("view",), seed=seed)
        out = perturb(ds, spec)
        added = set(out.edges["view"]) - set(ds.edges["view"])
        assert added == oracle_add(ds, "view", 0.5, seed)
        assert len(added) == math.ceil(0.5 * len(ds.edges["view"]))
        for pair in added:
            assert out.edges["view"][pair] == 0  # added noise precedes everything

    def test_add_never_duplicates_and_remove_never_misses(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ds = random_dataset(rng, num_behaviors=2)
            aux = ds.manifest.auxiliary[0]
            if not ds.edges[aux]:
                continue
            ratio = float(rng.uniform(0.05, 1.0))
            seed = int(rng.integers(1 << 30))
            expected = math.ceil(ratio * len(ds.edges[aux]))
            complement = ds.manifest.num_users * ds.manifest.num_items - len(
                ds.edges[aux]
            )
            if complement >= expected:
                out = perturb(ds, PerturbationSpec("add", ratio, (aux,), seed))
                assert len(out.edges[aux]) == len(ds.edges[aux]) + expected
                assert set(ds.edges[aux]) <= set(out.edges[aux])
            out = perturb(ds, PerturbationSpec("remove", ratio, (aux,), seed))
            assert len(out.edges[aux]) == len(ds.edges[aux]) - expected
            assert set(out.edges[aux]) <= set(ds.edges[aux])

    def test_target_untouched_and_protected(self):
        ds = self._toy()
        out = perturb(ds, PerturbationSpec("add", 0.5, ("view",), seed=1))
        assert out.edges["buy"] == ds.edges["buy"]
        with pytest.raises(DatasetError, match="target"):
            perturb(ds, PerturbationSpec("add", 0.5, ("buy",), seed=1))

    def test_add_fails_when_complement_too_small(self):
        edges = {"view": {(u, i): 1 for u in range(2) for i in range(2)
                          if (u, i) != (1, 1)},
                 "buy": {(0, 0): 1}}
        ds = make_dataset(edges, "buy", num_users=2, num_items=2)
        with pytest.raises(DatasetError, match="non-edges"):
            perturb(ds, PerturbationSpec("add", 1.0, ("view",), seed=1))

    def test_input_dataset_not_mutated(self):
        ds = self._toy()
        before = {b: dict(v) for b, v in ds.edges.items()}
        perturb(ds, PerturbationSpec("remove", 0.5, ("view",), seed=3))
        assert ds.edges == before

    def test_add_on_a_catalog_of_4e8_pairs(self):
        n = 20_000
        view = {(0, 0): 1, (0, n - 1): 1, (7, 3): 1, (n - 1, 0): 1, (n - 1, n - 1): 1}
        ds = make_dataset({"view": view, "buy": {(1, 1): 1}}, "buy", n, n)
        out = perturb(ds, PerturbationSpec("add", 0.5, ("view",), seed=8))
        added = set(out.edges["view"]) - set(view)
        assert len(out.edges["view"]) == len(view) + len(added) == len(view) + 3
        assert all(0 <= u < n and 0 <= i < n for u, i in added)


# ----------------------------------------------------------------------
# Complement lookup
# ----------------------------------------------------------------------

@settings(deadline=None)
@given(st.sets(st.integers(0, 300), max_size=80), st.integers(0, 5))
def test_nth_absent_is_the_setdiff1d_complement_at_every_rank(values, extra):
    present = np.array(sorted(values), dtype=np.int64)
    upper = (int(present[-1]) + 1 if len(present) else 0) + extra
    complement = np.setdiff1d(np.arange(upper), present)  # the oracle
    ranks = np.arange(len(complement))
    assert nth_absent(present, ranks).tolist() == complement.tolist()
    for k in ranks[:3]:  # a scalar rank gives the scalar answer
        assert nth_absent(present, k) == complement[k]
    # past the last present value the missing integers run on unbroken
    assert nth_absent(present, len(complement) + 2) == upper + 2


@settings(deadline=None)
@example(np.uint64, set(), [5])
@given(st.sampled_from([np.int64, np.uint64]), st.sets(st.integers(1, 300), max_size=40),
       st.lists(st.integers(0, 302), max_size=20))
def test_positions_finds_each_key_in_a_sorted_column(dtype, values, keys):
    # int64 columns run through zero, uint64 ones through 2**63 (packed id keys)
    offset = -150 if dtype is np.int64 else 2**63 - 150
    column = sorted(v + offset for v in values)
    where = {v: j for j, v in enumerate(column)}  # the oracle
    # below, above and at both ends of the column, then anywhere
    keys = [offset, offset + 301, *column[:1], *column[-1:], *(k + offset for k in keys)]
    present = np.array(column, dtype=dtype)
    found = positions(present, np.array(keys, dtype=dtype))
    assert found.dtype == np.int64
    assert found.tolist() == [where.get(k, -1) for k in keys]
    for k in keys[:4]:  # a scalar key gives the scalar answer
        assert positions(present, dtype(k)) == where.get(k, -1)


# ----------------------------------------------------------------------
# Per-user edge index
# ----------------------------------------------------------------------

@settings(deadline=None)
@given(edge_datasets())
def test_user_items_rows_are_each_users_sorted_items(ds):
    indptr, items = ds.user_items("buy")
    assert indptr.dtype == items.dtype == np.int64
    assert len(indptr) == ds.manifest.num_users + 1
    for u in range(ds.manifest.num_users):
        expected = sorted(i for v, i in ds.edges["buy"] if v == u)
        assert items[indptr[u] : indptr[u + 1]].tolist() == expected


# ----------------------------------------------------------------------
# Split/dataset IO and behavior dropping
# ----------------------------------------------------------------------

class TestIO:
    def test_write_split_roundtrip(self, toy_dataset_dir, tmp_path):
        ds = load_dataset(toy_dataset_dir)
        split = split_leave_one_out(ds)
        out = tmp_path / "split"
        write_split(split, str(out))
        loaded = load_split(str(out))
        assert loaded.train.edges == split.train.edges
        assert set(loaded.validation) == set(split.validation)
        assert set(loaded.test) == set(split.test)

    def test_split_duplicate_train_pair_keeps_earliest_timestamp(
            self, toy_dataset_dir, tmp_path):
        out = tmp_path / "split"
        write_split(split_leave_one_out(load_dataset(toy_dataset_dir)), str(out))
        with open(out / "train.view.tsv", "a", encoding="utf-8") as fh:
            fh.write("alice\tapple\t100\nalice\tapple\n")
        loaded = load_split(str(out))
        assert loaded.train.edges["view"][(0, 0)] == 3  # the first line's stamp

    def test_drop_behaviors(self):
        ds = make_dataset({"view": {(0, 0): 1}, "buy": {(0, 0): 1}}, "buy")
        out = drop_behaviors(ds, ("view",))
        assert out.manifest.behaviors == ("buy",)
        assert out.manifest.num_users == ds.manifest.num_users
        with pytest.raises(DatasetError, match="target"):
            drop_behaviors(ds, ("buy",))

    def test_derived_datasets_share_the_edge_sets_they_leave_unchanged(self):
        ds = make_dataset(
            {"view": {(0, 1): 1, (1, 0): 2}, "cart": {(0, 2): 1},
             "buy": {(0, 0): 1, (0, 1): 2, (0, 2): 3, (1, 1): 4}},
            "buy",
        )
        split = split_leave_one_out(ds)
        assert split.train.edges["buy"] is not ds.edges["buy"]
        assert all(split.train.edges[b] is ds.edges[b] for b in ("view", "cart"))
        dropped = drop_behaviors(ds, ("view",))
        assert all(dropped.edges[b] is ds.edges[b] for b in ("cart", "buy"))
        for mode in ("add", "remove"):
            out = perturb(ds, PerturbationSpec(mode, 0.5, ("view",), seed=1))
            assert out.edges["view"] is not ds.edges["view"]
            assert all(out.edges[b] is ds.edges[b] for b in ("cart", "buy"))

    def test_auxiliary_only_users_and_items_are_kept(self, tmp_path):
        path = write_dataset_dir(
            tmp_path / "auxonly", ["view", "buy"], "buy",
            {"view": "lurker\tghost_item\t1\nalice\tapple\t1\n",
             "buy": "alice\tapple\t9\n"},
        )
        ds = load_dataset(path)
        assert "lurker" in ds.user_ids
        assert "ghost_item" in ds.item_ids
        assert ds.manifest.num_users == 2 and ds.manifest.num_items == 2


# ----------------------------------------------------------------------
# The array store against the dict reference it replaced
# ----------------------------------------------------------------------

def _outcome(f, *args):
    """``("ok", result)``, or ``("error", message)`` for a `DatasetError`."""
    try:
        return "ok", f(*args)
    except DatasetError as exc:
        return "error", str(exc)


def _tree_bytes(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


# few raw ids, so pairs repeat; non-ASCII ones, and one that starts a comment
_RAW_ID_LIST = ["a", "b", "c1", "ü", "xé", "#h"]
_RAW_IDS = st.sampled_from(_RAW_ID_LIST)
_SEPARATORS = st.sampled_from(["\t", " ", "\t\t", " \u3000", "\x1f"])


@st.composite
def tsv_texts(draw):
    """Behavior files of timed and untimed edges with repeated pairs,
    comments, blank lines, CRLF ends and, now and then, one malformed line."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        u, i, sep = draw(_RAW_IDS), draw(_RAW_IDS), draw(_SEPARATORS)
        line = draw(st.sampled_from([
            sep.join([u, i, str(draw(st.integers(0, 4)))]),
            sep.join([u, i, str(draw(st.integers(0, 4)))]),
            sep.join([u, i]),
            "# a comment", "  #\tx\ty", "", " \t",
        ]))
        lines.append(draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["\n", "\r\n"])))
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from(["a", "a b 1 2", "a b x", "a b -3", "a b 1_0", "a b \u0663"]))
        lines.insert(draw(st.integers(0, len(lines))), bad + "\n")
    return "".join(lines) + draw(st.sampled_from(["", "c1\tb"]))  # maybe no final newline


@settings(deadline=None, max_examples=150)
@given(st.lists(tsv_texts(), min_size=1, max_size=3))
# as many tokens as three per data line, with an untimed edge and a comment
@example(["a\ta\t0\na\ta\n# a comment\nc1\tb\n"])
def test_load_write_split_and_diagnose_match_the_dict_reference(texts):
    names = [f"b{k}" for k in range(len(texts))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_dataset_dir(tmp / "in", names, names[-1], dict(zip(names, texts)))
        status, ds = _outcome(load_dataset, path)
        assert (status, as_ref(ds) if status == "ok" else ds) == _outcome(
            reference.load_dataset, path)
        if status != "ok":
            return
        ref = as_ref(ds)
        assert all(ds.edges[b] == ref.edges[b] for b in names)
        assert _outcome(diagnose, ds) == _outcome(reference.diagnose, ref)

        save_dataset(ds, str(tmp / "new"))
        reference.write_tables(ref, str(tmp / "old"), "")
        write_split(split_leave_one_out(ds), str(tmp / "new_split"))
        reference.write_split(*reference.split_leave_one_out(ref)[:3], str(tmp / "old_split"))
        for new, old in (("new", "old"), ("new_split", "old_split")):
            assert _tree_bytes(tmp / new) == _tree_bytes(tmp / old)


def test_a_timestamp_beyond_int64_is_a_data_error(tmp_path):
    path = write_dataset_dir(tmp_path / "big", ["buy"], "buy",
                             {"buy": f"u\ti\t1\nu\tj\t{2**63}\n"})
    with pytest.raises(DatasetError, match=r"buy\.tsv:2: timestamp .* out of range"):
        load_dataset(path)


@st.composite
def id_maps(draw):
    """The raw ids `tsv_texts` draws, in a drawn dense order, but one."""
    raws = draw(st.permutations(_RAW_ID_LIST))
    del raws[draw(st.integers(0, len(raws) - 1))]
    return raws


@settings(deadline=None, max_examples=150)
@given(tsv_texts(), id_maps(), id_maps())
# a line whose user and item are both missing names the user, and its
# timestamp is checked before its ids
@example("a\ta\nb\tc1\n", ["a", "c1"], ["a"])
@example("a\ta\nb\tc1\t-3\n", ["a", "c1"], ["a"])
def test_general_reader_with_id_maps_matches_the_dict_reference(text, users, items):
    no_keys = np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    ids = tuple(data._IdMap(tuple(raws), *no_keys) for raws in (users, items))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.tsv")
        Path(path).write_bytes(text.encode("utf-8"))
        with mock.patch.object(data, "_fields", lambda raw: None):
            status, out = _outcome(data._parse_tsv, path, ids)
        expected = _outcome(reference.parse_tsv, path,
                            tuple({r: d for d, r in enumerate(m.raws)} for m in ids))
    if status == "ok":
        assert all(col.dtype == np.int64 for col in out)
        users, items, ts = (col.tolist() for col in out)
        out = list(zip(users, items)), [None if t < 0 else t for t in ts]
    assert (status, out) == expected


@st.composite
def dict_datasets(draw):
    """An up to 6 x 6 dataset of 1-3 behaviors with timed and untimed edges,
    and the same dataset as a `RefDataset` of the drawn dicts."""
    num_users, num_items = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    names = [f"b{k}" for k in range(draw(st.integers(1, 3)))]
    pairs = st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1))
    stamps = st.one_of(st.none(), st.integers(0, 4))
    edges = {b: draw(st.dictionaries(pairs, stamps)) for b in names}
    ds = make_dataset(edges, names[-1], num_users, num_items)
    return ds, reference.RefDataset(ds.manifest, edges, ds.user_ids, ds.item_ids)


@settings(deadline=None, max_examples=150)
@given(dict_datasets())
def test_split_and_diagnose_match_the_dict_reference(case):
    ds, ref = case
    split = split_leave_one_out(ds)
    train, validation, test, skipped = reference.split_leave_one_out(ref)
    assert as_ref(split.train) == train
    assert (split.validation, split.test, split.users_without_holdout) == (
        validation, test, skipped)
    assert _outcome(diagnose, ds) == _outcome(reference.diagnose, ref)


@settings(deadline=None, max_examples=150)
@given(dict_datasets())
def test_write_split_then_load_split_gives_the_split_back(case):
    split = split_leave_one_out(case[0])
    target = split.train.manifest.target
    with tempfile.TemporaryDirectory() as tmp:
        write_split(split, tmp)
        if not split.train.edge_count(target):
            with pytest.raises(DatasetError, match=f"empty target behavior {target!r}"):
                load_split(tmp)
            return
        loaded = load_split(tmp)
    # users_without_holdout is not stored on disk
    assert loaded.train.manifest == split.train.manifest
    assert (loaded.train.user_ids, loaded.train.item_ids) == (
        split.train.user_ids, split.train.item_ids)
    assert loaded.train.edges == split.train.edges
    assert (loaded.validation, loaded.test) == (split.validation, split.test)


def _edge_triples(edges):
    """An edge set as ``(user, item, timestamp)`` triples, −1 for no timestamp."""
    return set(zip(edges.user.tolist(), edges.item.tolist(), edges.ts.tolist()))


def _raw_edges(ds, behavior):
    """A behavior's edges as ``(raw user, raw item, timestamp)`` triples."""
    return {(ds.user_ids[u], ds.item_ids[i], t) for u, i, t in _edge_triples(ds.edges[behavior])}


@settings(deadline=None, max_examples=150)
@given(dict_datasets())
def test_save_dataset_then_load_dataset_gives_the_dataset_back(case):
    ds = case[0]
    target = ds.manifest.target
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, tmp)
        if not ds.edge_count(target):
            with pytest.raises(DatasetError, match=f"empty target behavior {target!r}"):
                load_dataset(tmp)
            return
        loaded = load_dataset(tmp)
    # loading keeps the ids that occur in an edge, in sorted raw-id order
    used = [{ds.user_ids[u] for e in ds.edges.values() for u in e.user.tolist()},
            {ds.item_ids[i] for e in ds.edges.values() for i in e.item.tolist()}]
    assert (loaded.user_ids, loaded.item_ids) == (tuple(sorted(used[0])), tuple(sorted(used[1])))
    assert (loaded.manifest.behaviors, loaded.manifest.target) == (
        ds.manifest.behaviors, target)
    assert all(_raw_edges(loaded, b) == _raw_edges(ds, b) for b in ds.manifest.behaviors)


@settings(deadline=None, max_examples=150)
@given(dict_datasets())
def test_split_holds_out_each_users_latest_two_target_pairs(case):
    ds, ref = case
    target = ds.manifest.target
    split = split_leave_one_out(ds)
    by_user = {}
    for (u, i), ts in ref.edges[target].items():
        by_user.setdefault(u, []).append((0 if ts is None else ts, i))
    test, validation, kept = [], [], dict(ref.edges[target])
    for u in sorted(by_user):
        order = sorted(by_user[u])  # by (timestamp, item id)
        if len(order) >= 3:
            test.append((u, order[-1][1]))
            validation.append((u, order[-2][1]))
            del kept[(u, order[-1][1])], kept[(u, order[-2][1])]
    assert (split.test, split.validation) == (tuple(test), tuple(validation))
    assert split.users_without_holdout == sum(len(v) < 3 for v in by_user.values())
    assert _edge_triples(split.train.edges[target]) == {
        (u, i, -1 if t is None else t) for (u, i), t in kept.items()}
    for b in ds.manifest.auxiliary:
        assert split.train.edges[b] is ds.edges[b]


@settings(deadline=None, max_examples=150)
@given(dict_datasets(), st.sampled_from(["add", "remove"]),
       st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_perturb_matches_the_dict_reference(case, mode, ratio, seed):
    ds, ref = case
    spec = PerturbationSpec(mode, ratio, ds.manifest.auxiliary, seed)
    status, out = _outcome(perturb, ds, spec)
    assert (status, as_ref(out) if status == "ok" else out) == _outcome(
        reference.perturb, ref, spec)
    if status != "ok":
        return
    target = ds.manifest.target
    assert out.edges[target] is ds.edges[target]
    sign = 1 if mode == "add" else -1
    for b in ds.manifest.auxiliary:
        count = math.ceil(ratio * len(ref.edges[b]))
        assert len(out.edges[b]) == len(ref.edges[b]) + sign * count


def test_edge_set_answers_the_mapping_reads_of_the_benchmark():
    """`perfbench/workloads.py` and `perfbench/tracing.py` read ``ds.edges[b]``
    as a mapping ``(user, item) -> timestamp or None``."""
    pairs = {(2, 1): 7, (0, 3): None, (0, 1): 4, (1, 0): 0}
    edges = make_dataset({"buy": pairs}, "buy", 3, 4).edges["buy"]
    empty = EdgeSet([], [], [], 4)
    assert len(edges) == 4 and edges and len(empty) == 0 and not empty
    assert list(edges) == [(0, 1), (0, 3), (1, 0), (2, 1)]  # code order
    assert all(type(u) is int and type(i) is int for u, i in edges)
    assert np.array(list(edges), dtype=np.int64).T.tolist() == [[0, 0, 1, 2], [1, 3, 0, 1]]
    assert (0, 3) in edges and edges[(2, 1)] == 7 and edges[(0, 3)] is None
    assert edges.get((0, 3), -1) is None
    # no edge, or not a pair of ids; (0, 4) is not the code of (1, 0)
    for key in [(1, 1), (-1, 0), (0, 4), (1,), "ab", None]:
        assert key not in edges and key not in empty and edges.get(key, -1) == -1
        with pytest.raises(KeyError):
            edges[key]
    assert list(edges.items()) == sorted(pairs.items())
    assert list(edges.values()) == [4, None, 0, 7]
    assert edges == pairs and pairs == edges and not edges != pairs
    assert edges != {**pairs, (1, 1): 0} and edges != {**pairs, (0, 3): 0}
    assert dict(edges) == pairs
    same = EdgeSet([1, 0, 2, 0], [0, 1, 1, 3], [0, 4, 7, -1], 4)
    assert edges == same and edges != EdgeSet([1, 0, 2, 0], [0, 1, 1, 3], [0, 4, 7, 2], 4)
    with pytest.raises(ValueError):
        edges.code[0] = 5  # the arrays are read-only
    with pytest.raises(TypeError):
        edges[(1, 1)] = 0


def test_edge_set_keeps_each_pairs_earliest_timestamp():
    edges = EdgeSet([0, 0, 0, 1, 1], [1, 1, 1, 0, 0], [5, -1, 3, -1, -1], 2)
    assert edges == {(0, 1): 3, (1, 0): None}
    with pytest.raises(ValueError, match="out of range"):
        EdgeSet([0], [2], [0], 2)


def test_edge_set_does_not_share_the_callers_arrays():
    # already sorted by code, so no reordering would be needed
    users, items, ts = (np.array(a, dtype=np.int64) for a in ([0, 0, 1], [0, 1, 0], [3, -1, 5]))
    edges = EdgeSet(users, items, ts, 2)
    users[0], items[1], ts[2] = 1, 0, 9
    assert edges == {(0, 0): 3, (0, 1): None, (1, 0): 5}
    assert edges.code.tolist() == [0, 1, 2]


def test_edge_set_in_code_order_equals_the_sorted_one():
    # strictly increasing codes skip the sort; reversed, the same edges take it
    users, items, ts = [0, 0, 1, 2], [1, 3, 0, 1], [4, -1, 0, 7]
    ordered = EdgeSet(users, items, ts, 4)
    shuffled = EdgeSet(users[::-1], items[::-1], ts[::-1], 4)
    for column in ("user", "item", "ts", "code"):
        assert getattr(ordered, column).tolist() == getattr(shuffled, column).tolist()


def test_edge_sets_are_equal_by_pairs_and_timestamps_whatever_the_catalog():
    # (1, 0) is code 2 under 2 items and code 3 under 3
    assert EdgeSet([1], [0], [5], 2) == EdgeSet([1], [0], [5], 3)
    assert EdgeSet([1], [0], [5], 2) != EdgeSet([1], [0], [6], 3)
    assert EdgeSet([1], [0], [5], 2) != EdgeSet([1], [1], [5], 3)
    assert EdgeSet([1], [0], [5], 2) != EdgeSet([0], [2], [5], 3)  # code 2 again
    assert EdgeSet([0, 1], [1, 0], [-1, 5], 2) == EdgeSet([1, 0], [0, 1], [5, -1], 4)
    assert EdgeSet([0, 1], [1, 0], [-1, 5], 2) != EdgeSet([0], [1], [-1], 2)


def test_edge_set_stores_two_columns_of_8_bytes_per_edge():
    n = 20_000
    codes = np.random.default_rng(3).choice(1000 * 500, size=n, replace=False)
    users, items = np.divmod(codes, 500)
    ts = np.arange(n)
    tracemalloc.start()
    try:
        edges = EdgeSet(users, items, ts, 500)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(edges) == n and retained <= 16 * n + 1024


def test_derived_columns_are_read_only_and_not_kept():
    edges = EdgeSet([2, 0, 1], [1, 3, 0], [7, -1, 0], 4)
    for column in (edges.user, edges.item, edges.ts, edges.code):
        with pytest.raises(ValueError):
            column[0] = 1
    assert edges.user.tolist() == [0, 1, 2] and edges.item.tolist() == [3, 0, 1]
    assert edges.user is not edges.user  # derived on each read
    assert not hasattr(edges, "__dict__")


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_edge_set_columns_and_rows_match_a_dict_oracle(num_users, num_items, extra):
    rows = extra.draw(st.lists(st.tuples(
        st.integers(0, num_users - 1), st.integers(0, num_items - 1), st.integers(-1, 4))))
    oracle = {}  # each pair's earliest timestamp, −1 only where it has none
    for u, i, t in rows:
        kept = oracle.get((u, i), -1)
        oracle[(u, i)] = t if kept < 0 else kept if t < 0 else min(kept, t)
    users, items, ts = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    edges = EdgeSet(users, items, ts, num_items)
    pairs = sorted(oracle)
    assert edges.user.tolist() == [u for u, _ in pairs]
    assert edges.item.tolist() == [i for _, i in pairs]
    assert edges.ts.tolist() == [oracle[p] for p in pairs]
    ds = InteractionDataset.assemble(["buy"], "buy", {"buy": edges},
                                     [f"u{k}" for k in range(num_users)],
                                     [f"i{k}" for k in range(num_items)])
    indptr, row_items = ds.user_items("buy")
    assert [row_items[indptr[u]:indptr[u + 1]].tolist() for u in range(num_users)] == [
        [i for v, i in pairs if v == u] for u in range(num_users)]


def test_dense_ids_look_up_keys_in_any_order_with_repeats():
    m = data._IdMap(("a", "b", "c"), np.array([10, 20, 30], dtype=np.uint64),
                    np.array([2, 0, 1], dtype=np.int64))
    keys = np.array([30, 10, 30, 20, 10], dtype=np.uint64)
    assert data._dense_ids(m, keys).tolist() == [1, 2, 1, 0, 2]
    assert data._dense_ids(m, np.zeros(0, dtype=np.uint64)).tolist() == []
    assert data._dense_ids(m, np.array([30, 25, 30], dtype=np.uint64)) is None


# ----------------------------------------------------------------------
# The byte path for canonical text against the general reader
# ----------------------------------------------------------------------

_BOM = "\ufeff"


@pytest.mark.parametrize("first_line", ["u1\ti1\t5\n", "# a log\nu1 i1 5\n"],
                         ids=["canonical", "general"])
def test_a_utf8_bom_is_not_part_of_the_first_id(tmp_path, first_line):
    path = write_dataset_dir(tmp_path / "bom", ["view", "buy"], "buy",
                             {"view": _BOM + first_line + "u2\ti1\t6\n",
                              "buy": _BOM + "u1\ti1\t7\n"})
    manifest = Path(path, "manifest.json")
    manifest.write_text(_BOM + manifest.read_text(encoding="utf-8"), encoding="utf-8")
    ds = load_dataset(path)
    assert ds.user_ids == ("u1", "u2") and ds.manifest.num_users == 2
    assert ds.edges["view"] == {(0, 0): 5, (1, 0): 6}

    out = tmp_path / "split"
    write_split(split_leave_one_out(ds), str(out))
    for name in ("users.map", "items.map", "train.view.tsv", "manifest.json"):
        body = (out / name).read_text(encoding="utf-8")
        (out / name).write_text(_BOM + body, encoding="utf-8")
    loaded = load_split(str(out))
    assert loaded.train.user_ids == ("u1", "u2")
    assert loaded.train.edges == ds.edges


def _columns_of(ds):
    """Everything a dataset holds, every edge set column with its dtype."""
    return (ds.manifest, ds.user_ids, ds.item_ids,
            [(b, e.num_items, [(getattr(e, c).dtype.str, getattr(e, c).tolist())
                               for c in ("user", "item", "ts", "code")])
             for b, e in ds.edges.items()])


def _comparable(outcome):
    """An `_outcome` of `load_dataset` or `load_split`, with what it loaded
    as `_columns_of`."""
    status, out = outcome
    if status != "ok":
        return outcome
    if isinstance(out, InteractionDataset):
        return status, _columns_of(out)
    return status, _columns_of(out.train), out.validation, out.test


def _outcomes(load, path):
    """``load(path)`` as loaded (`_outcome`) and as the general reader
    alone loads it, and what the byte path made of each file it read."""
    read = []

    def spy(raw):
        read.append(canonical(raw))
        return read[-1]

    canonical = data._canonical_columns
    with mock.patch.object(data, "_canonical_columns", spy):
        fast = _outcome(load, path)
    with mock.patch.object(data, "_fields", lambda raw: None):
        general = _outcome(load, path)
    return fast, general, read


_ID_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_.-"
# mostly short ids and timestamps; 9 bytes and 19 digits are not canonical
_CANONICAL_IDS = st.one_of(st.text(_ID_CHARS, min_size=1, max_size=2),
                           st.text(_ID_CHARS, min_size=1, max_size=9))
_STAMPS = st.one_of(st.integers(1, 2), st.integers(1, 19)).flatmap(
    lambda n: st.text("0123456789", min_size=n, max_size=n))
_MUTATIONS = ["space", "comment", "nul", "cr", "no final LF", "+5", "non-ASCII"]


def _fits(text):
    """Whether every id of ``text`` has at most 8 bytes and every timestamp
    at most 18 digits."""
    return all(len(f) <= (18 if c == 2 else 8)
               for line in text.splitlines() for c, f in enumerate(line.split("\t")))


@st.composite
def canonical_texts(draw, count):
    """``count`` canonical behavior files over one pool of users and items."""
    users = draw(st.lists(_CANONICAL_IDS, min_size=1, max_size=5, unique=True))
    items = draw(st.lists(_CANONICAL_IDS, min_size=1, max_size=5, unique=True))
    texts = []
    for _ in range(count):
        timed = draw(st.booleans())
        lines = draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from(items),
                                        _STAMPS), min_size=1, max_size=8))
        texts.append("".join("\t".join(line if timed else line[:2]) + "\n"
                             for line in lines))
    return texts


def _mutate(draw, text, mutation):
    """``text`` with one edit that makes it not canonical."""
    lines = text.splitlines(keepends=True)
    k = draw(st.integers(0, len(lines) - 1))
    fields = lines[k].rstrip("\n").split("\t")
    if mutation == "space":
        lines[k] = lines[k].replace("\t", " ", 1)
    elif mutation == "comment":
        lines.insert(k, "#" + lines[k])
    elif mutation == "nul":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + "\0" + text[at:]
    elif mutation == "cr":
        lines[k] = lines[k][:-1] + "\r\n"
    elif mutation == "no final LF":
        return text[:-1]
    elif mutation == "+5":
        lines.insert(k, "\t".join([*fields[:2], "+5"]) + "\n")
    else:
        lines.insert(k, "\t".join(["\u00e9" + fields[0], *fields[1:]]) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("mutation", [None, *_MUTATIONS])
@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3).flatmap(canonical_texts), st.data())
def test_load_dataset_takes_the_byte_path_with_the_tokenizers_outcome(mutation, texts, extra):
    names = [f"b{k}" for k in range(len(texts))]
    if mutation is not None:
        m = extra.draw(st.integers(0, len(texts) - 1))
        texts[m] = _mutate(extra.draw, texts[m], mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_dataset_dir(Path(tmp, "in"), names, names[-1], dict(zip(names, texts)))
        fast, general, read = _outcomes(load_dataset, path)
    assert _comparable(fast) == _comparable(general)
    for k, cols in enumerate(read):
        canonical = _fits(texts[k]) and (mutation is None or k != m)
        assert (cols is not None) == canonical, (k, texts[k])


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 3).flatmap(canonical_texts), st.data())
def test_load_split_takes_the_byte_path_with_the_tokenizers_outcome(texts, extra):
    names = [f"b{k}" for k in range(len(texts))]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_dataset_dir(Path(tmp, "in"), names, names[-1], dict(zip(names, texts)))
        status, ds = _outcome(load_dataset, path)
        if status != "ok":  # a timestamp beyond int64
            return
        out = Path(tmp, "split")
        write_split(split_leave_one_out(ds), str(out))
        files = sorted(name for name in os.listdir(out) if name.endswith(".tsv"))
        fname = extra.draw(st.one_of(st.none(), st.sampled_from(files)))
        if fname is not None and (out / fname).stat().st_size:
            mutation = extra.draw(st.sampled_from(_MUTATIONS))
            text = (out / fname).read_text(encoding="utf-8")
            (out / fname).write_text(_mutate(extra.draw, text, mutation), encoding="utf-8")
        map_name = extra.draw(st.one_of(st.none(), st.sampled_from(["users.map", "items.map"])))
        if map_name is not None:
            lines = (out / map_name).read_text(encoding="utf-8").splitlines(keepends=True)
            del lines[extra.draw(st.integers(0, len(lines) - 1))]
            (out / map_name).write_text("".join(lines), encoding="utf-8")
        fast, general, read = _outcomes(load_split, str(out))
    assert _comparable(fast) == _comparable(general)
    if fname is None and map_name is None and all(map(_fits, texts)):
        assert fast[0] == "ok" and None not in read


@pytest.mark.parametrize("text", [
    "u\ti\nx",  # a last line with no LF
    "u\ti\n\n", "u\t\ti\n", "\tu\ti\n", "u\ti\t\n",  # an empty field
    "u\ti\nv\tj\t1\n", "u\ti\t1\nv\tj\n",  # 2 and 3 fields
    "u\ti\t\u0661\n", "u\ti\t-1\n", "u\ti\tx\n", "u\ti\t1\tj\n", "u\n",
    "u\ti\t9223372036854775808\n", "u\ti\t0000000000000000001\n",  # 19 digits
    "u\ti\x1c\n", "u\ti\x0b\n", "u\ti\x85\n",  # whitespace to str.split
])
def test_text_that_is_not_canonical_goes_through_the_tokenizer(tmp_path, text):
    path = write_dataset_dir(tmp_path / "d", ["buy"], "buy", {"buy": text})
    fast, general, read = _outcomes(load_dataset, path)
    assert read == [None]
    assert _comparable(fast) == _comparable(general)
