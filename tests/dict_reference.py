"""The dict-based data layer that `mbrobust.data` replaced, kept as the
reference the property tests in ``test_data.py`` compare the array store to.

Each function is the former implementation with a behavior's edges held as a
``{(user, item): timestamp or None}`` dict: loading with its per-line parse
and dict dedup, the leave-one-out split, the diagnostics, the seeded
perturbation and the TSV writers.  `RefDataset` stands in for
`InteractionDataset`; `as_ref` converts one through its edge sets' mapping
protocol.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from mbrobust.data import (
    DatasetError,
    DatasetManifest,
    DiagnosticsReport,
    _read_manifest,
    nth_absent,
)


@dataclass(frozen=True)
class RefDataset:
    manifest: DatasetManifest
    edges: dict[str, dict[tuple[int, int], int | None]]
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]


def as_ref(ds) -> RefDataset:
    """An `InteractionDataset` with its edge sets copied into dicts."""
    edges = {b: dict(e.items()) for b, e in ds.edges.items()}
    return RefDataset(ds.manifest, edges, ds.user_ids, ds.item_ids)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def parse_tsv(path, ids=None):
    pairs, stamps = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise DatasetError(
                    f"{path}:{lineno}: expected 2 or 3 columns, got {len(fields)}"
                )
            ts = None
            if len(fields) == 3:
                try:
                    ts = int(fields[2])
                except ValueError:
                    raise DatasetError(
                        f"{path}:{lineno}: timestamp {fields[2]!r} is not an integer"
                    ) from None
                if ts < 0:
                    raise DatasetError(f"{path}:{lineno}: negative timestamp {ts}")
            stamps.append(ts)
            if ids is None:
                pairs.append((fields[0], fields[1]))
                continue
            try:
                pairs.append((ids[0][fields[0]], ids[1][fields[1]]))
            except KeyError as exc:
                raise DatasetError(
                    f"{path}:{lineno}: id {exc.args[0]!r} is not in "
                    "users.map/items.map"
                ) from None
    return pairs, stamps


def dedup_edges(pairs, stamps):
    """A duplicate pair keeps its earliest timestamp; an untimed duplicate
    never overrides."""
    edges = {}
    for pair, ts in zip(pairs, stamps):
        prev = edges.get(pair, -1)
        if prev == -1 or (ts is not None and (prev is None or ts < prev)):
            edges[pair] = ts
    return edges


def load_dataset(path) -> RefDataset:
    behaviors, target = _read_manifest(path)
    raw = {b: parse_tsv(os.path.join(path, f"{b}.tsv")) for b in behaviors}
    if not raw[target][0]:
        raise DatasetError(f"empty target behavior {target!r}")
    users = sorted({u for pairs, _ in raw.values() for u, _ in pairs})
    items = sorted({i for pairs, _ in raw.values() for _, i in pairs})
    u_map = {u: d for d, u in enumerate(users)}
    i_map = {i: d for d, i in enumerate(items)}
    edges = {
        b: dedup_edges([(u_map[u], i_map[i]) for u, i in pairs], stamps)
        for b, (pairs, stamps) in raw.items()
    }
    manifest = DatasetManifest(behaviors, target, len(users), len(items))
    return RefDataset(manifest, edges, tuple(users), tuple(items))


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------

def write_tables(ds: RefDataset, path, prefix) -> None:
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"behaviors": list(ds.manifest.behaviors), "target": ds.manifest.target},
            fh,
            indent=2,
        )
        fh.write("\n")
    for b in ds.manifest.behaviors:
        with open(os.path.join(path, f"{prefix}{b}.tsv"), "w", encoding="utf-8") as fh:
            for (u, i), ts in sorted(ds.edges[b].items()):
                cols = [ds.user_ids[u], ds.item_ids[i]]
                if ts is not None:
                    cols.append(str(ts))
                fh.write("\t".join(cols) + "\n")


def write_id_maps(ds: RefDataset, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for fname, ids in (("users.map", ds.user_ids), ("items.map", ds.item_ids)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for dense, raw in sorted(enumerate(ids), key=lambda p: p[1]):
                fh.write(f"{raw}\t{dense}\n")


def write_split(train: RefDataset, validation, test, out_dir) -> None:
    write_tables(train, out_dir, "train.")
    write_id_maps(train, out_dir)
    for fname, pairs in (("validation.tsv", validation), ("test.tsv", test)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for u, i in pairs:
                fh.write(f"{train.user_ids[u]}\t{train.item_ids[i]}\n")


# ----------------------------------------------------------------------
# Leave-one-out split
# ----------------------------------------------------------------------

def split_leave_one_out(ds: RefDataset):
    """``(train, validation, test, users_without_holdout)``."""
    target = ds.manifest.target
    by_user = {}
    for (u, i), ts in ds.edges[target].items():
        by_user.setdefault(u, []).append((i, ts))
    train_target, validation, test = {}, [], []
    skipped = 0
    for u in sorted(by_user):
        entries = sorted(by_user[u], key=lambda e: (0 if e[1] is None else e[1], e[0]))
        if len(entries) < 3:
            skipped += 1
            for i, ts in entries:
                train_target[(u, i)] = ts
            continue
        *rest, second_latest, latest = entries
        test.append((u, latest[0]))
        validation.append((u, second_latest[0]))
        for i, ts in rest:
            train_target[(u, i)] = ts
    train = replace(ds, edges={**ds.edges, target: train_target})
    return train, tuple(validation), tuple(test), skipped


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

def compute_bar(ds: RefDataset, behavior) -> float:
    target_pairs = ds.edges[ds.manifest.target].keys()
    if not target_pairs:
        raise DatasetError("empty target behavior: alignment ratio is undefined")
    return len(ds.edges[behavior].keys() & target_pairs) / len(target_pairs)


def dt_with_flag(ds: RefDataset):
    target_edges = ds.edges[ds.manifest.target]
    if not target_edges:
        raise DatasetError("empty target behavior: direct-target ratio is undefined")
    approximate = False
    direct = 0
    for pair, t_ts in target_edges.items():
        preceded = False
        for b in ds.manifest.auxiliary:
            a_ts = ds.edges[b].get(pair, -1)
            if a_ts == -1:
                continue
            if t_ts is None or a_ts is None:
                preceded = True
                approximate = True
            elif a_ts < t_ts:
                preceded = True
        if not preceded:
            direct += 1
    return direct / len(target_edges), approximate


def diagnose(ds: RefDataset) -> DiagnosticsReport:
    dt, approximate = dt_with_flag(ds)
    return DiagnosticsReport(
        bar={b: compute_bar(ds, b) for b in ds.manifest.behaviors},
        dt=dt,
        dt_approximate=approximate,
        counts={b: len(ds.edges[b]) for b in ds.manifest.behaviors},
        num_users=ds.manifest.num_users,
        num_items=ds.manifest.num_items,
    )


# ----------------------------------------------------------------------
# Seeded perturbation
# ----------------------------------------------------------------------

def perturb(ds: RefDataset, spec) -> RefDataset:
    target = ds.manifest.target
    for b in spec.behaviors:
        if b == target:
            raise DatasetError("perturbation must not touch the target behavior")
        if b not in ds.manifest.behaviors:
            raise DatasetError(f"behavior {b!r} not declared in manifest")
    n_users, n_items = ds.manifest.num_users, ds.manifest.num_items
    rng = np.random.default_rng(spec.seed)
    edges = dict(ds.edges)
    for b in ds.manifest.behaviors:
        if b not in spec.behaviors:
            continue
        codes = np.array(sorted(u * n_items + i for u, i in edges[b]), dtype=np.int64)
        count = math.ceil(spec.ratio * len(codes))
        if count == 0:
            continue
        edges[b] = dict(edges[b])
        if spec.mode == "remove":
            for code in codes[rng.choice(len(codes), size=count, replace=False)].tolist():
                del edges[b][divmod(code, n_items)]
        else:
            free = n_users * n_items - len(codes)
            if free < count:
                raise DatasetError(
                    f"cannot add {count} edges to {b!r}: only {free} non-edges available"
                )
            picked = rng.choice(free, size=count, replace=False)
            for code in nth_absent(codes, picked).tolist():
                edges[b][divmod(code, n_items)] = 0
    return replace(ds, edges=edges)
