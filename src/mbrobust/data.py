"""Multi-behavior interaction data: loading, leave-one-out splits, alignment
diagnostics, and seeded edge perturbation.

A dataset lives in a directory with a ``manifest.json`` naming the ordered
behavior list and the target behavior, plus one ``<behavior>.tsv`` file per
behavior (``user_id<TAB>item_id[<TAB>timestamp]``, ``#`` comments allowed).
Raw ids may be arbitrary strings; they are compacted to dense integers via a
lexicographically sorted id map shared across behaviors, so reloading the
same directory always yields identical dense ids.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

Edge = tuple[int, int]
# behavior -> {(user, item): earliest timestamp or None}
EdgeMap = dict[str, dict[Edge, int | None]]


class DatasetError(Exception):
    """Raised for malformed or inconsistent dataset inputs."""


@dataclass(frozen=True)
class DatasetManifest:
    behaviors: tuple[str, ...]
    target: str
    num_users: int
    num_items: int

    def __post_init__(self):
        if len(self.behaviors) == 0:
            raise DatasetError("manifest declares no behaviors")
        if len(set(self.behaviors)) != len(self.behaviors):
            raise DatasetError("duplicate behavior names in manifest")
        if self.target not in self.behaviors:
            raise DatasetError(f"target behavior {self.target!r} not in behavior list")

    @property
    def auxiliary(self) -> tuple[str, ...]:
        return tuple(b for b in self.behaviors if b != self.target)


@dataclass(frozen=True)
class InteractionDataset:
    """Deduplicated per-behavior edge sets over a shared user/item universe.

    ``user_ids[d]`` / ``item_ids[d]`` give the raw id behind dense id ``d``.
    Treat instances as immutable; every transformation returns a new dataset.
    """

    manifest: DatasetManifest
    edges: EdgeMap
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    def edge_count(self, behavior: str) -> int:
        return len(self.edges[behavior])

    def user_items(self, behavior: str) -> tuple[np.ndarray, np.ndarray]:
        """The behavior's edges as CSR rows ``(indptr, items)``: user ``u``'s
        items, in ascending order, are ``items[indptr[u]:indptr[u + 1]]``."""
        edges, n_items = self.edges[behavior], self.manifest.num_items
        codes = np.fromiter((u * n_items + i for u, i in edges), np.int64, len(edges))
        users, items = np.divmod(np.sort(codes), n_items)
        return np.searchsorted(users, np.arange(self.manifest.num_users + 1)), items


@dataclass(frozen=True)
class SplitDataset:
    """Leave-one-out split: latest target interaction per user held out for
    test, second latest for validation, everything else (and all auxiliary
    edges) in train."""

    train: InteractionDataset
    validation: tuple[Edge, ...]
    test: tuple[Edge, ...]
    users_without_holdout: int = 0


@dataclass(frozen=True)
class DiagnosticsReport:
    bar: dict[str, float]
    dt: float
    dt_approximate: bool
    counts: dict[str, int]
    num_users: int
    num_items: int

    def to_json_dict(self) -> dict:
        return {
            "num_users": self.num_users,
            "num_items": self.num_items,
            "counts": dict(self.counts),
            "bar": dict(self.bar),
            "dt": self.dt,
            "dt_approximate": self.dt_approximate,
        }


@dataclass(frozen=True)
class PerturbationSpec:
    mode: str  # "add" | "remove"
    ratio: float
    behaviors: tuple[str, ...]
    seed: int

    def __post_init__(self):
        # a bad spec is a configuration error (a ValueError), not a data error
        if self.mode not in ("add", "remove"):
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        if not (0.0 < self.ratio <= 1.0):
            raise ValueError(f"perturbation ratio must be in (0, 1], got {self.ratio}")


# ----------------------------------------------------------------------
# Loading and serialization
# ----------------------------------------------------------------------

def _parse_tsv(
    path: str, ids: tuple[dict[str, int], dict[str, int]] | None = None
) -> tuple[list[tuple], list[int | None]]:
    """The (user, item) pairs of ``user<TAB>item[<TAB>timestamp]`` lines and
    their timestamps (None where a line has none), as two parallel lists.

    With ``ids`` (user map, item map) the raw ids are translated to dense
    ids, and an id missing from the maps is an error naming the line.
    """
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
            ts: int | None = None
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


def _dedup_edges(pairs: list[Edge], stamps: list[int | None]) -> dict[Edge, int | None]:
    """The map ``pairs[k] -> stamps[k]``.  A duplicate pair keeps its
    earliest timestamp; an untimed duplicate never overrides."""
    # a comprehension, not dict(zip(...)): the latter left the resident set
    # of repeated loads a few MiB larger
    edges = {pair: ts for pair, ts in zip(pairs, stamps)}
    if len(edges) == len(pairs):
        return edges
    edges = {}
    for pair, ts in zip(pairs, stamps):
        prev = edges.get(pair, -1)
        if prev == -1 or (ts is not None and (prev is None or ts < prev)):
            edges[pair] = ts
    return edges


def _read_manifest(path: str) -> tuple[tuple[str, ...], str]:
    """The behavior list and target declared by ``<path>/manifest.json``."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise DatasetError(f"missing manifest file {manifest_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise DatasetError(f"{manifest_path}: not valid JSON ({exc})") from None
    raw = raw if isinstance(raw, dict) else {}
    behaviors, target = raw.get("behaviors"), raw.get("target")
    if not isinstance(behaviors, list) or not all(isinstance(b, str) for b in behaviors):
        behaviors = []
    if target not in behaviors:
        raise DatasetError(
            f"{manifest_path}: manifest must declare 'behaviors' and a 'target' in them"
        )
    return tuple(behaviors), target


def load_dataset(path: str) -> InteractionDataset:
    """Load a dataset directory into a compacted, deduplicated dataset.

    Duplicate (user, item) pairs within a behavior keep the earliest
    timestamp.  Raw ids are mapped to dense ids by sorting the raw id
    strings, which makes reloads bit-identical.
    """
    behaviors, target = _read_manifest(path)
    declared = set(behaviors)
    reserved = {"validation", "test"}
    for name in sorted(os.listdir(path)):
        stem, ext = os.path.splitext(name)
        if ext != ".tsv" or stem in reserved or stem.startswith("train."):
            continue
        if stem not in declared:
            raise DatasetError(f"file {name!r} references undeclared behavior {stem!r}")

    raw: dict[str, tuple[list[tuple[str, str]], list[int | None]]] = {}
    for b in behaviors:
        tsv = os.path.join(path, f"{b}.tsv")
        if not os.path.isfile(tsv):
            raise DatasetError(f"missing behavior file {tsv}")
        raw[b] = _parse_tsv(tsv)

    if not raw[target][0]:
        raise DatasetError(f"empty target behavior {target!r}")

    users = sorted({u for pairs, _ in raw.values() for u, _ in pairs})
    items = sorted({i for pairs, _ in raw.values() for _, i in pairs})
    u_map = {u: d for d, u in enumerate(users)}
    i_map = {i: d for d, i in enumerate(items)}

    edges: EdgeMap = {
        b: _dedup_edges([(u_map[u], i_map[i]) for u, i in pairs], stamps)
        for b, (pairs, stamps) in raw.items()
    }

    manifest = DatasetManifest(
        behaviors=behaviors, target=target, num_users=len(users), num_items=len(items)
    )
    return InteractionDataset(
        manifest=manifest, edges=edges, user_ids=tuple(users), item_ids=tuple(items)
    )


def _write_tables(ds: InteractionDataset, path: str, prefix: str) -> None:
    """Write the manifest and one ``<prefix><behavior>.tsv`` per behavior."""
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


def save_dataset(ds: InteractionDataset, path: str) -> None:
    """Write a dataset back to the directory layout `load_dataset` reads."""
    _write_tables(ds, path, "")


def write_id_maps(ds: InteractionDataset, out_dir: str) -> None:
    """Persist users.map / items.map (``raw_id<TAB>dense_id``, sorted by raw id)."""
    os.makedirs(out_dir, exist_ok=True)
    for fname, ids in (("users.map", ds.user_ids), ("items.map", ds.item_ids)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for dense, raw in sorted(enumerate(ids), key=lambda p: p[1]):
                fh.write(f"{raw}\t{dense}\n")


def write_split(split: SplitDataset, out_dir: str) -> None:
    """Write the split TSVs plus id maps and manifest into ``out_dir``."""
    ds = split.train
    _write_tables(ds, out_dir, "train.")
    write_id_maps(ds, out_dir)
    for fname, pairs in (("validation.tsv", split.validation), ("test.tsv", split.test)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for u, i in pairs:
                fh.write(f"{ds.user_ids[u]}\t{ds.item_ids[i]}\n")


def _read_map(path: str) -> tuple[dict[str, int], tuple[str, ...]]:
    """The raw -> dense map of a ``raw_id<TAB>dense_id`` file and the raw ids
    in dense order.  Raw ids must be unique and the dense ids must be
    0..n-1, each once."""
    out: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                raw, dense = line.rstrip("\n").split("\t")
                dense = int(dense)
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: expected 'raw_id<TAB>dense_id'"
                ) from None
            if raw in out:
                raise DatasetError(f"{path}:{lineno}: raw id {raw!r} repeats")
            out[raw] = dense
    raws: list[str | None] = [None] * len(out)
    for raw, dense in out.items():
        # n distinct in-range ids are exactly 0..n-1
        if not 0 <= dense < len(raws) or raws[dense] is not None:
            raise DatasetError(
                f"{path}: dense ids must be 0..{len(raws) - 1}, each once; "
                f"{raw!r} has {dense}"
            )
        raws[dense] = raw
    return out, tuple(raws)


def load_split(path: str) -> SplitDataset:
    """Load a directory previously written by `write_split`.

    The training target is nonempty, each user has at most one test and one
    validation pair, and no held-out pair is also a training target edge.
    """
    behaviors, target = _read_manifest(path)
    u_map, user_ids = _read_map(os.path.join(path, "users.map"))
    i_map, item_ids = _read_map(os.path.join(path, "items.map"))

    def read(fname: str) -> tuple[list[Edge], list[int | None]]:
        return _parse_tsv(os.path.join(path, fname), (u_map, i_map))

    edges: EdgeMap = {b: _dedup_edges(*read(f"train.{b}.tsv")) for b in behaviors}
    if not edges[target]:
        tsv = os.path.join(path, f"train.{target}.tsv")
        raise DatasetError(f"{tsv}: empty target behavior {target!r}")

    def held_out(fname: str) -> tuple[Edge, ...]:
        item_of: dict[int, int] = {}
        for u, i in read(fname)[0]:
            if u in item_of or (u, i) in edges[target]:
                problem = "has more than one held-out pair" if u in item_of else (
                    f"held-out item {item_ids[i]!r} is a training {target!r} edge"
                )
                raise DatasetError(
                    f"{os.path.join(path, fname)}: user {user_ids[u]!r} {problem}"
                )
            item_of[u] = i
        return tuple(item_of.items())

    manifest = DatasetManifest(
        behaviors=behaviors, target=target, num_users=len(u_map), num_items=len(i_map)
    )
    train = InteractionDataset(
        manifest=manifest, edges=edges, user_ids=user_ids, item_ids=item_ids
    )
    return SplitDataset(
        train=train, validation=held_out("validation.tsv"), test=held_out("test.tsv")
    )


# ----------------------------------------------------------------------
# Leave-one-out split
# ----------------------------------------------------------------------

def _order_key(item: int, ts: int | None) -> tuple[int, int]:
    # missing timestamps sort as 0; ties broken by ascending item id
    return (0 if ts is None else ts, item)


def split_leave_one_out(ds: InteractionDataset) -> SplitDataset:
    """Per user with >= 3 target interactions, hold out the latest for test
    and the second latest for validation (ordered by (timestamp, item id)).

    Users with fewer target interactions keep everything in train and are
    counted in ``users_without_holdout``.  Auxiliary edges are never held out.
    """
    target = ds.manifest.target
    by_user: dict[int, list[tuple[int, int | None]]] = {}
    for (u, i), ts in ds.edges[target].items():
        by_user.setdefault(u, []).append((i, ts))

    train_target: dict[Edge, int | None] = {}
    validation: list[Edge] = []
    test: list[Edge] = []
    skipped = 0
    for u in sorted(by_user):
        entries = sorted(by_user[u], key=lambda e: _order_key(e[0], e[1]))
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

    return SplitDataset(
        # the auxiliary edge sets are shared, not copied: datasets are immutable
        train=replace(ds, edges={**ds.edges, target: train_target}),
        validation=tuple(validation),
        test=tuple(test),
        users_without_holdout=skipped,
    )


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

def compute_bar(ds: InteractionDataset, behavior: str) -> float:
    """Fraction of target (user, item) pairs that also occur in ``behavior``."""
    if behavior not in ds.manifest.behaviors:
        raise DatasetError(f"behavior {behavior!r} not declared in manifest")
    target_pairs = ds.edges[ds.manifest.target].keys()
    if not target_pairs:
        raise DatasetError("empty target behavior: alignment ratio is undefined")
    return len(ds.edges[behavior].keys() & target_pairs) / len(target_pairs)


def _dt_with_flag(ds: InteractionDataset) -> tuple[float, bool]:
    target = ds.manifest.target
    target_edges = ds.edges[target]
    if not target_edges:
        raise DatasetError("empty target behavior: direct-target ratio is undefined")
    aux = ds.manifest.auxiliary
    approximate = False
    direct = 0
    for pair, t_ts in target_edges.items():
        preceded = False
        for b in aux:
            a_ts = ds.edges[b].get(pair, -1)
            if a_ts == -1:  # pair absent from this behavior
                continue
            if t_ts is None or a_ts is None:
                # no usable event times: degrade "preceding" to "co-occurring"
                preceded = True
                approximate = True
            elif a_ts < t_ts:
                preceded = True
        if not preceded:
            direct += 1
    return direct / len(target_edges), approximate


def compute_dt(ds: InteractionDataset) -> float:
    """Fraction of target interactions with no strictly earlier auxiliary
    interaction on the same (user, item) pair.

    Pairs lacking timestamps fall back to pair-level co-occurrence; the
    `diagnose` report flags that case as approximate.
    """
    return _dt_with_flag(ds)[0]


def diagnose(ds: InteractionDataset) -> DiagnosticsReport:
    dt, approximate = _dt_with_flag(ds)
    bar = {b: compute_bar(ds, b) for b in ds.manifest.behaviors}
    counts = {b: ds.edge_count(b) for b in ds.manifest.behaviors}
    return DiagnosticsReport(
        bar=bar,
        dt=dt,
        dt_approximate=approximate,
        counts=counts,
        num_users=ds.manifest.num_users,
        num_items=ds.manifest.num_items,
    )


def drop_behaviors(ds: InteractionDataset, names: tuple[str, ...]) -> InteractionDataset:
    """Remove auxiliary behaviors from the manifest and edge sets.

    The user/item universe is preserved so embeddings keep their shapes.
    """
    drop = set(names)
    if ds.manifest.target in drop:
        raise DatasetError("cannot drop the target behavior")
    unknown = drop - set(ds.manifest.behaviors)
    if unknown:
        raise DatasetError(f"cannot drop undeclared behaviors {sorted(unknown)}")
    kept = tuple(b for b in ds.manifest.behaviors if b not in drop)
    manifest = replace(ds.manifest, behaviors=kept)
    return replace(ds, manifest=manifest, edges={b: ds.edges[b] for b in kept})


# ----------------------------------------------------------------------
# Seeded perturbation
# ----------------------------------------------------------------------

def nth_absent(present: np.ndarray, ranks):
    """The ``ranks``-th (0-based) non-negative integers absent from the sorted,
    distinct ``present``.  ``present[j] - j`` integers are absent below
    ``present[j]``, so rank k lands k places past the present values it passes."""
    gaps = present - np.arange(len(present))
    return ranks + np.searchsorted(gaps, ranks, side="right")


def perturb(ds: InteractionDataset, spec: PerturbationSpec) -> InteractionDataset:
    """Add or remove edges on the named auxiliary behaviors.

    ``add`` samples ceil(ratio * |edges(b)|) new pairs uniformly without
    replacement from the lexicographically sorted complement of the
    behavior's edge set, by rank (added edges get timestamp 0); ``remove``
    deletes the same count of existing pairs, sampled uniformly without
    replacement.  One generator seeded from ``spec.seed`` drives all
    behaviors, processed in manifest order.  Target edges are never touched,
    and every edge set left unchanged is shared with ``ds``.
    """
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
        # pair codes u * I + i, ascending: the sorted order of the edge set
        indptr, items = ds.user_items(b)
        codes = np.repeat(np.arange(n_users), np.diff(indptr)) * n_items + items
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
