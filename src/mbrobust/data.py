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

import codecs
import json
import math
import os
from collections.abc import ItemsView, Mapping
from dataclasses import asdict, dataclass, replace
from itertools import islice
from typing import NamedTuple

import numpy as np

Edge = tuple[int, int]


class DatasetError(Exception):
    """Raised for malformed or inconsistent dataset inputs."""


class EdgeSet(Mapping):
    """One behavior's edges: distinct (user, item) pairs, each with a
    timestamp or none, sorted by the pair code ``user·num_items + item``.

    Two read-only int64 columns are stored, 16 bytes per edge: ``code`` and
    ``ts`` (−1 where a pair has no timestamp).  ``user`` (``code //
    num_items``) and ``item`` (``code − user·num_items``) are derived from
    ``code`` on each read, as new read-only arrays, and the library reads
    only these four columns.  For other readers an edge set is also a
    read-only mapping ``(user, item) -> timestamp or None``, iterated in code
    order, and equal to any mapping with the same pairs and timestamps.
    """

    __slots__ = ("num_items", "code", "ts")

    def __init__(self, users, items, ts, num_items: int):
        """The edges ``(users[k], items[k])`` stamped ``ts[k]`` (−1 for none),
        in any order.  A pair given more than once keeps its earliest
        timestamp; an untimed repeat never replaces a timed one."""
        users, items, ts = (np.asarray(a, dtype=np.int64) for a in (users, items, ts))
        if users.ndim != 1 or not users.shape == items.shape == ts.shape:
            raise ValueError("users, items and timestamps must be parallel 1-d arrays")
        if len(users) and (min(users.min(), items.min(), ts.min() + 1) < 0
                           or items.max() >= num_items):
            raise ValueError(f"an edge is out of range for {num_items} items")
        codes = users * num_items + items
        # codes in strictly increasing order, as every file this module writes
        # lists them, are sorted with no repeats; otherwise sort by code, timed
        # before untimed, earliest first, and keep the first of each run of
        # equal codes.  Either way the caller's arrays are not kept.
        if np.all(codes[1:] > codes[:-1]):
            ts = ts.copy()
        else:
            order = np.lexsort((ts, ts < 0, codes))
            order = order[np.diff(codes[order], prepend=-1) != 0]
            codes, ts = codes[order], ts[order]
        self._store(codes, ts, num_items)

    @classmethod
    def _of_codes(cls, codes: np.ndarray, ts: np.ndarray, num_items: int) -> EdgeSet:
        """The edge set of sorted, distinct ``codes`` stamped ``ts``; it keeps
        both arrays, which no one else may hold."""
        edges = cls.__new__(cls)
        edges._store(codes, ts, num_items)
        return edges

    def _store(self, codes: np.ndarray, ts: np.ndarray, num_items: int) -> None:
        self.num_items = num_items
        self.code, self.ts = _read_only(codes), _read_only(ts)

    @property
    def user(self) -> np.ndarray:
        return _read_only(self.code // self.num_items)

    @property
    def item(self) -> np.ndarray:
        return self._pairs()[1]

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``user`` and ``item`` columns, from one division."""
        user = self.user
        return user, _read_only(self.code - user * self.num_items)

    def index(self, codes: np.ndarray) -> np.ndarray:
        """Each of ``codes``' position in ``self.code``, −1 where absent."""
        return positions(self.code, codes)

    # -- the read-only Mapping protocol -------------------------------------
    # `Mapping` supplies ``in``, ``get``, ``keys``, ``values`` and ``==``
    # against other mappings from these methods

    def __getitem__(self, key) -> int | None:
        try:
            u, i = key
            valid = u >= 0 and 0 <= i < self.num_items
        except (TypeError, ValueError):
            valid = False
        k = int(self.index(u * self.num_items + i)) if valid else -1
        if k < 0:
            raise KeyError(key)
        ts = int(self.ts[k])
        return None if ts < 0 else ts

    def __iter__(self):
        return zip(*(column.tolist() for column in self._pairs()))

    def __len__(self) -> int:
        return len(self.code)

    def items(self):
        return _EdgeItems(self)

    def __eq__(self, other):
        if not isinstance(other, EdgeSet):
            return super().__eq__(other)
        if not np.array_equal(self.ts, other.ts):
            return False
        # code order is (user, item) order under any catalog size, so equal
        # pairs sit at equal positions
        if self.num_items == other.num_items:
            return np.array_equal(self.code, other.code)
        return all(map(np.array_equal, self._pairs(), other._pairs()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{k!r}: {v!r}" for k, v in islice(self.items(), 8))
        more = ", ..." if len(self) > 8 else ""
        return f"EdgeSet({{{shown}{more}}}, num_items={self.num_items})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _EdgeItems(ItemsView):
    def __iter__(self):
        stamps = self._mapping.ts.tolist()
        return zip(self._mapping, (None if ts < 0 else ts for ts in stamps))


@dataclass(frozen=True)
class DatasetManifest:
    behaviors: tuple[str, ...]
    target: str
    num_users: int
    num_items: int

    def __post_init__(self):
        if len(self.behaviors) == 0:
            raise DatasetError("manifest declares no behaviors")
        for b in self.behaviors:  # a name is a file stem and a log column
            if b in ("", ".", "..") or b != b.strip() or any(c in b for c in "/\\,"):
                raise DatasetError(
                    f"behavior name {b!r} must be a plain file name: not empty, '.' "
                    "or '..', with no '/', '\\' or ',' and no leading or trailing whitespace"
                )
        if len(set(self.behaviors)) != len(self.behaviors):
            raise DatasetError("duplicate behavior names in manifest")
        if self.target not in self.behaviors:
            raise DatasetError(f"target behavior {self.target!r} not in behavior list")

    @property
    def auxiliary(self) -> tuple[str, ...]:
        return tuple(b for b in self.behaviors if b != self.target)


@dataclass(frozen=True)
class InteractionDataset:
    """Per-behavior edge sets over a shared user/item universe.

    ``user_ids[d]`` / ``item_ids[d]`` give the raw id behind dense id ``d``.
    Instances are immutable; every transformation returns a new dataset,
    which shares the edge sets it leaves unchanged.
    """

    manifest: DatasetManifest
    edges: dict[str, EdgeSet]
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    @classmethod
    def assemble(cls, behaviors, target, edges, user_ids, item_ids) -> InteractionDataset:
        """The dataset of ``edges``; the manifest counts the raw ids (in dense
        order), so no caller writes the counts out, and every edge set must be
        a behavior's, within those ids."""
        manifest = DatasetManifest(tuple(behaviors), target, len(user_ids), len(item_ids))
        if set(edges) != set(manifest.behaviors):
            raise DatasetError(f"edge sets and behaviors differ on "
                               f"{sorted(set(edges) ^ set(manifest.behaviors))}")
        for b, e in edges.items():  # the last code has the largest user
            if e.num_items != len(item_ids) or (
                    len(e.code) and e.code[-1] // e.num_items >= len(user_ids)):
                raise DatasetError(f"behavior {b!r} has edges outside "
                                   f"{len(user_ids)} users and {len(item_ids)} items")
        return cls(manifest, edges, tuple(user_ids), tuple(item_ids))

    def edge_count(self, behavior: str) -> int:
        return len(self.edges[behavior].code)

    @property
    def active_behaviors(self) -> tuple[str, ...]:
        """The behaviors with at least one edge, in manifest order."""
        return tuple(b for b in self.manifest.behaviors if self.edge_count(b))

    def user_items(self, behavior: str) -> tuple[np.ndarray, np.ndarray]:
        """The behavior's edges as CSR rows ``(indptr, items)``: user ``u``'s
        items, in ascending order, are ``items[indptr[u]:indptr[u + 1]]``.

        The graph builder, the triplet sampler and the ranking exclusions read
        these rows, so none of them groups edges by user itself."""
        edges = self.edges[behavior]
        row_starts = np.arange(self.manifest.num_users + 1) * edges.num_items
        return np.searchsorted(edges.code, row_starts), edges.item


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
    """The `diagnose` report; its fields, in order, are the JSON keys."""

    num_users: int
    num_items: int
    counts: dict[str, int]
    bar: dict[str, float]
    dt: float
    dt_approximate: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


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

# the class of each byte in canonical text: 0 for none (NUL, whitespace other
# than TAB and LF, or not ASCII), 1 for a byte of a field, `_TAB` and `_LF`
_TAB, _LF = 2, 3
_BYTE_CLASS = np.array([0 < c < 128 and not chr(c).isspace() for c in range(256)],
                       dtype=np.uint8)
_BYTE_CLASS[ord("\t")], _BYTE_CLASS[ord("\n")] = _TAB, _LF
_KEY_BYTES = 8  # the longest id that packs into a uint64 key
_MAX_DIGITS = 18  # the longest number of canonical text; 10**18 < 2**63


class _IdMap(NamedTuple):
    """A ``users.map`` or ``items.map``: the raw ids in dense order, and where
    the map is canonical text, every id's key, sorted, beside its dense id
    (otherwise no keys)."""

    raws: tuple[str, ...]
    keys: np.ndarray
    dense: np.ndarray


def _fields(raw: bytes):
    """``raw`` without a leading BOM as a uint8 array, zero-padded by 8
    bytes, and the start and size of each field as (lines, fields) int64
    arrays; or None unless that text is canonical: empty, or lines of the
    same 2 or 3 non-empty fields of ASCII other than NUL and whitespace, each
    field ending in a TAB and each line's last in a LF."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
    buf = np.frombuffer(raw + bytes(_KEY_BYTES), dtype=np.uint8)
    if not raw:
        return buf, np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)
    kind = _BYTE_CLASS.take(buf[:len(raw)])
    if kind[-1] != _LF or not kind.all():
        return None
    sep = np.flatnonzero(kind >= _TAB)  # where each field ends
    lf = kind[sep] == _LF
    width = int(np.argmax(lf)) + 1  # the first line's fields
    # each line has `width` fields when every `width`-th separator, and no
    # other, is a LF
    if (width not in (2, 3) or len(sep) != width * np.count_nonzero(lf)
            or not lf[width - 1::width].all()):
        return None
    start = np.empty_like(sep)
    start[0], start[1:] = 0, sep[:-1] + 1
    size = sep - start
    if size.min() < 1:
        return None
    return buf, start.reshape(-1, width), size.reshape(-1, width)


def _packed(buf: np.ndarray, start: np.ndarray, size: np.ndarray):
    """The fields ``buf[start:start + size]`` as uint64 keys: their bytes,
    big-endian and zero-padded, so keys sort as the fields do (no field byte
    is 0).  None where a field is longer than 8 bytes."""
    if size.max(initial=0) > _KEY_BYTES:
        return None
    # the 8 bytes from each field's start, with those past its end shifted
    # out; `buf`'s padding keeps the last window inside it
    window = np.lib.stride_tricks.sliding_window_view(buf, _KEY_BYTES)
    pad = (8 * (_KEY_BYTES - size)).astype(np.uint64)
    return (window[start].view(">u8").ravel().astype(np.uint64) >> pad) << pad


def _decimal(buf: np.ndarray, start: np.ndarray, size: np.ndarray):
    """The values of the fields ``buf[start:start + size]``, or None unless
    each is 1-18 ASCII digits."""
    if size.max(initial=0) > _MAX_DIGITS:
        return None
    value = np.zeros(len(start), dtype=np.int64)
    for j in range(int(size.max(initial=0))):  # the j-th digit of every field
        inside = j < size
        digit = buf.take(start + j, mode="clip").astype(np.int64) - ord("0")
        if np.any(inside & ((digit < 0) | (digit > 9))):
            return None
        value = np.where(inside, value * 10 + digit, value)
    return value


def _key_strs(keys: np.ndarray) -> list[str]:
    """The raw ids packed into ``keys``."""
    return keys.astype(">u8").view(f"S{_KEY_BYTES}").astype(f"U{_KEY_BYTES}").tolist()


def _canonical_columns(raw: bytes):
    """`_parse_tsv`'s columns of canonical text, each raw id as its key, or
    None where ``raw`` is not canonical.

    Canonical text is `_fields`' with no line starting with ``#``, ids of
    at most 8 bytes and timestamps of 1-18 digits.
    """
    fields = _fields(raw)
    if fields is None:
        return None
    buf, start, size = fields
    if np.any(buf[start[:, 0]] == ord("#")):  # a comment line
        return None
    users, items = (_packed(buf, start[:, c], size[:, c]) for c in (0, 1))
    if start.shape[1] == 2:
        ts = np.full(len(start), -1, dtype=np.int64)
    else:
        ts = _decimal(buf, start[:, 2], size[:, 2])
    return None if users is None or items is None or ts is None else (users, items, ts)


def _text(path: str, content: bytes) -> list[str]:
    """The lines of a file's ``content``, without their LF, as reading the
    file as text gives them: one leading BOM dropped, CRLF and CR read as LF.
    Bytes that are not UTF-8 are a `DatasetError` naming their line."""
    content = content.removeprefix(codecs.BOM_UTF8)
    try:
        text = content.decode()
    except UnicodeDecodeError as exc:
        before = content[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = before.count(b"\n") + 1
        raise DatasetError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines if lines[-1] else lines[:-1]


def _general_columns(path: str, lines: list[str], ids):
    """`_parse_tsv`'s columns of ``lines``, raw ids as strings, or dense ids
    with ``ids`` (the user and item maps as dicts).

    A line of no fields, or whose first starts with ``#``, is skipped; any
    other goes through these checks in order, and the first it fails raises
    a `DatasetError` naming it: 2 or 3 fields, an integer timestamp in
    [0, 2**63), then its user and its item in ``ids``.
    """
    users, items, stamps = [], [], []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        width = len(fields)
        if width not in (2, 3):
            raise DatasetError(f"{path}:{lineno}: expected 2 or 3 columns, got {width}")
        ts = -1
        if width == 3:
            try:
                ts = int(fields[2])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: timestamp {fields[2]!r} is not an integer"
                ) from None
            if ts < 0:
                raise DatasetError(f"{path}:{lineno}: negative timestamp {ts}")
            if ts >= 2**63:
                raise DatasetError(f"{path}:{lineno}: timestamp {ts} is out of range")
        user, item = fields[0], fields[1]
        if ids is not None:
            try:
                user, item = ids[0][user], ids[1][item]
            except KeyError as exc:
                raise DatasetError(
                    f"{path}:{lineno}: id {exc.args[0]!r} is not in users.map/items.map"
                ) from None
        users.append(user)
        items.append(item)
        stamps.append(ts)
    if ids is not None:
        users, items = (np.array(col, dtype=np.int64) for col in (users, items))
    return users, items, np.array(stamps, dtype=np.int64)


def _dense_ids(m: _IdMap, keys: np.ndarray):
    """The dense ids of the packed ``keys`` in ``m``, or None where one is
    not in its keys.  Each distinct key is looked up once."""
    distinct, which = np.unique(keys, return_inverse=True)
    pos = positions(m.keys, distinct)
    return None if np.any(pos < 0) else m.dense[pos][which]


def _parse_tsv(path: str, ids: tuple[_IdMap, _IdMap] | None = None):
    """The users, items and timestamps (−1 where a line has none) of the
    ``user<TAB>item[<TAB>timestamp]`` lines of ``path``, in file order.

    Users and items are raw ids, or with ``ids`` (the user and item maps)
    dense int64 ids; an id missing from the maps is an error naming the line.
    Canonical text (`_canonical_columns`) is read as bytes and gives its raw
    ids as packed keys; any other text, and canonical text with an id not in
    the maps' keys, goes through `_general_columns`, which gives raw ids as
    strings and alone raises the errors of a malformed line.
    """
    with open(path, "rb") as fh:
        content = fh.read()
    cols = _canonical_columns(content)
    if cols is not None and ids is not None:
        users, items = (_dense_ids(m, keys) for m, keys in zip(ids, cols))
        cols = None if users is None or items is None else (users, items, cols[2])
    if cols is not None:
        return cols
    index = ids and tuple({r: d for d, r in enumerate(m.raws)} for m in ids)
    return _general_columns(path, _text(path, content), index)


def _compact(columns: list) -> tuple[list[str], list[np.ndarray]]:
    """The sorted distinct raw ids of ``columns``, each packed keys or a list
    of raw ids, and every column in dense ids, the raw ids' positions."""
    if all(isinstance(c, np.ndarray) for c in columns):
        keys, dense = np.unique(np.concatenate(columns), return_inverse=True)
        return _key_strs(keys), np.split(dense, np.cumsum([len(c) for c in columns[:-1]]))
    columns = [_key_strs(c) if isinstance(c, np.ndarray) else c for c in columns]
    ids = sorted(set().union(*columns))
    index = {s: d for d, s in enumerate(ids)}
    return ids, [np.fromiter(map(index.__getitem__, c), np.int64, len(c)) for c in columns]


def _read_manifest(path: str) -> tuple[tuple[str, ...], str]:
    """The behavior list and target declared by ``<path>/manifest.json``."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise DatasetError(f"missing manifest file {manifest_path}")
    with open(manifest_path, encoding="utf-8-sig") as fh:
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
    try:  # the names, before any is joined into a path; the counts come later
        DatasetManifest(tuple(behaviors), target, num_users=0, num_items=0)
    except DatasetError as exc:
        raise DatasetError(f"{manifest_path}: {exc}") from None
    return tuple(behaviors), target


def load_dataset(path: str) -> InteractionDataset:
    """Load a dataset directory into a compacted, deduplicated dataset.

    Duplicate (user, item) pairs within a behavior keep the earliest
    timestamp.  Raw ids are mapped to dense ids by sorting the raw id
    strings, which makes reloads bit-identical.
    """
    behaviors, target = _read_manifest(path)
    # a split written into the directory adds these files
    known = {*behaviors, "validation", "test", *(f"train.{b}" for b in behaviors)}
    for name in sorted(os.listdir(path)):
        stem, ext = os.path.splitext(name)
        if ext == ".tsv" and stem not in known:
            raise DatasetError(f"file {name!r} references undeclared behavior {stem!r}")

    raw = {}
    for b in behaviors:
        tsv = os.path.join(path, f"{b}.tsv")
        if not os.path.isfile(tsv):
            raise DatasetError(f"missing behavior file {tsv}")
        raw[b] = _parse_tsv(tsv)

    if not len(raw[target][0]):
        raise DatasetError(f"empty target behavior {target!r}")

    users, user_cols = _compact([u for u, _, _ in raw.values()])
    items, item_cols = _compact([i for _, i, _ in raw.values()])
    edges = {b: EdgeSet(u, i, ts, len(items))
             for (b, (_, _, ts)), u, i in zip(raw.items(), user_cols, item_cols)}
    return InteractionDataset.assemble(behaviors, target, edges, users, items)


def _tsv_text(ds: InteractionDataset, users, items, ts) -> str:
    """``user<TAB>item[<TAB>timestamp]`` lines in raw ids, one per edge;
    a line has no timestamp where ``ts`` is −1."""
    stamps, which = np.unique(ts, return_inverse=True)
    cols = np.empty((len(users), 3), dtype=object)
    cols[:, 0] = np.array([u + "\t" for u in ds.user_ids], dtype=object)[users]
    cols[:, 1] = np.array(ds.item_ids, dtype=object)[items]
    cols[:, 2] = np.array([f"\t{t}\n" if t >= 0 else "\n" for t in stamps.tolist()],
                          dtype=object)[which]
    return "".join(cols.ravel().tolist())


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
        e = ds.edges[b]
        with open(os.path.join(path, f"{prefix}{b}.tsv"), "w", encoding="utf-8") as fh:
            fh.write(_tsv_text(ds, *e._pairs(), e.ts))


def save_dataset(ds: InteractionDataset, path: str) -> None:
    """Write a dataset back to the directory layout `load_dataset` reads."""
    _write_tables(ds, path, "")


def write_id_maps(ds: InteractionDataset, out_dir: str) -> None:
    """Persist users.map / items.map (``raw_id<TAB>dense_id``, sorted by raw id)."""
    os.makedirs(out_dir, exist_ok=True)
    for fname, ids in (("users.map", ds.user_ids), ("items.map", ds.item_ids)):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write("".join(f"{ids[d]}\t{d}\n" for d in order))


def write_split(split: SplitDataset, out_dir: str) -> None:
    """Write the split TSVs plus id maps and manifest into ``out_dir``.

    A dataset directory may take its own split, but no file of a behavior
    that a ``manifest.json`` already in ``out_dir`` declares is overwritten:
    the split's ``train.<b>.tsv``, ``validation.tsv`` or ``test.tsv`` landing
    on one is a `DatasetError`, raised before anything is written.
    """
    ds = split.train
    if os.path.isfile(os.path.join(out_dir, "manifest.json")):
        declared, _ = _read_manifest(out_dir)
        for stem in (*(f"train.{b}" for b in ds.manifest.behaviors), "validation", "test"):
            if stem in declared:
                raise DatasetError(
                    f"{os.path.join(out_dir, stem + '.tsv')} is the file of behavior "
                    f"{stem!r} declared in {out_dir}; the split would overwrite it"
                )
    _write_tables(ds, out_dir, "train.")
    write_id_maps(ds, out_dir)
    for fname, pairs in (("validation.tsv", split.validation), ("test.tsv", split.test)):
        users, items = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(_tsv_text(ds, users, items, np.full(len(users), -1)))


def _read_map(path: str) -> _IdMap:
    """The id map of a ``raw_id<TAB>dense_id`` file.  Raw ids must be unique
    and the dense ids must be 0..n-1, each once.  Canonical text (`_fields`)
    with ids of at most 8 bytes is read as bytes; any other map line by line,
    which alone raises the errors of a malformed map."""
    with open(path, "rb") as fh:
        content = fh.read()
    fields = _fields(content)
    if fields is not None and fields[1].shape[1] == 2:
        buf, start, size = fields
        keys = _packed(buf, start[:, 0], size[:, 0])
        dense = _decimal(buf, start[:, 1], size[:, 1])
        if keys is not None and dense is not None:
            key_order, dense_order = np.argsort(keys), np.argsort(dense)
            # distinct raw ids, and the dense ids 0..n-1, each once
            if (np.all(np.diff(keys[key_order]) > 0)
                    and np.array_equal(dense[dense_order], np.arange(len(dense)))):
                return _IdMap(tuple(_key_strs(keys[dense_order])),
                              keys[key_order], dense[key_order])
    out: dict[str, int] = {}
    for lineno, line in enumerate(_text(path, content), start=1):
        try:
            raw, dense = line.split("\t")
            dense = int(dense)
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: expected 'raw_id<TAB>dense_id'") from None
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
    no_keys = np.zeros(0, dtype=np.int64)
    return _IdMap(tuple(raws), no_keys.astype(np.uint64), no_keys)


def load_split(path: str) -> SplitDataset:
    """Load a directory previously written by `write_split`.

    The training target is nonempty, each user has at most one test and one
    validation pair, the two differ, and no held-out pair is also a training
    target edge.
    """
    behaviors, target = _read_manifest(path)
    ids = _read_map(os.path.join(path, "users.map")), _read_map(os.path.join(path, "items.map"))
    user_ids, item_ids = ids[0].raws, ids[1].raws
    num_items = len(item_ids)

    def read(fname: str):
        return _parse_tsv(os.path.join(path, fname), ids)

    edges = {b: EdgeSet(*read(f"train.{b}.tsv"), num_items) for b in behaviors}
    if not len(edges[target].code):
        tsv = os.path.join(path, f"train.{target}.tsv")
        raise DatasetError(f"{tsv}: empty target behavior {target!r}")

    def check(fname: str, users: np.ndarray, bad: np.ndarray, problem) -> None:
        """Fail on the first line flagged in ``bad``, naming its user."""
        if bad.any():
            k = int(np.argmax(bad))
            raise DatasetError(
                f"{os.path.join(path, fname)}: user {user_ids[users[k]]!r} {problem(k)}"
            )

    def held_out(fname: str) -> tuple[np.ndarray, np.ndarray]:
        users, items, _ = read(fname)
        repeat = np.ones(len(users), dtype=bool)
        repeat[np.unique(users, return_index=True)[1]] = False
        trained = edges[target].index(users * num_items + items) >= 0
        check(fname, users, repeat | trained, lambda k: "has more than one held-out pair"
              if repeat[k] else
              f"held-out item {item_ids[items[k]]!r} is a training {target!r} edge")
        return users, items

    (v_users, v_items), (t_users, t_items) = held_out("validation.tsv"), held_out("test.tsv")
    shared = np.isin(v_users * num_items + v_items, t_users * num_items + t_items)
    check("validation.tsv", v_users, shared,
          lambda k: f"has held-out item {item_ids[v_items[k]]!r} in test.tsv too")

    return SplitDataset(
        train=InteractionDataset.assemble(behaviors, target, edges, user_ids, item_ids),
        validation=tuple(zip(v_users.tolist(), v_items.tolist())),
        test=tuple(zip(t_users.tolist(), t_items.tolist())),
    )


# ----------------------------------------------------------------------
# Leave-one-out split
# ----------------------------------------------------------------------

def split_leave_one_out(ds: InteractionDataset) -> SplitDataset:
    """Per user with >= 3 target interactions, hold out the latest for test
    and the second latest for validation (ordered by (timestamp, item id),
    a missing timestamp sorting as 0).

    Users with fewer target interactions keep everything in train and are
    counted in ``users_without_holdout``.  Auxiliary edges are never held out.
    """
    target = ds.manifest.target
    e = ds.edges[target]
    user, item = e._pairs()
    # the edges are in (user, item) order and the sort is stable, so it sorts
    # each user's edges by (timestamp, item) and leaves the users in order
    order = np.lexsort((np.maximum(e.ts, 0), user))
    last = np.flatnonzero(np.diff(user, append=-1))  # each user's latest
    count = np.diff(last, prepend=-1)
    latest = last[count >= 3]
    test, validation = order[latest], order[latest - 1]
    keep = np.ones(len(order), dtype=bool)
    keep[test] = keep[validation] = False
    train_target = EdgeSet._of_codes(e.code[keep], e.ts[keep], e.num_items)

    def pairs(k: np.ndarray) -> tuple[Edge, ...]:
        return tuple(zip(user[k].tolist(), item[k].tolist()))

    return SplitDataset(
        # the auxiliary edge sets are shared, not copied: datasets are immutable
        train=replace(ds, edges={**ds.edges, target: train_target}),
        validation=pairs(validation),
        test=pairs(test),
        users_without_holdout=int(np.count_nonzero(count < 3)),
    )


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

def compute_bar(ds: InteractionDataset, behavior: str) -> float:
    """Fraction of target (user, item) pairs that also occur in ``behavior``."""
    if behavior not in ds.manifest.behaviors:
        raise DatasetError(f"behavior {behavior!r} not declared in manifest")
    target_codes = ds.edges[ds.manifest.target].code
    if not len(target_codes):
        raise DatasetError("empty target behavior: alignment ratio is undefined")
    shared = np.intersect1d(ds.edges[behavior].code, target_codes, assume_unique=True)
    return len(shared) / len(target_codes)


def _dt_with_flag(ds: InteractionDataset) -> tuple[float, bool]:
    target = ds.edges[ds.manifest.target]
    if not len(target.code):
        raise DatasetError("empty target behavior: direct-target ratio is undefined")
    approximate = False
    preceded = np.zeros(len(target.code), dtype=bool)
    for b in ds.manifest.auxiliary:
        aux = ds.edges[b]
        pos = aux.index(target.code)
        found = pos >= 0
        a_ts, t_ts = aux.ts[pos[found]], target.ts[found]
        # no usable event times: degrade "preceding" to "co-occurring"
        untimed = (a_ts < 0) | (t_ts < 0)
        approximate = approximate or bool(untimed.any())
        preceded[found] |= untimed | (a_ts < t_ts)
    return int(np.count_nonzero(~preceded)) / len(target.code), approximate


def compute_dt(ds: InteractionDataset) -> float:
    """Fraction of target interactions with no strictly earlier auxiliary
    interaction on the same (user, item) pair.

    Pairs lacking timestamps fall back to pair-level co-occurrence; the
    `diagnose` report flags that case as approximate.
    """
    return _dt_with_flag(ds)[0]


def diagnose(ds: InteractionDataset) -> DiagnosticsReport:
    dt, approximate = _dt_with_flag(ds)
    m = ds.manifest
    return DiagnosticsReport(
        num_users=m.num_users,
        num_items=m.num_items,
        counts={b: ds.edge_count(b) for b in m.behaviors},
        bar={b: compute_bar(ds, b) for b in m.behaviors},
        dt=dt,
        dt_approximate=approximate,
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

def positions(present: np.ndarray, keys):
    """Each of ``keys``' position in the sorted, distinct ``present``, −1
    where it is absent."""
    if not len(present):
        return np.full(np.shape(keys), -1, dtype=np.int64)
    pos = np.searchsorted(present, keys)
    return np.where(present[np.minimum(pos, len(present) - 1)] == keys, pos, -1)


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
    and every edge set left unchanged is shared with ``ds``.  ``add`` maps
    each rank to its pair with `nth_absent` over the sorted pair codes, so
    memory is O(|E| + count), not O(U·I), and no catalog size is capped.
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
        e = edges[b]
        count = math.ceil(spec.ratio * len(e.code))
        if count == 0:
            continue
        if spec.mode == "remove":
            keep = np.ones(len(e.code), dtype=bool)
            keep[rng.choice(len(e.code), size=count, replace=False)] = False
            edges[b] = EdgeSet._of_codes(e.code[keep], e.ts[keep], n_items)
        else:
            free = n_users * n_items - len(e.code)
            if free < count:
                raise DatasetError(
                    f"cannot add {count} edges to {b!r}: only {free} non-edges available"
                )
            # sorted ranks give sorted codes, each with ``code − rank`` present
            # codes below it, so the new edges insert in code order
            picked = np.sort(rng.choice(free, size=count, replace=False))
            codes = nth_absent(e.code, picked)
            at = codes - picked
            edges[b] = EdgeSet._of_codes(np.insert(e.code, at, codes), np.insert(e.ts, at, 0),
                                         n_items)

    return replace(ds, edges=edges)
