"""Epoch/batch training loop: uniform triplet sampling, Adam updates, early
stopping on validation HR@10, and a per-epoch log."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
import zipfile
from collections import Counter, defaultdict
from dataclasses import dataclass, fields

import numpy as np

from . import seeds
from .data import DatasetError, DatasetManifest, SplitDataset, nth_absent, positions
from .graph import BLOCK_SCRATCH, Workspace, build_graph, row_blocks
from .losses import (
    GradientBuffer,
    Hyperparameters,
    ModelState,
    TripletBatch,
    _require_integers,
    total_loss,
)

log = logging.getLogger(__name__)


class NonFiniteGradientError(Exception):
    """A loss term or a gradient tensor contained NaN or infinity; the
    message names it."""


@dataclass
class OptimizerState:
    m_user: np.ndarray
    v_user: np.ndarray
    m_item: np.ndarray
    v_item: np.ndarray
    step_count: int = 0


# the decay rates and denominator guard of Kingma & Ba (2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def init_optimizer(state: ModelState) -> OptimizerState:
    return OptimizerState(
        m_user=np.zeros_like(state.user_emb),
        v_user=np.zeros_like(state.user_emb),
        m_item=np.zeros_like(state.item_emb),
        v_item=np.zeros_like(state.item_emb),
    )


def adam_step(
    state: ModelState,
    opt: OptimizerState,
    grads: GradientBuffer,
    lr: float,
    workspace: Workspace | None = None,
) -> ModelState:
    """Standard bias-corrected Adam update, in place.

    Aborts on non-finite gradients instead of clipping; a blown-up gradient
    means a bug upstream, not something to mask.  The update runs a row
    block at a time (`graph.row_blocks`), each entry through the same
    operations in the same order as a whole-table update, and its two
    temporaries are ``workspace``'s row blocks (a fresh workspace when None;
    `graph.Workspace` gives the plan).
    """
    for name, g in (("user embedding", grads.d_user), ("item embedding", grads.d_item)):
        # NaN propagates through max and min, and an infinity is one of them
        if g.size and not (math.isfinite(g.max()) and math.isfinite(g.min())):
            raise NonFiniteGradientError(f"non-finite entries in {name} gradient")
    ws = Workspace() if workspace is None else workspace
    opt.step_count += 1
    t = opt.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for tables in (
        (opt.m_user, opt.v_user, grads.d_user, state.user_emb),
        (opt.m_item, opt.v_item, grads.d_item, state.item_emb),
    ):
        for lo, hi in row_blocks(len(tables[0])):
            m, v, g, theta = (a[lo:hi] for a in tables)
            step, denom = (ws.get(name, g.shape) for name in BLOCK_SCRATCH)
            # m += (1 - beta1)·g and v += (1 - beta2)·g·g
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=step)
            step *= g
            v += step
            # theta -= lr·(m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=step)
            step *= lr
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            theta -= step
    return state


# ----------------------------------------------------------------------
# Triplet sampling
# ----------------------------------------------------------------------

class TripletSampler:
    """Uniform positive/negative sampler over a training split.

    For each batch user, in order, one triplet is drawn per behavior and then
    one more from the target for ``main``, so a behavior's triplets keep the
    batch order.  Each draw takes the positive as a uniform offset into the
    user's sorted items, then negatives by rejection
    (``REJECTION_CAP`` tries, at least one) against that behavior's observed
    set, falling back to a uniform rank among the user's non-edges, looked up
    with `nth_absent`.  A user with no items in a behavior draws nothing for
    it; a user with every item is skipped and counted in ``saturated_skips``.

    The draws are made in bulk but consume the generator exactly as one scalar
    ``rng.integers`` call per value would, so every seeded draw is the plain
    scalar loop's: numpy's array-bound ``integers`` returns the same values,
    in order, and leaves the same state.  A window of ``WINDOW`` draws takes
    its bounds ``[degree, num_items, ...]`` in one call, as if every first
    candidate were accepted, and tests all candidates with one
    `data.positions` call.  At the first rejected candidate the generator state
    is restored, the draws through that candidate are replayed, and that one
    draw continues with scalar tries.  The window bounds the draws a rejection
    throws away.

    One sorted array of codes ``row·I + item`` is the whole edge store: row
    ``row``'s items are ``codes[row_start[row]:][:degree[row]] − row·I``.
    """

    REJECTION_CAP = 100
    # draws per bulk call: of 64, 128, 256, 512, 2048 and no window at all,
    # 256 was fastest on the benchmark's train split (single-threaded)
    WINDOW = 256

    def __init__(self, split: SplitDataset):
        ds = split.train
        self.behaviors = list(ds.manifest.behaviors)
        self.num_users = ds.manifest.num_users
        self.num_items = ds.manifest.num_items
        # one CSR row per (behavior, user), row id b·U + u; the sorted codes
        # row·I + item hold every row's items and answer "is this pair observed"
        csr = [ds.user_items(b) for b in self.behaviors]
        self.degree = np.concatenate([np.diff(indptr) for indptr, _ in csr])
        self.row_start = np.cumsum(self.degree) - self.degree
        rows = np.repeat(np.arange(len(self.degree), dtype=np.int64), self.degree)
        self.codes = rows * self.num_items + np.concatenate([items for _, items in csr])
        # per user: every behavior, then the target again for the main triplet
        self.slot_behavior = np.array(
            [*range(len(self.behaviors)), self.behaviors.index(ds.manifest.target)]
        )
        self.saturated_skips = 0

    def _retry(self, row: int, rng: np.random.Generator) -> int | None:
        """The rest of a draw whose first candidate was rejected: the other
        ``REJECTION_CAP − 1`` candidates, then a uniform rank among the row's
        non-edges (None when saturated).  ``row_start[row]`` codes lie below ``row·I``, so
        rank r within the row is rank ``row·I − row_start[row] + r`` among all
        integers absent from the codes."""
        base = row * self.num_items
        for _ in range(self.REJECTION_CAP - 1):
            cand = int(rng.integers(self.num_items))
            if positions(self.codes, base + cand) < 0:
                return cand
        free = self.num_items - int(self.degree[row])
        if free == 0:
            self.saturated_skips += 1
            return None
        rank = base - self.row_start[row] + rng.integers(free)
        return int(nth_absent(self.codes, rank) - base)

    def sample(self, batch_users: np.ndarray, rng: np.random.Generator) -> TripletBatch:
        users = np.asarray(batch_users, dtype=np.int64)
        slots = len(self.slot_behavior)
        slot = np.tile(np.arange(slots), len(users))
        user = np.repeat(users, slots)
        row = self.slot_behavior[slot] * self.num_users + user
        drawn = self.degree[row] > 0  # an empty row draws nothing
        slot, user, row = slot[drawn], user[drawn], row[drawn]
        degree = self.degree[row]
        start = self.row_start[row]
        # each draw's bounds when its first candidate is accepted: the
        # positive's offset, then the candidate negative
        bounds = np.column_stack([degree, np.full_like(degree, self.num_items)]).ravel()
        pos = np.empty_like(row)
        neg = np.empty_like(row)
        kept = np.ones(len(row), dtype=bool)
        k = 0
        while k < len(row):
            stop = min(k + self.WINDOW, len(row))
            saved = rng.bit_generator.state
            r = rng.integers(bounds[2 * k : 2 * stop]).reshape(-1, 2)
            base = row[k:stop] * self.num_items
            pos[k:stop] = self.codes[start[k:stop] + r[:, 0]] - base
            neg[k:stop] = r[:, 1]
            hits = np.flatnonzero(positions(self.codes, base + r[:, 1]) >= 0)
            if len(hits) == 0:
                k = stop
                continue
            j = k + int(hits[0])
            rng.bit_generator.state = saved
            rng.integers(bounds[2 * k : 2 * j + 2])  # replay the draws through j
            cand = self._retry(int(row[j]), rng)
            if cand is None:
                kept[j] = False
            else:
                neg[j] = cand
            k = j + 1

        triplets = np.column_stack([user, pos, neg])[kept]
        slot = slot[kept]
        return TripletBatch(
            per_behavior={b: triplets[slot == s] for s, b in enumerate(self.behaviors)},
            main=triplets[slot == slots - 1],
        )


# ----------------------------------------------------------------------
# Training loop
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    hp: Hyperparameters
    eval_every: int = 5

    def __post_init__(self):
        _require_integers(self, "eval_every")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class LogRow:
    epoch: int
    bpr: dict[str, float | None]
    rrm: float | None
    orm: float | None
    main: float
    total: float
    val_hr10: float | None
    val_ndcg10: float | None
    seconds: float


def format_log(rows: list[LogRow], behaviors: list[str]) -> str:
    """Render the per-epoch log as CSV: one column per `LogRow` field, in
    field order, and one ``bpr_<behavior>`` column per behavior (empty cell =
    not measured, or a term that ran on no batch of the epoch)."""
    names = [f.name for f in fields(LogRow)]
    header = [c for n in names
              for c in ([f"bpr_{b}" for b in behaviors] if n == "bpr" else [n])]
    lines = [",".join(header)]
    for r in rows:
        values = [v for n in names for v in
                  ([r.bpr.get(b) for b in behaviors] if n == "bpr" else [getattr(r, n)])]
        lines.append(",".join("" if v is None else repr(v) for v in values))
    return "\n".join(lines) + "\n"


# the terms a batch may not run (`LossBreakdown.ran`), and their names
_OPTIONAL_TERMS = {"rrm": "alignment", "orm": "invariance"}


def train(
    split: SplitDataset, cfg: TrainConfig, workspace: Workspace | None = None
) -> tuple[ModelState, list[LogRow]]:
    """Run the full optimization loop and return the best checkpoint.

    Embeddings start from a seeded N(0, 0.1^2) draw.  Each epoch shuffles
    users into batches, resamples triplets, and applies one Adam step per
    batch.  Every ``eval_every`` epochs validation HR@10 is measured; the
    best-scoring parameters are kept and training stops once ``patience``
    evaluations pass without improvement.  Declared behaviors with no
    training edges are dropped with a warning; the run's counts (terms no
    stepped batch's `LossBreakdown.ran` holds, skips) are warned once, at its
    end.  An epoch logs each optional term as its mean over the batches whose
    `LossBreakdown.ran` holds it, and None when none does.

    Every table of a step and of validation is a buffer of ``workspace`` (a
    fresh one when None); a caller that trains repeatedly can pass one
    workspace to every call, and gets the bits of fresh ones.
    """
    from .evaluation import evaluate  # local import to avoid a module cycle

    ds = split.train
    hp = cfg.hp
    target = ds.manifest.target
    if not ds.edge_count(target):
        raise DatasetError("target behavior has no training edges")

    active = ds.active_behaviors
    for b in ds.manifest.behaviors:
        if b not in active:
            log.warning("behavior %r has no training edges; dropped from training", b)

    graphs = {b: build_graph(ds, b) for b in active}
    sampler = TripletSampler(split)

    rng_init = seeds.spawn(hp.seed, "init")
    state = ModelState(
        user_emb=rng_init.normal(0.0, 0.1, (ds.manifest.num_users, hp.dim)),
        item_emb=rng_init.normal(0.0, 0.1, (ds.manifest.num_items, hp.dim)),
        hp=hp,
    )
    opt = init_optimizer(state)
    rng_sample = seeds.spawn(hp.seed, "sampling")
    workspace = Workspace() if workspace is None else workspace

    has_validation = len(split.validation) > 0
    if not has_validation:
        log.warning("empty validation set: early stopping disabled")
    best_state = state  # a copy is taken at each improvement
    best_hr = -1.0
    evals_since_improvement = 0
    rows: list[LogRow] = []
    num_users = ds.manifest.num_users
    ran, skipped_batches = Counter(), 0  # ran: stepped batches per optional term

    for epoch in range(1, hp.max_epochs + 1):
        tic = time.perf_counter()
        perm = rng_sample.permutation(num_users)
        # per term: its sum and the number of batches that had it (a
        # behavior with no triplets in a batch has no bpr term there, and an
        # optional term that did not run has none either)
        sums, counts = defaultdict(float), Counter()
        for start in range(0, num_users, hp.batch_size):
            batch_users = perm[start : start + hp.batch_size]
            batch = sampler.sample(batch_users, rng_sample)
            if len(batch.main) == 0:
                skipped_batches += 1
                continue
            breakdown, grads = total_loss(state, graphs, batch, batch_users, target,
                                          workspace)
            for name, value in breakdown.terms().items():
                if not math.isfinite(value):  # constituents come before the total
                    raise NonFiniteGradientError(f"non-finite {name} loss ({value})")
                if name in _OPTIONAL_TERMS and name not in breakdown.ran:
                    continue
                sums[name] += value
                counts[name] += 1
            ran.update(breakdown.ran)
            adam_step(state, opt, grads, hp.lr, workspace)
        if not counts:  # no batch had a main triplet
            raise DatasetError("no negative can be drawn: every user with a training "
                               "target edge has every item as one")

        val_hr = val_ndcg = None
        if has_validation and epoch % cfg.eval_every == 0:
            report = evaluate(state, split, ks=(10,), pairs=split.validation,
                              graphs=graphs, workspace=workspace)
            val_hr = report.hr[10]
            val_ndcg = report.ndcg[10]
            if val_hr > best_hr:
                best_hr = val_hr
                best_state = state.copy()
                evals_since_improvement = 0
            else:
                evals_since_improvement += 1

        mean = {name: sums[name] / counts[name] for name in sums}
        rows.append(
            LogRow(
                epoch=epoch,
                bpr={b: mean.get(f"bpr_{b}") for b in active},
                rrm=mean.get("rrm"),
                orm=mean.get("orm"),
                main=mean["main"],
                total=mean["total"],
                val_hr10=val_hr,
                val_ndcg10=val_ndcg,
                seconds=time.perf_counter() - tic,
            )
        )
        if has_validation and evals_since_improvement >= hp.patience:
            log.info("early stop at epoch %d (best validation HR@10 %.4f)", epoch, best_hr)
            break

    for term, name in _OPTIONAL_TERMS.items():
        if opt.step_count and not ran[term]:  # zero epochs step no batch
            log.warning("%s never ran on any batch", name)
    if 0 < ran["rrm"] < opt.step_count:  # fixed graphs: only a batch size skips it
        log.warning("alignment loss skipped on %d batches of fewer than 2 users",
                    opt.step_count - ran["rrm"])
    if skipped_batches:
        log.warning("%d batches with no target triplets skipped", skipped_batches)
    if sampler.saturated_skips:
        log.warning("%d draws skipped for users with every item", sampler.saturated_skips)
    return best_state, rows


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

CHECKPOINT_VERSION = 2
_ZIP_MAGIC = b"PK\x03\x04"
_ENTRIES = ("header", "user_emb", "item_emb")
# the manifest fields that identify a checkpoint's data -> their type in the
# header; they are hashed, stored in the header and returned by the loader
_MANIFEST_FIELDS = {"behaviors": list, "target": str, "num_users": int, "num_items": int}
# header key -> type; the header also holds the hyperparameter values
_HEADER_TYPES = {
    "format_version": int,
    "manifest_hash": str,
    **_MANIFEST_FIELDS,
    "hyperparameters": dict,
}


class CheckpointError(DatasetError, ValueError):
    """A checkpoint file that cannot be loaded; the message names the file."""


def _identity(manifest: DatasetManifest) -> dict:
    """The `_MANIFEST_FIELDS` of ``manifest`` (JSON writes the behavior
    tuple as a list)."""
    return {k: getattr(manifest, k) for k in _MANIFEST_FIELDS}


def manifest_hash(manifest: DatasetManifest) -> str:
    payload = json.dumps(_identity(manifest), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_checkpoint(state: ModelState, manifest: DatasetManifest, path: str) -> None:
    """Write an uncompressed ``.npz`` checkpoint to exactly ``path``.

    Entries: ``header``, the UTF-8 bytes of a JSON object (format version,
    manifest hash, behaviors, target, counts, hyperparameters), and the raw
    float64 ``user_emb``/``item_emb`` tables, which round-trip bit-exactly.
    """
    hp = state.hp
    header = {
        "format_version": CHECKPOINT_VERSION,
        "manifest_hash": manifest_hash(manifest),
        **_identity(manifest),
        "hyperparameters": {k: getattr(hp, k) for k in hp.__dataclass_fields__},
    }
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    # a file handle, because np.savez appends ".npz" to a path lacking it
    with open(path, "wb") as fh:
        np.savez(
            fh,
            header=np.frombuffer(text, dtype=np.uint8),
            user_emb=np.asarray(state.user_emb, dtype=np.float64),
            item_emb=np.asarray(state.item_emb, dtype=np.float64),
        )


def _read_checkpoint(path: str) -> tuple[object, dict[str, np.ndarray]]:
    """The decoded header and the embedding tables of a checkpoint file."""
    with open(path, "rb") as fh:
        if fh.read(4) != _ZIP_MAGIC:
            fh.seek(0)
            try:  # a format_version 1 checkpoint is one JSON object
                version = json.load(fh).get("format_version")
            except (ValueError, AttributeError):
                version = None
            raise CheckpointError(
                f"{path}: not a checkpoint file" if version is None
                else f"{path}: unsupported checkpoint version {version!r}"
            )
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                entries = {k: npz[k] for k in _ENTRIES if k in npz.files}
        except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
            raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from None
    missing = [k for k in _ENTRIES if k not in entries]
    if missing:
        raise CheckpointError(f"{path}: checkpoint lacks {', '.join(missing)}")
    try:
        header = json.loads(entries["header"].tobytes())
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint header ({exc})") from None
    return header, entries


def load_checkpoint(path: str) -> tuple[ModelState, dict]:
    """Read a `save_checkpoint` file; returns the state and the manifest
    fields (``manifest_hash``, ``behaviors``, ``target``, ``num_users``,
    ``num_items``).  Anything else, including a format_version 1 JSON
    checkpoint, is a `CheckpointError` naming the file."""
    header, tables = _read_checkpoint(path)
    if isinstance(header, dict) and header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {header.get('format_version')!r}"
        )
    if not isinstance(header, dict) or not all(
        isinstance(header.get(k), t) for k, t in _HEADER_TYPES.items()
    ):
        raise CheckpointError(
            f"{path}: header must hold {', '.join(_HEADER_TYPES)} of the right types"
        )
    try:
        hp = Hyperparameters(**header["hyperparameters"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad hyperparameters ({exc})") from None
    scale, size = 0, 0  # a power of two above every entry, and the entry count
    for name, count in (("user_emb", "num_users"), ("item_emb", "num_items")):
        table, shape = tables[name], (header[count], hp.dim)
        if table.dtype != np.float64 or table.shape != shape:
            raise CheckpointError(
                f"{path}: {name} is {table.dtype} {table.shape}, expected float64 {shape}"
            )
        # ranking takes a NaN score for an excluded item, which never outranks
        # the held-out one; np.max and np.maximum keep a NaN
        top = float(np.maximum(np.max(table, initial=0.0), -np.min(table, initial=0.0)))
        if not math.isfinite(top):
            raise CheckpointError(f"{path}: {name} has a NaN or infinite entry")
        scale, size = max(scale, math.frexp(top)[1]), size + table.size
    # every graph operator has spectral norm <= 1, so no fused score exceeds
    # ||[user_emb; item_emb]||_F^2 < size·4^scale; where that could reach
    # 2^1023 the norm is summed at 2^-scale, where it cannot overflow
    scaled = (np.ldexp(tables[n], -scale).ravel() for n in ("user_emb", "item_emb"))
    if 2 * scale + size.bit_length() > 1023 and (
            2 * scale + math.frexp(float(sum(t @ t for t in scaled)))[1] > 1023):
        raise CheckpointError(f"{path}: tables so large that scores could overflow float64")
    state = ModelState(user_emb=tables["user_emb"], item_emb=tables["item_emb"], hp=hp)
    return state, {k: header[k] for k in ("manifest_hash", *_MANIFEST_FIELDS)}
