"""The four benchmark workloads and their output checks.

Each workload has four parts.  ``inputs`` runs in the launcher process and
writes the seeded files the program loads.  ``setup`` is the program's own
preparation before the measured operation (reported as ``setup_s``).  ``op``
is the measured operation, called through module attributes so the tracer's
rebinding reaches it.  ``check`` validates one operation's output against the
first one's, and ``final_check`` runs the costlier oracles once, untimed.

Sizes are fixed per workload; only the content depends on the seed.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.sparse as sp

from gen import Planted, planted_embeddings, write_dataset
from mbrobust import data, evaluation, graph, losses, training


class Workload:
    name = ""  # why each workload exists: perfbench/README.md and BENCHMARK.json
    spec: Planted

    def inputs(self, seed: int, work: str) -> None:
        write_dataset(self.spec, seed, os.path.join(work, "dataset"))

    def setup(self, work: str):
        ds = data.load_dataset(os.path.join(work, "dataset"))
        return data.split_leave_one_out(ds)

    def op(self, ctx, seed: int, work: str):
        raise NotImplementedError

    def reference(self, out):
        """What of the first operation's output later outputs are checked against."""
        return out

    def check(self, ctx, out, ref) -> list[str]:
        """Problems with ``out``; ``ref`` is `reference` of the first
        operation's output (None when ``out`` is the first)."""
        return []

    def final_check(self, ctx, ref, seed: int, work: str) -> tuple[list[str], dict]:
        """Problems found by the once-per-run oracles, and quality metrics."""
        return [], {}


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _log_key(rows):
    """The per-epoch log without its wall-clock column."""
    return [(r.epoch, r.bpr, r.rrm, r.orm, r.main, r.total, r.val_hr10, r.val_ndcg10) for r in rows]


# ---------------------------------------------------------------------------


class Train(Workload):
    name = "train"
    spec = Planted(num_users=4000, num_items=2000, num_groups=20, target_per_user=6, aux_per_user=10)
    epochs = 2

    def config(self, seed: int) -> training.TrainConfig:
        hp = losses.Hyperparameters(
            dim=64, num_layers=2, batch_size=1024, max_epochs=self.epochs, patience=10, seed=seed
        )
        return training.TrainConfig(hp=hp, eval_every=2)

    def op(self, split, seed, work):
        state, rows = training.train(split, self.config(seed))
        training.save_checkpoint(state, split.train.manifest, os.path.join(work, "train_ckpt.json"))
        return state, rows

    def check(self, split, out, ref):
        state, rows = out
        bad = []
        if len(rows) != self.epochs:
            bad.append(f"train: {len(rows)} epochs logged, expected {self.epochs}")
        if not all(_finite(r.rrm, r.orm, r.main, r.total, *r.bpr.values()) for r in rows):
            bad.append("train: non-finite loss in the epoch log")
        if rows and rows[-1].val_hr10 is None:
            bad.append("train: validation did not run on the last epoch")
        if ref is not None:
            if _log_key(rows) != _log_key(ref[1]):
                bad.append("train: same-seed epoch log differs from the first run")
            if not (np.array_equal(state.user_emb, ref[0].user_emb)
                    and np.array_equal(state.item_emb, ref[0].item_emb)):
                bad.append("train: same-seed embeddings differ from the first run")
        return bad

    def final_check(self, split, ref, seed, work):
        state = ref[0]
        bad = []
        loaded, _ = training.load_checkpoint(os.path.join(work, "train_ckpt.json"))
        if not (np.array_equal(loaded.user_emb, state.user_emb)
                and np.array_equal(loaded.item_emb, state.item_emb)):
            bad.append("train: checkpoint does not round-trip the trained embeddings")
        report = evaluation.evaluate(state, split, ks=(10, 20))
        return bad, {"hr10": report.hr[10], "ndcg10": report.ndcg[10]}


# ---------------------------------------------------------------------------


def _oracle_rank(scores: np.ndarray, held: int, excluded: set[int]) -> int:
    """1-based rank of ``held`` by a full sort on (score desc, item id asc)."""
    keep = np.ones(len(scores), dtype=bool)
    keep[list(excluded)] = False
    keep[held] = True
    items = np.flatnonzero(keep)
    order = items[np.lexsort((items, -scores[items]))]
    return int(np.flatnonzero(order == held)[0]) + 1


def _reference_fused(state, ds) -> tuple[np.ndarray, np.ndarray]:
    """Fused embeddings from the bipartite form of the normalized operator,
    written independently of `mbrobust.graph`."""
    U, I = ds.manifest.num_users, ds.manifest.num_items
    Ps, Qs = [], []
    for b in ds.manifest.behaviors:
        if not ds.edges[b]:
            continue
        u, i = np.array(list(ds.edges[b]), dtype=np.int64).T
        w = 1.0 / np.sqrt(np.bincount(u, minlength=U)[u] * np.bincount(i, minlength=I)[i])
        A = sp.csr_matrix((w, (u, i)), shape=(U, I))
        P, Q = state.user_emb, state.item_emb
        sum_P, sum_Q = P.copy(), Q.copy()
        for _ in range(state.hp.num_layers):
            P, Q = A @ Q, A.T @ P
            sum_P += P
            sum_Q += Q
        Ps.append(sum_P / (state.hp.num_layers + 1))
        Qs.append(sum_Q / (state.hp.num_layers + 1))
    return np.mean(Ps, axis=0), np.mean(Qs, axis=0)


class Evaluate(Workload):
    name = "evaluate"
    spec = Planted(num_users=6000, num_items=6000, num_groups=30, target_per_user=6, aux_per_user=10)
    dim = 64
    oracle_users = 200

    def inputs(self, seed, work):
        super().inputs(seed, work)
        user, item = planted_embeddings(self.spec, self.dim, seed)
        hp = losses.Hyperparameters(dim=self.dim, num_layers=2, seed=seed)
        manifest = data.DatasetManifest(
            behaviors=self.spec.behaviors,
            target=self.spec.target,
            num_users=self.spec.num_users,
            num_items=self.spec.num_items,
        )
        training.save_checkpoint(
            losses.ModelState(user, item, hp), manifest, os.path.join(work, "checkpoint.json")
        )

    def op(self, split, seed, work):
        state, meta = training.load_checkpoint(os.path.join(work, "checkpoint.json"))
        if meta["manifest_hash"] != training.manifest_hash(split.train.manifest):
            raise ValueError("checkpoint manifest hash does not match the dataset")
        report = evaluation.evaluate(state, split, ks=(10, 20), record_ranks=True)
        return state, report

    def check(self, split, out, ref):
        state, report = out
        bad = []
        if report.num_evaluated_users != len(split.test):
            bad.append("evaluate: not every test pair was ranked")
        if ref is not None and (
            report.hr != ref[1].hr
            or report.ndcg != ref[1].ndcg
            or report.per_user_ranks != ref[1].per_user_ranks
        ):
            bad.append("evaluate: report differs from the first run")
        return bad

    def final_check(self, split, ref, seed, work):
        state, report = ref
        bad = []
        ranks = report.per_user_ranks
        for k in (10, 20):
            hr = sum(1 for _, r in ranks if r <= k) / len(ranks)
            ndcg = sum(1.0 / math.log2(r + 1) for _, r in ranks if r <= k) / len(ranks)
            if hr != report.hr[k] or not math.isclose(ndcg, report.ndcg[k], rel_tol=1e-12):
                bad.append(f"evaluate: HR/NDCG@{k} do not follow from the ranks")

        ds = split.train
        graphs = {b: graph.build_graph(ds, b) for b in ds.manifest.behaviors if ds.edges[b]}
        z_user, z_item = evaluation.fused_embeddings(state, graphs)
        ref_user, ref_item = _reference_fused(state, ds)
        if not (np.allclose(z_user, ref_user, rtol=1e-10, atol=1e-12)
                and np.allclose(z_item, ref_item, rtol=1e-10, atol=1e-12)):
            bad.append("evaluate: fused embeddings differ from the bipartite reference")

        train_items: dict[int, set[int]] = {}
        for u, i in ds.edges[ds.manifest.target]:
            train_items.setdefault(u, set()).add(i)
        rng = np.random.default_rng([seed, 2])
        picks = rng.choice(len(split.test), size=min(self.oracle_users, len(split.test)), replace=False)
        for k in picks:
            (u, i), (ru, rank) = split.test[k], ranks[k]
            oracle = _oracle_rank(z_item @ z_user[u], i, train_items.get(u, set()))
            if ru != u or rank != oracle:
                bad.append(f"evaluate: user {u} ranked {rank}, oracle says {oracle}")
                break
        return bad, {"hr10": report.hr[10], "ndcg10": report.ndcg[10]}


# ---------------------------------------------------------------------------


class Ingest(Workload):
    name = "ingest"
    spec = Planted(num_users=8000, num_items=2000, num_groups=20, target_per_user=6, aux_per_user=10)
    ratio = 0.5

    def op(self, _, seed, work):
        aux = self.spec.aux_behaviors
        ds = data.load_dataset(os.path.join(work, "dataset"))
        report = data.diagnose(ds)
        split = data.split_leave_one_out(ds)
        data.write_split(split, os.path.join(work, "split"))
        loaded = data.load_split(os.path.join(work, "split"))
        added = data.perturb(loaded.train, data.PerturbationSpec("add", self.ratio, aux, seed))
        removed = data.perturb(added, data.PerturbationSpec("remove", self.ratio, aux, seed + 1))
        data.save_dataset(removed, os.path.join(work, "perturbed"))
        return ds, report, split, loaded, added, removed

    def reference(self, out):
        return out[1], out[5].edges

    def check(self, _, out, ref):
        ds, report, split, loaded, added, removed = out
        target = ds.manifest.target
        bad = []
        if report.counts != {b: ds.edge_count(b) for b in ds.manifest.behaviors}:
            bad.append("ingest: diagnose counts differ from the loaded edge counts")
        t = split.train
        if (loaded.train.manifest != t.manifest or loaded.train.user_ids != t.user_ids
                or loaded.train.item_ids != t.item_ids or loaded.train.edges != t.edges
                or loaded.validation != split.validation or loaded.test != split.test):
            bad.append("ingest: load_split does not round-trip write_split")
        for b in self.spec.aux_behaviors:
            before, mid, after = loaded.train.edges[b], added.edges[b], removed.edges[b]
            if (len(mid) - len(before) != math.ceil(self.ratio * len(before))
                    or any(mid.get(k, -1) != v for k, v in before.items())):
                bad.append(f"ingest: perturb add on {b!r} changed the wrong edges")
            if (len(mid) - len(after) != math.ceil(self.ratio * len(mid))
                    or any(mid.get(k, -1) != v for k, v in after.items())):
                bad.append(f"ingest: perturb remove on {b!r} changed the wrong edges")
        if not (added.edges[target] == removed.edges[target] == t.edges[target]):
            bad.append("ingest: perturbation touched target edges")
        if ref is not None and (report != ref[0] or removed.edges != ref[1]):
            bad.append("ingest: output differs from the first run")
        return bad


# ---------------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"
    spec = Planted(num_users=1000, num_items=1000, num_groups=10, target_per_user=6, aux_per_user=10)
    ratios = [0.3, 0.6]
    modes = ["add", "remove"]

    def setup(self, work):
        return data.load_dataset(os.path.join(work, "dataset"))

    def config(self, seed: int) -> training.TrainConfig:
        hp = losses.Hyperparameters(
            dim=32, num_layers=2, batch_size=256, max_epochs=2, patience=10, seed=seed,
            irm_variant="irm_v1", orm_scope="aux_only", rrm_denominator="literal",
        )
        return training.TrainConfig(hp=hp, eval_every=2)

    def op(self, ds, seed, work):
        return evaluation.robustness_sweep(ds, self.config(seed), self.ratios, self.modes, seed)

    def check(self, ds, rows, ref):
        bad = []
        cells = [(m, r) for m in self.modes for r in self.ratios]
        if [(r.mode, r.ratio) for r in rows] != [("baseline", 0.0), *cells]:
            bad.append("sweep: rows are not the baseline followed by one per cell")
        if not all(_finite(r.report.hr[10], r.report.ndcg[10], r.rel_drop_hr10, r.rel_drop_ndcg10)
                   for r in rows):
            bad.append("sweep: non-finite value in the sweep table")
        if ref is not None and evaluation.sweep_csv(rows) != evaluation.sweep_csv(ref):
            bad.append("sweep: table differs from the first run")
        return bad

    def final_check(self, ds, ref, seed, work):
        base = ref[0].report
        return [], {"hr10": base.hr[10], "ndcg10": base.ndcg[10]}


WORKLOADS = {w.name: w for w in (Train(), Evaluate(), Ingest(), Sweep())}
