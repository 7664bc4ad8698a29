import json
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from mbrobust.data import DatasetManifest, EdgeSet, InteractionDataset


def write_dataset_dir(path, behaviors, target, files):
    """Write a manifest plus raw TSV bodies (text per behavior) to ``path``."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"behaviors": list(behaviors), "target": target}, fh)
    for behavior, body in files.items():
        with open(os.path.join(path, f"{behavior}.tsv"), "w", encoding="utf-8") as fh:
            fh.write(body)
    return str(path)


def make_dataset(edges, target, num_users=None, num_items=None):
    """Build an in-memory dataset from {behavior: {(u, i): ts}} dicts."""
    behaviors = tuple(edges)
    max_u = max((u for b in edges.values() for u, _ in b), default=-1)
    max_i = max((i for b in edges.values() for _, i in b), default=-1)
    num_users = num_users if num_users is not None else max_u + 1
    num_items = num_items if num_items is not None else max_i + 1
    manifest = DatasetManifest(
        behaviors=behaviors, target=target, num_users=num_users, num_items=num_items
    )

    def edge_set(pairs):
        rows = [(u, i, -1 if ts is None else ts) for (u, i), ts in pairs.items()]
        return EdgeSet(*np.array(rows, dtype=np.int64).reshape(-1, 3).T, num_items)

    return InteractionDataset(
        manifest=manifest,
        edges={b: edge_set(v) for b, v in edges.items()},
        user_ids=tuple(f"u{k:03d}" for k in range(num_users)),
        item_ids=tuple(f"i{k:03d}" for k in range(num_items)),
    )


def random_dataset(rng, num_users=None, num_items=None, num_behaviors=None,
                   with_timestamps=True):
    """Random small dataset with a nonempty target behavior."""
    num_users = num_users or int(rng.integers(2, 10))
    num_items = num_items or int(rng.integers(2, 10))
    num_behaviors = num_behaviors or int(rng.integers(1, 4))
    names = [f"b{k}" for k in range(num_behaviors)]
    target = names[-1]
    edges = {}
    for b in names:
        bucket = {}
        density = rng.uniform(0.1, 0.6)
        for u in range(num_users):
            for i in range(num_items):
                if rng.random() < density:
                    bucket[(u, i)] = int(rng.integers(0, 50)) if with_timestamps else None
        edges[b] = bucket
    if not edges[target]:
        edges[target][(0, 0)] = 0 if with_timestamps else None
    return make_dataset(edges, target, num_users, num_items)


@st.composite
def edge_datasets(draw):
    """One-behavior datasets of up to 8 x 8 with edges in random dict order."""
    num_users = draw(st.integers(1, 8))
    num_items = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1))
    edges = draw(st.lists(pairs, unique=True))
    return make_dataset({"buy": dict.fromkeys(edges)}, "buy", num_users, num_items)


@pytest.fixture
def toy_dataset_dir(tmp_path):
    """3 users, 3 items, 7 records over two behaviors (one duplicate pair)."""
    return write_dataset_dir(
        tmp_path / "toy",
        behaviors=["view", "buy"],
        target="buy",
        files={
            "view": "\n".join(
                ["# raw view log", "alice\tapple\t5", "alice\tapple\t3",
                 "bob\tpear\t7", "carol\tapple\t2", "alice\tpear\t9"]
            ) + "\n",
            "buy": "alice\tapple\t10\nbob\tpear\t8\ncarol\tquince\t4\n",
        },
    )
