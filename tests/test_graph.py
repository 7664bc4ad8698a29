"""Normalized adjacency construction, propagation, and its adjoint, checked
against dense linear-algebra oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from mbrobust.graph import build_graph, propagate, propagate_adjoint

from conftest import edge_datasets, make_dataset, random_dataset


def dense_normalized_adjacency(ds, behavior):
    """Brute-force D^{-1/2} A D^{-1/2} over the stacked node set."""
    n_u, n_i = ds.manifest.num_users, ds.manifest.num_items
    n = n_u + n_i
    A = np.zeros((n, n))
    for u, i in ds.edges[behavior]:
        A[u, n_u + i] = 1.0
        A[n_u + i, u] = 1.0
    deg = A.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return np.diag(inv_sqrt) @ A @ np.diag(inv_sqrt)


def per_edge_adjacency(ds, behavior):
    """CSR adjacency and degrees built by a loop over the sorted edges, one
    coordinate entry per direction."""
    n_u, n_i = ds.manifest.num_users, ds.manifest.num_items
    n = n_u + n_i
    pairs = sorted(ds.edges[behavior])
    degrees = np.zeros(n, dtype=np.int64)
    for u, i in pairs:
        degrees[u] += 1
        degrees[n_u + i] += 1
    rows, cols, vals = [], [], []
    for u, i in pairs:
        w = 1.0 / np.sqrt(float(degrees[u]) * float(degrees[n_u + i]))
        rows += [u, n_u + i]
        cols += [n_u + i, u]
        vals += [w, w]
    adj = sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
    )
    adj.sort_indices()
    return adj, degrees


def dense_propagate(ds, behavior, Zu, Zi, L):
    """Mean of E, AE, ..., A^L E computed with dense matrix powers."""
    A = dense_normalized_adjacency(ds, behavior)
    E = np.vstack([Zu, Zi])
    acc = E.copy()
    cur = E
    for _ in range(L):
        cur = A @ cur
        acc += cur
    out = acc / (L + 1)
    return out[: ds.manifest.num_users], out[ds.manifest.num_users :]


class TestBuildGraph:
    def test_single_edge_weight_is_one(self):
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy")
        g = build_graph(ds, "buy")
        dense = g.adjacency.toarray()
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0

    def test_degree_two_user_weights(self):
        ds = make_dataset({"buy": {(0, 0): 1, (0, 1): 1}}, "buy", num_items=2)
        g = build_graph(ds, "buy")
        dense = g.adjacency.toarray()
        w = 1.0 / np.sqrt(2.0)
        assert dense[0, 1] == pytest.approx(w, abs=1e-15)
        assert dense[0, 2] == pytest.approx(w, abs=1e-15)
        assert dense[1, 0] == pytest.approx(w, abs=1e-15)
        assert dense[2, 0] == pytest.approx(w, abs=1e-15)

    def test_random_graph_matches_dense_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ds = random_dataset(rng, num_users=5, num_items=5, num_behaviors=1)
            g = build_graph(ds, ds.manifest.target)
            np.testing.assert_allclose(
                g.adjacency.toarray(),
                dense_normalized_adjacency(ds, ds.manifest.target),
                atol=1e-12,
            )

    @settings(deadline=None)
    @given(edge_datasets())
    def test_csr_arrays_equal_per_edge_construction(self, ds):
        g = build_graph(ds, "buy")
        ref, _ = per_edge_adjacency(ds, "buy")
        for name in ("data", "indices", "indptr"):
            got, want = getattr(g.adjacency, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_empty_behavior_gives_edgeless_graph(self):
        ds = make_dataset({"view": {}, "buy": {(0, 0): 1}}, "buy")
        g = build_graph(ds, "view")
        assert g.adjacency.nnz == 0


class TestPropagate:
    def test_zero_layers_is_identity(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, num_users=4, num_items=4, num_behaviors=1)
        g = build_graph(ds, ds.manifest.target)
        Zu = rng.normal(size=(4, 3))
        Zi = rng.normal(size=(4, 3))
        out = propagate(g, Zu, Zi, 0)
        np.testing.assert_array_equal(out.P, Zu)
        np.testing.assert_array_equal(out.Q, Zi)

    def test_edgeless_graph_scales_by_layer_mean(self):
        ds = make_dataset({"view": {}, "buy": {(0, 0): 1}}, "buy",
                          num_users=3, num_items=3)
        g = build_graph(ds, "view")
        rng = np.random.default_rng(2)
        Zu = rng.normal(size=(3, 2))
        Zi = rng.normal(size=(3, 2))
        out = propagate(g, Zu, Zi, 2)
        np.testing.assert_allclose(out.P, Zu / 3.0, atol=1e-15)
        np.testing.assert_allclose(out.Q, Zi / 3.0, atol=1e-15)

    def test_small_graph_matches_dense_oracle(self):
        ds = make_dataset(
            {"buy": {(0, 0): 1, (0, 1): 1, (1, 1): 1}}, "buy",
            num_users=2, num_items=2,
        )
        rng = np.random.default_rng(3)
        Zu = rng.normal(size=(2, 4))
        Zi = rng.normal(size=(2, 4))
        out = propagate(build_graph(ds, "buy"), Zu, Zi, 2)
        P_ref, Q_ref = dense_propagate(ds, "buy", Zu, Zi, 2)
        np.testing.assert_allclose(out.P, P_ref, atol=1e-10)
        np.testing.assert_allclose(out.Q, Q_ref, atol=1e-10)

    def test_dense_oracle_equivalence_up_to_16_nodes(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n_u = int(rng.integers(1, 9))
            n_i = int(rng.integers(1, 9))
            ds = random_dataset(rng, num_users=n_u, num_items=n_i, num_behaviors=1)
            b = ds.manifest.target
            L = int(rng.integers(0, 4))
            d = int(rng.integers(1, 5))
            Zu = rng.normal(size=(n_u, d))
            Zi = rng.normal(size=(n_i, d))
            out = propagate(build_graph(ds, b), Zu, Zi, L)
            P_ref, Q_ref = dense_propagate(ds, b, Zu, Zi, L)
            np.testing.assert_allclose(out.P, P_ref, atol=1e-10)
            np.testing.assert_allclose(out.Q, Q_ref, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, num_users=6, num_items=6, num_behaviors=1)
        g = build_graph(ds, ds.manifest.target)
        Z = rng.normal(size=(12, 3))
        W = rng.normal(size=(12, 3))
        a, b = 0.7, -1.3
        lhs = propagate(g, a * Z[:6] + b * W[:6], a * Z[6:] + b * W[6:], 2)
        p1 = propagate(g, Z[:6], Z[6:], 2)
        p2 = propagate(g, W[:6], W[6:], 2)
        np.testing.assert_allclose(lhs.P, a * p1.P + b * p2.P, atol=1e-12)
        np.testing.assert_allclose(lhs.Q, a * p1.Q + b * p2.Q, atol=1e-12)

    def test_spectral_norm_never_grows(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            ds = random_dataset(rng, num_users=6, num_items=6, num_behaviors=1)
            g = build_graph(ds, ds.manifest.target)
            E = rng.normal(size=(12, 4))
            prev = np.linalg.norm(E)
            for _ in range(5):
                E = g.adjacency @ E
                cur = np.linalg.norm(E)
                assert cur <= prev * (1.0 + 1e-9)
                prev = cur

    def test_shape_mismatch_raises(self):
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy")
        g = build_graph(ds, "buy")
        with pytest.raises(ValueError, match="match"):
            propagate(g, np.zeros((2, 3)), np.zeros((1, 3)), 1)


class TestAdjoint:
    def test_zero_layers_is_identity(self):
        ds = make_dataset({"buy": {(0, 0): 1}}, "buy")
        g = build_graph(ds, "buy")
        dP = np.ones((1, 2))
        dQ = np.full((1, 2), 2.0)
        du, di = propagate_adjoint(g, dP, dQ, 0)
        np.testing.assert_array_equal(du, dP)
        np.testing.assert_array_equal(di, dQ)

    def test_inner_product_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ds = random_dataset(rng, num_users=4, num_items=4, num_behaviors=1)
            g = build_graph(ds, ds.manifest.target)
            L = int(rng.integers(0, 4))
            Zu = rng.normal(size=(4, 3))
            Zi = rng.normal(size=(4, 3))
            dP = rng.normal(size=(4, 3))
            dQ = rng.normal(size=(4, 3))
            out = propagate(g, Zu, Zi, L)
            du, di = propagate_adjoint(g, dP, dQ, L)
            forward = np.sum(dP * out.P) + np.sum(dQ * out.Q)
            backward = np.sum(du * Zu) + np.sum(di * Zi)
            assert abs(forward - backward) <= 1e-12 * max(1.0, abs(forward))

    def test_adjoint_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, num_users=4, num_items=4, num_behaviors=1)
        g = build_graph(ds, ds.manifest.target)
        Zu = rng.normal(size=(4, 3))
        Zi = rng.normal(size=(4, 3))
        dP = rng.normal(size=(4, 3))
        dQ = rng.normal(size=(4, 3))
        du, _ = propagate_adjoint(g, dP, dQ, 2)

        def inner(zu):
            out = propagate(g, zu, Zi, 2)
            return np.sum(dP * out.P) + np.sum(dQ * out.Q)

        h = 1e-5
        for idx in [(0, 0), (1, 2), (3, 1)]:
            up = Zu.copy()
            up[idx] += h
            down = Zu.copy()
            down[idx] -= h
            fd = (inner(up) - inner(down)) / (2 * h)
            assert abs(fd - du[idx]) <= 1e-6 * max(1.0, abs(du[idx]))
