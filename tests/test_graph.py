"""Normalized adjacency construction, propagation, and its adjoint, checked
against dense linear-algebra oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from mbrobust import graph
from mbrobust.graph import Workspace, _spmm_into, build_graph, propagate, propagate_adjoint

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


def bmat_adjacency(ds, behavior):
    """The bipartite CSR as `build_graph` assembled it before it wrote the
    arrays itself: the weighted rating matrix and its transpose through
    ``sp.bmat``, then sorted."""
    n_u, n_i = ds.manifest.num_users, ds.manifest.num_items
    indptr, items = ds.user_items(behavior)
    deg_u = np.diff(indptr)
    deg_i = np.bincount(items, minlength=n_i)
    weights = 1.0 / np.sqrt(np.repeat(deg_u, deg_u) * deg_i[items])
    rating = sp.csr_matrix((weights, items, indptr), shape=(n_u, n_i))
    adj = sp.bmat([[None, rating], [rating.T, None]], format="csr")
    adj.sort_indices()
    return adj


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

    @settings(deadline=None)
    @given(edge_datasets())
    def test_csr_arrays_equal_the_bmat_form_byte_for_byte(self, ds):
        self._assert_bmat_bytes(ds)

    def test_nodes_without_an_edge_keep_the_bmat_form_byte_for_byte(self):
        # user 0, the last user and items 0, 3 and the last have no edge
        ds = make_dataset({"buy": {(1, 1): 1, (1, 2): 1, (2, 2): 1, (4, 4): 1}}, "buy",
                          num_users=7, num_items=6)
        self._assert_bmat_bytes(ds)

    @staticmethod
    def _assert_bmat_bytes(ds):
        got, want = build_graph(ds, "buy").adjacency, bmat_adjacency(ds, "buy")
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

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


    def test_workspace_gives_the_same_bits_and_reuses_its_buffer(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, num_users=7, num_items=5, num_behaviors=2)
        ws = Workspace()
        for b in ds.manifest.behaviors:
            g = build_graph(ds, b)
            for L in (0, 1, 2, 3):
                Zu, Zi = rng.normal(size=(7, 4)), rng.normal(size=(5, 4))
                fresh = propagate(g, Zu, Zi, L)
                reused = propagate(g, Zu, Zi, L, workspace=ws)
                assert fresh.P.tobytes() == reused.P.tobytes()
                assert fresh.Q.tobytes() == reused.Q.tobytes()
                again = propagate(g, Zu, Zi, L, workspace=ws)
                assert again.P.base is reused.P.base  # one buffer, overwritten
        # an input already in the result's rows is used where it is
        out = propagate(g, Zu, Zi, 0, workspace=ws)
        in_place = propagate(g, out.P, out.Q, 2, workspace=ws)
        expected = propagate(g, Zu, Zi, 2)
        assert in_place.P.tobytes() == expected.P.tobytes()
        assert in_place.Q.tobytes() == expected.Q.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 3])
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_streamed_last_layer_gives_the_bits_of_the_product_chain(
            self, monkeypatch, block_rows, layers):
        # 12 nodes span several blocks; an input in the result's own rows is
        # the last layer's input at L = 1, whose item rows read user rows
        # that earlier blocks have already added to
        monkeypatch.setattr(graph, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, num_users=7, num_items=5, num_behaviors=1)
        g = build_graph(ds, ds.manifest.target)
        Zu, Zi = rng.normal(size=(7, 4)), rng.normal(size=(5, 4))
        cur = np.vstack([Zu, Zi])
        expected = cur.copy()
        for _ in range(layers):
            cur = g.adjacency @ cur
            expected += cur
        expected /= layers + 1
        ws = Workspace()
        start = propagate(g, Zu, Zi, 0, workspace=ws)
        for out in (propagate(g, Zu, Zi, layers),
                    propagate(g, start.P, start.Q, layers, workspace=ws)):
            assert out.P.tobytes() == expected[:7].tobytes()
            assert out.Q.tobytes() == expected[7:].tobytes()


class TestWorkspace:
    def test_views_grow_only_when_a_request_needs_room(self):
        ws = Workspace()
        big = ws.get("a", (4, 3))
        small = ws.get("a", (2, 5))
        assert small.shape == (2, 5) and small.flags.c_contiguous
        assert small.dtype == np.float64 and np.shares_memory(big, small)
        grown = ws.get("a", (5, 3))
        assert not np.shares_memory(big, grown)
        assert not np.shares_memory(grown, ws.get("b", (5, 3)))

    def test_two_dtype_views_of_one_name_share_bytes(self):
        ws = Workspace()
        wide = ws.get("a", (2, 3))
        wide[...] = np.arange(6).reshape(2, 3) / 7
        narrow = ws.get("a", (4, 3), np.float32)
        assert narrow.dtype == np.float32 and narrow.shape == (4, 3)
        assert narrow.flags.c_contiguous and np.shares_memory(wide, narrow)
        assert narrow.tobytes() == wide.tobytes()
        flags = ws.get("a", (48,), bool)
        assert np.shares_memory(wide, flags) and flags.tobytes() == wide.tobytes()

    def test_a_larger_byte_request_grows_and_keeps_views_handed_out(self):
        ws = Workspace()
        old = ws.get("a", (3,))
        old[...] = [1.0, 2.0, 3.0]
        # the same 24 bytes as uint8 fit; 28 bytes as float32 do not
        assert np.shares_memory(old, ws.get("a", (24,), np.uint8))
        grown = ws.get("a", (7,), np.float32)
        grown.fill(np.nan)
        assert not np.shares_memory(old, grown)
        assert old.tolist() == [1.0, 2.0, 3.0]
        assert np.shares_memory(grown, ws.get("a", (3,)))  # the grown buffer stays

    def test_parts_are_disjoint_contiguous_and_aligned(self):
        ws = Workspace()
        ws.get("a", (1,))  # a small buffer, grown once for every part
        spec = [((3, 5), np.float32), ((7,), bool), ((0, 4), np.float64), ((2, 3), np.float64),
                ((5,), np.int8), ((1, 1), np.float32)]
        views = ws.parts("a", spec)
        base = views[0].__array_interface__["data"][0]
        for view, (shape, dtype) in zip(views, spec):
            assert view.shape == shape and view.dtype == dtype
            assert view.flags.c_contiguous and view.flags.writeable
            assert (view.__array_interface__["data"][0] - base) % graph.PART_ALIGN == 0
        for k, view in enumerate(views):
            view.fill(k + 1)
        for k, view in enumerate(views):
            assert np.all(view == view.dtype.type(k + 1))
            assert not any(np.shares_memory(view, other) for other in views[k + 1 :])
        again = ws.parts("a", spec)  # one buffer, no larger request: the same bytes
        assert all(np.shares_memory(a, b) for a, b in zip(views, again) if a.size)

    def test_the_overlap_check_raises_on_an_overlap(self):
        x = np.zeros((4, 3))
        graph._require_apart([x[2:]], [x[:2], np.zeros(3)], "overlap")
        # rows 1-2 against rows 0-1; the last row against column 0, whose
        # bounds span the table
        for outs, ins in (([x[1:3]], [x[:2]]), ([np.zeros(1), x[3:]], [np.zeros(3), x.T[0]])):
            with pytest.raises(ValueError, match="overlap"):
                graph._require_apart(outs, ins, "overlap")
        frozen = np.zeros(3)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="overlap"):
            graph._require_apart([frozen], [], "overlap")
        ws = Workspace()
        table = ws.get("a", (4, 3))
        ws.parts("b", [((2,), np.float32)], apart=[table])
        with pytest.raises(ValueError, match="shares the workspace buffer"):
            # the second part, 64 bytes in, overlaps the last two rows
            ws.parts("a", [((2,), np.float32), ((3,), bool)], apart=[table[2:]])


def _spmm_case(rng, fmt, rows, cols, d, density):
    a = sp.random(rows, cols, density=density, format=fmt, random_state=rng,
                  dtype=np.float64)
    if rows and cols:  # an empty row and an empty column
        a = a.tolil()
        a[rows // 2, :] = 0.0
        a[:, cols // 2] = 0.0
        a = a.asformat(fmt)
    a.eliminate_zeros()
    return a, rng.normal(size=(cols, d))


class TestSpmmInto:
    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    @pytest.mark.parametrize("d", [1, 64])
    @pytest.mark.parametrize("rows, cols, density", [
        (9, 7, 0.3), (7, 9, 0.5), (6, 6, 0.0), (2, 5, 1.0), (0, 3, 0.0), (4, 0, 0.0),
    ])
    def test_matches_the_matmul_bit_for_bit(self, fmt, d, rows, cols, density):
        rng = np.random.default_rng(10)
        a, x = _spmm_case(rng, fmt, rows, cols, d, density)
        if density == 0.0:
            assert a.nnz == 0
        out = np.full((rows, d), np.nan)  # stale contents are overwritten
        assert _spmm_into(a, x, out) is out
        expected = a @ x
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 64])
    @pytest.mark.parametrize("lo, hi", [(0, 9), (0, 4), (4, 5), (3, 9), (5, 5), (9, 9)])
    def test_a_row_range_gives_the_bits_of_those_rows(self, d, lo, hi):
        rng = np.random.default_rng(13)
        a, x = _spmm_case(rng, "csr", 9, 7, d, 0.4)
        out = np.full((hi - lo, d), np.nan)
        assert _spmm_into(a, x, out, (lo, hi)) is out
        assert out.tobytes() == (a @ x)[lo:hi].tobytes()

    def test_a_bad_row_range_raises_and_writes_nothing(self):
        rng = np.random.default_rng(14)
        a, x = _spmm_case(rng, "csr", 6, 5, 3, 0.5)
        for rows, out_rows in (((-1, 2), 3), ((3, 2), 0), ((3, 7), 4), ((0, 2), 3)):
            out = np.full((out_rows, 3), 7.0)
            with pytest.raises(ValueError):
                _spmm_into(a, x, out, rows)
            assert np.all(out == 7.0)
        with pytest.raises(ValueError, match="CSR"):  # a CSC matrix has no row slices
            _spmm_into(a.tocsc(), x, np.zeros((2, 3)), (0, 2))

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_bad_operands_raise_and_write_nothing(self, fmt):
        rng = np.random.default_rng(11)
        a, x = _spmm_case(rng, fmt, 6, 5, 3, 0.5)
        wide = np.zeros((6, 6))
        bad_out = [
            wide[:, ::2],  # not contiguous
            np.zeros((3, 6)).T,  # Fortran order
            np.zeros((5, 3)),  # wrong rows
            np.zeros((6, 4)),  # wrong columns
            np.zeros((6, 3), dtype=np.float32),
            np.zeros(18),
        ]
        for out in bad_out:
            before = out.copy()
            with pytest.raises(ValueError):
                _spmm_into(a, x, out)
            assert np.array_equal(out, before)
        bad_x = [
            np.zeros((5, 6))[:, ::2],
            np.asfortranarray(x),
            x[:4],
            x.astype(np.float32),
            x.astype(np.int64),
        ]
        for bad in bad_x:
            out = np.full((6, 3), 7.0)
            with pytest.raises(ValueError):
                _spmm_into(a, bad, out)
            assert np.all(out == 7.0)
        frozen = np.full((6, 3), 7.0)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            _spmm_into(a, x, frozen)
        square, y = _spmm_case(rng, fmt, 5, 5, 3, 0.5)
        with pytest.raises(ValueError):  # out overlapping x
            _spmm_into(square, y, y)
        with pytest.raises(ValueError):
            _spmm_into(a.astype(np.float32), x, np.zeros((6, 3)))
        with pytest.raises(ValueError):
            _spmm_into(a.tocoo(), x, np.zeros((6, 3)))


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
