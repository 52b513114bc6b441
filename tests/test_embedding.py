import tracemalloc

import numpy as np
import pytest

import dense_reference
import qmedr.embedding as emb
from conftest import make_blobs
from dense_reference import (
    dense_knn_graph,
    dense_raw_pairs,
    dense_weights,
    edge_similarity,
    laplacian,
    npe_weights_per_sample,
    pairwise_sq_distances,
    spectrum_window_defect,
)
from qmedr.datasets import synth_blobs
from qmedr.embedding import (
    Dataset,
    build_eda,
    build_elpp,
    build_enpe,
    build_eudp,
    build_problem,
    knn_graph,
    npe_weights,
    precondition,
    scatter_matrices,
)
from qmedr.linalg import hermitian_eig, spectral_norm


class TestDataset:
    def test_row_norms(self):
        ds = Dataset(X=np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert np.allclose(ds.row_norms, [5.0, 1.0], atol=1e-12)

    def test_huge_row_norm_stays_finite(self):
        # the squares of 1e160 overflow; the scaled norm does not
        ds = Dataset(X=np.array([[1e160, 0.0], [0.0, 1.0], [3 * 2.0**600, 4 * 2.0**600]]))
        assert ds.row_norms.tolist() == [1e160, 1.0, 5 * 2.0**600]
        assert np.array_equal(ds.normalized_rows(), [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])

    def test_tiny_row_norm_is_not_zero(self):
        # the square of 1e-170 underflows to 0; the scaled norm does not
        ds = Dataset(X=np.array([[1e-170, 0.0], [0.0, 0.0], [0.0, -2.0]]))
        assert ds.row_norms.tolist() == [1e-170, 0.0, 2.0]
        assert np.array_equal(ds.normalized_rows(), [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])

    def test_ordinary_rows_keep_their_bits(self):
        x = np.random.default_rng(1).normal(size=(50, 7)) * np.logspace(-150, 150, 50)[:, None]
        x[3] = [1e160] + [0.0] * 6
        ds = Dataset(X=x)
        plain = np.linalg.norm(np.delete(x, 3, axis=0), axis=1)
        assert np.delete(ds.row_norms, 3).tobytes() == plain.tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(X=np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(X=np.eye(3), labels=np.array([0, 1]))


class TestKnnGraph:
    def test_two_sample_heat_kernel(self):
        # S_01 = exp(-d^2 / (2 sigma^2)) with sigma^2 = d^2/2 gives exp(-1)
        d = 1.7
        ds = Dataset(X=np.array([[0.0], [d]]))
        g = knn_graph(ds, k=1, sigma=np.sqrt(d * d / 2.0))
        assert (g.a.tolist(), g.b.tolist()) == ([0], [1])
        assert g.w[0] == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_coincident_samples_similarity_one(self):
        ds = Dataset(X=np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]]))
        g = knn_graph(ds, k=2, sigma=1.0)
        assert edge_similarity(g)[0, 1] == pytest.approx(1.0)

    def test_laplacian_row_sums_zero(self):
        g = knn_graph(make_blobs(seed=3, n=12, m=5), k=3)
        lap = np.diag(g.degrees) - edge_similarity(g)
        assert np.max(np.abs(lap.sum(axis=1))) <= 1e-10

    def test_laplacian_psd(self):
        g = knn_graph(make_blobs(seed=5, n=14, m=6), k=4)
        lap = np.diag(g.degrees) - edge_similarity(g)
        assert hermitian_eig(lap).eigenvalues[0] >= -1e-9

    def test_similarity_structure(self):
        g = knn_graph(make_blobs(seed=8, n=10, m=4), k=3)
        # each neighbour pair once, lower index first, in (a, b) order
        assert np.all(g.a < g.b)
        keys = g.a * 10 + g.b
        assert np.all(np.diff(keys) > 0)
        assert np.all((g.w >= 0) & (g.w <= 1))
        s = edge_similarity(g)
        assert np.all(np.diag(s) == 0)
        assert np.allclose(g.degrees, s.sum(axis=1), rtol=1e-15, atol=0)

    def test_auto_sigma_is_median_distance(self):
        ds = make_blobs(seed=21, n=9, m=3)
        g = knn_graph(ds, k=2)
        d2 = pairwise_sq_distances(ds.X)
        cond = np.sqrt(d2[np.triu_indices(9, 1)])
        assert g.sigma == pytest.approx(float(np.median(cond)))

    def test_permutation_invariance(self):
        ds = make_blobs(seed=11, n=12, m=5)
        g = knn_graph(ds, k=3, sigma=1.0)
        rng = np.random.default_rng(0)
        perm = rng.permutation(12)
        g2 = knn_graph(Dataset(X=ds.X[perm]), k=3, sigma=1.0)
        assert np.allclose(edge_similarity(g2), edge_similarity(g)[np.ix_(perm, perm)], atol=1e-12)

    def test_tie_keeps_lower_index(self):
        # sample 0 is equidistant from 1 and 2; 1 and 2 each prefer their twin
        x = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.1, 0.0], [-1.1, 0.0]])
        g = knn_graph(Dataset(X=x), k=1, sigma=1.0)
        s = edge_similarity(g)
        assert s[0, 1] > 0
        assert s[0, 2] == 0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn_graph(make_blobs(n=6, m=3), k=6)

    def test_duplicate_auto_sigma(self):
        ds = Dataset(X=np.ones((4, 2)))
        with pytest.raises(ValueError, match="duplicate"):
            knn_graph(ds, k=1)


class TestPairwiseDistances:
    def test_row_blocks_match_full_tensor(self):
        ds = synth_blobs(600, 16, 2, seed=4)
        rows = dense_reference._DIFF_BLOCK_BYTES // (8 * 600 * 16)
        assert 1 < rows < 600 and 600 % rows != 0
        diff = ds.X[:, None, :] - ds.X[None, :, :]
        assert np.array_equal(pairwise_sq_distances(ds.X), np.einsum("ijk,ijk->ij", diff, diff))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_small_blocks_match_full_tensor(self, monkeypatch, rows):
        x = make_blobs(seed=5, n=20, m=6).X
        monkeypatch.setattr(dense_reference, "_DIFF_BLOCK_BYTES", rows * 8 * 20 * 6)
        diff = x[:, None, :] - x[None, :, :]
        assert np.array_equal(pairwise_sq_distances(x), np.einsum("ijk,ijk->ij", diff, diff))

    @pytest.mark.parametrize("build", [knn_graph, npe_weights])
    def test_neighbor_search_peak_memory(self, build):
        # the full N x N x F difference tensor alone is 128 MiB here
        ds = synth_blobs(512, 64, 2, seed=0)
        tracemalloc.start()
        try:
            build(ds, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("n", [2, 7, 64, 1024])
    def test_partial_search_matches_stable_argsort(self, n):
        # integer grid points: many equal distances, so ties straddle the k-th value
        rng = np.random.default_rng(n)
        x = rng.integers(0, 4, size=(n, 2)).astype(float)
        d2 = pairwise_sq_distances(x) + np.diag(np.full(n, np.inf))
        for k in sorted({1, min(5, n - 1), max(1, n // 2), n - 1}):
            _, nbrs = emb._nearest_neighbors(x, k)
            assert np.array_equal(nbrs, np.argsort(d2, axis=1, kind="stable")[:, :k])


def assert_matches_dense_search(x, k, sigma=None):
    """Neighbours, their distances, sigma and edge weights have the bits of the all-pairs search."""
    nbrs, d2, ref_sigma, s, linked = dense_knn_graph(x, k, sigma)
    got_d2, got_nbrs = emb._nearest_neighbors(x, k)
    assert np.array_equal(got_nbrs, nbrs)
    assert got_d2.tobytes() == d2.tobytes()
    graph = knn_graph(Dataset(X=x), k, sigma)
    assert graph.sigma == ref_sigma
    a, b = np.nonzero(np.triu(linked))
    assert np.array_equal(graph.a, a) and np.array_equal(graph.b, b)
    assert graph.w.tobytes() == s[a, b].tobytes()
    with np.errstate(invalid="ignore"):
        assert np.allclose(graph.degrees, s.sum(axis=1), rtol=1e-14, atol=0, equal_nan=True)
    assert (np.any(s.sum(axis=1) <= 0), graph.flags) in {(False, ()), (True, ("disconnected_vertex",))}


def ks(n):
    return sorted({1, min(4, n - 1), n - 1})


class TestScreenedSearch:
    """The Gram screen gives the bits of the dense search: neighbours, d2, sigma, edge weights."""

    @pytest.mark.parametrize("n", [2, 3, 17, 64, 129])
    def test_integer_grid_ties(self, n):
        x = np.random.default_rng(n).integers(0, 3, size=(n, 2)).astype(float)
        for k in ks(n):
            if n > 3:
                assert_matches_dense_search(x, k)
            assert_matches_dense_search(x, k, sigma=1.0)

    def test_duplicated_rows(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(9, 5))
        x = base[rng.integers(0, 9, size=40)]
        for k in ks(40):
            assert_matches_dense_search(x, k)
            assert_matches_dense_search(x, k, sigma=0.7)

    def test_duplicates_past_the_median_zero_sigma(self):
        # more than half of all pairs coincide: the median distance is zero
        x = np.vstack([np.zeros((12, 3)), np.ones((2, 3))])
        assert float(np.median(np.sqrt(pairwise_sq_distances(x)[np.triu_indices(14, 1)]))) == 0.0
        with pytest.raises(ValueError, match="auto sigma is zero"):
            knn_graph(Dataset(X=x), 3)
        assert_matches_dense_search(x, 3, sigma=1.0)

    @pytest.mark.parametrize("data", [
        # 50 +- 1e-3: the Gram form cancels all but ~7 digits of |x|^2
        lambda rng: 50.0 + 1e-3 * rng.normal(size=(70, 4)),
        # a 0.1-step grid at 1e3: distances tie to ~1e-13 and the screen, off
        # by ~1e-8, cannot order them, so the margin decides the candidates
        lambda rng: 1e3 + 0.1 * rng.integers(0, 4, size=(70, 4)),
        # squares in the subnormal range: only the underflow term covers them
        lambda rng: 1e-161 * rng.normal(size=(70, 4)),
        lambda rng: 1e-160 * rng.normal(size=(70, 4)),
        lambda rng: 1e150 * rng.normal(size=(70, 4)),
    ], ids=["offset", "offset-grid", "tiny", "small", "large"])
    def test_offset_and_extreme_magnitudes(self, data):
        x = data(np.random.default_rng(3))
        for k in ks(70):
            assert_matches_dense_search(x, k)

    def test_squares_that_overflow_keep_every_pair(self):
        # |x|^2 overflows at 1e160 while the differences stay finite, so the
        # screen is not finite and every pair goes to the exact distance
        rng = np.random.default_rng(4)
        x = 1e160 + 1e150 * rng.normal(size=(30, 3))
        with np.errstate(over="ignore"):  # Dataset's row norms overflow too
            assert not np.isfinite(np.einsum("ij,ij->i", x, x)).any()
            for k in ks(30):
                assert_matches_dense_search(x, k)

    def test_one_overflowing_row(self):
        # the last row is 1e160 away from the rest; it is nobody's neighbour
        x = np.random.default_rng(5).normal(size=(25, 3))
        x[-1] = 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (1, 4, 23):
                assert_matches_dense_search(x, k)

    def test_no_sample_is_its_own_neighbor_when_distances_overflow(self):
        # every squared distance is inf, so every pair ties: the lower indices
        # are kept, but never the sample itself
        x = 1e160 * np.random.default_rng(6).normal(size=(6, 3))
        with np.errstate(over="ignore"):
            d2, nbrs = emb._nearest_neighbors(x, 5)
        assert np.isinf(d2).all()
        assert nbrs.tolist() == [[j for j in range(6) if j != i] for i in range(6)]

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            knn_graph(make_blobs(seed=6, n=10, m=4), 3, float("nan"))

    def test_infinite_sigma_keeps_zero_one_weights(self):
        x = make_blobs(seed=6, n=30, m=4).X
        assert_matches_dense_search(x, 4, sigma=float("inf"))

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 31])
    def test_small_blocks(self, monkeypatch, rows, n):
        # every path across row blocks; N(N-1)/2 is odd at n = 2, 3, 10, 31
        # (one middle rank for the median) and even at n = 4, 5 (two)
        rng = np.random.default_rng(n)
        monkeypatch.setattr(emb, "_DIFF_BLOCK_BYTES", rows * 8 * n)
        for x in (rng.normal(size=(n, 3)), rng.integers(0, 2, size=(n, 2)).astype(float),
                  50.0 + 1e-3 * rng.normal(size=(n, 3))):
            for k in ks(n):
                if float(np.median(pairwise_sq_distances(x)[np.triu_indices(n, 1)])) > 0:
                    assert_matches_dense_search(x, k)
                assert_matches_dense_search(x, k, sigma=1.0)

    @pytest.mark.parametrize("grid", [False, True])
    def test_multi_block_1024(self, grid):
        rng = np.random.default_rng(1024)
        x = rng.integers(0, 8, size=(1024, 2)).astype(float) if grid else rng.normal(size=(1024, 16))
        assert_matches_dense_search(x, 5)

    def test_multi_block_4096_neighbors_and_sigma(self):
        # the dense S is left out here: it would be another 128 MiB
        n = 4096
        x = np.random.default_rng(n).integers(0, 8, size=(n, 2)).astype(float)
        d2 = pairwise_sq_distances(x) + np.diag(np.full(n, np.inf))
        got_d2, got_nbrs = emb._nearest_neighbors(x, 5)
        nbrs = np.argsort(d2, axis=1, kind="stable")[:, :5]
        assert np.array_equal(got_nbrs, nbrs)
        assert got_d2.tobytes() == np.take_along_axis(d2, nbrs, axis=1).tobytes()
        assert emb._median_distance(x) == float(np.median(np.sqrt(d2[np.triu_indices(n, 1)])))

    def test_neighbor_search_builds_no_square_array(self):
        # one N x N float array would be 32 MiB at N = 2048
        x = synth_blobs(2048, 16, 2, seed=0).X
        tracemalloc.start()
        try:
            emb._nearest_neighbors(x, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 2048 * 8


class TestPrecondition:
    def test_window(self, rng):
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            raw = a @ a.T
            out, amap, _ = precondition(raw, 10.0)
            assert spectrum_window_defect(out, 10.0) <= 1e-9
            assert np.allclose(amap.apply((raw + raw.T) / 2), out, atol=1e-12)

    def test_psd_shift_formula(self, rng):
        a = rng.normal(size=(5, 5))
        raw = a @ a.T
        _, amap, _ = precondition(raw, 10.0)
        smax = spectral_norm(raw)
        assert amap.shift == pytest.approx(smax / 9.0, rel=1e-9)
        assert amap.scale == pytest.approx(smax + smax / 9.0, rel=1e-9)

    def test_indefinite_input(self, rng):
        a = rng.normal(size=(6, 6))
        raw = (a + a.T) / 2  # generically indefinite
        out, _, flags = precondition(raw, 10.0)
        assert spectrum_window_defect(out, 10.0) <= 1e-9
        assert "indefinite_raw_matrix" in flags

    def test_zero_matrix_degenerate(self):
        out, _, flags = precondition(np.zeros((4, 4)), 10.0)
        assert "degenerate_zero_matrix" in flags
        assert np.allclose(out, np.eye(4))


def _capture_raw_pairs(build, raws, ds, arg):
    """Call ``build(ds, arg)`` and append the raw (S1, S2) it hands to _assemble."""
    assemble = emb._assemble

    def capture(variant, s1, s2, *rest):
        raws.append((s1, s2))
        return assemble(variant, s1, s2, *rest)

    emb._assemble = capture
    try:
        return build(ds, arg)
    finally:
        emb._assemble = assemble


class TestBuilders:
    def test_elpp_identity_data_gives_laplacian(self):
        ds = Dataset(X=np.eye(4))
        g = knn_graph(ds, k=2, sigma=1.0)
        p = build_elpp(ds, g)
        expected, _, _ = precondition(laplacian(edge_similarity(g)), 10.0)
        assert np.allclose(p.s1, expected, atol=1e-12)

    def test_raw_matrices_symmetric_psd(self):
        ds = make_blobs(seed=13, n=32, m=16)
        g = knn_graph(ds, k=4)
        raws = []
        _capture_raw_pairs(build_elpp, raws, ds, g)
        for raw in raws[0]:
            assert np.allclose(raw, raw.T, atol=1e-9)
            assert hermitian_eig(raw).eigenvalues[0] >= -1e-9 * spectral_norm(raw)

    def test_elpp_s2_matches_dense_degree_matrix(self, monkeypatch):
        ds = make_blobs(seed=13, n=40, m=12)
        g = knn_graph(ds, k=4)
        raws = []
        monkeypatch.setattr(emb, "_assemble", lambda variant, s1, s2, *rest: raws.append(s2))
        build_elpp(ds, g)
        x = ds.X
        assert np.array_equal(raws[0], x.T @ np.diag(g.degrees) @ x)

    def test_raw_pairs_psd_except_enpe_s1(self):
        # every variant's raw pair is symmetric PSD; ENPE's reconstruction
        # matrix may be indefinite and relies on the shifted preconditioning
        ds = make_blobs(seed=13, n=24, m=10)
        g = knn_graph(ds, k=4)
        raws = []
        for build, arg in ((build_elpp, g), (build_eudp, g), (build_enpe, npe_weights(ds, 4))):
            _capture_raw_pairs(build, raws, ds, arg)
        (elpp_s1, elpp_s2), (_, eudp_s2), (enpe_s1, enpe_s2) = raws
        s_b, s_w = scatter_matrices(ds)
        psd_raws = {
            "ELPP_S1": elpp_s1,
            "ELPP_S2": elpp_s2,
            "EUDP_S2": eudp_s2,
            "ENPE_S2": enpe_s2,
            "EDA_S1": s_b,
            "EDA_S2": s_w,
        }
        for name, raw in psd_raws.items():
            assert np.allclose(raw, raw.T, atol=1e-9), name
            min_eig = hermitian_eig((raw + raw.T) / 2).eigenvalues[0]
            assert min_eig >= -1e-9 * max(spectral_norm(raw), 1.0), name
        p = build_enpe(ds, npe_weights(ds, 4))
        if hermitian_eig(enpe_s1).eigenvalues[0] < 0:
            assert "indefinite_raw_matrix" in p.flags
        assert spectrum_window_defect(p.s1, p.kappa1) <= 1e-9

    def test_preconditioned_windows_all_variants(self):
        ds = make_blobs(seed=13, n=32, m=16)
        for variant in ("ELPP", "EUDP", "ENPE", "EDA"):
            p = build_problem(ds, variant, k=4)
            assert spectrum_window_defect(p.s1, p.kappa1) <= 1e-9
            assert spectrum_window_defect(p.s2, p.kappa2) <= 1e-9
            assert np.allclose(p.s1, p.s1.T, atol=1e-9)
            assert np.allclose(p.s2, p.s2.T, atol=1e-9)

    def test_eudp_complement_identity(self):
        # L + L' is the complete graph's Laplacian N I - J, so X^T L X + X^T L' X = N Xc^T Xc
        ds = make_blobs(seed=9, n=10, m=4)
        raws = []
        _capture_raw_pairs(build_eudp, raws, ds, knn_graph(ds, k=3))
        xc = ds.X - ds.X.mean(axis=0)
        assert np.allclose(raws[0][0] + raws[0][1], 10 * xc.T @ xc, rtol=0, atol=1e-12)

    def test_eudp_fully_similar_degenerate(self):
        ds = Dataset(X=np.vstack([np.zeros(3), np.zeros(3), np.zeros(3)]) + 1.0)
        g = knn_graph(ds, k=2, sigma=1.0)
        assert g.w.tolist() == [1.0, 1.0, 1.0]
        raws = []
        p = _capture_raw_pairs(build_eudp, raws, ds, g)
        assert "degenerate_complement_graph" in p.flags
        assert p.complement_fro == 0.0
        assert not raws[0][1].any()

    def test_eudp_complement_laplacian_psd(self):
        ds = make_blobs(seed=13, n=16, m=8)
        raws = []
        _capture_raw_pairs(build_eudp, raws, ds, knn_graph(ds, k=3))
        s2 = raws[0][1]
        assert hermitian_eig((s2 + s2.T) / 2).eigenvalues[0] >= -1e-9 * spectral_norm(s2)

    def test_enpe_identity_weights(self):
        # each sample "reconstructed" by itself: W = I
        ds = make_blobs(seed=4, n=8, m=4)
        p = build_enpe(ds, (np.arange(8)[:, None], np.ones((8, 1))))
        assert np.allclose(p.s1, p.s2, atol=1e-10)

    def test_gram_eigenvalues_are_squared_singular_values(self):
        ds = make_blobs(seed=6, n=8, m=5)
        raw = ds.X.T @ ds.X
        w = hermitian_eig(raw).eigenvalues
        sv = np.linalg.svd(ds.X, compute_uv=False)
        assert np.allclose(np.sort(w), np.sort(sv**2), atol=1e-9)

    def test_eda_mirrored_classes(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 4))
        ds = Dataset(X=np.vstack([a, -a]), labels=np.array([0] * 6 + [1] * 6))
        s_b, _ = scatter_matrices(ds)
        mu = a.mean(axis=0)
        assert np.allclose(s_b, np.outer(mu, mu), atol=1e-12)

    def test_eda_scatter_decomposition(self):
        ds = make_blobs(seed=17, n=20, m=6)
        s_b, s_w = scatter_matrices(ds)
        centered = ds.X - ds.X.mean(axis=0)
        total = centered.T @ centered / ds.n_samples
        assert np.max(np.abs(s_b + s_w - total)) <= 1e-10

    def test_eda_identical_samples_flagged(self):
        ds = Dataset(X=np.ones((6, 3)), labels=np.array([0, 0, 0, 1, 1, 1]))
        p = build_eda(ds)
        assert "degenerate_identical_samples" in p.flags

    def test_eda_requires_two_classes(self):
        ds = Dataset(X=np.random.default_rng(0).normal(size=(4, 3)),
                     labels=np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="classes"):
            build_eda(ds)

    def test_eda_requires_labels(self):
        with pytest.raises(ValueError, match="labels"):
            build_eda(Dataset(X=np.eye(6)))


class TestNpeWeights:
    def test_exact_mean_reconstruction(self):
        x = np.array([[0.0], [-1.0], [1.0], [10.0], [-12.0]])
        neighbors, w = npe_weights(Dataset(X=x), k=2)
        assert neighbors[0].tolist() == [1, 2]
        assert w[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert w[0, 1] == pytest.approx(0.5, abs=1e-9)

    def test_rows_sum_to_one(self):
        _, w = npe_weights(make_blobs(seed=3, n=12, m=5), k=4)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-10

    def test_support_confined_to_neighborhoods(self):
        ds = make_blobs(seed=3, n=12, m=5)
        k = 4
        neighbors, w = npe_weights(ds, k)
        assert neighbors.shape == w.shape == (12, k)
        assert np.all(neighbors != np.arange(12)[:, None])
        assert np.array_equal(neighbors, dense_knn_graph(ds.X, k, sigma=1.0)[0])

    def test_batched_solve_matches_per_sample_loop(self):
        # one batched solve gives the bits of N separate k x k solves
        for (n, f), seed, k in [((32, 16), 0, 4), ((40, 12), 1, 7), ((128, 64), 2, 4)]:
            ds = Dataset(X=np.random.default_rng(seed).normal(size=(n, f)))
            got = dense_weights(*npe_weights(ds, k))
            assert got.tobytes() == npe_weights_per_sample(ds.X, k).tobytes()

    def test_all_duplicate_samples_assert(self):
        # zero local Gram cannot be regularized away; flagged loudly
        ds = Dataset(X=np.ones((5, 3)))
        with pytest.raises((AssertionError, np.linalg.LinAlgError)):
            npe_weights(ds, 2)

    def test_beats_random_simplex_candidates(self):
        # brute-force oracle: 100 random simplex weight vectors per row
        ds = make_blobs(seed=3, n=10, m=4)
        k = 3
        neighbors, w = npe_weights(ds, k)
        d2 = pairwise_sq_distances(ds.X) + np.diag(np.full(10, np.inf))
        order = np.argsort(d2, axis=1, kind="stable")
        rng = np.random.default_rng(3)
        for i in range(10):
            nbrs = order[i, :k]
            assert np.array_equal(neighbors[i], nbrs)
            solved = np.linalg.norm(ds.X[i] - w[i] @ ds.X[nbrs])
            for _ in range(100):
                cand = rng.exponential(size=k)
                cand /= cand.sum()
                rand_res = np.linalg.norm(ds.X[i] - cand @ ds.X[nbrs])
                assert solved <= rand_res + 1e-12


def assert_pairs_match_dense(x, variant, k, sigma=None, rtol=1e-12):
    """The closed-form raw pairs, graph flags and complement norm against the dense constructions."""
    ds = Dataset(X=x)
    (ref_s1, ref_s2), ref_flags, ref_fro, scales = dense_raw_pairs(x, variant, k, sigma)
    raws = []
    if variant == "ENPE":
        p = _capture_raw_pairs(build_enpe, raws, ds, npe_weights(ds, k))
    else:
        build = build_elpp if variant == "ELPP" else build_eudp
        p = _capture_raw_pairs(build, raws, ds, knn_graph(ds, k, sigma))
    for got, ref, scale in zip(raws[0], (ref_s1, ref_s2), scales):
        assert np.max(np.abs(got - ref), initial=0.0) <= rtol * scale, variant
    # the graph's flags come first, then the preconditioning's
    assert p.flags[: len(ref_flags)] == ref_flags
    assert not {"disconnected_vertex", "degenerate_degree_matrix",
                "degenerate_complement_graph"} & set(p.flags[len(ref_flags):])
    if ref_fro is None:
        assert p.complement_fro is None
    else:
        assert p.complement_fro == pytest.approx(ref_fro, rel=1e-13, abs=0)
    return p


class TestEdgeGraphMatchesDense:
    """LPP, UDP and NPE pairs from the N x k edges agree with the N x N constructions."""

    @pytest.mark.parametrize("variant", ["ELPP", "EUDP", "ENPE"])
    @pytest.mark.parametrize("n,f,k", [(2, 3, 1), (3, 2, 2), (17, 4, 3), (40, 12, 4), (129, 16, 5)])
    def test_blobs(self, variant, n, f, k):
        x = synth_blobs(n, f, 2, seed=n).X
        assert_pairs_match_dense(x, variant, k)
        if variant != "ENPE":
            assert_pairs_match_dense(x, variant, k, sigma=0.5)

    @pytest.mark.parametrize("variant", ["ELPP", "EUDP", "ENPE"])
    def test_duplicated_rows(self, variant):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(9, 5))
        x = base[rng.integers(0, 9, size=40)]
        if variant == "ENPE":
            # an exact duplicate's only neighbour gives a zero local Gram, which npe_weights rejects
            x = x + 1e-3 * rng.normal(size=x.shape)
        for k in (1, 4, 12):
            assert_pairs_match_dense(x, variant, k)

    @pytest.mark.parametrize("variant", ["ELPP", "EUDP"])
    def test_vertex_whose_weights_underflow(self, variant):
        # sample 10 is 100 sigma from the rest: exp(-5000) is 0, so it is disconnected
        x = np.vstack([np.random.default_rng(7).normal(size=(10, 3)), np.full((1, 3), 100.0)])
        p = assert_pairs_match_dense(x, variant, 3, sigma=1.0)
        assert "disconnected_vertex" in p.flags
        assert ("degenerate_degree_matrix" in p.flags) == (variant == "ELPP")

    @pytest.mark.parametrize("x", [np.ones((5, 3)), np.random.default_rng(8).normal(size=(6, 3))],
                             ids=["identical", "distinct"])
    def test_complete_graph_with_degenerate_complement(self, x):
        # k = N - 1 links every pair; weights of exactly 1 leave the complement empty
        sigma = 1.0 if np.ptp(x) == 0 else float("inf")
        p = assert_pairs_match_dense(x, "EUDP", x.shape[0] - 1, sigma=sigma)
        assert "degenerate_complement_graph" in p.flags
        assert "degenerate_zero_matrix" in p.flags
        assert p.complement_fro == 0.0

    def test_complete_graph_with_proper_complement(self):
        x = np.random.default_rng(9).normal(size=(7, 3))
        p = assert_pairs_match_dense(x, "EUDP", 6)
        assert "degenerate_complement_graph" not in p.flags

    @pytest.mark.parametrize("variant", ["ELPP", "EUDP", "ENPE"])
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales(self, variant, scale):
        x = scale * synth_blobs(30, 4, 2, seed=3).X
        assert_pairs_match_dense(x, variant, 4)

    @pytest.mark.parametrize("variant", ["ELPP", "EUDP", "ENPE"])
    def test_offset_data(self, variant):
        # 50 +- 1e-3: X^T D X and X^T S X nearly cancel in X^T L X
        x = 50.0 + 1e-3 * np.random.default_rng(3).normal(size=(60, 4))
        assert_pairs_match_dense(x, variant, 4)

    @pytest.mark.parametrize("variant", ["ELPP", "EUDP", "ENPE"])
    def test_build_problem_peak_memory(self, variant):
        # one N x N float array is 128 MiB here; the graph layer holds N x k edges
        ds = synth_blobs(4096, 16, 2, seed=0)
        tracemalloc.start()
        try:
            build_problem(ds, variant, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestMedianPasses:
    """Auto sigma by counting passes has the bits of np.median over all pairs."""

    @staticmethod
    def dense_sigma(x):
        n = x.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.median(np.sqrt(pairwise_sq_distances(x)[np.triu_indices(n, 1)])))

    # 10**9 lets the first counting pass decide; 0 makes every bracket take the second pass
    @pytest.mark.parametrize("band", [10**9, 500, 0])
    @pytest.mark.parametrize("data", [
        lambda rng: rng.normal(size=(97, 5)),
        lambda rng: rng.integers(0, 3, size=(64, 2)).astype(float),
        lambda rng: 50.0 + 1e-3 * rng.normal(size=(70, 3)),
        lambda rng: -3.0 + 1e-12 * rng.normal(size=(50, 2)),
        lambda rng: 1e-161 * rng.normal(size=(70, 4)),
        lambda rng: 1e150 * rng.normal(size=(70, 4)),
        lambda rng: 1e160 + 1e150 * rng.normal(size=(30, 3)),
        lambda rng: np.vstack([rng.normal(size=(24, 3)), np.full((1, 3), 1e160)]),
    ], ids=["normal", "grid", "offset", "offset-tiny-spread", "tiny", "large", "overflow",
            "one-overflowing-row"])
    def test_matches_np_median(self, monkeypatch, band, data):
        x = data(np.random.default_rng(band % 7))
        monkeypatch.setattr(emb, "_BAND_PAIRS", band)
        with np.errstate(over="ignore"):
            assert emb._median_distance(x) == self.dense_sigma(x)
            for k in (1, 4):
                assert knn_graph(Dataset(X=x), k).sigma == self.dense_sigma(x)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 31])
    def test_small_blocks(self, monkeypatch, rows, n):
        rng = np.random.default_rng(n)
        monkeypatch.setattr(emb, "_DIFF_BLOCK_BYTES", rows * 8 * n)
        monkeypatch.setattr(emb, "_BAND_PAIRS", 1)
        for x in (rng.normal(size=(n, 3)), 50.0 + 1e-3 * rng.normal(size=(n, 3))):
            assert emb._median_distance(x) == self.dense_sigma(x)
            assert knn_graph(Dataset(X=x), 1).sigma == self.dense_sigma(x)

    def test_band_stays_within_budget(self, monkeypatch):
        # the top bins of the middle ranks hold thousands of these pairs; the
        # second pass narrows the band to the budget before any exact distance
        x = np.random.default_rng(12).normal(size=(300, 6))
        monkeypatch.setattr(emb, "_BAND_PAIRS", 500)
        sizes = []
        exact = emb._exact_sq_distances
        monkeypatch.setattr(emb, "_exact_sq_distances",
                            lambda x, rows, cols: sizes.append(rows.size) or exact(x, rows, cols))
        sq = emb._screen_margins(x)[0]
        keys = np.concatenate([emb._sort_keys(vals[upper]) >> 48
                               for _, upper, vals in emb._upper_blocks(x, sq, True)])
        assert np.count_nonzero(keys == np.sort(keys)[keys.size // 2]) > 1000
        assert emb._median_distance(x) == self.dense_sigma(x)
        assert 1 <= sizes[0] <= 500

    def test_sort_keys_follow_float_order(self):
        v = np.array([-np.inf, -1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 1.0, 1e300, np.inf])
        keys = emb._sort_keys(v)
        assert np.all(np.diff(keys) > 0)
        assert emb._sort_keys(keys.view(float)).view(float).tobytes() == v.tobytes()
        assert [emb._key_value(int(key)) for key in keys] == v.tolist()
        # an edge key past +inf is capped at +inf rather than read as a NaN
        assert emb._key_value(int(keys[-1]) + 1) == np.inf
