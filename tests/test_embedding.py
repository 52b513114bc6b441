import tracemalloc

import numpy as np
import pytest

import qmedr.embedding as emb
from conftest import make_blobs
from qmedr.datasets import synth_blobs
from qmedr.embedding import (
    Dataset,
    build_eda,
    build_elpp,
    build_enpe,
    build_problem,
    complement_graph,
    knn_graph,
    npe_weights,
    pairwise_sq_distances,
    precondition,
    scatter_matrices,
    spectrum_window_defect,
)
from qmedr.linalg import hermitian_eig, spectral_norm


class TestDataset:
    def test_row_norms(self):
        ds = Dataset(X=np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert np.allclose(ds.row_norms, [5.0, 1.0], atol=1e-12)

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
        assert g.S[0, 1] == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_coincident_samples_similarity_one(self):
        ds = Dataset(X=np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]]))
        g = knn_graph(ds, k=2, sigma=1.0)
        assert g.S[0, 1] == pytest.approx(1.0)

    def test_laplacian_row_sums_zero(self):
        g = knn_graph(make_blobs(seed=3, n=12, m=5), k=3)
        assert np.max(np.abs(g.L.sum(axis=1))) <= 1e-10

    def test_laplacian_psd(self):
        g = knn_graph(make_blobs(seed=5, n=14, m=6), k=4)
        assert hermitian_eig(g.L).eigenvalues[0] >= -1e-9

    def test_similarity_structure(self):
        g = knn_graph(make_blobs(seed=8, n=10, m=4), k=3)
        assert np.allclose(g.S, g.S.T)
        assert np.all(np.diag(g.S) == 0)
        assert np.all((g.S >= 0) & (g.S <= 1))

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
        assert np.allclose(g2.S, g.S[np.ix_(perm, perm)], atol=1e-12)

    def test_tie_keeps_lower_index(self):
        # sample 0 is equidistant from 1 and 2; 1 and 2 each prefer their twin
        x = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.1, 0.0], [-1.1, 0.0]])
        g = knn_graph(Dataset(X=x), k=1, sigma=1.0)
        assert g.S[0, 1] > 0
        assert g.S[0, 2] == 0

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
        rows = emb._DIFF_BLOCK_BYTES // (8 * 600 * 16)
        assert 1 < rows < 600 and 600 % rows != 0
        diff = ds.X[:, None, :] - ds.X[None, :, :]
        assert np.array_equal(pairwise_sq_distances(ds.X), np.einsum("ijk,ijk->ij", diff, diff))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_small_blocks_match_full_tensor(self, monkeypatch, rows):
        x = make_blobs(seed=5, n=20, m=6).X
        monkeypatch.setattr(emb, "_DIFF_BLOCK_BYTES", rows * 8 * 20 * 6)
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


def dense_knn_graph(x, k, sigma=None):
    """The all-pairs search the screen replaces: neighbours, their distances, sigma and S."""
    n = x.shape[0]
    d2 = pairwise_sq_distances(x) + np.diag(np.full(n, np.inf))
    nbrs = np.argsort(d2, axis=1, kind="stable")[:, :k]
    if sigma is None:
        sigma = float(np.median(np.sqrt(d2[np.triu_indices(n, 1)])))
    neighbor = np.zeros((n, n), dtype=bool)
    neighbor[np.repeat(np.arange(n), k), nbrs.ravel()] = True
    with np.errstate(invalid="ignore"):  # inf / inf on the diagonal when sigma is infinite
        s = np.where(neighbor | neighbor.T, np.exp(-d2 / (2.0 * sigma**2)), 0.0)
    return nbrs, np.take_along_axis(d2, nbrs, axis=1), sigma, s


def assert_matches_dense_search(x, k, sigma=None):
    nbrs, d2, ref_sigma, s = dense_knn_graph(x, k, sigma)
    got_d2, got_nbrs = emb._nearest_neighbors(x, k)
    assert np.array_equal(got_nbrs, nbrs)
    assert got_d2.tobytes() == d2.tobytes()
    graph = knn_graph(Dataset(X=x), k, sigma)
    assert graph.sigma == ref_sigma
    assert graph.S.tobytes() == s.tobytes()
    assert graph.degrees.tobytes() == s.sum(axis=1).tobytes()
    assert graph.L.tobytes() == (np.diag(s.sum(axis=1)) - s).tobytes()


def ks(n):
    return sorted({1, min(4, n - 1), n - 1})


class TestScreenedSearch:
    """The Gram screen gives the bits of the dense search: neighbours, d2, sigma, S, L."""

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
        # the dense S and L are left out here: each would be another 128 MiB
        n = 4096
        x = np.random.default_rng(n).integers(0, 8, size=(n, 2)).astype(float)
        d2 = pairwise_sq_distances(x) + np.diag(np.full(n, np.inf))
        upper = np.empty(n * (n - 1) // 2)
        got_d2, got_nbrs = emb._nearest_neighbors(x, 5, upper)
        nbrs = np.argsort(d2, axis=1, kind="stable")[:, :5]
        assert np.array_equal(got_nbrs, nbrs)
        assert got_d2.tobytes() == np.take_along_axis(d2, nbrs, axis=1).tobytes()
        assert emb._median_distance(x, upper) == float(np.median(np.sqrt(d2[np.triu_indices(n, 1)])))

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


class TestBuilders:
    def test_elpp_identity_data_gives_laplacian(self):
        ds = Dataset(X=np.eye(4))
        g = knn_graph(ds, k=2, sigma=1.0)
        p = build_elpp(ds, g)
        expected, _, _ = precondition(g.L, 10.0)
        assert np.allclose(p.s1, expected, atol=1e-12)

    def test_raw_matrices_symmetric_psd(self):
        ds = make_blobs(seed=13, n=32, m=16)
        g = knn_graph(ds, k=4)
        x = ds.X
        for raw in (x.T @ g.L @ x, x.T @ np.diag(g.degrees) @ x):
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
        comp = complement_graph(g)
        w_sym = (npe_weights(ds, 4) + npe_weights(ds, 4).T) / 2.0
        s_b, s_w = scatter_matrices(ds)
        x = ds.X
        psd_raws = {
            "ELPP_S1": x.T @ g.L @ x,
            "ELPP_S2": x.T @ np.diag(g.degrees) @ x,
            "EUDP_S2": x.T @ comp.L @ x,
            "ENPE_S2": x.T @ x,
            "EDA_S1": s_b,
            "EDA_S2": s_w,
        }
        for name, raw in psd_raws.items():
            assert np.allclose(raw, raw.T, atol=1e-9), name
            min_eig = hermitian_eig((raw + raw.T) / 2).eigenvalues[0]
            assert min_eig >= -1e-9 * max(spectral_norm(raw), 1.0), name
        enpe_s1 = x.T @ w_sym @ x
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
        ds = make_blobs(seed=9, n=10, m=4)
        g = knn_graph(ds, k=3)
        comp = complement_graph(g)
        n = 10
        j_off = np.ones((n, n)) - np.eye(n)
        assert np.allclose(g.L + comp.L, np.diag(g.degrees) + np.diag(comp.degrees) - j_off, atol=1e-12)

    def test_eudp_fully_similar_degenerate(self):
        ds = Dataset(X=np.vstack([np.zeros(3), np.zeros(3), np.zeros(3)]) + 1.0)
        g = knn_graph(ds, k=2, sigma=1.0)
        assert np.all(g.S[~np.eye(3, dtype=bool)] == 1.0)
        comp = complement_graph(g)
        assert "degenerate_complement_graph" in comp.flags
        assert np.allclose(comp.L, 0.0)

    def test_eudp_complement_laplacian_psd(self):
        ds = make_blobs(seed=13, n=16, m=8)
        comp = complement_graph(knn_graph(ds, k=3))
        assert hermitian_eig(comp.L).eigenvalues[0] >= -1e-9

    def test_enpe_identity_weights(self):
        ds = make_blobs(seed=4, n=8, m=4)
        p = build_enpe(ds, np.eye(8))
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
        w = npe_weights(Dataset(X=x), k=2)
        assert w[0, 1] == pytest.approx(0.5, abs=1e-9)
        assert w[0, 2] == pytest.approx(0.5, abs=1e-9)

    def test_rows_sum_to_one(self):
        w = npe_weights(make_blobs(seed=3, n=12, m=5), k=4)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-10

    def test_support_confined_to_neighborhoods(self):
        ds = make_blobs(seed=3, n=12, m=5)
        k = 4
        w = npe_weights(ds, k)
        assert np.all((np.abs(w) > 0).sum(axis=1) <= k)
        assert np.all(np.diag(w) == 0)

    def test_batched_solve_matches_per_sample_loop(self):
        # one batched solve gives the bits of N separate k x k solves
        def per_sample(ds, k):
            _, neighbors = emb._nearest_neighbors(ds.X, k)
            w = np.zeros((ds.n_samples, ds.n_samples))
            for i, nbrs in enumerate(neighbors):
                diffs = ds.X[i] - ds.X[nbrs]
                gram = diffs @ diffs.T
                gram = gram + 1e-8 * np.trace(gram) * np.eye(k)
                sol = np.linalg.solve(gram, np.ones(k))
                w[i, nbrs] = sol / sol.sum()
            return w

        for (n, f), seed, k in [((32, 16), 0, 4), ((40, 12), 1, 7), ((128, 64), 2, 4)]:
            ds = Dataset(X=np.random.default_rng(seed).normal(size=(n, f)))
            assert npe_weights(ds, k).tobytes() == per_sample(ds, k).tobytes()

    def test_all_duplicate_samples_assert(self):
        # zero local Gram cannot be regularized away; flagged loudly
        ds = Dataset(X=np.ones((5, 3)))
        with pytest.raises((AssertionError, np.linalg.LinAlgError)):
            npe_weights(ds, 2)

    def test_beats_random_simplex_candidates(self):
        # brute-force oracle: 100 random simplex weight vectors per row
        ds = make_blobs(seed=3, n=10, m=4)
        k = 3
        w = npe_weights(ds, k)
        d2 = pairwise_sq_distances(ds.X) + np.diag(np.full(10, np.inf))
        order = np.argsort(d2, axis=1, kind="stable")
        rng = np.random.default_rng(3)
        for i in range(10):
            nbrs = order[i, :k]
            solved = np.linalg.norm(ds.X[i] - w[i, nbrs] @ ds.X[nbrs])
            for _ in range(100):
                cand = rng.exponential(size=k)
                cand /= cand.sum()
                rand_res = np.linalg.norm(ds.X[i] - cand @ ds.X[nbrs])
                assert solved <= rand_res + 1e-12
