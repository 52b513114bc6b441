import numpy as np
import pytest

from conftest import make_blobs
from qmedr.classical import (
    EigenSolution,
    apply_dataset_signs,
    exponential_operator,
    project,
    solve_medr,
    subspace_angle,
)
from qmedr.embedding import AffineSpectralMap, Dataset, MedrProblem, build_problem
from qmedr.linalg import frobenius_norm


def residuals(p, sol):
    """Per-pair defining-equation residuals, route-appropriate.

    Symmetric route: ||E v - lambda v||. Dilation route: the residual of the
    dilated Hermitian operator on its paired eigenvector, i.e. the singular
    pair residuals of E.
    """
    e_op = exponential_operator(p)
    out = np.zeros(sol.m)
    for j in range(sol.m):
        v = sol.eigenvectors[:, j]
        lam = sol.eigenvalues[j]
        if sol.route == "symmetric":
            out[j] = np.linalg.norm(e_op @ v - lam * v)
        else:
            u = e_op @ v
            nrm = np.linalg.norm(u)
            u = u / nrm if nrm > 0 else u
            r1 = np.linalg.norm(e_op @ v - lam * u)
            r2 = np.linalg.norm(e_op.T @ u - lam * v)
            out[j] = np.sqrt((r1**2 + r2**2) / 2.0)
    return out


def direct_problem(s1, s2, variant="ELPP"):
    """Wrap already-conditioned matrices without re-preconditioning."""
    ident = AffineSpectralMap(shift=0.0, scale=1.0)
    return MedrProblem(variant=variant, s1=np.asarray(s1, dtype=float),
                       s2=np.asarray(s2, dtype=float), kappa1=10.0, kappa2=10.0,
                       maps=(ident, ident))


class TestSolveMedr:
    def test_equal_pair_degenerate_identity(self):
        s = np.diag([0.3, 0.5, 0.8])
        p = direct_problem(s, s)
        sol = solve_medr(p, 2)
        assert np.allclose(sol.eigenvalues, 1.0, atol=1e-12)
        assert sol.degenerate_cut

    def test_commuting_diagonals(self):
        a = np.array([0.2, 0.6, 1.0])
        b = np.array([0.9, 0.4, 0.3])
        sol = solve_medr(direct_problem(np.diag(a), np.diag(b)), 3)
        expected = np.sort(np.exp(a - b))
        assert np.allclose(sol.eigenvalues, expected, atol=1e-12)
        assert sol.route == "symmetric"
        # eigenvectors are standard basis vectors (in eigenvalue order)
        for j in range(3):
            assert np.max(np.abs(np.abs(sol.eigenvectors[:, j]) - np.eye(3)[:, np.argsort(np.exp(a - b))[j]])) <= 1e-12

    def test_blob_elpp_residuals(self):
        ds = make_blobs(seed=13, n=32, m=16)
        p = build_problem(ds, "ELPP", k=4)
        sol = solve_medr(p, 2)
        assert np.all(residuals(p, sol) <= 1e-7)

    def test_orthonormal_vectors(self):
        ds = make_blobs(seed=13, n=32, m=16)
        for variant in ("ELPP", "EUDP", "ENPE", "EDA"):
            sol = solve_medr(build_problem(ds, variant, k=4), 3)
            w = sol.eigenvectors
            assert np.max(np.abs(w.T @ w - np.eye(3))) <= 1e-9

    def test_direction_per_variant(self):
        ds = make_blobs(seed=13, n=24, m=8)
        assert solve_medr(build_problem(ds, "ELPP", k=4), 2).direction == "smallest"
        assert solve_medr(build_problem(ds, "EDA", k=4), 2).direction == "largest"

    def test_largest_sorted_descending(self):
        ds = make_blobs(seed=13, n=24, m=8)
        sol = solve_medr(build_problem(ds, "EDA", k=4), 3)
        assert np.all(np.diff(sol.eigenvalues) <= 1e-12)

    def test_m_out_of_range(self):
        p = direct_problem(np.diag([0.3, 0.5]), np.diag([0.4, 0.6]))
        with pytest.raises(ValueError):
            solve_medr(p, 3)

    def test_dilation_route_on_noncommuting(self, rng):
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))
        s1 = 0.5 * (a @ a.T) / np.linalg.norm(a @ a.T, 2) + 0.4 * np.eye(6)
        s2 = 0.5 * (b @ b.T) / np.linalg.norm(b @ b.T, 2) + 0.4 * np.eye(6)
        p = direct_problem(s1, s2)
        sol = solve_medr(p, 2)
        assert sol.route == "dilation"
        # values are singular values of E
        e_op = exponential_operator(p)
        sv = np.sort(np.linalg.svd(e_op, compute_uv=False))
        assert np.allclose(sol.eigenvalues, sv[:2], atol=1e-10)
        assert np.all(residuals(p, sol) <= 1e-7)


class TestProject:
    def test_standard_basis_selects_columns(self):
        ds = make_blobs(seed=5, n=10, m=6)
        x = ds.X - ds.X.min() + 0.1  # positive entries: column sums positive
        ds = Dataset(X=x)
        sol = EigenSolution(
            eigenvalues=np.ones(2), eigenvectors=np.eye(6)[:, :2],
            direction="smallest", route="symmetric", degenerate_cut=False,
        )
        out = project(ds, sol)
        assert np.allclose(out.Y, ds.X[:, :2], atol=1e-12)

    def test_column_definition(self):
        ds = make_blobs(seed=7, n=12, m=5)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        out = project(ds, sol)
        for j in range(2):
            assert np.allclose(out.Y[:, j], ds.X @ out.solution.eigenvectors[:, j])

    def test_sign_convention_column_sums(self):
        ds = make_blobs(seed=13, n=32, m=16)
        for variant in ("ELPP", "EUDP", "ENPE", "EDA"):
            out = project(ds, solve_medr(build_problem(ds, variant, k=4), 3))
            assert np.all(out.Y.sum(axis=0) >= -1e-12)

    def test_frobenius_recorded(self):
        ds = make_blobs(seed=5, n=10, m=6)
        out = project(ds, solve_medr(build_problem(ds, "ELPP", k=3), 2))
        assert out.frobenius == pytest.approx(frobenius_norm(out.Y), abs=1e-12)
        assert np.array_equal(out.Y, ds.X @ out.solution.eigenvectors)

    def test_scaling_by_positive_constant(self):
        ds = make_blobs(seed=9, n=12, m=6)
        p = build_problem(ds, "ELPP", k=3)
        sol = solve_medr(p, 2)
        y1 = project(ds, sol).Y
        y2 = project(Dataset(X=3.0 * ds.X), sol).Y
        assert np.allclose(y2, 3.0 * y1, atol=1e-12)

    def test_dimension_mismatch(self):
        ds = make_blobs(seed=5, n=10, m=6)
        sol = EigenSolution(
            eigenvalues=np.ones(1), eigenvectors=np.eye(4)[:, :1],
            direction="smallest", route="symmetric", degenerate_cut=False,
        )
        with pytest.raises(ValueError):
            project(ds, sol)

    def test_cluster_separation_beats_random_projections(self):
        # oracle: median separation over 20 seeded random orthonormal projections
        ds = make_blobs(seed=13, n=32, m=16, spread=0.3)
        sol = solve_medr(build_problem(ds, "ELPP", k=4), 2)
        y = project(ds, sol).Y

        def separation(table):
            a, b = table[ds.labels == 0], table[ds.labels == 1]
            spread_sum = a.std(axis=0).sum() + b.std(axis=0).sum()
            return np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)) / max(spread_sum, 1e-12)

        rng = np.random.default_rng(99)
        random_seps = []
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(16, 2)))
            random_seps.append(separation(ds.X @ q))
        assert separation(y) >= np.median(random_seps)


class TestAlignment:
    def test_subspace_angle_identity(self):
        w = np.eye(5)[:, :2]
        assert subspace_angle(w, w) <= 1e-8

    def test_subspace_angle_orthogonal(self):
        w1 = np.eye(4)[:, :1]
        w2 = np.eye(4)[:, 1:2]
        assert subspace_angle(w1, w2) == pytest.approx(np.pi / 2)

    def test_apply_dataset_signs_idempotent(self):
        ds = make_blobs(seed=3, n=10, m=4)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        s1 = apply_dataset_signs(sol, ds.X)
        s2 = apply_dataset_signs(s1, ds.X)
        assert np.allclose(s1.eigenvectors, s2.eigenvectors)
