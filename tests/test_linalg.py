import numpy as np
import pytest

from qmedr.linalg import (
    _fix_vector_signs,
    expm,
    frobenius_norm,
    hermitian_eig,
    spectral_norm,
    unitarity_check,
)


def _reconstruct(spec):
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ v.conj().T


class TestHermitianEig:
    def test_identity(self):
        spec = hermitian_eig(np.eye(4))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert np.allclose(spec.eigenvectors, np.eye(4))

    def test_diagonal(self):
        spec = hermitian_eig(np.diag([0.2, 0.9]))
        assert np.allclose(spec.eigenvalues, [0.2, 0.9])

    def test_reconstruction_seed7(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        h = (a + a.T) / 2
        spec = hermitian_eig(h)
        assert frobenius_norm(_reconstruct(spec) - h) <= 1e-10 * frobenius_norm(h)
        assert np.max(np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(6))) <= 1e-10

    def test_complex_hermitian(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        spec = hermitian_eig(h)
        assert frobenius_norm(_reconstruct(spec) - h) <= 1e-10 * frobenius_norm(h)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sign_convention(self):
        spec = hermitian_eig(np.diag([0.3, 0.7]))
        for j in range(2):
            col = spec.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col) > 1e-12)] > 0

    def test_ascending_order(self, rng):
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            w = hermitian_eig((a + a.T) / 2).eigenvalues
            assert np.all(np.diff(w) >= 0)


def _fix_vector_signs_by_column(v):
    # the per-column loop the vectorized rule must reproduce bit for bit
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        idx = np.argmax(np.abs(col) > 1e-12)
        pivot = col[idx]
        if np.abs(pivot) > 0:
            v[:, j] = col * (np.conj(pivot) / np.abs(pivot))
    return v


class TestFixVectorSigns:
    @staticmethod
    def _cases(rng):
        for n in range(1, 10):
            for k in range(1, 10):
                for complex_ in (False, True):
                    v = rng.normal(size=(n, k))
                    if complex_:
                        v = v + 1j * rng.normal(size=(n, k))
                    yield v
                    # a zero column, a column below threshold, a signed-zero row
                    w = v.copy()
                    w[:, 0] = 0.0
                    w[:, -1] *= 1e-15
                    w[0, :] = -0.0
                    yield w
                    yield np.asfortranarray(v)
        for n in (17, 64):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            yield np.linalg.eigh(a + a.conj().T)[1]
            yield np.linalg.eigh(a.real + a.real.T)[1]

    def test_matches_per_column_loop(self, rng):
        for v in self._cases(rng):
            got, want = _fix_vector_signs(v), _fix_vector_signs_by_column(v)
            assert got.dtype == want.dtype and got.strides == want.strides
            assert got.tobytes() == want.tobytes()

    def test_pivot_threshold_does_not_shrink_with_dimension(self):
        # 5e-13 lies above 1e-12 / n but below the fixed threshold, so the
        # second component sets the sign at every n
        for n in (2, 8, 1024):
            v = np.zeros((n, 1))
            v[0, 0], v[1, 0] = 5e-13, -1.0
            assert _fix_vector_signs(v)[:2, 0].tolist() == [-5e-13, 1.0]

    def test_all_zero_columns_unchanged(self):
        for dtype in (float, complex):
            v = np.zeros((4, 3), dtype=dtype)
            assert np.array_equal(_fix_vector_signs(v), v)
        assert _fix_vector_signs(np.zeros((0, 0))).shape == (0, 0)


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(expm(np.diag([1.0, -1.0])), np.diag([np.e, 1.0 / np.e]))

    def test_two_by_two_hand_eigendecomposition(self):
        # eigenpairs of [[.6,.2],[.2,.6]] are 0.8, 0.4 with vectors (1,±1)/sqrt(2)
        h = np.array([[0.6, 0.2], [0.2, 0.6]])
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        expected = q @ np.diag([np.exp(0.8), np.exp(0.4)]) @ q.T
        assert np.allclose(expm(h), expected, atol=1e-12)

    def test_commutes_with_argument(self, rng):
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            h = (a + a.T) / 2
            e = expm(h)
            comm = e @ h - h @ e
            assert frobenius_norm(comm) <= 1e-9 * spectral_norm(h) * spectral_norm(e) + 1e-12

    def test_inverse_pairs(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            h = (a + a.T) / 2
            h /= max(spectral_norm(h), 1.0)
            assert frobenius_norm(expm(-h) @ expm(h) - np.eye(4)) <= 1e-8

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        # the nilpotent [[0, 1], [0, 0]] names its defect; a 1e-9 asymmetry is tolerated
        with pytest.raises(ValueError, match=r"not Hermitian \(defect 1\.000e\+00"):
            expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            expm(np.array([[1.0, 1j], [1j, 1.0]]))
        assert np.allclose(expm(np.array([[0.0, 1e-9], [0.0, 0.0]])), np.eye(2))

    def test_empty_and_real_outputs(self):
        empty = np.zeros((0, 0))
        out = expm(empty)
        assert out.shape == (0, 0) and out is not empty
        assert not np.iscomplexobj(expm(np.eye(2)))
        assert np.iscomplexobj(expm(np.array([[1.0, 1j], [-1j, 1.0]])))


class TestNorms:
    def test_identity(self):
        for n in (2, 5, 9):
            assert spectral_norm(np.eye(n)) == pytest.approx(1.0)
            assert frobenius_norm(np.eye(n)) == pytest.approx(np.sqrt(n))

    def test_rank_one_outer_product(self, rng):
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        v = rng.normal(size=6)
        v /= np.linalg.norm(v)
        assert spectral_norm(np.outer(u, v)) == pytest.approx(1.0)

    def test_single_column_matrix(self):
        # singular value of a single-column matrix is its column norm
        m = np.array([[3.0, 0.0], [4.0, 0.0]])
        expected = np.hypot(3.0, 4.0)
        assert spectral_norm(m) == pytest.approx(expected)
        assert frobenius_norm(m) == pytest.approx(expected)

    def test_spectral_below_frobenius(self, rng):
        for _ in range(25):
            a = rng.normal(size=rng.integers(2, 7, size=2))
            assert spectral_norm(a) <= frobenius_norm(a) + 1e-12


class TestUnitarityCheck:
    def test_hadamard(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert unitarity_check(h, 1e-12)

    def test_non_unitary(self):
        assert not unitarity_check(np.diag([1.0, 2.0]), 1e-9)
