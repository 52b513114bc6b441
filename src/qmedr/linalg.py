"""Dense linear-algebra substrate.

Eigendecompositions, matrix exponentials, norms and unitarity checks used
both inside the simulator and as exact classical references. Everything here
is a pure function over immutable inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-9


def as_square(m) -> np.ndarray:
    """Validate and return a square 2-D array with finite entries."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest elementwise deviation of m from its conjugate transpose."""
    a = as_square(m)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def _checked_hermitian(m) -> np.ndarray:
    """as_square(m), refused if it deviates from Hermitian by more than 1e-9 elementwise."""
    a = as_square(m)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL})")
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    a = as_square(m)
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are ascending reals; column ``eigenvectors[:, i]`` is the
    unit eigenvector for ``eigenvalues[i]``, with the first nonnegligible
    component rotated to be nonnegative real so orderings are reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


SIGN_PIVOT_THRESHOLD = 1e-12


def _fix_vector_signs(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above SIGN_PIVOT_THRESHOLD in magnitude is positive real.

    The columns are unit vectors, so one component is at least 1/sqrt(n). A
    fixed threshold stays far above the rounding noise of an eigensolver's
    components, which grows with n; a threshold that shrank with n would
    approach it.
    """
    out = v.copy()
    if v.shape[0] == 0:
        return out
    # a column with no component above threshold pivots on its first entry
    idx = np.argmax(np.abs(v) > SIGN_PIVOT_THRESHOLD, axis=0)
    pivot = v[idx, np.arange(v.shape[1])]
    mag = np.abs(pivot)
    turn = mag > 0
    # each turned column times its own scalar, as a per-column loop would
    out.T[turn] = v.T[turn] * (np.conj(pivot[turn]) / mag[turn])[:, None]
    return out


def hermitian_eig(m) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Raises if the input is not square or deviates from Hermitian by more than
    1e-9 elementwise. Ascending eigenvalues; eigh's ordering is kept for exact
    ties (stable for identical inputs).
    """
    a = _checked_hermitian(m)
    w, v = np.linalg.eigh(hermitize(a))
    v = _fix_vector_signs(v)
    if not np.iscomplexobj(a):
        v = v.real
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def expm(m) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix, through its eigendecomposition.

    Raises if the input is not square or deviates from Hermitian by more than
    1e-9 elementwise. A real input gives a real output.
    """
    a = _checked_hermitian(m)
    if a.size == 0:
        return a.copy()
    w, v = np.linalg.eigh(hermitize(a))
    out = (v * np.exp(w)) @ v.conj().T
    return out if np.iscomplexobj(a) else out.real


def spectral_norm(m) -> float:
    """Largest singular value; a zero or empty matrix gives exactly 0.0 with no SVD."""
    a = np.asarray(m)
    if not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def unitarity_defect(u) -> float:
    """Spectral norm of U†U - I."""
    a = as_square(u)
    # U†U - I is Hermitian, so its spectral norm is its largest |eigenvalue|
    return float(np.max(np.abs(np.linalg.eigvalsh(a.conj().T @ a - np.eye(a.shape[0])))))


def unitarity_check(u, tol: float) -> bool:
    """True iff the spectral norm of ``U†U - I`` is at most ``tol``."""
    return unitarity_defect(u) <= tol
