"""Classical reference for the matrix-exponential eigenvalue pipeline.

Forms E = exp(-S2) exp(S1), extracts the leading spectral structure, and
projects the dataset. This module is the exact ground truth the simulated
quantum pipeline is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .embedding import Dataset, MedrProblem, VARIANT_DIRECTIONS
from .linalg import _fix_vector_signs, expm, frobenius_norm, hermitian_eig

SYMMETRY_THRESHOLD = 1e-8
DEGENERATE_GAP = 1e-12


def direction_for_variant(variant: str) -> str:
    """EDA ranks by largest values; the minimization variants take smallest."""
    return VARIANT_DIRECTIONS.get(variant, "smallest")


@dataclass(frozen=True)
class EigenSolution:
    """Selected spectral pairs of E = exp(-S2) exp(S1).

    ``eigenvectors`` columns are orthonormal. ``route`` records whether E was
    symmetrized directly or handled through its Hermitian dilation (in which
    case values are singular values and vectors the right singular vectors,
    exactly the pairs the dilated operator's positive branch exposes).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    direction: str
    route: str
    degenerate_cut: bool

    @property
    def m(self) -> int:
        return self.eigenvectors.shape[1]


@dataclass(frozen=True)
class CompressedOutput:
    """Projected dataset Y = X W and the solution it came from."""

    Y: np.ndarray
    frobenius: float
    solution: EigenSolution | None = None


def apply_dataset_signs(sol: EigenSolution, x: np.ndarray) -> EigenSolution:
    """Flip each column so the projected column sums are nonnegative.

    Falls back to the row-normalized sum and then to the first-component rule
    when a column sum vanishes.
    """
    w = sol.eigenvectors.copy()
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    for j in range(w.shape[1]):
        col_sum = float(np.sum(x @ w[:, j]))
        if abs(col_sum) > 1e-12:
            if col_sum < 0:
                w[:, j] = -w[:, j]
            continue
        weighted = float(np.sum((x / safe[:, None]) @ w[:, j]))
        if abs(weighted) > 1e-12:
            if weighted < 0:
                w[:, j] = -w[:, j]
            continue
        w[:, j : j + 1] = _fix_vector_signs(w[:, j : j + 1])
    return replace(sol, eigenvectors=w)


def _cached(p: MedrProblem, key: str, make):
    """``make(p)``, formed once per problem. Every reader shares the result,
    so its arrays are made read-only."""
    if key not in p.cache:
        value = make(p)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        p.cache[key] = value
    return p.cache[key]


def exponential_operator(p: MedrProblem) -> np.ndarray:
    """E = exp(-S2) exp(S1) for the preconditioned pair, formed once per problem."""
    return _cached(p, "E", lambda q: expm(-q.s2) @ expm(q.s1))


def full_spectrum(p: MedrProblem) -> tuple[np.ndarray, np.ndarray, str]:
    """All spectral pairs of exp(-S2) exp(S1), route-consistent.

    Values ascending. On the symmetric route these are eigenpairs; otherwise
    singular values with right singular vectors (the structure the Hermitian
    dilation exposes).
    """
    e_op = exponential_operator(p)
    asymmetry = frobenius_norm(e_op - e_op.T)
    if asymmetry <= SYMMETRY_THRESHOLD:
        spec = hermitian_eig((e_op + e_op.T) / 2.0)
        return spec.eigenvalues, spec.eigenvectors, "symmetric"
    _, svals, vt = np.linalg.svd(e_op)
    return svals[::-1], vt[::-1].T.copy(), "dilation"


def solve_medr(p: MedrProblem, m: int) -> EigenSolution:
    """Extract the m extreme spectral pairs of exp(-S2) exp(S1).

    A nearly symmetric E is symmetrized and eigendecomposed; otherwise the
    Hermitian-dilation route applies and the pairs are E's singular values
    with right singular vectors. A vanishing gap at the m-th cut flags the
    solution degenerate (the selected subspace is then basis-dependent).
    """
    dim = p.dim
    if not 1 <= m <= dim:
        raise ValueError(f"m must satisfy 1 <= m <= {dim}, got {m}")
    direction = direction_for_variant(p.variant)
    values, vectors, route = _cached(p, "spectrum", full_spectrum)

    if direction == "smallest":
        sel = np.arange(m)
        boundary = values[m] - values[m - 1] if m < dim else np.inf
    else:
        sel = np.arange(dim - 1, dim - 1 - m, -1)
        boundary = values[dim - m] - values[dim - m - 1] if m < dim else np.inf
    degenerate = bool(boundary < DEGENERATE_GAP)

    chosen_vals = values[sel]
    chosen_vecs = _fix_vector_signs(np.real_if_close(vectors[:, sel]).astype(float))
    return EigenSolution(
        eigenvalues=chosen_vals,
        eigenvectors=chosen_vecs,
        direction=direction,
        route=route,
        degenerate_cut=degenerate,
    )


def project(ds: Dataset, sol: EigenSolution) -> CompressedOutput:
    """Y = X W with the dataset sign convention applied to W."""
    if ds.n_features != sol.eigenvectors.shape[0]:
        raise ValueError(
            f"dataset has {ds.n_features} features but vectors have "
            f"{sol.eigenvectors.shape[0]} components"
        )
    signed = apply_dataset_signs(sol, ds.X)
    y = ds.X @ signed.eigenvectors
    return CompressedOutput(
        Y=y,
        frobenius=frobenius_norm(y),
        solution=signed,
    )


def cluster_residuals(p: MedrProblem, sol: EigenSolution, value_tol: float):
    """Membership of each selected vector in its spectral cluster.

    For every selected (value, vector) pair, collect the exact spectral
    values within ``value_tol`` of the (possibly binned) estimate and measure
    the distance from the vector to the span of that cluster. Returns
    (residuals, clusters): ``clusters[j]`` holds the exact vectors of pair j's
    cluster as columns. More than one column marks a column of the output
    whose individual entries are basis-dependent.
    """
    values, vectors, _ = _cached(p, "spectrum", full_spectrum)
    residuals = np.ones(sol.m)
    clusters = []
    for j in range(sol.m):
        basis = vectors[:, np.abs(values - sol.eigenvalues[j]) <= value_tol]
        clusters.append(basis)
        if basis.shape[1]:
            v = sol.eigenvectors[:, j]
            residuals[j] = float(np.linalg.norm(v - basis @ (basis.T @ v)))
    return residuals, clusters


def subspace_angle(w1: np.ndarray, w2: np.ndarray) -> float:
    """Largest principal angle (radians) between two orthonormal column spans."""
    overlap = w1.T @ w2
    svals = np.linalg.svd(overlap, compute_uv=False)
    smallest = float(np.clip(svals.min() if svals.size else 0.0, -1.0, 1.0))
    return float(np.arccos(smallest))

