"""Block-encoding algebra over explicit desk-scale unitaries.

A block-encoding is a unitary whose top-left block equals ``A / alpha`` up to
a certified error ``epsilon``, with the ancilla register occupying the most
significant qubits. Constructions here build the unitaries explicitly so
every claimed bound can be measured directly. Encodings carry no query
costs: the pipeline charges those to the run's cost log.

Every unitary stays in exactly factored form so large register counts stay
affordable. The leaves are prepare-select-unprepare combinations (a dense
encoding is one with a single slot), and products and Hermitian dilations
compose them; each exposes the same dense matrix (for small dimensions) and
exact top-left block extraction. Every unitary's ``unitarity_defect`` is a
bound on the spectral norm of U^dag U - I composed from d-dim blocks: only
the small prepare is measured densely, and no composite is ever made dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (
    as_square,
    frobenius_norm,
    hermiticity_defect,
    hermitian_eig,
    hermitize,
    spectral_norm,
)

EXP_NORMALIZATION = float(np.exp(2.0))

_MATERIALIZE_LIMIT = 4096

# A composite's defect bound holds in exact arithmetic for products that are
# never formed. A dense evaluation of them rounds by about sqrt(dim) * eps_mach
# (the probabilistic growth of inner-product rounding), and each composite adds
# that much so its bound also dominates the dense defect.
_EPS_MACH = float(np.finfo(float).eps)


class BlockEncodingError(ValueError):
    """Raised when a construction cannot certify its claimed encoding."""


def _householder_prep(amplitudes: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is the given unit vector."""
    n = amplitudes.shape[0]
    e0 = np.zeros(n)
    e0[0] = 1.0
    w = amplitudes - e0
    nrm2 = float(w @ w)
    if nrm2 < 1e-30:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(w, w) / nrm2


def _memoized_defect(obj, compute):
    # objects are immutable, so the defect is computed once and cached
    cached = getattr(obj, "_defect_cache", None)
    if cached is None:
        cached = float(compute())
        object.__setattr__(obj, "_defect_cache", cached)
    return cached


def _leaf_defect(c: np.ndarray, u: np.ndarray, l: np.ndarray) -> float:
    """Spectral-norm bound on B^dag B - I for the leaf B = [[c, u], [l, -c^dag]].

    B^dag B - I = [[A, X], [X^dag, D]] with A = c^dag c + l^dag l - I,
    D = u^dag u + c c^dag - I and X = c^dag u - l^dag c^dag, so
    max(||A||, ||D||) + ||X|| bounds it from d-dim pieces, and Frobenius norms
    bound those without an eigensolver. A shared sine u = l = s needs three
    products: B0 = [[c, s], [s, -c]] has B0^dag B0 - I = [[A, Y], [-Y, A]] with
    Y = c^dag s - s^dag c, and B^dag B - B0^dag B0 = [[0, s^dag K], [-K s,
    K c - c K]] for K = c - c^dag adds at most (2||c|| + ||s||) ||K||.
    """
    ch = c.conj().T
    eye = np.eye(c.shape[0])
    if u is l:
        cs = ch @ u
        a = ch @ c + u.conj().T @ u - eye
        return (frobenius_norm(a) + frobenius_norm(cs - cs.conj().T)
                + (2.0 * frobenius_norm(c) + frobenius_norm(u)) * frobenius_norm(c - ch))
    a = ch @ c + l.conj().T @ l - eye
    d = u.conj().T @ u + c @ ch - eye
    return max(frobenius_norm(a), frobenius_norm(d)) + frobenius_norm(ch @ u - l.conj().T @ ch)


def _dilation_norm(m: np.ndarray, d: int) -> float:
    """Bound on the spectral norm of m = [[A, B], [C, D]] from its d-dim blocks.

    ||m|| <= ||[[||A||_F, ||B||], [||C||, ||D||_F]]||, with equality when A and
    D vanish, as they do in a Hermitian dilation; a nonzero diagonal block
    still raises the bound. C = B^dag, as in a dilation, reuses ||B||.
    """
    b, c = m[:d, d:], m[d:, :d]
    nb = spectral_norm(b)
    nc = nb if np.array_equal(c, b.conj().T) else spectral_norm(c)
    return spectral_norm(np.array([[frobenius_norm(m[:d, :d]), nb],
                                   [nc, frobenius_norm(m[d:, d:])]]))


@dataclass(frozen=True)
class ProductUnitary:
    """Composite on registers (anc_left, anc_right, system); right factor acts first.

    Both factors are block-encoding unitaries over (own ancillas, system); the
    composite's top-left system block is exactly the product of the factors'
    top-left blocks.
    """

    left: "UnitaryLike"
    right: "UnitaryLike"
    anc_left_dim: int
    anc_right_dim: int
    system_dim: int

    @property
    def dim(self) -> int:
        return self.anc_left_dim * self.anc_right_dim * self.system_dim

    def to_dense(self, limit: int = _MATERIALIZE_LIMIT) -> np.ndarray:
        if self.dim > limit:
            raise MemoryError(f"refusing to materialize {self.dim}x{self.dim} unitary")
        al, ar, s = self.anc_left_dim, self.anc_right_dim, self.system_dim
        lm = np.asarray(self.left.to_dense(limit), dtype=complex).reshape(al, s, al, s)
        rm = np.asarray(self.right.to_dense(limit), dtype=complex).reshape(ar, s, ar, s)
        out = np.einsum("iujt,ktlv->ikujlv", lm, rm)
        return out.reshape(self.dim, self.dim)

    def top_left(self, d: int) -> np.ndarray:
        if d != self.system_dim:
            raise ValueError("product extraction is defined on the full system block")
        return self.left.top_left(d) @ self.right.top_left(d)

    def unitarity_defect(self) -> float:
        # (LR)^dag LR - I = R^dag (L^dag L - I) R + (R^dag R - I), ||R||^2 <= 1 + d_r
        d_l, d_r = self.left.unitarity_defect(), self.right.unitarity_defect()
        return d_l + d_r + d_l * d_r + math.sqrt(self.dim) * _EPS_MACH


@dataclass(frozen=True)
class DilationUnitary:
    """Hermitian-dilation wrapper on registers (ancillas, flag qubit, system).

    Realizes swap(1, a+1) . (|0><0| x U + |1><1| x U_dag) . (sigma_x x I) .
    swap(1, a+1); its extracted block is the off-diagonal embedding
    [[0, B], [B_dag, 0]] of the inner encoding's block B.
    """

    inner: "UnitaryLike"
    anc_qubits: int
    system_dim: int

    @property
    def dim(self) -> int:
        return (1 << self.anc_qubits) * 2 * self.system_dim

    def to_dense(self, limit: int = _MATERIALIZE_LIMIT) -> np.ndarray:
        if self.dim > limit:
            raise MemoryError(f"refusing to materialize {self.dim}x{self.dim} unitary")
        u = np.asarray(self.inner.to_dense(limit), dtype=complex)
        inner_dim = u.shape[0]
        total = 2 * inner_dim
        nbits = self.anc_qubits + 1 + int(math.log2(self.system_dim))
        middle = np.zeros((total, total), dtype=complex)
        middle[:inner_dim, :inner_dim] = u
        middle[inner_dim:, inner_dim:] = u.conj().T

        msb = nbits - 1
        swap_bit = nbits - 1 - self.anc_qubits  # qubit a+1, counting qubit 1 as the MSB
        idx = np.arange(total)
        flip = idx ^ (1 << msb)
        if self.anc_qubits == 0:
            perm_swap = idx
        else:
            b1 = (idx >> msb) & 1
            b2 = (idx >> swap_bit) & 1
            perm_swap = idx ^ (((b1 ^ b2) << msb) | ((b1 ^ b2) << swap_bit))

        eye = np.eye(total)
        p_swap = eye[perm_swap]
        p_x = eye[flip]
        return p_swap.T @ middle @ p_x @ p_swap

    def top_left(self, d: int) -> np.ndarray:
        if d != 2 * self.system_dim:
            raise ValueError("dilation extraction is defined on the doubled system block")
        b = self.inner.top_left(self.system_dim)
        out = np.zeros((d, d), dtype=b.dtype)
        out[: self.system_dim, self.system_dim :] = b
        out[self.system_dim :, : self.system_dim] = b.conj().T
        return out

    def unitarity_defect(self) -> float:
        # the swaps and sigma_x are exact permutations, and U U^dag - I has the
        # same spectrum as U^dag U - I
        return self.inner.unitarity_defect() + math.sqrt(self.dim) * _EPS_MACH


@dataclass(frozen=True)
class LcuUnitary:
    """Prepare-select-unprepare on registers (index, flag qubit, system).

    Realizes (P^T x I) . (sum_l |l><l| x B_l) . (P x I) for a real orthogonal
    prepare P, where each select leaf
    B_l = [[cos[l], upper[l]], [lower[l], -cos[l]^dag]] is kept as its d-dim
    blocks; the top-left system block is exactly sum_l P[l, 0]^2 * cos[l].
    """

    prep: np.ndarray
    cos: tuple[np.ndarray, ...]
    upper: tuple[np.ndarray, ...]
    lower: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.prep.shape[0] * 2 * self.cos[0].shape[0]

    def to_dense(self, limit: int = _MATERIALIZE_LIMIT) -> np.ndarray:
        if self.dim > limit:
            raise MemoryError(f"refusing to materialize {self.dim}x{self.dim} unitary")
        width = 2 * self.cos[0].shape[0]
        select = np.zeros((self.dim, self.dim), dtype=self.cos[0].dtype)
        for l, (c, u, lo) in enumerate(zip(self.cos, self.upper, self.lower)):
            s0 = l * width
            select[s0 : s0 + width, s0 : s0 + width] = np.block([[c, u], [lo, -c.conj().T]])
        prep_full = np.kron(self.prep, np.eye(width))
        return prep_full.T @ select @ prep_full

    def top_left(self, d: int) -> np.ndarray:
        weights = self.prep[:, 0] ** 2
        terms = (w * c[:d, :d] for w, c in zip(weights, self.cos) if w != 0.0)
        # the sum starts at the first term, so a lone leaf keeps its signed zeros
        return sum(terms, next(terms))

    def unitarity_defect(self) -> float:
        def compute():
            # U^dag U - I = P^T S^dag (P P^T - I) S P + P^T (S^dag S - I) P + (P^T P - I),
            # bounded from the prepare's and the leaves' defects (Frobenius norms,
            # no eigensolver), so the dense product is never formed
            d_p = frobenius_norm(self.prep.T @ self.prep - np.eye(self.prep.shape[0]))
            d_s = max(map(_leaf_defect, self.cos, self.upper, self.lower))
            return (d_p + (1.0 + d_p) * d_s + (1.0 + d_p) * (1.0 + d_s) * d_p
                    + math.sqrt(self.dim) * _EPS_MACH)

        return _memoized_defect(self, compute)


UnitaryLike = ProductUnitary | DilationUnitary | LcuUnitary


@dataclass(frozen=True)
class BlockEncoding:
    """A verified (alpha, ancillas, epsilon)-encoding of ``target``.

    ``unitary`` acts on ``ancillas + system_qubits`` qubits with the ancilla
    register most significant; ``target`` is the (power-of-two padded) matrix
    the encoding claims, and ``epsilon`` a certified bound on the block error.
    Instances are immutable and safe to share across threads.
    """

    unitary: UnitaryLike
    alpha: float
    ancillas: int
    system_qubits: int
    epsilon: float
    target: np.ndarray

    @property
    def system_dim(self) -> int:
        return 1 << self.system_qubits

    def extracted(self) -> np.ndarray:
        return self.alpha * self.unitary.top_left(self.system_dim)

    def block_error(self) -> float:
        return _system_norm(self, self.target - self.extracted())


def _system_norm(be: BlockEncoding, m: np.ndarray) -> float:
    """Spectral norm of a matrix on ``be``'s system register. A dilation's is
    bounded from its d-dim blocks, exactly when the diagonal blocks vanish, so
    no 2d-dim SVD is made."""
    if isinstance(be.unitary, DilationUnitary):
        return _dilation_norm(m, be.system_dim // 2)
    return spectral_norm(m)


def _verify_encoding(be: BlockEncoding, target_norm: float | None = None,
                     unitarity_tol: float = 1e-9) -> None:
    """Reject ``be`` unless its block error, target norm and unitarity defect
    hold; a constructor that already knows the target's norm passes it."""
    err = be.block_error()
    if err > be.epsilon + 1e-9:
        raise BlockEncodingError(
            f"block error {err:.3e} exceeds certified epsilon {be.epsilon:.3e}"
        )
    norm = _system_norm(be, be.target) if target_norm is None else target_norm
    if norm > be.alpha + be.epsilon + 1e-9:
        raise BlockEncodingError(
            f"target norm {norm:.6f} exceeds alpha + epsilon = {be.alpha + be.epsilon:.6f}"
        )
    defect = be.unitary.unitarity_defect()
    if defect > unitarity_tol:
        raise BlockEncodingError(f"unitarity defect {defect:.3e} exceeds {unitarity_tol}")


def be_extract(be: BlockEncoding) -> np.ndarray:
    """Return ``alpha * <0|^a U |0>^a``, the matrix the encoding represents."""
    return be.extracted()


def _hermitian_block(be: BlockEncoding) -> np.ndarray:
    """The encoded operator, hermitized, and real when the target is real.

    Rejects a Hermiticity defect above 1e-8: a non-Hermitian operator must go
    through ``be_hermitian_dilation`` first.
    """
    h = be_extract(be)
    if hermiticity_defect(h) > 1e-8:
        raise BlockEncodingError("encoded operator is not Hermitian; dilate it first")
    h = hermitize(h)
    if not np.iscomplexobj(be.target):
        h = h.real
    return h


def block_encode_dense(a_matrix, alpha: float) -> BlockEncoding:
    """Exact one-ancilla dilation of a dense matrix scaled by ``alpha``.

    The input is zero-padded to the next power-of-two dimension; ``alpha``
    must dominate the spectral norm. The dilation is a one-slot
    ``LcuUnitary`` with the leaf (c, W.sin.W^dag, V.sin.V^dag) for
    c = A / alpha = W.diag(cos).V^dag: one SVD gives the norm and all three
    blocks, so the off-diagonal cancellations hold to rounding even for
    singular values at 1.
    """
    a = as_square(np.asarray(a_matrix, dtype=float if not np.iscomplexobj(a_matrix) else complex))
    orig = a.shape[0]
    if orig < 1:
        raise BlockEncodingError("cannot encode an empty matrix")
    dim = 1 << int(math.ceil(math.log2(orig)))
    padded = np.zeros((dim, dim), dtype=a.dtype)
    padded[:orig, :orig] = a
    w, sv, vh = np.linalg.svd(padded)
    norm = float(sv[0])
    if alpha < norm - 1e-12:
        raise BlockEncodingError(f"alpha {alpha} is below the spectral norm {norm:.6e}")
    sines = np.sqrt(np.clip(1.0 - (sv / alpha) ** 2, 0.0, None))
    leaf = LcuUnitary(prep=np.ones((1, 1)), cos=(padded / alpha,),
                      upper=((w * sines) @ w.conj().T,), lower=((vh.conj().T * sines) @ vh,))
    be = BlockEncoding(
        unitary=leaf,
        alpha=float(alpha),
        ancillas=1,
        system_qubits=int(math.log2(dim)),
        epsilon=1e-12,
        target=padded,
    )
    _verify_encoding(be, target_norm=norm)
    return be


def be_product(ua: BlockEncoding, ub: BlockEncoding) -> BlockEncoding:
    """Encoding of ``A @ B`` from encodings of A and B.

    Ancilla registers stay disjoint; the subnormalization multiplies and the
    errors combine as ``alpha_A*eps_B + alpha_B*eps_A``.
    """
    if ua.system_qubits != ub.system_qubits:
        raise BlockEncodingError("system dimensions do not match")
    unitary = ProductUnitary(
        left=ua.unitary,
        right=ub.unitary,
        anc_left_dim=1 << ua.ancillas,
        anc_right_dim=1 << ub.ancillas,
        system_dim=ua.system_dim,
    )
    be = BlockEncoding(
        unitary=unitary,
        alpha=ua.alpha * ub.alpha,
        ancillas=ua.ancillas + ub.ancillas,
        system_qubits=ua.system_qubits,
        epsilon=ua.alpha * ub.epsilon + ub.alpha * ua.epsilon,
        target=ua.target @ ub.target,
    )
    _verify_encoding(be)
    return be


def be_hermitian_dilation(be: BlockEncoding) -> BlockEncoding:
    """Embed a (possibly non-Hermitian) encoded H into [[0, H], [H^dag, 0]].

    Keeps alpha, doubles epsilon, and adds one system qubit; the dilated
    operator's eigenpairs are the +/- singular pairs of H.
    """
    h = be.target
    doubled = np.zeros((2 * h.shape[0], 2 * h.shape[1]), dtype=complex)
    doubled[: h.shape[0], h.shape[1] :] = h
    doubled[h.shape[0] :, : h.shape[1]] = h.conj().T
    if not np.iscomplexobj(h):
        doubled = doubled.real
    unitary = DilationUnitary(
        inner=be.unitary,
        anc_qubits=be.ancillas,
        system_dim=be.system_dim,
    )
    out = BlockEncoding(
        unitary=unitary,
        alpha=be.alpha,
        ancillas=be.ancillas,
        system_qubits=be.system_qubits + 1,
        epsilon=2.0 * be.epsilon,
        target=doubled,
    )
    _verify_encoding(out)
    return out


def _exp_series(sign: int, eps: float) -> tuple[np.ndarray, float]:
    """Truncated-series coefficients for exp(sign*(1+x)) and their exact tail.

    The expansion about 1 has coefficients ``sign^l * e^sign / l!``; the
    truncation order is the smallest L whose absolute-coefficient tail
    (evaluated at radius 1, in exact rationals) is at most eps*B/2 with
    B = e^2 the shared normalization. e is the sum of its first 60 terms,
    within 1/60! ~ 1.2e-82 of e; orders stop below 50, where that remainder
    is under 1e-17 of every tail compared. Each coefficient is correctly
    rounded.
    """
    b = EXP_NORMALIZATION
    threshold = Fraction(eps * b / 2.0)
    last = math.factorial(59)
    e = Fraction(sum(last // math.factorial(j) for j in range(60)), last)
    scale = e if sign > 0 else 1 / e
    rest = e
    for order in range(50):
        rest -= Fraction(1, math.factorial(order))
        if scale * rest <= threshold:
            break
    else:
        raise BlockEncodingError("series truncation did not converge")
    coeffs = [float(scale / math.factorial(l)) * (-1.0 if sign < 0 and l % 2 else 1.0)
              for l in range(order + 1)]
    return np.array(coeffs), float(b)


def be_exp(be: BlockEncoding, sign: int, eps: float, kappa: float) -> BlockEncoding:
    """Encoding of ``exp(sign*H)`` for an encoded Hermitian H with spectrum in [1/kappa, 1].

    Realized as a prepare-select-unprepare combination over powers of
    ``H - I``: an index register holds amplitudes proportional to
    sqrt(|c_l|), the select stage applies a one-ancilla dilation of each
    power (with the coefficient's sign folded in), and a dump slot absorbs
    the truncation mass so the subnormalization is exactly e^2. The result
    is an (e^2, index+1 ancillas, e^2*eps)-encoding whose unitary stays in
    factored form (an ``LcuUnitary``): the prepare and the leaves are kept,
    never their product. The cosine of leaf l is (H - I)^l, formed by
    repeated products; its sine V.diag(sqrt(1 - (lam - 1)^(2l))).V^dag, one
    array for both off-diagonal blocks, comes from H's eigendecomposition,
    which also checks the spectral window and gives the target
    V.diag(e^(sign*lam)).V^dag with its norm.
    The flip slot is (0, I) and each padding slot (I, 0).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not (0.0 < eps <= 0.5):
        raise ValueError("eps must lie in (0, 1/2]")
    if kappa < 2.0:
        raise ValueError("kappa must be at least 2")
    h_enc = _hermitian_block(be)
    spec = hermitian_eig(h_enc)
    lo, hi = spec.eigenvalues[0], spec.eigenvalues[-1]
    if lo < 1.0 / kappa - 1e-9 or hi > 1.0 + 1e-9:
        raise BlockEncodingError(
            f"spectrum [{lo:.6f}, {hi:.6f}] outside the window [1/{kappa}, 1]"
        )

    coeffs, b_norm = _exp_series(sign, eps)
    order = len(coeffs) - 1
    slots = order + 2  # one extra slot absorbs the truncation mass
    n_idx = max(int(math.ceil(math.log2(slots))), 1)
    idx_dim = 1 << n_idx

    probs = np.zeros(idx_dim)
    probs[: order + 1] = np.abs(coeffs) / b_norm
    probs[order + 1] = max(1.0 - probs.sum(), 0.0)
    prep = _householder_prep(np.sqrt(probs))

    dim = be.system_dim
    eye = np.eye(dim, dtype=h_enc.dtype)
    zero = np.zeros_like(eye)
    v, shifted = spec.eigenvectors, spec.eigenvalues - 1.0
    cos, sin = [], []
    power, shift = eye, h_enc - eye
    for l in range(order + 1):
        sign_l = math.copysign(1.0, coeffs[l])
        cos.append(sign_l * power)
        sin.append(sign_l * ((v * np.sqrt(1.0 - shifted ** (2 * l))) @ v.conj().T))
        power = power @ shift
    padding = idx_dim - order - 2
    cos += [zero] + [eye] * padding
    sin = tuple(sin + [eye] + [zero] * padding)

    growth = np.exp(sign * spec.eigenvalues)
    target = (v * growth) @ v.conj().T
    out = BlockEncoding(
        unitary=LcuUnitary(prep=prep, cos=tuple(cos), upper=sin, lower=sin),
        alpha=b_norm,
        ancillas=n_idx + 1,
        system_qubits=be.system_qubits,
        epsilon=b_norm * eps,
        target=target,
    )
    _verify_encoding(out, target_norm=float(np.max(growth)))
    return out
