import dataclasses
import tracemalloc

import numpy as np
import pytest

import qmedr.block_encoding as bk
from conftest import random_contraction, random_hermitian_in_window
from qmedr.block_encoding import (
    EXP_NORMALIZATION,
    BlockEncodingError,
    LcuUnitary,
    be_exp,
    be_extract,
    be_hermitian_dilation,
    be_product,
    block_encode_dense,
)
from qmedr.linalg import expm, spectral_norm, unitarity_check, unitarity_defect


class TestBlockEncodeDense:
    def test_half_identity(self):
        be = block_encode_dense(0.5 * np.eye(2), alpha=1.0)
        u = be.unitary.to_dense()
        assert np.allclose(u[:2, :2], 0.5 * np.eye(2))
        assert np.allclose(u[:2, 2:], np.sqrt(0.75) * np.eye(2))
        assert np.allclose(u[2:, :2], np.sqrt(0.75) * np.eye(2))
        assert np.allclose(u[2:, 2:], -0.5 * np.eye(2))

    def test_identity_branch(self):
        be = block_encode_dense(np.eye(2), alpha=1.0)
        u = be.unitary.to_dense()
        assert np.allclose(u, np.block([[np.eye(2), np.zeros((2, 2))],
                                        [np.zeros((2, 2)), -np.eye(2)]]))

    def test_random_contraction_invariant(self):
        rng = np.random.default_rng(5)
        a = random_contraction(rng, 4)
        be = block_encode_dense(a, alpha=1.0)
        extracted = be_extract(be)
        assert spectral_norm(a - extracted) <= 1e-9

    def test_alpha_below_norm_rejected(self):
        with pytest.raises(BlockEncodingError, match="alpha"):
            block_encode_dense(np.eye(3), alpha=0.5)

    def test_padding_to_power_of_two(self):
        rng = np.random.default_rng(1)
        a = random_contraction(rng, 3)
        be = block_encode_dense(a, alpha=1.0)
        assert be.system_qubits == 2
        assert np.allclose(be_extract(be)[:3, :3], a, atol=1e-12)
        assert np.allclose(be_extract(be)[3:, :], 0.0)

    def test_round_trip_property(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            a = rng.normal(size=(dim, dim))
            alpha = spectral_norm(a) * float(rng.uniform(1.0, 3.0))
            be = block_encode_dense(a, alpha=alpha)
            assert spectral_norm(be.target - be_extract(be)) <= 1e-9
            assert be.unitary.to_dense().dtype == np.float64

    def test_unitarity_property(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            be = block_encode_dense(a, alpha=spectral_norm(a) + 0.1)
            assert unitarity_check(be.unitary.to_dense(), 1e-9)

    def test_complex_input(self, rng):
        a = random_contraction(rng, 4) + 1j * random_contraction(rng, 4)
        a = 0.5 * a / spectral_norm(a)
        be = block_encode_dense(a, alpha=1.0)
        assert spectral_norm(be_extract(be) - a) <= 1e-9

    def test_leaf_bound_rejects_scaled_sine(self, rng):
        for a in (random_contraction(rng, 4),
                  0.5 * (random_contraction(rng, 4) + 1j * random_contraction(rng, 4))):
            be = block_encode_dense(a, alpha=1.0)
            assert isinstance(be.unitary, LcuUnitary)
            bk._verify_encoding(be)
            # the off-diagonal blocks feed only the unitarity defect
            for block in ("upper", "lower"):
                scaled = ((1.0 + 1e-6) * getattr(be.unitary, block)[0],)
                faulty = dataclasses.replace(
                    be, unitary=dataclasses.replace(be.unitary, **{block: scaled}))
                assert np.array_equal(faulty.extracted(), be.extracted())
                with pytest.raises(BlockEncodingError, match="unitarity"):
                    bk._verify_encoding(faulty)


class TestProduct:
    def test_identity_composition(self):
        be = block_encode_dense(np.eye(4), alpha=1.0)
        prod = be_product(be, be)
        assert prod.alpha == 1.0
        assert np.allclose(be_extract(prod), np.eye(4), atol=1e-12)

    def test_exponential_pair_composition_constants(self, rng):
        # the two exponential encodings compose into an
        # (e^4, ., e^4*(eps1+eps2))-encoding of exp(-S2) exp(S1)
        eps1, eps2 = 1e-2, 1e-3
        s1 = random_hermitian_in_window(rng, 4, 10.0)
        s2 = random_hermitian_in_window(rng, 4, 10.0)
        u1 = block_encode_dense(s1, alpha=1.0)
        u2 = block_encode_dense(s2, alpha=1.0)
        prod = be_product(be_exp(u2, -1, eps2, 10.0), be_exp(u1, +1, eps1, 10.0))
        assert prod.alpha == pytest.approx(np.exp(4.0), rel=1e-12)
        assert prod.epsilon == pytest.approx(np.exp(4.0) * (eps1 + eps2), rel=1e-9)
        target = expm(-s2) @ expm(s1)
        assert spectral_norm(target - be_extract(prod)) <= np.exp(4.0) * (eps1 + eps2) + 1e-8

    def test_measured_error_within_composed_bound(self, rng):
        rng9 = np.random.default_rng(9)
        for _ in range(10):
            a = random_contraction(rng9, 4)
            b = random_contraction(rng9, 4)
            ua = block_encode_dense(a, alpha=1.2)
            ub = block_encode_dense(b, alpha=1.1)
            prod = be_product(ua, ub)
            measured = spectral_norm(a @ b - be_extract(prod))
            assert measured <= ua.alpha * ub.epsilon + ub.alpha * ua.epsilon + 1e-9
            # extraction of the product is the product of extractions
            assert spectral_norm(
                be_extract(prod) - be_extract(ua) @ be_extract(ub)
            ) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(BlockEncodingError):
            be_product(block_encode_dense(np.eye(2), 1.0), block_encode_dense(np.eye(4), 1.0))

    def test_dense_assembly_matches_explicit_embedding(self, rng):
        # independent construction: permute an ancilla-kron embedding
        ua = block_encode_dense(random_contraction(rng, 2), alpha=1.0)
        ub = block_encode_dense(random_contraction(rng, 2), alpha=1.0)
        prod = be_product(ua, ub)
        dense = prod.unitary.to_dense()

        s = 2
        a_dim = b_dim = 2
        total = a_dim * b_dim * s
        # register order (ancA, ancB, sys): build U_A acting on (ancA, sys)
        perm = np.zeros(total, dtype=int)
        for ia in range(a_dim):
            for ib in range(b_dim):
                for k in range(s):
                    # move to order (ancB, ancA, sys) for a kron embedding
                    perm[(ia * b_dim + ib) * s + k] = (ib * a_dim + ia) * s + k
        p = np.eye(total)[perm]
        ua_embedded = p.T @ np.kron(np.eye(b_dim), ua.unitary.to_dense()) @ p
        ub_embedded = np.kron(np.eye(a_dim), ub.unitary.to_dense())
        assert np.allclose(dense, ua_embedded @ ub_embedded, atol=1e-12)

    def test_product_unitary_defect(self, rng):
        ua = block_encode_dense(random_contraction(rng, 4), alpha=1.0)
        prod = be_product(ua, ua)
        assert prod.unitary.unitarity_defect() <= 1e-9


class TestHermitianDilation:
    def test_hermitian_input_pm_pairs(self, rng):
        a = rng.normal(size=(4, 4))
        h = (a + a.T) / 2
        be = block_encode_dense(h, alpha=spectral_norm(h) + 0.1)
        dil = be_hermitian_dilation(be)
        w = np.linalg.eigvalsh(be_extract(dil))
        sv = np.linalg.svd(h, compute_uv=False)
        expected = np.sort(np.concatenate([sv, -sv]))
        assert np.allclose(np.sort(w), expected, atol=1e-8)

    def test_nilpotent_spectrum_frozen(self):
        # singular values of [[0,1],[0,0]] are 1 and 0, so the dilation
        # spectrum is {1, -1, 0, 0}
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        be = block_encode_dense(h, alpha=1.0)
        dil = be_hermitian_dilation(be)
        w = np.sort(np.linalg.eigvalsh(be_extract(dil)))
        assert np.allclose(w, [-1.0, 0.0, 0.0, 1.0], atol=1e-10)

    def test_eigenvector_structure(self, rng):
        h = rng.normal(size=(4, 4))
        be = block_encode_dense(h, alpha=spectral_norm(h) + 0.1)
        dil = be_hermitian_dilation(be)
        hbar = be_extract(dil).real
        w, vecs = np.linalg.eigh(hbar)
        u_sv, sv, vt = np.linalg.svd(h)
        for i in range(4):
            if sv[i] < 1e-9:
                continue
            plus = np.concatenate([u_sv[:, i], vt[i]]) / np.sqrt(2.0)
            minus = np.concatenate([u_sv[:, i], -vt[i]]) / np.sqrt(2.0)
            for lam, target in ((sv[i], plus), (-sv[i], minus)):
                j = int(np.argmin(np.abs(w - lam)))
                overlap = abs(vecs[:, j] @ target)
                assert overlap >= 1.0 - 1e-6

    def test_metadata(self, rng):
        be = block_encode_dense(random_contraction(rng, 4), alpha=1.5)
        dil = be_hermitian_dilation(be)
        assert dil.alpha == be.alpha
        assert dil.ancillas == be.ancillas
        assert dil.system_qubits == be.system_qubits + 1
        assert dil.epsilon == pytest.approx(2.0 * be.epsilon)

    def test_dense_agrees_with_structural_extraction(self, rng):
        be = block_encode_dense(random_contraction(rng, 2), alpha=1.0)
        dil = be_hermitian_dilation(be)
        dense = dil.unitary.to_dense()
        sys_dim = 4
        assert np.allclose(dil.alpha * dense[:sys_dim, :sys_dim],
                           be_extract(dil), atol=1e-12)
        assert unitarity_check(dense, 1e-9)

    def test_multi_ancilla_inner_encoding(self, rng):
        # dilating an exponential encoding exercises the general swap layout
        h = random_hermitian_in_window(rng, 2, 2.0)
        enc = be_exp(block_encode_dense(h, alpha=1.0), +1, 1e-2, 2.0)
        assert enc.ancillas > 1
        dil = be_hermitian_dilation(enc)
        dense = dil.unitary.to_dense()
        sys_dim = 2 * enc.system_dim
        assert np.allclose(dil.alpha * dense[:sys_dim, :sys_dim],
                           be_extract(dil), atol=1e-12)
        assert unitarity_check(dense, 1e-9)
        # extracted block is the off-diagonal embedding of exp(H)
        target = be_extract(dil)
        assert spectral_norm(target[:2, 2:] - expm(h)) <= dil.epsilon


class TestBeExp:
    def test_identity_scalar_case(self):
        be = block_encode_dense(np.eye(2), alpha=1.0)
        for sign in (1, -1):
            enc = be_exp(be, sign, 1e-3, kappa=2.0)
            block = enc.unitary.to_dense()[:2, :2]
            assert np.allclose(block, np.exp(sign) / EXP_NORMALIZATION * np.eye(2),
                               atol=1e-3)
            assert spectral_norm(be_extract(enc) - np.exp(sign) * np.eye(2)) <= enc.epsilon

    def test_diagonal_against_exponential_oracle(self):
        h = np.diag([0.5, 1.0])
        be = block_encode_dense(h, alpha=1.0)
        enc = be_exp(be, +1, 1e-4, kappa=2.0)
        expected = np.diag([np.exp(0.5), np.exp(1.0)])
        assert spectral_norm(be_extract(enc) - expected) <= EXP_NORMALIZATION * 1e-4

    def test_normalization_constant_exact(self, rng):
        be = block_encode_dense(random_hermitian_in_window(rng, 4, 5.0), alpha=1.0)
        enc = be_exp(be, +1, 1e-3, kappa=5.0)
        assert enc.alpha == EXP_NORMALIZATION
        assert EXP_NORMALIZATION == float(np.exp(2.0))

    def test_bound_property_randomized(self, rng):
        # certified error bound holds across random (H, kappa, eps) triples;
        # dims are powers of two so padding cannot leave the spectral window
        count = 0
        for trial in range(200):
            dim = int(rng.choice([2, 4, 8, 16]))
            kappa = float(rng.choice([2.0, 5.0, 10.0]))
            eps = float(rng.choice([1e-2, 1e-3, 1e-4]))
            sign = int(rng.choice([1, -1]))
            h = random_hermitian_in_window(rng, dim, kappa)
            enc = be_exp(block_encode_dense(h, alpha=1.0), sign, eps, kappa)
            err = spectral_norm(expm(sign * h) - be_extract(enc))
            assert err <= EXP_NORMALIZATION * eps
            count += 1
        assert count == 200

    def test_rejects_out_of_window(self, rng):
        h = np.diag([0.01, 0.5])  # below 1/kappa for kappa = 10
        be = block_encode_dense(h, alpha=1.0)
        with pytest.raises(BlockEncodingError, match="window"):
            be_exp(be, +1, 1e-3, kappa=10.0)

    def test_rejects_bad_eps(self):
        be = block_encode_dense(np.eye(2), alpha=1.0)
        with pytest.raises(ValueError):
            be_exp(be, +1, 0.7, kappa=2.0)
        with pytest.raises(ValueError):
            be_exp(be, +1, 0.0, kappa=2.0)

    def test_series_matches_60_digit_reference(self):
        # independent oracle: e, the tails and the coefficients at 60 digits
        import mpmath

        def reference(sign, eps):
            threshold = eps * EXP_NORMALIZATION / 2.0
            with mpmath.workdps(60):
                scale = mpmath.e if sign > 0 else 1 / mpmath.e
                partial, fact = mpmath.mpf(0), mpmath.mpf(1)
                for order in range(64):
                    fact *= max(order, 1)
                    partial += 1 / fact
                    if scale * (mpmath.e - partial) <= threshold:
                        break
                return [float(scale / mpmath.factorial(l)) * (-1.0 if sign < 0 and l % 2 else 1.0)
                        for l in range(order + 1)]

        rng = np.random.default_rng(21)
        for eps in np.concatenate(([1e-16, 0.5], 10.0 ** rng.uniform(-16, np.log10(0.5), 1000))):
            for sign in (1, -1):
                coeffs, b = bk._exp_series(sign, float(eps))
                assert b == EXP_NORMALIZATION
                assert coeffs.tolist() == reference(sign, float(eps)), (sign, eps)

    def test_series_rejects_unreachable_eps(self):
        for sign in (1, -1):
            with pytest.raises(BlockEncodingError, match="did not converge"):
                bk._exp_series(sign, 1e-70)

    def test_rejects_non_hermitian(self):
        be = block_encode_dense(np.array([[0.5, 0.4], [0.0, 0.5]]), alpha=1.0)
        with pytest.raises(BlockEncodingError, match="Hermitian"):
            be_exp(be, +1, 1e-3, kappa=2.0)

    def test_unitarity(self, rng):
        be = block_encode_dense(random_hermitian_in_window(rng, 4, 2.0), alpha=1.0)
        enc = be_exp(be, -1, 1e-3, kappa=2.0)
        assert unitarity_check(enc.unitary.to_dense(), 1e-9)

    def test_subnormalized_input(self, rng):
        # a loose alpha on the input does not change the represented operator
        h = random_hermitian_in_window(rng, 4, 2.0)
        loose = block_encode_dense(h, alpha=2.0)
        enc = be_exp(loose, +1, 1e-3, kappa=2.0)
        assert spectral_norm(expm(h) - be_extract(enc)) <= enc.epsilon


def _complex_hermitian_in_window(rng, dim, kappa):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    w = rng.uniform(1.0 / kappa, 1.0, size=dim)
    w[0], w[-1] = 1.0 / kappa, 1.0
    return (q * w) @ q.conj().T


class TestLcuUnitary:
    def test_top_left_matches_dense(self, rng):
        for dim in (2, 4, 8, 16):
            for make in (random_hermitian_in_window, _complex_hermitian_in_window):
                h = make(rng, dim, 5.0)
                for sign in (1, -1):
                    enc = be_exp(block_encode_dense(h, alpha=1.0), sign, 1e-8, kappa=5.0)
                    assert isinstance(enc.unitary, LcuUnitary)
                    dense = enc.unitary.to_dense()
                    assert np.iscomplexobj(dense) == np.iscomplexobj(h)
                    assert np.max(np.abs(enc.unitary.top_left(dim) - dense[:dim, :dim])) <= 1e-13

    def test_leaf_bound_dominates_dense_defect(self, rng):
        for dim in (2, 4, 8, 16):
            for make in (random_hermitian_in_window, _complex_hermitian_in_window):
                enc = be_exp(block_encode_dense(make(rng, dim, 2.0), alpha=1.0), -1, 1e-8, kappa=2.0)
                leaf = enc.unitary.unitarity_defect()
                dense = unitarity_defect(enc.unitary.to_dense())
                assert dense <= leaf <= 1e-9

    def test_composite_bounds_dominate_dense_defect(self, rng):
        # product and dilation bounds are built from their factors' defects;
        # each must still dominate the defect of its dense matrix
        for make in (random_hermitian_in_window, _complex_hermitian_in_window):
            for dim in (2, 4):
                u1 = block_encode_dense(make(rng, dim, 2.0), alpha=1.0)
                u2 = block_encode_dense(make(rng, dim, 2.0), alpha=1.0)
                exp_pair = be_product(be_exp(u2, -1, 1e-2, 2.0), be_exp(u1, +1, 1e-2, 2.0))
                composites = [be_product(u1, u2), be_hermitian_dilation(u1), exp_pair]
                if dim == 2:
                    composites.append(be_hermitian_dilation(exp_pair))
                for be in composites:
                    bound = be.unitary.unitarity_defect()
                    dense = unitarity_defect(be.unitary.to_dense())
                    assert dense <= bound <= 1e-9

    @staticmethod
    def _with_scaled_leaf(enc, index, scale_cos, scale_sin):
        lcu = enc.unitary
        cos, sin = list(lcu.cos), list(lcu.upper)
        cos[index] = scale_cos * cos[index]
        sin[index] = scale_sin * sin[index]
        # one shared sine tuple, as be_exp builds it
        sin = tuple(sin)
        faulty = dataclasses.replace(lcu, cos=tuple(cos), upper=sin, lower=sin)
        return dataclasses.replace(enc, unitary=faulty)

    def test_leaf_bound_rejects_scaled_block(self, rng):
        enc = be_exp(block_encode_dense(random_hermitian_in_window(rng, 4, 2.0), alpha=1.0),
                     +1, 1e-8, kappa=2.0)
        # the flip leaf (0, I) and the last padding leaf (I, 0) never reach the
        # top-left block, so only the unitarity defect can expose the fault
        flip = next(l for l, c in enumerate(enc.unitary.cos) if not c.any())
        assert flip < len(enc.unitary.cos) - 1
        for index in (flip, -1):
            faulty = self._with_scaled_leaf(enc, index, 1.0 + 1e-6, 1.0 + 1e-6)
            assert np.array_equal(faulty.extracted(), enc.extracted())
            with pytest.raises(BlockEncodingError, match="unitarity"):
                bk._verify_encoding(faulty)

    def test_leaf_bound_rejects_scaled_sine(self, rng):
        for make in (random_hermitian_in_window, _complex_hermitian_in_window):
            enc = be_exp(block_encode_dense(make(rng, 4, 2.0), alpha=1.0), -1, 1e-8, kappa=2.0)
            bk._verify_encoding(enc)
            # a power leaf's sine feeds only the unitarity defect
            faulty = self._with_scaled_leaf(enc, 1, 1.0, 1.0 + 1e-6)
            assert np.array_equal(faulty.extracted(), enc.extracted())
            with pytest.raises(BlockEncodingError, match="unitarity"):
                bk._verify_encoding(faulty)

    def test_memory_stays_factored_at_dim_256(self, rng):
        be = block_encode_dense(random_hermitian_in_window(rng, 256, 2.0), alpha=1.0)
        tracemalloc.start()
        try:
            enc = be_exp(be, +1, 1e-8, kappa=2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert enc.unitary.dim == 8192
        assert peak < 128 * 2**20
        with pytest.raises(MemoryError):
            enc.unitary.to_dense()


def _exact_leaf_defect(c, u, l):
    # ||B^dag B - I|| of the dense leaf B = [[c, u], [l, -c^dag]]
    b = np.block([[c, u], [l, -c.conj().T]])
    return float(np.max(np.abs(np.linalg.eigvalsh(b.conj().T @ b - np.eye(b.shape[0])))))


@dataclasses.dataclass(frozen=True)
class _FaultyDilation(bk.DilationUnitary):
    """A dilation whose extracted block carries an added fault."""

    fault: np.ndarray = None

    def top_left(self, d):
        return super().top_left(d) + self.fault


class TestVerificationNorms:
    def test_frobenius_leaf_bound_dominates_exact_defect(self, rng):
        for dim in (1, 2, 4, 8, 16):
            for complex_ in (False, True):
                for scale in (1.0, 1e-6):
                    # a unitary leaf (c, s) = (V.diag(x).V^T, V.diag(sqrt(1 - x^2)).V^T)
                    # plus a perturbation of the given scale
                    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                    x = rng.uniform(-1.0, 1.0, size=dim)
                    c, s = (v * x) @ v.T, (v * np.sqrt(1.0 - x**2)) @ v.T
                    pc, ps = rng.normal(size=(2, dim, dim))
                    if complex_:
                        pc = pc + 1j * rng.normal(size=(dim, dim))
                        ps = ps + 1j * rng.normal(size=(dim, dim))
                    # the perturbed c is not Hermitian, so the shared-sine
                    # bound must cover the -c^dag block
                    c, s = c + scale * pc, s + scale * ps
                    # equal in exact arithmetic at dim 1, so allow the rounding
                    # of unit-sized entries
                    assert bk._leaf_defect(c, s, s) >= _exact_leaf_defect(c, s, s) - 1e-15

    def test_general_leaf_bound_dominates_exact_defect(self, rng):
        for dim in (1, 2, 4, 8, 16):
            for complex_ in (False, True):
                for scale in (1.0, 1e-6):
                    # the cosine-sine leaf (W.C.V^dag, W.S.W^dag, V.S.V^dag) of a
                    # contraction, each block plus its own perturbation
                    z = rng.normal(size=(2, dim, dim))
                    if complex_:
                        z = z + 1j * rng.normal(size=(2, dim, dim))
                    (w, _), (v, _) = np.linalg.qr(z[0]), np.linalg.qr(z[1])
                    x = rng.uniform(0.0, 1.0, size=dim)
                    blocks = [(w * x) @ v.conj().T, (w * np.sqrt(1.0 - x**2)) @ w.conj().T,
                              (v * np.sqrt(1.0 - x**2)) @ v.conj().T]
                    p = rng.normal(size=(3, dim, dim))
                    if complex_:
                        p = p + 1j * rng.normal(size=(3, dim, dim))
                    c, u, l = (b + scale * pb for b, pb in zip(blocks, p))
                    assert bk._leaf_defect(c, u, l) >= _exact_leaf_defect(c, u, l) - 1e-15

    def test_dilation_norms_match_full_spectral_norm(self, rng):
        for make in (random_hermitian_in_window, _complex_hermitian_in_window):
            for dim in (2, 4, 8):
                u1 = block_encode_dense(make(rng, dim, 2.0), alpha=1.0)
                u2 = block_encode_dense(make(rng, dim, 2.0), alpha=1.0)
                # a coarse eps leaves a block error well above rounding
                pair = be_product(be_exp(u2, -1, 1e-2, 2.0), be_exp(u1, +1, 1e-2, 2.0))
                dil = be_hermitian_dilation(pair)
                full_err = spectral_norm(dil.target - dil.extracted())
                assert full_err > 1e-6
                assert dil.block_error() == pytest.approx(full_err, rel=1e-12)
                assert bk._system_norm(dil, dil.target) == pytest.approx(
                    spectral_norm(dil.target), rel=1e-12)

    def test_dilation_norm_bounds_any_blocks(self, rng):
        for dim in (1, 3, 8):
            m = rng.normal(size=(2 * dim, 2 * dim)) + 1j * rng.normal(size=(2 * dim, 2 * dim))
            assert bk._dilation_norm(m, dim) >= spectral_norm(m) * (1 - 1e-12)
            m[:dim, :dim] = m[dim:, dim:] = 0.0
            assert bk._dilation_norm(m, dim) == pytest.approx(spectral_norm(m), rel=1e-12)

    @staticmethod
    def _with_fault(dil, place):
        d = dil.system_dim // 2
        fault = np.zeros((2 * d, 2 * d))
        rows, cols = {"upper": (0, d), "lower": (d, 0), "top-left": (0, 0),
                      "bottom-right": (d, d)}[place]
        fault[rows : rows + d, cols : cols + d] = 1e-6 * np.eye(d)
        u = dil.unitary
        faulty = _FaultyDilation(inner=u.inner, anc_qubits=u.anc_qubits,
                                 system_dim=u.system_dim, fault=fault)
        return dataclasses.replace(dil, unitary=faulty)

    def test_dilation_faults_raise_block_error(self, rng):
        for dim in (2, 8):
            inner = block_encode_dense(random_contraction(rng, dim), alpha=1.0)
            dil = be_hermitian_dilation(inner)
            bk._verify_encoding(dil)
            for place in ("upper", "lower", "top-left", "bottom-right"):
                with pytest.raises(BlockEncodingError, match="block error"):
                    bk._verify_encoding(self._with_fault(dil, place))
