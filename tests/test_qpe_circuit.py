"""simulate_qpe checked against a statevector phase-estimation circuit.

Every case builds its operator from its own eigenbasis or SVD, so the
circuit, the test and ``simulate_qpe`` share no eigendecomposition. At
q1 = 11 the two sides still differ by a few 1e-13: ``simulate_qpe``'s
float64 ``eigh`` moves each register offset k*phase by about k*t*eps/(2*pi).
"""

import math

import numpy as np
import pytest

from qpe_circuit import (
    entangled_law,
    expm_taylor,
    flagged_success,
    mass_table,
    probe_laws,
    qpe_register_distribution,
)
from qmedr.block_encoding import be_hermitian_dilation, block_encode_dense
from qmedr.linalg import spectral_norm
from qmedr.quantum_sim import _fejer_kernel, simulate_qpe


def _hermitian_with_basis(rng, d, low, high):
    """H = Q diag(w) Q^T with w ascending in [low, high], and (w, Q)."""
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    w = np.sort(rng.uniform(low, high, size=d))
    return (q * w) @ q.T, w, q


def _dilated_case(rng, d):
    """A well-conditioned d x d E, its SVD and its dilation [[0, E], [E^T, 0]]."""
    a = rng.normal(size=(d, d))
    a = 0.5 * a / spectral_norm(a) + rng.uniform(0.3, 0.9) * np.eye(d)
    u, sv, vt = np.linalg.svd(a)
    dilation = np.block([[np.zeros((d, d)), a], [a.T, np.zeros((d, d))]])
    return a, u, sv, vt.T, dilation


def _positive_mass(law):
    """Mass of the positive register bins 1 .. k/2 - 1 of each column."""
    return law[1 : law.shape[0] // 2].sum(axis=0)


def test_taylor_exponential_matches_diagonal():
    w = np.array([-0.9, 0.1, 0.75])
    u = expm_taylor(2.5j * np.diag(w).astype(complex))
    assert np.abs(u - np.diag(np.exp(2.5j * w))).max() <= 1e-15


def test_eigenvector_laws_match_fejer_table():
    rng = np.random.default_rng(2201)
    worst = 0.0
    for q1 in range(3, 12):
        for d in ((2, 4, 8)[q1 % 3], 8):
            h, w, q = _hermitian_with_basis(rng, d, -1.0, 1.0)
            t = rng.uniform(0.5, 2.0)
            per = simulate_qpe(block_encode_dense(h, alpha=1.0), q1, t)
            assert np.abs(per.eigenvalues - w).max() <= 1e-12
            laws = probe_laws(h, t, q1, q)
            table = mass_table(per).T
            worst = max(worst, float(np.abs(laws - table).max()))
            assert np.array_equal(laws.argmax(axis=0), per.dominant_bins())
            assert np.abs(entangled_law(h, t, q1) - table.mean(axis=1)).max() <= 1e-12
    assert worst <= 1e-12


def test_dilated_members_and_pair_identity():
    rng = np.random.default_rng(2202)
    for q1 in range(2, 12):
        d = (1, 2, 4)[q1 % 3]
        a, u, sv, v, dilation = _dilated_case(rng, d)
        t = rng.uniform(0.5, 1.0) * np.pi / (spectral_norm(a) + 0.2)
        per = simulate_qpe(be_hermitian_dilation(block_encode_dense(a, alpha=spectral_norm(a) + 0.1)),
                           q1, t, dilated=True)
        # eigh sorts the retained values ascending, the SVD descending
        assert np.abs(per.eigenvalues - sv[::-1]).max() <= 1e-12
        plus = probe_laws(dilation, t, q1, np.vstack([u, v])[:, ::-1] / math.sqrt(2.0))
        minus = probe_laws(dilation, t, q1, np.vstack([u, -v])[:, ::-1] / math.sqrt(2.0))
        k = 1 << q1
        for i, p in enumerate(per.phases):
            assert np.abs(plus[:, i] - qpe_register_distribution(p, q1)).max() <= 1e-12
            mirrored = (-per.eigenvalues[i] * t / (2.0 * np.pi)) % 1.0
            assert np.abs(minus[:, i] - qpe_register_distribution(mirrored, q1)).max() <= 1e-12
        identity = 1.0 - _fejer_kernel(k * per.phases, k) - _fejer_kernel(k * per.phases - k // 2, k)
        assert np.abs(_positive_mass(plus) + _positive_mass(minus) - identity).max() <= 1e-12
        assert np.array_equal(plus.argmax(axis=0), per.dominant_bins())


def test_dilated_success_is_half_the_flagged_circuit():
    # simulate_qpe weights each member's positive mass by flagged**2 = 1/4
    # where the circuit's flag projection gives flagged = 1/2, so its success
    # probability is half the circuit's. Pinned here so that a fix of the
    # weight shows up as a deliberate change of this test.
    rng = np.random.default_rng(2203)
    for q1 in range(3, 12):
        d = (1, 2, 4)[q1 % 3]
        a, _, _, _, dilation = _dilated_case(rng, d)
        t = rng.uniform(0.5, 1.0) * np.pi / (spectral_norm(a) + 0.2)
        per = simulate_qpe(be_hermitian_dilation(block_encode_dense(a, alpha=spectral_norm(a) + 0.1)),
                           q1, t, dilated=True)
        assert flagged_success(dilation, t, q1) == pytest.approx(2.0 * per.success_probability,
                                                                 rel=0.0, abs=1e-13)


@pytest.mark.parametrize("n, eta", [(4, 0.1), (6, 0.05)])
def test_register_sizing_on_circuit_laws(n, eta):
    # criterion 5's bound: q1 = n + ceil(log2(2 + 1/eta)) gives n-bit accuracy w.p. >= 1 - eta
    q1 = n + int(math.ceil(math.log2(2.0 + 1.0 / eta)))
    k = 1 << q1
    rng = np.random.default_rng(2204 + n)
    for d in (2, 4, 8, 8):
        h, w, q = _hermitian_with_basis(rng, d, 0.1, 1.0)
        laws = probe_laws(h, 2.0, q1, q)
        for j, phase in enumerate(w * 2.0 / (2.0 * np.pi)):
            dist = np.abs(np.arange(k) / k - phase)
            near = np.minimum(dist, 1.0 - dist) < 2.0 ** (-n)
            assert laws[near, j].sum() >= 1.0 - eta
