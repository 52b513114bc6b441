"""Two references for phase estimation, kept for the tests.

``simulate_qpe`` reads the Fejer register law only at the bins a query
needs. The table helpers here are the whole 2**q1-bin laws it no longer
builds. The circuit shares no eigendecomposition with either: it
exponentiates H by a Taylor series with scaling and squaring, puts a q1-qubit
register in |+>, applies controlled U^(2^j) for U = e^{iHt}, and takes the
inverse QFT as an FFT over the register (Cleve, Ekert, Macchiavello and
Mosca, "Quantum algorithms revisited", 1998).
"""

import math

import numpy as np

from qmedr.quantum_sim import _fejer_kernel


def qpe_register_distribution(phase, q1):
    """Exact q1-bit register distribution for a single eigenphase in [0, 1)."""
    k = 1 << q1
    return _fejer_kernel(k * phase - np.arange(k), k)


def mass_table(per):
    """Dense pairs x 2**q1 table of every register law of a PhaseEstimationResult."""
    return np.stack([qpe_register_distribution(p, per.q1) for p in per.phases])


def mass_within(per, j, bits):
    """Mass within the bins whose phase is bits-accurate for pair j."""
    k = per.register_size
    phase = per.phases[j]
    reach = k * 2.0 ** (-bits)
    near = np.arange(math.floor(k * phase - reach) - 1, math.ceil(k * phase + reach) + 2)
    offsets = np.unique(near % k)
    dist = np.abs(offsets / k - phase)
    dist = np.minimum(dist, 1.0 - dist)
    offsets = offsets[dist < 2.0 ** (-bits)]
    return float(_fejer_kernel(k * phase - offsets, k).sum())


def expm_taylor(a):
    """e^a: 24 Taylor terms of a / 2**s, where |a / 2**s|_inf <= 1/2, squared s times."""
    norm = float(np.abs(a).sum(axis=1).max())
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    b = a / 2.0**s
    out = term = np.eye(a.shape[0], dtype=a.dtype)
    for j in range(1, 25):
        term = term @ b / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def qpe_amplitudes(h, t, q1, probe):
    """Register x system x reference amplitudes after phase estimation of e^{iHt}.

    ``probe`` is a system x reference state: column r of a (d, r) array is
    the system state paired with reference state r, weighted by its norm.
    """
    k = 1 << q1
    probe = np.asarray(probe, dtype=complex)
    state = np.repeat(probe[None] / math.sqrt(k), k, axis=0)
    # squaring multiplies the error of U^(2^j) by 2^j, so the powers are
    # formed in extended precision (where the platform's long double has it)
    power = expm_taylor(1j * np.longdouble(t) * np.asarray(h, dtype=np.clongdouble))
    for j in range(q1):
        # register value x = a 2^(j+1) + b 2^j + c: axis 1 of the view is qubit j
        view = state.reshape((k >> (j + 1), 2, 1 << j) + probe.shape)
        view[:, 1] = np.einsum("st,actr->acsr", power.astype(complex), view[:, 1])
        power = power @ power
    return np.fft.fft(state, axis=0, norm="ortho")


def probe_laws(h, t, q1, probes):
    """k x r register laws, column r the law of system state ``probes[:, r]``."""
    return (np.abs(qpe_amplitudes(h, t, q1, probes)) ** 2).sum(axis=1)


def entangled_law(h, t, q1):
    """Register law of the maximally entangled probe over system and reference."""
    d = np.shape(h)[0]
    return probe_laws(h, t, q1, np.eye(d) / math.sqrt(d)).sum(axis=1)


def flagged_success(h, t, q1):
    """Probability that the maximally entangled probe lands in a positive bin
    (1 .. k/2 - 1) with the system's top qubit, the dilation flag, set."""
    d = np.shape(h)[0]
    amp = qpe_amplitudes(h, t, q1, np.eye(d) / math.sqrt(d))
    return float((np.abs(amp[1 : (1 << q1) // 2, d // 2 :]) ** 2).sum())
