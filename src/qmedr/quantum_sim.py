"""Simulated quantum pipeline over exact statevector algebra.

Phase estimation is evaluated analytically (the Fejer-kernel register law
of each eigenpair of the encoded operator, read only at the bins a query
needs, so no pairs x 2^q1 table is built), threshold-oracle
minimum finding runs as a deterministic expected-value loop, and the
digital/analog output states are assembled with either worst-case or seeded
sampled estimation noise. All randomness is drawn from explicit seeds;
deterministic mode is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import resources
from .block_encoding import BlockEncoding, _hermitian_block, _householder_prep
from .classical import EigenSolution, apply_dataset_signs
from .embedding import Dataset
from .linalg import _fix_vector_signs

ANCHOR_OVERLAP_FLOOR = 1e-6


class FixedPointOverflow(ArithmeticError):
    """Raised when a readout magnitude exceeds the fixed-point integer range."""

    def __init__(self, max_value: float, required_int_bits: int):
        self.max_value = max_value
        self.required_int_bits = required_int_bits
        super().__init__(
            f"value {max_value:.6g} needs {required_int_bits} integer bits"
        )


def _fejer_kernel(x: np.ndarray, k: int) -> np.ndarray:
    """Register law of a k-bin phase estimator at offsets ``x = k*phase - bin``."""
    den = np.sin(np.pi * x / k) ** 2
    num = np.sin(np.pi * x) ** 2
    exact = den < 1e-24
    out = np.ones_like(den)
    out[~exact] = num[~exact] / (k * k * den[~exact])
    return out


# offsets around round(k * phase) that hold the register's most likely bin:
# the nearest bin has mass >= 4/pi^2 and any bin 3/2 or more away <= 1/9
_PEAK_WINDOW = np.arange(-2, 3)


@dataclass(frozen=True)
class PhaseEstimationResult:
    """Analytic phase-register statistics for every retained eigenpair.

    ``phases[j]`` is eigenpair j's eigenphase in [0, 1); its register law is
    the Fejer kernel around ``phases[j] * 2**q1``, evaluated only at the bins
    a query reads. The probe weights every pair by 1/n_pairs. For
    dilated inputs the retained pairs are the positive branch after amplitude
    amplification on the flagged component.
    """

    q1: int
    t: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    phases: np.ndarray
    dilated: bool = False
    success_probability: float = 1.0

    @property
    def register_size(self) -> int:
        return 1 << self.q1

    @property
    def n_pairs(self) -> int:
        return self.eigenvalues.shape[0]

    def estimate_for_register(self, k) -> np.ndarray:
        return (np.asarray(k) / self.register_size) * (2.0 * np.pi / self.t)

    def dominant_bins(self) -> np.ndarray:
        """Most likely register value of each pair, lowest index among ties."""
        k = self.register_size
        bins = (np.rint(k * self.phases).astype(np.int64)[:, None] + _PEAK_WINDOW) % k
        law = _fejer_kernel(k * self.phases[:, None] - bins, k)
        peak = law == law.max(axis=1, keepdims=True)
        return np.where(peak, bins, k).min(axis=1)


def simulate_qpe(
    be: BlockEncoding,
    q1: int,
    t: float,
    dilated: bool = False,
    cost_log: resources.CostLog | None = None,
) -> PhaseEstimationResult:
    """Exact phase-estimation statistics for the encoded operator.

    The probe is the maximally entangled state over the system register, so
    every eigenvector carries equal weight. For ``dilated`` inputs (encoded
    operator [[0, E], [E^T, 0]]) the positive-eigenvalue branch flagged by the
    dilation qubit is amplified with exact projector algebra and the retained
    pairs are E's singular values with right singular vectors.

    No register table is built, so the cost is O(pairs) at any q1. The branch
    success probability uses the +/- pair identity: the dilation's pairs have
    phases p and 1 - p, their register laws are mirror images, and each law
    sums to one, so the two members' positive-bin masses (bins 1 .. k/2 - 1)
    add up to 1 - F(k p) - F(k p - k/2), F the Fejer kernel.
    """
    if q1 < 1:
        raise ValueError("q1 must be at least 1")
    w, v = np.linalg.eigh(_hermitian_block(be))
    if np.max(np.abs(w)) * t >= 2.0 * np.pi:
        raise ValueError("phase wraparound: |eigenvalue| * t reaches 2*pi")

    log = cost_log if cost_log is not None else resources.CostLog()
    log.charge("qpe_runs", 1.0)
    log.charge("qpe_controlled_queries", float((1 << q1) - 1))

    phases_all = (w * t / (2.0 * np.pi)) % 1.0
    if not dilated:
        return PhaseEstimationResult(
            q1=q1, t=t, eigenvalues=w, eigenvectors=_fix_vector_signs(v),
            phases=phases_all,
        )

    two_m = w.shape[0]
    half = two_m // 2
    positive = np.nonzero(w > 0)[0]
    # eigh sorts ascending, so pair i is (w[half + i], w[half - 1 - i])
    pair_sums = w[half:] + w[half - 1 :: -1]
    if positive.size != half or np.any(np.abs(pair_sums) > 1e-9 * np.max(np.abs(w))):
        raise ValueError("dilated operator does not split into +/- pairs; is E singular?")
    flagged = np.linalg.norm(v[half:, :], axis=0) ** 2
    pair_flag = 0.5 * (flagged[half:] ** 2 + flagged[half - 1 :: -1] ** 2)
    k = 1 << q1
    kp = k * phases_all[half:]
    pair_posmass = 1.0 - _fejer_kernel(kp, k) - _fejer_kernel(kp - k // 2, k)
    success = float(((1.0 / two_m) * pair_flag * pair_posmass).sum())
    log.charge("qpe_branch_amplification_iterations", resources.grover_iterations(success))

    sub = v[half:, positive]
    norms = np.linalg.norm(sub, axis=0)
    vectors = _fix_vector_signs(sub / norms)
    return PhaseEstimationResult(
        q1=q1, t=t, eigenvalues=w[positive], eigenvectors=vectors,
        phases=phases_all[positive], dilated=True, success_probability=success,
    )


def _threshold_search(candidates: list, total: int, largest: bool) -> tuple:
    """Deterministic expected-value run of the threshold-oracle search.

    Measurement outcomes are replaced by the lower median of the marked set;
    each round charges ceil(pi/4 * sqrt(1/p)) iterations at the exact marked
    mass p. Returns (winner, iterations).
    """
    key = (lambda c: (-c[0], c[1])) if largest else (lambda c: (c[0], c[1]))
    marked = sorted(candidates, key=key)
    iterations = 0
    winner = None
    while marked:
        p = len(marked) / total
        iterations += resources.grover_iterations(p)
        winner = marked[(len(marked) - 1) // 2]
        marked = [c for c in marked if key(c) < key(winner)]
    return winner, iterations


def find_extreme_eigenvalues(
    per: PhaseEstimationResult,
    m: int,
    direction: str = "smallest",
    cost_log: resources.CostLog | None = None,
) -> EigenSolution:
    """Threshold-oracle extraction of the m extreme binned eigenvalues.

    Repeats the simulated minimum/maximum search m times, excluding values
    already found, with ties broken by eigenvector index. If the best
    remaining bin equals the last extracted one the cut is flagged degenerate
    and the returned vectors only span a defensible subspace.
    """
    if direction not in ("smallest", "largest"):
        raise ValueError("direction must be 'smallest' or 'largest'")
    n = per.n_pairs
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= {n}")
    log = cost_log if cost_log is not None else resources.CostLog()

    bins_ = per.dominant_bins()
    remaining = [(int(bins_[j]), j) for j in range(n)]
    chosen: list[tuple[int, int]] = []
    total_iters = 0
    for _ in range(m):
        winner, iters = _threshold_search(remaining, n, largest=direction == "largest")
        total_iters += iters
        chosen.append(winner)
        remaining.remove(winner)
    log.charge("minfind_grover_iterations", float(total_iters))
    log.charge("minfind_invocations", float(m))

    degenerate = bool(remaining) and any(c[0] == chosen[-1][0] for c in remaining)
    idx = [c[1] for c in chosen]
    estimates = per.estimate_for_register(np.array([c[0] for c in chosen], dtype=float))
    # C order, not the Fortran order of column indexing, keeps the bits of later products
    return EigenSolution(
        eigenvalues=np.asarray(estimates, dtype=float),
        eigenvectors=np.ascontiguousarray(per.eigenvectors[:, idx]),
        direction=direction,
        route="quantum-binned",
        degenerate_cut=degenerate,
    )


@dataclass(frozen=True)
class InnerProductTable:
    """Estimates of (x_i . v_j)^2 / sqrt(m) with the noise model used."""

    values: np.ndarray
    eps2: float
    mode: str


def recommended_eps2(ds: Dataset, m: int, eps_target: float) -> float:
    """Estimation accuracy that keeps the readout error within eps_target.

    The square-root readout amplifies estimation noise near vanishing
    entries, so the budget scales with eps_target**2 rather than eps_target.
    """
    max_norm2 = float(np.max(ds.row_norms) ** 2)
    return eps_target**2 / (math.sqrt(m) * max(max_norm2, 1e-300))


# register offsets around round(k * theta) that an amplitude estimate is
# drawn from, the draws whose median is one estimate, and the bytes of one
# window-wide float array per row block of the batched draw
_AE_WINDOW = np.arange(-64, 65)
_AE_DRAWS = 9
_AE_BLOCK_BYTES = 2**17


def _amplitude_estimation_draws(
    values: np.ndarray, eps2: float, rng: np.random.Generator
) -> np.ndarray:
    """Seeded draws from an amplitude estimator's register law, one per value (1-D).

    The raw register distribution has heavy tails, so each estimate is the
    median of nine independent draws (the usual confidence amplification).
    Rows are evaluated in blocks of at most _AE_BLOCK_BYTES per window-wide
    array. Each draw is the inverse-CDF lookup ``rng.choice(window, 9, p=probs)``
    makes (normalised cumsum, ``searchsorted(side="right")`` of ``rng.random``),
    with uniforms taken in row order, so the values and the generator's state
    equal those of one ``choice`` call per value.
    """
    if np.isnan(values).any():
        raise ValueError("cannot estimate a NaN amplitude")
    bits = min(max(int(math.ceil(math.log2(1.0 / eps2))) + 4, 4), 26)
    k = 1 << bits
    roots = np.sqrt(np.clip(values, 0.0, 1.0))
    out = np.empty(values.size)
    rows = max(1, _AE_BLOCK_BYTES // (8 * _AE_WINDOW.size))
    for s0 in range(0, values.size, rows):
        # libm's asin: numpy's SIMD arcsin differs from it in the last bit on some inputs
        block = roots[s0 : s0 + rows].tolist()
        th = np.fromiter(map(math.asin, block), float, count=len(block))[:, None] / math.pi
        window = np.rint(th * k).astype(np.int64) + _AE_WINDOW
        probs = _fejer_kernel(k * th - window, k)
        probs /= probs.sum(axis=1, keepdims=True)
        # the checks Generator.choice makes on each p
        off_one = np.abs(probs.sum(axis=1) - 1.0) > np.sqrt(np.finfo(float).eps)
        if not np.isfinite(probs).all() or (probs < 0).any() or off_one.any():
            raise ValueError("register probabilities are not a distribution")
        cdf = probs.cumsum(axis=1)
        cdf = cdf / cdf[:, -1:]
        u = rng.random((th.shape[0], _AE_DRAWS))
        idx = (cdf[:, None, :] <= u[:, :, None]).sum(axis=2)
        drawn = np.take_along_axis(window, idx, axis=1)
        est = np.sin(np.pi * (drawn % k) / k) ** 2
        out[s0 : s0 + rows] = np.median(est, axis=1)
    return out


def estimate_inner_products(
    ds: Dataset,
    sol: EigenSolution,
    eps2: float,
    mode: str = "deterministic",
    rng: np.random.Generator | None = None,
    cost_log: resources.CostLog | None = None,
) -> InnerProductTable:
    """Parallel estimation of (x_i . v_j)^2 / sqrt(m) for all (i, j).

    Deterministic mode perturbs every exact value by the worst-case signed
    bound eps2/2 (positive, so squared readouts stay valid); sampled mode
    draws each estimate from a seeded amplitude-estimation register law, all
    N*m entries in one batched draw (``_amplitude_estimation_draws``).
    """
    if eps2 <= 0:
        raise ValueError("eps2 must be positive")
    if mode not in ("deterministic", "sampled"):
        raise ValueError("mode must be 'deterministic' or 'sampled'")
    m = sol.m
    dim = sol.eigenvectors.shape[0]
    exact = (ds.normalized_rows() @ sol.eigenvectors) ** 2 / math.sqrt(m)

    log = cost_log if cost_log is not None else resources.CostLog()
    # uniform probe weights put exactly m of dim equal branches in the target
    projection_mass = m / dim
    log.charge("step3_amplification_iterations", resources.grover_iterations(projection_mass))
    log.charge("step3_ae_repetitions", float(math.ceil(1.0 / eps2)))
    log.charge("o1_queries", 1.0)
    log.charge("o2_queries", 2.0)
    log.charge("cu_index_writes", float(m))

    if mode == "deterministic":
        noisy = exact + eps2 / 2.0
    else:
        gen = rng if rng is not None else np.random.default_rng(0)
        noisy = _amplitude_estimation_draws(exact.ravel(), eps2, gen).reshape(exact.shape)
    return InnerProductTable(values=noisy, eps2=eps2, mode=mode)


@dataclass(frozen=True)
class DigitalState:
    """Fixed-point readout table of the compressed dataset.

    The modeled state stores each signed value in a q2-bit register behind
    uniform amplitudes 1/sqrt(N*m); ``epsilon_total`` certifies the per-entry
    deviation from the exact projected values.
    """

    entries: np.ndarray
    epsilon_total: float
    eps2: float
    anchor_index: int | None = None


@dataclass(frozen=True)
class AnalogState:
    """Amplitude-encoded compressed dataset with its fidelity to the target."""

    amplitudes: np.ndarray
    fidelity_vs_classical: float
    anchor_index: int


def _finite_shot_overlap(values, shots: int, gen: np.random.Generator):
    """Seeded finite-shot estimate of overlaps from their test's P(1) = (1 - x)/2."""
    p1 = np.clip((1.0 - values) / 2.0, 0.0, 1.0)
    return 1.0 - 2.0 * gen.binomial(shots, p1) / shots


def hadamard_test(
    prep_a: np.ndarray,
    prep_b: np.ndarray,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Re<psi|phi> between the states the two preparations produce.

    Computed from the exact acceptance probability P(1) = (1 - Re<psi|phi>)/2,
    optionally replaced by a seeded finite-shot Bernoulli estimate.
    """
    psi = np.asarray(prep_a)[:, 0]
    phi = np.asarray(prep_b)[:, 0]
    if psi.shape != phi.shape:
        raise ValueError("preparations act on different dimensions")
    overlap = complex(np.vdot(psi, phi)).real
    if shots is not None:
        gen = rng if rng is not None else np.random.default_rng(0)
        overlap = float(_finite_shot_overlap(overlap, shots, gen))
    return overlap


def _draw_anchor(ds: Dataset, vectors: np.ndarray, seed: int) -> tuple[int, np.ndarray]:
    """Seeded anchor-sample draw with all eigenvector overlaps above the floor."""
    gen = np.random.default_rng(seed)
    order = gen.permutation(ds.n_samples)
    rows = ds.normalized_rows()
    for idx in order:
        xi = rows[idx] @ vectors
        if np.all(np.abs(xi) > ANCHOR_OVERLAP_FLOOR):
            return int(idx), xi
    raise ValueError("no anchor sample has sufficient overlap with every eigenvector")


def _anchor_signs(
    ds: Dataset,
    sol: EigenSolution,
    seed: int,
    mode: str,
    shots: int,
) -> tuple[np.ndarray, int]:
    """Per-entry sign recovery through anchored overlap tests.

    Each sign is the product of two doubled-register test outcomes, one
    against the sample and one against the column-convention vector (the
    dataset mean direction); the unknown anchor overlap cancels in the
    product, pinning signs to the nonnegative-column-sum convention.
    """
    vectors = sol.eigenvectors
    anchor_idx, xi = _draw_anchor(ds, vectors, seed)
    rows = ds.normalized_rows()
    g = ds.X.sum(axis=0)
    g_norm = np.linalg.norm(g)
    if g_norm < 1e-12:
        signs = np.ones((ds.n_samples, sol.m))
        return signs, anchor_idx
    g_hat = g / g_norm

    sample_products = (rows @ vectors) * xi[None, :]
    reference_products = (g_hat @ vectors) * xi
    if mode == "sampled":
        # each product is the outcome of a finite-shot doubled-register test
        gen = np.random.default_rng(seed + 1)
        sample_products = _finite_shot_overlap(sample_products, shots, gen)
        reference_products = _finite_shot_overlap(reference_products, shots, gen)
    signs = np.sign(sample_products) * np.sign(reference_products)[None, :]
    signs[signs == 0] = 1.0
    return signs, anchor_idx


def assemble_digital_state(
    ds: Dataset,
    sol: EigenSolution,
    table: InnerProductTable,
    q2: int = 32,
    int_bits: int = 7,
    sign_source: str = "anchor",
    reference_signs: np.ndarray | None = None,
    seed: int = 0,
    mode: str = "deterministic",
    shots: int = 100000,
    extra_error: float = 0.0,
    cost_log: resources.CostLog | None = None,
) -> DigitalState:
    """Fixed-point assembly of the digital output table.

    Applies the norm lookup, two multiply-accumulate stages and the square
    root readout to each estimated squared overlap, restores signs per
    ``sign_source``, and quantizes into a (1 sign, int_bits, frac_bits)
    fixed-point format. ``epsilon_total`` is the exact worst-case propagation
    of the estimation bound through the square root plus one quantization
    step (and any caller-supplied encoding allowance).
    """
    frac_bits = q2 - 1 - int_bits
    if frac_bits < 1:
        raise ValueError("q2 leaves no fraction bits")
    if sign_source not in ("anchor", "reference"):
        raise ValueError("sign_source must be 'anchor' or 'reference'")
    m = sol.m
    log = cost_log if cost_log is not None else resources.CostLog()
    log.charge("o1_queries", 1.0)
    log.charge("qma_multiplies", 2.0)

    norms2 = ds.row_norms**2
    squared = np.sqrt(m) * table.values * norms2[:, None]
    magnitudes = np.sqrt(np.clip(squared, 0.0, None))

    if sign_source == "reference":
        if reference_signs is None:
            raise ValueError("reference sign source needs a reference table")
        signs = np.sign(reference_signs)
        signs[signs == 0] = 1.0
        anchor_idx = None
    else:
        signs, anchor_idx = _anchor_signs(ds, sol, seed, mode, shots)
        log.charge("hadamard_sign_tests", float(ds.n_samples * m + m))

    values = signs * magnitudes
    max_mag = float(np.max(np.abs(values))) if values.size else 0.0
    if max_mag >= float(1 << int_bits):
        required = int(math.floor(math.log2(max_mag))) + 1
        raise FixedPointOverflow(max_mag, required)
    scale = float(1 << frac_bits)
    quantized = np.round(values * scale) / scale

    noise_bound = table.eps2 / 2.0 if table.mode == "deterministic" else table.eps2
    delta = math.sqrt(m) * norms2[:, None] * noise_bound
    upper = np.sqrt(magnitudes**2 + delta) - magnitudes
    lower = magnitudes - np.sqrt(np.clip(magnitudes**2 - delta, 0.0, None))
    est_error = float(np.max(np.maximum(upper, lower))) if values.size else 0.0
    epsilon_total = est_error + 2.0 ** (-frac_bits) + extra_error

    return DigitalState(
        entries=quantized,
        epsilon_total=epsilon_total,
        eps2=table.eps2,
        anchor_index=anchor_idx,
    )


def assemble_analog_state(
    ds: Dataset,
    sol: EigenSolution,
    seed: int = 0,
    mode: str = "deterministic",
    shots: int = 100000,
    cost_log: resources.CostLog | None = None,
) -> AnalogState:
    """Amplitude-encoded output through the anchored rotation circuit.

    An anchor sample whose overlaps with every selected eigenvector clear the
    floor supplies the rotation denominators; conditional rotations scaled by
    the smallest estimated overlap, inverse anchor preparation and flagged
    amplitude amplification leave amplitudes proportional to the projected
    values, exactly so when the overlap estimates are exact.
    """
    signed = apply_dataset_signs(sol, ds.X)
    vectors = signed.eigenvectors
    anchor_idx, xi = _draw_anchor(ds, vectors, seed)

    if mode == "sampled":
        gen = np.random.default_rng(seed + 17)
        anchor_prep = _householder_prep(ds.normalized_rows()[anchor_idx])
        xi_hat = np.array([
            hadamard_test(anchor_prep, _householder_prep(vectors[:, j]), shots=shots, rng=gen)
            for j in range(len(xi))
        ])
    else:
        xi_hat = xi.copy()

    floor = float(np.min(np.abs(xi_hat)))
    if floor <= 0.0:
        raise ValueError("an estimated anchor overlap vanished; redraw with another seed")

    y = ds.X @ vectors
    distortion = xi * (floor / xi_hat)
    unnormalized = y * distortion[None, :]
    norm = np.linalg.norm(unnormalized)
    if norm <= 0:
        raise ValueError("analog amplitudes vanished")
    amplitudes = unnormalized / norm

    x_fro = np.linalg.norm(ds.X)
    success = float(norm**2 / x_fro**2)
    log = cost_log if cost_log is not None else resources.CostLog()
    log.charge("analog_amplification_iterations", resources.grover_iterations(min(success, 1.0)))
    log.charge("qpe_runs", 1.0)

    target = y / np.linalg.norm(y)
    fidelity = float(abs(np.sum(amplitudes * target)))
    return AnalogState(
        amplitudes=amplitudes,
        fidelity_vs_classical=fidelity,
        anchor_index=anchor_idx,
    )
