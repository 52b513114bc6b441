import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_blobs, random_hermitian_in_window
from qpe_circuit import mass_table, mass_within, qpe_register_distribution
from qmedr.block_encoding import be_hermitian_dilation, block_encode_dense
from qmedr.classical import EigenSolution, solve_medr
from qmedr.embedding import Dataset, build_problem
from qmedr.linalg import spectral_norm
from qmedr.quantum_sim import (
    FixedPointOverflow,
    PhaseEstimationResult,
    assemble_analog_state,
    assemble_digital_state,
    estimate_inner_products,
    find_extreme_eigenvalues,
    hadamard_test,
    recommended_eps2,
    simulate_qpe,
)
from qmedr import datasets, pipeline, quantum_sim, resources


def basis_solution(dim, cols, direction="smallest"):
    return EigenSolution(
        eigenvalues=np.ones(len(cols)),
        eigenvectors=np.eye(dim)[:, cols],
        direction=direction,
        route="symmetric",
        degenerate_cut=False,
    )


class TestRegisterDistribution:
    def test_exact_phase_single_bin(self):
        for q1 in (3, 6):
            k = 5 % (1 << q1)
            dist = qpe_register_distribution(k / (1 << q1), q1)
            assert dist[k] == pytest.approx(1.0)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_generic_phase_normalized(self):
        dist = qpe_register_distribution(0.2137, 8)
        assert dist.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.argmax(dist) == round(0.2137 * 256)


class TestSimulateQpe:
    def test_exactly_representable_phases(self):
        q1 = 5
        t = 1.0
        ks = np.array([3, 7, 11, 14])
        lam = ks * (2 * np.pi / t) / (1 << q1)
        be = block_encode_dense(np.diag(lam), alpha=float(lam.max()) + 0.1)
        per = simulate_qpe(be, q1, t)
        doms = np.sort(per.dominant_bins())
        assert np.array_equal(doms, np.sort(ks))
        for j in range(4):
            assert mass_table(per)[j].max() == pytest.approx(1.0)

    def test_register_sizing_guarantee(self, rng):
        # q1 = n + ceil(log2(2 + 1/eta)) gives n-bit accuracy w.p. >= 1 - eta
        n, eta = 4, 0.1
        q1 = n + int(np.ceil(np.log2(2 + 1 / eta)))
        h = random_hermitian_in_window(rng, 4, 2.0)
        be = block_encode_dense(h, alpha=1.0)
        per = simulate_qpe(be, q1, t=2.0)
        for j in range(per.n_pairs):
            assert mass_within(per, j, n) >= 1 - eta

    def test_equal_pair_single_bin(self):
        # identical matrices make E the identity: every pair lands in the
        # register bin of phase t/2pi
        be = block_encode_dense(np.eye(2), alpha=1.0)
        t = 1.2
        per = simulate_qpe(be, 6, t)
        expected_bin = round((t / (2 * np.pi)) % 1.0 * 64)
        assert np.all(per.dominant_bins() == expected_bin)

    def test_total_mass_one(self, rng):
        h = random_hermitian_in_window(rng, 8, 5.0)
        per = simulate_qpe(block_encode_dense(h, alpha=1.0), 7, 2.5)
        assert mass_table(per).sum(axis=1).mean() == pytest.approx(1.0, abs=1e-9)

    def test_wraparound_rejected(self):
        be = block_encode_dense(np.diag([1.0, 0.5]), alpha=1.0)
        with pytest.raises(ValueError, match="wraparound"):
            simulate_qpe(be, 4, t=7.0)

    def test_non_hermitian_rejected(self, rng):
        a = rng.normal(size=(4, 4))
        a = 0.5 * a / spectral_norm(a)
        be = block_encode_dense(a, alpha=1.0)
        with pytest.raises(ValueError, match="dilate"):
            simulate_qpe(be, 4, t=1.0)

    def test_dilated_branch(self, rng):
        a = rng.normal(size=(4, 4))
        a = 0.5 * a / spectral_norm(a) + 0.8 * np.eye(4)
        be = block_encode_dense(a, alpha=spectral_norm(a) + 0.1)
        dil = be_hermitian_dilation(be)
        t = np.pi / (spectral_norm(a) + 0.2)
        log = resources.CostLog()
        per = simulate_qpe(dil, 9, t, dilated=True, cost_log=log)
        sv = np.sort(np.linalg.svd(a, compute_uv=False))
        assert per.n_pairs == 4
        assert np.allclose(np.sort(per.eigenvalues), sv, atol=1e-10)
        assert per.success_probability == pytest.approx(1.0 / 8.0, abs=1e-3)
        assert log["qpe_branch_amplification_iterations"] >= 1
        # retained vectors are right singular vectors (svd orders descending)
        _, svals, vt = np.linalg.svd(a)
        for j in range(4):
            i = int(np.argmin(np.abs(svals[j] - per.eigenvalues)))
            overlap = abs(per.eigenvectors[:, i] @ vt[j])
            assert overlap >= 1 - 1e-9

    def test_complex_hermitian_input(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        h = 0.4 * h / spectral_norm(h) + 0.6 * np.eye(4)
        be = block_encode_dense(h, alpha=1.1)
        per = simulate_qpe(be, 8, t=2.0)
        w = np.linalg.eigvalsh(h)
        assert np.allclose(np.sort(per.eigenvalues), w, atol=1e-10)
        assert mass_table(per).sum(axis=1).mean() == pytest.approx(1.0, abs=1e-9)
        # eigenvectors diagonalize the complex operator
        for j in range(4):
            v = per.eigenvectors[:, j]
            assert np.linalg.norm(h @ v - per.eigenvalues[j] * v) <= 1e-9

    def test_bins_listing(self, rng):
        # the register bins above 1e-6 hold nearly all the mass, and each
        # dominant bin's estimate lies within half a bin of its eigenvalue
        h = random_hermitian_in_window(rng, 4, 2.0)
        per = simulate_qpe(block_encode_dense(h, alpha=1.0), 5, 2.0)
        table = mass_table(per) / per.n_pairs
        assert table[table > 1e-6].sum() == pytest.approx(1.0, abs=1e-3)
        width = 2.0 * np.pi / (per.t * per.register_size)
        estimates = per.estimate_for_register(per.dominant_bins())
        assert np.all(np.abs(estimates - per.eigenvalues) <= 0.5 * width + 1e-12)


def _per_with_phases(phases, q1):
    n = len(phases)
    return PhaseEstimationResult(
        q1=q1, t=2.0 * np.pi, eigenvalues=np.asarray(phases, dtype=float), eigenvectors=np.eye(n),
        phases=np.asarray(phases, dtype=float),
    )


def _forbid_register_tables(monkeypatch, q1):
    """Make quantum_sim._fejer_kernel raise on any argument with an axis of 2**q1 or more."""
    kernel = quantum_sim._fejer_kernel

    def guarded(*args):
        if any(max(np.shape(a), default=0) >= 1 << q1 for a in args):
            raise AssertionError("register law built")
        return kernel(*args)

    monkeypatch.setattr(quantum_sim, "_fejer_kernel", guarded)


def _dense_success(dil, q1, t):
    """Positive-branch mass summed over the full pairs x 2^q1 register table."""
    w, v = np.linalg.eigh(dil.extracted().real)
    k = 1 << q1
    table = np.stack([qpe_register_distribution(p, q1) for p in (w * t / (2 * np.pi)) % 1.0])
    flagged = np.linalg.norm(v[w.shape[0] // 2 :, :], axis=0) ** 2
    return float(((flagged**2) * table[:, 1 : k // 2].sum(axis=1)).sum() / w.shape[0])


class TestTableFreeQpe:
    @pytest.mark.parametrize("q1", range(1, 17))
    def test_window_argmax_matches_dense_row(self, q1):
        k = 1 << q1
        rng = np.random.default_rng(q1)
        edges = [0.0, 0.5, 1.0]
        phases = np.concatenate([
            rng.random(40),
            np.arange(min(k, 8)) / k,                      # exact bins
            (np.arange(min(k, 8)) + 0.5) / k,              # half-bins
            [e + d for e in edges for d in (-1e-12, 1e-12)],
            [np.nextafter(1.0, 0.0), (k - 0.5) / k],        # wrap: bins k-1 and 0 compete
        ])
        phases = phases[(phases >= 0.0) & (phases < 1.0)]
        per = _per_with_phases(phases, q1)
        dense = np.array([np.argmax(qpe_register_distribution(p, q1)) for p in per.phases])
        assert np.array_equal(per.dominant_bins(), dense)

    def test_mass_within_matches_dense_mask(self):
        rng = np.random.default_rng(7)
        for q1 in (3, 8, 12):
            k = 1 << q1
            per = _per_with_phases(np.concatenate([rng.random(10), [0.0, 1e-13, 1 - 1e-13]]), q1)
            for j in range(per.n_pairs):
                dist = np.abs(np.arange(k) / k - per.phases[j])
                dist = np.minimum(dist, 1.0 - dist)
                law = qpe_register_distribution(per.phases[j], q1)
                for bits in range(1, q1 + 1):
                    assert mass_within(per, j, bits) == float(law[dist < 2.0 ** (-bits)].sum())

    def test_pair_identity_matches_dense_success(self):
        # (at q1 = 1 the positive bins 1 .. k/2 - 1 are empty)
        rng = np.random.default_rng(11)
        for q1 in range(2, 13):
            dim = int(rng.choice([2, 4, 8]))
            a = rng.normal(size=(dim, dim))
            a = 0.5 * a / spectral_norm(a) + rng.uniform(0.3, 0.9) * np.eye(dim)
            dil = be_hermitian_dilation(block_encode_dense(a, alpha=spectral_norm(a) + 0.1))
            t = rng.uniform(0.5, 1.0) * np.pi / (spectral_norm(a) + 0.2)
            per = simulate_qpe(dil, q1, t, dilated=True)
            assert abs(per.success_probability - _dense_success(dil, q1, t)) <= 1e-14

    def test_unpaired_spectrum_rejected(self):
        # one positive and one negative eigenvalue, but not a +/- pair
        be = block_encode_dense(np.diag([0.5, -0.3]), alpha=1.0)
        with pytest.raises(ValueError, match="pairs"):
            simulate_qpe(be, 6, t=2.0, dilated=True)

    def test_large_register_needs_no_table(self, monkeypatch):
        _forbid_register_tables(monkeypatch, 40)
        be = block_encode_dense(np.diag([0.2, 0.7]), alpha=1.0)
        per = simulate_qpe(be, 40, t=2.0)
        k = 1 << 40
        assert np.array_equal(per.dominant_bins(), np.rint(k * per.phases).astype(np.int64))
        assert mass_within(per, 0, 20) > 0.99

    @pytest.mark.parametrize("variant", pipeline.VARIANTS)
    def test_full_report_builds_no_register_law(self, variant, monkeypatch):
        cfg = pipeline.RunConfig(variant=variant, m=2, k=4, analog=True)
        _forbid_register_tables(monkeypatch, cfg.q1)
        doc = pipeline.full_report(datasets.synth_blobs(32, 16, 2, seed=0), cfg)
        assert doc["compare"]["passed"]


class TestFindExtreme:
    def _per_for(self, spectrum, q1=9, t=2.0):
        be = block_encode_dense(np.diag(spectrum), alpha=float(np.max(np.abs(spectrum))) + 0.1)
        return simulate_qpe(be, q1, t)

    def test_smallest_two(self):
        per = self._per_for(np.array([0.9, 0.2, 0.5, 0.7]))
        sol = find_extreme_eigenvalues(per, 2, "smallest")
        assert np.allclose(np.sort(sol.eigenvalues), [0.2, 0.5], atol=2e-2)
        # eigenvectors are the matching standard basis vectors
        assert abs(sol.eigenvectors[1, 0]) == pytest.approx(1.0)
        assert abs(sol.eigenvectors[2, 1]) == pytest.approx(1.0)

    def test_largest_one(self):
        per = self._per_for(np.array([0.9, 0.2, 0.5, 0.7]))
        sol = find_extreme_eigenvalues(per, 1, "largest")
        assert sol.eigenvalues[0] == pytest.approx(0.9, abs=2e-2)
        assert abs(sol.eigenvectors[0, 0]) == pytest.approx(1.0)

    def test_exact_extraction_property(self, rng):
        # distinct-bin spectra are recovered exactly, in order
        for _ in range(15):
            dim = int(rng.choice([4, 8]))
            # spacing of 2/128 keeps the register bins distinct at q1 = 8
            lam = np.sort(rng.choice(np.arange(1, 60), size=dim, replace=False)) * 2 / 128.0
            per = self._per_for(lam, q1=8, t=2.0)
            m = int(rng.integers(1, dim))
            sol = find_extreme_eigenvalues(per, m, "smallest")
            assert not sol.degenerate_cut
            for j in range(m):
                assert abs(per.eigenvectors[:, j] @ sol.eigenvectors[:, j]) == pytest.approx(1.0)

    def test_degenerate_cut_flagged(self):
        per = self._per_for(np.array([0.2, 0.2, 0.7, 0.9]))
        sol = find_extreme_eigenvalues(per, 1, "smallest")
        assert sol.degenerate_cut

    def test_iteration_scaling(self):
        # expected search iterations grow like sqrt(dim)
        normalized = {}
        for dim in (4, 8, 16):
            lam = (np.arange(dim) + 1.0) / (dim + 1.0)
            per = self._per_for(lam, q1=10, t=2.0)
            log = resources.CostLog()
            find_extreme_eigenvalues(per, 1, "smallest", cost_log=log)
            normalized[dim] = log["minfind_grover_iterations"] / np.sqrt(dim)
        vals = list(normalized.values())
        assert max(vals) / min(vals) <= 2.0

    def test_m_bounds(self):
        per = self._per_for(np.array([0.3, 0.6]))
        with pytest.raises(ValueError):
            find_extreme_eigenvalues(per, 3, "smallest")


class TestInnerProducts:
    def test_perfect_overlap(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0]])
        ds = Dataset(X=x)
        sol = basis_solution(2, [0])
        table = estimate_inner_products(ds, sol, eps2=1e-6)
        assert table.values[0, 0] - 1e-6 / 2 == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_m_normalization(self):
        # with m = 2 selected directions a perfect overlap reads 1/sqrt(2)
        x = np.array([[2.0, 0.0], [0.0, 1.0]])
        ds = Dataset(X=x)
        sol = basis_solution(2, [0, 1])
        table = estimate_inner_products(ds, sol, eps2=1e-8)
        assert table.values[0, 0] - 1e-8 / 2 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_orthogonal_pair(self):
        ds = Dataset(X=np.array([[0.0, 3.0], [1.0, 0.0]]))
        sol = basis_solution(2, [0])
        table = estimate_inner_products(ds, sol, eps2=1e-6)
        assert table.values[0, 0] == pytest.approx(1e-6 / 2, abs=1e-15)

    def test_blob_accuracy(self):
        ds = make_blobs(seed=13, n=16, m=8)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        table = estimate_inner_products(ds, sol, eps2=1e-3)
        exact = (ds.normalized_rows() @ sol.eigenvectors) ** 2 / np.sqrt(2)
        assert np.max(np.abs(table.values - exact)) <= 1e-3

    def test_sampled_mode_bounded(self):
        ds = make_blobs(seed=13, n=8, m=4)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        rng = np.random.default_rng(7)
        table = estimate_inner_products(ds, sol, eps2=1e-3, mode="sampled", rng=rng)
        exact = (ds.normalized_rows() @ sol.eigenvectors) ** 2 / np.sqrt(2)
        assert np.max(np.abs(table.values - exact)) <= 1e-3

    def test_rejects_bad_eps2(self):
        ds = make_blobs(seed=1, n=6, m=3)
        sol = basis_solution(3, [0])
        with pytest.raises(ValueError):
            estimate_inner_products(ds, sol, eps2=0.0)

    def test_charges_costs(self):
        ds = make_blobs(seed=1, n=6, m=4)
        sol = basis_solution(4, [0, 1])
        log = resources.CostLog()
        estimate_inner_products(ds, sol, eps2=1e-4, cost_log=log)
        assert log["step3_amplification_iterations"] == resources.grover_iterations(0.5)
        assert log["step3_ae_repetitions"] == 1e4


def _per_entry_draws(values, eps2, rng):
    """One ``rng.choice`` register draw per value, as sampled mode once made them."""
    out = []
    for value in values:
        bits = min(max(int(math.ceil(math.log2(1.0 / eps2))) + 4, 4), 26)
        k = 1 << bits
        theta = math.asin(math.sqrt(min(max(float(value), 0.0), 1.0))) / math.pi
        center = int(round(theta * k))
        window = np.arange(center - 64, center + 65)
        probs = quantum_sim._fejer_kernel(k * theta - window, k)
        probs /= probs.sum()
        drawn = rng.choice(window, size=9, p=probs)
        out.append(float(np.median(np.sin(np.pi * (drawn % k) / k) ** 2)))
    return np.array(out)


class TestBatchedAmplitudeDraws:
    EDGES = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5, 1e-12, 2.0, -1e-3]

    @staticmethod
    def assert_same_draws(values, eps2, seed):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _per_entry_draws(values, eps2, old)
        got = quantum_sim._amplitude_estimation_draws(np.asarray(values), eps2, new)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert new.random() == old.random()

    @pytest.mark.parametrize("eps2", [1e-9, 1e-4, 1e-1])
    def test_edge_values_match_per_entry_draws(self, eps2):
        self.assert_same_draws(self.EDGES, eps2, seed=3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_short_inputs_match_per_entry_draws(self, n):
        self.assert_same_draws(np.random.default_rng(n).random(n), 1e-5, seed=n)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_block_boundaries_match_per_entry_draws(self, monkeypatch, rows):
        monkeypatch.setattr(quantum_sim, "_AE_BLOCK_BYTES", rows * 8 * quantum_sim._AE_WINDOW.size)
        # 23 values: the 7-row blocks end in a partial block of 2
        values = np.random.default_rng(5).random(23) ** 4
        values[:4] = self.EDGES[:4]
        self.assert_same_draws(values, 3e-7, seed=11)

    def test_random_values_match_per_entry_draws(self):
        rows = quantum_sim._AE_BLOCK_BYTES // (8 * quantum_sim._AE_WINDOW.size)
        values = np.random.default_rng(6).random(2 * rows + 3) ** 6
        self.assert_same_draws(values, 2e-6, seed=12)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            quantum_sim._amplitude_estimation_draws(
                np.array([0.2, np.nan]), 1e-4, np.random.default_rng(0)
            )

    def test_peak_memory_is_blocked(self):
        # evaluated in one piece, the window arrays take about 10 KB per entry
        # (over 600 MiB here)
        values = np.random.default_rng(0).random(65536)
        tracemalloc.start()
        try:
            quantum_sim._amplitude_estimation_draws(values, 1e-4, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDigitalAssembly:
    def test_standard_basis_recovers_columns(self):
        rng = np.random.default_rng(4)
        x = np.abs(rng.normal(size=(6, 4))) + 0.1  # positive column sums
        ds = Dataset(X=x)
        sol = basis_solution(4, [0, 1])
        table = estimate_inner_products(ds, sol, eps2=1e-15)
        digital = assemble_digital_state(ds, sol, table)
        assert np.max(np.abs(digital.entries - x[:, :2])) <= 1e-6

    def test_error_formula_first_order(self):
        # finite-difference check of the propagation through the readout chain
        m = 4
        norm2 = 2.3
        y = 1.0
        t_exact = y**2 / (np.sqrt(m) * norm2)
        delta = 1e-6
        readout = lambda t: np.sqrt(np.sqrt(m) * t * norm2)
        fd = abs(readout(t_exact + delta) - readout(t_exact))
        formula = np.sqrt(m) * norm2 * delta / (2 * y)
        assert fd == pytest.approx(formula, rel=1e-4)

    def test_certified_bound_covers_deviation(self):
        ds = make_blobs(seed=13, n=16, m=8)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        eps2 = recommended_eps2(ds, 2, 1e-2)
        table = estimate_inner_products(ds, sol, eps2)
        digital = assemble_digital_state(
            ds, sol, table, sign_source="reference",
            reference_signs=ds.X @ sol.eigenvectors,
        )
        exact = ds.X @ sol.eigenvectors
        assert np.max(np.abs(digital.entries - exact)) <= digital.epsilon_total
        assert digital.epsilon_total <= 1e-2

    def test_overflow_reports_required_bits(self):
        ds = Dataset(X=300.0 * np.eye(4) + 1.0)
        sol = basis_solution(4, [0])
        table = estimate_inner_products(ds, sol, eps2=1e-12)
        with pytest.raises(FixedPointOverflow) as info:
            assemble_digital_state(ds, sol, table, q2=16, int_bits=7)
        assert info.value.required_int_bits == 9  # max magnitude ~301 needs 9 bits

    def test_reference_signs_copied(self):
        ds = make_blobs(seed=5, n=12, m=8)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        y_ref = ds.X @ sol.eigenvectors
        table = estimate_inner_products(ds, sol, recommended_eps2(ds, 2, 1e-2))
        digital = assemble_digital_state(
            ds, sol, table, sign_source="reference", reference_signs=y_ref,
        )
        mask = np.abs(y_ref) > digital.epsilon_total
        assert np.all(np.sign(digital.entries[mask]) == np.sign(y_ref[mask]))

    def test_anchor_signs_match_convention(self):
        ds = make_blobs(seed=13, n=16, m=8)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        from qmedr.classical import apply_dataset_signs

        signed = apply_dataset_signs(sol, ds.X)
        y_ref = ds.X @ signed.eigenvectors
        table = estimate_inner_products(ds, sol, recommended_eps2(ds, 2, 1e-2))
        digital = assemble_digital_state(ds, sol, table, sign_source="anchor")
        mask = np.abs(y_ref) > digital.epsilon_total
        assert np.all(np.sign(digital.entries[mask]) == np.sign(y_ref[mask]))


class TestAnalogAssembly:
    def test_single_sample_single_direction(self):
        ds = Dataset(X=np.array([[2.0, 0.0]]))
        sol = basis_solution(2, [0])
        state = assemble_analog_state(ds, sol)
        assert state.amplitudes.shape == (1, 1)
        assert abs(state.amplitudes[0, 0]) == pytest.approx(1.0)

    def test_standard_basis_amplitudes(self):
        rng = np.random.default_rng(8)
        x = np.abs(rng.normal(size=(5, 4))) + 0.1
        ds = Dataset(X=x)
        sol = basis_solution(4, [0, 1])
        state = assemble_analog_state(ds, sol)
        expected = x[:, :2] / np.linalg.norm(x[:, :2])
        assert np.allclose(np.abs(state.amplitudes), np.abs(expected), atol=1e-12)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_exact_estimates_unit_fidelity(self):
        ds = make_blobs(seed=13, n=12, m=6)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        state = assemble_analog_state(ds, sol, seed=2)
        assert state.fidelity_vs_classical >= 0.99

    def test_sampled_fidelity(self):
        ds = make_blobs(seed=13, n=12, m=6)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        state = assemble_analog_state(ds, sol, seed=2, mode="sampled", shots=100000)
        assert state.fidelity_vs_classical >= 0.95

    def test_normalization(self):
        ds = make_blobs(seed=3, n=10, m=5)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        state = assemble_analog_state(ds, sol, seed=0)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_anchor_skips_orthogonal_sample(self):
        x = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, -0.5, 0.0]])
        ds = Dataset(X=x)
        sol = basis_solution(3, [0, 1])
        state = assemble_analog_state(ds, sol, seed=0)
        assert state.anchor_index != 0  # row 0 has no overlap with e0/e1 plane


class TestEndToEndEquivalence:
    def test_fifty_seeded_datasets_within_certified_bound(self):
        # digital entries match the classical reference within epsilon_total
        # across variants, sizes and seeds (subspace-aligned when degenerate)
        from qmedr.pipeline import RunConfig, compare_outputs, run_classical, run_quantum

        variants = ("ELPP", "EUDP", "ENPE", "EDA")
        sizes = [(12, 4, 2), (16, 8, 2), (20, 8, 3), (24, 16, 4), (16, 4, 2)]
        cases = 0
        for seed in range(10):
            for vi, variant in enumerate(variants):
                n, m_feat, m_out = sizes[(seed + vi) % len(sizes)]
                if m_out > m_feat // 2:
                    m_out = 2
                ds = make_blobs(seed=1000 + seed * 7 + vi, n=n, m=m_feat)
                cfg = RunConfig(variant=variant, m=m_out, k=3, eps=1e-2, seed=seed)
                classical_out, _, _ = run_classical(ds, cfg)
                run = run_quantum(ds, cfg, reference=classical_out)
                result = compare_outputs(classical_out, run)
                assert result.passed, (
                    f"{variant} seed={seed} N={n} M={m_feat} m={m_out}: "
                    f"max={result.max_abs_error} bound={run.digital.epsilon_total} "
                    f"cluster={result.cluster_residual}"
                )
                cases += 1
                if cases >= 50:
                    return

    def test_blob_eigenvalues_match_classical_within_binning(self):
        # quantum eigenvalue estimates agree with the classical spectrum to
        # the advertised phase accuracy
        from qmedr.pipeline import EVOLUTION_NORM_BOUND, RunConfig, run_quantum

        ds = make_blobs(seed=13, n=16, m=8)
        cfg = RunConfig(variant="ELPP", m=2, k=3)
        run = run_quantum(ds, cfg)
        classical = solve_medr(run.problem, 2)
        t = np.pi / EVOLUTION_NORM_BOUND
        binning = 2.0 ** (-cfg.accuracy_bits) * (2 * np.pi / t)
        assert np.max(np.abs(np.sort(run.solution.eigenvalues)
                             - np.sort(classical.eigenvalues))) <= binning

    def test_small_sample_size_regime(self):
        # fewer samples than features: the raw matrices are singular, which is
        # exactly what the exponential reformulation plus preconditioning fixes
        from qmedr.pipeline import RunConfig, compare_outputs, run_classical, run_quantum

        ds = make_blobs(seed=77, n=8, m=16)
        for variant in ("ELPP", "EDA"):
            cfg = RunConfig(variant=variant, m=2, k=3, seed=3)
            classical_out, problem, _ = run_classical(ds, cfg)
            assert problem.dim == 16
            run = run_quantum(ds, cfg, reference=classical_out)
            result = compare_outputs(classical_out, run)
            assert result.passed, (
                f"{variant}: max={result.max_abs_error} bound={run.digital.epsilon_total} "
                f"cluster={result.cluster_residual} ambiguous={result.ambiguous_columns}"
            )

    def test_deterministic_mode_bit_reproducible(self):
        from qmedr.pipeline import RunConfig, run_quantum

        ds = make_blobs(seed=13, n=12, m=8)
        cfg = RunConfig(variant="ELPP", m=2, k=3, seed=11)
        a = run_quantum(ds, cfg)
        b = run_quantum(ds, cfg)
        assert np.array_equal(a.digital.entries, b.digital.entries)
        assert a.digital.epsilon_total == b.digital.epsilon_total

    def test_symmetric_route_without_dilation(self):
        # orthogonal data rows make S2 proportional to the identity, so the
        # exponential operator is symmetric and no embedding is needed
        from qmedr.pipeline import RunConfig, compare_outputs, run_classical, run_quantum

        ds = Dataset(X=2.0 * np.eye(4))
        cfg = RunConfig(variant="ELPP", m=1, k=3)  # complete graph: D is a multiple of I
        classical_out, _, _ = run_classical(ds, cfg)
        assert classical_out.solution.route == "symmetric"
        run = run_quantum(ds, cfg, reference=classical_out)
        assert not run.dilated
        result = compare_outputs(classical_out, run)
        assert result.passed

    def test_non_power_of_two_features_padded(self):
        # feature dimension 6 pads to 8; both pipelines solve the padded
        # problem so the comparison stays exact
        from qmedr.pipeline import RunConfig, compare_outputs, pad_features, run_classical, run_quantum

        ds = make_blobs(seed=5, n=16, m=6)
        padded, original = pad_features(ds)
        assert original == 6 and padded.n_features == 8
        assert np.allclose(padded.X[:, 6:], 0.0)
        cfg = RunConfig(variant="ELPP", m=2, k=3)
        classical_out, problem, _ = run_classical(ds, cfg)
        assert problem.dim == 8
        run = run_quantum(ds, cfg, reference=classical_out)
        result = compare_outputs(classical_out, run)
        assert result.passed


class TestHadamardTest:
    def test_identical_states(self):
        u = np.eye(4)
        est = hadamard_test(u, u)
        assert est == pytest.approx(1.0)
        assert (1.0 - est) / 2.0 == pytest.approx(0.0)  # P(1) = 0

    def test_orthogonal_states(self):
        u = np.eye(4)
        v = np.roll(np.eye(4), 1, axis=0)
        est = hadamard_test(u, v)
        assert est == pytest.approx(0.0)
        assert (1.0 - est) / 2.0 == pytest.approx(0.5)  # P(1) = 1/2

    def test_sampled(self):
        u = np.eye(2)
        rng = np.random.default_rng(0)
        est = hadamard_test(u, u, shots=10000, rng=rng)
        assert est == pytest.approx(1.0, abs=0.05)

    def test_doubled_register_confound(self):
        # preparing |v>|v> instead of |v> estimates <x|v><0|v>, not <x|v>
        rng = np.random.default_rng(6)
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        u_x = np.linalg.qr(np.column_stack([x, rng.normal(size=(4, 3))]))[0]
        u_x *= np.sign(u_x[:, 0] @ x)
        doubled = np.zeros((16, 16))
        doubled[:, 0] = np.kron(v, v)
        doubled[:, 1:] = np.linalg.qr(
            np.random.default_rng(1).normal(size=(16, 16)))[0][:, 1:]
        prep_x = np.kron(u_x, np.eye(4))
        est = hadamard_test(prep_x, doubled)
        assert est == pytest.approx((x @ v) * v[0], abs=1e-9)
        assert abs(est - x @ v) > 1e-3
