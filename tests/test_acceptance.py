"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figure of merit."""

import math
import time

import numpy as np
import pytest

from conftest import make_blobs, random_hermitian_in_window
from dense_reference import edge_similarity, laplacian, pairwise_sq_distances
from qpe_circuit import mass_table, mass_within
from qmedr import resources
from qmedr.block_encoding import (
    EXP_NORMALIZATION,
    be_exp,
    be_extract,
    be_hermitian_dilation,
    be_product,
    block_encode_dense,
)
from qmedr.classical import solve_medr
from qmedr.embedding import (
    build_problem,
    knn_graph,
    npe_weights,
    scatter_matrices,
)
from qmedr.linalg import expm, hermitian_eig, spectral_norm
from qmedr.pipeline import RunConfig, audit_ratios, compare_outputs, run_classical, run_quantum
from qmedr.quantum_sim import (
    assemble_analog_state,
    find_extreme_eigenvalues,
    hadamard_test,
    simulate_qpe,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_block_encoding_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        a = rng.normal(size=(dim, dim))
        if rng.random() < 0.3:
            a = a + 1j * rng.normal(size=(dim, dim))
        alpha = spectral_norm(a) * float(rng.uniform(1.0, 2.5)) + 1e-6
        be = block_encode_dense(a, alpha)
        measured = spectral_norm(be.target - be_extract(be))
        assert measured <= be.epsilon + 1e-9
        assert spectral_norm(be.target) <= be.alpha + be.epsilon + 1e-12
        worst = max(worst, measured)
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0,
           f"200 constructions, worst block error {worst:.2e}, {elapsed:.2f}s < 10s")


def test_criterion_02_exponential_encoding_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    kappas = [2.0, 5.0, 10.0]
    epss = [1e-2, 1e-3, 1e-4]
    worst_ratio = 0.0
    for case in range(50):
        kappa = kappas[case % 3]
        eps = epss[(case // 3) % 3]
        dim = int(rng.choice([2, 4, 8, 16]))
        h = random_hermitian_in_window(rng, dim, kappa)
        u = block_encode_dense(h, alpha=1.0)
        for sign in (1, -1):
            enc = be_exp(u, sign, eps, kappa)
            assert enc.alpha == float(np.exp(2.0))
            err = spectral_norm(expm(sign * h) - EXP_NORMALIZATION * enc.unitary.to_dense()[:dim, :dim])
            assert err <= EXP_NORMALIZATION * eps
            worst_ratio = max(worst_ratio, err / (EXP_NORMALIZATION * eps))
    elapsed = time.perf_counter() - start
    report(2, elapsed < 60.0,
           f"50 cases x 2 signs, worst err/bound {worst_ratio:.3f}, "
           f"normalization = e^2 exactly, {elapsed:.2f}s < 60s")


def test_criterion_03_product_composition():
    rng = np.random.default_rng(303)
    worst = 0.0
    for case in range(20):
        dim = int(rng.choice([2, 4]))
        eps1 = float(rng.choice([1e-2, 1e-3]))
        eps2 = float(rng.choice([1e-2, 1e-3]))
        s1 = random_hermitian_in_window(rng, dim, 10.0)
        s2 = random_hermitian_in_window(rng, dim, 10.0)
        prod = be_product(
            be_exp(block_encode_dense(s2, 1.0), -1, eps2, 10.0),
            be_exp(block_encode_dense(s1, 1.0), +1, eps1, 10.0),
        )
        bound = np.exp(4.0) * (eps1 + eps2) + 1e-8
        measured = spectral_norm(expm(-s2) @ expm(s1) - be_extract(prod))
        assert measured <= bound
        assert prod.epsilon == pytest.approx(np.exp(4.0) * (eps1 + eps2), rel=1e-9)
        worst = max(worst, measured / bound)
    report(3, True, f"20 products, worst measured/bound {worst:.3f}")


def test_criterion_04_hermitian_dilation_structure():
    rng = np.random.default_rng(404)
    worst_spec = 0.0
    worst_overlap = 1.0
    for _ in range(20):
        dim = int(rng.choice([2, 4, 8]))
        h = rng.normal(size=(dim, dim))
        be = block_encode_dense(h, alpha=spectral_norm(h) * 1.2)
        dil = be_hermitian_dilation(be)
        hbar = be_extract(dil).real
        w, vecs = np.linalg.eigh(hbar)
        u_sv, sv, vt = np.linalg.svd(h)
        expected = np.sort(np.concatenate([sv, -sv]))
        spec_err = float(np.max(np.abs(np.sort(w) - expected)))
        assert spec_err <= 1e-8
        worst_spec = max(worst_spec, spec_err)
        for i in range(dim):
            if i + 1 < dim and abs(sv[i] - sv[i + 1]) < 1e-6:
                continue  # overlap is basis-dependent inside degenerate clusters
            if i > 0 and abs(sv[i] - sv[i - 1]) < 1e-6:
                continue
            for lam, half_sign in ((sv[i], +1.0), (-sv[i], -1.0)):
                if abs(lam) < 1e-9:
                    continue
                target = np.concatenate([u_sv[:, i], half_sign * vt[i]]) / np.sqrt(2.0)
                j = int(np.argmin(np.abs(w - lam)))
                overlap = abs(vecs[:, j] @ target)
                assert overlap >= 1 - 1e-6
                worst_overlap = min(worst_overlap, overlap)
    report(4, True,
           f"20 dilations, worst spectrum error {worst_spec:.2e}, "
           f"worst paired-vector overlap {worst_overlap:.9f}")


def test_criterion_05_qpe_register_sizing():
    rng = np.random.default_rng(505)
    worst = 1.0
    for n, eta in ((4, 0.1), (6, 0.05)):
        q1 = n + int(math.ceil(math.log2(2.0 + 1.0 / eta)))
        for _ in range(20):
            dim = int(rng.choice([2, 4, 8]))
            h = random_hermitian_in_window(rng, dim, 10.0)
            be = block_encode_dense(h, alpha=1.0)
            per = simulate_qpe(be, q1, t=2.0)
            for j in range(per.n_pairs):
                mass = mass_within(per, j, n)
                assert mass >= 1.0 - eta
                worst = min(worst, mass / (1.0 - eta))
    # exactly representable phases give certainty
    q1 = 6
    lam = np.array([5.0, 12.0, 20.0, 30.0]) * (2 * np.pi / 2.0) / (1 << q1)
    per = simulate_qpe(block_encode_dense(np.diag(lam), alpha=float(lam.max()) + 0.1), q1, 2.0)
    assert np.allclose(mass_table(per).max(axis=1), 1.0)
    report(5, True, f"register sizing holds; worst mass/(1-eta) ratio {worst:.4f}; "
                    "exact phases give probability 1")


def test_criterion_06_extreme_eigenvalue_search():
    rng = np.random.default_rng(606)
    n_bits, eta = 6, 0.05
    q1 = n_bits + int(math.ceil(math.log2(2.0 + 1.0 / eta)))
    t = 2.0
    scale = (2 * np.pi / t) / (1 << q1)

    def run_case(dim, m):
        ks = np.sort(rng.choice(np.arange(4, (1 << q1) // 2 - 4, 4), size=dim, replace=False))
        offs = rng.uniform(0.1, 0.4, size=dim) * (rng.random() < 0.5)
        lam = (ks + offs) * scale
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        h = (q * lam) @ q.T
        be = block_encode_dense(h, alpha=float(lam.max()) * 1.2)
        log = resources.CostLog()
        per = simulate_qpe(be, q1, t)
        direction = "smallest" if rng.random() < 0.5 else "largest"
        sol = find_extreme_eigenvalues(per, m, direction, cost_log=log)
        spec = hermitian_eig(h).eigenvalues
        classical = np.sort(spec)[:m] if direction == "smallest" else np.sort(spec)[::-1][:m]
        got_bins = np.sort(np.round(sol.eigenvalues / scale).astype(int))
        want_bins = np.sort(np.round(classical * t / (2 * np.pi) * (1 << q1)).astype(int))
        assert np.array_equal(got_bins, want_bins), f"{got_bins} vs {want_bins}"
        return log["minfind_grover_iterations"]

    for _ in range(50):
        run_case(int(rng.choice([4, 8, 16])), int(rng.integers(1, 4)))

    normalized = {}
    for dim in (4, 8, 16):
        iters = run_case(dim, 2)
        normalized[dim] = iters / (2 * math.sqrt(dim))
    vals = list(normalized.values())
    ratio = max(vals) / min(vals)
    report(6, ratio <= 2.0,
           f"50 searches exact; iteration scaling ratio {ratio:.3f} <= 2 over M in (4,8,16)")


def test_criterion_07_end_to_end_digital_pipeline():
    start = time.perf_counter()
    worst = 0.0
    details = []
    for variant in ("ELPP", "EUDP", "ENPE", "EDA"):
        ds = make_blobs(seed=13, n=32, m=16)
        cfg = RunConfig(variant=variant, m=2, k=4, eps=1e-2, mode="deterministic", seed=7)
        classical_out, _, _ = run_classical(ds, cfg)
        run = run_quantum(ds, cfg, reference=classical_out)
        cmp_res = compare_outputs(classical_out, run)
        assert cmp_res.max_abs_error <= 1e-2, f"{variant}: {cmp_res.max_abs_error}"
        assert cmp_res.passed, f"{variant}: comparison failed"
        worst = max(worst, cmp_res.max_abs_error)
        details.append(f"{variant}={cmp_res.max_abs_error:.2e}{'(subspace)' if cmp_res.aligned else ''}")
    elapsed = time.perf_counter() - start
    report(7, elapsed < 300.0,
           f"max |dy| per variant: {', '.join(details)}; worst {worst:.2e} <= 1e-2; "
           f"{elapsed:.1f}s < 300s")


def test_criterion_08_analog_pipeline_fidelity():
    rng = np.random.default_rng(808)
    worst_exact, worst_sampled = 1.0, 1.0
    for case in range(10):
        n = int(rng.choice([10, 12, 16]))
        m_feat = int(rng.choice([4, 8]))
        ds = make_blobs(seed=900 + case, n=n, m=m_feat)
        sol = solve_medr(build_problem(ds, "ELPP", k=3), 2)
        exact = assemble_analog_state(ds, sol, seed=case)
        sampled = assemble_analog_state(ds, sol, seed=case, mode="sampled", shots=100000)
        assert exact.fidelity_vs_classical >= 0.99
        assert sampled.fidelity_vs_classical >= 0.95
        worst_exact = min(worst_exact, exact.fidelity_vs_classical)
        worst_sampled = min(worst_sampled, sampled.fidelity_vs_classical)
    report(8, True,
           f"10 cases: exact fidelity >= {worst_exact:.6f}, sampled >= {worst_sampled:.4f}")


def test_criterion_09_hadamard_confound_regression():
    rng = np.random.default_rng(909)
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    u_x = np.linalg.qr(np.column_stack([x, rng.normal(size=(4, 3))]))[0]
    u_x *= np.sign(u_x[:, 0] @ x)
    doubled = np.zeros((16, 16))
    doubled[:, 0] = np.kron(v, v)
    doubled[:, 1:] = np.linalg.qr(rng.normal(size=(16, 16)))[0][:, 1:]
    est = hadamard_test(np.kron(u_x, np.eye(4)), doubled)
    contaminated = (x @ v) * v[0]
    clean = x @ v
    ok = abs(est - contaminated) <= 1e-9 and abs(est - clean) > 1e-3
    report(9, ok,
           f"doubled-register estimate {est:.6f} equals <x|v><0|v> = {contaminated:.6f} "
           f"and differs from <x|v> = {clean:.6f}")


def test_criterion_10_resource_formulas_and_tally_audit():
    # symbolic golden forms
    assert resources.STEP_FORMULAS["step1"] == "T = max(alpha*kappa1*(a + T1), beta*kappa2*(b + T2))"
    assert resources.STEP_FORMULAS["step2"] == "(T + a + b) * m * sqrt(M) / eps1"
    assert resources.STEP_FORMULAS["step3"] == "((T + a + b) / (eps1 * eps2)) * sqrt(M / m)"
    assert resources.STEP_FORMULAS["total"] == "(T + a + b) * max_norm2 * m * sqrt(M) / eps"

    # numeric spot checks on five parameter sets
    rng = np.random.default_rng(10)
    for _ in range(5):
        p = resources.ResourceParams(
            N=int(rng.integers(8, 200)), M=int(rng.integers(4, 64)),
            m=int(rng.integers(1, 5)), kappa1=float(rng.uniform(2, 20)),
            kappa2=float(rng.uniform(2, 20)), T1=float(rng.uniform(1, 9)),
            T2=float(rng.uniform(1, 9)), eps=1e-2, eps1=1e-3, eps2=1e-4,
            max_norm2=float(rng.uniform(1, 9)), x_fro=float(rng.uniform(1, 9)),
        )
        rep = resources.eval_step_costs(p)
        t = max(p.alpha * p.kappa1 * (p.a + p.T1), p.beta * p.kappa2 * (p.b + p.T2))
        assert rep.per_step["step2"]["count"] == pytest.approx((t + 2) * p.m * math.sqrt(p.M) / p.eps1)
        assert rep.per_step["step3"]["count"] == pytest.approx((t + 2) / (p.eps1 * p.eps2) * math.sqrt(p.M / p.m))

    # logged tallies stay within 8x the evaluated expressions across the grid
    worst = 0.0
    for n, m_feat in ((16, 4), (16, 8), (32, 16)):
        ds = make_blobs(seed=42, n=n, m=m_feat)
        run = run_quantum(ds, RunConfig(variant="ELPP", m=2, k=3))
        for step, ratio in audit_ratios(run).items():
            assert ratio <= 8.0, f"{step} ratio {ratio} at M={m_feat}"
            worst = max(worst, ratio)
    report(10, True, f"golden formulas match; worst logged/evaluated ratio {worst:.2f} <= 8")


def test_criterion_11_graph_and_scatter_constructions():
    ds = make_blobs(seed=13, n=24, m=8)
    g = knn_graph(ds, k=4)
    lap = laplacian(edge_similarity(g))
    row_sum = float(np.max(np.abs(lap.sum(axis=1))))
    min_eig = float(hermitian_eig(lap).eigenvalues[0])
    assert row_sum <= 1e-10
    assert min_eig >= -1e-9

    neighbors, w = npe_weights(ds, 4)
    sums_err = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    assert sums_err <= 1e-10
    d2 = pairwise_sq_distances(ds.X) + np.diag(np.full(24, np.inf))
    order = np.argsort(d2, axis=1, kind="stable")
    rng = np.random.default_rng(11)
    for i in range(24):
        nbrs = order[i, :4]
        assert np.array_equal(neighbors[i], nbrs)
        solved = np.linalg.norm(ds.X[i] - w[i] @ ds.X[nbrs])
        for _ in range(100):
            cand = rng.exponential(size=4)
            cand /= cand.sum()
            assert solved <= np.linalg.norm(ds.X[i] - cand @ ds.X[nbrs]) + 1e-12

    s_b, s_w = scatter_matrices(ds)
    centered = ds.X - ds.X.mean(axis=0)
    total = centered.T @ centered / 24
    scatter_err = float(np.max(np.abs(s_b + s_w - total)))
    assert scatter_err <= 1e-10
    report(11, True,
           f"row sums {row_sum:.1e}, min Laplacian eig {min_eig:.1e}, "
           f"weight-sum err {sums_err:.1e}, scatter decomposition err {scatter_err:.1e}")
