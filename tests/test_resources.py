import math

import pytest

from qmedr.resources import (
    CLASSICAL_FORMULAS,
    STEP_FORMULAS,
    ResourceParams,
    classical_cost,
    dense_encode_cost,
    eval_step_costs,
    grover_iterations,
    quantum_cost,
    variant_comparison,
)


def params(**overrides):
    base = dict(N=64, M=16, m=2, kappa1=10.0, kappa2=10.0, alpha=1.0, beta=1.0,
                a=1, b=1, T1=5.0, T2=5.0, eps=1e-2, eps1=1e-3, eps2=1e-4,
                max_norm2=4.0, x_fro=8.0, lp_fro=3.0, k=4)
    base.update(overrides)
    return ResourceParams(**base)


class TestFormulas:
    def test_golden_step_strings(self):
        assert STEP_FORMULAS == {
            "step1": "T = max(alpha*kappa1*(a + T1), beta*kappa2*(b + T2))",
            "step2": "(T + a + b) * m * sqrt(M) / eps1",
            "step3": "((T + a + b) / (eps1 * eps2)) * sqrt(M / m)",
            "total": "(T + a + b) * max_norm2 * m * sqrt(M) / eps",
        }

    def test_golden_classical_strings(self):
        assert CLASSICAL_FORMULAS == {
            "ELPP": "M*N^2 + M^3",
            "EUDP": "M*N^2 + M^3",
            "ENPE": "k^3*N*M + M^3",
            "EDA": "M*N^2 + N^3",
        }

    def test_numeric_parameter_sets(self):
        # independent arithmetic for five frozen parameter sets
        cases = [
            params(),
            params(N=128, M=32, m=4),
            params(kappa1=2.0, kappa2=5.0),
            params(eps1=1e-2, eps2=1e-3, eps=1e-1),
            params(T1=1.0, T2=9.0, alpha=2.0, beta=3.0),
        ]
        for p in cases:
            t = max(p.alpha * p.kappa1 * (p.a + p.T1), p.beta * p.kappa2 * (p.b + p.T2))
            report = eval_step_costs(p)
            assert report.per_step["step1"]["count"] == pytest.approx(t)
            assert report.per_step["step2"]["count"] == pytest.approx(
                (t + p.a + p.b) * p.m * math.sqrt(p.M) / p.eps1)
            assert report.per_step["step3"]["count"] == pytest.approx(
                (t + p.a + p.b) / (p.eps1 * p.eps2) * math.sqrt(p.M / p.m))
            assert report.per_step["total"]["count"] == pytest.approx(
                (t + p.a + p.b) * p.max_norm2 * p.m * math.sqrt(p.M) / p.eps)

    def test_doubling_m_scales_step2_by_sqrt2(self):
        c1 = eval_step_costs(params(M=16)).per_step["step2"]["count"]
        c2 = eval_step_costs(params(M=32)).per_step["step2"]["count"]
        assert c2 / c1 == pytest.approx(math.sqrt(2.0))

    def test_reevaluation_identical(self):
        p = params()
        assert eval_step_costs(p).per_step == eval_step_costs(p).per_step

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            eval_step_costs(params(M=0))
        with pytest.raises(ValueError):
            classical_cost(params(eps=-1.0), "ELPP")


class TestClassicalCosts:
    def test_elpp_row(self):
        p = params()
        assert classical_cost(p, "ELPP") == pytest.approx(16 * 64**2 + 16**3)

    def test_enpe_row(self):
        p = params()
        assert classical_cost(p, "ENPE") == pytest.approx(4**3 * 64 * 16 + 16**3)

    def test_eda_row(self):
        p = params()
        assert classical_cost(p, "EDA") == pytest.approx(16 * 64**2 + 64**3)

    def test_n_one_cube_dominates(self):
        p = params(N=1, M=64)
        assert classical_cost(p, "ELPP") <= 1.001 * 64**3

    def test_monotone_in_each_size_parameter(self):
        base = classical_cost(params(), "ENPE")
        assert classical_cost(params(N=128), "ENPE") >= base
        assert classical_cost(params(M=32), "ENPE") >= base
        assert classical_cost(params(k=8), "ENPE") >= base

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            classical_cost(params(), "PCA")


class TestQuantumCosts:
    def test_eda_row_structure(self):
        p = params()
        eta = math.sqrt(p.m) * p.max_norm2
        expected = max(p.kappa1, p.kappa2) * eta * math.sqrt(p.M)
        assert quantum_cost(p, "EDA") == pytest.approx(expected)

    def test_elpp_row_structure(self):
        p = params()
        eta = math.sqrt(p.m) * p.max_norm2
        t = max(p.x_fro**2 * p.kappa1, p.x_fro**2 * p.kappa2)
        assert quantum_cost(p, "ELPP") == pytest.approx(p.N**1.5 + t * eta * math.sqrt(p.M))

    def test_eudp_uses_complement_norm(self):
        p = params()
        eta = math.sqrt(p.m) * p.max_norm2
        t = max(p.x_fro**2 * p.kappa1, p.x_fro**2 * p.lp_fro * p.kappa2)
        assert quantum_cost(p, "EUDP") == pytest.approx(p.N**2 + t * eta * math.sqrt(p.M))

    def test_include_k_mode(self):
        p = params()
        without = quantum_cost(p, "ELPP", include_k=False)
        with_k = quantum_cost(p, "ELPP", include_k=True)
        assert with_k >= without

    def test_comparison_bundle(self):
        doc = variant_comparison(params(), "EDA")
        assert doc["classical"]["count"] > 0
        assert doc["quantum"]["count"] > 0
        assert "scatter" not in doc["classical"]["formula"]


class TestCharges:
    def test_grover_iterations(self):
        assert grover_iterations(1.0) == 1
        assert grover_iterations(0.25) == 2
        assert grover_iterations(1.0 / 64.0) == math.ceil(math.pi / 4 * 8)
        with pytest.raises(ValueError):
            grover_iterations(0.0)

    def test_charge_functions_positive(self):
        assert dense_encode_cost(16) > 0

    def test_charges_deterministic(self):
        assert dense_encode_cost(16) == dense_encode_cost(16)
