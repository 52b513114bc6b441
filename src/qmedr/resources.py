"""Query-count bookkeeping and complexity-formula evaluation.

Every stage of the simulated pipeline charges abstract query/time units to a
``CostLog``. This module owns the formulas those charges follow, evaluates
the per-step and per-variant cost expressions numerically, and renders them
symbolically for reports. Evaluated counts are pure functions of the input
parameters; polylogarithmic factors are listed symbolically and excluded
from numeric values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

STEP_FORMULAS = {
    "step1": "T = max(alpha*kappa1*(a + T1), beta*kappa2*(b + T2))",
    "step2": "(T + a + b) * m * sqrt(M) / eps1",
    "step3": "((T + a + b) / (eps1 * eps2)) * sqrt(M / m)",
    "total": "(T + a + b) * max_norm2 * m * sqrt(M) / eps",
}

POLYLOG_NOTES = {
    "step1": "polylog(kappa1/eps1_be, kappa2/eps2_be) carried symbolically",
    "step2": "polylog(M, 1/eps1) carried symbolically",
    "step3": "polylog(N*M/eps2) carried symbolically",
    "total": "polylog factors hidden in the tilde",
}

CLASSICAL_FORMULAS = {
    "ELPP": "M*N^2 + M^3",
    "EUDP": "M*N^2 + M^3",
    "ENPE": "k^3*N*M + M^3",
    "EDA": "M*N^2 + N^3",
}

QUANTUM_FORMULAS = {
    "ELPP": "N^(3/2) + T*eta*sqrt(M), T = max(xfro2*kappa1, xfro2*kappa2)",
    "EUDP": "N^2 + T*eta*sqrt(M), T = max(xfro2*kappa1, xfro2*lpfro*kappa2)",
    "ENPE": "k*N + T*eta*sqrt(M), T = max(xfro2*kappa1, xfro2*kappa2)",
    "EDA": "max(kappa1, kappa2)*eta*sqrt(M)",
}

VARIANTS = ("ELPP", "EUDP", "ENPE", "EDA")


class CostLog(dict):
    """Accumulator for abstract query/time tallies."""

    def charge(self, key: str, amount: float) -> None:
        self[key] = self.get(key, 0.0) + float(amount)


def _log2(x: float) -> float:
    return math.log2(max(x, 2.0))


def dense_encode_cost(dim: int) -> float:
    """Stand-in charge for a structured-memory dense encoding lookup."""
    return _log2(dim) + 1.0


def grover_iterations(success_probability: float) -> int:
    """Expected-value amplitude-amplification iteration charge."""
    if success_probability <= 0.0:
        raise ValueError("success probability must be positive")
    return int(math.ceil(math.pi / 4.0 * math.sqrt(1.0 / success_probability)))


@dataclass(frozen=True)
class ResourceParams:
    """Numeric inputs for the cost expressions."""

    N: int
    M: int
    m: int
    kappa1: float
    kappa2: float
    alpha: float = 1.0
    beta: float = 1.0
    a: int = 1
    b: int = 1
    T1: float = 1.0
    T2: float = 1.0
    eps: float = 1e-2
    eps1: float = 1e-3
    eps2: float = 1e-4
    max_norm2: float = 1.0
    x_fro: float = 1.0
    lp_fro: float = 1.0
    k: int = 4

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if value is None or float(value) <= 0:
                raise ValueError(f"parameter {name} must be positive, got {value}")


@dataclass(frozen=True)
class ResourceReport:
    """Evaluated cost expressions plus the parameters that produced them."""

    per_step: dict
    parameters: dict
    polylog: dict = field(default_factory=lambda: dict(POLYLOG_NOTES))


def step1_time(p: ResourceParams) -> float:
    return max(p.alpha * p.kappa1 * (p.a + p.T1), p.beta * p.kappa2 * (p.b + p.T2))


def step2_count(p: ResourceParams) -> float:
    t = step1_time(p)
    return (t + p.a + p.b) * p.m * math.sqrt(p.M) / p.eps1


def step3_count(p: ResourceParams) -> float:
    t = step1_time(p)
    return (t + p.a + p.b) / (p.eps1 * p.eps2) * math.sqrt(p.M / p.m)


def total_count(p: ResourceParams) -> float:
    t = step1_time(p)
    return (t + p.a + p.b) * p.max_norm2 * p.m * math.sqrt(p.M) / p.eps


def eval_step_costs(p: ResourceParams) -> ResourceReport:
    """Evaluate the three pipeline-step expressions and the end-to-end total."""
    p.validate()
    per_step = {
        "step1": {"formula": STEP_FORMULAS["step1"], "count": step1_time(p)},
        "step2": {"formula": STEP_FORMULAS["step2"], "count": step2_count(p)},
        "step3": {"formula": STEP_FORMULAS["step3"], "count": step3_count(p)},
        "total": {"formula": STEP_FORMULAS["total"], "count": total_count(p)},
    }
    return ResourceReport(per_step=per_step, parameters=asdict(p))


def classical_cost(p: ResourceParams, variant: str) -> float:
    """Classical per-variant flop-count expression."""
    p.validate()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n, mdim, k = float(p.N), float(p.M), float(p.k)
    if variant in ("ELPP", "EUDP"):
        return mdim * n**2 + mdim**3
    if variant == "ENPE":
        return k**3 * n * mdim + mdim**3
    return mdim * n**2 + n**3


def quantum_cost(p: ResourceParams, variant: str, include_k: bool = False) -> float:
    """Per-variant quantum totals.

    ``include_k`` restores the neighbor-count factor in the encoding
    subnormalizations for ELPP/EUDP; the headline comparison drops it.
    """
    p.validate()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    eta = math.sqrt(p.m) * p.max_norm2
    xf2 = p.x_fro**2
    kf = (p.k + 1.0) if include_k else 1.0
    if variant == "ELPP":
        t = max(kf * xf2 * p.kappa1, xf2 * p.kappa2)
        return p.N ** 1.5 + t * eta * math.sqrt(p.M)
    if variant == "EUDP":
        t = max(kf * xf2 * p.kappa1, xf2 * p.lp_fro * p.kappa2)
        return p.N ** 2 + t * eta * math.sqrt(p.M)
    if variant == "ENPE":
        t = max(xf2 * p.kappa1, xf2 * p.kappa2)
        return p.k * p.N + t * eta * math.sqrt(p.M)
    return max(p.kappa1, p.kappa2) * eta * math.sqrt(p.M)


def variant_comparison(p: ResourceParams, variant: str, include_k: bool = False) -> dict:
    return {
        "variant": variant,
        "classical": {"formula": CLASSICAL_FORMULAS[variant], "count": classical_cost(p, variant)},
        "quantum": {
            "formula": QUANTUM_FORMULAS[variant],
            "count": quantum_cost(p, variant, include_k=include_k),
            "include_k": include_k,
        },
    }
