"""End-to-end orchestration: classical reference run, simulated quantum run,
comparison, and resource accounting.

The quantum path follows the three-stage flow: encode the preconditioned
pair, exponentiate and multiply the encodings, phase-estimate the (dilated)
product, search out the extreme eigenpairs, estimate the projected values in
parallel, and assemble the digital (and optionally analog) output state.
Both paths solve the identical preconditioned problem, so their outputs are
directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import block_encoding as bk
from . import classical as cl
from . import quantum_sim as qs
from . import resources
from .embedding import Dataset, MedrProblem, VARIANTS, build_problem, knn_graph
from .linalg import frobenius_norm, hermiticity_defect

EVOLUTION_NORM_BOUND = float(np.exp(2.0)) + 1e-6


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Pipeline knobs; field names mirror the CLI flags."""

    variant: str = "ELPP"
    m: int = 2
    k: int = 4
    sigma: float | None = None
    kappa_target: float = 10.0
    eps: float = 1e-2
    eps1: float | None = None
    eps2: float | None = None
    eps_be: float = 1e-8
    accuracy_bits: int = 10
    eta: float = 0.05
    q2: int = 32
    int_bits: int = 7
    seed: int = 0
    mode: str = "deterministic"
    sign_source: str = "anchor"
    shots: int = 100000
    analog: bool = False
    include_k: bool = False
    strict: bool = False

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.m < 1:
            raise ConfigError("m must be at least 1")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        # "not above" comparisons, so that a NaN value is rejected too
        if self.sigma is not None and not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not self.kappa_target > 1:
            raise ConfigError(f"kappa-target must exceed 1, got {self.kappa_target}")
        for name in ("eps", "eps_be", "eta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        for name in ("eps1", "eps2"):
            v = getattr(self, name)
            if v is not None and not 0 < v < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        if not 1 <= self.accuracy_bits <= 20:
            raise ConfigError("accuracy-bits must lie in [1, 20]")
        if self.q2 - 1 - self.int_bits < 1:
            raise ConfigError("q2 leaves no fraction bits")
        if self.mode not in ("deterministic", "sampled"):
            raise ConfigError("mode must be deterministic or sampled")
        if self.sign_source not in ("anchor", "reference"):
            raise ConfigError("sign-source must be anchor or reference")
        if self.shots < 1:
            raise ConfigError("shots must be positive")

    @property
    def q1(self) -> int:
        return self.accuracy_bits + math.ceil(math.log2(2.0 + 1.0 / self.eta))

    def phase_resolution(self) -> float:
        return self.eps1 if self.eps1 is not None else 2.0 ** (-self.q1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls(**data)
        cfg.validate()
        return cfg


def pad_features(ds: Dataset) -> tuple[Dataset, int]:
    """Zero-pad feature columns to the next power of two (encodings need it)."""
    m = ds.n_features
    target = 1 << max(int(math.ceil(math.log2(m))), 0)
    if target == m:
        return ds, m
    x = np.zeros((ds.n_samples, target))
    x[:, :m] = ds.X
    return Dataset(X=x, labels=ds.labels), m


@dataclass(frozen=True)
class QuantumRun:
    """Everything the simulated pipeline produced, for reporting and tests."""

    problem: MedrProblem
    padded: Dataset
    digital: qs.DigitalState
    analog: qs.AnalogState | None
    solution: cl.EigenSolution
    phase_result: qs.PhaseEstimationResult
    encoding_epsilon: float
    extra_error: float
    cost_log: resources.CostLog
    logged_steps: dict
    params: resources.ResourceParams
    dilated: bool


def _resource_params(ds: Dataset, cfg: RunConfig, p: MedrProblem, t_encode: float,
                     eps2: float) -> resources.ResourceParams:
    lp_fro = max(p.complement_fro, 1e-12) if p.complement_fro is not None else 1.0
    return resources.ResourceParams(
        N=ds.n_samples,
        M=p.dim,
        m=cfg.m,
        kappa1=p.kappa1,
        kappa2=p.kappa2,
        alpha=1.0,
        beta=1.0,
        a=1,
        b=1,
        T1=t_encode,
        T2=t_encode,
        eps=cfg.eps,
        eps1=cfg.phase_resolution(),
        eps2=eps2,
        max_norm2=float(np.max(ds.row_norms) ** 2),
        x_fro=frobenius_norm(ds.X),
        lp_fro=lp_fro,
        k=cfg.k,
    )


def _build(ds: Dataset, cfg: RunConfig) -> tuple[MedrProblem, Dataset]:
    """Build the (possibly padded) problem from the native dataset.

    The raw matrices come from the native features; padding to a power of two
    happens on the raw pair with the padded directions placed at the edge of
    the spectral window that the variant never selects. The dataset gains
    matching zero feature columns so downstream shapes line up.
    """
    padded, original_m = pad_features(ds)
    pad_to = padded.n_features if padded.n_features != original_m else None
    problem = build_problem(ds, cfg.variant, cfg.k, cfg.sigma, cfg.kappa_target, pad_to)
    return problem, padded


def classical_stage(problem: MedrProblem, padded: Dataset, cfg: RunConfig) -> cl.CompressedOutput:
    """Classical reference on a built (padded) preconditioned problem."""
    return cl.project(padded, cl.solve_medr(problem, cfg.m))


def run_classical(ds: Dataset, cfg: RunConfig) -> tuple[cl.CompressedOutput, MedrProblem, Dataset]:
    """Build the problem from ``ds``, then run the classical reference on it."""
    cfg.validate()
    problem, padded = _build(ds, cfg)
    return classical_stage(problem, padded, cfg), problem, padded


def run_quantum(ds: Dataset, cfg: RunConfig,
                reference: cl.CompressedOutput | None = None) -> QuantumRun:
    """Build the problem from ``ds``, then run the simulated quantum pipeline on it."""
    cfg.validate()
    problem, padded = _build(ds, cfg)
    return quantum_stage(problem, padded, cfg, reference)


def quantum_stage(problem: MedrProblem, padded: Dataset, cfg: RunConfig,
                  reference: cl.CompressedOutput | None = None) -> QuantumRun:
    """Simulated quantum pipeline on a built problem; ``reference`` feeds sign
    copying when asked, and is solved from the same problem when absent."""
    log = resources.CostLog()

    u1 = bk.block_encode_dense(problem.s1, alpha=1.0)
    u2 = bk.block_encode_dense(problem.s2, alpha=1.0)
    enc1 = bk.be_exp(u1, +1, cfg.eps_be, problem.kappa1)
    enc2 = bk.be_exp(u2, -1, cfg.eps_be, problem.kappa2)
    product = bk.be_product(enc2, enc1)
    t_encode = resources.dense_encode_cost(problem.dim)
    eps2 = cfg.eps2 if cfg.eps2 is not None else qs.recommended_eps2(padded, cfg.m, cfg.eps)
    params = _resource_params(padded, cfg, problem, t_encode, eps2)
    t_units = resources.step1_time(params)
    log.charge("step1_time_units", t_units)

    extracted = bk.be_extract(product)
    dilated = hermiticity_defect(extracted) > cl.SYMMETRY_THRESHOLD
    if dilated:
        qpe_input = bk.be_hermitian_dilation(product)
        encoding_epsilon = qpe_input.epsilon
    else:
        qpe_input = product
        encoding_epsilon = product.epsilon

    t = math.pi / EVOLUTION_NORM_BOUND
    per = qs.simulate_qpe(qpe_input, cfg.q1, t, dilated=dilated, cost_log=log)
    direction = cl.direction_for_variant(cfg.variant)
    sol = qs.find_extreme_eigenvalues(per, cfg.m, direction, cost_log=log)

    rng = np.random.default_rng(cfg.seed)
    table = qs.estimate_inner_products(padded, sol, eps2, mode=cfg.mode, rng=rng, cost_log=log)

    # eigenvector perturbation allowance from the certified encoding error
    all_est = np.asarray(per.estimate_for_register(per.dominant_bins()), dtype=float)
    resolution = 2.0 ** (1 - cfg.q1) * (2.0 * math.pi / t)
    gaps = []
    for v in sol.eigenvalues:
        diffs = np.abs(all_est - float(v))
        others = diffs[diffs > resolution / 2.0]  # everything but the pair's own bin
        if others.size:
            gaps.append(float(others.min()))
    gap = max(min(gaps) if gaps else np.inf, resolution)
    extra_error = float(np.max(padded.row_norms)) * 2.0 * encoding_epsilon / gap

    ref_signs = None
    if cfg.sign_source == "reference":
        if reference is None:
            reference = classical_stage(problem, padded, cfg)
        ref_signs = reference.Y
    digital = qs.assemble_digital_state(
        padded, sol, table, q2=cfg.q2, int_bits=cfg.int_bits,
        sign_source=cfg.sign_source, reference_signs=ref_signs, seed=cfg.seed,
        mode=cfg.mode, shots=cfg.shots, extra_error=extra_error, cost_log=log,
    )
    analog = None
    if cfg.analog:
        analog = qs.assemble_analog_state(
            padded, sol, seed=cfg.seed, mode=cfg.mode, shots=cfg.shots, cost_log=log,
        )

    prep_queries = float((1 << cfg.q1) - 1)
    step2_logged = (log.get("minfind_grover_iterations", 0.0) + 1.0) * prep_queries * (
        t_units + params.a + params.b
    )
    step3_logged = (
        (log.get("step3_amplification_iterations", 0.0) * prep_queries + cfg.m + 2.0)
        * (t_units + params.a + params.b)
        * log.get("step3_ae_repetitions", 1.0)
    )
    logged_steps = {"step1": t_units, "step2": step2_logged, "step3": step3_logged}

    return QuantumRun(
        problem=problem,
        padded=padded,
        digital=digital,
        analog=analog,
        solution=sol,
        phase_result=per,
        encoding_epsilon=encoding_epsilon,
        extra_error=extra_error,
        cost_log=log,
        logged_steps=logged_steps,
        params=params,
        dilated=dilated,
    )


@dataclass(frozen=True)
class ComparisonResult:
    max_abs_error: float
    mean_abs_error: float
    subspace_angle: float
    sign_match_fraction: float
    aligned: bool
    passed: bool
    epsilon_total: float
    cluster_residual: float = 0.0
    ambiguous_columns: int = 0
    analog_fidelity: float | None = None


CLUSTER_RESIDUAL_TOL = 1e-3


def compare_outputs(classical: cl.CompressedOutput, run: QuantumRun) -> ComparisonResult:
    """Entrywise comparison against the classical reference.

    When the spectral cut is degenerate, individual entries of the affected
    columns are basis-dependent; those columns are instead required to lie in
    the exact spectral cluster matching their value (subspace membership) and
    the entrywise comparison is restricted to the unambiguous columns. The
    digital entries of each such column must then lie within
    sqrt(N) * epsilon_total of the span of X times the cluster's vectors.
    """
    y_ref = classical.Y
    y_q = run.digital.entries
    degenerate = run.solution.degenerate_cut or (
        classical.solution is not None and classical.solution.degenerate_cut
    )
    angle = cl.subspace_angle(
        classical.solution.eigenvectors if classical.solution is not None else y_ref,
        run.solution.eigenvectors,
    )

    cluster_residual = 0.0
    ambiguous = np.zeros(y_q.shape[1], dtype=bool)
    entries_in_span = True
    if degenerate:
        t = run.phase_result.t
        value_tol = 2.0 ** (2 - run.phase_result.q1) * (2.0 * math.pi / t) + 100.0 * run.encoding_epsilon
        residuals, clusters = cl.cluster_residuals(run.problem, run.solution, value_tol)
        cluster_residual = float(residuals.max()) if residuals.size else 0.0
        ambiguous = np.array([c.shape[1] > 1 for c in clusters], dtype=bool)
        span_tol = math.sqrt(y_q.shape[0]) * run.digital.epsilon_total
        for j in np.nonzero(ambiguous)[0]:
            basis, _ = np.linalg.qr(run.padded.X @ clusters[j])
            col = y_q[:, j]
            entries_in_span &= bool(np.linalg.norm(col - basis @ (basis.T @ col)) <= span_tol)

    cols = ~ambiguous
    diff = np.abs(y_q[:, cols] - y_ref[:, cols])
    mask = np.abs(y_ref[:, cols]) > run.digital.epsilon_total
    matches = (
        float(np.mean(np.sign(y_q[:, cols][mask]) == np.sign(y_ref[:, cols][mask])))
        if mask.any()
        else 1.0
    )
    max_err = float(diff.max()) if diff.size else 0.0
    passed = bool(max_err <= run.digital.epsilon_total) and entries_in_span and (
        not degenerate or cluster_residual <= CLUSTER_RESIDUAL_TOL
    )
    return ComparisonResult(
        max_abs_error=max_err,
        mean_abs_error=float(diff.mean()) if diff.size else 0.0,
        subspace_angle=angle,
        sign_match_fraction=matches,
        aligned=bool(degenerate),
        passed=passed,
        epsilon_total=run.digital.epsilon_total,
        cluster_residual=cluster_residual,
        ambiguous_columns=int(ambiguous.sum()),
        analog_fidelity=run.analog.fidelity_vs_classical if run.analog else None,
    )


def audit_ratios(run: QuantumRun) -> dict:
    """Logged step tallies divided by the evaluated step expressions."""
    return _ratios(run.logged_steps, resources.eval_step_costs(run.params))


def _ratios(logged: dict, report: resources.ResourceReport) -> dict:
    out = {}
    for step in ("step1", "step2", "step3"):
        evaluated = report.per_step[step]["count"]
        out[step] = logged[step] / evaluated if evaluated > 0 else math.inf
    return out


def json_clean(obj):
    if isinstance(obj, dict):
        return {str(k): json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # tolist() already yields plain bool, int and float for these kinds
        return obj.tolist() if obj.dtype.kind in "biuf" else json_clean(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def graph_summary(ds: Dataset, cfg: RunConfig) -> dict:
    """The graph subcommand's summary. Its Laplacian spectrum needs the dense
    N x N L, built here from the edges: this subcommand alone stays O(N^2)."""
    graph = knn_graph(ds, cfg.k, cfg.sigma)
    lap = np.diag(graph.degrees)
    lap[graph.a, graph.b] = -graph.w
    lap[graph.b, graph.a] = -graph.w
    return json_clean({
        "n_samples": ds.n_samples,
        "n_features": ds.n_features,
        "k": graph.k,
        "sigma": graph.sigma,
        "laplacian_row_sum_max": float(np.max(np.abs(lap.sum(axis=1)))),
        "laplacian_min_eigenvalue": float(np.linalg.eigvalsh(lap)[0]),
        "degree_min": float(np.min(graph.degrees)),
        "flags": list(graph.flags),
    })


def problem_section(problem: MedrProblem) -> dict:
    return {
        "variant": problem.variant,
        "dim": problem.dim,
        "kappa1": problem.kappa1,
        "kappa2": problem.kappa2,
        "preconditioning": [m.to_dict() for m in problem.maps],
        "flags": list(problem.flags),
    }


def classical_section(out: cl.CompressedOutput) -> dict:
    return {
        "eigenvalues": out.solution.eigenvalues,
        "route": out.solution.route,
        "degenerate_cut": out.solution.degenerate_cut,
        "Y": out.Y,
        "frobenius": out.frobenius,
    }


def quantum_section(run: QuantumRun) -> dict:
    return {
        "eigenvalue_estimates": run.solution.eigenvalues,
        "dilated": run.dilated,
        "qpe_success_probability": run.phase_result.success_probability,
        "epsilon_total": run.digital.epsilon_total,
        "encoding_epsilon": run.encoding_epsilon,
        "eps2": run.digital.eps2,
        "anchor_index": run.digital.anchor_index,
        "entries": run.digital.entries,
        "analog_fidelity": run.analog.fidelity_vs_classical if run.analog else None,
    }


def resources_section(run: QuantumRun, cfg: RunConfig) -> dict:
    report = resources.eval_step_costs(run.params)
    return {
        "per_step": report.per_step,
        "polylog": report.polylog,
        "variant": resources.variant_comparison(run.params, cfg.variant, cfg.include_k),
        "logged_steps": run.logged_steps,
        "audit_ratios": _ratios(run.logged_steps, report),
        "cost_log": dict(run.cost_log),
    }


def full_report(ds: Dataset, cfg: RunConfig) -> dict:
    """One JSON document with config, problem, both runs, comparison and costs.

    The problem is built once and both stages solve that same object.
    """
    cfg.validate()
    problem, padded = _build(ds, cfg)
    classical_out = classical_stage(problem, padded, cfg)
    run = quantum_stage(problem, padded, cfg, reference=classical_out)
    comparison = compare_outputs(classical_out, run)

    doc = {
        "config": cfg.to_dict(),
        "dataset": {
            "n_samples": ds.n_samples,
            "n_features": ds.n_features,
            "padded_features": padded.n_features,
            "has_labels": ds.labels is not None,
        },
        "problem": problem_section(problem),
        "classical": classical_section(classical_out),
        "quantum": quantum_section(run),
        "compare": {
            "max_abs_error": comparison.max_abs_error,
            "mean_abs_error": comparison.mean_abs_error,
            "subspace_angle": comparison.subspace_angle,
            "sign_match_fraction": comparison.sign_match_fraction,
            "aligned": comparison.aligned,
            "cluster_residual": comparison.cluster_residual,
            "ambiguous_columns": comparison.ambiguous_columns,
            "passed": comparison.passed,
        },
        "resources": resources_section(run, cfg),
    }
    return json_clean(doc)
