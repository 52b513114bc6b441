"""Exactly verifiable desk-scale simulator of quantum matrix-exponential
dimensionality reduction: block-encoding algebra, phase-estimation and
minimum-finding simulation, compressed digital/analog outputs, and
complexity accounting, cross-checked against a classical reference."""

from .block_encoding import (
    BlockEncoding,
    BlockEncodingError,
    be_exp,
    be_extract,
    be_hermitian_dilation,
    be_product,
    block_encode_dense,
)
from .classical import (
    CompressedOutput,
    EigenSolution,
    project,
    solve_medr,
)
from .embedding import (
    Dataset,
    MedrProblem,
    SimilarityGraph,
    build_eda,
    build_elpp,
    build_enpe,
    build_eudp,
    build_problem,
    knn_graph,
    npe_weights,
)
from .linalg import (
    HermitianSpectrum,
    expm,
    frobenius_norm,
    hermitian_eig,
    spectral_norm,
    unitarity_check,
)
from .pipeline import RunConfig, full_report, run_classical, run_quantum
from .quantum_sim import (
    AnalogState,
    DigitalState,
    PhaseEstimationResult,
    assemble_analog_state,
    assemble_digital_state,
    estimate_inner_products,
    find_extreme_eigenvalues,
    hadamard_test,
    simulate_qpe,
)
from .resources import ResourceParams, ResourceReport, classical_cost, eval_step_costs

__version__ = "0.1.0"

__all__ = [
    "AnalogState",
    "BlockEncoding",
    "BlockEncodingError",
    "CompressedOutput",
    "Dataset",
    "DigitalState",
    "EigenSolution",
    "HermitianSpectrum",
    "MedrProblem",
    "PhaseEstimationResult",
    "ResourceParams",
    "ResourceReport",
    "RunConfig",
    "SimilarityGraph",
    "assemble_analog_state",
    "assemble_digital_state",
    "be_exp",
    "be_extract",
    "be_hermitian_dilation",
    "be_product",
    "block_encode_dense",
    "build_eda",
    "build_elpp",
    "build_enpe",
    "build_eudp",
    "build_problem",
    "classical_cost",
    "estimate_inner_products",
    "eval_step_costs",
    "expm",
    "find_extreme_eigenvalues",
    "frobenius_norm",
    "full_report",
    "hadamard_test",
    "hermitian_eig",
    "knn_graph",
    "npe_weights",
    "project",
    "run_classical",
    "run_quantum",
    "simulate_qpe",
    "solve_medr",
    "spectral_norm",
    "unitarity_check",
]
