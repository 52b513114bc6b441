import collections
import dataclasses
import json

import numpy as np
import pytest

import dense_reference
from qmedr import block_encoding, classical, datasets, embedding, pipeline, resources
from qmedr.pipeline import RunConfig, compare_outputs, full_report, quantum_stage, run_classical

# (variant, N, F, dataset seed, m, k, run seed); the last ENPE case has a
# degenerate cut with two ambiguous columns
BUILD_CASES = [
    ("ELPP", 32, 16, 0, 2, 4, 0),
    ("EUDP", 32, 16, 0, 2, 4, 0),
    ("ENPE", 32, 16, 0, 2, 4, 0),
    ("EDA", 32, 16, 0, 2, 4, 0),
    ("ENPE", 128, 16, 2, 4, 4, 2),
]


@pytest.fixture
def calls(monkeypatch):
    """Count calls through every binding that builds a problem quantity."""
    counts = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (pipeline, "build_problem"),
        (embedding, "build_problem"),
        (pipeline, "knn_graph"),
        (embedding, "knn_graph"),
        (embedding, "npe_weights"),
        (classical, "full_spectrum"),
    ):
        count(module, name)
    return counts


class TestBuildOnce:
    @pytest.mark.parametrize("variant,n,f,data_seed,m,k,seed", BUILD_CASES)
    def test_full_report_builds_each_quantity_once(self, calls, variant, n, f, data_seed, m, k, seed):
        ds = datasets.synth_blobs(n, f, 2, seed=data_seed)
        doc = full_report(ds, RunConfig(variant=variant, m=m, k=k, seed=seed))
        if n == 128:
            assert doc["compare"]["ambiguous_columns"] == 2
        assert calls["build_problem"] == 1
        assert calls["knn_graph"] <= 1
        assert calls["npe_weights"] <= 1
        assert calls["full_spectrum"] == 1

    def test_eudp_complement_norm_recorded(self):
        ds = datasets.synth_blobs(32, 16, 2, seed=0)
        graph = embedding.knn_graph(ds, 4)
        problem = embedding.build_eudp(ds, graph)
        _, lap_c, _ = dense_reference.complement(dense_reference.edge_similarity(graph))
        assert problem.complement_fro == pytest.approx(np.linalg.norm(lap_c), rel=1e-14, abs=0)
        assert embedding.build_elpp(ds, graph).complement_fro is None


@pytest.fixture
def verification(monkeypatch):
    """Record the shape of every matrix whose spectral norm the block-encoding
    layer takes, the width of every matrix an eigensolver or SVD sees while a
    block-encoding constructor runs, the eigensolver and SVD calls made inside
    a leaf defect, and the solver calls of each dense encoding."""
    record = {"shapes": [], "leaf_eigensolves": 0, "leaves": 0, "solver_widths": [],
              "dense": []}
    depth = [0]
    in_leaf = [False]
    in_dense = [False]
    spectral_norm = block_encoding.spectral_norm

    def norm(m):
        record["shapes"].append(np.shape(m))
        return spectral_norm(m)

    leaf_defect = block_encoding._leaf_defect

    def leaf(*blocks):
        record["leaves"] += 1
        in_leaf[0] = True
        try:
            return leaf_defect(*blocks)
        finally:
            in_leaf[0] = False

    def solve(name, m):
        record["leaf_eigensolves"] += in_leaf[0]
        if depth[0]:
            record["solver_widths"].append(max(np.shape(m)))
        if in_dense[0]:
            record["dense"][-1][name] += 1

    for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd"):
        solver = getattr(np.linalg, name)

        def counted(m, *args, _solver=solver, _name=name, **kwargs):
            solve(_name, m)
            return _solver(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    matrix_norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        # a spectral or nuclear matrix norm is an SVD
        if ord in (2, -2, "nuc"):
            solve("svd", x)
        return matrix_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)

    def constructor(name):
        build = getattr(block_encoding, name)

        def wrapper(*args, **kwargs):
            depth[0] += 1
            if name == "block_encode_dense":
                record["dense"].append(collections.Counter())
                in_dense[0] = True
            try:
                return build(*args, **kwargs)
            finally:
                depth[0] -= 1
                in_dense[0] = False

        monkeypatch.setattr(block_encoding, name, wrapper)

    for name in ("block_encode_dense", "be_exp", "be_product", "be_hermitian_dilation"):
        constructor(name)
    monkeypatch.setattr(block_encoding, "spectral_norm", norm)
    monkeypatch.setattr(block_encoding, "_leaf_defect", leaf)
    return record


class TestVerificationAtSystemSize:
    def test_dilated_stage_measures_no_matrix_wider_than_the_system(self, verification):
        ds = datasets.synth_blobs(64, 64, 2, seed=0)
        cfg = RunConfig(variant="ELPP")
        problem, padded = pipeline._build(ds, cfg)
        run = quantum_stage(problem, padded, cfg)
        assert run.dilated and problem.dim == 64
        assert verification["shapes"]
        assert max(max(shape) for shape in verification["shapes"]) <= problem.dim
        assert verification["leaves"] > 0
        assert verification["leaf_eigensolves"] == 0
        # every eigensolver and SVD of the encoding layer works at system size
        assert verification["solver_widths"]
        assert max(verification["solver_widths"]) <= problem.dim
        # a dense encoding makes one SVD and no eigensolver
        assert verification["dense"] == [{"svd": 1}, {"svd": 1}]

    def test_step1_charge_is_the_resource_formula(self):
        ds = datasets.synth_blobs(32, 16, 2, seed=0)
        for variant in ("ELPP", "EUDP", "ENPE", "EDA"):
            cfg = RunConfig(variant=variant)
            problem, padded = pipeline._build(ds, cfg)
            run = quantum_stage(problem, padded, cfg)
            step1 = resources.step1_time(run.params)
            assert run.logged_steps["step1"] == step1 == 60.0
            assert run.cost_log.get("step1_time_units") == step1


class TestDegenerateCutEntries:
    @pytest.fixture(scope="class")
    def honest(self):
        ds = datasets.synth_blobs(128, 16, 2, seed=2)
        cfg = RunConfig(variant="ENPE", m=4, k=4, seed=2)
        classical_out, problem, padded = run_classical(ds, cfg)
        return classical_out, quantum_stage(problem, padded, cfg, reference=classical_out)

    @staticmethod
    def with_entries(run, entries):
        return dataclasses.replace(run, digital=dataclasses.replace(run.digital, entries=entries))

    def test_honest_run_passes(self, honest):
        classical_out, run = honest
        result = compare_outputs(classical_out, run)
        assert result.ambiguous_columns == 2
        assert result.passed

    def test_flipped_entry_in_ambiguous_column_fails(self, honest):
        # the entrywise test skips ambiguous columns, so only the span rule
        # can see one flipped sign there
        classical_out, run = honest
        entries = run.digital.entries.copy()
        i = int(np.argmax(np.abs(entries[:, 3])))
        entries[i, 3] = -entries[i, 3]
        result = compare_outputs(classical_out, self.with_entries(run, entries))
        assert result.ambiguous_columns == 2
        assert not result.passed

    def test_negated_ambiguous_column_stays_in_span(self, honest):
        classical_out, run = honest
        entries = run.digital.entries.copy()
        entries[:, 3] = -entries[:, 3]
        assert compare_outputs(classical_out, self.with_entries(run, entries)).passed


class TestJsonClean:
    @pytest.mark.parametrize("arr", [
        np.array([0.1, -2.5e-300, np.nan, np.inf, 3.0]),
        np.array([1.5, 2.25], dtype=np.float32),
        np.array([-3, 0, 2**40]),
        np.array([7, 1], dtype=np.uint8),
        np.array([True, False]),
        np.arange(6.0).reshape(2, 3) / 7.0,
        np.array([1 + 2j, -0.5j]),
        np.array(2.5),
    ])
    def test_array_fast_path_matches_recursive_path(self, arr):
        fast = pipeline.json_clean({"a": arr, "nested": [arr, (arr,)]})
        slow = pipeline.json_clean({"a": arr.tolist(), "nested": [arr.tolist(), (arr.tolist(),)]})
        # dumps tells bool from int and int from float, and prints nan equal to itself
        assert json.dumps(fast) == json.dumps(slow)
