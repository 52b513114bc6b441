import collections
import dataclasses
import json

import numpy as np
import pytest

from qmedr import classical, datasets, embedding, pipeline
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
        (embedding, "complement_graph"),
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
        assert calls["complement_graph"] <= 1
        assert calls["full_spectrum"] == 1

    def test_eudp_complement_norm_recorded(self):
        ds = datasets.synth_blobs(32, 16, 2, seed=0)
        graph = embedding.knn_graph(ds, 4)
        problem = embedding.build_eudp(ds, graph)
        comp = embedding.complement_graph(graph)
        assert problem.complement_fro == np.linalg.norm(comp.L)
        assert embedding.build_elpp(ds, graph).complement_fro is None


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
