import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qmedr
from conftest import make_blobs
from dense_reference import dense_knn_graph, edge_similarity
from qmedr import cli, datasets
from qmedr.cli import main
from qmedr.pipeline import ConfigError, RunConfig, full_report


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(variant="EUDP", m=3, sigma=1.5, eps2=1e-5, analog=True)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_q1_sizing(self):
        cfg = RunConfig(accuracy_bits=4, eta=0.1)
        assert cfg.q1 == 4 + int(np.ceil(np.log2(2 + 1 / 0.1)))

    def test_phase_resolution_override(self):
        assert RunConfig(accuracy_bits=4, eta=0.1).phase_resolution() == 2.0 ** (-8)
        assert RunConfig(eps1=1e-4).phase_resolution() == 1e-4

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            RunConfig(variant="PCA").validate()
        with pytest.raises(ConfigError):
            RunConfig(m=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(eps=2.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(q2=4, int_bits=7).validate()
        with pytest.raises(ConfigError):
            RunConfig(mode="noisy").validate()


class TestDatasetsIO:
    def test_round_trip_with_labels(self, tmp_path):
        ds = make_blobs(seed=3, n=8, m=4)
        path = str(tmp_path / "ds.csv")
        datasets.save_dataset_csv(ds, path)
        loaded = datasets.load_dataset_csv(path)
        assert np.allclose(loaded.X, ds.X, atol=0)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_headerless_unlabeled(self, tmp_path):
        path = str(tmp_path / "plain.csv")
        with open(path, "w") as fh:
            fh.write("1.0,2.0\n3.5,4.5\n")
        loaded = datasets.load_dataset_csv(path)
        assert loaded.labels is None
        assert loaded.X.shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("1.0,2.0\n3.5\n")
        with pytest.raises(ValueError, match="columns"):
            datasets.load_dataset_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("f0,f1\n1.0,oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            datasets.load_dataset_csv(path)

    def test_errors_name_the_file_line(self, tmp_path):
        # blank lines count, so the bad cell is reported on its own line
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write("f0,f1\n1.0,2.0\n\n,\n3.0,4.0\n5.0,oops\n")
        with pytest.raises(ValueError, match=r"t\.csv:6: non-numeric"):
            datasets.load_dataset_csv(path)
        with open(path, "w") as fh:
            fh.write("\n1.0,2.0\n\n3.5\n")
        with pytest.raises(ValueError, match=r"t\.csv:4: expected 2 columns"):
            datasets.load_dataset_csv(path)

    @pytest.mark.parametrize("label", ["0.7", "1.9", "nan", "inf", "-inf"])
    def test_non_integer_label_rejected(self, tmp_path, label):
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write(f"f0,label\n1.0,0\n\n2.0,{label}\n")
        with pytest.raises(ValueError, match=rf"t\.csv:4: label '{label}' is not an integer"):
            datasets.load_dataset_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write(f"f0,f1,label\n1.0,2.0,0\n\n3.0,{cell},1\n")
        with pytest.raises(ValueError, match=r"t\.csv:4: non-finite entry"):
            datasets.load_dataset_csv(path)

    def test_integer_valued_labels_accepted(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write("f0,label\n1.0,1.0\n2.0,-0\n")
        assert datasets.load_dataset_csv(path).labels.tolist() == [1, 0]

    def test_ring_generator(self):
        ds = datasets.synth_ring(12, 4, classes=3, seed=1)
        assert ds.X.shape == (12, 4)
        assert set(np.unique(ds.labels)) <= {0, 1, 2}


class TestCliCommands:
    def synth(self, tmp_path, **kw):
        args = ["synth", "blobs", "--n", str(kw.get("n", 16)), "--features",
                str(kw.get("features", 8)), "--seed", str(kw.get("seed", 13)),
                "--name", "d.csv", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        return str(tmp_path / "d.csv")

    def test_synth_and_graph(self, tmp_path):
        path = self.synth(tmp_path)
        code = main(["graph", path, "--k", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "graph.json").read_text())
        assert doc["graph"]["laplacian_row_sum_max"] <= 1e-10

    def test_classical_identity_dataset(self, tmp_path):
        # identity data, m = M: Y spans the same frame as X (W is orthogonal)
        path = str(tmp_path / "id.csv")
        with open(path, "w") as fh:
            fh.write("1.0,0.0\n0.0,1.0\n")
        code = main(["classical", path, "--variant", "ELPP", "--m", "2", "--k", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "classical.json").read_text())
        y = np.array(doc["classical"]["Y"])
        x = np.eye(2)
        assert np.allclose(y @ y.T, x @ x.T, atol=1e-9)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-9)

    def test_compare_roundtrip(self, tmp_path):
        path = self.synth(tmp_path, n=16, features=8)
        code = main(["compare", path, "--variant", "ELPP", "--m", "2", "--k", "3",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["compare"]["passed"] is True
        assert doc["compare"]["max_abs_error"] <= doc["quantum"]["epsilon_total"]
        assert (tmp_path / "compare.csv").exists()
        # provenance embedded
        assert "preconditioning" in doc["problem"]
        assert doc["config"]["variant"] == "ELPP"

    def test_synth_then_compare_defaults(self, tmp_path):
        # full-size default run: blobs 32x16, ELPP defaults, error within 1e-2
        path = self.synth(tmp_path, n=32, features=16, seed=13)
        code = main(["compare", path, "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["compare"]["max_abs_error"] <= 1e-2

    def test_reference_signs_all_match(self, tmp_path):
        path = self.synth(tmp_path, n=16, features=8)
        code = main(["compare", path, "--variant", "ELPP", "--m", "2", "--k", "3",
                     "--sign-source", "reference", "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["compare"]["sign_match_fraction"] == 1.0

    def test_reports_byte_identical(self, tmp_path):
        ds = make_blobs(seed=13, n=16, m=8)
        cfg = RunConfig(variant="ELPP", m=2, k=3, seed=5)
        doc1 = json.dumps(full_report(ds, cfg), sort_keys=True)
        doc2 = json.dumps(full_report(ds, cfg), sort_keys=True)
        assert doc1 == doc2

    def test_malformed_csv_exit_2(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("1.0,2.0\n3.5\n")
        assert main(["classical", path, "--out-dir", str(tmp_path)]) == 2

    def test_fractional_label_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "frac.csv")
        with open(path, "w") as fh:
            fh.write("f0,f1,label\n1.0,2.0,0\n3.5,4.5,0.7\n")
        assert main(["classical", path, "--out-dir", str(tmp_path)]) == 2
        assert "frac.csv:3: label '0.7' is not an integer" in capsys.readouterr().err

    def test_non_finite_feature_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "nf.csv")
        with open(path, "w") as fh:
            fh.write("f0,f1\n1.0,2.0\n3.5,nan\n0.5,1.5\n")
        assert main(["compare", path, "--out-dir", str(tmp_path)]) == 2
        assert "nf.csv:3: non-finite entry" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sigma", "--kappa-target"])
    def test_nan_config_value_exit_2_before_any_build(self, tmp_path, monkeypatch, capsys, flag):
        path = self.synth(tmp_path)

        def unreachable(*args, **kwargs):
            raise AssertionError("the problem was built before the config was checked")

        monkeypatch.setattr(qmedr.embedding, "build_problem", unreachable)
        monkeypatch.setattr(qmedr.pipeline, "build_problem", unreachable)
        assert main(["compare", path, flag, "nan", "--out-dir", str(tmp_path)]) == 2
        assert f"{flag[2:]} must" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_sigma_accepted(self, tmp_path):
        # sigma = inf gives LPP's 0/1 weights
        RunConfig(sigma=float("inf")).validate()
        path = self.synth(tmp_path)
        assert main(["graph", path, "--k", "3", "--sigma", "inf", "--out-dir", str(tmp_path)]) == 0
        ds = datasets.load_dataset_csv(path)
        graph = qmedr.embedding.knn_graph(ds, 3, float("inf"))
        s = dense_knn_graph(ds.X, 3, float("inf"))[3]
        assert set(np.unique(s).tolist()) == {0.0, 1.0}
        assert np.array_equal(edge_similarity(graph), s)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_graph_non_finite_laplacian_exit_2(self, tmp_path, capsys):
        # with sigma = inf, the 1e160 row's neighbours have d2 = inf and
        # w = exp(-inf/inf) is NaN; knn_graph refuses it, naming sigma
        ds = datasets.synth_blobs(16, 3, 2, seed=4)
        ds = qmedr.embedding.Dataset(X=np.vstack([ds.X, np.full((1, 3), 1e160)]))
        path = str(tmp_path / "far.csv")
        datasets.save_dataset_csv(ds, path)
        assert main(["graph", path, "--k", "3", "--sigma", "inf", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "sigma=inf" in err
        assert not (tmp_path / "graph.json").exists()

    def test_invalid_enum_exit_2(self, tmp_path):
        path = self.synth(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["compare", path, "--variant", "PCA"])
        assert info.value.code == 2

    def test_bad_config_value_exit_2(self, tmp_path):
        path = self.synth(tmp_path)
        assert main(["compare", path, "--eps", "7.0", "--out-dir", str(tmp_path)]) == 2

    def test_defaults_are_run_config(self):
        args = cli.build_parser().parse_args(["compare", "x.csv"])
        assert cli._config_from_args(args) == RunConfig()

    def test_unreachable_eps_be_exit_2(self, tmp_path, capsys):
        # no series order below 50 reaches a 1e-70 tail
        path = self.synth(tmp_path)
        assert main(["compare", path, "--eps-be", "1e-70", "--out-dir", str(tmp_path)]) == 2
        assert "did not converge" in capsys.readouterr().err

    def test_strict_degenerate_exit_3(self, tmp_path):
        # three pairwise-equidistant samples make the second/third exponential
        # eigenvalues tie exactly, so the m=2 cut is degenerate
        path = str(tmp_path / "tri.csv")
        with open(path, "w") as fh:
            fh.write("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
        code = main(["classical", path, "--variant", "ELPP", "--m", "2", "--k", "2",
                     "--strict", "--out-dir", str(tmp_path)])
        assert code == 3
        # without strict the run succeeds and reports the flag
        code = main(["classical", path, "--variant", "ELPP", "--m", "2", "--k", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "classical.json").read_text())
        assert doc["classical"]["degenerate_cut"] is True

    def test_strict_compare_degenerate_exit_3(self, tmp_path):
        # the last of the four selected ENPE eigenvalues shares its register
        # bin with the next one, so the cut is degenerate and the comparison
        # aligns its ambiguous columns
        path = str(tmp_path / "blobs.csv")
        datasets.save_dataset_csv(datasets.synth_blobs(128, 16, 2, seed=2), path)
        args = ["compare", path, "--variant", "ENPE", "--m", "4", "--k", "4", "--seed", "2",
                "--out-dir", str(tmp_path)]
        assert main(args) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["compare"]["aligned"] is True
        assert doc["compare"]["ambiguous_columns"] == 2
        assert main(args + ["--strict"]) == 3

    def test_overflow_exit_3(self, tmp_path):
        ds = make_blobs(seed=13, n=12, m=8)
        big = datasets.Dataset(X=500.0 * ds.X, labels=ds.labels)
        path = str(tmp_path / "big.csv")
        datasets.save_dataset_csv(big, path)
        code = main(["quantum-sim", path, "--variant", "ELPP", "--m", "2", "--k", "3",
                     "--q2", "10", "--int-bits", "4", "--out-dir", str(tmp_path)])
        assert code == 3

    def test_quantum_sim_with_analog(self, tmp_path):
        path = self.synth(tmp_path, n=12, features=8)
        code = main(["quantum-sim", path, "--variant", "ELPP", "--m", "2", "--k", "3",
                     "--analog", "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "quantum.json").read_text())
        assert doc["quantum"]["analog_fidelity"] >= 0.99

    def test_eda_variant(self, tmp_path):
        path = self.synth(tmp_path, n=16, features=8)
        code = main(["compare", path, "--variant", "EDA", "--m", "2", "--k", "3",
                     "--out-dir", str(tmp_path)])
        assert code == 0

    def test_subcommands_share_report_sections(self, tmp_path):
        path = self.synth(tmp_path, n=16, features=8)
        args = [path, "--variant", "EUDP", "--m", "2", "--k", "3", "--analog",
                "--out-dir", str(tmp_path)]
        for command in ("compare", "classical", "quantum-sim"):
            assert main([command] + args) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        classical_doc = json.loads((tmp_path / "classical.json").read_text())
        quantum_doc = json.loads((tmp_path / "quantum.json").read_text())
        for section in ("problem", "classical"):
            assert classical_doc[section] == report[section]
        for section in ("quantum", "resources"):
            assert quantum_doc[section] == report[section]

    def test_top_accuracy_bits_run_in_bounded_memory(self, tmp_path):
        # 20 accuracy bits give a 2^25-bin register; phase estimation must
        # finish without any register law, in a fresh interpreter whose peak
        # RSS stays far below the multi-GiB table a dense law would need
        path = self.synth(tmp_path, n=32, features=16)
        script = textwrap.dedent(f"""
            import resource
            import numpy as np
            from qmedr import quantum_sim
            from qmedr.cli import main
            from qmedr.pipeline import RunConfig

            kernel = quantum_sim._fejer_kernel
            limit = 1 << RunConfig(accuracy_bits=20).q1

            def guarded(*args):
                if any(max(np.shape(a), default=0) >= limit for a in args):
                    raise AssertionError("register law built")
                return kernel(*args)

            quantum_sim._fejer_kernel = guarded
            code = main(["compare", {path!r}, "--accuracy-bits", "20", "--out-dir", {str(tmp_path)!r}])
            print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(qmedr.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        code, maxrss_kib = map(int, done.stdout.split()[-2:])
        report = json.loads((tmp_path / "report.json").read_text())
        assert code == 0 and report["compare"]["passed"]
        assert report["config"]["accuracy_bits"] == 20
        assert maxrss_kib < 300 * 1024

    def test_compare_never_loads_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter running one
        # compare must never import scipy or mpmath
        path = self.synth(tmp_path)
        script = textwrap.dedent(f"""
            import sys
            from qmedr.cli import main

            code = main(["compare", {path!r}, "--analog", "--out-dir", {str(tmp_path)!r}])
            print(code, any(name.split(".")[0] in ("scipy", "mpmath") for name in sys.modules))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(qmedr.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-2:] == ["0", "False"]

    def test_resources_command(self, tmp_path):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({
            "N": 256, "M": 64, "m": 4, "kappa1": 10.0, "kappa2": 10.0,
            "variant": "ENPE",
        }))
        code = main(["resources", str(params_file), "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "resources.json").read_text())
        assert doc["per_step"]["step1"]["count"] > 0

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QMEDR_OUTDIR", str(tmp_path / "envout"))
        args = ["synth", "blobs", "--n", "8", "--features", "4", "--name", "e.csv"]
        assert main(args) == 0
        assert (tmp_path / "envout" / "e.csv").exists()


def _write_tidy_compare_per_entry(path, y_classical, y_quantum):
    # the per-entry writer that cli._write_tidy_compare replaced
    yc = np.asarray(y_classical)
    yq = np.asarray(y_quantum)
    with open(path, "w") as fh:
        fh.write("i,j,y_classical,y_quantum,abs_error\n")
        for i in range(yc.shape[0]):
            for j in range(yc.shape[1]):
                a, b = float(yc[i, j]), float(yq[i, j])
                fh.write(f"{i},{j},{a!r},{b!r},{abs(a - b)!r}\n")


class TestTidyCompare:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (1024, 2)])
    def test_bytes_match_per_entry_writer(self, tmp_path, shape):
        rng = np.random.default_rng(shape[0])
        yc = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        yq = yc + rng.normal(size=shape) * 1e-9
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e308, 0.1]
        flat_c, flat_q = yc.ravel(), yq.ravel()
        for i, value in enumerate(special[: flat_c.size]):
            flat_c[i] = value
            flat_q[-1 - i] = value
        cli._write_tidy_compare(str(tmp_path / "new.csv"), yc, yq)
        _write_tidy_compare_per_entry(str(tmp_path / "old.csv"), yc, yq)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_integer_and_float32_tables(self, tmp_path):
        yc = np.arange(6).reshape(3, 2)
        yq = np.linspace(0, 1, 6, dtype=np.float32).reshape(3, 2)
        cli._write_tidy_compare(str(tmp_path / "new.csv"), yc, yq)
        _write_tidy_compare_per_entry(str(tmp_path / "old.csv"), yc, yq)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
