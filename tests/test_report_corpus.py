"""The two smallest shapes of the report corpus against tools/corpus_digests.txt.

The digests were made on x86-64 with numpy's bundled OpenBLAS; other BLAS
kernels can move last bits, so the test skips on any other host.
"""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SHAPES = ("32x16", "40x12")


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError):
        return None


def test_small_shapes_match_committed_digests(tmp_path, capsys):
    blas, machine = _blas_name(), platform.machine()
    if blas != "scipy-openblas" or machine not in ("x86_64", "AMD64"):
        pytest.skip(f"digests were made on x86-64 with scipy-openblas, not {machine} with {blas}")
    spec = importlib.util.spec_from_file_location("report_corpus", ROOT / "tools" / "report_corpus.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    configs = [c for c in tool.corpus() if f"{c[0]}x{c[1]}" in SHAPES]
    tool.run_corpus(str(ROOT / "src"), tmp_path, configs)
    lines = capsys.readouterr().out.splitlines()
    committed = (ROOT / "tools" / "corpus_digests.txt").read_text().splitlines()
    assert len(lines) == 32
    assert lines == [line for line in committed if line.split()[0] in SHAPES]
