"""Digest the CLI's report files over a fixed corpus of configs.

    python tools/report_corpus.py [--src DIR] > digests.txt

For every config it runs ``qmedr compare`` and ``qmedr graph`` through
``qmedr.cli.main`` into a temporary directory and prints one line: the
config, the two exit codes and the sha256 of ``report.json``,
``compare.csv`` and ``graph.json``. Run it on two source trees (``--src``
points at a tree's ``src`` directory; the default is this repository's) and
diff the outputs: equal lines mean byte-identical reports.

Corpus: ``synth_blobs`` data with two classes and seed 0 at
(N, F) in {(32, 16), (64, 32), (128, 64), (40, 12)} x the four variants x
{deterministic, sampled} x ``--analog`` on and off; sampled mode at
(128, 64) runs for ELPP only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SHAPES = ((32, 16), (64, 32), (128, 64), (40, 12))
VARIANTS = ("ELPP", "EUDP", "ENPE", "EDA")
MODES = ("deterministic", "sampled")
OUTPUTS = ("report.json", "compare.csv", "graph.json")


def corpus():
    for n, f in SHAPES:
        for variant in VARIANTS:
            for mode in MODES:
                if mode == "sampled" and (n, f) == (128, 64) and variant != "ELPP":
                    continue
                for analog in (False, True):
                    yield n, f, variant, mode, analog


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source directory holding the qmedr package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from qmedr import cli, datasets

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for n, f in SHAPES:
            datasets.save_dataset_csv(datasets.synth_blobs(n, f, 2, seed=0), str(root / f"{n}x{f}.csv"))
        for n, f, variant, mode, analog in corpus():
            out = root / f"{n}x{f}-{variant}-{mode}-{int(analog)}"
            argv = [str(root / f"{n}x{f}.csv"), "--variant", variant, "--mode", mode,
                    "--out-dir", str(out)] + (["--analog"] if analog else [])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = [cli.main([command] + argv) for command in ("compare", "graph")]
            digests = " ".join(digest(out / name) for name in OUTPUTS)
            print(f"{n}x{f} {variant} {mode} analog={int(analog)} rc={rc[0]}/{rc[1]} {digests}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
