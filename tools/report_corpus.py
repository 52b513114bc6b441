"""Digest the CLI's report files over a fixed corpus of configs.

    python tools/report_corpus.py [--src DIR] [--keep DIR] > digests.txt
    python tools/report_corpus.py --diff A B

For every config it runs ``qmedr compare``, ``graph``, ``classical`` and
``quantum-sim`` through ``qmedr.cli.main`` into a temporary directory and
prints one line: the config, the four exit codes and the sha256 of every
file those commands write. Run it on two source trees (``--src`` points at a
tree's ``src`` directory; the default is this repository's) and diff the
outputs: equal lines mean byte-identical reports. ``tools/corpus_digests.txt``
holds the lines of this tree, made on a 2-core x86-64 host with numpy's
bundled OpenBLAS (BLAS kernels can move last bits between hosts). A change
that keeps reports byte-identical leaves it as it is. A change that moves
them on purpose replaces it and records the ``--diff`` in ``CHANGES.md``.

``--keep DIR`` writes the datasets and every config's output directory under
DIR instead of a temporary directory. ``--diff A B`` compares two such
directories: for each config whose files differ it prints every differing
JSON leaf by file and path with its maximum absolute delta (numeric leaves)
or both values, and names each CSV file whose bytes differ. A
change that moves a field in its last bits is then stated field by field.

Corpus: ``synth_blobs`` data with two classes and seed 0 at
(N, F) in {(32, 16), (64, 32), (128, 64), (40, 12)} x the four variants x
{deterministic, sampled} x ``--analog`` on and off; sampled mode at
(128, 64) runs for ELPP only. (1024, 16) runs the four variants in
deterministic mode with ``--analog`` only: its neighbour search crosses
several row blocks, where the smaller shapes fit in one. 62 configs in all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SHAPES = ((32, 16), (64, 32), (128, 64), (40, 12), (1024, 16))
VARIANTS = ("ELPP", "EUDP", "ENPE", "EDA")
MODES = ("deterministic", "sampled")
COMMANDS = ("compare", "graph", "classical", "quantum-sim")
OUTPUTS = ("report.json", "compare.csv", "graph.json", "classical.json", "y_classical.csv",
           "quantum.json", "y_quantum.csv")


def corpus():
    for n, f in SHAPES:
        for variant in VARIANTS:
            if (n, f) == (1024, 16):
                yield n, f, variant, "deterministic", True
                continue
            for mode in MODES:
                if mode == "sampled" and (n, f) == (128, 64) and variant != "ELPP":
                    continue
                for analog in (False, True):
                    yield n, f, variant, mode, analog


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def run_corpus(src: str, root: Path, configs=None) -> None:
    """Print the digest line of each (N, F, variant, mode, analog) config, by default corpus()."""
    configs = list(corpus() if configs is None else configs)
    sys.path.insert(0, src)
    from qmedr import cli, datasets

    for n, f in dict.fromkeys((n, f) for n, f, *_ in configs):
        datasets.save_dataset_csv(datasets.synth_blobs(n, f, 2, seed=0), str(root / f"{n}x{f}.csv"))
    for n, f, variant, mode, analog in configs:
        out = root / f"{n}x{f}-{variant}-{mode}-{int(analog)}"
        argv = [str(root / f"{n}x{f}.csv"), "--variant", variant, "--mode", mode,
                "--out-dir", str(out)] + (["--analog"] if analog else [])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = "/".join(str(cli.main([command] + argv)) for command in COMMANDS)
        digests = " ".join(digest(out / name) for name in OUTPUTS)
        print(f"{n}x{f} {variant} {mode} analog={int(analog)} rc={rc} {digests}", flush=True)


def json_leaves(doc, path: str = "$"):
    """Yield (JSON path, value) for every scalar leaf of a parsed document."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from json_leaves(doc[key], f"{path}.{key}")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from json_leaves(item, f"{path}[{i}]")
    else:
        yield path, doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_reports(a: Path, b: Path) -> dict:
    """Differing leaves of two JSON files: path -> (delta or None, a, b)."""
    leaves_a = dict(json_leaves(json.loads(a.read_text())))
    leaves_b = dict(json_leaves(json.loads(b.read_text())))
    out = {}
    for path in sorted(leaves_a.keys() | leaves_b.keys()):
        va, vb = leaves_a.get(path), leaves_b.get(path)
        if va == vb and type(va) is type(vb):
            continue
        delta = abs(vb - va) if _is_number(va) and _is_number(vb) else None
        out[path] = (delta, va, vb)
    return out


def diff_trees(a: Path, b: Path) -> int:
    """Print every differing file and report.json leaf; return the count of configs that differ."""
    configs = sorted({p.name for p in a.iterdir() if p.is_dir()}
                     | {p.name for p in b.iterdir() if p.is_dir()})
    differing = 0
    worst: dict[str, float] = {}
    changed: set[str] = set()
    for config in configs:
        names = sorted({p.name for p in (a / config).glob("*")}
                       | {p.name for p in (b / config).glob("*")})
        lines = []
        for name in names:
            fa, fb = a / config / name, b / config / name
            if digest(fa) == digest(fb):
                continue
            if name.endswith(".json") and fa.exists() and fb.exists():
                for leaf, (delta, va, vb) in diff_reports(fa, fb).items():
                    path = f"{name}:{leaf}"
                    if delta is None:
                        lines.append(f"  {path}: {va!r} -> {vb!r}")
                        changed.add(path)
                    else:
                        lines.append(f"  {path}: |delta| {delta:.3g}")
                        worst[path] = max(worst.get(path, 0.0), delta)
            else:
                lines.append(f"  {name}: bytes differ")
        if lines:
            differing += 1
            print(config)
            print("\n".join(lines))
    print(f"{differing} of {len(configs)} configs differ")
    for path, delta in sorted(worst.items()):
        print(f"{path}: max |delta| {delta:.3g} over the corpus")
    for path in sorted(changed):
        print(f"{path}: non-numeric change")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source directory holding the qmedr package")
    parser.add_argument("--keep", metavar="DIR",
                        help="write the datasets and every config's outputs under DIR")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two --keep directories leaf by leaf and exit")
    args = parser.parse_args(argv)
    if args.diff:
        return 1 if diff_trees(Path(args.diff[0]), Path(args.diff[1])) else 0
    if args.keep:
        root = Path(args.keep)
        root.mkdir(parents=True, exist_ok=True)
        run_corpus(args.src, root)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        run_corpus(args.src, Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
