"""Command-line entry point.

Subcommands: synth, graph, classical, quantum-sim, compare, resources.
Reports are single JSON documents (deterministic byte output for a fixed
config and seed); projected tables are also written as CSV. Exit codes:
0 success, 2 validation error, 3 numerical failure (overflow, a failed
comparison, or a degenerate spectral cut under --strict).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import datasets, pipeline, resources
from .embedding import VARIANTS
from .pipeline import RunConfig
from .quantum_sim import FixedPointOverflow

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("QMEDR_OUTDIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _dump_json(doc: dict, path: str) -> None:
    # one write: json.dump would stream thousands of small writes
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_table(path: str, table: np.ndarray, header: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(table):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_tidy_compare(path: str, y_classical, y_quantum) -> None:
    # tolist() gives Python floats, whose repr is that of float(np.float64)
    yc = np.asarray(y_classical, dtype=float).tolist()
    yq = np.asarray(y_quantum, dtype=float).tolist()
    lines = [f"{i},{j},{a!r},{b!r},{abs(a - b)!r}\n"
             for i, (row_c, row_q) in enumerate(zip(yc, yq))
             for j, (a, b) in enumerate(zip(row_c, row_q))]
    with open(path, "w") as fh:
        fh.write("i,j,y_classical,y_quantum,abs_error\n" + "".join(lines))


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})
    cfg.validate()
    return cfg


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", choices=VARIANTS)
    sub.add_argument("--m", type=int, help="output dimensions")
    sub.add_argument("--k", type=int, help="neighbor count")
    sub.add_argument("--sigma", type=float, help="heat-kernel width (default: median distance)")
    sub.add_argument("--kappa-target", type=float, dest="kappa_target")
    sub.add_argument("--eps", type=float, help="target accuracy of the output entries")
    sub.add_argument("--eps1", type=float, help="phase-register resolution override")
    sub.add_argument("--eps2", type=float, help="inner-product accuracy override")
    sub.add_argument("--eps-be", type=float, dest="eps_be", help="exponential-encoding accuracy")
    sub.add_argument("--accuracy-bits", type=int, dest="accuracy_bits", help="phase accuracy bits n")
    sub.add_argument("--eta", type=float, help="phase-estimation failure budget")
    sub.add_argument("--q2", type=int, help="value-register bits")
    sub.add_argument("--int-bits", type=int, dest="int_bits")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--mode", choices=["deterministic", "sampled"])
    sub.add_argument("--sign-source", choices=["anchor", "reference"], dest="sign_source")
    sub.add_argument("--shots", type=int)
    sub.add_argument("--analog", action="store_true", help="also assemble the analog state")
    sub.add_argument("--include-k", action="store_true", dest="include_k")
    sub.add_argument("--strict", action="store_true", help="a degenerate spectral cut becomes fatal")
    sub.add_argument("--out-dir", dest="out_dir")
    # every config flag takes its default from RunConfig
    sub.set_defaults(**RunConfig().to_dict())


def _load(args):
    with_labels = True if args.variant == "EDA" else None
    return datasets.load_dataset_csv(args.dataset, with_labels=with_labels)


def cmd_synth(args) -> int:
    out = _out_dir(args)
    if args.kind == "blobs":
        ds = datasets.synth_blobs(args.n, args.features, args.classes, args.seed)
    else:
        ds = datasets.synth_ring(args.n, args.features, args.classes, args.seed)
    path = os.path.join(out, args.name)
    datasets.save_dataset_csv(ds, path)
    print(path)
    return EXIT_OK


def cmd_graph(args) -> int:
    cfg = _config_from_args(args)
    ds = _load(args)
    doc = pipeline.graph_summary(ds, cfg)
    out = _out_dir(args)
    _dump_json({"config": cfg.to_dict(), "graph": doc}, os.path.join(out, "graph.json"))
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_classical(args) -> int:
    cfg = _config_from_args(args)
    ds = _load(args)
    out_dir = _out_dir(args)
    result, problem, _ = pipeline.run_classical(ds, cfg)
    if cfg.strict and result.solution.degenerate_cut:
        print("degenerate spectral cut", file=sys.stderr)
        return EXIT_NUMERICAL
    doc = pipeline.json_clean({
        "config": cfg.to_dict(),
        "problem": pipeline.problem_section(problem),
        "classical": pipeline.classical_section(result),
    })
    _dump_json(doc, os.path.join(out_dir, "classical.json"))
    _write_table(os.path.join(out_dir, "y_classical.csv"), result.Y,
                 [f"y{j}" for j in range(result.Y.shape[1])])
    print(f"eigenvalues: {[round(float(v), 6) for v in result.solution.eigenvalues]}")
    return EXIT_OK


def cmd_quantum_sim(args) -> int:
    cfg = _config_from_args(args)
    ds = _load(args)
    out_dir = _out_dir(args)
    run = pipeline.run_quantum(ds, cfg)
    if cfg.strict and run.solution.degenerate_cut:
        print("degenerate spectral cut", file=sys.stderr)
        return EXIT_NUMERICAL
    doc = pipeline.json_clean({
        "config": cfg.to_dict(),
        "quantum": pipeline.quantum_section(run),
        "resources": pipeline.resources_section(run, cfg),
    })
    _dump_json(doc, os.path.join(out_dir, "quantum.json"))
    _write_table(os.path.join(out_dir, "y_quantum.csv"), run.digital.entries,
                 [f"y{j}" for j in range(run.digital.entries.shape[1])])
    print(f"epsilon_total: {run.digital.epsilon_total:.6g}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    ds = _load(args)
    out_dir = _out_dir(args)
    doc = pipeline.full_report(ds, cfg)
    _dump_json(doc, os.path.join(out_dir, "report.json"))
    _write_tidy_compare(os.path.join(out_dir, "compare.csv"),
                        doc["classical"]["Y"], doc["quantum"]["entries"])
    cmp_doc = doc["compare"]
    print(
        f"max|dy|={cmp_doc['max_abs_error']:.3e} "
        f"mean|dy|={cmp_doc['mean_abs_error']:.3e} "
        f"bound={doc['quantum']['epsilon_total']:.3e} "
        f"passed={cmp_doc['passed']}"
    )
    if cfg.strict and cmp_doc["aligned"]:
        print("degenerate spectral cut", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if cmp_doc["passed"] else EXIT_NUMERICAL


def cmd_resources(args) -> int:
    with open(args.params) as fh:
        raw = json.load(fh)
    variant = raw.pop("variant", "ELPP")
    include_k = bool(raw.pop("include_k", False))
    params = resources.ResourceParams(**raw)
    report = resources.eval_step_costs(params)
    doc = pipeline.json_clean({
        "per_step": report.per_step,
        "polylog": report.polylog,
        "variant": resources.variant_comparison(params, variant, include_k),
        "parameters": report.parameters,
    })
    out_dir = _out_dir(args)
    _dump_json(doc, os.path.join(out_dir, "resources.json"))
    print(json.dumps(doc["per_step"], sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmedr", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("kind", choices=["blobs", "ring"])
    synth.add_argument("--n", type=int, default=32)
    synth.add_argument("--features", type=int, default=16)
    synth.add_argument("--classes", type=int, default=2)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--name", default="dataset.csv")
    synth.add_argument("--out-dir", default=None, dest="out_dir")
    synth.set_defaults(func=cmd_synth)

    for name, func in (
        ("graph", cmd_graph),
        ("classical", cmd_classical),
        ("quantum-sim", cmd_quantum_sim),
        ("compare", cmd_compare),
    ):
        sub = subs.add_parser(name)
        sub.add_argument("dataset", help="dataset CSV path")
        _add_config_flags(sub)
        sub.set_defaults(func=func)

    res = subs.add_parser("resources", help="evaluate cost expressions from a params JSON")
    res.add_argument("params", help="JSON file of resource parameters")
    res.add_argument("--out-dir", default=None, dest="out_dir")
    res.set_defaults(func=cmd_resources)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs more than parsing with it, so build it once
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FixedPointOverflow as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
