"""Benchmark of verified ``qmedr compare`` reports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``--workload all`` runs every workload in
turn. One run of one workload:

1. starts a fresh interpreter (``worker.py``) that runs closed-loop reports
   in-process through ``qmedr.cli.main`` for ``--seconds``, in whole rounds
   of the four variants;
2. starts ``SETUP_SAMPLES`` more interpreters (``setup_probe.py``), each of
   which imports ``qmedr.cli`` and completes one cold report on a fixed
   32x16 dataset with the workload's flags;
3. checks every report against the independent reference of ``check.py``,
   plants faults into one passing report to prove that the check rejects
   them, and compares the repeated deterministic report byte for byte;
4. prints the run record and each metric, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from the traced rounds of the worker. Outputs go
to ``perfbench/_out/``. A report fails when the CLI exits non-zero or the
check rejects it; the run record counts the reports on which the two verdicts
disagree. The run is incorrect when the repeated deterministic report fails
the check or differs between its two runs, or a planted fault passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

PER_LAYER = (
    "embedding.s", "embedding.peak_mb", "embedding.build_problem.calls",
    "embedding.knn_graph.calls",
    "block_encoding.s", "block_encoding.be_exp.s", "block_encoding.peak_mb",
    "quantum_sim.simulate_qpe.s", "quantum_sim.qpe_register_distribution.s",
    "quantum_sim.peak_mb",
    "quantum_sim.estimate_inner_products.s", "quantum_sim.assemble_digital_state.s",
    "quantum_sim.assemble_analog_state.s",
    "classical.s", "classical.full_spectrum.calls",
    "linalg.s", "linalg.calls",
    "pipeline.s", "pipeline.compare_outputs.s",
    "datasets.load_dataset_csv.s", "cli.s", "resources.s",
)


def unit_of(name: str) -> str:
    if name == "reports_per_s":
        return "1/s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    return "s"


def host_snapshot() -> dict:
    with open("/proc/loadavg") as fh:
        load = fh.read().split()[:3]
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:]]
    return {"loadavg": [float(v) for v in load], "steal_ticks": ticks[7], "total_ticks": sum(ticks)}


def mix_median(records: list[dict], value) -> float:
    """Median over each variant's reports, averaged over the variants.

    Averaging per-variant medians keeps the value on the whole variant mix;
    a plain median of the pooled reports would sit at the edge between two
    variants and jump with whichever report happened to be slowest there.
    """
    by_variant: dict[str, list[float]] = {}
    for rec in records:
        by_variant.setdefault(rec["variant"], []).append(value(rec))
    return statistics.fmean(statistics.median(v) for v in by_variant.values())


def run_setup_probes(wl: workloads.Workload, out: Path) -> list[dict]:
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = out / f"setup-{i}"
        argv = workloads.compare_argv(str(out / "setup.csv"), workloads.VARIANTS[0], wl.m,
                                      wl.flags, workloads.SETUP_DATA_SEED, str(probe_dir))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *argv],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["wall_s"] = wall
        samples.append(sample)
    return samples


def verify(wl: workloads.Workload, out: Path, rec: dict) -> tuple[list[str], dict | None, object]:
    """Check one report; returns (rejections, report document, reference)."""
    path = out / rec["tag"] / "report.json"
    if not path.is_file():
        return ["no report written"], None, None
    with open(path) as fh:
        doc = json.load(fh)
    x, labels = check.load_csv(str(out / rec["tag"] / "data.csv"))
    try:
        ref = check.reference(x, labels, rec["variant"], workloads.K, wl.m)
    except ValueError as exc:
        return [f"no reference: {exc}"], doc, None
    return check.check_report(doc, ref, rec["variant"], wl.m), doc, ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                    help="one workload, or all of them in turn (one result line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qmedr" / "cli.py").is_file():
        print(f"error: no qmedr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        rc = run_workload(workloads.WORKLOADS[name], args)
        if rc:
            return rc
    return 0


def run_workload(wl: workloads.Workload, args) -> int:
    out = HERE / "_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    before = host_snapshot()
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
              "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out)]
    if args.trace:
        worker.append("--trace")
    proc = subprocess.run(worker, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(out / "worker.json") as fh:
        result = json.load(fh)
    probes = run_setup_probes(wl, out)
    after = host_snapshot()

    records = result["records"]
    failed = 0
    disagreements = []
    problems = []
    for rec in records:
        rejected, _, _ = verify(wl, out, rec)
        if rec["rc"] != 0 or rejected:
            failed += 1
        if (rec["rc"] == 0) == bool(rejected):
            disagreements.append(f"{rec['tag']} {rec['variant']}: exit {rec['rc']}, "
                                 f"check says {rejected or 'pass'}")
    rejected, doc, ref = verify(wl, out, result["repeat"][0])
    if rejected or result["repeat"][0]["rc"] != 0:
        problems.append(f"repeated deterministic report fails: {rejected}")
    else:
        missed = check.planted_faults(doc, ref, result["repeat"][0]["variant"], wl.m)
        if missed:
            problems.append(f"planted faults not rejected: {missed}")
    for name in ("report.json", "compare.csv"):
        a, b = (out / r["tag"] / name for r in result["repeat"])
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            problems.append(f"repeated deterministic report: {name} differs")

    untraced = [r for r in records if not r["traced"]]
    if args.trace:
        traced = [r for r in records if r["traced"] == "time"]
        by_memory = [r for r in records if r["traced"] == "memory"]
        metrics = {name: mix_median(by_memory if name.endswith("_mb") else traced,
                                    lambda r, n=name: r["trace"].get(n, 0.0))
                   for name in PER_LAYER}
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["trace.overhead_s"] = (mix_median(traced, lambda r: r["seconds"])
                                       - mix_median(untraced, lambda r: r["seconds"]))
        metrics["trace.unaccounted_s"] = mix_median(
            traced, lambda r: r["seconds"] - r["trace"]["root_s"])
    else:
        metrics = {
            "setup_s": statistics.median(p["wall_s"] for p in probes),
            "report_s_p50": mix_median(untraced, lambda r: r["seconds"]),
            "reports_per_s": len(untraced) / sum(r["seconds"] for r in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
        }

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **{k: result[k] for k in ("blas", "blas_threads", "python", "numpy", "scipy",
                                  "rounds", "loop_s", "tracer")},
        "setup_rc": [p["rc"] for p in probes],
        "before": before, "after": after,
        "steal_share": (after["steal_ticks"] - before["steal_ticks"])
        / max(after["total_ticks"] - before["total_ticks"], 1),
        "disagreements": disagreements,
        "problems": problems,
    }
    with open(out / "run_record.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{wl.name} seed {args.seed}: {len(records)} reports in {result['rounds']} rounds "
          f"({result['loop_s']:.1f} s), {failed} failed")
    print(f"host: nproc {record['nproc']}, {record['blas']} with {record['blas_threads']} threads, "
          f"python {record['python']}, numpy {record['numpy']}, scipy {record['scipy']}")
    print(f"load {before['loadavg']} -> {after['loadavg']}, steal {record['steal_share']:.2%}")
    for line in disagreements:
        print(f"verdicts disagree: {line}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
