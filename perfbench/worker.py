"""One workload in one fresh interpreter: closed-loop ``qmedr compare`` reports.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --out DIR [--trace]

Reports run one at a time in this process through ``qmedr.cli.main``. Each
report gets its own dataset seed; its CSV is written and garbage collected
before its timer starts. The loop runs whole rounds of the four variants
until ``--seconds`` have passed. A deterministic report on the dataset of
index 0 runs before the loop (it also warms the process) and again after it,
so the two can be compared byte for byte.

With ``--trace`` the rounds cycle through untraced, traced for time and
traced for memory (``tracer.Tracer``), and the loop ends on a whole cycle.
Results go to ``DIR/worker.json``, spans to ``DIR/trace.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qmedr import cli, datasets  # noqa: E402


def blas_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def write_dataset(path: Path, n: int, f: int, seed: int) -> None:
    datasets.save_dataset_csv(datasets.synth_blobs(n, f, workloads.CLASSES, seed), str(path))


def run_report(argv: list[str], tracer=None, index: int = 0) -> tuple[int, float]:
    gc.collect()
    sink = io.StringIO()
    if tracer is not None:
        tracer.begin_report(index)
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = cli.main(argv)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_report()
    return rc, seconds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    out = Path(args.out)

    # the set-up interpreters report on this fixed dataset after the loop
    write_dataset(out / "setup.csv", *workloads.SETUP_SHAPE, workloads.SETUP_DATA_SEED)

    def report(index: int, variant: str, flags, tag: str, tracer=None) -> dict:
        seed = workloads.dataset_seed(wl, args.seed, index)
        report_dir = out / tag
        report_dir.mkdir()
        data = report_dir / "data.csv"
        write_dataset(data, wl.n_samples, wl.n_features, seed)
        argv = workloads.compare_argv(str(data), variant, wl.m, flags, seed, str(report_dir))
        rc, seconds = run_report(argv, tracer, index)
        return {"index": index, "tag": tag, "variant": variant, "seed": seed, "rc": rc,
                "seconds": seconds}

    repeat_variant = workloads.VARIANTS[0]
    repeat = [report(0, repeat_variant, wl.deterministic_flags, "repeat-a")]

    tracer = None
    cycle = (None,)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        cycle = (None, "time", "memory")

    records = []
    trace_info = {}
    index = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = cycle[rounds % len(cycle)]
        if traced:
            tracer.install(memory=traced == "memory")
        for variant in workloads.VARIANTS:
            index += 1
            rec = report(index, variant, wl.flags, f"r{index:04d}", tracer if traced else None)
            rec["traced"] = traced
            records.append(rec)
        if traced:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= args.seconds and rounds % len(cycle) == 0:
            break
    loop_s = time.perf_counter() - start

    repeat.append(report(0, repeat_variant, wl.deterministic_flags, "repeat-b"))

    if tracer is not None:
        from tracer import SPAN_FIELDS, summarize

        by_report: dict[int, list] = {}
        for span in tracer.spans:
            by_report.setdefault(span[0], []).append(span)
        for rec in records:
            if rec["traced"]:
                i = rec["index"]
                rec["trace"] = summarize(by_report.get(i, []), tracer.calls[i])
        with open(out / "trace.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
        trace_info = {"spans": len(tracer.spans), "bindings": tracer.binding_count}

    doc = {
        "records": records,
        "repeat": repeat,
        "rounds": rounds,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pid": os.getpid(),
        "tracer": trace_info,
        **blas_record(),
    }
    with open(out / "worker.json", "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
