"""Benchmark of the slm system on seeded workloads.

    python3 perfbench/run.py --workload stories --seed 1 --seconds 30 --trace 0

runs one workload in this process with every BLAS pool capped at one
thread, checks the program's outputs, prints a run manifest and a
metric table, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload under the span tracer and reports the per-layer metrics
instead, writing the spans to ``perfbench/.work/``. ``--workload all``
runs every workload, each in a fresh process, one after another.
Run it from the root of a source checkout: it imports ``slm`` from
``src/`` beside this directory and nothing installed. The exit code is
0 when every output check passed, 1 when one failed and 2 when the
benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("stories", "long-docs", "finetune")
THREAD_VARS = ("SLM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def cap_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread caps")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env=env, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable (not a git checkout)"
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over src/slm/*.py, for checkouts without git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "slm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def manifest(args, run) -> dict:
    import numpy

    import bench
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work": run.work,
        "inputs": run.out.inputs,
        "phase_seconds": run.out.phase_s,
        "speed_probe_ms": {
            "median": 1e3 * statistics.median(run.speed.samples),
            "usual": 1e3 * bench.REF_SECONDS,
            "samples": len(run.speed.samples)},
        "config": run.out.echo,
    }


def print_table(rows, header=("metric", "value", "unit", "samples")) -> None:
    print(f"{header[0]:<46} {header[1]:>14} {header[2]:<7} {header[3]}")
    for name, value, unit, n in rows:
        print(f"{name:<46} {value:>14.6g} {unit:<7} {n}")


def report(out, metrics: dict) -> int:
    rate = out.failed / max(1, out.attempted)
    print(f"error_rate {rate:.6g} ratio "
          f"({out.failed} failed of {out.attempted} attempted)")
    for problem in out.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0 if out.correct else 1


def run_one(args) -> int:
    import bench
    import slm
    if os.path.dirname(os.path.abspath(slm.__file__)) != os.path.join(
            SRC, "slm"):
        print(f"error: slm imported from {slm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    print(f"# slm benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    try:
        if args.trace:
            dump = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.npz")
            run, tracer, base_p50 = bench.run_traced(
                args.workload, args.seed, args.seconds, work_dir, dump)
            print("manifest " + json.dumps(manifest(args, run)))
            print(f"span dump: {os.path.relpath(dump, ROOT)} "
                  f"({len(tracer.span_start)} spans)")
            return report(run.out, print_layers(bench, run, tracer, base_p50))
        run = bench.run_untraced(args.workload, args.seed, args.seconds,
                                 work_dir)
        out = run.out
        print("manifest " + json.dumps(manifest(args, run)))
        print_table((k + (" (printed only)" if k in out.unreported else ""),
                     v, u, f"{n} (raw {out.raw[k]:.6g})")
                    for k, (v, u, n) in out.metrics.items())
        return report(out, {k: (v, u) for k, (v, u, _) in out.metrics.items()
                            if k not in out.unreported})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def print_layers(bench, run, tracer, base_p50) -> dict:
    metrics = {}
    if run.out.correct:
        metrics = bench.layer_metrics(run, tracer, base_p50)
    table = tracer.table()
    primary = run.wl.primary
    steps = max(1, table.calls("optim.adam_update", primary))
    print(f"\nspans of the primary runs {', '.join(primary)} ({steps} steps),"
          " largest self time first")
    print_table(((name, 1e3 * own / steps, "ms/step", calls)
                 for name, calls, _, own in table.listing(primary)[:40]),
                header=("span (self time)", "value", "unit", "calls"))
    print("\nbackward time by the layer that created the op")
    print_table(((name, 1e3 * s / steps, "ms/step", "")
                 for name, s in sorted(table.backward_by_layer(primary).items(),
                                       key=lambda kv: -kv[1])),
                header=("layer", "value", "unit", ""))
    print("\nper-layer metrics")
    print_table((k, v, u, "") for k, (v, u) in metrics.items())
    print("\nnot taken directly from outside the program:")
    for note in bench.NOTES:
        print(f"- {note}")
    return metrics


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        summary["correct"] &= bool(result["correct"]) and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slm", "__init__.py")):
        print(f"error: no slm sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    cap_threads()
    sys.path[:0] = [SRC, HERE]
    try:
        return run_one(args)
    except Exception:  # the benchmark itself broke: no result to print
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
