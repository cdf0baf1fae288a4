#!/usr/bin/env python3
"""Pinned benchmark for robustchow: one workload per learner entry point.

    python3 perfbench/run.py --workload chow-d3 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the program from ./src. The
last line of stdout is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). `--workload all` runs
every workload in its own process and prints each metric with its unit.
README.md defines the loop, the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("chow-d3", "ptf-d2", "ltf-localize", "intersection-k2")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("learn_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("samples_drawn", "count"),
    ("chow_error", "l2"),
    ("disagreement", "fraction"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas() -> int:
    """Pin BLAS threads to at most 2 and at most nproc; numpy must not be
    imported yet, because OpenBLAS reads the variable when it loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    threads = max(1, min(2, nproc()))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def load_program():
    """Import robustchow from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import robustchow
    where = Path(robustchow.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"robustchow imported from {where}, not from {src}")


def blas_threads_in_use():
    """Ask each loaded OpenBLAS how many threads it runs."""
    import ctypes
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if len(line.split()) >= 6}
    libs = {p for p in paths if "openblas" in Path(p).name.lower() and ".so" in Path(p).name}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(threads: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "blas_threads_pinned": threads,
            "blas_threads_in_use": blas_threads_in_use(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def tail(times):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile). Below twenty samples that percentile would sit at
    or under the median, so the maximum is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> int:
    threads = pin_blas()
    load_program()
    import numpy as np
    import layers
    from spans import Tracer
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    tracer = Tracer()
    layers.instrument(tracer, traced)
    print("env " + json.dumps(environment(threads)), flush=True)

    def build(i):
        return workload.build(np.random.SeedSequence(seed, spawn_key=(i,)), i)

    # The first builds grow the heap and run about twice as slow as later
    # ones, so set-up is timed only when an instance is built again.
    instances = [build(i) for i in range(workload.instances)]
    setup_times = []
    plain_times, traced_times = [], []
    per_instance = {}         # index -> (Result, samples drawn)
    checked = {}              # (index, output fingerprint) -> Result
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    call = 0
    while True:
        # Traced runs make pairs of one plain and one traced call on the same
        # instance, plain first in even pairs and traced first in odd ones.
        idx = (call // 2 if traced else call) % len(instances)
        span_call = traced and call % 2 != (call // 2) % 2
        inst = instances[idx]
        source = tracer.counted_source(inst.source) if inst.source is not None else None
        attempted += 1
        error = None
        tracer.begin_call(span_call, "learn." + workload.learner)
        t0 = time.perf_counter()
        try:
            out = workload.call(inst, source)
        except Exception as exc:   # a raising call is a failed call
            error = exc
        elapsed = time.perf_counter() - t0
        tracer.end_call(error)
        (traced_times if span_call else plain_times).append(elapsed)
        if error is None:
            key = (idx, workloads.fingerprint(out))
            if key not in checked:
                checked[key] = workload.check(inst, out)
            per_instance[idx] = (checked[key], len(inst.train) + tracer.draws)
            if not checked[key].ok:
                failed += 1
                print(f"check failed: instance {idx}: {checked[key]}", file=sys.stderr)
        else:
            failed += 1
            print(f"call failed: instance {idx}: {type(error).__name__}: {error}",
                  file=sys.stderr)
        call += 1
        if not traced or call % 2 == 0:
            # Set up the instance again (same seed, same inputs): set-up
            # samples spread over the run, so one stall cannot set the median.
            t0 = time.perf_counter()
            instances[idx] = build(idx)
            setup_times.append(time.perf_counter() - t0)
            # Plain runs stop after whole rounds, so every instance is
            # called equally often.
            if call % (2 if traced else len(instances)) == 0 \
                    and time.perf_counter() >= deadline:
                break

    if traced:
        rows = [layers.layer_values(t) for t in tracer.call_totals()]
        metrics = {name: {"value": statistics.median(r[name] for r in rows), "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
        overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload_name}-seed{seed}.json")
    else:
        tail_value, tail_pct = tail(plain_times)
        print(f"learn_s_tail {tail_value!r} s (p{tail_pct:.1f} of {len(plain_times)} calls)",
              flush=True)
        # Per-instance values are averaged over the instances the run used.
        results = [r for r, _ in per_instance.values()]
        values = {
            "learn_s": statistics.median(plain_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples_drawn": statistics.fmean(s for _, s in per_instance.values()),
            "chow_error": statistics.fmean(r.chow_error for r in results),
            "disagreement": statistics.fmean(r.disagreement for r in results),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        env = next((l[4:] for l in lines if l.startswith("env ")), "{}")
        print(f"== {name} (seed {seed}, {seconds} s, trace {int(traced)}) env {env}")
        print(f"  failed_frac  {res['failed'] / res['attempted']!r}  "
              f"({res['failed']}/{res['attempted']} calls)")
        for metric, entry in res["metrics"].items():
            print(f"  {metric}  {entry['value']!r} {entry['unit']}")
        for line in lines:
            if line.startswith("learn_s_tail "):
                print("  " + line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot load robustchow from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
