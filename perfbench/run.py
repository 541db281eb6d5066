"""Benchmark of hypkernels: `gram`, `train` and `eval` workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gram --seed 1 --seconds 10 --trace 0

The package is imported from `src/` of the checkout.  One caller drives
the package in a closed loop and the loop stops starting requests once
`--seconds` of request time has been measured (`gram` finishes its
current cycle first).  Output checks run between requests, outside the
timers.

`--trace 0` times the requests untraced and reports the end-to-end
metrics.  `--trace 1` runs each request twice, once plain and once under
the tracer, reports per-layer calls and self time per traced request,
the tracing overhead, and checks the predicted routing of each workload.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it
start with `#` and describe the machine and the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import TARGETS, Tracer
from workloads import WORKLOADS

PACKAGE = "hypkernels"
MODULES = ("cli", "geometry", "rkhs", "kernels", "checks", "diff", "_gmath", "learning")
# Set-up is short, so it is repeated, spread over the run, and its median
# reported.
SETUP_REPEATS = 7
# Latency percentiles are taken within blocks of this many consecutive
# requests and averaged over the blocks (see block_percentile).
BLOCK_REQUESTS = 100
WORK_DIR = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def package_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == PACKAGE or k.startswith(PACKAGE + ".")}


def import_package(src: Path) -> dict:
    """Import the package afresh, so every set-up pays the import cost."""
    for name in package_modules():
        del sys.modules[name]
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {src}")
    return modules


def machine_facts() -> dict:
    """Facts read from the running process; nothing is set."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": threads,
    }


def timed(workload, i):
    """One request: (seconds, outcome or the exception it raised)."""
    start = time.perf_counter()
    try:
        outcome = workload.request(i)
    except SystemExit as exc:  # the CLI rejected its command line
        outcome = exc.code
    except Exception as exc:  # counted as a failed request
        outcome = exc
    return time.perf_counter() - start, outcome


def checked(workload, i, outcome) -> bool:
    if isinstance(outcome, Exception):
        error = "".join(traceback.format_exception_only(type(outcome), outcome)).strip()
    else:
        try:
            error = workload.check(i, outcome)
        except Exception as exc:
            error = f"output check raised {exc!r}"
    if error is not None:
        print(f"# request {i} failed: {error}", file=sys.stderr)
    return error is None


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_setup(workload_cls, seed, workdir, src):
    start = time.perf_counter()
    workload = workload_cls(seed, workdir)
    workload.setup(import_package(src))
    return workload, time.perf_counter() - start


def block_percentile(ms, q):
    """Percentile q within blocks of consecutive requests, averaged.

    On a shared virtual machine other tenants slow every request, in
    phases of seconds to minutes (by up to 1.7x on the 2-vCPU Xeon VM
    this benchmark was defined on).  Short requests then have a bimodal
    latency distribution whose plain median jumps between the two modes
    from run to run.  The percentile of a block of BLOCK_REQUESTS
    requests tracks the phase the block ran in, and the mean over the
    blocks moves smoothly with the share of slow phases.  Each block
    keeps ten samples beyond its 90th percentile.  A run of fewer than
    2 * BLOCK_REQUESTS requests is one block.
    """
    blocks = np.array_split(ms, max(1, len(ms) // BLOCK_REQUESTS))
    return float(np.mean([np.percentile(b, q) for b in blocks]))


def measure(workload, seconds, resetup):
    """Untraced closed loop; returns end-to-end metrics and failure count.

    `resetup()` times one more set-up; it is called at evenly spaced
    points of the run, between requests, so set-up samples several
    contention phases.
    """
    setup_times = [resetup()]
    latencies = []
    busy = 0.0
    pairs = 0
    failed = 0
    i = 0
    while busy < seconds or i % workload.batch:
        dt, outcome = timed(workload, i)
        latencies.append(dt)
        busy += dt
        pairs += workload.pairs(i)
        failed += not checked(workload, i, outcome)
        i += 1
        if (len(setup_times) < SETUP_REPEATS
                and busy >= seconds * len(setup_times) / SETUP_REPEATS):
            setup_times.append(resetup())
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(resetup())
    ms = np.array(latencies) * 1e3
    metrics = {
        "ok_frac": metric(1.0 - failed / i, "frac"),
        "latency_ms_p50": metric(block_percentile(ms, 50), "ms"),
        "latency_ms_p90": metric(block_percentile(ms, 90), "ms"),
        "pairs_per_s": metric(pairs / busy, "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    print(f"# {i} requests, {pairs} pairs in {busy:.3f} s of request time;"
          f" set-up times {[round(t, 4) for t in setup_times]}")
    return metrics, i, failed


def measure_traced(workload, seconds):
    """Each request plain, then traced; per-layer metrics per traced request."""
    tracer = Tracer()
    plain = traced = 0.0
    failed = 0
    i = 0
    while plain + traced < seconds or i % workload.batch:
        dt, outcome = timed(workload, i)
        plain += dt
        failed += not checked(workload, i, outcome)
        with tracer:
            dt, outcome = timed(workload, i)
        traced += dt
        failed += not checked(workload, i, outcome)
        i += 1
    metrics = {}
    for name in TARGETS:
        stat = tracer.stats.get(name)
        calls, self_s = (stat.calls, stat.self_s) if stat else (0, 0.0)
        key = name.lstrip("_")  # metric names must start with a letter
        metrics[f"{key}.calls"] = metric(calls / i, "count/req")
        metrics[f"{key}.self_ms"] = metric(self_s * 1e3 / i, "ms/req")
    metrics["trace.overhead_frac"] = metric(traced / plain - 1.0, "frac")
    metrics["trace.absent"] = metric(len(tracer.absent), "count")

    print(f"# {i} requests traced; {traced:.3f} s traced vs {plain:.3f} s plain")
    for name in tracer.absent:
        print(f"# absent: {name}")
    print("#    calls/req    self_ms/req  call path")
    for path, stat in sorted(tracer.paths.items()):
        print(f"# {stat.calls / i:12.1f} {stat.self_s * 1e3 / i:14.3f}  {path}")

    violations = [f"{name} made {tracer.stats[name].calls} calls, expected none"
                  for name in workload.zero
                  if name in tracer.stats and tracer.stats[name].calls]
    violations += [f"{name} made no calls, expected some"
                   for name in workload.nonzero
                   if name in tracer.stats and not tracer.stats[name].calls]
    for v in violations:
        print(f"# routing violation: {v}", file=sys.stderr)
    return metrics, 2 * i, failed, not violations


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: {src / PACKAGE} not found; run from the root of a "
              "hypkernels checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))

    workdir = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload_cls = WORKLOADS[args.workload]
        workload, _ = timed_setup(workload_cls, args.seed, workdir, src)
        workload.prepare_checks()
        if args.trace:
            metrics, attempted, failed, routed = measure_traced(workload, args.seconds)
        else:
            def resetup():
                # The measured workload keeps using its own import of the
                # package, lazy imports inside its functions included.
                measured = package_modules()
                try:
                    return timed_setup(workload_cls, args.seed, workdir, src)[1]
                finally:
                    for name in package_modules():
                        del sys.modules[name]
                    sys.modules.update(measured)

            metrics, attempted, failed = measure(workload, args.seconds, resetup)
            routed = True
        print("# " + workload.summary())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = {"correct": failed == 0 and routed, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
