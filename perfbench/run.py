#!/usr/bin/env python3
"""The repository benchmark: one command, named workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sift-hot --seed 1 --seconds 10 --trace 0

What it does:

1. Builds the benchmark binary from source into .bench_build/perfbench
   (CMake, Release). The package compiles the library sources under src/
   itself, so nothing needs to be built beforehand. The first run in a
   checkout builds; later runs only check that the build is current.
2. Runs the named workload with the sizes, shares and rates recorded for it
   in perfbench/workloads.json, passed to the binary as arguments. The seed
   drives every input: the same seed gives the same data, keys, token
   pools and arrival schedule. To re-check a claim on unseen inputs, pass a
   held-out --seed.
3. Relays the binary's result. The last line of stdout is one JSON object:
   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}} with every
   end-to-end metric (--trace 0) or every per-layer metric (--trace 1), each
   as {"value": v, "unit": u}. Progress goes to stderr.

Exit code: 0 when the run is correct; non-zero when any correctness check
fails (recall below its floor, remote ids differing from in-process ids,
cached ids differing from uncached ids, or a generator that fell behind), when
the build fails, or when the workload is unknown.

All files the run writes stay inside the checkout: the build tree, the span
file of a traced run (.bench_build/traces/) and a temporary directory for the
write-ahead log, which is removed on exit.

Helper unit tests (Zipf sampler, Poisson schedule, percentile rule, marginal
subtraction):

    cmake --build .bench_build/perfbench --target perfbench_test
    .bench_build/perfbench/perfbench_test
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
CONFIG = os.path.join(HERE, "workloads.json")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def workload_args(name):
    """The binary's --key value arguments for one workload."""
    with open(CONFIG) as f:
        config = json.load(f)
    workloads = config["workloads"]
    if name not in workloads:
        log("unknown workload '%s' (known: %s)" % (name, ", ".join(workloads)))
        return None
    args = []
    for key, value in workloads[name]["params"].items():
        if isinstance(value, bool):
            value = int(value)
        args += ["--" + key, str(value)]
    return args


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    params = workload_args(opts.workload)
    if params is None:
        return 2
    if not build():
        log("build failed")
        return 3

    os.makedirs(BUILD_ROOT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    cmd = [BINARY, "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--trace", str(opts.trace),
           "--tmp-dir", tmp_dir] + params
    if opts.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.csv" % (opts.workload, opts.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
