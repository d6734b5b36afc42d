#!/usr/bin/env python3
"""Run one workload of the agsim benchmark and print its result.

Usage (from the repository root):

    python3 agbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the agsim libraries and the benchmark runner from source into
$CARGO_TARGET_DIR/agbench (default .bench_build/agbench), runs the
helpers' unit test, then runs the workload in its own process. The last
line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}

An untraced run (--trace 0) reports the end-to-end metrics and a traced
run (--trace 1) the per-layer metrics, both as BENCHMARK.json names
them; a traced run also writes a Chrome trace to
.bench_out/trace-<workload>-<seed>.json. Build output and check
messages go to standard error. Exits 0 only when the run completed and
every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("svc_flash_serial", "svc_chaos_t2", "svc_sampled_diurnal",
             "fig_sweep")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("agbench: " + message, file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_step(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(bench_dir, os.pardir, "src",
                                       "CMakeLists.txt")):
        fail("agsim sources (src/) not found next to " + bench_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", bench_dir, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_step(["cmake", "--build", build_dir, "-j", jobs],
                    BUILD_TIMEOUT_S):
        fail("build failed")
    if not run_step([os.path.join(build_dir, "agbench_test")], 60):
        fail("benchmark helper tests failed")


def metric_units(root, traced):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "agbench")
    build(bench_dir, build_dir)

    cmd = [os.path.join(build_dir, "agbench_run"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload run printed no result (exit %d)" % done.returncode)
    raw = json.loads(lines[-1])

    units = metric_units(root, args.trace)
    if set(raw["metrics"]) != set(units):
        fail("metric set mismatch: %s" %
             sorted(set(raw["metrics"]) ^ set(units)))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    ok = done.returncode == 0 and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
