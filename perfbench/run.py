#!/usr/bin/env python3
"""Build and run the nvsys wall-clock benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench with CMake;
later runs only rebuild what changed. The benchmark's readable report goes
to stdout, and its last line is the result JSON. Spans of traced runs are
written under .bench_out/. Exits non-zero, printing no result, when the
build fails, an output or accounting check fails, or the run times out.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("httpd_table3", "fleet_open_attack", "churn_saturated")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(bench_dir, build_dir):
    """Configure once, then build incrementally; serialized by a file lock."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            # Build output goes to stderr: stdout's last line is the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                return None
    return os.path.join(build_dir, "nvbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isdir(os.path.join(root, "src")):
        return fail(f"no library sources at {os.path.join(root, 'src')}: "
                    "run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    try:
        binary = build(bench_dir, build_dir)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if binary is None or not os.path.exists(binary):
        return fail("build failed")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", os.path.join(root, ".bench_out")]
    try:
        # subprocess.run kills and reaps the benchmark if it overruns.
        done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return fail(f"benchmark exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        return fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        sys.stderr.write(done.stdout)
        return fail("malformed or incorrect result")

    # The result line carries exactly the metrics BENCHMARK.json lists for
    # this mode, with the units it states.
    with open(os.path.join(root, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    listed = spec["per_layer" if args.trace == "1" else "end_to_end"]
    metrics = {}
    for entry in listed:
        measured = result["metrics"].get(entry["name"])
        if measured is None or measured["unit"] != entry["unit"]:
            sys.stderr.write(done.stdout)
            return fail(f"metric {entry['name']} [{entry['unit']}] was not measured")
        metrics[entry["name"]] = measured
    result["metrics"] = metrics
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
