#!/usr/bin/env python3
"""Build the axiomcc benchmark from source and run one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload eval-fluid --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a CMake project over ../src) into .bench_build/perfbench,
runs the benchmark binary for the workload in its own process, checks that it
printed every metric BENCHMARK.json names for the mode (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1) with its unit, and prints
the binary's human-readable report followed by the JSON result as the last
line. Exits non-zero, without a result, when the sources are missing, the
build fails, or the binary fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("eval-fluid", "eval-packet", "population", "routed")
# The benchmark binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def build():
    source = os.path.relpath(HERE, ROOT)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no axiomcc sources (src/) in this directory", 2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", source, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr; stdout carries only the report.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="smoke-test mode: one set-up pass, small probes")
    args = parser.parse_args()

    build()
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={os.path.join(BUILD_DIR, 'out')}"]
    if args.short:
        cmd.append("--short")
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(f"runner exited with {result.returncode}")
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("runner printed no JSON result")

    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m.get("unit") for name, m in report["metrics"].items()}
        want = dict(expected)
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(n for n in want if n in got and got[n] != want[n])
            fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                 f"extra {extra}, wrong unit {wrong}")

    print("\n".join(lines[:-1]))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
