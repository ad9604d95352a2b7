#!/usr/bin/env python3
"""Build and run the SCALO end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload serve-unique --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --selftest

The first run configures and builds an optimised tree under
$CARGO_TARGET_DIR (default .bench_build) from the sources of the
checkout the benchmark sits in; later runs rebuild only what changed.
Build output goes to stderr. The benchmark's lines go to stdout; the
last one is the JSON result, checked here against BENCHMARK.json
before it is passed on. See NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "scalo")):
        fail(f"no SCALO sources next to the benchmark in {ROOT}")
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", "-DSCALO_MARCH=native"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line's shape and metric set, per BENCHMARK.json."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metric mismatch: missing {missing}, extra {extra}, "
             f"units {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        out = build(["e2ebench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "e2ebench_tests")],
                                cwd=ROOT, check=False).returncode)
    if not args.workload:
        parser.error("--workload is required")

    out = build(["e2ebench"])
    command = [os.path.join(out, "e2ebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with {done.returncode} and no result")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
