#!/usr/bin/env python3
"""Build and run the qtx end-to-end benchmark (see qtxbench/NOTES.md).

Run from the repository root:

  python3 qtxbench/run.py --workload quickstart --seed 1 --seconds 34 --trace 0
  python3 qtxbench/run.py --workload all --seed 1 --seconds 34
  python3 qtxbench/run.py --self-check

The first call configures and builds the harness (CMake, Release) into
.bench_build (or $CARGO_TARGET_DIR when set). A measuring run prints the
harness report and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
checked against BENCHMARK.json before the line is printed. --self-check
runs every workload once at tiny sizes, traced and untraced, and fails
unless every named metric is emitted with its unit and every output check
passes.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print("qtxbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail("no qtx sources next to the benchmark (run from the repository root)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        )
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "qtx_bench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "qtx_bench")


def spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_harness(binary, args):
    # The harness works relative to the checkout root (the working
    # directory), which keeps its daemon socket paths short enough for AF_UNIX.
    proc = subprocess.run(
        [binary] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=HARNESS_TIMEOUT_S
    )
    out = proc.stdout.decode(errors="replace")
    sys.stderr.write(proc.stderr.decode(errors="replace"))
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("harness exited with %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def check_result(result, expected):
    """Problems with one result line against the BENCHMARK.json metric list."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
        return problems
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in expected):
        problems.append(
            "metrics %s, expected %s" % (sorted(got), sorted(m["name"] for m in expected))
        )
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append("%s unit %r, expected %r" % (m["name"], entry.get("unit"), m["unit"]))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (m["name"], value))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted %r" % result["attempted"])
    return problems


def measure(binary, bench, workload, extra):
    trace = extra[extra.index("--trace") + 1] != "0"
    expected = bench["per_layer" if trace else "end_to_end"]
    report, result = run_harness(binary, ["--workload", workload] + extra)
    problems = check_result(result, expected)
    return report, result, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="34")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    bench = spec(root)
    names = [w["name"] for w in bench["workloads"]]

    if args.self_check or args.workload == "all":
        ok = True
        for workload in names:
            for trace in ("0", "1"):
                extra = ["--seed", args.seed, "--trace", trace]
                if args.self_check:
                    extra += ["--seconds", "0", "--quick"]
                else:
                    extra += ["--seconds", args.seconds]
                report, result, problems = measure(binary, bench, workload, extra)
                print("\n".join(report))
                if not result["correct"] or result["failed"] != 0:
                    problems.append("output checks failed")
                for p in problems:
                    print("SELF-CHECK FAIL %s trace=%s: %s" % (workload, trace, p))
                ok = ok and not problems
        print("qtxbench: %s" % ("all checks passed" if ok else "FAILED"))
        sys.exit(0 if ok else 1)

    if args.workload not in names:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(names)))
    extra = ["--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    report, result, problems = measure(binary, bench, args.workload, extra)
    print("\n".join(report))
    if problems:
        fail("; ".join(problems))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
