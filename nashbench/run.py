#!/usr/bin/env python3
"""Builds and runs the nashbench benchmark.

    python3 nashbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 nashbench/run.py --selftest

Configures and builds the nashlb libraries and the benchmark program from
this checkout in Release mode under .bench_build/nashbench (a no-op when
they are up to date), runs it, and passes its output through. The last
line of standard output is the program's JSON result; before printing
it, this script checks that its metric names are exactly the ones
BENCHMARK.json lists for the run's mode. Exits non-zero, without printing
a result, when the build fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nashbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "nashbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print("nashbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    done = subprocess.run(["cmake", "--build", BUILD, "--target", "nashbench", "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    build()
    args = list(argv)
    if "--selftest" not in args:
        args += ["--out", OUT]
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if "--selftest" in args:
        print("\n".join(lines))
        return done.returncode
    if done.returncode != 0 and not lines[-1].startswith("{"):
        print("\n".join(lines), file=sys.stderr)
        fail("nashbench exited with %d" % done.returncode)
    result = json.loads(lines[-1])
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    expected = expected_metrics(trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if result["correct"] and expected is not None and got != expected:
        print("\n".join(lines), file=sys.stderr)
        fail("metrics %s differ from BENCHMARK.json's %s" % (got, expected))
    print("\n".join(lines))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
