#!/usr/bin/env python3
"""Builds the Privid benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run configures and compiles the
library and the benchmark, later runs only check that the build is current.
The benchmark's standard output is passed through, so its last line is the
result object. Build output goes to standard error. --selftest runs the
checks' own tests instead of a workload.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    tmp = os.path.join(out, "tmp")  # compiler temporaries stay in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, target)


def main(argv):
    target = "check_test" if argv == ["--selftest"] else "privid_bench"
    binary = build(target)
    if binary is None:
        return 1
    # The library reads PRIVID_* variables (cache mode, fault plans, disk
    # tier, tracing); the benchmark fixes its own configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRIVID_")}
    args = [] if target == "check_test" else argv
    try:
        proc = subprocess.run([binary] + args, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
