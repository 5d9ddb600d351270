#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library and the perfbench
binary from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), measures setup_s by starting the binary several
times in set-up-probe mode, runs the workload once, and prints the
binary's output with the result JSON as the last line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 15
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; returns the binary's path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.monotonic())
                                    ).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out", 3)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)}", 3)
    return os.path.join(build_dir, "perfbench")


def setup_seconds(binary, args, workdir):
    """Median time from process start to the first issuable job, less the
    benchmark's own input generation."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        out = subprocess.run([binary, "--setup-probe", "--workload", args.workload,
                              "--seed", str(args.seed), "--workdir", workdir],
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            fail("setup probe failed", out.returncode or 1)
        ready = [l.split() for l in out.stdout.splitlines()
                 if l.startswith("ready_ns ")]
        if not ready:
            fail("setup probe printed no ready time", 1)
        ready_ns, inputs_ns = int(ready[-1][1]), int(ready[-1][3])
        samples.append((ready_ns - t0 - inputs_ns) * 1e-9)
    return statistics.median(samples)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["synth_batch", "verify_sweep", "serve_mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)

    setup_s = None if args.trace else setup_seconds(binary, args, workdir)
    try:
        run = subprocess.run([binary, "--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--workdir", workdir],
                             capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out", 4)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload run exited with {run.returncode}", run.returncode or 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
