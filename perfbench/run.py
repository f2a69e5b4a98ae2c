#!/usr/bin/env python3
"""Builds the TSJ benchmark from source and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload accounts-80k --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload accounts-80k --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --smoke

The first call configures and builds `perfbench/` (the library sources
under `src/` plus the benchmark program) into `.bench_build/perfbench`;
later calls rebuild incrementally. The last line of standard output is the run's JSON
result. `--smoke` runs every workload (or the one named) at a few hundred
strings in both modes and exits non-zero unless every run is correct.
See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(REPO_ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = [
    "accounts-80k",
    "titles-10k-t0.2",
    "accounts-spill-10k",
    "signups-rs-join",
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(REPO_ROOT, "src", "tsj", "tsj.h")):
        fail("library sources not found under " + os.path.join(REPO_ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                    with open(log_path) as done:
                        sys.stderr.write("".join(done.readlines()[-40:]))
                    fail("build failed: " + " ".join(step))


def run_binary(arguments):
    """Runs the benchmark binary; returns (exit code, last stdout line)."""
    spill_dir = os.path.join(BUILD_ROOT, "spill-%d" % os.getpid())
    os.makedirs(spill_dir, exist_ok=True)
    proc = subprocess.Popen([BINARY] + arguments + ["--spill-dir", spill_dir],
                            stdout=subprocess.PIPE, text=True)
    previous = signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(spill_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def smoke(workloads):
    bad = []
    for workload in workloads:
        for trace in ("0", "1"):
            code, last = run_binary(["--workload", workload, "--seed", "1",
                                     "--seconds", "0.2", "--trace", trace,
                                     "--smoke"])
            result = json.loads(last) if code == 0 and last else {}
            if not result.get("correct") or result.get("failed") != 0:
                bad.append("%s --trace %s" % (workload, trace))
    if bad:
        fail("smoke runs failed: " + ", ".join(bad))
    print("perfbench: smoke passed", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--workers")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    build()
    if args.smoke:
        smoke([args.workload] if args.workload else WORKLOADS)
        return
    arguments = ["--workload", args.workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", args.trace]
    if args.workers:
        arguments += ["--workers", args.workers]
    code, _ = run_binary(arguments)
    sys.exit(code)


if __name__ == "__main__":
    main()
