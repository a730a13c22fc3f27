#!/usr/bin/env python3
"""Builds the daemon and the benchmark client, then runs one benchmark run.

    python3 perfbench/run.py --workload hot_release --seed 1 --seconds 10 --trace 0

Run from the root of a geopriv source tree.  The build goes to the
directory named by CARGO_TARGET_DIR (default .bench_build); state, logs
and span files go to <build>/work.  The client's last stdout line is the
result object; this script passes the client's output and exit status on.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("hot_release", "ledger_churn")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "perfbench_client", "geopriv_serve"])
    with open(log_path, "a") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return (os.path.join(cmake_dir, "perfbench_client"),
            os.path.join(cmake_dir, "geopriv", "geopriv_serve"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        fail("run from the repository root")
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("no geopriv sources here to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    client, serve = build(build_dir)
    # A fresh build leaves ~100 MB of dirty pages; writing them back during
    # the first rounds put the client milliseconds behind its schedule.
    os.sync()
    work = os.path.join(build_dir, "work")
    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", serve, "--work", work]
    # Own process group, so a timeout also takes down the daemon it runs.
    client_proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        sys.exit(client_proc.wait(timeout=170))
    except subprocess.TimeoutExpired:
        os.killpg(client_proc.pid, signal.SIGKILL)
        client_proc.wait()
        fail("benchmark client timed out")


if __name__ == "__main__":
    main()
