#!/usr/bin/env python3
"""Build the simulator in an optimised configuration and run one
benchmark workload (see perfbench/README.md).

    python3 perfbench/run.py --workload dnn-resnet18 --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The build tree goes to .bench_build/ and
run-time files (artifacts, sockets, spans) to .bench_run/. The last line
of standard output is the result object printed by the benchmark driver.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_DIR = ".bench_run"
WORKLOADS = ("dnn-resnet18", "mm-512", "dse-sweep", "photond-stream")
# The driver's own wall-time ceiling for one measured run.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4",
                      "--target", "perfbench", "photon_sim"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(step)}):\n{tail}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="feed every correctness check a corrupted "
                         "output and confirm it is rejected")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Photon source tree under {ROOT}")

    build()
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--photon-sim", os.path.join(BUILD, "tools", "photon_sim"),
           "--run-dir", RUN_DIR]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]

    # Own process group: on a timeout the daemon photond-stream spawned
    # goes down with the driver.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
