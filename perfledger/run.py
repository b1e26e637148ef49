#!/usr/bin/env python3
"""Build the eqsim performance ledger from source and run one workload.

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
(Release) into $CARGO_TARGET_DIR, default .bench_build/, under the
root; later calls only rebuild what changed. Every EQ_* environment
variable is removed before eqledger and the daemon start. eqledger's
last line of standard output is the JSON result; the exit code
is non-zero when any op failed its check or the run could not start.
See perfledger/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig12_sweep", "serve_warm", "serve_cold", "lower_conv")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(msg):
    print("perfledger: " + msg, file=sys.stderr)
    return 2


def build(build_dir, env):
    """Configure once, then build eqledger and the daemon."""
    cmake_dir = os.path.join(build_dir, "perfledger")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", BUILD_JOBS,
                  "--target", "eqledger", "eqserved"])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries the result.
            done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            return None, "cannot run %s: %s" % (cmd[0], e)
        if done.returncode != 0:
            return None, "build step failed: " + " ".join(cmd)
    return cmake_dir, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("eqsim sources (src/) not found next to perfledger/")

    env = {k: v for k, v in os.environ.items() if not k.startswith("EQ_")}
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                     ".bench_build"))
    cmake_dir, err = build(build_dir, env)
    if err:
        return fail(err)

    tag = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(build_dir, "runs", "%s-%d" % (tag, os.getpid()))
    cmd = [os.path.join(cmake_dir, "eqledger"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--eqserved", os.path.join(cmake_dir, "eqsim", "eqserved"),
           "--work-dir", work]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".json")]

    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = fail("run exceeded %d s; stopped" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
