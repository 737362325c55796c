#!/usr/bin/env python3
"""Wire-to-verdict benchmark of the U-Filter funnel.

Builds perfbench/ (which compiles the repository's ufilter_core) into
.bench_build/ at the root of the checkout, then runs one workload:

    python3 perfbench/run.py --workload check_hot --seed 1 --trace 0

The last line of standard output is the JSON result; the line before it
(`mix {...}`) is the realised request mix and the load generator's health.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("check_hot", "check_cold", "apply_mixed")
# A run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds what changed. Returns the binary."""
    cmake_dir = os.path.join(BUILD, "cmake")
    binary = os.path.join(cmake_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one server launch and a short warm-up (tests)")
    parser.add_argument("--flip-expect", metavar="CLASS",
                        help="self-test: expect the wrong verdict, once in the "
                             "warm-up and once in the window")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"{needed} not found next to perfbench/: run from a full "
                "checkout of the repository")
            return 2
    # The compiler's and the benchmark's temporary files stay in the
    # checkout too.
    tmpdir = os.path.join(BUILD, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    os.environ["TMPDIR"] = tmpdir
    binary = build()
    if binary is None:
        return 2
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    if args.flip_expect:
        cmd += ["--flip-expect", args.flip_expect]
    # Its own process group, so stopping it takes the servers down too.
    proc = subprocess.Popen(cmd, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        return 4
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
