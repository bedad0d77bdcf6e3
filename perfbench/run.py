#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload secure_core --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (and the library it links) into
$CARGO_TARGET_DIR (default .bench_build) under the current directory, then
runs the perfbench binary. Its last stdout line is the JSON result; this
script relays its output and exit code unchanged.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("secure_core", "fleet", "drift")

RUN_TIMEOUT_S = 175


def build(build_dir):
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log, "w") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if _have("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                           check=True, stdout=out, stderr=subprocess.STDOUT)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", "4"],
                       check=True, stdout=out, stderr=subprocess.STDOUT)
    return os.path.join(build_dir, "perfbench")


def _have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found next to perfbench/",
              file=sys.stderr)
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed (%s); see %s/build.log" %
              (err, build_dir), file=sys.stderr)
        return 2

    # Shipping defaults: no MHM_* override from the caller's environment
    # reaches the library. perfbench fixes each workload's thread width.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MHM_")}
    env["MHM_PROGRESS"] = "0"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
