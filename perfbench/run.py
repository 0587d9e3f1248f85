#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload chain_sv --seed 1 --seconds 10 --trace 0

Builds the library and the perfbench binary from source into
.bench_build/perfbench (incremental after the first run), then runs one
workload. The last line of standard output is the result object; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chain_sv", "molecule_sv", "ising_paulprop", "sweep_drain")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the library sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id():
    head = os.path.join(ROOT, ".git")
    if not os.path.exists(head):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-outputs", action="store_true",
                        help="also print the outputs pinned in "
                             "reference.json")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "tree_controller.h")):
        log(f"no treevqa sources under {ROOT}; nothing to benchmark")
        return 2

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    # Keep compiler and program temporaries inside the checkout too.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        if not build(build_dir, env):
            log("build failed")
            return 3
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 3

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(ROOT, ".bench_build", "work"),
        "--reference", os.path.join(HERE, "reference.json"),
        "--commit", commit_id(),
        "--source-digest", source_digest(),
    ]
    if args.print_outputs:
        command.append("--print-outputs")
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
