#!/usr/bin/env python3
"""Builds and runs the metaprobe serving benchmark (servebench).

Run from the repository root:

  python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 servebench/run.py --workload all --seed N --seconds S [--trace 0|1]
  python3 servebench/run.py --test

NAME is cpu_bound, remote_probe or deadline; `all` runs each in turn and
exits non-zero if any fails. The last line of a single-workload run is the
result JSON printed by the servebench binary. --test builds and runs the
benchmark's own tests.

The library and the servebench program are compiled from source into
.bench_build/servebench on first use (Release). Build output goes to
standard error. The digest of the reference answers is kept under
.bench_build/servebench/digests, keyed by the binary's hash, so every
later run of the same build (any seed, workload or --trace) must
reproduce it exactly.
"""

import hashlib
import os
import subprocess
import sys

WORKLOADS = ["cpu_bound", "remote_probe", "deadline"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(BUILD, target)


def flag_value(args, flag):
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return None


def digest_file(binary):
    with open(binary, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    directory = os.path.join(BUILD, "digests")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, key)


def run_one(binary, args):
    extra = ["--digest-file", digest_file(binary)]
    return subprocess.run([binary] + args + extra).returncode


def main(argv):
    if argv == ["--test"]:
        binary = build("servebench_test")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode
    binary = build("servebench")
    if binary is None:
        return 1
    if flag_value(argv, "--workload") != "all":
        return run_one(binary, argv)
    if "--trace" not in argv:
        argv = argv + ["--trace", "0"]
    status = 0
    for name in WORKLOADS:
        args = list(argv)
        args[args.index("--workload") + 1] = name
        sys.stdout.flush()
        if run_one(binary, args) != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
