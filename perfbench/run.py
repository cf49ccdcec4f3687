#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark from source with dune, then runs one workload:

    python3 perfbench/run.py --workload batch-ls2 --seed 0 --seconds 35 --trace 0

Every argument is passed to the benchmark executable (see README.md).  A
traced run (--trace 1) also writes its spans to perfbench/_out/.  The
last line of standard output is the result as one JSON object; the exit
code is 0 only when every output checked out.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "main.exe")
# below the 180 s a run may take, so a stuck run ends with an error code
RUN_TIMEOUT_S = 170


def arg(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    # the dune cache lives outside the checkout; build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bin/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    extra = []
    if arg(args, "--trace") == "1":
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        extra = ["--spans", os.path.join(
            out, "spans-%s-seed%s.json" % (arg(args, "--workload"), arg(args, "--seed")))]
    try:
        return subprocess.run([EXE] + args + extra, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
