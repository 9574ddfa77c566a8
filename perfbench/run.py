#!/usr/bin/env python3
"""Build perfbench from source and run one workload in a fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-bundle --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and checkpoints all stay under
.bench_build/ in the checkout. The benchmark's own output (a diagnostics
line, then the result line) is passed through; the build's output goes
to standard error. The exit code is non-zero when the build or the run
fails, and no result line is printed then.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Wall-clock limits: a cold build compiles the standard library; a run
# must finish within 180 seconds, so it stops at 170.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOENV="off",
    )
    for key in ("GOCACHE", "GOTMPDIR", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    rc = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S,
             cwd=HERE, env=env, stdout=sys.stderr)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 1

    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    try:
        sys.stdout.flush()
        return run([binary,
                    "-workload", args.workload,
                    "-seed", str(args.seed),
                    "-seconds", str(args.seconds),
                    "-trace", str(args.trace),
                    "-dir", scratch],
                   RUN_TIMEOUT_S, cwd=ROOT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
