#!/usr/bin/env python3
"""Build servescope_bench from this checkout and run one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build lives in build-bench/ at the repository root (Release; configured
on first use, brought up to date on every run). --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics and writes the
substrate's Chrome trace under build-bench/traces/. The benchmark's last
stdout line is its JSON result; build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
EXE = os.path.join(BUILD, "servescope_bench")


def build():
    steps = []
    # Configure until a configure has succeeded (it writes the build files).
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "servescope_bench"])
    for cmd in steps:
        try:
            code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
        except OSError as e:
            print(f"error: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if code != 0:
            print(f"error: {' '.join(cmd)} exited with {code}", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
