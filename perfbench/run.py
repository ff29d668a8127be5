#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --ledger b3_pp,b1_pp --seed 1

Run from the repository root. The build lands in $CARGO_TARGET_DIR
(default .bench_build) under the root; traced runs write trace.json and
layers.json to <build>/out/<workload>-seed<N>/. The last line of standard
output is the result object; everything else is for people.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then an incremental build of the benchmark binary."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target",
                  "deepsecure_bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    # Only this checkout's own repository: git would otherwise search the
    # parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main(args):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no CMakeLists.txt at {ROOT}: the library sources are missing")
        return 2
    if not build(build_dir):
        return 2
    name = arg_value(args, "--workload", None) or "ledger"
    out_dir = os.path.join(build_root, "out",
                           f"{name}-seed{arg_value(args, '--seed', '1')}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "deepsecure_bench"), *args,
           "--out-dir", out_dir, "--cache-dir", os.path.join(build_root, "ref"),
           "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
