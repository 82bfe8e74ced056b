#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark (see BENCHMARK.json).

Run from the root of a source tree:

    python3 perfbench/run.py --workload train_ptd --seed 1 --seconds 40 --trace 0

Builds perfbench/ (and the ptdp libraries it links) in Release mode into
$CARGO_TARGET_DIR, default .bench_build, then runs one measurement. The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
host fingerprint. A copy of both is kept under <build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("train_ptd", "train_dp")
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def build(root, build_dir):
    """Configures and builds incrementally. Tool output goes to stderr."""
    subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def source_sha256(root):
    """Content hash of everything the benchmark builds from."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # a plain source tree, not a git checkout
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    env = dict(os.environ, PERFBENCH_COMMIT=commit(root),
               PERFBENCH_SOURCE_SHA256=source_sha256(root))
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: exited with status {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    with open(os.path.join(results_dir, name), "w") as f:
        f.write(proc.stdout)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
