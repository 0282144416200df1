#!/usr/bin/env python3
"""End-to-end benchmark of libcatsched: build, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <date18_exhaustive|gen_search|
        gen_wcet_tables> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/CMakeLists.txt (libcatsched
from src/ plus the perfbench program) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr. The program's stdout is passed through unchanged: a
run-environment header, the metric tables, and as its last line one JSON
object with the check tally and the metrics. The exit code is the
program's: 0 when every check passed, 1 when one failed, 2 on bad usage or
a failed build.
"""

import argparse
import glob
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("date18_exhaustive", "gen_search", "gen_wcet_tables")
RUN_TIMEOUT_S = 175  # one run must end within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files(root):
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    yield os.path.join(dirpath, name)


def source_digest(root):
    h = hashlib.sha256()
    for path in source_files(root):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    if shutil.which("git") is None or not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not glob.glob(os.path.join(root, "src", "**", "*.cpp"), recursive=True):
        fail(f"no library sources under {os.path.join(root, 'src')}")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, build_root, "perfbench"))
    binary = build(root, build_dir)

    print(f"commit:        {commit(root)}")
    print(f"source digest: {source_digest(root)} (src/ and perfbench/)")
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", os.path.join(build_dir, "out")]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
