#!/usr/bin/env python3
"""Build and run the OHA end-to-end benchmark.

Usage (from the repository root):
    python3 ohabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds ohabench/ (the oha library plus the benchmark
binary, Release) under .bench_build/ohabench on first use, then runs
the binary.  Trace spill files go to .bench_build/tmp.  The binary's
stdout is passed through; its last line is the JSON result.  Exits
non-zero without a result when the build fails, and non-zero after
the result when any output check fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "ohabench")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
BINARY = os.path.join(BUILD_DIR, "oha_e2e_bench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step; on failure echo its output and stop."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout)
        log("build step failed: " + " ".join(cmd))
        sys.exit(proc.returncode or 1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])


def source_revision():
    """A digest of the sources the benchmark builds (the checkout it
    runs in need not be a git repository)."""
    digest = hashlib.sha1()
    src = os.path.join(HERE, "..", "src")
    for base in (src, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("oha sources not found next to ohabench/")
        return 2
    build()
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = TMP_DIR
    cmd = [BINARY] + sys.argv[1:] + ["--revision", source_revision()]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
