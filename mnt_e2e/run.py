#!/usr/bin/env python3
"""Builds the mnt_e2e benchmark from source and runs one workload.

Usage (from the repository root):

    python3 mnt_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/mnt_e2e (default .bench_build/mnt_e2e),
relative to the repository root; the first run configures the package, which
takes the library from the root project, and compiles the library from src/;
later runs only check that the build is up to date. Compiler
temp files and the benchmark's scratch stores go to <build dir>/tmp, which
is emptied before every run. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. All arguments are passed to the
mnt_e2e binary, which then replaces this process; see mnt_e2e.cpp for the
full list.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("mnt_e2e: no library sources at " + os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build_root, "mnt_e2e")
    tmp = os.path.join(build, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp)

    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build, name)) for name in generated):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "mnt_e2e", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("mnt_e2e: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    # replace this process, so no child outlives a kill of the run
    binary = os.path.join(build, "mnt_e2e")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
