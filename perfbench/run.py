#!/usr/bin/env python3
"""Builds the dpcluster benchmark from this checkout and runs one pass.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench and dpcluster_serve (RelWithDebInfo) into .bench_build/; later
calls only rebuild what changed. Build output goes to stderr, so the last
stdout line stays the benchmark's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "dpcluster"))):
        print("perfbench: the dpcluster sources are not next to perfbench/",
              file=sys.stderr)
        return 2
    build = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    command = [os.path.join(build, "perfbench"), *argv,
               "--trace-dir", os.path.join(build, "traces")]
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
