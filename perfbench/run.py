#!/usr/bin/env python3
"""Builds the ALT benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_direct --seed 1 --seconds 12 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the library
under src/ plus the alt_perfbench program) into $CARGO_TARGET_DIR, default
.bench_build, relative to the checkout root. Later calls rebuild only what
changed. Build output goes to perfbench/build.log under it, so the last line
of stdout stays the JSON result of alt_perfbench.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "alt_perfbench",
                  "-j", "4"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "alt_perfbench")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
