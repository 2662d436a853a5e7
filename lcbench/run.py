#!/usr/bin/env python3
"""Build and run the long-context training benchmark.

    python3 lcbench/run.py --workload longctx-inproc --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds lcbench/ (which compiles ../src) into
.bench_build/lcbench with CMake, then runs the lcbench binary with the given
arguments. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. `--selftest` builds and runs the benchmark's own tests
instead (see selftest.py). Exits non-zero without a result when the WeiPipe
sources are not next to the benchmark.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lcbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("lcbench: WeiPipe sources not found (src/CMakeLists.txt); "
                 "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("lcbench: build failed: " + " ".join(cmd))
    return [os.path.join(BUILD, t) for t in targets]


def main(argv):
    if argv[:1] == ["--selftest"]:
        sys.path.insert(0, HERE)
        sys.dont_write_bytecode = True
        import selftest
        return selftest.main(build(["lcbench", "lcbench_selftest"]))
    (binary,) = build(["lcbench"])
    sys.stdout.flush()
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
