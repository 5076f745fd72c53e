#!/usr/bin/env python3
"""Builds and runs the real-threads Helios benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 benchmark/run.py --self-test

Run from the repository root. The benchmark is compiled from the checked-out
sources (Release, into $CARGO_TARGET_DIR or .bench_build) on first use; the
last line of standard output is the JSON result. The flags are parsed, and
malformed ones rejected, by the realbench binary itself. README.md explains
the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(2)


def build(root, build_dir, target):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no Helios sources under %s/src; run from the repository root" % root)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", os.path.join(root, "benchmark"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def run(cmd):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(run([build(root, build_dir, "realbench_selftest")]))
    binary = build(root, build_dir, "realbench")
    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    try:
        code = run([binary] + sys.argv[1:] + ["--workdir", workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
