#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-bnre --seed 1 --seconds 30 --trace 0

Every argument is passed through to locus_perfbench (see main.cpp). The
build goes to .bench_build/perfbench under the repository root: a Release
build of the repository's libraries plus locus_perfbench. CMake's output goes
to stderr, so the program's JSON result stays the last line of stdout.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "locus_perfbench"


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no repository sources under {ROOT}")
    # Compiler temporaries stay inside the checkout as well.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    # A handful of compile jobs: the host is shared.
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "locus_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)


def main() -> int:
    try:
        build()
    except subprocess.CalledProcessError as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([str(BINARY), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
