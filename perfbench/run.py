#!/usr/bin/env python3
"""Build the EarSonar end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload upload --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt (the repository libraries under src/
plus the benchmark program) as an optimised build in .bench_build/perfbench
under the repository root, builds it, and runs it with the given arguments.
Build output goes to stderr; the program's stdout passes through, and its last
line is the JSON result. The exit code is the program's, or 2 when the build
cannot run.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "earsonar_perfbench"


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no EarSonar sources at {ROOT / 'src'}; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "earsonar_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main() -> int:
    try:
        build()
    except subprocess.CalledProcessError as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([str(BINARY), *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
