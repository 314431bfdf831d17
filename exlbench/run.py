#!/usr/bin/env python3
"""Build and run the EXLEngine benchmark.

    python3 exlbench/run.py --workload boot|revise|serve --seed N --seconds S --trace 0|1

Builds the benchmark and the exlserve daemon from source with dune
(build output goes to stderr), then hands over to the benchmark
executable, whose last stdout line is the JSON result.  Run it from
the repository root.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "exlbench", "main.exe")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./exlbench/main.exe", "./bin/exlserve.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("exlbench: build failed", file=sys.stderr)
        sys.exit(2)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
