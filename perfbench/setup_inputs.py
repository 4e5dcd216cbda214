"""One set-up of a workload in a fresh interpreter: import fermifree, write the inputs.

Usage: python3 perfbench/setup_inputs.py <workload> <seed> <directory>
The benchmark times this whole process, several times per run.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fermifree  # noqa: E402,F401  (importing the package is part of set-up)

import workloads  # noqa: E402


def main(argv):
    name, seed, directory = argv
    workloads.WORKLOADS[name].write_inputs(int(seed), Path(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
