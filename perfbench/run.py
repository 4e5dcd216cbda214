"""Run the fermifree benchmark.

Usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

BLAS threads are pinned before numpy loads, so that dense eigensolves take
the same path on every run; the pinned count is recorded with each result.
"""

import os
import sys

BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Must run before numpy is first imported in this process."""
    for name in THREAD_VARIABLES:
        os.environ[name] = BLAS_THREADS


def main() -> int:
    pin_blas_threads()
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
