"""Record the default seed's output values of every workload into reference.json.

Usage: python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good: afterwards every
benchmark run with the default seed must reproduce these values within
bench.REFERENCE_TOL, or its operations count as failed.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.pin_blas_threads()
    import bench
    import workloads

    sys.path.insert(0, str(bench.SRC))
    from fermifree import cli

    seed = bench.DEFAULT_SEED
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        directory = bench.OUT / f"reference-{name}"
        directory.mkdir(parents=True, exist_ok=True)
        try:
            workload.write_inputs(seed, directory)
            values = {}
            result = bench.run_pass(workload.build_ops(seed, directory), cli.main, values)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if result.failures:
            print("\n".join(result.failures), file=sys.stderr)
            return 1
        recorded[name] = values
    doc = {"seed": seed, "tolerance": bench.REFERENCE_TOL, "workloads": recorded}
    bench.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
