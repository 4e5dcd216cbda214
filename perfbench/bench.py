"""The fermifree benchmark: closed-loop CLI workloads with output checks and a traced run.

One client calls ``fermifree.cli.main(argv)`` in-process, waits for each
result and captures its stdout.  Untraced runs give the end-to-end metrics;
a run with ``--trace 1`` alternates untraced and traced passes and reports
per-layer calls, self time and total time.  Metric names and units come from
BENCHMARK.json at the root of the checkout.  The last line of stdout is the
JSON result; the full record, environment included, goes to .bench_out/.
"""

import argparse
import contextlib
import hashlib
import io as stringio
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from checks import close, require

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
DEFAULT_SEED = 0  # reference.json holds this seed's values
REFERENCE_TOL = 1e-9
LAYERS = ("io", "cli", "states", "fock", "pdm", "free", "entropy", "correlation", "verify")


@dataclass
class PassResult:
    traced: bool
    wall: float
    latency: dict
    failures: list = field(default_factory=list)
    attempted: int = 0
    layers: dict | None = None
    tracer: tracing.Tracer | None = None


def run_pass(ops, main, baseline, tracer=None) -> PassResult:
    """Call every operation once, then check all outputs.

    `baseline` maps op name to fingerprint values; the first passing result
    of an op not yet in it is added, later ones must match within
    REFERENCE_TOL.  Checks run after the timed calls, outside `wall`.
    """
    raw = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.request = op.name
        out, err = stringio.StringIO(), stringio.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(op.argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = f"raised {exc!r}"
        raw.append((op, code, time.perf_counter() - t0, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - start

    result = PassResult(traced=tracer is not None, wall=wall, latency={}, attempted=len(ops))
    done = {}
    for op, code, latency, out, err in raw:
        result.latency[op.name] = latency
        try:
            require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
            doc = json.loads(out)
            op.check(doc, done)
            values = [float(x) for x in op.fingerprint(doc)]
            if op.name in baseline:
                close(values, baseline[op.name], REFERENCE_TOL, "values vs reference")
            else:
                baseline[op.name] = values
            done[op.name] = doc
        except Exception as exc:  # any malformed or wrong output counts as failed
            result.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return result


def traced_pass(ops, main, baseline) -> PassResult:
    tracer = tracing.Tracer()
    with tracer.installed():
        result = run_pass(ops, main, baseline, tracer)
    result.tracer = tracer
    result.layers = layer_table(
        tracing.summarize(tracer.names, tracer.starts, tracer.ends, tracer.parents,
                          tracer.outermost),
        tracer.work,
    )
    return result


def layer_table(summary: dict, work: dict) -> dict:
    """Every per-function and per-layer figure of one traced pass, by metric name."""
    table = {}
    for name in tracing.LAYER_FUNCTIONS + (tracing.LINALG,):
        entry = summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key, value in entry.items():
            table[f"{name}.{key}"] = value
    table[f"{tracing.LINALG}.n3"] = work.get(tracing.LINALG, 0)
    for layer in LAYERS:
        table[f"{layer}.self_s"] = sum(
            table[f"{name}.self_s"]
            for name in tracing.LAYER_FUNCTIONS
            if name.split(".")[0] == layer
        )
    return table


def measure(ops, seconds, main, baseline, trace) -> list:
    """Run passes for about `seconds`, alternating untraced and traced ones if `trace`.

    A new pass starts only while the median pass so far still fits, and every
    required kind of pass runs at least once.
    """
    needed = {False, True} if trace else {False}
    kinds = itertools.cycle([False, True]) if trace else itertools.repeat(False)
    passes = []
    start = time.perf_counter()
    while True:
        if next(kinds):
            passes.append(traced_pass(ops, main, baseline))
        else:
            passes.append(run_pass(ops, main, baseline))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if needed <= {p.traced for p in passes} and elapsed + typical > seconds:
            return passes


def setup(workload, seed, directory) -> list:
    """Time SETUP_REPEATS fresh set-ups, each writing the same inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), workload, str(seed), str(directory)],
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return times


def environment(seed) -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()  # identifies the code where no git commit is available
    for path in sorted((SRC / "fermifree").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def load_reference(workload, seed) -> dict:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return {}
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return dict(data["workloads"].get(workload, {}))


def is_count(name) -> bool:
    return name.endswith((".calls", ".n3"))


def _unit(name) -> str:
    return "count" if is_count(name) else "MB" if name.endswith("_mb") else "s"


def summarize_run(passes, setup_times, spec, trace) -> tuple[dict, dict]:
    """(metrics for the last line, per-operation medians for the record)."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    ops = {
        f"{name}_s": statistics.median(p.latency[name] for p in plain)
        for name in plain[0].latency
    }
    figures = {
        "wall_s": statistics.median(p.wall for p in plain),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        for name in traced[0].layers:
            samples = [p.layers[name] for p in traced]
            figures[name] = samples[0] if is_count(name) else statistics.median(samples)
        figures["trace.overhead_s"] = statistics.median(p.wall for p in traced) - figures["wall_s"]
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in section}
    return metrics, dict(ops, **figures)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fermifree" / "__init__.py").is_file():
        print(f"error: no fermifree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = setup(args.workload, args.seed, run_dir)
        from fermifree import cli

        ops = workload.build_ops(args.seed, run_dir)
        baseline = load_reference(args.workload, args.seed)
        # looked up per call, so that traced passes reach the wrapped cli.main
        passes = measure(ops, args.seconds, lambda a: cli.main(a), baseline, args.trace == 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    metrics, figures = summarize_run(passes, setup_times, spec, args.trace == 1)
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "passes": [{"traced": p.traced, "wall_s": p.wall, "latency_s": p.latency}
                   for p in passes],
        "setup_s": setup_times,
        "figures": figures,
        "failures": failures,
        "failed_frac": len(failures) / attempted,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    traced = [p for p in passes if p.traced]
    if traced:
        counts = [{k: v for k, v in p.layers.items() if is_count(k)} for p in traced]
        record["counts_repeat_across_traced_passes"] = all(c == counts[0] for c in counts)
        np.savez_compressed(OUT / f"spans-{tag}.npz", **traced[0].tracer.arrays())
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("environment " + json.dumps(record["environment"]))
    for message in failures:
        print(f"FAILED {message}")
    width = max(len(name) for name in figures)
    for name, value in figures.items():
        print(f"{name:<{width}} {value:.6g} {_unit(name)}")
    print(f"{'failed_frac':<{width}} {record['failed_frac']:.6g} ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0
