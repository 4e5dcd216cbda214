import json
import re

import numpy as np
import pytest

import bench
import checks
import fermifree
import workloads
from fermifree.fock import OrbitalSpace
from fermifree.verify import sample_density

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.mark.parametrize("d", [2, 3, 5])
def test_reference_pdm_and_nonfreeness_match_the_library(d):
    rho = sample_density(OrbitalSpace(d), np.random.default_rng(d))
    gamma = checks.one_pdm(rho.matrix)
    np.testing.assert_allclose(gamma, fermifree.one_pdm(rho).gamma, atol=1e-12)
    expected = fermifree.nonfreeness(rho, cross_check=False).nonfreeness
    assert checks.nonfreeness(rho.matrix) == pytest.approx(expected, abs=1e-10)


def test_metric_and_workload_names():
    spec = json.loads(bench.SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_declared_per_layer_metric_is_computed():
    spec = json.loads(bench.SPEC.read_text())
    table = bench.layer_table({}, {})
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert declared <= table.keys()


COUNTEREXAMPLE = {
    "sandwiched_half": {"best": 0.1, "improved": True},
    "alpha_one": {"best": 0.2, "improved": False},
}


def _fake_main(value, code=0):
    def main(argv):
        print(json.dumps({"value": value}))
        return code

    return main


def _counterexample_op(tmp_path):
    return workloads.WORKLOADS["oracle"].build_ops(0, tmp_path)[:1]


def test_correct_output_passes(tmp_path):
    result = bench.run_pass(_counterexample_op(tmp_path), _fake_main(COUNTEREXAMPLE), {})
    assert result.failures == [] and result.attempted == 1


@pytest.mark.parametrize(
    "main",
    [
        _fake_main(dict(COUNTEREXAMPLE, alpha_one={"best": 0.0, "improved": True})),
        _fake_main(COUNTEREXAMPLE, code=1),
        _fake_main("not a result"),
    ],
    ids=["wrong-value", "exit-code", "malformed"],
)
def test_injected_wrong_output_is_counted_failed(tmp_path, main):
    result = bench.run_pass(_counterexample_op(tmp_path), main, {})
    assert len(result.failures) == 1 and result.attempted == 1


def test_crash_and_drift_from_recorded_values_are_counted_failed(tmp_path):
    def crash(argv):
        raise RuntimeError("boom")

    ops = _counterexample_op(tmp_path)
    assert len(bench.run_pass(ops, crash, {}).failures) == 1
    drifted = {"counterexample": [0.1, 0.2 + 1e-6]}
    assert len(bench.run_pass(ops, _fake_main(COUNTEREXAMPLE), drifted).failures) == 1


def test_trace_mode_runs_both_kinds_of_pass(tmp_path):
    passes = bench.measure(
        _counterexample_op(tmp_path), 0, _fake_main(COUNTEREXAMPLE), {}, trace=True
    )
    assert [p.traced for p in passes] == [False, True]
    assert passes[0].layers is None and passes[1].layers is not None
    assert not any(p.failures for p in passes)
