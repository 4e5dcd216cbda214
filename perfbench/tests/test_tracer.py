import sys

import numpy as np
import pytest

import fermifree
import tracer as tracing
from fermifree import cli, io, pdm, states, verify  # noqa: F401  (every traced module loaded)
from fermifree.fock import OrbitalSpace


def test_self_time_of_synthetic_nested_spans():
    # a [0, 10] encloses b [1, 4] and c [5, 9]; c encloses a recursive a [6, 8]
    names = ["a", "b", "c", "a"]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    parents = [-1, 0, 0, 2]
    outermost = [True, True, True, False]
    out = tracing.summarize(names, starts, ends, parents, outermost)
    assert out["a"] == {"calls": 2, "self_s": 3.0 + 2.0, "total_s": 10.0}
    assert out["b"] == {"calls": 1, "self_s": 3.0, "total_s": 3.0}
    assert out["c"] == {"calls": 1, "self_s": 2.0, "total_s": 4.0}
    total_self = sum(entry["self_s"] for entry in out.values())
    assert total_self == pytest.approx(10.0)


def test_tracer_records_parents_and_recursion():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer(depth):
        return traced_leaf() + (traced_outer(depth - 1) if depth else 0)

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(1) == 2
    assert tracer.names == ["outer", "leaf", "outer", "leaf"]
    assert tracer.parents == [-1, 0, 0, 2]
    assert tracer.outermost == [True, True, False, True]
    out = tracing.summarize(
        tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.outermost
    )
    assert out["outer"]["calls"] == 2
    assert out["outer"]["total_s"] == tracer.ends[0] - tracer.starts[0]


def _bindings():
    """Every (module, attribute) of the package and numpy.linalg with its value."""
    mods = [m for k, m in sys.modules.items() if k.startswith("fermifree")]
    seen = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    seen[("numpy.linalg", "eigh")] = np.linalg.eigh
    seen[("numpy.linalg", "eigvalsh")] = np.linalg.eigvalsh
    seen[("DensityOperator", "__post_init__")] = states.DensityOperator.__post_init__
    return seen


def test_install_wraps_every_binding_and_uninstall_restores_originals():
    before = _bindings()
    rho = fermifree.gibbs_free_density(np.array([0.3, 0.6]), OrbitalSpace(2))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert fermifree.one_pdm is not before[("fermifree", "one_pdm")]
        assert fermifree.correlation.one_pdm is fermifree.one_pdm
        fermifree.DensityOperator(rho.space, rho.matrix)
        fermifree.nonfreeness(rho, cross_check=False)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    calls = tracing.summarize(
        tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.outermost
    )
    # one_pdm is reached through the name correlation.py imported
    assert calls["pdm.one_pdm"]["calls"] == 1
    assert calls["correlation.nonfreeness"]["calls"] == 1
    assert calls["states.DensityOperator"]["calls"] == 1
    # two validations (state, 1-pdm), natural orbitals, entropy
    assert calls["linalg.eigh"]["calls"] == 4
    assert pdm.one_pdm is before[("fermifree.pdm", "one_pdm")]


def test_originals_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(fermifree.ValidationError):
        with tracing.Tracer().installed():
            fermifree.DensityOperator(OrbitalSpace(1), np.eye(2))
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_eigh_work_counts_n_cubed_per_matrix():
    assert tracing.eigh_work((np.zeros((5, 5)),), {}) == 125
    assert tracing.eigh_work((np.zeros((7, 4, 4)),), {}) == 7 * 64
