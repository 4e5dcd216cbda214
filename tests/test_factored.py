"""Factored states rho = V diag(p) V^dagger against the dense mixtures they stand for."""

import tracemalloc

import numpy as np
import pytest

from fermifree import (
    DensityOperator,
    OrbitalSpace,
    PureState,
    ValidationError,
    correlation_renyi,
    correlation_sandwiched,
    hubbard_ground_amplitudes,
    mixture,
    nonfreeness,
    one_pdm,
    pure_density,
    restrict,
    slater_amplitudes,
    wick_check,
)
from fermifree import io as ffio
from fermifree.states import FactoredState
from fermifree.verify import sample_density, sample_unitary

# ROADMAP item 2: a free reference whose Bernoulli weights fall under KERNEL_TOL
# while the state keeps weight there reads a false +inf on either route.  Until
# that is mended, the cases keep their natural occupations inside this band.
OCCUPATION_BAND = (0.05, 0.95)


def _random_component(kind, d, rng):
    space = OrbitalSpace(d)
    if kind == "slater":
        return slater_amplitudes(sample_unitary(d, rng)[: rng.integers(1, d)], space)
    if kind == "hubbard":
        sites = d // 2
        n_up, n_down = rng.integers(0, sites + 1, 2)
        t, u_int = rng.uniform(0.5, 1.5), rng.uniform(0.0, 6.0)
        return hubbard_ground_amplitudes(sites, t, u_int, int(n_up), int(n_down))
    a = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    if rng.random() < 0.5:  # confined to one particle number, so the sector tables engage
        a[np.bitwise_count(np.arange(space.dim)) != rng.integers(0, d + 1)] = 0.0
    return PureState(space, a / np.linalg.norm(a))


def _factored_cases():
    """Mixtures of 1-4 random Slater, Hubbard and pure states at d = 2..8, by
    name, as (weights, components); some repeat a component, so that the Gram
    rank falls below the number of columns."""
    rng = np.random.default_rng(2024)
    cases = {}
    for d in range(2, 9):
        kinds = ["slater", "pure"] + (["hubbard"] if d % 2 == 0 else [])
        for k in range(1, 5):
            for _ in range(100):  # draws until one keeps its occupations inside the band
                drawn = [str(rng.choice(kinds)) for _ in range(k)]
                components = [_random_component(kind, d, rng) for kind in drawn]
                if k >= 3:
                    drawn[-1], components[-1] = "repeat", components[0]  # Gram rank below k
                weights = rng.dirichlet(np.ones(k))
                mixed = mixture(list(zip(weights, components)))
                lo, hi = OCCUPATION_BAND
                occupations = nonfreeness(mixed, cross_check=False).occupations
                if lo <= occupations.min() and occupations.max() <= hi:
                    break
            else:
                raise AssertionError(f"no d={d}, k={k} mixture kept its occupations in the band")
            cases[f"d{d}-" + "-".join(drawn)] = (weights, components)
    return cases


FACTORED_CASES = _factored_cases()


@pytest.mark.parametrize("name", sorted(FACTORED_CASES))
def test_factored_route_matches_dense_mixture(name):
    weights, components = FACTORED_CASES[name]
    state = mixture(list(zip(weights, components)))
    dense = mixture([(w, pure_density(psi)) for w, psi in zip(weights, components)])
    assert isinstance(state, FactoredState) and isinstance(dense, DensityOperator)
    d = state.space.d
    np.testing.assert_allclose(one_pdm(state).gamma, one_pdm(dense).gamma, rtol=0, atol=1e-12)
    fast, slow = nonfreeness(state), nonfreeness(dense)
    assert abs(fast.nonfreeness - slow.nonfreeness) <= 1e-12
    assert abs(fast.entropy_state - slow.entropy_state) <= 1e-12
    assert abs(fast.cross_check - slow.cross_check) <= 1e-12
    for alpha in (0.5, 2.0):
        assert abs(correlation_renyi(state, alpha) - correlation_renyi(dense, alpha)) <= 1e-12
        sandwiched = correlation_sandwiched(dense, alpha)
        assert abs(correlation_sandwiched(state, alpha) - sandwiched) <= 1e-10 * sandwiched
    keep = np.random.default_rng(d).permutation(np.arange(1, d + 1))[: (d + 1) // 2].tolist()
    np.testing.assert_allclose(
        restrict(state, keep).matrix, restrict(dense, keep).matrix, rtol=0, atol=1e-12
    )
    assert abs(wick_check(state)[1] - wick_check(dense)[1]) <= 1e-12


def test_gram_rank_counts_distinct_components():
    repeats = [name for name in FACTORED_CASES if name.endswith("repeat")]
    assert len(repeats) == 14
    for name in repeats:
        weights, components = FACTORED_CASES[name]  # the last component repeats the first
        state = mixture(list(zip(weights, components)))
        w, v = state.eigenpairs
        assert w.size == len(components) - 1
        np.testing.assert_allclose(v.conj().T @ v, np.eye(w.size), rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.sum(), 1.0, rtol=0, atol=1e-12)


def _slater_mixture(d, rng, k=3):
    space = OrbitalSpace(d)
    rows = [sample_unitary(d, rng)[: d // 2] for _ in range(k)]
    return mixture([(1 / k, slater_amplitudes(r, space)) for r in rows])


def test_factored_nonfreeness_allocates_no_dense_matrix():
    # One dense 1024 x 1024 complex matrix is 16 MB.
    rng = np.random.default_rng(10)
    nonfreeness(_slater_mixture(10, rng), cross_check=True)  # warm the cached index tables
    state = _slater_mixture(10, rng)
    tracemalloc.start()
    try:
        nonfreeness(state, cross_check=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_factored_restrict_allocates_no_dense_matrix():
    # One dense 4096 x 4096 complex matrix is 268 MB; the three columns are 192 kB.
    rng = np.random.default_rng(14)
    keep = list(range(1, 13, 2))
    restrict(_slater_mixture(12, rng), keep)  # warm the cached split table
    state = _slater_mixture(12, rng)
    tracemalloc.start()
    try:
        restrict(state, keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_to_density_carries_the_gram_eigenpairs(monkeypatch):
    rng = np.random.default_rng(16)
    state = _slater_mixture(9, rng)
    solves = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, f=solver: solves.append(m.shape) or f(m))
    rho = state.to_density()
    monkeypatch.undo()
    assert solves == [(3, 3)]  # the Gram matrix's, never the 512 x 512 matrix's
    w, v = rho.eigenpairs
    assert w is state.eigenpairs[0] and v is state.eigenpairs[1]
    x = state.columns
    np.testing.assert_allclose(rho.matrix, x @ x.conj().T, rtol=0, atol=1e-15)
    np.testing.assert_allclose(rho.matrix @ v, v * w, rtol=0, atol=1e-12)


def test_mixture_stays_dense_with_a_dense_component():
    rng = np.random.default_rng(12)
    space = OrbitalSpace(3)
    psi = slater_amplitudes(sample_unitary(3, rng)[:1], space)
    rho = pure_density(slater_amplitudes(sample_unitary(3, rng)[:2], space))
    mixed = mixture([(0.25, psi), (0.75, rho)])
    assert isinstance(mixed, DensityOperator)
    x = psi.columns  # a pure component adds X X^dagger, not its projector's eigenbasis
    np.testing.assert_array_equal(mixed.matrix, 0.25 * (x @ x.conj().T) + 0.75 * rho.matrix)
    expected = 0.25 * pure_density(psi).matrix + 0.75 * rho.matrix
    np.testing.assert_allclose(mixed.matrix, expected, rtol=0, atol=1e-15)
    factored = mixture([(0.5, psi), (0.5, mixture([(0.5, psi), (0.5, psi)]))])
    assert isinstance(factored, FactoredState) and factored.vectors.shape == (8, 3)


def test_dense_mixture_validates_only_its_sum(monkeypatch):
    rng = np.random.default_rng(13)
    space = OrbitalSpace(9)
    components = [
        (0.5, sample_density(space, rng)),
        (0.3, _slater_mixture(9, rng, k=2)),
        (0.2, _random_component("pure", 9, rng)),
    ]
    # each component as its own validated density operator
    expected = sum(w * state.to_density().matrix for w, state in components)
    solves = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, f=solver: solves.append(m.shape) or f(m))
    mixed = mixture(components)
    assert isinstance(mixed, DensityOperator) and solves == [(512, 512)]
    np.testing.assert_allclose(mixed.matrix, expected, rtol=0, atol=1e-15)


def test_mixture_documents_keep_pure_components_factored():
    slater = {"d": 2, "kind": "slater", "orbitals": [[[1, 0], [0, 0]]]}
    hubbard = {"d": 2, "kind": "hubbard", "sites": 1, "t": 1.0, "u": 4.0, "n_up": 1, "n_down": 1}
    density = {"d": 2, "kind": "density", "matrix": np.diag([0.5, 0.5, 0, 0]).tolist()}
    density["matrix"] = [[[x, 0.0] for x in row] for row in density["matrix"]]

    def document(*states):
        components = [{"weight": 1 / len(states), "state": s} for s in states]
        return {"d": 2, "kind": "mixture", "components": components}

    state = ffio.state_from_document(document(slater, hubbard, document(slater, hubbard)))
    assert isinstance(state, FactoredState) and state.vectors.shape == (4, 4)
    assert isinstance(ffio.state_from_document(document(slater, density)), DensityOperator)
    dense = ffio.density_from_document(document(slater, hubbard))
    np.testing.assert_allclose(dense.matrix, state.to_density().matrix, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "vectors,weights,message",
    [
        (np.eye(4)[:, :2] * 1.001, [0.5, 0.5], "norm"),
        (np.eye(4)[:, :2], [0.7, 0.7], "weights"),
        (np.eye(4)[:, :2], [1.5, -0.5], "weights"),
        (np.eye(4)[:, :2], [1.0], "shape"),
        (np.eye(4)[:, :0], [], "weights"),
        (np.eye(4)[:3, :2], [0.5, 0.5], "shape"),
        (np.full((4, 1), np.nan), [1.0], "non-finite"),
    ],
)
def test_factored_state_validation(vectors, weights, message):
    with pytest.raises(ValidationError, match=message):
        FactoredState(OrbitalSpace(2), vectors, weights)
