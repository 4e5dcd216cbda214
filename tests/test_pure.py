"""Pure states computed from their amplitudes, against the dense projector path."""

import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from fermifree import (
    FreeStateSpec,
    OrbitalSpace,
    PureState,
    ValidationError,
    basis_change_unitary,
    correlation_renyi,
    correlation_sandwiched,
    cross_entropy,
    free_from_pdm,
    hubbard_ground_amplitudes,
    natural_spectrum,
    nonfreeness,
    one_pdm,
    pure_density,
    relative_entropy,
    renyi_divergence,
    restrict,
    sandwiched_renyi,
    slater_amplitudes,
    slater_density,
)
from fermifree import io as ffio
from fermifree.cli import main
from fermifree.config import KERNEL_TOL
from fermifree.fock import _fock_blocks, _givens_amplitudes
from fermifree.verify import sample_density, sample_unitary


def _random_pure(d, rng, particles=None):
    """A random unit vector on d orbitals, confined to one particle number if given."""
    a = rng.standard_normal(1 << d) + 1j * rng.standard_normal(1 << d)
    if particles is not None:
        a[np.bitwise_count(np.arange(1 << d)) != particles] = 0.0
    return PureState(OrbitalSpace(d), a / np.linalg.norm(a))


def _pure_cases():
    """Builders of pure states at d <= 10, by name."""
    rng = np.random.default_rng(23)
    cases = {}
    for d in (1, 3, 6, 10):
        cases[f"random-d{d}"] = partial(_random_pure, d, np.random.default_rng(d))
        cases[f"sector-d{d}"] = partial(_random_pure, d, np.random.default_rng(d), d // 2)
    for d in (2, 5, 8):
        for n in sorted({0, 1, d // 2, d}):  # n = 0 is the vacuum, n = d the full state
            cases[f"slater-d{d}-n{n}"] = partial(
                slater_amplitudes, sample_unitary(d, rng)[:n], OrbitalSpace(d)
            )
    for sites in range(1, 6):
        for u_int in (0.0, 4.0):
            cases[f"hubbard-{sites}-u{u_int:g}"] = partial(
                hubbard_ground_amplitudes, sites, 1.0, u_int, (sites + 1) // 2, sites // 2
            )
    cases["hubbard-critical"] = partial(hubbard_ground_amplitudes, 4, 1.305, 2.0, 2, 2)
    return cases


PURE_CASES = _pure_cases()


def _assert_same_value(fast, dense, what):
    if np.isinf(dense):
        assert np.isinf(fast), what
    else:
        assert abs(fast - dense) <= 1e-10, (what, fast, dense)


@pytest.mark.parametrize("name", sorted(PURE_CASES))
def test_amplitude_path_matches_dense_path(name):
    psi = PURE_CASES[name]()
    rho = pure_density(psi)
    # the free reference as its spec: the subject is the amplitude path against
    # the dense state; dense references are checked against `_reference` at d <= 5
    gamma = natural_spectrum(one_pdm(rho))
    assert np.array_equal(one_pdm(psi).gamma, one_pdm(rho).gamma)
    fast, dense = nonfreeness(psi), nonfreeness(rho)
    assert fast.nonfreeness == dense.nonfreeness
    assert fast.entropy_state == dense.entropy_state == 0.0
    assert np.array_equal(fast.occupations, dense.occupations)
    _assert_same_value(fast.cross_check, dense.cross_check, "cross-check")
    for alpha in (0.5, 2.0):
        _assert_same_value(
            correlation_renyi(psi, alpha), renyi_divergence(alpha, rho, gamma), ("petz", alpha)
        )
        _assert_same_value(
            correlation_sandwiched(psi, alpha),
            sandwiched_renyi(alpha, rho, gamma),
            ("sandwiched", alpha),
        )
    d = psi.space.d
    keep = np.random.default_rng(d).permutation(np.arange(1, d + 1))[: (d + 1) // 2].tolist()
    np.testing.assert_allclose(
        restrict(psi, keep).matrix, restrict(rho, keep).matrix, rtol=0, atol=1e-10
    )


def test_kernel_crossing_is_kept_on_the_amplitude_path():
    # the free reference's smallest Bernoulli weight falls under KERNEL_TOL
    psi = PURE_CASES["hubbard-critical"]()
    assert nonfreeness(psi).cross_check == float("inf")
    assert nonfreeness(pure_density(psi)).cross_check == float("inf")


def _orbital_unitaries(d, rng):
    """Three random d x d unitaries, a permutation and diagonal phases."""
    unitaries = [sample_unitary(d, rng) for _ in range(3)]
    return unitaries + [np.eye(d)[rng.permutation(d)], np.diag(np.exp(1j * rng.uniform(0, 6, d)))]


@pytest.mark.parametrize("d", range(1, 9))
def test_givens_rotation_matches_fock_unitary(d):
    rng = np.random.default_rng(100 + d)
    space = OrbitalSpace(d)
    for u in _orbital_unitaries(d, rng):
        fock_adjoint = basis_change_unitary(u, space).conj().T
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        stack = rng.standard_normal((space.dim, 3)) + 1j * rng.standard_normal((space.dim, 3))
        np.testing.assert_allclose(
            _givens_amplitudes(u, psi, d), fock_adjoint @ psi, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            _givens_amplitudes(u, stack, d), fock_adjoint @ stack, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("d", range(1, 9))
def test_fock_blocks_match_the_minors(d):
    """Every particle-number block is the minors' block, and the minors vanish
    outside the blocks."""
    space = OrbitalSpace(d)
    for u in _orbital_unitaries(d, np.random.default_rng(100 + d)):
        outside = basis_change_unitary(u, space)
        blocks = _fock_blocks(u, d)
        assert sorted(np.concatenate([lists for lists, _ in blocks])) == list(range(space.dim))
        for lists, f in blocks:
            block = np.ix_(lists, lists)
            np.testing.assert_allclose(f, outside[block], rtol=0, atol=1e-12)
            outside[block] = 0.0
        assert not outside.any()


def test_fock_blocks_are_unitary_at_ten_orbitals():
    for lists, f in _fock_blocks(sample_unitary(10, np.random.default_rng(110)), 10):
        assert np.abs(f.conj().T @ f - np.eye(lists.size)).max() <= 1e-12, lists.size


def _full_core_sandwiched(alpha, a, b):
    """The sandwiched divergence from the full 2^d core, by dense eigh."""
    q, vb = np.linalg.eigh(b.matrix)
    live = q > KERNEL_TOL
    power = (vb[:, live] * q[live] ** ((1 - alpha) / (2 * alpha))) @ vb[:, live].conj().T
    core = power @ a.matrix @ power
    w = np.linalg.eigvalsh((core + core.conj().T) / 2)
    return np.log((w[w > KERNEL_TOL] ** alpha).sum()) / (alpha - 1)


@pytest.mark.parametrize("d", (2, 4, 6, 8))
def test_rank_one_sandwiched_matches_full_core(d):
    # The k x k core of the k live eigenvectors, for pure states (k = 1) and
    # for mixed states of rank 2, 3 and full rank, against dense and spec
    # references.
    rng = np.random.default_rng(200 + d)
    space = OrbitalSpace(d)
    spec = FreeStateSpec(space, rng.uniform(0.1, 0.9, d), sample_unitary(d, rng))
    free = spec.to_density()
    states = [
        pure_density(_random_pure(d, rng)),
        pure_density(_random_pure(d, rng, d // 2)),
        slater_density(sample_unitary(d, rng)[: d // 2], space),
    ]
    if d <= 6:
        states += [sample_density(space, rng, rank) for rank in (2, 3, None)]
    for rho in states:
        own = natural_spectrum(one_pdm(rho))
        for b in (free, spec, free_from_pdm(one_pdm(rho))[0], own):
            dense_b = b.to_density() if isinstance(b, FreeStateSpec) else b
            for alpha in (0.5, 0.75, 2.0):
                reference = _full_core_sandwiched(alpha, rho, dense_b)
                assert abs(sandwiched_renyi(alpha, rho, b) - max(reference, 0.0)) <= 1e-10
    # an empty orbital puts half the Fock basis in the reference's kernel,
    # which these states cross: +inf at alpha > 1, the full core below 1
    empty = FreeStateSpec(space, np.r_[0.0, rng.uniform(0.1, 0.9, d - 1)], sample_unitary(d, rng))
    for rho in states[:1] + states[3:]:
        for b in (empty, empty.to_density()):
            assert sandwiched_renyi(2.0, rho, b) == float("inf")
            reference = _full_core_sandwiched(0.5, rho, empty.to_density())
            assert abs(sandwiched_renyi(0.5, rho, b) - max(reference, 0.0)) <= 1e-10


def test_divergences_read_any_state_against_a_free_spec():
    rng = np.random.default_rng(41)
    space = OrbitalSpace(4)
    spec = FreeStateSpec(space, rng.uniform(0.1, 0.9, 4), sample_unitary(4, rng))
    free = spec.to_density()
    mixed, psi = sample_density(space, rng), _random_pure(4, rng)
    for a, dense_a in ((mixed, mixed), (psi, pure_density(psi))):
        for b in (spec, free):
            for divergence, *alpha in [
                (cross_entropy,),
                (relative_entropy,),
                *((f, alpha) for f in (renyi_divergence, sandwiched_renyi) for alpha in (0.5, 2)),
            ]:
                fast = divergence(*alpha, a, b)
                assert abs(fast - divergence(*alpha, dense_a, free)) <= 1e-10, divergence


def test_state_documents_keep_pure_states_as_amplitudes():
    pure = {"d": 1, "kind": "pure", "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}
    slater = {"d": 2, "kind": "slater", "orbitals": [[[1, 0], [0, 0]]]}
    vacuum = {"d": 2, "kind": "slater", "orbitals": []}
    hubbard = {"d": 4, "kind": "hubbard", "sites": 2, "t": 1.0, "u": 4.0, "n_up": 1, "n_down": 1}
    gibbs = {"d": 1, "kind": "gibbs", "occupations": [0.5]}
    for doc in (pure, slater, vacuum, hubbard):
        psi = ffio.state_from_document(doc)
        assert isinstance(psi, PureState)
        rho = ffio.density_from_document(doc)
        np.testing.assert_array_equal(rho.matrix, pure_density(psi).matrix)
    assert not isinstance(ffio.state_from_document(gibbs), PureState)


def test_slater_rows_orthonormal_within_tolerance_are_accepted():
    # A row whose norm is off by 4e-11 is orthonormal within TOL_UNITARY, and
    # the squared norm of its state, 1 + 8e-11, within TOL_TRACE, as the dense
    # projector's trace check has always allowed; the PureState is normalized
    # rather than failing TOL_NORM.
    space = OrbitalSpace(4)
    rng = np.random.default_rng(31)
    orbitals = sample_unitary(4, rng)
    for rows in (orbitals[:1] * (1 + 4e-11), orbitals[:2] * np.array([[1 + 4e-11], [1 - 4e-11]])):
        psi = slater_amplitudes(rows, space)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-15
        doc = {"d": 4, "kind": "slater", "orbitals": ffio.matrix_to_json(rows)}
        assert isinstance(ffio.state_from_document(doc), PureState)
        ffio.density_from_document(doc)
    for bad in (orbitals[:2] * (1 + 2e-10), orbitals[[0, 0]]):
        with pytest.raises(ValidationError, match="orthonormal"):
            slater_amplitudes(bad, space)
    with pytest.raises(ValidationError, match="trace"):  # each row fine, the Gram determinant not
        slater_amplitudes(orbitals[:2] * (1 + 4e-11), space)
    with pytest.raises(ValidationError, match="non-finite"):
        slater_amplitudes(np.array([[np.nan, 0, 0, 0]]), space)


def test_pure_documents_never_densify(tmp_path, capsys):
    # One dense 1024 x 1024 complex matrix is 16 MB.
    path = tmp_path / "chain5.json"
    path.write_text(
        json.dumps({"d": 10, "kind": "hubbard", "sites": 5, "t": 1.0, "u": 4.0,
                    "n_up": 3, "n_down": 2})
    )
    runs = [
        ["nonfreeness", str(path), "--cross-check"],
        ["renyi", str(path), "--alpha", "0.5", "--sandwiched"],
        ["pdm", str(path)],
    ]
    for argv in runs:  # warm the cached index tables
        assert main(argv) == 0
    capsys.readouterr()
    for argv in runs:
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 8 * 2**20, (argv, peak)


def test_restrict_of_a_pure_state_allocates_no_dense_matrix():
    # One dense 4096 x 4096 complex matrix is 268 MB; the amplitudes are 64 kB.
    rng = np.random.default_rng(14)
    keep = list(range(1, 13, 2))
    restrict(_random_pure(12, rng), keep)  # warm the cached split table
    psi = _random_pure(12, rng)
    tracemalloc.start()
    try:
        restrict(psi, keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_pure_density_holds_at_most_three_dense_matrices():
    # One dense 1024 x 1024 complex matrix is 16 MB: the projector and the two
    # temporaries of its Hermiticity check.  The eigenpairs are psi itself.
    rng = np.random.default_rng(15)
    pure_density(_random_pure(10, rng))
    psi = _random_pure(10, rng)
    tracemalloc.start()
    try:
        rho = pure_density(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 16 * 2**20, peak
    w, v = rho.eigenpairs
    assert np.array_equal(w, [1.0]) and np.array_equal(v, psi.vectors)
