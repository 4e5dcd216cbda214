"""Free-state construction, Wick relations, and the purification round-trip."""

import sys

import numpy as np
import pytest
from scipy.linalg import logm

from fermifree import (
    FreeStateSpec,
    OnePdm,
    OrbitalSpace,
    PureState,
    ValidationError,
    basis_change_unitary,
    binary_entropy,
    free_from_pdm,
    gibbs_free_density,
    hubbard_ground_amplitudes,
    natural_spectrum,
    one_pdm,
    pair_state,
    pure_density,
    purify_free,
    remark_state,
    restrict,
    slater_amplitudes,
    slater_density,
    von_neumann,
    wick_check,
)
from fermifree.fock import ladder_matrices
from fermifree.states import bernoulli_weights
from fermifree.verify import sample_density, sample_free_spec, sample_unitary, trace_distance


def test_spec_stores_read_only_copies():
    rng = np.random.default_rng(30)
    p, u = rng.uniform(0.1, 0.9, 3), sample_unitary(3, rng)
    spec = FreeStateSpec(OrbitalSpace(3), p, u)
    with pytest.raises(ValueError):
        spec.orbitals[0, 0] = 0.0
    with pytest.raises(ValueError):
        spec.occupations[0] = 0.5
    p[0], u[0, 0] = 0.5, 0.0  # the caller's arrays stay writable, the spec unchanged
    assert spec.occupations[0] != 0.5 and spec.orbitals[0, 0] != 0.0
    with pytest.raises(ValidationError):
        FreeStateSpec(OrbitalSpace(3), spec.occupations, np.array([spec.orbitals] * 2))


def test_divergences_against_a_spec_do_not_revalidate_it(monkeypatch):
    import fermifree.fock
    import fermifree.states
    from fermifree import relative_entropy, sandwiched_renyi

    rng = np.random.default_rng(31)
    rho = sample_density(OrbitalSpace(3), rng)
    spec = sample_free_spec(OrbitalSpace(3), rng)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = fermifree.fock._require_unitary
    monkeypatch.setattr(fermifree.fock, "_require_unitary", counting)
    monkeypatch.setattr(fermifree.states, "_require_unitary", counting)
    relative_entropy(rho, spec)
    sandwiched_renyi(0.5, rho, spec)
    assert calls == []


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_free_densities_are_built_without_the_minors(d, monkeypatch):
    """Givens passes build F diag(w) F^dagger: with the minors' Fock unitary
    raising wherever it is bound, `free_from_pdm` matches the minors-built
    density and carries eigenpairs that diagonalize it."""
    pdm = one_pdm(sample_density(OrbitalSpace(d), np.random.default_rng(90 + d)))
    spec = natural_spectrum(pdm)
    fock_u = basis_change_unitary(spec.orbitals, spec.space)
    expected = (fock_u * bernoulli_weights(spec.occupations)) @ fock_u.conj().T

    def forbidden(*args, **kwargs):
        raise AssertionError("a free density was built from the minors")

    bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "fermifree"]
    bound = [m for m in bound if getattr(m, "basis_change_unitary", None) is basis_change_unitary]
    assert len(bound) >= 2  # fermifree.fock and the package itself at least
    for module in bound:
        monkeypatch.setattr(module, "basis_change_unitary", forbidden)
    rho = free_from_pdm(pdm)[0]
    assert np.abs(rho.matrix - expected).max() <= 1e-14
    w, v = rho.eigenpairs
    assert np.abs(v.conj().T @ v - np.eye(w.size)).max() <= 1e-14
    assert np.abs(rho.matrix @ v - v * w).max() <= 1e-14


def test_free_from_projector_pdm_is_slater():
    space = OrbitalSpace(3)
    q = OnePdm(space, np.diag([1.0, 1.0, 0.0]).astype(complex))
    density, spec = free_from_pdm(q)
    expected = slater_density(np.eye(3)[:2], space)
    np.testing.assert_allclose(density.matrix, expected.matrix, atol=1e-12)
    np.testing.assert_allclose(spec.occupations, [1.0, 1.0, 0.0])


def test_free_from_diagonal_pdm_bernoulli_weights():
    space = OrbitalSpace(2)
    density, _ = free_from_pdm(OnePdm(space, np.diag([2 / 3, 1 / 3]).astype(complex)))
    np.testing.assert_allclose(
        np.diag(density.matrix).real, [2 / 9, 4 / 9, 1 / 9, 2 / 9], atol=1e-12
    )


def test_free_from_pdm_reproduces_pdm_and_idempotence():
    rng = np.random.default_rng(0)
    space = OrbitalSpace(4)
    q = one_pdm(sample_density(space, rng))
    density, _ = free_from_pdm(q)
    np.testing.assert_allclose(one_pdm(density).gamma, q.gamma, atol=1e-9)
    again, _ = free_from_pdm(one_pdm(density))
    np.testing.assert_allclose(density.matrix, again.matrix, atol=1e-9)


def test_gamma_of_fixes_free_states():
    space = OrbitalSpace(3)
    rho = gibbs_free_density([0.3, 0.6, 0.8], space)
    np.testing.assert_allclose(free_from_pdm(one_pdm(rho))[0].matrix, rho.matrix, atol=1e-9)


def test_gamma_of_remark_state():
    expected = gibbs_free_density([2 / 3, 1 / 3], OrbitalSpace(2))
    np.testing.assert_allclose(
        free_from_pdm(one_pdm(remark_state()))[0].matrix, expected.matrix, atol=1e-12
    )


def test_gamma_of_pair_state_is_half_filling():
    gamma = free_from_pdm(one_pdm(pair_state()))[0]
    np.testing.assert_allclose(
        one_pdm(gamma).gamma, np.eye(4) / 2, atol=1e-12
    )
    np.testing.assert_allclose(gamma.matrix, np.eye(16) / 16, atol=1e-12)


def test_wick_check_passes_for_free_states():
    rng = np.random.default_rng(1)
    for _ in range(3):
        spec = sample_free_spec(OrbitalSpace(3), rng)
        ok, worst = wick_check(spec.to_density())
        assert ok and worst < 1e-10
    ok, worst = wick_check(gibbs_free_density([0.25, 0.75], OrbitalSpace(2)))
    assert ok and worst < 1e-10


def test_wick_check_vacuum():
    space = OrbitalSpace(2)
    ok, worst = wick_check(slater_density(np.zeros((0, 2)), space))
    assert ok and worst < 1e-12


def test_wick_check_rejects_pair_state():
    ok, worst = wick_check(pair_state())
    assert not ok
    assert worst > 0.1


def test_wick_check_reads_pure_state_amplitudes():
    rng = np.random.default_rng(12)
    states = [
        slater_amplitudes(np.eye(3)[:1], OrbitalSpace(3)),
        slater_amplitudes(sample_unitary(4, rng)[:2], OrbitalSpace(4)),
        hubbard_ground_amplitudes(2, 1.0, 4.0, 1, 1),
        hubbard_ground_amplitudes(3, 1.0, 2.0, 2, 1),
    ]
    for psi in states:
        ok, worst = wick_check(psi)
        dense_ok, dense_worst = wick_check(pure_density(psi))
        assert ok == dense_ok and abs(worst - dense_worst) <= 1e-12
    amplitudes = np.zeros(16, dtype=complex)
    amplitudes[0b0011] = amplitudes[0b1100] = 1 / np.sqrt(2)  # as in pair_state()
    pair = PureState(OrbitalSpace(4), amplitudes)
    ok, worst = wick_check(pair)
    assert not ok and abs(worst - wick_check(pair_state())[1]) <= 1e-12


def test_uniqueness_free_state_with_matching_pdm():
    # any constructed candidate passing order-2 Wick with pdm Q equals the
    # canonical free state with pdm Q
    rng = np.random.default_rng(2)
    space = OrbitalSpace(3)
    spec = sample_free_spec(space, rng)
    candidate = spec.to_density()
    ok, _ = wick_check(candidate, tol=1e-9)
    assert ok
    canonical, _ = free_from_pdm(one_pdm(candidate))
    np.testing.assert_allclose(candidate.matrix, canonical.matrix, atol=1e-8)


def test_substates_of_free_states_are_free():
    rng = np.random.default_rng(3)
    space = OrbitalSpace(4)
    spec = sample_free_spec(space, rng)
    sub = restrict(spec.to_density(), [2, 4])
    ok, worst = wick_check(sub, tol=1e-9)
    assert ok, worst


def test_free_entropy_formula():
    rng = np.random.default_rng(4)
    spec = sample_free_spec(OrbitalSpace(4), rng)
    assert abs(
        von_neumann(spec.to_density()) - binary_entropy(spec.occupations)
    ) < 1e-9


def test_gibbs_log_is_quadratic():
    space = OrbitalSpace(3)
    p = np.array([0.2, 0.5, 0.7])
    rho = gibbs_free_density(p, space)
    quad = np.zeros((space.dim, space.dim), dtype=complex)
    eye = np.eye(space.dim)
    for i, (c, a) in enumerate(zip(*ladder_matrices(space))):
        n_op = c @ a
        quad += np.log(p[i]) * n_op + np.log(1 - p[i]) * (eye - n_op)
    np.testing.assert_allclose(logm(rho.matrix), quad, atol=1e-9)


def test_independent_occupation_moments():
    space = OrbitalSpace(3)
    p = np.array([0.15, 0.5, 0.85])
    rho = gibbs_free_density(p, space)
    numbers = [c @ a for c, a in zip(*ladder_matrices(space))]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            value = (rho.matrix @ numbers[i] @ numbers[j]).trace().real
            assert abs(value - p[i] * p[j]) < 1e-10


# --- purification ------------------------------------------------------------


def test_purify_single_occupied_orbital():
    spec = FreeStateSpec(OrbitalSpace(1), np.array([1.0]), np.eye(1, dtype=complex))
    rows = purify_free(spec)
    np.testing.assert_allclose(rows, [[1.0, 0.0]])
    doubled = slater_density(rows, OrbitalSpace(2))
    recovered = restrict(doubled, [1])
    np.testing.assert_allclose(recovered.matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_purify_half_occupation():
    spec = FreeStateSpec(OrbitalSpace(1), np.array([0.5]), np.eye(1, dtype=complex))
    doubled = slater_density(purify_free(spec), OrbitalSpace(2))
    recovered = restrict(doubled, [1])
    np.testing.assert_allclose(recovered.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_purify_two_orbitals():
    spec = FreeStateSpec(
        OrbitalSpace(2), np.array([2 / 3, 1 / 3]), np.eye(2, dtype=complex)
    )
    doubled = slater_density(purify_free(spec), OrbitalSpace(4))
    recovered = restrict(doubled, [1, 2])
    np.testing.assert_allclose(
        np.diag(recovered.matrix).real, [2 / 9, 4 / 9, 1 / 9, 2 / 9], atol=1e-12
    )


def test_purify_roundtrip_random_spec():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        spec = FreeStateSpec(
            OrbitalSpace(d), rng.uniform(0, 1, d), sample_unitary(d, rng)
        )
        doubled = slater_density(purify_free(spec), OrbitalSpace(2 * d))
        recovered = restrict(doubled, range(1, d + 1))
        assert trace_distance(recovered, spec.to_density()) < 1e-9


def test_purified_rows_are_orthonormal():
    rng = np.random.default_rng(6)
    spec = FreeStateSpec(
        OrbitalSpace(3), rng.uniform(0, 1, 3), sample_unitary(3, rng)
    )
    rows = purify_free(spec)
    np.testing.assert_allclose(rows.conj() @ rows.T, np.eye(3), atol=1e-12)
