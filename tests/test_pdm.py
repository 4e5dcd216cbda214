"""1-pdm extraction, natural spectra, particle numbers, kernel predicates."""

import numpy as np
import pytest

from fermifree import (
    DensityOperator,
    FreeStateSpec,
    OnePdm,
    OrbitalSpace,
    ValidationError,
    basis_change_unitary,
    gibbs_free_density,
    mixture,
    natural_spectrum,
    nonfreeness,
    one_pdm,
    remark_state,
    restrict,
    slater_density,
)
from fermifree.fock import ladder_matrices
from fermifree.verify import kernel_inclusion_1pdm, sample_density, sample_unitary
from sparse_ladder import sparse_ladder


def sparse_one_pdm(rho):
    """gamma[i, j] = Tr(rho a*_j a_i) from sparse ladder products, hermitized."""
    d = rho.space.d
    creators, annihilators = sparse_ladder(d)
    g = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            op = (creators[j] @ annihilators[i]).tocoo()  # sum of data |row><col|
            g[i, j] = (op.data * rho.matrix[op.col, op.row]).sum()
    return (g + g.conj().T) / 2


def test_one_pdm_of_slater_is_projector():
    rng = np.random.default_rng(0)
    space = OrbitalSpace(4)
    rows = sample_unitary(4, rng)[:2, :]
    gamma = one_pdm(slater_density(rows, space)).gamma
    np.testing.assert_allclose(gamma, rows.T @ rows.conj(), atol=1e-10)
    np.testing.assert_allclose(gamma @ gamma, gamma, atol=1e-10)


@pytest.mark.parametrize("d", range(1, 11))
def test_one_pdm_matches_sparse_reference(d):
    space = OrbitalSpace(d)
    rho = sample_density(space, np.random.default_rng(100 + d), rank=min(space.dim, 3))
    np.testing.assert_allclose(one_pdm(rho).gamma, sparse_one_pdm(rho), rtol=0, atol=1e-12)


def test_one_pdm_of_vacuum_is_zero():
    space = OrbitalSpace(3)
    rho = slater_density(np.zeros((0, 3)), space)
    np.testing.assert_allclose(one_pdm(rho).gamma, 0.0, atol=1e-14)


def test_one_pdm_of_remark_state():
    np.testing.assert_allclose(
        one_pdm(remark_state()).gamma, np.diag([2 / 3, 1 / 3]), atol=1e-12
    )


def test_one_pdm_diagonal_matches_occupation_sums():
    # diagonal entries are sums of diagonal density weights over occupied configs
    rng = np.random.default_rng(1)
    space = OrbitalSpace(3)
    rho = sample_density(space, rng)
    gamma = one_pdm(rho).gamma
    for i in range(3):
        expected = sum(
            rho.matrix[n, n].real for n in range(8) if (n >> i) & 1
        )
        assert abs(gamma[i, i].real - expected) < 1e-12


def test_one_pdm_linearity():
    rng = np.random.default_rng(2)
    space = OrbitalSpace(3)
    a, b = sample_density(space, rng), sample_density(space, rng)
    mixed = mixture([(0.3, a), (0.7, b)])
    np.testing.assert_allclose(
        one_pdm(mixed).gamma,
        0.3 * one_pdm(a).gamma + 0.7 * one_pdm(b).gamma,
        atol=1e-12,
    )


def test_one_pdm_compression_under_restriction():
    rng = np.random.default_rng(3)
    space = OrbitalSpace(4)
    rho = sample_density(space, rng)
    keep = [1, 3]
    sub_gamma = one_pdm(restrict(rho, keep)).gamma
    np.testing.assert_allclose(
        sub_gamma, one_pdm(rho).gamma[np.ix_([0, 2], [0, 2])], atol=1e-10
    )


def test_one_pdm_basis_covariance():
    rng = np.random.default_rng(4)
    space = OrbitalSpace(3)
    rho = sample_density(space, rng)
    u = sample_unitary(3, rng)
    fock_u = basis_change_unitary(u, space)
    rotated = DensityOperator(space, fock_u @ rho.matrix @ fock_u.conj().T)
    np.testing.assert_allclose(
        one_pdm(rotated).gamma, u @ one_pdm(rho).gamma @ u.conj().T, atol=1e-10
    )


def test_natural_spectrum_descending_and_consistent():
    rng = np.random.default_rng(5)
    space = OrbitalSpace(3)
    pdm = one_pdm(sample_density(space, rng))
    spectrum = natural_spectrum(pdm)
    assert np.all(np.diff(spectrum.occupations) <= 1e-12)
    for k in range(3):
        np.testing.assert_allclose(
            pdm.gamma @ spectrum.orbitals[:, k],
            spectrum.occupations[k] * spectrum.orbitals[:, k],
            atol=1e-9,
        )


def test_natural_spectrum_is_the_free_spec_of_its_pdm():
    pdm = one_pdm(sample_density(OrbitalSpace(3), np.random.default_rng(7)))
    spec = natural_spectrum(pdm)
    assert isinstance(spec, FreeStateSpec) and spec.space == pdm.space
    assert not spec.occupations.flags.writeable and not spec.orbitals.flags.writeable
    np.testing.assert_allclose(one_pdm(spec.to_density()).gamma, pdm.gamma, atol=1e-12)
    # the clamp into [0, 1] is recomputed from the cached eigenpairs, not stored
    w = pdm.eigenpairs[0][::-1]
    np.testing.assert_array_equal(spec.occupations, np.clip(w, 0.0, 1.0))


def test_natural_spectrum_trivial_cases():
    space = OrbitalSpace(2)
    spectrum = natural_spectrum(OnePdm(space, np.diag([1.0, 0.0]).astype(complex)))
    np.testing.assert_allclose(spectrum.occupations, [1.0, 0.0])
    np.testing.assert_allclose(np.abs(spectrum.orbitals), np.eye(2), atol=1e-12)


def test_natural_spectrum_phase_fix_deterministic():
    rng = np.random.default_rng(6)
    space = OrbitalSpace(3)
    pdm = one_pdm(sample_density(space, rng))
    a = natural_spectrum(pdm)
    b = natural_spectrum(pdm)
    np.testing.assert_array_equal(a.orbitals, b.orbitals)
    for k in range(3):
        col = a.orbitals[:, k]
        pivot = col[np.flatnonzero(np.abs(col) > 1e-10)[0]]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_expected_particle_number():
    """The expected particle number is the trace of the 1-pdm."""
    rng = np.random.default_rng(7)
    space = OrbitalSpace(4)
    rows = sample_unitary(4, rng)[:3, :]
    assert abs(one_pdm(slater_density(rows, space)).trace - 3.0) < 1e-10
    p = np.array([0.2, 0.5, 0.9])
    gibbs = gibbs_free_density(p, OrbitalSpace(3))
    assert abs(one_pdm(gibbs).trace - p.sum()) < 1e-10
    assert abs(one_pdm(remark_state()).trace - 1.0) < 1e-12


def test_expected_particle_number_matches_number_operators():
    rng = np.random.default_rng(8)
    space = OrbitalSpace(3)
    rho = sample_density(space, rng)
    direct = sum((rho.matrix @ c @ a).trace().real for c, a in zip(*ladder_matrices(space)))
    assert abs(one_pdm(rho).trace - direct) < 1e-10


def test_kernel_inclusion_cases():
    space = OrbitalSpace(2)
    full = OnePdm(space, np.diag([0.5, 0.5]).astype(complex))
    anything = OnePdm(space, np.diag([0.9, 0.1]).astype(complex))
    assert kernel_inclusion_1pdm(full, anything) == (True, True)

    projector = OnePdm(space, np.diag([1.0, 0.0]).astype(complex))
    assert kernel_inclusion_1pdm(projector, projector) == (True, True)

    half_kernel = OnePdm(space, np.diag([0.0, 0.5]).astype(complex))
    assert kernel_inclusion_1pdm(half_kernel, full) == (False, True)


def test_one_pdm_validation():
    space = OrbitalSpace(2)
    with pytest.raises(ValidationError, match="Hermitian"):
        OnePdm(space, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="outside"):
        OnePdm(space, np.diag([1.5, 0.0]).astype(complex))


def test_nonfreeness_of_a_free_state_diagonalizes_its_1pdm_once(monkeypatch):
    rng = np.random.default_rng(8)
    space = OrbitalSpace(4)
    free = FreeStateSpec(space, rng.uniform(0.1, 0.9, 4), sample_unitary(4, rng)).to_density()
    calls = []

    def counted(name):
        original = getattr(np.linalg, name)

        def solve(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    report = nonfreeness(free, cross_check=True)
    assert calls == ["eigh"]  # the 1-pdm's; the free state carries its spectrum
    assert report.nonfreeness <= 1e-10 and report.cross_check <= 1e-10
