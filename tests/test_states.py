"""State constructors: pure, Slater, Gibbs, mixtures, products, Hubbard."""

import itertools
from functools import partial

import numpy as np
import pytest

from fermifree import (
    DensityOperator,
    FreeStateSpec,
    OnePdm,
    OrbitalSpace,
    PureState,
    ValidationError,
    gibbs_free_density,
    hubbard_ground_amplitudes,
    mixture,
    nonfreeness,
    one_pdm,
    pure_density,
    restrict,
    slater_density,
)
from fermifree.config import KERNEL_TOL
from fermifree.fock import ladder_table
from fermifree.states import (
    FactoredState, _hubbard_sector, _with_eigenpairs, bernoulli_weights, hubbard_ground_state,
)
from fermifree.verify import sample_density, sample_unitary, tensor_product
from sparse_ladder import sparse_ladder


def vacuum(space):
    amplitudes = np.zeros(space.dim, dtype=complex)
    amplitudes[0] = 1.0
    return pure_density(PureState(space, amplitudes))


def test_pure_density_vacuum():
    rho = vacuum(OrbitalSpace(2))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho.matrix, expected)


def test_pure_density_has_unit_purity():
    rng = np.random.default_rng(0)
    space = OrbitalSpace(3)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    rho = pure_density(PureState(space, v / np.linalg.norm(v)))
    assert abs((rho.matrix @ rho.matrix).trace() - 1.0) < 1e-12


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValidationError, match="norm deviates"):
        PureState(OrbitalSpace(1), np.array([1.0, 1.0]))


def test_density_validation_messages():
    space = OrbitalSpace(1)
    with pytest.raises(ValidationError, match="trace deviates"):
        DensityOperator(space, np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityOperator(space, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="positive-semidefinite"):
        DensityOperator(space, np.diag([1.5, -0.5]))


def test_validation_rejects_non_finite_entries():
    space = OrbitalSpace(2)
    nan_diagonal = np.diag([0.5, 0.5, np.nan, 0.0]).astype(complex)
    # orbitals 1 and 2 singly occupied: both indices lie in the N = 1 sector
    nan_in_sector = np.eye(4, dtype=complex) / 4
    nan_in_sector[1, 2] = nan_in_sector[2, 1] = np.nan
    for matrix in (nan_diagonal, nan_in_sector, np.diag([np.inf, 0, 0, 0])):
        with pytest.raises(ValidationError, match="non-finite"):
            DensityOperator(space, matrix)
    with pytest.raises(ValidationError, match="non-finite"):
        PureState(OrbitalSpace(1), np.array([np.nan, 1.0]))
    with pytest.raises(ValidationError, match="non-finite"):
        OnePdm(OrbitalSpace(1), np.array([[np.nan]]))


def test_slater_standard_basis_rows():
    space = OrbitalSpace(3)
    rho = slater_density(np.eye(3)[:2], space)
    expected = np.zeros((8, 8))
    expected[0b011, 0b011] = 1.0
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


def test_slater_vacuum_case():
    space = OrbitalSpace(2)
    rho = slater_density(np.zeros((0, 2)), space)
    np.testing.assert_allclose(rho.matrix, vacuum(space).matrix)


def test_slater_pdm_is_projector_onto_row_span():
    rng = np.random.default_rng(3)
    space = OrbitalSpace(4)
    rows = sample_unitary(4, rng)[:2, :]
    rho = slater_density(rows, space)
    projector = rows.T @ rows.conj()
    np.testing.assert_allclose(one_pdm(rho).gamma, projector, atol=1e-10)


def test_slater_nonfreeness_zero():
    rng = np.random.default_rng(4)
    space = OrbitalSpace(4)
    rows = sample_unitary(4, rng)[:3, :]
    assert nonfreeness(slater_density(rows, space)).nonfreeness < 1e-8


def test_slater_invariant_under_row_mixing():
    rng = np.random.default_rng(5)
    space = OrbitalSpace(4)
    rows = sample_unitary(4, rng)[:2, :]
    mixer = sample_unitary(2, rng)
    a = slater_density(rows, space)
    b = slater_density(mixer @ rows, space)
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-10)


def test_slater_rejects_nonorthonormal_rows():
    with pytest.raises(ValidationError, match="orthonormal"):
        slater_density(np.array([[1.0, 0.0], [1.0, 0.0]]), OrbitalSpace(2))


def test_gibbs_single_orbital():
    rho = gibbs_free_density([0.5], OrbitalSpace(1))
    np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]))


def test_gibbs_two_orbital_weights():
    rho = gibbs_free_density([2 / 3, 1 / 3], OrbitalSpace(2))
    np.testing.assert_allclose(
        np.diag(rho.matrix).real, [2 / 9, 4 / 9, 1 / 9, 2 / 9], atol=1e-14
    )


def test_gibbs_weights_sum_to_one():
    rng = np.random.default_rng(6)
    p = rng.uniform(0.01, 0.99, 6)
    assert abs(bernoulli_weights(p).sum() - 1.0) < 1e-12


def test_bernoulli_weights_stack_matches_rows():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.0, 1.0, (5, 3))
    stacked = bernoulli_weights(p)
    assert stacked.shape == (5, 8)
    for row, weights in zip(p, stacked):
        np.testing.assert_array_equal(weights, bernoulli_weights(row))


def _bernoulli_loop(p):
    """Reference: the weights built one orbital at a time, highest orbital first."""
    weights = np.ones(p.shape[:-1] + (1,))
    for q in np.moveaxis(p, -1, 0)[::-1]:
        factor = np.stack([1.0 - q, q], axis=-1)
        weights = (weights[..., :, None] * factor[..., None, :]).reshape(*p.shape[:-1], -1)
    return weights


@pytest.mark.parametrize("d", range(1, 9))
def test_bernoulli_weights_equal_loop_reference(d):
    rng = np.random.default_rng(70 + d)
    for shape in [(d,), (4, d), (2, 3, d)]:
        p = rng.uniform(0.0, 1.0, shape)
        np.testing.assert_array_equal(bernoulli_weights(p), _bernoulli_loop(p))
    boundary = np.where(rng.uniform(size=(3, d)) < 0.5, 0.0, 1.0)
    np.testing.assert_array_equal(bernoulli_weights(boundary), _bernoulli_loop(boundary))


def test_gibbs_lambda_parametrization_roundtrip():
    # occupations p = exp(-lam) / (1 + exp(-lam)) reproduce the Gibbs weights
    lam = np.array([0.7, -0.3, 1.9])
    space = OrbitalSpace(3)
    p = np.exp(-lam) / (1.0 + np.exp(-lam))
    rho = gibbs_free_density(p, space)
    weights = np.array(
        [
            np.exp(-sum(lam[i] for i in range(3) if (n >> i) & 1))
            for n in range(8)
        ]
    )
    weights /= np.prod(1.0 + np.exp(-lam))
    np.testing.assert_allclose(np.diag(rho.matrix).real, weights, atol=1e-12)


def test_gibbs_rejects_boundary_occupations():
    with pytest.raises(ValidationError, match="strictly inside"):
        gibbs_free_density([0.0, 0.5], OrbitalSpace(2))
    with pytest.raises(ValidationError, match="strictly inside"):
        gibbs_free_density([1.0, 0.5], OrbitalSpace(2))


def test_mixture_identity_and_idempotence():
    rng = np.random.default_rng(7)
    rho = sample_density(OrbitalSpace(2), rng)
    np.testing.assert_allclose(mixture([(1.0, rho)]).matrix, rho.matrix)
    np.testing.assert_allclose(
        mixture([(0.5, rho), (0.5, rho)]).matrix, rho.matrix, atol=1e-15
    )


def test_mixture_remark_state():
    space = OrbitalSpace(2)
    up = np.zeros(4, dtype=complex)
    up[0b01] = 1.0
    down = np.zeros(4, dtype=complex)
    down[0b10] = 1.0
    rho = mixture(
        [
            (2 / 3, pure_density(PureState(space, up))),
            (1 / 3, pure_density(PureState(space, down))),
        ]
    )
    np.testing.assert_allclose(rho.matrix, np.diag([0.0, 2 / 3, 1 / 3, 0.0]))


def test_mixture_weight_validation():
    rng = np.random.default_rng(8)
    rho = sample_density(OrbitalSpace(1), rng)
    with pytest.raises(ValidationError, match="sum deviates"):
        mixture([(0.7, rho), (0.7, rho)])
    with pytest.raises(ValidationError, match="different spaces"):
        mixture([(0.5, rho), (0.5, sample_density(OrbitalSpace(2), rng))])


def test_mixture_rejects_components_with_different_labels():
    rho = sample_density(OrbitalSpace(2), np.random.default_rng(8))
    named = DensityOperator(OrbitalSpace(2, ("a", "b")), rho.matrix)
    renamed = DensityOperator(OrbitalSpace(2, ("c", "d")), rho.matrix)
    for other in (renamed, rho):
        with pytest.raises(ValidationError, match="different spaces"):
            mixture([(0.5, named), (0.5, other)])
    assert mixture([(0.5, named), (0.5, named)]).space.labels == ("a", "b")


def test_mixture_labels_name_the_result_with_one_eigensolve(monkeypatch):
    rng = np.random.default_rng(9)
    a, b = sample_density(OrbitalSpace(2), rng), sample_density(OrbitalSpace(2), rng)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rho = mixture([(0.25, a), (0.75, b)], labels=["up", "dn"])
    assert len(calls) == 1  # validation reads eigenvalues only: eigvalsh
    assert rho.space == OrbitalSpace(2, ("up", "dn"))
    np.testing.assert_array_equal(rho.matrix, mixture([(0.25, a), (0.75, b)]).matrix)
    assert restrict(rho, [2]).space.labels == ("dn",)


def test_tensor_product_of_vacua():
    prod = tensor_product(vacuum(OrbitalSpace(2)), vacuum(OrbitalSpace(1)))
    np.testing.assert_allclose(prod.matrix, vacuum(OrbitalSpace(3)).matrix)


def test_tensor_product_marginal():
    rng = np.random.default_rng(9)
    a = sample_density(OrbitalSpace(2), rng)
    b = sample_density(OrbitalSpace(2), rng)
    prod = tensor_product(a, b)
    np.testing.assert_allclose(restrict(prod, [1, 2]).matrix, a.matrix, atol=1e-12)
    # the compression of the 1-pdm identifies the second marginal as well
    np.testing.assert_allclose(
        one_pdm(restrict(prod, [3, 4])).gamma, one_pdm(b).gamma, atol=1e-12
    )


def test_tensor_product_second_marginal_for_even_parity_factor():
    # tracing out a factor of definite particle-number parity leaves the
    # other factor intact, coherences included
    rng = np.random.default_rng(10)
    space = OrbitalSpace(2)
    even = np.zeros(4, dtype=complex)
    even[0b00], even[0b11] = 0.6, 0.8
    a = pure_density(PureState(space, even))
    b = sample_density(space, rng)
    prod = tensor_product(a, b)
    np.testing.assert_allclose(restrict(prod, [3, 4]).matrix, b.matrix, atol=1e-12)


def test_tensor_product_label_collision():
    a = sample_density(OrbitalSpace(1, labels=("x",)), np.random.default_rng(1))
    b = sample_density(OrbitalSpace(1, labels=("x",)), np.random.default_rng(2))
    with pytest.raises(ValidationError, match="labels"):
        tensor_product(a, b)


def test_hubbard_noninteracting_is_free():
    for sites, n_up, n_down in [(2, 1, 1), (3, 2, 1)]:
        rho = hubbard_ground_state(sites, 1.0, 0.0, n_up, n_down)
        assert nonfreeness(rho, cross_check=False).nonfreeness < 1e-8


def test_hubbard_nonfreeness_grows_with_interaction():
    values = [
        nonfreeness(
            hubbard_ground_state(2, 1.0, u, 1, 1), cross_check=False
        ).nonfreeness
        for u in (0.0, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_hubbard_degenerate_sector_still_valid():
    rho = hubbard_ground_state(2, 0.0, 3.0, 1, 1)
    assert abs(rho.matrix.trace() - 1.0) < 1e-12


def test_hubbard_rejects_infeasible_fillings():
    with pytest.raises(ValidationError, match="infeasible"):
        hubbard_ground_state(2, 1.0, 1.0, 3, 0)


@pytest.mark.parametrize(
    "t, u_int", [(1.0, np.nan), (np.inf, 4.0), (-np.inf, 0.0), (np.nan, np.nan)]
)
def test_hubbard_rejects_non_finite_parameters(t, u_int):
    with pytest.raises(ValidationError, match="finite"):
        hubbard_ground_state(2, t, u_int, 1, 1)


@pytest.mark.parametrize("builder", [hubbard_ground_state, hubbard_ground_amplitudes])
@pytest.mark.parametrize(
    "args",
    [
        (2.0, 1.0, 1.0, 1, 1),
        (np.float64(2.0), 1.0, 1.0, 1, 1),
        (True, 1.0, 1.0, 1, 0),
        (2, 1.0, 1.0, 1.0, 1),
        (2, 1.0, 1.0, 1, 1.0),
        (2, 1.0, 1.0, True, 1),
        (2, True, 1.0, 1, 1),
        (2, 1.0, True, 1, 1),
        (2, "1", 1.0, 1, 1),
        (2, 1.0, None, 1, 1),
    ],
)
def test_hubbard_rejects_python_typed_arguments(builder, args):
    with pytest.raises(ValidationError):
        builder(*args)


def test_hubbard_accepts_numpy_scalars():
    expected = hubbard_ground_amplitudes(2, 1.0, 4.0, 1, 1).amplitudes
    got = hubbard_ground_amplitudes(np.int64(2), np.float32(1.0), 4, np.int32(1), 1).amplitudes
    np.testing.assert_array_equal(got, expected)


def sparse_hubbard_hamiltonian(sites, t, u_int):
    """Open-chain Hubbard Hamiltonian on (1up, 1dn, 2up, ...) from sparse ladder products."""
    creators, annihilators = sparse_ladder(2 * sites)
    h = 0 * creators[0]
    for orb in range(2 * sites - 2):
        hop = creators[orb] @ annihilators[orb + 2]
        h = h - t * (hop + hop.conj().T)
    for up in range(0, 2 * sites, 2):
        h = h + u_int * (creators[up] @ annihilators[up] @ creators[up + 1] @ annihilators[up + 1])
    return h.toarray()


@pytest.mark.parametrize(
    "sites, fillings",
    [(sites, list(itertools.product(range(sites + 1), repeat=2))) for sites in range(1, 6)],
)
def test_hubbard_matches_sparse_hamiltonian_ground_state(sites, fillings):
    """Every feasible filling, at t in {1, -0.8} and U in {0, 4, -3}, against
    the sparse Hamiltonian; every such sector has a nondegenerate ground state."""
    idx = np.arange(1 << (2 * sites))
    up_count = np.bitwise_count(idx & int("01" * sites, 2))
    down_count = np.bitwise_count(idx & int("10" * sites, 2))
    for t, u_int in itertools.product((1.0, -0.8), (0.0, 4.0, -3.0)):
        h = sparse_hubbard_hamiltonian(sites, t, u_int)
        for n_up, n_down in fillings:
            sector = np.flatnonzero((up_count == n_up) & (down_count == n_down))
            energies, vectors = np.linalg.eigh(h[np.ix_(sector, sector)])
            assert energies.size == 1 or energies[1] - energies[0] > 1e-3  # nondegenerate
            psi = hubbard_ground_amplitudes(sites, t, u_int, n_up, n_down).amplitudes
            assert not np.delete(psi, sector).any()
            np.testing.assert_allclose(
                np.outer(psi[sector], psi[sector].conj()),
                np.outer(vectors[:, 0], vectors[:, 0].conj()),
                rtol=0,
                atol=1e-12,
            )
    rho = hubbard_ground_state(sites, t, u_int, n_up, n_down)  # the last case, as a density
    np.testing.assert_array_equal(rho.matrix, np.outer(psi, psi.conj()))


def _hubbard_sector_from_full_table(sites, n_up, n_down):
    """``_hubbard_sector`` built by masking the full Fock space and the full table."""
    d = 2 * sites
    up_mask = sum(1 << (2 * s) for s in range(sites))
    idx = np.arange(1 << d)
    sector = idx[
        (np.bitwise_count(idx & up_mask) == n_up)
        & (np.bitwise_count(idx & (up_mask << 1)) == n_down)
    ]
    position = np.full(1 << d, -1)
    position[sector] = np.arange(sector.size)
    mono, src, dst, sign = ladder_table("+-", d)
    i, j = np.divmod(mono, d)
    hops = (np.abs(i - j) == 2) & (position[src] >= 0)
    doubly_occupied = np.bitwise_count(sector & (sector >> 1) & up_mask)
    return sector, position[dst[hops]], position[src[hops]], sign[hops], doubly_occupied


@pytest.mark.parametrize("sites", range(1, 6))
def test_hubbard_sector_reads_its_number_sector_table(sites):
    for n_up, n_down in itertools.product(range(sites + 1), repeat=2):
        got = _hubbard_sector(sites, n_up, n_down)
        expected = _hubbard_sector_from_full_table(sites, n_up, n_down)
        for name, a, b in zip(("sector", "rows", "cols", "signs", "doubly"), got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b), (n_up, n_down, name)


def test_hubbard_sector_tables_are_cached_and_read_only():
    _hubbard_sector.cache_clear()
    first = hubbard_ground_amplitudes(3, 1.0, 2.0, 2, 1).amplitudes
    tables = _hubbard_sector(3, 2, 1)
    assert _hubbard_sector.cache_info().misses == 1
    assert not any(array.flags.writeable for array in tables)
    again = hubbard_ground_amplitudes(3, 0.5, -1.0, 2, 1)  # other t and U, same sector
    assert _hubbard_sector.cache_info().hits == 2 and _hubbard_sector.cache_info().currsize == 1
    assert _hubbard_sector(3, 2, 1) is tables
    np.testing.assert_array_equal(hubbard_ground_amplitudes(3, 1.0, 2.0, 2, 1).amplitudes, first)
    assert not again.amplitudes.imag.any()  # the real block has real eigenvectors


# --- spectra carried from construction ------------------------------------------


def _carried_states():
    """Builders of states whose constructors know their spectrum, by name."""
    rng = np.random.default_rng(11)
    cases = {}
    for d in range(1, 7):
        p = rng.uniform(0.0, 1.0, d)
        p[: min(d, 2)] = [0.0, 1.0][: min(d, 2)]  # boundary occupations
        cases[f"free-d{d}"] = FreeStateSpec(OrbitalSpace(d), p, sample_unitary(d, rng)).to_density
    cases["gibbs"] = partial(gibbs_free_density, np.array([0.2, 0.7, 0.45]), OrbitalSpace(3))
    for d in (1, 3, 5):
        a = rng.standard_normal(1 << d) + 1j * rng.standard_normal(1 << d)
        psi = PureState(OrbitalSpace(d), a / np.linalg.norm(a))
        cases[f"pure-d{d}"] = partial(pure_density, psi)
    for d, n in ((2, 0), (4, 2), (5, 3)):
        cases[f"slater-d{d}-n{n}"] = partial(
            slater_density, sample_unitary(d, rng)[:n], OrbitalSpace(d)
        )
    for sites in (2, 3, 4, 5):
        cases[f"hubbard-{sites}"] = partial(
            hubbard_ground_state, sites, 1.0, 4.0, (sites + 1) // 2, sites // 2
        )
    basis = np.zeros(16, dtype=complex)
    basis[0b0110] = 1.0
    cases["basis-vector"] = partial(pure_density, PureState(OrbitalSpace(4), basis))
    columns = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    columns /= np.linalg.norm(columns, axis=0)
    cases["factored-d4"] = FactoredState(OrbitalSpace(4), columns, [0.5, 0.3, 0.2]).to_density
    return cases


CARRIED = _carried_states()


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_carried_eigenpairs_diagonalize_the_state(name, monkeypatch):
    shapes = []
    for solver in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, solver)

        def recorded(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, solver, recorded)
    rho = CARRIED[name]()
    monkeypatch.undo()
    # the only eigensolve is the Hubbard Hamiltonian's sector block or the Gram
    # matrix of a factored state, never the state
    solved = name.startswith(("hubbard", "factored"))
    assert len(shapes) == solved and all(max(s) < rho.dim for s in shapes)
    # the live pairs only: eigenvalues above KERNEL_TOL, orthonormal columns (2^d, k)
    w, v = rho.eigenpairs
    assert not w.flags.writeable and not v.flags.writeable
    assert (w > KERNEL_TOL).all() and v.shape == (rho.dim, w.size)
    np.testing.assert_allclose(rho.matrix @ v, v * w, atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(w.size), atol=1e-12)
    dense = np.linalg.eigvalsh(rho.matrix)
    np.testing.assert_allclose(np.sort(w), dense[dense > KERNEL_TOL], atol=1e-12)
    # eigenvalues: all 2^d of them, as an eigvalsh gives, in no set order
    assert not rho.eigenvalues.flags.writeable
    np.testing.assert_allclose(np.sort(rho.eigenvalues), dense, atol=1e-12)


def test_basis_vector_projector_carries_its_amplitudes():
    rho = CARRIED["basis-vector"]()
    w, v = rho.eigenpairs
    assert np.array_equal(w, [1.0]) and np.array_equal(v, np.eye(16)[:, [0b0110]])


def test_carried_constructors_still_validate():
    rng = np.random.default_rng(5)
    space = OrbitalSpace(3)
    skewed = sample_unitary(3, rng) @ np.diag([1.0, 1.0, 1.0 + 1e-6])
    with pytest.raises(ValidationError, match="unitary"):
        FreeStateSpec(space, np.full(3, 0.5), skewed).to_density()
    for bad in ([-1e-3, 0.5, 0.5], [0.5, 1.0 + 1e-3, 0.5]):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            FreeStateSpec(space, np.array(bad), np.eye(3))
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    with pytest.raises(ValidationError, match="norm"):
        pure_density(PureState(space, a * (1.0 + 1e-6) / np.linalg.norm(a)))
    # the PSD check reads the eigenvalues supplied, not only the live ones kept
    w = np.array([-1e-9, 0.5, 0.5 + 1e-9, 0.0])
    with pytest.raises(ValidationError, match="positive-semidefinite"):
        _with_eigenpairs(OrbitalSpace(2), np.diag(w).astype(complex), w, np.eye(4))
