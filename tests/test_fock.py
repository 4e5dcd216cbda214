"""Fock combinatorics: ladder signs, induced unitaries, index factorization."""

import itertools
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermifree.fock
from fermifree import (
    CapacityError,
    OrbitalSpace,
    PureState,
    ValidationError,
    basis_change_unitary,
    DensityOperator,
    restrict,
)
from fermifree.fock import expectations, ladder_matrices, ladder_table, split_table
from fermifree.verify import sample_density, sample_unitary
from sparse_ladder import sparse_ladder


# --- independent oracles -----------------------------------------------------


def symbolic_create(i, occupied):
    """Insert creator i into an increasing creator product by adjacent swaps.

    Returns (sign, new occupied tuple) or None when the orbital is occupied.
    Each adjacent transposition of creators contributes one factor of -1.
    """
    if i in occupied:
        return None
    sign = 1
    lst = [i] + list(occupied)
    k = 0
    while k + 1 < len(lst) and lst[k] > lst[k + 1]:
        lst[k], lst[k + 1] = lst[k + 1], lst[k]
        sign = -sign
        k += 1
    return sign, tuple(lst)


def occupied(bits):
    return tuple(i for i in range(1, bits.bit_length() + 1) if bits >> (i - 1) & 1)


def inversion_parity(sequence):
    sign = 1
    for a in range(len(sequence)):
        for b in range(a + 1, len(sequence)):
            if sequence[a] > sequence[b]:
                sign = -sign
    return sign


def fock_unitary_by_creator_products(u, space):
    """Induced Fock unitary built by applying a*(u_col) products to the vacuum.

    Independent of the determinant-minor construction in the library.
    """
    creators, _ = ladder_matrices(space)

    def orbital_creator(f):
        return sum(f[j] * creators[j] for j in range(space.d))

    out = np.zeros((space.dim, space.dim), dtype=complex)
    for n in range(space.dim):
        psi = np.zeros(space.dim, dtype=complex)
        psi[0] = 1.0
        for j in reversed([j for j in range(space.d) if (n >> j) & 1]):
            psi = orbital_creator(u[:, j]) @ psi
        out[:, n] = psi
    return out


# --- capacity ----------------------------------------------------------------


def test_capacity_error():
    with pytest.raises(CapacityError):
        OrbitalSpace(13)


@pytest.mark.parametrize("d", [2.0, np.float64(2.0), True, "2", None])
def test_orbital_count_must_be_an_integer(d):
    with pytest.raises(ValidationError, match="orbital count must be an integer"):
        OrbitalSpace(d)


def test_orbital_count_stores_numpy_integers_as_int():
    space = OrbitalSpace(np.int64(3))
    assert type(space.d) is int and space.dim == 8 and space == OrbitalSpace(3)


# --- ladder operators --------------------------------------------------------


def test_creator_single_mode():
    (c,), _ = ladder_matrices(OrbitalSpace(1))
    np.testing.assert_allclose(c @ [1, 0], [0, 1])
    np.testing.assert_allclose(c @ [0, 1], [0, 0])


def test_creator_sign_on_occupied_lower_orbital():
    # applying the second creator to |10> anticommutes past the first: -|11>
    (_, c2), _ = ladder_matrices(OrbitalSpace(2))
    np.testing.assert_allclose(c2[:, 0b01], [0, 0, 0, -1])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_creator_matches_symbolic_anticommutation(d):
    space = OrbitalSpace(d)
    creators, _ = ladder_matrices(space)
    for i, mat in enumerate(creators, 1):
        for bits in range(space.dim):
            result = symbolic_create(i, occupied(bits))
            column = mat[:, bits]
            if result is None:
                np.testing.assert_allclose(column, 0.0)
                continue
            sign, occ = result
            target = sum(1 << (j - 1) for j in occ)
            expected = np.zeros(space.dim)
            expected[target] = sign
            np.testing.assert_allclose(column, expected)


def test_annihilator_single_mode():
    _, (a,) = ladder_matrices(OrbitalSpace(1))
    np.testing.assert_allclose(a @ [0, 1], [1, 0])


@pytest.mark.parametrize("d", [2, 3, 6])
def test_car_relations(d):
    space = OrbitalSpace(d)
    creators, annihilators = ladder_matrices(space)
    eye = np.eye(space.dim)
    for i, a_i in enumerate(annihilators):
        for j, (c_j, a_j) in enumerate(zip(creators, annihilators)):
            anti = a_i @ c_j + c_j @ a_i
            target = eye if i == j else np.zeros_like(eye)
            np.testing.assert_allclose(anti, target, atol=1e-12)
            np.testing.assert_allclose(a_i @ a_j + a_j @ a_i, 0.0, atol=1e-12)


@pytest.mark.parametrize("d", range(1, 7))
def test_dense_ladder_operators_match_sparse_jordan_wigner(d):
    space = OrbitalSpace(d)
    creators, annihilators = ladder_matrices(space)
    sparse_creators, sparse_annihilators = sparse_ladder(d)
    assert len(creators) == len(annihilators) == d
    for c, a, sparse_c, sparse_a in zip(creators, annihilators, sparse_creators, sparse_annihilators):
        for op in (c, a):
            assert type(op) is np.ndarray and op.dtype == complex and op.shape == (space.dim,) * 2
        np.testing.assert_array_equal(c, sparse_c.toarray())
        np.testing.assert_array_equal(a, sparse_a.toarray())
        np.testing.assert_array_equal(a, c.conj().T)


def test_dense_ladder_operators_stay_out_of_the_package_namespace():
    assert "ladder_matrices" not in fermifree.__all__ and not hasattr(fermifree, "ladder_matrices")
    assert callable(fermifree.fock.ladder_matrices)


LADDER_WORDS = ("+", "-", "++", "--", "+-", "++-", "+--", "++--")


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_expectations_match_sparse_ladder_products(d):
    space = OrbitalSpace(d)
    rng = np.random.default_rng(d)
    shape = (space.dim, space.dim)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # not Hermitian
    creators, annihilators = sparse_ladder(d)
    ops = {"+": creators, "-": annihilators}
    for word in LADDER_WORDS:
        got = expectations(lambda src, dst: m[src, dst], word, d)
        assert got.shape == (d,) * len(word)
        for orbitals in itertools.product(range(d), repeat=len(word)):
            product = ops[word[0]][orbitals[0]]
            for letter, i in zip(word[1:], orbitals[1:]):
                product = product @ ops[letter][i]
            expected = np.sum(m.T * product.toarray())  # Tr(m M)
            assert abs(got[orbitals] - expected) < 1e-12, (word, orbitals)


def test_ladder_tables_are_cached_read_only_and_built_lazily():
    table = ladder_table("+-", 3)
    assert ladder_table("+-", 3) is table
    assert not any(array.flags.writeable for array in table)
    # a fresh interpreter has built no table after importing the package
    code = "import fermifree, fermifree.fock as f; print(f.ladder_table.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"
    # the 5-site sweep builds one table, the N = 5 sector's, and no full d = 10 one
    code = textwrap.dedent("""
        import contextlib, io, fermifree.cli, fermifree.fock as f
        with contextlib.redirect_stdout(io.StringIO()):
            fermifree.cli.main(["demo-hubbard", "--sites", "5", "--sweep", "0,4"])
        built = f.ladder_table.cache_info()
        entries = f.ladder_table("+-", 10, 5)[0].size  # a hit: no second table
        print(built.currsize, f.ladder_table.cache_info().misses, entries)
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["1", "1", "7560"]  # C(10, 5) * 5 * (10 - 5 + 1) entries


@pytest.mark.parametrize("d", range(1, 7))
def test_sector_tables_restrict_the_full_table(d):
    for word in LADDER_WORDS:
        full = ladder_table(word, d)
        for n in range(d + 1):
            table = ladder_table(word, d, n)
            assert ladder_table(word, d, n) is table
            assert not any(array.flags.writeable for array in table)
            sources = np.bitwise_count(full[1]) == n
            for got, whole in zip(table, full):
                assert np.array_equal(got, whole[sources]), (word, n)


def _full_gather(psi, word, d):
    """``expectations`` of an amplitude vector, gathered over the full table."""
    mono, src, dst, sign = ladder_table(word, d)
    values = sign * (psi[src] * psi[dst].conj())
    size = d ** len(word)
    sums = np.bincount(mono, values.real, size) + 1j * np.bincount(mono, values.imag, size)
    return sums.reshape((d,) * len(word))


@pytest.mark.parametrize("d", [1, 3, 6])
def test_sector_vectors_gather_over_their_sector_table(d, monkeypatch):
    asked = []

    def recording(word, orbitals, n=None):
        asked.append(n)
        return ladder_table(word, orbitals, n)

    monkeypatch.setattr(fermifree.fock, "ladder_table", recording)
    rng = np.random.default_rng(d)
    space = OrbitalSpace(d)
    counts = np.bitwise_count(np.arange(1 << d))
    for n in range(d + 1):
        psi = (rng.standard_normal(1 << d) + 1j * rng.standard_normal(1 << d)) * (counts == n)
        stray = psi.copy()
        stray[np.flatnonzero(counts != n)[-1]] = 0.3 - 0.1j  # one amplitude outside the sector
        psi, stray = (PureState(space, a / np.linalg.norm(a)) for a in (psi, stray))
        rho = DensityOperator(space, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        assert (psi.sector, stray.sector, rho.sector) == ((n,), (), ())
        for word in LADDER_WORDS:
            del asked[:]
            for state in (psi, stray):
                got = expectations(state.entries, word, d, state.sector)
                assert np.array_equal(got, _full_gather(state.amplitudes, word, d))
            expectations(rho.entries, word, d, rho.sector)  # a matrix takes the full table
            assert asked == [n, None, None], (word, n)


def test_number_operator_diagonal():
    numbers = [c @ a for c, a in zip(*ladder_matrices(OrbitalSpace(2)))]
    np.testing.assert_array_equal(numbers[0], np.diag([0, 1, 0, 1]))
    total = sum(numbers)
    np.testing.assert_allclose(np.diag(total).real, [0, 1, 1, 2])
    # vacuum expectation vanishes
    assert total[0, 0] == 0


# --- basis-change unitaries --------------------------------------------------


def test_basis_change_identity():
    space = OrbitalSpace(3)
    np.testing.assert_allclose(
        basis_change_unitary(np.eye(3), space), np.eye(8), atol=1e-14
    )


def test_basis_change_single_mode_phase():
    space = OrbitalSpace(1)
    theta = 0.37
    u = np.array([[np.exp(1j * theta)]])
    np.testing.assert_allclose(
        basis_change_unitary(u, space),
        np.diag([1.0, np.exp(1j * theta)]),
        atol=1e-14,
    )


def test_basis_change_rejects_non_unitary():
    with pytest.raises(ValidationError):
        basis_change_unitary(np.ones((2, 2)), OrbitalSpace(2))


def test_basis_change_of_a_stack_is_the_stack_of_basis_changes():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 4):
        space = OrbitalSpace(d)
        stack = np.array([[sample_unitary(d, rng) for _ in range(3)] for _ in range(2)])
        fock = basis_change_unitary(stack, space)
        assert fock.shape == (2, 3, space.dim, space.dim)
        for index in np.ndindex(2, 3):
            np.testing.assert_array_equal(fock[index], basis_change_unitary(stack[index], space))
    with pytest.raises(ValidationError):
        basis_change_unitary(np.array([np.eye(2), np.ones((2, 2))]), OrbitalSpace(2))
    with pytest.raises(ValidationError):
        basis_change_unitary(np.eye(3)[None], OrbitalSpace(2))


def test_basis_change_matches_creator_products():
    rng = np.random.default_rng(11)
    space = OrbitalSpace(3)
    for _ in range(5):
        u = sample_unitary(3, rng)
        np.testing.assert_allclose(
            basis_change_unitary(u, space),
            fock_unitary_by_creator_products(u, space),
            atol=1e-12,
        )


def test_basis_change_is_homomorphism():
    # numerical Cauchy-Binet: minors of a product are products of minors
    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        space = OrbitalSpace(d)
        u1, u2 = sample_unitary(d, rng), sample_unitary(d, rng)
        f1, f2 = basis_change_unitary(u1, space), basis_change_unitary(u2, space)
        np.testing.assert_allclose(
            basis_change_unitary(u1 @ u2, space), f1 @ f2, atol=1e-10
        )
        np.testing.assert_allclose(
            basis_change_unitary(u1.conj().T, space), f1.conj().T, atol=1e-10
        )
        np.testing.assert_allclose(f1 @ f1.conj().T, np.eye(space.dim), atol=1e-10)


def test_basis_change_ladder_covariance():
    rng = np.random.default_rng(7)
    space = OrbitalSpace(4)
    u = sample_unitary(4, rng)
    fock_u = basis_change_unitary(u, space)
    creators, _ = ladder_matrices(space)
    for i in range(4):
        lhs = fock_u @ creators[i] @ fock_u.conj().T
        rhs = sum(u[j, i] * creators[j] for j in range(4))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# --- split / join ------------------------------------------------------------


def test_split_prefix_has_positive_sign():
    _, _, sign = split_table([1, 2], 4)
    assert (sign == 1).all()


def test_split_two_occupied_transposition():
    n1, n2, sign = split_table([2], 2)
    assert (n1[0b11], n2[0b11], sign[0b11]) == (1, 1, -1)


def test_split_single_particle_sign_positive():
    _, _, sign = split_table([2, 4], 4)
    assert (sign[[0, 1, 2, 4, 8]] == 1).all()


def test_split_sign_matches_inversion_parity():
    keep = [2, 4, 5]
    comp = [1, 3]
    _, _, sign = split_table(keep, 5)
    for bits in range(1 << 5):
        occ = occupied(bits)
        target = [i for i in keep if i in occ] + [i for i in comp if i in occ]
        assert sign[bits] == inversion_parity(target)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(min_value=1, max_value=8))
def test_split_table_is_a_signed_bijection(data, d):
    k = data.draw(st.integers(min_value=1, max_value=d))
    keep = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=d),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    n1, n2, sign = split_table(keep, d)
    # (n1, n2) takes every pair of kept and complement lists exactly once
    assert n1.min() >= 0 and n1.max() < 1 << k
    assert n2.min() >= 0 and n2.max() < 1 << (d - k)
    assert np.unique(n1 + (n2 << k)).size == 1 << d
    assert set(np.unique(sign)) <= {-1, 1}


def partial_trace_by_inversion_parity(rho, keep):
    """Fermionic partial trace over the orbitals outside `keep` (increasing), one
    matrix element at a time: |n> = sign (kept creators)(complement creators)|0>,
    with sign the inversion parity of that reordering of n's creators."""
    comp = [i for i in range(1, rho.space.d + 1) if i not in keep]

    def factor(bits):
        occ = occupied(bits)
        n1 = sum(1 << pos for pos, i in enumerate(keep) if i in occ)
        n2 = sum(1 << pos for pos, i in enumerate(comp) if i in occ)
        return n1, n2, inversion_parity([i for i in keep + comp if i in occ])

    factors = [factor(bits) for bits in range(rho.space.dim)]
    out = np.zeros((1 << len(keep), 1 << len(keep)), dtype=complex)
    for m, (a, b, s) in enumerate(factors):
        for n, (a2, b2, s2) in enumerate(factors):
            if b == b2:
                out[a, a2] += s * s2 * rho.matrix[m, n]
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_restrict_matches_partial_trace_by_inversion_parity(d):
    rng = np.random.default_rng(40 + d)
    rho = sample_density(OrbitalSpace(d), rng)
    for _ in range(3):
        keep = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False) + 1
        got = restrict(rho, keep)  # in random order: the subset, not its order, matters
        assert isinstance(got, DensityOperator) and got.space.d == keep.size
        expected = partial_trace_by_inversion_parity(rho, sorted(keep.tolist()))
        np.testing.assert_allclose(got.matrix, expected, rtol=0, atol=1e-14)
