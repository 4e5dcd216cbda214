"""Fock-space combinatorics for a finite set of fermionic orbitals.

A basis vector of the 2^d-dimensional Fock space is an "occupation list",
stored as an unsigned integer whose bit i-1 records whether orbital i
(1-based) is occupied.  The basis vector with bitmask n is the one obtained
by applying the creators of the occupied orbitals to the vacuum in
increasing orbital order; every fermionic sign in this module is derived by
anticommuting through that normal form.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np
from scipy import sparse

from .config import TOL_UNITARY, d_max
from .errors import CapacityError, ValidationError


@dataclass(frozen=True)
class OrbitalSpace:
    """A set of d reference orbitals; the ambient Fock space has dimension 2^d."""

    d: int
    labels: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"orbital count must be >= 1, got {self.d}")
        ceiling = d_max()
        if self.d > ceiling:
            raise CapacityError(
                f"orbital count {self.d} exceeds D_MAX = {ceiling}"
            )
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.d:
                raise ValidationError(
                    f"expected {self.d} labels, got {len(self.labels)}"
                )

    @property
    def dim(self) -> int:
        return 1 << self.d


def enumerate_basis(space: OrbitalSpace) -> list[int]:
    """All 2^d occupation lists in increasing-bitmask order; index 0 is the vacuum."""
    return list(range(space.dim))


def occupation_vector(bits: int, d: int) -> tuple[int, ...]:
    """The 0/1 occupation of each orbital 1..d encoded in `bits`."""
    return tuple((bits >> i) & 1 for i in range(d))


def occupied_orbitals(bits: int) -> tuple[int, ...]:
    """1-based indices of occupied orbitals, increasing."""
    return tuple(i + 1 for i in range(bits.bit_length()) if (bits >> i) & 1)


@cache
def particle_number_sectors(d: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """All occupation lists sorted stably by particle number, and the spans
    (start, stop) of ``order`` holding N = 0..d particles; shared, so read-only."""
    counts = np.bitwise_count(np.arange(1 << d))
    order = np.argsort(counts, kind="stable")
    order.flags.writeable = False
    bounds = np.searchsorted(counts[order], np.arange(d + 2)).tolist()
    return order, tuple(zip(bounds[:-1], bounds[1:]))


def _check_orbital_index(i: int, space: OrbitalSpace):
    if not 1 <= i <= space.d:
        raise ValidationError(f"orbital index {i} out of range 1..{space.d}")


def creator(i: int, space: OrbitalSpace) -> sparse.csr_matrix:
    """Creation operator for reference orbital i (1-based), as a sparse matrix.

    Acting on |n> with orbital i empty it yields (-1)^(occupied below i) times
    the basis vector with bit i set, and 0 otherwise.
    """
    _check_orbital_index(i, space)
    dim = space.dim
    bit = 1 << (i - 1)
    below = bit - 1
    src = np.arange(dim, dtype=np.int64)
    empty = (src & bit) == 0
    src = src[empty]
    dst = src | bit
    signs = 1.0 - 2.0 * (np.bitwise_count(src & below) % 2)
    return sparse.csr_matrix(
        (signs.astype(complex), (dst, src)), shape=(dim, dim)
    )


def annihilator(i: int, space: OrbitalSpace) -> sparse.csr_matrix:
    """Annihilation operator for orbital i: the adjoint of ``creator(i)``."""
    return creator(i, space).conj().T.tocsr()


def number_operator(i: int, space: OrbitalSpace) -> sparse.csr_matrix:
    """Occupation observable of orbital i: diagonal with entry n(i) at |n>."""
    _check_orbital_index(i, space)
    bit = 1 << (i - 1)
    occ = ((np.arange(space.dim, dtype=np.int64) & bit) != 0).astype(complex)
    return sparse.diags(occ, format="csr")


def orbital_creator(f: np.ndarray, space: OrbitalSpace) -> sparse.csr_matrix:
    """Creation operator a*(f) for an arbitrary 1-particle vector f = sum f_i e_i."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (space.d,):
        raise ValidationError(f"expected a vector of length {space.d}")
    zero = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    return sum((fi * creator(i, space) for i, fi in enumerate(f, 1) if fi != 0), zero)


def ladder_matrices(space: OrbitalSpace):
    """All creators and annihilators: (creators, annihilators), 0-indexed lists."""
    cs = [creator(i, space) for i in range(1, space.d + 1)]
    return cs, [c.conj().T.tocsr() for c in cs]


@cache
def ladder_table(word: str, d: int) -> tuple[np.ndarray, ...]:
    """Every nonzero entry of every ladder monomial spelled by `word`, read-only.

    '+' is a creator, '-' an annihilator; monomial k is the product for the
    k-th 0-based orbital tuple in row-major order, rightmost operator first.
    Monomial mono[n] maps |src[n]> to sign[n] |dst[n]>, signs as in ``creator``.
    """
    bits = 1 << np.arange(d, dtype=np.int64)
    src = np.arange(1 << d, dtype=np.int64)
    dst, mono, sign = src, np.zeros_like(src), np.ones(src.size)
    for position, letter in enumerate(reversed(word)):
        occupied = (dst[:, None] & bits) != 0
        rows, orbs = np.nonzero({"-": occupied, "+": ~occupied}[letter])
        below = np.bitwise_count(dst[rows] & (bits[orbs] - 1)) % 2
        sign = sign[rows] * (1.0 - 2.0 * below)
        src, dst = src[rows], dst[rows] ^ bits[orbs]
        mono = mono[rows] + orbs * d**position
    table = (mono, src, dst, sign)
    for array in table:
        array.flags.writeable = False
    return table


def expectations(matrix: np.ndarray, word: str, d: int) -> np.ndarray:
    """Tr(matrix M) for every ladder monomial M spelled by `word`, shape (d,)*len(word):
    one signed gather over ``ladder_table(word, d)``, summed per monomial."""
    mono, src, dst, sign = ladder_table(word, d)
    values = sign * matrix[src, dst]
    size = d ** len(word)
    sums = np.bincount(mono, values.real, size) + 1j * np.bincount(mono, values.imag, size)
    return sums.reshape((d,) * len(word))


def _require_unitary(u: np.ndarray, d: int, tol: float):
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValidationError(f"expected a {d}x{d} matrix, got shape {u.shape}")
    err = np.abs(u.conj().T @ u - np.eye(d)).max()
    if err > tol:
        raise ValidationError(f"matrix is not unitary: deviation {err:.3e}")
    return u


def basis_change_unitary(
    u: np.ndarray, space: OrbitalSpace, *, tol: float = TOL_UNITARY
) -> np.ndarray:
    """Fock-space unitary induced by a 1-particle basis change u.

    The matrix element between occupation lists of equal particle number is
    the minor det u[occupied(m), occupied(n)] (rows and columns in increasing
    orbital order); elements between different particle numbers vanish.  The
    image of the occupation pattern 1..10..0 is the Slater determinant built
    from the first columns of u.
    """
    d = space.d
    u = _require_unitary(u, d, tol)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[0, 0] = 1.0
    for k in range(1, d + 1):
        occs = list(combinations(range(d), k))
        bits = np.array([sum(1 << i for i in occ) for occ in occs])
        rows = np.array(occs)  # (m, k) occupied 0-based orbitals per bitmask
        for col_bits, col_occ in zip(bits, occs):
            minors = u[:, list(col_occ)][rows]  # (m, k, k)
            out[bits, col_bits] = np.linalg.det(minors)
    return out


def _split_sign(bits: int, keep_mask: int) -> int:
    """Parity of reordering the creators of `bits` into (kept, complement) blocks.

    Counts pairs (a kept-occupied, b complement-occupied) with b < a; only
    occupied modes transpose.
    """
    bits = int(bits)
    kept_occ = bits & keep_mask
    comp_occ = bits & ~keep_mask
    crossings = 0
    b = comp_occ
    while b:
        low = b & -b  # lowest occupied complement mode
        crossings += int(kept_occ >> low.bit_length()).bit_count()
        b ^= low
    return -1 if crossings % 2 else 1


def _keep_mask(keep, d: int) -> int:
    keep = tuple(int(i) for i in keep)
    if not keep:
        raise ValidationError("kept orbital subset must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValidationError(f"kept orbital subset has duplicates: {keep}")
    mask = 0
    for i in keep:
        if not 1 <= i <= d:
            raise ValidationError(f"orbital index {i} out of range 1..{d}")
        mask |= 1 << (i - 1)
    return mask


def _orbital_split(keep, d: int) -> tuple[int, list[int], list[int]]:
    """The keep mask, and the 0-based kept and complement orbitals in increasing order."""
    mask = _keep_mask(keep, d)
    kept = [i for i in range(d) if mask >> i & 1]
    return mask, kept, [i for i in range(d) if not mask >> i & 1]


def split_index(bits: int, keep, space: OrbitalSpace) -> tuple[int, int, int]:
    """Factor an occupation list across a subset of orbitals.

    Returns (n1, n2, sign): n1 is the occupation list on the kept orbitals
    (compressed, preserving their relative order), n2 the one on the
    complement, and sign the parity of moving the kept creators in front of
    the complement creators.
    """
    mask, kept, comp = _orbital_split(keep, space.d)
    n1 = sum(1 << pos for pos, i in enumerate(kept) if bits >> i & 1)
    n2 = sum(1 << pos for pos, i in enumerate(comp) if bits >> i & 1)
    return n1, n2, _split_sign(bits, mask)


def join_index(n1: int, n2: int, keep, space: OrbitalSpace) -> tuple[int, int]:
    """Inverse of ``split_index``: scatter (n1, n2) back into a full occupation list."""
    mask, kept, comp = _orbital_split(keep, space.d)
    bits = sum(1 << i for pos, i in enumerate(kept) if n1 >> pos & 1)
    bits += sum(1 << i for pos, i in enumerate(comp) if n2 >> pos & 1)
    return bits, _split_sign(bits, mask)
