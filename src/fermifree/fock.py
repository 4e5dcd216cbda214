"""Fock-space combinatorics for a finite set of fermionic orbitals.

A basis vector of the 2^d-dimensional Fock space is an "occupation list",
stored as an unsigned integer whose bit i-1 records whether orbital i
(1-based) is occupied.  The basis vector with bitmask n is the one obtained
by applying the creators of the occupied orbitals to the vacuum in
increasing orbital order; every fermionic sign in this module is derived by
anticommuting through that normal form.

The dense ladder operators of `ladder_matrices` are the oracle's 2^d x 2^d
reference for the signed index tables; outside the oracle the package computes
from the tables alone.  Likewise the minors of `basis_change_unitary` are the
oracle's reference for the Fock unitary of a basis change, which the package
builds by particle-number blocks (`_fock_blocks`) or applies to amplitude
vectors by Givens rotations (`_givens_amplitudes`).
"""

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import combinations

import numpy as np

from .config import TOL_UNITARY, d_max
from .errors import CapacityError, ValidationError, array, instance, integer


@dataclass(frozen=True)
class OrbitalSpace:
    """A set of d reference orbitals; the ambient Fock space has dimension 2^d."""

    d: int
    labels: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "d", integer(self.d, "orbital count", 1))
        ceiling = d_max()
        if self.d > ceiling:
            raise CapacityError(f"orbital count {self.d} exceeds D_MAX = {ceiling}")
        if self.labels is not None:
            if not isinstance(self.labels, (list, tuple)):
                raise ValidationError(f"labels must be strings in a list or tuple: {self.labels!r}")
            object.__setattr__(self, "labels", tuple(self.labels))
            if not all(isinstance(label, str) for label in self.labels):
                raise ValidationError("labels must be strings")
            if len(self.labels) != self.d:
                raise ValidationError(f"expected {self.d} labels, got {len(self.labels)}")
            if len(set(self.labels)) != self.d:
                raise ValidationError("labels must be distinct")

    @property
    def dim(self) -> int:
        return 1 << self.d


def ladder_matrices(space: OrbitalSpace):
    """All creators and annihilators as dense matrices: (creators, annihilators),
    0-indexed lists, 2 d 4^d complex entries in all (268 MB per operator at d = 12).

    Creator i (1-based) maps |n> with orbital i empty to (-1)^(occupied below i)
    times the basis vector with bit i set, and |n> with orbital i occupied to 0;
    annihilator i is its adjoint.
    """
    lists = np.arange(space.dim, dtype=np.int64)
    creators = []
    for bit in 1 << np.arange(space.d, dtype=np.int64):
        src = lists[(lists & bit) == 0]
        c = np.zeros((space.dim, space.dim), dtype=complex)
        c[src | bit, src] = 1.0 - 2.0 * (np.bitwise_count(src & (bit - 1)) % 2)
        creators.append(c)
    return creators, [c.conj().T for c in creators]


def _number_sector(d: int, n: int) -> np.ndarray:
    """The occupation lists on d orbitals holding n particles, in increasing order."""
    lists = np.arange(1 << d, dtype=np.int64)
    return lists[np.bitwise_count(lists) == n]


@cache
def ladder_table(word: str, d: int, n: int | None = None) -> tuple[np.ndarray, ...]:
    """Every nonzero entry of every ladder monomial spelled by `word`, read-only,
    cached per (word, d), and per (word, d, n) for a sector.

    '+' is a creator, '-' an annihilator; monomial k is the product for the
    k-th 0-based orbital tuple in row-major order, rightmost operator first.
    Monomial mono[e] maps |src[e]> to sign[e] |dst[e]>, signs as in ``ladder_matrices``.
    Entries are ordered by source, then by orbital tuple, so with a particle
    number `n` the table is the full one restricted to the n-particle sources,
    in the same order: C(d, n) sources instead of 2^d.
    """
    bits = 1 << np.arange(d, dtype=np.int64)
    src = np.arange(1 << d, dtype=np.int64) if n is None else _number_sector(d, n)
    dst, mono, sign = src, np.zeros_like(src), np.ones(src.size)
    for position, letter in enumerate(reversed(word)):
        occupied = (dst[:, None] & bits) != 0
        rows, orbs = np.nonzero({"-": occupied, "+": ~occupied}[letter])
        below = np.bitwise_count(dst[rows] & (bits[orbs] - 1)) % 2
        sign = sign[rows] * (1.0 - 2.0 * below)
        src, dst = src[rows], dst[rows] ^ bits[orbs]
        mono = mono[rows] + orbs * d**position
    table = (mono, src, dst, sign)
    for part in table:
        part.flags.writeable = False
    return table


def expectations(entries, word: str, d: int, sector: tuple = ()) -> np.ndarray:
    """Tr(rho M) for every ladder monomial M spelled by `word`, shape (d,)*len(word):
    one signed gather of rho[src, dst] = `entries(src, dst)` over
    ``ladder_table(word, d, *sector)``, summed per monomial.  A state whose
    nonzero amplitudes all hold n particles passes sector (n,): the entries the
    n-particle table drops are exact zeros, and the rest keep their order, so
    the sums are the same to the bit.
    """
    mono, src, dst, sign = ladder_table(word, d, *sector)
    values = sign * entries(src, dst)
    size = d ** len(word)
    sums = np.bincount(mono, values.real, size) + 1j * np.bincount(mono, values.imag, size)
    return sums.reshape((d,) * len(word))


def _require_unitary(u: np.ndarray, d: int, stacked: bool = False):
    """`u` as a complex d x d unitary within TOL_UNITARY, or a stack (..., d, d)
    of them if `stacked`."""
    u = array(u, "orbital unitary", (..., d, d) if stacked else (d, d))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: inf or NaN, rejected
        err = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(d)).max(initial=0.0)
    if not err <= TOL_UNITARY:
        raise ValidationError(f"matrix is not unitary: deviation {err:.3e}")
    return u


def basis_change_unitary(u: np.ndarray, space: OrbitalSpace) -> np.ndarray:
    """Fock-space unitary induced by a 1-particle basis change u.

    The matrix element between occupation lists of equal particle number is
    the minor det u[occupied(m), occupied(n)] (rows and columns in increasing
    orbital order); elements between different particle numbers vanish.  The
    image of the occupation pattern 1..10..0 is the Slater determinant built
    from the first columns of u.  A stack of basis changes, shape (..., d, d),
    gives the stack of their Fock unitaries, shape (..., 2^d, 2^d).
    """
    d = instance(space, OrbitalSpace).d
    u = _require_unitary(u, d, stacked=True)
    out = np.zeros(u.shape[:-2] + (space.dim, space.dim), dtype=complex)
    out[..., 0, 0] = 1.0
    for k in range(1, d + 1):
        occs = list(combinations(range(d), k))
        bits = np.array([sum(1 << i for i in occ) for occ in occs])
        rows = np.array(occs)  # (m, k) occupied 0-based orbitals per bitmask
        for col_bits, col_occ in zip(bits, occs):
            minors = u[..., list(col_occ)][..., rows, :]  # (..., m, k, k)
            out[..., bits, col_bits] = np.linalg.det(minors)
    return out


@cache
def _block_table(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the n-particle block of a Fock unitary, n >= 1, read-only:
    the lists holding n particles, in increasing order; each one's occupied
    orbitals, ascending, (C(d, n), n); and the index among the (n-1)-particle
    lists of the list without each of them, (C(d, n), n).  The first columns
    are each list's lowest orbital and the list without it."""
    lists = _number_sector(d, n)
    occupied = np.nonzero(lists[:, None] >> np.arange(d) & 1)[1].reshape(-1, n)
    index = np.zeros(1 << d, dtype=np.int64)
    fewer = _number_sector(d, n - 1)
    index[fewer] = np.arange(fewer.size)
    table = (lists, occupied, index[lists[:, None] ^ 1 << occupied])
    for part in table:
        part.flags.writeable = False
    return table


def _fock_blocks(u: np.ndarray, d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The particle-number blocks (lists_n, F_n), n = 0..d, of the Fock unitary
    of a d x d unitary `u` already validated: F_n[i, j] is the minor
    det u[occupied(lists_n[i]), occupied(lists_n[j])], as in
    ``basis_change_unitary``, whose other entries all vanish.

    Each minor is expanded along the lowest orbital of its row list into
    minors of F_(n-1), sum_t (-1)^t u[lowest, t-th column orbital] times the
    minor without both, so the blocks cost O(sum_n n C(d, n)^2) and no
    determinant.
    """
    blocks = [(_number_sector(d, 0), np.ones((1, 1), dtype=complex))]
    for n in range(1, d + 1):
        lists, occupied, without = _block_table(d, n)
        lowest = u[occupied[:, 0]]  # (C(d, n), d): the row of each list's lowest orbital
        below = blocks[-1][1][without[:, 0]]  # F_(n-1) on the rows without it
        f = lowest[:, occupied[:, 0]] * below[:, without[:, 0]]
        for t in range(1, n):
            term = lowest[:, occupied[:, t]] * below[:, without[:, t]]
            f += term if t % 2 == 0 else -term
        blocks.append((lists, f))
    return blocks


def _givens_amplitudes(u: np.ndarray, vectors: np.ndarray, d: int) -> np.ndarray:
    """``basis_change_unitary(u, space).conj().T @ vectors``, without the Fock
    unitary, for a `u` already validated as a d x d unitary.

    `vectors` is one amplitude vector (2^d,) or a stack of them as columns
    (2^d, k).  Givens rotations h of neighbouring rows reduce u to a diagonal
    of phases, h_m ... h_1 u = D, in d(d-1)/2 steps, so the Fock image of
    u^dagger is that of D^dagger h_m ... h_1.  The image of a rotation of
    orbitals (k, k+1) mixes each list holding one particle in k with the list
    that moves it to k+1, with no sign since no orbital lies between them, and
    multiplies lists holding both by det h = 1; each step costs O(2^d).  The
    image of D^dagger multiplies each list by its occupied phases' conjugates.
    """
    r = np.array(u, dtype=complex)
    out = np.array(vectors, dtype=complex)
    for col in range(d - 1):
        for row in range(d - 1, col, -1):
            x, y = r[row - 1, col], r[row, col]
            if y == 0:
                continue
            norm = np.hypot(abs(x), abs(y))
            h00, h01, h10, h11 = x.conjugate() / norm, y.conjugate() / norm, -y / norm, x / norm
            r[row - 1], r[row] = h00 * r[row - 1] + h01 * r[row], h10 * r[row - 1] + h11 * r[row]
            # axes (higher orbitals, orbital row, orbital row - 1, lower orbitals, columns)
            pair = out.reshape(-1, 2, 2, 1 << (row - 1), *out.shape[1:])
            a, b = pair[:, 0, 1], pair[:, 1, 0]
            pair[:, 0, 1], pair[:, 1, 0] = h00 * a + h01 * b, h10 * a + h11 * b
    for k, phase in enumerate(r.diagonal().conj()):
        out.reshape(-1, 2, 1 << k, *out.shape[1:])[:, 1] *= phase
    return out


def _keep_mask(keep, d: int) -> int:
    """Bitmask of a kept orbital subset: distinct orbital indices in 1..d, at least one."""
    mask = 0
    for i in keep:
        i = integer(i, "orbital index")
        if not 1 <= i <= d:
            raise ValidationError(f"orbital index {i} out of range 1..{d}")
        if (mask >> (i - 1)) & 1:
            raise ValidationError(f"kept orbital subset has duplicates: orbital {i}")
        mask |= 1 << (i - 1)
    if not mask:
        raise ValidationError("kept orbital subset must be nonempty")
    return mask


def split_table(keep, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor every occupation list n = 0..2^d-1 across the orbital subset `keep`.

    Returns read-only arrays (n1, n2, sign) indexed by n: n1[n] is the
    occupation list on the kept orbitals (compressed, preserving their
    relative order), n2[n] the one on the complement, and sign[n] the parity
    of moving the kept creators of n in front of its complement creators.
    """
    return _split_table(_keep_mask(keep, d), d)


@lru_cache(maxsize=64)  # one table per (keep set, d); bounded, as keep sets are many
def _split_table(mask: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = np.arange(1 << d, dtype=np.int64)
    n1, n2, crossings = np.zeros_like(n), np.zeros_like(n), np.zeros_like(n)
    kept = 0
    for i in range(d):
        occupied = n >> i & 1
        if mask >> i & 1:
            # a kept creator passes every occupied complement creator below it
            crossings += occupied * np.bitwise_count(n2)
            n1 |= occupied << kept
            kept += 1
        else:
            n2 |= occupied << (i - kept)
    table = (n1, n2, 1 - 2 * (crossings % 2))
    for part in table:
        part.flags.writeable = False
    return table
