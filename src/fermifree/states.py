"""Constructors for density operators on finite fermion Fock spaces."""

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from .config import KERNEL_TOL, TOL_HERM, TOL_NORM, TOL_PSD, TOL_TRACE, TOL_UNITARY
from .errors import ValidationError, array, instance, integer, real
from .fock import OrbitalSpace, _givens_amplitudes, _number_sector, _require_unitary, ladder_table


def spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (columns) of the
    Hermitian part of a square matrix, as read-only arrays: one dense eigensolve."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NaN, which callers reject
        w, v = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    w.flags.writeable = v.flags.writeable = False
    return w, v


def _live_pairs(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues w above KERNEL_TOL and their eigenvectors, columns of v,
    read-only; w and v themselves when every eigenvalue is live."""
    live = w > KERNEL_TOL
    if not live.all():
        w, v = w[live], v[:, live]
    w.flags.writeable = v.flags.writeable = False
    return w, v


@dataclass(frozen=True)
class DensityOperator:
    """A Hermitian, positive-semidefinite, unit-trace matrix on a 2^d Fock space,
    rejected rather than renormalized outside the tolerances, since the entropy
    functionals downstream amplify normalization errors."""

    space: OrbitalSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = array(self.matrix, "density matrix", (instance(self.space, OrbitalSpace).dim,) * 2)
        object.__setattr__(self, "matrix", m)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: inf, rejected below
            herm = np.abs(m - m.conj().T).max()
            tr = m.trace()
        if herm > TOL_HERM:
            raise ValidationError(f"matrix is not Hermitian: deviation {herm:.3e}")
        if not abs(tr - 1.0) <= TOL_TRACE:
            raise ValidationError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lo = self.eigenvalues.min()
        if lo < -TOL_PSD:
            raise ValidationError(f"matrix is not positive-semidefinite: eigenvalue {lo:.3e}")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All 2^d eigenvalues of the Hermitian part of `matrix`, read-only, in
        no set order: ascending from one ``eigvalsh``, or the ones the
        constructor supplied followed by zeros for the rest of the space."""
        m = self.matrix
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: NaN, rejected
            h = m + m.conj().T
            h /= 2
            w = np.linalg.eigvalsh(h)
        w.flags.writeable = False
        return w

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues above KERNEL_TOL and their orthonormal eigenvectors,
        (2^d, k): the live part of ``spectrum(matrix)`` on first use, unless the
        constructor supplied them."""
        return _live_pairs(*spectrum(self.matrix))

    sector = ()  # the full ladder tables: finding a matrix's sector blocks costs O(4^d)

    def entries(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """rho[src, dst] for index arrays of one shape."""
        return self.matrix[src, dst]

    def partial_trace(self, joined: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """sum_b diag(s_b) rho[j_b, j_b] diag(s_b) over the rows j_b, s_b of `joined`, `signs`."""
        terms = self.entries(joined[:, :, None], joined[:, None, :])
        terms *= signs[:, :, None]
        terms *= signs[:, None, :]
        return terms.sum(axis=0)

    def to_density(self) -> "DensityOperator":
        return self


def _with_eigenpairs(
    space: OrbitalSpace, matrix: np.ndarray, w: np.ndarray, v: np.ndarray
) -> DensityOperator:
    """A density operator whose constructor knows its spectrum: `matrix` is
    v @ diag(w) @ v^dagger with w >= 0 and orthonormal columns v, zero on the
    rest of the space.  The pairs above KERNEL_TOL are cached as its
    eigenpairs, so no eigensolve runs; the other checks still run on the
    matrix, and the PSD check reads w.
    """
    rho = object.__new__(DensityOperator)
    object.__setattr__(rho, "space", space)
    object.__setattr__(rho, "matrix", matrix)
    full = np.concatenate([w, np.zeros(space.dim - w.size)])
    full.flags.writeable = False
    rho.__dict__["eigenvalues"], rho.__dict__["eigenpairs"] = full, _live_pairs(w, v)
    rho.__post_init__()
    return rho


@dataclass(frozen=True)
class FactoredState:
    """rho = V diag(p) V^dagger = X X^dagger, X = V diag(sqrt p) its `columns`:
    k unit vectors on the Fock space, the columns of `vectors` (2^d, k), mixed
    with probabilities `weights` p (k,).  No 2^d x 2^d matrix is formed."""

    space: OrbitalSpace
    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = array(self.vectors, "amplitude vectors", (instance(self.space, OrbitalSpace).dim, None))
        p = array(self.weights, "weights", v.shape[1:], float)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: inf, rejected
            err = np.abs(np.linalg.norm(v, axis=0) - 1.0).max(initial=0.0)
        if not err <= TOL_NORM:
            raise ValidationError(f"amplitude norm deviates from 1 by {err:.3e}")
        if not (p.size and p.min() >= 0.0 and abs(p.sum() - 1.0) <= TOL_TRACE):
            raise ValidationError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "weights", p)

    @property
    def columns(self) -> np.ndarray:
        return self.vectors * np.sqrt(self.weights)

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues above KERNEL_TOL and their eigenvectors: lambda_i and
        X u_i / sqrt(lambda_i) for the eigenpairs of the k x k Gram matrix X^dagger X."""
        x = self.columns
        w, u = _live_pairs(*spectrum(x.conj().T @ x))
        return w, x @ u / np.sqrt(w)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigenpairs[0]

    @cached_property
    def sector(self) -> tuple[int, ...]:
        """(n,) when every nonzero amplitude holds n particles, else ()."""
        counts = np.bitwise_count(np.flatnonzero(self.vectors.any(axis=1)))
        return (int(counts[0]),) if counts.size and counts.min() == counts.max() else ()

    def entries(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        x = self.columns
        return (x[src] * x[dst].conj()).sum(axis=-1)

    def partial_trace(self, joined: np.ndarray, signs: np.ndarray) -> np.ndarray:
        m = (self.columns[joined] * signs[:, :, None]).swapaxes(0, 1)
        m = m.reshape(m.shape[0], -1)  # M[a, (b, c)], so that M M^dagger sums the blocks
        return m @ m.conj().T

    def to_density(self) -> DensityOperator:
        """The dense matrix, carrying the Gram eigenpairs: no 2^d x 2^d eigensolve."""
        terms = (p * np.outer(v, v.conj()) for p, v in zip(self.weights, self.vectors.T))
        return _with_eigenpairs(self.space, sum(terms), *self.eigenpairs)


class PureState(FactoredState):
    """A unit vector on the Fock space, indexed by occupation lists: the
    factored state with k = 1 and p = [1], its own column and eigenvector."""

    def __init__(self, space: OrbitalSpace, amplitudes):
        a = array(amplitudes, "amplitude vector", (instance(space, OrbitalSpace).dim,))
        super().__init__(space, a[:, None], np.ones(1))

    @property
    def amplitudes(self) -> np.ndarray:
        return self.vectors[:, 0]

    @property
    def columns(self) -> np.ndarray:
        return self.vectors

    @property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.weights, self.vectors


pure_density = PureState.to_density  # pure_density(psi) is psi's projector


@dataclass(frozen=True)
class FreeStateSpec:
    """A free (gauge-invariant quasi-free) state: natural orbitals (columns of
    a d x d unitary within TOL_UNITARY) plus occupation probabilities.

    It represents U-hat diag(Bernoulli weights) U-hat^dagger, U-hat the Fock
    unitary of `orbitals`.  Both are stored as read-only copies, so a spec is
    checked once; ``pdm.natural_spectrum`` gives the spec with a given 1-pdm.
    """

    space: OrbitalSpace
    occupations: np.ndarray
    orbitals: np.ndarray

    def __post_init__(self):
        p = _probabilities(self.occupations, (instance(self.space, OrbitalSpace).d,))
        orbitals = np.array(_require_unitary(self.orbitals, self.space.d))
        for name, part in (("occupations", p), ("orbitals", orbitals)):
            part.flags.writeable = False
            object.__setattr__(self, name, part)

    def to_density(self) -> DensityOperator:
        """The density operator, carrying its eigenpairs (Bernoulli weights, Fock
        unitary F).  F(u) = F(u^dagger)^dagger, so F is one Givens pass over the identity."""
        fock_u = _givens_amplitudes(self.orbitals.conj().T, np.eye(self.space.dim), self.space.d)
        w = bernoulli_weights(self.occupations)
        if not w.all():  # boundary occupations: the matrix sums the nonzero weights only
            fock_u, w = fock_u[:, w > 0], w[w > 0]
        return _with_eigenpairs(self.space, (fock_u * w) @ fock_u.conj().T, w, fock_u)


State = DensityOperator | FactoredState  # what the functionals of a single state accept


def slater_amplitudes(orbitals: np.ndarray, space: OrbitalSpace) -> PureState:
    """Amplitudes of the Slater determinant built from n orthonormal orbitals.

    `orbitals` is an n x d matrix whose rows are the occupied 1-particle
    vectors; n = 0 yields the vacuum.  The amplitude of an n-particle
    occupation list is the n x n minor of the rows on its occupied orbitals
    (in increasing order).  The rows need only be orthonormal within
    TOL_UNITARY; the squared norm, their Gram determinant, must then lie within
    TOL_TRACE of 1, and the vector is normalized.
    """
    d = instance(space, OrbitalSpace).d
    rows = array(orbitals, "orbitals", (None, d))
    n = rows.shape[0]
    if n > d:
        raise ValidationError(f"cannot occupy {n} orbitals in a {d}-orbital space")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NaN, rejected below
        gram_err = np.abs(rows.conj() @ rows.T - np.eye(n)).max(initial=0.0)
    if not gram_err <= TOL_UNITARY:
        raise ValidationError(f"rows are not orthonormal: deviation {gram_err:.3e}")
    occs = np.array(list(combinations(range(d), n)), dtype=np.int64)  # (C(d, n), n)
    psi = np.zeros(space.dim, dtype=complex)
    psi[(1 << occs).sum(axis=1)] = np.linalg.det(rows.T[occs])
    norm2 = np.vdot(psi, psi).real
    if not abs(norm2 - 1.0) <= TOL_TRACE:
        raise ValidationError(f"trace deviates from 1 by {abs(norm2 - 1.0):.3e}")
    return PureState(space, psi / np.sqrt(norm2))


@cache
def _occupation_table(d: int) -> np.ndarray:
    """n(i) of every occupation list, shape (d, 2^d), highest orbital first; read-only."""
    table = (np.arange(1 << d) >> np.arange(d - 1, -1, -1)[:, None] & 1).astype(bool)
    table.flags.writeable = False
    return table


def bernoulli_weights(p: np.ndarray) -> np.ndarray:
    """Diagonal Fock weights prod_i p_i^n(i) (1-p_i)^(1-n(i)), bitmask order.

    A stack of occupation vectors, shape (..., d), gives a stack of weight
    vectors, shape (..., 2^d).  The product runs from the highest orbital down.
    """
    p = np.asarray(p, dtype=float)[..., ::-1, None]
    return np.where(_occupation_table(p.shape[-2]), p, 1.0 - p).prod(axis=-2)


def gibbs_free_density(p, space: OrbitalSpace) -> DensityOperator:
    """Diagonal free state with occupation probabilities strictly inside (0, 1).

    Boundary occupations belong to ``free.free_from_pdm``, which handles them
    structurally instead of as Gibbs limits.
    """
    p = array(p, "occupation probabilities", (instance(space, OrbitalSpace).d,), float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValidationError(
            "occupation probabilities must lie strictly inside (0, 1);"
            " use free_from_pdm for boundary values"
        )
    w = bernoulli_weights(p)
    identity = np.eye(space.dim, dtype=complex)
    return _with_eigenpairs(space, np.diag(w).astype(complex), w, identity)


def mixture(components, labels=None) -> State:
    """Convex combination of states on one shared space, labels included;
    `labels`, when given, name the result's orbitals instead.  Pure and
    factored components give a factored state, their columns side by side."""
    try:
        components = [(w, rho) for w, rho in components]
    except (TypeError, ValueError) as exc:  # not iterable, or not pairs
        raise ValidationError("mixture components must be (weight, state) pairs") from exc
    if not components:
        raise ValidationError("mixture needs at least one component")
    weights = array([w for w, _ in components], "mixture weights", (len(components),), float)
    if np.any(weights < 0):
        raise ValidationError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > TOL_TRACE:
        raise ValidationError(
            f"mixture weights sum deviates from 1 by {abs(weights.sum() - 1.0):.3e}"
        )
    states = [instance(rho, State) for _, rho in components]
    space = states[0].space
    if any(rho.space != space for rho in states):
        raise ValidationError("mixture components live on different spaces")
    if labels is not None:
        space = OrbitalSpace(space.d, labels)
    if all(isinstance(rho, FactoredState) for rho in states):
        p = np.hstack([w * rho.weights for w, rho in zip(weights, states)])
        return FactoredState(space, np.hstack([rho.vectors for rho in states]), p)
    # the components' matrices unvalidated, X X^dagger for a factored one: one check of the sum
    xs = [None if isinstance(rho, DensityOperator) else rho.columns for rho in states]
    terms = (rho.matrix if x is None else x @ x.conj().T for rho, x in zip(states, xs))
    return DensityOperator(space, sum(w * m for w, m in zip(weights, terms)))


def _probabilities(p, shape=None) -> np.ndarray:
    """A float copy of the occupation probabilities `p`, each in [0, 1], of
    `shape` when given."""
    p = np.array(array(p, "occupation probabilities", shape, float))
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValidationError("occupation probabilities must lie in [0, 1]")
    return p


@cache
def _hubbard_sector(sites: int, n_up: int, n_down: int) -> tuple[np.ndarray, ...]:
    """Bookkeeping of the fixed-(N_up, N_down) sector of an open Hubbard chain,
    read-only and shared: (sector, rows, cols, signs, doubly_occupied).

    `sector` lists the sector's occupation lists in increasing order; the
    hopping entries of the sector block are block[rows, cols] = signs, read
    from the monomials of ``ladder_table("+-", 2 * sites, N_up + N_down)`` with
    |i - j| = 2 whose source holds N_up up-spins.
    """
    d, n = 2 * sites, n_up + n_down
    up_mask = sum(1 << (2 * s) for s in range(sites))
    lists = _number_sector(d, n)
    sector = lists[np.bitwise_count(lists & up_mask) == n_up]
    mono, src, dst, sign = ladder_table("+-", d, n)
    i, j = np.divmod(mono, d)
    hops = (np.abs(i - j) == 2) & (np.bitwise_count(src & up_mask) == n_up)
    rows, cols = np.searchsorted(sector, dst[hops]), np.searchsorted(sector, src[hops])
    doubly_occupied = np.bitwise_count(sector & (sector >> 1) & up_mask)
    table = (sector, rows, cols, sign[hops], doubly_occupied)
    for part in table:
        part.flags.writeable = False
    return table


def hubbard_ground_amplitudes(
    sites: int, t: float, u_int: float, n_up: int, n_down: int
) -> PureState:
    """Ground state of a small open Hubbard chain in a fixed-(N_up, N_down) sector.

    Spin-orbitals are ordered (1up, 1dn, 2up, 2dn, ...).  The sector block of
    H = -t sum (a*_i a_j + h.c.) + U sum n_up n_dn is U times the count of
    doubly occupied sites on the diagonal plus -t times the signed hopping
    entries of ``_hubbard_sector``: a real symmetric matrix, solved as one.
    Degeneracies are resolved deterministically by its eigensolve's first column.
    """
    sites = integer(sites, "site count")
    n_up, n_down = integer(n_up, "N_up"), integer(n_down, "N_down")
    t, u_int = real(t, "hopping t"), real(u_int, "interaction U")
    if sites < 1 or sites > 5:
        raise ValidationError(f"site count must be within 1..5, got {sites}")
    if not (0 <= n_up <= sites and 0 <= n_down <= sites):
        raise ValidationError(
            f"infeasible particle numbers N_up={n_up}, N_down={n_down} for {sites} sites"
        )
    space = OrbitalSpace(2 * sites)
    sector, rows, cols, signs, doubly_occupied = _hubbard_sector(sites, n_up, n_down)
    block = np.diag(u_int * doubly_occupied)
    block[rows, cols] = -t * signs
    _, vecs = np.linalg.eigh(block)
    psi = np.zeros(space.dim, dtype=complex)
    psi[sector] = vecs[:, 0]
    return PureState(space, psi)


def hubbard_ground_state(
    sites: int, t: float, u_int: float, n_up: int, n_down: int
) -> DensityOperator:
    """Pure density of ``hubbard_ground_amplitudes(sites, t, u_int, n_up, n_down)``."""
    return hubbard_ground_amplitudes(sites, t, u_int, n_up, n_down).to_density()
