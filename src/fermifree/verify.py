"""Randomized and deterministic verification of the structural theorems.

The searches here corroborate that the free reference state minimizes the
relative entropy (and that it fails to minimize the Renyi divergences away
from alpha = 1) by brute force over sampled free states; the property suite
re-runs every module invariant on randomized instances.  The product states,
distances, cross entropies and predicates that only these checks need live
here, not in the library that computes.
"""

import functools
import os
import time
from dataclasses import dataclass

import numpy as np

from . import _reference, config, io
from .config import KERNEL_TOL
from .correlation import (
    binary_entropy,
    correlation_renyi,
    correlation_sandwiched,
    nonfreeness,
    restrict,
)
from .entropy import (
    Reference,
    _check_pair,
    _divergences,
    _joint,
    relative_entropy,
    renyi_divergence,
    sandwiched_renyi,
    von_neumann,
)
from .errors import ValidationError, instance, integer, real
from .fock import (
    OrbitalSpace,
    _require_unitary,
    basis_change_unitary,
    ladder_matrices,
    split_table,
)
from .free import free_from_pdm, purify_free, wick_check
from .pdm import OnePdm, natural_spectrum, one_pdm
from .states import (
    DensityOperator,
    FreeStateSpec,
    PureState,
    State,
    _probabilities,
    bernoulli_weights,
    gibbs_free_density,
    mixture,
    pure_density,
    slater_amplitudes,
    spectrum,
)

OCCUPATION_CLAMP = 1e-3  # sampled occupations stay inside [eps, 1-eps]
STEP_SCALE = 0.3  # first scale of the searches' random refinement steps
GRID_POINTS = 200
GRID_RANGE = (0.01, 0.99)
GRID_AGREEMENT = 1e-10  # stacked score vs per-candidate divergence of its winner
STACK_ENTRIES = 2**16  # Fock-unitary entries per scored block: 4^d of each candidate
SUITE_DMAX, SUITE_TRIALS = 4, 50  # the property suite's defaults, here and in the CLI
SEARCH_SAMPLES = 500  # random free states each search scores
REFINE_STEPS = 80  # rounds of each search's refinement walk
IMPROVEMENT_MARGIN = 1e-4  # how far a Renyi search must undercut the reference


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    passed: bool
    worst: float
    threshold: float  # the claim passes when `worst` is at most this
    trials: int  # instances the claim ran: the requested count or the claim's cap
    elapsed_s: float
    witness: dict | None = None


# ---------------------------------------------------------------------------
# samplers


def _gaussian(d: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def _haar(g: np.ndarray) -> np.ndarray:
    """Phase-fixed QR of complex Gaussian matrices (..., d, d): Haar unitaries."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def sample_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary via phase-fixed QR of a Gaussian matrix."""
    return _haar(_gaussian(d, rng))


def sample_density(
    space: OrbitalSpace, rng: np.random.Generator, rank: int | None = None
) -> DensityOperator:
    """Random full-rank (or fixed-rank) mixed state from a Wishart factor."""
    dim = space.dim
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityOperator(space, m / m.trace())


def sample_pure(space: OrbitalSpace, rng: np.random.Generator) -> DensityOperator:
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return pure_density(PureState(space, v / np.linalg.norm(v)))


def sample_even_density(
    space: OrbitalSpace, rng: np.random.Generator
) -> DensityOperator:
    """Random mixed state commuting with particle-number parity.

    Tensor products are statistically independent across their factors only
    when the factors carry no even-odd coherences, so parity-symmetric states
    are the ones the additivity statements quantify over.
    """
    rho = sample_density(space, rng)
    parity = np.bitwise_count(np.arange(space.dim)) % 2
    mask = parity[:, None] == parity[None, :]
    return DensityOperator(space, np.where(mask, rho.matrix, 0.0))


def sample_free_specs(
    space: OrbitalSpace, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n random free states as stacks, occupations (n, d) in [eps, 1-eps] with
    eps = OCCUPATION_CLAMP and Haar natural orbitals (n, d, d), checked as
    `FreeStateSpec` checks one; drawn as, and leaving `rng` as, n calls of
    `sample_free_spec`."""
    d = space.d
    p, g = np.empty((n, d)), np.empty((n, d, d), dtype=complex)
    for k in range(n):
        p[k], g[k] = rng.uniform(OCCUPATION_CLAMP, 1.0 - OCCUPATION_CLAMP, d), _gaussian(d, rng)
    return _probabilities(p), _require_unitary(_haar(g), d, stacked=True)


def sample_free_spec(space: OrbitalSpace, rng: np.random.Generator) -> FreeStateSpec:
    """Random free state: Haar natural orbitals, occupations in [eps, 1-eps]
    with eps = OCCUPATION_CLAMP."""
    p, u = sample_free_specs(space, rng, 1)
    return FreeStateSpec(space, p[0], u[0])


def remark_state() -> DensityOperator:
    """The d=2 state supported on the 1-particle sector with weights (2/3, 1/3)."""
    return DensityOperator(
        OrbitalSpace(2), np.diag([0.0, 2 / 3, 1 / 3, 0.0]).astype(complex)
    )


def pair_state() -> DensityOperator:
    """The d=4 pure state (|1100> + |0011>)/sqrt(2)."""
    space = OrbitalSpace(4)
    psi = np.zeros(space.dim, dtype=complex)
    psi[0b0011] = psi[0b1100] = 1 / np.sqrt(2)
    return pure_density(PureState(space, psi))


def slater_density(orbitals: np.ndarray, space: OrbitalSpace) -> DensityOperator:
    """Pure density of ``slater_amplitudes(orbitals, space)``."""
    return pure_density(slater_amplitudes(orbitals, space))


# ---------------------------------------------------------------------------
# references the claims check against


def cross_entropy(a: State, b: Reference) -> float:
    """-Tr(A log B); +inf when the kernel of B is not contained in that of A.
    A density operator B is read from ``_reference.joint``, a fresh eigh of
    both matrices, a spec from the Givens rotation of A's eigenvectors."""
    _check_pair(a, b)
    p, q, c = (_joint if isinstance(b, FreeStateSpec) else _reference.joint)(a, b)
    mass, live = p @ np.abs(c) ** 2, q > KERNEL_TOL
    crossing = np.where(live, 0.0, mass).sum() > KERNEL_TOL
    return float("inf") if crossing else float(-np.log(np.where(live, q, 1.0)) @ mass)


def tensor_product(rho1: State, rho2: State) -> DensityOperator:
    """Product state on the concatenated orbital set, of the factors' densities.

    The first factor's orbitals come first, so the occupation-list
    correspondence |n> <-> |n1> x |n2> carries no fermionic sign.  The
    factors are statistically independent subsystems of the result when they
    commute with particle-number parity; factors with even-odd coherences
    couple through the fermionic reordering signs.
    """
    d1, d2 = instance(rho1, State).space.d, instance(rho2, State).space.d
    l1, l2 = rho1.space.labels, rho2.space.labels
    labels = None
    if l1 is not None and l2 is not None:
        if set(l1) & set(l2):
            raise ValidationError("tensor factors share orbital labels")
        labels = l1 + l2
    space = OrbitalSpace(d1 + d2, labels)
    # bit i-1 of the joint index holds orbital i, so the first factor varies fastest
    return DensityOperator(space, np.kron(rho2.to_density().matrix, rho1.to_density().matrix))


def trace_distance(a: State, b: State) -> float:
    """Half the trace norm of the difference of two states' densities."""
    if instance(a, State).space.d != instance(b, State).space.d:
        raise ValidationError("trace distance requires a shared space")
    return 0.5 * float(np.abs(spectrum(a.to_density().matrix - b.to_density().matrix)[0]).sum())


def kernel_inclusion_1pdm(
    gamma_free: OnePdm, gamma_state: OnePdm, tol: float = KERNEL_TOL
) -> tuple[bool, bool]:
    """Subspace predicates (ker g_F subset of ker g_S, ker(I-g_F) subset of ker(I-g_S)).

    Tested eigenvector-wise: every eigenvector of the first 1-pdm with
    eigenvalue below `tol` (resp. above 1 - tol) must be annihilated by the
    second 1-pdm (resp. by I minus it) within `tol`, a finite real >= 0.
    """
    real(tol, "tol", 0)
    if instance(gamma_free, OnePdm).space.d != instance(gamma_state, OnePdm).space.d:
        raise ValidationError("kernel predicates require a shared space")
    w, v = gamma_free.eigenpairs
    g2 = gamma_state.gamma
    rest = np.eye(gamma_state.space.d) - g2
    ker_ok = all(np.linalg.norm(g2 @ v[:, k]) < tol for k in np.flatnonzero(w < tol))
    coker_ok = all(np.linalg.norm(rest @ v[:, k]) < tol for k in np.flatnonzero(w > 1.0 - tol))
    return bool(ker_ok), bool(coker_ok)


# ---------------------------------------------------------------------------
# minimum-property searches


def _rotate_columns(u, i, j, scale, rng):
    """Givens rotation of columns i, j by a random angle of scale `scale` and phase."""
    theta, phi = scale * rng.standard_normal(), rng.uniform(0.0, 2 * np.pi)
    out = u.copy()
    ci, cj = u[:, i].copy(), u[:, j].copy()
    out[:, i] = np.cos(theta) * ci + np.exp(1j * phi) * np.sin(theta) * cj
    out[:, j] = -np.exp(-1j * phi) * np.sin(theta) * ci + np.cos(theta) * cj
    return out


def min_relent_search(rho: State, seed: int = 0) -> tuple[FreeStateSpec, float]:
    """Brute-force minimization of S(rho || Gamma) over sampled free states.

    SEARCH_SAMPLES random (orbitals, occupations) samples drawn from `seed`,
    scored as stacks, are followed by REFINE_STEPS rounds of greedy local
    refinement: exact coordinate minimization over the occupations (the
    objective is separable in them at fixed orbitals) interleaved with random
    two-column rotations of shrinking scale, every candidate scored against
    its spec.  Returns (spec of the best free state found, its relative
    entropy); the value can never fall below the nonfreeness of `rho` beyond
    numerical noise.
    """
    integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    space = instance(rho, State).space
    d = space.d
    gamma = one_pdm(rho).gamma

    best_val, best_spec = _stacked_minimum(rho, 1.0, *sample_free_specs(space, rng, SEARCH_SAMPLES))
    scale = STEP_SCALE
    for _ in range(REFINE_STEPS):
        u = best_spec.orbitals
        p_opt = np.clip(np.real(np.diag(u.conj().T @ gamma @ u)), 0.0, 1.0)
        cand = FreeStateSpec(space, p_opt, u)
        val = relative_entropy(rho, cand)
        if val < best_val:
            best_val, best_spec = val, cand
        for _ in range(d if d > 1 else 0):  # one orbital: no pair to rotate
            i, j = rng.choice(d, size=2, replace=False)
            u2 = _rotate_columns(best_spec.orbitals, int(i), int(j), scale, rng)
            p2 = np.clip(np.real(np.diag(u2.conj().T @ gamma @ u2)), 0.0, 1.0)
            cand = FreeStateSpec(space, p2, u2)
            val = relative_entropy(rho, cand)
            if val < best_val:
                best_val, best_spec = val, cand
        scale *= 0.93
    return best_spec, float(best_val)


def _stacked_minimum(rho: DensityOperator, alpha: float, p, u, sandwiched: bool = False):
    """The least divergence from `rho` over the free states with occupations p
    (n, d) and orbitals u (n, d, d), or one (d, d) they share, and the first
    spec to reach it.  Blocks of STACK_ENTRIES // 4^d states are scored as
    stacks by the core of the divergences, with c = V^dagger F for the live
    eigenvectors V of `rho` and each Fock unitary F; the value is the winner's
    per-candidate divergence, which must agree with its stacked score within
    GRID_AGREEMENT."""
    live, vectors = rho.eigenpairs
    best, size = None, max(1, STACK_ENTRIES // rho.space.dim**2)
    for start in range(0, len(p), size):
        block = slice(start, start + size)
        fock_u = basis_change_unitary(u if u.ndim == 2 else u[block], rho.space)
        c = vectors.conj().T @ fock_u
        scores = np.maximum(
            _divergences(alpha, live, bernoulli_weights(p[block]), c, sandwiched), 0.0
        )
        k = int(np.argmin(scores))
        if best is None or scores[k] < best[0]:
            best = scores[k], start + k
    score, k = best
    spec = FreeStateSpec(rho.space, p[k], u if u.ndim == 2 else u[k])
    value = (sandwiched_renyi if sandwiched else renyi_divergence)(alpha, rho, spec)
    if not (value == score or abs(value - score) <= GRID_AGREEMENT):
        raise RuntimeError(
            f"stacked score {score!r} disagrees with the divergence {value!r}"
            f" of its winner, occupations {spec.occupations}"
        )
    return value, spec


def renyi_min_search(
    rho: State, alpha: float, seed: int = 0, sandwiched: bool = False
) -> tuple[FreeStateSpec, float, bool]:
    """Search for free states beating the free reference under a Renyi divergence.

    Returns (spec of the best free state found, its divergence, improved), where
    `improved` records whether the search undercut the divergence at the free
    reference by more than IMPROVEMENT_MARGIN.  On two orbitals a deterministic
    occupation grid over diagonal free states (in the natural-orbital basis)
    runs before random sampling, which reproducibly finds the improvement for
    the 1-particle mixed state at alpha != 1.  SEARCH_SAMPLES random free
    states drawn from `seed` follow; the grid and the samples are each scored
    as stacks by `_stacked_minimum`.  When a sample beats the reference and
    the grid, a walk of REFINE_STEPS rounds of d random steps in occupations
    and orbitals refines it.  The baseline and every refined candidate are
    scored against their specs.
    """
    integer(seed, "seed", 0)
    divergence = sandwiched_renyi if sandwiched else renyi_divergence
    space = instance(rho, State).space
    d = space.d
    reference = natural_spectrum(one_pdm(rho))
    baseline = divergence(alpha, rho, reference)

    best_val, best_spec = baseline, reference
    if d == 2:
        grid = np.linspace(*GRID_RANGE, GRID_POINTS)
        pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        val, cand = _stacked_minimum(rho, alpha, pairs, reference.orbitals, sandwiched)
        if val < best_val:
            best_val, best_spec = val, cand

    rng = np.random.default_rng(seed)
    unsampled = best_spec
    samples = sample_free_specs(space, rng, SEARCH_SAMPLES)
    val, spec = _stacked_minimum(rho, alpha, *samples, sandwiched)
    if val < best_val:
        best_val, best_spec = val, spec
    scale = STEP_SCALE
    # refinement walks only from a random sample that beat the reference and grid
    for _ in range(REFINE_STEPS if best_spec is not unsampled else 0):
        for _ in range(d):
            p2 = np.clip(
                best_spec.occupations + scale * rng.standard_normal(d),
                OCCUPATION_CLAMP,
                1.0 - OCCUPATION_CLAMP,
            )
            u2 = best_spec.orbitals  # one orbital: a rotation is only a phase
            if d > 1:
                i, j = rng.choice(d, size=2, replace=False)
                u2 = _rotate_columns(u2, int(i), int(j), scale, rng)
            cand = FreeStateSpec(space, p2, u2)
            val = divergence(alpha, rho, cand)
            if val < best_val:
                best_val, best_spec = val, cand
        scale *= 0.9
    improved = bool(best_val < baseline - IMPROVEMENT_MARGIN)
    return best_spec, float(best_val), improved


# ---------------------------------------------------------------------------
# property suite


def _sample_d(rng, d_cap, lo=2):
    return int(rng.integers(lo, max(d_cap, lo) + 1))


def _sample_keep(rng, d, k):
    return sorted(rng.choice(d, size=k, replace=False) + 1)


# Each claim's trial draws one random instance with `rng` (orbital counts up to
# `d_cap`) and returns how far that instance is from satisfying the claim, or
# (that value, the states a failure's witness should show).


def _claim_car_relations(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 5)))
    creators, annihilators = ladder_matrices(space)
    eye = np.eye(space.dim)
    worst = 0.0
    for i in range(space.d):
        for j in range(space.d):
            anti = annihilators[i] @ creators[j] + creators[j] @ annihilators[i]
            pair = annihilators[i] @ annihilators[j] + annihilators[j] @ annihilators[i]
            target = eye if i == j else 0.0
            worst = max(worst, np.abs(anti - target).max(), np.abs(pair).max())
    return worst


def _claim_unitary_representation(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4)))
    u1 = sample_unitary(space.d, rng)
    u2 = sample_unitary(space.d, rng)
    f1 = basis_change_unitary(u1, space)
    f2 = basis_change_unitary(u2, space)
    f12 = basis_change_unitary(u1 @ u2, space)
    return max(
        np.abs(f12 - f1 @ f2).max(),
        np.abs(basis_change_unitary(u1.conj().T, space) - f1.conj().T).max(),
    )


def _claim_ladder_covariance(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4)))
    u = sample_unitary(space.d, rng)
    fock_u = basis_change_unitary(u, space)
    creators, _ = ladder_matrices(space)
    return max(
        np.abs(
            fock_u @ creators[i] @ fock_u.conj().T
            - sum(u[j, i] * creators[j] for j in range(space.d))
        ).max()
        for i in range(space.d)
    )


def _claim_split_roundtrip(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 5)))
    keep = _sample_keep(rng, space.d, int(rng.integers(1, space.d + 1)))
    rest = [i for i in range(1, space.d + 1) if i not in keep]
    n1, n2, sign = split_table(keep, space.d)
    creators, _ = ladder_matrices(space)
    # column n: the kept creators of n, then its complement creators, both in
    # increasing order, on the vacuum; the rightmost creator acts first
    n = np.arange(space.dim)
    columns = np.zeros((space.dim, space.dim), dtype=complex)
    columns[0] = 1.0
    for i in reversed(keep + rest):
        columns = np.where(n >> (i - 1) & 1, creators[i - 1] @ columns, columns)
    compressed = [sum((n >> (i - 1) & 1) << k for k, i in enumerate(part)) for part in (keep, rest)]
    misfactored = np.any(n1 != compressed[0]) or np.any(n2 != compressed[1])
    return max(np.abs(columns - np.diag(sign)).max(), float(misfactored))


def _claim_slater_row_invariance(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 5)))
    n = int(rng.integers(1, space.d + 1))
    rows = sample_unitary(space.d, rng)[:n, :]
    mixer = sample_unitary(n, rng)
    a = slater_density(rows, space)
    b = slater_density(mixer @ rows, space)
    return np.abs(a.matrix - b.matrix).max()


def _claim_pdm_linearity(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, d_cap))
    a = sample_density(space, rng)
    b = sample_density(space, rng)
    w = float(rng.uniform())
    lhs = one_pdm(mixture([(w, a), (1.0 - w, b)])).gamma
    rhs = w * one_pdm(a).gamma + (1.0 - w) * one_pdm(b).gamma
    return np.abs(lhs - rhs).max()


def _claim_pdm_compression(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, d_cap))
    rho = sample_density(space, rng)
    keep = _sample_keep(rng, space.d, int(rng.integers(1, space.d + 1)))
    idx = [i - 1 for i in keep]
    return np.abs(one_pdm(restrict(rho, keep)).gamma - one_pdm(rho).gamma[np.ix_(idx, idx)]).max()


def _claim_pdm_covariance(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4)))
    rho = sample_density(space, rng)
    u = sample_unitary(space.d, rng)
    fock_u = basis_change_unitary(u, space)
    rotated = DensityOperator(space, fock_u @ rho.matrix @ fock_u.conj().T)
    return np.abs(one_pdm(rotated).gamma - u @ one_pdm(rho).gamma @ u.conj().T).max()


def _boundary_free_spec(space, rng):
    """Free spec with a random mix of exact-boundary and interior occupations."""
    p = np.empty(space.d)
    for i in range(space.d):
        roll = rng.uniform()
        if roll < 1 / 3:
            p[i] = 0.0
        elif roll < 2 / 3:
            p[i] = 1.0
        else:
            p[i] = rng.uniform(0.1, 0.9)
    return FreeStateSpec(space, p, sample_unitary(space.d, rng))


def _claim_kernel_inclusion_equivalence(rng, d_cap):
    tol = 1e-8
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 3)))
    spec = _boundary_free_spec(space, rng)
    gamma_matrix = spec.to_density()
    fock_u = basis_change_unitary(spec.orbitals, space)
    # configurations compatible with the free state's support
    weights = bernoulli_weights(spec.occupations)
    support = np.flatnonzero(weights > 0)
    kernel = np.flatnonzero(weights == 0)
    amplitudes = np.zeros(space.dim, dtype=complex)
    picks = rng.choice(support, size=min(2, support.size), replace=False)
    amplitudes[picks] = rng.standard_normal(picks.size) + 1j * rng.standard_normal(picks.size)
    if kernel.size > 0 and rng.uniform() < 0.5:
        amplitudes[kernel[0]] = 0.7
    amplitudes /= np.linalg.norm(amplitudes)
    rho = pure_density(PureState(space, fock_u @ amplitudes))

    w, v = np.linalg.eigh(gamma_matrix.matrix)
    direct = all(np.linalg.norm(rho.matrix @ v[:, k]) < tol for k in range(w.size) if w[k] < tol)
    ker_ok, coker_ok = kernel_inclusion_1pdm(one_pdm(gamma_matrix), one_pdm(rho), tol=tol)
    return float(direct != (ker_ok and coker_ok)), (gamma_matrix, rho)


def _claim_free_idempotence(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4)))
    free_density, _ = free_from_pdm(one_pdm(sample_density(space, rng)))
    again, _ = free_from_pdm(one_pdm(free_density))
    return np.abs(free_density.matrix - again.matrix).max()


def _claim_wick(rng, d_cap):
    free_density = sample_free_spec(OrbitalSpace(_sample_d(rng, min(d_cap, 4))), rng).to_density()
    return wick_check(free_density)[1], (free_density,)


def _pair_state_fails_wick():
    """Negative control: the correlated pair state must fail the check by a clear margin."""
    violation = wick_check(pair_state())[1]
    return None if violation > 0.1 else (violation, pair_state())


def _claim_free_substate(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4), lo=3))
    spec = sample_free_spec(space, rng)
    keep = _sample_keep(rng, space.d, int(rng.integers(1, space.d)))
    sub = restrict(spec.to_density(), keep)
    return wick_check(sub)[1], (sub,)


def _claim_free_entropy_formula(rng, d_cap):
    spec = sample_free_spec(OrbitalSpace(_sample_d(rng, min(d_cap, 4))), rng)
    # the entropy from a fresh eigensolve of the matrix, not the state's carried
    # Bernoulli weights, so the check stays independent of the closed form
    w = np.linalg.eigvalsh(spec.to_density().matrix)
    w = w[w > 0.0]
    return abs(float(-(w * np.log(w)).sum()) - binary_entropy(spec.occupations))


def _claim_gibbs_log(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4)))
    p = rng.uniform(0.05, 0.95, space.d)
    quad = np.zeros((space.dim, space.dim), dtype=complex)
    eye = np.eye(space.dim)
    for i, (c, a) in enumerate(zip(*ladder_matrices(space))):
        n_op = c @ a
        quad += np.log(p[i]) * n_op + np.log(1.0 - p[i]) * (eye - n_op)
    # the log from a fresh eigh of the matrix, not the state's carried eigenpairs,
    # so the check stays independent of the weights that built it
    w, v = np.linalg.eigh(gibbs_free_density(p, space).matrix)
    return np.abs((v * np.log(w)) @ v.conj().T - quad).max()


def _claim_independent_occupation(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4)))
    p = rng.uniform(0.05, 0.95, space.d)
    rho = gibbs_free_density(p, space)
    numbers = [c @ a for c, a in zip(*ladder_matrices(space))]
    worst = 0.0
    for i in range(space.d):
        for j in range(space.d):
            if i != j:
                pair = numbers[i] @ numbers[j]
                worst = max(worst, abs((rho.matrix @ pair).trace() - p[i] * p[j]))
    return worst


def _claim_entropy_nonneg(rng, d_cap):
    """How far the most negative of the entropies and divergences falls below 0."""
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 3)))
    a = sample_density(space, rng)
    b = sample_density(space, rng)
    values = [
        von_neumann(a),
        relative_entropy(a, b),
        renyi_divergence(0.7, a, b),
        renyi_divergence(1.5, a, b),
        sandwiched_renyi(0.5, a, b),
        sandwiched_renyi(2.0, a, b),
    ]
    return -min(values)


def _claim_entropy_unitary_invariance(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 3)))
    a = sample_density(space, rng)
    b = sample_density(space, rng)
    fock_u = basis_change_unitary(sample_unitary(space.d, rng), space)
    a2 = DensityOperator(space, fock_u @ a.matrix @ fock_u.conj().T)
    b2 = DensityOperator(space, fock_u @ b.matrix @ fock_u.conj().T)
    return max(
        abs(fn(a, b) - fn(a2, b2))
        for fn in (
            relative_entropy,
            lambda x, y: renyi_divergence(1.5, x, y),
            lambda x, y: sandwiched_renyi(0.6, x, y),
        )
    )


def _claim_entropy_additivity(rng, d_cap):
    s1 = OrbitalSpace(2)
    s2 = OrbitalSpace(2)
    a1, b1 = sample_density(s1, rng), sample_density(s1, rng)
    a2, b2 = sample_density(s2, rng), sample_density(s2, rng)
    at, bt = tensor_product(a1, a2), tensor_product(b1, b2)
    return max(
        abs(fn(at, bt) - fn(a1, b1) - fn(a2, b2))
        for fn in (
            relative_entropy,
            lambda x, y: renyi_divergence(0.7, x, y),
            lambda x, y: renyi_divergence(2.0, x, y),
            lambda x, y: sandwiched_renyi(0.6, x, y),
            lambda x, y: sandwiched_renyi(2.0, x, y),
        )
    )


def _claim_renyi_alpha_monotone(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 3)))
    a = sample_density(space, rng)
    b = sample_density(space, rng)
    values = [renyi_divergence(al, a, b) for al in (0.3, 0.6, 0.9, 1.0, 1.2, 1.6, 2.0)]
    return max(lo - hi for lo, hi in zip(values, values[1:]))


def _claim_entropy_inequality(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 3)))
    a = sample_density(space, rng)
    b = sample_density(space, rng)
    return von_neumann(a) - cross_entropy(a, b)


def _claim_reference_trace_identity(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4)))
    rho = sample_density(space, rng)
    free_gamma = sample_free_spec(space, rng).to_density()
    reference, _ = free_from_pdm(one_pdm(rho))
    return abs(cross_entropy(rho, free_gamma) - cross_entropy(reference, free_gamma))


def _claim_reference_trace_boundary(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 3)))
    p = rng.uniform(0.2, 0.8, space.d)
    p[0] = 1.0
    blocked, _ = free_from_pdm(OnePdm(space, np.diag(p).astype(complex)))
    rho = sample_density(space, rng)  # full rank, so <h1|gamma h1> < 1
    reference, _ = free_from_pdm(one_pdm(rho))
    both_infinite = np.isinf(cross_entropy(rho, blocked)) and np.isinf(
        cross_entropy(reference, blocked)
    )
    return float(not both_infinite), (rho, blocked)


def _claim_slater_zero(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 5)))
    n = int(rng.integers(0, space.d + 1))
    report = nonfreeness(slater_density(sample_unitary(space.d, rng)[:n, :], space))
    return max(report.nonfreeness, report.cross_check)


def _claim_prop2_crosscheck(rng, d_cap):
    return nonfreeness(sample_density(OrbitalSpace(_sample_d(rng, min(d_cap, 4))), rng)).cross_check


_RENYI_FUNCTIONALS = (
    (0.5, correlation_renyi),
    (2.0, correlation_renyi),
    (0.5, correlation_sandwiched),
    (2.0, correlation_sandwiched),
)


def _claim_monotone(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4), lo=3))
    rho = sample_pure(space, rng)
    keep = _sample_keep(rng, space.d, int(rng.integers(1, space.d)))
    sub = restrict(rho, keep)
    excess = [
        nonfreeness(sub, cross_check=False).nonfreeness
        - nonfreeness(rho, cross_check=False).nonfreeness
    ]
    for alpha, fn in _RENYI_FUNCTIONALS:
        full = fn(rho, alpha)
        if not np.isinf(full):
            excess.append(fn(sub, alpha) - full)
    return max(excess)


def _claim_additive(rng, d_cap):
    a = sample_even_density(OrbitalSpace(2), rng)
    b = sample_even_density(OrbitalSpace(2), rng)
    prod = tensor_product(a, b)
    gaps = [
        abs(
            nonfreeness(prod, cross_check=False).nonfreeness
            - nonfreeness(a, cross_check=False).nonfreeness
            - nonfreeness(b, cross_check=False).nonfreeness
        )
    ]
    for alpha, fn in _RENYI_FUNCTIONALS:
        gaps.append(abs(fn(prod, alpha) - fn(a, alpha) - fn(b, alpha)))
    return max(gaps)


def _claim_basis_invariance(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 4)))
    rho = sample_density(space, rng)
    fock_u = basis_change_unitary(sample_unitary(space.d, rng), space)
    rotated = DensityOperator(space, fock_u @ rho.matrix @ fock_u.conj().T)
    return abs(
        nonfreeness(rotated, cross_check=False).nonfreeness
        - nonfreeness(rho, cross_check=False).nonfreeness
    )


def _claim_minimum_sampled(rng, d_cap):
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 3)))
    rho = sample_density(space, rng)
    base = nonfreeness(rho, cross_check=False).nonfreeness
    # against each spec, so the core, not `_reference`, computes the divergence
    return max(base - relative_entropy(rho, sample_free_spec(space, rng)) for _ in range(10))


def _claim_purification(rng, d_cap):
    d = _sample_d(rng, min(d_cap, 4), lo=1)
    space = OrbitalSpace(d)
    spec = FreeStateSpec(space, rng.uniform(0.0, 1.0, d), sample_unitary(d, rng))
    doubled = slater_density(purify_free(spec), OrbitalSpace(2 * d))
    recovered = restrict(doubled, range(1, d + 1))
    return trace_distance(recovered, spec.to_density())


def _claim_free_reference_core(rng, d_cap):
    """The core's divergences to a spec against `_reference`'s to the same free
    state, built from the minors of `basis_change_unitary` and Bernoulli
    weights written out here: no Fock block, Givens pass, Bernoulli table or
    +inf rule is shared.  Both values +inf agree; one alone is an infinite gap."""
    space = OrbitalSpace(_sample_d(rng, min(d_cap, 5)))
    spec = FreeStateSpec(space, rng.uniform(0.05, 0.95, space.d), sample_unitary(space.d, rng))
    filled = np.arange(space.dim)[:, None] >> np.arange(space.d) & 1  # bit i - 1: orbital i
    weights = np.where(filled, spec.occupations, 1.0 - spec.occupations).prod(axis=1)
    fock_u = basis_change_unitary(spec.orbitals, space)
    free = DensityOperator(space, (fock_u * weights) @ fock_u.conj().T)
    rho = (sample_density, sample_pure)[rng.integers(2)](space, rng)
    gaps = [0.0]
    for fn in (renyi_divergence, sandwiched_renyi):
        for alpha in (0.5, 1.0, 2.0):
            core, reference = fn(alpha, rho, spec), fn(alpha, rho, free)
            if not (np.isinf(core) and np.isinf(reference)):
                gaps.append(abs(core - reference))
    return max(gaps), (rho, free)


# (claim id, trial, cap on its trials or None, threshold on the worst trial's
# value[, negative controls]); a control returns None, or (value, *states) when
# it fails and so fails the claim
_CLAIMS = (
    ("fock-car-relations", _claim_car_relations, 10, 1e-12),
    ("fock-unitary-representation", _claim_unitary_representation, 25, 1e-10),
    ("fock-ladder-covariance", _claim_ladder_covariance, 25, 1e-10),
    ("fock-split-roundtrip", _claim_split_roundtrip, None, 0.0),
    ("states-slater-row-invariance", _claim_slater_row_invariance, 25, 1e-10),
    ("pdm-linearity", _claim_pdm_linearity, None, 1e-12),
    ("pdm-compression-under-restriction", _claim_pdm_compression, None, 1e-10),
    ("pdm-basis-covariance", _claim_pdm_covariance, 25, 1e-10),
    ("pdm-kernel-inclusion-equivalence", _claim_kernel_inclusion_equivalence, None, 0.0),
    ("free-reconstruction-idempotent", _claim_free_idempotence, 25, 1e-9),
    ("free-wick-order2", _claim_wick, 15, 1e-10, _pair_state_fails_wick),
    ("free-substates-are-free", _claim_free_substate, 15, 1e-9),
    ("free-entropy-formula", _claim_free_entropy_formula, 25, 1e-9),
    ("free-gibbs-log-quadratic", _claim_gibbs_log, 10, 1e-9),
    ("free-independent-occupation", _claim_independent_occupation, 10, 1e-10),
    ("entropy-nonnegative", _claim_entropy_nonneg, None, 0.0),
    ("entropy-unitary-invariance", _claim_entropy_unitary_invariance, 15, 1e-9),
    ("entropy-additivity", _claim_entropy_additivity, 15, 1e-8),
    ("entropy-renyi-alpha-monotone", _claim_renyi_alpha_monotone, 15, 1e-9),
    ("entropy-log-trace-inequality", _claim_entropy_inequality, None, 1e-9),
    ("free-reference-trace-identity", _claim_reference_trace_identity, 20, 1e-8),
    ("free-reference-trace-identity-boundary", _claim_reference_trace_boundary, 10, 0.0),
    ("correlation-slater-zero", _claim_slater_zero, 25, 1e-7),
    ("correlation-entropy-difference-crosscheck", _claim_prop2_crosscheck, 30, 1e-7),
    ("correlation-monotone-under-restriction", _claim_monotone, 15, 1e-7),
    ("correlation-additive-over-products", _claim_additive, 15, 1e-7),
    ("correlation-basis-invariance", _claim_basis_invariance, 15, 1e-8),
    ("correlation-minimum-over-sampled-free", _claim_minimum_sampled, 10, 1e-9),
    ("purification-restriction-roundtrip", _claim_purification, 15, 1e-8),
    ("entropy-free-reference-core", _claim_free_reference_core, 15, 1e-10),
)

# the core against `_reference` runs from d_max = 5: below it the report keeps the
# 29 claims whose worst values the oracle benchmark's recorded fingerprint lists
# (perfbench/reference.json, taken at d_max = 4)
_FROM_DMAX_5 = {"entropy-free-reference-core"}


def _run_claim(seed: int, d_max: int, trials: int, index: int) -> VerificationReport:
    """Run claim `index` of `_CLAIMS` from its own generator, seeded by `seed`
    and its position, so a claim's report does not depend on where it runs."""
    claim_id, trial, cap, threshold, *controls = _CLAIMS[index]
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    ran = trials if cap is None else min(trials, cap)
    start = time.perf_counter()
    worst, states = 0.0, ()
    for _ in range(ran):
        outcome = trial(rng, d_max)
        value, found = outcome if isinstance(outcome, tuple) else (outcome, ())
        if value > worst or np.isnan(value):  # once NaN, worst stays NaN
            worst, states = value, found
    passed = worst <= threshold
    for control in controls:
        breach = control()
        if breach is not None:
            passed = False
            worst, *states = breach
    witness = [io.density_to_document(s) for s in states] if not passed else []
    return VerificationReport(
        claim=claim_id,
        passed=bool(passed),
        worst=float(worst),
        threshold=threshold,
        trials=ran,
        elapsed_s=time.perf_counter() - start,
        witness={"states": witness} if witness else None,
    )


def property_suite(seed: int = 42, d_max: int = SUITE_DMAX, trials: int = SUITE_TRIALS):
    """Run every module invariant on randomized instances; deterministic per seed.

    Each claim runs `trials` instances, or its cap in `_CLAIMS` if that is
    smaller, and passes when its worst trial value is at most its threshold
    (a NaN value fails) and each of its negative controls passes.  Returns one
    VerificationReport per claim, in `_CLAIMS` order, with the threshold, the
    trials it ran and its wall time in the process that ran it; a failing
    claim carries a witness with the worst trial's states, when its trial
    names them.  Orbital counts are drawn up to `d_max`, which must lie
    between 2 and the orbital-count ceiling (`config.d_max()`); the claims
    that need three orbitals still take three at d_max = 2.  The claims in
    `_FROM_DMAX_5` run from d_max = 5 only.

    Every claim draws from its own generator, so the claims run in forked
    worker processes, one per CPU this process may run on (capped at the
    claim count), and the reports equal a serial run's apart from
    `elapsed_s`.  Workers are forked, not spawned: they see the claims and
    library functions as the caller has them (tests patch both), and only
    claim indices and reports cross between processes.  On one CPU, or
    where the platform reports no CPU affinity (and so may lack `fork`),
    the claims run in this process.  A claim's exception reaches the caller
    with its type and message after the pending claims are cancelled and
    every worker has exited.
    """
    integer(trials, "trials", 1)
    integer(d_max, "d_max", 2)
    ceiling = config.d_max()
    if d_max > ceiling:
        raise ValidationError(f"d_max {d_max} exceeds the orbital ceiling D_MAX = {ceiling}")
    integer(seed, "seed", 0)
    claim = functools.partial(_run_claim, seed, d_max, trials)
    indices = [i for i, c in enumerate(_CLAIMS) if d_max >= 5 or c[0] not in _FROM_DMAX_5]
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)), len(indices)) if affinity else 1
    if workers < 2:
        return list(map(claim, indices))
    # imported here: `import fermifree.cli` loads neither module
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a claim's exception cancels the claims not yet started, and leaving
    # `with` joins every worker before it propagates
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        return list(pool.map(claim, indices))
