"""One-particle density matrices: extraction, natural orbitals, kernel predicates."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import KERNEL_TOL, TOL_HERM, TOL_OCCUPATION, TOL_PHASE_PIVOT
from .errors import ValidationError
from .fock import OrbitalSpace, expectations
from .states import PureState, State


@dataclass(frozen=True)
class OnePdm:
    """The d x d matrix gamma with gamma[i, j] = Tr(rho a*_j+1 a_i+1).

    A Hermitian positive-semidefinite contraction; its trace is the expected
    particle number.
    """

    space: OrbitalSpace
    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=complex)
        object.__setattr__(self, "gamma", g)
        d = self.space.d
        if g.shape != (d, d):
            raise ValidationError(f"1-pdm shape {g.shape} does not match d={d}")
        if not np.isfinite(g).all():
            raise ValidationError("1-pdm has non-finite entries")
        with np.errstate(over="ignore"):  # overflow: inf, rejected
            herm = np.abs(g - g.conj().T).max()
        if herm > TOL_HERM:
            raise ValidationError(f"1-pdm is not Hermitian: deviation {herm:.3e}")
        w = self.eigenpairs[0]
        if not (w.min() >= -TOL_OCCUPATION and w.max() <= 1 + TOL_OCCUPATION):  # also NaN
            raise ValidationError(
                f"1-pdm eigenvalues outside [0, 1]: range [{w.min():.3e}, {w.max():.3e}]"
            )

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``eigh`` of the Hermitian part of gamma, eigenvalues ascending, taken
        once per 1-pdm and read-only; validation, ``natural_spectrum`` and
        ``kernel_inclusion_1pdm`` read it."""
        g = self.gamma
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: NaN, rejected
            w, v = np.linalg.eigh((g + g.conj().T) / 2)
        w.flags.writeable = v.flags.writeable = False
        return w, v

    @property
    def trace(self) -> float:
        return float(self.gamma.trace().real)


@dataclass(frozen=True)
class NaturalSpectrum:
    """Eigendecomposition of a 1-pdm: occupations descending, orbitals as columns.

    `clamped` records the largest adjustment applied to push eigenvalues into
    [0, 1], so downstream x log x evaluations never see -1e-16.
    """

    occupations: np.ndarray
    orbitals: np.ndarray
    clamped: float = field(default=0.0)


def one_pdm(state: State) -> OnePdm:
    """Extract the 1-particle density matrix of a density operator, or of a
    pure state from its amplitudes alone."""
    data = state.amplitudes if isinstance(state, PureState) else state.matrix
    g = expectations(data, "+-", state.space.d).T  # g[i, j] = Tr(rho a*_j a_i)
    return OnePdm(state.space, (g + g.conj().T) / 2)


def natural_spectrum(pdm: OnePdm) -> NaturalSpectrum:
    """Deterministic natural orbitals and occupations, descending.

    The phase of each orbital is fixed by making its first component of
    nonnegligible magnitude real and positive.
    """
    w, v = pdm.eigenpairs
    w, v = w[::-1], v[:, ::-1]
    clamp = max(0.0, float(-w.min()), float(w.max() - 1.0))
    w = np.clip(w, 0.0, 1.0)
    big = np.abs(v) > TOL_PHASE_PIVOT
    pivot = np.where(big.any(axis=0), v[big.argmax(axis=0), np.arange(v.shape[1])], 1.0)
    v = v / (pivot / np.abs(pivot))
    return NaturalSpectrum(occupations=w, orbitals=v, clamped=clamp)


def kernel_inclusion_1pdm(
    gamma_free: OnePdm, gamma_state: OnePdm, tol: float = KERNEL_TOL
) -> tuple[bool, bool]:
    """Subspace predicates (ker g_F subset of ker g_S, ker(I-g_F) subset of ker(I-g_S)).

    Tested eigenvector-wise: every eigenvector of the first 1-pdm with
    eigenvalue below `tol` (resp. above 1 - tol) must be annihilated by the
    second 1-pdm (resp. by I minus it) within `tol`.
    """
    if gamma_free.space.d != gamma_state.space.d:
        raise ValidationError("kernel predicates require a shared space")
    w, v = gamma_free.eigenpairs
    g2 = gamma_state.gamma
    rest = np.eye(gamma_state.space.d) - g2
    ker_ok = all(np.linalg.norm(g2 @ v[:, k]) < tol for k in np.flatnonzero(w < tol))
    coker_ok = all(np.linalg.norm(rest @ v[:, k]) < tol for k in np.flatnonzero(w > 1.0 - tol))
    return bool(ker_ok), bool(coker_ok)
