"""One-particle density matrices: extraction and natural orbitals."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL_HERM, TOL_OCCUPATION, TOL_PHASE_PIVOT
from .errors import ValidationError
from .fock import OrbitalSpace, _array, expectations
from .states import FreeStateSpec, State, _require_state, spectrum


@dataclass(frozen=True)
class OnePdm:
    """The d x d matrix gamma with gamma[i, j] = Tr(rho a*_j+1 a_i+1): a Hermitian
    positive-semidefinite contraction whose trace is the expected particle number."""

    space: OrbitalSpace
    gamma: np.ndarray

    def __post_init__(self):
        g = _array(self.gamma, "1-pdm", (self.space.d,) * 2)
        object.__setattr__(self, "gamma", g)
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
        """``states.spectrum(gamma)``, taken once per 1-pdm; validation and
        ``natural_spectrum`` read it."""
        return spectrum(self.gamma)

    @property
    def trace(self) -> float:
        return float(self.gamma.trace().real)


def _require_pdm(pdm):
    """Reject anything but a 1-pdm."""
    if not isinstance(pdm, OnePdm):
        raise ValidationError(f"expected a OnePdm, not {type(pdm).__name__}")


def one_pdm(state: State) -> OnePdm:
    """Extract the 1-particle density matrix of a density operator, or of a
    factored state from its columns alone."""
    _require_state(state)
    g = expectations(state.entries, "+-", state.space.d, state.sector).T  # Tr(rho a*_j a_i)
    return OnePdm(state.space, (g + g.conj().T) / 2)


def natural_spectrum(pdm: OnePdm) -> FreeStateSpec:
    """The free state whose 1-pdm is `pdm`: its natural orbitals and occupations,
    descending.

    Occupations are the eigenvalues clipped into [0, 1], so x log x never sees
    -1e-16; validation bounds the clip by TOL_OCCUPATION.  Each orbital's first
    component of nonnegligible magnitude is made real and positive.
    """
    _require_pdm(pdm)
    w, v = pdm.eigenpairs
    w, v = np.clip(w[::-1], 0.0, 1.0), v[:, ::-1]
    big = np.abs(v) > TOL_PHASE_PIVOT
    pivot = np.where(big.any(axis=0), v[big.argmax(axis=0), np.arange(v.shape[1])], 1.0)
    return FreeStateSpec(pdm.space, w, v / (pivot / np.abs(pivot)))
