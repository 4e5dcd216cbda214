"""Free (gauge-invariant quasi-free) states with a prescribed 1-pdm.

A free state is a product of independent Bernoulli occupations of its
natural orbitals; it is the unique state whose correlations satisfy Wick's
determinant formula with that 1-pdm.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL_UNITARY
from .errors import ValidationError
from .fock import OrbitalSpace, _require_unitary, basis_change_unitary, expectations
from .pdm import OnePdm, natural_spectrum, one_pdm
from .states import DensityOperator, _with_eigenpairs, bernoulli_weights


@dataclass(frozen=True)
class FreeStateSpec:
    """Natural orbitals (columns of a unitary) plus occupation probabilities.

    The represented density operator is U-hat @ diag(Bernoulli weights) @
    U-hat-dagger where U-hat is the Fock unitary induced by `orbitals`, which
    must be a d x d unitary within TOL_UNITARY.  Both are stored as read-only
    copies, so a spec stays valid once checked and is never checked again.
    """

    space: OrbitalSpace
    occupations: np.ndarray
    orbitals: np.ndarray

    def __post_init__(self):
        p = np.array(self.occupations, dtype=float)
        if p.shape != (self.space.d,):
            raise ValidationError(f"expected {self.space.d} occupation probabilities")
        if not ((p >= 0.0) & (p <= 1.0)).all():  # also NaN
            raise ValidationError("occupation probabilities must lie in [0, 1]")
        orbitals = np.array(_require_unitary(self.orbitals, self.space.d, TOL_UNITARY))
        for name, array in (("occupations", p), ("orbitals", orbitals)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def to_density(self) -> DensityOperator:
        """The density operator, carrying its eigenpairs (Bernoulli weights, Fock unitary)."""
        fock_u = basis_change_unitary(self.orbitals, self.space)
        w = bernoulli_weights(self.occupations)
        live = fock_u[:, w > 0]
        return _with_eigenpairs(self.space, (live * w[w > 0]) @ live.conj().T, w, fock_u)


def spec_from_pdm(q: OnePdm) -> FreeStateSpec:
    """The spec of the unique free state whose 1-pdm is q: its natural
    orbitals and occupations."""
    spectrum = natural_spectrum(q)
    return FreeStateSpec(q.space, spectrum.occupations, spectrum.orbitals)


def free_from_pdm(q: OnePdm) -> tuple[DensityOperator, FreeStateSpec]:
    """The unique free density operator whose 1-pdm is q, with its spec.

    Boundary occupations (0 or 1) are represented exactly by zero Bernoulli
    weights; no regularization is applied.
    """
    spec = spec_from_pdm(q)
    return spec.to_density(), spec


def gamma_of(rho: DensityOperator) -> DensityOperator:
    """The free reference state with the same 1-pdm as `rho`."""
    density, _ = free_from_pdm(one_pdm(rho))
    return density


def wick_check(
    rho: DensityOperator, max_order: int = 2, tol: float = 1e-10
) -> tuple[bool, float]:
    """Test the determinant form of correlations over the reference orbitals.

    Order 1 covers all monomials with at most two ladder operators, including
    the anomalous pairs <a a> and <a* a*> that must vanish for a
    gauge-invariant state; order 2 adds the three- and four-operator
    monomials, whose nonvanishing cases must equal 2x2 minors of the 1-pdm.
    Returns (passed, worst violation).
    """
    if max_order not in (1, 2):
        raise ValidationError(f"max_order must be 1 or 2, got {max_order}")
    d = rho.space.d
    gamma = one_pdm(rho).gamma

    def expect(word):
        return expectations(rho.matrix, word, d)

    deviations = [expect("+"), expect("-"), expect("--"), expect("++"), expect("+-") - gamma.T]
    if max_order == 2:
        # <a*_f1 a*_f2 a_g2 a_g1> = gamma[g1, f1] gamma[g2, f2] - gamma[g1, f2] gamma[g2, f1],
        # laid out as [f1, f2, g2, g1] like expect("++--")
        minors = np.einsum("ea,cb->abce", gamma, gamma) - np.einsum("eb,ca->abce", gamma, gamma)
        deviations += [expect("++-"), expect("+--"), expect("++--") - minors]
    worst = max(float(np.abs(dev).max()) for dev in deviations)
    return bool(worst <= tol), float(worst)


def purify_free(spec: FreeStateSpec) -> np.ndarray:
    """Slater rows on a doubled orbital set whose substate on the first half is `spec`.

    Row i is sqrt(p_i) times natural orbital i on the first d coordinates plus
    sqrt(1 - p_i) times an extraneous orbital on coordinate d + i; restricting
    the resulting Slater determinant state to the first d orbitals recovers the
    free state.
    """
    p = spec.occupations
    return np.hstack([np.sqrt(p)[:, None] * spec.orbitals.T, np.diag(np.sqrt(1.0 - p))])
