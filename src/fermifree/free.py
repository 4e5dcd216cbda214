"""Free (gauge-invariant quasi-free) states with a prescribed 1-pdm.

A free state is a product of independent Bernoulli occupations of its
natural orbitals; it is the unique state whose correlations satisfy Wick's
determinant formula with that 1-pdm.
"""

import numpy as np

from .errors import ValidationError
from .fock import expectations
from .pdm import OnePdm, natural_spectrum, one_pdm
from .states import DensityOperator, FreeStateSpec, State, _real


def free_from_pdm(q: OnePdm) -> tuple[DensityOperator, FreeStateSpec]:
    """The unique free density operator whose 1-pdm is q, with its spec.

    Boundary occupations (0 or 1) are represented exactly by zero Bernoulli
    weights; no regularization is applied.
    """
    spec = natural_spectrum(q)
    return spec.to_density(), spec


def wick_check(state: State, tol: float = 1e-10) -> tuple[bool, float]:
    """Test the determinant form of correlations over the reference orbitals.

    Covers every monomial with at most four ladder operators: the odd ones and
    the anomalous pairs <a a> and <a* a*> must vanish for a gauge-invariant
    state, <a* a> must be the 1-pdm, and the nonvanishing four-operator ones
    must equal 2x2 minors of it.  Returns (passed, worst violation), passed
    when the worst is at most `tol`, a finite real >= 0.
    """
    if _real(tol, "tol") < 0.0:
        raise ValidationError(f"tol must be >= 0, got {tol}")
    gamma = one_pdm(state).gamma

    def expect(word):
        return expectations(state.entries, word, state.space.d, state.sector)

    # <a*_f1 a*_f2 a_g2 a_g1> = gamma[g1, f1] gamma[g2, f2] - gamma[g1, f2] gamma[g2, f1],
    # laid out as [f1, f2, g2, g1] like expect("++--")
    minors = np.einsum("ea,cb->abce", gamma, gamma) - np.einsum("eb,ca->abce", gamma, gamma)
    deviations = [
        expect("+"), expect("-"), expect("--"), expect("++"), expect("+-") - gamma.T,
        expect("++-"), expect("+--"), expect("++--") - minors,
    ]
    worst = max(float(np.abs(dev).max()) for dev in deviations)
    return bool(worst <= tol), float(worst)


def purify_free(spec: FreeStateSpec) -> np.ndarray:
    """Slater rows on a doubled orbital set whose substate on the first half is `spec`.

    Row i is sqrt(p_i) times natural orbital i on the first d coordinates plus
    sqrt(1 - p_i) times an extraneous orbital on coordinate d + i.
    """
    if not isinstance(spec, FreeStateSpec):
        raise ValidationError(f"expected a FreeStateSpec, not {type(spec).__name__}")
    p = spec.occupations
    return np.hstack([np.sqrt(p)[:, None] * spec.orbitals.T, np.diag(np.sqrt(1.0 - p))])
