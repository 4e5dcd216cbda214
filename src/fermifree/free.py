"""Free (gauge-invariant quasi-free) states with a prescribed 1-pdm.

A free state is a product of independent Bernoulli occupations of its
natural orbitals; it is the unique state whose correlations satisfy Wick's
determinant formula with that 1-pdm.
"""

import numpy as np

from .errors import ValidationError
from .fock import expectations
from .pdm import OnePdm, natural_spectrum, one_pdm
from .states import DensityOperator, FreeStateSpec, PureState, State


def free_from_pdm(q: OnePdm) -> tuple[DensityOperator, FreeStateSpec]:
    """The unique free density operator whose 1-pdm is q, with its spec.

    Boundary occupations (0 or 1) are represented exactly by zero Bernoulli
    weights; no regularization is applied.
    """
    spec = natural_spectrum(q)
    return spec.to_density(), spec


def wick_check(state: State, max_order: int = 2, tol: float = 1e-10) -> tuple[bool, float]:
    """Test the determinant form of correlations over the reference orbitals.

    Order 1 covers all monomials with at most two ladder operators, including
    the anomalous pairs <a a> and <a* a*> that must vanish for a
    gauge-invariant state; order 2 adds the three- and four-operator
    monomials, whose nonvanishing cases must equal 2x2 minors of the 1-pdm.
    A pure state is gathered over its amplitudes, as ``one_pdm`` does.
    Returns (passed, worst violation).
    """
    if max_order not in (1, 2):
        raise ValidationError(f"max_order must be 1 or 2, got {max_order}")
    d = state.space.d
    gamma = one_pdm(state).gamma
    data = state.amplitudes if isinstance(state, PureState) else state.matrix

    def expect(word):
        return expectations(data, word, d)

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
