"""Spectral entropy functionals: von Neumann, relative, Renyi, sandwiched Renyi.

Everything is in nats.  All spectral functions read each state's cached
eigendecomposition (`DensityOperator.eigenpairs`: carried from construction
for free and pure states, otherwise `states.spectrum`, taken once) and treat
eigenvalues at or below `KERNEL_TOL` as exact kernel, which makes the
+infinity conventions of the divergences testable.  The first state may also
be a `PureState` (eigenvalue 1 on its amplitudes) and the second a
`FreeStateSpec` (Bernoulli weights on the Fock basis of its orbitals), which
no 2^d x 2^d matrix represents.  The three divergences share one core,
`_divergences`, which also scores stacks of references for the searches.
"""

import numpy as np

from .config import KERNEL_TOL, TOL_DIVERGENCE
from .errors import ValidationError
from .fock import _givens_amplitudes
from .states import (
    DensityOperator, FreeStateSpec, State, _real, _state_array, bernoulli_weights,
)

Reference = DensityOperator | FreeStateSpec  # what a divergence accepts as its second state


def _live(a: State):
    """The eigenvalues of `a` above KERNEL_TOL and their eigenvectors (columns);
    a pure state is its own eigenvector, with eigenvalue 1."""
    data = _state_array(a)
    if data.ndim == 1:
        return np.ones(1), data[:, None]
    w, v = a.eigenpairs
    live = w > KERNEL_TOL
    return (w, v) if live.all() else (w[live], v[:, live])


def _joint(a: State, b: Reference):
    """Live spectrum p of a, spectrum q of b, and the coefficients
    c[i, j] = <b_j|a_i> of a's live eigenvectors in b's eigenbasis.

    A free state given by its spec is diagonal, with its Bernoulli weights, in
    the Fock basis of its orbitals, which the vectors reach by Givens rotations.
    """
    if not isinstance(b, Reference):
        raise ValidationError(
            f"expected a DensityOperator or FreeStateSpec, not {type(b).__name__}"
        )
    p, va = _live(a)
    if a.space.d != b.space.d:
        raise ValidationError("divergences require both states on the same space")
    if isinstance(b, FreeStateSpec):
        return p, bernoulli_weights(b.occupations), _givens_amplitudes(b.orbitals, va, b.space.d).T
    q, vb = b.eigenpairs
    return p, q, (vb.conj().T @ va).T


def _support(p, q, overlap):
    """Which eigenvalues of each reference B lie above KERNEL_TOL; the weights
    m_j = sum_i p_i |c_ij|^2 of A's support on B's eigenvectors; and whether
    more than KERNEL_TOL of that weight lies in ker B, where -Tr(A log B) and
    the divergences from alpha >= 1 are +inf."""
    live = q > KERNEL_TOL
    mass = p @ overlap
    return live, mass, np.where(live, 0.0, mass).sum(axis=-1) > KERNEL_TOL


def _divergences(alpha: float, p, q, c, sandwiched: bool = False) -> np.ndarray:
    """D(A||B) from one state A to a stack of references B, shape (...), unclamped.

    p (k,) holds the live eigenvalues of A, q (..., n) the spectrum of each B
    (entries at or below KERNEL_TOL are its kernel) and c (..., k, n) the
    coefficients of A's live eigenvectors in B's eigenbasis, or their complex
    conjugates.  With m_j the weight of A's support on B's j-th eigenvector:

    - alpha = 1: S(A||B) = sum p log p - sum_j m_j log q_j + sum q - sum p, the
      double sum over joint eigenpairs of `relative_entropy` summed over i,
      since each row of |c|^2 sums to 1;
    - Petz: Tr A^alpha B^(1-alpha) = sum_ij p_i^alpha |c_ij|^2 q_j^(1-alpha),
      +inf below alpha = 1 when at most KERNEL_TOL of A's weight lies on B's
      support (orthogonal supports);
    - sandwiched, e = (1-alpha)/(2 alpha): B^e A B^e = X X^dagger with
      X = B^e V_A sqrt(p), whose nonzero eigenvalues are those of the k x k
      matrix X^dagger X, the conjugate of y y^dagger, y_ij = sqrt(p_i) c_ij q_j^e;
      no 2^d x 2^d core is formed.

    Away from alpha = 1 a vanishing trace gives +inf.
    """
    overlap = np.abs(c) ** 2
    live, mass, crossing = _support(p, q, overlap)
    safe_q = np.where(live, q, 1.0)
    if alpha == 1.0:
        plogp, total_q = (p * np.log(p)).sum(), np.where(live, q, 0.0).sum(axis=-1)
        values = plogp - np.vecdot(np.log(safe_q), mass) + total_q - p.sum()
        return np.where(crossing, np.inf, values)
    if sandwiched:
        exponent = (1.0 - alpha) / (2.0 * alpha)
        y = np.sqrt(p)[:, None] * c * np.where(live, safe_q**exponent, 0.0)[..., None, :]
        w = np.linalg.eigvalsh(y @ y.conj().swapaxes(-1, -2))
        trace = (np.where(w > KERNEL_TOL, w, 0.0) ** alpha).sum(axis=-1)
    else:
        trace = np.vecdot(np.where(live, safe_q ** (1.0 - alpha), 0.0), p**alpha @ overlap)
    positive = trace > 0.0
    values = np.where(positive, np.log(np.where(positive, trace, 1.0)) / (alpha - 1.0), np.inf)
    if alpha > 1.0:
        return np.where(crossing, np.inf, values)
    if not sandwiched:  # orthogonal supports
        return np.where(np.where(live, mass, 0.0).sum(axis=-1) <= KERNEL_TOL, np.inf, values)
    return values


def _clamp(value: float) -> float:
    if value < -TOL_DIVERGENCE:
        raise ValidationError(f"divergence evaluated to {value:.3e} < {-TOL_DIVERGENCE:.0e}")
    # not max(value, 0.0), which keeps -0.0: the entropy of an exact projector
    return value if value > 0.0 else 0.0


def _divergence(alpha: float, a: State, b: Reference, sandwiched: bool = False) -> float:
    """`_divergences` for one reference: a stack of one, clamped."""
    return _clamp(float(_divergences(alpha, *_joint(a, b), sandwiched)))


def von_neumann(rho: State) -> float:
    """-Tr(rho log rho), in nats; always finite at finite dimension, 0 for a pure state."""
    w, _ = _live(rho)
    return _clamp(float(-(w * np.log(w)).sum()))


def cross_entropy(a: State, b: Reference) -> float:
    """-Tr(A log B); +inf when the kernel of B is not contained in that of A."""
    p, q, c = _joint(a, b)
    live, mass, crossing = _support(p, q, np.abs(c) ** 2)
    return float("inf") if crossing else float(-np.log(np.where(live, q, 1.0)) @ mass)


def relative_entropy(a: State, b: Reference) -> float:
    """S(A||B) = Tr A (log A - log B), the nonnegative double sum over joint
    eigenpairs of |<phi_i, psi_j>|^2 (p_i log p_i - p_i log q_j + q_j - p_i)
    with 0 log 0 = 0; +inf exactly when ker B is not contained in ker A
    (within KERNEL_TOL)."""
    return _divergence(1.0, a, b)


def renyi_divergence(alpha: float, a: State, b: Reference) -> float:
    """D_alpha(A||B) = log Tr(A^alpha B^(1-alpha)) / (alpha - 1), alpha in (0, 2].

    Powers are taken on supports.  At alpha = 1 this is the relative entropy
    (the limit value).  For alpha > 1 the value is +inf when ker B is not
    contained in ker A; for alpha < 1 it is +inf only when the supports are
    orthogonal, that is when the weight of A's support on B's support is at
    most KERNEL_TOL.
    """
    alpha = _real(alpha, "alpha")
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"alpha must lie in (0, 2], got {alpha}")
    return _divergence(alpha, a, b)


def sandwiched_renyi(alpha: float, a: State, b: Reference) -> float:
    """D~_alpha(A||B) = log Tr((B^e A B^e)^alpha) / (alpha - 1), e = (1-alpha)/(2 alpha).

    Defined for finite alpha >= 1/2; alpha = 1 is the relative entropy.  B
    powers are taken on the support of B; for alpha > 1 the value is +inf
    when ker B is not contained in ker A.  The trace is that of a k x k core,
    k the rank of A, for either kind of B (see `_divergences`).
    """
    alpha = _real(alpha, "alpha")
    if alpha < 0.5:
        raise ValidationError(f"alpha must be >= 1/2, got {alpha}")
    return _divergence(alpha, a, b, sandwiched=True)
