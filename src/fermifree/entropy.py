"""Spectral entropy functionals: von Neumann, relative, Renyi, sandwiched Renyi.

Everything is in nats.  All spectral functions read each state's cached
eigendecomposition (`DensityOperator.eigenpairs`: carried from construction
for free and pure states, otherwise `states.spectrum`, taken once) and treat
eigenvalues at or below `kernel_tol` as exact kernel, which makes the
+infinity conventions of the divergences testable.  The first state may also
be a `PureState` (eigenvalue 1 on its amplitudes) and the second a
`FreeStateSpec` (Bernoulli weights on the Fock basis of its orbitals), which
no 2^d x 2^d matrix represents.
"""

import numpy as np

from .config import KERNEL_TOL, TOL_DIVERGENCE
from .errors import ValidationError
from .fock import _givens_amplitudes
from .free import FreeStateSpec
from .states import DensityOperator, PureState, State, bernoulli_weights

Reference = DensityOperator | FreeStateSpec  # what a divergence accepts as its second state


def _live(a: State, kernel_tol: float):
    """The eigenvalues of `a` above kernel_tol and their eigenvectors (columns);
    a pure state is its own eigenvector, with eigenvalue 1."""
    if isinstance(a, PureState):
        return np.ones(1), a.amplitudes[:, None]
    w, v = a.eigenpairs
    live = w > kernel_tol
    return (w, v) if live.all() else (w[live], v[:, live])


def _joint(a: State, b: Reference, kernel_tol: float):
    """Live spectrum p of a, masked spectrum q of b, and the coefficients
    c[i, j] = <b_j|a_i> of a's live eigenvectors in b's eigenbasis.

    A free state given by its spec is diagonal, with its Bernoulli weights, in
    the Fock basis of its orbitals, which the vectors reach by Givens rotations.
    """
    if a.space.d != b.space.d:
        raise ValidationError("divergences require both states on the same space")
    p, va = _live(a, kernel_tol)
    if isinstance(b, FreeStateSpec):
        q, c = bernoulli_weights(b.occupations), _givens_amplitudes(b.orbitals, va, b.space.d)
    else:
        q, vb = b.eigenpairs
        c = vb.conj().T @ va
    return p, np.where(q > kernel_tol, q, 0.0), c.T


def _clamp(value: float) -> float:
    if value < -TOL_DIVERGENCE:
        raise ValidationError(f"divergence evaluated to {value:.3e} < {-TOL_DIVERGENCE:.0e}")
    # not max(value, 0.0), which keeps -0.0: the entropy of an exact projector
    return value if value > 0.0 else 0.0


def von_neumann(rho: State, kernel_tol: float = KERNEL_TOL) -> float:
    """-Tr(rho log rho), in nats; always finite at finite dimension, 0 for a pure state."""
    w, _ = _live(rho, kernel_tol)
    return _clamp(float(-(w * np.log(w)).sum()))


def _kernel_crossing_mass(p, q, overlap):
    """Weight of the first state's support lying inside the second's kernel."""
    dead = q <= 0
    if not dead.any():
        return 0.0
    return float((p[:, None] * overlap[:, dead]).sum())


def cross_entropy(a: State, b: Reference, kernel_tol: float = KERNEL_TOL) -> float:
    """-Tr(A log B); +inf when the kernel of B is not contained in that of A."""
    p, q, c = _joint(a, b, kernel_tol)
    overlap = np.abs(c) ** 2
    if _kernel_crossing_mass(p, q, overlap) > kernel_tol:
        return float("inf")
    live = q > 0
    return float(-(p[:, None] * overlap[:, live] * np.log(q[live])[None, :]).sum())


def relative_entropy(a: State, b: Reference, kernel_tol: float = KERNEL_TOL) -> float:
    """S(A||B) via the nonnegative double sum over joint eigenpairs.

    Each term is |<phi_i, psi_j>|^2 (p_i log p_i - p_i log q_j + q_j - p_i)
    with 0 log 0 = 0; the value is +inf exactly when ker B is not contained
    in ker A (within `kernel_tol`).  The rows of A's kernel (p_i = 0) weigh
    only q_j, so they enter through their total overlap 1 - sum_live_i.
    """
    p, q, c = _joint(a, b, kernel_tol)
    overlap = np.abs(c) ** 2
    if _kernel_crossing_mass(p, q, overlap) > kernel_tol:
        return float("inf")
    # p_i > 0 with q_j = 0 carries only the stray crossing mass already bounded
    # by kernel_tol, so the log q term is masked there.
    logq = np.log(np.where(q > 0, q, 1.0))
    terms = p[:, None] * (np.log(p)[:, None] - logq[None, :]) + q[None, :] - p[:, None]
    kernel_rows = q * (1.0 - overlap.sum(axis=0))
    return _clamp(float((overlap * terms).sum() + kernel_rows.sum()))


def renyi_divergence(
    alpha: float, a: State, b: Reference, kernel_tol: float = KERNEL_TOL
) -> float:
    """D_alpha(A||B) = log Tr(A^alpha B^(1-alpha)) / (alpha - 1), alpha in (0, 2].

    Powers are taken on supports.  At alpha = 1 this is the relative entropy
    (the limit value).  For alpha > 1 the value is +inf when ker B is not
    contained in ker A; for alpha < 1 it is +inf only when the supports are
    orthogonal, that is when the weight of A's support on B's support is at
    most `kernel_tol`.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"alpha must lie in (0, 2], got {alpha}")
    if alpha == 1.0:
        return relative_entropy(a, b, kernel_tol)
    p, q, c = _joint(a, b, kernel_tol)
    overlap = np.abs(c) ** 2
    if alpha > 1.0 and _kernel_crossing_mass(p, q, overlap) > kernel_tol:
        return float("inf")
    live = q > 0
    live_overlap = overlap[:, live]
    if alpha < 1.0 and float((p[:, None] * live_overlap).sum()) <= kernel_tol:
        return float("inf")
    trace = float((p[:, None] ** alpha * live_overlap * q[live][None, :] ** (1.0 - alpha)).sum())
    if trace <= 0.0:
        return float("inf")
    return _clamp(np.log(trace) / (alpha - 1.0))


def sandwiched_renyi(
    alpha: float, a: State, b: Reference, kernel_tol: float = KERNEL_TOL
) -> float:
    """D~_alpha(A||B) = log Tr((B^e A B^e)^alpha) / (alpha - 1), e = (1-alpha)/(2 alpha).

    Defined for alpha >= 1/2; alpha = 1 dispatches to the relative entropy.
    B powers are taken on the support of B; for alpha > 1 the value is +inf
    when ker B is not contained in ker A.  With p the k live eigenvalues of A,
    q the masked spectrum of B and c the coefficients of A's live eigenvectors
    in B's eigenbasis, B^e A B^e = X X^dagger with X = B^e V_A sqrt(p), whose
    nonzero eigenvalues are those of the k x k matrix X^dagger X: the complex
    conjugate of y y^dagger, y[i, j] = sqrt(p_i) c[i, j] q_j^e.  This holds
    for any rank of A and either kind of B, so no 2^d x 2^d core is formed.
    """
    if alpha < 0.5:
        raise ValidationError(f"alpha must be >= 1/2, got {alpha}")
    if alpha == 1.0:
        return relative_entropy(a, b, kernel_tol)
    p, q, c = _joint(a, b, kernel_tol)
    if alpha > 1.0 and _kernel_crossing_mass(p, q, np.abs(c) ** 2) > kernel_tol:
        return float("inf")
    exponent = (1.0 - alpha) / (2.0 * alpha)
    y = np.sqrt(p)[:, None] * c * np.where(q > 0, np.where(q > 0, q, 1.0) ** exponent, 0.0)
    w = np.linalg.eigvalsh(y @ y.conj().T)
    w = w[w > kernel_tol]
    trace = float((w**alpha).sum())
    if trace <= 0.0:
        return float("inf")
    return _clamp(np.log(trace) / (alpha - 1.0))
