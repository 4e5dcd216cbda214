"""Spectral entropy functionals: von Neumann, relative, Renyi, sandwiched Renyi.

Everything is in nats.  All spectral functions read each state's cached
eigendecomposition (`DensityOperator.eigenpairs`: carried from construction
for free and pure states, otherwise `states.spectrum`, taken once) and treat
eigenvalues at or below `kernel_tol` as exact kernel, which makes the
+infinity conventions of the divergences testable.
"""

import numpy as np

from .config import KERNEL_TOL, TOL_DIVERGENCE
from .errors import ValidationError
from .states import DensityOperator, spectrum


def _spectral(rho: DensityOperator, kernel_tol: float):
    w, v = rho.eigenpairs
    return np.where(w > kernel_tol, w, 0.0), v


def _joint(a: DensityOperator, b: DensityOperator, kernel_tol: float):
    """Masked spectra p, q of both states, b's eigenvectors and |<a_i|b_j>|^2."""
    if a.space.d != b.space.d:
        raise ValidationError("divergences require both states on the same space")
    p, va = _spectral(a, kernel_tol)
    q, vb = _spectral(b, kernel_tol)
    return p, q, vb, np.abs(va.conj().T @ vb) ** 2


def _clamp(value: float) -> float:
    if value < -TOL_DIVERGENCE:
        raise ValidationError(f"divergence evaluated to {value:.3e} < {-TOL_DIVERGENCE:.0e}")
    # not max(value, 0.0), which keeps -0.0: the entropy of an exact projector
    return value if value > 0.0 else 0.0


def von_neumann(rho: DensityOperator, kernel_tol: float = KERNEL_TOL) -> float:
    """-Tr(rho log rho), in nats; always finite at finite dimension."""
    w, _ = _spectral(rho, kernel_tol)
    pos = w[w > 0]
    return _clamp(float(-(pos * np.log(pos)).sum()))


def _kernel_crossing_mass(p, q, overlap):
    """Weight of the first state's support lying inside the second's kernel."""
    live = p > 0
    dead = q <= 0
    if not dead.any():
        return 0.0
    return float((p[live, None] * overlap[np.ix_(live, dead)]).sum())


def cross_entropy(
    a: DensityOperator, b: DensityOperator, kernel_tol: float = KERNEL_TOL
) -> float:
    """-Tr(A log B); +inf when the kernel of B is not contained in that of A."""
    p, q, _, overlap = _joint(a, b, kernel_tol)
    if _kernel_crossing_mass(p, q, overlap) > kernel_tol:
        return float("inf")
    live = np.ix_(p > 0, q > 0)
    return float(-(p[p > 0, None] * overlap[live] * np.log(q[q > 0])[None, :]).sum())


def relative_entropy(
    a: DensityOperator, b: DensityOperator, kernel_tol: float = KERNEL_TOL
) -> float:
    """S(A||B) via the nonnegative double sum over joint eigenpairs.

    Each term is |<phi_i, psi_j>|^2 (p_i log p_i - p_i log q_j + q_j - p_i)
    with 0 log 0 = 0; the value is +inf exactly when ker B is not contained
    in ker A (within `kernel_tol`).
    """
    p, q, _, overlap = _joint(a, b, kernel_tol)
    if _kernel_crossing_mass(p, q, overlap) > kernel_tol:
        return float("inf")
    logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
    logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
    # p_i > 0 with q_j = 0 carries only the stray crossing mass already bounded
    # by kernel_tol, so the log q term is masked there.
    terms = (
        p[:, None] * logp[:, None]
        - np.where((p[:, None] > 0) & (q[None, :] > 0), p[:, None] * logq[None, :], 0.0)
        + q[None, :]
        - p[:, None]
    )
    return _clamp(float((overlap * terms).sum()))


def renyi_divergence(
    alpha: float,
    a: DensityOperator,
    b: DensityOperator,
    kernel_tol: float = KERNEL_TOL,
) -> float:
    """D_alpha(A||B) = log Tr(A^alpha B^(1-alpha)) / (alpha - 1), alpha in (0, 2].

    Powers are taken on supports.  At alpha = 1 this is the relative entropy
    (the limit value).  For alpha > 1 the value is +inf when ker B is not
    contained in ker A; for alpha < 1 it is +inf only when the supports are
    orthogonal.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"alpha must lie in (0, 2], got {alpha}")
    if alpha == 1.0:
        return relative_entropy(a, b, kernel_tol)
    p, q, _, overlap = _joint(a, b, kernel_tol)
    if alpha > 1.0 and _kernel_crossing_mass(p, q, overlap) > kernel_tol:
        return float("inf")
    live = np.ix_(p > 0, q > 0)
    trace = float(
        (p[p > 0, None] ** alpha * overlap[live] * q[q > 0][None, :] ** (1.0 - alpha)).sum()
    )
    if trace <= 0.0:
        return float("inf")
    return _clamp(np.log(trace) / (alpha - 1.0))


def sandwiched_renyi(
    alpha: float,
    a: DensityOperator,
    b: DensityOperator,
    kernel_tol: float = KERNEL_TOL,
) -> float:
    """D~_alpha(A||B) = log Tr((B^e A B^e)^alpha) / (alpha - 1), e = (1-alpha)/(2 alpha).

    Defined for alpha >= 1/2; alpha = 1 dispatches to the relative entropy.
    B powers are taken on the support of B; for alpha > 1 the value is +inf
    when ker B is not contained in ker A.
    """
    if alpha < 0.5:
        raise ValidationError(f"alpha must be >= 1/2, got {alpha}")
    if alpha == 1.0:
        return relative_entropy(a, b, kernel_tol)
    p, q, vb, overlap = _joint(a, b, kernel_tol)
    if alpha > 1.0 and _kernel_crossing_mass(p, q, overlap) > kernel_tol:
        return float("inf")
    exponent = (1.0 - alpha) / (2.0 * alpha)
    powered = np.where(q > 0, np.where(q > 0, q, 1.0) ** exponent, 0.0)
    # B^e A B^e written in B's eigenbasis: the same spectrum, one product fewer
    core = powered[:, None] * (vb.conj().T @ a.matrix @ vb) * powered[None, :]
    w = spectrum(core)[0]
    w = w[w > kernel_tol]
    trace = float((w**alpha).sum())
    if trace <= 0.0:
        return float("inf")
    return _clamp(np.log(trace) / (alpha - 1.0))
