"""Spectral entropy functionals: von Neumann, relative, Renyi, sandwiched Renyi.

Everything is in nats.  Eigenvalues at or below `KERNEL_TOL` are treated as
exact kernel, which makes the +infinity conventions of the divergences
testable.  A state is a `DensityOperator` or a `FactoredState`, a reference a
`DensityOperator` or a `FreeStateSpec` (Bernoulli weights on the Fock basis of
its orbitals).  `von_neumann` reads a state's eigenvalues only.  The three
divergences read its `eigenpairs`, which every state gives in one form (its
eigenvalues above KERNEL_TOL and their eigenvectors), in one core,
`_divergences`, which also scores stacks of references for the searches; a
density operator whose eigenvalues all lie above KERNEL_TOL is instead rotated
into a spec's Fock basis (`_rotated`), which needs none of its eigenvectors.
Both routes hand their weights to one function, `_value_or_inf`, which holds
every +inf rule.
"""

import numpy as np

from .config import KERNEL_TOL, TOL_DIVERGENCE
from .errors import ValidationError
from .fock import _givens_amplitudes
from .states import (
    DensityOperator, FreeStateSpec, State, _real, _require_state, bernoulli_weights,
)

Reference = DensityOperator | FreeStateSpec  # what a divergence accepts as its second state


def _check_pair(a: State, b: Reference):
    """Reject a pair that is not a state and a reference on one space."""
    _require_state(a)
    if not isinstance(b, Reference):
        raise ValidationError(
            f"expected a DensityOperator or FreeStateSpec, not {type(b).__name__}"
        )
    if a.space.d != b.space.d:
        raise ValidationError("divergences require both states on the same space")


def _joint(a: State, b: Reference):
    """Live spectrum p of a, spectrum q of b, and the coefficients
    c[i, j] = <b_j|a_i> of a's live eigenvectors in b's eigenbasis.

    A free state given by its spec is diagonal, with its Bernoulli weights, in
    the Fock basis of its orbitals, which the vectors reach by Givens rotations.
    A density operator's kernel, when it has one, enters as one more eigenvalue
    0, on which row i holds the part of a_i outside b's support,
    sqrt(|a_i|^2 - sum_j |c_ij|^2 / |b_j|^2): a pure state's amplitudes may
    miss unit norm by TOL_NORM, more than KERNEL_TOL.
    """
    p, va = a.eigenpairs
    if isinstance(b, FreeStateSpec):
        return p, bernoulli_weights(b.occupations), _givens_amplitudes(b.orbitals, va, b.space.d).T
    q, vb = b.eigenpairs
    c = (vb.conj().T @ va).T
    if q.size < b.dim:
        inside = (np.abs(c) ** 2 / np.vecdot(vb, vb, axis=0).real).sum(axis=1)
        rest = np.sqrt(np.maximum(0.0, np.vecdot(va, va, axis=0).real - inside))
        q, c = np.append(q, 0.0), np.column_stack([c, rest])
    return p, q, c


def _powers(q, exponent: float):
    """q ** exponent on B's support (above KERNEL_TOL), 0 on its kernel."""
    live = q > KERNEL_TOL
    return np.where(live, np.where(live, q, 1.0) ** exponent, 0.0)


def _value_or_inf(alpha: float, p, q, mass, trace, sandwiched: bool) -> np.ndarray:
    """D(A||B) for each reference B, unclamped, with every +inf rule, from A's
    live eigenvalues p, B's spectrum q and A's weights m = `mass` on B's
    eigenvectors; at alpha != 1 from the `trace` of the divergence as well.

    alpha = 1: S(A||B) = sum p log p - sum_j m_j log q_j + sum q - sum p;
    otherwise log(trace) / (alpha - 1), +inf where the trace vanishes.  From
    alpha = 1 up the value is +inf where more than KERNEL_TOL of m lies in
    ker B (a crossing), and for Petz below alpha = 1 where at most KERNEL_TOL
    of m lies on B's support (orthogonal supports).
    """
    live = q > KERNEL_TOL
    if alpha == 1.0:
        log_q, q_live = np.log(np.where(live, q, 1.0)), np.where(live, q, 0.0)
        values = (p * np.log(p)).sum() - np.vecdot(log_q, mass) + q_live.sum(axis=-1) - p.sum()
    else:
        positive = trace > 0.0
        values = np.where(positive, np.log(np.where(positive, trace, 1.0)) / (alpha - 1.0), np.inf)
    if alpha >= 1.0:
        return np.where(np.where(live, 0.0, mass).sum(axis=-1) > KERNEL_TOL, np.inf, values)
    if not sandwiched:
        return np.where(np.where(live, mass, 0.0).sum(axis=-1) <= KERNEL_TOL, np.inf, values)
    return values


def _power_trace(w, alpha: float):
    """sum w^alpha over the eigenvalues w of a sandwiched core above KERNEL_TOL."""
    return (np.where(w > KERNEL_TOL, w, 0.0) ** alpha).sum(axis=-1)


def _divergences(alpha: float, p, q, c, sandwiched: bool = False) -> np.ndarray:
    """D(A||B) from one state A to a stack of references B, shape (...), unclamped.

    p (k,) holds the live eigenvalues of A, q (..., n) the spectrum of each B
    (entries at or below KERNEL_TOL are its kernel) and c (..., k, n) the
    coefficients of A's live eigenvectors in B's eigenbasis, or their complex
    conjugates.  With m_j = sum_i p_i |c_ij|^2 the weight of A's support on
    B's j-th eigenvector:

    - alpha = 1: the double sum over joint eigenpairs of `relative_entropy`
      summed over i, since each row of |c|^2 sums to 1;
    - Petz: Tr A^alpha B^(1-alpha) = sum_ij p_i^alpha |c_ij|^2 q_j^(1-alpha);
    - sandwiched, e = (1-alpha)/(2 alpha): B^e A B^e = X X^dagger with
      X = B^e V_A sqrt(p), whose nonzero eigenvalues are those of the k x k
      matrix X^dagger X, the conjugate of y y^dagger, y_ij = sqrt(p_i) c_ij q_j^e;
      no 2^d x 2^d core is formed.

    ``_value_or_inf`` turns m and the trace into the values and applies the
    +inf rules.
    """
    overlap = np.abs(c) ** 2
    trace = None  # alpha = 1 reads no trace
    if alpha != 1.0 and sandwiched:
        y = np.sqrt(p)[:, None] * c * _powers(q, (1.0 - alpha) / (2.0 * alpha))[..., None, :]
        trace = _power_trace(np.linalg.eigvalsh(y @ y.conj().swapaxes(-1, -2)), alpha)
    elif alpha != 1.0:
        trace = np.vecdot(_powers(q, 1.0 - alpha), p**alpha @ overlap)
    return _value_or_inf(alpha, p, q, p @ overlap, trace, sandwiched)


def _rotated(alpha: float, a: DensityOperator, b: FreeStateSpec) -> float:
    """The relative entropy (alpha = 1) or sandwiched divergence from a density
    operator A to a spec B = diag(q), unclamped, through T = U-hat^dagger A U-hat,
    two Givens passes ``G(G(A)^dagger)`` with G(M) = U-hat^dagger M.

    A's weights on B's eigenvectors are diag(T), so the relative entropy reads
    diag(T) and A's eigenvalues.  The sandwiched core B^e A B^e is
    U-hat s T s U-hat^dagger with s = q^e on B's support, so its trace reads
    ``eigvalsh`` of s T s.  diag(T) counts every eigenvalue of A, which
    ``_divergence`` makes sure all lie above KERNEL_TOL, so the weights are
    those the eigenvector route counts, and ``_value_or_inf`` applies the same
    +inf rules.
    """
    q = bernoulli_weights(b.occupations)
    u, d = b.orbitals, b.space.d
    t = _givens_amplitudes(u, _givens_amplitudes(u, a.matrix, d).conj().T, d)
    mass = t.diagonal().real.copy()  # t is overwritten below
    trace = None  # alpha = 1 reads no trace
    if alpha != 1.0:
        s = _powers(q, (1.0 - alpha) / (2.0 * alpha))
        t += t.conj().T
        t *= s[:, None] / 2
        t *= s
        trace = _power_trace(np.linalg.eigvalsh(t), alpha)
    return _value_or_inf(alpha, a.eigenvalues, q, mass, trace, sandwiched=True)


def _clamp(value: float) -> float:
    if value < -TOL_DIVERGENCE:
        raise ValidationError(f"divergence evaluated to {value:.3e} < {-TOL_DIVERGENCE:.0e}")
    # not max(value, 0.0), which keeps -0.0: the entropy of an exact projector
    return value if value > 0.0 else 0.0


def _divergence(alpha: float, a: State, b: Reference, sandwiched: bool = False) -> float:
    """One divergence, clamped: ``_rotated`` for the relative entropy or a
    sandwiched divergence from a density operator whose eigenvalues all lie
    above KERNEL_TOL to a spec, so that both routes count the same weights;
    otherwise ``_divergences`` for a stack of one.  The route depends on the
    state's spectrum alone, not on what earlier calls computed."""
    _check_pair(a, b)
    dense_to_spec = isinstance(a, DensityOperator) and isinstance(b, FreeStateSpec)
    if dense_to_spec and (alpha == 1.0 or sandwiched) and a.eigenvalues.min() > KERNEL_TOL:
        return _clamp(float(_rotated(alpha, a, b)))
    return _clamp(float(_divergences(alpha, *_joint(a, b), sandwiched)))


def von_neumann(rho: State) -> float:
    """-Tr(rho log rho), in nats; always finite at finite dimension, 0 for a pure state."""
    _require_state(rho)
    w = rho.eigenvalues
    w = w[w > KERNEL_TOL]
    return _clamp(float(-(w * np.log(w)).sum()))


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
