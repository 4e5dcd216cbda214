"""Spectral entropy functionals: von Neumann, relative, Renyi, sandwiched Renyi.

Everything is in nats.  Eigenvalues at or below `KERNEL_TOL` are treated as
exact kernel, which makes the +infinity conventions of the divergences
testable.  A state is a `DensityOperator` or a `FactoredState`, a reference a
`FreeStateSpec` (Bernoulli weights on the Fock basis of its orbitals) or a
`DensityOperator`.  `von_neumann` reads a state's eigenvalues only.  Against a
spec, the three divergences read the state's `eigenpairs`, which every state
gives in one form (its eigenvalues above KERNEL_TOL and their eigenvectors),
in one core, `_divergences`, which also scores stacks of specs for the
searches; a density operator whose eigenvalues all lie above KERNEL_TOL is
instead rotated into the spec's Fock basis through the particle-number
blocks of its Fock unitary (`_rotated`), which needs none of its
eigenvectors.  Both routes hand their weights to one function,
`_value_or_inf`, which holds every +inf rule.  A density-operator reference
goes to `_reference`, which computes the divergences from their definitions.
"""

import numpy as np

from . import _reference
from .config import KERNEL_TOL, TOL_DIVERGENCE
from .errors import ValidationError, instance, real
from .fock import _fock_blocks, _givens_amplitudes
from .states import DensityOperator, FreeStateSpec, State, bernoulli_weights

Reference = DensityOperator | FreeStateSpec  # what a divergence accepts as its second state


def _check_pair(a: State, b: Reference):
    """Reject a pair that is not a state and a reference on one space."""
    if instance(a, State).space.d != instance(b, Reference).space.d:
        raise ValidationError("divergences require both states on the same space")


def _joint(a: State, b: FreeStateSpec):
    """Live spectrum p of a, spectrum q of the free state b, and the coefficients
    c[i, j] = <b_j|a_i> of a's live eigenvectors in b's eigenbasis: b is
    diagonal, with its Bernoulli weights, in the Fock basis of its orbitals,
    which the vectors reach by Givens rotations."""
    p, va = a.eigenpairs
    return p, bernoulli_weights(b.occupations), _givens_amplitudes(b.orbitals, va, b.space.d).T


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
    """D(A||B) from one state A to a stack of free states B, shape (...), unclamped.

    p (k,) holds the live eigenvalues of A, q (..., 2^d) the Bernoulli weights
    of each B (entries at or below KERNEL_TOL are its kernel) and c (..., k, 2^d)
    the coefficients of A's live eigenvectors in B's Fock eigenbasis, or their
    complex conjugates.  With m_j = sum_i p_i |c_ij|^2 the weight of A's
    support on B's j-th eigenvector:

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
    operator A to a spec B = diag(q), unclamped, through T = U-hat^dagger A U-hat.

    U-hat is block-diagonal over particle number (``_fock_blocks``), so in
    sector order T's block (n, m) is F_n^dagger A[lists_n, lists_m] F_m.  A's
    weights on B's eigenvectors are diag(T), which the diagonal blocks alone
    give, so the relative entropy reads those and A's eigenvalues: a
    gauge-invariant reference never sees A's coherences between sectors.  The
    sandwiched core B^e A B^e is U-hat s T s U-hat^dagger with s = q^e on B's
    support, so its trace reads ``eigvalsh`` of s T s, with A permuted once
    into sector order and multiplied by the blocks on the right and left.
    diag(T) counts every eigenvalue of A, which ``_divergence`` makes sure all
    lie above KERNEL_TOL, so the weights are those the eigenvector route
    counts, and ``_value_or_inf`` applies the same +inf rules.
    """
    blocks = _fock_blocks(b.orbitals, b.space.d)
    order = np.concatenate([lists for lists, _ in blocks])
    q = bernoulli_weights(b.occupations)[order]  # in sector order, as T
    trace = None  # alpha = 1 reads no trace
    if alpha == 1.0:
        mass = np.concatenate(
            [np.vecdot(f, a.matrix[np.ix_(lists, lists)] @ f, axis=0) for lists, f in blocks]
        ).real
    else:
        t, start = a.matrix[np.ix_(order, order)], 0
        for lists, f in blocks:  # left and right products commute: one pass per sector
            sector, start = slice(start, start + lists.size), start + lists.size
            t[:, sector] = t[:, sector] @ f
            t[sector] = f.conj().T @ t[sector]
        mass = t.diagonal().real.copy()  # t is overwritten below
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
    """One divergence, clamped: ``_reference.divergence`` for a density-operator
    reference; against a spec, ``_rotated`` for the relative entropy or a
    sandwiched divergence from a density operator whose eigenvalues all lie
    above KERNEL_TOL, so that both routes count the same weights, otherwise
    ``_divergences`` for a stack of one.  The route depends on the state's
    spectrum alone, not on what earlier calls computed."""
    _check_pair(a, b)
    if isinstance(b, DensityOperator):
        return _clamp(_reference.divergence(alpha, a, b, sandwiched))
    rotates = alpha == 1.0 or sandwiched
    if isinstance(a, DensityOperator) and rotates and a.eigenvalues.min() > KERNEL_TOL:
        return _clamp(float(_rotated(alpha, a, b)))
    return _clamp(float(_divergences(alpha, *_joint(a, b), sandwiched)))


def von_neumann(rho: State) -> float:
    """-Tr(rho log rho), in nats; always finite at finite dimension, 0 for a pure state."""
    w = instance(rho, State).eigenvalues
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
    alpha = real(alpha, "alpha")
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"alpha must lie in (0, 2], got {alpha}")
    return _divergence(alpha, a, b)


def sandwiched_renyi(alpha: float, a: State, b: Reference) -> float:
    """D~_alpha(A||B) = log Tr((B^e A B^e)^alpha) / (alpha - 1), e = (1-alpha)/(2 alpha).

    Defined for finite alpha >= 1/2; alpha = 1 is the relative entropy.  B
    powers are taken on the support of B; for alpha > 1 the value is +inf
    when ker B is not contained in ker A.  Against a spec the trace is that of
    a k x k core, k the rank of A (see `_divergences`).
    """
    alpha = real(alpha, "alpha", 0.5)
    return _divergence(alpha, a, b, sandwiched=True)
