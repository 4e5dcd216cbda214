"""Correlation functionals: nonfreeness, its Renyi relatives, and restriction.

Nonfreeness is the entropy of a state relative to the unique free state with
the same 1-pdm: an entropy difference, with the relative entropy as a cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL_NONFREENESS
from .entropy import relative_entropy, renyi_divergence, sandwiched_renyi, von_neumann
from .errors import ValidationError
from .fock import OrbitalSpace, split_table
from .pdm import natural_spectrum, one_pdm
from .states import DensityOperator, State, _probabilities, _require_state


def binary_entropy(p: np.ndarray) -> float:
    """Sum of -p log p - (1-p) log(1-p) over the entries of p, each in [0, 1], in nats."""
    p = _probabilities(p)
    out = 0.0
    for q in (p, 1.0 - p):
        live = q > 0
        out -= float((q[live] * np.log(q[live])).sum())
    return out


@dataclass(frozen=True)
class CorrelationReport:
    """Nonfreeness together with the quantities entering its evaluation.

    `cross_check` is the absolute difference between the entropy-difference
    value and the directly evaluated relative entropy (None when skipped).
    """

    nonfreeness: float
    occupations: np.ndarray
    entropy_state: float
    entropy_free: float
    cross_check: float | None


def nonfreeness(state: State, cross_check: bool = True) -> CorrelationReport:
    """Entropy of `state` relative to its free reference state.

    Computed as S(free reference) - S(state), the free entropy a binary-entropy
    sum over the natural occupations.  Values in [-TOL_NONFREENESS, 0) are
    float noise, clamped to 0; lower ones are a hard error, since the free
    entropy never falls below the state entropy.  The cross-check evaluates
    the relative entropy against the reference's spec, reached by Givens
    rotations; no Fock unitary or free density is built.
    """
    reference = natural_spectrum(one_pdm(state))
    entropy_free = binary_entropy(reference.occupations)
    entropy_state = von_neumann(state)
    value = entropy_free - entropy_state
    if value < -TOL_NONFREENESS:
        raise ValidationError(
            f"nonfreeness evaluated to {value:.3e}; the entropy difference"
            " can only be negative through a computational bug"
        )
    value = max(value, 0.0)
    deviation = None
    if cross_check:
        deviation = abs(relative_entropy(state, reference) - value)
    return CorrelationReport(
        nonfreeness=value,
        occupations=reference.occupations,
        entropy_state=entropy_state,
        entropy_free=entropy_free,
        cross_check=deviation,
    )


def correlation_renyi(state: State, alpha: float) -> float:
    """D_alpha of `state` from its free reference state, alpha in (0, 2]."""
    return renyi_divergence(alpha, state, natural_spectrum(one_pdm(state)))


def correlation_sandwiched(state: State, alpha: float) -> float:
    """Sandwiched D_alpha of `state` from its free reference state, alpha >= 1/2."""
    return sandwiched_renyi(alpha, state, natural_spectrum(one_pdm(state)))


def restrict(state: State, keep) -> DensityOperator:
    """Substate delimited by the orbitals in `keep` (fermionic partial trace).

    Matrix elements are summed over the complement's occupation lists with
    the reordering signs of the tensor factorization (the state's
    ``partial_trace``); the result's 1-pdm is the keep x keep compression of
    the input's.
    """
    _require_state(state)
    space = state.space
    try:
        keep = tuple(keep)
    except TypeError as exc:
        raise ValidationError(
            f"kept orbitals must be a collection of indices, got {keep!r}"
        ) from exc
    _, n2, sign = split_table(keep, space.d)
    # joined[b, a] is the occupation list with factors (a, b): for each
    # complement list b, the kept lists a appear in increasing order
    joined = np.argsort(n2, kind="stable").reshape(1 << (space.d - len(keep)), -1)
    out = state.partial_trace(joined, sign[joined])
    labels = space.labels
    sub_labels = tuple(labels[i - 1] for i in sorted(keep)) if labels is not None else None
    return DensityOperator(OrbitalSpace(len(keep), sub_labels), out)
