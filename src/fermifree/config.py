"""Numerical tolerances and capacity limits shared across the package."""

import os

from .errors import ValidationError, integer

# Hard ceiling on the number of reference orbitals.  Fock dimension is 2**d,
# so the default keeps dense 2^d x 2^d complex matrices at desk scale.
D_MAX_DEFAULT = 12

# Validation tolerances.
TOL_HERM = 1e-10       # Hermiticity of density matrices / 1-pdms
TOL_PSD = 1e-10        # allowed negative eigenvalue excursion
TOL_TRACE = 1e-10      # unit-trace deviation
TOL_UNITARY = 1e-10    # deviation of U @ U^dagger from the identity
TOL_NORM = 1e-12       # unit-norm deviation of pure-state amplitudes
TOL_OCCUPATION = 1e-10  # 1-pdm eigenvalue excursion outside [0, 1]
TOL_PHASE_PIVOT = 1e-10  # smallest orbital component that fixes its phase
TOL_DIVERGENCE = 1e-9  # divergences in [-tol, 0) clamp to 0, lower is an error
TOL_NONFREENESS = 1e-7  # nonfreeness noise clamp and cross-check breach gate

# Eigenvalues at or below this threshold are treated as exact kernel in all
# spectral functions (entropies, divergences, kernel-inclusion predicates).
KERNEL_TOL = 1e-12

ENV_D_MAX = "FERMIFREE_DMAX"


def d_max() -> int:
    """Current orbital-count ceiling; the FERMIFREE_DMAX env var overrides."""
    raw = os.environ.get(ENV_D_MAX)
    if raw is None:
        return D_MAX_DEFAULT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{ENV_D_MAX} must be an integer, got {raw!r}") from exc
    return integer(value, ENV_D_MAX, 1)
