"""Nonfreeness and Renyi correlation functionals of many-fermion states.

Density operators live on the 2^d-dimensional Fock space of d reference
orbitals.  The package builds states, extracts 1-particle density matrices,
constructs the unique free (gauge-invariant quasi-free) state with a given
1-pdm, and evaluates entropy-based correlation functionals against it, with
a brute-force oracle that double-checks the structural theorems.
"""

from ._version import __version__
from .correlation import (
    CorrelationReport,
    binary_entropy,
    correlation_renyi,
    correlation_sandwiched,
    nonfreeness,
    restrict,
)
from .entropy import (
    relative_entropy,
    renyi_divergence,
    sandwiched_renyi,
    von_neumann,
)
from .errors import CapacityError, ValidationError
from .fock import OrbitalSpace, basis_change_unitary
from .free import free_from_pdm, purify_free, wick_check
from .pdm import OnePdm, natural_spectrum, one_pdm
from .states import (
    DensityOperator,
    FreeStateSpec,
    PureState,
    gibbs_free_density,
    hubbard_ground_amplitudes,
    mixture,
    pure_density,
    slater_amplitudes,
)
from .verify import (
    VerificationReport,
    cross_entropy,
    min_relent_search,
    pair_state,
    property_suite,
    remark_state,
    renyi_min_search,
    slater_density,
)

__all__ = [
    "__version__",
    "CapacityError",
    "CorrelationReport",
    "DensityOperator",
    "FreeStateSpec",
    "OnePdm",
    "OrbitalSpace",
    "PureState",
    "ValidationError",
    "VerificationReport",
    "basis_change_unitary",
    "binary_entropy",
    "correlation_renyi",
    "correlation_sandwiched",
    "cross_entropy",
    "free_from_pdm",
    "gibbs_free_density",
    "hubbard_ground_amplitudes",
    "min_relent_search",
    "mixture",
    "natural_spectrum",
    "nonfreeness",
    "one_pdm",
    "pair_state",
    "property_suite",
    "pure_density",
    "purify_free",
    "relative_entropy",
    "remark_state",
    "renyi_divergence",
    "renyi_min_search",
    "restrict",
    "sandwiched_renyi",
    "slater_amplitudes",
    "slater_density",
    "von_neumann",
    "wick_check",
]
