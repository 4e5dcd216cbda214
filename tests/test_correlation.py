"""Correlation functionals: nonfreeness, Renyi relatives, restriction, chain rule."""

import math

import numpy as np
import pytest

from fermifree import (
    FreeStateSpec,
    OnePdm,
    one_pdm,
    OrbitalSpace,
    ValidationError,
    correlation_renyi,
    correlation_sandwiched,
    free_from_pdm,
    gibbs_free_density,
    nonfreeness,
    pair_state,
    relative_entropy,
    remark_state,
    renyi_divergence,
    restrict,
    sandwiched_renyi,
    slater_density,
)
from fermifree import fock
from fermifree.verify import (
    sample_density,
    sample_even_density,
    sample_pure,
    sample_unitary,
    tensor_product,
)

H23 = math.log(3.0) - (2.0 / 3.0) * math.log(2.0)


def test_nonfreeness_of_slater_is_zero():
    rng = np.random.default_rng(0)
    space = OrbitalSpace(5)
    rows = sample_unitary(5, rng)[:2, :]
    report = nonfreeness(slater_density(rows, space))
    assert report.nonfreeness < 1e-8
    assert report.cross_check < 1e-7


def test_nonfreeness_of_remark_state():
    report = nonfreeness(remark_state())
    assert abs(report.nonfreeness - H23) < 1e-12
    assert abs(report.nonfreeness - 0.636514) < 1e-5
    assert abs(report.entropy_free - 2 * H23) < 1e-12
    assert abs(report.entropy_state - H23) < 1e-12
    assert report.cross_check < 1e-7
    np.testing.assert_allclose(report.occupations, [2 / 3, 1 / 3], atol=1e-12)


def test_nonfreeness_of_pair_state():
    report = nonfreeness(pair_state())
    assert abs(report.nonfreeness - 4 * math.log(2)) < 1e-12
    assert abs(report.nonfreeness - 2.772589) < 1e-5
    assert report.entropy_state < 1e-12


def test_nonfreeness_report_identity():
    rng = np.random.default_rng(1)
    report = nonfreeness(sample_density(OrbitalSpace(3), rng))
    assert abs(
        report.nonfreeness - (report.entropy_free - report.entropy_state)
    ) < 1e-8
    assert report.cross_check < 1e-7


def test_nonfreeness_without_cross_check():
    rng = np.random.default_rng(2)
    report = nonfreeness(sample_density(OrbitalSpace(2), rng), cross_check=False)
    assert report.cross_check is None


def test_correlation_renyi_at_one_equals_nonfreeness():
    rng = np.random.default_rng(3)
    rho = sample_density(OrbitalSpace(3), rng)
    base = nonfreeness(rho, cross_check=False).nonfreeness
    assert abs(correlation_renyi(rho, 1.0) - base) < 1e-8
    assert abs(correlation_sandwiched(rho, 1.0) - base) < 1e-8


def test_correlation_functionals_vanish_on_free_input():
    space = OrbitalSpace(3)
    rho = gibbs_free_density([0.2, 0.5, 0.8], space)
    for alpha in (0.5, 2.0):
        assert correlation_renyi(rho, alpha) < 1e-9
        assert correlation_sandwiched(rho, alpha) < 1e-9


def test_correlation_sandwiched_half_on_remark_state():
    value = correlation_sandwiched(remark_state(), 0.5)
    assert math.isfinite(value) and value > 0
    # classical oracle: -2 log sum sqrt(P_n Q_n) over configurations
    weights = np.array([2 / 9, 4 / 9, 1 / 9, 2 / 9])
    p = np.array([0.0, 2 / 3, 1 / 3, 0.0])
    oracle = -2.0 * np.log(np.sqrt(p * weights).sum())
    assert abs(value - oracle) < 1e-10


# --- restriction ---------------------------------------------------------------


def test_restrict_full_set_is_identity():
    rng = np.random.default_rng(4)
    rho = sample_density(OrbitalSpace(3), rng)
    np.testing.assert_allclose(restrict(rho, [1, 2, 3]).matrix, rho.matrix)


def test_restrict_product_marginal():
    rng = np.random.default_rng(5)
    a = sample_density(OrbitalSpace(2), rng)
    b = sample_density(OrbitalSpace(1), rng)
    np.testing.assert_allclose(
        restrict(tensor_product(a, b), [1, 2]).matrix, a.matrix, atol=1e-12
    )


def test_restrict_pair_state_to_first_half():
    sub = restrict(pair_state(), [1, 2])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(sub.matrix, expected, atol=1e-12)
    value = nonfreeness(sub).nonfreeness
    assert abs(value - math.log(2)) < 1e-12
    # monotonicity witness: ln 2 <= 4 ln 2
    assert value <= nonfreeness(pair_state()).nonfreeness


def test_restrict_rejects_empty_subset():
    rng = np.random.default_rng(6)
    rho = sample_density(OrbitalSpace(2), rng)
    for keep in ([], [1.5], ["2"], [True], [np.float64(1.0)], [1, 1], [3]):
        with pytest.raises(ValidationError):
            restrict(rho, keep)
        with pytest.raises(ValidationError):
            fock.split_table(keep, rho.space.d)
    # numpy integers are orbital indices like Python ints
    np.testing.assert_array_equal(restrict(rho, [np.int64(2)]).matrix, restrict(rho, [2]).matrix)


def test_restrict_rejects_a_bare_index():
    rho = sample_density(OrbitalSpace(2), np.random.default_rng(6))
    for keep in (2, 2.0, None):
        with pytest.raises(ValidationError, match="collection"):
            restrict(rho, keep)


def test_monotone_under_restriction_spot():
    rng = np.random.default_rng(7)
    space = OrbitalSpace(4)
    for _ in range(5) :
        rho = sample_pure(space, rng)
        keep = sorted(rng.choice(4, size=2, replace=False) + 1)
        assert (
            nonfreeness(restrict(rho, keep), cross_check=False).nonfreeness
            <= nonfreeness(rho, cross_check=False).nonfreeness + 1e-7
        )


def test_additive_over_products_spot():
    rng = np.random.default_rng(8)
    a = sample_even_density(OrbitalSpace(2), rng)
    b = sample_even_density(OrbitalSpace(2), rng)
    total = nonfreeness(tensor_product(a, b), cross_check=False).nonfreeness
    parts = (
        nonfreeness(a, cross_check=False).nonfreeness
        + nonfreeness(b, cross_check=False).nonfreeness
    )
    assert abs(total - parts) < 1e-7


def test_additivity_needs_statistical_independence():
    # factors with even-odd coherences are coupled through the fermionic
    # reordering signs: the product's 1-pdm is then not block-diagonal and
    # the subsystems are not independent, so additivity does not apply
    rng = np.random.default_rng(12)
    a = sample_density(OrbitalSpace(2), rng)
    b = sample_density(OrbitalSpace(2), rng)
    gamma = one_pdm(tensor_product(a, b)).gamma
    assert np.abs(gamma[:2, 2:]).max() > 1e-3


# --- chain rule ------------------------------------------------------------------


def test_chain_rule_collapses_at_reference():
    # the chain rule S(rho || Gamma) = S(rho || reference) + S(reference || Gamma)
    # over free states Gamma: at Gamma = reference its middle term vanishes
    rho = remark_state()
    reference, _ = free_from_pdm(one_pdm(rho))
    assert relative_entropy(reference, reference) < 1e-9


def test_chain_rule_remark_vs_half_filling():
    rho = remark_state()
    gamma = gibbs_free_density([0.5, 0.5], OrbitalSpace(2))
    reference, _ = free_from_pdm(one_pdm(rho))
    first = relative_entropy(rho, reference)
    middle = relative_entropy(reference, gamma)
    third = relative_entropy(rho, gamma)
    assert all(map(math.isfinite, (first, middle, third)))
    assert abs(first + middle - third) < 1e-7
    # the reference is never beaten by another free state
    assert first <= third + 1e-12


def test_chain_rule_kernel_blocked_reference():
    # a free state fully occupying orbital 1 cannot dominate a state that
    # leaves orbital 1 partially empty
    rng = np.random.default_rng(9)
    space = OrbitalSpace(2)
    rho = sample_density(space, rng)
    blocked, _ = free_from_pdm(OnePdm(space, np.diag([1.0, 0.5]).astype(complex)))
    reference, _ = free_from_pdm(one_pdm(rho))
    first = relative_entropy(rho, reference)
    middle = relative_entropy(reference, blocked)
    third = relative_entropy(rho, blocked)
    assert math.isfinite(first)
    assert middle == float("inf")
    assert third == float("inf")


def test_chain_rule_random_pairs():
    rng = np.random.default_rng(10)
    space = OrbitalSpace(3)
    from fermifree.verify import sample_free_spec

    for _ in range(5):
        rho = sample_density(space, rng)
        gamma = sample_free_spec(space, rng).to_density()
        reference, _ = free_from_pdm(one_pdm(rho))
        first = relative_entropy(rho, reference)
        middle = relative_entropy(reference, gamma)
        third = relative_entropy(rho, gamma)
        assert abs(first + middle - third) < 1e-7


def test_minimum_property_spot():
    rng = np.random.default_rng(11)
    space = OrbitalSpace(2)
    from fermifree.verify import sample_free_spec

    rho = sample_density(space, rng)
    base = nonfreeness(rho, cross_check=False).nonfreeness
    for _ in range(25):
        gamma = sample_free_spec(space, rng).to_density()
        assert relative_entropy(rho, gamma) >= base - 1e-9


def test_maximally_mixed_state_is_free():
    # p = 1/2 for every natural orbital: the flat state factorizes exactly
    space = OrbitalSpace(3)
    from fermifree import DensityOperator

    flat = DensityOperator(space, np.eye(space.dim) / space.dim)
    report = nonfreeness(flat)
    assert report.nonfreeness < 1e-10
    assert report.cross_check < 1e-8
    np.testing.assert_allclose(report.occupations, 0.5, atol=1e-12)


def test_correlation_functionals_build_no_fock_unitary_or_free_density(monkeypatch):
    rho = sample_density(OrbitalSpace(6), np.random.default_rng(61))
    free = free_from_pdm(one_pdm(rho))[0]
    expected = {
        "nonfreeness": relative_entropy(rho, free),
        "renyi": renyi_divergence(0.5, rho, free),
        "sandwiched": sandwiched_renyi(0.5, rho, free),
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("a correlation functional built a dense free reference")

    monkeypatch.setattr(fock, "basis_change_unitary", forbidden)
    monkeypatch.setattr(FreeStateSpec, "to_density", forbidden)
    report = nonfreeness(rho, cross_check=True)
    assert abs(report.nonfreeness - expected["nonfreeness"]) <= 1e-10
    assert report.cross_check <= 1e-10
    assert abs(correlation_renyi(rho, 0.5) - expected["renyi"]) <= 1e-10
    assert abs(correlation_sandwiched(rho, 0.5) - expected["sandwiched"]) <= 1e-10
