"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; none is deferred to calibration.
"""

import math

import numpy as np

from fermifree import (
    OnePdm,
    OrbitalSpace,
    correlation_renyi,
    correlation_sandwiched,
    cross_entropy,
    free_from_pdm,
    min_relent_search,
    nonfreeness,
    one_pdm,
    pair_state,
    purify_free,
    relative_entropy,
    remark_state,
    renyi_min_search,
    restrict,
    slater_density,
    wick_check,
)
from fermifree.states import hubbard_ground_state
from fermifree.verify import (
    kernel_inclusion_1pdm,
    sample_density,
    sample_even_density,
    sample_free_spec,
    sample_pure,
    sample_unitary,
    tensor_product,
    trace_distance,
)

LN2 = math.log(2.0)


def _report(number: int, label: str, ok: bool, detail: str = ""):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_slater_zero():
    rng = np.random.default_rng(101)
    worst_nf, worst_cross = 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(0, d + 1))
        rows = sample_unitary(d, rng)[:n, :]
        report = nonfreeness(slater_density(rows, OrbitalSpace(d)))
        worst_nf = max(worst_nf, report.nonfreeness)
        worst_cross = max(worst_cross, report.cross_check)
    _report(
        1,
        "Slater determinants have zero nonfreeness",
        worst_nf < 1e-8 and worst_cross < 1e-7,
        f"worst value {worst_nf:.2e}, worst cross-check {worst_cross:.2e}",
    )


def test_criterion_02_entropy_difference_matches_double_sum():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        rho = sample_density(OrbitalSpace(d), rng)
        worst = max(worst, nonfreeness(rho).cross_check)
    _report(
        2,
        "double-sum relative entropy equals the occupation-entropy difference",
        worst < 1e-7,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_03_minimum_property_search():
    rng = np.random.default_rng(103)
    worst_undershoot = 0.0
    worst_distance = 0.0
    near_optimal = 0
    cases = [(2, 20), (3, 10)]
    for d, count in cases:
        space = OrbitalSpace(d)
        for k in range(count):
            rho = sample_density(space, rng)
            base = nonfreeness(rho, cross_check=False).nonfreeness
            best_spec, best_value = min_relent_search(rho, seed=int(rng.integers(1 << 31)))
            worst_undershoot = max(worst_undershoot, base - best_value)
            if best_value <= base + 1e-3:
                near_optimal += 1
                worst_distance = max(
                    worst_distance, trace_distance(best_spec.to_density(), free_from_pdm(one_pdm(rho))[0])
                )
    _report(
        3,
        "random search over free states never beats the free reference",
        worst_undershoot < 1e-6 and worst_distance < 0.05 and near_optimal > 0,
        f"undershoot {worst_undershoot:.2e}, near-optimal {near_optimal}/30,"
        f" worst distance {worst_distance:.3f}",
    )


def test_criterion_04_chain_rule():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        space = OrbitalSpace(d)
        rho = sample_density(space, rng)
        gamma = sample_free_spec(space, rng).to_density()
        reference, _ = free_from_pdm(one_pdm(rho))
        first, middle, third = (
            relative_entropy(rho, reference),
            relative_entropy(reference, gamma),
            relative_entropy(rho, gamma),
        )
        worst = max(worst, abs(first + middle - third))
    _report(
        4,
        "relative-entropy chain identity over free references",
        worst < 1e-7,
        f"worst defect {worst:.2e}",
    )


def test_criterion_05_renyi_counterexample():
    rho = remark_state()
    baseline_half = correlation_sandwiched(rho, 0.5)
    _, best_half, improved_half = renyi_min_search(rho, 0.5, seed=105, sandwiched=True)
    margin = baseline_half - best_half
    base_one = nonfreeness(rho, cross_check=False).nonfreeness
    _, best_one, improved_one = renyi_min_search(rho, 1.0, seed=105)
    resolution_gap = best_one - base_one
    ok = (
        improved_half
        and margin > 1e-4
        and not improved_one
        and -1e-9 <= resolution_gap < 1e-3
    )
    _report(
        5,
        "free reference fails to minimize sandwiched alpha=1/2 but minimizes alpha=1",
        ok,
        f"improvement {margin:.4f}, alpha=1 grid gap {resolution_gap:.2e}",
    )


def test_criterion_06_derived_values():
    remark_value = nonfreeness(remark_state()).nonfreeness
    pair_value = nonfreeness(pair_state()).nonfreeness
    restricted_value = nonfreeness(restrict(pair_state(), [1, 2])).nonfreeness
    ok = (
        abs(remark_value - 0.636514) < 1e-5
        and abs(pair_value - 2.772589) < 1e-5
        and abs(restricted_value - 0.693147) < 1e-5
        and restricted_value <= pair_value
    )
    _report(
        6,
        "frozen nonfreeness values",
        ok,
        f"{remark_value:.6f}, {pair_value:.6f}, {restricted_value:.6f}",
    )


def test_criterion_07_additivity_and_monotonicity():
    rng = np.random.default_rng(107)
    worst_add = 0.0
    for _ in range(50):
        a = sample_even_density(OrbitalSpace(2), rng)
        b = sample_even_density(OrbitalSpace(2), rng)
        prod = tensor_product(a, b)
        worst_add = max(
            worst_add,
            abs(
                nonfreeness(prod, cross_check=False).nonfreeness
                - nonfreeness(a, cross_check=False).nonfreeness
                - nonfreeness(b, cross_check=False).nonfreeness
            ),
        )
        for alpha in (0.5, 2.0):
            worst_add = max(
                worst_add,
                abs(
                    correlation_renyi(prod, alpha)
                    - correlation_renyi(a, alpha)
                    - correlation_renyi(b, alpha)
                ),
                abs(
                    correlation_sandwiched(prod, alpha)
                    - correlation_sandwiched(a, alpha)
                    - correlation_sandwiched(b, alpha)
                ),
            )
    worst_mono = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        space = OrbitalSpace(d)
        rho = sample_pure(space, rng) if rng.uniform() < 0.5 else sample_density(space, rng)
        k = int(rng.integers(1, d))
        keep = sorted(rng.choice(d, size=k, replace=False) + 1)
        sub = restrict(rho, keep)
        worst_mono = max(
            worst_mono,
            nonfreeness(sub, cross_check=False).nonfreeness
            - nonfreeness(rho, cross_check=False).nonfreeness,
        )
        for alpha in (0.5, 2.0):
            for fn in (correlation_renyi, correlation_sandwiched):
                full = fn(rho, alpha)
                if math.isinf(full):
                    continue
                worst_mono = max(worst_mono, fn(sub, alpha) - full)
    _report(
        7,
        "additivity over independent products and monotonicity under restriction",
        worst_add < 1e-7 and worst_mono < 1e-7,
        f"worst additivity {worst_add:.2e}, worst monotonicity {worst_mono:.2e}",
    )


def test_criterion_08_purification_roundtrip():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = rng.uniform(0.0, 1.0, n)
        space = OrbitalSpace(n)
        target, spec = free_from_pdm(OnePdm(space, np.diag(p).astype(complex)))
        rows = purify_free(spec)
        doubled = slater_density(rows, OrbitalSpace(2 * n))
        recovered = restrict(doubled, range(1, n + 1))
        worst = max(worst, 2.0 * trace_distance(recovered, target))
    _report(
        8,
        "free states are restrictions of Slater determinants on doubled orbitals",
        worst < 1e-8,
        f"worst trace norm {worst:.2e}",
    )


def test_criterion_09_wick_and_uniqueness():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 5))
        spec = sample_free_spec(OrbitalSpace(d), rng)
        ok, violation = wick_check(spec.to_density(), tol=1e-10)
        worst = max(worst, violation)
        if not ok:
            break
    pair_ok, pair_violation = wick_check(pair_state(), tol=1e-10)
    _report(
        9,
        "sampled free states satisfy order-2 determinant relations; the pair state breaks them",
        worst < 1e-10 and not pair_ok and pair_violation > 0.1,
        f"worst free violation {worst:.2e}, pair violation {pair_violation:.2f}",
    )


def test_criterion_10_trace_identity_and_kernel_boundaries():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        space = OrbitalSpace(d)
        rho = sample_density(space, rng)
        gamma = sample_free_spec(space, rng).to_density()
        worst = max(
            worst, abs(cross_entropy(rho, gamma) - cross_entropy(free_from_pdm(one_pdm(rho))[0], gamma))
        )
    # kernel-mismatch boundary: a free state fully occupying an orbital that
    # the state leaves partially empty sends both traces to +inf
    boundary_ok = True
    for _ in range(10):
        d = int(rng.integers(2, 4))
        space = OrbitalSpace(d)
        p = rng.uniform(0.2, 0.8, d)
        p[0] = 1.0
        blocked, _ = free_from_pdm(OnePdm(space, np.diag(p).astype(complex)))
        rho = sample_density(space, rng)
        boundary_ok = boundary_ok and math.isinf(cross_entropy(rho, blocked))
        boundary_ok = boundary_ok and math.isinf(cross_entropy(free_from_pdm(one_pdm(rho))[0], blocked))
    # kernel predicates on the 1-pdm agree with direct Fock-space inclusion
    predicates_ok = True
    for _ in range(30):
        d = int(rng.integers(1, 4))
        space = OrbitalSpace(d)
        p = np.array(
            [rng.choice([0.0, 1.0, rng.uniform(0.1, 0.9)]) for _ in range(d)]
        )
        gamma_state, _ = free_from_pdm(OnePdm(space, np.diag(p).astype(complex)))
        rho = sample_density(space, rng, rank=int(rng.integers(1, space.dim + 1)))
        w, v = np.linalg.eigh(gamma_state.matrix)
        direct = all(
            np.linalg.norm(rho.matrix @ v[:, k]) < 1e-8
            for k in range(w.size)
            if w[k] < 1e-8
        )
        ker_ok, coker_ok = kernel_inclusion_1pdm(
            one_pdm(gamma_state), one_pdm(rho), tol=1e-8
        )
        predicates_ok = predicates_ok and (direct == (ker_ok and coker_ok))
    _report(
        10,
        "trace identity over free references, with matching +inf kernel conventions",
        worst < 1e-8 and boundary_ok and predicates_ok,
        f"worst finite-case defect {worst:.2e}",
    )


HUBBARD_SWEEP_FIXTURE = {
    0.0: 0.0,
    1.0: 0.3103367396094908,
    2.0: 0.8265572555399354,
    4.0: 1.6659821227987501,
    8.0: 2.358057942940192,
}


def test_criterion_11_hubbard_sanity():
    free_ok = True
    for sites in (2, 3, 4):
        rho = hubbard_ground_state(sites, 1.0, 0.0, (sites + 1) // 2, sites // 2)
        free_ok = free_ok and nonfreeness(rho, cross_check=False).nonfreeness < 1e-8
    values = []
    fixture_ok = True
    for u, expected in HUBBARD_SWEEP_FIXTURE.items():
        rho = hubbard_ground_state(2, 1.0, u, 1, 1)
        value = nonfreeness(rho, cross_check=False).nonfreeness
        values.append(value)
        fixture_ok = fixture_ok and abs(value - expected) < 1e-8
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    _report(
        11,
        "noninteracting chains are free; interaction strengthens correlation",
        free_ok and monotone and fixture_ok,
        "sweep " + ", ".join(f"{v:.6f}" for v in values),
    )
