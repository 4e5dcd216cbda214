"""Brute-force searches and the randomized property suite."""

import dataclasses
import itertools
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

import fermifree
import fermifree.cli
from fermifree import (
    FreeStateSpec,
    OrbitalSpace,
    ValidationError,
    basis_change_unitary,
    correlation_sandwiched,
    free_from_pdm,
    gibbs_free_density,
    min_relent_search,
    natural_spectrum,
    one_pdm,
    pair_state,
    property_suite,
    remark_state,
    renyi_divergence,
    renyi_min_search,
    sandwiched_renyi,
    slater_amplitudes,
    slater_density,
    wick_check,
)
from fermifree.entropy import _divergences
from fermifree.fock import ladder_table
from fermifree.io import dumps
from fermifree.states import FactoredState, bernoulli_weights, hubbard_ground_state
from fermifree.verify import (
    GRID_POINTS,
    GRID_RANGE,
    IMPROVEMENT_MARGIN,
    REFINE_STEPS,
    kernel_inclusion_1pdm,
    sample_density,
    sample_free_spec,
    sample_free_specs,
    sample_pure,
    sample_unitary,
    tensor_product,
    trace_distance,
)
from sparse_ladder import sparse_ladder

H23 = math.log(3.0) - (2.0 / 3.0) * math.log(2.0)


def test_sampler_free_states_pass_wick():
    rng = np.random.default_rng(0)
    for _ in range(5):
        spec = sample_free_spec(OrbitalSpace(3), rng)
        ok, _ = wick_check(spec.to_density())
        assert ok


def test_min_search_on_free_input_finds_zero():
    rho = gibbs_free_density([0.3, 0.7], OrbitalSpace(2))
    best_spec, best_value = min_relent_search(rho, seed=1)
    assert best_value < 1e-4
    assert trace_distance(best_spec.to_density(), rho) < 0.05


def test_min_search_remark_state():
    best_spec, best_value = min_relent_search(remark_state(), seed=2)
    assert abs(best_value - 0.636514) < 1e-3
    assert best_value >= H23 - 1e-6
    assert trace_distance(best_spec.to_density(), free_from_pdm(one_pdm(remark_state()))[0]) < 0.05


def test_min_search_pair_state_lower_bound():
    _, best_value = min_relent_search(pair_state(), seed=3)
    assert best_value >= 4 * math.log(2) - 1e-2


def test_renyi_search_remark_sandwiched_half_improves():
    _, best, improved = renyi_min_search(remark_state(), 0.5, seed=4, sandwiched=True)
    baseline = correlation_sandwiched(remark_state(), 0.5)
    assert improved
    assert best < baseline - 1e-4


def test_renyi_search_remark_alpha_one_no_improvement():
    _, best, improved = renyi_min_search(remark_state(), 1.0, seed=5)
    assert not improved
    assert best >= H23 - 1e-9


def _grid_test_states():
    rng = np.random.default_rng(11)
    space = OrbitalSpace(2)
    return {
        "wishart": sample_density(space, rng),
        "rank2": sample_density(space, rng, rank=2),
        "pure": sample_pure(space, rng),
        "remark": remark_state(),
    }


GRID_TEST_STATES = _grid_test_states()
# A coarse subgrid of the search grid, plus the boundary occupations whose
# zero Bernoulli weights exercise the kernel conventions.
SUBGRID = np.concatenate(
    [[0.0], np.linspace(*GRID_RANGE, GRID_POINTS)[::33], [1.0]]
)


def _dense_grid(rho, alpha, sandwiched, orbitals, grid):
    """The loop reference: one validated candidate and one dense divergence per point."""
    divergence = sandwiched_renyi if sandwiched else renyi_divergence
    return np.array(
        [
            [
                divergence(
                    alpha, rho, FreeStateSpec(rho.space, (p1, p2), orbitals).to_density()
                )
                for p2 in grid
            ]
            for p1 in grid
        ]
    )


def _stacked(alpha, rho, fock_u, p, sandwiched=False):
    """Divergences from `rho` to the free states with occupations p (n, d) and
    Fock unitaries fock_u, scored as one stack by the divergences' core, as
    the searches score them: c = V^dagger F for the live eigenvectors V."""
    live, vectors = rho.eigenpairs
    c = vectors.conj().T @ fock_u
    return np.maximum(_divergences(alpha, live, bernoulli_weights(p), c, sandwiched), 0.0)


@pytest.mark.parametrize("name", sorted(GRID_TEST_STATES))
@pytest.mark.parametrize(
    "alpha,sandwiched",
    [(0.5, False), (1.0, False), (2.0, False), (0.5, True), (2.0, True)],
)
def test_grid_scorer_matches_dense_loop(name, alpha, sandwiched):
    rho = GRID_TEST_STATES[name]
    _, spec = free_from_pdm(one_pdm(rho))
    fock_u = basis_change_unitary(spec.orbitals, rho.space)
    rows = [np.column_stack([np.full_like(SUBGRID, p1), SUBGRID]) for p1 in SUBGRID]
    batched = np.array([_stacked(alpha, rho, fock_u, p, sandwiched) for p in rows])
    dense = _dense_grid(rho, alpha, sandwiched, spec.orbitals, SUBGRID)
    np.testing.assert_array_equal(np.isinf(batched), np.isinf(dense))
    finite = np.isfinite(dense)
    assert finite[1:-1, 1:-1].all()
    np.testing.assert_allclose(batched[finite], dense[finite], rtol=0.0, atol=1e-10)


def _stacked_test_cases(d):
    """Wishart, rank-deficient, pure and kernel-crossing states on d orbitals,
    with 12 candidates from `sample_free_specs`, some with boundary occupations.

    Candidate 0 has orbital 1 empty, and the kernel-crossing state mixes the
    Slater determinant of that orbital into a Wishart state: half its weight
    lies in the candidate's kernel, so its divergences to candidate 0 are +inf
    for alpha >= 1 and finite below.
    """
    rng = np.random.default_rng(120 + d)
    space = OrbitalSpace(d)
    p, u = sample_free_specs(space, rng, 12)
    p[0::3, 0] = 0.0
    p[1::3, -1] = 1.0
    wishart = sample_density(space, rng)
    states = {
        "wishart": wishart,
        "rank-deficient": sample_density(space, rng, rank=max(1, space.dim // 2)),
        "pure": sample_pure(space, rng),
        "kernel-crossing": fermifree.mixture(
            [(0.5, wishart), (0.5, fermifree.slater_density(u[0][:, :1].T, space))]
        ),
    }
    return states, p, u


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "alpha,sandwiched",
    [(0.5, False), (2.0, False), (0.5, True), (2.0, True), (1.0, False)],
)
def test_stacked_scorer_matches_per_candidate_divergences(d, alpha, sandwiched):
    states, p, u = _stacked_test_cases(d)
    divergence = sandwiched_renyi if sandwiched else renyi_divergence
    fock_u = basis_change_unitary(u, OrbitalSpace(d))
    for name, rho in states.items():
        stacked = _stacked(alpha, rho, fock_u, p, sandwiched)
        single = np.array(
            [divergence(alpha, rho, FreeStateSpec(rho.space, pk, uk)) for pk, uk in zip(p, u)]
        )
        np.testing.assert_array_equal(np.isinf(stacked), np.isinf(single), err_msg=name)
        finite = np.isfinite(single)
        np.testing.assert_allclose(stacked[finite], single[finite], rtol=0, atol=1e-10)
        if name == "kernel-crossing":
            assert np.isinf(stacked[0]) == (alpha >= 1.0)


def test_petz_below_one_is_infinite_on_orthogonal_supports():
    """The Slater state of a free state's empty natural orbital lies in the
    free state's kernel up to rounding, so D_alpha (alpha < 1) is +inf, both
    against the spec and through a stacked Fock unitary; the Slater state of
    an occupied orbital is the finite control."""
    space = OrbitalSpace(2)
    for seed, alpha, empty in itertools.product(range(10), (0.3, 0.5, 0.9), (0, 1)):
        u = sample_unitary(2, np.random.default_rng(seed))
        p = np.full(2, 0.6)
        p[empty] = 0.0
        spec = FreeStateSpec(space, p, u)
        for orbital, orthogonal in ((empty, True), (1 - empty, False)):
            rho = slater_density(u[:, orbital][None, :], space)
            stacked = _stacked(alpha, rho, basis_change_unitary(u[None], space), p[None])
            values = [
                renyi_divergence(alpha, rho, spec),
                renyi_divergence(alpha, slater_amplitudes(u[:, orbital][None, :], space), spec),
                float(stacked[0]),
            ]
            assert all(np.isinf(v) == orthogonal for v in values), (seed, alpha, empty, values)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_sample_free_specs_equal_single_draws(d):
    space = OrbitalSpace(d)
    stacked_rng, single_rng = np.random.default_rng(d), np.random.default_rng(d)
    p, u = sample_free_specs(space, stacked_rng, 40)
    for pk, uk in zip(p, u):
        spec = sample_free_spec(space, single_rng)
        np.testing.assert_array_equal(pk, spec.occupations)
        np.testing.assert_array_equal(uk, spec.orbitals)
    assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
    empty_p, empty_u = sample_free_specs(space, stacked_rng, 0)
    assert empty_p.shape == (0, d) and empty_u.shape == (0, d, d)


# Outputs of the searches before their random phase was scored as stacks,
# from seed s: the sequential phase kept the first strict minimum
# of the per-candidate divergences, which the stacked phase must reproduce.
SEQUENTIAL_SEARCH_OUTPUTS = {
    0: ((0.41133156791592307, True), (0.6365141682948126, False), 0.6365141786277848,
        2.7725887222397776),
    1: ((0.41133156791592307, True), (0.6365141682948126, False), 0.636514178095335,
        2.7725887222397776),
    2: ((0.41133156791592307, True), (0.6365141682948126, False), 0.6365141684386089,
        2.772588722239779),
    3: ((0.41133156791592307, True), (0.6365141682948126, False), 0.6365141718353092,
        2.772588722239777),
}


@pytest.mark.parametrize("seed", sorted(SEQUENTIAL_SEARCH_OUTPUTS))
def test_searches_reproduce_the_sequential_outputs(seed):
    sandwiched_half, alpha_one, remark_min, pair_min = SEQUENTIAL_SEARCH_OUTPUTS[seed]
    for alpha, sandwiched, (best, improved) in (
        (0.5, True, sandwiched_half),
        (1.0, False, alpha_one),
    ):
        _, value, flag = renyi_min_search(remark_state(), alpha, seed, sandwiched)
        assert flag is improved
        assert abs(value - best) <= 1e-12
    assert abs(min_relent_search(remark_state(), seed)[1] - remark_min) <= 1e-12
    assert abs(min_relent_search(pair_state(), seed)[1] - pair_min) <= 1e-12


def test_renyi_search_remark_pinned_values():
    _, best, improved = renyi_min_search(remark_state(), 0.5, seed=0, sandwiched=True)
    assert abs(best - 0.41133156791592335) < 1e-9
    assert improved
    _, best, improved = renyi_min_search(remark_state(), 1.0, seed=0)
    assert abs(best - 0.6365141682948128) < 1e-9
    assert not improved


def test_renyi_search_slater_input():
    from fermifree import slater_density

    rho = slater_density(np.eye(3)[:1], OrbitalSpace(3))
    _, best, improved = renyi_min_search(rho, 2.0, seed=6)
    assert best < 1e-8
    assert not improved


def test_renyi_search_one_orbital_refines_occupations_only():
    """On one orbital the refinement walk, which runs once a random sample
    beats the reference, draws no rotation: there is no pair to rotate."""
    rho = sample_pure(OrbitalSpace(1), np.random.default_rng(0))
    _, best, improved = renyi_min_search(rho, 0.5, seed=0, sandwiched=True)
    baseline = sandwiched_renyi(0.5, rho, natural_spectrum(one_pdm(rho)))
    assert improved and 0.0 <= best < baseline - IMPROVEMENT_MARGIN


def test_renyi_search_refinement_walk_rotates_orbitals(monkeypatch):
    """On three orbitals a random sample beats the reference at Petz alpha = 2,
    so the walk runs every round and rotates a column pair at each of its d
    steps; the value it returns is the divergence of the spec it returns."""
    rho = sample_density(OrbitalSpace(3), np.random.default_rng(1))
    rotations = []
    original = fermifree.verify._rotate_columns

    def counted(*args):
        rotations.append(args)
        return original(*args)

    monkeypatch.setattr(fermifree.verify, "_rotate_columns", counted)
    spec, best, improved = renyi_min_search(rho, 2.0, seed=0)
    baseline = renyi_divergence(2.0, rho, natural_spectrum(one_pdm(rho)))
    assert len(rotations) == REFINE_STEPS * 3
    assert improved and best < baseline - IMPROVEMENT_MARGIN
    assert best == renyi_divergence(2.0, rho, spec)


def test_property_suite_default_passes():
    reports = property_suite(seed=42, d_max=4, trials=50)
    failures = [r for r in reports if not r.passed]
    assert not failures, [(r.claim, r.worst) for r in failures]
    assert all(r.witness is None for r in reports)


def test_property_suite_deterministic():
    first = property_suite(seed=7, d_max=3, trials=5)
    second = property_suite(seed=7, d_max=3, trials=5)
    documents = []
    for reports in (first, second):
        docs = [dataclasses.asdict(r) for r in reports]
        # every field repeats except the wall time, which is measured
        assert all(type(doc.pop("elapsed_s")) is float for doc in docs)
        documents.append(dumps({"reports": docs}))
    assert documents[0] == documents[1]


UNCAPPED_CLAIMS = {
    "fock-split-roundtrip",
    "pdm-linearity",
    "pdm-compression-under-restriction",
    "pdm-kernel-inclusion-equivalence",
    "entropy-nonnegative",
    "entropy-log-trace-inequality",
}
CLAIM_CAPS = {
    "fock-car-relations": 10,
    "fock-unitary-representation": 25,
    "fock-ladder-covariance": 25,
    "states-slater-row-invariance": 25,
    "pdm-basis-covariance": 25,
    "free-reconstruction-idempotent": 25,
    "free-wick-order2": 15,
    "free-substates-are-free": 15,
    "free-entropy-formula": 25,
    "free-gibbs-log-quadratic": 10,
    "free-independent-occupation": 10,
    "entropy-unitary-invariance": 15,
    "entropy-additivity": 15,
    "entropy-renyi-alpha-monotone": 15,
    "free-reference-trace-identity": 20,
    "free-reference-trace-identity-boundary": 10,
    "correlation-slater-zero": 25,
    "correlation-entropy-difference-crosscheck": 30,
    "correlation-monotone-under-restriction": 15,
    "correlation-additive-over-products": 15,
    "correlation-basis-invariance": 15,
    "correlation-minimum-over-sampled-free": 10,
    "purification-restriction-roundtrip": 15,
}


def test_cli_verify_reports_trials_run_and_elapsed_time(capsys):
    code = fermifree.cli.main(["verify", "--dmax", "2", "--trials", "50", "--seed", "0"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)["value"]
    assert len(reports) == 29 and len(CLAIM_CAPS) == 23
    for report in reports:
        expected = 50 if report["claim"] in UNCAPPED_CLAIMS else CLAIM_CAPS[report["claim"]]
        assert report["trials"] == expected, report["claim"]
        assert report["elapsed_s"] >= 0.0
        assert 0.0 <= report["worst"] <= report["threshold"] <= 1e-7, report["claim"]
    few = property_suite(seed=0, d_max=2, trials=3)
    assert [r.trials for r in few] == [3] * 29


def test_property_suite_driver_fails_nan_trials_and_control_breaches(monkeypatch):
    values = iter([0.5, float("nan"), 0.25])
    rho = pair_state()
    claims = (
        ("passes", lambda rng, d_cap: 1e-9, None, 1e-8),
        ("over-threshold", lambda rng, d_cap: (2e-8, (rho,)), 3, 1e-8),
        ("nan-sticks", lambda rng, d_cap: next(values), 3, 1.0),
        ("control-breach", lambda rng, d_cap: 0.0, 2, 0.0, lambda: (0.01, rho)),
    )
    monkeypatch.setattr(fermifree.verify, "_CLAIMS", claims)
    reports = {r.claim: r for r in property_suite(seed=0, d_max=2, trials=4)}
    assert reports["passes"].passed and reports["passes"].trials == 4
    assert reports["passes"].witness is None and reports["passes"].threshold == 1e-8
    assert not reports["over-threshold"].passed and reports["over-threshold"].worst == 2e-8
    assert len(reports["over-threshold"].witness["states"]) == 1
    assert not reports["nan-sticks"].passed and math.isnan(reports["nan-sticks"].worst)
    assert reports["nan-sticks"].witness is None
    assert not reports["control-breach"].passed and reports["control-breach"].worst == 0.01
    assert len(reports["control-breach"].witness["states"]) == 1


def _without_elapsed(reports):
    return [dataclasses.replace(r, elapsed_s=0.0) for r in reports]


@pytest.mark.parametrize("seed", range(4))
def test_property_suite_on_one_cpu_matches_the_pool(seed, monkeypatch):
    pooled = property_suite(seed=seed, d_max=4, trials=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = property_suite(seed=seed, d_max=4, trials=5)
    assert _without_elapsed(serial) == _without_elapsed(pooled)


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.skipif(_cpus() < 2, reason="on one CPU the claims run in the calling process")
def test_property_suite_runs_the_claims_in_worker_processes(monkeypatch):
    caller = os.getpid()
    claims = tuple(
        (f"worker-{i}", lambda rng, d_cap: float(os.getpid() == caller), None, 0.0)
        for i in range(3)
    )
    monkeypatch.setattr(fermifree.verify, "_CLAIMS", claims)
    reports = property_suite(seed=0, d_max=2, trials=2)
    assert [r.claim for r in reports] == ["worker-0", "worker-1", "worker-2"]
    assert all(r.passed and r.worst == 0.0 for r in reports)


def test_a_claim_raising_in_a_worker_reaches_the_caller_and_no_worker_outlives_it(monkeypatch):
    def raises(rng, d_cap):
        raise ValidationError("claim rejected its sample")

    passes = ("passes", lambda rng, d_cap: 0.0, 1, 0.0)
    claims = (passes, ("raises", raises, 1, 0.0), *[passes] * 6)
    monkeypatch.setattr(fermifree.verify, "_CLAIMS", claims)
    with pytest.raises(ValidationError) as raised:
        property_suite(seed=0, d_max=2, trials=1)
    assert type(raised.value) is ValidationError
    assert str(raised.value) == "claim rejected its sample"
    assert multiprocessing.active_children() == []


def test_search_config_validation():
    # a search's seed is its whole configuration
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        min_relent_search(remark_state(), seed=-1)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        renyi_min_search(remark_state(), 0.5, seed=-1)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        property_suite(seed=-1, d_max=2, trials=1)


@pytest.mark.parametrize("d_max", [1, 0, -5])
def test_property_suite_rejects_dmax_below_two(d_max):
    with pytest.raises(ValidationError, match="d_max must be >= 2"):
        property_suite(seed=0, d_max=d_max, trials=1)


@pytest.mark.parametrize("d_max", [13, 100])
def test_property_suite_rejects_dmax_above_the_ceiling(d_max):
    # Rejected before any claim runs, whichever orbital counts the seed would draw.
    with pytest.raises(ValidationError, match=rf"d_max {d_max} exceeds .*D_MAX = 12"):
        property_suite(seed=0, d_max=d_max, trials=1)


def test_property_suite_dmax_ceiling_follows_the_env(monkeypatch):
    monkeypatch.setenv("FERMIFREE_DMAX", "3")
    with pytest.raises(ValidationError, match="d_max 4 exceeds .*D_MAX = 3"):
        property_suite(seed=0, d_max=4, trials=1)
    monkeypatch.setenv("FERMIFREE_DMAX", "13")
    with pytest.raises(ValidationError, match="d_max 14 exceeds .*D_MAX = 13"):
        property_suite(seed=0, d_max=14, trials=1)


def sparse_wick_check(rho, tol=1e-10):
    """``wick_check`` from sparse ladder products, one monomial at a time.

    Anomalous and odd monomials must vanish, <a*_i a_j> = gamma[j, i], and
    <a*_f1 a*_f2 a_g2 a_g1> = gamma[g1, f1] gamma[g2, f2] - gamma[g1, f2] gamma[g2, f1].
    """
    d = rho.space.d
    creators, annihilators = sparse_ladder(d)
    ops = {"+": creators, "-": annihilators}
    gamma = np.empty((d, d), dtype=complex)
    expect = {}
    for word in ("+", "-", "--", "++", "+-", "++-", "+--", "++--"):
        for orbs in itertools.product(range(d), repeat=len(word)):
            op = ops[word[0]][orbs[0]]
            for letter, i in zip(word[1:], orbs[1:]):
                op = op @ ops[letter][i]
            op = op.tocoo()
            expect[word, orbs] = (op.data * rho.matrix[op.col, op.row]).sum()
    for i, j in itertools.product(range(d), repeat=2):
        gamma[j, i] = expect["+-", (i, j)]
    gamma = (gamma + gamma.conj().T) / 2
    worst = 0.0
    for (word, orbs), value in expect.items():
        if word == "+-":
            value = value - gamma[orbs[1], orbs[0]]
        elif word == "++--":
            f1, f2, g2, g1 = orbs
            value = value - (gamma[g1, f1] * gamma[g2, f2] - gamma[g1, f2] * gamma[g2, f1])
        worst = max(worst, abs(value))
    return worst <= tol, worst


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_wick_check_matches_sparse_reference(d):
    space = OrbitalSpace(d)
    rng = np.random.default_rng(200 + d)
    states = [sample_density(space, rng), sample_free_spec(space, rng).to_density()]
    for rho in states:
        ok, worst = wick_check(rho)
        ref_ok, ref_worst = sparse_wick_check(rho)
        assert ok == ref_ok
        assert abs(worst - ref_worst) <= 1e-12
    assert wick_check(states[1])[0]


def test_wick_check_pair_state_matches_sparse_reference():
    ok, worst = wick_check(pair_state())
    ref_ok, ref_worst = sparse_wick_check(pair_state())
    assert not ok and not ref_ok
    assert abs(worst - 0.5) <= 1e-12 and abs(worst - ref_worst) <= 1e-12


def test_one_pdm_and_wick_check_build_no_sparse_ladder_operators(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a reference ladder operator was built")

    for module in (fermifree, fermifree.fock, fermifree.states, fermifree.verify):
        if hasattr(module, "ladder_matrices"):
            monkeypatch.setattr(module, "ladder_matrices", forbidden)
    ladder_table.cache_clear()  # so the tables are rebuilt under the patch
    rho = sample_density(OrbitalSpace(3), np.random.default_rng(0))
    one_pdm(rho)
    wick_check(rho)
    wick_check(pair_state())
    hubbard_ground_state(3, 1.0, 4.0, 2, 1)


def test_split_roundtrip_claim_catches_one_flipped_sign(monkeypatch):
    def split_report():
        reports = property_suite(seed=0, trials=3)
        return next(r for r in reports if r.claim == "fock-split-roundtrip")

    assert split_report().passed and split_report().worst == 0.0
    original = fermifree.fock.split_table

    def flipped(keep, d):
        n1, n2, sign = original(keep, d)
        sign = sign.copy()
        sign[-1] = -sign[-1]  # the list with every orbital occupied
        return n1, n2, sign

    # bound wherever the library or the oracle looks the table up
    for module in (fermifree.fock, fermifree.verify):
        monkeypatch.setattr(module, "split_table", flipped, raising=False)
    report = split_report()
    assert not report.passed and report.worst > 0.0


@pytest.mark.parametrize("name", ["_givens_amplitudes", "_fock_blocks"])
def test_free_reference_core_claim_catches_a_dropped_conjugate(name, monkeypatch):
    """Either Fock image the core reads, of a state's eigenvectors (Givens) or
    of a dense state (blocks), taken for conj(u) fails the claim."""

    def core_report():
        *others, last = property_suite(seed=0, d_max=5, trials=3)
        assert len(others) == 29 and last.claim == "entropy-free-reference-core"
        return last

    assert core_report().passed
    original = getattr(fermifree.entropy, name)

    def conjugated(u, *args):
        return original(u.conj(), *args)  # the Fock image of u^T, not of u^dagger

    # the core's rotations only: the reference state is built from the minors
    monkeypatch.setattr(fermifree.entropy, name, conjugated)
    report = core_report()
    assert not report.passed and report.worst > 1e-3, report


PUBLIC_NAMES = [
    "CapacityError", "CorrelationReport", "DensityOperator", "FreeStateSpec",
    "OnePdm", "OrbitalSpace", "PureState", "ValidationError", "VerificationReport",
    "__version__", "basis_change_unitary", "binary_entropy", "correlation_renyi",
    "correlation_sandwiched", "cross_entropy",
    "free_from_pdm", "gibbs_free_density", "hubbard_ground_amplitudes",
    "min_relent_search", "mixture", "natural_spectrum", "nonfreeness", "one_pdm",
    "pair_state", "property_suite", "pure_density", "purify_free", "relative_entropy",
    "remark_state", "renyi_divergence", "renyi_min_search", "restrict", "sandwiched_renyi",
    "slater_amplitudes", "slater_density", "von_neumann", "wick_check",
]


def test_public_namespace_is_pinned_and_resolves():
    assert sorted(fermifree.__all__) == PUBLIC_NAMES
    for name in fermifree.__all__:
        assert hasattr(fermifree, name), name
    for name in ("split_index", "join_index", "amplitudes_in_basis", "hubbard_ground_state"):
        assert not hasattr(fermifree, name), name
    for name in ("tensor_product", "trace_distance", "kernel_inclusion_1pdm"):
        assert not hasattr(fermifree, name) and callable(getattr(fermifree.verify, name)), name
    for name in ("SearchConfig", "chain_rule_terms", "report_to_document"):
        assert not hasattr(fermifree.verify, name), name
    # the benchmark's tracer wraps these two by module and name
    assert callable(fermifree.states.hubbard_ground_state)
    assert callable(fermifree.fock.ladder_matrices)


def _wrong_typed_calls():
    one, two = OrbitalSpace(1), OrbitalSpace(2)
    rho = remark_state()
    psi = slater_amplitudes(np.eye(2)[:1], two)
    spec = FreeStateSpec(two, [0.25, 0.5], np.eye(2))
    pdm = one_pdm(rho)
    return {
        "binary-entropy-above-1": lambda: fermifree.binary_entropy([1.5]),
        "binary-entropy-nan": lambda: fermifree.binary_entropy([float("nan")]),
        "correlation-renyi-str": lambda: fermifree.correlation_renyi(rho, "0.5"),
        "correlation-sandwiched-none": lambda: fermifree.correlation_sandwiched(rho, None),
        "renyi-divergence-str": lambda: renyi_divergence("0.5", rho, rho),
        "renyi-divergence-bool": lambda: renyi_divergence(True, rho, rho),
        "sandwiched-renyi-none": lambda: sandwiched_renyi(None, rho, rho),
        "mixture-spec-component": lambda: fermifree.mixture([(0.5, rho), (0.5, spec)]),
        "search-seed-float": lambda: renyi_min_search(rho, 0.5, seed=1.5),
        "min-search-seed-str": lambda: min_relent_search(rho, seed="0"),
        "wick-check-tol-str": lambda: wick_check(rho, tol="a"),
        "wick-check-tol-nan": lambda: wick_check(rho, tol=float("nan")),
        "wick-check-tol-negative": lambda: wick_check(rho, tol=-1.0),
        "suite-trials-float": lambda: property_suite(seed=0, trials=2.0),
        "suite-dmax-float": lambda: property_suite(seed=0, d_max=2.5, trials=1),
        # arrays that are not rectangular arrays of numbers
        "density-str": lambda: fermifree.DensityOperator(one, "x"),
        "density-ragged": lambda: fermifree.DensityOperator(one, [[1, 0], [0]]),
        "density-bool": lambda: fermifree.DensityOperator(one, np.diag([True, False])),
        "pure-str": lambda: fermifree.PureState(one, ["1", "0"]),
        "pure-ragged": lambda: fermifree.PureState(one, [[1], [0, 0]]),
        "pdm-str": lambda: fermifree.OnePdm(one, [["x"]]),
        "pdm-ragged": lambda: fermifree.OnePdm(two, [[0.5, 0], [0]]),
        "spec-occupations-str": lambda: FreeStateSpec(one, ["x"], np.eye(1)),
        "spec-orbitals-str": lambda: FreeStateSpec(one, [0.5], [["x"]]),
        "spec-orbitals-ragged": lambda: FreeStateSpec(two, [0.5, 0.5], [[1, 0], [0]]),
        "gibbs-str": lambda: gibbs_free_density(["a", "b"], two),
        "slater-str": lambda: slater_amplitudes([["x", 0]], two),
        "slater-ragged": lambda: slater_amplitudes([[1, 0], [0]], two),
        "basis-change-str": lambda: basis_change_unitary([["x"]], one),
        "binary-entropy-str": lambda: fermifree.binary_entropy(["x"]),
        "mixture-weight-str": lambda: fermifree.mixture([("0.5", rho), (0.5, rho)]),
        # True and False among numbers in a list, which numpy would read as 1 and 0
        "density-bool-in-list": lambda: fermifree.DensityOperator(one, [[True, 0], [0, 0.0]]),
        "mixture-weight-bool": lambda: fermifree.mixture([(True, rho), (0.0, rho)]),
        # a 0-d boolean array among them, whose type is ndarray, not bool
        "density-bool-array-in-list": lambda: fermifree.DensityOperator(
            one, [[np.array(True), 0], [0, 0.0]]
        ),
        "mixture-weight-bool-array": lambda: fermifree.mixture([(np.array(True), rho), (0.0, rho)]),
        "pure-bool-in-list": lambda: fermifree.PureState(one, [True, 0.0]),
        "spec-occupations-bool": lambda: FreeStateSpec(two, [True, 0.0], np.eye(2)),
        # states of the wrong type
        "mixture-not-pairs": lambda: fermifree.mixture([(1.0,)]),
        "mixture-not-iterable": lambda: fermifree.mixture(5),
        "one-pdm-spec": lambda: one_pdm(spec),
        "nonfreeness-spec": lambda: fermifree.nonfreeness(spec),
        "restrict-spec": lambda: fermifree.restrict(spec, [1]),
        "wick-check-spec": lambda: wick_check(spec),
        "von-neumann-spec": lambda: fermifree.von_neumann(spec),
        "relative-entropy-pure-reference": lambda: fermifree.relative_entropy(rho, psi),
        "purify-free-density": lambda: fermifree.purify_free(rho),
        "tensor-product-spec": lambda: tensor_product(spec, rho),
        "trace-distance-spec": lambda: trace_distance(rho, spec),
        # an orbital count where an orbital space belongs, and no state at all
        "density-space-int": lambda: fermifree.DensityOperator(1, np.eye(2) / 2),
        "factored-space-int": lambda: FactoredState(1, np.eye(2)[:, :1], [1.0]),
        "pure-space-int": lambda: fermifree.PureState(1, [1.0, 0.0]),
        "spec-space-int": lambda: FreeStateSpec(1, [0.5], np.eye(1)),
        "pdm-space-int": lambda: fermifree.OnePdm(1, [[0.5]]),
        "slater-space-int": lambda: slater_amplitudes([[1.0]], 1),
        "gibbs-space-int": lambda: gibbs_free_density([0.5], 1),
        "basis-change-space-int": lambda: basis_change_unitary(np.eye(1), 1),
        "min-search-state-int": lambda: min_relent_search(5),
        "renyi-search-state-int": lambda: renyi_min_search(5, 2.0),
        # a state where a 1-pdm belongs, though it too has eigenpairs
        "kernel-inclusion-states": lambda: kernel_inclusion_1pdm(rho, rho),
        "kernel-inclusion-tol-nan": lambda: kernel_inclusion_1pdm(pdm, pdm, tol=float("nan")),
        "kernel-inclusion-tol-str": lambda: kernel_inclusion_1pdm(pdm, pdm, tol="a"),
        "natural-spectrum-state": lambda: natural_spectrum(rho),
        "free-from-pdm-state": lambda: free_from_pdm(rho),
    }


@pytest.mark.parametrize("case", sorted(_wrong_typed_calls()))
def test_wrong_typed_arguments_raise_validation_error(case):
    with pytest.raises(ValidationError):
        _wrong_typed_calls()[case]()


def test_oracle_helpers_take_any_state_and_name_a_wrong_type():
    psi, rho = slater_amplitudes(np.eye(2)[:1], OrbitalSpace(2)), remark_state()
    dense = psi.to_density()
    product = tensor_product(psi, rho).matrix
    np.testing.assert_array_equal(product, tensor_product(dense, rho).matrix)
    assert trace_distance(psi, rho) == trace_distance(dense, rho)
    with pytest.raises(ValidationError, match="expected a OnePdm, not DensityOperator"):
        natural_spectrum(rho)


def test_free_entropy_claim_reads_the_matrix_not_the_carried_weights(monkeypatch):
    def entropy_report():
        reports = property_suite(seed=0, trials=3)
        return next(r for r in reports if r.claim == "free-entropy-formula")

    assert entropy_report().passed
    original = fermifree.states._with_eigenpairs

    def mixed_toward_identity(space, matrix, w, v):
        # a valid state whose spectrum is no longer the carried Bernoulli weights
        return original(space, (matrix + np.eye(space.dim) / space.dim) / 2, w, v)

    monkeypatch.setattr(fermifree.states, "_with_eigenpairs", mixed_toward_identity)
    report = entropy_report()
    assert not report.passed and report.worst > 1e-3
