"""Entropy kernel: von Neumann, relative, Renyi, sandwiched Renyi."""

import ast
import inspect
import itertools
import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from fermifree import (
    DensityOperator,
    FreeStateSpec,
    OrbitalSpace,
    PureState,
    ValidationError,
    basis_change_unitary,
    correlation_renyi,
    correlation_sandwiched,
    cross_entropy,
    free_from_pdm,
    gibbs_free_density,
    mixture,
    nonfreeness,
    one_pdm,
    pure_density,
    relative_entropy,
    remark_state,
    renyi_divergence,
    restrict,
    sandwiched_renyi,
    slater_density,
    von_neumann,
)
from fermifree import _reference, entropy
from fermifree.cli import main
from fermifree.config import KERNEL_TOL
from fermifree.entropy import _divergences, _joint
from fermifree.states import bernoulli_weights, hubbard_ground_state, spectrum
from fermifree.verify import sample_density, sample_pure, sample_unitary, tensor_product

H23 = math.log(3.0) - (2.0 / 3.0) * math.log(2.0)  # binary entropy of 2/3


def basis_pure(space, index):
    amplitudes = np.zeros(space.dim, dtype=complex)
    amplitudes[index] = 1.0
    return pure_density(PureState(space, amplitudes))


def maximally_mixed(space):
    return DensityOperator(space, np.eye(space.dim) / space.dim)


# --- von Neumann entropy ------------------------------------------------------


def test_von_neumann_pure_state():
    rng = np.random.default_rng(0)
    assert von_neumann(sample_pure(OrbitalSpace(3), rng)) < 1e-12


def test_von_neumann_maximally_mixed():
    for d in (1, 2, 3):
        space = OrbitalSpace(d)
        assert abs(von_neumann(maximally_mixed(space)) - d * math.log(2)) < 1e-12


def test_von_neumann_gibbs_value():
    rho = gibbs_free_density([2 / 3, 1 / 3], OrbitalSpace(2))
    assert abs(von_neumann(rho) - 2 * H23) < 1e-12
    assert abs(von_neumann(rho) - 1.273028) < 1e-6


# --- relative entropy ---------------------------------------------------------


def test_relative_entropy_self_is_zero():
    rng = np.random.default_rng(1)
    rho = sample_density(OrbitalSpace(2), rng)
    assert relative_entropy(rho, rho) < 1e-12


def test_relative_entropy_classical_two_point():
    space = OrbitalSpace(1)
    assert abs(
        relative_entropy(basis_pure(space, 0), maximally_mixed(space)) - math.log(2)
    ) < 1e-12


def test_relative_entropy_remark_vs_reference():
    rho = remark_state()
    value = relative_entropy(rho, free_from_pdm(one_pdm(rho))[0])
    assert abs(value - H23) < 1e-9
    assert abs(value - 0.636514) < 1e-6


def test_relative_entropy_kernel_rule():
    space = OrbitalSpace(1)
    vac, occ = basis_pure(space, 0), basis_pure(space, 1)
    assert relative_entropy(vac, occ) == float("inf")
    # nested supports stay finite
    assert math.isfinite(relative_entropy(vac, maximally_mixed(space)))
    # support of B larger than A is fine; smaller is not
    assert relative_entropy(maximally_mixed(space), vac) == float("inf")


def test_relative_entropy_space_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(ValidationError):
        relative_entropy(
            sample_density(OrbitalSpace(1), rng), sample_density(OrbitalSpace(2), rng)
        )


def test_lindblad_sum_matches_fast_path():
    # -Tr(A log B) - S(A) is the optimized evaluation; the double sum is the
    # reference definition
    rng = np.random.default_rng(3)
    space = OrbitalSpace(3)
    for _ in range(10):
        a, b = sample_density(space, rng), sample_density(space, rng)
        fast = cross_entropy(a, b) - von_neumann(a)
        assert abs(relative_entropy(a, b) - fast) < 1e-8


def test_entropy_log_trace_inequality():
    rng = np.random.default_rng(4)
    space = OrbitalSpace(2)
    for _ in range(20):
        a, b = sample_density(space, rng), sample_density(space, rng)
        assert von_neumann(a) <= cross_entropy(a, b) + 1e-9


# --- Renyi divergences --------------------------------------------------------


def test_renyi_self_is_zero():
    rng = np.random.default_rng(5)
    rho = sample_density(OrbitalSpace(2), rng)
    for alpha in (0.3, 0.5, 0.9, 1.5, 2.0):
        assert renyi_divergence(alpha, rho, rho) < 1e-12


def test_renyi_commuting_classical_value():
    space = OrbitalSpace(1)
    a = basis_pure(space, 0)
    b = maximally_mixed(space)
    # (1/(alpha-1)) log sum p^alpha q^(1-alpha) with p=(1,0), q=(1/2,1/2)
    assert abs(renyi_divergence(2.0, a, b) - math.log(2)) < 1e-12


def test_renyi_alpha_one_bracket():
    rng = np.random.default_rng(6)
    space = OrbitalSpace(2)
    for _ in range(5):
        a, b = sample_density(space, rng), sample_density(space, rng)
        target = relative_entropy(a, b)
        below = renyi_divergence(1.0 - 1e-4, a, b)
        above = renyi_divergence(1.0 + 1e-4, a, b)
        assert below - 1e-3 <= target <= above + 1e-3
        assert abs(below - target) < 1e-3
        assert abs(above - target) < 1e-3


def test_renyi_alpha_range():
    rng = np.random.default_rng(7)
    rho = sample_density(OrbitalSpace(1), rng)
    for alpha in (0.0, -0.5, 2.5):
        with pytest.raises(ValidationError, match="alpha"):
            renyi_divergence(alpha, rho, rho)


def test_renyi_kernel_conventions():
    space = OrbitalSpace(1)
    vac, occ = basis_pure(space, 0), basis_pure(space, 1)
    # alpha > 1: infinite when ker B is not inside ker A
    assert renyi_divergence(1.5, maximally_mixed(space), vac) == float("inf")
    # alpha < 1: infinite only for orthogonal supports
    assert renyi_divergence(0.5, vac, occ) == float("inf")
    assert math.isfinite(renyi_divergence(0.5, maximally_mixed(space), vac))


def test_renyi_additive_over_products():
    rng = np.random.default_rng(8)
    a1, b1 = (sample_density(OrbitalSpace(2), rng) for _ in range(2))
    a2, b2 = (sample_density(OrbitalSpace(1), rng) for _ in range(2))
    at, bt = tensor_product(a1, a2), tensor_product(b1, b2)
    for alpha in (0.6, 1.7):
        total = renyi_divergence(alpha, at, bt)
        parts = renyi_divergence(alpha, a1, b1) + renyi_divergence(alpha, a2, b2)
        assert abs(total - parts) < 1e-8


# --- sandwiched Renyi divergences ----------------------------------------------


def test_sandwiched_self_is_zero():
    rng = np.random.default_rng(9)
    rho = sample_density(OrbitalSpace(2), rng)
    for alpha in (0.5, 0.8, 1.5, 2.0, 3.0):
        assert sandwiched_renyi(alpha, rho, rho) < 1e-12


def test_sandwiched_reduces_to_renyi_when_commuting():
    space = OrbitalSpace(2)
    a = gibbs_free_density([0.3, 0.8], space)
    b = gibbs_free_density([0.6, 0.2], space)
    for alpha in (0.5, 2.0):
        assert abs(
            sandwiched_renyi(alpha, a, b) - renyi_divergence(alpha, a, b)
        ) < 1e-9


def test_sandwiched_half_is_fidelity():
    # independent oracle: F = Tr |sqrt(A) sqrt(B)| from singular values
    rng = np.random.default_rng(10)
    space = OrbitalSpace(2)
    for _ in range(10):
        a, b = sample_density(space, rng), sample_density(space, rng)

        def sqrtm_psd(rho):
            w, v = np.linalg.eigh(rho.matrix)
            return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

        fidelity = np.linalg.svd(
            sqrtm_psd(a) @ sqrtm_psd(b), compute_uv=False
        ).sum()
        assert abs(sandwiched_renyi(0.5, a, b) + 2.0 * np.log(fidelity)) < 1e-9


def test_sandwiched_alpha_one_dispatches_to_relative_entropy():
    rng = np.random.default_rng(11)
    a, b = (sample_density(OrbitalSpace(2), rng) for _ in range(2))
    assert sandwiched_renyi(1.0, a, b) == relative_entropy(a, b)


def test_sandwiched_alpha_range():
    rng = np.random.default_rng(12)
    rho = sample_density(OrbitalSpace(1), rng)
    for alpha in (0.4, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="alpha"):
            sandwiched_renyi(alpha, rho, rho)


def test_sandwiched_kernel_rule():
    space = OrbitalSpace(1)
    vac = basis_pure(space, 0)
    assert sandwiched_renyi(2.0, maximally_mixed(space), vac) == float("inf")
    assert sandwiched_renyi(0.5, vac, basis_pure(space, 1)) == float("inf")


# --- one core for a stack of references and for each one ----------------------


def test_stacked_references_equal_single_calls():
    """The core scores a stack of n specs as n single calls do, in every
    branch: a rank-2 state, built in the Fock basis of the specs' orbitals,
    against a spec with those orbitals, one with fresh orbitals, one whose 0/1
    occupation puts part of the state's support in its kernel (+inf from
    alpha = 1 on) and a Slater state orthogonal to it (+inf for every
    divergence)."""
    rng = np.random.default_rng(31)
    space = OrbitalSpace(2)
    u = sample_unitary(2, rng)
    # eigenvectors in the span of Fock vectors 0 (empty) and 1 (orbital 1 filled)
    v = basis_change_unitary(u, space)[:, :2] @ sample_unitary(2, rng)
    a = DensityOperator(space, (v * [0.7, 0.3]) @ v.conj().T)
    references = {
        "interior": FreeStateSpec(space, rng.uniform(0.2, 0.8, 2), u),
        "fresh-orbitals": FreeStateSpec(space, rng.uniform(0.2, 0.8, 2), sample_unitary(2, rng)),
        "kernel-crossing": FreeStateSpec(space, [0.0, 0.5], u),  # kernel: orbital 1 filled
        "orthogonal": FreeStateSpec(space, [1.0, 1.0], u),  # Fock vector 3 only
    }
    joints = [_joint(a, b) for b in references.values()]
    p = joints[0][0]
    q, c = np.stack([j[1] for j in joints]), np.stack([j[2] for j in joints])
    for alpha, sandwiched in itertools.product((0.5, 1.0, 2.0), (False, True)):
        stacked = _divergences(alpha, p, q, c, sandwiched)
        single = np.array([float(_divergences(alpha, *j, sandwiched)) for j in joints])
        public = np.array(
            [
                (sandwiched_renyi if sandwiched else renyi_divergence)(alpha, a, b)
                for b in references.values()
            ]
        )
        case = (alpha, sandwiched)
        assert stacked.shape == (len(references),)
        expected_inf = [False, False, alpha >= 1.0, True]
        for values in (stacked, single, public):
            assert np.isinf(values).tolist() == expected_inf, (case, values)
        finite = ~np.isinf(single)
        np.testing.assert_allclose(stacked[finite], single[finite], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            np.maximum(stacked[finite], 0.0), public[finite], rtol=0, atol=1e-12
        )


# --- a density operator rotated into its reference's basis ---------------------


def _spec_reference(rho, spec, alpha, sandwiched):
    """The divergence from `rho` to `spec`, unclamped, from a dense eigh of rho
    and the spec's Fock unitary, with the +inf rules written out; eigenvalues
    of rho and Bernoulli weights of the spec at or below KERNEL_TOL are kernel."""
    fock_u = basis_change_unitary(spec.orbitals, spec.space)
    q = bernoulli_weights(spec.occupations)
    w, v = np.linalg.eigh(rho.matrix)
    p, c = w[w > KERNEL_TOL], fock_u.conj().T @ v[:, w > KERNEL_TOL]  # c[j, i] = <b_j|a_i>
    mass, live = np.abs(c) ** 2 @ p, q > KERNEL_TOL
    crossing = mass[~live].sum() > KERNEL_TOL
    if alpha == 1.0:
        if crossing:
            return math.inf
        return (p * np.log(p)).sum() - mass[live] @ np.log(q[live]) + q[live].sum() - p.sum()
    if alpha > 1.0 and crossing:
        return math.inf
    if sandwiched:
        b_e = (fock_u[:, live] * q[live] ** ((1 - alpha) / (2 * alpha))) @ fock_u[:, live].conj().T
        core = b_e @ rho.matrix @ b_e
        core_w = np.linalg.eigvalsh((core + core.conj().T) / 2)
        trace = (core_w[core_w > KERNEL_TOL] ** alpha).sum()
    else:
        if alpha < 1.0 and mass[live].sum() <= KERNEL_TOL:
            return math.inf
        trace = q[live] ** (1 - alpha) @ (np.abs(c[live]) ** 2 @ p**alpha)
    return math.log(trace) / (alpha - 1) if trace > 0 else math.inf


ROTATED_DIVERGENCES = [
    ("relative", 1.0, False),
    *(("sandwiched", alpha, True) for alpha in (0.5, 0.75, 2.0)),
    *(("petz", alpha, False) for alpha in (0.5, 2.0)),
]


def _spec_divergence(rho, spec, alpha, sandwiched):
    if alpha == 1.0:
        return relative_entropy(rho, spec)
    return (sandwiched_renyi if sandwiched else renyi_divergence)(alpha, rho, spec)


def _assert_matches(value, expected, case, rtol=1e-12, atol=0.0):
    assert math.isinf(value) == math.isinf(expected), case
    if not math.isinf(expected):
        assert abs(value - max(expected, 0.0)) <= rtol * abs(expected) + atol, case


def _rotation_spy(monkeypatch) -> list:
    """Patch `entropy._rotated` to record each call in the returned list."""
    calls, rotated = [], entropy._rotated

    def spy(*args):
        calls.append(args)
        return rotated(*args)

    monkeypatch.setattr(entropy, "_rotated", spy)
    return calls


def _with_smallest_eigenvalue(rho, floor):
    """`rho` with its smallest eigenvalue set to `floor`, the rest rescaled to trace 1."""
    w, v = np.linalg.eigh(rho.matrix)
    w[0], w[1:] = floor, w[1:] * (1.0 - floor) / w[1:].sum()
    return DensityOperator(rho.space, (v * w) @ v.conj().T)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_rotation_route_matches_dense_eigh_reference(d, monkeypatch):
    """Divergences from a density operator to a spec against the dense
    reference: full-rank states, which the relative and sandwiched divergences
    rotate into the spec's Fock basis, among them states whose smallest
    eigenvalue (2e-12, 1e-11) lies just above KERNEL_TOL, and rank 1 and 3
    states, which take the eigenvector route; references with random
    occupations, with occupations 1e-3 and 1 - 1e-9, and with boundary
    occupations 0 and 1, whose kernel makes the divergences from alpha = 1 up
    +inf.  Reading the eigenpairs afterwards changes no value; Petz reads them
    anyway."""
    rng = np.random.default_rng(40 + d)
    space = OrbitalSpace(d)
    interior = rng.uniform(0.2, 0.8, d)
    specs = {
        "random": interior,
        "near-boundary": np.concatenate([[1e-3, 1 - 1e-9], interior[2:]]),
        "boundary": np.concatenate([[0.0, 1.0], interior[2:]]),
    }
    rotations = _rotation_spy(monkeypatch)
    for rank, floor in ((None, None), (1, None), (3, None), (None, 2e-12), (None, 1e-11)):
        for name, occupations in specs.items():
            spec = FreeStateSpec(space, occupations, sample_unitary(d, rng))
            rho = sample_density(space, rng, rank)
            if floor is not None:
                rho = _with_smallest_eigenvalue(rho, floor)
                assert KERNEL_TOL < rho.eigenvalues.min() < 2 * floor
            first = {}
            rotations.clear()
            for kind, alpha, sandwiched in ROTATED_DIVERGENCES[:4]:
                first[alpha] = _spec_divergence(rho, spec, alpha, sandwiched)
            # full rank rotates on every call, never diagonalized; lower rank never rotates
            assert len(rotations) == (4 if rank is None else 0), (rank, floor, name)
            if rank is None:
                assert "eigenpairs" not in rho.__dict__
            rho.eigenpairs
            for kind, alpha, sandwiched in ROTATED_DIVERGENCES:
                case = (rank, floor, name, kind, alpha)
                expected = _spec_reference(rho, spec, alpha, sandwiched)
                if floor is not None and alpha < 1.0:
                    # every route rounds an eigenvalue near KERNEL_TOL by about eps,
                    # which w^alpha magnifies: eps / sqrt(2e-12) ~ 1e-10 at alpha = 1/2
                    tol = 1e-9
                elif name == "near-boundary" and sandwiched and alpha < 1.0:
                    # Bernoulli weights near KERNEL_TOL put core eigenvalues near it
                    # too, and w^alpha magnifies their rounding: the rotated core and
                    # the reference's dense one differ by up to ~2e-12 relative
                    tol = 1e-10
                elif rank is None and kind != "petz":
                    tol = 1e-12  # rotated: within the rotation's bound
                else:
                    # the eigenvector route's k x k core rounds the smallest core
                    # eigenvalues differently, and w^alpha magnifies that below
                    # alpha = 1 (up to 1e-11 relative with Bernoulli weights of 1e-12)
                    tol = 1e-10 if sandwiched else 1e-12
                value = _spec_divergence(rho, spec, alpha, sandwiched)
                _assert_matches(value, expected, case, tol)
                if kind != "petz":
                    assert value == first[alpha], case  # the route reads the spectrum only
                if name != "near-boundary":  # whose smallest weights reach KERNEL_TOL
                    # the boundary spec's kernel holds weight of every state drawn
                    assert math.isinf(expected) == (name == "boundary" and alpha >= 1.0), case


def test_relative_entropy_of_a_dense_state_reads_only_the_diagonal_blocks():
    # One dense 1024 x 1024 complex matrix is 16 MB.  With its eigenvalues known,
    # the relative entropy to a spec reads the state's particle-number blocks.
    rng = np.random.default_rng(72)
    space = OrbitalSpace(10)
    rho = sample_density(space, rng)
    spec = FreeStateSpec(space, rng.uniform(0.2, 0.8, 10), sample_unitary(10, rng))
    relative_entropy(rho, spec)  # warm the cached block tables
    tracemalloc.start()
    try:
        relative_entropy(rho, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "eigenpairs" not in rho.__dict__  # the rotation route, not the eigenvectors
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize(
    "kernel, infinite",
    [
        ([0.75e-12, 0.75e-12], False),  # both at or below KERNEL_TOL: dropped, no crossing
        ([2e-12, -5e-11], True),  # 2e-12 is live and crosses; -5e-11 is dropped
    ],
)
def test_kernel_eigenvalues_give_one_answer_on_both_routes(kernel, infinite, monkeypatch):
    """A Slater reference S and a state (1 - sum(kernel)) |S><S| plus weights
    `kernel` on two other Fock vectors of S's orbitals, which lie in the
    reference's kernel.  The state has eigenvalues at or below KERNEL_TOL, so
    it never rotates: both routes of the name are the eigenvector route with
    the eigenpairs cached before the call and with them computed in it.  The
    rotation route next to the kernel is checked in
    test_rotation_route_matches_dense_eigh_reference.  Those eigenvalues are
    exact kernel, so the divergences from alpha = 1 up are +inf exactly when a
    live eigenvalue lies in that kernel."""
    rotations = _rotation_spy(monkeypatch)
    rng = np.random.default_rng(71)
    space = OrbitalSpace(3)
    spec = FreeStateSpec(space, [1.0, 0.0, 1.0], sample_unitary(3, rng))
    fock_u = basis_change_unitary(spec.orbitals, space)
    slater = int(np.argmax(bernoulli_weights(spec.occupations)))
    kernel_vectors = [k for k in range(space.dim) if k != slater][:2]
    weights = np.zeros(space.dim)
    weights[slater], weights[kernel_vectors] = 1.0 - sum(kernel), kernel
    rho = DensityOperator(space, (fock_u * weights) @ fock_u.conj().T)
    for kind, alpha, sandwiched in ROTATED_DIVERGENCES:
        case = (kind, alpha)
        expected = _spec_reference(rho, spec, alpha, sandwiched)
        assert math.isinf(expected) == (infinite and alpha >= 1.0), case
        before = _spec_divergence(rho, spec, alpha, sandwiched)
        rho.eigenpairs
        _assert_matches(before, expected, case, atol=1e-14)  # values near 0
        assert _spec_divergence(rho, spec, alpha, sandwiched) == before, case
        rho = DensityOperator(space, rho.matrix)  # eigenpairs not computed
    assert not rotations


def test_a_value_does_not_depend_on_call_history():
    """The route of a divergence reads the state's spectrum, not what earlier
    calls computed: a Petz divergence first, which reads the eigenpairs of a
    full-rank state, moves no later value by a bit."""
    space = OrbitalSpace(3)
    matrix = sample_density(space, np.random.default_rng(3)).matrix
    fresh, used = DensityOperator(space, matrix), DensityOperator(space, matrix)
    correlation_renyi(used, 2)
    assert nonfreeness(fresh).cross_check == nonfreeness(used).cross_check
    assert correlation_sandwiched(fresh, 0.5) == correlation_sandwiched(used, 0.5)


# --- joint invariances ----------------------------------------------------------


def test_unitary_invariance_of_all_functionals():
    rng = np.random.default_rng(13)
    space = OrbitalSpace(2)
    a, b = sample_density(space, rng), sample_density(space, rng)
    fock_u = basis_change_unitary(sample_unitary(2, rng), space)
    a2 = DensityOperator(space, fock_u @ a.matrix @ fock_u.conj().T)
    b2 = DensityOperator(space, fock_u @ b.matrix @ fock_u.conj().T)
    assert abs(von_neumann(a) - von_neumann(a2)) < 1e-9
    assert abs(relative_entropy(a, b) - relative_entropy(a2, b2)) < 1e-9
    assert abs(renyi_divergence(1.5, a, b) - renyi_divergence(1.5, a2, b2)) < 1e-9
    assert abs(sandwiched_renyi(0.7, a, b) - sandwiched_renyi(0.7, a2, b2)) < 1e-9


def test_monotone_in_alpha():
    rng = np.random.default_rng(14)
    space = OrbitalSpace(2)
    a, b = sample_density(space, rng), sample_density(space, rng)
    alphas = [0.2, 0.5, 0.8, 1.0, 1.3, 1.7, 2.0]
    values = [renyi_divergence(al, a, b) for al in alphas]
    assert all(lo <= hi + 1e-10 for lo, hi in zip(values, values[1:]))


# --- number-conserving spectra against the dense eigensolve --------------------


def _dense_masked_eigh(rho):
    w, v = np.linalg.eigh((rho.matrix + rho.matrix.conj().T) / 2)
    return np.where(w > KERNEL_TOL, w, 0.0), v


def _dense_reference(a, b):
    """von Neumann, relative entropy, Petz and sandwiched Renyi from full-matrix eigh.

    The divergences from alpha = 1 up are +inf where more than KERNEL_TOL of
    a's weight lies in the kernel of b.
    """
    p, va = _dense_masked_eigh(a)
    q, vb = _dense_masked_eigh(b)
    overlaps = np.abs(va.conj().T @ vb)[p > 0] ** 2
    overlap = overlaps[:, q > 0]
    p_live, q_live = p[p > 0], q[q > 0]
    crossing = p_live @ overlaps[:, q == 0].sum(axis=1) > KERNEL_TOL
    plogp = (p_live * np.log(p_live)).sum()
    out = {
        "von_neumann": -plogp,
        "relative": np.inf if crossing else plogp
        - (p_live[:, None] * overlap * np.log(q_live)).sum() + q.sum() - p.sum(),
    }
    for alpha in (0.5, 2.0):
        petz = (p_live[:, None] ** alpha * overlap * q_live ** (1 - alpha)).sum()
        out["petz", alpha] = np.log(petz) / (alpha - 1)
        b_power = (vb[:, q > 0] * q_live ** ((1 - alpha) / (2 * alpha))) @ vb[:, q > 0].conj().T
        core = b_power @ a.matrix @ b_power
        w = np.linalg.eigvalsh((core + core.conj().T) / 2)
        out["sandwiched", alpha] = np.log((w[w > KERNEL_TOL] ** alpha).sum()) / (alpha - 1)
        if crossing and alpha > 1.0:
            out["petz", alpha] = out["sandwiched", alpha] = np.inf
    return out


def _number_conserving_pairs():
    rng = np.random.default_rng(7)
    pairs = []
    for d in (3, 4, 5):
        space = OrbitalSpace(d)
        slaters = [
            slater_density(sample_unitary(d, rng)[:n], space)
            for n in rng.choice(d + 1, 3, replace=False)
        ]
        weights = rng.dirichlet(np.ones(3))
        rho = mixture(zip(weights, slaters))
        pairs.append((rho, free_from_pdm(one_pdm(rho))[0]))
        free = [
            FreeStateSpec(space, rng.uniform(0.1, 0.9, d), sample_unitary(d, rng)).to_density()
            for _ in range(2)
        ]
        pairs.append(tuple(free))
    # At alpha = 2 the overlaps' rounding is divided by the reference's smallest
    # weight, so no two eigensolvers agree to 1e-10 once it nears 1e-9 (U = 3,
    # four sites).  U = 8 keeps it above 1e-5.
    for sites in (2, 3, 4):
        rho = hubbard_ground_state(sites, 1.0, 8.0, (sites + 1) // 2, sites // 2)
        pairs.append((rho, free_from_pdm(one_pdm(rho))[0]))
    return pairs


def _eigh_shapes(monkeypatch):
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def _assert_matches_dense(a, b):
    for rho in (a, b):
        w, v = spectrum(rho.matrix)
        np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(rho.matrix), atol=1e-10)
        np.testing.assert_allclose(rho.matrix @ v, v * w, atol=1e-10)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(rho.space.dim), atol=1e-10)
    reference = _dense_reference(a, b)
    computed = {
        "von_neumann": von_neumann(a),
        "relative": relative_entropy(a, b),
    }
    for alpha in (0.5, 2.0):
        computed["petz", alpha] = renyi_divergence(alpha, a, b)
        computed["sandwiched", alpha] = sandwiched_renyi(alpha, a, b)
    for key, value in reference.items():
        _assert_matches(computed[key], value, key, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("pair", _number_conserving_pairs())
def test_sector_spectra_match_dense_reference(pair):
    _assert_matches_dense(*pair)


def test_hubbard_nonfreeness_makes_no_full_size_eigh(monkeypatch):
    shapes = _eigh_shapes(monkeypatch)
    rho = hubbard_ground_state(4, 1.0, 4.0, 2, 2)
    report = nonfreeness(rho, cross_check=True)
    assert report.cross_check < 1e-7
    assert shapes and max(max(shape) for shape in shapes) < rho.space.dim


def test_dense_state_takes_no_full_size_eigh(monkeypatch):
    """Validation and the entropy read eigenvalues, and the divergences to the
    free reference rotate the state into its basis, so no command on a dense
    state hands eigh its 128 x 128 matrix."""
    sizes = []
    original = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    rho = sample_density(OrbitalSpace(7), np.random.default_rng(70))
    assert nonfreeness(rho, cross_check=True).cross_check < 1e-7
    assert 0.0 < correlation_sandwiched(rho, 0.5) < math.inf
    one_pdm(rho)
    restrict(rho, [1, 2, 3])
    assert sizes and (128, 128) not in sizes  # the 7 x 7 1-pdm's only


# --- spectra carried from construction against the dense eigensolve -------------


def _short_projector(space, x):
    """The projector onto x scaled 9e-13 short of unit norm, which validation
    accepts (TOL_NORM) though it exceeds KERNEL_TOL."""
    return pure_density(PureState(space, x * (1.0 - 9e-13) / np.linalg.norm(x)))


def _carried_pairs():
    """(a, b) pairs whose states carry their eigenpairs.  b's support contains
    a's, except that the rank-deficient references, a pure projector and a free
    state with occupations 0 and 1, are also taken from states outside it."""
    rng = np.random.default_rng(17)
    pairs = {}
    for d in (2, 3, 4, 5):
        space = OrbitalSpace(d)
        free = [
            FreeStateSpec(space, rng.uniform(0.1, 0.9, d), sample_unitary(d, rng)).to_density()
            for _ in range(2)
        ]
        pairs[f"free-free-d{d}"] = tuple(free)
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        pure = pure_density(PureState(space, psi / np.linalg.norm(psi)))
        pairs[f"pure-gamma-d{d}"] = (pure, free_from_pdm(one_pdm(pure))[0])
        pairs[f"pure-free-d{d}"] = (pure, free[0])
        rows = sample_unitary(d, rng)[: d // 2]
        pairs[f"slater-free-d{d}"] = (slater_density(rows, space), free[1])
    gibbs = gibbs_free_density(np.array([0.3, 0.6, 0.8]), OrbitalSpace(3))
    pairs["gibbs-free"] = (gibbs, pairs["free-free-d3"][0])
    pairs["basis-gibbs"] = (basis_pure(OrbitalSpace(3), 0b101), gibbs)
    for sites in (2, 3, 4):  # U = 8: see _number_conserving_pairs
        rho = hubbard_ground_state(sites, 1.0, 8.0, (sites + 1) // 2, sites // 2)
        pairs[f"hubbard-{sites}"] = (rho, free_from_pdm(one_pdm(rho))[0])
    for d in (2, 3, 4):
        space = OrbitalSpace(d)
        full_rank = gibbs_free_density(rng.uniform(0.2, 0.8, d), space)
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        projector = pure_density(PureState(space, psi / np.linalg.norm(psi)))
        pairs[f"full-projector-d{d}"] = (full_rank, projector)
        pairs[f"projector-itself-d{d}"] = (projector, projector)
        orbitals = sample_unitary(d, rng)
        inside, boundary = (
            FreeStateSpec(space, [0.0, 1.0, *rng.uniform(0.2, 0.8, d - 2)], orbitals).to_density()
            for _ in range(2)
        )
        pairs[f"inside-boundary-d{d}"] = (inside, boundary)
        pairs[f"outside-boundary-d{d}"] = (full_rank, boundary)
        # projectors short of unit norm, from themselves and from a state holding them
        short = _short_projector(space, psi)
        pairs[f"short-norm-itself-d{d}"] = (short, short)
        inside = _short_projector(space, boundary.eigenpairs[1].sum(axis=1))
        pairs[f"short-norm-boundary-d{d}"] = (inside, boundary)
    return pairs


CARRIED_PAIRS = _carried_pairs()


@pytest.mark.parametrize("name", sorted(CARRIED_PAIRS))
def test_carried_spectra_match_dense_reference(name):
    _assert_matches_dense(*CARRIED_PAIRS[name])


# --- density-operator references go to the textbook reference ------------------


def _reference_spy(monkeypatch) -> list:
    """Patch `_reference.joint`, through which every use of the reference
    module passes, to record the reference of each call in the returned list."""
    calls, joint = [], _reference.joint

    def spy(a, b):
        calls.append(b)
        return joint(a, b)

    monkeypatch.setattr(_reference, "joint", spy)
    return calls


def test_only_density_operator_references_reach_the_reference(monkeypatch):
    calls = _reference_spy(monkeypatch)
    rng = np.random.default_rng(81)
    space = OrbitalSpace(3)
    spec = FreeStateSpec(space, rng.uniform(0.2, 0.8, 3), sample_unitary(3, rng))
    psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    states = (sample_density(space, rng), PureState(space, psi / np.linalg.norm(psi)))
    functions = [relative_entropy, cross_entropy]
    for f in (renyi_divergence, sandwiched_renyi):
        functions += [partial(f, 0.5), partial(f, 2.0)]
    for a, b, f in itertools.product(states, (spec, spec.to_density()), functions):
        calls.clear()
        f(a, b)
        assert calls == ([] if isinstance(b, FreeStateSpec) else [b]), (a, b, f)


def test_cli_divergences_never_reach_the_reference(tmp_path, monkeypatch, capsys):
    calls = _reference_spy(monkeypatch)
    slaters = [
        {"d": 2, "kind": "slater", "orbitals": [[[0.6, 0], [0, 0.8]]]},
        {"d": 2, "kind": "slater", "orbitals": [[[0, 0], [1, 0]]]},
    ]
    documents = {
        "density": {
            "d": 1, "kind": "density", "matrix": [[[0.25, 0], [0, 0]], [[0, 0], [0.75, 0]]]
        },
        "pure": {"d": 2, "kind": "pure", "amplitudes": [[0.6, 0], [0, 0], [0, 0.8], [0, 0]]},
        "mixture": {
            "d": 2,
            "kind": "mixture",
            "components": [{"weight": w, "state": s} for w, s in zip((0.75, 0.25), slaters)],
        },
    }
    commands = (
        ["nonfreeness", "--cross-check"],
        ["renyi", "--alpha", "2"],
        ["renyi", "--alpha", "0.5", "--sandwiched"],
    )
    for (kind, document), (command, *flags) in itertools.product(documents.items(), commands):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(document))
        assert main([command, str(path), *flags]) == 0, (kind, command)
        capsys.readouterr()
    assert calls == []


def test_reference_module_shares_nothing_with_the_core():
    """`_reference` imports nothing from `entropy` and names none of the core's
    Fock blocks, Givens pass, Bernoulli table or +inf rule."""
    nodes = list(ast.walk(ast.parse(inspect.getsource(_reference))))
    modules = [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
    modules += [alias.name for n in nodes if isinstance(n, ast.Import) for alias in n.names]
    assert not [m for m in modules if "entropy" in m], modules
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names |= {alias.name for n in nodes if isinstance(n, ast.ImportFrom) for alias in n.names}
    core = {"_fock_blocks", "_givens_amplitudes", "bernoulli_weights", "_value_or_inf"}
    assert not names & core, names
