"""The benchmark's workloads: seeded input documents and the CLI calls of one pass.

Each workload writes its documents during set-up; a pass then runs a fixed
list of `fermifree` command lines against them.  Every operation carries a
check on its result document (raising CheckFailure) and a fingerprint, the
numbers that must repeat from pass to pass and match the values recorded for
the default seed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import close, require

# Nonfreeness at the U = 0 Hubbard point: the open-chain ground state is a
# Slater determinant, so anything above float noise is a defect.
FREE_TOL = 1e-7
# Slack on inequalities between two independently rounded divergences.
ORDER_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call of a pass; `check` sees earlier results of the same pass."""

    name: str
    argv: list
    check: Callable[[dict, dict], None]
    fingerprint: Callable[[dict], list]


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json and README.md."""

    write_inputs: Callable[[int, Path], None]
    build_ops: Callable[[int, Path], list]


def _write(path: Path, doc: dict):
    path.write_text(json.dumps(doc), encoding="utf-8")


def _value(doc):
    return doc["value"]


# ---------------------------------------------------------------------------
# mixed-dense: full-rank mixed states without sector or parity structure

MIXED_BIG_D = 9
MIXED_SMALL_D = 8
RESTRICT_KEEP = (1, 2, 3, 4, 5, 6)


def wishart(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix on 2^d states from a square Wishart factor."""
    dim = 1 << d
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / m.trace().real


def _mixed_states(seed: int):
    rng = np.random.default_rng(seed)
    return wishart(MIXED_BIG_D, rng), wishart(MIXED_SMALL_D, rng)


def _density_doc(m: np.ndarray) -> dict:
    d = m.shape[0].bit_length() - 1
    return {"d": d, "kind": "density", "matrix": checks.matrix_to_pairs(m)}


def _hermitian(g):
    return (g + g.conj().T) / 2


def _mixed_write(seed: int, directory: Path):
    big, small = _mixed_states(seed)
    _write(directory / "big.json", _density_doc(big))
    _write(directory / "small.json", _density_doc(small))
    gamma = _hermitian(checks.one_pdm(small))
    _write(
        directory / "small-pdm.json",
        {"d": MIXED_SMALL_D, "kind": "pdm", "gamma": checks.matrix_to_pairs(gamma)},
    )


def _nonfreeness_fingerprint(doc):
    v = _value(doc)
    return [v["nonfreeness"], v["entropy_state"], v["entropy_free"]]


def _scalar_fingerprint(doc):
    return [_value(doc)]


def _check_density_value(v, d):
    require(v["kind"] == "density" and v["d"] == d, f"expected a d={d} density document")
    m = checks.matrix_from_pairs(v["matrix"])
    require(m.shape == (1 << d, 1 << d), f"matrix shape {m.shape}")
    close(abs(m.trace() - 1.0), 0.0, 1e-10, "trace")
    close(np.abs(m - m.conj().T).max(), 0.0, 1e-10, "hermiticity")
    return m


def _mixed_ops(seed: int, directory: Path) -> list:
    big, small = _mixed_states(seed)
    nf_big = checks.nonfreeness(big)
    nf_small = checks.nonfreeness(small)
    gamma = _hermitian(checks.one_pdm(small))
    keep = [i - 1 for i in RESTRICT_KEEP]
    big_doc = str(directory / "big.json")
    small_doc = str(directory / "small.json")

    def check_nonfreeness(doc, _):
        v = _value(doc)
        close(v["nonfreeness"], nf_big, 1e-8, "nonfreeness vs reference")
        require(v["cross_check"] <= 1e-7, f"cross-check {v['cross_check']:.3e}")

    def check_sandwiched(doc, done):
        nf = _value(done["nonfreeness"])["nonfreeness"]
        v = _value(doc)
        require(0.0 <= v <= nf + ORDER_TOL, f"sandwiched {v} outside [0, nonfreeness {nf}]")

    def check_renyi(doc, _):
        v = _value(doc)
        # Petz D_alpha grows with alpha and D_1 is the nonfreeness
        require(math.isfinite(v) and v >= nf_small - ORDER_TOL, f"D_2 {v} < D_1 {nf_small}")

    def check_pdm(doc, _):
        v = _value(doc)
        close(checks.matrix_from_pairs(v["gamma"]).view(float), gamma.view(float), 1e-10, "1-pdm")
        occ = np.asarray(v["occupations"])
        require(occ.min() >= 0.0 and occ.max() <= 1.0, "occupations outside [0, 1]")
        close(occ.sum(), v["particle_number"], 1e-10, "occupation sum")
        close(v["particle_number"], gamma.trace().real, 1e-10, "particle number")

    def check_restrict(doc, _):
        m = _check_density_value(_value(doc), len(keep))
        close(checks.one_pdm(m).view(float), gamma[np.ix_(keep, keep)].view(float), 1e-10,
              "restricted 1-pdm vs compression")

    def check_free(doc, _):
        m = _check_density_value(_value(doc)["state"], MIXED_SMALL_D)
        close(checks.one_pdm(m).view(float), gamma.view(float), 1e-10, "free state's 1-pdm")

    def restrict_fingerprint(doc):
        return np.diag(checks.matrix_from_pairs(_value(doc)["matrix"])).real.tolist()

    return [
        Op("nonfreeness", ["nonfreeness", big_doc, "--cross-check"],
           check_nonfreeness, _nonfreeness_fingerprint),
        Op("sandwiched", ["renyi", big_doc, "--alpha", "0.5", "--sandwiched"],
           check_sandwiched, _scalar_fingerprint),
        Op("renyi", ["renyi", small_doc, "--alpha", "2"], check_renyi, _scalar_fingerprint),
        Op("pdm", ["pdm", small_doc], check_pdm, lambda doc: _value(doc)["occupations"]),
        Op("restrict", ["restrict", small_doc, "--keep", ",".join(map(str, RESTRICT_KEEP))],
           check_restrict, restrict_fingerprint),
        Op("free_from_pdm", ["free-from-pdm", str(directory / "small-pdm.json")],
           check_free, lambda doc: _value(doc)["free_spec"]["occupations"]),
    ]


# ---------------------------------------------------------------------------
# hubbard-sector: number-conserving pure ground states of open Hubbard chains

HUBBARD_U = 4.0  # on the CLI's default sweep grid, so the sweep can cross-check it
DEFAULT_SWEEP = (0.0, 1.0, 2.0, 4.0, 8.0)


def _hubbard_hopping(seed: int) -> float:
    """Hopping t within 20% of the CLI default of 1, drawn from the seed."""
    return float(np.random.default_rng(seed).uniform(0.8, 1.2))


def _hubbard_write(seed: int, directory: Path):
    _write(
        directory / "chain4.json",
        {"d": 8, "kind": "hubbard", "sites": 4, "t": _hubbard_hopping(seed), "u": HUBBARD_U,
         "n_up": 2, "n_down": 2},
    )


def _sweep_rows(doc, grid):
    v = _value(doc)
    rows = v["rows"]
    require(v["columns"] == ["u", "nonfreeness"], "sweep columns")
    close([r[0] for r in rows], grid, 0.0, "sweep grid")
    values = [r[1] for r in rows]
    require(min(values) >= 0.0, "negative nonfreeness in sweep")
    require(values[0] <= FREE_TOL, f"U=0 nonfreeness {values[0]:.3e} > {FREE_TOL}")
    return values


def _hubbard_ops(seed: int, directory: Path) -> list:
    t, u = _hubbard_hopping(seed), HUBBARD_U
    chain = str(directory / "chain4.json")

    def check_sweep(doc, _):
        values = _sweep_rows(doc, [0.0, u])
        require(values[1] > values[0], "interacting chain not more correlated than U=0")

    def check_sweep4(doc, _):
        _sweep_rows(doc, DEFAULT_SWEEP)

    def check_nonfreeness(doc, done):
        v = _value(doc)
        require(v["cross_check"] <= 1e-7, f"cross-check {v['cross_check']:.3e}")
        rows = _value(done["sweep4"])["rows"]
        close(v["nonfreeness"], rows[DEFAULT_SWEEP.index(u)][1], 1e-10,
              "document vs sweep nonfreeness")

    def check_sandwiched(doc, done):
        nf = _value(done["nonfreeness"])["nonfreeness"]
        v = _value(doc)
        require(0.0 <= v <= nf + ORDER_TOL, f"sandwiched {v} outside [0, nonfreeness {nf}]")

    def sweep_fingerprint(doc):
        return [r[1] for r in _value(doc)["rows"]]

    return [
        Op("sweep", ["demo-hubbard", "--sites", "5", "--t", repr(t), "--sweep", f"0,{u!r}"],
           check_sweep, sweep_fingerprint),
        Op("sweep4", ["demo-hubbard", "--sites", "4", "--t", repr(t), "--sweep"],
           check_sweep4, sweep_fingerprint),
        Op("nonfreeness", ["nonfreeness", chain, "--cross-check"],
           check_nonfreeness, _nonfreeness_fingerprint),
        Op("sandwiched", ["renyi", chain, "--alpha", "0.5", "--sandwiched"],
           check_sandwiched, _scalar_fingerprint),
    ]


# ---------------------------------------------------------------------------
# oracle: the brute-force searches and the property suite at d <= 4


def _oracle_write(seed: int, directory: Path):
    """The oracle's only input is the seed, passed on the command line."""


def _oracle_ops(seed: int, directory: Path) -> list:
    def check_counterexample(doc, _):
        v = _value(doc)
        require(v["sandwiched_half"]["improved"], "sandwiched alpha=1/2 search did not improve")
        require(not v["alpha_one"]["improved"], "alpha=1 search beat the free reference")

    def check_suite(doc, _):
        failed = [r["claim"] for r in _value(doc) if not r["passed"]]
        require(not failed, f"claims failed: {failed}")

    return [
        Op("counterexample", ["verify", "--counterexample", "--seed", str(seed)],
           check_counterexample,
           lambda doc: [_value(doc)[k]["best"] for k in ("sandwiched_half", "alpha_one")]),
        Op("property_suite", ["verify", "--dmax", "4", "--trials", "50", "--seed", str(seed)],
           check_suite, lambda doc: [r["worst"] for r in _value(doc)]),
    ]


WORKLOADS = {
    "mixed-dense": Workload(_mixed_write, _mixed_ops),
    "hubbard-sector": Workload(_hubbard_write, _hubbard_ops),
    "oracle": Workload(_oracle_write, _oracle_ops),
}
