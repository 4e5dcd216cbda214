"""Command-line interface: one subcommand per public operation.

Inputs are JSON state documents (filename or "-" for stdin); outputs are
JSON result documents on stdout.  Exit codes: 0 success, 1 verification
failure or internal inconsistency, 2 invalid input.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import io
from . import config
from .correlation import correlation_renyi, correlation_sandwiched, nonfreeness, restrict
from .errors import ValidationError
from .free import free_from_pdm, purify_free
from .pdm import natural_spectrum, one_pdm
from .states import hubbard_ground_amplitudes
from .verify import (
    SUITE_DMAX,
    SUITE_TRIALS,
    property_suite,
    remark_state,
    renyi_min_search,
)

LN2 = math.log(2.0)

_TOLERANCES = {
    name.lower(): value
    for name, value in vars(config).items()
    if name.startswith("TOL_") or name == "KERNEL_TOL"
}


def _read_document(path: str) -> dict:
    """The JSON document at `path`, or on stdin for "-", decoded as strict UTF-8.

    The bytes are read once and handed to ``io.loads`` undecoded, so that no
    copy of a large document's text sits beside them.
    """
    try:
        if path != "-":
            data = Path(path).read_bytes()
        elif hasattr(sys.stdin, "buffer"):
            # stdin's bytes, so its locale's error handler cannot let bad UTF-8 through
            data = sys.stdin.buffer.read()
        else:
            data = sys.stdin.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return io.loads(data)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not valid UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path} is nested too deeply to decode") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def _emit(quantity: str, value, units: str, inputs: dict, config: dict = _TOLERANCES) -> int:
    """Print one result document on stdout; returns exit code 0."""
    print(io.dumps(io.make_result(quantity, value, units, inputs, config)))
    return 0


def _units_scale(bits: bool):
    return ("bits", LN2) if bits else ("nats", 1.0)


def _cmd_nonfreeness(args) -> int:
    state = io.state_from_document(_read_document(args.state))
    report = nonfreeness(state, cross_check=args.cross_check)
    units, scale = _units_scale(args.bits)
    value = {
        "nonfreeness": report.nonfreeness / scale,
        "occupations": [float(p) for p in report.occupations],
        "entropy_state": report.entropy_state / scale,
        "entropy_free": report.entropy_free / scale,
        "cross_check": None
        if report.cross_check is None
        else io.value_to_json(report.cross_check / scale),
    }
    inputs = {"state": args.state, "d": state.space.d}
    _emit("nonfreeness", value, units, inputs, dict(_TOLERANCES, cross_check=args.cross_check))
    if report.cross_check is not None and report.cross_check > config.TOL_NONFREENESS:
        print(
            f"cross-check breach: entropy difference and relative entropy disagree"
            f" by {report.cross_check:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_renyi(args) -> int:
    state = io.state_from_document(_read_document(args.state))
    divergence = correlation_sandwiched if args.sandwiched else correlation_renyi
    value = divergence(state, args.alpha)
    units, scale = _units_scale(args.bits)
    return _emit(
        "sandwiched-renyi-correlation" if args.sandwiched else "renyi-correlation",
        value if math.isinf(value) else value / scale,
        units,
        {"state": args.state, "d": state.space.d, "alpha": args.alpha},
        dict(_TOLERANCES, sandwiched=args.sandwiched),
    )


def _cmd_pdm(args) -> int:
    state = io.state_from_document(_read_document(args.state))
    pdm = one_pdm(state)
    spectrum = natural_spectrum(pdm)
    value = {
        "gamma": io.matrix_to_json(pdm.gamma),
        "occupations": [float(p) for p in spectrum.occupations],
        "orbitals": io.matrix_to_json(spectrum.orbitals),
        "particle_number": pdm.trace,
    }
    return _emit("one-pdm", value, "nats", {"state": args.state, "d": state.space.d})


def _parse_keep(raw: str):
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"--keep expects comma-separated integers, got {raw!r}") from exc


def _cmd_restrict(args) -> int:
    state = io.state_from_document(_read_document(args.state))
    sub = restrict(state, _parse_keep(args.keep))
    inputs = {"state": args.state, "d": state.space.d, "keep": args.keep}
    return _emit("restriction", io.density_to_document(sub), "nats", inputs)


def _cmd_free_from_pdm(args) -> int:
    pdm = io.pdm_from_document(_read_document(args.pdm))
    density, spec = free_from_pdm(pdm)
    value = {
        "state": io.density_to_document(density),
        "free_spec": io.free_spec_to_document(spec),
    }
    return _emit("free-state-from-pdm", value, "nats", {"pdm": args.pdm, "d": pdm.space.d})


def _cmd_purify(args) -> int:
    spec = io.free_spec_from_document(_read_document(args.spec))
    rows = purify_free(spec)
    value = {
        "d": 2 * spec.space.d,
        "kind": "slater",
        "orbitals": io.matrix_to_json(rows),
    }
    return _emit("purification", value, "nats", {"spec": args.spec, "d": spec.space.d})


def _cmd_verify(args) -> int:
    if args.counterexample:
        if args.dmax is not None or args.trials is not None:
            raise ValidationError("--counterexample takes no --dmax or --trials")
        rho = remark_state()
        outcome = {}
        for label, alpha, sandwiched in (
            ("sandwiched_half", 0.5, True),
            ("alpha_one", 1.0, False),
        ):
            _, best, improved = renyi_min_search(rho, alpha, args.seed, sandwiched)
            outcome[label] = {"best": io.value_to_json(best), "improved": improved}
        inputs = {"state": "built-in one-particle mixed state"}
        config = {"seed": args.seed, **_TOLERANCES}
        _emit("renyi-minimum-counterexample", outcome, "nats", inputs, config)
        passed = outcome["sandwiched_half"]["improved"] and not outcome["alpha_one"]["improved"]
        return 0 if passed else 1
    dmax = SUITE_DMAX if args.dmax is None else args.dmax
    trials = SUITE_TRIALS if args.trials is None else args.trials
    reports = property_suite(seed=args.seed, d_max=dmax, trials=trials)
    config = {"seed": args.seed, "dmax": dmax, "trials": trials, **_TOLERANCES}
    _emit("property-suite", [dataclasses.asdict(r) for r in reports], "nats", {}, config)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_demo_hubbard(args) -> int:
    n_up = args.nup if args.nup is not None else (args.sites + 1) // 2
    n_down = args.ndown if args.ndown is not None else args.sites // 2
    inputs = {"sites": args.sites, "t": args.t, "n_up": n_up, "n_down": n_down}

    def nonfreeness_at(u_int: float) -> float:
        psi = hubbard_ground_amplitudes(args.sites, args.t, u_int, n_up, n_down)
        return nonfreeness(psi, cross_check=False).nonfreeness

    if args.sweep is not None:
        try:
            grid = [float(tok) for tok in args.sweep.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(
                f"--sweep expects comma-separated numbers, got {args.sweep!r}"
            ) from exc
        if not grid:
            raise ValidationError("--sweep needs at least one interaction value")
        value = {"columns": ["u", "nonfreeness"], "rows": [[u, nonfreeness_at(u)] for u in grid]}
        inputs["sweep"] = grid
    else:
        value = {"u": args.u, "nonfreeness": nonfreeness_at(args.u)}
        inputs["u"] = args.u
    return _emit("hubbard-nonfreeness", value, "nats", inputs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later `main` call.

    argparse keeps no per-parse state on the parser: each `parse_args` returns
    a fresh namespace, so repeated in-process calls see the same defaults.
    """
    parser = argparse.ArgumentParser(
        prog="fermifree",
        description="Nonfreeness and Renyi correlation functionals of many-fermion states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nonfreeness", help="entropy relative to the free reference state")
    p.add_argument("state", help="state document path, or - for stdin")
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also evaluate the relative entropy directly and compare",
    )
    p.set_defaults(func=_cmd_nonfreeness)

    p = sub.add_parser("renyi", help="Renyi correlation functional")
    p.add_argument("state")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sandwiched", action="store_true")
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=_cmd_renyi)

    p = sub.add_parser("pdm", help="1-particle density matrix and natural spectrum")
    p.add_argument("state")
    p.set_defaults(func=_cmd_pdm)

    p = sub.add_parser("restrict", help="substate on a subset of orbitals")
    p.add_argument("state")
    p.add_argument("--keep", required=True, help="comma-separated 1-based orbitals")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("free-from-pdm", help="unique free state with a given 1-pdm")
    p.add_argument("pdm")
    p.set_defaults(func=_cmd_free_from_pdm)

    p = sub.add_parser("purify", help="Slater rows on doubled orbitals realizing a free state")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_purify)

    p = sub.add_parser("verify", help="run the randomized property suite")
    p.add_argument("--seed", type=int, default=42)
    # None marks an unset flag, which --counterexample must not be given
    p.add_argument("--dmax", type=int, default=None, help=f"default {SUITE_DMAX}")
    p.add_argument("--trials", type=int, default=None, help=f"default {SUITE_TRIALS}")
    p.add_argument(
        "--counterexample",
        action="store_true",
        help="search for free states beating the free reference at alpha != 1",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo-hubbard", help="ground-state nonfreeness of a small Hubbard chain")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--nup", type=int, default=None)
    p.add_argument("--ndown", type=int, default=None)
    p.add_argument(
        "--sweep",
        nargs="?",
        const="0,1,2,4,8",
        default=None,
        help="comma-separated interaction grid; emits a (u, nonfreeness) table",
    )
    p.set_defaults(func=_cmd_demo_hubbard)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
