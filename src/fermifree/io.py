"""State-description documents and machine-readable result documents.

Documents are JSON objects.  Complex numbers are [re, im] pairs, matrices
are row-major nested lists, and +infinity serializes as the string "+inf".
Deserialization re-runs every constructor validation.
"""

import json
import math
from itertools import chain

import numpy as np

from . import fock
from ._version import __version__
from .errors import ValidationError
from .fock import OrbitalSpace
from .free import FreeStateSpec
from .pdm import OnePdm
from .states import (
    DensityOperator,
    PureState,
    State,
    gibbs_free_density,
    hubbard_ground_amplitudes,
    mixture,
    pure_density,
    slater_amplitudes,
)

STATE_KINDS = ("pure", "mixture", "gibbs", "slater", "density", "hubbard")


def matrix_to_json(m) -> list:
    """A complex vector or matrix as [re, im] pairs in nested lists."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _numbers(data, shape: tuple, what: str) -> np.ndarray:
    """`data` as a float array of `shape` (as ``fock._array`` reads it): JSON
    numbers in rectangular lists, no true or false among them."""
    array = fock._array(data, what, shape, float)
    # numpy reads a JSON true or false among numbers as 1 or 0, so look at the leaves
    leaves = [data]
    for _ in shape:
        leaves = chain.from_iterable(leaves)
    if bool in set(map(type, leaves)):
        raise ValidationError(f"{what} must be numbers, not true or false")
    return array


def _complex(data, ndim: int) -> np.ndarray:
    """[re, im] pairs in rectangular lists `ndim` deep, as a complex array."""
    return _numbers(data, (None,) * ndim + (2,), "complex array").view(complex)[..., 0]


def vector_from_json(data) -> np.ndarray:
    return _complex(data, 1)


def matrix_from_json(data) -> np.ndarray:
    return _complex(data, 2)


def value_to_json(value):
    if isinstance(value, float) and math.isinf(value):
        return "+inf"
    return value


def _require(doc: dict, key: str):
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValidationError(f"document is missing required field {key!r}")
    return doc[key]


def _integer(doc: dict, key: str) -> int:
    return fock._integer(_require(doc, key), f"field {key!r}")


def _field(doc: dict, key: str, ndim: int) -> np.ndarray:
    """A numeric field: a number (ndim 0) or rectangular lists of numbers, as floats."""
    return _numbers(_require(doc, key), (None,) * ndim, f"field {key!r}")


def density_to_document(rho: DensityOperator) -> dict:
    doc = {
        "d": rho.space.d,
        "kind": "density",
        "matrix": matrix_to_json(rho.matrix),
    }
    if rho.space.labels is not None:
        doc["labels"] = list(rho.space.labels)
    return doc


def state_from_document(doc: dict) -> State:
    """Build a state from a state document; validations re-run.

    `pure`, `slater` and `hubbard` documents give their amplitudes as a
    `PureState`, every other kind a `DensityOperator`.
    """
    d = _integer(doc, "d")
    kind = _require(doc, "kind")
    labels = doc.get("labels")
    strings = isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    if labels is not None and not strings:
        raise ValidationError("labels must be a list of strings")
    if kind not in STATE_KINDS:
        raise ValidationError(f"unknown state kind {kind!r}")
    if kind == "hubbard":
        sites = _integer(doc, "sites")
        if d != 2 * sites:
            raise ValidationError(
                f"hubbard documents need d = 2 * sites, got d={d}, sites={sites}"
            )
        psi = hubbard_ground_amplitudes(
            sites,
            float(_field(doc, "t", 0)),
            float(_field(doc, "u", 0)),
            _integer(doc, "n_up"),
            _integer(doc, "n_down"),
        )
        return psi if labels is None else PureState(OrbitalSpace(d, labels), psi.amplitudes)
    space = OrbitalSpace(d, labels)
    if kind == "pure":
        return PureState(space, vector_from_json(_require(doc, "amplitudes")))
    if kind == "density":
        return DensityOperator(space, matrix_from_json(_require(doc, "matrix")))
    if kind == "gibbs":
        return gibbs_free_density(_field(doc, "occupations", 1), space)
    if kind == "slater":
        rows = _require(doc, "orbitals")
        array = matrix_from_json(rows) if rows else np.zeros((0, d), dtype=complex)
        return slater_amplitudes(array, space)
    items = _require(doc, "components")
    if not isinstance(items, list):
        raise ValidationError("mixture components must be a list")
    components = []
    for item in items:
        sub = density_from_document(_require(item, "state"))
        if sub.space.d != d:
            raise ValidationError("mixture component dimension differs from document d")
        components.append((float(_field(item, "weight", 0)), sub))
    return mixture(components, labels)


def density_from_document(doc: dict) -> DensityOperator:
    """Build a density operator from a state document; validations re-run."""
    state = state_from_document(doc)
    return pure_density(state) if isinstance(state, PureState) else state


def pdm_from_document(doc: dict) -> OnePdm:
    d = _integer(doc, "d")
    return OnePdm(OrbitalSpace(d), matrix_from_json(_require(doc, "gamma")))


def free_spec_to_document(spec: FreeStateSpec) -> dict:
    return {
        "d": spec.space.d,
        "kind": "free-spec",
        "occupations": [float(p) for p in spec.occupations],
        "orbitals": matrix_to_json(spec.orbitals),
    }


def free_spec_from_document(doc: dict) -> FreeStateSpec:
    d = _integer(doc, "d")
    return FreeStateSpec(
        OrbitalSpace(d),
        _field(doc, "occupations", 1),
        matrix_from_json(_require(doc, "orbitals")),
    )


def make_result(quantity: str, value, units: str, inputs: dict, config: dict) -> dict:
    """Assemble a result document with tool metadata and input echo."""
    return {
        "tool": "fermifree",
        "version": __version__,
        "quantity": quantity,
        "value": value_to_json(value),
        "units": units,
        "inputs": inputs,
        "config": config,
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def _reject_constant(name: str):
    raise ValidationError(f"documents may not contain the non-finite number {name}")


def loads(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)
