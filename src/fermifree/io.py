"""State-description documents and machine-readable result documents.

Documents are JSON objects.  Complex numbers are [re, im] pairs, matrices
are row-major nested lists, and +infinity serializes as the string "+inf".
Deserialization re-runs every constructor validation.
"""

import json
import math

import numpy as np

from ._version import __version__
from .errors import ValidationError
from .fock import OrbitalSpace
from .free import FreeStateSpec
from .pdm import OnePdm
from .states import (
    DensityOperator,
    PureState,
    gibbs_free_density,
    hubbard_ground_state,
    mixture,
    pure_density,
    slater_density,
)

STATE_KINDS = ("pure", "mixture", "gibbs", "slater", "density", "hubbard")


def complex_to_json(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def vector_to_json(v) -> list:
    return [complex_to_json(z) for z in np.asarray(v, dtype=complex)]


def matrix_to_json(m) -> list:
    return [vector_to_json(row) for row in np.asarray(m, dtype=complex)]


def vector_from_json(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def value_to_json(value):
    if isinstance(value, float) and math.isinf(value):
        return "+inf"
    return value


def value_from_json(value):
    if value == "+inf":
        return float("inf")
    return value


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValidationError(f"document is missing required field {key!r}")
    return doc[key]


def density_to_document(rho: DensityOperator) -> dict:
    doc = {
        "d": rho.space.d,
        "kind": "density",
        "matrix": matrix_to_json(rho.matrix),
    }
    if rho.space.labels is not None:
        doc["labels"] = list(rho.space.labels)
    return doc


def density_from_document(doc: dict) -> DensityOperator:
    """Build a density operator from a state document; validations re-run."""
    d = int(_require(doc, "d"))
    kind = _require(doc, "kind")
    labels = tuple(doc["labels"]) if doc.get("labels") is not None else None
    if kind not in STATE_KINDS:
        raise ValidationError(f"unknown state kind {kind!r}")
    if kind == "hubbard":
        sites = int(_require(doc, "sites"))
        if d != 2 * sites:
            raise ValidationError(
                f"hubbard documents need d = 2 * sites, got d={d}, sites={sites}"
            )
        return hubbard_ground_state(
            sites,
            float(_require(doc, "t")),
            float(_require(doc, "u")),
            int(_require(doc, "n_up")),
            int(_require(doc, "n_down")),
        )
    space = OrbitalSpace(d, labels)
    if kind == "pure":
        return pure_density(PureState(space, vector_from_json(_require(doc, "amplitudes"))))
    if kind == "density":
        return DensityOperator(space, matrix_from_json(_require(doc, "matrix")))
    if kind == "gibbs":
        return gibbs_free_density(np.array(_require(doc, "occupations"), float), space)
    if kind == "slater":
        rows = _require(doc, "orbitals")
        array = matrix_from_json(rows) if rows else np.zeros((0, d), dtype=complex)
        return slater_density(array, space)
    components = []
    for item in _require(doc, "components"):
        sub = density_from_document(_require(item, "state"))
        if sub.space.d != d:
            raise ValidationError("mixture component dimension differs from document d")
        components.append((float(_require(item, "weight")), sub))
    return mixture(components)


def pdm_to_document(pdm: OnePdm) -> dict:
    return {"d": pdm.space.d, "kind": "pdm", "gamma": matrix_to_json(pdm.gamma)}


def pdm_from_document(doc: dict) -> OnePdm:
    d = int(_require(doc, "d"))
    return OnePdm(OrbitalSpace(d), matrix_from_json(_require(doc, "gamma")))


def free_spec_to_document(spec: FreeStateSpec) -> dict:
    return {
        "d": spec.space.d,
        "kind": "free-spec",
        "occupations": [float(p) for p in spec.occupations],
        "orbitals": matrix_to_json(spec.orbitals),
    }


def free_spec_from_document(doc: dict) -> FreeStateSpec:
    d = int(_require(doc, "d"))
    return FreeStateSpec(
        OrbitalSpace(d),
        np.array(_require(doc, "occupations"), dtype=float),
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
