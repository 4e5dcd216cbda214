"""State-description documents and machine-readable result documents.

Documents are JSON objects.  Complex numbers are [re, im] pairs, matrices
are row-major nested lists, and +infinity serializes as the string "+inf".
Deserialization re-runs every constructor validation.
"""

import json
import math
import re

import numpy as np

from ._version import __version__
from .errors import ValidationError, array, integer
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
    slater_amplitudes,
)

STATE_KINDS = ("pure", "mixture", "gibbs", "slater", "density", "hubbard")


def matrix_to_json(m) -> list:
    """A complex vector or matrix as [re, im] pairs in nested lists."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _complex(data, ndim: int) -> np.ndarray:
    """[re, im] pairs in rectangular lists `ndim` deep, as a complex array."""
    pairs = array(data, "complex array", (None,) * ndim + (2,), float)
    return pairs.view(complex)[..., 0]


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
        raise ValidationError(f"a JSON object is required here, got {type(doc).__name__}")
    if key not in doc:
        raise ValidationError(f"document is missing required field {key!r}")
    return doc[key]


def _integer_field(doc: dict, key: str) -> int:
    return integer(_require(doc, key), f"field {key!r}")


def _field(doc: dict, key: str, ndim: int) -> np.ndarray:
    """A numeric field: a number (ndim 0) or rectangular lists of numbers, as floats."""
    return array(_require(doc, key), f"field {key!r}", (None,) * ndim, float)


def density_to_document(rho: DensityOperator) -> dict:
    doc = {"d": rho.space.d, "kind": "density", "matrix": matrix_to_json(rho.matrix)}
    if rho.space.labels is not None:
        doc["labels"] = list(rho.space.labels)
    return doc


def state_from_document(doc: dict) -> State:
    """Build a state from a state document; validations re-run.

    `pure`, `slater` and `hubbard` documents give their amplitudes as a
    `PureState`, a `mixture` of those or of such mixtures a `FactoredState`,
    and every other kind, or a mixture with one, a `DensityOperator`.
    """
    d = _integer_field(doc, "d")
    kind = _require(doc, "kind")
    labels = doc.get("labels")
    if not isinstance(kind, str) or kind not in STATE_KINDS:
        raise ValidationError(f"unknown state kind {kind!r}")
    if kind == "hubbard":
        sites = _integer_field(doc, "sites")
        if d != 2 * sites:
            raise ValidationError(
                f"hubbard documents need d = 2 * sites, got d={d}, sites={sites}"
            )
        psi = hubbard_ground_amplitudes(
            sites,
            float(_field(doc, "t", 0)),
            float(_field(doc, "u", 0)),
            _integer_field(doc, "n_up"),
            _integer_field(doc, "n_down"),
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
        empty = isinstance(rows, list) and not rows  # only [] means no rows
        array = np.zeros((0, d), dtype=complex) if empty else matrix_from_json(rows)
        return slater_amplitudes(array, space)
    items = _require(doc, "components")
    if not isinstance(items, list):
        raise ValidationError("mixture components must be a list")
    components = []
    for item in items:
        sub = state_from_document(_require(item, "state"))
        if sub.space.d != d:
            raise ValidationError("mixture component dimension differs from document d")
        components.append((float(_field(item, "weight", 0)), sub))
    return mixture(components, labels)


def density_from_document(doc: dict) -> DensityOperator:
    """Build a density operator from a state document; validations re-run."""
    return state_from_document(doc).to_density()


def pdm_from_document(doc: dict) -> OnePdm:
    d = _integer_field(doc, "d")
    return OnePdm(OrbitalSpace(d), matrix_from_json(_require(doc, "gamma")))


def free_spec_to_document(spec: FreeStateSpec) -> dict:
    return {
        "d": spec.space.d,
        "kind": "free-spec",
        "occupations": [float(p) for p in spec.occupations],
        "orbitals": matrix_to_json(spec.orbitals),
    }


def free_spec_from_document(doc: dict) -> FreeStateSpec:
    d = _integer_field(doc, "d")
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


# The grammar of a rectangular array of JSON numbers, matched before numpy reads
# the array's text.  Quantifiers are possessive, so that a match keeps no
# backtracking state per number.  An integer has at most 18 digits: inside int64,
# where json's int and numpy's float read the same value.  Longer ones go to json.
_WS = rb"[ \t\n\r]*+"
_NUMBER = rb"-?+(?:0|[1-9][0-9]{0,17}+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+"
_TOKEN = re.compile(rb'"(?:[^"\\]++|\\.)*+"|[\[\]{}]', re.DOTALL)  # a string or a bracket
_OPENING = re.compile(rb"\[(?:" + _WS + rb"\[)*+")
_NEGATIVE_ZERO = re.compile(rb"-0(?![.eE0-9])")  # the integer -0, which json reads as 0
_MAX_DEPTH = 32  # well inside numpy's 64 dimensions; deeper arrays go to json
_CHUNK = 1 << 16  # bytes of array text copied at a time


def _list_pattern(item: bytes, n: int | None) -> bytes:
    """A JSON list of `n` items that match `item` (None: one or more)."""
    repeat = b"++" if n is None else b"{%d}+" % n
    # each item is followed by a comma and another item, or by the closing bracket
    step = rb"(?:,(?!%s\])|(?=\]))" % _WS
    return rb"\[(?:%s%s%s%s)%s%s\]" % (_WS, item, _WS, step, repeat, _WS)


def _numeric_array(data: bytes, start: int):
    """(float array, end) of the rectangular array of JSON numbers whose text
    starts at data[start]; None when the text there is any other value."""
    opening = _OPENING.match(data, start).group()
    if opening.count(b"[") > _MAX_DEPTH:
        return None
    # from the innermost list out: match the first list of each depth, whose
    # items have the shape found so far, and count its items by its commas
    item, shape, commas = _NUMBER, [], 0
    for offset in reversed([i for i, c in enumerate(opening) if c == ord("[")]):
        match = re.compile(_list_pattern(item, None)).match(data, start + offset)
        if match is None:
            return None
        n = (data.count(b",", start + offset, match.end()) + 1) // (commas + 1)
        shape.insert(0, n)
        commas = n * (commas + 1) - 1
        item = _list_pattern(item, n)
    end = match.end()
    array = np.empty(shape)
    flat, filled = array.reshape(-1), 0
    while start < end:  # the text a chunk at a time, each cut after a comma
        cut = data.find(b",", min(start + _CHUNK, end), end) + 1 or end
        text = data[start:cut].translate(None, b"[]")
        values = np.fromstring(text, sep=",")
        if (np.signbit(values) & (values == 0)).any():
            values = np.fromstring(_NEGATIVE_ZERO.sub(b"0", text), sep=",")
        flat[filled : filled + values.size] = values
        filled += values.size
        start = cut
    return array, end


def loads(text: str | bytes) -> dict:
    """Decode a JSON document, given as str or as bytes read as strict UTF-8.

    Each rectangular array of numbers that is the document or the value of an
    object member comes back as a float ndarray, read by numpy; json decodes
    the rest, other arrays as lists.  Every number reads as json reads it,
    the integer -0 as +0.0.
    """
    # a str's lone surrogates pass through to json, as they would undecoded
    errors = "surrogatepass" if isinstance(text, str) else "strict"
    data = text.encode("utf-8", errors) if isinstance(text, str) else text
    arrays, pieces, last, pos, enclosing = [], [], 0, 0, []
    while (token := _TOKEN.search(data, pos)) is not None:
        start, pos, kind = token.start(), token.end(), data[token.start()]
        if kind == ord("[") and (not enclosing or enclosing[-1] == ord("{")):
            found = _numeric_array(data, start)
            if found is not None:
                pieces.append(data[last:start])
                arrays.append(found[0])
                last = pos = found[1]
                continue
        if kind in b"[{":
            enclosing.append(kind)
        elif kind in b"]}" and enclosing:
            enclosing.pop()
    pieces.append(data[last:])
    # each array's text becomes a NaN, which json hands back through parse_constant
    if arrays and not any(b"NaN" in p or b"Infinity" in p for p in pieces):
        order = iter(arrays)
        try:
            rest = b" NaN ".join(pieces).decode("utf-8", errors)
            return json.loads(rest, parse_constant=lambda _: next(order))
        except (ValueError, RecursionError):
            pass  # decoding the whole text below raises the text's own error
    if not isinstance(text, str):
        text = data.decode("utf-8")
    return json.loads(text, parse_constant=_reject_constant)
