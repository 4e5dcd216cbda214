"""Document round-trips and the command-line surface."""

import copy
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermifree import (
    DensityOperator,
    OrbitalSpace,
    ValidationError,
    config,
    mixture,
    remark_state,
)
from fermifree import io as ffio
from fermifree.cli import main
from fermifree.pdm import one_pdm
from fermifree.states import FactoredState
from fermifree.verify import sample_density, sample_free_spec

H23 = math.log(3.0) - (2.0 / 3.0) * math.log(2.0)


# --- round-trips ---------------------------------------------------------------


def test_density_document_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    rho = sample_density(OrbitalSpace(2), rng)
    doc = ffio.density_to_document(rho)
    text = ffio.dumps(doc)
    again = ffio.density_from_document(ffio.loads(text))
    assert np.array_equal(rho.matrix, again.matrix)
    assert ffio.dumps(ffio.density_to_document(again)) == text


def test_pure_document():
    doc = {
        "d": 1,
        "kind": "pure",
        "amplitudes": [[1.0, 0.0], [0.0, 0.0]],
    }
    rho = ffio.density_from_document(doc)
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_gibbs_document():
    doc = {"d": 2, "kind": "gibbs", "occupations": [2 / 3, 1 / 3]}
    rho = ffio.density_from_document(doc)
    np.testing.assert_allclose(
        np.diag(rho.matrix).real, [2 / 9, 4 / 9, 1 / 9, 2 / 9]
    )


def test_slater_document():
    doc = {
        "d": 2,
        "kind": "slater",
        "orbitals": [[[1.0, 0.0], [0.0, 0.0]]],
    }
    rho = ffio.density_from_document(doc)
    np.testing.assert_allclose(np.diag(rho.matrix).real, [0, 1, 0, 0])


def test_mixture_document_builds_remark_state():
    doc = {
        "d": 2,
        "kind": "mixture",
        "components": [
            {
                "weight": 2 / 3,
                "state": {
                    "d": 2,
                    "kind": "pure",
                    "amplitudes": [[0, 0], [1, 0], [0, 0], [0, 0]],
                },
            },
            {
                "weight": 1 / 3,
                "state": {
                    "d": 2,
                    "kind": "pure",
                    "amplitudes": [[0, 0], [0, 0], [1, 0], [0, 0]],
                },
            },
        ],
    }
    rho = ffio.density_from_document(doc)
    np.testing.assert_allclose(rho.matrix, remark_state().matrix)


def test_hubbard_document():
    doc = {"d": 4, "kind": "hubbard", "sites": 2, "t": 1.0, "u": 0.0, "n_up": 1, "n_down": 1}
    rho = ffio.density_from_document(doc)
    assert abs(rho.matrix.trace() - 1.0) < 1e-12


def test_pdm_and_free_spec_documents():
    rng = np.random.default_rng(1)
    pdm = one_pdm(sample_density(OrbitalSpace(2), rng))
    doc = {"d": 2, "kind": "pdm", "gamma": ffio.matrix_to_json(pdm.gamma)}
    back = ffio.pdm_from_document(ffio.loads(ffio.dumps(doc)))
    assert np.array_equal(pdm.gamma, back.gamma)
    spec = sample_free_spec(OrbitalSpace(2), rng)
    doc = ffio.free_spec_to_document(spec)
    back_spec = ffio.free_spec_from_document(ffio.loads(ffio.dumps(doc)))
    assert np.array_equal(spec.orbitals, back_spec.orbitals)
    assert np.array_equal(spec.occupations, back_spec.occupations)


def test_infinite_values_serialize():
    assert ffio.value_to_json(float("inf")) == "+inf"
    assert ffio.value_to_json(1.25) == 1.25


def test_unknown_kind_rejected():
    with pytest.raises(Exception, match="kind"):
        ffio.density_from_document({"d": 1, "kind": "bogus"})


@pytest.mark.parametrize("kind", ["[0, 0]", "[1]", "0", "{}", "null"])
def test_non_string_kind_rejected(kind):
    """The text reader turns a numeric list into an array, whose membership
    test in the kind names has no single truth value."""
    doc = ffio.loads(f'{{"d": 1, "kind": {kind}, "amplitudes": [[1, 0], [0, 0]]}}')
    with pytest.raises(ValidationError, match="kind"):
        ffio.state_from_document(doc)


# --- CLI -----------------------------------------------------------------------


def write_remark(tmp_path):
    path = tmp_path / "remark.json"
    path.write_text(ffio.dumps(ffio.density_to_document(remark_state())))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_nonfreeness_nats_and_bits(tmp_path, capsys):
    state = write_remark(tmp_path)
    code, out, _ = run_cli(capsys, ["nonfreeness", state])
    assert code == 0
    doc = json.loads(out)
    assert doc["units"] == "nats"
    assert doc["version"]
    assert abs(doc["value"]["nonfreeness"] - 0.636514) < 1e-5
    code, out, _ = run_cli(capsys, ["nonfreeness", state, "--bits"])
    doc = json.loads(out)
    assert doc["units"] == "bits"
    assert abs(doc["value"]["nonfreeness"] - 0.918296) < 1e-5


def test_cli_nonfreeness_cross_check(tmp_path, capsys):
    state = write_remark(tmp_path)
    code, out, _ = run_cli(capsys, ["nonfreeness", state, "--cross-check"])
    assert code == 0
    assert json.loads(out)["value"]["cross_check"] < 1e-7


def test_cli_nonfreeness_slater_zero(tmp_path, capsys):
    path = tmp_path / "slater.json"
    doc = {"d": 3, "kind": "slater", "orbitals": [[[1, 0], [0, 0], [0, 0]]]}
    path.write_text(ffio.dumps(doc))
    code, out, _ = run_cli(capsys, ["nonfreeness", str(path)])
    assert code == 0
    assert json.loads(out)["value"]["nonfreeness"] < 1e-8


def test_cli_malformed_trace_exits_2(tmp_path, capsys):
    space = OrbitalSpace(1)
    doc = {"d": 1, "kind": "density", "matrix": [[[0.6, 0], [0, 0]], [[0, 0], [0.6, 0]]]}
    path = tmp_path / "bad.json"
    path.write_text(ffio.dumps(doc))
    code, _, err = run_cli(capsys, ["nonfreeness", str(path)])
    assert code == 2
    assert "trace deviates" in err


def test_cli_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["nonfreeness", str(path)])
    assert code == 2
    assert "invalid JSON" in err


NAN_DIAGONAL = (
    '{"d": 2, "kind": "density", "matrix": [[[0.5, 0], [0, 0], [0, 0], [0, 0]],'
    ' [[0, 0], [0.5, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [NaN, 0], [0, 0]],'
    ' [[0, 0], [0, 0], [0, 0], [0, 0]]]}'
)
# indices 1 and 2 both hold one particle, so the NaN sits inside a sector block
NAN_IN_SECTOR = (
    '{"d": 2, "kind": "density", "matrix": [[[0.25, 0], [0, 0], [0, 0], [0, 0]],'
    ' [[0, 0], [0.25, 0], [NaN, 0], [0, 0]], [[0, 0], [NaN, 0], [0.25, 0], [0, 0]],'
    ' [[0, 0], [0, 0], [0, 0], [0.25, 0]]]}'
)
INFINITY = '{"d": 1, "kind": "gibbs", "occupations": [Infinity]}'


@pytest.mark.parametrize("text", [NAN_DIAGONAL, NAN_IN_SECTOR, INFINITY])
def test_cli_non_finite_document_exits_2(tmp_path, capsys, text):
    path = tmp_path / "non-finite.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["nonfreeness", str(path)])
    assert code == 2
    assert out == ""
    assert "non-finite" in err and "Traceback" not in err


def test_non_finite_matrix_rejected_without_json_literals():
    doc = {"d": 1, "kind": "density", "matrix": [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]}
    with pytest.raises(ValidationError, match="non-finite"):
        ffio.density_from_document(doc)


HUBBARD_DOC = {"d": 4, "kind": "hubbard", "sites": 2, "t": 1, "u": 0, "n_up": 1, "n_down": 1}
GIBBS_DOC = {"d": 1, "kind": "gibbs", "occupations": [0.5]}
DENSITY_DOC = {"d": 1, "kind": "density", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
BAD_TYPE_DOCUMENTS = {
    "string d": dict(DENSITY_DOC, d="1.5"),
    "bool d": dict(GIBBS_DOC, d=True),
    "string matrix entry": dict(DENSITY_DOC, matrix=[[["a", 0], [0, 0]], [[0, 0], [0, 0]]]),
    "short pair": dict(DENSITY_DOC, matrix=[[[1], [0]], [[0], [0]]]),
    "ragged rows": dict(DENSITY_DOC, matrix=[[[1, 0], [0, 0]], [[0, 0]]]),
    "string sites": dict(HUBBARD_DOC, sites="2"),
    "float n_up": dict(HUBBARD_DOC, n_up=1.0),
    "string t": dict(HUBBARD_DOC, t="x"),
    "non-list labels": dict(GIBBS_DOC, labels=7),
    "non-list components": {"d": 1, "kind": "mixture", "components": 3},
    "string weight": {
        "d": 1, "kind": "mixture", "components": [{"weight": "1", "state": GIBBS_DOC}]
    },
    "slater row too long": {"d": 2, "kind": "slater", "orbitals": [[[1, 0], [0, 0], [0, 0]]]},
    "array document": [1, 2],
    "non-unitary free-spec orbitals": {
        "d": 2, "kind": "free-spec", "occupations": [0.5, 0.5],
        "orbitals": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]],
    },
    "1 x 2 free-spec orbitals": {
        "d": 2, "kind": "free-spec", "occupations": [0.5, 0.5], "orbitals": [[[1, 0], [0, 0]]]
    },
    # only [] means a Slater state without rows
    **{
        f"{name} slater orbitals": {"d": 2, "kind": "slater", "orbitals": value}
        for name, value in [
            ("null", None), ("false", False), ("empty string", ""), ("zero", 0.0), ("empty object", {})
        ]
    },
}


@pytest.mark.parametrize("name", sorted(BAD_TYPE_DOCUMENTS))
def test_cli_bad_json_types_exit_2(tmp_path, capsys, name):
    doc = BAD_TYPE_DOCUMENTS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    command = "purify" if isinstance(doc, dict) and doc["kind"] == "free-spec" else "nonfreeness"
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


OVERFLOWING_DOCUMENTS = {
    "slater": (
        "nonfreeness", {"d": 2, "kind": "slater", "orbitals": [[[1e308, 0], [1e308, 0]]]},
        "orthonormal",
    ),
    "pure": ("nonfreeness", {"d": 1, "kind": "pure", "amplitudes": [[1e308, 0]] * 2}, "norm"),
    "density": (
        "nonfreeness", {"d": 1, "kind": "density", "matrix": [[[1e308, 0]] * 2] * 2}, "trace"
    ),
    "pdm": (
        "free-from-pdm",
        {"d": 2, "kind": "pdm", "gamma": [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]},
        "1-pdm eigenvalues",
    ),
    "antisymmetric density": (
        "nonfreeness",
        {"d": 1, "kind": "density", "matrix": [[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]]},
        "not Hermitian",
    ),
    "antisymmetric pdm": (
        "free-from-pdm",
        {"d": 2, "kind": "pdm", "gamma": [[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]]},
        "not Hermitian",
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_DOCUMENTS))
def test_cli_overflowing_documents_exit_2_without_warnings(tmp_path, capsys, name):
    # each validation quantity overflows to inf or NaN and is then rejected;
    # no numpy RuntimeWarning may reach stderr beside the error line
    command, doc, message = OVERFLOWING_DOCUMENTS[name]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


BOOLEAN_AMONG_NUMBERS = {
    "matrix entry": (
        "nonfreeness", dict(DENSITY_DOC, matrix=[[[True, 0], [0, 0]], [[0, 0], [0, 0]]])
    ),
    "matrix pair": (
        "nonfreeness", dict(DENSITY_DOC, matrix=[[[1, 0], [0, 0]], [[0, 0], [True, False]]])
    ),
    "amplitude entry": (
        "nonfreeness", {"d": 1, "kind": "pure", "amplitudes": [[True, 0], [0, 0]]}
    ),
    "occupation list": (
        "purify",
        {"d": 2, "kind": "free-spec", "occupations": [0.5, True],
         "orbitals": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    ),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_AMONG_NUMBERS))
def test_cli_json_booleans_among_numbers_exit_2(tmp_path, capsys, name):
    # numpy would read each of these as 1 and 0, giving a valid state
    command, doc = BOOLEAN_AMONG_NUMBERS[name]
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "true or false" in err


def test_pdm_and_spec_documents_reject_bad_types():
    with pytest.raises(ValidationError, match="integer"):
        ffio.pdm_from_document({"d": "2", "gamma": [[[0.5, 0]]]})
    with pytest.raises(ValidationError, match="occupations"):
        ffio.free_spec_from_document({"d": 1, "occupations": ["x"], "orbitals": [[[1, 0]]]})


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)  # io.loads rejects NaN and Infinity
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)

VALID_DOCUMENTS = [
    {"d": 1, "kind": "pure", "amplitudes": [[0.6, 0], [0, 0.8]], "labels": ["a"]},
    {"d": 1, "kind": "density", "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
    {"d": 2, "kind": "gibbs", "occupations": [0.25, 0.5]},
    {"d": 2, "kind": "slater", "orbitals": [[[0.6, 0], [0, 0.8]]]},
    {"d": 4, "kind": "hubbard", "sites": 2, "t": 1.0, "u": 2.0, "n_up": 1, "n_down": 1},
    {
        "d": 1,
        "kind": "mixture",
        "components": [
            {"weight": 0.5, "state": {"d": 1, "kind": "gibbs", "occupations": [0.5]}},
            {"weight": 0.5, "state": {"d": 1, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]}},
        ],
    },
]


def _paths(node, prefix=()):
    """Every position in a document tree: the root, each dict value and list entry."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutated(data, base):
    """A copy of document `base` with one to three values replaced or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        value = data.draw(JSON_VALUES, label="value")
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data(), base=st.sampled_from(VALID_DOCUMENTS))
def test_malformed_documents_raise_only_validation_error(data, base):
    doc = _mutated(data, base)
    try:
        state = ffio.state_from_document(doc)
    except ValidationError:
        with pytest.raises(ValidationError):  # both readers accept the same documents
            ffio.density_from_document(doc)
        return
    assert isinstance(state, (DensityOperator, FactoredState))
    assert isinstance(ffio.density_from_document(doc), DensityOperator)


# --- the text reader against json's lists ------------------------------------


def _json_lists(text):
    """The reference reader: json alone, every array as lists."""
    return json.loads(text, parse_constant=ffio._reject_constant)


def _reading(loads, text):
    """(document tree, state) that `loads` and the list path make of `text`,
    None for each step that rejects it."""
    try:
        tree = loads(text)
    except (ValidationError, json.JSONDecodeError, RecursionError):  # what the CLI reports
        return None, None
    try:
        return tree, ffio.state_from_document(tree)
    except ValidationError:
        return tree, None


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def _state_data(state):
    """The arrays a state holds: a density operator's matrix, or a factored
    state's columns and weights."""
    if isinstance(state, FactoredState):
        return state.vectors, state.weights
    return (state.matrix,)


def _leaves(node):
    if isinstance(node, list):
        for child in node:
            yield from _leaves(child)
    else:
        yield node


def _assert_same_tree(tree, reference):
    """`tree` is `reference`, but for float arrays in place of lists of
    numbers, bit for bit (sign of zero included)."""
    if isinstance(tree, np.ndarray):
        # what the list path admits: integers that fit int64 or uint64, no true or false
        assert isinstance(reference, list)
        assert all(type(x) in (int, float) for x in _leaves(reference))
        expected = np.asarray(reference)
        assert expected.dtype.kind in "iuf"
        expected = expected.astype(float)
        assert tree.dtype == np.float64 and tree.shape == expected.shape
        assert np.array_equal(_bits(tree), _bits(expected))
    elif isinstance(tree, (dict, list)):
        assert type(tree) is type(reference) and len(tree) == len(reference)
        if isinstance(tree, dict):
            assert tree.keys() == reference.keys()
            tree, reference = tree.values(), reference.values()
        for a, b in zip(tree, reference):
            _assert_same_tree(a, b)
    else:
        assert type(tree) is type(reference) and tree == reference


def assert_read_as_json_reads(text):
    """io.loads, from str and from UTF-8 bytes, accepts and rejects what json
    does, and every state built from it is the list path's, bit for bit."""
    ref_tree, ref_state = _reading(_json_lists, text)
    for source in (text, text.encode("utf-8", "surrogatepass")):
        tree, state = _reading(ffio.loads, source)
        assert (tree is None) == (ref_tree is None)
        assert (state is None) == (ref_state is None)
        if tree is not None:
            _assert_same_tree(tree, ref_tree)
        if state is not None:
            assert type(state) is type(ref_state) and state.space == ref_state.space
            for data, ref_data in zip(_state_data(state), _state_data(ref_state)):
                assert np.array_equal(_bits(data.view(float)), _bits(ref_data.view(float)))


WHITESPACE = st.sampled_from(["", "", " ", "\t", "\n", "\r", " \r\n\t"])
INDENTS = st.sampled_from([None, 0, 2, "\t", "\r\n"])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), base=st.sampled_from(VALID_DOCUMENTS))
def test_text_reader_matches_json_on_mutated_documents(data, base):
    doc = _mutated(data, base) if data.draw(st.booleans(), label="mutate") else base
    comma = data.draw(WHITESPACE) + "," + data.draw(WHITESPACE)
    colon = data.draw(WHITESPACE) + ":" + data.draw(WHITESPACE)
    assert_read_as_json_reads(json.dumps(doc, indent=data.draw(INDENTS), separators=(comma, colon)))


# JSON numbers, among them integers just inside and just outside [-2^63, 2^64)
NUMBERS = [
    "0", "-0", "-0.0", "0.5", "-0.5", "5e-1", "2.5E-1", "1E+2", "4.9e-324", "-4.9e-324", "1e-400",
    "1e400", "-1e400", "123456789012345678", "1234567890123456789", "0.1234567890123456789",
    "-9223372036854775808", "-9223372036854775809", "18446744073709551615",
    "18446744073709551616",
]
# tokens that are not JSON numbers, or not numbers at all
NOT_NUMBERS = [
    "01", ".5", "+1", "1.", "1e", "-", "1 2", "true", "false", "null", "NaN", "-Infinity",
    '"[1,2]"', "[]", "[1]", "{}",
]
# spellings of the entries of a valid d=1 density matrix
ZERO = ["0", "-0", "0.0", "-0.0", "0E0", "-0e+3", "1e-400", "4.9e-324", "-4.9e-324"]
QUARTER = ["0.25", "2.5E-1", "25e-2", "0.250"]
THREE_QUARTERS = ["0.75", "7.5e-1", "75E-2", "0.7500"]


@st.composite
def list_texts(draw, items, malformed=True):
    """A JSON list of the texts `items`, with random whitespace; if `malformed`,
    now and then a missing or doubled comma, or one after the last item."""
    comma, trailing = ",", ""
    if malformed:
        comma = draw(st.sampled_from([","] * 8 + ["", ",,"]))
        trailing = draw(st.sampled_from([""] * 9 + [","]))
    ws = draw(WHITESPACE)
    return "[" + ws + (ws + comma + ws).join(items) + ws + trailing + "]"


@st.composite
def density_texts(draw):
    """(text, valid): a d=1 density document whose matrix entries are spelled
    in many ways.  A valid one is a state; the others may hold foreign tokens
    and malformed lists."""
    valid = draw(st.booleans(), label="valid")
    slot = st.sampled_from(ZERO if valid else ZERO + NUMBERS + NOT_NUMBERS)
    diagonal = [draw(st.sampled_from(QUARTER)), draw(st.sampled_from(THREE_QUARTERS))]
    rows = []
    for i in range(2):
        pairs = []
        for j in range(2):
            real = diagonal[i] if i == j else draw(slot)
            pairs.append(draw(list_texts([real, draw(slot)], not valid)))
        rows.append(draw(list_texts(pairs, not valid)))
    ws = draw(WHITESPACE)
    matrix = draw(list_texts(rows, not valid))
    text = f'{{"d": 1,{ws}"kind": "density", "labels": ["[1,2]"], "matrix":{ws}{matrix}}}'
    return text, valid


@settings(max_examples=120, deadline=None)
@given(case=density_texts())
def test_text_reader_matches_json_on_spelled_numbers(case):
    text, valid = case
    assert_read_as_json_reads(text)
    if valid:
        assert isinstance(ffio.loads(text)["matrix"], np.ndarray)
        assert isinstance(ffio.state_from_document(ffio.loads(text)), DensityOperator)


ARRAY_TEXTS = st.recursive(
    st.sampled_from(NUMBERS + NOT_NUMBERS),
    lambda inner: st.lists(inner, max_size=3).flatmap(list_texts),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(array=ARRAY_TEXTS, kind=st.sampled_from(["density", "gibbs", "pure"]))
def test_text_reader_matches_json_on_arbitrary_arrays(array, kind):
    field = {"density": "matrix", "gibbs": "occupations", "pure": "amplitudes"}[kind]
    assert_read_as_json_reads(f'{{"d": 1, "kind": "{kind}", "{field}": {array}}}')
    assert_read_as_json_reads(array)


STRUCTURES = {
    "empty": "[]",
    "empty row": "[[]]",
    "ragged rows": "[[1, 2], [3]]",
    "ragged depth": "[1, [2]]",
    "empty and full rows": "[[], [1]]",
    "65 deep": "[" * 65 + "0.5" + "]" * 65,
    "33 deep": "[" * 33 + "0.5" + "]" * 33,
    "string with brackets": '["[1,2]", [1, 2]]',
    "numbers after strings": '[[1, 2], "x", [3, 4]]',
    "object in list": '[{"a": [1, 2]}, [3, 4]]',
    "unterminated string": '["a, [1, 2]]',
    "extra data": "[1, 2] [3]",
    "trailing number": "[1, 2]3",
    "whitespace": " \t\r\n[ \t\r\n1 \t\r\n, \t\r\n2 \t\r\n] \t\r\n",
    "form feed": "[1,\f2]",
    "vertical tab": "[1\v, 2]",
    "NaN after": '[[0.5, 0]], "x": NaN',
    "-Infinity before": '-Infinity, "x": [[0.5, 0]]',
    "NaN in a string": '[[0.5, 0]], "labels": ["NaN"]',
}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_text_reader_matches_json_on_structures(name):
    array = STRUCTURES[name]
    assert_read_as_json_reads(array)
    for kind, field in [("density", "matrix"), ("gibbs", "occupations"), ("slater", "orbitals")]:
        assert_read_as_json_reads(f'{{"d": 1, "kind": "{kind}", "{field}": {array}}}')


def test_text_reader_matches_json_on_unclosed_nesting():
    assert_read_as_json_reads("[" * 100_000)


@pytest.mark.parametrize("token", NUMBERS + NOT_NUMBERS)
def test_text_reader_matches_json_on_each_token(token):
    assert_read_as_json_reads(f"[{token}]")
    assert_read_as_json_reads(f'{{"d": 1, "kind": "gibbs", "occupations": [{token}, 0.5]}}')
    matrix = f"[[[0.25, 0], [0, 0]], [[0, 0], [0.75, {token}]]]"
    assert_read_as_json_reads(f'{{"d": 1, "kind": "density", "matrix": {matrix}}}')


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_text_reader_reads_across_chunks(monkeypatch, chunk):
    # numpy reads an array's text a chunk at a time, each cut after a comma
    monkeypatch.setattr(ffio, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    spellings = np.array(ZERO + QUARTER + NUMBERS[:6] + ["-1e-7", "123456789012345678"])
    entries = rng.choice(spellings, size=(6, 5, 2))
    rows = ["[" + ",\n ".join(f"[{a},\t{b}]" for a, b in row) + "]" for row in entries]
    text = '{"d": 1, "kind": "density", "matrix": [' + ", ".join(rows) + "]}"
    assert isinstance(ffio.loads(text)["matrix"], np.ndarray)
    assert_read_as_json_reads(text)


def test_text_reader_decodes_numeric_arrays_to_ndarrays():
    doc = ffio.loads(ffio.dumps(ffio.density_to_document(remark_state())))
    assert isinstance(doc["matrix"], np.ndarray) and doc["matrix"].shape == (4, 4, 2)
    nested = ffio.loads('{"components": [{"weight": 0.5, "state": {"occupations": [0.5]}}]}')
    assert isinstance(nested["components"], list)
    assert isinstance(nested["components"][0]["state"]["occupations"], np.ndarray)
    assert np.signbit(ffio.loads("[-0, -0.0]")).tolist() == [False, True]


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_cli_bad_dmax_env_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("FERMIFREE_DMAX", raw)
    code, out, err = run_cli(capsys, ["demo-hubbard", "--sites", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: FERMIFREE_DMAX") and err.count("\n") == 1


def test_cli_config_echoes_every_tolerance(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["nonfreeness", write_remark(tmp_path)])
    assert code == 0
    echoed = json.loads(out)["config"]
    for name, value in vars(config).items():
        if name.startswith("TOL_") or name == "KERNEL_TOL":
            assert echoed[name.lower()] == value


def test_cli_cross_check_infinite_breach_exits_1(tmp_path, capsys):
    # The free reference's smallest Bernoulli weight falls under KERNEL_TOL, so
    # the direct relative entropy is +inf; it must serialize, not crash.
    path = tmp_path / "hubbard.json"
    path.write_text(
        '{"d":8,"kind":"hubbard","sites":4,"t":1.305,"u":2.0,"n_up":2,"n_down":2}'
    )
    code, out, err = run_cli(capsys, ["nonfreeness", str(path), "--cross-check"])
    assert code == 1
    assert json.loads(out)["value"]["cross_check"] == "+inf"
    assert "cross-check breach" in err
    assert "Traceback" not in err


def test_cli_renyi(tmp_path, capsys):
    state = write_remark(tmp_path)
    code, out, _ = run_cli(capsys, ["renyi", state, "--alpha", "0.5", "--sandwiched"])
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "sandwiched-renyi-correlation"
    assert abs(doc["value"] - 0.610929) < 1e-5


def test_cli_pdm(tmp_path, capsys):
    state = write_remark(tmp_path)
    code, out, _ = run_cli(capsys, ["pdm", state])
    assert code == 0
    doc = json.loads(out)
    gamma = ffio.matrix_from_json(doc["value"]["gamma"])
    np.testing.assert_allclose(gamma, np.diag([2 / 3, 1 / 3]), atol=1e-12)
    assert abs(doc["value"]["particle_number"] - 1.0) < 1e-10


def test_cli_restrict_pair_state(tmp_path, capsys):
    from fermifree import pair_state

    path = tmp_path / "pair.json"
    path.write_text(ffio.dumps(ffio.density_to_document(pair_state())))
    code, out, _ = run_cli(capsys, ["restrict", str(path), "--keep", "1,2"])
    assert code == 0
    doc = json.loads(out)
    sub = ffio.density_from_document(doc["value"])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(sub.matrix, expected, atol=1e-12)


LABELLED_HUBBARD = {"d": 4, "kind": "hubbard", "sites": 2, "t": 1, "u": 4, "n_up": 1, "n_down": 1}


def test_cli_hubbard_labels_survive_restrict(tmp_path, capsys):
    path = tmp_path / "hubbard.json"
    path.write_text(ffio.dumps(dict(LABELLED_HUBBARD, labels=["a", "b", "c", "d"])))
    code, out, _ = run_cli(capsys, ["restrict", str(path), "--keep", "1"])
    assert code == 0
    assert json.loads(out)["value"]["labels"] == ["a"]
    code, out, _ = run_cli(capsys, ["restrict", str(path), "--keep", "2,4"])
    assert code == 0
    assert json.loads(out)["value"]["labels"] == ["b", "d"]


def labelled_mixture(labels, first, second):
    """The remark state as a mixture document of two Slater states, each
    document labelled when its labels are not None."""
    components = []
    for weight, row, names in ((2 / 3, [[1, 0], [0, 0]], first), (1 / 3, [[0, 0], [1, 0]], second)):
        state = {"d": 2, "kind": "slater", "orbitals": [row]}
        state = state if names is None else dict(state, labels=names)
        components.append({"weight": weight, "state": state})
    doc = {"d": 2, "kind": "mixture", "components": components}
    return doc if labels is None else dict(doc, labels=labels)


def test_mixture_document_keeps_its_labels():
    rho = ffio.state_from_document(labelled_mixture(["up", "dn"], None, None))
    assert rho.space.labels == ("up", "dn")
    np.testing.assert_allclose(rho.to_density().matrix, remark_state().matrix, atol=1e-15)
    rho = ffio.state_from_document(labelled_mixture(None, ["a", "b"], ["a", "b"]))
    assert rho.space.labels == ("a", "b")
    with pytest.raises(ValidationError, match="different spaces"):
        ffio.state_from_document(labelled_mixture(None, ["a", "b"], ["c", "d"]))


def test_labels_are_strings_wherever_a_space_is_built():
    rho = sample_density(OrbitalSpace(2), np.random.default_rng(3))
    for labels in ((1, 2), (None, "x"), 5, "ab"):
        with pytest.raises(ValidationError, match="labels must be strings"):
            OrbitalSpace(2, labels)
        with pytest.raises(ValidationError, match="labels must be strings"):
            mixture([(1.0, rho)], labels)
        doc = dict(ffio.density_to_document(rho), labels=labels)
        with pytest.raises(ValidationError, match="labels must be strings"):
            ffio.state_from_document(doc)
    labelled = DensityOperator(OrbitalSpace(2, ("up", "dn")), rho.matrix)
    again = ffio.state_from_document(ffio.loads(ffio.dumps(ffio.density_to_document(labelled))))
    assert again.space == labelled.space and np.array_equal(again.matrix, labelled.matrix)


def test_repeated_labels_are_rejected_and_a_document_with_them_exits_2(tmp_path, capsys):
    rho = sample_density(OrbitalSpace(2), np.random.default_rng(3))
    with pytest.raises(ValidationError, match="labels must be distinct"):
        OrbitalSpace(2, ["a", "a"])
    with pytest.raises(ValidationError, match="labels must be distinct"):
        mixture([(1.0, rho)], ["a", "a"])
    path = tmp_path / "repeated.json"
    path.write_text(ffio.dumps(dict(ffio.density_to_document(rho), labels=["a", "a"])))
    code, out, err = run_cli(capsys, ["nonfreeness", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: labels must be distinct\n"


def test_cli_mixture_labels_survive_restrict(tmp_path, capsys):
    path = tmp_path / "mixture.json"
    path.write_text(ffio.dumps(labelled_mixture(["up", "dn"], None, None)))
    code, out, _ = run_cli(capsys, ["restrict", str(path), "--keep", "2"])
    assert code == 0
    assert json.loads(out)["value"]["labels"] == ["dn"]


def test_cli_mixture_components_with_different_labels_exit_2(tmp_path, capsys):
    path = tmp_path / "mixture.json"
    path.write_text(ffio.dumps(labelled_mixture(None, ["a", "b"], ["c", "d"])))
    code, out, err = run_cli(capsys, ["restrict", str(path), "--keep", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: mixture components live on different spaces\n"


def test_cli_hubbard_wrong_label_count_exits_2(tmp_path, capsys):
    path = tmp_path / "hubbard.json"
    path.write_text(ffio.dumps(dict(LABELLED_HUBBARD, labels=["a"])))
    code, out, err = run_cli(capsys, ["restrict", str(path), "--keep", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: expected 4 labels, got 1\n"


def test_cli_free_from_pdm_and_purify(tmp_path, capsys):
    pdm_doc = {"d": 2, "kind": "pdm", "gamma": ffio.matrix_to_json(np.diag([2 / 3, 1 / 3]))}
    pdm_path = tmp_path / "pdm.json"
    pdm_path.write_text(ffio.dumps(pdm_doc))
    code, out, _ = run_cli(capsys, ["free-from-pdm", str(pdm_path)])
    assert code == 0
    doc = json.loads(out)
    built = ffio.density_from_document(doc["value"]["state"])
    np.testing.assert_allclose(
        np.diag(built.matrix).real, [2 / 9, 4 / 9, 1 / 9, 2 / 9], atol=1e-12
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(ffio.dumps(doc["value"]["free_spec"]))
    code, out, _ = run_cli(capsys, ["purify", str(spec_path)])
    assert code == 0
    purified = json.loads(out)["value"]
    assert purified["d"] == 4
    rows = ffio.matrix_from_json(purified["orbitals"])
    np.testing.assert_allclose(rows.conj() @ rows.T, np.eye(2), atol=1e-12)


def test_cli_stdin_dash(tmp_path, capsys, monkeypatch):
    import io as std_io

    text = ffio.dumps(ffio.density_to_document(remark_state()))
    monkeypatch.setattr("sys.stdin", std_io.StringIO(text))
    code, out, _ = run_cli(capsys, ["nonfreeness", "-"])
    assert code == 0
    assert abs(json.loads(out)["value"]["nonfreeness"] - H23) < 1e-9


def test_cli_verify_small(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--seed", "3", "--dmax", "3", "--trials", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "property-suite"
    assert all(item["passed"] for item in doc["value"])


def test_cli_verify_zero_trials_exits_2(capsys):
    code, out, err = run_cli(capsys, ["verify", "--trials", "0"])
    assert code == 2
    assert out == ""
    assert "trials must be >= 1" in err


@pytest.mark.parametrize("flags", [[], ["--counterexample"]])
def test_cli_verify_negative_seed_exits_2(capsys, flags):
    code, out, err = run_cli(capsys, ["verify", "--seed", "-1", *flags])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "seed must be >= 0" in err and err.count("\n") == 1


@pytest.mark.parametrize("dmax", ["0", "-5"])
def test_cli_verify_dmax_below_two_exits_2(capsys, dmax):
    code, out, err = run_cli(capsys, ["verify", "--dmax", dmax, "--trials", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "d_max must be >= 2" in err and err.count("\n") == 1


@pytest.mark.parametrize("dmax", ["13", "100"])
def test_cli_verify_dmax_above_the_ceiling_exits_2(capsys, dmax):
    code, out, err = run_cli(capsys, ["verify", "--dmax", dmax, "--trials", "1", "--seed", "0"])
    assert code == 2
    assert out == ""
    assert err == f"error: d_max {dmax} exceeds the orbital ceiling D_MAX = 12\n"


UNDECODABLE = {
    "invalid-utf8": b'{"d": 1, "kind": "pure", "labels": ["\xff"], "amplitudes": [[1, 0], [0, 0]]}',
    "nested-too-deep": b"[" * 100_000,
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_cli_undecodable_document_exits_2(tmp_path, capsys, monkeypatch, name, source):
    import io as std_io

    data = UNDECODABLE[name]
    if source == "file":
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        argv = ["nonfreeness", str(path)]
    else:
        # as a UTF-8-mode interpreter reads stdin: undecodable bytes become surrogates
        stdin = std_io.BytesIO(data)
        monkeypatch.setattr(
            "sys.stdin", std_io.TextIOWrapper(stdin, encoding="utf-8", errors="surrogateescape")
        )
        argv = ["nonfreeness", "-"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_cli_sandwiched_non_finite_alpha_exits_2(tmp_path, capsys, alpha):
    path = tmp_path / "hubbard.json"
    document = {"d": 4, "kind": "hubbard", "sites": 2, "t": 1.0, "u": 4.0, "n_up": 1, "n_down": 1}
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, ["renyi", str(path), f"--alpha={alpha}", "--sandwiched"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "alpha" in err and err.count("\n") == 1


def test_cli_demo_hubbard_point_and_sweep(capsys):
    code, out, _ = run_cli(
        capsys, ["demo-hubbard", "--sites", "2", "--u", "0", "--nup", "1", "--ndown", "1"]
    )
    assert code == 0
    assert json.loads(out)["value"]["nonfreeness"] < 1e-8
    code, out, _ = run_cli(
        capsys, ["demo-hubbard", "--sites", "2", "--sweep", "0,2", "--nup", "1", "--ndown", "1"]
    )
    assert code == 0
    rows = json.loads(out)["value"]["rows"]
    assert len(rows) == 2 and rows[0][1] < 1e-8 < rows[1][1]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--u", "nan"], "finite"),
        (["--t", "inf"], "finite"),
        (["--sweep", "0,inf"], "finite"),
        (["--u=-inf"], "finite"),
        (["--sweep", "0,a"], "--sweep"),
        (["--sweep", ","], "--sweep"),
    ],
)
def test_cli_demo_hubbard_bad_parameters_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, ["demo-hubbard", "--sites", "2", *flags])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_env_dmax_override(monkeypatch):
    monkeypatch.setenv("FERMIFREE_DMAX", "3")
    with pytest.raises(Exception, match="D_MAX"):
        OrbitalSpace(4)
    monkeypatch.delenv("FERMIFREE_DMAX")
    OrbitalSpace(4)


def test_result_document_roundtrip():
    doc = ffio.make_result(
        "nonfreeness", float("inf"), "nats", {"state": "x"}, {"seed": 1}
    )
    text = ffio.dumps(doc)
    again = ffio.loads(text)
    assert again["value"] == "+inf"
    assert ffio.dumps(again) == text


def test_cli_verify_counterexample(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--counterexample", "--seed", "1"])
    assert code == 0
    value = json.loads(out)["value"]
    assert value["sandwiched_half"]["improved"] is True
    assert value["alpha_one"]["improved"] is False
    assert value["sandwiched_half"]["best"] < 0.61
    config = json.loads(out)["config"]
    assert config["seed"] == 1 and "dmax" not in config and "trials" not in config


@pytest.mark.parametrize(
    "flags", [["--dmax", "100"], ["--trials", "0"], ["--dmax", "4", "--trials", "50"]]
)
def test_cli_verify_counterexample_rejects_suite_flags(capsys, flags):
    code, out, err = run_cli(capsys, ["verify", "--counterexample", "--seed", "0", *flags])
    assert code == 2
    assert out == ""
    assert err == "error: --counterexample takes no --dmax or --trials\n"


@pytest.mark.parametrize(
    "flags, ran", [([], (4, 50)), (["--dmax", "3"], (3, 50)), (["--trials", "7"], (4, 7))]
)
def test_cli_verify_suite_defaults_apply_when_flags_are_unset(capsys, monkeypatch, flags, ran):
    calls = []

    def suite(seed, d_max, trials):
        calls.append((d_max, trials))
        return []

    monkeypatch.setattr("fermifree.cli.property_suite", suite)
    code, out, _ = run_cli(capsys, ["verify", "--seed", "0", *flags])
    assert code == 0 and calls == [ran]
    config = json.loads(out)["config"]
    assert (config["seed"], config["dmax"], config["trials"]) == (0, *ran)


# Run in a fresh interpreter: no CLI path, `verify` included, loads scipy, and
# the reference ladder operators are numpy arrays.
NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import fermifree.cli

state, hubbard, pdm = sys.argv[1:]
for argv in (
    ["nonfreeness", state, "--cross-check"],
    ["nonfreeness", hubbard, "--cross-check"],
    ["renyi", state, "--alpha", "0.5", "--sandwiched"],
    ["renyi", hubbard, "--alpha", "0.5", "--sandwiched"],
    ["pdm", state],
    ["pdm", hubbard],
    ["restrict", state, "--keep", "1,3"],
    ["restrict", hubbard, "--keep", "1,2"],
    ["free-from-pdm", pdm],
    ["demo-hubbard", "--sites", "5", "--sweep", "0,4"],
    ["verify", "--dmax", "4", "--trials", "2"],
    ["verify", "--counterexample", "--seed", "0"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = fermifree.cli.main(argv)
    print(argv[0], code, "scipy" in sys.modules)
import numpy as np
from fermifree.fock import OrbitalSpace, ladder_matrices
creators, annihilators = ladder_matrices(OrbitalSpace(2))
arrays = all(type(m) is np.ndarray for m in creators + annihilators)
print("ladder_matrices", arrays, "scipy" in sys.modules)
"""


def test_cli_paths_load_no_scipy(tmp_path):
    rng = np.random.default_rng(5)
    rho = sample_density(OrbitalSpace(3), rng)
    state, hubbard, pdm = tmp_path / "state.json", tmp_path / "hubbard.json", tmp_path / "pdm.json"
    state.write_text(ffio.dumps(ffio.density_to_document(rho)))
    hubbard.write_text(ffio.dumps(
        {"d": 6, "kind": "hubbard", "sites": 3, "t": 1.0, "u": 4.0, "n_up": 2, "n_down": 1}
    ))
    pdm.write_text(ffio.dumps(
        {"d": 3, "kind": "pdm", "gamma": ffio.matrix_to_json(one_pdm(rho).gamma)}
    ))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(state), str(hubbard), str(pdm)],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 13, done.stdout + done.stderr
    for line in lines[:12]:
        assert line.endswith(" 0 False"), line
    assert lines[12] == "ladder_matrices True False"


# --- one parser per process ------------------------------------------------------

SUBCOMMANDS = (
    "nonfreeness", "renyi", "pdm", "restrict", "free-from-pdm", "purify", "verify", "demo-hubbard",
)

# Run in a fresh interpreter: the first `main` call builds the root parser and
# its 8 subparsers, and no later call builds another.
PARSER_COUNT_SCRIPT = """
import argparse, contextlib, io, sys
import fermifree.cli

built = 0
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
state, pdm, spec = sys.argv[1:]
for argv in (
    ["nonfreeness", state],
    ["renyi", state, "--alpha", "2"],
    ["pdm", state],
    ["restrict", state, "--keep", "1"],
    ["free-from-pdm", pdm],
    ["purify", spec],
    ["verify", "--dmax", "2", "--trials", "1"],
    ["demo-hubbard", "--sites", "2"],
):
    built = 0
    with contextlib.redirect_stdout(io.StringIO()):
        code = fermifree.cli.main(argv)
    print(argv[0], code, built)
"""


def test_cli_builds_its_parser_once_per_process(tmp_path):
    state, pdm, spec = tmp_path / "state.json", tmp_path / "pdm.json", tmp_path / "spec.json"
    state.write_text(ffio.dumps(ffio.density_to_document(remark_state())))
    gamma = ffio.matrix_to_json(np.diag([2 / 3, 1 / 3]))
    pdm.write_text(ffio.dumps({"d": 2, "kind": "pdm", "gamma": gamma}))
    orbitals = ffio.matrix_to_json(np.eye(2))
    spec.write_text(ffio.dumps(
        {"d": 2, "kind": "free-spec", "occupations": [2 / 3, 1 / 3], "orbitals": orbitals}
    ))
    done = subprocess.run(
        [sys.executable, "-c", PARSER_COUNT_SCRIPT, str(state), str(pdm), str(spec)],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(SUBCOMMANDS), done.stdout + done.stderr
    assert lines[0] == "nonfreeness 0 9"
    for line in lines[1:]:
        assert line.endswith(" 0 0"), line


HUBBARD_4_SITES = {"d": 8, "kind": "hubbard", "sites": 4, "t": 1.0, "u": 4.0, "n_up": 2, "n_down": 2}


def _without_elapsed(text):
    doc = json.loads(text)
    if doc["quantity"] == "property-suite":
        for item in doc["value"]:
            item.pop("elapsed_s")
    return doc


def test_cli_calls_in_sequence_match_fresh_processes(tmp_path, capsys):
    path = tmp_path / "hubbard.json"
    path.write_text(ffio.dumps(HUBBARD_4_SITES))
    calls = [
        ["nonfreeness", str(path), "--cross-check"],
        ["renyi", str(path), "--alpha", "0.5", "--sandwiched"],
        ["demo-hubbard", "--sites", "4", "--sweep"],
        ["pdm", str(path)],
        ["verify", "--dmax", "2", "--trials", "2", "--seed", "0"],
    ]
    for argv in calls:
        code, out, err = run_cli(capsys, argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "fermifree.cli", *argv], capture_output=True, text=True
        )
        assert (code, err) == (fresh.returncode, fresh.stderr), argv
        if argv[0] == "verify":
            assert _without_elapsed(out) == _without_elapsed(fresh.stdout)
        else:
            assert out == fresh.stdout, argv


def test_cli_defaults_do_not_leak_between_calls(tmp_path, capsys):
    state = write_remark(tmp_path)
    _, bits, _ = run_cli(capsys, ["nonfreeness", state, "--bits"])
    _, nats, _ = run_cli(capsys, ["nonfreeness", state])
    assert json.loads(bits)["units"] == "bits"
    assert json.loads(nats)["units"] == "nats"
    assert abs(json.loads(nats)["value"]["nonfreeness"] - H23) < 1e-9


@pytest.mark.parametrize("bad", [["renyi", "doc.json"], ["no-such-command"]])
def test_cli_usage_error_leaves_the_parser_usable(tmp_path, capsys, bad):
    state = write_remark(tmp_path)
    _, before, _ = run_cli(capsys, ["renyi", state, "--alpha", "2"])
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fermifree")
    code, after, _ = run_cli(capsys, ["renyi", state, "--alpha", "2"])
    assert code == 0
    assert after == before


@pytest.mark.parametrize("argv", [["--help"], ["nonfreeness", "--help"]])
def test_cli_help_matches_a_fresh_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # one help width here and in the child
    run_cli(capsys, ["demo-hubbard", "--sites", "2"])  # the parser has been used
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    shown = capsys.readouterr().out
    fresh = subprocess.run(
        [sys.executable, "-m", "fermifree.cli", *argv], capture_output=True, text=True, check=True
    )
    assert shown == fresh.stdout
    assert shown.startswith(f"usage: fermifree {argv[0]}" if len(argv) > 1 else "usage: fermifree")
