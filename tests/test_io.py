"""The JSON writer, json's own indent=2 text written without json, and
the state-file reader's values and messages."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinent.errors import SpinentError
from spinent.io import dump_document, parse_state, state_document
from spinent.states import CoherentSpec, coherent_state, custom_state, \
    dicke_state, random_state, twisted_state


def json_text(doc):
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1])
# Non-ASCII, control characters, quotes and backslashes all need escapes.
TEXT = st.text(max_size=12) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/', "é \U0001f600"])
INTS = st.integers() | st.sampled_from([10 ** 400, -(10 ** 400)])
PAIRS = st.tuples(FLOATS, FLOATS)
ROWS = st.lists(PAIRS.map(list) | PAIRS, max_size=6)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
DOCUMENTS = st.recursive(
    SCALARS | ROWS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=5)),
    max_leaves=40)


@settings(deadline=None)
@given(DOCUMENTS)
def test_matches_json_indent_2(doc):
    assert dump_document(doc) == json_text(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": []}, {"a": {}}, [[]], [[1.0]], [[1.0, 2.0, 3.0]],
    [[1, 2.0]], [[True, 1.0]], [[1.0, None]], [["x", 1.0]], [[1.0, 2.0], 3.0],
    [[0.5, -0.0], (5e-324, 1e308)], {"coefficients": [[0.6, 0.0], [0.0, 0.8]]},
])
def test_edge_documents(doc):
    assert dump_document(doc) == json_text(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda x: x,
    lambda x: {"value": x},
    lambda x: [[0.5, 0.5], [x, 0.0]],
    lambda x: [[0.5, x]],
], ids=["bare", "in-dict", "in-row", "in-only-row"])
def test_non_finite_float_rejected(bad, wrap):
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text(wrap(bad))
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_document(wrap(bad))


@pytest.mark.parametrize("doc", [{1: 0.5}, {"a": {2.0}}, [object()]])
def test_unsupported_types_rejected(doc):
    with pytest.raises(TypeError):
        dump_document(doc)


def rows_of(array):
    return [[z.real, z.imag] for z in array.tolist()]


def _state_corpus():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 10, 100, 1000, 2000, 10_000):
        spec = CoherentSpec(n, 1.1, 2.2)
        for kind, state in (
                ("coherent", coherent_state(spec)),
                ("twist", twisted_state(spec, 0.3)),
                ("dicke", dicke_state(n, n / 2.0 - n // 3)),
                ("random", random_state(n, rng))):
            yield pytest.param(state, id=f"{kind}-{n}")
    yield pytest.param(custom_state(2, [complex(-0.0, 1.0),
                                        complex(5e-324, -0.0),
                                        complex(0.0, -5e-324)]),
                       id="custom-subnormal-negative-zero")


@pytest.mark.parametrize("state", list(_state_corpus()))
def test_state_file_matches_json_of_its_rows(state):
    doc = state_document(state)
    assert doc["coefficients"] is state.coefficients
    assert dump_document(doc) == json_text(
        {**doc, "coefficients": rows_of(state.coefficients)})


@settings(deadline=None)
@given(st.lists(PAIRS, max_size=8).map(
    lambda rows: np.array([complex(*row) for row in rows], dtype=complex)))
def test_complex_array_matches_json_of_its_rows(array):
    # Every other entry too, through a view that is not contiguous.
    for value in (array, array[::2]):
        doc = {"coefficients": value, "rows": [value]}
        assert dump_document(doc) == json_text(
            {"coefficients": rows_of(value), "rows": [rows_of(value)]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
def test_non_finite_complex_entry_rejected(bad, part):
    array = np.array([0.6, 0.8, 0.0], dtype=complex)
    array.view(float)[2 * 2 + part] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_document({"n": 2, "coefficients": array})


@pytest.mark.parametrize("array", [
    np.array([0.6, 0.8]), np.zeros((2, 2), dtype=complex),
    np.zeros(2, dtype=np.complex64), np.array(1j), np.array([1, 0]),
], ids=["float", "2-d", "complex64", "0-d", "int"])
def test_other_arrays_rejected(array):
    with pytest.raises(TypeError):
        dump_document({"coefficients": array})


PAIRS_MESSAGE = "'coefficients' must be a list of [re, im] pairs"


class TestParseState:
    @pytest.mark.parametrize("coefficients", [
        '[["0.6", 0], [0.8, 0]]',
        '[["1", "0"], [0, 0]]',
        '[[0, "0.8"], [0.6, 0]]',
        '[[null, 0], [1, 0]]',
        '[[1, 0], [0, null]]',
        '[[1, 0, 0], [0, 0]]',
        '[[1], [0, 0]]',
        '[[], [1, 0], [0]]',
        '[1, 0]',
        '[[1, 0], "10"]',
        '[[1, 0], {"1": 0, "0": 0}]',
        '[[[1], 0], [0, 0]]',
        '[[1, 0], [[0, 0], 0]]',
        '[[1, 0], [{}, 0]]',
        '"1010"',
        '{"10": 1, "00": 1}',
        '5',
        'null',
    ])
    def test_rejects_non_numeric_pairs(self, coefficients):
        text = '{"n": 1, "coefficients": ' + coefficients + "}"
        with pytest.raises(SpinentError) as caught:
            parse_state(text)
        assert str(caught.value) == PAIRS_MESSAGE

    @pytest.mark.parametrize("coefficients, k", [
        ('[[1' + "0" * 400 + ', 0], [0, 0]]', 0),
        ('[[0, 0], [0, -1' + "0" * 400 + ']]', 1),
        ('[[1, 0], [0, 0], [1' + "0" * 309 + ', 1]]', 2),
    ])
    def test_names_the_overflowing_coefficient(self, coefficients, k):
        text = '{"n": 2, "coefficients": ' + coefficients + "}"
        with pytest.raises(SpinentError) as caught:
            parse_state(text)
        assert str(caught.value) == f"coefficient {k} exceeds float range"

    @pytest.mark.parametrize("n, coefficients, renormalize", [
        (1, [[0.6, -0.0], [-0.0, 0.8]], False),
        (3, [[True, -0.0], [0, False], [5e-324, -5e-324], [0, 0]], False),
        (2, [[1, 2], [-3, 2 ** 70 + 1], [1e150, -1e-300]], True),
        (2, [[0.1, 0.2], [0.3, 0.4], [-0.5, 0.6]], True),
    ])
    def test_values_match_complex_pairs(self, n, coefficients, renormalize):
        doc = {"n": n, "coefficients": coefficients,
               "renormalize": renormalize}
        state = parse_state(json.dumps(doc))
        expected = custom_state(
            n, [complex(re, im) for re, im in coefficients], renormalize)
        assert state.coefficients.tobytes() == \
            expected.coefficients.tobytes()

    @pytest.mark.parametrize("n", ["true", "false"])
    def test_boolean_atom_count_is_refused(self, n):
        # true would otherwise read as one atom, and this state has two
        # coefficients, as one atom needs.
        with pytest.raises(SpinentError, match="'n' must be an integer"):
            parse_state('{"n": ' + n + ', "coefficients": [[1, 0], [0, 0]]}')

    def test_empty_list_is_a_length_error(self):
        with pytest.raises(SpinentError, match="expected 2 coefficients"):
            parse_state('{"n": 1, "coefficients": []}')
