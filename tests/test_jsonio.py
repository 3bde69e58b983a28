"""The JSON writer against the standard library encoder it replaces."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folsing import jsonio
from folsing.parsing import parse_any
from folsing.scalars import GaussianRational


def reference_dumps(payload) -> str:
    return json.dumps(jsonio.to_jsonable(payload), sort_keys=True, indent=2,
                      ensure_ascii=True, allow_nan=False) + "\n"


# every code point, lone surrogates and control characters included
texts = st.text(st.characters(blacklist_categories=()), max_size=12) | st.sampled_from(
    ["", "\x00", "\x1f\x7f", "\ud800", "\udfff\ud800", " ", "é", "😀",
     '"\\/', "\t\n\r\b\f"])
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e16, 0.1])
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2 ** 300), 2 ** 300),
    st.sampled_from([10 ** 1000, -(10 ** 999), 2 ** 64]),
    finite_floats,
    finite_floats.map(np.float64),
    texts,
    st.fractions(max_denominator=50),
    st.builds(GaussianRational, st.fractions(max_denominator=9),
              st.fractions(max_denominator=9)),
    st.builds(complex, finite_floats, finite_floats),
    st.sampled_from(["x^2 - y", "x*ddx + 2*y*ddy", "y*dx - x*dy"]).map(parse_any),
)
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(texts, st.integers(-3, 3), st.booleans()),
                        inner, max_size=4),
    ),
    max_leaves=30,
)


class TestWriterAgainstJsonDumps:
    @given(payloads)
    @settings(max_examples=500, deadline=None)
    def test_same_bytes(self, payload):
        assert jsonio.dumps(payload) == reference_dumps(payload)

    def test_int_and_string_keys_collide_as_in_to_jsonable(self):
        payload = {1: "int", "1": "str", True: "bool", "True": "str"}
        assert jsonio.dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"), np.float64("nan"),
        np.float64("-inf"), complex(1.0, float("nan")),
    ])
    def test_non_finite_raises_value_error(self, value):
        for payload in (value, {"a": [1, {"b": value}]}):
            with pytest.raises(ValueError):
                reference_dumps(payload)
            with pytest.raises(ValueError):
                jsonio.dumps(payload)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"x", np.int64(3)])
    def test_unknown_type_raises_type_error(self, value):
        for payload in (value, {"a": [1, (2, value)]}):
            with pytest.raises(TypeError):
                reference_dumps(payload)
            with pytest.raises(TypeError, match="cannot serialize"):
                jsonio.dumps(payload)
