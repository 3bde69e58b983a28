"""Grammar: literals, variables, markers, errors, render round-trips."""

import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folsing import parsing
from folsing.errors import ParseError
from folsing.parsing import (
    iter_expressions,
    parse_any,
    parse_field,
    parse_form,
    parse_poly,
    parse_scalar_literal,
    render_field,
    render_form,
    render_poly,
    render_scalar,
)
from folsing.poly import MultiPoly, OneFormGerm, VectorFieldGerm
from folsing.scalars import GaussianRational


class TestScalars:
    def test_integers_fractions(self):
        assert parse_scalar_literal("3") == GaussianRational(3, 0)
        assert parse_scalar_literal("3/4") == GaussianRational(Fraction(3, 4), 0)
        assert parse_scalar_literal("-3/4") == GaussianRational(Fraction(-3, 4), 0)

    def test_imaginary(self):
        assert parse_scalar_literal("i") == GaussianRational(0, 1)
        assert parse_scalar_literal("-2/3*i") == GaussianRational(0, Fraction(-2, 3))
        assert parse_scalar_literal("1/2-3/4*i") == GaussianRational(
            Fraction(1, 2), Fraction(-3, 4))

    def test_arithmetic_reduces(self):
        assert parse_scalar_literal("(1+i)*(1-i)") == GaussianRational(2, 0)
        assert parse_scalar_literal("i^2") == GaussianRational(-1, 0)

    def test_rejects_variables(self):
        with pytest.raises(ParseError):
            parse_scalar_literal("x+1")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_scalar_literal("1/0")


class TestPolys:
    def test_basic(self):
        p = parse_poly("x^2+2*x*y-y")
        assert p.coefficient((2, 0)) == GaussianRational(1, 0)
        assert p.coefficient((1, 1)) == GaussianRational(2, 0)
        assert p.coefficient((0, 1)) == GaussianRational(-1, 0)

    def test_var_synonyms(self):
        assert parse_poly("x1*x2") == parse_poly("x*y")

    def test_three_vars_auto(self):
        p = parse_poly("x*y*z")
        assert p.nvars == 3

    def test_nvars_override(self):
        assert parse_poly("x", nvars=3).nvars == 3
        with pytest.raises(ParseError):
            parse_poly("z", nvars=2)

    def test_unary_minus_and_parens(self):
        assert parse_poly("-(x-y)") == parse_poly("y-x")

    def test_power_binds_tight(self):
        assert parse_poly("-x^2") == -parse_poly("x^2")

    def test_implicit_multiplication_rejected(self):
        for bad in ("2x", "x y", "2(x+1)", "(x)(y)", "x(y)"):
            with pytest.raises(ParseError):
                parse_poly(bad)

    def test_unknown_symbol(self):
        with pytest.raises(ParseError) as ei:
            parse_poly("x+q")
        assert ei.value.col == 3

    def test_comment_stripped(self):
        assert parse_poly("x+1 # a comment") == parse_poly("x+1")

    def test_fraction_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^1/2")
        with pytest.raises(ParseError):
            parse_poly("x^(2)")


class TestFieldsAndForms:
    def test_field(self):
        v = parse_field("(2*y)*ddx + (3*x^2)*ddy")
        assert isinstance(v, VectorFieldGerm)
        assert v.components[0] == parse_poly("2*y")
        assert v.components[1] == parse_poly("3*x^2")

    def test_field_marker_position_free(self):
        v = parse_field("ddx*y + x*ddy")
        assert v.components[0] == parse_poly("y", nvars=2)

    def test_three_d_field(self):
        v = parse_field("x*ddx + y*ddy + z*ddz")
        assert v.nvars == 3

    def test_form(self):
        w = parse_form("(-y^2)*dx + (x^2)*dy")
        assert isinstance(w, OneFormGerm)
        assert w.a == parse_poly("-y^2")

    def test_marker_mix_rejected(self):
        with pytest.raises(ParseError):
            parse_any("x*ddx + y*dx")

    def test_double_marker_rejected(self):
        with pytest.raises(ParseError):
            parse_field("x*ddx*ddy")
        with pytest.raises(ParseError):
            parse_form("dx*dy")

    def test_marker_power_rejected(self):
        with pytest.raises(ParseError):
            parse_field("ddx^2")

    def test_unmarked_terms_rejected(self):
        with pytest.raises(ParseError):
            parse_field("x*ddx + 5")
        with pytest.raises(ParseError):
            parse_form("x*dx + y")

    def test_parse_any_dispatch(self):
        assert isinstance(parse_any("x*ddx+y*ddy"), VectorFieldGerm)
        assert isinstance(parse_any("x*dx"), OneFormGerm)
        assert isinstance(parse_any("x*y"), MultiPoly)

    def test_zero_field_and_form(self):
        assert parse_field("0").is_zero()
        assert parse_form("0").is_zero()


class TestIterExpressions:
    def test_skips_blanks_and_comments(self):
        text = "# header\n\nx+1\n  # note\ny*ddx  # tail\n"
        got = list(iter_expressions(text))
        assert got == [(3, "x+1"), (5, "y*ddx")]


gauss = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
polys = st.builds(
    lambda d: MultiPoly(2, d),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), gauss, max_size=6),
)


class TestRoundTrip:
    @given(gauss)
    @settings(max_examples=80, deadline=None)
    def test_scalar_roundtrip(self, c):
        assert parse_scalar_literal(render_scalar(c)) == c

    @given(polys)
    @settings(max_examples=80, deadline=None)
    def test_poly_roundtrip(self, p):
        assert parse_poly(render_poly(p), nvars=2) == p

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_field_roundtrip(self, p, q):
        v = VectorFieldGerm([p, q])
        assert parse_field(render_field(v), nvars=2) == v

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_form_roundtrip(self, p, q):
        w = OneFormGerm(p, q)
        got = parse_form(render_form(w))
        assert got == w


def _within(seconds, fn, *args):
    """fn(*args), failing the test once it runs past a wall-clock budget."""
    def overrun(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    old = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestErrorColumns:
    @pytest.mark.parametrize("text, col", [
        ("(x", 3),
        ("x^", 3),
        ("(x+y  ", 5),
        ("2*x+", 5),
    ])
    def test_end_of_input_is_just_past_the_last_token(self, text, col):
        with pytest.raises(ParseError) as ei:
            parse_any(text)
        assert ei.value.col == col

    @pytest.mark.parametrize("text, col", [
        ("2*x+ \t ", 5),
        ("(x+y \t\n", 5),
    ])
    def test_trailing_whitespace_is_not_a_token(self, text, col):
        with pytest.raises(ParseError) as ei:
            parse_any(text)
        assert ei.value.col == col
        assert "unexpected character" not in str(ei.value)

    @pytest.mark.parametrize("text, char, col", [
        ("x \t $", "$", 5),
        ("x*ddx +  \t\t%y*ddy", "%", 12),
        ("\t\t\u00b2", "\u00b2", 3),
    ])
    def test_unexpected_character_after_blanks(self, text, char, col):
        with pytest.raises(ParseError) as ei:
            parse_any(text)
        assert ei.value.col == col
        assert f"unexpected character {char!r}" in str(ei.value)

    def test_token_columns_skip_blanks(self):
        tokens = parsing._tokenize(" x*ddx\t+  12/5*y^2*ddy  \t", 1)
        assert [(t.kind, t.text, t.col) for t in tokens] == [
            ("ident", "x", 2), ("*", "*", 3), ("ident", "ddx", 4),
            ("+", "+", 8), ("number", "12/5", 11), ("*", "*", 15),
            ("ident", "y", 16), ("^", "^", 17), ("number", "2", 18),
            ("*", "*", 19), ("ident", "ddy", 20)]
        assert parsing._tokenize(" \t\n ", 1) == []


class TestExpansionBudget:
    def test_dense_power_fails_at_the_caret(self):
        with pytest.raises(ParseError) as ei:
            _within(20, parse_any, "(1+x)^100000*ddx")
        assert ei.value.col == 6
        assert "term products" in str(ei.value)
        # the next parse starts from an empty budget
        assert len(parse_poly("(1+x)^5").terms) == 6

    def test_dense_product_fails_at_the_star(self):
        with pytest.raises(ParseError) as ei:
            _within(20, parse_any, "(1+x)^900*(1+y)^900")
        assert ei.value.col == 10

    def test_monomial_powers_stay_cheap(self):
        p = _within(5, parse_poly, "x^100000000*y^200 + (x*y)^99999999")
        assert p.terms == {(100000000, 200): GaussianRational(1),
                           (99999999, 99999999): GaussianRational(1)}


class TestOnePass:
    def test_parse_any_tokenizes_once(self, monkeypatch):
        calls = []
        tokenize = parsing._tokenize

        def counting(text, line):
            calls.append(text)
            return tokenize(text, line)

        monkeypatch.setattr(parsing, "_tokenize", counting)
        for text in ("x*ddx + y*ddy", "x*dx - y*dy", "x*y + 1"):
            calls.clear()
            parse_any(text)
            assert calls == [text]

    def test_literal_zero_is_the_zero_polynomial(self):
        for text in ("0", "0/7", "0*x", "x - x", "0*ddx"):
            assert parse_any(text).terms == {}
        assert parse_poly("x + 0").terms == {(1, 0): GaussianRational(1)}


# Expression trees: ("lit", text, value), ("var", name, k), (op, left, right)
# for + - *, ("neg", t) and ("pow", t, n).  Rendered fully parenthesised,
# parsed, and compared with the same tree evaluated in MultiPoly arithmetic.
_unsigned = st.fractions(min_value=0, max_value=7, max_denominator=5)
literals = st.one_of(
    st.integers(0, 9).map(lambda n: ("lit", str(n), GaussianRational(n))),
    _unsigned.map(lambda q: ("lit", str(q), GaussianRational(q))),
    st.tuples(_unsigned, _unsigned).map(
        lambda ab: ("lit", f"({ab[0]}+{ab[1]}*i)", GaussianRational(*ab))),
)
leaves = st.one_of(literals, st.sampled_from([("var", "x", 0), ("var", "y", 1)]))
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("pow"), sub, st.integers(0, 3)),
    ),
    max_leaves=8,
)


def _render(t) -> str:
    kind = t[0]
    if kind in ("lit", "var"):
        return t[1]
    if kind == "neg":
        return f"-({_render(t[1])})"
    if kind == "pow":
        return f"({_render(t[1])})^{t[2]}"
    return f"({_render(t[1])}){kind}({_render(t[2])})"


def _evaluate(t) -> MultiPoly:
    kind = t[0]
    if kind == "lit":
        return MultiPoly.constant(t[2], 2)
    if kind == "var":
        return MultiPoly.variable(t[2], 2)
    if kind == "neg":
        return -_evaluate(t[1])
    if kind == "pow":
        return _evaluate(t[1]) ** t[2]
    a, b = _evaluate(t[1]), _evaluate(t[2])
    return a + b if kind == "+" else a - b if kind == "-" else a * b


class TestParseAgainstEvaluation:
    @given(trees)
    @settings(max_examples=80, deadline=None)
    def test_poly(self, t):
        want = _evaluate(t)
        assert parse_poly(_render(t), nvars=2).terms == want.terms
        assert parse_any(_render(t)).terms == want.terms

    @given(trees, trees)
    @settings(max_examples=50, deadline=None)
    def test_field(self, f, g):
        text = f"({_render(f)})*ddx + ddy*({_render(g)})"
        want = [_evaluate(f).terms, _evaluate(g).terms]
        got = parse_field(text, nvars=2)
        assert [p.terms for p in got.components] == want
        if any(want):
            assert [p.terms for p in parse_any(text).components] == want

    @given(trees, trees)
    @settings(max_examples=50, deadline=None)
    def test_form(self, a, b):
        text = f"dx*({_render(a)}) - ({_render(b)})*dy"
        want = [_evaluate(a).terms, (-_evaluate(b)).terms]
        got = parse_form(text)
        assert [got.a.terms, got.b.terms] == want
        if any(want):
            w = parse_any(text)
            assert [w.a.terms, w.b.terms] == want
