"""Grammar: literals, variables, markers, errors, render round-trips."""

import re
import signal
from fractions import Fraction
from itertools import chain

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
from folsing.poly import DEFAULT_NAMES, MultiPoly, OneFormGerm, VectorFieldGerm
from folsing.scalars import GaussianRational, gaussian_triple, power


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


# -- reference oracle ---------------------------------------------------
# The parser as it was when a parse value held one MultiPoly per marker and
# every '*' and '^' went through MultiPoly's product: its tokenizer, values
# and budget, renamed, and parse_any's dispatch cut to the branches it can
# reach.  The term-dict parser must give the same terms in the same order,
# charge the same term pairs, and raise the same ParseError (message, line,
# col).
_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*^()])"
    r"|(?P<bad>\S))"
)
_REF_ATOM_STARTS = {"number", "ident", "("}


class _RefToken:
    __slots__ = ("kind", "text", "col")

    def __init__(self, kind, text, col):
        self.kind = kind
        self.text = text
        self.col = col


def _ref_tokenize(text, line):
    out = []
    for m in _REF_TOKEN_RE.finditer(text.rstrip()):
        kind = m.lastgroup
        tok_text = m.group(kind)
        col = m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {tok_text!r}",
                             line=line, col=col)
        out.append(_RefToken(tok_text if kind == "op" else kind, tok_text, col))
    return out


def _ref_int(digits, line, col):
    try:
        return int(digits)
    except ValueError:
        raise ParseError("number has too many digits", line=line, col=col) from None


class _RefValue:
    __slots__ = ("parts",)

    def __init__(self, parts=None):
        self.parts = {m: p for m, p in (parts or {}).items() if not p.is_zero()}

    @classmethod
    def of_poly(cls, p):
        return cls({None: p})

    def markers(self):
        return set(self.parts) - {None}

    def plain(self):
        return self.parts.get(None, MultiPoly.zero(3))

    def __add__(self, other):
        out = dict(self.parts)
        for m, p in other.parts.items():
            out[m] = out[m] + p if m in out else p
        return _RefValue(out)

    def __neg__(self):
        return _RefValue({m: -p for m, p in self.parts.items()})


_REF_ONE = MultiPoly.constant(1, 3)
_REF_ATOMS = {name: _RefValue.of_poly(MultiPoly.variable(k, 3))
              for name, k in parsing.VAR_INDEX.items()}
_REF_ATOMS["i"] = _RefValue.of_poly(MultiPoly.constant(GaussianRational(0, 1), 3))
_REF_ATOMS.update((m, _RefValue({m: _REF_ONE}))
                  for m in (*parsing.FIELD_MARKERS, *parsing.FORM_MARKERS))


def _ref_words(p1, p2):
    bits = 0
    for a, b, d in map(gaussian_triple, chain(p1.terms.values(),
                                              p2.terms.values())):
        bits = max(bits, a.bit_length(), b.bit_length(), d.bit_length())
    return max(1, (bits + 63) // 64)


class _RefParser:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.k = 0
        self.pairs = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def end_col(self):
        last = self.tokens[-1]
        return last.col + len(last.text)

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression", line=self.line,
                             col=self.end_col())
        self.k += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t is None or t.kind != kind:
            raise ParseError(
                f"expected {kind!r}" + (f", found {t.text!r}" if t else ""),
                line=self.line, col=(t.col if t else self.end_col()))
        return self.next()

    def product(self, p1, p2, at):
        words = _ref_words(p1, p2)
        weight = (words * words + 63) // 64
        self.pairs += len(p1.terms) * len(p2.terms) * weight
        if self.pairs > parsing.PAIR_BUDGET:
            raise ParseError(
                f"expansion needs more than {parsing.PAIR_BUDGET} term products",
                line=self.line, col=at.col)
        return p1 * p2

    def fail_if_atom_follows(self):
        t = self.peek()
        if t is not None and (t.kind in _REF_ATOM_STARTS):
            raise ParseError(
                "implicit multiplication is not allowed; insert '*'",
                line=self.line, col=t.col)

    def parse_expr(self):
        v = self.parse_term()
        while True:
            self.fail_if_atom_follows()
            t = self.peek()
            if t is None or t.kind not in ("+", "-"):
                return v
            self.next()
            rhs = self.parse_term()
            v = v + (rhs if t.kind == "+" else -rhs)

    def parse_term(self):
        v = self.parse_factor()
        while True:
            self.fail_if_atom_follows()
            t = self.peek()
            if t is None or t.kind != "*":
                return v
            star = self.next()
            rhs = self.parse_factor()
            v = self._mul(v, rhs, star)

    def _mul(self, a, b, at):
        out = {}
        for m1, p1 in a.parts.items():
            for m2, p2 in b.parts.items():
                if m1 is not None and m2 is not None:
                    raise ParseError(
                        "at most one component marker per monomial",
                        line=self.line, col=at.col)
                m = m1 if m1 is not None else m2
                prod = self.product(p1, p2, at)
                out[m] = out[m] + prod if m in out else prod
        return _RefValue(out)

    def parse_factor(self):
        t = self.peek()
        if t is not None and t.kind == "-":
            self.next()
            return -self.parse_factor()
        if t is not None and t.kind == "+":
            self.next()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        v = self.parse_atom()
        t = self.peek()
        if t is not None and t.kind == "^":
            caret = self.next()
            e = self.expect("number")
            if "/" in e.text:
                raise ParseError("exponent must be a nonnegative integer",
                                 line=self.line, col=e.col)
            n = _ref_int(e.text, self.line, e.col)
            if v.markers():
                raise ParseError("component markers cannot be raised to powers",
                                 line=self.line, col=caret.col)
            return _RefValue.of_poly(power(
                v.plain(), n, _REF_ONE, lambda a, b: self.product(a, b, caret)))
        return v

    def parse_atom(self):
        t = self.next()
        if t.kind == "number":
            num, _, den = t.text.partition("/")
            num = _ref_int(num, self.line, t.col)
            den = _ref_int(den or "1", self.line, t.col)
            if den == 0:
                raise ParseError("zero denominator", line=self.line, col=t.col)
            if num == 0:
                return _RefValue()
            return _RefValue.of_poly(MultiPoly.constant(GaussianRational(Fraction(num, den)), 3))
        if t.kind == "ident":
            atom = _REF_ATOMS.get(t.text)
            if atom is None:
                raise ParseError(f"unknown symbol {t.text!r}",
                                 line=self.line, col=t.col)
            return atom
        if t.kind == "(":
            v = self.parse_expr()
            self.expect(")")
            return v
        raise ParseError(f"unexpected token {t.text!r}", line=self.line, col=t.col)


def _ref_parse(text, line=1):
    """(value, term pairs charged) of the reference parser."""
    tokens = _ref_tokenize(text.split("#", 1)[0], line)
    if not tokens:
        raise ParseError("empty expression", line=line, col=1)
    p = _RefParser(tokens, line)
    v = p.parse_expr()
    t = p.peek()
    if t is not None:
        raise ParseError(f"unexpected token {t.text!r}", line=line, col=t.col)
    return v, p.pairs


def _ref_project(p, nvars, line):
    out = {}
    for e, c in p.terms.items():
        if any(e[k] for k in range(nvars, 3)):
            raise ParseError(
                f"expression uses variable {DEFAULT_NAMES[3][max(k for k in range(3) if e[k])]}"
                f" but only {nvars} variables are allowed", line=line, col=1)
        out[e[:nvars]] = c
    return MultiPoly(nvars, out)


def _ref_auto_nvars(v):
    uses_z = any(e[2] for p in v.parts.values() for e in p.terms)
    return 3 if uses_z or "ddz" in v.markers() else 2


def _ref_parse_any(text, line=1):
    v, _ = _ref_parse(text, line)
    field = v.markers() & set(parsing.FIELD_MARKERS)
    form = v.markers() & set(parsing.FORM_MARKERS)
    if field and form:
        raise ParseError("cannot mix vector-field and 1-form markers",
                         line=line, col=1)
    if field:
        if not v.plain().is_zero():
            raise ParseError("vector-field expression has terms without a component marker",
                             line=line, col=1)
        n = _ref_auto_nvars(v)
        comps = [MultiPoly.zero(n) for _ in range(n)]
        for m in v.markers():
            comps[parsing.FIELD_MARKERS[m]] = _ref_project(v.parts[m], n, line)
        return VectorFieldGerm(comps)
    if form:
        if not v.plain().is_zero():
            raise ParseError("1-form expression has terms without a component marker",
                             line=line, col=1)
        return OneFormGerm(_ref_project(v.parts.get("dx", MultiPoly.zero(3)), 2, line),
                           _ref_project(v.parts.get("dy", MultiPoly.zero(3)), 2, line))
    return _ref_project(v.plain(), _ref_auto_nvars(v), line)


def _outcome(fn, text):
    """What ``fn(text)`` gives: its result, or its ParseError's message,
    line and column."""
    try:
        return "ok", fn(text)
    except ParseError as exc:
        return "error", (exc.message, exc.line, exc.col)


def _terms_in_order(obj):
    """Type, variable count and the ordered terms of every component."""
    if isinstance(obj, VectorFieldGerm):
        comps = obj.components
    elif isinstance(obj, OneFormGerm):
        comps = [obj.a, obj.b]
    else:
        comps = [obj]
    return type(obj).__name__, [(p.nvars, list(p.terms.items())) for p in comps]


def _new_pairs(text):
    """Term pairs the term-dict parser charges for a text it accepts."""
    p = parsing._Parser(parsing._tokenize(text.split("#", 1)[0], 1), 1)
    p.parse_expr()
    return p.pairs


def assert_parsers_agree(text):
    want = _outcome(_ref_parse, text)
    got = _outcome(parsing._parse_value, text)
    assert got[0] == want[0], (text, got, want)
    if want[0] == "error":
        assert got == want, text
        return
    value, pairs = want[1]
    assert [(m, list(t.items())) for m, t in got[1].items()] == \
        [(m, list(p.terms.items())) for m, p in value.parts.items()], text
    assert _new_pairs(text) == pairs, text
    want = _outcome(_ref_parse_any, text)
    got = _outcome(parse_any, text)
    if want[0] == "error":
        assert got == want, text
    else:
        assert got[0] == "ok", (text, got)
        assert _terms_in_order(got[1]) == _terms_in_order(want[1]), text


_SOUP_TOKENS = [
    "x", "y", "z", "x1", "x2", "x3", "i", "ddx", "ddy", "ddz", "dx", "dy",
    "q", "foo", "_a1", "0", "1", "2", "3", "7", "12", "3/4", "1/2", "7/0",
    "0/7", "9" * 170, "1" + "0" * 300, "+", "-", "*", "^", "(", ")", "^1/2",
    "$", "²", "٣", "é", "# note", "#",
]
_SEPARATORS = ["", "", "", " ", "\t", "  ", "\n"]
token_soup = st.lists(
    st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_SOUP_TOKENS)),
    max_size=24,
).map(lambda parts: "".join(s + t for s, t in parts)) | st.text(
    alphabet="xyzid1203/+-*^() \t#", max_size=30)

# Well-formed-looking expressions with markers, where a marker may still
# be raised to a power or meet a second marker in one monomial.
_marker_leaves = st.sampled_from(
    ["x", "y", "z", "i", "2", "3/4", "0", "9" * 170, "ddx", "ddy", "ddz",
     "dx", "dy"])
marked_exprs = st.recursive(
    _marker_leaves,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map("".join),
        sub.map(lambda s: f"-({s})"),
        st.tuples(sub, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=10,
)


class TestAgainstReferenceParser:
    @given(token_soup)
    @settings(max_examples=600, deadline=None)
    def test_token_soup(self, text):
        assert_parsers_agree(text)

    @given(marked_exprs)
    @settings(max_examples=400, deadline=None)
    def test_marked_expressions(self, text):
        assert_parsers_agree(text)

    @given(trees, trees)
    @settings(max_examples=100, deadline=None)
    def test_fields(self, f, g):
        assert_parsers_agree(f"({_render(f)})*ddx - ddy*({_render(g)}) + ddy")

    @pytest.mark.parametrize("text", [
        "x^1/2", "7/0", "ddx^2", "(x*ddx)^0", "x*ddx*ddy", "dx*dy", "x +",
        "2*x+ \t ", "x \t $", "((x+1)*(y-1))^3*ddx - ((x))", "x*ddx + y*dx",
        "x*ddx + 1", "x*dx + y", "0*ddx", "x - x", "(x - x)*ddx + 0*dy",
        "x1*x2*x3", "(1+i)^5 - (1-i)^5", "x^(2)", "x^", "()", "(x", "x)",
        "x^2^3", "2x", "x y", "  # only a comment", "", "3 # 4",
        "(x+ddx)*y", "(ddy + 2*x)*(y - 1) - x*y", "y*(x - ddx) + ddy",
        "(" + "9" * 200 + ")^3*(x+1)^2*ddz",
        "(1+x)^100000*ddx", "(1+x)^900*(1+y)^900",
        "x^100000000*y^200 + (x*y)^99999999",
    ])
    def test_fixed_inputs(self, text):
        _within(60, assert_parsers_agree, text)
