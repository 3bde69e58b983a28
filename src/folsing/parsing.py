"""Text grammar for exact scalars, polynomials, vector fields, and 1-forms.

Grammar summary (one expression per line, ``#`` starts a comment):

* rational literals ``3``, ``3/4``; the imaginary unit is the reserved
  identifier ``i`` (so ``1/2-3/4*i`` is a Gaussian-rational constant);
* variables ``x``, ``y``, ``z`` with synonyms ``x1``, ``x2``, ``x3``;
* operators ``+ - * ^`` and parentheses; ``^`` takes a literal nonnegative
  integer exponent; multiplication is always explicit (``2x`` is an error);
* component markers ``ddx ddy ddz`` (vector-field components) and ``dx dy``
  (1-form components) are multiplicative atoms — at most one marker per
  monomial, and field markers never mix with form markers.

Each expression is tokenized and parsed once, into a map from component
marker to a 3-variable polynomial; ``parse_any`` dispatches on its markers
to the same builders that ``parse_poly``, ``parse_field`` and
``parse_form`` use.  Atoms are shared constants and products are
``MultiPoly`` products.  The term pairs those products form are counted
per parse, weighted by the length of their coefficients, and an expansion
past ``PAIR_BUDGET`` of them, such as ``(1+x)^100000``, is a ParseError at
the operator that would pass it.

Rendering is the exact inverse on parser-produced objects: graded-lex term
order, explicit ``*``, canonical scalar formatting.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .errors import ParseError
from .poly import (
    DEFAULT_NAMES,
    MultiPoly,
    OneFormGerm,
    VectorFieldGerm,
    _trusted,
    render_field,
    render_form,
    render_poly,
)
from .scalars import GaussianRational, _triple, gaussian_triple, power

VAR_INDEX = {"x": 0, "x1": 0, "y": 1, "x2": 1, "z": 2, "x3": 2}
FIELD_MARKERS = {"ddx": 0, "ddy": 1, "ddz": 2}
FORM_MARKERS = {"dx": 0, "dy": 1}

# One match per token, with the whitespace before it; any other character is
# ``bad``.  ``\s`` is exactly ``str.isspace``, so on text without trailing
# whitespace the matches of ``finditer`` cover every character.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*^()])"
    r"|(?P<bad>\S))"
)

_ATOM_STARTS = {"number", "ident", "("}

# Term pairs that the products of one parse may form in total.  With w the
# 64-bit words of the longest numerator or denominator of the two operands,
# a pair counts ceil(w^2 / 64) times: multiplying and reducing coefficients
# costs about w^2 word operations, which the interpreter's own cost per pair
# hides up to 8 words (512 bits), where a pair still counts once.  A
# monomial power costs one pair per step, so x^100000000 stays cheap.
PAIR_BUDGET = 10 ** 6


class _Token:
    __slots__ = ("kind", "text", "col")

    def __init__(self, kind: str, text: str, col: int):
        self.kind = kind
        self.text = text
        self.col = col


def _tokenize(text: str, line: int) -> List[_Token]:
    out: List[_Token] = []
    # trailing whitespace is stripped, not matched: a run of w blanks that
    # no token follows would cost finditer about w^2 steps
    for m in _TOKEN_RE.finditer(text.rstrip()):
        kind = m.lastgroup
        tok_text = m.group(kind)
        col = m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {tok_text!r}",
                             line=line, col=col)
        out.append(_Token(tok_text if kind == "op" else kind, tok_text, col))
    return out


def _int(digits: str, line: int, col: int) -> int:
    """A decimal literal as an int; one longer than the interpreter converts
    (``sys.get_int_max_str_digits()``) is a parse error at its column."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("number has too many digits", line=line, col=col) from None


class _Value:
    """Intermediate parse value: marker -> 3-variable polynomial."""

    __slots__ = ("parts",)

    def __init__(self, parts: Optional[Dict[Optional[str], MultiPoly]] = None):
        self.parts = {m: p for m, p in (parts or {}).items() if not p.is_zero()}

    @classmethod
    def of_poly(cls, p: MultiPoly) -> "_Value":
        return cls({None: p})

    def markers(self):
        return set(self.parts) - {None}

    def plain(self) -> MultiPoly:
        return self.parts.get(None, MultiPoly.zero(3))

    def __add__(self, other: "_Value") -> "_Value":
        out = dict(self.parts)
        for m, p in other.parts.items():
            out[m] = out[m] + p if m in out else p
        return _Value(out)

    def __neg__(self) -> "_Value":
        return _Value({m: -p for m, p in self.parts.items()})


_ONE = MultiPoly.constant(1, 3)
_ATOMS = {name: _Value.of_poly(MultiPoly.variable(k, 3))
          for name, k in VAR_INDEX.items()}
_ATOMS["i"] = _Value.of_poly(MultiPoly.constant(GaussianRational(0, 1), 3))
_ATOMS.update((m, _Value({m: _ONE})) for m in (*FIELD_MARKERS, *FORM_MARKERS))


def _words(p1: MultiPoly, p2: MultiPoly) -> int:
    """64-bit words of the longest numerator or denominator of ``p1`` and
    ``p2``, at least 1."""
    bits = 0
    for a, b, d in map(gaussian_triple, chain(p1.terms.values(),
                                              p2.terms.values())):
        bits = max(bits, a.bit_length(), b.bit_length(), d.bit_length())
    return max(1, (bits + 63) // 64)


class _Parser:
    def __init__(self, tokens: List[_Token], line: int):
        self.tokens = tokens
        self.line = line
        self.k = 0
        self.pairs = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def end_col(self) -> int:
        """The column just past the last token."""
        last = self.tokens[-1]
        return last.col + len(last.text)

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression", line=self.line,
                             col=self.end_col())
        self.k += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t is None or t.kind != kind:
            raise ParseError(
                f"expected {kind!r}" + (f", found {t.text!r}" if t else ""),
                line=self.line, col=(t.col if t else self.end_col()))
        return self.next()

    def product(self, p1: MultiPoly, p2: MultiPoly, at: _Token) -> MultiPoly:
        """``p1 * p2``, charged to the parse's budget of term pairs."""
        words = _words(p1, p2)
        weight = (words * words + 63) // 64
        self.pairs += len(p1.terms) * len(p2.terms) * weight
        if self.pairs > PAIR_BUDGET:
            raise ParseError(
                f"expansion needs more than {PAIR_BUDGET} term products",
                line=self.line, col=at.col)
        return p1 * p2

    def fail_if_atom_follows(self):
        t = self.peek()
        if t is not None and (t.kind in _ATOM_STARTS):
            raise ParseError(
                "implicit multiplication is not allowed; insert '*'",
                line=self.line, col=t.col)

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> _Value:
        v = self.parse_term()
        while True:
            self.fail_if_atom_follows()
            t = self.peek()
            if t is None or t.kind not in ("+", "-"):
                return v
            self.next()
            rhs = self.parse_term()
            v = v + (rhs if t.kind == "+" else -rhs)

    # term := factor ('*' factor)*
    def parse_term(self) -> _Value:
        v = self.parse_factor()
        while True:
            self.fail_if_atom_follows()
            t = self.peek()
            if t is None or t.kind != "*":
                return v
            star = self.next()
            rhs = self.parse_factor()
            v = self._mul(v, rhs, star)

    def _mul(self, a: _Value, b: _Value, at: _Token) -> _Value:
        out: Dict[Optional[str], MultiPoly] = {}
        for m1, p1 in a.parts.items():
            for m2, p2 in b.parts.items():
                if m1 is not None and m2 is not None:
                    raise ParseError(
                        "at most one component marker per monomial",
                        line=self.line, col=at.col)
                m = m1 if m1 is not None else m2
                prod = self.product(p1, p2, at)
                out[m] = out[m] + prod if m in out else prod
        return _Value(out)

    # factor := '-' factor | power
    def parse_factor(self) -> _Value:
        t = self.peek()
        if t is not None and t.kind == "-":
            self.next()
            return -self.parse_factor()
        if t is not None and t.kind == "+":
            self.next()
            return self.parse_factor()
        return self.parse_power()

    # power := atom ['^' int]
    def parse_power(self) -> _Value:
        v = self.parse_atom()
        t = self.peek()
        if t is not None and t.kind == "^":
            caret = self.next()
            e = self.expect("number")
            if "/" in e.text:
                raise ParseError("exponent must be a nonnegative integer",
                                 line=self.line, col=e.col)
            n = _int(e.text, self.line, e.col)
            if v.markers():
                raise ParseError("component markers cannot be raised to powers",
                                 line=self.line, col=caret.col)
            return _Value.of_poly(power(
                v.plain(), n, _ONE, lambda a, b: self.product(a, b, caret)))
        return v

    def parse_atom(self) -> _Value:
        t = self.next()
        if t.kind == "number":
            num, _, den = t.text.partition("/")
            num, den = _int(num, self.line, t.col), _int(den or "1", self.line, t.col)
            if den == 0:
                raise ParseError("zero denominator", line=self.line, col=t.col)
            if num == 0:
                return _Value()
            return _Value.of_poly(_trusted(3, {(0, 0, 0): _triple(num, 0, den)}))
        if t.kind == "ident":
            atom = _ATOMS.get(t.text)
            if atom is None:
                raise ParseError(f"unknown symbol {t.text!r}",
                                 line=self.line, col=t.col)
            return atom
        if t.kind == "(":
            v = self.parse_expr()
            self.expect(")")
            return v
        raise ParseError(f"unexpected token {t.text!r}", line=self.line, col=t.col)


def _parse_value(text: str, line: int = 1) -> _Value:
    stripped = text.split("#", 1)[0]
    tokens = _tokenize(stripped, line)
    if not tokens:
        raise ParseError("empty expression", line=line, col=1)
    p = _Parser(tokens, line)
    v = p.parse_expr()
    t = p.peek()
    if t is not None:
        raise ParseError(f"unexpected token {t.text!r}", line=line, col=t.col)
    return v


def _project(p: MultiPoly, nvars: int, line: int) -> MultiPoly:
    """Narrow an internal 3-variable polynomial to its first ``nvars``."""
    out = {}
    for e, c in p.terms.items():
        if any(e[k] for k in range(nvars, 3)):
            raise ParseError(
                f"expression uses variable {DEFAULT_NAMES[3][max(k for k in range(3) if e[k])]}"
                f" but only {nvars} variables are allowed", line=line, col=1)
        out[e[:nvars]] = c
    return _trusted(nvars, out)


def _auto_nvars(v: _Value) -> int:
    uses_z = any(e[2] for p in v.parts.values() for e in p.terms)
    if uses_z or "ddz" in v.markers():
        return 3
    return 2


def parse_scalar_literal(text: str, line: int = 1) -> GaussianRational:
    """Parse a constant expression into a Gaussian rational."""
    v = _parse_value(text, line)
    if v.markers():
        raise ParseError("component marker in scalar expression", line=line, col=1)
    p = v.plain()
    extras = {e for e in p.terms if any(e)}
    if extras:
        raise ParseError("variables in scalar expression", line=line, col=1)
    c = p.constant_term()
    if isinstance(c, GaussianRational):
        return c
    raise ParseError("scalar expression did not reduce to a constant", line=line, col=1)


def _poly_of(v: _Value, nvars: Optional[int], line: int) -> MultiPoly:
    if v.markers():
        raise ParseError("unexpected component marker in polynomial expression",
                         line=line, col=1)
    n = nvars if nvars is not None else _auto_nvars(v)
    return _project(v.plain(), n, line)


def _field_of(v: _Value, nvars: Optional[int], line: int) -> VectorFieldGerm:
    if v.markers() & set(FORM_MARKERS):
        raise ParseError("1-form markers in a vector-field expression",
                         line=line, col=1)
    if not v.plain().is_zero():
        raise ParseError("vector-field expression has terms without a component marker",
                         line=line, col=1)
    n = nvars if nvars is not None else _auto_nvars(v)
    comps = [MultiPoly.zero(n) for _ in range(n)]
    for m in v.markers():
        idx = FIELD_MARKERS[m]
        if idx >= n:
            raise ParseError(f"marker {m!r} exceeds {n} variables", line=line, col=1)
        comps[idx] = _project(v.parts[m], n, line)
    return VectorFieldGerm(comps)


def _form_of(v: _Value, line: int) -> OneFormGerm:
    if v.markers() & set(FIELD_MARKERS):
        raise ParseError("vector-field markers in a 1-form expression",
                         line=line, col=1)
    if not v.markers():
        if v.plain().is_zero():
            return OneFormGerm(MultiPoly.zero(2), MultiPoly.zero(2))
        raise ParseError("1-form expression needs dx or dy terms", line=line, col=1)
    if not v.plain().is_zero():
        raise ParseError("1-form expression has terms without a component marker",
                         line=line, col=1)
    a = _project(v.parts.get("dx", MultiPoly.zero(3)), 2, line)
    b = _project(v.parts.get("dy", MultiPoly.zero(3)), 2, line)
    return OneFormGerm(a, b)


def parse_poly(text: str, nvars: Optional[int] = None, line: int = 1) -> MultiPoly:
    return _poly_of(_parse_value(text, line), nvars, line)


def parse_field(text: str, nvars: Optional[int] = None, line: int = 1) -> VectorFieldGerm:
    return _field_of(_parse_value(text, line), nvars, line)


def parse_form(text: str, line: int = 1) -> OneFormGerm:
    return _form_of(_parse_value(text, line), line)


def parse_any(text: str, line: int = 1) -> Union[MultiPoly, VectorFieldGerm, OneFormGerm]:
    """Parse an expression whose kind is decided by its markers."""
    v = _parse_value(text, line)
    has_field = bool(v.markers() & set(FIELD_MARKERS))
    has_form = bool(v.markers() & set(FORM_MARKERS))
    if has_field and has_form:
        raise ParseError("cannot mix vector-field and 1-form markers",
                         line=line, col=1)
    if has_field:
        return _field_of(v, None, line)
    if has_form:
        return _form_of(v, line)
    return _poly_of(v, None, line)


def iter_expressions(text: str) -> Iterator[Tuple[int, str]]:
    """Yield (line number, expression) skipping blanks and comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


# -- canonical rendering ----------------------------------------------
def render_scalar(c: GaussianRational) -> str:
    from .scalars import format_gaussian

    return format_gaussian(c)


def render_any(obj) -> str:
    if isinstance(obj, VectorFieldGerm):
        return render_field(obj)
    if isinstance(obj, OneFormGerm):
        return render_form(obj)
    if isinstance(obj, MultiPoly):
        return render_poly(obj)
    if isinstance(obj, GaussianRational):
        return render_scalar(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")
