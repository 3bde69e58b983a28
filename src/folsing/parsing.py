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

Each expression is tokenized and parsed once, into a value: a dict from
component marker (``None`` for unmarked terms) to a term dict
``{(i, j, k): GaussianRational}`` in the three variables, with no empty
term dict and no zero coefficient.  Sums and products of term dicts form
their terms in the order ``MultiPoly``'s ``+`` and ``*`` would, so the
``MultiPoly`` built from each component, once, by ``_project``, is the one
the same arithmetic on polynomials gives, term order included.  A value
and its term dicts belong to the parse that made them, which updates them
in place.  ``parse_any`` dispatches on the markers to the same builders
that ``parse_poly``, ``parse_field`` and ``parse_form`` use.  The term
pairs the products form are counted per parse, weighted by the length of
their coefficients, and an expansion past ``PAIR_BUDGET`` of them, such as
``(1+x)^100000``, is a ParseError at the operator that would pass it.

Rendering is the exact inverse on parser-produced objects: graded-lex term
order, explicit ``*``, canonical scalar formatting.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Dict, Iterator, List, NoReturn, Optional, Tuple, Union

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
from .scalars import (
    I,
    ONE,
    ZERO,
    GaussianRational,
    _triple,
    max_bit_length,
    power,
)

VAR_INDEX = {"x": 0, "x1": 0, "y": 1, "x2": 1, "z": 2, "x3": 2}
FIELD_MARKERS = {"ddx": 0, "ddy": 1, "ddz": 2}
FORM_MARKERS = {"dx": 0, "dy": 1}

# One match per token, as (the whitespace before it, the token); a token is
# a number, an identifier or any one other character but whitespace.  On
# text without trailing whitespace the matches cover every character.
_TOKEN_RE = re.compile(
    r"(\s*)(\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|\S)")


class _Kinds(dict):
    """Token kind by first character: an operator is its own kind, an
    ASCII letter or ``_`` starts an ``ident``, a decimal digit (``\\d``, any
    script) a ``number``; any other character is ``bad``."""

    def __missing__(self, char: str) -> str:
        return "number" if char.isdecimal() else "bad"


_KINDS = _Kinds({c: c for c in "+-*^()"})
_KINDS.update((c, "ident") for c in
              "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_KINDS.update((c, "number") for c in "0123456789")

_ATOM_STARTS = {"number", "ident", "("}

# Term pairs that the products of one parse may form in total.  With w the
# 64-bit words of the longest numerator or denominator of the two operands,
# a pair counts ceil(w^2 / 64) times: multiplying and reducing coefficients
# costs about w^2 word operations, which the interpreter's own cost per pair
# hides up to 8 words (512 bits), where a pair still counts once.  A
# monomial power costs one pair per step, so x^100000000 stays cheap.
PAIR_BUDGET = 10 ** 6

Exponent = Tuple[int, int, int]
Terms = Dict[Exponent, GaussianRational]
Value = Dict[Optional[str], Terms]

_ORIGIN = (0, 0, 0)


class _Token:
    __slots__ = ("kind", "text", "col")

    def __init__(self, kind: str, text: str, col: int):
        self.kind = kind
        self.text = text
        self.col = col


def _tokenize(text: str, line: int) -> List[_Token]:
    out: List[_Token] = []
    col = 1
    # trailing whitespace is stripped, not matched: a run of w blanks that
    # no token follows would cost the search about w^2 steps
    for space, tok_text in _TOKEN_RE.findall(text.rstrip()):
        col += len(space)
        kind = _KINDS[tok_text[0]]
        if kind == "bad":
            raise ParseError(f"unexpected character {tok_text!r}",
                             line=line, col=col)
        out.append(_Token(kind, tok_text, col))
        col += len(tok_text)
    return out


def _int(digits: str, line: int, col: int) -> int:
    """A decimal literal as an int; one longer than the interpreter converts
    (``sys.get_int_max_str_digits()``) is a parse error at its column."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("number has too many digits", line=line, col=col) from None


# name -> (marker, exponent, coefficient) of the one-term value it denotes
_ATOMS = {name: (None, tuple(int(j == k) for j in range(3)), ONE)
          for name, k in VAR_INDEX.items()}
_ATOMS["i"] = (None, _ORIGIN, I)
_ATOMS.update((m, (m, _ORIGIN, ONE)) for m in (*FIELD_MARKERS, *FORM_MARKERS))


def _add_into(s: Terms, t: Terms, negate: bool) -> None:
    """``s += t`` (``s -= t`` when ``negate``) in place, zero sums dropped:
    the terms and their order of ``MultiPoly.__add__``."""
    for e, c in t.items():
        if e in s:
            c = s[e] - c if negate else s[e] + c
            if c.is_zero():
                del s[e]
            else:
                s[e] = c
        else:
            s[e] = -c if negate else c


def _negate(t: Terms) -> None:
    """``t = -t`` in place."""
    for e, c in t.items():
        t[e] = -c


def _mul_terms(t1: Terms, t2: Terms) -> Terms:
    """``t1 * t2``: the terms and their order of ``MultiPoly.__mul__``."""
    out: Terms = {}
    for (i1, j1, k1), c1 in t1.items():
        for (i2, j2, k2), c2 in t2.items():
            e = (i1 + i2, j1 + j2, k1 + k2)
            c = c1 * c2
            if e in out:
                c = out[e] + c
                if c.is_zero():
                    del out[e]
                else:
                    out[e] = c
            else:
                out[e] = c
    return out


def _words(t1: Terms, t2: Terms) -> int:
    """64-bit words of the longest numerator or denominator of ``t1`` and
    ``t2``, at least 1."""
    bits = max_bit_length(chain(t1.values(), t2.values()))
    return max(1, (bits + 63) // 64)


class _Parser:
    """Recursive descent over one tokenized expression.  ``kinds`` holds the
    kind of every token and then ``"end"``; ``k`` indexes the next token."""

    def __init__(self, tokens: List[_Token], line: int):
        self.tokens = tokens
        self.kinds = [t.kind for t in tokens]
        self.kinds.append("end")
        self.line = line
        self.k = 0
        self.pairs = 0

    def col(self, k: int) -> int:
        """The column of token ``k``; just past the last token for the end."""
        if k < len(self.tokens):
            return self.tokens[k].col
        last = self.tokens[-1]
        return last.col + len(last.text)

    def fail(self, message: str, k: int) -> NoReturn:
        raise ParseError(message, line=self.line, col=self.col(k))

    def expect(self, kind: str) -> int:
        """The index of the next token, which must be of ``kind``."""
        k = self.k
        if self.kinds[k] != kind:
            self.fail(f"expected {kind!r}" + (
                f", found {self.tokens[k].text!r}" if self.kinds[k] != "end"
                else ""), k)
        self.k = k + 1
        return k

    def product(self, t1: Terms, t2: Terms, at: int) -> Terms:
        """``t1 * t2``, charged at token ``at`` to the parse's budget of
        term pairs."""
        words = _words(t1, t2)
        self.pairs += len(t1) * len(t2) * ((words * words + 63) // 64)
        if self.pairs > PAIR_BUDGET:
            self.fail(f"expansion needs more than {PAIR_BUDGET} term products",
                      at)
        return _mul_terms(t1, t2)

    def fail_if_atom_follows(self):
        if self.kinds[self.k] in _ATOM_STARTS:
            self.fail("implicit multiplication is not allowed; insert '*'",
                      self.k)

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Value:
        v = self.parse_term()
        while True:
            self.fail_if_atom_follows()
            kind = self.kinds[self.k]
            if kind != "+" and kind != "-":
                return v
            self.k += 1
            negate = kind == "-"
            for m, t in self.parse_term().items():
                s = v.get(m)
                if s is None:
                    if negate:
                        _negate(t)
                    v[m] = t
                else:
                    _add_into(s, t, negate)
                    if not s:
                        del v[m]

    # term := factor ('*' factor)*
    def parse_term(self) -> Value:
        v = self.parse_factor()
        while True:
            self.fail_if_atom_follows()
            star = self.k
            if self.kinds[star] != "*":
                return v
            self.k += 1
            v = self._mul(v, self.parse_factor(), star)

    def _mul(self, a: Value, b: Value, at: int) -> Value:
        # each marker of the product gets one product of parts: a second
        # would need the marker on both sides, which is refused; a product
        # of nonzero parts is nonzero
        out: Value = {}
        for m1, t1 in a.items():
            for m2, t2 in b.items():
                if m1 is not None and m2 is not None:
                    self.fail("at most one component marker per monomial", at)
                out[m1 if m1 is not None else m2] = self.product(t1, t2, at)
        return out

    # factor := ('-'|'+') factor | atom ['^' int]
    def parse_factor(self) -> Value:
        kind = self.kinds[self.k]
        if kind == "-" or kind == "+":
            self.k += 1
            v = self.parse_factor()
            if kind == "-":
                for t in v.values():
                    _negate(t)
            return v
        v = self.parse_atom()
        caret = self.k
        if self.kinds[caret] != "^":
            return v
        self.k += 1
        k = self.expect("number")
        text = self.tokens[k].text
        if "/" in text:
            self.fail("exponent must be a nonnegative integer", k)
        n = _int(text, self.line, self.col(k))
        if _markers(v):
            self.fail("component markers cannot be raised to powers", caret)
        if n == 1:  # power() would return the base itself
            return v
        p = power(v.get(None, {}), n, {_ORIGIN: ONE},
                  lambda t1, t2: self.product(t1, t2, caret))
        return {None: p} if p else {}

    def parse_atom(self) -> Value:
        k = self.k
        kind = self.kinds[k]
        if kind == "end":
            self.fail("unexpected end of expression", k)
        self.k = k + 1
        text = self.tokens[k].text
        if kind == "number":
            num, _, den = text.partition("/")
            col = self.col(k)
            num, den = _int(num, self.line, col), _int(den or "1", self.line, col)
            if den == 0:
                self.fail("zero denominator", k)
            if num == 0:
                return {}
            return {None: {_ORIGIN: _triple(num, 0, den)}}
        if kind == "ident":
            atom = _ATOMS.get(text)
            if atom is None:
                self.fail(f"unknown symbol {text!r}", k)
            m, e, c = atom
            return {m: {e: c}}
        if kind == "(":
            v = self.parse_expr()
            self.expect(")")
            return v
        self.fail(f"unexpected token {text!r}", k)


def _parse_value(text: str, line: int = 1) -> Value:
    tokens = _tokenize(text.split("#", 1)[0], line)
    if not tokens:
        raise ParseError("empty expression", line=line, col=1)
    p = _Parser(tokens, line)
    v = p.parse_expr()
    if p.k < len(tokens):
        p.fail(f"unexpected token {tokens[p.k].text!r}", p.k)
    return v


def _markers(v: Value) -> set:
    return v.keys() - {None}


def _project(t: Terms, nvars: int, line: int) -> MultiPoly:
    """The polynomial of a term dict, in its first ``nvars`` variables."""
    out = {}
    for e, c in t.items():
        if any(e[nvars:]):
            raise ParseError(
                f"expression uses variable {DEFAULT_NAMES[3][max(k for k in range(3) if e[k])]}"
                f" but only {nvars} variables are allowed", line=line, col=1)
        out[e[:nvars]] = c
    return _trusted(nvars, out)


def _auto_nvars(v: Value) -> int:
    uses_z = any(e[2] for t in v.values() for e in t)
    if uses_z or "ddz" in v:
        return 3
    return 2


def parse_scalar_literal(text: str, line: int = 1) -> GaussianRational:
    """Parse a constant expression into a Gaussian rational."""
    v = _parse_value(text, line)
    if _markers(v):
        raise ParseError("component marker in scalar expression", line=line, col=1)
    t = v.get(None, {})
    if any(any(e) for e in t):
        raise ParseError("variables in scalar expression", line=line, col=1)
    return t.get(_ORIGIN, ZERO)


def _poly_of(v: Value, nvars: Optional[int], line: int) -> MultiPoly:
    if _markers(v):
        raise ParseError("unexpected component marker in polynomial expression",
                         line=line, col=1)
    n = nvars if nvars is not None else _auto_nvars(v)
    return _project(v.get(None, {}), n, line)


def _field_of(v: Value, nvars: Optional[int], line: int) -> VectorFieldGerm:
    if _markers(v) & FORM_MARKERS.keys():
        raise ParseError("1-form markers in a vector-field expression",
                         line=line, col=1)
    if None in v:
        raise ParseError("vector-field expression has terms without a component marker",
                         line=line, col=1)
    n = nvars if nvars is not None else _auto_nvars(v)
    comps = [MultiPoly.zero(n) for _ in range(n)]
    for m, t in v.items():
        idx = FIELD_MARKERS[m]
        if idx >= n:
            raise ParseError(f"marker {m!r} exceeds {n} variables", line=line, col=1)
        comps[idx] = _project(t, n, line)
    return VectorFieldGerm(comps)


def _form_of(v: Value, line: int) -> OneFormGerm:
    if _markers(v) & FIELD_MARKERS.keys():
        raise ParseError("vector-field markers in a 1-form expression",
                         line=line, col=1)
    if not _markers(v):
        if not v:
            return OneFormGerm(MultiPoly.zero(2), MultiPoly.zero(2))
        raise ParseError("1-form expression needs dx or dy terms", line=line, col=1)
    if None in v:
        raise ParseError("1-form expression has terms without a component marker",
                         line=line, col=1)
    return OneFormGerm(_project(v.get("dx", {}), 2, line),
                       _project(v.get("dy", {}), 2, line))


def parse_poly(text: str, nvars: Optional[int] = None, line: int = 1) -> MultiPoly:
    return _poly_of(_parse_value(text, line), nvars, line)


def parse_field(text: str, nvars: Optional[int] = None, line: int = 1) -> VectorFieldGerm:
    return _field_of(_parse_value(text, line), nvars, line)


def parse_form(text: str, line: int = 1) -> OneFormGerm:
    return _form_of(_parse_value(text, line), line)


def parse_any(text: str, line: int = 1) -> Union[MultiPoly, VectorFieldGerm, OneFormGerm]:
    """Parse an expression whose kind is decided by its markers."""
    v = _parse_value(text, line)
    markers = _markers(v)
    has_field = not markers.isdisjoint(FIELD_MARKERS)
    has_form = not markers.isdisjoint(FORM_MARKERS)
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
