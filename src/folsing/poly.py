"""Sparse multivariate polynomials with truncated series arithmetic, and plane germs.

MultiPoly is a dict from exponent tuples to nonzero exact scalars
(GaussianRational, or FieldElement over a tower of depth >= 1: the
elements of a depth-0 tower are GaussianRationals); all arithmetic is exact and
coefficient coercion across compatible towers rides on the scalar operators.
The public constructor validates the dict it is given; the results of
MultiPoly's own arithmetic are normal by construction and are built with
``_trusted``, which does not look at their coefficients again.
``mul_trunc`` and ``inverse_trunc`` are the truncated power-series product
and inverse, and ``exponents`` enumerates the monomials of one degree.
``compose`` substitutes polynomials for the variables.  Over Q(i) it
computes on Gaussian-integer numerators with one denominator per
polynomial, ``({exponent: (a, b)}, d)``: its table of powers chains many
products, and each is reduced once, by its content, instead of once per
coefficient.  ``mul_trunc`` keeps the scalar loop, because a lone product
does not repay converting its operands and its result.  ``shift`` moves
the origin by the binomial theorem, with the powers of each shift shared by
all the polynomials it moves.
VectorFieldGerm and OneFormGerm are thin wrappers holding components, with
the classical plane duality  A dx + B dy  <->  B d/dx - A d/dy  and wedge
products used throughout the resolution and integrability checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, sub
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    DivisionByZero,
    InternalInvariantViolation,
    VariableCountMismatch,
    ZeroInput,
)
from .scalars import (
    ZERO,
    GaussianRational,
    _triple,
    coerce_scalar,
    gaussian_triple,
    power,
)
from .towers import TRIVIAL, scalar_to_json

Exponent = Tuple[int, ...]

DEFAULT_NAMES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


class MultiPoly:
    """Sparse exact polynomial in a fixed number of variables.

    Invariant: ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    exact scalars, none of them an ``int`` or a ``Fraction``.  The public
    constructor establishes it from any dict.  The arithmetic methods keep
    it without checking and build their results with ``_trusted``: the
    coefficients lie in a field (Q(i), or a tower whose minimal polynomials
    are kept irreducible), so a product of nonzero scalars is nonzero, and
    every sum is zero-tested where it is formed.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Exponent, object]] = None):
        self.nvars = nvars
        pruned: Dict[Exponent, object] = {}
        if terms:
            for e, c in terms.items():
                c = coerce_scalar(c)
                if not c.is_zero():
                    if len(e) != nvars:
                        raise VariableCountMismatch(
                            f"exponent {e} does not have {nvars} entries")
                    pruned[tuple(e)] = c
        self.terms = pruned

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, c, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, k: int, nvars: int) -> "MultiPoly":
        e = [0] * nvars
        e[k] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, c, exps: Sequence[int]) -> "MultiPoly":
        return cls(len(exps), {tuple(exps): c})

    # -- structure ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        """Largest total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order_at_origin(self) -> Union[int, float]:
        """Smallest total degree of a term; +inf for the zero polynomial."""
        if not self.terms:
            return math.inf
        return min(sum(e) for e in self.terms)

    def homogeneous_component(self, d: int) -> "MultiPoly":
        return _trusted(self.nvars,
                        {e: c for e, c in self.terms.items() if sum(e) == d})

    def truncate(self, order: int) -> "MultiPoly":
        return _trusted(self.nvars,
                        {e: c for e, c in self.terms.items() if sum(e) <= order})

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), ZERO)

    def constant_term(self):
        return self.coefficient((0,) * self.nvars)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def order_in(self, var: int) -> Union[int, float]:
        if not self.terms:
            return math.inf
        return min(e[var] for e in self.terms)

    def coeffs_in(self, var: int) -> Dict[int, "MultiPoly"]:
        """Group terms by the exponent of one variable; values keep nvars with
        that exponent zeroed."""
        out: Dict[int, Dict[Exponent, object]] = {}
        for e, c in self.terms.items():
            k = e[var]
            e0 = list(e)
            e0[var] = 0
            out.setdefault(k, {})[tuple(e0)] = c
        return {k: MultiPoly(self.nvars, t) for k, t in out.items()}

    def sorted_terms(self) -> List[Tuple[Exponent, object]]:
        """Deterministic graded-lex term order: ascending total degree, then
        earlier variables with higher exponents first (x^2 before x*y before y^2)."""
        return sorted(self.terms.items(),
                      key=lambda ec: (sum(ec[0]), tuple(-k for k in ec[0])))

    # -- arithmetic -----------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise VariableCountMismatch(
                f"polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)) or hasattr(other, "tower"):
            other = MultiPoly.constant(other, self.nvars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return _trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)) or hasattr(other, "tower"):
            other = MultiPoly.constant(other, self.nvars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)) or hasattr(other, "tower"):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.mul_trunc(other, math.inf)

    __rmul__ = __mul__

    def mul_trunc(self, other: "MultiPoly",
                  order: Union[int, float]) -> "MultiPoly":
        """``(self * other).truncate(order)``, skipping every term pair whose
        degree sum exceeds ``order`` instead of forming and discarding it;
        ``order`` may be ``math.inf``."""
        self._check(other)
        # inf - sum(e1) would convert the sum to a float, which overflows
        # past the doubles; an int compares with inf exactly
        bounded = order < math.inf
        right = [(e2, c2, sum(e2)) for e2, c2 in other.terms.items()]
        out: Dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            room = order - sum(e1) if bounded else order
            if room < 0:
                continue
            for e2, c2, d2 in right:
                if d2 > room:
                    continue
                e = tuple(map(add, e1, e2))
                p = c1 * c2
                if e in out:
                    s = out[e] + p
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
                else:
                    out[e] = p
        return _trusted(self.nvars, out)

    def inverse_trunc(self, order: int) -> "MultiPoly":
        """The power series inverse of a unit (nonzero constant term),
        truncated at total degree ``order``: c0^-1 (1 - v + v^2 - ...)
        with v = self / c0 - 1, which has no constant term."""
        c0 = self.constant_term()
        if c0.is_zero():
            raise DivisionByZero("series has no constant term")
        c0inv = c0.inverse()
        v = (self - c0).scale(c0inv)
        acc = term = MultiPoly.constant(1, self.nvars)
        sign = -1
        for _ in range(order):
            term = term.mul_trunc(v, order)
            if term.is_zero():
                break
            acc = acc + term.scale(sign)
            sign = -sign
        return acc.scale(c0inv)

    def scale(self, c) -> "MultiPoly":
        c = coerce_scalar(c)
        if c.is_zero():
            return MultiPoly.zero(self.nvars)
        return _trusted(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, MultiPoly.constant(1, self.nvars))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(other, self.nvars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.keys())))

    # -- calculus & substitution ---------------------------------------
    def derivative(self, var: int) -> "MultiPoly":
        out: Dict[Exponent, object] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            e2 = list(e)
            e2[var] = k - 1
            out[tuple(e2)] = c * k
        return _trusted(self.nvars, out)

    def evaluate(self, values: Sequence):
        """Evaluate at scalar values (one per variable)."""
        if len(values) != self.nvars:
            raise VariableCountMismatch("wrong number of values")
        vals = [coerce_scalar(v) for v in values]
        acc = None
        for e, c in self.sorted_terms():
            term = c
            for k, v in zip(e, vals):
                if k:
                    term = term * (v ** k) if k > 1 else term * v
            acc = term if acc is None else acc + term
        return ZERO if acc is None else acc

    def substitute(self, polys: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute a polynomial for each variable (all with equal nvars)."""
        return compose([self], polys)[0]

    def translate(self, shifts: Sequence) -> "MultiPoly":
        """Shift the origin: substitute x_k -> x_k + shift_k."""
        return shift([self], shifts)[0]

    def divide_by_var_power(self, var: int, k: int) -> "MultiPoly":
        """Exact division by x_var^k; raises if any term has lower exponent."""
        if k == 0:
            return self
        out: Dict[Exponent, object] = {}
        for e, c in self.terms.items():
            if e[var] < k:
                raise InternalInvariantViolation(
                    f"term {e} not divisible by variable {var} power {k}")
            e2 = list(e)
            e2[var] -= k
            out[tuple(e2)] = c
        return _trusted(self.nvars, out)

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """The quotient ``self / divisor``; raises unless it is a polynomial.

        Leading-term division in lex order on the exponent tuples.  A single
        polynomial is a Groebner basis of the ideal it generates, so the
        remainder is zero exactly when ``divisor`` divides: a leading
        monomial of the running remainder that the divisor's leading
        monomial does not divide proves that it does not."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroInput("division by the zero polynomial")
        lead = max(divisor.terms)
        lead_inv = divisor.terms[lead].inverse()
        tail = [(e, c) for e, c in divisor.terms.items() if e != lead]
        rem = dict(self.terms)
        quot: Dict[Exponent, object] = {}
        while rem:
            top = max(rem)
            shift = tuple(map(sub, top, lead))
            if min(shift) < 0:
                raise InternalInvariantViolation("division not exact")
            q = rem.pop(top) * lead_inv
            quot[shift] = q
            for e, c in tail:
                e = tuple(map(add, shift, e))
                v = rem.pop(e, None)
                v = -(q * c) if v is None else v - q * c
                if not v.is_zero():
                    rem[e] = v
        return _trusted(self.nvars, quot)

    def map_coefficients(self, fn) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    # -- presentation ---------------------------------------------------
    def to_json(self):
        return [[list(e), scalar_to_json(c)] for e, c in self.sorted_terms()]

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"MultiPoly({self})"


_new = object.__new__


def _trusted(nvars: int, terms: Dict[Exponent, object]) -> MultiPoly:
    """MultiPoly owning ``terms``, which must already satisfy the class
    invariant; nothing is coerced, zero-tested or length-checked."""
    out = _new(MultiPoly)
    out.nvars = nvars
    out.terms = terms
    return out


def compose(polys: Sequence[MultiPoly], maps: Sequence[MultiPoly],
            order: Union[int, float] = math.inf) -> List[MultiPoly]:
    """Each ``poly(maps)``, dropping every term of total degree above
    ``order`` (which may be ``math.inf``).

    One table of truncated powers of the maps serves all of ``polys``.  It
    grows one product per exponent when the exponents come in order, and by
    squaring otherwise.  Every term of the image of x^E has degree at least
    sum_j E_j ord_0(maps[j]), so a source monomial whose bound exceeds
    ``order`` is skipped.  Only the E_j > 0 enter the sum: a map with a
    constant term bounds nothing, and a zero map (order +inf) skips exactly
    the monomials that contain its variable.

    The coefficient type picks the arithmetic of the table, the images and
    the final sum of c * image.  Over Q(i) the table holds Gaussian-integer
    numerators with one denominator per power (``_numerators``): a product
    multiplies ints and is reduced once, by its content, and each output
    coefficient is put in lowest terms once, where the sum ends.  A table
    chains many products, so this pays for the conversion; a lone
    ``mul_trunc`` would not, and keeps the scalar loop.  Tower coefficients
    use ``mul_trunc`` here too.
    """
    if any(poly.nvars != len(maps) for poly in polys):
        raise VariableCountMismatch("wrong number of substitution polynomials")
    nv = maps[0].nvars
    if all(type(c) is GaussianRational
           for p in (*polys, *maps) for c in p.terms.values()):
        lift, mul, total = _numerators, _numerator_mul, _numerator_sum
    else:
        lift, mul, total = _same, MultiPoly.mul_trunc, _scalar_sum
    orders = [m.order_at_origin() for m in maps]
    tables = [{1: lift(m.truncate(order))} for m in maps]

    def map_power(j: int, e: int):
        table = tables[j]
        got = table.get(e)
        if got is None:
            if e - 1 in table:
                got = mul(table[e - 1], table[1], order)
            else:
                # by squaring, so that a lone high power such as x^1000000
                # in a blow-up chart costs about log2(e) products
                half = map_power(j, e // 2)
                got = mul(half, half, order)
                if e & 1:
                    table[e - 1] = got
                    got = mul(got, table[1], order)
            table[e] = got
        return got

    out = []
    for poly in polys:
        # (c, image of x^E), with image None for E = 0
        terms = []
        for exps, c in poly.terms.items():
            if sum(e * o for e, o in zip(exps, orders) if e) > order:
                continue
            image = None
            for j, e in enumerate(exps):
                if e:
                    power = map_power(j, e)
                    image = power if image is None else mul(image, power, order)
            terms.append((c, image))
        out.append(total(nv, terms))
    return out


def _same(p: MultiPoly) -> MultiPoly:
    return p


def _scalar_sum(nv: int, terms) -> MultiPoly:
    """sum c * image over MultiPoly images, one scalar sum per term."""
    one = (0,) * nv
    acc: Dict[Exponent, object] = {}
    for c, image in terms:
        products = ([(one, c)] if image is None
                    else [(e, c * v) for e, v in image.terms.items()])
        for e, v in products:
            if e in acc:
                s = acc[e] + v
                if s.is_zero():
                    del acc[e]
                else:
                    acc[e] = s
            else:
                acc[e] = v
    return _trusted(nv, acc)


# A polynomial over Q(i) as Gaussian-integer numerators over one positive
# denominator: ({exponent: (a, b)}, d) is sum (a + b*i)/d x^exponent.
Numerators = Tuple[Dict[Exponent, Tuple[int, int]], int]


def _numerators(p: MultiPoly) -> Numerators:
    """``p``, whose coefficients are GaussianRationals, over the lcm of
    their denominators."""
    triples = [(e, gaussian_triple(c)) for e, c in p.terms.items()]
    d = lcm(*(t[2] for _, t in triples))
    return {e: (a * (d // t), b * (d // t)) for e, (a, b, t) in triples}, d


def _numerator_mul(p: Numerators, q: Numerators,
                   order: Union[int, float]) -> Numerators:
    """``MultiPoly.mul_trunc`` on numerators: ints multiply, the
    denominators multiply, and the product is divided by its content."""
    bounded = order < math.inf
    right = [(e2, a2, b2, sum(e2)) for e2, (a2, b2) in q[0].items()]
    out: Dict[Exponent, Tuple[int, int]] = {}
    for e1, (a1, b1) in p[0].items():
        room = order - sum(e1) if bounded else order
        if room < 0:
            continue
        for e2, a2, b2, d2 in right:
            if d2 > room:
                continue
            e = tuple(map(add, e1, e2))
            re = a1 * a2 - b1 * b2
            im = a1 * b2 + b1 * a2
            got = out.get(e)
            out[e] = (re, im) if got is None else (got[0] + re, got[1] + im)
    out = {e: v for e, v in out.items() if v[0] or v[1]}
    d = p[1] * q[1]
    if d != 1:
        g = gcd(d, *(x for v in out.values() for x in v))
        if g != 1:
            out = {e: (a // g, b // g) for e, (a, b) in out.items()}
            d //= g
    return out, d


def _numerator_sum(nv: int, terms) -> MultiPoly:
    """sum c * image over numerator images, on the lcm of the
    denominators of the c * image; each coefficient is put in lowest terms
    once, by ``_triple``."""
    scaled = []
    for c, image in terms:
        num, d = ({(0,) * nv: (1, 0)}, 1) if image is None else image
        ca, cb, cd = gaussian_triple(c)
        scaled.append((ca, cb, cd * d, num))
    den = lcm(*(t[2] for t in scaled))
    acc: Dict[Exponent, Tuple[int, int]] = {}
    for ca, cb, d, num in scaled:
        f = den // d
        ca *= f
        cb *= f
        for e, (a, b) in num.items():
            re = ca * a - cb * b
            im = ca * b + cb * a
            got = acc.get(e)
            acc[e] = (re, im) if got is None else (got[0] + re, got[1] + im)
    return _trusted(nv, {e: _triple(a, b, den)
                         for e, (a, b) in acc.items() if a or b})


def shift(polys: Sequence[MultiPoly], shifts: Sequence) -> List[MultiPoly]:
    """Each ``poly(x_1 + shifts[0], ..., x_n + shifts[n-1])``: the origin
    moved to the point ``shifts``.

    One variable at a time, by the binomial theorem: a term c x_k^n becomes
    sum_m c C(n, m) s^(n-m) x_k^m.  The row C(n, m) s^(n-m) is built once
    per exponent n and serves every polynomial of ``polys``, so the
    components of a field or a form share the powers of s.  Coefficients
    and shifts may be Gaussian rationals or tower elements.
    """
    if any(poly.nvars != len(shifts) for poly in polys):
        raise VariableCountMismatch("wrong number of shifts")
    terms = [poly.terms for poly in polys]
    for k, s in enumerate(shifts):
        s = coerce_scalar(s)
        if s.is_zero():
            continue
        # powers[0] is never read: the m = n summand is c itself
        powers = [None, s]
        rows: Dict[int, list] = {}
        moved = []
        for old in terms:
            acc: Dict[Exponent, object] = {}
            for e, c in old.items():
                n = e[k]
                row = rows.get(n)
                if row is None:
                    while len(powers) <= n:
                        powers.append(powers[-1] * s)
                    row = rows[n] = [powers[n - m] * comb(n, m)
                                     for m in range(n)]
                head, tail = e[:k], e[k + 1:]
                for m in range(n, -1, -1):
                    key = head + (m,) + tail
                    v = c if m == n else c * row[m]
                    got = acc.get(key)
                    acc[key] = v if got is None else got + v
            moved.append({e: v for e, v in acc.items() if not v.is_zero()})
        terms = moved
    return [_trusted(poly.nvars, t) for poly, t in zip(polys, terms)]


def exponents(nvars: int, degree: int):
    """Every exponent tuple of ``nvars`` entries and total ``degree``, in
    descending lexicographic order (x^2 before x*y before y^2)."""
    if nvars == 1:
        yield (degree,)
        return
    for k in range(degree, -1, -1):
        for rest in exponents(nvars - 1, degree - k):
            yield (k,) + rest


def render_poly(p: MultiPoly, names: Optional[Sequence[str]] = None) -> str:
    """Canonical text rendering with graded-lex term order."""
    if p.is_zero():
        return "0"
    names = names or DEFAULT_NAMES.get(p.nvars) or tuple(f"x{k+1}" for k in range(p.nvars))
    parts = []
    for e, c in p.sorted_terms():
        mono = "*".join(
            (names[k] if d == 1 else f"{names[k]}^{d}")
            for k, d in enumerate(e) if d
        )
        ctxt = scalar_to_json(c)
        if not isinstance(ctxt, str):
            ctxt = str(c)
        compound = any(s in ctxt[1:] for s in "+-") or "*" in ctxt
        if not mono:
            parts.append(f"({ctxt})" if compound else ctxt)
        elif ctxt == "1":
            parts.append(mono)
        elif ctxt == "-1":
            parts.append(f"-{mono}")
        elif compound:
            parts.append(f"({ctxt})*{mono}")
        else:
            parts.append(f"{ctxt}*{mono}")
    out = parts[0]
    for piece in parts[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out


def render_field(v: "VectorFieldGerm") -> str:
    """Canonical text rendering, ``(component)*marker`` per nonzero
    component; the markers are ddx, ddy, ddz up to three variables and
    dd1, dd2, ... above."""
    names = DEFAULT_NAMES.get(v.nvars) or tuple(str(k + 1) for k in range(v.nvars))
    parts = [f"({render_poly(p)})*dd{name}"
             for p, name in zip(v.components, names) if not p.is_zero()]
    return " + ".join(parts) if parts else "0"


def render_form(w: "OneFormGerm") -> str:
    """Canonical text rendering of A dx + B dy."""
    parts = [f"({render_poly(p)})*{marker}"
             for p, marker in ((w.a, "dx"), (w.b, "dy")) if not p.is_zero()]
    return " + ".join(parts) if parts else "0"


class VectorFieldGerm:
    """Polynomial vector field germ: one component polynomial per variable."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[MultiPoly]):
        components = tuple(components)
        if not components:
            raise ZeroInput("vector field needs at least one component")
        nv = components[0].nvars
        if any(p.nvars != nv for p in components):
            raise VariableCountMismatch("component variable counts differ")
        if len(components) != nv:
            raise VariableCountMismatch(
                f"{len(components)} components for {nv} variables")
        self.components = components

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def order_at_origin(self) -> Union[int, float]:
        return min(p.order_at_origin() for p in self.components)

    def is_singular_at_origin(self) -> bool:
        return all(p.constant_term().is_zero() for p in self.components)

    def linear_part_matrix(self) -> List[List[object]]:
        """Jacobian at the origin: rows are components, columns variables."""
        out = []
        for p in self.components:
            row = []
            for j in range(self.nvars):
                e = [0] * self.nvars
                e[j] = 1
                row.append(p.coefficient(e))
            out.append(row)
        return out

    def jet(self, order: int) -> "VectorFieldGerm":
        return VectorFieldGerm([p.truncate(order) for p in self.components])

    def homogeneous_component(self, d: int) -> "VectorFieldGerm":
        return VectorFieldGerm([p.homogeneous_component(d) for p in self.components])

    def translate(self, shifts: Sequence) -> "VectorFieldGerm":
        return VectorFieldGerm(shift(self.components, shifts))

    def scale(self, c) -> "VectorFieldGerm":
        return VectorFieldGerm([p.scale(c) for p in self.components])

    def __add__(self, other):
        if not isinstance(other, VectorFieldGerm):
            return NotImplemented
        return VectorFieldGerm([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, VectorFieldGerm):
            return NotImplemented
        return VectorFieldGerm([a - b for a, b in zip(self.components, other.components)])

    def __eq__(self, other):
        if not isinstance(other, VectorFieldGerm):
            return NotImplemented
        return all((a - b).is_zero() for a, b in zip(self.components, other.components))

    def apply_to(self, f: MultiPoly) -> MultiPoly:
        """Lie derivative of a function: sum of component * partial."""
        acc = MultiPoly.zero(self.nvars)
        for k, p in enumerate(self.components):
            acc = acc + p * f.derivative(k)
        return acc

    def to_json(self):
        return [p.to_json() for p in self.components]

    def __str__(self):
        return render_field(self)

    def __repr__(self):
        return f"VectorFieldGerm({self})"


class OneFormGerm:
    """Polynomial 1-form A dx + B dy in the plane."""

    __slots__ = ("a", "b")

    def __init__(self, a: MultiPoly, b: MultiPoly):
        if a.nvars != 2 or b.nvars != 2:
            raise VariableCountMismatch("1-forms are planar (2 variables)")
        self.a = a
        self.b = b

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def order_at_origin(self) -> Union[int, float]:
        return min(self.a.order_at_origin(), self.b.order_at_origin())

    def jet(self, order: int) -> "OneFormGerm":
        return OneFormGerm(self.a.truncate(order), self.b.truncate(order))

    def scale(self, c) -> "OneFormGerm":
        return OneFormGerm(self.a.scale(c), self.b.scale(c))

    def __eq__(self, other):
        if not isinstance(other, OneFormGerm):
            return NotImplemented
        return (self.a - other.a).is_zero() and (self.b - other.b).is_zero()

    def wedge_with_df(self, f: MultiPoly) -> MultiPoly:
        """Coefficient of (A dx + B dy) ^ df  in dx^dy:  A f_y - B f_x."""
        return self.a * f.derivative(1) - self.b * f.derivative(0)

    def to_json(self):
        return {"dx": self.a.to_json(), "dy": self.b.to_json()}

    def __str__(self):
        return render_form(self)

    def __repr__(self):
        return f"OneFormGerm({self})"


def coefficient_tower(*polys):
    """Deepest FieldTower appearing among the coefficients, or ``TRIVIAL``
    if all coefficients are plain Gaussian rationals."""
    best = None
    for p in polys:
        for c in p.terms.values():
            t = getattr(c, "tower", None)
            if t is not None and (best is None or t.depth > best.depth):
                best = t
    return TRIVIAL if best is None else best


def lift_poly(p: MultiPoly, tower) -> MultiPoly:
    """Coerce every coefficient into ``tower``."""
    return p.map_coefficients(tower.element)


def dualize(obj):
    """Swap between the plane 1-form A dx + B dy and its kernel vector field
    B d/dx - A d/dy; applying it twice returns the original object."""
    if isinstance(obj, OneFormGerm):
        return VectorFieldGerm([obj.b, -obj.a])
    if isinstance(obj, VectorFieldGerm):
        if obj.nvars != 2:
            raise VariableCountMismatch("duality is planar (2 variables)")
        f, g = obj.components
        return OneFormGerm(-g, f)
    raise TypeError("dualize expects a planar 1-form or vector field")


def wedge(x1: VectorFieldGerm, x2: VectorFieldGerm) -> MultiPoly:
    """Determinant pairing of two planar fields: F1*G2 - G1*F2."""
    if x1.nvars != 2 or x2.nvars != 2:
        raise VariableCountMismatch("wedge is planar (2 variables)")
    f1, g1 = x1.components
    f2, g2 = x2.components
    return f1 * g2 - g1 * f2
