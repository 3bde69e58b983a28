"""Exact base scalars: Gaussian rationals.

GaussianRational is the ground field for every exact computation in the
package: (a + b*i)/d stored as an integer triple (a, b, d) with d > 0 and
gcd(a, b, d) = 1, so each element has exactly one representation.  Sums
and products work on Python ints and normalize with one gcd per result;
the real and imaginary parts are exposed as Fractions.  ``fraction_sqrt``
and ``gaussian_sqrt`` are the package's exact square roots in Q and Q(i).

The exact core takes one closed set of two scalar types: GaussianRational
and the FieldElement of a tower (``towers``).  Both have ``is_zero()``,
``inverse()`` and ``as_gaussian_or_none()``.  An int or a Fraction is
converted once, by ``coerce_scalar``, where a value enters the library
(the MultiPoly constructor, eigenvalue lists handed to the resonance,
domain and holonomy functions); inside, scalars are used only through
their own methods.  A formal symbol such as the loop weight tau of a
saddle-node return map is a polynomial variable, not a scalar.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Tuple, Union

from .errors import CoefficientTooLarge, DivisionByZero

RatLike = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


_new = object.__new__


def _lowest(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d from ints already in lowest terms with d > 0."""
    out = _new(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _triple(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d from ints with d > 0, reduced by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _lowest(a // g, b // g, d // g)
    return _lowest(a, b, d)


class GaussianRational:
    """Exact element of Q(i): (a + b*i)/d in lowest terms.

    Immutable: ``re`` and ``im`` are read-only, and the triple is private.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        re, im = _frac(re), _frac(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        if q == s:
            a, b, d = p, r, q
        else:
            # d = lcm(q, s); a prime of d divides q or s to the full power,
            # so it misses p or r and the triple is already in lowest terms
            d = q // gcd(q, s) * s
            a, b = p * (d // q), r * (d // s)
        self._a = a
        self._b = b
        self._d = d

    # -- parts ----------------------------------------------------------
    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_one(self) -> bool:
        return self._a == 1 and self._b == 0 and self._d == 1

    def is_rational(self) -> bool:
        return self._b == 0

    # -- ring/field ops -----------------------------------------------
    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _co(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _triple(self._a + other._a, self._b + other._b, d1)
        return _triple(self._a * d2 + other._a * d1,
                       self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _lowest(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _co(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _triple(self._a - other._a, self._b - other._b, d1)
        return _triple(self._a * d2 - other._a * d1,
                       self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _co(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if b1 == 0 and b2 == 0:
            return _triple(a1 * a2, 0, d)
        return _triple(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b = self._a, self._b
        n = a * a + b * b
        if n == 0:
            raise DivisionByZero("inverse of zero Gaussian rational")
        d = self._d
        return _triple(a * d, -b * d, n)

    def __truediv__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, ONE)

    def conjugate(self) -> "GaussianRational":
        return _lowest(self._a, -self._b, self._d)

    # -- comparison / hashing ----------------------------------------
    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _co(other)
            if other is NotImplemented:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # a real value hashes as the Fraction (or int) it equals, a
        # non-real one as the pair of Fractions (re, im), in which an int
        # part hashes like the Fraction with the same value
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return hash(a) if d == 1 else hash(Fraction(a, d))
        if d == 1:
            return hash((a, b))
        return hash((self.re, self.im))

    def sort_key(self):
        return (self.re, self.im)

    # -- conversions --------------------------------------------------
    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def as_gaussian_or_none(self) -> "GaussianRational":
        """The value in Q(i): ``self``, as for a tower element that lies there."""
        return self

    def as_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError("not a rational number")
        return Fraction(self._a, self._d)

    def __repr__(self):
        return f"GaussianRational({format_gaussian(self)})"

    def __str__(self):
        return format_gaussian(self)


def power(base, n: int, one, mul=operator.mul):
    """``base**n`` for an integer ``n >= 0`` by square-and-multiply, with
    ``one`` the answer for ``n == 0``; ``mul`` forms every product.  Bits
    are read from the lowest, and the base is not squared past the top
    one."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one if out is None else out


def _co(x):
    """Coerce int/Fraction to GaussianRational; NotImplemented otherwise."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _lowest(x.numerator, 0, x.denominator)
    return NotImplemented


def gaussian_triple(z: GaussianRational) -> Tuple[int, int, int]:
    """The integers (a, b, d) of z = (a + b*i)/d in lowest terms, d > 0."""
    return z._a, z._b, z._d


def max_bit_length(zs) -> int:
    """The bit length of the longest a, b or d among the z = (a + b*i)/d
    of ``zs``, 0 for none: that of the bitwise or of every |a|, |b| and d."""
    acc = 0
    for z in zs:
        acc |= abs(z._a) | abs(z._b) | z._d
    return acc.bit_length()


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)


# -- exact square roots ---------------------------------------------------
def fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of a rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def gaussian_sqrt(z: GaussianRational) -> Optional[GaussianRational]:
    """A square root of z in Q(i), or None if z is not a square there.

    z = (x + y*i)/d equals (x*d + y*d*i)/d^2, and Z[i] is integrally
    closed, so z is a square exactly when w^2 = x*d + y*d*i for a Gaussian
    integer w = u + v*i.  Then u^2 + v^2 = |w|^2 = n, the integer square
    root of the norm, so u^2 = (n + x*d)/2 and v^2 = (n - x*d)/2, and
    2*u*v = y*d fixes the sign of v.  The root returned is w/d with u >= 0
    (and v >= 0 when u = 0).
    """
    d = z._d
    x, y = z._a * d, z._b * d
    n = isqrt(x * x + y * y)
    if n * n != x * x + y * y:
        return None
    u2, v2 = (n + x) >> 1, (n - x) >> 1
    u, v = isqrt(u2), isqrt(v2)
    if u * u != u2 or v * v != v2 or u2 + v2 != n:
        return None
    return _triple(u, -v if y < 0 else v, d)


def _fmt_ratio(n: int, d: int) -> str:
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        # past the interpreter's limit on int-to-str conversion
        raise CoefficientTooLarge(
            "a coefficient has too many digits to print",
            limit=sys.get_int_max_str_digits()) from None


def format_gaussian(g: GaussianRational) -> str:
    """Canonical string in the parser grammar: ``a/b``, ``c/d*i``, ``a/b+c/d*i``."""
    a, b, d = g._a, g._b, g._d
    if b == 0:
        return _fmt_ratio(a, d)
    if b == d:
        imtxt = "i"
    elif b == -d:
        imtxt = "-i"
    else:
        imtxt = f"{_fmt_ratio(b, d)}*i"
    if a == 0:
        return imtxt
    if b > 0:
        return f"{_fmt_ratio(a, d)}+{imtxt}"
    return f"{_fmt_ratio(a, d)}{imtxt}"  # imtxt already carries the minus sign


def coerce_scalar(c):
    """An int or a Fraction as a GaussianRational; other exact scalars
    unchanged.  A float or a complex (numpy's included) is refused with a
    TypeError: the exact core never computes with them."""
    if type(c) is GaussianRational:
        # the common case, decided without isinstance(c, Fraction), which
        # goes through the slower abstract-base-class check
        return c
    if isinstance(c, (int, Fraction)):
        return _co(c)
    if isinstance(c, (float, complex)):
        raise TypeError(f"inexact {type(c).__name__} coefficient in the exact core")
    return c


def row_reduce(rows):
    """Gauss-Jordan elimination over GaussianRationals or tower elements.

    Returns the reduced row echelon form (a new list of rows; the input is
    left alone) and the list of pivot columns, one per nonzero row."""
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        if top == m:
            break
        sel = next((r for r in range(top, m)
                    if not rows[r][col].is_zero()), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = rows[top][col].inverse()
        pivot_row = rows[top] = [v * inv for v in rows[top]]
        for r in range(m):
            factor = rows[r][col]
            if r != top and not factor.is_zero():
                rows[r] = [a - factor * b for a, b in zip(rows[r], pivot_row)]
        pivots.append(col)
    return rows, pivots
