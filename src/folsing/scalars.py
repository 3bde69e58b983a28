"""Exact base scalars: Gaussian rationals and polynomials in the symbol tau.

GaussianRational is the ground field for every exact computation in the
package: a + b*i with a, b rational, stored as normalized Fractions.

TauScalar is a polynomial in a single transcendental symbol tau (representing
the loop period 2*pi*i in holonomy series).  No relation beyond the ring
axioms is ever applied to tau; in particular its degree is additive under
multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import DivisionByZero

RatLike = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


class GaussianRational:
    """Exact element of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    # -- ring/field ops -----------------------------------------------
    def __add__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise DivisionByZero("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

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
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparison / hashing ----------------------------------------
    def __eq__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        return (self.re, self.im)

    # -- conversions --------------------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError("not a rational number")
        return self.re

    def __repr__(self):
        return f"GaussianRational({format_gaussian(self)})"

    def __str__(self):
        return format_gaussian(self)


def _co(x):
    """Coerce int/Fraction to GaussianRational; NotImplemented otherwise."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    return NotImplemented


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)


def _fmt_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_gaussian(g: GaussianRational) -> str:
    """Canonical string in the parser grammar: ``a/b``, ``c/d*i``, ``a/b+c/d*i``."""
    re, im = g.re, g.im
    if im == 0:
        return _fmt_frac(re)
    if im == 1:
        imtxt = "i"
    elif im == -1:
        imtxt = "-i"
    else:
        imtxt = f"{_fmt_frac(im)}*i"
    if re == 0:
        return imtxt
    if im > 0:
        return f"{_fmt_frac(re)}+{imtxt}"
    return f"{_fmt_frac(re)}{imtxt}"  # imtxt already carries the minus sign


class TauScalar:
    """Polynomial in the transcendental symbol tau.

    Coefficients may be any exact scalar supporting +, *, ==, is_zero-style
    testing (GaussianRational or FieldElement).  The zero polynomial has an
    empty coefficient map.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for k, v in coeffs.items():
                if not scalar_is_zero(v):
                    d[int(k)] = v
        object.__setattr__(self, "coeffs", d)

    def __setattr__(self, *a):
        raise AttributeError("TauScalar is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, c) -> "TauScalar":
        return cls({0: c})

    @classmethod
    def tau(cls, power: int = 1, coeff=ONE) -> "TauScalar":
        return cls({power: coeff})

    @classmethod
    def coerce(cls, x) -> "TauScalar":
        if isinstance(x, TauScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.constant(GaussianRational(x))
        return cls.constant(x)

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def tau_degree(self) -> int:
        """Degree in tau; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def constant_part(self):
        return self.coeffs.get(0, ZERO)

    # -- ring ops -----------------------------------------------------
    def __add__(self, other):
        other = TauScalar.coerce(other)
        d = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = d.get(k)
            d[k] = v if w is None else w + v
        return TauScalar(d)

    __radd__ = __add__

    def __neg__(self):
        return TauScalar({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-TauScalar.coerce(other))

    def __rsub__(self, other):
        return TauScalar.coerce(other) + (-self)

    def __mul__(self, other):
        other = TauScalar.coerce(other)
        d = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                p = v1 * v2
                w = d.get(k)
                d[k] = p if w is None else w + p
        return TauScalar(d)

    __rmul__ = __mul__

    def scale(self, c) -> "TauScalar":
        return TauScalar({k: v * c for k, v in self.coeffs.items()})

    def divide_by_int(self, n: int) -> "TauScalar":
        if n == 0:
            raise DivisionByZero("TauScalar division by zero integer")
        inv = Fraction(1, n)
        return TauScalar({k: v * inv for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = TauScalar.coerce(other)
        if not isinstance(other, TauScalar):
            return NotImplemented
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs)

    def __hash__(self):
        return hash(frozenset((k, _hashable(v)) for k, v in self.coeffs.items()))

    def __repr__(self):
        return f"TauScalar({format_tau(self)})"

    def __str__(self):
        return format_tau(self)


def _hashable(v):
    try:
        hash(v)
        return v
    except TypeError:
        return str(v)


def scalar_is_zero(v) -> bool:
    """Zero test across the scalar types used in the package."""
    if isinstance(v, (int, Fraction)):
        return v == 0
    z = getattr(v, "is_zero", None)
    if z is not None:
        return z() if callable(z) else bool(z)
    return v == 0


def format_tau(t: TauScalar) -> str:
    if not t.coeffs:
        return "0"
    parts = []
    for k in sorted(t.coeffs):
        c = t.coeffs[k]
        ctxt = str(c)
        needs_parens = ("+" in ctxt[1:]) or ("-" in ctxt[1:])
        if k == 0:
            parts.append(f"({ctxt})" if needs_parens else ctxt)
            continue
        ttxt = "tau" if k == 1 else f"tau^{k}"
        if ctxt == "1":
            parts.append(ttxt)
        elif ctxt == "-1":
            parts.append(f"-{ttxt}")
        elif needs_parens:
            parts.append(f"({ctxt})*{ttxt}")
        else:
            parts.append(f"{ctxt}*{ttxt}")
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


TAU = TauScalar.tau()
