"""Dynamic algebraic field towers over the Gaussian rationals.

A FieldTower is a chain of simple algebraic extensions: the base field is
Q(i) (or plain Q), and each level adjoins a root of a monic irreducible
polynomial over the level below, its ``parent``.  The elements of a
depth-0 tower are the GaussianRationals themselves.  Over a tower of depth
>= 1 they are FieldElements: coordinate vectors over the power basis of
the top generator, whose entries are elements of the parent, so every
operation is polynomial arithmetic over the parent modulo the top minimal
polynomial.  Coordinates are unique, so structural equality is
mathematical equality.  The two kinds mix freely: a FieldElement lifts a
GaussianRational, an int, a Fraction or an element of a prefix tower into
its own tower.

The module also provides a small dense univariate-polynomial toolkit (the
``tp_*`` functions) over any of the package's exact scalars, and complete
univariate factorization over a tower: a quadratic over Q or Q(i) splits
by an exact square root of its discriminant, Zassenhaus (module
``zassenhaus``) factors higher degrees over Q, the norm f * conj(f)
reaches Q(i), and a Trager norm descent lifts factorizations through the
extension levels.  Degree and depth caps convert runaway extensions into
clean errors.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from operator import add, neg, sub
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DivisionByZero,
    ExtensionDegreeExceeded,
    InternalInvariantViolation,
    NotMonic,
    ReducibleMinimalPolynomial,
    TowerDepthExceeded,
    TowerMismatch,
)
from .scalars import (
    GaussianRational,
    ONE,
    ZERO,
    _co,
    format_gaussian,
    fraction_sqrt,
    gaussian_sqrt,
    power,
)
from .zassenhaus import factor_squarefree

DEFAULT_DEPTH_CAP = 3
DEFAULT_DEGREE_CAP = 6


@contextmanager
def tower_caps(depth: Optional[int] = None, degree: Optional[int] = None):
    """Temporarily override the adjunction caps (depth of nested
    extensions, degree of a single extension) for all adjoin operations
    performed inside the ``with`` block."""
    global DEFAULT_DEPTH_CAP, DEFAULT_DEGREE_CAP
    old = (DEFAULT_DEPTH_CAP, DEFAULT_DEGREE_CAP)
    if depth is not None:
        DEFAULT_DEPTH_CAP = depth
    if degree is not None:
        DEFAULT_DEGREE_CAP = degree
    try:
        yield
    finally:
        DEFAULT_DEPTH_CAP, DEFAULT_DEGREE_CAP = old


# =====================================================================
# Field tower and elements
# =====================================================================
class TowerLevel:
    """One extension step: a named generator and its monic minimal polynomial
    (coefficients are elements of the tower below, ascending, leading 1)."""

    __slots__ = ("name", "minpoly", "degree", "embedding")

    def __init__(self, name: str, minpoly: tuple, embedding: complex):
        self.name = name
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        self.embedding = embedding


class FieldTower:
    """Immutable chain of algebraic extensions over Q(i) or Q."""

    __slots__ = ("base", "levels", "parent")

    def __init__(self, base: str = "gaussian", levels: tuple = (), parent=None):
        if base not in ("gaussian", "rational"):
            raise ValueError("base must be 'gaussian' or 'rational'")
        self.base = base
        self.levels = levels
        # the tower one level down, in which the coordinates of our
        # elements and the coefficients of the top minimal polynomial lie
        if parent is None and levels:
            parent = FieldTower(base, levels[:-1])
        self.parent = parent

    # -- identity ------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.levels)

    def ext_degree(self) -> int:
        d = 1
        for lev in self.levels:
            d *= lev.degree
        return d

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldTower):
            return NotImplemented
        return (self.base == other.base and self.depth == other.depth
                and all(a.minpoly == b.minpoly
                        for a, b in zip(self.levels, other.levels)))

    def __hash__(self):
        return hash((self.base, self.depth, tuple(lev.degree for lev in self.levels)))

    def is_prefix_of(self, other: "FieldTower") -> bool:
        while other.depth > self.depth:
            other = other.parent
        return other == self

    def describe(self) -> dict:
        """JSON-safe structural description (generator names + minimal polys)."""
        return {
            "base": self.base,
            "levels": [
                {
                    "name": lev.name,
                    "degree": lev.degree,
                    "minpoly": [scalar_to_json(c) for c in lev.minpoly],
                    "embedding": [lev.embedding.real, lev.embedding.imag],
                }
                for lev in self.levels
            ],
        }

    def __repr__(self):
        if not self.levels:
            return f"FieldTower({self.base})"
        names = ",".join(lev.name for lev in self.levels)
        return f"FieldTower({self.base}; {names})"

    # -- element construction ------------------------------------------
    def element(self, x):
        """Coerce x (int, Fraction, GaussianRational, or prefix-tower element)
        into this tower: a GaussianRational at depth 0, else a FieldElement."""
        if type(x) is not GaussianRational:
            if isinstance(x, FieldElement):
                if x.tower == self:
                    return x if x.tower is self else FieldElement(self, x.coeffs)
                if x.tower.is_prefix_of(self):
                    return self._pad([self.parent.element(x)])
                raise TowerMismatch("element does not embed into this tower")
            g = _co(x)
            if g is NotImplemented:
                raise TypeError(f"cannot coerce {type(x).__name__} into tower")
            x = g
        if self.levels:
            return self._pad([self.parent.element(x)])
        if self.base == "rational" and not x.is_rational():
            raise TowerMismatch("imaginary constant in a rational-base tower")
        return x

    def _pad(self, coeffs: list) -> "FieldElement":
        """The element with the leading coordinates ``coeffs`` (at most the
        top degree of them) and zeros after them."""
        n = self.levels[-1].degree
        return FieldElement(self, tuple(coeffs) + (self.parent.zero(),) * (n - len(coeffs)))

    def zero(self):
        return self.element(ZERO)

    def one(self):
        return self.element(ONE)

    def gen(self, k: Optional[int] = None) -> "FieldElement":
        """Generator of level k (1-based; default: top level)."""
        if self.depth == 0:
            raise ValueError("trivial tower has no generator")
        k = self.depth if k is None else k
        if not 1 <= k <= self.depth:
            raise ValueError("no such level")
        if k < self.depth:
            return self._pad([self.parent.gen(k)])
        return self._pad([self.parent.zero(), self.parent.one()])

    # -- extension ------------------------------------------------------
    def adjoin_root(self, minpoly: Sequence,
                    name: Optional[str] = None) -> Tuple["FieldTower", "FieldElement"]:
        """Adjoin a root of the monic irreducible ``minpoly`` (ascending
        coefficients over this tower).  Returns (extended tower, new generator).

        The depth and degree caps are the module-wide values, which
        ``tower_caps`` can override for the duration of a computation.
        """
        coeffs = [self.element(c) for c in minpoly]
        coeffs = tp_trim(coeffs)
        deg = len(coeffs) - 1
        if deg < 1:
            raise NotMonic("minimal polynomial must have degree >= 1")
        if not (coeffs[-1] - self.one()).is_zero():
            raise NotMonic("minimal polynomial must be monic")
        if deg < 2:
            raise ReducibleMinimalPolynomial("degree-1 polynomial adjoins nothing")
        if self.depth + 1 > DEFAULT_DEPTH_CAP:
            raise TowerDepthExceeded(f"tower depth cap {DEFAULT_DEPTH_CAP} reached")
        if deg > DEFAULT_DEGREE_CAP:
            raise ExtensionDegreeExceeded(
                f"extension degree {deg} exceeds cap {DEFAULT_DEGREE_CAP}")
        _, factors = factor_univariate(coeffs, self)
        if len(factors) != 1 or factors[0][1] != 1 or tp_deg(factors[0][0]) != deg:
            raise ReducibleMinimalPolynomial(
                "polynomial is reducible over the tower",
                factors=[[str(c) for c in f] for f, _ in factors],
            )
        emb = _chosen_root([complex(c) for c in coeffs])
        lev = TowerLevel(name or f"a{self.depth + 1}", tuple(coeffs), emb)
        new = FieldTower(self.base, self.levels + (lev,), parent=self)
        return new, new.gen()


TRIVIAL = FieldTower("gaussian")
TRIVIAL_RATIONAL = FieldTower("rational")


def _chosen_root(coeffs_complex: List[complex]) -> complex:
    """Deterministic embedding: the root of the (ascending) polynomial that is
    smallest in the rounded (re, im) lexicographic order.

    The one float computation of the exact core, so numpy is imported here
    and not at module level."""
    import numpy as np

    arr = np.roots(list(reversed(coeffs_complex)))
    cands = sorted(
        (complex(r) for r in arr),
        key=lambda z: (round(z.real, 10), round(z.imag, 10)),
    )
    return cands[0]


class FieldElement:
    """Element of a FieldTower of depth >= 1.

    ``coeffs`` are its coordinates over the power basis 1, a, ..., a^(n-1)
    of the top generator a of degree n: a tuple of n elements of
    ``tower.parent``, so GaussianRationals at depth 1.  Coordinates are
    unique, so structural equality is mathematical equality, and every
    operation is the parent's arithmetic on them.  A depth-0 tower has
    GaussianRational elements instead.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: tuple):
        self.tower = tower
        self.coeffs = coeffs

    # -- predicates -----------------------------------------------------
    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _in_parent(self) -> bool:
        """Whether the element lies in the tower one level down."""
        return all(c.is_zero() for c in self.coeffs[1:])

    def is_one(self) -> bool:
        return self.coeffs[0].is_one() and self._in_parent()

    def is_rational(self) -> bool:
        g = self.as_gaussian_or_none()
        return g is not None and g.is_rational()

    # -- conversions ----------------------------------------------------
    def as_gaussian_or_none(self) -> Optional[GaussianRational]:
        """The GaussianRational value if this element lies in the base field."""
        return self.coeffs[0].as_gaussian_or_none() if self._in_parent() else None

    def as_fraction(self) -> Fraction:
        g = self.as_gaussian_or_none()
        if g is None or not g.is_rational():
            raise ValueError("element is not rational")
        return g.as_fraction()

    def __complex__(self) -> complex:
        z = self.tower.levels[-1].embedding
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coeffs)

    def to_json(self):
        return [scalar_to_json(c) for c in self.coeffs]

    # -- arithmetic -----------------------------------------------------
    def _align(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self, self.tower.element(other)
        if isinstance(other, FieldElement):
            if other.tower == self.tower:
                return self, other
            if other.tower.is_prefix_of(self.tower):
                return self, self.tower.element(other)
            if self.tower.is_prefix_of(other.tower):
                return other.tower.element(self), other
            raise TowerMismatch("elements of unrelated towers")
        return None, None

    def __add__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return FieldElement(a.tower, tuple(map(add, a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, tuple(map(neg, self.coeffs)))

    def __sub__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return FieldElement(a.tower, tuple(map(sub, a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        # the product of the coordinate polynomials, reduced modulo the
        # monic top minimal polynomial m = t^n + m[n-1] t^(n-1) + ...
        prod = tp_mul(a.coeffs, b.coeffs)
        m = a.tower.levels[-1].minpoly
        n = len(m) - 1
        for i in range(len(prod) - 1, n - 1, -1):
            c = prod[i]
            if not c.is_zero():
                for j in range(n):
                    prod[i - n + j] = prod[i - n + j] - c * m[j]
        return a.tower._pad(prod[:n])

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero field element")
        g, s, _ = tp_xgcd(self.coeffs, self.tower.levels[-1].minpoly)
        if tp_deg(g) != 0:
            raise InternalInvariantViolation("minimal polynomial not irreducible (inverse failed)")
        ginv = g[0].inverse()
        return self.tower._pad([c * ginv for c in s])

    def __truediv__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.tower.one())

    def __eq__(self, other):
        try:
            a, b = self._align(other)
        except TowerMismatch:
            return False
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    def __hash__(self):
        # the value at the lowest level it lies in, so that an element, its
        # lift into a longer tower and an equal GaussianRational hash alike
        return hash(self.coeffs[0]) if self._in_parent() else hash(self.coeffs)

    def __repr__(self):
        return f"FieldElement({self})"

    def __str__(self):
        name = self.tower.levels[-1].name
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            ctxt = str(c)
            if k == 0:
                parts.append(ctxt)
            else:
                head = name if k == 1 else f"{name}^{k}"
                parts.append(head if ctxt == "1" else f"({ctxt})*{head}")
        return "+".join(parts).replace("+-", "-") if parts else "0"


def scalar_to_json(c):
    """The JSON form of an exact scalar: a tower element as its nested
    coordinate lists, any other scalar as its canonical string."""
    if isinstance(c, GaussianRational):
        return format_gaussian(c)
    if isinstance(c, FieldElement):
        return c.to_json()
    return str(c)


# =====================================================================
# Dense univariate polynomials over any exact scalar (ascending lists)
# =====================================================================
def tp_trim(p: list) -> list:
    """p without its trailing zero coefficients: ``p`` itself if it has
    none.  Coefficients are tower elements (or other scalars with an
    ``is_zero`` method), not bare ints or Fractions."""
    n = len(p)
    while n and p[n - 1].is_zero():
        n -= 1
    return p if n == len(p) else p[:n]


def tp_deg(p: list) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(tp_trim(p)) - 1


def tp_is_zero(p: list) -> bool:
    return tp_deg(p) < 0


def tp_add(p: list, q: list) -> list:
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        if k < len(p) and k < len(q):
            out.append(p[k] + q[k])
        elif k < len(p):
            out.append(p[k])
        else:
            out.append(q[k])
    return tp_trim(out)


def tp_neg(p: list) -> list:
    return [-c for c in p]


def tp_sub(p: list, q: list) -> list:
    return tp_add(p, tp_neg(q))


def tp_scale(p: list, c) -> list:
    return tp_trim([x * c for x in p])


def tp_mul(p: list, q: list) -> list:
    p, q = tp_trim(p), tp_trim(q)
    if not p or not q:
        return []
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            ab = a * b
            out[i + j] = ab if out[i + j] is None else out[i + j] + ab
    zero = p[0] * 0
    return tp_trim([zero if c is None else c for c in out])


def tp_divmod(p: list, q: list) -> Tuple[list, list]:
    p, q = tp_trim(list(p)), tp_trim(q)
    if not q:
        raise DivisionByZero("polynomial division by zero")
    dq = len(q) - 1
    lead_inv = q[-1].inverse()
    quot = []
    r = list(p)
    while len(r) - 1 >= dq and r:
        c = r[-1] * lead_inv
        k = len(r) - 1 - dq
        quot.append((k, c))
        for j in range(dq + 1):
            r[k + j] = r[k + j] - c * q[j]
        r = tp_trim(r)
    if not quot:
        return [], tp_trim(r)
    deg_quot = max(k for k, _ in quot)
    zero = q[-1] * 0
    out = [zero] * (deg_quot + 1)
    for k, c in quot:
        out[k] = c
    return tp_trim(out), tp_trim(r)


def tp_monic(p: list) -> list:
    p = tp_trim(p)
    if not p:
        return p
    return tp_scale(p, p[-1].inverse())


def tp_gcd(p: list, q: list) -> list:
    a, b = tp_trim(p), tp_trim(q)
    while not tp_is_zero(b):
        _, r = tp_divmod(a, b)
        a, b = b, r
    return tp_monic(a)


def tp_xgcd(a: list, b: list) -> Tuple[list, list, list]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g (g not normalized)."""
    a, b = tp_trim(list(a)), tp_trim(list(b))
    one_c = (a or b)[-1] * 0 + 1
    r0, r1 = a, b
    s0, s1 = [one_c], []
    t0, t1 = [], [one_c]
    while not tp_is_zero(r1):
        q, r = tp_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, tp_sub(s0, tp_mul(q, s1))
        t0, t1 = t1, tp_sub(t0, tp_mul(q, t1))
    return r0, s0, t0


def tp_derivative(p: list) -> list:
    return tp_trim([p[k] * k for k in range(1, len(p))])


def tp_eval(p: list, x):
    if not p:
        return x * 0
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def tp_compose(p: list, q: list) -> list:
    """p(q(t)) by Horner."""
    if not p:
        return []
    acc = [p[-1]]
    for c in reversed(p[:-1]):
        acc = tp_add(tp_mul(acc, q), [c])
    return acc


def tp_resultant(f: list, g: list):
    """Resultant of two univariate polynomials over a field (exact)."""
    f, g = tp_trim(f), tp_trim(g)
    if not f or not g:
        return (f or g or [0])[0] * 0 if (f or g) else 0
    one = f[-1] * 0 + 1
    res = one
    a, b = f, g
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * (b[0] ** da)
        _, r = tp_divmod(a, b)
        dr = tp_deg(r)
        if dr < 0:
            return res * 0
        sign = -1 if (da % 2 == 1 and db % 2 == 1) else 1
        res = res * (b[-1] ** (da - dr))
        if sign < 0:
            res = -res
        a, b = b, r


# =====================================================================
# Factorization over a tower
# =====================================================================
def factor_univariate(coeffs: Sequence, tower: FieldTower):
    """Full factorization of a univariate polynomial over ``tower``.

    Returns ``(unit, [(monic_irreducible_ascending_coeffs, multiplicity)])``
    with the product of unit and factor powers equal to the input.
    Factors are sorted deterministically (degree, then coefficient order).
    The squarefree part is split by ``_factor_base`` over Q or Q(i) (a
    quadratic there by an exact square root of its discriminant) and by
    the Trager norm descent over a tower of depth >= 1.  A quadratic skips
    the squarefree part: its discriminant alone tells a square from a
    squarefree polynomial.
    """
    p = tp_trim([tower.element(c) for c in coeffs])
    if not p:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    unit = p[-1]
    if tp_deg(p) == 0:
        return unit, []
    f = tp_monic(p)
    if len(f) == 3:
        # a monic quadratic is the square of t + b/2 when its discriminant
        # vanishes, and squarefree otherwise
        c, b, one = f
        if (b * b - c * 4).is_zero():
            return unit, [([b * Fraction(1, 2), one], 2)]
        out = [(h, 1) for h in _factor_squarefree(f, tower)]
    else:
        out = _factor_with_multiplicities(f, tower)
    out.sort(key=lambda fm: (tp_deg(fm[0]), [c.sort_key() for c in fm[0]]))
    return unit, out


def _factor_with_multiplicities(f: list, tower: FieldTower) -> List[tuple]:
    """(factor, multiplicity) pairs of a monic f: the factors of its
    squarefree part f / gcd(f, f'), each divided out as often as it goes."""
    radical, _ = tp_divmod(f, tp_gcd(f, tp_derivative(f)))
    out = []
    rem = f
    for h in _factor_squarefree(tp_monic(radical), tower):
        mult = 0
        while True:
            q, r = tp_divmod(rem, h)
            if tp_is_zero(r):
                rem = q
                mult += 1
            else:
                break
        if mult == 0:
            raise InternalInvariantViolation("factor does not divide its polynomial")
        out.append((h, mult))
    if tp_deg(rem) != 0:
        raise InternalInvariantViolation("factorization incomplete")
    return out


def _factor_squarefree(f: list, tower: FieldTower) -> List[list]:
    if tp_deg(f) <= 1:
        return [f] if tp_deg(f) == 1 else []
    if tower.depth == 0:
        return _factor_base(f, tower)
    return _factor_trager(f, tower)


def _factor_base(f: List[GaussianRational], tower: FieldTower) -> List[list]:
    """Factor a squarefree monic polynomial over Q(i) or Q.

    A quadratic t^2 + b*t + c splits exactly when its discriminant
    b^2 - 4c has a square root s in the base field, into t - (-b +- s)/2;
    otherwise it is irreducible.  Higher degrees go to Zassenhaus over Q,
    and over Q(i) through the Trager norm first.
    """
    gaussian = tower.base == "gaussian"
    if len(f) == 3:
        c, b, _ = f
        disc = b * b - 4 * c
        s = gaussian_sqrt(disc) if gaussian else fraction_sqrt(disc.as_fraction())
        if s is None:
            return [f]
        half = Fraction(1, 2)
        return [[(b - s) * half, ONE], [(b + s) * half, ONE]]
    return _factor_gaussian(f) if gaussian else _factor_rational(f)


def _factor_rational(f: List[GaussianRational]) -> List[list]:
    """Monic irreducible factors over Q of a squarefree monic polynomial with
    rational coefficients: Zassenhaus on its primitive integer multiple."""
    fr = [c.as_fraction() for c in f]
    den = lcm(*(c.denominator for c in fr))
    # primitive: each prime power of den divides some denominator fully
    F = [c.numerator * (den // c.denominator) for c in fr]
    return [[GaussianRational(Fraction(c, G[-1])) for c in G]
            for G in factor_squarefree(F)]


def _factor_gaussian(f: List[GaussianRational]) -> List[list]:
    """Monic irreducible factors over Q(i) of a squarefree polynomial, by the
    Trager norm: for g(t) = f(t - s*i) with N = g * conj(g) squarefree, the
    irreducible factors of g are gcd(g, h) for the factors h of N over Q."""
    n = tp_deg(f)
    # N is squarefree iff g and conj(g) are coprime; each pair of roots of
    # f and conj(f) rules out at most one shift s
    for s in range(n * n + 1):
        g = tp_compose(f, [GaussianRational(0, -s), ONE]) if s else f
        conj = [c.conjugate() for c in g]
        if tp_deg(tp_gcd(g, conj)) == 0:
            break
    else:
        raise InternalInvariantViolation("no squarefree norm shift found")
    norm = tp_mul(g, conj)
    out = []
    for h in _factor_rational(norm):
        h = tp_gcd(g, h)
        if tp_deg(h) >= 1:
            out.append(tp_compose(h, [GaussianRational(0, s), ONE]) if s else h)
    return out


def _factor_trager(f: list, tower: FieldTower) -> List[list]:
    """Trager norm descent: factor squarefree monic f over K(alpha) given
    factorization over K (= the tower one level down)."""
    alpha = tower.gen()
    n, d = tp_deg(f), tower.levels[-1].degree
    # the norm of f(t - c*alpha) is squarefree unless b + c*a = b' + c*a'
    # for roots b, b' of the conjugates of f under alpha -> a and -> a',
    # a != a': at most n^2 d(d-1)/2 shifts c = 0, 1, -1, 2, -2, ... fail
    for k in range(n * n * d * (d - 1) // 2 + 1):
        c = (k + 1) // 2 if k % 2 else -(k // 2)
        shifted = tp_compose(f, [alpha * (-c), tower.one()]) if c else f
        norm = _norm_resultant(shifted, tower)
        if tp_deg(tp_gcd(norm, tp_derivative(norm))) == 0:
            break
    else:
        raise InternalInvariantViolation("no squarefree norm shift found")
    norm_factors = _factor_squarefree(tp_monic(norm), tower.parent)
    out = []
    for nf in norm_factors:
        lifted = [tower.element(x) for x in nf]
        if c:
            lifted = tp_compose(lifted, [alpha * c, tower.one()])
        h = tp_gcd(f, lifted)
        if tp_deg(h) >= 1:
            out.append(tp_monic(h))
    total = sum(tp_deg(h) for h in out)
    if total != tp_deg(f):
        raise InternalInvariantViolation("Trager descent lost factors")
    return out


def _norm_resultant(g: list, tower: FieldTower) -> list:
    """N(t) = Res_u(m(u), G(u, t)) in K[t], where m is the top minimal
    polynomial and G is g with the top generator replaced by the variable u
    (the coordinates of g(t) are G(u, t)); computed by evaluation and
    interpolation in t."""
    m, prefix = tower.levels[-1].minpoly, tower.parent
    values = []
    for j in range(tp_deg(g) * (len(m) - 1) + 1):
        gx = tp_eval(g, tower.element(j))  # element of tower
        pu = tp_trim(list(gx.coeffs))
        values.append(prefix.element(tp_resultant(m, pu)) if pu else prefix.zero())
    return _interpolate(values, prefix)


def _interpolate(ys: list, field: FieldTower) -> list:
    """The polynomial taking the values ys at t = 0, 1, ..., len(ys) - 1
    (ascending coefficients), by Newton divided differences."""
    c = list(ys)
    n = len(c)
    for j in range(1, n):
        inv = Fraction(1, j)  # the nodes i and i - j lie j apart
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv
    acc = [c[-1]]
    for k in range(n - 2, -1, -1):
        acc = tp_add(tp_mul(acc, [field.element(-k), field.one()]), [c[k]])
    return acc


def roots_in_tower(coeffs: Sequence, tower: FieldTower):
    """Roots of a univariate polynomial that lie in ``tower``.

    Returns ``(rational_roots, irreducible_factors)`` where rational_roots is a
    list of (root FieldElement, multiplicity) and irreducible_factors is a list
    of (monic coefficients, multiplicity) for the factors of degree >= 2.
    """
    _, factors = factor_univariate(coeffs, tower)
    roots = []
    hard = []
    for h, mult in factors:
        if tp_deg(h) == 1:
            roots.append((-h[0], mult))
        else:
            hard.append((h, mult))
    return roots, hard
