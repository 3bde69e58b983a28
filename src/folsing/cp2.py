"""Global calculus for polynomial line fields on the projective plane.

A planar polynomial vector field compactifies to a singular line field on the
projective plane; conversely a homogeneous three-component field on C^3 with
codimension-two zero set projects to one.  This module converts between the two
presentations, computes the projective degree (with its chart-independence
cross-check), tests invariance of the line at infinity, counts tangencies with
lines through the origin, evaluates the dimension of the space of such line
fields both by formula and by honest coefficient counting, and recognizes the
classical generator families (the degree-n fields with no invariant algebraic
curve, and fields fibering as a quadratic-in-y equation over the x-line).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (
    InternalInvariantViolation,
    NonIsolatedZeros,
    RadialInput,
    RequestTooLarge,
    VariableCountMismatch,
    ZeroInput,
)
from .local import gcd_xy, line_slice
from .poly import (
    MultiPoly,
    VectorFieldGerm,
    coefficient_tower,
    compose,
    exponents,
    render_poly,
    wedge,
)
from .scalars import ONE, ZERO, GaussianRational, row_reduce

CHARTS = ("a", "b", "c")
_CHART_INDEX = {"a": 0, "b": 1, "c": 2}


class _Sentinel:
    """Distinguished return value (not an error); falsy on purpose."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __bool__(self) -> bool:
        return False


LINE_INVARIANT = _Sentinel("LineInvariant")
NOT_QUASI_HOMOGENEOUS = _Sentinel("NotQuasiHomogeneous")
NOT_RICCATI = _Sentinel("NotRiccati")


# --------------------------------------------------------------------------
# homogeneous three-component fields
# --------------------------------------------------------------------------
class HomogeneousField3:
    """Homogeneous field H0*d/dz0 + H1*d/dz1 + H2*d/dz2 of a common degree.

    The zero set must have codimension two: any common polynomial factor of
    the components is divided out on construction and recorded in
    ``removed_factor``.  Two fields differing by a multiple of the radial
    field z0*d/dz0 + z1*d/dz1 + z2*d/dz2 induce the same line field on the
    projective plane; ``canonical`` picks the representative whose first
    component has no monomial divisible by z0.
    """

    __slots__ = ("components", "degree", "removed_factor")

    def __init__(self, components: Sequence[MultiPoly]):
        comps = tuple(components)
        if len(comps) != 3:
            raise VariableCountMismatch("expected exactly three components")
        for h in comps:
            if h.nvars != 3:
                raise VariableCountMismatch(
                    "components must be polynomials in three variables")
        if all(h.is_zero() for h in comps):
            raise ZeroInput("zero homogeneous field")
        degree = None
        for h in comps:
            if h.is_zero():
                continue
            d = h.total_degree()
            if h.order_at_origin() != d:
                raise WrongShapeError(h)
            if degree is None:
                degree = d
            elif degree != d:
                raise WrongShapeError(h)
        common = _homogeneous_gcd3(comps)
        if common is not None:
            comps = tuple(h.divide_exact(common) for h in comps)
            degree -= common.total_degree()
        self.components = comps
        self.degree = degree
        self.removed_factor = common

    def is_radial_multiple(self) -> bool:
        z = [MultiPoly.variable(k, 3) for k in range(3)]
        h = self.components
        return (
            (h[0] * z[1] - h[1] * z[0]).is_zero()
            and (h[0] * z[2] - h[2] * z[0]).is_zero()
            and (h[1] * z[2] - h[2] * z[1]).is_zero())

    def canonical(self) -> "HomogeneousField3":
        """Representative with the z0-divisible part of H0 removed."""
        h0 = self.components[0]
        divisible = MultiPoly(3, {e: c for e, c in h0.terms.items() if e[0] > 0})
        if divisible.is_zero():
            return self
        quotient = divisible.divide_by_var_power(0, 1)
        z = [MultiPoly.variable(k, 3) for k in range(3)]
        comps = tuple(h - quotient * z[k] for k, h in enumerate(self.components))
        return HomogeneousField3(comps)

    def to_json(self) -> dict:
        names = ("z0", "z1", "z2")
        return {
            "degree": self.degree,
            "components": [render_poly(h, names) for h in self.components],
            "removed_factor": (
                None if self.removed_factor is None
                else render_poly(self.removed_factor, names)),
        }

    def __repr__(self) -> str:
        names = ("z0", "z1", "z2")
        return "HomogeneousField3(%s)" % ", ".join(
            render_poly(h, names) for h in self.components)


class WrongShapeError(ZeroInput):
    """Component not homogeneous, or degrees disagree."""

    code = "not-homogeneous"

    def __init__(self, offender: MultiPoly):
        super().__init__(
            "components must be homogeneous of a common degree",
            offender=str(offender))


def _dehomogenize(h: MultiPoly, var: int) -> MultiPoly:
    """Set variable ``var`` of a homogeneous ``h`` to 1, mapping the rest
    in order to the two variables of a planar polynomial.  Homogeneity
    makes the map injective on monomials, so no coefficients combine."""
    a, b = [k for k in range(3) if k != var]
    return MultiPoly(2, {(e[a], e[b]): c for e, c in h.terms.items()})


def _homogenize(p: MultiPoly, var: int, degree: int) -> MultiPoly:
    """Inverse of :func:`_dehomogenize` at the given total degree."""
    if p.total_degree() > degree:
        raise ZeroInput("degree too small to homogenize")
    rest = [k for k in range(3) if k != var]
    terms = {}
    for e, c in p.terms.items():
        exps = [0, 0, 0]
        exps[rest[0]] = e[0]
        exps[rest[1]] = e[1]
        exps[var] = degree - e[0] - e[1]
        terms[tuple(exps)] = c
    return MultiPoly(3, terms)


def _homogeneous_gcd3(comps: Sequence[MultiPoly]) -> Optional[MultiPoly]:
    """Nontrivial common factor of homogeneous trivariate components, if any.

    For homogeneous inputs the gcd splits as z0^v times the homogenization of
    the gcd of the z0 = 1 slices, so the bivariate routine does all the work.
    """
    nonzero = [h for h in comps if not h.is_zero()]
    v = min(h.order_in(0) for h in nonzero)
    g2: Optional[MultiPoly] = None
    for h in nonzero:
        slice2 = _dehomogenize(h, 0)
        g2 = slice2 if g2 is None else gcd_xy(g2, slice2)
        if g2.total_degree() == 0 and v == 0:
            return None
    if g2.total_degree() == 0:
        g3 = MultiPoly.constant(GaussianRational(1), 3)
    else:
        g3 = _homogenize(g2, 0, g2.total_degree())
    if v > 0:
        g3 = g3 * MultiPoly.monomial(GaussianRational(1), (v, 0, 0))
    if g3.total_degree() == 0:
        return None
    return g3


# --------------------------------------------------------------------------
# chart conversions
# --------------------------------------------------------------------------
def homogeneous_to_affine(field: HomogeneousField3, chart: str = "a") -> VectorFieldGerm:
    """Induced planar field in one of the three standard charts.

    Chart ``a`` sets z0 = 1 with coordinates (z1, z2); charts ``b`` and ``c``
    set z1 = 1 and z2 = 1.  A multiple of the radial field projects to the
    zero planar field and is rejected.
    """
    i = _chart_index(chart)
    if field.is_radial_multiple():
        raise RadialInput("field is a multiple of the radial field")
    rest = [k for k in range(3) if k != i]
    xv = MultiPoly.variable(0, 2)
    yv = MultiPoly.variable(1, 2)
    h = [_dehomogenize(c, i) for c in field.components]
    p = h[rest[0]] - xv * h[i]
    q = h[rest[1]] - yv * h[i]
    if p.is_zero() and q.is_zero():
        raise RadialInput("field projects to zero in chart %s" % chart)
    return VectorFieldGerm([p, q])


def _planar(field: VectorFieldGerm) -> Tuple[MultiPoly, MultiPoly]:
    """The two components of a planar field: the one place where a field in
    any other number of variables is refused."""
    if field.nvars != 2:
        raise VariableCountMismatch("expected a planar field")
    return field.components


def affine_to_homogeneous(field: VectorFieldGerm, chart: str = "a") -> HomogeneousField3:
    """Homogeneous representative with vanishing chart component."""
    i = _chart_index(chart)
    p, q = _planar(field)
    if p.is_zero() and q.is_zero():
        raise ZeroInput("zero field")
    m = max(p.total_degree(), q.total_degree())
    rest = [k for k in range(3) if k != i]
    comps = [MultiPoly.zero(3), MultiPoly.zero(3), MultiPoly.zero(3)]
    for target, poly in zip(rest, (p, q)):
        comps[target] = _homogenize(poly, i, m)
    return HomogeneousField3(comps)


def affine_chart_transfer(field: VectorFieldGerm, source: str, target: str) -> VectorFieldGerm:
    """Same line field written in another chart, with common factors removed.

    The transfer factors through the homogeneous representative; the raw
    result can pick up a spurious polynomial factor (the pulled-back line at
    infinity of the source chart), which is divided out so the result again
    has isolated zeros.
    """
    if source == target:
        return field
    transferred = homogeneous_to_affine(affine_to_homogeneous(field, source), target)
    p, q = transferred.components
    g = gcd_xy(p, q)
    if g.total_degree() > 0:
        p = p.divide_exact(g)
        q = q.divide_exact(g)
    return VectorFieldGerm([p, q])


def _chart_index(chart: str) -> int:
    if chart not in _CHART_INDEX:
        raise ZeroInput("unknown chart %r (expected one of a, b, c)" % (chart,))
    return _CHART_INDEX[chart]


# --------------------------------------------------------------------------
# degree and the line at infinity
# --------------------------------------------------------------------------
class DegreeReport:
    """Projective degree of the compactified planar field."""

    __slots__ = ("affine_degree", "top_part_radial", "degree", "chart")

    def __init__(self, affine_degree: int, top_part_radial: bool, degree: int, chart: str):
        self.affine_degree = affine_degree
        self.top_part_radial = top_part_radial
        self.degree = degree
        self.chart = chart

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "top_part_radial": self.top_part_radial,
            "affine_degree": self.affine_degree,
            "chart": self.chart,
        }

    def __repr__(self) -> str:
        return "DegreeReport(degree=%d, affine_degree=%d, top_part_radial=%s)" % (
            self.degree, self.affine_degree, self.top_part_radial)


def _top_part_radial(field: VectorFieldGerm) -> Tuple[int, bool, MultiPoly]:
    """Affine degree, radiality of the top part, and the infinity binary form.

    The binary form is x*Q_d - y*P_d; it vanishes identically exactly when
    the top-degree part is a polynomial multiple of the radial field.
    """
    p, q = _planar(field)
    d = max(p.total_degree(), q.total_degree())
    pd = p.homogeneous_component(d)
    qd = q.homogeneous_component(d)
    xv = MultiPoly.variable(0, 2)
    yv = MultiPoly.variable(1, 2)
    form = xv * qd - yv * pd
    return d, form.is_zero(), form


def foliation_degree(field: VectorFieldGerm, chart: str = "a",
                     cross_check: bool = True) -> DegreeReport:
    """Projective degree: affine degree, minus one when the top part is radial.

    With ``cross_check`` the degree is recomputed after transferring to a
    different chart and the two answers are required to agree.
    """
    p, q = _planar(field)
    if p.is_zero() and q.is_zero():
        raise ZeroInput("zero field")
    g = gcd_xy(p, q)
    if g.total_degree() > 0:
        raise NonIsolatedZeros(
            "components share the factor %s" % g, factor=str(g))
    d_aff, radial, _ = _top_part_radial(field)
    degree = d_aff - 1 if radial else d_aff
    report = DegreeReport(d_aff, radial, degree, chart)
    if cross_check:
        other = "b" if chart != "b" else "c"
        transferred = affine_chart_transfer(field, chart, other)
        second = foliation_degree(transferred, other, cross_check=False)
        if second.degree != report.degree:
            raise InternalInvariantViolation(
                "degree disagrees between charts",
                first=report.degree, second=second.degree)
    return report


def line_at_infinity_invariant(field: VectorFieldGerm) -> bool:
    """The line at infinity of the chart is invariant iff the top part is not radial."""
    _, radial, _ = _top_part_radial(field)
    return not radial


def infinity_tangent_form(field: VectorFieldGerm) -> MultiPoly:
    """Binary form x*Q_d - y*P_d cutting out the singular directions at infinity."""
    return _top_part_radial(field)[2]


def tangency_count(field: VectorFieldGerm, lam) -> Union[int, _Sentinel]:
    """Number of tangencies (with multiplicity) with the line y = lam*x.

    Computed as the degree of lam*P(x, lam*x) - Q(x, lam*x); the sentinel
    ``LINE_INVARIANT`` is returned when that polynomial vanishes identically.
    """
    p, q = _planar(field)
    xv = MultiPoly.variable(0, 1)
    sub = [xv, xv.scale(lam)]
    p_sub, q_sub = compose([p, q], sub)
    t = p_sub.scale(lam) - q_sub
    if t.is_zero():
        return LINE_INVARIANT
    return t.total_degree()


# Sampled slopes are n/d with n and d drawn from these ranges.  Each value
# is one coprime pair (n, d), so there are MAX_TANGENCY_SAMPLES distinct
# slopes (601), and a larger --count could never be met.
_SLOPE_NUMERATORS = range(-40, 41)
_SLOPE_DENOMINATORS = range(1, 13)
MAX_TANGENCY_SAMPLES = sum(gcd(n, d) == 1 for n in _SLOPE_NUMERATORS
                           for d in _SLOPE_DENOMINATORS)


def tangency_samples(field: VectorFieldGerm, count: int = 5, seed: int = 0) -> dict:
    """Tangency counts for pseudorandom rational slopes, with the bad set.

    A slope is bad when its tangency count differs from the projective degree
    (the generic value); bad slopes are reported, not silently skipped.  A
    ``count`` above ``MAX_TANGENCY_SAMPLES``, the number of distinct slopes
    the sampler draws from, is refused before any is drawn.
    """
    if count > MAX_TANGENCY_SAMPLES:
        raise RequestTooLarge("more slopes asked for than the sampler has",
                              count=count, limit=MAX_TANGENCY_SAMPLES)
    report = foliation_degree(field, cross_check=False)
    rng = random.Random(seed)
    samples = []
    bad = []
    seen = set()
    while len(samples) < count:
        lam = Fraction(
            rng.randint(_SLOPE_NUMERATORS[0], _SLOPE_NUMERATORS[-1]),
            rng.randint(_SLOPE_DENOMINATORS[0], _SLOPE_DENOMINATORS[-1]))
        if lam in seen:
            continue
        seen.add(lam)
        t = tangency_count(field, lam)
        entry = {"slope": str(lam),
                 "count": (None if t is LINE_INVARIANT else t)}
        samples.append(entry)
        if t is LINE_INVARIANT or t != report.degree:
            bad.append(entry)
    return {"degree": report.degree, "samples": samples, "bad": bad}


# --------------------------------------------------------------------------
# dimension of the space of degree-d line fields
# --------------------------------------------------------------------------
# The highest degree whose count is cross-checked.  The dense row reduction
# grows about as d^4: 0.16 s at d = 20, 0.47 s at 25, 1.06 s at 30.
MAX_DIMENSION_DEGREE = 30


def fol_space_dimension(d: int) -> int:
    """Dimension of the projective space of degree-d line fields.

    The closed formula (d+1)(d+3) - 1 is cross-checked against an honest
    count: coefficients of homogeneous degree-d three-component fields,
    minus the rank of the map g -> g * (radial field) on degree-(d-1)
    multipliers, minus one for projectivization.  A degree above
    ``MAX_DIMENSION_DEGREE`` is refused before the count is set up.
    """
    if d < 0:
        raise ZeroInput("degree must be nonnegative")
    if d > MAX_DIMENSION_DEGREE:
        raise RequestTooLarge("degree above the cap of the dimension count",
                              degree=d, limit=MAX_DIMENSION_DEGREE)
    formula = (d + 1) * (d + 3) - 1
    cols = {}
    for i in range(3):
        for mono in exponents(3, d):
            cols[(i, mono)] = len(cols)
    rows = []
    for mono in exponents(3, d - 1) if d >= 1 else []:
        row = [ZERO] * len(cols)
        for i in range(3):
            shifted = list(mono)
            shifted[i] += 1
            row[cols[(i, tuple(shifted))]] = ONE
        rows.append(row)
    counted = len(cols) - len(row_reduce(rows)[1]) - 1
    if counted != formula:
        raise InternalInvariantViolation(
            "dimension count mismatch", formula=formula, counted=counted)
    return formula


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------
def jouanolou(n: int) -> HomogeneousField3:
    """Degree-n field with no invariant algebraic curve: (z1^n, z2^n, z0^n).

    In chart ``a`` it reads (y^n - x^(n+1), 1 - y*x^n).
    """
    if n < 1:
        raise ZeroInput("order must be at least 1")
    one = GaussianRational(1)
    return HomogeneousField3([
        MultiPoly.monomial(one, (0, n, 0)),
        MultiPoly.monomial(one, (0, 0, n)),
        MultiPoly.monomial(one, (n, 0, 0)),
    ])


def quasi_homogeneous_degree(obj, weights: Sequence[int]):
    """Weighted degree under x_i -> t^(w_i) x_i, when one exists.

    For a polynomial every monomial must have the same weighted degree d; for
    a vector field each monomial of component i must satisfy weighted degree
    = d - 1 + w_i (so the rescaled field is t^(d-1) times itself).
    """
    weights = list(weights)
    if any(w <= 0 for w in weights):
        raise ZeroInput("weights must be positive")
    if isinstance(obj, VectorFieldGerm):
        if obj.nvars != len(weights):
            raise VariableCountMismatch("weight count must match variables")
        degrees = set()
        for i, comp in enumerate(obj.components):
            for e in comp.terms:
                degrees.add(sum(k * w for k, w in zip(e, weights)) - weights[i] + 1)
        if len(degrees) != 1:
            return NOT_QUASI_HOMOGENEOUS
        return degrees.pop()
    if obj.nvars != len(weights):
        raise VariableCountMismatch("weight count must match variables")
    degrees = {sum(k * w for k, w in zip(e, weights)) for e in obj.terms}
    if len(degrees) != 1:
        return NOT_QUASI_HOMOGENEOUS
    return degrees.pop()


class RiccatiFiber:
    """Vertical invariant line x = root (a zero of the base coefficient)."""

    __slots__ = ("minpoly", "root", "multiplicity", "degree")

    def __init__(self, minpoly: List, root, multiplicity: int):
        self.minpoly = minpoly
        self.root = root
        self.multiplicity = multiplicity
        self.degree = len(minpoly) - 1

    def to_json(self) -> dict:
        from .poly import scalar_to_json

        return {
            "minpoly": [scalar_to_json(c) for c in self.minpoly],
            "root": None if self.root is None else str(self.root),
            "multiplicity": self.multiplicity,
            "degree": self.degree,
        }


class RiccatiData:
    """Shape data for P(x) d/dx + (a(x) y^2 + b(x) y + c(x)) d/dy."""

    __slots__ = ("base", "a", "b", "c", "fibers", "no_affine_fibers")

    def __init__(self, base, a, b, c, fibers, no_affine_fibers):
        self.base = base
        self.a = a
        self.b = b
        self.c = c
        self.fibers = fibers
        self.no_affine_fibers = no_affine_fibers

    def to_json(self) -> dict:
        return {
            "base": render_poly(self.base),
            "quadratic": render_poly(self.a),
            "linear": render_poly(self.b),
            "constant": render_poly(self.c),
            "invariant_fibers": [f.to_json() for f in self.fibers],
            "no_affine_fibers": self.no_affine_fibers,
        }


# The highest base degree N that ``folsing gen riccati-template`` accepts.
# Its recognition factors the base x^N - x = x (x^(N-1) - 1) over Q(i).  For
# N - 1 > 36 the cyclotomic factor Phi_(N-1) has degree above 6 over Q(i)
# (phi(N-1) > 6, or phi(N-1) / 2 > 6 when 4 divides N - 1), past the default
# extension-degree cap, so every larger N ends in extension-degree-exceeded,
# and the factoring grows fast: 0.17 s at N = 37 and at most 0.6 s below
# it, 1.8 s at 40, 46 s at 64 and over 60 s at 100.
MAX_RICCATI_BASE_DEGREE = 37


def riccati_recognize(field: VectorFieldGerm):
    """Match P(x) d/dx + (a(x) y^2 + b(x) y + c(x)) d/dy, or NOT_RICCATI.

    The zero set of P consists of invariant vertical lines; their positions
    are reported as roots over an extension tower when not rational.  A
    constant nonzero P has no affine invariant fiber (flagged, since the
    compactified picture puts the interesting fiber at infinity).
    """
    p, q = _planar(field)
    if p.is_zero() and q.is_zero():
        raise ZeroInput("zero field")
    if p.degree_in(1) > 0:
        return NOT_RICCATI
    if q.degree_in(1) > 2:
        return NOT_RICCATI
    if p.is_zero():
        return NOT_RICCATI
    slices = q.coeffs_in(1)
    a = slices.get(2, MultiPoly.zero(2))
    b = slices.get(1, MultiPoly.zero(2))
    c = slices.get(0, MultiPoly.zero(2))
    fibers = _base_fibers(p)
    return RiccatiData(p, a, b, c, fibers, no_affine_fibers=not fibers)


def _base_fibers(p: MultiPoly) -> List[RiccatiFiber]:
    from .towers import factor_univariate

    tower = coefficient_tower(p)
    _, factors = factor_univariate(line_slice(p, 1, 0, tower), tower)
    out = []
    for fac, mult in factors:
        if len(fac) == 2:
            out.append(RiccatiFiber(list(fac), -fac[0] / fac[1], mult))
        else:
            _, root = tower.adjoin_root(list(fac))
            out.append(RiccatiFiber(list(fac), root, mult))
    return out


# --------------------------------------------------------------------------
# consistency helper used by tests: gauge invariance of the induced field
# --------------------------------------------------------------------------
def radial_gauge_wedge(field: HomogeneousField3, multiplier: MultiPoly) -> MultiPoly:
    """Wedge of the chart-a fields induced by Z and Z + g*(radial).

    Always zero: adding a radial multiple does not change the line field.
    The multiplier must be homogeneous of degree (deg Z) - 1.
    """
    z = [MultiPoly.variable(k, 3) for k in range(3)]
    shifted = HomogeneousField3(
        [h + multiplier * z[k] for k, h in enumerate(field.components)])
    x1 = homogeneous_to_affine(field, "a")
    x2 = homogeneous_to_affine(shifted, "a")
    return wedge(x1, x2)
