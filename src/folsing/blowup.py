"""Quadratic blow-up of a plane foliation germ at the origin.

The canonical operation acts on 1-forms.  Writing w = A dx + B dy with
algebraic order k = min(ord A, ord B):

* chart 1 uses coordinates (x, t) with center map (x, t) -> (x, t*x); the
  pulled-back form is [A(x,tx) + t B(x,tx)] dx + x B(x,tx) dt and is divided
  exactly by x^k (non-dicritical) or x^(k+1) (dicritical);
* chart 2 uses (s, y) with (s, y) -> (s*y, y); the pullback is
  y A(sy,y) ds + [s A(sy,y) + B(sy,y)] dy, divided by y^k or y^(k+1).

Both chart maps are monomial, so the pull-back is exponent arithmetic:
chart 1 sends x^i y^j to x^(i+j) t^j and chart 2 sends it to s^i y^(i+j).
One pass over the terms of A and B builds both new coefficients, the
summands of each are added, and the sums are divided by the exceptional
power.

The tangent cone of the dual field X = B d/dx - A d/dy with homogeneous
lowest parts F_k, G_k is Phi = x G_k - y F_k (degree k+1); Phi == 0 is the
dicritical case, where the exceptional line is not invariant and the extra
division applies.  ``divisor_children`` reads one cone for both charts.
Singular points of the transformed foliation on the exceptional line are
extracted exactly over the coefficient tower, keeping conjugate (Galois)
clusters together as one point with a multiplicity; each one becomes the
origin of its local form by ``poly.shift``, the binomial theorem.

``wedge_certificate`` composes the original field with the chart map
through the general ``poly.compose`` on purpose: it checks the exponent-map
pull-back by an independent route.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import (
    InternalInvariantViolation,
    NotSingular,
    VariableCountMismatch,
    WrongClass,
    ZeroInput,
)
from .local import line_slice
from .poly import (
    MultiPoly,
    OneFormGerm,
    VectorFieldGerm,
    _trusted,
    coefficient_tower,
    compose,
    dualize,
    lift_poly,
    shift,
)
from .towers import (
    TRIVIAL,
    FieldTower,
    factor_univariate,
    tp_deg,
    tp_gcd,
)

CHART_NAMES = {1: ("x", "t"), 2: ("s", "y")}


class ChartTransform:
    """Metadata attached to one blown-up chart."""

    __slots__ = ("chart", "division_power", "dicritical", "order")

    def __init__(self, chart: int, division_power: int, dicritical: bool, order: int):
        self.chart = chart
        self.division_power = division_power
        self.dicritical = dicritical
        self.order = order

    def to_json(self):
        return {
            "chart": self.chart,
            "variables": list(CHART_NAMES[self.chart]),
            "division_power": self.division_power,
            "dicritical": self.dicritical,
            "order": self.order,
        }


class TangentCone:
    """Lowest-order binary form of a singular plane germ."""

    __slots__ = ("order", "phi", "dicritical")

    def __init__(self, order: int, phi: MultiPoly, dicritical: bool):
        self.order = order
        self.phi = phi
        self.dicritical = dicritical


def tangent_cone(obj) -> TangentCone:
    """Phi = x G_k - y F_k for the dual field (F, G) of order k."""
    field = dualize(obj) if isinstance(obj, OneFormGerm) else obj
    if not isinstance(field, VectorFieldGerm):
        raise WrongClass("expected a planar vector field or 1-form")
    if field.nvars != 2:
        raise VariableCountMismatch("tangent cone is planar (2 variables)",
                                    nvars=field.nvars)
    if field.is_zero():
        raise ZeroInput("zero germ has no tangent cone")
    k = field.order_at_origin()
    if k == 0:
        raise NotSingular("germ is regular at the origin")
    fk = field.components[0].homogeneous_component(k)
    gk = field.components[1].homogeneous_component(k)
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    phi = x * gk - y * fk
    return TangentCone(k, phi, phi.is_zero())


def blow_up_form(form: OneFormGerm, chart: int,
                 dicritical: Optional[bool] = None) -> Tuple[OneFormGerm, ChartTransform]:
    """Pull back the form through one blow-up chart and divide out the
    exceptional power.

    The chart is an exponent map on the terms of A and B (module
    docstring); the dicritical lowest terms cancel in the sums, before the
    division.  Division exactness is asserted, so forcing
    ``dicritical=True`` on a non-dicritical form raises."""
    if chart not in (1, 2):
        raise ValueError("chart must be 1 or 2")
    cone = tangent_cone(form)
    if dicritical is None:
        dicritical = cone.dicritical
    return _chart_pullback(form, chart, cone.order, dicritical)


def _chart_pullback(form: OneFormGerm, chart: int, k: int,
                    dicritical: bool) -> Tuple[OneFormGerm, ChartTransform]:
    """``blow_up_form`` for a form of order ``k``: each chart is an exponent
    map, so one pass over the terms builds both new coefficients."""
    power = k + (1 if dicritical else 0)
    a_new: Dict[Tuple[int, int], object] = {}
    b_new: Dict[Tuple[int, int], object] = {}
    if chart == 1:
        # x^i y^j -> x^(i+j) t^j;  [A + t B] dx + x B dt
        for (i, j), c in form.a.terms.items():
            a_new[(i + j, j)] = c
        for (i, j), c in form.b.terms.items():
            _accumulate(a_new, (i + j, j + 1), c)
            b_new[(i + j + 1, j)] = c
        var = 0
    else:
        # x^i y^j -> s^i y^(i+j);  y A ds + [s A + B] dy
        for (i, j), c in form.a.terms.items():
            a_new[(i, i + j + 1)] = c
            b_new[(i + 1, i + j)] = c
        for (i, j), c in form.b.terms.items():
            _accumulate(b_new, (i, i + j), c)
        var = 1
    # the dicritical cone cancels here, before the division that needs it gone
    a_new = _trusted(2, _nonzero(a_new)).divide_by_var_power(var, power)
    b_new = _trusted(2, _nonzero(b_new)).divide_by_var_power(var, power)
    return OneFormGerm(a_new, b_new), ChartTransform(chart, power, dicritical, k)


def _accumulate(terms: dict, e: Tuple[int, int], c) -> None:
    got = terms.get(e)
    terms[e] = c if got is None else got + c


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if not c.is_zero()}


def blow_up_field(field: VectorFieldGerm, chart: int,
                  dicritical: Optional[bool] = None) -> Tuple[VectorFieldGerm, ChartTransform]:
    """Field version, routed through the canonical 1-form operation."""
    form, meta = blow_up_form(dualize(field), chart, dicritical)
    return dualize(form), meta


def pushforward_components(transformed: VectorFieldGerm, chart: int) -> VectorFieldGerm:
    """Apply the chart Jacobian to a transformed field (components stay written
    in the chart coordinates)."""
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    c1, c2 = transformed.components
    if chart == 1:
        # D(x, t x) = [[1, 0], [t, x]]
        return VectorFieldGerm([c1, y * c1 + x * c2])
    # D(s y, y) = [[y, s], [0, 1]]
    return VectorFieldGerm([y * c1 + x * c2, c2])


def composed_components(field: VectorFieldGerm, chart: int) -> VectorFieldGerm:
    """Original field composed with the chart map (no division), by
    ``compose``: the certificate's independent route."""
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    if chart == 1:
        sub = [x, y * x]
    else:
        sub = [x * y, y]
    return VectorFieldGerm(compose(field.components, sub))


def wedge_certificate(field: VectorFieldGerm, transformed: VectorFieldGerm,
                      chart: int) -> MultiPoly:
    """(D pi . transformed) wedge (field o pi); identically zero exactly when
    the transformed field spans the pulled-back line field.

    field o pi goes through ``poly.compose``, not through the exponent map
    of ``blow_up_form``, so the certificate does not share its code with
    the transform it checks."""
    from .poly import wedge

    return wedge(pushforward_components(transformed, chart),
                 composed_components(field, chart))


class ChildPoint:
    """A singular point of the transformed foliation on the exceptional line.

    Finite chart-1 points carry their t-coordinate; a cluster of conjugate
    points (irreducible minimal polynomial of degree >= 2) is kept as one
    child with that degree as its multiplicity; the direction at infinity is
    the chart-2 origin."""

    __slots__ = ("chart", "coordinate", "minpoly", "galois_multiplicity", "tower")

    def __init__(self, chart: int, coordinate=None, minpoly=None,
                 galois_multiplicity: int = 1, tower: Optional[FieldTower] = None):
        self.chart = chart
        self.coordinate = coordinate
        self.minpoly = minpoly
        self.galois_multiplicity = galois_multiplicity
        self.tower = tower

    @property
    def at_infinity(self) -> bool:
        return self.chart == 2

    def describe(self) -> dict:
        from .poly import scalar_to_json

        if self.at_infinity:
            return {"chart": 2, "coordinate": "infinity",
                    "galois_multiplicity": 1}
        out = {"chart": 1, "galois_multiplicity": self.galois_multiplicity}
        if self.minpoly is not None:
            out["minpoly"] = [scalar_to_json(c) for c in self.minpoly]
        if self.coordinate is not None:
            out["coordinate"] = scalar_to_json(self.coordinate)
        return out


def divisor_children(form: OneFormGerm, tower: Optional[FieldTower] = None
                     ) -> Tuple[List[ChildPoint], Tuple[OneFormGerm, OneFormGerm], Tuple[ChartTransform, ChartTransform]]:
    """Blow up a singular form once and locate every singular point of the
    transform on the exceptional line.

    Returns (children, (chart1 form, chart2 form), (chart1 meta, chart2 meta));
    chart 1 contributes all finite points, chart 2 only the direction at
    infinity, so nothing is counted twice.
    """
    tower = tower or coefficient_tower(form.a, form.b) or TRIVIAL
    cone = tangent_cone(form)
    f1, m1 = _chart_pullback(form, 1, cone.order, cone.dicritical)
    f2, m2 = _chart_pullback(form, 2, cone.order, cone.dicritical)
    # dual-field components restricted to the exceptional line x = 0
    a_slice = line_slice(f1.a, 0, 0, tower)
    b_slice = line_slice(f1.b, 0, 0, tower)
    if not a_slice and not b_slice:
        raise InternalInvariantViolation(
            "transformed form vanishes on the exceptional line")
    if not b_slice:
        g = a_slice
    elif not a_slice:
        g = b_slice
    else:
        g = tp_gcd(a_slice, b_slice)
    children: List[ChildPoint] = []
    if tp_deg(g) > 0:
        _, factors = factor_univariate(g, tower)
        for coeffs, _mult in factors:
            if tp_deg(coeffs) == 1:
                children.append(ChildPoint(1, coordinate=-coeffs[0], tower=tower))
            else:
                children.append(ChildPoint(
                    1, minpoly=coeffs, galois_multiplicity=tp_deg(coeffs),
                    tower=tower))
    children.sort(key=_child_sort_key)
    # the direction at infinity: chart-2 origin
    if all(p.constant_term().is_zero() for p in (f2.a, f2.b)):
        children.append(ChildPoint(2, tower=tower))
    return children, (f1, f2), (m1, m2)


def _child_sort_key(c: ChildPoint):
    if c.minpoly is None:
        return (1, c.coordinate.sort_key())
    return (c.galois_multiplicity,
            tuple(x.sort_key() for x in c.minpoly))


def child_local_form(chart_forms: Tuple[OneFormGerm, OneFormGerm],
                     child: ChildPoint) -> Tuple[OneFormGerm, FieldTower, Optional[object]]:
    """Local form at a child point, translated so the point is the origin.

    For a conjugate cluster the tower is extended by one generator (a root of
    the cluster's minimal polynomial); returns (form, tower, generator)."""
    f1, f2 = chart_forms
    if child.at_infinity:
        return f2, child.tower, None
    tower = child.tower
    gen = None
    if child.minpoly is not None:
        tower, gen = tower.adjoin_root(child.minpoly,
                                       name=f"b{tower.depth + 1}")
        t0 = gen
    else:
        t0 = child.coordinate
    a = lift_poly(f1.a, tower) if child.minpoly is not None else f1.a
    b = lift_poly(f1.b, tower) if child.minpoly is not None else f1.b
    return OneFormGerm(*shift([a, b], [0, t0])), tower, gen
