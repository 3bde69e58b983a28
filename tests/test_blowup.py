"""Blow-up charts, tangent cones, dicritical detection, wedge certificates."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from folsing.blowup import (
    blow_up_field,
    blow_up_form,
    child_local_form,
    composed_components,
    divisor_children,
    tangent_cone,
    wedge_certificate,
)
from folsing.errors import InternalInvariantViolation, NotSingular, ZeroInput
from folsing.parsing import parse_field, parse_form
from folsing.poly import (
    MultiPoly,
    OneFormGerm,
    compose,
    dualize,
    exponents,
    lift_poly,
)
from folsing.scalars import GaussianRational
from folsing.towers import TRIVIAL

X = MultiPoly.variable(0, 2)
Y = MultiPoly.variable(1, 2)


class TestTangentCone:
    def test_saddle(self):
        cone = tangent_cone(parse_field("x*ddx - y*ddy"))
        assert cone.order == 1
        assert cone.phi == (X * Y).scale(-2)
        assert not cone.dicritical

    def test_radial_dicritical(self):
        cone = tangent_cone(parse_field("x*ddx + y*ddy"))
        assert cone.order == 1
        assert cone.dicritical

    def test_cusp(self):
        cone = tangent_cone(parse_field("2*y*ddx + 3*x^2*ddy"))
        assert cone.order == 1
        assert cone.phi == (Y * Y).scale(-2)

    def test_regular_rejected(self):
        with pytest.raises(NotSingular):
            tangent_cone(parse_field("1*ddx + y*ddy"))

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            tangent_cone(parse_field("0"))


class TestChartFormulas:
    def test_chart1_saddle(self):
        # saddle form: dual of x ddx - y ddy is y dx + x dy
        w = parse_form("y*dx + x*dy")
        f1, meta = blow_up_form(w, 1)
        assert meta.division_power == 1 and not meta.dicritical
        # pullback: [tx + t x] dx + x * x dt = 2tx dx + x^2 dt; divide by x
        assert f1.a == Y.scale(2)
        assert f1.b == X

    def test_chart2_saddle(self):
        w = parse_form("y*dx + x*dy")
        f2, meta = blow_up_form(w, 2)
        # y * y ds + [s*y + s*y] dy -> divide y: y ds + 2s dy
        assert f2.a == Y
        assert f2.b == X.scale(2)

    def test_radial_divides_extra_power(self):
        w = parse_form("-y*dx + x*dy")  # dual of the radial field
        f1, meta = blow_up_form(w, 1)
        assert meta.division_power == 2 and meta.dicritical
        assert f1.a.is_zero()
        assert f1.b == MultiPoly.constant(1, 2)

    def test_division_exactness_enforced(self):
        w = parse_form("y*dx + x*dy")
        with pytest.raises(Exception):
            blow_up_form(w, 1, dicritical=True)  # forcing an extra power fails


class TestWedgeCertificate:
    def test_cusp_chart1(self):
        vf = parse_field("2*y*ddx + 3*x^2*ddy")
        t1, _ = blow_up_field(vf, 1)
        assert wedge_certificate(vf, t1, 1).is_zero()

    def test_cusp_chart2(self):
        vf = parse_field("2*y*ddx + 3*x^2*ddy")
        t2, _ = blow_up_field(vf, 2)
        assert wedge_certificate(vf, t2, 2).is_zero()

    def test_radial_both_charts(self):
        vf = parse_field("x*ddx + y*ddy")
        for chart in (1, 2):
            t, _ = blow_up_field(vf, chart)
            assert wedge_certificate(vf, t, chart).is_zero()

    def test_certificate_detects_wrong_transform(self):
        vf = parse_field("x*ddx - y*ddy")
        wrong = parse_field("x*ddx + y*ddy")
        assert not wedge_certificate(vf, wrong, 1).is_zero()

    coeffs = st.integers(min_value=-4, max_value=4)

    @given(st.lists(coeffs, min_size=12, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_random_quadratics(self, cs):
        terms = [(0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (0, 0)]
        f = MultiPoly(2, {e: c for e, c in zip(terms, cs[:6])})
        g = MultiPoly(2, {e: c for e, c in zip(terms, cs[6:])})
        f = f - MultiPoly.constant(f.constant_term(), 2)
        g = g - MultiPoly.constant(g.constant_term(), 2)
        from folsing.poly import VectorFieldGerm

        vf = VectorFieldGerm([f, g])
        if vf.is_zero():
            return
        for chart in (1, 2):
            t, _ = blow_up_field(vf, chart)
            assert wedge_certificate(vf, t, chart).is_zero()


class TestDivisorChildren:
    def test_saddle_children(self):
        w = parse_form("y*dx + x*dy")
        children, _forms, _metas = divisor_children(w)
        # Phi = -2xy: directions t=0 and t=infinity
        assert len(children) == 2
        assert children[0].chart == 1 and children[0].coordinate.is_zero()
        assert children[1].at_infinity

    def test_cusp_single_child(self):
        vf = parse_field("2*y*ddx + 3*x^2*ddy")
        children, forms, _ = divisor_children(dualize(vf))
        assert len(children) == 1
        assert children[0].chart == 1 and children[0].coordinate.is_zero()

    def test_radial_no_children(self):
        children, _, metas = divisor_children(parse_form("-y*dx + x*dy"))
        assert children == []
        assert metas[0].dicritical

    def test_galois_cluster(self):
        # node with tangent directions at roots of t^2 = 2
        vf = parse_field("x*ddx + (2*x+y)*ddy")  # placeholder shape
        # build directly: F = x^2? use a field with Phi(1,t) = t^2 - 2:
        # choose F = x^2... Phi = x*G1? order-1 linear field with eigen split
        # over Q(sqrt2): J = [[0,1],[2,0]]
        vf = parse_field("y*ddx + 2*x*ddy")
        children, _, _ = divisor_children(dualize(vf))
        finite = [c for c in children if not c.at_infinity]
        assert len(finite) == 1
        assert finite[0].galois_multiplicity == 2
        assert finite[0].minpoly is not None


SQRT2, R2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")

gaussian_coeffs = st.builds(GaussianRational,
                            st.fractions(-5, 5, max_denominator=6),
                            st.integers(-3, 3))
sqrt2_coeffs = st.builds(lambda a, b: SQRT2.element(a) + R2 * b,
                         st.fractions(-5, 5, max_denominator=6),
                         st.integers(-3, 3))


def pulled_back_by_compose(form, chart, power):
    """The chart pull-back through ``compose`` with the chart's maps, then
    divided by the exceptional power: the blow-up written as substitution."""
    if chart == 1:
        a, b = compose([form.a, form.b], [X, Y * X])
        a_new, b_new, var = a + Y * b, X * b, 0
    else:
        a, b = compose([form.a, form.b], [X * Y, Y])
        a_new, b_new, var = Y * a, X * a + b, 1
    return (a_new.divide_by_var_power(var, power),
            b_new.divide_by_var_power(var, power))


@st.composite
def singular_forms(draw):
    """(form, dicritical): a form of order k = 1..3 over Q(i) or Q(sqrt 2)
    with two degrees of higher terms.  A dicritical one has lowest parts
    y h dx - x h dy, whose tangent cone x A_k + y B_k vanishes."""
    coeffs = draw(st.sampled_from([gaussian_coeffs, sqrt2_coeffs]))
    k = draw(st.integers(1, 3))
    dicritical = draw(st.booleans())

    def homogeneous(d):
        cs = draw(st.lists(coeffs, min_size=d + 1, max_size=d + 1))
        return MultiPoly(2, dict(zip(exponents(2, d), cs)))

    if dicritical:
        h = homogeneous(k - 1)
        assume(not h.is_zero())
        a, b = Y * h, -(X * h)
    else:
        a, b = homogeneous(k), homogeneous(k)
    for d in (k + 1, k + 2):
        a, b = a + homogeneous(d), b + homogeneous(d)
    assume(not (a.is_zero() and b.is_zero()))
    return OneFormGerm(a, b), dicritical


class TestExponentMapCharts:
    @given(singular_forms())
    @settings(max_examples=60, deadline=None)
    def test_chart_pullback_matches_compose(self, case):
        form, dicritical = case
        children_forms = divisor_children(form)[1]
        for chart in (1, 2):
            got, meta = blow_up_form(form, chart)
            if dicritical:
                assert meta.dicritical
            a, b = pulled_back_by_compose(form, chart, meta.division_power)
            assert got.a.terms == a.terms and got.b.terms == b.terms
            # divisor_children's charts read one cone for both
            assert children_forms[chart - 1] == got

    @given(singular_forms())
    @settings(max_examples=30, deadline=None)
    def test_forced_dicritical_division_raises(self, case):
        form, _ = case
        if not tangent_cone(form).dicritical:
            for chart in (1, 2):
                with pytest.raises(InternalInvariantViolation):
                    blow_up_form(form, chart, dicritical=True)

    def test_child_local_form_in_a_cluster_matches_compose(self):
        # t^2 = 2 on the exceptional line: the shift is a new generator
        vf = parse_field("(y + x*y^2)*ddx + (2*x - y^3 + 1/3*x^2)*ddy")
        children, forms, _ = divisor_children(dualize(vf))
        cluster = [c for c in children if c.minpoly is not None]
        assert len(cluster) == 1
        local, tower, gen = child_local_form(forms, cluster[0])
        a, b = (lift_poly(p, tower) for p in (forms[0].a, forms[0].b))
        want = compose([a, b], [X, Y + gen])
        assert [local.a.terms, local.b.terms] == [w.terms for w in want]
