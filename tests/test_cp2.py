"""Projective-plane calculus: charts, degree, tangencies, generators."""

import random
from fractions import Fraction

import pytest

from folsing import cp2
from folsing.cp2 import (
    LINE_INVARIANT,
    MAX_DIMENSION_DEGREE,
    MAX_TANGENCY_SAMPLES,
    NOT_QUASI_HOMOGENEOUS,
    NOT_RICCATI,
    DegreeReport,
    HomogeneousField3,
    affine_chart_transfer,
    affine_to_homogeneous,
    fol_space_dimension,
    foliation_degree,
    homogeneous_to_affine,
    infinity_tangent_form,
    jouanolou,
    line_at_infinity_invariant,
    quasi_homogeneous_degree,
    radial_gauge_wedge,
    riccati_recognize,
    tangency_count,
    tangency_samples,
)
from folsing.errors import (
    NonIsolatedZeros,
    RadialInput,
    RequestTooLarge,
    ZeroInput,
)
from folsing.parsing import parse_field, parse_poly
from folsing.poly import MultiPoly, VectorFieldGerm, wedge
from folsing.scalars import GaussianRational
from folsing.towers import TRIVIAL


def mono3(*exps):
    return MultiPoly.monomial(GaussianRational(1), exps)


RADIAL3 = HomogeneousField3([mono3(1, 0, 0), mono3(0, 1, 0), mono3(0, 0, 1)])


class TestHomogeneousField:
    def test_common_factor_removed(self):
        z0 = mono3(1, 0, 0)
        field = HomogeneousField3([z0 * mono3(0, 1, 0), z0 * mono3(0, 0, 1),
                                   z0 * z0])
        assert field.degree == 1
        assert field.removed_factor is not None
        assert field.removed_factor.total_degree() == 1

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ZeroInput):
            HomogeneousField3([mono3(1, 0, 0), mono3(0, 2, 0), mono3(0, 0, 1)])

    def test_inhomogeneous_rejected(self):
        bad = mono3(1, 0, 0) + mono3(2, 0, 0)
        with pytest.raises(ZeroInput):
            HomogeneousField3([bad, MultiPoly.zero(3), MultiPoly.zero(3)])

    def test_radial_detection(self):
        assert RADIAL3.is_radial_multiple()
        assert not jouanolou(1).is_radial_multiple()

    def test_canonical_strips_chart_component(self):
        h = mono3(0, 1, 0)
        z = [mono3(1, 0, 0), mono3(0, 1, 0), mono3(0, 0, 1)]
        base = jouanolou(2)
        disguised = HomogeneousField3(
            [c + h * zk for c, zk in zip(base.components, z)])
        canon = disguised.canonical()
        assert all(e[0] == 0 for e in canon.components[0].terms)
        a1 = homogeneous_to_affine(disguised, "a")
        a2 = homogeneous_to_affine(canon, "a")
        assert wedge(a1, a2).is_zero()


class TestChartFormula:
    def test_affine_model_degree_two(self):
        aff = homogeneous_to_affine(jouanolou(2), "a")
        assert aff.components[0] == parse_poly("y^2 - x^3")
        assert aff.components[1] == parse_poly("1 - y*x^2")

    def test_radial_projects_to_zero(self):
        with pytest.raises(RadialInput):
            homogeneous_to_affine(RADIAL3, "a")

    def test_constant_chart_field(self):
        field = HomogeneousField3(
            [MultiPoly.zero(3), mono3(2, 0, 0), MultiPoly.zero(3)])
        aff = homogeneous_to_affine(field, "a")
        assert aff.components[0] == parse_poly("1")
        assert aff.components[1].is_zero()

    def test_round_trip(self):
        field = parse_field("(x^2 + y)*ddx + (x - y^2)*ddy")
        back = homogeneous_to_affine(affine_to_homogeneous(field, "a"), "a")
        assert back.components[0] == field.components[0]
        assert back.components[1] == field.components[1]

    def test_gauge_invariance(self):
        g = mono3(0, 1, 0)
        assert radial_gauge_wedge(jouanolou(2), g).is_zero()


class TestDegree:
    def test_radial_is_degree_zero(self):
        report = foliation_degree(parse_field("x*ddx + y*ddy"))
        assert report.degree == 0
        assert report.affine_degree == 1
        assert report.top_part_radial

    def test_distinct_linear(self):
        report = foliation_degree(parse_field("x*ddx + 2*y*ddy"))
        assert report.degree == 1
        assert not report.top_part_radial

    def test_affine_models(self):
        for n in (1, 2):
            aff = homogeneous_to_affine(jouanolou(n), "a")
            report = foliation_degree(aff)
            assert report.degree == n
            assert report.top_part_radial
            assert report.affine_degree == n + 1

    def test_non_isolated(self):
        with pytest.raises(NonIsolatedZeros):
            foliation_degree(parse_field("x*y*ddx + y^2*ddy"))

    def test_zero_field(self):
        with pytest.raises(ZeroInput):
            foliation_degree(VectorFieldGerm([MultiPoly.zero(2), MultiPoly.zero(2)]))

    def test_chart_transfer_reduces(self):
        aff = homogeneous_to_affine(jouanolou(2), "a")
        other = affine_chart_transfer(aff, "a", "c")
        report = foliation_degree(other, "c")
        assert report.degree == 2

    def test_random_chart_independence(self):
        rng = random.Random(7)
        done = 0
        while done < 8:
            comps = []
            for _ in range(2):
                terms = {}
                for _ in range(4):
                    e = (rng.randint(0, 2), rng.randint(0, 2))
                    terms[e] = GaussianRational(
                        Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1)))
                comps.append(MultiPoly(2, terms))
            field = VectorFieldGerm(comps)
            try:
                foliation_degree(field)
            except (NonIsolatedZeros, ZeroInput):
                continue
            done += 1

    def test_report_json(self):
        js = foliation_degree(parse_field("x*ddx + y*ddy")).to_json()
        assert js == {"degree": 0, "top_part_radial": True,
                      "affine_degree": 1, "chart": "a"}


class TestInfinity:
    def test_saddle_invariant(self):
        assert line_at_infinity_invariant(parse_field("x*ddx - y*ddy"))

    def test_radial_not_invariant(self):
        assert not line_at_infinity_invariant(parse_field("x*ddx + y*ddy"))

    def test_degree_two_model_not_invariant(self):
        aff = homogeneous_to_affine(jouanolou(2), "a")
        assert not line_at_infinity_invariant(aff)

    def test_tangent_form(self):
        form = infinity_tangent_form(parse_field("x*ddx - y*ddy"))
        assert form == parse_poly("-2*x*y")


class TestTangency:
    def test_saddle_slope_one(self):
        assert tangency_count(parse_field("x*ddx - y*ddy"), 1) == 1

    def test_radial_line_invariant(self):
        result = tangency_count(parse_field("x*ddx + y*ddy"), Fraction(3, 2))
        assert result is LINE_INVARIANT
        assert not result

    def test_degree_two_model(self):
        aff = homogeneous_to_affine(jouanolou(2), "a")
        assert tangency_count(aff, 3) == 2
        assert tangency_count(aff, Fraction(-5, 7)) == 2

    def test_samples_match_degree(self):
        aff = homogeneous_to_affine(jouanolou(2), "a")
        out = tangency_samples(aff, count=5, seed=11)
        assert out["degree"] == 2
        assert out["bad"] == []
        assert [s["count"] for s in out["samples"]] == [2] * 5

    def test_sample_cap_is_the_number_of_distinct_slopes(self):
        slopes = {Fraction(n, d) for n in cp2._SLOPE_NUMERATORS
                  for d in cp2._SLOPE_DENOMINATORS}
        assert MAX_TANGENCY_SAMPLES == len(slopes) == 601
        out = tangency_samples(parse_field("x*ddx - y*ddy"),
                               count=MAX_TANGENCY_SAMPLES)
        assert {Fraction(s["slope"]) for s in out["samples"]} == slopes

    def test_count_above_the_cap_is_refused(self):
        with pytest.raises(RequestTooLarge) as info:
            tangency_samples(parse_field("x*ddx - y*ddy"),
                             count=MAX_TANGENCY_SAMPLES + 1)
        assert info.value.payload == {"count": 602, "limit": 601}


class TestDimension:
    def test_small_values(self):
        assert fol_space_dimension(0) == 2
        assert fol_space_dimension(1) == 7
        assert fol_space_dimension(2) == 14
        assert fol_space_dimension(3) == 23
        assert fol_space_dimension(4) == 34

    def test_negative_rejected(self):
        with pytest.raises(ZeroInput):
            fol_space_dimension(-1)

    def test_degree_cap(self):
        d = MAX_DIMENSION_DEGREE
        assert fol_space_dimension(d) == (d + 1) * (d + 3) - 1
        for degree in (d + 1, 10 ** 40):
            with pytest.raises(RequestTooLarge) as info:
                fol_space_dimension(degree)
            assert info.value.payload == {"degree": degree, "limit": d}


class TestQuasiHomogeneous:
    def test_polynomial(self):
        p = parse_poly("x*z + y^2")
        assert quasi_homogeneous_degree(p, (1, 2, 3)) == 4

    def test_plain_homogeneous(self):
        p = parse_poly("x^3 + x*y^2 - y^3")
        assert quasi_homogeneous_degree(p, (1, 1)) == 3

    def test_field(self):
        f = parse_field(
            "(x*z + y^2)*ddx + (2*z*y + 3*x^5)*ddy + (x^3*z - y^3 + 2*z^2)*ddz")
        assert quasi_homogeneous_degree(f, (1, 2, 3)) == 4

    def test_failure_is_falsy(self):
        p = parse_poly("x + y^2")
        result = quasi_homogeneous_degree(p, (1, 1))
        assert result is NOT_QUASI_HOMOGENEOUS
        assert not result


class TestRiccati:
    def test_shape_match(self):
        data = riccati_recognize(parse_field("(x^2 - x)*ddx + (y^2 + x*y + 1)*ddy"))
        assert data
        roots = sorted(str(f.root) for f in data.fibers)
        assert roots == ["0", "1"]
        assert data.a == parse_poly("1")
        assert data.b == parse_poly("x")
        assert data.c == parse_poly("1")

    def test_cubic_rejected(self):
        assert riccati_recognize(parse_field("1*ddx + y^3*ddy")) is NOT_RICCATI

    def test_base_depending_on_y_rejected(self):
        assert riccati_recognize(parse_field("y*ddx + y^2*ddy")) is NOT_RICCATI

    def test_constant_base_boundary(self):
        data = riccati_recognize(parse_field("1*ddx + y^2*ddy"))
        assert data.no_affine_fibers
        assert data.fibers == []

    def test_irrational_fiber(self):
        data = riccati_recognize(parse_field("(x^2 - 2)*ddx + y^2*ddy"))
        assert len(data.fibers) == 1
        fiber = data.fibers[0]
        assert fiber.degree == 2
        assert fiber.multiplicity == 1

    def test_multiple_fiber(self):
        data = riccati_recognize(parse_field("x^2*ddx + (y^2 + 1)*ddy"))
        assert len(data.fibers) == 1
        assert data.fibers[0].multiplicity == 2

    def test_fibers_over_the_coefficient_tower(self):
        # (x^2 - r2*x)*ddx + (y^2 + 1)*ddy with r2^2 = 2: the base factors
        # over Q(r2), not over Q(i), so its fibers live in that tower
        tower, r2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        field = VectorFieldGerm([x * x - x.scale(r2), y * y + 1])
        data = riccati_recognize(field)
        assert data
        assert [(f.degree, f.multiplicity) for f in data.fibers] == [(1, 1), (1, 1)]
        roots = {f.root for f in data.fibers}
        assert roots == {tower.zero(), r2}
        assert all(f.root.tower is tower for f in data.fibers)
