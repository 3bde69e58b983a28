"""Return-map multipliers, formal germs, invariant-function machinery."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from folsing import holonomy, normalforms
from folsing.errors import (
    DicriticalInput,
    FloatOverflow,
    IntegralDegreeExceeded,
    NonIntegerResidues,
    TruncationTooSmall,
    WrongClass,
    ZeroBaseEigenvalue,
)
from folsing.holonomy import (
    INTEGRAL_DEGREE_CAP,
    ComplexMultiplier,
    ExactMultiplier,
    GermSeries,
    construct_first_integral_homogeneous,
    germ_order,
    linear_holonomy,
    mattei_moussu_criterion,
    projective_holonomy_generators,
    render_tau,
    saddle_node_holonomy,
    verify_first_integral,
)
from folsing.local import classify_singularity
from folsing.normalforms import diagonalize_linear_part, resonant_normal_form
from folsing.parsing import parse_field, parse_form, parse_poly
from folsing.poly import MultiPoly, OneFormGerm, VectorFieldGerm, dualize
from folsing.scalars import GaussianRational
from folsing.towers import TRIVIAL


class TestExactMultiplier:
    def test_saddle_two_three(self):
        m = linear_holonomy(parse_field("2*x*ddx - 3*y*ddy"))
        assert isinstance(m, ExactMultiplier)
        assert m.exponent == Fraction(-3, 2)
        assert m.order == 2
        assert m.as_gaussian_or_none() == GaussianRational(-1, 0)

    def test_balanced_saddle_is_trivial(self):
        m = linear_holonomy(parse_field("x*ddx - y*ddy"))
        assert m.order == 1
        assert m.as_gaussian_or_none() == GaussianRational(1, 0)

    def test_quarter_turn(self):
        m = linear_holonomy((Fraction(4), Fraction(1)))
        assert m.exponent == Fraction(1, 4)
        assert m.as_gaussian_or_none() == GaussianRational(0, 1)

    def test_plain_rational_pair(self):
        # an int and a Fraction are converted where they enter
        m = linear_holonomy((1, Fraction(-1, 2)))
        assert isinstance(m, ExactMultiplier)
        assert m.exponent == Fraction(-1, 2)
        assert m.as_gaussian_or_none() == GaussianRational(-1, 0)

    def test_group_structure(self):
        a = ExactMultiplier(Fraction(1, 3))
        b = ExactMultiplier(Fraction(1, 6))
        assert (a * b).order == 2
        assert (a ** 3).order == 1
        assert a * a.inverse() == ExactMultiplier(0)

    def test_zero_base(self):
        with pytest.raises(ZeroBaseEigenvalue):
            linear_holonomy((Fraction(0), Fraction(1)))

    def test_complex_ratio(self):
        m = linear_holonomy(parse_field("x*ddx + i*y*ddy"))
        assert isinstance(m, ComplexMultiplier)
        assert m.modulus() == pytest.approx(2.718281828 ** (-2 * 3.14159265), rel=1e-6)

    def test_complex_ratio_json(self):
        m = linear_holonomy((GaussianRational(1), GaussianRational(1, 2)))
        assert m.to_json() == {"kind": "transcendental-exponent",
                               "exponent": "1+2*i",
                               "modulus": math.exp(-4 * math.pi)}

    @pytest.mark.parametrize("imag", [-200, 200])
    def test_modulus_past_the_doubles(self, imag):
        # exp(400 pi) overflows; exp(-400 pi) is a finite 0.0
        m = linear_holonomy((GaussianRational(1), GaussianRational(1, imag)))
        if imag > 0:
            assert m.to_json()["modulus"] == 0.0
        else:
            with pytest.raises(FloatOverflow) as info:
                m.to_json()
            assert info.value.code == "float-overflow"
            assert info.value.payload == {"exponent": "1-200*i"}


def tau_poly(coeffs):
    """The polynomial sum c * tau^m over the items m: c."""
    return MultiPoly(1, {(m,): c for m, c in coeffs.items()})


TAU = tau_poly({1: 1})
small_q = st.fractions(min_value=-8, max_value=8, max_denominator=4)


def _trunc_z(y, order):
    return MultiPoly(2, {e: c for e, c in y.terms.items() if e[1] <= order})


class TestSaddleNodeHolonomy:
    def test_first_deviation_is_tau(self):
        for p in (1, 2, 3):
            h = saddle_node_holonomy(p, 0, order=p + 2)
            assert h.coefficient(p + 1) == TAU
            for k in range(2, p + 1):
                assert h.coefficient(k).is_zero()

    def test_zero_modulus_geometric(self):
        h = saddle_node_holonomy(1, 0, order=6)
        for k in range(1, 7):
            assert h.coefficient(k) == tau_poly({k - 1: 1})

    def test_degree_three_with_modulus(self):
        h = saddle_node_holonomy(1, Fraction(2), order=3)
        assert h.coefficient(2) == TAU
        assert h.coefficient(3) == tau_poly({2: 1, 1: -2})

    def test_contact_two_fifth_coefficient(self):
        h = saddle_node_holonomy(2, 0, order=5)
        assert h.coefficient(4).is_zero()
        assert h.coefficient(5) == tau_poly({2: Fraction(3, 2)})

    def test_order_below_the_first_deviation(self):
        with pytest.raises(TruncationTooSmall) as info:
            saddle_node_holonomy(2, 0, order=2)
        assert info.value.payload == {"order": 2, "required": 3}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.builds(GaussianRational, small_q, small_q),
           st.integers(1, 10))
    def test_flow_solves_the_transversal_equation(self, p, lam, order):
        """y(tau, z) is the flow of dz/dt = z^{p+1} / (1 + lam z^p) for
        time tau: d_tau y * (1 + lam y^p) = y^{p+1} through z^order, and
        y(0, z) = z.  Checked on the polynomial, without the iteration."""
        order = max(order, p + 1)
        y = saddle_node_holonomy(p, lam, order=order).poly
        assert MultiPoly(2, {e: c for e, c in y.terms.items() if e[0] == 0}) \
            == MultiPoly.variable(1, 2)
        yp = _trunc_z(y ** p, order)
        lhs = _trunc_z(y.derivative(0) * (MultiPoly.constant(1, 2) + yp.scale(lam)),
                       order)
        assert lhs == _trunc_z(yp * y, order)


class TestRenderTau:
    def test_str(self):
        assert render_tau(TAU) == "tau"
        assert render_tau(TAU * TAU) == "tau^2"

    def test_sums_are_parenthesized(self):
        a = tau_poly({1: GaussianRational(Fraction(-1, 3), -2), 2: 1})
        assert render_tau(a) == "(-1/3-2*i)*tau+tau^2"
        assert render_tau(tau_poly({0: GaussianRational(1, 1), 1: -1})) == "(1+i)-tau"
        assert render_tau(tau_poly({1: GaussianRational(0, -2), 2: 1})) == "-2*i*tau+tau^2"
        assert render_tau(tau_poly({})) == "0"


class TestGermOrder:
    def test_root_of_unity(self):
        assert germ_order(ExactMultiplier(Fraction(-3, 2))).order == 2
        assert germ_order(ExactMultiplier(Fraction(5))).order == 1

    def test_complex_infinite(self):
        r = germ_order(ComplexMultiplier(GaussianRational(0, 1)))
        assert r.kind == "infinite"

    def test_parabolic_obstruction(self):
        h = saddle_node_holonomy(2, 0, order=6)
        r = germ_order(h)
        assert r.kind == "infinite"
        assert r.obstruction[0] == 3
        assert r.obstruction[1] == TAU
        assert r.to_json() == {"kind": "infinite", "obstruction": {
            "degree": 3, "coefficient": "tau"}}

    def test_identity_undecided(self):
        assert germ_order(GermSeries.identity(6)).kind == "undecided"


class TestNecessaryConditions:
    def test_saddles_pass(self):
        assert mattei_moussu_criterion(parse_field("x*ddx - y*ddy")).passes()
        assert mattei_moussu_criterion(parse_field("2*x*ddx - 3*y*ddy")).passes()

    def test_hamiltonian_cusp_passes(self):
        verdict = mattei_moussu_criterion(parse_field("2*y*ddx + 3*x^2*ddy"))
        assert verdict.passes()

    def test_zero_eigenvalue_fails(self):
        verdict = mattei_moussu_criterion(parse_field("x^2*ddx + (y - x)*ddy"))
        assert verdict.verdict == "FailsNecessaryConditions"
        assert any("zero eigenvalue" in r for r in verdict.reasons)

    def test_nonreal_ratio_fails(self):
        verdict = mattei_moussu_criterion(parse_field("(x - y)*ddx + (x + y)*ddy"))
        assert verdict.verdict == "FailsNecessaryConditions"
        assert any("nonreal" in r for r in verdict.reasons)

    def test_positive_ratio_fails(self):
        verdict = mattei_moussu_criterion(parse_field("5/2*x*ddx + y*ddy"))
        assert verdict.verdict == "FailsNecessaryConditions"
        assert any("positive real ratio" in r for r in verdict.reasons)

    def test_dicritical_fails(self):
        verdict = mattei_moussu_criterion(parse_field("x*ddx + y*ddy"))
        assert verdict.verdict == "FailsNecessaryConditions"
        assert any("dicritical" in r for r in verdict.reasons)

    def test_resonant_obstruction_fails(self):
        verdict = mattei_moussu_criterion(parse_field("(x + x^2*y)*ddx - y*ddy"))
        assert verdict.verdict == "FailsNecessaryConditions"
        assert any("resonant part" in r for r in verdict.reasons)

    def test_irrational_ratio_undecided(self):
        verdict = mattei_moussu_criterion(parse_field("y*ddx + (x + y)*ddy"))
        assert verdict.verdict == "Undecided"

    def test_common_factor_stripped(self):
        # d(x^2 y^3) = x y^2 (2y dx + 3x dy): the repeated-factor locus is
        # divided out and the reduced 2:-3 saddle decides the question
        f = parse_poly("x^2 * y^3")
        form = OneFormGerm(f.derivative(0), f.derivative(1))
        verdict = mattei_moussu_criterion(form)
        assert verdict.passes()

    def test_json_shape(self):
        verdict = mattei_moussu_criterion(parse_field("x*ddx - y*ddy"))
        js = verdict.to_json()
        assert js["verdict"] == "PassesNecessaryConditions"
        assert js["leaves"][0]["status"] == "ok"


SQRT2, R2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")


def _leaf(field):
    """A resolution leaf at ``field``, as far as the leaf check reads it."""
    return SimpleNamespace(form=dualize(field),
                           classification=classify_singularity(field))


def _coefficients(name):
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if name == "Q":
        return small
    if name == "Q(i)":
        return st.builds(GaussianRational, small, small)
    return st.builds(lambda a, b: SQRT2.element(a) + R2 * b, small, small)


@st.composite
def siegel_saddles(draw):
    """(field, m, n): eigenvalues -m c and n c for a drawn c, m + n in
    2..10, and up to three terms of degree 2..6 per component over Q, Q(i)
    or Q(sqrt 2).  Half the draws add each component's first resonant
    monomial, x^(1+n) y^m and x^n y^(1+m), so resonant parts often stay."""
    total = draw(st.integers(2, 10))
    m = draw(st.integers(1, total - 1))
    n = total - m
    coeff = _coefficients(draw(st.sampled_from(["Q", "Q(i)", "Q(sqrt2)"])))
    c = draw(coeff.filter(lambda v: v != 0))
    monomial = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
        lambda e: 2 <= sum(e) <= 6)
    components = []
    for lam, linear, resonant in ((-m, (1, 0), (1 + n, m)),
                                  (n, (0, 1), (n, 1 + m))):
        terms = draw(st.dictionaries(monomial, coeff, max_size=3))
        if draw(st.booleans()):
            terms[resonant] = draw(coeff)
        terms[linear] = c * lam
        components.append(MultiPoly(2, terms))
    return VectorFieldGerm(components), m, n


class TestLeafCheck:
    """A Siegel leaf is solved only through its last resonant degree."""

    @given(siegel_saddles(), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_full_solve(self, saddle, order):
        field, m, n = saddle
        leaf = _leaf(field)
        assert leaf.classification.tag == "SiegelRational"
        assert sum(leaf.classification.siegel_pair) * math.gcd(m, n) == m + n
        diag = diagonalize_linear_part(field)[0]
        full = resonant_normal_form(diag, order=order)
        assert holonomy._leaf_formally_linearizable(leaf, order) == (not full.kept)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_short_order_skips_the_solve(self, monkeypatch, order):
        def forbidden(*args, **kwargs):
            raise AssertionError("a leaf with no resonant degree was solved")

        monkeypatch.setattr(holonomy, "diagonalize_linear_part", forbidden)
        monkeypatch.setattr(normalforms, "solve_conjugacy", forbidden)
        # ratio -2/3: the first resonant degree is 1 + 2 + 3 = 6
        leaf = _leaf(parse_field("(2*x + x^4*y^2)*ddx + (-3*y + x^3*y^3)*ddy"))
        assert holonomy._leaf_formally_linearizable(leaf, order)

    def test_solve_stops_at_the_last_resonant_degree(self, monkeypatch):
        solve = normalforms.solve_conjugacy
        orders = []

        def spy(field, decide, order, pattern="custom"):
            orders.append(order)
            return solve(field, decide, order, pattern)

        monkeypatch.setattr(normalforms, "solve_conjugacy", spy)
        # ratio -1/2: resonant degrees 4 and 7
        field = parse_field("(x + x^3*y)*ddx + (-2*y + x^2*y^2)*ddy")
        assert not holonomy._leaf_formally_linearizable(_leaf(field), 8)
        assert orders == [7]


def hamiltonian_form(n1, n2, n3):
    f = parse_poly("x^%d * y^%d * (x - y)^%d" % (n1, n2, n3))
    from folsing.poly import OneFormGerm
    return OneFormGerm(f.derivative(0), f.derivative(1)), f


class TestFirstIntegral:
    def test_three_line_product(self):
        form, f = hamiltonian_form(1, 1, 1)
        result = construct_first_integral_homogeneous(form)
        assert result.residues == [Fraction(1, 3)] * 3
        assert sorted(n for _, n in result.factors) == [1, 1, 1]
        assert verify_first_integral(form, result.integral)

    def test_unbalanced_exponents(self):
        form, f = hamiltonian_form(2, 1, 0)
        result = construct_first_integral_homogeneous(form)
        exps = {str(q): n for q, n in result.factors}
        assert exps == {"x": 2, "y": 1}
        assert result.residues == [Fraction(2, 3), Fraction(1, 3)]

    def test_common_power_reduces(self):
        form, f = hamiltonian_form(2, 2, 0)
        result = construct_first_integral_homogeneous(form)
        assert result.integral == parse_poly("x*y")

    def test_gaussian_cluster(self):
        f = parse_poly("x^2 + y^2")
        from folsing.poly import OneFormGerm
        form = OneFormGerm(f.derivative(0), f.derivative(1))
        result = construct_first_integral_homogeneous(form)
        assert result.integral == f
        assert len(result.factors) == 2

    def test_irrational_cluster_stays_rational(self):
        f = parse_poly("x*y^2 - 2*x^3")
        from folsing.poly import OneFormGerm
        form = OneFormGerm(f.derivative(0), f.derivative(1))
        result = construct_first_integral_homogeneous(form)
        assert result.integral == f or result.integral == f.scale(-1)
        degrees = sorted(sum(max(e) for e in q.terms) for q, _ in result.factors)
        assert len(result.factors) == 2

    def test_saddle_duality_route(self):
        result = construct_first_integral_homogeneous(parse_field("2*x*ddx - y*ddy"))
        assert result.integral == parse_poly("x*y^2")

    def test_degree_cap(self):
        # x^n * y is cheap to expand, but its degree is what the cap bounds
        n = INTEGRAL_DEGREE_CAP - 1
        result = construct_first_integral_homogeneous(
            parse_field("x*ddx - %d*y*ddy" % n))
        assert result.integral == parse_poly("x^%d*y" % n)
        with pytest.raises(IntegralDegreeExceeded):
            construct_first_integral_homogeneous(
                parse_field("x*ddx - %d*y*ddy" % (n + 1)))

    def test_dicritical_rejected(self):
        with pytest.raises(DicriticalInput):
            construct_first_integral_homogeneous(parse_field("x*ddx + y*ddy"))

    def test_node_rejected(self):
        with pytest.raises(NonIntegerResidues):
            construct_first_integral_homogeneous(parse_field("x*ddx + 2*y*ddy"))

    def test_complex_residues_rejected(self):
        with pytest.raises(NonIntegerResidues):
            construct_first_integral_homogeneous(parse_field("x*ddx + i*y*ddy"))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(WrongClass):
            construct_first_integral_homogeneous(
                parse_form("(x + x^2)*dx + y*dy"))


class TestProjectiveGenerators:
    def test_three_loops_close_up(self):
        form, _ = hamiltonian_form(1, 1, 1)
        result = construct_first_integral_homogeneous(form)
        gens = projective_holonomy_generators(result)
        assert len(gens) == 3
        assert all(g.exponent == Fraction(-1, 3) for g in gens)
        assert sum(g.exponent for g in gens) == -1

    def test_weighted_loops(self):
        form, _ = hamiltonian_form(2, 1, 0)
        result = construct_first_integral_homogeneous(form)
        gens = projective_holonomy_generators(result)
        assert sorted(g.exponent for g in gens) == [Fraction(-2, 3), Fraction(-1, 3)]

    def test_cluster_contributes_conjugate_pair(self):
        f = parse_poly("x*y^2 - 2*x^3")
        from folsing.poly import OneFormGerm
        form = OneFormGerm(f.derivative(0), f.derivative(1))
        result = construct_first_integral_homogeneous(form)
        gens = projective_holonomy_generators(result)
        assert len(gens) == 3
        assert sum(g.exponent for g in gens) == -1
