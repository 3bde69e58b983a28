"""Linear classification, resonances, hull domains, intersection numbers."""

import itertools
import json
import math
import signal
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from folsing import local
from folsing.cli import main
from folsing.errors import VariableCountMismatch
from folsing.local import (
    classify_singularity,
    detect_resonances,
    domain_classification,
    eigen_pair,
    fraction_sqrt,
    gcd_xy,
    intersection_number,
    separating_line_exists,
)
from folsing.parsing import parse_field, parse_poly
from folsing.poly import MultiPoly, VectorFieldGerm, dualize
from folsing.resolve import resolve, verify_ledger
from folsing.scalars import GaussianRational
from folsing.sectors import zero_position
from folsing.towers import TRIVIAL

X = MultiPoly.variable(0, 2)
Y = MultiPoly.variable(1, 2)
SQRT2_TOWER, R2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")


def _within(seconds, fn, *args):
    """fn(*args), failing the test once it runs past a wall-clock budget."""
    def overrun(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    old = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def linear_field(a, b, c, d):
    return VectorFieldGerm([X.scale(a) + Y.scale(b), X.scale(c) + Y.scale(d)])


class TestClassify:
    def test_regular(self):
        assert classify_singularity(parse_field("1*ddx + x*ddy")).tag == "Regular"

    def test_saddle(self):
        r = classify_singularity(linear_field(1, 0, 0, -1))
        assert r.tag == "SiegelRational"
        assert r.siegel_pair == (1, 1)

    def test_siegel_rational_2_3(self):
        r = classify_singularity(linear_field(2, 0, 0, -3))
        assert r.tag == "SiegelRational"
        assert r.siegel_pair == (3, 2)
        assert r.ratio == Fraction(-3, 2)

    def test_siegel_irrational(self):
        # lambda = 1, -1-sqrt(2): s = tr^2/det: tr = -sqrt2, det = -1-sqrt2
        # simpler: companion with trace 1, det -1: s = -1 -> disc 5 not square
        r = classify_singularity(linear_field(0, 1, 1, 1))
        assert r.tag == "SiegelIrrational"

    def test_resonant_node(self):
        r = classify_singularity(linear_field(2, 0, 0, 1))
        assert r.tag == "SimpleResonantRatioN"
        assert r.resonant_n == 2

    def test_equal_eigenvalues_resonant_1(self):
        r = classify_singularity(linear_field(1, 0, 0, 1))
        assert r.tag == "SimpleResonantRatioN"
        assert r.resonant_n == 1
        r2 = classify_singularity(linear_field(1, 1, 0, 1))  # Jordan block
        assert r2.tag == "SimpleResonantRatioN" and r2.resonant_n == 1

    def test_poincare_nonresonant_rational(self):
        r = classify_singularity(linear_field(5, 0, 0, 2))
        assert r.tag == "SimplePoincareNonresonant"
        assert r.ratio_positive_real

    def test_hyperbolic_nonreal_ratio(self):
        r = classify_singularity(linear_field(1, 0, 0, GaussianRational(0, 1)))
        assert r.tag == "Hyperbolic"
        assert not r.numeric_decision

    def test_hyperbolic_focus(self):
        # rotation+scaling: eigenvalues 1 +- i: tr 2, det 2, s = 2 in (0,4)
        r = classify_singularity(linear_field(1, -1, 1, 1))
        assert r.tag == "Hyperbolic"

    def test_saddle_node(self):
        r = classify_singularity(parse_field("x^2*ddx + y*ddy"))
        assert r.tag == "SaddleNode"

    def test_nilpotent(self):
        r = classify_singularity(parse_field("y*ddx + x^2*ddy"))
        assert r.tag == "Nilpotent"

    def test_degenerate(self):
        r = classify_singularity(parse_field("x^2*ddx + y^2*ddy"))
        assert r.tag == "Degenerate"
        assert r.order == 2

    def test_at_point(self):
        vf = parse_field("(x-1)*ddx + (y+2)*ddy")
        r = classify_singularity(vf, point=[1, -2])
        assert r.tag == "SimpleResonantRatioN"

    def test_form_via_duality(self):
        w = dualize(linear_field(1, 0, 0, -1))
        assert classify_singularity(w).tag == "SiegelRational"

    def test_tower_eigenvalues_numeric_flag(self):
        T, r2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")
        vf = VectorFieldGerm([X.scale(T.one()), Y.scale(r2)])
        r = classify_singularity(vf)
        # s = (1+r2)^2/r2 is irrational, so the real/sign decision is numeric
        # and tracks the deterministic embedding chosen for the generator
        assert r.numeric_decision
        if complex(r2).real > 0:
            assert r.tag == "SimplePoincareNonresonant"
        else:
            assert r.tag == "SiegelIrrational"

    # each tower case reads the same branch under either embedding of the
    # generator, which the sign flips
    @pytest.mark.parametrize("sign", [1, -1])
    def test_tower_gaussian_non_real_s(self, sign):
        r2 = R2 * sign
        # s = (1 + 2i)^2 / (2i) = 2 + 3/2 i, Gaussian though both
        # eigenvalues lie above Q(i)
        r = classify_singularity(linear_field(r2, 0, 0, r2 * GaussianRational(0, 2)))
        assert r.tag == "Hyperbolic"
        assert not r.numeric_decision
        assert r.s.as_gaussian_or_none() == GaussianRational(Fraction(2), Fraction(3, 2))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("ratio, tag, s_value", [
        # s = 2 -+ i / sqrt2: not real
        (lambda r2: r2 * GaussianRational(0, 1), "Hyperbolic", None),
        # s = r + 1/r + 2 with r = 3 -+ sqrt2 > 0, r != 1: real above 4
        (lambda r2: r2 + 3, "SimplePoincareNonresonant", (4, math.inf)),
        # r = (1 + i) / -+sqrt2 on the unit circle: s = 2 -+ sqrt2 in (0, 4]
        (lambda r2: r2 * GaussianRational(1, 1) / 2, "Hyperbolic", (0, 4)),
    ])
    def test_tower_numeric_branches(self, sign, ratio, tag, s_value):
        r = classify_singularity(linear_field(SQRT2_TOWER.one(), 0, 0,
                                              ratio(R2 * sign)))
        assert r.tag == tag
        assert r.numeric_decision
        assert r.to_json()["numeric_decision"] is True
        s = complex(r.s)
        if s_value is None:
            assert abs(s.imag) > 0.7
        else:
            assert abs(s.imag) < 1e-12 and s_value[0] < s.real < s_value[1]

    def test_final_flags(self):
        assert classify_singularity(linear_field(1, 0, 0, -1)).is_final()
        assert classify_singularity(parse_field("x^2*ddx + y*ddy")).is_final()
        assert not classify_singularity(linear_field(2, 0, 0, 1)).is_final()
        assert not classify_singularity(parse_field("y*ddx + x^2*ddy")).is_final()


class TestEigenPair:
    def test_split_case(self):
        t, l1, l2 = eigen_pair(linear_field(2, 0, 0, -3))
        assert {str(l1), str(l2)} == {"2", "-3"}

    def test_adjoin_case(self):
        t, l1, l2 = eigen_pair(linear_field(0, 1, 2, 0))  # eigenvalues +-sqrt2
        assert (l1 * l1 - 2).is_zero()
        assert (l1 + l2).is_zero()
        assert t.depth == 1


class TestResonances:
    def test_saddle_pairs(self):
        got = detect_resonances([1, -1], 4)
        assert got == [(1, (2, 1)), (2, (1, 2))]
        # the degree-5 relations appear once the cap admits them
        got5 = detect_resonances([1, -1], 5)
        assert (1, (3, 2)) in got5 and (2, (2, 3)) in got5

    def test_nonresonant_empty(self):
        assert detect_resonances([1, GaussianRational(0, 1)], 6) == []

    def test_node_resonance(self):
        got = detect_resonances([2, 1], 3)
        assert got == [(1, (0, 2))]

    def test_three_vars(self):
        got = detect_resonances([1, 1, 2], 2)
        assert (3, (2, 0, 0)) in got
        assert (3, (1, 1, 0)) in got
        assert (3, (0, 2, 0)) in got

    # spectra of small integer multiples of one unit, so that resonances
    # occur, and of two units, so that some do not
    R2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")[1]
    UNITS = {"gaussian": GaussianRational(Fraction(1, 3), Fraction(-1, 2)),
             "rational": Fraction(2, 5), "tower": R2}

    @pytest.mark.parametrize("unit", sorted(UNITS))
    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=3),
           st.lists(st.integers(-1, 1), min_size=3, max_size=3),
           st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_against_brute_force(self, unit, multiples, offsets, max_degree):
        u = self.UNITS[unit]
        lams = [u * k + GaussianRational(0, 1) * m if unit == "gaussian"
                else u * k + m
                for k, m in zip(multiples, offsets)]
        n = len(lams)
        want = []
        for q in itertools.product(range(max_degree + 1), repeat=n):
            if 2 <= sum(q) <= max_degree:
                for i in range(n):
                    delta = -lams[i]
                    for l, k in zip(lams, q):
                        delta = delta + l * k
                    if delta == 0:
                        want.append((i + 1, q))
        want.sort(key=lambda iq: (iq[0], sum(iq[1]), iq[1]))
        assert detect_resonances(lams, max_degree) == want


class TestDomains:
    def test_poincare(self):
        assert domain_classification([1, 2]).domain == "poincare"
        assert domain_classification([GaussianRational(1, 0), GaussianRational(0, 1)]).domain == "poincare"

    def test_saddle_strict(self):
        r = domain_classification([1, -1])
        assert r.domain == "strict_siegel"
        assert r.zero_position == "interior"

    def test_boundary_with_zero_eigenvalue(self):
        r = domain_classification([1, 0])
        assert r.domain == "siegel"
        assert r.zero_position == "boundary"

    def test_triangle_interior(self):
        lams = [GaussianRational(1, 0),
                GaussianRational(-1, 1),
                GaussianRational(-1, -1)]
        assert domain_classification(lams).domain == "strict_siegel"

    def test_triangle_boundary(self):
        lams = [GaussianRational(1, 0), GaussianRational(-1, 0), GaussianRational(0, 1)]
        # 0 lies on the edge [-1, 1]... the hull contains 0 in its interior?
        # points 1, -1, i: hull is a triangle with vertices on both axes and 0
        # on the open edge from -1 to 1 -> boundary
        assert domain_classification(lams).zero_position == "boundary"

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tower_spectrum_is_placed_numerically(self, sign):
        # 3 -+ sqrt2 > 0 and 1 + i: 0 is outside under either embedding
        r = domain_classification([R2 * sign + 3, GaussianRational(1, 1)])
        assert r.to_json() == {"domain": "poincare",
                               "zero_position": "outside",
                               "numeric_decision": True}

    def test_separating_line(self):
        assert separating_line_exists([1, -1])
        assert separating_line_exists([1, GaussianRational(-2, 1)])
        assert not separating_line_exists([1, 2])
        assert not separating_line_exists([1, 0])


def _cross(a, b):
    return a.re * b.im - a.im * b.re


def _zero_in_hull(points):
    """0 is one of the points, on a segment [p, q] or in a non-degenerate
    closed triangle of them."""
    if any(p.is_zero() for p in points):
        return True
    for p, q in itertools.combinations(points, 2):
        if _cross(p, q) == 0 and (p.conjugate() * q).re < 0:
            return True
    for a, b, c in itertools.combinations(points, 3):
        if _cross(b - a, c - a) == 0:
            continue
        signs = {(_cross(q - p, -p) > 0) - (_cross(q - p, -p) < 0)
                 for p, q in ((a, b), (b, c), (c, a))}
        if signs <= {0, 1} or signs <= {0, -1}:
            return True
    return False


def _in_cone(v, points):
    """Is v a nonnegative combination of at most two of the points (which
    in the plane covers every nonnegative combination)?"""
    for q in points:
        if _cross(q, v) == 0 and (q.conjugate() * v).re > 0:
            return True
    for q, r in itertools.combinations(points, 2):
        det = _cross(q, r)
        if det != 0 and _cross(v, r) / det >= 0 and _cross(q, v) / det >= 0:
            return True
    return False


def _oracle_position(points):
    """0 in the hull is in its relative interior iff the segment from each
    point to 0 extends past 0 inside the hull, that is, iff -p lies in the
    cone over the points for every point p (Rockafellar, Convex Analysis,
    Theorem 6.4).  A spectrum of zeros counts as boundary."""
    if not _zero_in_hull(points):
        return "outside"
    nonzero = [p for p in points if not p.is_zero()]
    if nonzero and all(_in_cone(-p, nonzero) for p in nonzero):
        return "interior"
    return "boundary"


_COORD = st.integers(-3, 3)
_POINT = st.builds(GaussianRational, _COORD, _COORD)
# multiples of a few directions meet the collinear and opposite cases often
_ON_AXES = st.builds(lambda k, d: d * k, st.integers(-3, 3),
                     st.sampled_from([GaussianRational(1), GaussianRational(1, 1),
                                      GaussianRational(2, -1)]))


class TestZeroPosition:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(_POINT, _ON_AXES), min_size=1, max_size=6))
    def test_matches_the_hull_oracle(self, points):
        assert zero_position(points) == _oracle_position(points)

    @pytest.mark.parametrize("points, position", [
        ([GaussianRational(1, 3), GaussianRational(0, -1)], "outside"),
        ([GaussianRational(1), GaussianRational(2), GaussianRational(3)], "outside"),
        ([GaussianRational(1), GaussianRational(0)], "boundary"),
        ([GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1)], "boundary"),
        ([GaussianRational(0), GaussianRational(0)], "boundary"),
        ([GaussianRational(1), GaussianRational(-2)], "interior"),
        ([GaussianRational(1), GaussianRational(0), GaussianRational(-2)], "interior"),
        ([GaussianRational(1), GaussianRational(-1, 1), GaussianRational(-1, -1)],
         "interior"),
    ])
    def test_each_position_and_the_oracle(self, points, position):
        assert zero_position(points) == position
        assert _oracle_position(points) == position

    def test_spectrum_of_unequal_lengths_is_poincare(self):
        # u = 1 - i/10 separates 1+3i and -i from 0, though no sum of two
        # of them does
        r = domain_classification([GaussianRational(1, 3), GaussianRational(0, -1)])
        assert (r.domain, r.zero_position) == ("poincare", "outside")
        assert separating_line_exists([GaussianRational(1, 3), GaussianRational(0, 1)])


class TestFractionSqrt:
    def test_squares(self):
        assert fraction_sqrt(Fraction(25, 36)) == Fraction(5, 6)
        assert fraction_sqrt(Fraction(0)) == 0

    def test_non_squares(self):
        assert fraction_sqrt(Fraction(2)) is None
        assert fraction_sqrt(Fraction(-1)) is None


class TestGcdXY:
    def test_common_factor(self):
        f = (X + Y) * (X - Y)
        g = (X + Y) * Y
        h = gcd_xy(f, g)
        assert h == X + Y

    def test_coprime(self):
        assert gcd_xy(X, Y).total_degree() == 0

    # a random coprime pair of degrees 7 and 8 with integer coefficients:
    # primitive Euclid in y over Q[x] alone took 51 s on it
    COPRIME_7 = ("2*y^2 + 6*y^3 - 7*y^4 + 6*y^5 + 6*x + 8*x*y - 5*x*y^3"
                 " + 3*x*y^6 - 7*x^2 - 8*x^2*y^2 + 6*x^2*y^5 + 3*x^3"
                 " + 4*x^3*y + 5*x^3*y^3 - 5*x^3*y^4 - 6*x^4 + 9*x^5*y^2"
                 " + 9*x^6*y")
    COPRIME_8 = ("-9*y^2 - 4*y^3 + y^4 + 9*y^5 - 3*y^6 + 9*y^7 + 6*x*y^2"
                 " + 4*x*y^4 - 9*x*y^5 - 6*x*y^7 - 8*x^2*y + 8*x^2*y^3"
                 " - x^2*y^4 - 8*x^2*y^5 - 8*x^3*y + 4*x^3*y^2 + x^3*y^5"
                 " + 3*x^4*y + 3*x^4*y^3 + 8*x^4*y^4 + 7*x^5*y - 2*x^5*y^3"
                 " + 4*x^6 + 7*x^6*y + 9*x^7*y")

    def test_coprime_high_degree_within_budget(self):
        f, g = parse_poly(self.COPRIME_7), parse_poly(self.COPRIME_8)
        assert _within(10, gcd_xy, f, g) == MultiPoly.constant(1, 2)
        assert _within(10, intersection_number, f, g) == 2

    def test_shared_branch_within_budget(self):
        # the slice gcds see the common cusp, so Euclid must find it
        h = parse_poly("y^2 - x^3")
        f = h * parse_poly(self.COPRIME_7).truncate(3)
        g = h * parse_poly(self.COPRIME_8).truncate(3)
        assert _within(10, gcd_xy, f, g) == h.scale(-1)  # x^3 - y^2
        assert _within(10, intersection_number, f, g) == math.inf

    def test_common_factor_in_one_variable(self):
        # x^2 + 1 divides both: slices at y = s see it, slices at x = t do not
        u = X * X + MultiPoly.constant(1, 2)
        assert gcd_xy(u * (X + Y), u * (Y - X * X)) == u

    def test_resolve_coprime_components_within_budget(self):
        field = parse_field("(x^4-y^3)*(x^2+y^5)*ddx+(x^7+y^6)*ddy")
        tree = _within(30, resolve, field)
        assert verify_ledger(tree)[1]

    def test_resolve_uncertified_components_within_budget(self):
        # a chart child's components (degrees 29 and 30) are coprime, but
        # their slices at y = 1 share a root, so the mod-p certificate
        # fails; their tangent cones are transverse and settle I_0 = 4
        field = parse_field("(y^2 - x^3 + (x+y)^15)*ddx"
                            " + (y^2 + x^5 + (x-2*y)^16)*ddy")
        tree = _within(10, resolve, field)
        assert verify_ledger(tree)[1]
        assert [n.i0 for n in tree.nodes] == [6, 4, 1, 1, 1, 1, 1, 1, 2]

    def test_resolve_tower_cones_sharing_a_line_within_budget(self):
        # the cone (y^2 - 2x^2)^2 puts children over Q(i)(sqrt 2) whose
        # cones meet, so Euclid runs over the tower on coprime components
        field = parse_field("((y^2-2*x^2)^2*(1+x) + x^5 + y^6)*ddx"
                            " + ((y^2-2*x^2)^2*(2+y) + 3*y^5 + x^7)*ddy")
        tree = _within(10, resolve, field)
        assert verify_ledger(tree)[1]

    def test_transverse_cones_decide_without_gcd_of_curves(self, monkeypatch):
        # cones y^2 and x^2 share no line: I_0 = m_f m_g, and gcd_xy only
        # ever sees the two lowest forms
        seen = []

        def recorder(f, g):
            seen.extend((f, g))
            return gcd_xy(f, g)

        monkeypatch.setattr(local, "gcd_xy", recorder)
        f = Y * Y - X ** 3 + (X + Y) ** 9
        g = X * X + X * Y ** 3 + (X - Y) ** 8
        assert intersection_number(f, g) == 4
        assert seen
        assert all(p == p.homogeneous_component(p.total_degree()) for p in seen)

    def test_divide_exact(self):
        f = (X + Y) ** 2 * (X - Y)
        q = f.divide_exact(X + Y)
        assert q == (X + Y) * (X - Y)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _gaussians(gaussian, denominators=st.integers(1, 3)):
    im = st.integers(-3, 3) if gaussian else st.just(0)
    return st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
                     st.integers(-3, 3), im, denominators).filter(
                         lambda c: not c.is_zero())


def _bivariate(scalars, degree):
    exps = st.tuples(st.integers(0, degree), st.integers(0, degree)).filter(
        lambda e: sum(e) <= degree)
    return st.dictionaries(exps, scalars, min_size=1, max_size=4).map(
        lambda terms: MultiPoly(2, terms))


class TestGcdAgainstSympy:
    """sympy's ``gcd`` over QQ and QQ_I as a reference for ``gcd_xy``.

    Every draw plants a common factor, and the coprimality certificate is
    switched off, so subresultant Euclid runs each time."""

    @pytest.mark.parametrize("domain", ["QQ", "QQ_I"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_sympy_gcd(self, sympy, domain, data):
        scalars = _gaussians(domain == "QQ_I")
        f, g = (data.draw(_bivariate(scalars, 3)) for _ in range(2))
        h = data.draw(_bivariate(scalars, 2))
        f, g = f * h, g * h
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(local, "_coprime_mod_p", lambda *args: False)
            ours = gcd_xy(f, g)
        x, y = sympy.symbols("x y")

        def to_sympy(p):
            return sympy.Poly(sum((sympy.Rational(c.re.numerator, c.re.denominator)
                                   + sympy.I * sympy.Rational(c.im.numerator,
                                                              c.im.denominator))
                                  * x ** ex * y ** ey
                                  for (ex, ey), c in p.terms.items()),
                              x, y, domain=domain)

        ref = sympy.gcd(to_sympy(f), to_sympy(g))
        terms = {}
        for e, c in ref.terms():
            re, im = (Fraction(int(v.p), int(v.q))
                      for v in (sympy.re(c), sympy.im(c)))
            terms[e] = GaussianRational(re, im)
        ref = MultiPoly(2, terms)
        lead = ref.sorted_terms()[-1][1]
        assert ours == ref.scale(lead.inverse())
        assert ours.total_degree() >= h.total_degree()


P = local.CERT_PRIME


# 1, 2 or 3, and one time in ten p or 2p
SOMETIMES_P = st.integers(1, 20).map(lambda k: P * (k - 18) if k > 18 else k % 3 + 1)


def _euclid_only(f, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local, "_coprime_mod_p", lambda *args: False)
        return gcd_xy(f, g)


class TestCoprimeModP:
    """Over Q and Q(i) coprimality is certified from slices mod one prime."""

    def test_prime_and_square_root_of_minus_one(self):
        assert P % 4 == 1
        assert all(P % q for q in range(2, math.isqrt(P) + 1))
        assert local.CERT_I * local.CERT_I % P == P - 1

    @pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gcd_matches_euclid(self, gaussian, data):
        """A third of the pairs share a planted factor; the certificate
        changes neither the gcd nor its coefficient types."""
        scalars = _gaussians(gaussian, SOMETIMES_P)
        f, g = (data.draw(_bivariate(scalars, 3)) for _ in range(2))
        if data.draw(st.integers(0, 2)) == 0:
            h = data.draw(_bivariate(scalars, 2))
            f, g = f * h, g * h
        ours, euclid = gcd_xy(f, g), _euclid_only(f, g)
        assert ours == euclid
        assert [type(c) for c in ours.terms.values()] == \
            [type(c) for c in euclid.terms.values()]

    @pytest.mark.parametrize("f, g", [
        # the prime divides a denominator
        (X + Y.scale(Fraction(1, P)), Y + X * X),
        # the leading coefficient in y is 0 mod p: p itself, and a Gaussian
        # integer in the prime of Z[i] that i -> CERT_I reduces by
        (X + Y.scale(P), Y + X * X),
        (X + Y.scale(GaussianRational(local.CERT_I, -1)), Y + X * X),
    ], ids=["denominator", "rational-lead", "gaussian-lead"])
    def test_unlucky_prime_is_not_a_certificate(self, f, g):
        assert not local._coprime_mod_p(f, g)
        assert gcd_xy(f, g) == MultiPoly.constant(1, 2)

    def test_shared_factor_is_never_certified(self):
        h = parse_poly("y^2 - x^3 + 5/7*x*y")
        f = h * parse_poly(TestGcdXY.COPRIME_7)
        g = h * parse_poly(TestGcdXY.COPRIME_8)
        assert not local._coprime_mod_p(f, g)

    def test_unlucky_slice_is_retried(self):
        # the lines meet at (1, 1), so the slices x = 1 and y = 1 share a
        # root; the next admissible slices certify the pair
        f, g = X - Y, X + Y - MultiPoly.constant(2, 2)
        assert local.SLICE_TRIES >= 2
        assert local._coprime_mod_p(f, g)
        assert gcd_xy(f, g) == MultiPoly.constant(1, 2)

    def test_resolve_binomial_powers_within_budget(self):
        result = _within(10, CliRunner().invoke, main,
                         ["resolve", "--expr", "(x+y)^20*ddx+(x-y)^19*ddy"])
        assert result.exit_code == 0, result.output
        tree = json.loads(result.output)
        assert tree["final"] and tree["ledger_ok"]


class TestIntersectionNumber:
    def test_transverse_axes(self):
        assert intersection_number(X, Y) == 1

    def test_tangency(self):
        assert intersection_number(Y, Y - X * X) == 2

    def test_cusp_pair(self):
        assert intersection_number(Y * Y - X ** 3, Y) == 3
        assert intersection_number(Y * Y - X ** 3, X) == 2

    def test_cusp_vs_parabola(self):
        # ord_t of (t^3 - t^4) along (t^2, t^3)
        assert intersection_number(Y * Y - X ** 3, Y - X * X) == 3

    def test_nonsingular_point(self):
        assert intersection_number(X + 1, Y) == 0
        # a curve missing the origin meets even the zero polynomial nowhere
        one, zero = MultiPoly.constant(1, 2), MultiPoly.zero(2)
        assert intersection_number(one, zero) == 0
        assert intersection_number(zero, X + 1) == 0

    def test_common_branch_infinite(self):
        assert intersection_number(X * Y, X * (X + Y)) == math.inf
        assert intersection_number(MultiPoly.zero(2), X) == math.inf

    def test_non_planar_refused(self):
        # the planar checks of local, blowup, cp2 and poly share one error
        Z3 = MultiPoly.variable(2, 3)
        for f, g in ((Z3, Z3), (X, Z3), (Z3, Y)):
            with pytest.raises(VariableCountMismatch) as info:
                intersection_number(f, g)
            assert info.value.code == "variable-count-mismatch"

    def test_strips_unit_common_factor(self):
        u = X + Y + 1  # unit at the origin
        assert intersection_number(u * X, u * Y) == 1

    def test_puiseux_oracle(self):
        # I(f, g) = ord_t g(gamma(t)) for irreducible f with parametrization gamma
        cases = [
            (Y, lambda g: _ord_subs(g, "t", "0")),
            (Y - X * X, lambda g: _ord_subs(g, "t", "t^2")),
            (Y * Y - X ** 3, lambda g: _ord_subs(g, "t^2", "t^3")),
        ]
        probes = [X, Y, X + Y, X * Y - Y ** 2, Y ** 2 + X ** 5, X ** 3 - Y ** 2 + Y ** 4]
        for f, oracle in cases:
            for g in probes:
                expected = oracle(g)
                if expected is math.inf:
                    assert intersection_number(f, g) == math.inf
                else:
                    assert intersection_number(f, g) == expected, (str(f), str(g))

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=9, deadline=None)
    def test_monomial_axes(self, a, b):
        assert intersection_number(X ** a, Y ** b) == a * b

    def test_high_degree_monomial_axes(self):
        assert intersection_number(X ** 200, Y ** 199) == 39800

    def test_coefficients_in_extension(self):
        # y - r2 x^2 and y + r2 x^2 differ by 2 r2 x^2, which meets
        # y - r2 x^2 with multiplicity 2
        f = Y - X * X * R2
        g = Y + X * X * R2
        assert intersection_number(f, g) == 2
        assert intersection_number(f * f, g) == 4


def _ord_subs(g: MultiPoly, xt: str, yt: str):
    """Order in t of g(x(t), y(t)) for monomial parametrizations."""
    t = MultiPoly.variable(0, 1)

    def mono(expr):
        if expr == "0":
            return MultiPoly.zero(1)
        if expr == "t":
            return t
        return t ** int(expr.split("^")[1])

    xv, yv = mono(xt), mono(yt)
    acc = MultiPoly.zero(1)
    for (ex, ey), c in g.terms.items():
        acc = acc + (xv ** ex) * (yv ** ey) * MultiPoly.constant(c, 1)
    return acc.order_at_origin()


fulton_polys = st.builds(
    lambda d: MultiPoly(2, d),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-4, 4),
        min_size=1,
        max_size=4,
    ),
)


def _sqrt2_poly(i, ci, j, cj, mixed):
    terms = {**mixed, (i, 0): ci, (0, j): cj}
    return MultiPoly(2, {e: SQRT2_TOWER.element(a) + R2 * b
                         for e, (a, b) in terms.items()})


sqrt2_coeffs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)

# curves through the origin with coefficients a + b*sqrt(2); the pure powers
# of x and y keep most pairs free of a common component, so that most values
# are finite
sqrt2_polys = st.builds(
    _sqrt2_poly,
    st.integers(1, 4), sqrt2_coeffs, st.integers(1, 4), sqrt2_coeffs,
    st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                    sqrt2_coeffs, max_size=3),
)


class TestFultonAxioms:
    @given(fulton_polys, fulton_polys)
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, f, g):
        assert intersection_number(f, g) == intersection_number(g, f)

    @given(fulton_polys, fulton_polys, fulton_polys)
    @settings(max_examples=25, deadline=None)
    def test_additivity_over_products(self, f, h, g):
        lhs = intersection_number(f * h, g)
        rhs = intersection_number(f, g) + intersection_number(h, g)
        assert lhs == rhs

    @given(fulton_polys, fulton_polys, fulton_polys)
    @settings(max_examples=25, deadline=None)
    def test_invariance_under_combination(self, f, g, h):
        assert intersection_number(f, g + h * f) == intersection_number(f, g)

    @given(sqrt2_polys, sqrt2_polys, sqrt2_polys)
    @settings(max_examples=25, deadline=None)
    def test_axioms_over_sqrt2(self, f, g, h):
        value = intersection_number(f, g)
        assert intersection_number(g, f) == value
        assert intersection_number(f, g + h * f) == value
