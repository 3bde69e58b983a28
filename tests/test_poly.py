"""Polynomials, truncated series arithmetic, germs, duality, wedge."""

import math
from fractions import Fraction

import numpy
import pytest
from hypothesis import assume, given, settings, strategies as st

from folsing.errors import (
    DivisionByZero,
    InternalInvariantViolation,
    VariableCountMismatch,
    ZeroInput,
)
from folsing.poly import (
    MultiPoly,
    OneFormGerm,
    VectorFieldGerm,
    coefficient_tower,
    compose,
    dualize,
    render_poly,
    shift,
    wedge,
)
from folsing.scalars import GaussianRational
from folsing.towers import TRIVIAL


def P(terms):
    return MultiPoly(2, terms)


X = MultiPoly.variable(0, 2)
Y = MultiPoly.variable(1, 2)


small_polys = st.builds(
    lambda d: MultiPoly(2, {k: v for k, v in d.items()}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(min_value=-6, max_value=6),
        max_size=5,
    ),
)

SQRT2, R2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")

# coefficients a + b*sqrt(2) with rational a
sqrt2_polys = st.builds(
    lambda d: MultiPoly(2, {e: SQRT2.element(a) + R2 * b
                            for e, (a, b) in d.items()}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.fractions(-5, 5, max_denominator=6), st.integers(-3, 3)),
        max_size=5,
    ),
)

gaussian_coeffs = st.builds(GaussianRational,
                            st.fractions(-5, 5, max_denominator=6),
                            st.integers(-3, 3))
sqrt2_coeffs = st.builds(lambda a, b: SQRT2.element(a) + R2 * b,
                         st.fractions(-5, 5, max_denominator=6),
                         st.integers(-3, 3))


@st.composite
def division_cases(draw):
    """(f, h, m): polynomials in 2 or 3 variables with coefficients in Q(i)
    or Q(sqrt 2), h nonzero, and the exponent m of a monomial."""
    nvars = draw(st.sampled_from([2, 3]))
    coeffs = draw(st.sampled_from([gaussian_coeffs, sqrt2_coeffs]))
    polys = st.builds(
        lambda d: MultiPoly(nvars, d),
        st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), coeffs,
                        max_size=4))
    f = draw(polys)
    h = draw(polys.filter(lambda p: not p.is_zero()))
    m = draw(st.tuples(*[st.integers(0, 3)] * nvars))
    return f, h, m


class TestMultiPoly:
    def test_constructor_prunes_zero(self):
        assert P({(1, 0): 0}).is_zero()

    @pytest.mark.parametrize("value", [0.5, 1j, numpy.float64(0.5),
                                       numpy.complex128(1j)],
                             ids=["float", "complex", "float64", "complex128"])
    def test_constructor_refuses_inexact_coefficients(self, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            MultiPoly(2, {(1, 0): value})

    def test_degrees(self):
        p = X * X * Y + Y
        assert p.total_degree() == 3
        assert p.order_at_origin() == 1
        assert MultiPoly.zero(2).total_degree() == -1
        assert MultiPoly.zero(2).order_at_origin() == float("inf")

    def test_homogeneous_component(self):
        p = X * X + X * Y + Y + 1
        assert p.homogeneous_component(2) == X * X + X * Y
        assert p.homogeneous_component(0) == MultiPoly.constant(1, 2)

    @given(small_polys, small_polys)
    @settings(max_examples=50, deadline=None)
    def test_ring_commutes(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=30, deadline=None)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(st.one_of(small_polys, sqrt2_polys),
           st.one_of(small_polys, sqrt2_polys), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_mul_trunc_is_truncated_product(self, p, q, n):
        # same terms, inserted in the same order
        assert list(p.mul_trunc(q, n).terms.items()) == \
            list((p * q).truncate(n).terms.items())

    def test_mul_trunc_untruncated_past_the_doubles(self):
        # an exponent sum is never converted to a float against order=inf
        big = MultiPoly.monomial(1, (2 ** 2000, 0))
        assert big.mul_trunc(Y, math.inf) == big * Y
        assert big.mul_trunc(Y, 5) == MultiPoly.zero(2)

    def test_evaluate(self):
        p = X * X + Y.scale(3)
        v = p.evaluate([Fraction(1, 2), 2])
        assert v == GaussianRational(Fraction(25, 4), 0)

    def test_substitute_blowup_shape(self):
        p = X * X + Y  # substitute y -> x*y
        q = p.substitute([X, X * Y])
        assert q == X * X + X * Y

    def test_translate(self):
        p = X * Y
        q = p.translate([1, -1])
        assert q == (X + 1) * (Y - 1)
        assert q.evaluate([0, 0]) == GaussianRational(-1, 0)

    def test_derivative(self):
        p = X ** 3 * Y
        assert p.derivative(0) == (X * X * Y).scale(3)
        assert p.derivative(1) == X ** 3

    def test_divide_by_var_power(self):
        p = X * X * Y + X ** 3
        q = p.divide_by_var_power(0, 2)
        assert q == Y + X
        with pytest.raises(Exception):
            (X + Y).divide_by_var_power(0, 1)

    def test_tower_coefficients(self):
        T, r2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")
        p = MultiPoly(2, {(1, 0): r2})
        q = p * p
        assert q.coefficient((2, 0)) == T.element(2)

    def test_mixed_plain_and_tower(self):
        T, r2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")
        p = MultiPoly(2, {(1, 0): r2})
        q = X + Y
        s = p + q
        assert s.coefficient((0, 1)) == GaussianRational(1, 0)

    def test_coefficient_tower(self):
        # Q(i) coefficients lie in the trivial tower itself, not in None
        gaussian = X + Y.scale(GaussianRational(0, 1))
        assert coefficient_tower(gaussian) is TRIVIAL
        assert coefficient_tower() is TRIVIAL
        T, r2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")
        assert coefficient_tower(gaussian, MultiPoly(2, {(1, 0): r2})) is T

    def test_variable_count_guard(self):
        with pytest.raises(VariableCountMismatch):
            X + MultiPoly.variable(0, 3)

    def test_render_graded_lex(self):
        p = Y + X + X * X
        assert str(p) == "x+y+x^2"
        assert render_poly(MultiPoly.zero(2)) == "0"
        assert str(X.scale(Fraction(-1, 2))) == "-1/2*x"


class TestDivideExact:
    @given(division_cases())
    @settings(max_examples=80, deadline=None)
    def test_quotient_of_product(self, case):
        f, h, _ = case
        assert (f * h).divide_exact(h) == f

    @given(division_cases())
    @settings(max_examples=80, deadline=None)
    def test_non_multiple_raises(self, case):
        f, h, m = case
        # x^m is a multiple of h only when h is a monomial dividing it
        if len(h.terms) == 1:
            (e,) = h.terms
            assume(any(a > b for a, b in zip(e, m)))
        with pytest.raises(InternalInvariantViolation):
            (f * h + MultiPoly.monomial(1, m)).divide_exact(h)

    @given(division_cases())
    @settings(max_examples=20, deadline=None)
    def test_zero_divisor(self, case):
        f, h, _ = case
        with pytest.raises(ZeroInput):
            f.divide_exact(MultiPoly.zero(f.nvars))


class TestTruncatedSeries:
    """Truncated power-series inverse on MultiPoly."""

    def test_inverse_geometric(self):
        s = MultiPoly.constant(1, 2) - X
        inv = s.inverse_trunc(4)
        assert inv == 1 + X + X ** 2 + X ** 3 + X ** 4
        assert s.mul_trunc(inv, 4) == MultiPoly.constant(1, 2)

    def test_inverse_requires_unit(self):
        with pytest.raises(DivisionByZero):
            X.inverse_trunc(3)

    def test_inverse_with_scalar_head(self):
        s = MultiPoly.constant(2, 2) + X
        assert s.mul_trunc(s.inverse_trunc(3), 3) == MultiPoly.constant(1, 2)

    def test_inverse_ignores_terms_above_the_order(self):
        s = MultiPoly.constant(2, 2) + X + Y ** 5
        assert s.inverse_trunc(3) == (MultiPoly.constant(2, 2) + X).inverse_trunc(3)


EULER = VectorFieldGerm([X * X, Y - X])  # classic saddle-node-type example


class TestGerms:
    def test_linear_part(self):
        m = EULER.linear_part_matrix()
        assert m[0] == [GaussianRational(0, 0), GaussianRational(0, 0)]
        assert m[1][0] == GaussianRational(-1, 0)
        assert m[1][1] == GaussianRational(1, 0)

    def test_orders(self):
        assert EULER.order_at_origin() == 1
        assert EULER.is_singular_at_origin()
        assert not VectorFieldGerm([X + 1, Y]).is_singular_at_origin()

    def test_duality_involution(self):
        w = dualize(EULER)
        assert isinstance(w, OneFormGerm)
        assert dualize(w) == EULER

    def test_duality_formulas(self):
        # A dx + B dy  ->  B d/dx - A d/dy
        w = OneFormGerm(X, Y)
        v = dualize(w)
        assert v.components[0] == Y
        assert v.components[1] == -X

    def test_wedge_self_zero(self):
        assert wedge(EULER, EULER).is_zero()

    def test_wedge_bilinear(self):
        a = VectorFieldGerm([X, Y])
        b = VectorFieldGerm([Y, X])
        w = wedge(a, b)
        assert w == X * X - Y * Y

    def test_form_wedge_df(self):
        # exact form df with f = xy: w = y dx + x dy, w ^ df = 0
        f = X * Y
        w = OneFormGerm(Y, X)
        assert w.wedge_with_df(f).is_zero()

    def test_apply_to(self):
        f = X * Y
        v = VectorFieldGerm([X, -Y])  # saddle: derivative of xy along flow is 0
        assert v.apply_to(f).is_zero()

    def test_jet(self):
        v = VectorFieldGerm([X ** 4 + X, Y])
        assert v.jet(2).components[0] == X


def composed_by_products(poly, maps, order):
    """poly(maps) as the sum of c * prod maps[j]^e_j, each power a chain of
    ``MultiPoly.__mul__``, then truncated: no power table, no numerators."""
    n = maps[0].nvars
    acc = MultiPoly.zero(n)
    for exps, c in poly.terms.items():
        term = MultiPoly.constant(c, n)
        for m, e in zip(maps, exps):
            for _ in range(e):
                term = term * m
        acc = acc + term
    return acc if order == math.inf else acc.truncate(order)


def gaussian_polys(exps):
    return st.builds(lambda d: MultiPoly(2, d),
                     st.dictionaries(exps, gaussian_coeffs, max_size=4))


class TestCompose:
    # sources and maps over Q(i) with non-real coefficients; a map may be
    # zero, vanish at the origin or carry a constant term
    sources = gaussian_polys(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    maps = st.one_of(st.just(MultiPoly.zero(2)), gaussian_polys(
        st.tuples(st.integers(0, 2), st.integers(0, 2))))
    orders = st.one_of(st.integers(0, 6), st.just(math.inf))

    @given(st.lists(sources, min_size=1, max_size=3), maps, maps, orders)
    @settings(max_examples=80, deadline=None)
    def test_gaussian_matches_products(self, polys, m1, m2, order):
        got = compose(polys, [m1, m2], order)
        for p, g in zip(polys, got):
            # equal dicts: the same nonzero terms, each in lowest terms
            assert g.terms == composed_by_products(p, [m1, m2], order).terms

    def test_tower_matches_products(self):
        # depth-1 coefficients keep the scalar loop
        r = MultiPoly.constant(R2, 2)
        p = r * X * X * Y + X * Y * Y.scale(Fraction(1, 3)) + r + Y ** 3
        maps = [r * X + Y * Y + Fraction(1, 2), X * Y - r * Y]
        for order in (0, 2, 4, math.inf):
            got = compose([p, r * X], maps, order)
            assert [g.terms for g in got] == [
                composed_by_products(q, maps, order).terms for q in (p, r * X)]


class TestShift:
    """The binomial shift against the substitution x_k -> x_k + s_k."""

    sources = st.lists(gaussian_polys(st.tuples(st.integers(0, 4),
                                                st.integers(0, 4))),
                       min_size=1, max_size=3)
    # a zero shift leaves its variable alone
    gaussian_shifts = st.one_of(st.just(GaussianRational(0)), gaussian_coeffs)

    @given(sources, gaussian_shifts, gaussian_shifts)
    @settings(max_examples=80, deadline=None)
    def test_gaussian_matches_compose(self, polys, s, t):
        got = shift(polys, [s, t])
        want = compose(polys, [X + s, Y + t])
        assert [g.terms for g in got] == [w.terms for w in want]

    @given(st.lists(sqrt2_polys, min_size=1, max_size=3),
           st.one_of(st.just(GaussianRational(0)), gaussian_coeffs,
                     sqrt2_coeffs),
           sqrt2_coeffs)
    @settings(max_examples=50, deadline=None)
    def test_tower_matches_compose(self, polys, s, t):
        got = shift(polys, [s, t])
        want = compose(polys, [X + s, Y + t])
        assert [g.terms for g in got] == [w.terms for w in want]

    def test_tower_shift_of_gaussian_polynomials(self):
        p = X * X * Y.scale(Fraction(1, 3)) + Y ** 4 + X
        got = shift([p, Y], [0, R2])
        assert got == compose([p, Y], [X, Y + R2])
        assert got[1] == Y + R2

    def test_germs_translate_by_the_shift(self):
        v = VectorFieldGerm([X * Y, Y ** 3 - X])
        assert v.translate([2, -1]).components == tuple(
            compose(v.components, [X + 2, Y - 1]))
        assert (X * Y).translate([2, -1]) == (X + 2) * (Y - 1)

    def test_wrong_number_of_shifts(self):
        with pytest.raises(VariableCountMismatch):
            shift([X, Y], [1])
        with pytest.raises(VariableCountMismatch):
            X.translate([1, 2, 3])
        with pytest.raises(VariableCountMismatch):
            VectorFieldGerm([X, Y]).translate([1])


@st.composite
def trusted_cases(draw):
    """(p, q, c, k): two polynomials in 2 variables with coefficients all in
    Q(i) or all in Q(sqrt 2), a nonzero scalar of the same kind, and a
    degree."""
    coeffs = draw(st.sampled_from([gaussian_coeffs, sqrt2_coeffs]))
    polys = st.builds(
        lambda d: MultiPoly(2, d),
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        coeffs, max_size=5))
    c = draw(coeffs.filter(lambda c: not c.is_zero()))
    return draw(polys), draw(polys), c, draw(st.integers(0, 6))


class TestTrustedResults:
    """Arithmetic results skip the validating constructor; they must still
    hold its invariant."""

    @staticmethod
    def results(p, q, c, k):
        yield p * q
        yield (p + q) * (p - q)  # the cross terms cancel inside one product
        yield p.mul_trunc(q, k)
        yield p + q
        yield p - q
        yield -p
        yield p.scale(c)
        yield p.scale(3)
        yield p * Fraction(-1, 2)
        yield p.derivative(0)
        yield p.derivative(1)
        yield p.truncate(k)
        yield p.homogeneous_component(k)
        yield p ** (k % 4)
        yield (p * X * X).divide_by_var_power(0, 2)
        if not q.is_zero():
            yield (p * q).divide_exact(q)

    @given(trusted_cases())
    @settings(max_examples=60, deadline=None)
    def test_invariant_holds(self, case):
        for r in self.results(*case):
            assert r.nvars == 2
            for e, c in r.terms.items():
                assert type(e) is tuple and len(e) == 2
                assert not isinstance(c, (int, Fraction))
                assert not c.is_zero()
            assert MultiPoly(2, r.terms).terms == r.terms

    def test_public_constructor_still_validates(self):
        p = MultiPoly(2, {(1, 0): 3, (0, 1): Fraction(0), (0, 0): GaussianRational(0)})
        assert p.terms == {(1, 0): GaussianRational(3, 0)}
        with pytest.raises(VariableCountMismatch):
            MultiPoly(2, {(1,): 1})
