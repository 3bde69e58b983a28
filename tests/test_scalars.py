"""Exact Gaussian-rational scalars."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from folsing.errors import DivisionByZero
from folsing.scalars import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    format_gaussian,
    gaussian_triple,
    max_bit_length,
    power,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)

# real and imaginary parts for the Fraction-pair reference; zero parts are
# drawn often so that the all-real fast path is exercised
parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10 ** 6, 10 ** 6).map(Fraction),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 5),
)


def _reference_format(re: Fraction, im: Fraction) -> str:
    """The canonical text computed on a pair of Fractions."""
    def frac(f):
        return str(f.numerator) if f.denominator == 1 \
            else f"{f.numerator}/{f.denominator}"

    if im == 0:
        return frac(re)
    imtxt = "i" if im == 1 else "-i" if im == -1 else f"{frac(im)}*i"
    if re == 0:
        return imtxt
    return f"{frac(re)}+{imtxt}" if im > 0 else f"{frac(re)}{imtxt}"


def _assert_matches_pair(g, re: Fraction, im: Fraction):
    assert (g.re, g.im) == (re, im)
    assert g == GaussianRational(re, im)
    # a real value hashes as the Fraction it equals, else as the pair
    assert hash(g) == (hash(re) if im == 0 else hash((re, im)))
    assert format_gaussian(g) == _reference_format(re, im)
    assert g.sort_key() == (re, im)
    # the stored triple (a + b*i)/d is in lowest terms
    a, b, d = g._a, g._b, g._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (re, im)


class TestGaussianRational:
    def test_constants(self):
        assert ZERO.is_zero() and ONE.is_one()
        assert (I * I) == GaussianRational(-1, 0)

    def test_field_axioms_spot(self):
        a = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
        b = GaussianRational(Fraction(1, 5), Fraction(4, 1))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * a == a * a + b * a
        assert (a / b) * b == a

    @given(gaussians)
    def test_add_neg_cancels(self, a):
        assert (a + (-a)).is_zero()

    @given(gaussians, gaussians)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(gaussians)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                a.inverse()
        else:
            assert (a * a.inverse()).is_one()

    @given(gaussians, gaussians)
    def test_conjugate_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_pow_negative(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        assert a ** -2 == (a * a).inverse()
        assert a ** 0 == ONE

    def test_int_fraction_interop(self):
        a = GaussianRational(1, 2)
        assert a + 1 == GaussianRational(2, 2)
        assert 2 * a == GaussianRational(2, 4)
        assert a - Fraction(1, 2) == GaussianRational(Fraction(1, 2), 2)
        assert a / 2 == GaussianRational(Fraction(1, 2), 1)

    def test_format(self):
        assert format_gaussian(GaussianRational(0, 0)) == "0"
        assert format_gaussian(GaussianRational(1, 0)) == "1"
        assert format_gaussian(GaussianRational(0, 1)) == "i"
        assert format_gaussian(GaussianRational(0, -1)) == "-i"
        assert format_gaussian(GaussianRational(Fraction(1, 2), 0)) == "1/2"
        assert format_gaussian(GaussianRational(0, Fraction(-2, 3))) == "-2/3*i"
        assert format_gaussian(GaussianRational(1, 1)) == "1+i"
        assert format_gaussian(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"

    def test_complex_value(self):
        z = complex(GaussianRational(Fraction(1, 2), Fraction(-1, 4)))
        assert z == 0.5 - 0.25j

    @given(st.tuples(parts, parts), st.tuples(parts, parts))
    @settings(max_examples=300, deadline=None)
    def test_triple_matches_fraction_pair(self, p, q):
        (a, b), (c, d) = p, q
        x, y = GaussianRational(a, b), GaussianRational(c, d)
        _assert_matches_pair(x, a, b)
        _assert_matches_pair(x + y, a + c, b + d)
        _assert_matches_pair(x - y, a - c, b - d)
        _assert_matches_pair(x * y, a * c - b * d, a * d + b * c)
        _assert_matches_pair(-x, -a, -b)
        _assert_matches_pair(x + c, a + c, b)
        _assert_matches_pair(c * x, c * a, c * b)
        _assert_matches_pair(c - x, c - a, -b)
        assert (x == y) == (p == q)
        assert (x == c) == (p == (c, 0))
        n = c * c + d * d
        if n:
            _assert_matches_pair(y.inverse(), c / n, -d / n)
            _assert_matches_pair(x / y, (a * c + b * d) / n,
                                 (b * c - a * d) / n)
        else:
            with pytest.raises(DivisionByZero):
                x / y

    def test_sort_key_orders(self):
        xs = [GaussianRational(1, 0), GaussianRational(0, 1), GaussianRational(-1, 2)]
        ordered = sorted(xs, key=lambda g: g.sort_key())
        assert ordered[0] == GaussianRational(-1, 2)

    @pytest.mark.parametrize("value", [3, 0, -7, Fraction(1, 2), Fraction(-9, 4)],
                             ids=["3", "0", "-7", "1/2", "-9/4"])
    def test_hash_agrees_with_an_equal_int_or_fraction(self, value):
        g = GaussianRational(value)
        assert g == value and hash(g) == hash(value)
        assert len({g, value}) == 1 and {g: 1}[value] == 1


def test_power_squares_no_further_than_the_top_bit():
    # n = 0 returns `one`; otherwise bit_length - 1 squares and one product
    # per further set bit
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    for n in range(70):
        products.clear()
        assert power(3, n, 1, mul) == 3 ** n
        want = n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0
        assert len(products) == want
    g = GaussianRational(Fraction(2, 3), -1)
    assert g ** 5 == g * g * g * g * g and g ** -2 == (g * g).inverse()


@given(st.lists(st.builds(GaussianRational,
                          st.fractions(max_denominator=2 ** 70),
                          st.fractions(max_denominator=2 ** 70))))
@settings(max_examples=60, deadline=None)
def test_max_bit_length(values):
    want = max((x.bit_length() for z in values for x in gaussian_triple(z)),
               default=0)
    assert max_bit_length(values) == want
