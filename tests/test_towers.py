"""Field towers: construction caps, arithmetic, factorization, embeddings."""

import operator
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

import folsing.towers as towers
from folsing.cli import main, shipped_corpus_root
from folsing.errors import (
    DivisionByZero,
    ExtensionDegreeExceeded,
    NotMonic,
    ReducibleMinimalPolynomial,
    TowerDepthExceeded,
    TowerMismatch,
)
from folsing.scalars import GaussianRational, fraction_sqrt, gaussian_sqrt
from folsing.towers import (
    TRIVIAL,
    factor_univariate,
    tp_deg,
    tp_derivative,
    tp_divmod,
    tp_gcd,
    tp_monic,
    tp_mul,
    tp_resultant,
    tp_trim,
)
from test_local import _within


@pytest.fixture(scope="module")
def sqrt2_tower():
    return TRIVIAL.adjoin_root([-2, 0, 1], name="r2")


@pytest.fixture(scope="module")
def deep_tower(sqrt2_tower):
    T2, _ = sqrt2_tower
    return T2.adjoin_root([T2.element(-2), T2.zero(), T2.zero(), T2.one()], name="c3")


class TestConstruction:
    def test_gaussian_base_contains_i(self):
        e = TRIVIAL.element(GaussianRational(0, 1))
        assert (e * e + 1).is_zero()

    def test_adjoin_i_over_gaussian_fails(self):
        with pytest.raises(ReducibleMinimalPolynomial):
            TRIVIAL.adjoin_root([1, 0, 1])

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleMinimalPolynomial):
            TRIVIAL.adjoin_root([-4, 0, 1])  # (t-2)(t+2)

    def test_not_monic_rejected(self):
        with pytest.raises(NotMonic):
            TRIVIAL.adjoin_root([-2, 0, 2])

    def test_degree_cap(self):
        with pytest.raises(ExtensionDegreeExceeded):
            TRIVIAL.adjoin_root([2, 0, 0, 0, 0, 0, 0, 1])  # degree 7

    def test_depth_cap(self, deep_tower):
        T3, _ = deep_tower
        T4, _ = T3.adjoin_root([T3.element(-5), T3.zero(), T3.one()], name="r5")
        assert T4.depth == 3
        with pytest.raises(TowerDepthExceeded):
            T4.adjoin_root([T4.element(-7), T4.zero(), T4.one()])

    def test_caps_configurable(self):
        with towers.tower_caps(degree=8):
            T, _ = TRIVIAL.adjoin_root([2, 0, 0, 0, 0, 0, 0, 1])
        assert T.ext_degree() == 7


class TestArithmetic:
    def test_generator_satisfies_minpoly(self, sqrt2_tower):
        _, r2 = sqrt2_tower
        assert (r2 * r2 - 2).is_zero()

    def test_inverse(self, sqrt2_tower):
        _, r2 = sqrt2_tower
        v = r2 + Fraction(1, 3)
        assert (v * v.inverse()).is_one()
        with pytest.raises(DivisionByZero):
            (r2 - r2).inverse()

    def test_deep_arith(self, deep_tower):
        T3, c3 = deep_tower
        r2 = T3.gen(1)
        v = c3 * r2 + 1
        assert ((v * v.inverse()) - 1).is_zero()
        assert (c3 ** 3 - 2).is_zero()
        assert ((c3 + r2) - r2 - c3).is_zero()

    def test_prefix_lift(self, sqrt2_tower, deep_tower):
        T2, r2 = sqrt2_tower
        T3, c3 = deep_tower
        assert (r2 + c3) == (T3.element(r2) + c3)
        assert T2.is_prefix_of(T3)

    def test_unrelated_towers_rejected(self, sqrt2_tower):
        _, r2 = sqrt2_tower
        _, r3 = TRIVIAL.adjoin_root([-3, 0, 1], name="r3")
        with pytest.raises(TowerMismatch):
            r2 + r3

    def test_embedding_consistency(self, deep_tower):
        T3, c3 = deep_tower
        r2 = T3.gen(1)
        v = c3 * c3 + r2
        z = complex(v)
        assert abs(z - (complex(c3) ** 2 + complex(r2))) < 1e-9

    def test_embedding_is_a_root(self, sqrt2_tower):
        _, r2 = sqrt2_tower
        z = complex(r2)
        assert abs(z * z - 2) < 1e-9

    def test_json_roundtrip_shape(self, sqrt2_tower):
        T2, r2 = sqrt2_tower
        assert r2.to_json() == ["0", "1"]
        d = T2.describe()
        assert d["base"] == "gaussian"
        assert d["levels"][0]["minpoly"] == ["-2", "0", "1"]


coeff = st.integers(min_value=-5, max_value=5)


class TestDepthZeroElements:
    """A depth-0 tower's elements are GaussianRationals, not wrappers."""

    @pytest.mark.parametrize("value", [3, Fraction(-2, 7), GaussianRational(5, 0)],
                             ids=["int", "Fraction", "GaussianRational"])
    def test_element_is_a_gaussian_rational(self, value):
        e = TRIVIAL.element(value)
        assert type(e) is GaussianRational and e == value

    def test_zero_and_one(self):
        assert type(TRIVIAL.zero()) is GaussianRational and TRIVIAL.zero().is_zero()
        assert type(TRIVIAL.one()) is GaussianRational and TRIVIAL.one().is_one()

    def test_factors_are_gaussian_rationals(self):
        # 2 (t^2 + 1)(t - 1/2)^2, with t^2 + 1 = (t - i)(t + i)
        unit, fac = factor_univariate(
            product(TRIVIAL, [2], [1, 0, 1], [Fraction(-1, 2), 1], [Fraction(-1, 2), 1]),
            TRIVIAL)
        assert type(unit) is GaussianRational and unit == 2
        assert len(fac) == 3
        assert all(type(c) is GaussianRational for h, _ in fac for c in h)


OTHERS = [GaussianRational(Fraction(3, 2), -1), 3, Fraction(-2, 7)]


class TestMixedOperands:
    """A depth-1 element meets a GaussianRational, an int or a Fraction in
    either operand order."""

    @pytest.mark.parametrize("other", OTHERS, ids=["gaussian", "int", "fraction"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv],
                             ids=["add", "sub", "mul", "truediv"])
    def test_both_orders_agree_with_the_lift(self, sqrt2_tower, op, other):
        T2, r2 = sqrt2_tower
        e = r2 + Fraction(1, 3)
        lifted = T2.element(other)
        for got, want in ((op(e, other), op(e, lifted)),
                          (op(other, e), op(lifted, e))):
            assert got.tower is T2
            assert got == want and want == got

    @pytest.mark.parametrize("other", OTHERS, ids=["gaussian", "int", "fraction"])
    def test_equality_both_orders(self, sqrt2_tower, other):
        T2, r2 = sqrt2_tower
        lifted = T2.element(other)
        assert lifted == other and other == lifted
        assert not (lifted != other) and not (other != lifted)
        assert r2 != other and other != r2


class TestHashAgreesWithEquality:
    def test_base_value_hashes_like_its_gaussian_rational(self, sqrt2_tower):
        T2, _ = sqrt2_tower
        for g in (GaussianRational(3), GaussianRational(Fraction(1, 2), -4),
                  GaussianRational(0)):
            e = T2.element(g)
            assert e == g and hash(e) == hash(g)
            assert len({e, g}) == 1

    def test_lift_hashes_like_the_element(self, sqrt2_tower, deep_tower):
        T2, r2 = sqrt2_tower
        T3, _ = deep_tower
        v = r2 * 3 + Fraction(1, 5)
        w = T3.element(v)
        assert w == v and hash(w) == hash(v)
        assert len({v, w}) == 1
        g = GaussianRational(-7, 2)
        assert hash(T3.element(g)) == hash(g) == hash(T3.element(T2.element(g)))

    @pytest.mark.parametrize("value", [3, Fraction(1, 2)], ids=["int", "Fraction"])
    def test_real_base_value_hashes_like_its_int_or_fraction(self, sqrt2_tower, value):
        T2, _ = sqrt2_tower
        e = T2.element(value)
        assert e == value and hash(e) == hash(value)
        assert len({e, value, GaussianRational(value)}) == 1


class TestPolyToolkit:
    @given(st.lists(coeff, min_size=1, max_size=5), st.lists(coeff, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, ps, qs):
        P = [TRIVIAL.element(c) for c in ps]
        Q = tp_trim([TRIVIAL.element(c) for c in qs])
        if not Q:
            return
        q, r = tp_divmod(P, Q)
        assert tp_trim(tp_mul(q, Q) + [TRIVIAL.zero()] * 0) is not None
        from folsing.towers import tp_add
        assert tp_trim(tp_add(tp_mul(q, Q), r)) == tp_trim(P)
        assert tp_deg(r) < tp_deg(Q)

    def test_gcd(self):
        T = TRIVIAL
        p = [T.element(c) for c in (-1, 0, 1)]       # t^2-1
        q = [T.element(c) for c in (1, 1)]           # t+1
        g = tp_gcd(p, q)
        assert [str(c) for c in g] == ["1", "1"]

    def test_resultant_shared_root(self):
        T = TRIVIAL
        p = [T.element(c) for c in (-1, 0, 1)]
        q = [T.element(c) for c in (-1, 1)]
        assert tp_resultant(p, q).is_zero()


class TestFactorization:
    def test_gaussian_split(self):
        _, fac = factor_univariate([1, 0, 1], TRIVIAL)
        assert len(fac) == 2 and all(m == 1 for _, m in fac)

    def test_rational_base_keeps_irreducible(self):
        assert strings_over_q([1, 0, 1]) == [(["1", "0", "1"], 1)]

    def test_multiplicities(self):
        _, fac = factor_univariate([0, 0, 1, 2, 1], TRIVIAL)  # t^2 (t+1)^2
        ms = sorted(m for _, m in fac)
        assert ms == [2, 2]

    def test_unit_preserved(self):
        u, fac = factor_univariate([0, 3], TRIVIAL)
        assert str(u) == "3" and len(fac) == 1

    def test_split_in_tower(self, sqrt2_tower):
        T2, r2 = sqrt2_tower
        _, fac = factor_univariate([T2.element(-2), T2.zero(), T2.one()], T2)
        assert len(fac) == 2
        assert [[str(c) for c in h] for h, _ in fac] == [["(-1)*r2", "1"], ["r2", "1"]]

    def test_deep_tower_factor(self, deep_tower):
        T3, c3 = deep_tower
        # (t - c3)(t - r2) expanded, must re-split
        r2 = T3.gen(1)
        p = tp_mul([-c3, T3.one()], [-r2, T3.one()])
        _, fac = factor_univariate(p, T3)
        assert sorted(fac, key=str) == sorted(
            [([-c3, T3.one()], 1), ([-r2, T3.one()], 1)], key=str)

    def test_norm_shift_past_five(self, sqrt2_tower):
        # the roots m*r2, m = -5..5, make the norm of f(t - c*r2) square
        # for every shift |c| <= 5: the descent needs c = 6
        T2, r2 = sqrt2_tower
        p = [T2.one()]
        for m in range(-5, 6):
            p = tp_mul(p, [r2 * -m, T2.one()])
        _, fac = factor_univariate(p, T2)
        assert all(len(h) == 2 and mult == 1 for h, mult in fac)
        assert sorted((-h[0] for h, _ in fac), key=lambda r: r.sort_key()) == sorted(
            (r2 * m for m in range(-5, 6)), key=lambda r: r.sort_key())

    def test_irreducible_stays(self, sqrt2_tower):
        T2, _ = sqrt2_tower
        _, fac = factor_univariate([T2.element(-3), T2.zero(), T2.one()], T2)
        assert len(fac) == 1 and tp_deg(fac[0][0]) == 2

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_factor_product_reconstructs(self, cs):
        P = tp_trim([TRIVIAL.element(c) for c in cs])
        if tp_deg(P) < 1:
            return
        unit, fac = factor_univariate(P, TRIVIAL)
        acc = [TRIVIAL.element(unit)]
        for f, m in fac:
            for _ in range(m):
                acc = tp_mul(acc, f)
        assert tp_trim(acc) == P


I = GaussianRational(0, 1)
SD4 = [1, 0, -10, 0, 1]                       # roots +-sqrt2 +-sqrt3
SD8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]    # roots +-sqrt2 +-sqrt3 +-sqrt5


def product(tower, *factors):
    """Product of polynomials given as ascending coefficient lists."""
    acc = [tower.one()]
    for f in factors:
        acc = tp_mul(acc, [tower.element(c) for c in f])
    return acc


def factor_strings(coeffs, tower):
    _, fac = factor_univariate(coeffs, tower)
    return [([str(c) for c in h], m) for h, m in fac]


def strings_over_q(coeffs):
    """factor_strings over Q, for a squarefree monic polynomial with
    rational coefficients: the Zassenhaus factors that the descent from
    Q(i) works with, in factor_univariate's order."""
    fac = towers._factor_rational([TRIVIAL.element(c) for c in coeffs])
    fac.sort(key=lambda h: (tp_deg(h), [c.sort_key() for c in h]))
    return [([str(c) for c in h], 1) for h in fac]


class TestBaseFactorization:
    """Factorizations over Q and Q(i) whose answers are known in closed form."""

    @pytest.mark.parametrize("factor", [strings_over_q,
                                        lambda p: factor_strings(p, TRIVIAL)],
                             ids=["Q", "Q(i)"])
    @pytest.mark.parametrize("poly", [SD4, SD8], ids=["sd4", "sd8"])
    def test_swinnerton_dyer_irreducible(self, poly, factor):
        # they split mod every prime into factors of degree <= 2, so the
        # modular factors must be recombined before irreducibility shows
        assert factor(poly) == [([str(c) for c in poly], 1)]

    def test_t4_plus_1(self):
        assert strings_over_q([1, 0, 0, 0, 1]) == [
            (["1", "0", "0", "0", "1"], 1)]
        assert factor_strings([1, 0, 0, 0, 1], TRIVIAL) == [
            (["-i", "0", "1"], 1), (["i", "0", "1"], 1)]

    def test_cyclotomic_12(self):
        phi12 = [1, 0, -1, 0, 1]
        assert strings_over_q(phi12) == [(["1", "0", "-1", "0", "1"], 1)]
        assert factor_strings(phi12, TRIVIAL) == [
            (["-1", "-i", "1"], 1), (["-1", "i", "1"], 1)]

    def test_non_rational_gaussian_product(self):
        p = product(TRIVIAL, [-1 - 2 * I, 1], [I, 0, 1])
        assert factor_strings(p, TRIVIAL) == [
            (["-1-2*i", "1"], 1), (["i", "0", "1"], 1)]

    def test_coefficients_past_64_bits(self):
        big, bigger = 2 ** 70 + 3, 3 ** 50
        p = product(TRIVIAL, [-big, 1], [5, bigger, 1])
        assert max(abs(c.as_fraction()) for c in p) > 2 ** 64
        expected = [([str(-big), "1"], 1), (["5", str(bigger), "1"], 1)]
        assert strings_over_q(p) == expected
        p = product(TRIVIAL, [-big, 1], [5, bigger, 1], [2 ** 65 * I, 1])
        assert factor_strings(p, TRIVIAL) == [
            ([str(-big), "1"], 1), ([f"{2 ** 65}*i", "1"], 1),
            (["5", str(bigger), "1"], 1)]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_coeff(sympy, g):
    re, im = g.re, g.im
    return (sympy.Rational(re.numerator, re.denominator)
            + sympy.I * sympy.Rational(im.numerator, im.denominator))


def _fraction(r):
    return Fraction(int(r.p), int(r.q))


class TestFactorizationAgainstSympy:
    """sympy's ``factor_list`` over QQ and QQ_I as a reference factorizer:
    over QQ for the Zassenhaus step of the descent, on squarefree monic
    products, over QQ_I for factor_univariate."""

    @pytest.mark.parametrize("domain", ["QQ", "QQ_I"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_factor_list(self, sympy, domain, data):
        factor = st.lists(scalars(imaginary=domain == "QQ_I"), min_size=2,
                          max_size=5).filter(lambda f: not f[-1].is_zero())
        p = product(TRIVIAL, *data.draw(st.lists(factor, min_size=1,
                                                 max_size=3)))
        if domain == "QQ":
            p = tp_monic(p)
            assume(tp_deg(tp_gcd(p, tp_derivative(p))) == 0)
            ours = [(h, 1) for h in towers._factor_rational(p)]
        else:
            ours = factor_univariate(p, TRIVIAL)[1]
        assert_matches_sympy(sympy, p, ours, domain)


def scalars(imaginary=True):
    """Gaussian rationals (rationals unless ``imaginary``) with small
    numerators and denominators."""
    im = st.integers(-4, 4) if imaginary else st.just(0)
    return st.builds(lambda a, b, d: GaussianRational(Fraction(a, d),
                                                      Fraction(b, d)),
                     st.integers(-4, 4), im, st.integers(1, 3))


def assert_matches_sympy(sympy, p, ours, domain):
    """The (factor, multiplicity) pairs ``ours`` of p and sympy's
    factor_list give the same monic factors with the same
    multiplicities."""
    t = sympy.Symbol("t")
    ref = sympy.Poly([_sympy_coeff(sympy, c.as_gaussian_or_none())
                      for c in reversed(p)], t, domain=domain)
    expected = sorted(
        (tuple((_fraction(sympy.re(c)), _fraction(sympy.im(c)))
               for c in reversed(g.monic().all_coeffs())), m)
        for g, m in ref.factor_list()[1])
    got = sorted((tuple(c.sort_key() for c in h), m) for h, m in ours)
    assert got == expected


@st.composite
def quadratics(draw):
    """A quadratic over Q(i) times a nonzero unit: half of them built from
    drawn roots or a drawn discriminant, half drawn freely."""
    scalar = scalars()
    one = TRIVIAL.one()
    unit = draw(scalar.filter(lambda u: not u.is_zero()))
    kind = draw(st.sampled_from(["equal", "zero", "conjugate", "disc", "free",
                                 "free", "free", "free"]))
    if kind == "free":
        return [draw(scalar), draw(scalar), unit]
    if kind == "disc":
        # b^2 - 4c = D, purely imaginary
        b = draw(scalar)
        disc = GaussianRational(0, draw(st.integers(1, 12)))
        p = [(b * b - disc) * Fraction(1, 4), b, one]
    else:
        # conjugate roots give rational coefficients
        r = draw(scalar)
        other = {"equal": r, "zero": 0 * r, "conjugate": r.conjugate()}[kind]
        p = tp_mul([-r, one], [-other, one])
    return [c * unit for c in p]


class TestQuadraticsAgainstSympy:
    """Quadratics over Q(i) split by an exact square root of their
    discriminant; sympy's ``factor_list`` is the reference."""

    @given(quadratics())
    @settings(max_examples=80, deadline=None)
    def test_matches_factor_list(self, sympy, p):
        assert_matches_sympy(sympy, p, factor_univariate(p, TRIVIAL)[1], "QQ_I")


class TestExactSquareRoot:
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
           st.integers(1, 10 ** 4))
    @settings(max_examples=200, deadline=None)
    def test_square_of_a_gaussian_rational(self, a, b, d):
        w = GaussianRational(Fraction(a, d), Fraction(b, d))
        s = gaussian_sqrt(w * w)
        assert s == w or s == -w

    @given(st.fractions(max_denominator=10 ** 4))
    @settings(max_examples=200, deadline=None)
    def test_square_of_a_rational(self, q):
        assert fraction_sqrt(q * q) == abs(q)
        assert gaussian_sqrt(GaussianRational(q * q)) == abs(q)

    @pytest.mark.parametrize("value, over_qi, over_q", [
        (GaussianRational(0), GaussianRational(0), Fraction(0)),
        (GaussianRational(2), None, None),
        (GaussianRational(0, 1), None, None),
        (GaussianRational(-1), GaussianRational(0, 1), None),
    ], ids=["0", "2", "i", "-1"])
    def test_named_values(self, value, over_qi, over_q):
        assert gaussian_sqrt(value) == over_qi
        if value.is_rational():
            assert fraction_sqrt(value.as_fraction()) == over_q
        # t^2 - value splits exactly when the root lies in Q(i)
        _, fac = factor_univariate([-value, 0, 1], TRIVIAL)
        assert sum(m for _, m in fac) == (1 if over_qi is None else 2)


class TestQuadraticsBypassTheFactorizer:
    def test_corpus_sends_no_quadratic_to_zassenhaus_or_the_norm(self, monkeypatch):
        """``resolve`` and ``first-integral`` on every shipped corpus file
        factor their quadratics over Q(i) in closed form."""
        quadratics_seen, leaked = [], []

        def spy_on(name, calls):
            original = getattr(towers, name)

            def spy(f, *args):
                if tp_deg(f) == 2 and type(f[-1]) is GaussianRational:
                    calls.append((name, [str(c) for c in f]))
                return original(f, *args)

            monkeypatch.setattr(towers, name, spy)

        spy_on("_factor_squarefree", quadratics_seen)
        spy_on("_factor_trager", leaked)
        spy_on("_factor_rational", leaked)
        runner = CliRunner()
        for case in sorted(shipped_corpus_root().iterdir()):
            if not case.name.endswith(".vf"):
                continue
            for command in ("resolve", "first-integral"):
                result = runner.invoke(main, [command, "--in", str(case)])
                assert result.exit_code in (0, 1), result.output
        assert quadratics_seen
        assert leaked == []


SQRT2, R2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")


@st.composite
def sqrt2_quadratics(draw):
    """A quadratic over Q(i)(sqrt 2) times a nonzero unit: a square, a
    product of two drawn roots, or drawn freely."""
    scalar = st.builds(lambda a, b: SQRT2.element(a) + R2 * b,
                       scalars(), scalars())
    one = SQRT2.one()
    unit = draw(scalar.filter(lambda u: not u.is_zero()))
    kind = draw(st.sampled_from(["square", "split", "free"]))
    if kind == "free":
        return [draw(scalar), draw(scalar), unit]
    r = draw(scalar)
    other = r if kind == "square" else draw(scalar)
    return [c * unit for c in tp_mul([-r, one], [-other, one])]


def general_path(p, tower):
    """factor_univariate without the quadratic shortcut: the factors of the
    squarefree part f / gcd(f, f'), each divided out as often as it goes."""
    p = tp_trim([tower.element(c) for c in p])
    out = towers._factor_with_multiplicities(towers.tp_monic(p), tower)
    out.sort(key=lambda fm: (tp_deg(fm[0]), [c.sort_key() for c in fm[0]]))
    return p[-1], out


class TestQuadraticShortcut:
    """A quadratic's discriminant decides square against squarefree; the
    answer is the general path's: unit, factors, multiplicities, order and
    coefficient types."""

    @staticmethod
    def assert_same(p, tower):
        got, want = factor_univariate(p, tower), general_path(p, tower)
        assert got == want
        assert [[type(c) for c in h] for h, _ in got[1]] == \
            [[type(c) for c in h] for h, _ in want[1]]

    @given(quadratics())
    @settings(max_examples=80, deadline=None)
    def test_depth_zero(self, p):
        self.assert_same(p, TRIVIAL)

    @given(sqrt2_quadratics())
    @settings(max_examples=40, deadline=None)
    def test_depth_one(self, p):
        self.assert_same(p, SQRT2)

    def test_square_skips_the_squarefree_part(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("squarefree part taken for a quadratic")

        monkeypatch.setattr(towers, "_factor_with_multiplicities", forbidden)
        r = SQRT2.element(3) + R2
        one = SQRT2.one()
        unit, factors = factor_univariate(tp_mul([-r, one], [-r, one]), SQRT2)
        assert unit == 1
        assert factors == [([-r, one], 2)]


# Depth-2 towers: Q(i)(sqrt 2)(cbrt 2), and Q(i)(s2)(w) with s2^2 = 2
# and w^2 = 1 + s2, whose top minimal polynomial has a coefficient outside
# the base field.
CBRT2, C3 = SQRT2.adjoin_root([-2, 0, 0, 1], name="c3")
QS2, S2 = TRIVIAL.adjoin_root([-2, 0, 1], name="s2")
NESTED, W = QS2.adjoin_root([-(S2 + 1), 0, 1], name="w")
DEPTH_TWO = {"cbrt2": CBRT2, "nested": NESTED}


def depth_two_elements(tower):
    """Elements of a depth-2 tower with small base-field coordinates."""
    g1, g2 = tower.gen(1), tower.gen(2)
    basis = [g1 ** j * g2 ** k for k in range(tower.levels[1].degree)
             for j in range(tower.levels[0].degree)]
    return st.lists(scalars(), min_size=len(basis), max_size=len(basis)).map(
        lambda cs: sum((b * c for b, c in zip(basis, cs)), tower.zero()))


@pytest.fixture(scope="module")
def depth_three():
    """Each depth-2 tower with sqrt 5 adjoined on top."""
    return {key: tower.adjoin_root([-5, 0, 1], name="r5")[0]
            for key, tower in DEPTH_TWO.items()}


class TestDepthTwo:
    """Arithmetic over towers whose coordinates are themselves tower
    elements."""

    @pytest.mark.parametrize("key", sorted(DEPTH_TWO))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_field_axioms(self, key, data):
        tower = DEPTH_TWO[key]
        a, b, c = (data.draw(depth_two_elements(tower)) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a - b) + b == a
        if not a.is_zero():
            assert (a * a.inverse()).is_one() and a * a.inverse() == 1
            assert (b / a) * a == b
        za, zb = complex(a), complex(b)
        assert abs(complex(a * b) - za * zb) <= 1e-9 * (1 + abs(za) * abs(zb))

    @pytest.mark.parametrize("key", sorted(DEPTH_TWO))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_lift_keeps_equality_and_hash(self, depth_three, key, data):
        tower = DEPTH_TWO[key]
        a = data.draw(depth_two_elements(tower))
        lifted = depth_three[key].element(a)
        assert lifted.tower.depth == 3
        assert lifted == a and a == lifted and hash(lifted) == hash(a)
        # an element of the depth-1 tower below
        low = tower.parent.gen() * data.draw(scalars()) + data.draw(scalars())
        assert tower.element(low) == low and hash(tower.element(low)) == hash(low)
        assert hash(lifted * 0 + low) == hash(low)

    def test_pinned_gaussian_elements(self):
        r2 = CBRT2.element(R2)
        F = Fraction
        cases = [
            (C3 * r2 + F(1, 3), "1/3+(r2)*c3",
             [["1/3", "0"], ["0", "1"], ["0", "0"]],
             (((F(1, 3), 0), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 0)))),
            (C3 * C3 * (I - r2 * F(1, 2)) + 5, "5+(i+(-1/2)*r2)*c3^2",
             [["5", "0"], ["0", "0"], ["i", "-1/2"]],
             (((5, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 1), (F(-1, 2), 0)))),
            ((C3 + r2).inverse(), "-1+r2+(-1+(1/2)*r2)*c3+(-1/2+(1/2)*r2)*c3^2",
             [["-1", "1"], ["-1", "1/2"], ["-1/2", "1/2"]],
             (((-1, 0), (1, 0)), ((-1, 0), (F(1, 2), 0)),
              ((F(-1, 2), 0), (F(1, 2), 0)))),
            (-C3 * C3, "(-1)*c3^2", [["0", "0"], ["0", "0"], ["-1", "0"]],
             (((0, 0), (0, 0)), ((0, 0), (0, 0)), ((-1, 0), (0, 0)))),
            (CBRT2.element(I), "i", [["i", "0"], ["0", "0"], ["0", "0"]],
             (((0, 1), (0, 0)), ((0, 0), (0, 0)), ((0, 0), (0, 0)))),
            (CBRT2.zero(), "0", [["0", "0"]] * 3, (((0, 0), (0, 0)),) * 3),
        ]
        for e, text, js, key in cases:
            assert (str(e), e.to_json(), e.sort_key()) == (text, js, key)

    def test_pinned_nested_elements(self):
        s2 = NESTED.element(S2)
        cases = [
            (W * s2 - 2, "-2+(s2)*w", [["-2", "0"], ["0", "1"]],
             (((-2, 0), (0, 0)), ((0, 0), (1, 0)))),
            (W.inverse(), "(-1+s2)*w", [["0", "0"], ["-1", "1"]],
             (((0, 0), (0, 0)), ((-1, 0), (1, 0)))),
            ((W + s2) ** 3, "6+(5)*s2+(7+s2)*w", [["6", "5"], ["7", "1"]],
             (((6, 0), (5, 0)), ((7, 0), (1, 0)))),
        ]
        for e, text, js, key in cases:
            assert (str(e), e.to_json(), e.sort_key()) == (text, js, key)

    @pytest.mark.parametrize("key, levels", [
        ("cbrt2",
         [("r2", 2, ["-2", "0", "1"], (-1.4142135623730951, 0.0)),
          ("c3", 3, [["-2", "0"], ["0", "0"], ["0", "0"], ["1", "0"]],
           (-0.6299605249474369, -1.091123635971722))]),
        ("nested",
         [("s2", 2, ["-2", "0", "1"], (-1.4142135623730951, 0.0)),
          ("w", 2, [["-1", "-1"], ["0", "0"], ["1", "0"]],
           (0.0, -0.6435942529055827))]),
    ])
    def test_pinned_describe(self, key, levels):
        d = DEPTH_TWO[key].describe()
        assert d["base"] == "gaussian"
        got = [(lev["name"], lev["degree"], lev["minpoly"]) for lev in d["levels"]]
        assert got == [level[:3] for level in levels]
        for lev, (*_, emb) in zip(d["levels"], levels):
            assert lev["embedding"] == pytest.approx(list(emb), abs=1e-12)

    def test_pinned_factorization_within_budget(self):
        # about 1.7 s with the squarefree test gcd(g, conj g) at the Q(i)
        # step; gcd(N, N') of twice the degree there takes about 50 s
        i, one = CBRT2.element(I), CBRT2.one()
        p = product(CBRT2, [-i, one], [-C3, one], [-i - C3, one], [5, 0, 1])
        unit, fac = _within(10, factor_univariate, p, CBRT2)
        assert unit == 1
        assert [([str(c) for c in h], m) for h, m in fac] == [
            (["-i+(-1)*c3", "1"], 1), (["-i", "1"], 1), (["(-1)*c3", "1"], 1),
            (["5", "0", "1"], 1)]

    def test_towers_built_separately_are_equal_and_mix(self):
        T2, r2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")
        T3, c3 = T2.adjoin_root([-2, 0, 0, 1], name="c3")
        assert T3 is not CBRT2 and T3.parent is not SQRT2
        assert T3 == CBRT2 and hash(T3) == hash(CBRT2)
        assert SQRT2.is_prefix_of(T3) and T2.is_prefix_of(CBRT2)
        assert c3 == C3 and hash(c3) == hash(C3)
        assert len({c3, C3, r2, R2, CBRT2.element(R2)}) == 2
        for total in (c3 + C3, C3 + c3):
            assert total == C3 * 2 and total == c3 * 2
        assert c3 * r2 - C3 * R2 == 0
        assert (CBRT2.element(r2) * c3).tower == T3
