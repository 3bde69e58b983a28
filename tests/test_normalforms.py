"""Conjugacy engine: named reductions, residual identities, residue data."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folsing import normalforms, poly
from folsing.errors import (
    LinearPartNotPrepared,
    NotPoincareDomain,
    RequestTooLarge,
    ResonanceObstruction,
    ToolkitError,
    TruncationTooSmall,
    WrongClass,
    ZeroDivisorDelta,
)
from folsing.normalforms import (
    MAX_ORDER,
    ConjugacyResult,
    _diagonal_lambdas,
    center_straighten,
    conjugacy_residual,
    diagonalize_linear_part,
    dulac_reduce,
    invariant_plane_reduce,
    poincare_linearize,
    resonant_normal_form,
    saddle_node_prepare,
    siegel_straighten,
    solve_conjugacy,
)
from folsing.parsing import parse_field
from folsing.poly import MultiPoly, VectorFieldGerm, compose, exponents, scalar_to_json
from folsing.scalars import ONE, GaussianRational
from folsing.towers import TRIVIAL


def assert_conjugates(field, result):
    for r in conjugacy_residual(field, result):
        assert r.is_zero(), str(r)


class TestLinearize:
    def test_two_step_coefficients(self):
        field = parse_field("(x + x^2)*ddx + (5/2*y + x*y)*ddy")
        result = poincare_linearize(field, order=6)
        assert result.is_linearized()
        assert result.transform[0].coefficient((2, 0)) == 1
        assert result.transform[1].coefficient((1, 1)) == 1
        # composition feeds one degree up: x^2 in H1 times y-slope of f2
        assert result.transform[1].coefficient((2, 1)) == 1
        assert_conjugates(field, result)

    def test_saddle_rejected(self):
        field = parse_field("(x + y^2)*ddx + (-y + x^2)*ddy")
        with pytest.raises(NotPoincareDomain):
            poincare_linearize(field)

    def test_resonance_rejected(self):
        field = parse_field("(2*x + y^2)*ddx + y*ddy")
        with pytest.raises(ResonanceObstruction) as err:
            poincare_linearize(field)
        entries = err.value.payload["resonances"]
        assert {"component": 1, "exponents": [0, 2]} in entries

    def test_zero_divisor_from_raw_engine(self):
        field = parse_field("(2*x + y^2)*ddx + y*ddy")
        with pytest.raises(ZeroDivisorDelta):
            solve_conjugacy(field, lambda i, q, d: True, 4)

    def test_nondiagonal_rejected(self):
        field = parse_field("y*ddx + x*ddy")
        with pytest.raises(LinearPartNotPrepared):
            poincare_linearize(field)


class TestResonant:
    def test_minimal_model(self):
        field = parse_field("(2*x + y^2 + x^2)*ddx + y*ddy")
        result = resonant_normal_form(field, order=6)
        assert result.kept == {(0, (0, 2)): 1}
        nf = result.normal_form
        assert nf.components[0] == parse_field("(2*x + y^2)*ddx + y*ddy").components[0]
        assert nf.components[1] == parse_field("(2*x + y^2)*ddx + y*ddy").components[1]
        assert_conjugates(field, result)

    def test_equal_eigenvalues_linearize(self):
        field = parse_field("(x + y^2)*ddx + (y + x^2)*ddy")
        result = resonant_normal_form(field, order=6)
        assert result.is_linearized()
        assert_conjugates(field, result)


class TestStraighten:
    def test_axes_invariant(self):
        field = parse_field("(x + x^2 + x*y)*ddx + (-y + y^2)*ddy")
        result = siegel_straighten(field, order=8)
        f_nf, g_nf = result.normal_form.components
        zero = MultiPoly.zero(2)
        y1 = MultiPoly.variable(0, 2)
        y2 = MultiPoly.variable(1, 2)
        assert f_nf.substitute([zero, y2]).is_zero()
        assert g_nf.substitute([y1, zero]).is_zero()
        assert result.kept[(0, (1, 1))] == 1
        assert_conjugates(field, result)

    def test_wrong_arity(self):
        field = parse_field("x*ddx + y*ddy + z*ddz")
        with pytest.raises(WrongClass):
            siegel_straighten(field)


class TestCenterClear:
    def test_center_free_monomials_removed(self):
        field = parse_field("(x + x^2 + x*y)*ddx + (y^2 + x^2)*ddy")
        result = dulac_reduce(field, order=8)
        for (i, exps) in result.kept:
            assert exps[1] >= 1
        assert_conjugates(field, result)

    def test_wrong_spectrum(self):
        field = parse_field("x*ddx + y*ddy")
        with pytest.raises(WrongClass):
            dulac_reduce(field)


class TestInvariantPlane:
    def test_plane_and_linear_restriction(self):
        field = parse_field(
            "(x + x*y + z^2 + x*z)*ddx"
            " + (5/2*y + y^2)*ddy"
            " + (17/3*z + x^2 + y*z)*ddz")
        result = invariant_plane_reduce(field, order=6)
        c1, c2, c3 = result.normal_form.components
        zero = MultiPoly.zero(3)
        y1 = MultiPoly.variable(0, 3)
        y2 = MultiPoly.variable(1, 3)
        assert c3.substitute([y1, y2, zero]).is_zero()
        lin1 = c1.substitute([y1, y2, zero])
        lin2 = c2.substitute([y1, y2, zero])
        assert lin1 == y1
        assert lin2 == y2.scale(Fraction(5, 2))
        assert (0, (1, 0, 1)) in result.kept
        assert_conjugates(field, result)


class TestDiagonalize:
    def test_euler_linear_part(self):
        field = parse_field("x^2*ddx + (y - x)*ddy")
        diag, lam = diagonalize_linear_part(field)
        mat = diag.linear_part_matrix()
        assert mat[0][1] == 0 and mat[1][0] == 0
        assert {complex(mat[0][0]), complex(mat[1][1])} == {0j, 1 + 0j}

    def test_defective_raises(self):
        from folsing.errors import DegenerateEigenData
        field = parse_field("(x + y)*ddx + y*ddy")
        with pytest.raises(DegenerateEigenData):
            diagonalize_linear_part(field)

    def test_rational_saddle_eigenvalues_are_gaussian(self):
        # [[1, 2], [2, 1]] has eigenvalues 3 and -1: rational values come
        # back as GaussianRationals, the one scalar type of Q(i)
        field = parse_field("(x + 2*y + x*y)*ddx + (2*x + y)*ddy")
        diag, lam = diagonalize_linear_part(field)
        assert [type(v) for v in lam] == [GaussianRational, GaussianRational]
        assert set(lam) == {GaussianRational(3), GaussianRational(-1)}
        mat = diag.linear_part_matrix()
        assert mat[0][1].is_zero() and mat[1][0].is_zero()
        assert (mat[0][0], mat[1][1]) == lam


SQRT2, R2 = TRIVIAL.adjoin_root([-2, 0, 1], name="r2")


def _coefficients(name):
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if name == "Q":
        return small
    if name == "Q(i)":
        return st.builds(GaussianRational, small, small)
    return st.builds(lambda a, b: SQRT2.element(a) + R2 * b, small, small)


@st.composite
def diagonal_fields(draw):
    """Germs with a diagonal linear part (zero, equal and distinct entries)
    and up to three terms of degree 2..3 per component, over Q, Q(i) or
    Q(sqrt 2)."""
    coeff = _coefficients(draw(st.sampled_from(["Q", "Q(i)", "Q(sqrt2)"])))
    a = draw(coeff)
    d = draw(st.one_of(st.just(a), coeff))
    monomial = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: 2 <= sum(e) <= 3)
    components = []
    for lam, linear in ((a, (1, 0)), (d, (0, 1))):
        terms = draw(st.dictionaries(monomial, coeff, max_size=3))
        terms[linear] = lam
        components.append(MultiPoly(2, terms))
    return VectorFieldGerm(components)


class TestDiagonalShortcut:
    @given(diagonal_fields())
    @settings(max_examples=60, deadline=None)
    def test_same_answer_without_eigenvalues(self, field):
        """The field itself and its diagonal entries, with no characteristic
        polynomial factored."""
        mat = field.linear_part_matrix()

        def forbidden(*args, **kwargs):
            raise AssertionError("eigenvalues factored for a diagonal part")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(normalforms, "eigen_pair", forbidden)
            new_field, lam = diagonalize_linear_part(field)
        assert new_field is field
        assert lam == (mat[0][0], mat[1][1])
        assert [type(v) for v in lam] == [type(mat[0][0]), type(mat[1][1])]


def _center_graph(result):
    """c in the transform (y1 + c(y2), y2) of the center pattern."""
    return result.transform[0] - MultiPoly.variable(0, 2)


class TestCenterManifold:
    def test_euler_factorials(self):
        # strong coordinate u = y - x, center v = x:
        # invariant graph u = sum (k-1)! v^k
        field = parse_field("(x - y^2)*ddx + y^2*ddy")
        result = center_straighten(field, order=7)
        c = _center_graph(result)
        assert set(c.terms) == {(0, k) for k in range(2, 8)}
        for k in range(2, 8):
            assert c.coefficient((0, k)) == math.factorial(k - 1)
        assert result.transform[1] == MultiPoly.variable(1, 2)
        assert_conjugates(field, result)

    def test_wrong_class(self):
        for expr in ("x*ddx + 2*y*ddy", "x^2*ddx + y*ddy", "x^2*ddx + y^2*ddy"):
            with pytest.raises(WrongClass):
                center_straighten(parse_field(expr), order=6)


class TestSaddleNodePrepare:
    def test_euler(self):
        data = saddle_node_prepare(parse_field("x^2*ddx + (y - x)*ddy"))
        assert data.p == 1
        assert data.modulus == 0
        # center coordinate points along -(1, 1), so signs alternate
        for k in (2, 3, 4, 5):
            assert data.center[k] == (-1) ** k * math.factorial(k - 1)

    def test_residue_two(self):
        data = saddle_node_prepare(parse_field("(x + 2*x*y)*ddx + y^2*ddy"))
        assert (data.p, data.modulus) == (1, 2)

    def test_residue_five(self):
        data = saddle_node_prepare(parse_field("(x + 5*x*y)*ddx + y^2*ddy"))
        assert (data.p, data.modulus) == (1, 5)

    def test_residue_fraction_with_leading_coefficient(self):
        data = saddle_node_prepare(parse_field("(x + 7/3*x*y)*ddx + 2*y^2*ddy"))
        assert (data.p, data.modulus) == (1, Fraction(7, 6))

    def test_contact_order_two(self):
        data = saddle_node_prepare(parse_field("(x + 3*x*y^2)*ddx + y^3*ddy"))
        assert (data.p, data.modulus) == (2, 3)

    def test_invariance_under_linear_mix(self):
        # same germ as residue_two pushed through a unipotent change
        field = parse_field("(x + y + 2*x*y + y^2)*ddx + y^2*ddy")
        data = saddle_node_prepare(field)
        assert (data.p, data.modulus) == (1, 2)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            saddle_node_prepare(parse_field("x*ddx + y^4*ddy"), order=4)
        data = saddle_node_prepare(parse_field("x*ddx + y^4*ddy"), order=12)
        assert (data.p, data.modulus) == (3, 0)

    def test_center_dynamics_vanish(self):
        with pytest.raises(TruncationTooSmall):
            saddle_node_prepare(parse_field("x*ddx + x*y*ddy"), order=8)

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            saddle_node_prepare(parse_field("x*ddx - y*ddy"))

    def test_json_shape(self):
        data = saddle_node_prepare(parse_field("(x + 2*x*y)*ddx + y^2*ddy"))
        js = data.to_json()
        assert js["p"] == 1 and js["lambda"] == "2"

    def test_zero_eigenvalue_first(self):
        # residue_two with the variables swapped
        data = saddle_node_prepare(parse_field("x^2*ddx + (y + 2*x*y)*ddy"))
        assert (data.p, data.modulus) == (1, 2)


TAIL_EXPS = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


def _field_with_tail(lam1, lam2, coeffs):
    f = MultiPoly(2, {(1, 0): lam1})
    g = MultiPoly(2, {(0, 1): lam2})
    f = f + MultiPoly(2, {e: c for e, c in zip(TAIL_EXPS, coeffs[:7])})
    g = g + MultiPoly(2, {e: c for e, c in zip(TAIL_EXPS, coeffs[7:])})
    return VectorFieldGerm([f, g])


class TestResidualProperty:
    coeffs = st.lists(st.integers(min_value=-3, max_value=3),
                      min_size=14, max_size=14)

    @given(coeffs)
    @settings(max_examples=10, deadline=None)
    def test_linearize(self, cs):
        field = _field_with_tail(1, Fraction(5, 2), cs)
        result = poincare_linearize(field, order=8)
        assert_conjugates(field, result)

    @given(coeffs)
    @settings(max_examples=10, deadline=None)
    def test_resonant(self, cs):
        field = _field_with_tail(2, 1, cs)
        result = resonant_normal_form(field, order=8)
        assert_conjugates(field, result)

    @given(coeffs)
    @settings(max_examples=10, deadline=None)
    def test_straighten(self, cs):
        field = _field_with_tail(1, -1, cs)
        result = siegel_straighten(field, order=8)
        assert_conjugates(field, result)

    @given(coeffs)
    @settings(max_examples=10, deadline=None)
    def test_center_clear(self, cs):
        field = _field_with_tail(1, 0, cs)
        result = dulac_reduce(field, order=8)
        assert_conjugates(field, result)


def _poly(exps, coeffs):
    return MultiPoly(2, dict(zip(exps, coeffs)))


def _expanded(p, maps, order):
    """p(maps) as the sum of c * prod maps[j]**e_j, written with * and **,
    then truncated: independent of ``compose`` and its power table."""
    n = maps[0].nvars
    acc = MultiPoly.zero(n)
    for exps, c in p.terms.items():
        term = MultiPoly.constant(c, n)
        for m, e in zip(maps, exps):
            term = term * m ** e
        acc = acc + term
    return acc.truncate(order)


class TestComposeTrunc:
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    sources = st.lists(rationals, min_size=8, max_size=8)
    maps = st.lists(rationals, min_size=5, max_size=5)
    # a map is zero, vanishes at the origin, or carries a constant term
    shifts = st.one_of(st.none(), st.just(Fraction(0)), rationals)
    orders = st.one_of(st.integers(0, 6), st.just(math.inf))

    @given(st.lists(sources, min_size=1, max_size=3), maps, maps,
           shifts, shifts, orders)
    @settings(max_examples=60, deadline=None)
    def test_list_form_matches_single_calls(self, srcs, m1, m2, s1, s2, order):
        # sources may carry constant and linear terms
        polys = [_poly([(0, 0), (1, 0), (0, 1)] + TAIL_EXPS[:5], s)
                 for s in srcs]
        maps = [MultiPoly.zero(2) if s is None else
                _poly([(0, 0), (1, 0), (0, 1)] + TAIL_EXPS[:3], [s] + m)
                for m, s in ((m1, s1), (m2, s2))]
        together = compose(polys, maps, order)
        assert together == [compose([p], maps, order)[0] for p in polys]
        assert together == [_expanded(p, maps, order) for p in polys]


# ---------------------------------------------------------------------------
# the online engine against the recompose-per-degree solver it replaced
# ---------------------------------------------------------------------------

def _reference_solve(field, decide, order, pattern):
    """Recompose X(id + h) from scratch at every degree (the former solver)."""
    lam = _diagonal_lambdas(field)
    n = field.nvars
    linear = field.homogeneous_component(1)
    nonlinear = [field.components[i] - linear.components[i] for i in range(n)]
    variables = [MultiPoly.variable(j, n) for j in range(n)]
    h = [MultiPoly.zero(n) for _ in range(n)]
    g = [MultiPoly.zero(n) for _ in range(n)]
    kept = {}
    for d in range(2, order + 1):
        maps = [variables[i] + h[i] for i in range(n)]
        composed = compose(nonlinear, maps, d)
        for i in range(n):
            defect = composed[i]
            for j in range(n):
                defect = defect - h[i].derivative(j).mul_trunc(g[j], d)
            slice_d = defect.homogeneous_component(d)
            for exps in exponents(n, d):
                rhs = slice_d.coefficient(exps)
                rhs_zero = rhs.is_zero()
                delta = sum((q * lam[j] for j, q in enumerate(exps) if q),
                            start=0 * lam[i]) - lam[i]
                if decide(i, exps, delta):
                    if delta.is_zero():
                        if rhs_zero:
                            continue
                        raise ZeroDivisorDelta(
                            "resonant coefficient cannot be removed",
                            component=i + 1, exponents=list(exps))
                    if not rhs_zero:
                        h[i] = h[i] + MultiPoly.monomial(rhs * delta.inverse(), exps)
                elif not rhs_zero:
                    g[i] = g[i] + MultiPoly.monomial(rhs, exps)
                    kept[(i, exps)] = rhs
    transform = [variables[i] + h[i] for i in range(n)]
    normal = VectorFieldGerm([linear.components[i] + g[i] for i in range(n)])
    return transform, normal, kept


def _reference_center_manifold(field, order):
    """The former loop: compose B and A with (c, y2) afresh at every degree."""
    lam = _diagonal_lambdas(field)
    comp_a, comp_b = field.components
    a_nl = comp_a - field.homogeneous_component(1).components[0]
    y2 = MultiPoly.variable(1, 2)
    c = MultiPoly.zero(2)
    mu_inv = lam[0].inverse()
    for k in range(2, order + 1):
        b_of_c, a_of_c = compose([comp_b, a_nl], [c, y2], k)
        rhs = c.derivative(1).mul_trunc(b_of_c, k) - a_of_c
        coeff = rhs.homogeneous_component(k).coefficient((0, k))
        if not coeff.is_zero():
            c = c + MultiPoly.monomial(coeff * mu_inv, (0, k))
    return c


@functools.lru_cache(maxsize=None)
def _sqrt2():
    return TRIVIAL.adjoin_root([-2, 0, 1], name="r2")[1]


def _scalar(ring, a, b, den):
    if ring == "integer":
        return a
    if ring == "rational":
        return Fraction(a, den)
    return a + b * _sqrt2()


DECIDE = {
    "linearize": lambda i, q, delta: True,
    "resonant": lambda i, q, delta: not delta.is_zero(),
    "straighten": lambda i, q, delta: q[0] == 0 or q[1] == 0,
    "center-clear": lambda i, q, delta: q[1] == 0,
    "invariant-plane": lambda i, q, delta: (
        q[2] == 0 if i == 2 else q[2] == 0 or (q[0] == 0 and q[1] == 0)),
}

# resonant and nonresonant spectra; "r2" stands for the square root of 2
SPECTRA = {
    2: [(1, Fraction(5, 2)), (2, 1), (1, -1), (1, 0), (3, 2), (1, "r2"),
        ("r2", 1)],
    3: [(1, Fraction(5, 2), Fraction(17, 3)), (1, 2, 3), (1, -1, 2),
        (2, 0, "r2")],
}

HIGHER = {n: [e for d in (2, 3) for e in exponents(n, d)] for n in (2, 3)}


@st.composite
def _germs(draw, nvars, spectra=None, ring=None):
    ring = ring or draw(st.sampled_from(["integer", "rational", "sqrt2"]))
    lam = draw(st.sampled_from(spectra or SPECTRA[nvars]))
    coeff = st.tuples(st.integers(-3, 3), st.integers(-2, 2),
                      st.integers(1, 4))
    comps = []
    for i in range(nvars):
        terms = {tuple(int(k == i) for k in range(nvars)):
                 _sqrt2() if lam[i] == "r2" else lam[i]}
        for exps in draw(st.lists(st.sampled_from(HIGHER[nvars]),
                                  max_size=3, unique=True)):
            terms[exps] = _scalar(ring, *draw(coeff))
        comps.append(MultiPoly(nvars, terms))
    return VectorFieldGerm(comps)


def _outcome(solve):
    """The solver's result as text and JSON, or its error document."""
    try:
        transform, normal, kept = solve()
    except ToolkitError as exc:
        return ("error", type(exc).__name__, exc.to_json())
    return ([str(p) for p in transform], [str(p) for p in normal.components],
            sorted((key, scalar_to_json(c)) for key, c in kept.items()),
            transform, normal.components, kept)


def _engine(field, pattern, order):
    result = solve_conjugacy(field, DECIDE[pattern], order, pattern=pattern)
    return result.transform, result.normal_form, result.kept


class TestOnlineEngineMatchesRecomposition:
    @given(st.sampled_from(["linearize", "resonant", "straighten",
                            "center-clear"]),
           _germs(2), st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_two_variables(self, pattern, field, order):
        assert _outcome(lambda: _engine(field, pattern, order)) == _outcome(
            lambda: _reference_solve(field, DECIDE[pattern], order, pattern))

    @given(_germs(3), st.integers(2, 7))
    @settings(max_examples=12, deadline=None)
    def test_invariant_plane(self, field, order):
        pattern = "invariant-plane"
        assert _outcome(lambda: _engine(field, pattern, order)) == _outcome(
            lambda: _reference_solve(field, DECIDE[pattern], order, pattern))

    @given(_germs(2, spectra=[(1, 0), (2, 0), (Fraction(-1, 3), 0),
                              ("r2", 0)]),
           st.integers(2, 9))
    @settings(max_examples=25, deadline=None)
    def test_center_manifold(self, field, order):
        result = center_straighten(field, order)
        assert_conjugates(field, result)
        new = _center_graph(result)
        c = _reference_center_manifold(field, order)
        assert str(new) == str(c) and new == c
        # the former route: shift [A - c' B, B] along the graph y1 = c(y2)
        comp_a, comp_b = field.components
        former = compose(
            [comp_a - c.derivative(1).mul_trunc(comp_b, order), comp_b],
            [MultiPoly.variable(0, 2) + c, MultiPoly.variable(1, 2)], order)
        got = result.normal_form.components
        assert [str(p) for p in got] == [str(p) for p in former]
        assert list(got) == former
        # the straightened first component vanishes on y1 = 0
        assert all(e[0] for e in got[0].terms)

    @pytest.mark.parametrize("ring", ["integer", "rational", "sqrt2"])
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_order_nine_each_ring(self, ring, data):
        field = data.draw(_germs(2, spectra=[(1, Fraction(5, 2)), (2, 1)],
                                 ring=ring))
        pattern = data.draw(st.sampled_from(["linearize", "resonant"]))
        assert _outcome(lambda: _engine(field, pattern, 9)) == _outcome(
            lambda: _reference_solve(field, DECIDE[pattern], 9, pattern))


def _residual_by_multipoly(field, transform, normal, order):
    """DH * X_reduced - X(H) with MultiPoly arithmetic alone."""
    n = field.nvars
    rhs = compose(field.components, transform, order)
    out = []
    for i in range(n):
        lhs = MultiPoly.zero(n)
        for j in range(n):
            lhs = lhs + transform[i].derivative(j).mul_trunc(
                normal.components[j], order)
        out.append(lhs - rhs[i])
    return out


def _sqrt2_field(lam1, lam2):
    r = _sqrt2()
    return VectorFieldGerm([
        MultiPoly(2, {(1, 0): lam1, (2, 0): 1 + r, (1, 1): -r,
                      (0, 2): Fraction(2, 3) - r, (1, 2): 3}),
        MultiPoly(2, {(0, 1): lam2, (2, 0): r, (1, 1): Fraction(1, 2),
                      (0, 3): 1 - 2 * r})])


# one field per ring and pattern: linearization has no resonant monomial,
# so every nonlinear coefficient of its transform is determined; the
# resonant model keeps y^2 in the first component
CERTIFIED = {
    ("Q(i)", "linearize"): (
        lambda: parse_field("(2*x + x^2 - 1/3*i*x*y + y^3)*ddx"
                            " + (3*y + (1+2*i)*x^2 + 1/5*y^2)*ddy"),
        poincare_linearize, poly._Triples),
    ("Q(i)", "resonant"): (
        lambda: parse_field("(2*x + x^2 + (1-i)*y^2 + x*y^2)*ddx"
                            " + (y + 1/2*i*x*y + y^3)*ddy"),
        resonant_normal_form, poly._Triples),
    ("sqrt2", "linearize"): (lambda: _sqrt2_field(2, 3), poincare_linearize,
                             poly._Scalars),
    ("sqrt2", "resonant"): (lambda: _sqrt2_field(2, 1), resonant_normal_form,
                            poly._Scalars),
}


def _bumped(polys, i, exps):
    """``polys`` with 1 added to the coefficient of x^exps in polys[i]."""
    out = list(polys)
    out[i] = out[i] + MultiPoly.monomial(ONE, exps)
    return out


def _certified(key):
    make, solve, kernel = CERTIFIED[key]
    field = make()
    assert normalforms._kernel(field.components) is kernel
    return field, solve(field, order=5)


class TestResidualCatchesWrongAnswers:
    """The certificate against MultiPoly arithmetic, on valid results and on
    results with one coefficient changed, over both coefficient kernels."""

    @pytest.mark.parametrize("key", sorted(CERTIFIED), ids="-".join)
    def test_valid_result(self, key):
        field, result = _certified(key)
        got = conjugacy_residual(field, result)
        assert all(r.is_zero() for r in got)
        assert got == _residual_by_multipoly(
            field, result.transform, result.normal_form, result.order)

    @pytest.mark.parametrize("ring", ["Q(i)", "sqrt2"])
    def test_changed_transform(self, ring):
        field, result = _certified((ring, "linearize"))
        changed = 0
        for i, p in enumerate(result.transform):
            for exps in p.terms:
                if sum(exps) < 2:
                    continue
                transform = _bumped(result.transform, i, exps)
                wrong = ConjugacyResult(result.pattern, result.order,
                                        result.lambdas, transform,
                                        result.normal_form, result.kept)
                got = conjugacy_residual(field, wrong)
                assert not all(r.is_zero() for r in got), (i, exps)
                assert got == _residual_by_multipoly(
                    field, transform, result.normal_form, result.order)
                changed += 1
        assert changed > 10

    @pytest.mark.parametrize("key", sorted(CERTIFIED), ids="-".join)
    def test_changed_normal_form(self, key):
        field, result = _certified(key)
        normal = result.normal_form.components
        for i, p in enumerate(normal):
            for exps in p.terms:
                changed = VectorFieldGerm(_bumped(normal, i, exps))
                wrong = ConjugacyResult(result.pattern, result.order,
                                        result.lambdas, result.transform,
                                        changed, result.kept)
                got = conjugacy_residual(field, wrong)
                assert not all(r.is_zero() for r in got), (i, exps)
                assert got == _residual_by_multipoly(
                    field, result.transform, changed, result.order)
        if key[1] == "resonant":
            assert result.kept


class TestPackingBoundary:
    def test_sparse_invariant_plane_at_the_cap(self):
        # x^2 in the first component puts every power of x up to x^MAX_ORDER
        # into the transform: the largest exponent the packing has to hold
        field = parse_field("(x + x^2)*ddx + (5/2*y + x*y + y*z)*ddy"
                            " + (17/3*z + x^2 + z^2)*ddz")
        pattern = "invariant-plane"
        got = _outcome(lambda: _engine(field, pattern, MAX_ORDER))
        assert got == _outcome(lambda: _reference_solve(
            field, DECIDE[pattern], MAX_ORDER, pattern))
        transform = got[3]
        assert max(max(e) for p in transform for e in p.terms) == MAX_ORDER
        result = invariant_plane_reduce(field, order=MAX_ORDER)
        assert_conjugates(field, result)


class TestObstructionOrder:
    """The first obstruction in component order, then in ``exponents``
    order, is the one reported."""

    @pytest.mark.parametrize("expr, detail", [
        # eigenvalues (1, 1, 2): x*y and y^2 are both resonant in the third
        # component, and x*y comes first
        ("x*ddx + y*ddy + (2*z + y^2 + x*y - 3*y^2)*ddz",
         {"component": 3, "exponents": [1, 1, 0]}),
        # eigenvalues (1, -1): x^2*y in the first component and x*y^2 in
        # the second are resonant in degree 3
        ("(x - x^2*y)*ddx + (-y + 2*x*y^2)*ddy",
         {"component": 1, "exponents": [2, 1]}),
    ])
    def test_first_obstruction_named(self, expr, detail):
        field = parse_field(expr)
        with pytest.raises(ZeroDivisorDelta) as info:
            solve_conjugacy(field, DECIDE["linearize"], 5)
        assert info.value.payload == detail

    def test_decide_sees_only_nonzero_defects(self):
        field = parse_field("(2*x + y^3)*ddx + (3*y + x^2)*ddy")
        seen = []

        def decide(i, q, delta):
            seen.append((i, q))
            return True

        result = solve_conjugacy(field, decide, 7)
        # every nonzero defect coefficient is solved into a nonzero one of H
        assert seen == [(i, q) for d in range(2, 8) for i in range(2)
                        for q in exponents(2, d)
                        if q in result.transform[i].terms]


class TestNoRecomposition:
    """The solvers grow one table; only the certificate composes in one shot."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        original = normalforms.compose

        def counting(*args, **kwargs):
            seen.append(args[2] if len(args) > 2 else None)
            return original(*args, **kwargs)

        monkeypatch.setattr(normalforms, "compose", counting)
        return seen

    def test_linearize_never_composes(self, calls):
        field = parse_field("(x + x^2 + y^3)*ddx + (5/2*y + x*y)*ddy")
        poincare_linearize(field, order=8)
        assert calls == []

    def test_center_manifold_never_composes(self, calls):
        center_straighten(parse_field("(x - y^2)*ddx + y^2*ddy"), order=8)
        assert calls == []

    def test_saddle_node_composes_only_for_the_eigenbasis(self, calls):
        saddle_node_prepare(parse_field("x^2*ddx + (y - x)*ddy"), order=12)
        # the one composition is the untruncated change to the eigenbasis
        assert calls == [None]

    @pytest.mark.parametrize("expr", ["(x + 2*x*y)*ddx + y^2*ddy",
                                      "x^2*ddx + (y + 2*x*y)*ddy"])
    def test_diagonal_saddle_node_never_composes(self, calls, expr):
        saddle_node_prepare(parse_field(expr), order=12)
        assert calls == []

    def test_residual_composes_once(self, calls):
        field = parse_field("(x + x^2 + y^3)*ddx + (5/2*y + x*y)*ddy")
        result = poincare_linearize(field, order=8)
        assert calls == []
        assert_conjugates(field, result)
        assert calls == [8]


class TestOrderCap:
    """An order above MAX_ORDER is refused before any resonance enumeration
    or series work, by every entry that consumes one."""

    @pytest.fixture()
    def no_work(self, monkeypatch):
        from folsing import holonomy

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(normalforms, "detect_resonances", refuse)
        monkeypatch.setattr(normalforms, "_OnlineComposition", refuse)
        monkeypatch.setattr(holonomy, "resolve", refuse)
        monkeypatch.setattr(holonomy, "power", refuse)

    @pytest.mark.parametrize("entry, expr", [
        ("poincare_linearize", "2*x*ddx + 3*y*ddy"),
        ("resonant_normal_form", "x*ddx - 2*y*ddy + x^2*ddy"),
        ("siegel_straighten", "x*ddx - 2*y*ddy + x^2*ddy"),
        ("dulac_reduce", "x*ddx + y^2*ddy"),
        ("saddle_node_prepare", "x^2*ddx + y*ddy"),
    ])
    def test_normal_forms(self, entry, expr, no_work):
        field = parse_field(expr)
        with pytest.raises(RequestTooLarge) as info:
            getattr(normalforms, entry)(field, order=MAX_ORDER + 1)
        assert info.value.payload == {"order": MAX_ORDER + 1,
                                      "limit": MAX_ORDER}

    def test_holonomy_entries(self, no_work):
        from folsing.holonomy import (mattei_moussu_criterion,
                                      saddle_node_holonomy)

        with pytest.raises(RequestTooLarge):
            saddle_node_holonomy(1, 0, order=MAX_ORDER + 1)
        with pytest.raises(RequestTooLarge):
            mattei_moussu_criterion(parse_field("x*ddx - 2*y*ddy"),
                                    order=100000)

    def test_center_manifold_and_residual(self, no_work):
        field = parse_field("x*ddx + y^2*ddy")
        with pytest.raises(RequestTooLarge):
            center_straighten(field, MAX_ORDER + 1)
        result = ConjugacyResult("custom", MAX_ORDER + 1, (ONE, ONE),
                                 [MultiPoly.variable(j, 2) for j in range(2)],
                                 field, {})
        with pytest.raises(RequestTooLarge):
            conjugacy_residual(field, result)

    def test_the_cap_answers(self):
        field = parse_field("2*x*ddx + 3*y*ddy + x^2*ddy")
        assert_conjugates(field, poincare_linearize(field, order=MAX_ORDER))
