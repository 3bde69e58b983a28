"""Floating-point parabolic dynamics: directions, petals, translation
coordinate, orbit census, orbit kernels."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folsing import fatou, jsonio
from folsing.errors import (
    FloatOverflow,
    GridTooLarge,
    NotInPetal,
    RequestTooLarge,
    SlowConvergence,
    TruncationTooSmall,
    ZeroInput,
    ZeroLeadingCoefficient,
)
from folsing.fatou import (
    MAX_CENSUS_POINTS,
    MAX_CENSUS_STEPS,
    MAX_FATOU_STEPS,
    MAX_PETALS,
    PETAL_RUN,
    PETAL_SCAN,
    NumericGerm,
    _advance,
    _census_kernel,
    _horner_coefficients,
    abel_residual,
    attracting_directions,
    fatou_coordinate,
    orbit_census,
    petal_points,
    repelling_directions,
)


def reciprocal_model(terms: int = 16) -> NumericGerm:
    """Truncation of z/(1-z) = z + z^2 + z^3 + ..."""
    return NumericGerm([1.0] * terms)


class TestDirections:
    def test_basic_values(self):
        assert abs(attracting_directions(1, 1)[0] - (-1)) < 1e-12
        assert abs(attracting_directions(1j, 1)[0] - 1j) < 1e-12
        assert abs(repelling_directions(1, 1)[0] - 1) < 1e-12

    def test_half_turn_pair(self):
        vs = attracting_directions(1, 2)
        assert sorted([v.imag for v in vs]) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert max(abs(v.real) for v in vs) < 1e-12

    def test_defining_equation(self):
        a = 2.0 - 3.0j
        for p in (1, 2, 3, 4):
            for v in attracting_directions(a, p):
                assert abs(a * v ** p / abs(a) + 1) < 1e-12
            for v in repelling_directions(a, p):
                assert abs(a * v ** p / abs(a) - 1) < 1e-12

    def test_interleaving(self):
        a = 1.5 + 0.7j
        p = 4
        marked = [(cmath.phase(v) % (2 * math.pi), "A")
                  for v in attracting_directions(a, p)]
        marked += [(cmath.phase(v) % (2 * math.pi), "R")
                   for v in repelling_directions(a, p)]
        marked.sort()
        labels = [m[1] for m in marked]
        assert all(labels[i] != labels[(i + 1) % len(labels)]
                   for i in range(len(labels)))

    def test_errors(self):
        with pytest.raises(ZeroLeadingCoefficient):
            attracting_directions(0, 1)
        with pytest.raises(ZeroInput):
            attracting_directions(1, 0)

    @pytest.mark.parametrize("a", [1, -1, complex(-1.0, -0.0), 1j, 2.0 - 3.0j,
                                   1e-300 + 1e300j])
    @pytest.mark.parametrize("p", [1, 2, 3, 7])
    def test_the_former_formulas_bit_for_bit(self, a, p):
        phase = cmath.phase(a)
        for got, base in ((attracting_directions(a, p), (math.pi - phase) / p),
                          (repelling_directions(a, p), -phase / p)):
            want = [cmath.exp(1j * (base + 2 * math.pi * k / p))
                    for k in range(p)]
            assert [(v.real.hex(), v.imag.hex()) for v in got] == \
                [(v.real.hex(), v.imag.hex()) for v in want]


class TestNumericGerm:
    def test_evaluate(self):
        f = NumericGerm([1.0, 1.0])
        assert f.evaluate(0.1) == pytest.approx(0.11)
        out = f.evaluate(np.array([0.1, 0.2]))
        assert out == pytest.approx([0.11, 0.24])

    def test_radius_heuristic(self):
        assert NumericGerm([1.0, 1.0]).radius == pytest.approx(0.5)
        assert math.isinf(NumericGerm([1j]).radius)

    def test_leading_nonlinear(self):
        assert NumericGerm([1.0, 0.0, 2.0]).leading_nonlinear() == (2.0, 2)
        with pytest.raises(ZeroLeadingCoefficient):
            NumericGerm([1.0]).leading_nonlinear()

    def test_tangency_required_for_translation(self):
        f = NumericGerm([0.5, 1.0])
        with pytest.raises(ZeroInput):
            fatou_coordinate(f, -0.1, n_max=1000)

    def test_json(self):
        j = NumericGerm([1.0, 1.0j]).to_json()
        assert j["coefficients"] == [[1.0, 0.0], [0.0, 1.0]]


class TestTranslationCoordinate:
    def test_reciprocal_model_closed_form(self):
        f = reciprocal_model()
        pts = petal_points(f, 20, scale=0.1)
        assert abel_residual(f, lambda z: -1.0 / z, pts) < 1e-9

    def test_reciprocal_model_estimate_matches(self):
        f = reciprocal_model()
        est = fatou_coordinate(f, -0.05, n_max=100000)
        assert abs(est.value - 20.0) < 1e-8
        assert abs(est.b) < 1e-12
        assert est.p == 1 and est.cauchy_increment < 1e-8

    def test_cubic_residual_and_cauchy(self):
        f = NumericGerm([1.0, 1.0, 1.0])
        phi = lambda z: fatou_coordinate(f, z, n_max=100000).value
        pts = petal_points(f, 20, scale=0.15)
        assert abel_residual(f, phi, pts) < 1e-6
        est = fatou_coordinate(f, -0.1, n_max=100000)
        assert est.cauchy_increment < 1e-8

    def test_log_coefficient(self):
        # z + z^2 + c z^3 has inverted-chart 1/w coefficient 1 - c
        f = NumericGerm([1.0, 1.0, 2.0])
        est = fatou_coordinate(f, -0.08, n_max=20000)
        assert est.b == pytest.approx(-1.0, abs=1e-12)

    def test_conjugation_smoke(self):
        base = NumericGerm([1.0, 1.0])
        scaled = NumericGerm([1.0, 2.0])  # conjugate by z -> 2z
        for f in (base, scaled):
            phi = lambda z: fatou_coordinate(f, z, n_max=50000).value
            pts = petal_points(f, 8, scale=0.08)
            assert abel_residual(f, phi, pts) < 1e-8

    def test_not_in_petal(self):
        f = NumericGerm([1.0, 1.0])
        with pytest.raises(NotInPetal):
            fatou_coordinate(f, 0.1, n_max=10000)  # repelling side
        with pytest.raises(NotInPetal):
            fatou_coordinate(f, 0.0, n_max=10000)

    def test_slow_convergence_reported(self):
        f = NumericGerm([1.0, 1.0])
        with pytest.raises(SlowConvergence):
            fatou_coordinate(f, -0.1, n_max=10000, cauchy_tol=1e-30)

    def test_two_petal_germ(self):
        f = NumericGerm([1.0, 0.0, 1.0])
        est = fatou_coordinate(f, 0.06j, n_max=100000)
        assert est.p == 2
        phi = lambda z: fatou_coordinate(f, z, n_max=100000).value
        assert abel_residual(f, phi, [0.04j, 0.05j, 0.06j]) < 1e-6
        # the opposite petal works too
        est2 = fatou_coordinate(f, -0.06j, n_max=100000)
        assert est2.cauchy_increment < 1e-8

    def test_two_petal_repelling_rejected(self):
        f = NumericGerm([1.0, 0.0, 1.0])
        with pytest.raises(NotInPetal):
            fatou_coordinate(f, 0.2, n_max=10000)

    def test_two_petal_with_intermediate_term(self):
        f = NumericGerm([1.0, 0.0, 1.0, 1.0])
        phi = lambda z: fatou_coordinate(f, z, n_max=100000).value
        assert abel_residual(f, phi, [0.03j, 0.04j, 0.05j]) < 1e-6

    def test_n_max_below_twice_the_petal_run_is_refused(self, monkeypatch):
        # the scan needs PETAL_RUN increases within n_max // 2 steps, so a
        # smaller budget could only ever report not-in-petal; the refusal
        # comes before any work, even on a germ refused for other reasons
        def refuse(*args):
            raise AssertionError("orbit advanced")

        monkeypatch.setattr(fatou, "_advance", refuse)
        assert PETAL_RUN == 50
        for f, z in ((NumericGerm([1.0, 1.0]), -0.05),
                     (NumericGerm([0.5, 1.0]), -0.05),
                     (NumericGerm([1.0, 1.0]), 0.0)):
            with pytest.raises(TruncationTooSmall) as info:
                fatou_coordinate(f, z, n_max=2 * PETAL_RUN - 1)
            assert info.value.code == "truncation-too-small"
            assert info.value.payload == {"n_max": 99, "minimum": 100}

    def test_n_max_above_the_cap_is_refused(self, monkeypatch):
        # 10^10 steps ran for about seven minutes before the cap; the
        # refusal comes before the petal scan and the orbit loop
        def refuse(*args):
            raise AssertionError("orbit advanced")

        monkeypatch.setattr(fatou, "_advance", refuse)
        monkeypatch.setattr(fatou, "_horner", refuse)
        assert MAX_FATOU_STEPS == 10 ** 8
        for n_max in (MAX_FATOU_STEPS + 1, 10 ** 10):
            with pytest.raises(RequestTooLarge) as info:
                fatou_coordinate(NumericGerm([1.0, 1.0]), -0.05, n_max=n_max)
            assert info.value.payload == {"n_max": n_max,
                                          "limit": MAX_FATOU_STEPS}
            jsonio.validate(info.value.to_json(), "error")

    def test_n_max_at_twice_the_petal_run(self):
        # the smallest budget passes the scan after exactly PETAL_RUN steps
        # and gives the value it gave before the bound
        f = NumericGerm([1.0, 1.0])
        est = fatou_coordinate(f, -0.05, n_max=100, cauchy_tol=1e-3)
        assert est.petal_steps == PETAL_RUN and est.n_max == 100
        assert est.value.real.hex() == "0x1.107b7dafcfa38p+4"
        assert est.value.imag == 0
        with pytest.raises(SlowConvergence) as info:
            fatou_coordinate(f, -0.05, n_max=100)
        assert info.value.payload["increment"] == 8.134109066304518e-07

    # (germ coefficients, query point) of the benchmark's family z + a z^2 +
    # b z^3 at -dist/a, with the float.hex of value, b and cauchy_increment
    # computed with numpy scalars before the module moved to Python complexes
    WORKLOAD_PINS = [
        ([1.0, 1.0, 0.0], -0.05, ("0x1.107b7de602000p+4", "0x0.0p+0"),
         ("0x1.0000000000000p+0", "-0x0.0p+0"), "0x1.f000000000000p-32"),
        ([1.0, 2.0, -1.0], -0.015, ("0x1.cf7aaeb503000p+4", "0x0.0p+0"),
         ("0x1.4000000000000p+0", "-0x0.0p+0"), "0x1.e800000000000p-32"),
        ([1.0, 3.0, 1.0], -0.02, ("0x1.c62b650206000p+3", "0x0.0p+0"),
         ("0x1.c71c71c71c71cp-1", "-0x0.0p+0"), "0x1.0800000000000p-30"),
    ]

    @pytest.mark.parametrize("coeffs, z, value, b, increment", WORKLOAD_PINS)
    def test_workload_germs_bit_for_bit(self, coeffs, z, value, b, increment):
        est = fatou_coordinate(NumericGerm(coeffs), z, n_max=100000)
        assert (est.value.real.hex(), est.value.imag.hex()) == value
        assert (est.b.real.hex(), est.b.imag.hex()) == b
        assert est.cauchy_increment.hex() == increment

    def test_complex_two_petal_germ_to_rounding(self):
        # CPython and numpy round complex division differently, so a germ
        # with complex data keeps the former value to rounding level only
        f = NumericGerm([1.0, 0.0, 1 + 1j])
        est = fatou_coordinate(f, 0.05 * cmath.exp(3j * math.pi / 8),
                               n_max=100000)
        assert est.p == 2
        want = 137.70976636535488
        assert abs(est.value - want) <= 1e-13 * want

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0,
                                     -0.0, -1.0])
    def test_cauchy_tol_not_positive_finite_is_refused(self, tol, monkeypatch):
        # with nan no increment would ever exceed it, an uncertified answer
        def refuse(*args):
            raise AssertionError("orbit advanced")

        monkeypatch.setattr(fatou, "_advance", refuse)
        monkeypatch.setattr(fatou, "_horner", refuse)
        with pytest.raises(ZeroInput) as info:
            fatou_coordinate(NumericGerm([1.0, 1.0]), -0.05, n_max=1000,
                             cauchy_tol=tol)
        jsonio.validate(info.value.to_json(), "error")

    @pytest.mark.parametrize("coeffs", [[1.0, 1.0], [1.0, 1e-11]])
    def test_scan_stops_after_petal_scan_steps(self, coeffs):
        # from -1e-320 the orbit stands still; with 1e-11 the product a' Z
        # underflows to 0 and reads as no growth rather than dividing by it
        assert PETAL_SCAN == 2000
        with pytest.raises(NotInPetal) as info:
            fatou_coordinate(NumericGerm(coeffs), -1e-320)
        assert info.value.payload["scanned"] == PETAL_SCAN

    @pytest.mark.parametrize("coeffs, z", [
        ([1.0, 1.0], 1.25e154 + 0.6e154j),        # one step lands there
        ([1.0, 1.5e308 + 1.5e308j], -0.05),       # so does the coefficient
    ])
    def test_finite_points_past_the_doubles_leave_the_disc(self, coeffs, z):
        # complex abs raises OverflowError on a finite point whose modulus
        # passes the doubles; for the disc test its modulus is inf
        with pytest.raises(NotInPetal) as info:
            fatou_coordinate(NumericGerm(coeffs), z)
        assert info.value.payload["step"] == 1

    def test_petal_count_at_the_cap(self):
        p = MAX_PETALS
        f = NumericGerm([1.0] + [0.0] * (p - 1) + [1.0])
        z = 0.49 * cmath.exp(1j * math.pi / p)
        est = fatou_coordinate(f, z, n_max=20000)
        assert est.p == p and est.cauchy_increment < 1e-8

    def test_petal_count_above_the_cap(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("reduction entered")

        monkeypatch.setattr(fatou, "_reduce_to_single_petal", refuse)
        p = MAX_PETALS + 1
        f = NumericGerm([1.0] + [0.0] * (p - 1) + [0.3] * 48)
        with pytest.raises(RequestTooLarge) as info:
            fatou_coordinate(f, 0.01 + 0.001j, n_max=2000)
        assert info.value.code == "request-too-large"
        assert info.value.payload == {"petals": p, "limit": MAX_PETALS}
        assert MAX_PETALS == 20

    def test_json(self):
        est = fatou_coordinate(reciprocal_model(), -0.05, n_max=20000)
        j = est.to_json()
        assert j["n_max"] == 20000
        assert j["p"] == 1


def _series_inverse(h, order):
    """Compositional inverse of h(z) = z + ... to z^order, term by term:
    the general inverse the reduction's closed forms replaced."""
    inv = [1 + 0j] + [0j] * (order - 1)
    for k in range(1, order):
        inv[k] -= fatou._series_compose(h, inv, order)[k]
    return inv


class TestReduction:
    @given(st.integers(2, 6),
           st.builds(cmath.rect, st.floats(0.5, 2.0),
                     st.floats(-math.pi, math.pi)),
           st.lists(st.builds(complex, st.floats(-1.0, 1.0),
                              st.floats(-1.0, 1.0)), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_conjugacy_kills_the_normalized_coefficients(self, p, a, rest):
        # hinv o f o hinv^-1 keeps f through z^{p+1} and has no z^{p+1+m}
        # term for m in 1..3p, m != p, through degree 4p+1
        order = 4 * p + 2
        coeffs = ([1 + 0j] + [0j] * (p - 1) + [a] + rest)[:order]
        _, hinv = fatou._reduce_to_single_petal(
            np.asarray(coeffs, dtype=np.complex128), a, p)
        hinv = [complex(c) for c in hinv]
        h = _series_inverse(hinv, order)
        conj = fatou._series_compose(
            hinv, fatou._series_compose(coeffs, h, order), order)
        scale = max(map(abs, hinv + h))
        for k in range(p + 1):
            assert abs(conj[k] - coeffs[k]) <= 1e-10 * scale
        for m in range(1, 3 * p + 1):
            if m != p:
                assert abs(conj[p + m]) <= 1e-10 * scale


class TestOrbitCensus:
    def test_period_five_rotation(self):
        rot = NumericGerm([cmath.exp(2j * math.pi / 5)])
        c = orbit_census(rot, 0.5, max_iter=100000)
        assert c["periodic"] == c["total"] > 0
        assert c["period_histogram"] == {"5": c["total"]}
        assert c["escaping"] == c["finite"] == c["undecided"] == 0

    def test_irrational_rotation_undecided(self):
        rot = NumericGerm([cmath.exp(2j * math.pi * (math.sqrt(2) - 1))])
        c = orbit_census(rot, 0.5, max_iter=20000)
        assert c["periodic"] == 0
        assert c["undecided"] == c["total"]

    def test_parabolic_split_matches_petal_structure(self):
        par = NumericGerm([1.0, 1.0])
        c = orbit_census(par, 0.4, max_iter=200000)
        assert c["escaping"] > 0 and c["finite"] > 0
        assert c["periodic"] == 0 and c["undecided"] == 0

    def test_radius_guard(self):
        par = NumericGerm([1.0, 1.0])
        with pytest.raises(ZeroInput):
            orbit_census(par, 2.0, max_iter=100)

    @pytest.mark.parametrize("kwargs", [
        {"grid": 1}, {"grid": 2}, {"grid": 0}, {"grid": -4},
        {"radius": 0.0}, {"radius": -0.0}, {"radius": -0.3},
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": -1.0},
    ])
    def test_refused_before_the_grid_is_built(self, kwargs, grid_built):
        # grids 1 and 2 keep no point inside the disc, radius 0 keeps the
        # fixed point alone, and a tol that is not positive and finite
        # leaves every orbit undecided
        args = {"radius": 0.3, "max_iter": 10, "grid": 4, **kwargs}
        with pytest.raises(ZeroInput) as info:
            orbit_census(NumericGerm([1.0, 1.0]), **args)
        jsonio.validate(info.value.to_json(), "error")

    def test_smallest_grid_samples_points(self):
        c = orbit_census(NumericGerm([1.0, 1.0]), 0.3, max_iter=10, grid=3)
        assert c["total"] > 0

    def test_deterministic(self):
        rot = NumericGerm([cmath.exp(2j * math.pi / 5)])
        assert orbit_census(rot, 0.3, max_iter=1000) == \
            orbit_census(rot, 0.3, max_iter=1000)

    def test_radius_at_the_top_of_the_doubles(self):
        # a linear germ accepts any radius; the grid must not overflow
        c = orbit_census(NumericGerm([1.0]), 1e308, max_iter=10, grid=4)
        assert c["total"] == c["periodic"] == 4

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_radius(self, radius):
        with pytest.raises(FloatOverflow):
            orbit_census(NumericGerm([1.0]), radius, max_iter=10, grid=4)

    @pytest.fixture()
    def grid_built(self, monkeypatch):
        # the census builds its grid with linspace first; reaching it means
        # the size check let the grid through
        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built()

        monkeypatch.setattr(np, "linspace", refuse)
        return Built

    @pytest.mark.parametrize("grid", [1025, 1026, 100000, 10 ** 12])
    def test_grid_above_the_cap_is_refused_before_building(self, grid,
                                                           grid_built):
        with pytest.raises(GridTooLarge) as info:
            orbit_census(NumericGerm([1.0, 1.0]), 0.4, max_iter=10, grid=grid)
        assert info.value.code == "grid-too-large"
        assert info.value.payload["limit"] == MAX_CENSUS_POINTS == 2 ** 20
        assert info.value.payload["points"] > MAX_CENSUS_POINTS

    @pytest.mark.parametrize("grid", [1023, 1024])
    def test_grid_at_the_cap_is_built(self, grid, grid_built):
        # 1023 rounds up to the even 1024, exactly 2^20 points
        with pytest.raises(grid_built):
            orbit_census(NumericGerm([1.0, 1.0]), 0.4, max_iter=10, grid=grid)


    @pytest.mark.parametrize("grid, max_iter", [
        (20, 2500001), (19, 2500001), (1000, 1001), (1024, 10 ** 6),
        (4, 10 ** 18)])
    def test_steps_above_the_cap_are_refused_before_building(
            self, grid, max_iter, grid_built):
        # an irrational rotation runs every orbit to max_iter, so the cost
        # is grid^2 * max_iter steps
        with pytest.raises(RequestTooLarge) as info:
            orbit_census(NumericGerm([1.0, 1.0]), 0.4, max_iter=max_iter,
                         grid=grid)
        assert info.value.code == "request-too-large"
        assert info.value.payload["limit"] == MAX_CENSUS_STEPS == 10 ** 9
        assert info.value.payload["steps"] > MAX_CENSUS_STEPS

    @pytest.mark.parametrize("grid, max_iter", [
        (20, 10 ** 6), (19, 2500000), (1000, 1000), (12, 1000)])
    def test_steps_at_or_below_the_cap_are_built(self, grid, max_iter,
                                                 grid_built):
        # the command line's defaults (grid 20, 10^6 steps) among them
        with pytest.raises(grid_built):
            orbit_census(NumericGerm([1.0, 1.0]), 0.4, max_iter=max_iter,
                         grid=grid)


class TestFloatErrorState:
    """numpy's floating-point state is set once per census, not per step;
    the translation coordinate computes on Python complexes and sets none."""

    @pytest.fixture()
    def entries(self, monkeypatch):
        seen = []
        original = np.errstate

        def counting(**kwargs):
            seen.append(kwargs)
            return original(**kwargs)

        monkeypatch.setattr(np, "errstate", counting)
        return seen

    def test_fatou_enters_once(self, entries):
        # once at most, and now never: no numpy in the translation coordinate
        fatou_coordinate(reciprocal_model(), -0.05, n_max=20000)
        assert entries == []

    def test_census_enters_once(self, entries):
        orbit_census(NumericGerm([1.0, 1.0]), 0.4, max_iter=1000)
        assert entries == [{"all": "ignore"}]


class TestAdvanceKernel:
    COEFFS = np.array([1.0, 1.0, 1.0], dtype=np.complex128)

    def test_orbit_leaving_the_disc_is_nan(self):
        # f(z) = z + z^2 + z^3: 0.45 leaves the disc of radius 1/2 at once,
        # while the orbits near -0.1 creep along the attracting petal
        for steps in (1, 500, 5000):
            assert cmath.isnan(_advance(self.COEFFS, 0.45, steps, 0.5))
        for k in range(8):
            z0 = -0.1 + 0.01j * k
            z = z0
            for _ in range(500):
                z = z + z * z + z * z * z
            got = _advance(self.COEFFS, z0, 500, 0.5)
            assert abs(got - z) < 1e-12 and abs(got) < 0.1
        assert _advance(self.COEFFS, 0.45, 0, 0.5) == 0.45


# ---------------------------------------------------------------------------
# the orbit kernels against the complex loops they replaced
# ---------------------------------------------------------------------------

def _reference_advance(coeffs, z, steps, radius):
    """The former kernel: Horner on complex numbers from 0j, every
    coefficient kept."""
    z = complex(z)
    clist = [complex(c) for c in coeffs[::-1]]
    for _ in range(steps):
        acc = 0j
        for c in clist:
            acc = acc * z + c
        z = acc * z
        if not (abs(z) <= radius):
            return complex("nan")
    return z


def _reference_census_kernel(coeffs, zs, radius, max_iter, tol):
    """The former kernel: a live mask over full-length arrays, scattered
    into on every step."""
    n = zs.shape[0]
    status = np.zeros(n, dtype=np.int8)
    period = np.zeros(n, dtype=np.int64)
    z0 = zs.copy()
    z = zs.copy()
    live = np.ones(n, dtype=bool)
    for k in range(1, max_iter + 1):
        zl = z[live]
        acc = np.zeros_like(zl)
        for c in coeffs[::-1]:
            acc = acc * zl + c
        znew = acc * zl
        escaped = ~(np.abs(znew) <= radius)
        came_back = np.abs(znew - z0[live]) < tol
        collided = np.abs(znew - zl) < tol
        idx = np.flatnonzero(live)
        status[idx[escaped]] = 2
        period[idx[escaped]] = k
        rest = ~escaped
        status[idx[rest & came_back]] = 1
        period[idx[rest & came_back]] = k
        rest2 = rest & ~came_back
        status[idx[rest2 & collided]] = 3
        period[idx[rest2 & collided]] = k
        z[idx] = znew
        live[idx[escaped | (rest & came_back) | (rest2 & collided)]] = False
        if not live.any():
            break
    return status, period


_reals = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0]),
                   st.floats(-3.0, 3.0))
_imaginary_parts = st.one_of(st.sampled_from([0.0, -0.0]), _reals)


@st.composite
def _germ_coefficients(draw, max_degree=6):
    """Coefficients of z, z^2, ...: real or complex, negative and zero
    entries, sometimes trailing zeros, as a list or a numpy array."""
    real = draw(st.booleans())
    parts = st.sampled_from([0.0, -0.0]) if real else _imaginary_parts
    coeffs = draw(st.lists(st.builds(complex, _reals, parts),
                           min_size=1, max_size=max_degree))
    coeffs += [complex(0.0, draw(parts))] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        return np.asarray(coeffs, dtype=np.complex128)
    return coeffs


def _overflow_or(kernel, *args):
    # complex abs raises once the modulus of a finite point passes the
    # doubles; the kernels must agree on that too
    try:
        return kernel(*args)
    except OverflowError:
        return "overflow"


def _check_advance(coeffs, z, steps, radius):
    old = _overflow_or(_reference_advance, coeffs, z, steps, radius)
    new = _overflow_or(_advance, coeffs, z, steps, radius)
    if "overflow" in (old, new):
        assert old == new
        return
    assert cmath.isnan(new) == cmath.isnan(old)
    if not cmath.isnan(old):
        assert new.real == old.real and new.imag == old.imag
        if z.imag == 0 and all(complex(c).imag == 0 for c in coeffs):
            assert new.imag == 0


class TestKernelsMatchTheFormerLoops:
    """The float path and the leading-coefficient Horner start change no
    real part; the census writes the same statuses and periods."""

    @given(_germ_coefficients(),
           st.builds(complex,
                     st.one_of(st.floats(-1.5, 1.5),
                               st.sampled_from([1e160, -1e200])),
                     _imaginary_parts),
           st.integers(0, 500),
           st.sampled_from([0.25, 0.5, 1.0, 4.0, 1e6, math.inf]))
    @settings(max_examples=300, deadline=None)
    def test_advance(self, coeffs, z, steps, radius):
        _check_advance(coeffs, z, steps, radius)

    @pytest.mark.parametrize("coeffs, z, radius", [
        ([1.0, 1.0], -0.05, 0.5),                  # creeps along the petal
        ([1.0, -2.0, 0.0, 0.0], 0.02, 0.25),       # trailing zeros
        ([1.0, 1.0], 0.3, 0.5),                    # leaves the disc
        ([1.0, 1.0], 0.3, math.inf),               # overflows
        ([2.0], 1.0, math.inf),                    # overflows, linear
        ([1.0, 1.0], complex(-0.05, -0.0), 0.5),   # negative zero part
        ([1.0, 1.0], -0.05 + 0.01j, 0.5),          # off the real axis
        ([1j, 0.5], 0.1, 1.0),                     # complex germ
    ])
    @pytest.mark.parametrize("steps", [0, 1, 7, 2000])
    def test_advance_cases(self, coeffs, z, radius, steps):
        _check_advance(coeffs, complex(z), steps, radius)

    @pytest.mark.parametrize("coeffs, z", [
        ([2.0], 1.0),                                  # real, linear
        ([1.0, 1.0], 0.3),                             # real, quadratic
        ([1.0, 1.0, 1.0], 0.9),                        # real, cubic
        ([1.0, 1.0, 1.0], 1e200),                      # overflows mid-step
        ([1 + 1.5j], 1.0718047316523855 + 0.13008166058780057j),
        ([1.0, 0.5 - 1j, 0.0], 0.8 + 0.8j),
    ])
    @pytest.mark.parametrize("radius", [1e300, math.inf])
    def test_advance_around_overflow(self, coeffs, z, radius):
        # the steps on either side of the first one that leaves the finite
        # doubles, where a kernel that lets an infinite point iterate on
        # differs from one that turns it into nan
        k, w = 0, complex(z)
        while cmath.isfinite(w):
            w = _reference_advance(coeffs, w, 1, math.inf)
            k += 1
        assert k < 5000
        for steps in range(k - 1, k + 3):
            _check_advance(coeffs, complex(z), steps, radius)

    @staticmethod
    def _both(coeffs, zs, radius, max_iter, tol=1e-9):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        zs = np.asarray(zs, dtype=np.complex128)
        with np.errstate(all="ignore"):
            old = _reference_census_kernel(coeffs, zs.copy(), radius,
                                           max_iter, tol)
            new = _census_kernel(coeffs, zs.copy(), radius, max_iter, tol)
        for a, b in zip(old, new):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        return new

    @staticmethod
    def _grid(radius, n=12):
        xs = radius * np.linspace(-1.0, 1.0, n)
        re, im = np.meshgrid(xs, xs)
        pts = (re + 1j * im).ravel()
        return pts[np.abs(pts) <= radius]

    def test_census_rational_rotation(self):
        status, period = self._both([cmath.exp(2j * math.pi * 2 / 5)],
                                    self._grid(0.3), 0.3, 100)
        assert (status == 1).all() and (period == 5).all()

    def test_census_irrational_rotation(self):
        angle = math.sqrt(2) - 1
        status, _ = self._both([cmath.exp(2j * math.pi * angle)],
                               self._grid(0.3), 0.3, 2000)
        assert (status == 0).all()

    def test_census_escaping_and_colliding(self):
        status, _ = self._both([1.0, 1.0], self._grid(0.4), 0.4, 5000,
                               tol=1e-6)
        assert set(status.tolist()) == {2, 3}

    def test_census_collisions(self):
        # a contraction: every orbit creeps into the fixed point
        status, _ = self._both([0.5, 0.0], self._grid(0.4), 0.4, 200)
        assert (status == 3).all()

    def test_census_priority(self):
        # the identity returns and collides at once: periodic, and escaping
        # where the start point lies outside the disc
        zs = self._grid(1.0)
        status, period = self._both([1.0], zs, 0.5, 10)
        assert np.array_equal(status, np.where(np.abs(zs) <= 0.5, 1, 2))
        assert (period == 1).all()

    def test_census_empty(self):
        status, period = self._both([1.0, 1.0], [], 0.4, 1000)
        assert status.shape == period.shape == (0,)

    @given(_germ_coefficients(max_degree=4),
           st.lists(st.builds(complex, st.floats(-1.0, 1.0),
                              _imaginary_parts),
                    max_size=12),
           st.sampled_from([0.5, 1.0, 4.0, math.inf]),
           st.integers(0, 300),
           st.sampled_from([0.0, 1e-9, 1e-3]))
    @settings(max_examples=150, deadline=None)
    def test_census(self, coeffs, zs, radius, max_iter, tol):
        self._both(coeffs, zs, radius, max_iter, tol)


class TestBlockedCensusAndUnrolledAdvance:
    """The census decides blocks of steps at once and the advance loop is
    compiled per Horner length; both must still match the former loops at
    the block edges, past the block cap and over long orbits."""

    # blocks of 1, 2, 4, ... steps end after steps 1, 3, 7, 15, 31, 63
    STEPS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]

    both = staticmethod(TestKernelsMatchTheFormerLoops._both)

    @pytest.mark.parametrize("q", STEPS)
    def test_periodic_at_block_edges(self, q):
        # a rotation of order q brings every orbit back at step q
        zs = [0.2, -0.1j, 0.05 + 0.15j]
        status, period = self.both([cmath.exp(2j * math.pi / q)], zs, 0.3,
                                   200)
        assert (status == 1).all() and (period == q).all()

    @pytest.mark.parametrize("q", STEPS)
    def test_escaping_at_block_edges(self, q):
        # z -> 2 z takes 0.75 / 2^(q-1) to 1.5, outside the unit disc, at
        # step q, exactly; tolerance 0 keeps tiny start points from counting
        # as returns
        status, period = self.both([2.0], [0.75 / 2 ** (q - 1)], 1.0, 200,
                                   tol=0.0)
        assert status.tolist() == [2] and period.tolist() == [q]

    @pytest.mark.parametrize("q", STEPS[1:])
    def test_finite_at_block_edges(self, q):
        # z -> z / 2 moves 0.75 * 2^(q-80) by 0.75 * 2^-80 < 2^-80 first at
        # step q (at step 1 a collision is a return, hence periodic)
        z0 = 0.75 * 2.0 ** (q - 80)
        status, period = self.both([0.5], [z0, -1j * z0], 1.0, 200,
                                   tol=2.0 ** -80)
        assert (status == 3).all() and (period == q).all()

    def test_orbits_ending_in_one_block_at_different_steps(self):
        # one census, one orbit ending at each step: every block decides
        # several orbits, each at its own first step
        zs = [0.75 / 2 ** (q - 1) for q in self.STEPS]
        status, period = self.both([2.0], zs, 1.0, 200, tol=0.0)
        assert (status == 2).all()
        assert period.tolist() == self.STEPS

    @pytest.mark.parametrize("q", [7, 8, 9, 16, 17])
    def test_ending_at_max_iter(self, q):
        rot = [cmath.exp(2j * math.pi / q)]
        status, period = self.both(rot, [0.2, 0.1j], 0.3, q)
        assert (status == 1).all() and (period == q).all()
        status, period = self.both(rot, [0.2, 0.1j], 0.3, q - 1)
        assert (status == 0).all() and (period == 0).all()
        status, period = self.both([2.0], [0.75 / 2 ** (q - 1)], 1.0, q,
                                   tol=0.0)
        assert status.tolist() == [2] and period.tolist() == [q]

    def test_more_live_points_than_the_block_cap(self, monkeypatch):
        # 5000 orbits under z -> 2 z: a fifth escape at each of the steps
        # 1, 2, 3, 4 and 5, so the first blocks hold one step and the census
        # compacts until its blocks grow
        blocks = []
        original = np.empty

        def recording(shape, *args, **kwargs):
            blocks.append(shape)
            return original(shape, *args, **kwargs)

        radii = np.repeat([0.75 / 2 ** (q - 1) for q in range(1, 6)], 1000)
        angles = np.linspace(0.0, 2 * math.pi, radii.shape[0],
                             endpoint=False)
        zs = radii * np.exp(1j * angles)
        monkeypatch.setattr(np, "empty", recording)
        status, period = self.both([2.0], zs, 1.0, 50)
        monkeypatch.undo()
        assert (status == 2).all()
        assert np.bincount(period).tolist() == [0] + [1000] * 5
        assert blocks[:3] == [(2, 5000), (2, 4000), (2, 3000)]
        assert all(rows == 2 for rows, live in blocks if live > 2048)
        assert any(rows > 2 for rows, live in blocks)

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [-1, 0, 1])
    def test_workload_germs_over_100000_steps(self, a, b):
        # the benchmark's germs z + a z^2 + b z^3 at real points on the
        # attracting direction, with the radius the command line uses
        germ = NumericGerm([1.0, float(a), float(b)])
        z = complex(-(2 + a + b) / 100 / a)
        old = _reference_advance(germ.coeffs, z, 100000, germ.radius)
        new = _advance(germ.coeffs, z, 100000, germ.radius)
        assert not cmath.isnan(old)
        assert new.real.hex() == old.real.hex() and new.imag == 0

    def test_complex_germ_over_100000_steps(self):
        germ = NumericGerm([1.0, 1.0 - 0.5j, 0.25j, 0.1])
        z = complex(-0.03 * (1.0 + 0.5j) / abs(1.0 - 0.5j) ** 2)
        old = _reference_advance(germ.coeffs, z, 100000, germ.radius)
        new = _advance(germ.coeffs, z, 100000, germ.radius)
        assert not cmath.isnan(old) and old.imag != 0
        assert (new.real.hex(), new.imag.hex()) == (old.real.hex(),
                                                    old.imag.hex())

    def test_one_loop_per_horner_length(self):
        real = fatou._orbit_kernel(3, True)
        assert fatou._orbit_kernel(3, True) is real
        assert fatou._orbit_kernel(3, False) is not real
        assert fatou._orbit_kernel(4, True) is not real

    def test_long_germ(self):
        # a germ of 300 coefficients: the unrolled step has no nesting to
        # outgrow the parser
        coeffs = [1.0] + [0.001] * 299
        _check_advance(coeffs, complex(-0.05), 300, 0.5)
        _check_advance(coeffs, complex(-0.05, 0.01), 300, 0.5)

    # a pass of the orbit loop holds UNROLL steps, the remainder loop the
    # last steps % UNROLL
    UNROLL = fatou._UNROLL

    @pytest.mark.parametrize("j", range(16))
    @pytest.mark.parametrize("direction", [1.0, -1.0, 1j, (1 - 1j) / 2])
    def test_leaving_at_every_position_of_a_pass(self, j, direction):
        # z -> 2 z takes 0.75 / 2^(q-1) times a direction of modulus above
        # 1/2 out of the unit disc at step q, exactly: here at position j
        # of the second pass, and at position j of the remainder loop of a
        # run of 2 passes and 15 steps (position 15 lies past that run)
        assert self.UNROLL == 16
        for q, steps in ((16 + j + 1, 48), (32 + j + 1, 47)):
            z = complex(0.75 / 2 ** (q - 1) * direction)
            for n in (q - 1, q, steps):
                _check_advance([2.0], z, n, 1.0)
            assert cmath.isnan(_advance([2.0], z, steps, 1.0)) == (q <= steps)
            assert not cmath.isnan(_advance([2.0], z, q - 1, 1.0))

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    @pytest.mark.parametrize("z", [-0.1, -0.1 + 0.01j, 0.45, 0.3 + 0.3j])
    def test_step_counts_around_whole_passes(self, k, z):
        # orbits creeping along the petal of z + z^2 + z^3 and orbits that
        # leave the disc of radius 1/2, on the float and the complex path
        coeffs = [1.0, 1.0, 1.0]
        for steps in (k * 16 - 1, k * 16, k * 16 + 1):
            _check_advance(coeffs, complex(z), steps, 0.5)

    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 64, 65])
    @pytest.mark.parametrize("z", [-0.05, -0.05 + 0.01j])
    def test_horner_lengths_around_the_nesting_groups(self, length, z):
        # groups of NEST coefficients are chained through acc; with an
        # infinite radius the Horner scheme gains a leading zero
        assert fatou._NEST == 32
        for radius, count in ((0.5, length), (math.inf, length - 1)):
            if count == 0:
                continue
            coeffs = [1.0] + [(-1) ** k * 0.3 / k for k in range(1, count)]
            assert len(_horner_coefficients(coeffs, radius)) == length
            for steps in (0, 1, 15, 16, 17, 200):
                _check_advance(coeffs, complex(z), steps, radius)

    @pytest.mark.parametrize("real", [True, False])
    def test_long_germ_source_nests_shallowly(self, real, monkeypatch):
        # the parser stops near 200 nested parentheses; the source of a
        # 300-coefficient kernel, captured as it is compiled, stays far below
        import builtins

        sources = []
        original = builtins.compile

        def recording(source, *args, **kwargs):
            sources.append(source)
            return original(source, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", recording)
        orbit = fatou._orbit_kernel.__wrapped__(300, real)
        monkeypatch.undo()
        [source] = sources
        depth = deepest = 0
        for ch in source:
            depth += {"(": 1, ")": -1}.get(ch, 0)
            deepest = max(deepest, depth)
        assert depth == 0 and 30 <= deepest < 100
        coeffs = [1.0] + [0.001] * 299
        z = -0.05 if real else -0.05 + 0.01j
        safe = fatou._certified_box(coeffs[::-1], 0.5)
        assert safe > 0.05
        assert orbit(z, 40, -0.5, 0.5, safe, *coeffs[::-1]) == _advance(
            coeffs, z, 40, 0.5)


_box_fractions = st.one_of(
    st.sampled_from([0.0, -0.0, math.nextafter(1.0, 0.0),
                     -math.nextafter(1.0, 0.0)]),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))


class TestCertifiedBox:
    """Passes that start in the box of ``_certified_box`` skip their disc
    tests: the box must keep a whole pass in the disc, a wider one must
    show in the kernel comparisons, and the benchmark's germs must get a
    box that holds their orbits."""

    @given(_germ_coefficients(),
           st.sampled_from([1e-200, 0.25, 0.5, 1.0, 4.0, 1e6, 1e300,
                            math.inf]),
           _box_fractions, _box_fractions)
    @settings(max_examples=300, deadline=None)
    def test_a_pass_from_the_box_stays_in_the_disc(self, coeffs, radius, x,
                                                   y):
        rho = fatou._certified_box(_horner_coefficients(coeffs, radius),
                                   radius)
        assert 0 <= rho <= min(radius, 1.0) / 2
        z = complex(x * rho, y * rho)
        for _ in range(fatou._UNROLL):
            z = _reference_advance(coeffs, z, 1, math.inf)
            assert cmath.isfinite(z) and abs(z) <= radius

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_no_box_tests_every_step(self, radius):
        # the empty box leaves even the fixed point to the disc test
        assert fatou._certified_box([1.0, 1.0], radius) == 0.0
        for z in (0j, complex(-0.0, 0.0)):
            _check_advance([1.0, 1.0], z, 32, radius)

    def test_a_box_as_wide_as_the_disc_fails_a_comparison(self, monkeypatch):
        # z -> 2 z at the step counts of
        # test_leaving_at_every_position_of_a_pass: an orbit that leaves
        # the disc in the second pass, which starts inside that box, comes
        # out of that pass finite
        monkeypatch.setattr(fatou, "_certified_box",
                            lambda clist, radius: radius)
        failed = 0
        for q in range(17, 33):
            z = complex(0.75 / 2 ** (q - 1))
            for n in (q - 1, q, 48):
                try:
                    _check_advance([2.0], z, n, 1.0)
                except AssertionError:
                    failed += 1
        assert failed > 0

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [-1, 0, 1])
    def test_workload_germs_get_a_sixteenth_of_the_radius(self, a, b):
        # the petal scan leaves their orbits well inside radius / 16, so
        # every pass after the scan skips its disc tests
        germ = NumericGerm([1.0, float(a), float(b)])
        clist = [c.real for c in _horner_coefficients(germ.coeffs,
                                                      germ.radius)]
        assert fatou._certified_box(clist, germ.radius) >= germ.radius / 16


class TestKernelBoundary:
    """Each public entry enters its orbit kernel through the module
    attribute a fixed number of times, so a wrapper of ``fatou._advance``
    or ``fatou._census_kernel`` counts calls, not steps."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        for name in ("_advance", "_census_kernel"):
            original = getattr(fatou, name)

            def counting(*args, _name=name, _original=original):
                seen.append(_name)
                return _original(*args)

            monkeypatch.setattr(fatou, name, counting)
        return seen

    def test_fatou_coordinate_advances_twice(self, calls):
        fatou_coordinate(reciprocal_model(), -0.05, n_max=20000)
        fatou_coordinate(NumericGerm([1.0, 0.0, 1.0]), 0.06j, n_max=20000)
        assert calls == ["_advance"] * 4

    def test_orbit_census_enters_once(self, calls):
        orbit_census(NumericGerm([1.0, 1.0]), 0.4, max_iter=1000)
        assert calls == ["_census_kernel"]
