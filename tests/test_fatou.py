"""Floating-point parabolic dynamics: directions, petals, translation
coordinate, orbit census, orbit kernels."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folsing import fatou
from folsing.errors import (
    FloatOverflow,
    NotInPetal,
    SlowConvergence,
    ZeroInput,
    ZeroLeadingCoefficient,
)
from folsing.fatou import (
    NumericGerm,
    _advance,
    _census_kernel,
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

    def test_json(self):
        est = fatou_coordinate(reciprocal_model(), -0.05, n_max=20000)
        j = est.to_json()
        assert j["n_max"] == 20000
        assert j["p"] == 1


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


class TestFloatErrorState:
    """numpy's floating-point state is set once per call, not per step."""

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
        fatou_coordinate(reciprocal_model(), -0.05, n_max=20000)
        assert entries == [{"all": "ignore"}]

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
