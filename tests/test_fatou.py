"""Floating-point parabolic dynamics: directions, petals, translation
coordinate, orbit census, orbit kernels."""

import cmath
import math

import numpy as np
import pytest

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
