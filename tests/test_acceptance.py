"""Release gate: ten end-to-end criteria, one test (one verdict line) each.

Each test states its tolerances and budgets inline and exercises the public
API the way a user would.  Randomized portions use fixed seeds so a failure
is reproducible; nothing here monkeypatches or stubs the library.
"""

import cmath
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from folsing import jsonio
from folsing.blowup import blow_up_field, wedge_certificate
from folsing.cli import corpus_run
from folsing.cp2 import (
    affine_chart_transfer,
    fol_space_dimension,
    foliation_degree,
    homogeneous_to_affine,
    jouanolou,
    tangency_samples,
)
from folsing.errors import NonIsolatedSingularity, ToolkitError
from folsing.fatou import (
    NumericGerm,
    abel_residual,
    attracting_directions,
    fatou_coordinate,
    orbit_census,
    petal_points,
)
from folsing.holonomy import (
    construct_first_integral_homogeneous,
    linear_holonomy,
    mattei_moussu_criterion,
    projective_holonomy_generators,
    saddle_node_holonomy,
    verify_first_integral,
)
from folsing.local import classify_singularity
from folsing.normalforms import (
    conjugacy_residual,
    dulac_reduce,
    poincare_linearize,
    resonant_normal_form,
    saddle_node_prepare,
    siegel_straighten,
)
from folsing.parsing import parse_field, parse_form, parse_poly
from folsing.poly import MultiPoly, OneFormGerm, VectorFieldGerm
from folsing.resolve import resolve, verify_ledger
from folsing.scalars import GaussianRational
from folsing.sectors import EigenData, admissible_monomials, free_arcs, positive_sector

CUSP = "2*y*ddx + 3*x^2*ddy"
EULER = "x^2*ddx + (y - x)*ddy"


def _random_poly(rng, dmin, dmax, density=0.5, span=3):
    terms = {}
    for d in range(dmin, dmax + 1):
        for i in range(d + 1):
            if rng.random() < density:
                c = rng.randint(-span, span)
                if c:
                    terms[(i, d - i)] = GaussianRational(c)
    return MultiPoly(2, terms)


def _linear(cx, cy):
    return VectorFieldGerm([
        MultiPoly(2, {(1, 0): GaussianRational(cx)}),
        MultiPoly(2, {(0, 1): GaussianRational(cy)}),
    ])


def _with_higher_terms(rng, cx, cy, first_zero=False):
    lin = _linear(cx, cy)
    c0 = lin.components[0] + _random_poly(rng, 2, 3, 0.4, 2)
    c1 = (_random_poly(rng, 2, 3, 0.4, 2) if first_zero
          else lin.components[1] + _random_poly(rng, 2, 3, 0.4, 2))
    return VectorFieldGerm([c0, c1])


# ---------------------------------------------------------------------
# 1. single blow-up correctness
# ---------------------------------------------------------------------
def test_criterion_01_blowup_certificates():
    """50 random fields of degree <= 3: pulled-back line field matches the
    transformed field exactly in both charts, in under 10 seconds."""
    started = time.monotonic()
    rng = random.Random(101)
    checked = 0
    while checked < 50:
        vf = VectorFieldGerm([_random_poly(rng, 1, 3),
                              _random_poly(rng, 1, 3)])
        if vf.is_zero():
            continue
        for chart in (1, 2):
            transformed, _ = blow_up_field(vf, chart)
            assert wedge_certificate(vf, transformed, chart).is_zero()
        checked += 1
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------
# 2. resolution trees balance their intersection ledger
# ---------------------------------------------------------------------
def _resolution_corpus():
    cases = [parse_field(EULER), parse_field(CUSP)]
    for m in range(1, 6):
        for n in range(1, 6):
            if math.gcd(m, n) == 1:
                cases.append(parse_field(f"{m}*x*ddx - {n}*y*ddy"))
    rng = random.Random(202)
    added = 0
    while added < 20:
        vf = VectorFieldGerm([_random_poly(rng, 1, 2, 0.6),
                              _random_poly(rng, 1, 2, 0.6)])
        if vf.is_zero():
            continue
        cases.append(vf)
        added += 1
    trees = []
    for vf in cases:
        try:
            trees.append(resolve(vf, max_blowups=24))
        except NonIsolatedSingularity:
            continue
    return trees


def test_criterion_02_resolution_ledger():
    """Every node of every resolution satisfies the multiplicity ledger; the
    cusp needs exactly three blow-ups and nothing is final early."""
    trees = _resolution_corpus()
    assert len(trees) >= 20
    for tree in trees:
        rows, ok = verify_ledger(tree)
        assert ok, rows
        assert all(row["balanced"] for row in rows)
    cusp_tree = resolve(parse_field(CUSP))
    assert cusp_tree.blowup_count == 3
    internal = [n for n in cusp_tree.nodes if n.children]
    leaves = [n for n in cusp_tree.nodes if not n.children]
    assert all(not n.final for n in internal)
    assert all(n.final for n in leaves)


# ---------------------------------------------------------------------
# 3. leaves of a resolution really are final
# ---------------------------------------------------------------------
def test_criterion_03_leaf_finality():
    """Reclassifying each leaf germ independently confirms the stored tag
    and that the tag is terminal for the reduction process."""
    for tree in _resolution_corpus():
        for node in tree.nodes:
            if node.children:
                continue
            if node.expanded:
                # dicritical blow-up with nothing singular left on the divisor
                assert node.dicritical
                continue
            fresh = classify_singularity(node.field)
            assert fresh.tag == node.classification.tag
            assert fresh.is_final()
            assert node.final
            assert node.form.order_at_origin() <= 1


# ---------------------------------------------------------------------
# 4. truncated conjugacies are exact to their order
# ---------------------------------------------------------------------
def test_criterion_04_conjugacy_residuals():
    """30 random fields per reduction routine at order 8: the conjugacy
    residual vanishes identically; the resonant model keeps (p, lambda) =
    (1, 5) exactly."""
    rng = random.Random(404)
    poincare_pairs = [(2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 7)]
    for i in range(30):
        m, n = poincare_pairs[i % len(poincare_pairs)]
        vf = _with_higher_terms(rng, m, n)
        result = poincare_linearize(vf, order=8)
        assert not result.kept
        assert all(r.is_zero() for r in conjugacy_residual(vf, result))
    for i in range(30):
        vf = _with_higher_terms(rng, 1, 2 + i % 3)
        result = resonant_normal_form(vf, order=8)
        assert all(r.is_zero() for r in conjugacy_residual(vf, result))
    siegel_pairs = [(1, 1), (1, 2), (2, 3), (1, 3), (3, 4), (2, 5)]
    for i in range(30):
        m, n = siegel_pairs[i % len(siegel_pairs)]
        vf = _with_higher_terms(rng, m, -n)
        result = siegel_straighten(vf, order=8)
        assert all(r.is_zero() for r in conjugacy_residual(vf, result))
    for i in range(30):
        vf = _with_higher_terms(rng, 1, 0, first_zero=True)
        result = dulac_reduce(vf, order=8)
        assert all(r.is_zero() for r in conjugacy_residual(vf, result))
    model = saddle_node_prepare(parse_field("(x + 5*x*y)*ddx + y^2*ddy"))
    assert (model.p, model.modulus) == (1, GaussianRational(5))


# ---------------------------------------------------------------------
# 5. holonomy germs
# ---------------------------------------------------------------------
def test_criterion_05_holonomy():
    """The first deviation of the transverse return map sits at degree p+1
    with coefficient tau; the p=1, lambda=0 germ is z/(1 - tau z) through
    order 6; the 2:-3 saddle has linear holonomy -1."""
    for p in (1, 2, 3):
        germ = saddle_node_holonomy(p, 0, order=p + 2)
        assert germ.coefficient(p + 1) == MultiPoly.variable(0, 1)
        for k in range(2, p + 1):
            assert germ.coefficient(k).is_zero()
    geometric = saddle_node_holonomy(1, 0, order=6)
    for k in range(1, 7):
        assert geometric.coefficient(k) == MultiPoly.monomial(1, (k - 1,))
    multiplier = linear_holonomy(parse_field("2*x*ddx - 3*y*ddy"))
    assert multiplier.exponent == Fraction(-3, 2)
    assert multiplier.as_gaussian_or_none() == GaussianRational(-1)


# ---------------------------------------------------------------------
# 6. first-integral decision procedure
# ---------------------------------------------------------------------
def test_criterion_06_first_integrals():
    """All 27 three-line products x^a y^b (x-y)^c with a, b, c in {1,2,3}
    pass the necessary conditions and yield a verified integral whose loop
    multipliers are exp(-2 pi i n_i / N) with product 1; a degenerate germ
    and a nonreal-ratio germ both fail with the obstructing leaf named."""
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for n3 in (1, 2, 3):
                f = parse_poly(f"x^{n1} * y^{n2} * (x - y)^{n3}")
                form = OneFormGerm(f.derivative(0), f.derivative(1))
                assert mattei_moussu_criterion(form).passes()
                result = construct_first_integral_homogeneous(form)
                assert verify_first_integral(form, result.integral)
                g = math.gcd(math.gcd(n1, n2), n3)
                power = result.integral
                for _ in range(g - 1):
                    power = power * result.integral
                key = min(f.terms)
                ratio = f.terms[key] / power.terms[key]
                assert power.scale(ratio) == f
                total = n1 + n2 + n3
                expected = sorted(Fraction(-n, total) for n in (n1, n2, n3))
                gens = projective_holonomy_generators(result)
                assert sorted(g.exponent for g in gens) == expected
                assert sum(g.exponent for g in gens).denominator == 1
    degenerate = mattei_moussu_criterion(parse_field(EULER))
    assert degenerate.verdict == "FailsNecessaryConditions"
    assert any(leaf["tag"] == "SaddleNode" for leaf in degenerate.leaves)
    spiral = mattei_moussu_criterion(parse_field("x*ddx + i*y*ddy"))
    assert spiral.verdict == "FailsNecessaryConditions"
    assert any(leaf["tag"] == "Hyperbolic" for leaf in spiral.leaves)


# ---------------------------------------------------------------------
# 7. projective-plane invariants
# ---------------------------------------------------------------------
def test_criterion_07_projective_invariants():
    """The degree-n family with no algebraic leaf has degree n for
    n = 1..4; 30 random fields give the same degree in both affine charts;
    5 sampled lines each meet the foliation in exactly degree points; the
    space of degree-d foliations has dimension (d+1)(d+3) - 1 for d <= 4."""
    for n in range(1, 5):
        affine = homogeneous_to_affine(jouanolou(n))
        report = foliation_degree(affine)
        assert report.degree == n
        assert report.top_part_radial is True
        samples = tangency_samples(affine, count=5, seed=0)
        assert samples["bad"] == []
        assert all(s["count"] == n for s in samples["samples"])
    rng = random.Random(707)
    agreed = 0
    while agreed < 30:
        vf = VectorFieldGerm([_random_poly(rng, 0, 2, 0.6),
                              _random_poly(rng, 0, 2, 0.6)])
        if vf.is_zero():
            continue
        try:
            deg_a = foliation_degree(vf, chart="a").degree
            deg_b = foliation_degree(affine_chart_transfer(vf, "a", "b"),
                                     chart="b").degree
        except ToolkitError:
            continue
        assert deg_a == deg_b
        agreed += 1
    for d in range(1, 5):
        assert fol_space_dimension(d) == (d + 1) * (d + 3) - 1
    assert fol_space_dimension(1) == 7


# ---------------------------------------------------------------------
# 8. sector combinatorics
# ---------------------------------------------------------------------
def test_criterion_08_sectors():
    """Rank-2 dichotomy through degree 8 (one translation slot on the
    attracting side, tangent-to-identity slots on the repelling side);
    admissible sets on opposite arcs are disjoint through degree 5; the
    rank-3 example keeps exactly the three expected slots."""
    one = GaussianRational(1)
    i = GaussianRational(0, 1)
    rank2 = EigenData([one])
    sector, _ = positive_sector(rank2, 8)
    assert admissible_monomials(rank2, sector, 8).pairs == [(2, (0,))]
    assert admissible_monomials(rank2, sector.antipode(), 8).pairs == \
        [(2, (q,)) for q in range(2, 9)]
    for gamma in ([one, i], [one, GaussianRational(2, 1)]):
        data = EigenData(gamma)
        for arc, _tag in free_arcs(data, 5):
            front = set(admissible_monomials(data, arc, 5).pairs)
            back = set(admissible_monomials(data, arc.antipode(), 5).pairs)
            assert not front & back
    figure = EigenData([one, i])
    sector, _ = positive_sector(figure, 5)
    admissible = admissible_monomials(figure, sector, 5)
    assert admissible.pairs == [(2, (0, 0)), (2, (0, 1)), (3, (0, 0))]
    assert admissible.shape() == "(y, z) -> (y + a200 + a201*z, z + a300)"


# ---------------------------------------------------------------------
# 9. parabolic dynamics, floating point
# ---------------------------------------------------------------------
def test_criterion_09_parabolic_numerics():
    """Model with known coordinate -1/z: conjugation residual < 1e-9 at 20
    petal points; cubic germ: residual < 1e-6 with iteration cap 1e5 and
    doubling increment < 1e-8; two-petal directions are +/- i to 1e-12;
    fifth-root-of-unity rotation: every sampled orbit has period 5.  All
    within 30 seconds."""
    started = time.monotonic()
    model = NumericGerm([1.0] * 16)
    points = petal_points(model, 20, scale=0.1)
    assert abel_residual(model, lambda z: -1.0 / z, points) < 1e-9
    cubic = NumericGerm([1.0, 1.0, 1.0])
    phi = lambda z: fatou_coordinate(cubic, z, n_max=100000).value
    assert abel_residual(cubic, phi, petal_points(cubic, 20, scale=0.15)) < 1e-6
    estimate = fatou_coordinate(cubic, -0.1, n_max=100000)
    assert estimate.cauchy_increment < 1e-8
    for direction, target in zip(attracting_directions(1.0, 2), (1j, -1j)):
        assert abs(direction - target) < 1e-12
    rotation = NumericGerm([cmath.exp(2j * cmath.pi / 5)])
    census = orbit_census(rotation, 0.3, max_iter=1000000)
    assert census["periodic"] == census["total"] > 0
    assert census["period_histogram"] == {"5": census["total"]}
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------
# 10. deterministic round trips
# ---------------------------------------------------------------------
def test_criterion_10_determinism():
    """Every shipped corpus case is stable under parse-render-parse and
    matches its golden output; repeated CLI invocations in fresh processes
    are byte-identical."""
    report = corpus_run()
    assert report["total"] == 9
    assert report["failed"] == 0
    jsonio.validate(report, "corpus_report")
    invocations = [
        ["resolve", "--expr", CUSP],
        ["analyze", "--expr", EULER],
        ["corpus", "run"],
    ]
    for args in invocations:
        cmd = [sys.executable, "-m", "folsing.cli"] + args
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout
