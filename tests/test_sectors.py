"""Sector combinatorics: partitions, singular directions, admissible slots."""

import hashlib
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from folsing import jsonio, sectors
from folsing.cli import payload_sectors
from folsing.errors import (
    DegenerateEigenData,
    InadmissibleCoefficient,
    RequestTooLarge,
    SectorContainsSingularDirection,
    ZeroInput,
)
from folsing.scalars import GaussianRational
from folsing.sectors import (
    MAX_SHEAF_RECORDS,
    AdmissibleMonomialSet,
    EigenData,
    Sector,
    admissible_monomials,
    free_arcs,
    leaf_transition,
    positive_sector,
    sheaf_singular_directions,
    solution_sectors,
)

G = GaussianRational
I = G(0, 1)


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


def ray_set(vectors):
    """Canonicalize direction vectors to comparable exact tags."""
    out = set()
    for v in vectors:
        re, im = Fraction(v.re), Fraction(v.im)
        if re:
            out.add(((re > 0) - (re < 0), (im > 0) - (im < 0), im / re))
        else:
            out.add((0, (im > 0) - (im < 0), None))
    return out


class TestEigenData:
    def test_normalizes_leading_eigenvalue(self):
        e = EigenData([G(3), G(0, 3)])
        assert e.gamma == (G(1), I)
        assert e.n == 3

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(DegenerateEigenData):
            EigenData([G(1), G(0)])

    def test_opposite_pair_rejected(self):
        with pytest.raises(DegenerateEigenData):
            EigenData([G(1), G(-2)])

    def test_origin_in_triangle_rejected(self):
        with pytest.raises(DegenerateEigenData):
            EigenData([G(1), G(-1, 1), G(-1, -1)])

    def test_points_on_one_ray_accepted(self):
        assert EigenData([G(1), G(2), G(3)]).gamma == (G(1), G(2), G(3))
        assert EigenData([G(1, 1), G(2, 2), G(3, 3), I]).n == 5

    def test_half_plane_configuration_accepted(self):
        e = EigenData([G(1), G(2, 1), G(0, 5)])
        assert e.n == 4

    def test_float_input_read_exactly(self):
        e = EigenData([2.0, 2j, 0.1], alpha=[0.5, 0, 0.25])
        exact = EigenData([G(2), G(0, 2), G(Fraction(0.1))],
                          alpha=[Fraction(1, 2), 0, Fraction(1, 4)])
        assert e.gamma == exact.gamma
        assert e.gamma[2] == G(Fraction(0.1) / 2) != G(Fraction(1, 20))
        assert e.alpha == exact.alpha

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     complex(1, float("nan")),
                                     complex(float("inf"), 0)])
    def test_nonfinite_input_rejected(self, bad):
        with pytest.raises(DegenerateEigenData):
            EigenData([1.0, bad])
        with pytest.raises(DegenerateEigenData):
            EigenData([1.0], alpha=[bad])

    def test_nearly_opposite_floats_are_not_opposite(self):
        # -1 + 1e-13 i is off the negative real axis; no tolerance folds it in
        e = EigenData([1.0, complex(-1.0, 1e-13)])
        assert e.gamma[1] == G(-1, Fraction(1e-13))

    def test_pairing(self):
        e = EigenData([G(1), I])
        assert e.pairing((2, 1)) == G(2, 1)
        assert e.pairing((0, 0)).is_zero()

    def test_json_round(self):
        j = EigenData([G(1), I], alpha=[Fraction(1, 2), 0]).to_json()
        assert j["gamma"] == [["1", "0"], ["0", "1"]]
        assert j["alpha"] == ["1/2", "0"]


class TestSolutionSectors:
    def test_single_eigenvalue_two_sectors(self):
        part = solution_sectors(EigenData([G(1)]))
        tags = [t for _, t in part.sectors]
        assert sorted(tags) == ["Attractor", "Saddle"]
        assert len(part.singular_directions) == 2
        att = part.tagged("Attractor")[0]
        assert att.contains(G(1)) and not att.contains(G(-1))

    def test_positive_real_pair_no_mixed(self):
        part = solution_sectors(EigenData([G(1), G(2)]))
        assert [t for _, t in part.sectors].count("Mixed") == 0
        assert len(part.sectors) == 2

    def test_orthogonal_pair_four_sectors(self):
        part = solution_sectors(EigenData([G(1), I]))
        tags = [t for _, t in part.sectors]
        assert tags.count("Attractor") == 1
        assert tags.count("Saddle") == 1
        assert tags.count("Mixed") == 2
        att = part.tagged("Attractor")[0]
        sad = part.tagged("Saddle")[0]
        assert ray_set([att.start, att.end]) == ray_set([-sad.start, -sad.end])
        assert att.contains(G(1, 1))
        assert sad.contains(G(-1, -1))

    def test_attractor_saddle_antipodal_generic(self):
        part = solution_sectors(EigenData([G(1), G(3, 1), G(1, -2)]))
        for att in part.tagged("Attractor"):
            flipped = ray_set([-att.start, -att.end])
            assert any(
                ray_set([s.start, s.end]) == flipped
                for s in part.tagged("Saddle"))

    def test_json(self):
        j = solution_sectors(EigenData([G(1)])).to_json()
        assert j["sectors"][0]["tag"] in ("Attractor", "Saddle")
        assert j["singular_directions"][0]["turns"] in ("1/4", "3/4")


class TestSheafDirections:
    def test_single_eigenvalue_only_vertical_pair(self):
        sheaf = sheaf_singular_directions(EigenData([G(1)]), 8)
        assert ray_set(sheaf.rays) == ray_set([I, -I])

    def test_linear_slot_excluded(self):
        sheaf = sheaf_singular_directions(EigenData([G(1)]), 8)
        assert all(exps != (1,) for _, exps, _ in sheaf.records)

    def test_zero_degree_slice_matches_solution_directions(self):
        e = EigenData([G(1), G(2, 1)])
        solution = ray_set(solution_sectors(e).singular_directions)
        sheaf = sheaf_singular_directions(e, 4)
        zero_slice = []
        for j, exps, w in sheaf.records:
            if sum(exps) == 0:
                zero_slice.append(GaussianRational(0, 1) * w)
                zero_slice.append(GaussianRational(0, -1) * w)
        assert ray_set(zero_slice) == solution
        assert solution <= ray_set(sheaf.rays)

    def test_antipodal_symmetry(self):
        sheaf = sheaf_singular_directions(EigenData([G(1), I]), 5)
        rays = ray_set(sheaf.rays)
        assert rays == ray_set([-v for v in sheaf.rays])

    def test_figure_first_quadrant_rays(self):
        sheaf = sheaf_singular_directions(EigenData([G(1), I]), 5)
        quadrant = ray_set(
            v for v in sheaf.rays if v.re > 0 and v.im > 0)
        expected = ray_set(
            [G(q, 1) for q in range(1, 6)] + [G(1, q) for q in range(1, 6)])
        assert quadrant == expected


class TestRecordCap:
    # k components times C(maxdeg + k, k) monomials: 2 * C(63, 2) = 3906
    # and 2 * C(64, 2) = 4032 fit under 4096, 2 * C(65, 2) = 4160 does not
    def test_pairs_at_the_cap_are_enumerated(self):
        assert MAX_SHEAF_RECORDS == 4096
        sheaf = sheaf_singular_directions(EigenData([1, 2]), 62)
        assert len(sheaf.records) <= 4032

    @pytest.mark.parametrize("gamma, maxdeg", [
        ([1, 2], 63), ([1, 2, 3], 27), ([1], 4096), ([1, 2], 10 ** 30),
        ([1] * 5000, 0),
    ])
    def test_pairs_past_the_cap_are_refused(self, gamma, maxdeg):
        data = EigenData(gamma)
        for call in (lambda: sheaf_singular_directions(data, maxdeg),
                     lambda: positive_sector(data, maxdeg)):
            with pytest.raises(RequestTooLarge) as info:
                call()
            assert info.value.payload == {
                "maxdeg": maxdeg, "components": len(gamma),
                "limit": MAX_SHEAF_RECORDS}


class TestRecordCapBudget:
    # 2 * C(64, 2) = 4032 pairs, nearly all on distinct rays: the worst
    # input the cap accepts, so any ray question that scans the rays
    # pairwise overruns the budget here; the digest pins the output
    DIGEST = "ca4b074446094950f9eed21511f9265013d66298489603e83c1a18872df41fff"

    def test_cap_input_within_budget_and_unchanged(self):
        doc = _within(10, payload_sectors, [1, I], None, 62)
        text = jsonio.dumps(doc)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


# ---------------------------------------------------------------- references
# Answers by cross and dot product signs alone, against which the angle-key
# tests of sectors are checked: a pairwise ray scan, an open-arc test and a
# rotation walk over quarter-turn samples.
_sign, _cross, _dot = sectors._sign, sectors._cross, sectors._dot


def _same_ray(a, b):
    return _cross(a, b) == 0 and _dot(a, b) > 0


def reference_sorted_rays(vectors):
    rays = []
    for v in vectors:
        if not any(_same_ray(v, r) for r in rays):
            rays.append(v)
    rays.sort(key=sectors._angle_key)
    return rays


def reference_in_open_arc(v, start, end):
    """v strictly inside the counterclockwise arc start -> end, by signs:
    within a half-turn the arc is the cone of start and end, past it the
    complement of the closed cone of end and start."""
    if _same_ray(start, end) or _same_ray(v, start) or _same_ray(v, end):
        return False
    c = _sign(_cross(start, end))
    left_of_start = _sign(_cross(start, v))
    right_of_end = _sign(_cross(v, end))
    if c > 0:
        return left_of_start > 0 and right_of_end > 0
    if c == 0:
        return left_of_start > 0
    return not (left_of_start <= 0 and right_of_end <= 0)


def reference_obtuse_walk(w, sector):
    """Nonstrict negativity of the dot product at the endpoints and at
    quarter-turn samples, strict at interior samples."""
    samples = [(sector.start, False)]
    probe = I * sector.start
    while reference_in_open_arc(probe, sector.start, sector.end):
        samples.append((probe, True))
        probe = I * probe
    if len(samples) == 1:
        samples.append((sector.start + sector.end, True))
    samples.append((sector.end, False))
    for direction, strict in samples:
        s = _sign(_dot(w, direction))
        if s > 0 or (strict and s == 0):
            return False
    return True


_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_scales = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)
_small = st.builds(G, _parts, _parts).filter(lambda v: not v.is_zero())
# the eight axis and diagonal directions, at positive scales
_axes = st.builds(lambda v, c: v * c,
                  st.sampled_from([G(1), G(1, 1), I, G(-1, 1), G(-1),
                                   G(-1, -1), G(0, -1), G(1, -1)]),
                  _scales)
_directions = st.one_of(_small, _axes)


@st.composite
def _direction_lists(draw):
    """Directions with repeated rays: some are positive multiples of others."""
    base = draw(st.lists(_directions, min_size=1, max_size=12))
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), _scales),
                          max_size=8))
    out = base + [base[k] * c for k, c in picks]
    return draw(st.permutations(out))


class TestAngleKeyAgreesWithReferences:
    @given(_direction_lists())
    @settings(max_examples=200, deadline=None)
    def test_sorted_rays(self, vectors):
        got = sectors._sorted_rays(vectors)
        want = reference_sorted_rays(vectors)
        # the same vector objects, so the first one given on each ray
        assert [id(v) for v in got] == [id(v) for v in want]

    @given(_directions, _directions, _directions, _scales)
    @settings(max_examples=400, deadline=None)
    def test_in_open_arc(self, v, start, end, c):
        for probe in (v, start * c, end * c):
            assert (sectors._in_open_arc(probe, start, end)
                    == reference_in_open_arc(probe, start, end))

    @given(_directions, _directions, _directions, _scales)
    @settings(max_examples=400, deadline=None)
    def test_obtuse_on_sector(self, w, start, end, c):
        assume(not _same_ray(start, end))
        sector = Sector(start, end)
        # w on the sector's boundary rays and their quarter turns too
        for probe in (w, start * c, end * c, I * start, -I * end):
            assert (sectors._obtuse_on_sector(probe, sector)
                    == reference_obtuse_walk(probe, sector))

    def test_equal_keys_make_an_empty_sector(self):
        with pytest.raises(ZeroInput):
            Sector(G(1, 2), G(3, 6))
        assert Sector(G(1, 2), G(-1, -2)).contains(G(-1, 0))


class TestSheafBuiltOnce:
    def test_sectors_command_builds_the_sheaf_once(self, monkeypatch):
        # the command reads the sheaf itself, through positive_sector and
        # through admissible_monomials
        built = []

        class Counting(sectors.SheafDirections):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[-1])
                super().__init__(*args)

        monkeypatch.setattr(sectors, "SheafDirections", Counting)
        doc = payload_sectors([1, 2], None, 8)
        assert built == [8]
        assert doc["sheaf"]["maxdeg"] == doc["admissible"]["maxdeg"] == 8
        payload_sectors([1, 2], None, 8)
        assert built == [8, 8]


class TestPositiveSector:
    def test_single_eigenvalue_right_half_plane(self):
        s, info = positive_sector(EigenData([G(1)]), 8)
        assert ray_set([s.start, s.end]) == ray_set([-I, I])
        assert s.contains(G(1))
        assert info["phi0"]["turns"] == "0"

    def test_figure_case_tie_resolution(self):
        s, _ = positive_sector(EigenData([G(1), I]), 5)
        assert ray_set([s.start]) == ray_set([G(2, 1)])
        assert ray_set([s.end]) == ray_set([G(1, 1)])

    def test_antipode_is_saddle_free_arc(self):
        e = EigenData([G(1), I])
        s, _ = positive_sector(e, 5)
        anti = s.antipode()
        saddle_arcs = [a for a, t in free_arcs(e, 5) if t == "Saddle"]
        flipped = ray_set([anti.start, anti.end])
        assert any(
            ray_set([a.start, a.end]) == flipped for a in saddle_arcs)


class TestAdmissibleMonomials:
    def test_translation_only_on_positive_sector(self):
        e = EigenData([G(1)])
        s, _ = positive_sector(e, 8)
        adm = admissible_monomials(e, s, 8)
        assert adm.pairs == [(2, (0,))]
        assert adm.shape() == "y -> y + a20"

    def test_tangent_to_identity_on_negative_sector(self):
        e = EigenData([G(1)])
        s, _ = positive_sector(e, 8)
        adm = admissible_monomials(e, s.antipode(), 8)
        assert adm.pairs == [(2, (q,)) for q in range(2, 9)]

    def test_figure_case_slots(self):
        e = EigenData([G(1), I])
        s, _ = positive_sector(e, 5)
        adm = admissible_monomials(e, s, 5)
        assert adm.pairs == [(2, (0, 0)), (2, (0, 1)), (3, (0, 0))]
        assert adm.shape() == "(y, z) -> (y + a200 + a201*z, z + a300)"

    def test_constant_slots_always_admissible_on_positive_sector(self):
        for gamma in ([G(1), G(2, 1)], [G(1), G(5)], [G(1), I, G(1, 1)]):
            e = EigenData(gamma)
            s, _ = positive_sector(e, 4)
            adm = admissible_monomials(e, s, 4)
            for j in range(2, e.n + 1):
                assert (j, (0,) * (e.n - 1)) in adm

    def test_duality(self):
        for gamma in ([G(1), I], [G(1), G(2, 1)]):
            e = EigenData(gamma)
            for arc, _ in free_arcs(e, 5):
                front = set(admissible_monomials(e, arc, 5).pairs)
                back = set(admissible_monomials(e, arc.antipode(), 5).pairs)
                assert not front & back

    def test_sector_with_singular_direction_rejected(self):
        e = EigenData([G(1), I])
        with pytest.raises(SectorContainsSingularDirection):
            admissible_monomials(e, Sector(G(1), I), 5)

    def test_float_mode_matches_exact_figure_case(self):
        e = EigenData([1.0, 1j])
        s, _ = positive_sector(e, 5)
        adm = admissible_monomials(e, s, 5)
        assert adm.pairs == [(2, (0, 0)), (2, (0, 1)), (3, (0, 0))]

    def test_json(self):
        e = EigenData([G(1)])
        s, _ = positive_sector(e, 3)
        j = admissible_monomials(e, s, 3).to_json()
        assert j["pairs"] == [[2, [0]]]
        assert j["sector"]["start"]["turns"] == "3/4"
        assert j["sector"]["end"]["turns"] == "1/4"


class TestLeafTransition:
    def _figure_admissible(self):
        e = EigenData([G(1), I])
        s, _ = positive_sector(e, 5)
        return admissible_monomials(e, s, 5)

    def test_identity_without_coefficients(self):
        adm = self._figure_admissible()
        assert leaf_transition((G(4), G(7)), {}, adm) == (G(4), G(7))

    def test_pure_translation(self):
        e = EigenData([G(1)])
        s, _ = positive_sector(e, 8)
        adm = admissible_monomials(e, s, 8)
        out = leaf_transition((G(5),), {(2, (0,)): G(1)}, adm)
        assert out == (G(6),)

    def test_figure_evaluation(self):
        adm = self._figure_admissible()
        out = leaf_transition(
            (G(1), G(3)),
            {(2, (0, 0)): G(10), (2, (0, 1)): G(2), (3, (0, 0)): G(7)},
            adm)
        assert out == (G(17), G(10))

    def test_inadmissible_slot_rejected(self):
        adm = self._figure_admissible()
        with pytest.raises(InadmissibleCoefficient):
            leaf_transition((G(0), G(0)), {(3, (1, 0)): G(1)}, adm)

    def test_saddle_side_composition(self):
        e = EigenData([G(1)])
        s, _ = positive_sector(e, 8)
        adm = admissible_monomials(e, s.antipode(), 8)
        out = leaf_transition((G(2),), {(2, (2,)): G(1), (2, (3,)): G(-1)}, adm)
        assert out == (G(2) + G(4) - G(8),)
