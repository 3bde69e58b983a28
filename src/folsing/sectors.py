"""Angular combinatorics for one-zero-eigenvalue points in several variables.

The model field has one degenerate direction and nonzero eigenvalues
gamma = (gamma_2, ..., gamma_n) on the complement, normalized so gamma_2 = 1
and subject to the convex-position requirement that 0 is outside the convex
hull of the gamma_j.  Solutions along a ray of direction theta grow or decay
according to the signs of cos(arg gamma_j - theta); coefficient slots of
sector isotropies attached to a monomial exponent Q and component j behave
according to cos(arg w - theta) with w = <Q, gamma> - gamma_j.  Everything
here is sign combinatorics of those cosines:

* partition of the direction circle into decay/growth/mixed sectors,
* the discrete direction set where some coefficient changes regime,
* the canonical positive sector (largest clean decay arc) and its antipode,
* which (j, Q) slots admit nonzero coefficients on a given sector,
* the induced polynomial action on leaf constants.

Directions are unnormalized GaussianRational vectors, and every comparison
is an exact sign test on rational cross and dot products.  The same sorted
rays decide convex position (``zero_position``, which ``local`` uses for the
eigenvalue domains too): 0 is outside the hull of nonzero points exactly
when some gap between angularly consecutive rays exceeds a half-turn.  Input scalars
are read exactly: an int or a Fraction as itself, a float or a complex as
the dyadic rationals its parts store; NaN and infinities are refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DegenerateEigenData,
    InadmissibleCoefficient,
    RequestTooLarge,
    SectorContainsSingularDirection,
    ZeroInput,
)
from .poly import exponents
from .scalars import ZERO, GaussianRational

Exponent = Tuple[int, ...]
Pair = Tuple[int, Exponent]

I = GaussianRational(0, 1)


# --------------------------------------------------------------------------
# exact direction arithmetic
# --------------------------------------------------------------------------
def _to_value(v) -> GaussianRational:
    """An input scalar as a GaussianRational; a float or a complex is read
    exactly, each part as ``Fraction(x)``."""
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    if isinstance(v, (float, complex)):
        z = complex(v)
        try:
            return GaussianRational(Fraction(z.real), Fraction(z.imag))
        except (ValueError, OverflowError):
            raise DegenerateEigenData(
                "eigen data must be finite, got %r" % (v,)) from None
    raise ZeroInput("unsupported scalar %r" % (v,))


def _real_exponent(a) -> Fraction:
    """An exponent alpha_j, which must be real, as a Fraction."""
    try:
        return _to_value(a).as_fraction()
    except ValueError:
        raise DegenerateEigenData(f"alpha must be real, got {a}") from None


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _cross(a, b) -> Fraction:
    return a.re * b.im - a.im * b.re


def _dot(a, b) -> Fraction:
    return a.re * b.re + a.im * b.im


def _angle_key(v):
    """Sortable key increasing with the argument of v over [0, 2*pi)."""
    re, im = v.re, v.im
    sre, sim = _sign(re), _sign(im)
    if sre == 0 and sim == 0:
        raise ZeroInput("zero direction vector")
    if sre > 0 and sim >= 0:
        return (0, im / re)
    if sre <= 0 and sim > 0:
        return (1, -re / im)
    if sre < 0 and sim <= 0:
        return (2, im / re)
    return (3, -re / im)


def _same_ray(a, b) -> bool:
    return _sign(_cross(a, b)) == 0 and _sign(_dot(a, b)) > 0


def _sorted_rays(vectors: Iterable) -> List:
    rays: List = []
    for v in vectors:
        if not any(_same_ray(v, r) for r in rays):
            rays.append(v)
    rays.sort(key=_angle_key)
    return rays


def zero_position(points: Sequence) -> str:
    """Where 0 lies against the convex hull of GaussianRational points:
    "outside", on its relative "boundary" or in its relative "interior".

    An exact angular-gap test.  The nonzero points are sorted into rays by
    argument; 0 is outside the hull iff no point is 0 and some
    counterclockwise gap between consecutive rays exceeds a half-turn (a
    single ray leaves a full turn).  Such a gap with 0 among the points
    makes 0 a vertex, and a gap of exactly a half-turn puts 0 on an edge;
    both are boundary.  Two opposite rays alone span a segment through 0,
    which holds it in its relative interior.
    """
    rays = _sorted_rays(p for p in points if not p.is_zero())
    crosses = [_cross(a, b) for a, b in zip(rays, rays[1:] + rays[:1])]
    if len(rays) <= 1 or any(c < 0 for c in crosses):
        return "boundary" if any(p.is_zero() for p in points) else "outside"
    # consecutive rays are distinct, so a zero cross product is a half-turn
    if len(rays) > 2 and any(c == 0 for c in crosses):
        return "boundary"
    return "interior"


def _in_open_arc(v, start, end) -> bool:
    """Is direction v strictly inside the counterclockwise arc start -> end?"""
    b = v * start.conjugate()
    c = end * start.conjugate()
    kc = _angle_key(c)
    if kc[0] == 0 and kc[1] == 0:
        return False
    kb = _angle_key(b)
    if kb[0] == 0 and kb[1] == 0:
        return False
    return kb < kc


def _gap_sample(start, end):
    """A direction strictly inside the counterclockwise arc start -> end."""
    s = _sign(_cross(start, end))
    if s > 0:
        return start + end
    if s == 0:
        return I * start
    return -(start + end)


def _turns_of(v) -> Optional[Fraction]:
    """Exact fraction of a full turn when v lies on an eighth-turn axis."""
    sre, sim = _sign(v.re), _sign(v.im)
    if sim == 0:
        return Fraction(0) if sre > 0 else Fraction(1, 2)
    if sre == 0:
        return Fraction(1, 4) if sim > 0 else Fraction(3, 4)
    if abs(v.re) != abs(v.im):
        return None
    if sre > 0:
        return Fraction(1, 8) if sim > 0 else Fraction(7, 8)
    return Fraction(3, 8) if sim > 0 else Fraction(5, 8)


def _direction_json(v) -> dict:
    turns = _turns_of(v)
    return {
        "vector": [str(v.re), str(v.im)],
        "turns": None if turns is None else str(turns),
        "radians": math.atan2(float(v.im), float(v.re)),
    }


# --------------------------------------------------------------------------
# eigen data
# --------------------------------------------------------------------------
class EigenData:
    """Nonzero-block eigenvalues gamma (normalized to gamma_2 = 1) and the
    real exponents alpha of the associated model; rejects configurations
    with 0 in the convex hull of the gamma_j.  The sheaf directions are
    built once per degree bound and kept in ``sheaves``."""

    __slots__ = ("gamma", "alpha", "sheaves")

    def __init__(self, gamma: Sequence, alpha: Optional[Sequence] = None):
        values = [_to_value(g) for g in gamma]
        if not values:
            raise DegenerateEigenData("at least one nonzero eigenvalue required")
        first = values[0]
        if first.is_zero():
            raise DegenerateEigenData("leading eigenvalue must be nonzero")
        values = [v / first for v in values]
        for v in values:
            if v.is_zero():
                raise DegenerateEigenData("zero eigenvalue in the nonzero block")
        if zero_position(values) != "outside":
            raise DegenerateEigenData(
                "0 lies in the convex hull of the eigenvalues")
        self.gamma = tuple(values)
        if alpha is None:
            alpha = [Fraction(0)] * len(values)
        self.alpha = tuple(_real_exponent(a) for a in alpha)
        if len(self.alpha) != len(self.gamma):
            raise DegenerateEigenData("alpha and gamma lengths differ")
        self.sheaves = {}

    @property
    def n(self) -> int:
        """Ambient dimension (degenerate direction plus the nonzero block)."""
        return len(self.gamma) + 1

    def pairing(self, exps: Exponent):
        """<Q, gamma> for a monomial exponent on the nonzero block."""
        acc = None
        for q, g in zip(exps, self.gamma):
            if q == 0:
                continue
            term = g * q
            acc = term if acc is None else acc + term
        return ZERO if acc is None else acc

    def to_json(self) -> dict:
        return {
            "gamma": [[str(g.re), str(g.im)] for g in self.gamma],
            "alpha": [str(a) for a in self.alpha],
        }


# --------------------------------------------------------------------------
# sectors
# --------------------------------------------------------------------------
class Sector:
    """Open counterclockwise arc between two direction vectors."""

    __slots__ = ("start", "end")

    def __init__(self, start, end):
        self.start = _to_value(start)
        self.end = _to_value(end)
        if _same_ray(self.start, self.end):
            raise ZeroInput("empty sector (equal boundary directions)")

    def contains(self, direction) -> bool:
        return _in_open_arc(_to_value(direction), self.start, self.end)

    def interior_sample(self):
        return _gap_sample(self.start, self.end)

    def antipode(self) -> "Sector":
        return Sector(-self.start, -self.end)

    def length_key(self):
        return _angle_key(self.end * self.start.conjugate())

    def to_json(self) -> dict:
        return {
            "start": _direction_json(self.start),
            "end": _direction_json(self.end),
        }

    def __repr__(self) -> str:
        return "Sector(%s -> %s)" % (self.start, self.end)


class SectorPartition:
    """Circle split along the solution singular directions, each open arc
    tagged Attractor (all components decay), Saddle (all grow) or Mixed."""

    __slots__ = ("sectors", "singular_directions")

    def __init__(self, sectors: List[Tuple[Sector, str]], singular_directions: List):
        self.sectors = sectors
        self.singular_directions = singular_directions

    def tagged(self, tag: str) -> List[Sector]:
        return [s for s, t in self.sectors if t == tag]

    def to_json(self) -> dict:
        return {
            "sectors": [
                {"tag": t, **s.to_json()} for s, t in self.sectors],
            "singular_directions": [
                _direction_json(v) for v in self.singular_directions],
        }


def solution_sectors(e: EigenData) -> SectorPartition:
    """Partition of directions by the decay pattern of model solutions.

    The arcs are cut at the directions orthogonal to some gamma_j (where
    some component switches between decay and growth).
    """
    dirs = []
    for g in e.gamma:
        dirs.append(I * g)
        dirs.append(-I * g)
    rays = _sorted_rays(dirs)
    return SectorPartition(_tagged_arcs(e, rays), rays)


def _tagged_arcs(e: EigenData, rays: List) -> List[Tuple[Sector, str]]:
    """The arcs between consecutive rays, each tagged by the decay pattern
    of the model solutions at an interior sample."""
    out = []
    for idx, start in enumerate(rays):
        end = rays[(idx + 1) % len(rays)]
        sample = _gap_sample(start, end)
        signs = {_sign(_dot(g, sample)) for g in e.gamma}
        if signs == {1}:
            tag = "Attractor"
        elif signs == {-1}:
            tag = "Saddle"
        else:
            tag = "Mixed"
        out.append((Sector(start, end), tag))
    return out


# --------------------------------------------------------------------------
# sheaf singular directions
# --------------------------------------------------------------------------
class SheafDirections:
    """Degree-bounded list of coefficient-regime-change directions.

    Each record is (j, Q, w) with w = <Q, gamma> - gamma_j nonzero; the
    corresponding directions are the two rotations of w by a quarter turn.
    ``rays`` is the deduplicated, angle-sorted direction list.
    """

    __slots__ = ("records", "rays", "maxdeg")

    def __init__(self, records, rays, maxdeg):
        self.records = records
        self.rays = rays
        self.maxdeg = maxdeg

    def to_json(self) -> dict:
        return {
            "maxdeg": self.maxdeg,
            "rays": [_direction_json(v) for v in self.rays],
            "count": len(self.records),
        }


# The most (component, monomial) pairs the sheaf directions may enumerate:
# n - 1 components times the monomials of degree <= maxdeg in n - 1
# variables.  The sectors command costs about 0.3 ms per pair: 0.94 s for
# 2652 pairs (--gamma 1,2 --maxdeg 50), 1.35 s for 5313 (--gamma 1,2,3
# --maxdeg 20).
MAX_SHEAF_RECORDS = 4096


def sheaf_singular_directions(e: EigenData, maxdeg: int) -> SheafDirections:
    """The records and rays up to degree ``maxdeg``, built on the first call
    for ``e`` and that bound; more than ``MAX_SHEAF_RECORDS`` (component,
    monomial) pairs are refused before any is formed."""
    if maxdeg in e.sheaves:
        return e.sheaves[maxdeg]
    k = e.n - 1
    # there are k * C(maxdeg + k, k) >= maxdeg + 1 pairs, so a large maxdeg
    # is refused before the binomial is formed
    if maxdeg >= MAX_SHEAF_RECORDS or k * math.comb(maxdeg + k, k) > MAX_SHEAF_RECORDS:
        raise RequestTooLarge("too many monomials below the degree bound",
                              maxdeg=maxdeg, components=k,
                              limit=MAX_SHEAF_RECORDS)
    # records sorted by (total degree, exponent) within each component
    monomials = sorted((q for d in range(maxdeg + 1)
                        for q in exponents(e.n - 1, d)),
                       key=lambda q: (sum(q), q))
    records = []
    dirs = []
    for j in range(2, e.n + 1):
        gj = e.gamma[j - 2]
        for exps in monomials:
            w = e.pairing(exps) - gj
            if w.is_zero():
                continue
            records.append((j, exps, w))
            dirs.append(I * w)
            dirs.append(-I * w)
    sheaf = e.sheaves[maxdeg] = SheafDirections(records, _sorted_rays(dirs),
                                                maxdeg)
    return sheaf


def free_arcs(e: EigenData, maxdeg: int) -> List[Tuple[Sector, str]]:
    """Arcs between consecutive sheaf singular directions, tagged by the
    solution behavior of their interior."""
    return _tagged_arcs(e, sheaf_singular_directions(e, maxdeg).rays)


def positive_sector(e: EigenData, maxdeg: int) -> Tuple[Sector, dict]:
    """Canonical S+: the largest attractor arc free of singular directions.

    Ties go to the arc met first in angle order.  Returns the sector and a
    record of the chosen base direction (the arc's interior sample), which
    plays the role of the free initial direction in the construction.
    """
    candidates = [s for s, tag in free_arcs(e, maxdeg) if tag == "Attractor"]
    if not candidates:
        raise DegenerateEigenData("no singular-free attractor arc at this degree")
    best = max(candidates, key=lambda s: s.length_key())
    phi0 = best.interior_sample()
    return best, {"phi0": _direction_json(phi0)}


# --------------------------------------------------------------------------
# admissible coefficient slots
# --------------------------------------------------------------------------
class AdmissibleMonomialSet:
    """Coefficient slots (j, Q) allowed to be nonzero for isotropies
    asymptotic to the identity on the sector."""

    __slots__ = ("pairs", "sector", "maxdeg", "n")

    def __init__(self, pairs: List[Pair], sector: Sector, maxdeg: int, n: int):
        self.pairs = sorted(pairs)
        self.sector = sector
        self.maxdeg = maxdeg
        self.n = n

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def coefficient_name(self, pair: Pair) -> str:
        j, exps = pair
        if all(q <= 9 for q in exps):
            return "a%d%s" % (j, "".join(str(q) for q in exps))
        return "a[%d,(%s)]" % (j, ",".join(str(q) for q in exps))

    def component_names(self) -> List[str]:
        if self.n == 3:
            return ["y", "z"]
        if self.n == 2:
            return ["y"]
        return ["x%d" % j for j in range(2, self.n + 1)]

    def shape(self) -> str:
        names = self.component_names()
        pieces = []
        for j in range(2, self.n + 1):
            terms = [names[j - 2]]
            for pair in self.pairs:
                if pair[0] != j:
                    continue
                monomial = "*".join(
                    names[k] if q == 1 else "%s^%d" % (names[k], q)
                    for k, q in enumerate(pair[1]) if q)
                coeff = self.coefficient_name(pair)
                terms.append(coeff if not monomial else "%s*%s" % (coeff, monomial))
            pieces.append(" + ".join(terms))
        inner = ", ".join(pieces)
        args = ", ".join(names)
        if self.n == 2:
            return "%s -> %s" % (args, inner)
        return "(%s) -> (%s)" % (args, inner)

    def to_json(self) -> dict:
        return {
            "maxdeg": self.maxdeg,
            "pairs": [[j, list(exps)] for j, exps in self.pairs],
            "shape": self.shape(),
            "sector": self.sector.to_json(),
        }


def _obtuse_on_sector(w, sector: Sector) -> bool:
    """Is cos(arg w - theta) < 0 for every direction theta strictly inside?

    Checked by a rotation walk: nonstrict negativity of the dot product at
    the endpoints and at quarter-turn samples, strict at interior samples.
    Consecutive samples are less than a half turn apart, so nonstrict
    negativity at all of them pins the whole closed arc inside the closed
    half-plane; an interior strict sample then rules out the boundary case.
    """
    samples = [(sector.start, False)]
    probe = I * sector.start
    while _in_open_arc(probe, sector.start, sector.end):
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


def admissible_monomials(e: EigenData, sector: Sector, maxdeg: int) -> AdmissibleMonomialSet:
    """Slots (j, Q) whose coefficient may be nonzero on the sector.

    The sector must not contain any singular direction up to the degree
    bound; a slot qualifies when its regime cosine is negative on the whole
    open sector.
    """
    sheaf = sheaf_singular_directions(e, maxdeg)
    for ray in sheaf.rays:
        if sector.contains(ray):
            raise SectorContainsSingularDirection(
                "sector contains a singular direction",
                direction=_direction_json(ray))
    pairs = []
    for j, exps, w in sheaf.records:
        if _obtuse_on_sector(w, sector):
            pairs.append((j, exps))
    return AdmissibleMonomialSet(pairs, sector, maxdeg, e.n)


def leaf_transition(constants: Sequence, values: Dict[Pair, object],
                    admissible: AdmissibleMonomialSet) -> Tuple:
    """Action on leaf constants: c_j += a_j0 + sum over Q of a_jQ c^Q.

    Every supplied coefficient must sit in an admissible slot.
    """
    c = list(constants)
    if len(c) != admissible.n - 1:
        raise ZeroInput("expected %d leaf constants" % (admissible.n - 1))
    for pair in values:
        if pair not in admissible:
            raise InadmissibleCoefficient(
                "coefficient slot %s is not admissible on this sector" % (pair,),
                pair=[pair[0], list(pair[1])])
    out = list(c)
    for (j, exps), a in values.items():
        term = a
        for q, ck in zip(exps, c):
            if q:
                term = term * ck ** q
        out[j - 2] = out[j - 2] + term
    return tuple(out)
