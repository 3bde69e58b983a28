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

Directions are unnormalized vectors.  With exact Gaussian-rational data every
comparison is an exact sign test on rational cross/dot products; float data
falls back to the same tests with a configurable epsilon (default 1e-12).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DegenerateEigenData,
    InadmissibleCoefficient,
    SectorContainsSingularDirection,
    ZeroInput,
)
from .scalars import GaussianRational

Exponent = Tuple[int, ...]
Pair = Tuple[int, Exponent]


# --------------------------------------------------------------------------
# scalar adapters: exact Gaussian rationals or complex floats
# --------------------------------------------------------------------------
def _is_exact(v) -> bool:
    return isinstance(v, GaussianRational)


def _to_value(v):
    """Normalize an input scalar to GaussianRational (exact) or complex."""
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    if isinstance(v, complex):
        return v
    if isinstance(v, float):
        return complex(v)
    raise ZeroInput("unsupported scalar %r" % (v,))


def _re(v):
    return v.re if _is_exact(v) else v.real


def _im(v):
    return v.im if _is_exact(v) else v.imag


def _conj(v):
    return v.conjugate()


def _rot90(v):
    return GaussianRational(0, 1) * v if _is_exact(v) else 1j * v


def _sign(x, eps) -> int:
    if isinstance(x, Fraction):
        return (x > 0) - (x < 0)
    if abs(x) <= eps:
        return 0
    return 1 if x > 0 else -1


def _cross(a, b):
    return _re(a) * _im(b) - _im(a) * _re(b)


def _dot(a, b):
    return _re(a) * _re(b) + _im(a) * _im(b)


def _is_zero_value(v, eps) -> bool:
    if _is_exact(v):
        return v.is_zero()
    return abs(v) <= eps


def _real_exponent(a):
    """An exponent alpha_j: a float as given, an exact real value as a Fraction."""
    if isinstance(a, float):
        return a
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    try:
        return a.as_fraction()
    except (AttributeError, ValueError):
        raise DegenerateEigenData(f"alpha must be real, got {a}") from None


def _angle_key(v, eps):
    """Sortable key increasing with the argument of v over [0, 2*pi)."""
    sre, sim = _sign(_re(v), eps), _sign(_im(v), eps)
    if sre == 0 and sim == 0:
        raise ZeroInput("zero direction vector")
    if sre > 0 and sim >= 0:
        return (0, _im(v) / _re(v))
    if sre <= 0 and sim > 0:
        return (1, -_re(v) / _im(v))
    if sre < 0 and sim <= 0:
        return (2, _im(v) / _re(v))
    return (3, -_re(v) / _im(v))


def _same_ray(a, b, eps) -> bool:
    return _sign(_cross(a, b), eps) == 0 and _sign(_dot(a, b), eps) > 0


def _in_open_arc(v, start, end, eps) -> bool:
    """Is direction v strictly inside the counterclockwise arc start -> end?"""
    b = v * _conj(start)
    c = end * _conj(start)
    kc = _angle_key(c, eps)
    if kc == (0, 0) or (kc[0] == 0 and _sign(kc[1], eps) == 0):
        return False
    kb = _angle_key(b, eps)
    if kb[0] == 0 and _sign(kb[1], eps) == 0 and _sign(_re(b), eps) > 0:
        return False
    return kb < kc


def _gap_sample(start, end, eps):
    """A direction strictly inside the counterclockwise arc start -> end."""
    s = _sign(_cross(start, end), eps)
    if s > 0:
        return start + end
    if s == 0:
        return _rot90(start)
    return -(start + end)


def _turns_of(v, eps) -> Optional[Fraction]:
    """Exact fraction of a full turn when v lies on an eighth-turn axis."""
    sre, sim = _sign(_re(v), eps), _sign(_im(v), eps)
    if sim == 0:
        return Fraction(0) if sre > 0 else Fraction(1, 2)
    if sre == 0:
        return Fraction(1, 4) if sim > 0 else Fraction(3, 4)
    diag = _sign(abs(_re(v)) - abs(_im(v)), eps)
    if diag != 0:
        return None
    if sre > 0:
        return Fraction(1, 8) if sim > 0 else Fraction(7, 8)
    return Fraction(3, 8) if sim > 0 else Fraction(5, 8)


def _direction_json(v, eps) -> dict:
    import math

    turns = _turns_of(v, eps)
    if _is_exact(v):
        vector = [str(v.re), str(v.im)]
        radians = math.atan2(float(v.im), float(v.re))
    else:
        vector = [float(v.real), float(v.imag)]
        radians = math.atan2(v.imag, v.real)
    return {
        "vector": vector,
        "turns": None if turns is None else str(turns),
        "radians": radians,
    }


# --------------------------------------------------------------------------
# eigen data
# --------------------------------------------------------------------------
class EigenData:
    """Nonzero-block eigenvalues gamma (normalized to gamma_2 = 1) and the
    real exponents alpha of the associated model; rejects configurations
    with 0 in the convex hull of the gamma_j."""

    __slots__ = ("gamma", "alpha", "eps")

    def __init__(self, gamma: Sequence, alpha: Optional[Sequence] = None,
                 eps: float = 1e-12):
        values = [_to_value(g) for g in gamma]
        if not values:
            raise DegenerateEigenData("at least one nonzero eigenvalue required")
        exact = all(_is_exact(v) for v in values)
        if not exact:
            values = [complex(float(_re(v)), float(_im(v))) for v in values]
        self.eps = 0 if exact else eps
        first = values[0]
        if _is_zero_value(first, self.eps):
            raise DegenerateEigenData("leading eigenvalue must be nonzero")
        values = [v / first for v in values]
        for v in values:
            if _is_zero_value(v, self.eps):
                raise DegenerateEigenData("zero eigenvalue in the nonzero block")
        if _hull_contains_origin(values, self.eps):
            raise DegenerateEigenData(
                "0 lies in the convex hull of the eigenvalues")
        self.gamma = tuple(values)
        if alpha is None:
            alpha = [Fraction(0)] * len(values)
        self.alpha = tuple(_real_exponent(a) for a in alpha)
        if len(self.alpha) != len(self.gamma):
            raise DegenerateEigenData("alpha and gamma lengths differ")

    @property
    def n(self) -> int:
        """Ambient dimension (degenerate direction plus the nonzero block)."""
        return len(self.gamma) + 1

    @property
    def exact(self) -> bool:
        return self.eps == 0

    def pairing(self, exps: Exponent):
        """<Q, gamma> for a monomial exponent on the nonzero block."""
        acc = None
        for q, g in zip(exps, self.gamma):
            if q == 0:
                continue
            term = g * q
            acc = term if acc is None else acc + term
        if acc is None:
            acc = GaussianRational(0) if self.exact else 0j
        return acc

    def to_json(self) -> dict:
        def scalar(v):
            if _is_exact(v):
                return [str(v.re), str(v.im)]
            return [v.real, v.imag]

        return {
            "gamma": [scalar(g) for g in self.gamma],
            "alpha": [str(a) for a in self.alpha],
            "exact": self.exact,
        }


def _hull_contains_origin(points: List, eps) -> bool:
    for p in points:
        if _is_zero_value(p, eps):
            return True
    m = len(points)
    for i in range(m):
        for j in range(i + 1, m):
            a, b = points[i], points[j]
            if _sign(_cross(a, b), eps) == 0 and _sign(_dot(a, b), eps) < 0:
                return True
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                a, b, c = points[i], points[j], points[k]
                s1 = _sign(_cross(b - a, -a), eps)
                s2 = _sign(_cross(c - b, -b), eps)
                s3 = _sign(_cross(a - c, -c), eps)
                if s1 >= 0 and s2 >= 0 and s3 >= 0:
                    return True
                if s1 <= 0 and s2 <= 0 and s3 <= 0:
                    return True
    return False


# --------------------------------------------------------------------------
# sectors
# --------------------------------------------------------------------------
class Sector:
    """Open counterclockwise arc between two direction vectors."""

    __slots__ = ("start", "end", "eps")

    def __init__(self, start, end, eps=0):
        self.start = _to_value(start)
        self.end = _to_value(end)
        self.eps = eps
        if _same_ray(self.start, self.end, eps):
            raise ZeroInput("empty sector (equal boundary directions)")

    def contains(self, direction) -> bool:
        return _in_open_arc(_to_value(direction), self.start, self.end, self.eps)

    def interior_sample(self):
        return _gap_sample(self.start, self.end, self.eps)

    def antipode(self) -> "Sector":
        return Sector(-self.start, -self.end, self.eps)

    def length_key(self):
        return _angle_key(self.end * _conj(self.start), self.eps)

    def to_json(self) -> dict:
        return {
            "start": _direction_json(self.start, self.eps),
            "end": _direction_json(self.end, self.eps),
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
        eps = self.sectors[0][0].eps if self.sectors else 0
        return {
            "sectors": [
                {"tag": t, **s.to_json()} for s, t in self.sectors],
            "singular_directions": [
                _direction_json(v, eps) for v in self.singular_directions],
        }


def _sorted_rays(vectors: Iterable, eps) -> List:
    rays: List = []
    for v in vectors:
        if not any(_same_ray(v, r, eps) for r in rays):
            rays.append(v)
    rays.sort(key=lambda v: _angle_key(v, eps))
    return rays


def solution_sectors(e: EigenData) -> SectorPartition:
    """Partition of directions by the decay pattern of model solutions.

    The arcs are cut at the directions orthogonal to some gamma_j (where
    some component switches between decay and growth).
    """
    dirs = []
    for g in e.gamma:
        dirs.append(_rot90(g))
        dirs.append(-_rot90(g))
    rays = _sorted_rays(dirs, e.eps)
    sectors = []
    for idx, start in enumerate(rays):
        end = rays[(idx + 1) % len(rays)]
        sample = _gap_sample(start, end, e.eps)
        signs = {_sign(_dot(g, sample), e.eps) for g in e.gamma}
        if signs == {1}:
            tag = "Attractor"
        elif signs == {-1}:
            tag = "Saddle"
        else:
            tag = "Mixed"
        sectors.append((Sector(start, end, e.eps), tag))
    return SectorPartition(sectors, rays)


# --------------------------------------------------------------------------
# sheaf singular directions
# --------------------------------------------------------------------------
def _exponents_up_to(nblock: int, maxdeg: int) -> List[Exponent]:
    out: List[Exponent] = []

    def rec(prefix: List[int], remaining: int, slots: int):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for q in range(remaining + 1):
            rec(prefix + [q], remaining - q, slots - 1)

    rec([], maxdeg, nblock)
    return sorted(out, key=lambda t: (sum(t), t))


class SheafDirections:
    """Degree-bounded list of coefficient-regime-change directions.

    Each record is (j, Q, w) with w = <Q, gamma> - gamma_j nonzero; the
    corresponding directions are the two rotations of w by a quarter turn.
    ``rays`` is the deduplicated, angle-sorted direction list.
    """

    __slots__ = ("records", "rays", "maxdeg", "eps")

    def __init__(self, records, rays, maxdeg, eps):
        self.records = records
        self.rays = rays
        self.maxdeg = maxdeg
        self.eps = eps

    def to_json(self) -> dict:
        return {
            "maxdeg": self.maxdeg,
            "rays": [_direction_json(v, self.eps) for v in self.rays],
            "count": len(self.records),
        }


def sheaf_singular_directions(e: EigenData, maxdeg: int) -> SheafDirections:
    records = []
    dirs = []
    for j in range(2, e.n + 1):
        gj = e.gamma[j - 2]
        for exps in _exponents_up_to(e.n - 1, maxdeg):
            w = e.pairing(exps) - gj
            if _is_zero_value(w, e.eps):
                continue
            records.append((j, exps, w))
            dirs.append(_rot90(w))
            dirs.append(-_rot90(w))
    return SheafDirections(records, _sorted_rays(dirs, e.eps), maxdeg, e.eps)


def free_arcs(e: EigenData, maxdeg: int) -> List[Tuple[Sector, str]]:
    """Arcs between consecutive sheaf singular directions, tagged by the
    solution behavior of their interior."""
    rays = sheaf_singular_directions(e, maxdeg).rays
    out = []
    for idx, start in enumerate(rays):
        end = rays[(idx + 1) % len(rays)]
        sample = _gap_sample(start, end, e.eps)
        signs = {_sign(_dot(g, sample), e.eps) for g in e.gamma}
        if signs == {1}:
            tag = "Attractor"
        elif signs == {-1}:
            tag = "Saddle"
        else:
            tag = "Mixed"
        out.append((Sector(start, end, e.eps), tag))
    return out


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
    return best, {"phi0": _direction_json(phi0, e.eps)}


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


def _obtuse_on_sector(w, sector: Sector, eps) -> bool:
    """Is cos(arg w - theta) < 0 for every direction theta strictly inside?

    Checked by a rotation walk: nonstrict negativity of the dot product at
    the endpoints and at quarter-turn samples, strict at interior samples.
    Consecutive samples are less than a half turn apart, so nonstrict
    negativity at all of them pins the whole closed arc inside the closed
    half-plane; an interior strict sample then rules out the boundary case.
    """
    samples = [(sector.start, False)]
    probe = _rot90(sector.start)
    while _in_open_arc(probe, sector.start, sector.end, eps):
        samples.append((probe, True))
        probe = _rot90(probe)
    if len(samples) == 1:
        samples.append((sector.start + sector.end, True))
    samples.append((sector.end, False))
    for direction, strict in samples:
        s = _sign(_dot(w, direction), eps)
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
                direction=_direction_json(ray, e.eps))
    pairs = []
    for j, exps, w in sheaf.records:
        if _obtuse_on_sector(w, sector, e.eps):
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
