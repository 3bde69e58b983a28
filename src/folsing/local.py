"""Local analysis at a plane singularity: linear classification, resonance
detection, eigenvalue convex-hull domains, and intersection multiplicities.

The classification is driven entirely by the exact trace/determinant invariant
s = tr^2 / det of the linear part, so eigenvalues never need to be extracted
for the decision; integer-ratio and rational-negative-ratio cases reduce to
exact rational square-root tests.  When s lives in a proper extension tower
the (rare) realness/sign decisions fall back to the numeric embedding and the
result is flagged as such.

The eigenvalue domains (Poincare, Siegel, strict Siegel) are where 0 lies
against the convex hull of the spectrum, decided exactly by the
angular-gap test ``sectors.zero_position``: 0 is outside the hull when no
eigenvalue is 0 and some gap between angularly consecutive eigenvalue rays
exceeds a half-turn, and on its boundary when a gap is exactly a half-turn.
Only eigenvalues above Q(i) are placed by their numeric embedding, and the
result is flagged.

Intersection multiplicity of two plane curves at the origin is read off the
tangent cones when they are transverse: I_0(F, G) = m_F m_G exactly when the
lowest forms of F and G share no line (Fulton, Algebraic Curves, section 3.3,
property 5), which one gcd of the two forms decides.  Cones that share a
line go on to Fulton's algorithm: the intersection axioms reduce I_0(F, G)
to subtractions G <- G - c x^k F in K[x, y] and splittings F = y H, where
each splitting adds the x-adic order of G(x, 0) to the count.  Only a common
branch through the origin (a gcd vanishing there) makes the multiplicity
infinite.

``gcd_xy`` is the greatest common divisor in K[x, y], by subresultant Euclid
in y over K[x] on ``MultiPoly`` itself: pseudo-remainders A lc(B) - lc(A) y^k B,
each divided by its known factor of K[x] with ``MultiPoly.divide_exact``,
which callers that remove a common factor use too.  Over Q and Q(i), coprime
inputs, the usual case, skip Euclid: two univariate gcds of slices at
integer points, taken modulo one prime, certify coprimality first.  Over a
proper tower Euclid always runs.  ``line_slice`` is that restriction of a
bivariate polynomial to a line x = t or y = t, as a coefficient list over a
tower; the blow-up, the tangent-cone factorization and the Riccati fibers
restrict with it too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from . import sectors
from .errors import (
    VariableCountMismatch,
    WrongClass,
    ZeroInput,
)
from .poly import (
    MultiPoly,
    OneFormGerm,
    VectorFieldGerm,
    _kernel,
    _trusted,
    coefficient_tower,
    dualize,
    exponents,
    lift_poly,
)
from .scalars import GaussianRational, coerce_scalar, fraction_sqrt, gaussian_triple
from .towers import (
    FieldTower,
    factor_univariate,
    tp_gcd,
    tp_trim,
)
from .zassenhaus import _gcd, _trim

NUMERIC_TOL = Fraction(1, 10 ** 9)

# classification tags
REGULAR = "Regular"
SIMPLE_POINCARE_NONRESONANT = "SimplePoincareNonresonant"
SIMPLE_RESONANT_RATIO_N = "SimpleResonantRatioN"
SIEGEL_RATIONAL = "SiegelRational"
SIEGEL_IRRATIONAL = "SiegelIrrational"
HYPERBOLIC = "Hyperbolic"
SADDLE_NODE = "SaddleNode"
NILPOTENT = "Nilpotent"
DEGENERATE = "Degenerate"

FINAL_TAGS = {
    REGULAR,
    SIMPLE_POINCARE_NONRESONANT,
    SIEGEL_RATIONAL,
    SIEGEL_IRRATIONAL,
    HYPERBOLIC,
    SADDLE_NODE,
}


class SingularityClass:
    """Result of the linear classification at a singular point."""

    __slots__ = ("tag", "order", "trace", "det", "s", "ratio", "resonant_n",
                 "siegel_pair", "ratio_positive_real", "numeric_decision")

    def __init__(self, tag, order, trace=None, det=None, s=None, ratio=None,
                 resonant_n=None, siegel_pair=None, ratio_positive_real=None,
                 numeric_decision=False):
        self.tag = tag
        self.order = order
        self.trace = trace
        self.det = det
        self.s = s
        self.ratio = ratio
        self.resonant_n = resonant_n
        self.siegel_pair = siegel_pair
        self.ratio_positive_real = ratio_positive_real
        self.numeric_decision = numeric_decision

    def is_final(self) -> bool:
        return self.tag in FINAL_TAGS

    def to_json(self):
        from .poly import scalar_to_json

        out = {"tag": self.tag, "order": (None if self.order == math.inf else self.order)}
        if self.trace is not None:
            out["trace"] = scalar_to_json(self.trace)
        if self.det is not None:
            out["det"] = scalar_to_json(self.det)
        if self.s is not None:
            out["s"] = scalar_to_json(self.s)
        if self.ratio is not None:
            out["ratio"] = str(self.ratio)
        if self.resonant_n is not None:
            out["resonant_n"] = self.resonant_n
        if self.siegel_pair is not None:
            out["siegel_pair"] = list(self.siegel_pair)
        if self.ratio_positive_real is not None:
            out["ratio_positive_real"] = self.ratio_positive_real
        if self.numeric_decision:
            out["numeric_decision"] = True
        return out

    def __repr__(self):
        extra = ""
        if self.resonant_n is not None:
            extra = f"(n={self.resonant_n})"
        elif self.siegel_pair is not None:
            extra = f"(m:n={self.siegel_pair[0]}:{self.siegel_pair[1]})"
        return f"SingularityClass({self.tag}{extra})"


def classify_singularity(obj, point: Optional[Sequence] = None) -> SingularityClass:
    """Classify a planar vector field (or 1-form, via duality) at a point
    (default: the origin) from the exact invariant s = trace^2 / det."""
    if isinstance(obj, OneFormGerm):
        obj = dualize(obj)
    if not isinstance(obj, VectorFieldGerm):
        raise WrongClass("expected a vector field or 1-form")
    if obj.nvars != 2:
        raise VariableCountMismatch("classification is planar (2 variables)",
                                    nvars=obj.nvars)
    vf = obj
    if point is not None:
        vf = vf.translate(list(point))
    if vf.is_zero():
        raise ZeroInput("identically zero vector field")
    if not vf.is_singular_at_origin():
        return SingularityClass(REGULAR, 0)
    order = vf.order_at_origin()
    j = vf.linear_part_matrix()
    a, b = j[0]
    c, d = j[1]
    if all(v.is_zero() for v in (a, b, c, d)):
        return SingularityClass(DEGENERATE, order)
    tr = a + d
    det = a * d - b * c
    if det.is_zero():
        if tr.is_zero():
            return SingularityClass(NILPOTENT, order, trace=tr, det=det)
        return SingularityClass(SADDLE_NODE, order, trace=tr, det=det)
    s = (tr * tr) / det
    g = s.as_gaussian_or_none()
    if g is not None:
        if g.im != 0:
            return SingularityClass(HYPERBOLIC, order, trace=tr, det=det, s=s)
        return _classify_from_rational_s(g.re, order, tr, det, s)
    # s lives strictly above the rationals: integer or rational ratios are
    # impossible exactly; only realness and sign need the numeric embedding.
    z = complex(s)
    if abs(z.imag) > float(NUMERIC_TOL):
        return SingularityClass(HYPERBOLIC, order, trace=tr, det=det, s=s,
                                numeric_decision=True)
    x = z.real
    if x > 4:
        return SingularityClass(SIMPLE_POINCARE_NONRESONANT, order, trace=tr,
                                det=det, s=s, ratio_positive_real=True,
                                numeric_decision=True)
    if x > 0:
        return SingularityClass(HYPERBOLIC, order, trace=tr, det=det, s=s,
                                numeric_decision=True)
    return SingularityClass(SIEGEL_IRRATIONAL, order, trace=tr, det=det, s=s,
                            numeric_decision=True)


def _classify_from_rational_s(q: Fraction, order, tr, det, s) -> SingularityClass:
    if q > 4 or q == 4:
        disc = q * (q - 4)
        root = fraction_sqrt(disc)
        if root is not None:
            n1 = (q - 2 + root) / 2
            if n1.denominator == 1 and n1 >= 1:
                n = int(n1)
                return SingularityClass(SIMPLE_RESONANT_RATIO_N, order, trace=tr,
                                        det=det, s=s, ratio=Fraction(n),
                                        resonant_n=n, ratio_positive_real=True)
            # positive rational non-integer ratio: still nonresonant
            return SingularityClass(SIMPLE_POINCARE_NONRESONANT, order, trace=tr,
                                    det=det, s=s, ratio=n1,
                                    ratio_positive_real=True)
        return SingularityClass(SIMPLE_POINCARE_NONRESONANT, order, trace=tr,
                                det=det, s=s, ratio_positive_real=True)
    if q > 0:
        return SingularityClass(HYPERBOLIC, order, trace=tr, det=det, s=s)
    disc = q * (q - 4)
    root = fraction_sqrt(disc)
    if root is None:
        return SingularityClass(SIEGEL_IRRATIONAL, order, trace=tr, det=det, s=s)
    r1 = (q - 2 - root) / 2
    r2 = (q - 2 + root) / 2
    r = r1 if abs(r1) >= 1 else r2
    m, n = abs(r.numerator), r.denominator
    return SingularityClass(SIEGEL_RATIONAL, order, trace=tr, det=det, s=s,
                            ratio=r, siegel_pair=(m, n))


def eigen_pair(vf: VectorFieldGerm):
    """Exact eigenvalues of the linear part at the origin.

    Returns (tower, lambda1, lambda2).  If the characteristic polynomial is
    irreducible over the coefficients' tower, a root is adjoined (one
    extension).
    """
    if vf.nvars != 2:
        raise VariableCountMismatch("eigenvalue pair is planar (2 variables)",
                                    nvars=vf.nvars)
    j = vf.linear_part_matrix()
    a, b = j[0]
    c, d = j[1]
    base = coefficient_tower(*vf.components)
    a, b, c, d = (base.element(v) for v in (a, b, c, d))
    tr = a + d
    det = a * d - b * c
    # t^2 - tr t + det: a double root, two simple ones, or irreducible
    _, factors = factor_univariate([det, -tr, base.one()], base)
    mp = factors[0][0]
    if len(mp) == 2:
        roots = sorted((-h[0] for h, m in factors for _ in range(m)),
                       key=lambda e: e.sort_key())
        return base, roots[1], roots[0]
    ext, lam1 = base.adjoin_root(mp, name=f"e{base.depth + 1}")
    lam2 = ext.element(tr) - lam1
    return ext, lam1, lam2


def detect_resonances(lambdas: Sequence, max_degree: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """All resonance relations  lambda_i = sum_j q_j lambda_j  with
    multi-indices Q of total degree 2..max_degree.

    Returns sorted (i, Q) pairs with 1-based component index i.
    """
    lams = [coerce_scalar(v) for v in lambdas]
    n = len(lams)
    delta = _kernel((), lams).divisors(lams)
    out = []
    for total in range(2, max_degree + 1):
        for q in exponents(n, total):
            for i in range(n):
                if delta(q, i).is_zero():
                    out.append((i + 1, q))
    out.sort(key=lambda iq: (iq[0], sum(iq[1]), iq[1]))
    return out


# ---------------------------------------------------------------------
# Eigenvalue domains (convex position of the spectrum)
# ---------------------------------------------------------------------
class DomainResult:
    __slots__ = ("domain", "zero_position", "numeric_decision")

    def __init__(self, domain: str, zero_position: str, numeric_decision: bool = False):
        self.domain = domain
        self.zero_position = zero_position
        self.numeric_decision = numeric_decision

    def to_json(self):
        out = {"domain": self.domain, "zero_position": self.zero_position}
        if self.numeric_decision:
            out["numeric_decision"] = True
        return out

    def __repr__(self):
        return f"DomainResult({self.domain}, zero {self.zero_position})"


def _to_points(lambdas) -> Tuple[List[GaussianRational], bool]:
    pts = []
    numeric = False
    for v in lambdas:
        g = coerce_scalar(v).as_gaussian_or_none()
        if g is None:
            z = complex(v)
            g = GaussianRational(Fraction(z.real), Fraction(z.imag))
            numeric = True
        pts.append(g)
    return pts, numeric


_DOMAINS = {"outside": "poincare", "boundary": "siegel", "interior": "strict_siegel"}


def domain_classification(lambdas: Sequence) -> DomainResult:
    """Position of 0 relative to the convex hull of the eigenvalues:
    outside -> 'poincare'; on the hull boundary -> 'siegel'; in the relative
    interior -> 'strict_siegel'.  Exact for Gaussian-rational spectra."""
    if not lambdas:
        raise ZeroInput("empty spectrum")
    pts, numeric = _to_points(lambdas)
    position = sectors.zero_position(pts)
    return DomainResult(_DOMAINS[position], position, numeric)


def separating_line_exists(lambdas: Sequence, index: int = 0) -> bool:
    """Is there a line through 0 with lambda_index strictly on one side and
    every other eigenvalue strictly on the other?"""
    pts, _ = _to_points(lambdas)
    sep = [pts[index]] + [-p for k, p in enumerate(pts) if k != index]
    return sectors.zero_position(sep) == "outside"


# ---------------------------------------------------------------------
# Plane-curve intersection multiplicity at the origin
# ---------------------------------------------------------------------
def line_slice(p: MultiPoly, var: int, t: int, tower: FieldTower) -> list:
    """p with variable ``var`` set to t, as a coefficient list over
    ``tower`` in the other variable."""
    other = 1 - var
    out = [tower.zero()] * (p.degree_in(other) + 1)
    for exps, c in p.terms.items():
        out[exps[other]] = out[exps[other]] + tower.element(c) * t ** exps[var]
    return tp_trim(out)


def _lead_y(p: MultiPoly, shift: int) -> MultiPoly:
    """The leading coefficient of p in y, times y^shift."""
    d = p.degree_in(1)
    return _trusted(2, {(ex, shift): c for (ex, ey), c in p.terms.items() if ey == d})


def _primitive(p: MultiPoly, tower: FieldTower) -> Tuple[list, MultiPoly]:
    """Content of a nonzero p in K[x][y] (the monic gcd of its coefficients
    in y, as a list over x) and the primitive part p / content."""
    content: list = []
    for coeff in p.coeffs_in(1).values():
        content = tp_gcd(content, line_slice(coeff, 1, 0, tower))
    return content, p.divide_exact(_x_poly(content))


def _x_poly(coeffs: list) -> MultiPoly:
    return MultiPoly(2, {(k, 0): c for k, c in enumerate(coeffs)})


def _pseudo_remainder(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """lc(b)^(deg a - deg b + 1) a mod b in y over K[x] (fraction-free)."""
    db = b.degree_in(1)
    lc_b = _lead_y(b, 0)
    steps = a.degree_in(1) - db + 1
    while a and a.degree_in(1) >= db:
        a = a * lc_b - _lead_y(a, a.degree_in(1) - db) * b
        steps -= 1
    return a * lc_b ** steps if a and steps else a


def gcd_xy(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Greatest common divisor in K[x, y] (subresultant Euclid in y over
    K[x]), normalized so its graded-lex leading coefficient is 1."""
    if f.is_zero():
        return _gcd_normalize(g)
    if g.is_zero():
        return _gcd_normalize(f)
    tower = coefficient_tower(f, g)
    if tower.depth == 0 and _coprime_mod_p(f, g):
        return MultiPoly.constant(tower.one(), 2)
    ca, a = _primitive(lift_poly(f, tower), tower)
    cb, b = _primitive(lift_poly(g, tower), tower)
    content = _x_poly(tp_gcd(ca, cb))
    if a.degree_in(1) < b.degree_in(1):
        a, b = b, a
    # each pseudo-remainder sheds a factor of K[x] known in advance (the
    # subresultant sequence of Collins and Brown), so no gcd in K[x] runs
    # between the inputs' contents and the last remainder's
    lc = h = MultiPoly.constant(tower.one(), 2)
    while b.degree_in(1) > 0:
        delta = a.degree_in(1) - b.degree_in(1)
        r = _pseudo_remainder(a, b)
        if r.is_zero():
            # b is the gcd up to its content
            return _gcd_normalize(content * _primitive(b, tower)[1])
        a, b = b, r.divide_exact(lc * h ** delta)
        lc = _lead_y(a, 0)
        h = (lc ** delta).divide_exact(h ** (delta - 1)) if delta else h
    # a nonzero b free of y is a unit times the stripped content
    return _gcd_normalize(content)


# p = 1 (mod 4), so i has an image mod p: p = 5 (mod 8) makes 2 a
# quadratic non-residue, and 2^((p - 1)/4) is a square root of -1
CERT_PRIME = 2147483629
CERT_I = pow(2, (CERT_PRIME - 1) // 4, CERT_PRIME)


def _coprime_mod_p(f: MultiPoly, g: MultiPoly) -> bool:
    """True when f and g over Q(i) provably share no non-constant factor,
    from two slice gcds taken modulo p = CERT_PRIME with i sent to CERT_I.

    Over the field itself: let h divide f and g with deg_y h >= 1.  Its
    leading coefficient in y divides those of f and g, so at any x = t where
    neither of theirs vanishes, h(t, y) keeps its degree and divides
    gcd(f(t, y), g(t, y)).  Constant slice gcds at such a t for x, and
    likewise for y, leave no room for h.

    Modulo p: the map is reduction modulo a prime P of Z[i] over p, defined
    on the local ring R of Z[i] at P once p divides no denominator of f and
    g.  R is a discrete valuation ring, so by Gauss's lemma h can be taken
    in R[x, y] with a nonzero reduction, and so can its cofactors.  Where
    both leading coefficients in y survive at x = t mod p, degrees add up
    only if h(t, y) mod p keeps deg_y h, so it divides both slice gcds mod
    p, and the argument above goes through.  A non-constant slice gcd proves
    nothing (t or p may be unlucky), so False only means "not certified".
    """
    fr, gr = _residues(f), _residues(g)
    if fr is None or gr is None:
        return False
    deg_f, deg_g = (f.degree_in(0), f.degree_in(1)), (g.degree_in(0), g.degree_in(1))
    for var in (0, 1):
        other = 1 - var
        size_f, size_g = deg_f[other] + 1, deg_g[other] + 1
        # lc(f) lc(g), a polynomial in the variable set to t, has at most
        # deg f + deg g roots in it unless it vanishes mod p
        for t in range(1, deg_f[var] + deg_g[var] + 2):
            fs = _slice_mod(fr, var, t, size_f)
            gs = _slice_mod(gr, var, t, size_g)
            if len(fs) == size_f and len(gs) == size_g:
                break
        else:
            return False
        if len(_gcd(fs, gs, CERT_PRIME)) > 1:
            return False
    return True


def _residues(p: MultiPoly) -> Optional[dict]:
    """{exponents: coefficient mod CERT_PRIME} for p over Q(i), or None when
    the prime divides a denominator."""
    out = {}
    for e, c in p.terms.items():
        a, b, d = gaussian_triple(c)
        if d % CERT_PRIME == 0:
            return None
        r = a + b * CERT_I
        if d != 1:
            r *= pow(d, -1, CERT_PRIME)
        out[e] = r % CERT_PRIME
    return out


def _slice_mod(residues: dict, var: int, t: int, size: int) -> list:
    """The residues with variable ``var`` set to t, as a trimmed coefficient
    list mod CERT_PRIME of length at most ``size`` in the other variable."""
    other = 1 - var
    out = [0] * size
    for e, r in residues.items():
        out[e[other]] += r * pow(t, e[var], CERT_PRIME)
    return _trim([c % CERT_PRIME for c in out])


def _gcd_normalize(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    return p.scale(p.sorted_terms()[-1][1].inverse())


def intersection_number(f: MultiPoly, g: MultiPoly) -> Union[int, float]:
    """Intersection multiplicity of the plane curves f = 0 and g = 0 at the
    origin (infinity when they share a branch through it), following
    Fulton (Algebraic Curves, section 3.3).

    I_0(f, g) = m_f m_g, the product of the orders at the origin, exactly
    when the tangent cones (the lowest forms) share no line, and then f and
    g share no branch there; one gcd of the two forms decides it.  Only
    pairs whose cones meet go on to the gcd of f and g and Fulton's loop."""
    if f.nvars != 2 or g.nvars != 2:
        raise ZeroInput("intersection numbers are planar (2 variables)")
    # a curve missing the origin meets nothing there, even the zero polynomial
    if not f.constant_term().is_zero() or not g.constant_term().is_zero():
        return 0
    if f.is_zero() or g.is_zero():
        return math.inf
    m, n = f.order_at_origin(), g.order_at_origin()
    common_line = gcd_xy(f.homogeneous_component(m), g.homogeneous_component(n))
    if common_line.total_degree() == 0:
        return m * n
    # a common factor that is a unit at the origin leaves I_0 unchanged, so
    # only one vanishing there matters and nothing needs dividing out
    h = gcd_xy(f, g)
    if h.total_degree() > 0 and h.constant_term().is_zero():
        return math.inf
    tower = coefficient_tower(f, g)
    zero = tower.zero()
    F = {e: tower.element(c) for e, c in f.terms.items() if not c.is_zero()}
    G = {e: tower.element(c) for e, c in g.terms.items() if not c.is_zero()}
    total = 0
    while (0, 0) not in F and (0, 0) not in G:
        # r, s: degrees of F(x, 0) and G(x, 0), 0 when the slice vanishes
        r = max((ex for ex, ey in F if ey == 0), default=0)
        s = max((ex for ex, ey in G if ey == 0), default=0)
        if r > s:
            F, G, r, s = G, F, s, r
        if r == 0:
            # F = y H, so I(F, G) = ord_x G(x, 0) + I(H, G)
            total += min(ex for ex, ey in G if ey == 0)
            F = {(ex, ey - 1): c for (ex, ey), c in F.items()}
            continue
        # I(F, G) = I(F, G - q x^(s-r) F), and deg G(x, 0) drops below s
        q = G[(s, 0)] / F[(r, 0)]
        for (ex, ey), c in F.items():
            e = (ex + s - r, ey)
            v = G.pop(e, zero) - q * c
            if not v.is_zero():
                G[e] = v
    return total
