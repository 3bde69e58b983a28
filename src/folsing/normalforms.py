"""Polynomial conjugacy engine for singular vector field germs.

Given a germ with diagonal linear part, the engine builds a polynomial
change of coordinates H = id + h degree by degree.  At each degree the
coefficient of H (``solve``) or of the reduced field (``keep``) absorbs
the corresponding coefficient of the conjugacy defect; a *pattern*
callback decides which, per component and monomial.  The divisor of the
solve step is delta = <Q, lambda> - lambda_i, so solving a monomial with
vanishing delta and a nonzero right-hand side is an error.

The solve is triangular: the degree-d slice of X(id + h) reads h only
below degree d.  So the composition is built online (a relaxed power
series, after van der Hoeven, "Relax, but don't be too lazy", JSC 2002):
one table per solve holds the degree slices of every needed product of
powers of the maps, and each degree adds one slice per entry instead of
recomposing from scratch.  The center manifold series runs on the same
engine.  The certificate ``conjugacy_residual`` deliberately composes
once more, independently, with the one-shot ``poly.compose``.

On top of the engine sit the named reductions: full linearization in the
absence of small divisors and resonances, the minimal resonant model,
separatrix straightening for saddles, the zero-eigenvalue reduction that
empties the center-free monomials, an invariant-plane reduction in three
variables, and the full preparation of a degenerate unipotent-free germ
with one zero eigenvalue (center manifold, shift, and the residue pair
``(p, lambda)``).
"""

from __future__ import annotations

from operator import add
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import (
    DegenerateEigenData,
    InternalInvariantViolation,
    LinearPartNotPrepared,
    NotPoincareDomain,
    NotSingular,
    RequestTooLarge,
    ResonanceObstruction,
    TruncationTooSmall,
    WrongClass,
    ZeroDivisorDelta,
)
from .local import classify_singularity, detect_resonances, domain_classification, eigen_pair
from .poly import (
    MultiPoly,
    VectorFieldGerm,
    _trusted,
    coefficient_tower,
    compose,
    exponents,
    scalar_to_json,
)
from .scalars import ONE

Exponent = Tuple[int, ...]
Decide = Callable[[int, Exponent, object], bool]


def _demote(c):
    """A tower element that lies in Q(i) as its GaussianRational, else itself."""
    g = c.as_gaussian_or_none()
    return c if g is None else g


Slice = Dict[Exponent, object]


def _pruned(terms: Slice) -> Slice:
    return {e: c for e, c in terms.items() if not c.is_zero()}


def _add_product(acc: Slice, a: Slice, b: Slice, sign: int = 1) -> None:
    """acc += sign * a * b for {exponent: scalar} dicts; zeros stay in acc."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            p = c1 * c2 if sign > 0 else -(c1 * c2)
            acc[e] = acc[e] + p if e in acc else p


def _derivative_slice(terms: Slice, var: int) -> Slice:
    out = {}
    for e, c in terms.items():
        k = e[var]
        if k:
            out[e[:var] + (k - 1,) + e[var + 1:]] = c * k
    return out


def _merged(slices: List[Slice]) -> Slice:
    return {e: c for s in slices for e, c in s.items()}


def _unit_slice(j: int, n: int) -> Slice:
    return {tuple(int(k == j) for k in range(n)): ONE}


def _raised_weights(weights: Dict[Exponent, object], lam: Tuple, n: int,
                    d: int) -> Dict[Exponent, object]:
    """<Q, lambda> for every Q of degree d, in ``exponents`` order, from the
    weights of degree d - 1: <Q, lambda> = <Q - e_j, lambda> + lambda_j with
    j the first variable of Q, one addition each."""
    out = {}
    for exps in exponents(n, d):
        j = next(k for k, q in enumerate(exps) if q)
        out[exps] = weights[exps[:j] + (exps[j] - 1,) + exps[j + 1:]] + lam[j]
    return out


class _OnlineComposition:
    """Degree slices of ``polys(maps)`` while the maps are still being solved for.

    ``maps[j][m]`` is the degree-m slice of the j-th map as an
    ``{exponent: scalar}`` dict; ``maps[j][0]`` is empty, because every map
    vanishes at the origin.  The caller appends slice m of every map before
    it asks for slice m + 1 of the composition.

    The table holds T[Q][k], the degree-k slice of prod_j maps[j]^Q_j.  With
    j the first index where Q_j > 0, T[Q][k] = sum_m maps[j][m] T[Q - e_j][k - m]
    and T[e_j] = maps[j].  Every source monomial has degree at least 2, so
    slice k of the composition reads only map slices below k: each table
    slice is computed once, when it is first asked for, and never changes.
    """

    __slots__ = ("maps", "sources", "table")

    def __init__(self, polys: Sequence[MultiPoly], maps: List[List[Slice]]):
        self.maps = maps
        self.sources = []
        for poly in polys:
            terms = []
            for q, c in poly.terms.items():
                if sum(q) < 2:
                    raise InternalInvariantViolation(
                        "online composition needs source monomials of degree >= 2",
                        exponents=list(q))
                terms.append((q, c, sum(q)))
            self.sources.append(terms)
        self.table: Dict[Exponent, Dict[int, Slice]] = {}

    def slice(self, d: int) -> List[Slice]:
        """The degree-d slice of each poly(maps), as new dicts the caller owns."""
        out = []
        for terms in self.sources:
            acc: Slice = {}
            for q, c, degree in terms:
                if degree > d:
                    continue
                for e, t in self._power(q, d).items():
                    p = c * t
                    acc[e] = acc[e] + p if e in acc else p
            out.append(_pruned(acc))
        return out

    def _power(self, q: Exponent, k: int) -> Slice:
        j = 0
        while not q[j]:
            j += 1
        rest = q[:j] + (q[j] - 1,) + q[j + 1:]
        low = sum(rest)
        if not low:
            return self.maps[j][k]
        row = self.table.get(q)
        if row is None:
            row = self.table[q] = {}
        got = row.get(k)
        if got is not None:
            return got
        factor = self.maps[j]
        acc: Slice = {}
        for m in range(1, k - low + 1):
            a = factor[m]
            if not a:
                continue
            b = self._power(rest, k - m)
            for e1, c1 in a.items():
                unit = c1.is_one()
                for e2, c2 in b.items():
                    e = tuple(map(add, e1, e2))
                    p = c2 if unit else c1 * c2
                    acc[e] = acc[e] + p if e in acc else p
        got = row[k] = _pruned(acc)
        return got


def _diagonal_lambdas(field: VectorFieldGerm) -> Tuple:
    if not field.is_singular_at_origin():
        raise NotSingular("conjugacy engine needs a singular germ at the origin")
    mat = field.linear_part_matrix()
    n = field.nvars
    for i in range(n):
        for j in range(n):
            if i != j and not mat[i][j].is_zero():
                raise LinearPartNotPrepared(
                    "linear part must be diagonal",
                    row=i + 1, column=j + 1)
    return tuple(mat[i][i] for i in range(n))


class ConjugacyResult:
    """Outcome of a degree-by-degree conjugacy computation."""

    __slots__ = ("pattern", "order", "lambdas", "transform", "normal_form", "kept")

    def __init__(self, pattern: str, order: int, lambdas: Tuple,
                 transform: List[MultiPoly], normal_form: VectorFieldGerm,
                 kept: Dict[Tuple[int, Exponent], object]):
        self.pattern = pattern
        self.order = order
        self.lambdas = lambdas
        self.transform = transform
        self.normal_form = normal_form
        self.kept = kept

    def is_linearized(self) -> bool:
        return not self.kept

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern,
            "order": self.order,
            "eigenvalues": [scalar_to_json(l) for l in self.lambdas],
            "transform": [str(p) for p in self.transform],
            "normal_form": [str(p) for p in self.normal_form.components],
            "kept": [
                {"component": i + 1, "exponents": list(q),
                 "coefficient": scalar_to_json(c)}
                for (i, q), c in sorted(self.kept.items())
            ],
        }


# The highest truncation order the series entries take, checked before any
# resonance enumeration or series work.  Dense linearization grows steeply:
# on a dense quadratic field it takes 2.3 s at order 30 and 3.1 s at 32.
MAX_ORDER = 32


def check_order(order: int) -> None:
    """Refuse a truncation order above ``MAX_ORDER``."""
    if order > MAX_ORDER:
        raise RequestTooLarge("truncation order above the cap",
                              order=order, limit=MAX_ORDER)


def solve_conjugacy(field: VectorFieldGerm, decide: Decide, order: int,
                    pattern: str = "custom") -> ConjugacyResult:
    """Reduce ``field`` through the given truncation order.

    ``decide(i, Q, delta)`` returns True to push the (i, Q) coefficient
    into the coordinate change and False to keep it in the reduced field.
    An order above ``MAX_ORDER`` is refused.
    """
    check_order(order)
    lam = _diagonal_lambdas(field)
    n = field.nvars
    linear = field.homogeneous_component(1)
    nonlinear = [field.components[i] - linear.components[i] for i in range(n)]
    # degree slices: maps[j] of x_j + h_j, hs[i] of h_i and gs[i] of g_i;
    # index = degree, the lowest entries empty
    maps = [[{}, _unit_slice(j, n)] for j in range(n)]
    engine = _OnlineComposition(nonlinear, maps)
    hs: List[List[Slice]] = [[{}, {}] for _ in range(n)]
    gs: List[List[Slice]] = [[{}, {}] for _ in range(n)]
    # dh[(i, j, a)] = degree-a slice of d(h_i)/dx_j, derived when a kept
    # slice of g first reads it
    dh: Dict[Tuple[int, int, int], Slice] = {}
    kept: Dict[Tuple[int, Exponent], object] = {}
    # <Q, lambda> for every Q of the current degree; delta subtracts lambda_i
    weights = {exps: lam[exps.index(1)] for exps in exponents(n, 1)}

    for d in range(2, order + 1):
        composed = engine.slice(d)
        weights = _raised_weights(weights, lam, n, d)
        for i in range(n):
            # degree-d slice of X(id + h) - Dh * g
            defect = composed[i]
            for j in range(n):
                for a in range(1, d - 1):
                    g = gs[j][d - a]
                    if not g:
                        continue
                    dha = dh.get((i, j, a))
                    if dha is None:
                        dha = dh[(i, j, a)] = _derivative_slice(hs[i][a + 1], j)
                    if dha:
                        _add_product(defect, dha, g, -1)
            h_d: Slice = {}
            g_d: Slice = {}
            for exps, weight in weights.items():
                rhs = defect.get(exps)
                rhs_zero = rhs is None or rhs.is_zero()
                delta = weight - lam[i]
                if decide(i, exps, delta):
                    if delta.is_zero():
                        if rhs_zero:
                            continue
                        raise ZeroDivisorDelta(
                            "resonant coefficient cannot be removed",
                            component=i + 1, exponents=list(exps))
                    if not rhs_zero:
                        h_d[exps] = rhs * delta.inverse()
                elif not rhs_zero:
                    g_d[exps] = rhs
                    kept[(i, exps)] = rhs
            hs[i].append(h_d)
            gs[i].append(g_d)
        for i in range(n):
            maps[i].append(hs[i][d])

    # the slices of h and g hold nonzero coefficients, all of degree >= 2
    variables = [MultiPoly.variable(j, n) for j in range(n)]
    transform = [variables[i] + _trusted(n, _merged(hs[i])) for i in range(n)]
    normal = VectorFieldGerm([linear.components[i] + _trusted(n, _merged(gs[i]))
                              for i in range(n)])
    return ConjugacyResult(pattern, order, lam, transform, normal, kept)


def conjugacy_residual(field: VectorFieldGerm, result: ConjugacyResult) -> List[MultiPoly]:
    """DH * X_reduced - X(H), truncated at the working order (all zero iff valid).

    X(H) comes from the one-shot ``compose``, never from the online table
    that produced H: a wrong slice of that table would otherwise cancel out
    of the certificate.
    """
    n = field.nvars
    order = result.order
    rhs = compose(field.components, result.transform, order)
    out = []
    for i in range(n):
        lhs = MultiPoly.zero(n)
        for j in range(n):
            lhs = lhs + result.transform[i].derivative(j).mul_trunc(
                result.normal_form.components[j], order)
        out.append(lhs - rhs[i])
    return out


# ---------------------------------------------------------------------------
# named reduction patterns
# ---------------------------------------------------------------------------

def poincare_linearize(field: VectorFieldGerm, order: int = 8) -> ConjugacyResult:
    """Remove every nonlinear term; valid without small divisors or resonances."""
    check_order(order)
    lam = _diagonal_lambdas(field)
    domain = domain_classification(lam)
    if domain.domain != "poincare":
        raise NotPoincareDomain(
            "spectrum admits small divisors; full linearization not certified",
            domain=domain.domain)
    resonances = detect_resonances(lam, order)
    if resonances:
        raise ResonanceObstruction(
            "resonant monomials obstruct linearization",
            resonances=[{"component": i, "exponents": list(q)}
                        for i, q in resonances])
    return solve_conjugacy(field, lambda i, q, delta: True, order,
                           pattern="linearize")


def resonant_normal_form(field: VectorFieldGerm, order: int = 8) -> ConjugacyResult:
    """Remove exactly the nonresonant terms; keeps every delta = 0 monomial."""
    return solve_conjugacy(
        field, lambda i, q, delta: not delta.is_zero(), order,
        pattern="resonant")


def siegel_straighten(field: VectorFieldGerm, order: int = 8) -> ConjugacyResult:
    """Straighten both separatrices of a two-variable germ.

    Monomials supported on a single axis move into the coordinate change,
    so both axes become invariant for the reduced field.
    """
    if field.nvars != 2:
        raise WrongClass("separatrix straightening handles two variables")
    return solve_conjugacy(
        field, lambda i, q, delta: q[0] == 0 or q[1] == 0, order,
        pattern="straighten")


def dulac_reduce(field: VectorFieldGerm, order: int = 8) -> ConjugacyResult:
    """For eigenvalues (mu, 0): remove every monomial free of the center variable.

    The solved divisors are (q1 - 1) mu and q1 mu, never zero on the
    solved set, so the reduction always succeeds.
    """
    lam = _diagonal_lambdas(field)
    if field.nvars != 2 or not lam[1].is_zero() or lam[0].is_zero():
        raise WrongClass(
            "reduction expects eigenvalues (mu, 0) with mu nonzero")
    return solve_conjugacy(
        field, lambda i, q, delta: q[1] == 0, order, pattern="center-clear")


def invariant_plane_reduce(field: VectorFieldGerm, order: int = 8) -> ConjugacyResult:
    """Three variables: make the plane y3 = 0 invariant with linear dynamics on it.

    The third component keeps only monomials divisible by y3; the first two
    keep only mixed monomials that carry y3 together with another variable.
    """
    if field.nvars != 3:
        raise WrongClass("invariant-plane reduction handles three variables")

    def decide(i: int, q: Exponent, delta) -> bool:
        if i == 2:
            return q[2] == 0
        return q[2] == 0 or (q[0] == 0 and q[1] == 0)

    return solve_conjugacy(field, decide, order, pattern="invariant-plane")


# ---------------------------------------------------------------------------
# linear preparation
# ---------------------------------------------------------------------------

def _eigenvector(mat, lam):
    """Nonzero kernel vector of (mat - lam I) for a 2x2 matrix."""
    a, b = mat[0][0], mat[0][1]
    c, d = mat[1][0], mat[1][1]
    cand = (b, lam - a)
    if not (cand[0].is_zero() and cand[1].is_zero()):
        return cand
    cand = (lam - d, c)
    if not (cand[0].is_zero() and cand[1].is_zero()):
        return cand
    return None


def diagonalize_linear_part(field: VectorFieldGerm):
    """Diagonalize a two-variable germ via its eigenbasis.

    Returns ``(new_field, matrix, lambdas, tower)`` where ``matrix`` is the
    column eigenbasis P and ``new_field`` the germ in the new coordinates
    z with y = P z.  Raises when the linear part is defective.
    """
    if field.nvars != 2:
        raise WrongClass("eigenbasis preparation handles two variables")
    mat = field.linear_part_matrix()
    if mat[0][1].is_zero() and mat[1][0].is_zero():
        # the diagonal entries are the eigenvalues, already in the
        # coefficients' tower: nothing to factor
        tower = coefficient_tower(*field.components)
        return field, [[1, 0], [0, 1]], (mat[0][0], mat[1][1]), tower
    tower, lam1, lam2 = eigen_pair(field)
    lam1, lam2 = _demote(lam1), _demote(lam2)
    if not (lam1 - lam2).is_zero():
        v1 = _eigenvector(mat, lam1)
        v2 = _eigenvector(mat, lam2)
    else:
        raise DegenerateEigenData(
            "repeated eigenvalue with nondiagonal linear part is defective")
    if v1 is None or v2 is None:
        raise DegenerateEigenData("eigenvector construction failed")
    p00, p10 = v1
    p01, p11 = v2
    det = p00 * p11 - p01 * p10
    if det.is_zero():
        raise DegenerateEigenData("eigenbasis is singular")
    inv_det = det.inverse()
    q00, q01 = p11 * inv_det, (-1) * p01 * inv_det
    q10, q11 = (-1) * p10 * inv_det, p00 * inv_det
    n = 2
    z1 = MultiPoly.variable(0, n)
    z2 = MultiPoly.variable(1, n)
    images = [z1.scale(p00) + z2.scale(p01), z1.scale(p10) + z2.scale(p11)]
    pulled = compose(field.components, images)
    new_components = [
        pulled[0].scale(q00) + pulled[1].scale(q01),
        pulled[0].scale(q10) + pulled[1].scale(q11),
    ]
    return (VectorFieldGerm(new_components), [[p00, p01], [p10, p11]],
            (lam1, lam2), tower)


# ---------------------------------------------------------------------------
# one zero eigenvalue: full preparation
# ---------------------------------------------------------------------------

class SaddleNodeData:
    """Formal invariants of a germ with eigenvalues (1, 0).

    ``p`` is one less than the contact order of the center dynamics,
    ``modulus`` the residue of the transverse multiplier along the center
    manifold, and ``center`` the coefficients of the center manifold graph
    y1 = c(y2) in the reduced coordinates.
    """

    __slots__ = ("p", "modulus", "center", "prepared", "order")

    def __init__(self, p: int, modulus, center: Dict[int, object],
                 prepared: VectorFieldGerm, order: int):
        self.p = p
        self.modulus = modulus
        self.center = center
        self.prepared = prepared
        self.order = order

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "lambda": scalar_to_json(self.modulus),
            "a": {str(k): scalar_to_json(v) for k, v in sorted(self.center.items())},
        }


def center_manifold_series(field: VectorFieldGerm, order: int) -> MultiPoly:
    """Graph y1 = c(y2) of the formal invariant curve tangent to the kernel.

    Expects eigenvalues (1, 0); solves A(c, y2) = c'(y2) B(c, y2) degree by
    degree, which is always possible because the strong multiplier is 1.
    """
    lam = _diagonal_lambdas(field)
    if not lam[1].is_zero() or lam[0].is_zero():
        raise WrongClass("center manifold expects eigenvalues (mu, 0)")
    comp_a, comp_b = field.components
    linear = field.homogeneous_component(1)
    a_nl = comp_a - linear.components[0]
    mu_inv = lam[0].inverse()
    # degree slices of c, of c' and of B(c, y2); the map y2 is linear
    cs: List[Slice] = [{}, {}]
    dc: List[Slice] = [{}]
    bs: List[Slice] = [{}, {}]
    maps = [cs, [{}, _unit_slice(1, 2)]]
    engine = _OnlineComposition([comp_b, a_nl], maps)
    for k in range(2, order + 1):
        b_k, a_k = engine.slice(k)
        # degree-k slice of c' B(c, y2) - A(c, y2): c' starts in degree 1
        # and B in degree 2, so it reads c only below degree k
        rhs = {e: -v for e, v in a_k.items()}
        for a in range(1, k - 1):
            _add_product(rhs, dc[a], bs[k - a])
        coeff = rhs.get((0, k))
        c_k = {}
        if coeff is not None and not coeff.is_zero():
            c_k[(0, k)] = coeff * mu_inv
        cs.append(c_k)
        dc.append(_derivative_slice(c_k, 1))
        bs.append(b_k)
        maps[1].append({})
    return MultiPoly(2, _merged(cs))


def saddle_node_prepare(field: VectorFieldGerm, order: int = 12) -> SaddleNodeData:
    """Reduce a germ with exactly one zero eigenvalue to residue data.

    Pipeline: eigenbasis, time normalization of the strong multiplier to 1,
    removal of center-free monomials, center-manifold straightening, then
    the contact order ``p + 1`` and the residue of the transverse
    multiplier.  Raises ``TruncationTooSmall`` when the working order
    cannot certify the residue (it needs order >= 2p + 1).
    """
    info = classify_singularity(field)
    if info.tag != "SaddleNode":
        raise WrongClass(
            "preparation expects one zero and one nonzero eigenvalue",
            found=info.tag)
    diag, matrix, lam, tower = diagonalize_linear_part(field)
    if lam[0].is_zero():
        # put the nonzero multiplier first
        swap = [MultiPoly.variable(1, 2), MultiPoly.variable(0, 2)]
        diag = VectorFieldGerm(compose(diag.components[::-1], swap))
        lam = (lam[1], lam[0])
    diag = diag.scale(lam[0].inverse())

    reduced = dulac_reduce(diag, order)
    work = reduced.normal_form
    c = center_manifold_series(work, order)

    # shift: new y1 is the old y1 - c(y2)
    y1 = MultiPoly.variable(0, 2)
    y2 = MultiPoly.variable(1, 2)
    lift = [y1 + c, y2]
    comp_a, comp_b = work.components
    shifted_a, shifted_b = compose(
        [comp_a - c.derivative(1).mul_trunc(comp_b, order), comp_b], lift, order)

    # restrictions to the center manifold y1 = 0
    on_center = [MultiPoly.zero(2), y2]
    center_slice_a, b_slice = compose([shifted_a, shifted_b], on_center, order)
    if not center_slice_a.is_zero():
        raise InternalInvariantViolation(
            "center manifold fails to straighten the first component")
    transverse = shifted_a.divide_by_var_power(0, 1)

    if b_slice.is_zero():
        raise TruncationTooSmall(
            "center dynamics vanish through the working order; "
            "the singular locus may be a curve", order=order)
    p_plus_1 = b_slice.order_at_origin()
    p = p_plus_1 - 1
    if order < 2 * p + 1:
        raise TruncationTooSmall(
            "residue needs a higher working order", order=order,
            required=2 * p + 1)

    unit = b_slice.divide_by_var_power(1, p_plus_1)
    transverse_slice = transverse.substitute(on_center)
    quotient = transverse_slice.mul_trunc(unit.inverse_trunc(p), p)
    modulus = quotient.coefficient((0, p))

    prepared = VectorFieldGerm([shifted_a, shifted_b])
    center = {k[1]: v for k, v in c.terms.items()}
    return SaddleNodeData(p, modulus, center, prepared, order)
