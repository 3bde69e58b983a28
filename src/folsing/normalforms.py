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
recomposing from scratch.  The certificate ``conjugacy_residual``
deliberately composes once more, independently, with the one-shot
``poly.compose``: it shares only the arithmetic primitives with the
solvers (the degree slices, packed exponents and coefficient kernels of
``poly``), never the table that produced H.

Only monomials of degree at most the order (order + 1 in the certificate)
enter a slice, so the digits of packed exponents are as wide as the bit
length of that degree.  The coefficient kernel is chosen once per solve
from the field (``poly._kernel``): int triples over Q(i), the scalars' own
arithmetic over towers, both through one degree loop.

On top of the engine sit the named reductions: full linearization in the
absence of small divisors and resonances, the minimal resonant model,
separatrix straightening for saddles, the zero-eigenvalue reduction that
empties the center-free monomials, the straightening of the center
manifold, and an invariant-plane reduction in three variables.  Each is a
pattern of the one engine, so each answer comes with the coordinate
change that ``conjugacy_residual`` certifies.  The full preparation of a
degenerate unipotent-free germ with one zero eigenvalue runs two of them
in turn, ``dulac_reduce`` and ``center_straighten``, and reads the
residue pair ``(p, lambda)`` off the straightened field.
"""

from __future__ import annotations

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
    Slice,
    VectorFieldGerm,
    _bit,
    _graded,
    _kernel,
    _pack,
    _trusted,
    _unpack,
    compose,
    scalar_to_json,
)

Exponent = Tuple[int, ...]
Decide = Callable[[int, Exponent, object], bool]


def _demote(c):
    """A tower element that lies in Q(i) as its GaussianRational, else itself."""
    g = c.as_gaussian_or_none()
    return c if g is None else g


def _negated_derivative(kernel, terms: Slice, j: int, n: int,
                        width: int) -> Slice:
    """-d/dx_j of a slice in n variables, packed with digits of ``width``
    bits."""
    bit = _bit(j, n, width)
    shift = width * (n - 1 - j)
    mask = (1 << width) - 1
    out = {}
    for e, t in terms.items():
        k = (e >> shift) & mask
        if k:
            out[e - bit] = kernel.scaled(t, -k)
    return out


class _OnlineComposition:
    """Degree slices of ``polys(maps)`` while the maps are still being solved for.

    ``maps[j][m]`` is the degree-m slice of the j-th map; ``maps[j][0]`` is
    empty, because every map vanishes at the origin, and ``maps[j][1]`` is
    empty or the unit slice of x_j.  The caller appends slice m of every
    map before it asks for slice m + 1 of the composition.  Source
    monomials of degree above ``order`` are left out.  Exponents are packed
    with digits of ``width`` bits, enough to hold ``order``.

    The table holds T[Q][k], the degree-k slice of prod_j maps[j]^Q_j.  With
    j the first index where Q_j > 0, T[Q][k] = sum_m maps[j][m] T[Q - e_j][k - m]
    and T[e_j] = maps[j]; the m = 1 term is T[Q - e_j][k - 1] moved by x_j.
    Every source monomial has degree at least 2, so slice k of the
    composition reads only map slices below k: each table slice is
    computed once, when it is first asked for, and never changes.
    """

    __slots__ = ("maps", "kernel", "width", "sources", "steps", "table")

    def __init__(self, polys: Sequence[MultiPoly], maps: List[List[Slice]],
                 order: int, kernel, width: int):
        self.maps = maps
        self.kernel = kernel
        self.width = width
        self.sources = []
        # packed Q: (j, packed Q - e_j, degree of Q - e_j)
        self.steps: Dict[int, Tuple[int, int, int]] = {}
        for poly in polys:
            terms = []
            for q, c in poly.terms.items():
                degree = sum(q)
                if degree < 2:
                    raise InternalInvariantViolation(
                        "online composition needs source monomials of degree >= 2",
                        exponents=list(q))
                if degree <= order:
                    terms.append((self._step(q, degree), {0: kernel.lift(c)},
                                  degree))
            self.sources.append(terms)
        self.table: Dict[int, Dict[int, Slice]] = {q: {} for q in self.steps}

    def _step(self, q: Exponent, degree: int) -> int:
        """The packed ``q``, after recording the steps from it down to a
        variable."""
        top = key = _pack(q, self.width)
        while degree and key not in self.steps:
            j = next(k for k, e in enumerate(q) if e)
            q = q[:j] + (q[j] - 1,) + q[j + 1:]
            degree -= 1
            rest = _pack(q, self.width)
            self.steps[key] = (j, rest, degree)
            key = rest
        return top

    def slice(self, d: int) -> List[Slice]:
        """The degree-d slice of each poly(maps), not yet ``finish``ed, as
        new dicts the caller owns."""
        out = []
        add_products = self.kernel.add_products
        for terms in self.sources:
            acc: Slice = {}
            for q, c, degree in terms:
                if degree <= d:
                    add_products(acc, c, self._power(q, d))
            out.append(acc)
        return out

    def _power(self, q: int, k: int) -> Slice:
        j, rest, low = self.steps[q]
        if not low:
            return self.maps[j][k]
        row = self.table[q]
        got = row.get(k)
        if got is not None:
            return got
        factor = self.maps[j]
        if factor[1]:
            (bit,) = factor[1]
            acc = {bit + e: t for e, t in self._power(rest, k - 1).items()}
        else:
            acc = {}
        for m in range(2, k - low + 1):
            a = factor[m]
            if a:
                self.kernel.add_products(acc, a, self._power(rest, k - m))
        got = row[k] = self.kernel.finish(acc)
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
# resonance enumeration or series work.  It is sized on dense fields, whose
# cost grows steeply with the order.  At order 32 the dense inputs of
# ``ORDER_COMMANDS`` in tests/test_cli.py take, start-up included (best of
# 5 on 2 shared cores): ``normal-form resonant`` 1.03 s, ``linearize``
# 0.82 s, ``first-integral`` 0.39 s, ``normal-form siegel`` 0.29 s,
# ``normal-form dulac`` 0.22 s and ``holonomy`` on a saddle-node 0.21 s.
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
    It is consulted only where the defect coefficient is nonzero, in
    ``exponents`` order within each component and degree: where it is
    zero, neither choice changes anything.  An order above ``MAX_ORDER``
    is refused.
    """
    check_order(order)
    lam = _diagonal_lambdas(field)
    n = field.nvars
    linear = field.homogeneous_component(1)
    nonlinear = [field.components[i] - linear.components[i] for i in range(n)]
    kernel = _kernel(field.components)
    delta_of = kernel.divisors(lam)
    # degree slices: maps[j] of x_j + h_j, hs[i] of h_i and gs[i] of g_i;
    # index = degree, the lowest entries empty
    width = order.bit_length()
    maps = [[{}, {_bit(j, n, width): kernel.unit}] for j in range(n)]
    engine = _OnlineComposition(nonlinear, maps, order, kernel, width)
    hs: List[List[Slice]] = [[{}, {}] for _ in range(n)]
    gs: List[List[Slice]] = [[{}, {}] for _ in range(n)]
    # dh[(i, j, a)] = degree-a slice of -d(h_i)/dx_j, derived when a kept
    # slice of g first reads it
    dh: Dict[Tuple[int, int, int], Slice] = {}
    kept: Dict[Tuple[int, Exponent], object] = {}

    for d in range(2, order + 1):
        composed = engine.slice(d)
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
                        dha = dh[(i, j, a)] = _negated_derivative(
                            kernel, hs[i][a + 1], j, n, width)
                    if dha:
                        kernel.add_products(defect, dha, g)
            defect = kernel.finish(defect)
            h_d: Slice = {}
            g_d: Slice = {}
            for e in sorted(defect, reverse=True):
                rhs = defect[e]
                exps = _unpack(e, n, width)
                delta = delta_of(exps, i)
                if decide(i, exps, delta):
                    if delta.is_zero():
                        raise ZeroDivisorDelta(
                            "resonant coefficient cannot be removed",
                            component=i + 1, exponents=list(exps))
                    h_d[e] = kernel.divide(rhs, delta)
                else:
                    g_d[e] = rhs
                    kept[(i, exps)] = kernel.lower(rhs)
            hs[i].append(h_d)
            gs[i].append(g_d)
        for i in range(n):
            maps[i].append(hs[i][d])

    # the slices of h and g hold nonzero coefficients, all of degree >= 2
    variables = [MultiPoly.variable(j, n) for j in range(n)]
    transform = [variables[i] + _trusted(n, {
        _unpack(e, n, width): kernel.lower(t)
        for s in hs[i] for e, t in s.items()})
        for i in range(n)]
    normal = VectorFieldGerm([linear.components[i] + _trusted(n, {
        q: c for (k, q), c in kept.items() if k == i}) for i in range(n)])
    return ConjugacyResult(pattern, order, lam, transform, normal, kept)


def conjugacy_residual(field: VectorFieldGerm, result: ConjugacyResult) -> List[MultiPoly]:
    """DH * X_reduced - X(H), truncated at the working order (all zero iff valid).

    X(H) comes from the one-shot ``compose``, never from the online table
    that produced H: a wrong slice of that table would otherwise cancel out
    of the certificate.  Its terms are lifted to the coefficients of
    ``_kernel``, each product of a term of dH_i/dx_j and a term of the j-th
    reduced component of degree at most the order is subtracted from them,
    and only what remains is negated and made a MultiPoly.
    """
    n = field.nvars
    order = result.order
    check_order(order)
    rhs = compose(field.components, result.transform, order)
    reduced = result.normal_form.components
    kernel = _kernel([*rhs, *result.transform, *reduced])
    lift = kernel.lift
    # the transform is read through degree order + 1
    width = (order + 1).bit_length()
    sides = [_graded(p, order, lift, width) for p in reduced]
    out = []
    for i in range(n):
        # X(H)_i - sum_j dH_i/dx_j X_reduced,j, negated where it is not zero
        acc = {_pack(e, width): lift(c) for e, c in rhs[i].terms.items()}
        # H_i by degree: a term of degree d differentiates to degree d - 1
        own = _graded(result.transform[i], order + 1, lift, width)
        for j, side in enumerate(sides):
            for d1, terms in own.items():
                left = _negated_derivative(kernel, terms, j, n, width)
                for d2, right in side.items():
                    if left and d1 - 1 + d2 <= order:
                        kernel.add_products(acc, left, right)
        out.append(_trusted(n, {_unpack(e, n, width): kernel.lower(kernel.scaled(t, -1))
                                for e, t in kernel.finish(acc).items()}))
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


def center_straighten(field: VectorFieldGerm, order: int = 8) -> ConjugacyResult:
    """For eigenvalues (mu, 0): straighten the formal center manifold.

    Only the pure powers of y2 in the first component are solved, with
    divisor -mu, so the transform is (y1 + c(y2), y2), where y1 = c(y2) is
    the graph of the unique formal invariant curve tangent to the kernel,
    and the reduced first component vanishes on y1 = 0.  The reduced field
    is [A - c' B, B] composed with the transform.  An order above
    ``MAX_ORDER`` is refused first.
    """
    check_order(order)
    lam = _diagonal_lambdas(field)
    if field.nvars != 2 or not lam[1].is_zero() or lam[0].is_zero():
        raise WrongClass("center manifold expects eigenvalues (mu, 0)")
    return solve_conjugacy(
        field, lambda i, q, delta: i == 0 and q[0] == 0, order,
        pattern="center-manifold")


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

    Returns ``(new_field, lambdas)``, the germ in the coordinates z with
    y = P z for the column eigenbasis P, and its diagonal entries.  Raises
    when the linear part is defective.
    """
    if field.nvars != 2:
        raise WrongClass("eigenbasis preparation handles two variables")
    mat = field.linear_part_matrix()
    if mat[0][1].is_zero() and mat[1][0].is_zero():
        # the diagonal entries are the eigenvalues: nothing to factor
        return field, (mat[0][0], mat[1][1])
    _, lam1, lam2 = eigen_pair(field)
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
    return VectorFieldGerm(new_components), (lam1, lam2)


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

    __slots__ = ("p", "modulus", "center")

    def __init__(self, p: int, modulus, center: Dict[int, object]):
        self.p = p
        self.modulus = modulus
        self.center = center

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "lambda": scalar_to_json(self.modulus),
            "a": {str(k): scalar_to_json(v) for k, v in sorted(self.center.items())},
        }


def saddle_node_prepare(field: VectorFieldGerm, order: int = 12) -> SaddleNodeData:
    """Reduce a germ with exactly one zero eigenvalue to residue data.

    Pipeline: eigenbasis, time normalization of the strong multiplier to 1,
    removal of center-free monomials (``dulac_reduce``), center-manifold
    straightening (``center_straighten``, whose reduced field vanishes in
    its first component on y1 = 0), then the contact order ``p + 1`` and
    the residue of the transverse multiplier, read off that reduced field
    by term filters.  Raises ``TruncationTooSmall`` when the working order
    cannot certify the residue (it needs order >= 2p + 1).
    """
    info = classify_singularity(field)
    if info.tag != "SaddleNode":
        raise WrongClass(
            "preparation expects one zero and one nonzero eigenvalue",
            found=info.tag)
    diag, lam = diagonalize_linear_part(field)
    if lam[0].is_zero():
        # put the nonzero multiplier first: swap the components and the
        # exponents of every term
        diag = VectorFieldGerm([
            _trusted(2, {e[::-1]: c for e, c in comp.terms.items()})
            for comp in diag.components[::-1]])
        lam = (lam[1], lam[0])
    diag = diag.scale(lam[0].inverse())

    work = dulac_reduce(diag, order).normal_form
    straight = center_straighten(work, order)
    comp_a, comp_b = straight.normal_form.components

    # restrictions to the center manifold y1 = 0; the division refuses any
    # term of the first component free of y1
    transverse = comp_a.divide_by_var_power(0, 1)
    b_slice = _trusted(2, {e: v for e, v in comp_b.terms.items() if not e[0]})

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
    transverse_slice = _trusted(
        2, {e: v for e, v in transverse.terms.items() if not e[0]})
    quotient = transverse_slice.mul_trunc(unit.inverse_trunc(p), p)
    modulus = quotient.coefficient((0, p))

    # the transform is (y1 + c(y2), y2)
    center = {e[1]: v for e, v in straight.transform[0].terms.items()
              if not e[0]}
    return SaddleNodeData(p, modulus, center)
