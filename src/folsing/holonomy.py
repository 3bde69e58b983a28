"""Return maps around separatrices, their periodicity, and product integrals.

The linear multiplier of the return map around a separatrix of a simple
singular point is the exponential of the eigenvalue ratio; for rational
ratios it is an exact root of unity.  For a germ with one zero eigenvalue
the return map around the strong separatrix is the formal time-one map of
tau times the reduced transversal dynamics, tau a transcendental loop
weight.  That is the flow of the dynamics for time tau: through each
power of z its Lie series is a polynomial in the time, and tau is that
time.  The first deviation from the identity appears exactly at degree
p + 1.

A nonconstant analytic invariant function forces every singular point of
the resolved object to be of rational-ratio type with trivial resonant
part, and forbids dicritical components.  For a germ with homogeneous
components the invariant, when it exists, is a product of powers of the
tangent-cone factors; the residues of the defining form along those
factors decide existence and the exponents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (
    DEFAULT_MAX_BLOWUPS,
    DegenerateEigenData,
    DicriticalInput,
    FloatOverflow,
    IntegralDegreeExceeded,
    InternalInvariantViolation,
    NonIntegerResidues,
    TruncationTooSmall,
    WrongClass,
    ZeroBaseEigenvalue,
    ZeroInput,
)
from .local import eigen_pair, gcd_xy, line_slice
from .normalforms import (
    _demote,
    check_order,
    diagonalize_linear_part,
    resonant_normal_form,
)
from .poly import (
    MultiPoly,
    OneFormGerm,
    VectorFieldGerm,
    coefficient_tower,
    dualize,
    lift_poly,
    render_poly,
    scalar_to_json,
)
from .resolve import resolve
from .scalars import (
    ONE,
    ZERO,
    GaussianRational,
    _fmt_ratio,
    coerce_scalar,
    power,
    row_reduce,
)
from .towers import TRIVIAL, factor_univariate


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

class ExactMultiplier:
    """Root-of-unity multiplier written as exp(2 pi i r) with rational r."""

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        self.exponent = Fraction(exponent)

    @property
    def order(self) -> int:
        """Multiplicative order of the multiplier."""
        return (self.exponent % 1).denominator

    def as_gaussian_or_none(self) -> Optional[GaussianRational]:
        reduced = self.exponent % 1
        table = {
            Fraction(0): GaussianRational(1, 0),
            Fraction(1, 2): GaussianRational(-1, 0),
            Fraction(1, 4): GaussianRational(0, 1),
            Fraction(3, 4): GaussianRational(0, -1),
        }
        return table.get(reduced)

    def __mul__(self, other):
        if not isinstance(other, ExactMultiplier):
            return NotImplemented
        return ExactMultiplier(self.exponent + other.exponent)

    def __pow__(self, n: int):
        return ExactMultiplier(self.exponent * n)

    def inverse(self) -> "ExactMultiplier":
        return ExactMultiplier(-self.exponent)

    def __eq__(self, other):
        if isinstance(other, ExactMultiplier):
            return self.exponent % 1 == other.exponent % 1
        g = self.as_gaussian_or_none()
        if g is not None:
            return g == other
        return NotImplemented

    def __hash__(self):
        return hash(self.exponent % 1)

    def __repr__(self):
        return f"ExactMultiplier(exp(2*pi*i*{self.exponent}))"

    def to_json(self) -> dict:
        e = self.exponent
        out = {"kind": "root-of-unity",
               "exponent": _fmt_ratio(e.numerator, e.denominator),
               "order": self.order}
        g = self.as_gaussian_or_none()
        if g is not None:
            out["value"] = scalar_to_json(g)
        return out


class ComplexMultiplier:
    """Multiplier exp(2 pi i r) for a nonrational exponent r."""

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        self.exponent = exponent

    def modulus(self) -> float:
        try:
            return math.exp(-2.0 * math.pi * complex(self.exponent).imag)
        except OverflowError:
            raise FloatOverflow(
                "the multiplier's modulus leaves the finite doubles",
                exponent=scalar_to_json(self.exponent)) from None

    def __repr__(self):
        return f"ComplexMultiplier(exp(2*pi*i*({self.exponent})))"

    def to_json(self) -> dict:
        return {"kind": "transcendental-exponent",
                "exponent": scalar_to_json(self.exponent),
                "modulus": self.modulus()}


def linear_holonomy(obj, base_index: int = 0):
    """Multiplier of the return map around the separatrix of one eigenvalue.

    ``obj`` is a germ or an eigenvalue pair; the exponent is the ratio of
    the other eigenvalue to the chosen one.
    """
    if isinstance(obj, VectorFieldGerm):
        _, lam1, lam2 = eigen_pair(obj)
        lams = (_demote(lam1), _demote(lam2))
    else:
        lams = tuple(coerce_scalar(v) for v in obj)
    if len(lams) != 2:
        raise WrongClass("return-map multiplier needs exactly two eigenvalues")
    base = lams[base_index]
    other = lams[1 - base_index]
    if base.is_zero():
        raise ZeroBaseEigenvalue(
            "separatrix eigenvalue vanishes; the return map is not linearizable")
    ratio = other * base.inverse()
    frac = _real_fraction(ratio)
    if frac is not None:
        return ExactMultiplier(frac)
    return ComplexMultiplier(ratio)


def _real_fraction(v) -> Optional[Fraction]:
    """The value of a GaussianRational or tower element when it is
    rational, else None."""
    g = v.as_gaussian_or_none()
    return g.re if g is not None and g.is_rational() else None


# ---------------------------------------------------------------------------
# formal return-map germs
# ---------------------------------------------------------------------------

class GermSeries:
    """Truncated formal map z -> sum a_k(tau) z^k, held as one polynomial
    in (tau, z); a_1 is the linear coefficient."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: MultiPoly, order: int):
        self.poly = _trunc_z(poly, order)
        self.order = order

    @classmethod
    def identity(cls, order: int) -> "GermSeries":
        return cls(MultiPoly.variable(1, 2), order)

    def degrees(self) -> List[int]:
        """The powers of z with a nonzero coefficient, ascending."""
        return sorted({k for _, k in self.poly.terms})

    def coefficient(self, k: int) -> MultiPoly:
        """a_k as a polynomial in tau."""
        return MultiPoly(1, {(m,): c for (m, j), c in self.poly.terms.items()
                             if j == k})

    def linear_coefficient(self) -> MultiPoly:
        return self.coefficient(1)

    def first_obstruction(self) -> Optional[Tuple[int, MultiPoly]]:
        """Smallest k >= 2 with a nonzero coefficient, if any."""
        past_linear = [k for k in self.degrees() if k >= 2]
        if not past_linear:
            return None
        return past_linear[0], self.coefficient(past_linear[0])

    def to_json(self) -> dict:
        return {"order": self.order,
                "coefficients": {str(k): render_tau(self.coefficient(k))
                                 for k in self.degrees()}}

    def __repr__(self):
        parts = [f"({render_tau(self.coefficient(k))})*z^{k}"
                 for k in self.degrees()]
        return "GermSeries(" + " + ".join(parts) + f" + O(z^{self.order + 1}))"


def render_tau(a: MultiPoly) -> str:
    """A polynomial in tau, terms in ascending degree; a coefficient is
    parenthesized only when it is a sum."""
    parts = []
    for (m,), c in sorted(a.terms.items()):
        ctxt = str(c)
        if "+" in ctxt[1:] or "-" in ctxt[1:]:
            ctxt = f"({ctxt})"
        if m == 0:
            parts.append(ctxt)
            continue
        mono = "tau" if m == 1 else f"tau^{m}"
        if ctxt == "1":
            parts.append(mono)
        elif ctxt == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{ctxt}*{mono}")
    if not parts:
        return "0"
    return parts[0] + "".join(p if p.startswith("-") else "+" + p
                              for p in parts[1:])


def _trunc_z(poly: MultiPoly, order: int) -> MultiPoly:
    return MultiPoly(2, {e: c for e, c in poly.terms.items() if e[1] <= order})


def saddle_node_holonomy(p: int, modulus, order: int = 6) -> GermSeries:
    """Return map around the strong separatrix of the reduced model.

    The flow of the transversal dynamics dz/dt = G(z) = z^{p+1} / (1 + c z^p)
    for time t is the Lie series sum t^n/n! L^n(z) with L = G d/dz; L^n(z)
    starts at z^{np+1}, so at most (order - 1)/p terms reach the order.  The
    loop of formal weight tau is the flow for time tau, so the flow's
    polynomial in (t, z) is the germ in (tau, z): tangent to the identity,
    with first deviation tau at z^{p+1}.
    """
    if p < 1:
        raise WrongClass("contact exponent must be at least 1")
    check_order(order)
    if order < p + 1:
        raise TruncationTooSmall(
            "truncation order must reach the first deviation",
            order=order, required=p + 1)
    lam = coerce_scalar(modulus)
    # t G(z), G(z) = z^{p+1} (1 + lam z^p)^{-1} expanded through z^order
    tG = MultiPoly(2, {(1, p + 1 + j * p): power(-lam, j, ONE)
                       for j in range((order - 1) // p)})
    y = term = MultiPoly.variable(1, 2)  # variables (t, z)
    n = 0
    while not term.is_zero():
        n += 1
        # t^n/n! L^n(z) from its predecessor
        term = _trunc_z(tG * term.derivative(1), order).scale(Fraction(1, n))
        y = y + term
    return GermSeries(y, order)


class GermOrderResult:
    __slots__ = ("kind", "order", "obstruction")

    def __init__(self, kind: str, order: Optional[int] = None,
                 obstruction=None):
        self.kind = kind  # finite | infinite | undecided
        self.order = order
        self.obstruction = obstruction

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.order is not None:
            out["order"] = self.order
        if self.obstruction is not None:
            k, c = self.obstruction
            out["obstruction"] = {"degree": k, "coefficient": render_tau(c)}
        return out

    def __repr__(self):
        return f"GermOrderResult({self.kind}, order={self.order})"


def germ_order(obj) -> GermOrderResult:
    """Periodicity of a return map: finite order, infinite, or undecidable."""
    if isinstance(obj, ExactMultiplier):
        return GermOrderResult("finite", obj.order)
    if isinstance(obj, ComplexMultiplier):
        frac = _real_fraction(obj.exponent)
        if frac is not None:
            return GermOrderResult("finite", (frac % 1).denominator)
        # a non-real or an irrational real exponent: never periodic
        return GermOrderResult("infinite")
    if isinstance(obj, GermSeries):
        if (obj.linear_coefficient() == 1
                and (obstruction := obj.first_obstruction()) is not None):
            return GermOrderResult("infinite", obstruction=obstruction)
        return GermOrderResult("undecided")
    raise WrongClass(f"cannot measure periodicity of {type(obj).__name__}")


# ---------------------------------------------------------------------------
# necessary conditions for an analytic invariant function
# ---------------------------------------------------------------------------

class IntegralVerdict:
    """Aggregated leafwise obstructions to a nonconstant analytic invariant."""

    __slots__ = ("verdict", "reasons", "leaves", "tree")

    def __init__(self, verdict: str, reasons: List[str], leaves: List[dict], tree):
        self.verdict = verdict
        self.reasons = reasons
        self.leaves = leaves
        self.tree = tree

    def passes(self) -> bool:
        return self.verdict == "PassesNecessaryConditions"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "reasons": self.reasons,
                "leaves": self.leaves}

    def __repr__(self):
        return f"IntegralVerdict({self.verdict})"


def _leaf_formally_linearizable(node, order: int) -> bool:
    """Whether a Siegel leaf with eigenvalue ratio -m/n has no resonant
    part through ``order``.

    lambda_i = <Q, lambda> holds only in the degrees |Q| = 1 + k(m + n),
    so the solve stops at the last such degree within ``order``.  The
    solver works degree by degree and keeps only resonant terms, so it
    keeps the same terms as a solve through ``order`` would.
    """
    m, n = node.classification.siegel_pair
    top = order - (order - 1) % (m + n)
    if top < 2:
        return True
    try:
        diag = diagonalize_linear_part(dualize(node.form))[0]
    except DegenerateEigenData:
        return False
    return not resonant_normal_form(diag, order=top).kept


def mattei_moussu_criterion(obj, order: int = 8,
                            max_blowups: int = DEFAULT_MAX_BLOWUPS) -> IntegralVerdict:
    """Necessary conditions for a nonconstant analytic invariant function.

    Resolves the germ and inspects every terminal singular point: points
    with one zero eigenvalue, nonreal or positive real ratios, dicritical
    components, and resonant ratios with nontrivial resonant part all
    obstruct; irrational negative ratios leave the question open.

    A common polynomial factor of the two components is divided out first:
    it multiplies the form without changing the foliation, so the question
    of an invariant function is decided on the reduced representative.
    An order above ``normalforms.MAX_ORDER`` is refused before the germ
    is resolved.
    """
    check_order(order)
    if isinstance(obj, VectorFieldGerm):
        obj = dualize(obj)
    if isinstance(obj, OneFormGerm):
        common = gcd_xy(obj.a, obj.b)
        if common.total_degree() > 0:
            obj = OneFormGerm(obj.a.divide_exact(common),
                              obj.b.divide_exact(common))
    tree = resolve(obj, max_blowups=max_blowups)
    reasons: List[str] = []
    undecided = False
    leaves: List[dict] = []

    for node in tree.nodes:
        if node.expanded and node.dicritical:
            reasons.append(
                f"node {node.id}: dicritical component crosses infinitely "
                "many leaves")

    for leaf in tree.leaves():
        tag = leaf.classification.tag
        entry = {"node": leaf.id, "tag": tag}
        if tag == "Regular" or (leaf.expanded and leaf.dicritical):
            entry["status"] = "ok" if tag == "Regular" else "fails"
            leaves.append(entry)
            continue
        if tag == "SaddleNode":
            entry["status"] = "fails"
            entry["reason"] = "zero eigenvalue at a terminal point"
            reasons.append(f"node {leaf.id}: {entry['reason']}")
        elif tag == "Hyperbolic":
            entry["status"] = "fails"
            entry["reason"] = "nonreal eigenvalue ratio at a terminal point"
            reasons.append(f"node {leaf.id}: {entry['reason']}")
        elif tag == "SimplePoincareNonresonant":
            entry["status"] = "fails"
            entry["reason"] = "positive real ratio forces constancy nearby"
            reasons.append(f"node {leaf.id}: {entry['reason']}")
        elif tag == "SiegelRational":
            if _leaf_formally_linearizable(leaf, order):
                entry["status"] = "ok"
                entry["reason"] = f"rational ratio, no resonant part through {order}"
            else:
                entry["status"] = "fails"
                entry["reason"] = "resonant part obstructs a periodic return map"
                reasons.append(f"node {leaf.id}: {entry['reason']}")
        elif tag == "SiegelIrrational":
            entry["status"] = "undecided"
            entry["reason"] = "irrational negative ratio; periodicity unknown"
            undecided = True
        else:
            entry["status"] = "fails"
            entry["reason"] = f"unresolved terminal point of type {tag}"
            reasons.append(f"node {leaf.id}: {entry['reason']}")
        leaves.append(entry)

    if reasons:
        verdict = "FailsNecessaryConditions"
    elif undecided:
        verdict = "Undecided"
    else:
        verdict = "PassesNecessaryConditions"
    return IntegralVerdict(verdict, reasons, leaves, tree)


# ---------------------------------------------------------------------------
# product integrals for homogeneous germs
# ---------------------------------------------------------------------------

class FirstIntegralResult:
    __slots__ = ("integral", "factors", "residues", "form")

    def __init__(self, integral: MultiPoly,
                 factors: List[Tuple[MultiPoly, int]],
                 residues: List[Fraction], form: OneFormGerm):
        self.integral = integral
        self.factors = factors
        self.residues = residues
        self.form = form

    def to_json(self) -> dict:
        return {
            "integral": render_poly(self.integral),
            "factors": [{"polynomial": render_poly(q), "exponent": n}
                        for q, n in self.factors],
            "residues": [str(r) for r in self.residues],
        }


def _homogeneous_degree(p: MultiPoly) -> int:
    degs = {sum(e) for e in p.terms}
    if len(degs) > 1:
        raise WrongClass("coefficients must be homogeneous")
    return degs.pop() if degs else -1


def _factor_cone(phi: MultiPoly, tower) -> List[Tuple[MultiPoly, int]]:
    """Irreducible homogeneous factors of a binary form with multiplicities."""
    m0 = phi.order_in(0)
    rest = phi.divide_by_var_power(0, m0) if m0 else phi
    # rest(1, t): setting x = 1 leaves a univariate polynomial in t = y/x
    _, factors = factor_univariate(line_slice(rest, 0, 1, tower), tower)
    out: List[Tuple[MultiPoly, int]] = []
    if m0:
        out.append((MultiPoly.variable(0, 2), m0))
    for coeffs, mult in factors:
        d = len(coeffs) - 1
        terms = {}
        for k, c in enumerate(coeffs):
            terms[(d - k, k)] = _demote(c)
        out.append((MultiPoly(2, terms), mult))
    return out


def _solve_exact(rows: List[List[object]], rhs: List[object]) -> Optional[List[object]]:
    """Gaussian elimination over exact scalars; None when inconsistent."""
    n = len(rows[0]) if rows else 0
    reduced, pivots = row_reduce([list(r) + [v] for r, v in zip(rows, rhs)])
    if n in pivots:
        return None
    solution = [ZERO] * n
    for r, col in enumerate(pivots):
        solution[col] = reduced[r][n]
    # columns without pivots stay zero; for our systems factors always
    # contribute, so a zero residue is caught by the caller
    return solution


# Largest total degree sum n_i * deg q_i of a power-product first integral.
# The exponents n_i come from the residues and are unbounded, and the cost
# of expanding the product grows about with the cube of its degree: 1.4 s at
# degree 1001 for (x - y) (x + y)^1000, 4.8 s at 2001.  The shipped corpus,
# the tests and the benchmark reach degree 8 at most.
INTEGRAL_DEGREE_CAP = 1000


def construct_first_integral_homogeneous(obj) -> FirstIntegralResult:
    """Power-product invariant of a germ with homogeneous components.

    Writes the defining form as a combination of logarithmic differentials
    of the cone factors, demands positive rational residues, and returns
    the corresponding coprime power product, verified exactly.  A product
    of total degree above ``INTEGRAL_DEGREE_CAP`` is refused before it is
    expanded.
    """
    form = dualize(obj) if isinstance(obj, VectorFieldGerm) else obj
    if not isinstance(form, OneFormGerm):
        raise WrongClass("expected a vector field or a differential form")
    if form.is_zero():
        raise ZeroInput("zero form has every function invariant")
    da = _homogeneous_degree(form.a)
    db = _homogeneous_degree(form.b)
    if da >= 0 and db >= 0 and da != db:
        raise WrongClass("coefficients must share one homogeneity degree")

    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    phi = x * form.a + y * form.b
    if phi.is_zero():
        raise DicriticalInput(
            "radial contraction vanishes; every line is invariant")

    tower = coefficient_tower(form.a, form.b, phi)
    factors = _factor_cone(lift_poly(phi, tower) if tower is not TRIVIAL else phi,
                           tower)

    columns = []
    for q, _ in factors:
        cof = phi.divide_exact(q)
        columns.append((cof * q.derivative(0), cof * q.derivative(1)))

    degree = _homogeneous_degree(form.a if not form.a.is_zero() else form.b)
    exps = [(degree - k, k) for k in range(degree + 1)]
    rows: List[List[object]] = []
    rhs: List[object] = []
    for comp_index, target in ((0, form.a), (1, form.b)):
        for e in exps:
            rows.append([col[comp_index].coefficient(e) for col in columns])
            rhs.append(target.coefficient(e))
    solution = _solve_exact(rows, rhs)
    if solution is None:
        raise NonIntegerResidues(
            "form is not a combination of logarithmic differentials of its "
            "cone factors")

    residues: List[Fraction] = []
    for v in solution:
        frac = _real_fraction(v)
        if frac is None or frac <= 0:
            raise NonIntegerResidues(
                "residues must be positive rationals",
                residues=[scalar_to_json(s) for s in solution])
        residues.append(frac)

    lcm = 1
    for r in residues:
        lcm = lcm * r.denominator // math.gcd(lcm, r.denominator)
    ints = [int(r * lcm) for r in residues]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    ints = [v // g for v in ints]

    # the degree may have more digits than prints, so only the cap is reported
    if sum(n * q.total_degree()
           for (q, _), n in zip(factors, ints)) > INTEGRAL_DEGREE_CAP:
        raise IntegralDegreeExceeded(
            "the power-product integral has too high a degree",
            cap=INTEGRAL_DEGREE_CAP)
    integral = MultiPoly.constant(GaussianRational(1), 2)
    for (q, _), n in zip(factors, ints):
        integral = integral * q ** n
    witness = form.wedge_with_df(integral)
    if not witness.is_zero():
        raise InternalInvariantViolation(
            "constructed product fails the invariance identity")
    return FirstIntegralResult(
        integral, [(q, n) for (q, _), n in zip(factors, ints)], residues, form)


def verify_first_integral(form: OneFormGerm, candidate: MultiPoly) -> bool:
    """Exact check that the candidate is constant along the form's kernel."""
    return form.wedge_with_df(candidate).is_zero()


def projective_holonomy_generators(result: FirstIntegralResult) -> List[ExactMultiplier]:
    """Multipliers of the loops around the tangent directions, one per root.

    A factor of degree d contributes d conjugate loops with equal
    multipliers.  The exponents sum to -1, so the product of all
    generators is the identity, as the composite loop contracts.
    """
    total = Fraction(0)
    for (q, _), nu in zip(result.factors, result.residues):
        total += nu * _homogeneous_degree(q)
    gens: List[ExactMultiplier] = []
    for (q, _), nu in zip(result.factors, result.residues):
        d = _homogeneous_degree(q)
        for _ in range(d):
            gens.append(ExactMultiplier(-nu / total))
    s = sum(g.exponent for g in gens)
    if s.denominator != 1:
        raise InternalInvariantViolation(
            "loop exponents fail to close up to an integer")
    return gens
