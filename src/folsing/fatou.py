"""Floating-point dynamics of tangent-to-identity germs f(z) = z + a z^{p+1} + ...

Provides attracting/repelling directions, petal membership, numerical
extraction of the solution of the translation equation phi(f(z)) = phi(z) + 1
on an attracting petal, residual checks for that equation, and empirical
orbit censuses on a disc grid.

Method.  In the inverted chart w = -1/(a' Z) a tangent-to-identity germ
becomes F(w) = w + 1 + e1/w + e2/w^2 + e3/w^3 + ..., with the e_j read off
a reciprocal power series.  The translation coordinate has the expansion
phi(w) = w - e1 log w + d1/w + d2/w^2 + O(log w / w^3), where d1 and d2 are
polynomial in the e_j; evaluating this along the orbit gives an estimate
whose step-n error is O(n^-3 log n), so Cauchy increments under doubling of
n_max sit far below the default tolerances.

Germs with p >= 2 are reduced to p = 1: a polynomial conjugacy removes all
coefficients between the leading nonlinear term and twice its degree, after
which Z = h(z)^p transforms the germ into a genuine power series in Z with
leading nonlinear coefficient p*a.  The conjugacy comes from closed
forms: each step z + t z^{m+1} has t fixed by one division and a
Fuss-Catalan series as inverse.  The reduction is exact through degree
4p+1; accuracy therefore degrades as the base point approaches the edge of
the convergence disc.  It costs about p^4, so more than ``MAX_PETALS``
petals are refused.

All but the census runs on Python complexes: the germ is a tuple, the
series are lists, and powers are products, so a value that leaves the
doubles becomes inf or nan for the finiteness checks instead of raising.
Only the census, vectorized across its grid, imports numpy.

Orbit kernels.  ``_advance`` runs one loop per Horner length, compiled
once from a template with Horner's scheme nested into one expression and
the loop unrolled into passes of steps, so a step is a few float or
complex operations and the disc test, with no inner loop (and on floats
no call).  A pass that starts in a box around the fixed point skips its
disc tests: a growth bound on the moduli, with Horner's rounding error,
proves that no step of it can leave the disc (``_certified_box``), so
the outputs do not change.  A real germ at a real point iterates in float
arithmetic: with zero imaginary parts complex arithmetic does the same IEEE
operations on the real parts, so every iterate is bit-identical in its real
part to the complex one.  The census advances only the orbits still
undecided, through blocks of steps that double in length, and decides each
block in one vectorized pass: the first step at which an orbit escapes,
comes back or collides ends it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    PETAL_RUN,
    FloatOverflow,
    GridTooLarge,
    NotInPetal,
    RequestTooLarge,
    SlowConvergence,
    TruncationTooSmall,
    ZeroInput,
    ZeroLeadingCoefficient,
)
from .scalars import power

# numpy is imported inside the two census functions, so importing the
# package, and every command but ``orbit-census``, does not pay for it.
if TYPE_CHECKING:
    import numpy as np

_COEFF_TOL = 1e-12


# --------------------------------------------------------------------------
# orbit kernels
# --------------------------------------------------------------------------
def _horner_coefficients(coeffs: Sequence[complex],
                         radius: float) -> List[complex]:
    """The coefficients of f(z)/z as Python complexes, top degree first, so
    that Horner's scheme starts at the first entry.

    Zero top coefficients only add signed zeros to the sum, so they are
    dropped.  With no finite radius the disc test cannot see an orbit that
    overflowed; a leading 0, as in a sum started at zero, turns such a point
    into nan (0 * inf) one step later, and nan leaves every disc.
    """
    clist = [complex(c) for c in coeffs]
    if math.isfinite(radius):
        while len(clist) > 1 and clist[-1] == 0:
            clist.pop()
    else:
        clist.append(0j)
    return clist[::-1]


# The disc test of the generated loops: on floats the two comparisons with
# -radius and radius are the test abs(z) <= radius without a call (nan fails
# both); on complexes abs keeps raising OverflowError once the modulus of a
# finite point passes the doubles.
_DISC_TESTS = {True: "lo <= z <= radius", False: "abs(z) <= radius"}
# The box test that opens each pass: no abs, which could raise on a finite
# point, and nan or inf fail it.
_BOX_TESTS = {True: "-safe < z < safe",
              False: "-safe < z.real < safe and -safe < z.imag < safe"}


# The generated orbit loop runs passes of ``_UNROLL`` steps, and nests at
# most ``_NEST`` coefficients into one Horner expression: the parser stops
# near 200 nested parentheses.
_UNROLL = 16
_NEST = 32


def _factor(expr: str) -> str:
    """``expr`` as a factor of a product: a name as it is, a sum in
    parentheses."""
    return expr if expr.isidentifier() else "(%s)" % expr


@functools.lru_cache(maxsize=64)
def _orbit_kernel(length: int, real: bool) -> Callable:
    """The orbit loop for a Horner scheme of ``length`` coefficients, on
    floats or on complexes, compiled once per (length, real).

    The source is built from the int and the bool alone.  Its step is
    Horner's scheme nested, ``z = ((c0 * z + c1) * z + c2) * z``, in groups
    of at most ``_NEST`` coefficients chained through ``acc``: the same
    operations in the same order as a loop over the coefficients, without
    that loop, for germs of any length.  The loop runs over
    ``itertools.repeat`` in passes of ``_UNROLL`` steps, then the remaining
    steps.  A pass that starts inside the box |Re z|, |Im z| < ``safe``,
    which ``_certified_box`` proves to keep every step of the pass in the
    disc, runs its steps alone; any other pass, and the remaining steps,
    follow each step with its own disc test, so an orbit that leaves the
    disc ends at that very step.
    """
    params = ", ".join("c%d" % k for k in range(length))
    step = []
    expr = "c0"
    for k in range(1, length):
        if k % _NEST == 0:
            step.append("acc = " + expr)
            expr = "acc"
        expr = "%s * z + c%d" % (_factor(expr), k)
    step.append("z = %s * z" % _factor(expr))
    tested = step + ["if not (%s):" % _DISC_TESTS[real], "    return nan"]
    lines = (["def orbit(z, steps, lo, radius, safe, %s):" % params,
              "    passes, rest = divmod(max(steps, 0), %d)" % _UNROLL,
              "    for _ in repeat(None, passes):",
              "        if %s:" % _BOX_TESTS[real]]
             + ["            " + line for line in step * _UNROLL]
             + ["        else:"]
             + ["            " + line for line in tested * _UNROLL]
             + ["    for _ in repeat(None, rest):"]
             + ["        " + line for line in tested]
             + ["    return z"])
    namespace = {"nan": math.nan, "repeat": itertools.repeat}
    exec(compile("\n".join(lines) + "\n", "<orbit kernel>", "exec"),
         namespace)
    return namespace["orbit"]


# The certificate of ``_certified_box``: the relative slack of its growth
# bound, the longest Horner scheme that slack covers, the cap on the moduli
# it certifies and the number of boxes it tries, each half the last.
_SLACK = 2.0 ** -30
_CERTIFIED_LENGTH = 1 << 16
_CERTIFIED_CAP = 1.0
_HALVINGS = 60


def _certified_box(clist: Sequence[complex], radius: float) -> float:
    """The largest of the half-widths rho = top / 2, top / 4, ... (``top``
    the radius capped at 1) from whose box |Re z|, |Im z| < rho a pass of
    ``_UNROLL`` orbit steps provably stays in the disc, or 0, a box that
    holds no point, when none of ``_HALVINGS`` does.

    Let L = len(clist), m_k = |c_k| and g(r) = r * sum m_k r^(L-1-k), the
    Horner scheme on the moduli, increasing in r.  While |z| <= 1 and
    sum m_k <= 2^1000, every partial sum of the scheme stays below 2^1001,
    so nothing overflows, and Horner's rounding bound (Higham, Accuracy and
    Stability of Numerical Algorithms, sections 3.6 and 5.1; a complex
    product errs by at most sqrt(2) gamma_2 relatively) gives
    |fl f(z)| <= (1 + gamma_{4L}) g(|z|) + (L + 1) 2^-1071, the last term
    the absolute error of underflow, which products by |z| <= 1 cannot
    grow.  G(r) = (1 + s) g(r) + (L + 1) 2^-1068, evaluated in floats with
    s = ``_SLACK``, bounds that from above for every L up to
    ``_CERTIFIED_LENGTH``, the rounding of the moduli and of G's own
    evaluation included, and is increasing.

    A point of the box has modulus below sqrt(2) rho <= R_0 = 1.5 rho (a
    normal float, as top is at least 2^-900).  If R_n = G(R_{n-1}) stays at
    most B = top (1 - s) for n = 1 .. ``_UNROLL``, then by induction the
    n-th iterate has modulus at most R_n <= B <= 1: it is finite,
    ``lo <= z <= radius`` holds, and ``abs(z) <= radius`` neither rounds
    past the radius nor raises.  Each disc test of the pass would pass, so
    the pass may skip them and still end at the same point.
    """
    mods = [_modulus(c) for c in clist]
    # a radius that is nan or not positive fails the first test
    top = min(radius, _CERTIFIED_CAP)
    if not (top >= 2.0 ** -900 and len(mods) <= _CERTIFIED_LENGTH
            and sum(mods) <= 2.0 ** 1000):
        return 0.0
    bound = top * (1 - _SLACK)
    underflow = (len(mods) + 1) * 2.0 ** -1068
    rho = top / 2
    for _ in range(_HALVINGS):
        r = 1.5 * rho
        for _ in range(_UNROLL):
            acc = 0.0
            for m in mods:
                acc = acc * r + m
            r = (1 + _SLACK) * (acc * r) + underflow
            if not r <= bound:
                break
        else:
            return rho
        rho /= 2
    return 0.0


def _advance(coeffs: Sequence[complex], z: complex, steps: int,
             radius: float) -> complex:
    """The orbit point ``steps`` iterates after z, or nan once it leaves the
    disc of the given radius.

    A real germ at a real point with a finite radius iterates on Python
    floats: with zero imaginary parts, complex ``*``, ``+`` and ``abs`` do the
    same IEEE operations on the real parts, so the real part of every
    iterate is the one complex arithmetic gives; only the sign of a zero
    imaginary part can differ.  Passes that start in the box of
    ``_certified_box`` skip their disc tests, which could not fail.
    """
    # a float or numpy scalar from the caller becomes a Python complex
    z = complex(z)
    clist = _horner_coefficients(coeffs, radius)
    real = (math.isfinite(radius) and z.imag == 0
            and all(c.imag == 0 for c in clist))
    if real:
        z = z.real
        clist = [c.real for c in clist]
    orbit = _orbit_kernel(len(clist), real)
    return complex(orbit(z, steps, -radius, radius,
                         _certified_box(clist, radius), *clist))


# Values of the trajectory block a census decides at once (steps times live
# orbits), so its memory stays bounded whatever the grid.
_CENSUS_BLOCK_VALUES = 1 << 12


def _census_kernel(coeffs: Sequence[complex], zs: np.ndarray, radius: float,
                   max_iter: int, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per start point: status (0 undecided, 1 periodic, 2 escaping,
    3 finite) and the step that decided it.

    Only the live orbits are kept, compacted: their indices, start points
    and current points.  They are advanced through a block of steps into
    one trajectory array, and the block is decided at once: the first step
    at which each orbit escapes, comes back or collides ends it.  Orbits
    that end are dropped at the block's end.  Blocks start at one step and
    double, so orbits that end at once cost no more than a step each, up
    to ``_CENSUS_BLOCK_VALUES`` values per block.
    """
    import numpy as np

    status = np.zeros(zs.shape[0], dtype=np.int8)
    period = np.zeros(zs.shape[0], dtype=np.int64)
    clist = _horner_coefficients(coeffs, radius)
    lead, rest = clist[0], clist[1:]
    idx = np.arange(zs.shape[0])
    z0 = z = zs
    k = block = 0
    while idx.shape[0] and k < max_iter:
        block = max(1, min(2 * block, _CENSUS_BLOCK_VALUES // idx.shape[0],
                           max_iter - k))
        traj = np.empty((block + 1, idx.shape[0]), dtype=np.complex128)
        traj[0] = z
        for j in range(block):
            zj = traj[j]
            acc = lead
            for c in rest:
                acc = acc * zj + c
            np.multiply(acc, zj, out=traj[j + 1])
        new = traj[1:]
        escaped = ~(np.abs(new) <= radius)
        came_back = np.abs(new - z0) < tol
        collided = np.abs(new - traj[:-1]) < tol
        done = escaped | came_back | collided
        ended = done.any(axis=0)
        z = traj[block]
        if ended.any():
            cols = np.flatnonzero(ended)
            rows = done[:, cols].argmax(axis=0)
            # an orbit that both escapes and returns counts as escaping, one
            # that returns and collides as periodic
            status[idx[cols]] = np.where(
                escaped[rows, cols], 2,
                np.where(came_back[rows, cols], 1, 3))
            period[idx[cols]] = k + 1 + rows
            keep = ~ended
            idx, z0, z = idx[keep], z0[keep], z[keep]
        k += block
    return status, period


# --------------------------------------------------------------------------
# germs
# --------------------------------------------------------------------------
def _modulus(z: complex) -> float:
    """abs(z), or inf where it passes the doubles and abs raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _horner(coeffs: Sequence[complex], z):
    """f(z) for the germ with coefficients of z, z^2, ...; z a number or a
    numpy array."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc * z


class NumericGerm:
    """Polynomial germ fixing 0, stored as a tuple of complex coefficients
    of z, z^2, ... together with an evaluation radius."""

    __slots__ = ("coeffs", "radius")

    def __init__(self, coefficients: Sequence[complex],
                 radius: Optional[float] = None):
        self.coeffs = tuple(map(complex, coefficients))
        if not self.coeffs:
            raise ZeroInput("germ needs at least the degree-1 coefficient")
        if radius is None:
            bound = 0.0
            for k, c in enumerate(self.coeffs[1:], 1):
                mag = _modulus(c)
                if mag > 0:
                    bound = max(bound, mag ** (1.0 / k))
            radius = math.inf if bound == 0 else 0.5 / bound
        self.radius = float(radius)

    def evaluate(self, z):
        return _horner(self.coeffs, z)

    def is_tangent_to_identity(self) -> bool:
        return _modulus(self.coeffs[0] - 1.0) <= _COEFF_TOL

    def leading_nonlinear(self) -> Tuple[complex, int]:
        """(a, p) with f(z) = z + a z^{p+1} + ...; a the first nonlinear
        coefficient above the tolerance."""
        for k, c in enumerate(self.coeffs[1:], 1):
            if _modulus(c) > _COEFF_TOL:
                return c, k
        raise ZeroLeadingCoefficient(
            "no nonlinear term above tolerance", degree=len(self.coeffs))

    def to_json(self) -> dict:
        return {
            "coefficients": [[c.real, c.imag] for c in self.coeffs],
            "radius": self.radius,
        }

    def __repr__(self) -> str:
        return "NumericGerm(%d coefficients, radius=%g)" % (
            len(self.coeffs), self.radius)


# --------------------------------------------------------------------------
# directions
# --------------------------------------------------------------------------
def _directions(a: complex, p: int, turn: float) -> List[complex]:
    """The p unit vectors v with a v^p on the ray at angle ``turn``."""
    if p < 1 or int(p) != p:
        raise ZeroInput("direction count p must be a positive integer")
    a = complex(a)
    if a == 0:
        raise ZeroLeadingCoefficient("leading nonlinear coefficient is zero")
    base = (turn - cmath.phase(a)) / p
    return [cmath.exp(1j * (base + 2 * math.pi * k / p)) for k in range(p)]


def attracting_directions(a: complex, p: int) -> List[complex]:
    """The p unit vectors v with a v^p negative real (initial-velocity
    directions along which orbits approach the fixed point)."""
    return _directions(a, p, math.pi)


def repelling_directions(a: complex, p: int) -> List[complex]:
    """The p unit vectors v with a v^p positive real."""
    return _directions(a, p, 0.0)


# --------------------------------------------------------------------------
# the p >= 2 reduction
# --------------------------------------------------------------------------
# The most petals fatou_coordinate takes, checked before any series work.
# The reduction grows about as p^4: with every coefficient through degree
# 4p+1 nonzero it takes 0.2 s at p = 12, 0.5 s at 16, 1.2 s at 20.
MAX_PETALS = 20


def _series_compose(f: Sequence[complex], g: Sequence[complex],
                    order: int) -> List[complex]:
    """Coefficients (z^1..z^order) of f(g(z)) for series fixing 0, given
    as plain complex lists, f with at most ``order`` entries."""
    terms = [(j, c) for j, c in enumerate(g[:order]) if c != 0]
    out = [0j] * order
    power = [0j] * order  # g^(k+1), zero below index k
    for j, c in terms:
        power[j] = c
    for k, fk in enumerate(f):
        if k:
            nxt = [0j] * order
            for i in range(k - 1, order - 1):
                ci = power[i]
                if ci == 0:
                    continue
                for j, c in terms:
                    if i + j + 1 >= order:
                        break
                    nxt[i + j + 1] += ci * c
            power = nxt
        if fk != 0:
            for i in range(k, order):
                out[i] += fk * power[i]
    return out


def _reduce_to_single_petal(coeffs: Sequence[complex], a: complex, p: int
                            ) -> Tuple[List[complex], List[complex]]:
    """Return (G, hinv): G a p = 1 germ in Z = hinv(z)^p with the same
    translation coordinate, hinv the normalizing polynomial (z^1.. coeffs).

    Steps z + t z^{m+1}, m = 1 .. 3p, kill every coefficient of degree
    p+2 .. 4p+1 except the invariant one at 2p+1; a step adds exactly
    (p - m) a t to the z^{p+m+1} coefficient and leaves the lower ones
    alone.  After that the push-forward through z -> z^p is the exact
    polynomial Z (1 + a Z + c Z^2)^p.
    """
    order = 4 * p + 2
    cur = [complex(c) for c in coeffs[:order]]
    cur += [0j] * (order - len(cur))
    hinv = [1 + 0j] + [0j] * (order - 1)
    for m in range(1, 3 * p + 1):
        target = p + m  # index of z^{p+1+m}
        if m == p or cur[target] == 0:
            continue
        t = -cur[target] / ((p - m) * a)
        # the inverse of the step, by Lagrange inversion: (-t)^k times the
        # Fuss-Catalan number C((m+1)k, k) / (km+1) at z^{km+1}; the powers
        # by multiplication, as complex ** raises OverflowError on overflow
        inverse = [0j] * order
        power = 1 + 0j
        for k in range((order - 1) // m + 1):
            inverse[k * m] = power * (math.comb((m + 1) * k, k) // (k * m + 1))
            power *= -t
        cur = _series_compose(_series_compose(inverse, cur, order),
                              [1 + 0j] + [0j] * (m - 1) + [t], order)
        hinv = _series_compose(inverse, hinv, order)

    # G(Z) = Z (1 + a Z + c Z^2)^p, an exact polynomial of degree 2p+1 in Z
    c = cur[2 * p]
    poly = [1 + 0j]
    for _ in range(p):
        poly = [x + a * y + c * w for x, y, w in zip(
            poly + [0j, 0j], [0j] + poly + [0j], [0j, 0j] + poly)]
    return poly, hinv


def _infinity_chart_data(gcoeffs: Sequence[complex]
                         ) -> Tuple[complex, complex, complex, complex]:
    """(a', e1, e2, e3) for a p = 1 germ G(Z) = Z + a' Z^2 + ...

    In w = -1/(a' Z) the germ reads w + 1 + e1/w + e2/w^2 + e3/w^3 + ...;
    the e_j come from the reciprocal of 1 + (G_2) Z + (G_3) Z^2 + ...  The
    powers of a' are products, which overflow to inf where ``**`` raises.
    """
    c = list(gcoeffs[:5]) + [0j] * (5 - len(gcoeffs[:5]))
    a = c[1]
    r = [1 + 0j]
    for m in range(1, 5):
        total = 0j
        for i in range(1, m + 1):
            total += c[i] * r[m - i]
        r.append(-total)
    a2 = a * a
    return a, r[2] / a2, -r[3] / (a2 * a), r[4] / (a2 * a2)


def _phi_correction(e1: complex, e2: complex, e3: complex
                    ) -> Tuple[complex, complex]:
    """Coefficients (d1, d2) of the 1/w and 1/w^2 corrections in the
    translation-coordinate expansion phi(w) = w - e1 log w + d1/w + d2/w^2."""
    beta = -e1
    d1 = e2 + beta * (e1 - 0.5)
    d2 = (e3 + beta * (e2 - e1 + 1.0 / 3.0) + d1 * (1.0 - e1)) / 2.0
    return d1, d2


# --------------------------------------------------------------------------
# translation coordinate
# --------------------------------------------------------------------------
class FatouEstimate:
    """Numerical value of the translation coordinate at a query point."""

    __slots__ = ("value", "n_max", "b", "cauchy_increment", "p", "a",
                 "query", "petal_steps", "residual")

    def __init__(self, value, n_max, b, cauchy_increment, p, a, query,
                 petal_steps, residual=None):
        self.value = value
        self.n_max = n_max
        self.b = b
        self.cauchy_increment = cauchy_increment
        self.p = p
        self.a = a
        self.query = query
        self.petal_steps = petal_steps
        self.residual = residual

    def to_json(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "n_max": self.n_max,
            "b": [self.b.real, self.b.imag],
            "cauchy_increment": self.cauchy_increment,
            "p": self.p,
            "a": [self.a.real, self.a.imag],
            "query": [self.query.real, self.query.imag],
            "petal_steps": self.petal_steps,
            "residual": self.residual,
        }

    def __repr__(self) -> str:
        return "FatouEstimate(value=%s, n_max=%d, cauchy=%.3g)" % (
            self.value, self.n_max, self.cauchy_increment)


def _inverted(a: complex, z: complex) -> complex:
    """The chart point w = -1/(a z); nan where a z is zero, at the fixed
    point or after an underflow, so that it reads as no growth."""
    az = a * z
    return -1.0 / az if az else complex(math.nan, math.nan)


# The most steps the petal scan takes looking for a run of ``PETAL_RUN``.
PETAL_SCAN = 2000
# The largest n_max fatou_coordinate takes, checked before any work: 10^8
# steps of z + z^2 take about 3 s on 2 shared Xeon cores.  Past about 10^6
# steps the rounding of w ~ n alone exceeds the default ``cauchy_tol``
# (10^7 steps end in slow-convergence, increment 7.6e-7).
MAX_FATOU_STEPS = 10 ** 8


def fatou_coordinate(f: NumericGerm, z: complex, n_max: int = 100000,
                     cauchy_tol: float = 1e-8) -> FatouEstimate:
    """Estimate phi with phi(f(z)) = phi(z) + 1 on the attracting petal of z.

    The orbit is advanced n_max steps; the estimate reads the asymptotic
    expansion of phi in the inverted chart at the final point.  Membership
    in a petal is checked operationally: within ``PETAL_SCAN`` steps the
    real part in the inverted chart must grow for ``PETAL_RUN`` consecutive
    steps, so an n_max below twice that run is refused before any work, as
    are an n_max above ``MAX_FATOU_STEPS`` and a ``cauchy_tol`` that is not
    positive and finite.  A germ with more than ``MAX_PETALS`` petals is
    refused before its reduction.
    """
    if n_max < 2 * PETAL_RUN:
        raise TruncationTooSmall("iteration budget too small for the petal scan",
                                 n_max=n_max, minimum=2 * PETAL_RUN)
    if n_max > MAX_FATOU_STEPS:
        raise RequestTooLarge("the translation coordinate asks for too many "
                              "orbit steps", n_max=n_max,
                              limit=MAX_FATOU_STEPS)
    if not (cauchy_tol > 0 and math.isfinite(cauchy_tol)):
        raise ZeroInput("the Cauchy tolerance must be a positive finite number")
    if not f.is_tangent_to_identity():
        raise ZeroInput("translation coordinate requires a germ tangent "
                        "to the identity")
    a, p = f.leading_nonlinear()
    if p > MAX_PETALS:
        raise RequestTooLarge("more petals than the reduction takes",
                              petals=p, limit=MAX_PETALS)
    z = complex(z)
    if z == 0:
        raise NotInPetal("the fixed point itself lies in no petal")

    # overflow and invalid operations yield inf or nan; the explicit
    # finiteness checks below decide the outcome
    if p == 1:
        gcoeffs, z_start, radius_g = f.coeffs, z, f.radius
    else:
        gcoeffs, hinv = _reduce_to_single_petal(f.coeffs, a, p)
        z_start = power(_horner(hinv, z), p, 1 + 0j)
        radius_g = (1.5 * f.radius) ** p

    a_eff, e1, e2, e3 = _infinity_chart_data(gcoeffs)
    d1, d2 = _phi_correction(e1, e2, e3)

    def phi_at(zval: complex, n: int) -> complex:
        w = _inverted(a_eff, zval)
        return w - e1 * cmath.log(w) + d1 / w + d2 / w / w - n

    # petal scan: require PETAL_RUN consecutive increases of Re(w)
    scan_limit = min(PETAL_SCAN, n_max // 2)
    zc = z_start
    prev_re = _inverted(a_eff, zc).real
    run = 0
    for steps_done in range(1, scan_limit + 1):
        zc = _horner(gcoeffs, zc)
        if not (_modulus(zc) <= radius_g) or zc != zc:
            raise NotInPetal("orbit left the evaluation disc",
                             step=steps_done, query=[z.real, z.imag])
        w_re = _inverted(a_eff, zc).real
        run = run + 1 if w_re > prev_re else 0
        prev_re = w_re
        if run >= PETAL_RUN:
            break
    else:
        raise NotInPetal("no sustained growth in the inverted chart",
                         scanned=steps_done, query=[z.real, z.imag])

    n_half = n_max // 2
    z_half = _advance(gcoeffs, zc, n_half - steps_done, radius_g)
    z_final = _advance(gcoeffs, z_half, n_max - n_half, radius_g)
    if z_half != z_half or z_final != z_final:
        raise NotInPetal("orbit left the evaluation disc during refinement",
                         query=[z.real, z.imag])
    phi_half = phi_at(z_half, n_half)
    phi_full = phi_at(z_final, n_max)
    increment = abs(phi_full - phi_half)
    if not all(map(cmath.isfinite, (e1, phi_half, phi_full, increment))):
        raise FloatOverflow("the estimate left the finite doubles",
                            query=[z.real, z.imag])
    if increment > cauchy_tol:
        raise SlowConvergence(
            "estimate not Cauchy at the requested tolerance",
            increment=increment, tolerance=cauchy_tol, n_max=n_max)
    return FatouEstimate(phi_full, n_max, e1, increment, p, a, z, steps_done)


def abel_residual(f: NumericGerm, phi: Callable[[complex], complex],
                  samples: Sequence[complex]) -> float:
    """max |phi(f(z)) - phi(z) - 1| over the samples."""
    worst = 0.0
    for s in samples:
        s = complex(s)
        r = abs(phi(f.evaluate(s)) - phi(s) - 1.0)
        worst = max(worst, r)
    return worst


def petal_points(f: NumericGerm, count: int, scale: float = 0.1,
                 petal: int = 0) -> List[complex]:
    """Deterministic sample points along an attracting direction, spaced
    between scale/count and scale."""
    a, p = f.leading_nonlinear()
    v = attracting_directions(a, p)[petal % p]
    return [v * scale * (k + 1) / count for k in range(count)]


# --------------------------------------------------------------------------
# orbit census
# --------------------------------------------------------------------------
# The most grid points a census samples, checked before the grid is built.
MAX_CENSUS_POINTS = 1 << 20
# The most grid points times steps, grid^2 * max_iter, a census may ask for,
# checked next.  An irrational rotation, whose orbits all run to max_iter,
# advances about 9e7 of them per second on 2 shared cores (grid 20, 10^6
# steps: 4.5 s, the defaults of the command line), so the largest census
# accepted takes about 11 s.
MAX_CENSUS_STEPS = 10 ** 9


def orbit_census(h: NumericGerm, radius: float, max_iter: int = 1000000,
                 grid: int = 20, tol: float = 1e-9) -> dict:
    """Classify forward orbits on a square grid inside the disc of the given
    radius: escaping (leaves the disc), periodic (returns to the start
    within tol), finite (collides with its previous point within tol,
    i.e. the orbit closure is numerically a finite set), else undecided.

    A radius that is not positive, a grid below 3 (whose even rounding, 2,
    keeps no point inside the disc), a ``tol`` that is not a positive
    finite number, a grid of more than ``MAX_CENSUS_POINTS`` points and
    more than ``MAX_CENSUS_STEPS`` grid points times ``max_iter`` are
    refused before any array is built.
    """
    import numpy as np

    if radius <= 0:
        raise ZeroInput("census radius must be positive")
    if grid < 3:
        raise ZeroInput("census grid needs at least 3 points per axis",
                        grid=grid)
    if not (tol > 0 and math.isfinite(tol)):
        raise ZeroInput("census tolerance must be a positive finite number")
    if radius > h.radius:
        raise ZeroInput("census radius exceeds the germ's evaluation radius",
                        radius=radius, evaluation_radius=h.radius)
    if grid % 2:
        grid += 1  # even grid keeps the fixed point off the sample set
    if grid * grid > MAX_CENSUS_POINTS:
        raise GridTooLarge("the census grid has too many points",
                           grid=grid, points=grid * grid,
                           limit=MAX_CENSUS_POINTS)
    if grid * grid * max_iter > MAX_CENSUS_STEPS:
        raise RequestTooLarge("the census asks for too many orbit steps",
                              grid=grid, max_iter=max_iter,
                              steps=grid * grid * max_iter,
                              limit=MAX_CENSUS_STEPS)
    # scaling the unit grid, unlike linspace(-radius, radius), never forms
    # the difference 2 * radius, which overflows for radius near the top
    # of the doubles
    xs = radius * np.linspace(-1.0, 1.0, grid)
    if not np.isfinite(xs).all():
        # only a caller passing a non-finite radius gets here
        raise FloatOverflow("the census grid left the finite doubles")
    re, im = np.meshgrid(xs, xs)
    pts = (re + 1j * im).ravel()
    # an orbit that overflows becomes inf or nan and counts as escaping, as
    # the kernel's own comparison with the radius decides
    with np.errstate(all="ignore"):
        pts = pts[np.abs(pts) <= radius]
        status, period = _census_kernel(
            h.coeffs, pts.astype(np.complex128), radius, int(max_iter), tol)
    hist: Dict[int, int] = {}
    for s, k in zip(status, period):
        if s == 1:
            hist[int(k)] = hist.get(int(k), 0) + 1
    return {
        "total": int(status.shape[0]),
        "escaping": int((status == 2).sum()),
        "periodic": int((status == 1).sum()),
        "finite": int((status == 3).sum()),
        "undecided": int((status == 0).sum()),
        "period_histogram": {str(k): v for k, v in sorted(hist.items())},
        "max_iter": int(max_iter),
        "tolerance": tol,
    }
