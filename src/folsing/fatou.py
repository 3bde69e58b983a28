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
leading nonlinear coefficient p*a.  The reduction is exact through degree
4p+1; accuracy therefore degrades as the base point approaches the edge of
the convergence disc.

Orbit kernels.  A real germ at a real point iterates in float arithmetic:
with zero imaginary parts complex arithmetic does the same IEEE operations
on the real parts, so every iterate is bit-identical in its real part to
the complex one.  The census advances only the orbits still undecided and
does its bookkeeping only on a step where one of them ends.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    FloatOverflow,
    NotInPetal,
    SlowConvergence,
    ZeroInput,
    ZeroLeadingCoefficient,
)

# numpy is imported inside the functions that compute with it, so importing
# the package (and every exact command) does not pay for it.
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


def _advance(coeffs: Sequence[complex], z: complex, steps: int,
             radius: float) -> complex:
    """The orbit point ``steps`` iterates after z, or nan once it leaves the
    disc of the given radius.

    A real germ at a real point with a finite radius iterates on Python
    floats: with zero imaginary parts, complex ``*``, ``+`` and ``abs`` do the
    same IEEE operations on the real parts, so the real part of every
    iterate is the one complex arithmetic gives; only the sign of a zero
    imaginary part can differ.
    """
    # plain Python numbers: the caller may hand over a numpy complex
    # scalar, with which this loop runs markedly slower
    z = complex(z)
    clist = _horner_coefficients(coeffs, radius)
    if (math.isfinite(radius) and z.imag == 0
            and all(c.imag == 0 for c in clist)):
        z = z.real
        clist = [c.real for c in clist]
    lead, rest = clist[0], clist[1:]
    for _ in range(steps):
        acc = lead
        for c in rest:
            acc = acc * z + c
        z = acc * z
        if not (abs(z) <= radius):
            return complex("nan")
    return complex(z)


def _census_kernel(coeffs: np.ndarray, zs: np.ndarray, radius: float,
                   max_iter: int, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per start point: status (0 undecided, 1 periodic, 2 escaping,
    3 finite) and the step that decided it.

    Only the live orbits are kept, compacted: their indices, start points
    and current points.  Status and period are written, and the arrays
    compacted, only on a step where some orbit ends.
    """
    import numpy as np

    status = np.zeros(zs.shape[0], dtype=np.int8)
    period = np.zeros(zs.shape[0], dtype=np.int64)
    clist = _horner_coefficients(coeffs, radius)
    lead, rest = clist[0], clist[1:]
    idx = np.arange(zs.shape[0])
    z0 = z = zs
    for k in range(1, max_iter + 1):
        if idx.shape[0] == 0:
            break
        acc = lead
        for c in rest:
            acc = acc * z + c
        znew = acc * z
        escaped = ~(np.abs(znew) <= radius)
        came_back = np.abs(znew - z0) < tol
        collided = np.abs(znew - z) < tol
        done = escaped | came_back | collided
        if done.any():
            # an orbit that both escapes and returns counts as escaping, one
            # that returns and collides as periodic
            ended = idx[done]
            code = np.where(escaped, 2, np.where(came_back, 1, 3))
            status[ended] = code[done]
            period[ended] = k
            keep = ~done
            idx, z0, znew = idx[keep], z0[keep], znew[keep]
        z = znew
    return status, period


# --------------------------------------------------------------------------
# germs
# --------------------------------------------------------------------------
class NumericGerm:
    """Polynomial germ fixing 0, stored as complex-double coefficients of
    z, z^2, ... together with an evaluation radius."""

    __slots__ = ("coeffs", "radius")

    def __init__(self, coefficients: Sequence[complex],
                 radius: Optional[float] = None):
        import numpy as np

        arr = np.asarray(list(coefficients), dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise ZeroInput("germ needs at least the degree-1 coefficient")
        self.coeffs = arr
        if radius is None:
            bound = 0.0
            for k in range(1, arr.shape[0]):
                mag = abs(arr[k])
                if mag > 0:
                    bound = max(bound, mag ** (1.0 / k))
            radius = math.inf if bound == 0 else 0.5 / bound
        self.radius = float(radius)

    def evaluate(self, z):
        import numpy as np

        acc = np.zeros_like(np.asarray(z, dtype=np.complex128))
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        out = acc * z
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def is_tangent_to_identity(self) -> bool:
        return abs(self.coeffs[0] - 1.0) <= _COEFF_TOL

    def leading_nonlinear(self) -> Tuple[complex, int]:
        """(a, p) with f(z) = z + a z^{p+1} + ...; a the first nonlinear
        coefficient above the tolerance."""
        for k in range(1, self.coeffs.shape[0]):
            if abs(self.coeffs[k]) > _COEFF_TOL:
                return complex(self.coeffs[k]), k
        raise ZeroLeadingCoefficient(
            "no nonlinear term above tolerance", degree=self.coeffs.shape[0])

    def to_json(self) -> dict:
        return {
            "coefficients": [[c.real, c.imag] for c in self.coeffs],
            "radius": self.radius,
        }

    def __repr__(self) -> str:
        return "NumericGerm(%d coefficients, radius=%g)" % (
            self.coeffs.shape[0], self.radius)


# --------------------------------------------------------------------------
# directions
# --------------------------------------------------------------------------
def attracting_directions(a: complex, p: int) -> np.ndarray:
    """The p unit vectors v with a v^p negative real (initial-velocity
    directions along which orbits approach the fixed point)."""
    import numpy as np

    if p < 1 or int(p) != p:
        raise ZeroInput("direction count p must be a positive integer")
    a = complex(a)
    if a == 0:
        raise ZeroLeadingCoefficient("leading nonlinear coefficient is zero")
    base = (math.pi - cmath.phase(a)) / p
    return np.array(
        [cmath.exp(1j * (base + 2 * math.pi * k / p)) for k in range(p)],
        dtype=np.complex128)


def repelling_directions(a: complex, p: int) -> np.ndarray:
    """The p unit vectors v with a v^p positive real."""
    import numpy as np

    if p < 1 or int(p) != p:
        raise ZeroInput("direction count p must be a positive integer")
    a = complex(a)
    if a == 0:
        raise ZeroLeadingCoefficient("leading nonlinear coefficient is zero")
    base = -cmath.phase(a) / p
    return np.array(
        [cmath.exp(1j * (base + 2 * math.pi * k / p)) for k in range(p)],
        dtype=np.complex128)


# --------------------------------------------------------------------------
# series utilities for the p >= 2 reduction
# --------------------------------------------------------------------------
def _series_compose(f: np.ndarray, g: np.ndarray, order: int) -> np.ndarray:
    """Coefficients (z^1..z^order) of f(g(z)) for series fixing 0."""
    import numpy as np

    out = np.zeros(order, dtype=np.complex128)
    current = None
    for k in range(f.shape[0]):
        if k >= order:
            break
        if current is None:
            current = np.zeros(order, dtype=np.complex128)
            current[:min(order, g.shape[0])] = g[:order]
        else:
            nxt = np.zeros(order, dtype=np.complex128)
            for i in range(order):
                if current[i] == 0:
                    continue
                for j in range(min(g.shape[0], order - i - 1)):
                    nxt[i + j + 1] += current[i] * g[j]
            current = nxt
        out += f[k] * current
    return out


def _series_inverse(h: np.ndarray, order: int) -> np.ndarray:
    """Compositional inverse of a series h(z) = z + ..., to z^order."""
    import numpy as np

    if abs(h[0] - 1.0) > _COEFF_TOL:
        raise ZeroInput("series inverse requires unit linear coefficient")
    inv = np.zeros(order, dtype=np.complex128)
    inv[0] = 1.0
    for k in range(2, order + 1):
        comp = _series_compose(h[:order], inv, order)
        inv[k - 1] -= comp[k - 1]
    return inv


def _reduce_to_single_petal(coeffs: np.ndarray, a: complex, p: int
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Return (G, hinv): G a p = 1 germ in Z = hinv(z)^p with the same
    translation coordinate, hinv the normalizing polynomial (z^1.. coeffs).

    A polynomial conjugacy kills every coefficient of degree p+2 .. 3p+1
    except the invariant one at 2p+1; after that the push-forward through
    z -> z^p is the exact polynomial Z (1 + a Z + c Z^2)^p.
    """
    import numpy as np

    order = 4 * p + 2
    cur = np.zeros(order, dtype=np.complex128)
    cur[:min(order, coeffs.shape[0])] = coeffs[:order]
    h_acc = np.zeros(order, dtype=np.complex128)
    h_acc[0] = 1.0

    for m in range(1, 3 * p + 1):
        if m == p:
            continue
        target = p + m  # index of z^{p+1+m}
        if target >= order:
            break
        if cur[target] == 0:
            continue
        base = cur[target]
        probe = np.zeros(order, dtype=np.complex128)
        probe[0] = 1.0
        probe[m] = 1.0
        conj = _series_compose(
            _series_compose(_series_inverse(probe, order), cur, order),
            probe, order)
        slope = conj[target] - base
        if abs(slope) < _COEFF_TOL:
            raise ZeroInput("degenerate normalization step")
        t = -base / slope
        step = np.zeros(order, dtype=np.complex128)
        step[0] = 1.0
        step[m] = t
        cur = _series_compose(
            _series_compose(_series_inverse(step, order), cur, order),
            step, order)
        h_acc = _series_compose(h_acc, step, order)

    c_inv = cur[2 * p] if 2 * p < order else 0.0
    # G(Z) = Z (1 + a Z + c Z^2)^p, an exact polynomial of degree 2p+1 in Z
    poly = np.zeros(2 * p + 1, dtype=np.complex128)
    base3 = np.zeros(3, dtype=np.complex128)
    base3[0], base3[1], base3[2] = 1.0, a, c_inv
    acc = np.zeros(1, dtype=np.complex128)
    acc[0] = 1.0
    for _ in range(p):
        acc = np.convolve(acc, base3)
    poly[:acc.shape[0]] = acc[:2 * p + 1]
    hinv = _series_inverse(h_acc, order)
    return poly, hinv


def _infinity_chart_data(gcoeffs: np.ndarray) -> Tuple[complex, complex, complex, complex]:
    """(a', e1, e2, e3) for a p = 1 germ G(Z) = Z + a' Z^2 + ...

    In w = -1/(a' Z) the germ reads w + 1 + e1/w + e2/w^2 + e3/w^3 + ...;
    the e_j come from the reciprocal of 1 + (G_2) Z + (G_3) Z^2 + ...
    """
    import numpy as np

    c = np.zeros(5, dtype=np.complex128)
    c[:min(5, gcoeffs.shape[0])] = gcoeffs[:5]
    a = c[1]
    r = np.zeros(5, dtype=np.complex128)
    r[0] = 1.0
    for m in range(1, 5):
        total = 0j
        for i in range(1, m + 1):
            total += c[i] * r[m - i]
        r[m] = -total
    e1 = r[2] / a ** 2
    e2 = -r[3] / a ** 3
    e3 = r[4] / a ** 4
    return a, e1, e2, e3


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


def _eval_poly_germ(coeffs: np.ndarray, z: complex) -> complex:
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc * z


def fatou_coordinate(f: NumericGerm, z: complex, n_max: int = 100000,
                     cauchy_tol: float = 1e-8,
                     petal_scan: int = 2000) -> FatouEstimate:
    """Estimate phi with phi(f(z)) = phi(z) + 1 on the attracting petal of z.

    The orbit is advanced n_max steps; the estimate reads the asymptotic
    expansion of phi in the inverted chart at the final point.  Membership
    in a petal is checked operationally: the real part in the inverted
    chart must grow for 50 consecutive steps early in the orbit.
    """
    import numpy as np

    if not f.is_tangent_to_identity():
        raise ZeroInput("translation coordinate requires a germ tangent "
                        "to the identity")
    a, p = f.leading_nonlinear()
    z = complex(z)
    if z == 0:
        raise NotInPetal("the fixed point itself lies in no petal")

    # overflow and invalid operations yield inf or nan; the explicit
    # finiteness checks below decide the outcome, so numpy stays silent
    with np.errstate(all="ignore"):
        if p == 1:
            gcoeffs = f.coeffs
            z_start = z
            radius_g = f.radius
        else:
            gcoeffs, hinv = _reduce_to_single_petal(f.coeffs, a, p)
            z_start = _eval_poly_germ(hinv, z) ** p
            radius_g = (1.5 * f.radius) ** p

        a_eff, e1, e2, e3 = _infinity_chart_data(gcoeffs)
        d1, d2 = _phi_correction(e1, e2, e3)

        def phi_at(zval: complex, n: int) -> complex:
            w = -1.0 / (a_eff * zval)
            return w - e1 * cmath.log(w) + d1 / w + d2 / w / w - n

        # petal scan: require 50 consecutive increases of Re(w)
        scan_limit = min(petal_scan, max(n_max // 2, 1))
        zc = z_start
        prev_re = (-1.0 / (a_eff * zc)).real
        run = 0
        steps_done = 0
        in_petal = False
        for k in range(1, scan_limit + 1):
            zc = _eval_poly_germ(gcoeffs, zc)
            steps_done = k
            if not (abs(zc) <= radius_g) or zc != zc:
                raise NotInPetal("orbit left the evaluation disc",
                                 step=k, query=[z.real, z.imag])
            w_re = (-1.0 / (a_eff * zc)).real
            run = run + 1 if w_re > prev_re else 0
            prev_re = w_re
            if run >= 50:
                in_petal = True
                break
        if not in_petal:
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
        return FatouEstimate(phi_full, n_max, complex(e1), increment, p,
                             complex(a), z, steps_done)


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
def orbit_census(h: NumericGerm, radius: float, max_iter: int = 1000000,
                 grid: int = 20, tol: float = 1e-9) -> dict:
    """Classify forward orbits on a square grid inside the disc of the given
    radius: escaping (leaves the disc), periodic (returns to the start
    within tol), finite (collides with its previous point within tol,
    i.e. the orbit closure is numerically a finite set), else undecided.
    """
    import numpy as np

    if radius > h.radius:
        raise ZeroInput("census radius exceeds the germ's evaluation radius",
                        radius=radius, evaluation_radius=h.radius)
    if grid % 2:
        grid += 1  # even grid keeps the fixed point off the sample set
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
