"""Factorization of squarefree integer polynomials (Zassenhaus).

Polynomials are ascending lists of Python ints with a nonzero last entry.
``factor_squarefree`` splits a primitive squarefree F in Z[t] into its
irreducible factors over Q:

1. choose a small prime p that does not divide the leading coefficient and
   keeps F squarefree mod p; among the first few such primes, keep the one
   with the fewest modular factors (one factor means F is irreducible);
2. factor F mod p by distinct-degree and then equal-degree splitting
   (Cantor-Zassenhaus, with a fixed-seed generator so runs are
   reproducible);
3. Hensel-lift the modular factors to a modulus past the Mignotte bound;
4. recombine them by trial division over subsets of increasing size.

References: von zur Gathen and Gerhard, *Modern Computer Algebra*,
Algorithms 14.3, 14.8, 15.10 and 15.19.
"""

from __future__ import annotations

import random
from itertools import combinations, count
from math import gcd, isqrt
from typing import List, Optional, Tuple

Poly = List[int]

# good primes compared before settling on the one with fewest modular factors
PRIME_CANDIDATES = 3


# =====================================================================
# Arithmetic in (Z/m)[t]; inputs are reduced mod m and trimmed
# =====================================================================
def _trim(a: Poly) -> Poly:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a: Poly, b: Poly, m: int) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = (out[k] + c) % m
    return _trim(out)


def _sub(a: Poly, b: Poly, m: int) -> Poly:
    out = list(a) + [0] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] = (out[k] - c) % m
    return _trim(out)


def _mul(a: Poly, b: Poly, m: int) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _divmod(a: Poly, b: Poly, m: int) -> Tuple[Poly, Poly]:
    """Quotient and remainder; the leading coefficient of b is a unit mod m."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    r = list(a)
    inv = pow(b[-1], -1, m)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % m
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] = (r[k + j] - c * b[j]) % m
    return q, _trim(r[:db])


def _monic(a: Poly, p: int) -> Poly:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: Poly, b: Poly, p: int) -> Poly:
    """Monic gcd over the field Z/p."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _xgcd(a: Poly, b: Poly, p: int) -> Tuple[Poly, Poly]:
    """(s, t) with s*a + t*b = 1 mod p, deg s < deg b, deg t < deg a, for
    coprime a and b."""
    r0, r1 = a, b
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a: Poly, e: int, f: Poly, p: int) -> Poly:
    """a^e mod f over Z/p."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a, p), f, p)[1]
    return out


# =====================================================================
# Factorization mod p (p odd)
# =====================================================================
def _distinct_degree(f: Poly, p: int) -> List[Tuple[Poly, int]]:
    """[(g, d)]: g is the product of the irreducible factors of degree d of
    the monic squarefree f."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: Poly, d: int, p: int, rng: random.Random) -> List[Poly]:
    """Monic irreducible factors of g, a monic squarefree product of
    irreducible factors of degree d (Cantor-Zassenhaus splitting)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        h = _gcd(g, _sub(_powmod(a, e, g, p), [1], p), p)
        if 0 < len(h) - 1 < n:
            break
    return (_equal_degree(h, d, p, rng)
            + _equal_degree(_divmod(g, h, p)[0], d, p, rng))


def _odd_primes():
    for n in count(3, 2):
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n


def _choose_prime(F: Poly):
    """(r, p, distinct-degree split of F/lc(F) mod p) for the good prime,
    among the first PRIME_CANDIDATES, with the fewest modular factors r."""
    best = None
    tried = 0
    for p in _odd_primes():
        if F[-1] % p == 0:
            continue
        f = _monic([c % p for c in F], p)
        df = _trim([k * c % p for k, c in enumerate(f)][1:])
        if not df or len(_gcd(f, df, p)) > 1:
            continue
        split = _distinct_degree(f, p)
        r = sum((len(g) - 1) // d for g, d in split)
        if best is None or r < best[0]:
            best = (r, p, split)
        tried += 1
        if r == 1 or tried == PRIME_CANDIDATES:
            return best


# =====================================================================
# Hensel lifting and recombination over Z
# =====================================================================
def _hensel_step(m: int, f: Poly, g: Poly, h: Poly, s: Poly, t: Poly):
    """From f = g*h and s*g + t*h = 1 mod m (h monic, deg s < deg h,
    deg t < deg g) to the same relations mod m^2."""
    M = m * m
    e = _sub([c % M for c in f], _mul(g, h, M), M)
    q, r = _divmod(_mul(s, e, M), h, M)
    g = _add(g, _add(_mul(t, e, M), _mul(q, g, M), M), M)
    h = _add(h, r, M)
    b = _sub(_add(_mul(s, g, M), _mul(t, h, M), M), [1], M)
    c, d = _divmod(_mul(s, b, M), h, M)
    s = _sub(s, d, M)
    t = _sub(t, _add(_mul(t, b, M), _mul(c, g, M), M), M)
    return M, g, h, s, t


def _lift(F: Poly, factors: List[Poly], p: int, M: int) -> List[Poly]:
    """Lift the monic factorization F = lc(F) * prod(factors) mod p to the
    modulus M, a power p^(2^k): split the factors in two halves, lift that
    two-factor split, and recurse into each half."""
    if len(factors) == 1:
        inv = pow(F[-1], -1, M)
        return [[c * inv % M for c in F]]
    half = len(factors) // 2
    g = [F[-1] % p]
    for other in factors[:half]:
        g = _mul(g, other, p)
    h = [1]
    for other in factors[half:]:
        h = _mul(h, other, p)
    s, t = _xgcd(g, h, p)
    m = p
    while m < M:
        m, g, h, s, t = _hensel_step(m, F, g, h, s, t)
    return _lift(g, factors[:half], p, M) + _lift(h, factors[half:], p, M)


def _symmetric(a: Poly, m: int) -> Poly:
    half = m // 2
    return [c - m if c > half else c for c in a]


def _primitive(a: Poly) -> Poly:
    """Divide by the content, with the sign that makes the leading
    coefficient positive."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _divide_exact(a: Poly, b: Poly) -> Optional[Poly]:
    """a / b in Z[t], or None when b does not divide a over Z."""
    db = len(b) - 1
    if len(a) <= db:
        return None
    r = list(a)
    q = [0] * (len(a) - db)
    lead = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + db], lead)
        if rem:
            return None
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    if any(r[:db]):
        return None
    return q


def _recombine(F: Poly, lifted: List[Poly], M: int) -> List[Poly]:
    """The factors of F over Z whose lc(F) multiples reduce mod M to lc(F)
    times a product of lifted factors, found over subsets of increasing
    size; what is left when no subset of at most half of them divides is
    irreducible."""
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            b = F[-1]
            g = [b]
            for i in subset:
                g = _mul(g, lifted[i], M)
            g = _symmetric(g, M)
            q = _divide_exact([b * c for c in F], g)
            if q is not None:
                factors.append(_primitive(g))
                F = _primitive(q)
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    factors.append(F)
    return factors


def factor_squarefree(F: Poly) -> List[Poly]:
    """Irreducible factors in Z[t] of a primitive squarefree F with positive
    leading coefficient; each factor is primitive with positive leading
    coefficient, and their product is F."""
    n = len(F) - 1
    if n <= 1:
        return [F]
    r, p, split = _choose_prime(F)
    if r == 1:
        return [F]
    rng = random.Random(0)
    modular = []
    for g, d in split:
        modular.extend(_equal_degree(g, d, p, rng))
    # a factor G of F satisfies |G|_inf <= 2^deg(G) |F|_2 (Mignotte); the
    # candidates lc(F)/lc(G) * G must sit inside (-M/2, M/2)
    bound = 2 * F[-1] * 2 ** n * (isqrt(sum(c * c for c in F)) + 1)
    M = p
    while M <= bound:
        M *= M
    return _recombine(F, _lift(F, modular, p, M), M)
