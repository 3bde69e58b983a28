"""Seeded job generators for the four benchmark workloads.

A job is a folsing command line (the arguments after ``folsing``) plus the
name of the JSON schema its stdout must satisfy.  The generators never import
folsing: the program receives only the generated expressions.  Every
workload cycles through a fixed sequence of slots (command, order, input
family) and the seed draws the free parameters inside each slot, so the mix
of work is the same on every seed while the inputs differ.
"""

import cmath
import itertools
import random
from math import gcd

CORPUS = "src/folsing/corpus"

# Criterion-04 families: diagonal linear part (eigenvalue pair) plus three
# random degree-2..3 terms per component.
PAIRS = {
    "linearize": [(2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 7)],
    "resonant": [(1, 2), (1, 3), (1, 4)],
    "siegel": [(1, -1), (1, -2), (2, -3), (1, -3), (3, -4), (2, -5)],
    "dulac": [(1, 0)],
}
# One conjugacy round: (command, order).  Costs form three groups of four
# slots: dulac and siegel at low order (~0.05 s), linearize at 6 and siegel
# at 8 (~0.16 s), and resonant and linearize at 7 (~0.26 s), so that p50
# and p90 each fall inside a group rather than between two.  linearize and
# resonant stop at order 7 because their cost doubles with each order.
CONJUGACY_ROUND = [
    ("dulac", 6), ("linearize", 6), ("resonant", 7), ("siegel", 6),
    ("linearize", 7), ("dulac", 8), ("siegel", 8), ("resonant", 7),
    ("linearize", 6), ("dulac", 10), ("linearize", 7), ("linearize", 6),
]
HIGHER_MONOMIALS = [(i, d - i) for d in (2, 3) for i in range(d + 1)]

# The shipped corpus file each corpus command reads.  It is fixed, so that
# every round costs the same; the seed orders the round and draws the
# parameters of the other commands.
CLI_CORPUS = {
    "analyze": "cusp",
    "resolve": "cusp",
    "holonomy": "euler",
    "first-integral": "saddle_2_3",
    "cp2 degree": "jouanolou2",
    "blowup": "hamiltonian_xy",
}

SCHEMAS = {
    "analyze": "analysis",
    "blowup": "blowup",
    "resolve": "resolution",
    "linearize": "conjugacy",
    "normal-form": "conjugacy",
    "holonomy": "holonomy",
    "first-integral": "first_integral",
    "cp2 degree": "cp2_degree",
    "cp2 dimension": "dimension",
    "gen jouanolou": "generated",
    "sectors": "sectors",
    "fatou": "fatou",
    "orbit-census": "census",
    "corpus run": "corpus_report",
}


class Job:
    """One command line and the schema its stdout must satisfy."""

    __slots__ = ("id", "argv", "schema")

    def __init__(self, job_id, argv, schema):
        self.id = job_id
        self.argv = argv
        self.schema = schema

    def key(self):
        return " ".join(self.argv)


def _command(argv):
    words = [a for a in argv[:2] if not a.startswith("-")]
    two = " ".join(words[:2])
    return two if two in SCHEMAS else words[0]


def make_job(job_id, argv):
    return Job(job_id, argv, SCHEMAS[_command(argv)])


# ---------------------------------------------------------------------------
# small exact polynomial helpers (dict {(i, j): int} in x^i y^j)
# ---------------------------------------------------------------------------
def _poly_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _poly_pow(a, n):
    out = {(0, 0): 1}
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def _poly_diff(a, var):
    out = {}
    for (i, j), c in a.items():
        e = (i, j)[var]
        if e:
            key = (i - 1, j) if var == 0 else (i, j - 1)
            out[key] = c * e
    return out


def _render(terms):
    """Render {(i, j): coefficient-text} in the parser's syntax."""
    if not terms:
        return "0"
    parts = []
    for (i, j), c in sorted(terms.items()):
        mono = "*".join(m for m in ((f"x^{i}" if i else ""),
                                    (f"y^{j}" if j else "")) if m)
        parts.append(f"({c})*{mono}" if mono else f"({c})")
    return " + ".join(parts)


def _field(p, q):
    return f"({_render(p)})*ddx + ({_render(q)})*ddy"


def _random_terms(rng, count, rational):
    terms = {}
    for mono in rng.sample(HIGHER_MONOMIALS, count):
        c = rng.choice((-2, -1, 1, 2))
        terms[mono] = f"{c}/3" if rational else str(c)
    return terms


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def conjugacy_jobs(seed):
    rng = random.Random(f"conjugacy:{seed}")
    for n in itertools.count():
        slot, rnd = n % len(CONJUGACY_ROUND), n // len(CONJUGACY_ROUND)
        kind, order = CONJUGACY_ROUND[slot]
        pairs = PAIRS[kind]
        m, k = pairs[(rnd + slot) % len(pairs)]
        rational = (rnd + slot) % 2 == 1
        p = _random_terms(rng, 3, rational)
        q = _random_terms(rng, 3, rational)
        p[(1, 0)] = str(m)
        if kind != "dulac":
            q[(0, 1)] = str(k)
        cmd = ["linearize"] if kind == "linearize" else ["normal-form", kind]
        yield make_job(n, cmd + ["--expr", _field(p, q),
                                 "--order", str(order)])


def _three_lines(a, b, c):
    f = _poly_mul(_poly_mul({(a, 0): 1}, {(0, b): 1}),
                  _poly_pow({(1, 0): 1, (0, 1): -1}, c))
    return _poly_diff(f, 0), _poly_diff(f, 1)


def resolution_jobs(seed):
    # A round of 10: three random germs, the ladder at k = 2, 3 and twice at
    # k = 4 (so p90 falls inside the k = 4 cluster, not at its edge), and
    # three three-line products.
    rng = random.Random(f"resolution:{seed}")
    for n in itertools.count():
        slot, rnd = n % 10, n // 10
        if slot < 3:
            # triangular linear part with non-resonant eigenvalues
            m, k = rng.choice(PAIRS["linearize"])
            p = _random_terms(rng, 2, False)
            q = _random_terms(rng, 2, False)
            p[(1, 0)] = str(m)
            p[(0, 1)] = str(rng.randint(-2, 2))
            q[(0, 1)] = str(k)
            argv = ["resolve", "--expr", _field(p, q)]
        elif slot < 7:
            k = (2, 3, 4, 4)[slot - 3]
            a = rng.choice((1, 2, 3)) * rng.choice((-1, 1))
            b = rng.choice((1, 2, 3)) * rng.choice((-1, 1))
            cmd = "first-integral" if (slot + rnd) % 2 else "resolve"
            argv = [cmd, "--expr",
                    _field({(0, 1): 2 * a}, {(k, 0): (k + 1) * b})]
        else:
            fx, fy = _three_lines(*(rng.randint(1, 3) for _ in range(3)))
            if slot < 9:
                argv = ["first-integral",
                        "--expr", f"({_render(fx)})*dx + ({_render(fy)})*dy"]
            else:
                argv = ["resolve", "--expr",
                        _field(fy, {k: -c for k, c in fx.items()})]
        yield make_job(n, argv)


def _cli_command(rng, name):
    if name in CLI_CORPUS:
        return name.split() + ["--in", f"{CORPUS}/{CLI_CORPUS[name]}.vf"]
    if name == "corpus run":
        return ["corpus", "run"]
    if name == "gen jouanolou":
        return ["gen", "jouanolou", "--degree", str(rng.randint(1, 4))]
    if name == "sectors":
        gamma = ",".join(str(rng.choice((-3, -2, -1, 1, 2, 3)))
                         for _ in range(rng.randint(2, 3)))
        return ["sectors", "--gamma", gamma, "--maxdeg", "4"]
    if name == "cp2 dimension":
        return ["cp2", "dimension", "--degree", str(rng.randint(1, 6))]
    if name == "fatou":
        return ["fatou", "--coeffs", f"1,{rng.choice((1, 2, 3))}",
                "--z", f"-0.0{rng.choice((5, 6, 8))}", "--n-max", "20000"]
    if name == "linearize":
        m, k = rng.choice(PAIRS["linearize"])
        p = _random_terms(rng, 2, False)
        q = _random_terms(rng, 2, False)
        p[(1, 0)] = str(m)
        q[(0, 1)] = str(k)
        return ["linearize", "--expr", _field(p, q), "--order", "4"]
    raise ValueError(name)


CLI_COMMANDS = list(CLI_CORPUS) + ["corpus run", "gen jouanolou", "sectors",
                                   "cp2 dimension", "fatou", "linearize"]
# ``corpus run`` is the costliest command and runs twice per round, so that
# p90 falls inside its cluster of costs rather than at the cluster's edge.
CLI_ROUND = CLI_COMMANDS + ["corpus run"]


def cli_cold_jobs(seed):
    rng = random.Random(f"cli_cold:{seed}")
    for rnd in itertools.count():
        # one round: every command once, in seeded order
        names = list(CLI_ROUND)
        rng.shuffle(names)
        for i, name in enumerate(names):
            yield make_job(rnd * len(names) + i, _cli_command(rng, name))


IRRATIONAL_ANGLES = ((5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1, 3 ** 0.5 - 1,
                     cmath.pi - 3)


def parabolic_jobs(seed):
    rng = random.Random(f"parabolic:{seed}")
    for n in itertools.count():
        if n % 3 < 2:
            # z + a z^2 + b z^3: tangent to the identity, one petal; query
            # points on the attracting direction -1/a at seeded distances.
            a = rng.choice((1, 2, 3))
            b = rng.choice((-1, 0, 1))
            dist = rng.choice((2, 3, 4, 5, 6)) / 100
            argv = ["fatou", "--coeffs", f"1,{a},{b}", "--z",
                    f"{-dist / a:.4f}", "--n-max", "100000"]
        else:
            # a rotation: by exp(2 pi i p/q) every orbit is periodic; by an
            # irrational angle every orbit runs to --max-iter undecided.
            if (n // 3) % 2:
                theta = rng.choice(IRRATIONAL_ANGLES)
            else:
                q = rng.choice((3, 4, 5, 6))
                theta = rng.choice([k for k in range(1, q)
                                    if gcd(k, q) == 1]) / q
            argv = ["orbit-census", "--coeffs", _rotation(theta),
                    "--radius", "0.3", "--max-iter", "1000", "--grid", "12"]
        yield make_job(n, argv)


def _rotation(theta):
    w = cmath.exp(2j * cmath.pi * theta)
    return f"{w.real!r}{w.imag:+.17g}i"


# Jobs per round.  Each round holds every slot of its workload once, and a
# run stops only between rounds, so every run has the same mix of work.
ROUND = {"conjugacy": len(CONJUGACY_ROUND), "resolution": 10, "cli_cold": len(CLI_ROUND),
         "parabolic": 6}

GENERATORS = {
    "conjugacy": conjugacy_jobs,
    "resolution": resolution_jobs,
    "cli_cold": cli_cold_jobs,
    "parabolic": parabolic_jobs,
}

# In-process workloads call ``folsing.cli.main`` inside the benchmark
# process; cli_cold starts one ``python -m folsing.cli`` child per job.
IN_PROCESS = {"conjugacy", "resolution", "parabolic"}


def job_list(workload, seed, count):
    return list(itertools.islice(GENERATORS[workload](seed), count))

