"""Command-line interface.

Every subcommand prints a single deterministic JSON document on stdout
(``--format dot`` and ``--format csv`` switch selected commands to Graphviz
or comma-separated output).  Domain failures print a machine-readable error
document on stderr and exit with status 1; command-line usage errors exit
with status 2.

Exact scalars appear in the output as strings in the same literal syntax the
parser accepts; floating-point numbers occur only in the numeric
(parabolic-dynamics) payloads.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import re
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import List, Optional, Tuple

import click

# Names that the command table and the shared helpers read are imported
# from errors, local, parsing, poly and towers.  The other modules are held
# as the unrun modules the package registered, and each runs when a command
# first calls into it.
from . import (
    __version__,
    blowup,
    cp2,
    fatou,
    holonomy,
    jsonio,
    normalforms,
    sectors,
    towers,
)
from .errors import (
    DEFAULT_MAX_BLOWUPS,
    PETAL_RUN,
    IntegralDegreeExceeded,
    RequestTooLarge,
    ToolkitError,
    WrongClass,
    ZeroInput,
)
from .local import classify_singularity
from .parsing import (
    iter_expressions,
    parse_any,
    parse_field,
    parse_scalar_literal,
    render_any,
    render_field,
    render_poly,
)
from .poly import MultiPoly, OneFormGerm, VectorFieldGerm, dualize
from .towers import tower_caps

# ``folsing.resolve`` is the function the package exports, so the module is
# read from sys.modules, where the package registered it
resolve = sys.modules["folsing.resolve"]


# =====================================================================
# shared helpers
# =====================================================================
def _echo_payload(payload) -> None:
    click.echo(jsonio.dumps(payload), nl=False)


def _echo_csv(rows: List[Tuple]) -> None:
    click.echo("\n".join(",".join(str(c) for c in row) for row in rows))


def toolkit_errors(fn):
    """Print domain errors as JSON on stderr and exit 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ToolkitError as exc:
            click.echo(jsonio.dumps(exc.to_json()), nl=False, err=True)
            raise SystemExit(1)

    return wrapper


class PositiveFloat(click.FloatRange):
    """A float > 0; unlike ``FloatRange`` it also rejects nan and inf."""

    def __init__(self):
        super().__init__(min=0, min_open=True)

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return value


class Rational(click.ParamType):
    """An exact rational in the parser's literal syntax: an integer or p/q.

    ``Fraction`` alone would also read exponents, and expand 1e999999999 to
    a billion digits.
    """

    name = "rational"

    def convert(self, value, param, ctx):
        if re.fullmatch(r"\s*[+-]?\d+(/\d+)?\s*", value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass  # a zero denominator, or more digits than int reads
        self.fail(f"{value!r} is not a rational number p or p/q.", param, ctx)


def input_options(fn):
    fn = click.option(
        "--in", "infile", type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="File containing a single expression (# comments allowed).")(fn)
    fn = click.option(
        "--expr", default=None, metavar="TEXT",
        help='Inline expression, e.g. "x*ddx + 2*y*ddy".')(fn)
    return fn


def tower_options(fn):
    fn = click.option(
        "--ext-degree", type=click.IntRange(min=1),
        default=towers.DEFAULT_DEGREE_CAP,
        show_default=True,
        help="Cap on the degree of a single algebraic extension.")(fn)
    fn = click.option(
        "--tower-depth", type=click.IntRange(min=0),
        default=towers.DEFAULT_DEPTH_CAP,
        show_default=True,
        help="Cap on the number of nested algebraic extensions.")(fn)
    return fn


def _read_source(expr: Optional[str], infile: Optional[str]) -> str:
    if (expr is None) == (infile is None):
        raise click.UsageError("provide exactly one of --expr or --in")
    if expr is not None:
        return expr
    try:
        text = Path(infile).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise click.UsageError(f"{infile} is not UTF-8 text") from None
    bodies = [body for _, body in iter_expressions(text)]
    if not bodies:
        raise click.UsageError(f"no expression found in {infile}")
    if len(bodies) > 1:
        raise click.UsageError(
            f"expected a single expression in {infile}, found {len(bodies)}")
    return bodies[0]


def _parse_object(expr: Optional[str], infile: Optional[str]):
    return parse_any(_read_source(expr, infile))


def _as_field(obj) -> VectorFieldGerm:
    if isinstance(obj, OneFormGerm):
        return dualize(obj)
    if isinstance(obj, VectorFieldGerm):
        return obj
    if isinstance(obj, MultiPoly) and obj.is_zero():
        raise ZeroInput("zero expression is not a vector field or 1-form")
    raise WrongClass("expected a vector field or 1-form expression")


def _parse_complex(text: str) -> complex:
    """Accept Python complex syntax with either i or j as the unit."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise click.UsageError(f"cannot read {text!r} as a complex number")
    if not cmath.isfinite(value):
        raise click.UsageError(f"{text!r} is not a finite complex number")
    return value


def _parse_complex_list(text: str) -> List[complex]:
    return [_parse_complex(tok) for tok in text.split(",") if tok.strip()]


def _parse_scalar_list(text: str) -> list:
    return [parse_scalar_literal(tok.strip()) for tok in text.split(",")
            if tok.strip()]


# =====================================================================
# payload builders (shared by the commands and the corpus runner)
# =====================================================================
def payload_analyze(obj) -> dict:
    field = _as_field(obj)
    return {
        "input": render_any(obj),
        "classification": classify_singularity(field).to_json(),
    }


def payload_blowup(obj) -> dict:
    field = _as_field(obj)
    cone = blowup.tangent_cone(field)
    charts = []
    for chart in (1, 2):
        transformed, meta = blowup.blow_up_field(field, chart)
        certificate = blowup.wedge_certificate(field, transformed, chart)
        charts.append({
            "transform": meta.to_json(),
            "field": render_field(transformed),
            "certificate_zero": certificate.is_zero(),
        })
    return {
        "input": render_any(obj),
        "cone": {
            "order": cone.order,
            "dicritical": cone.dicritical,
            "polynomial": render_poly(cone.phi),
        },
        "charts": charts,
    }


def payload_resolution_summary(obj) -> dict:
    """Compact digest of a resolution, used for corpus expectations."""
    tree = resolve.resolve(obj)
    _, ledger_ok = resolve.verify_ledger(tree)
    leaves = sorted(n.classification.tag for n in tree.nodes if n.final)
    return {
        "blowups": tree.blowup_count,
        "final": tree.all_final(),
        "ledger_ok": ledger_ok,
        "leaf_tags": leaves,
        "self_intersections": [c["self_intersection"]
                               for c in tree.components],
    }


def payload_conjugacy(obj, kind: str, order: int) -> dict:
    field = _as_field(obj)
    builder = {
        "linearize": normalforms.poincare_linearize,
        "resonant": normalforms.resonant_normal_form,
        "siegel": normalforms.siegel_straighten,
        "dulac": normalforms.dulac_reduce,
    }[kind]
    result = builder(field, order=order)
    payload = result.to_json()
    payload["residual_zero"] = all(
        r.is_zero() for r in normalforms.conjugacy_residual(field, result))
    return payload


def payload_holonomy(obj, base: int = 0, order: int = 6) -> dict:
    field = _as_field(obj)
    cls = classify_singularity(field)
    if cls.tag == "SaddleNode":
        # an --order above 12 raises the working order too: the residue
        # at contact order p + 1 needs working order 2p + 1
        data = normalforms.saddle_node_prepare(field, order=max(12, order))
        germ = holonomy.saddle_node_holonomy(data.p, data.modulus,
                                             order=order)
        return {"kind": "saddle-node", "data": data.to_json(),
                "germ": germ.to_json()}
    multiplier = holonomy.linear_holonomy(field, base_index=base)
    return {"kind": "linear", "multiplier": multiplier.to_json()}


def payload_first_integral(obj, order: int = 8,
                           max_blowups: int = DEFAULT_MAX_BLOWUPS) -> dict:
    form = obj if isinstance(obj, OneFormGerm) else None
    field = _as_field(obj)
    if form is None:
        form = dualize(field)
    verdict = holonomy.mattei_moussu_criterion(obj, order=order,
                                               max_blowups=max_blowups)
    payload = {"criterion": verdict.to_json()}
    if verdict.passes():
        try:
            result = holonomy.construct_first_integral_homogeneous(obj)
        except IntegralDegreeExceeded:
            # a refusal to expand says nothing about the germ: the command
            # fails instead of reporting a construction outcome
            raise
        except ToolkitError as exc:
            payload["construction_error"] = exc.to_json()
        else:
            payload["integral"] = result.to_json()
            payload["verified"] = holonomy.verify_first_integral(
                form, result.integral)
    return payload


def payload_cp2_degree(obj, chart: str = "a") -> dict:
    return cp2.foliation_degree(_as_field(obj), chart=chart).to_json()


def payload_cp2_infinity(obj) -> dict:
    field = _as_field(obj)
    return {
        "invariant": cp2.line_at_infinity_invariant(field),
        "tangency_form": render_poly(cp2.infinity_tangent_form(field)),
    }


def payload_cp2_tangency(obj, slope: Optional[Fraction], count: int,
                         seed: int) -> dict:
    field = _as_field(obj)
    if slope is not None:
        t = cp2.tangency_count(field, slope)
        entry = {"slope": str(slope)}
        if t is cp2.LINE_INVARIANT:
            entry["count"] = None
            entry["invariant_line"] = True
        else:
            entry["count"] = t
            entry["invariant_line"] = False
        return entry
    return cp2.tangency_samples(field, count=count, seed=seed)


def payload_sectors(gamma: list, alpha: Optional[list], maxdeg: int) -> dict:
    data = sectors.EigenData(gamma, alpha=alpha)
    partition = sectors.solution_sectors(data)
    sheaf = sectors.sheaf_singular_directions(data, maxdeg)
    sector, info = sectors.positive_sector(data, maxdeg)
    admissible = sectors.admissible_monomials(data, sector, maxdeg)
    return {
        "gamma": [str(g) for g in gamma],
        "partition": partition.to_json(),
        "sheaf": sheaf.to_json(),
        "positive_sector": {"sector": sector.to_json(), **info},
        "admissible": admissible.to_json(),
    }


def payload_fatou(coeffs: List[complex], z: complex, n_max: int,
                  tol: float) -> dict:
    germ = fatou.NumericGerm(coeffs)
    estimate = fatou.fatou_coordinate(germ, z, n_max=n_max, cauchy_tol=tol)
    att = fatou.attracting_directions(estimate.a, estimate.p)
    rep = fatou.repelling_directions(estimate.a, estimate.p)
    return {
        "backend": "numpy",
        "estimate": estimate.to_json(),
        "attracting_directions": [[d.real, d.imag] for d in att],
        "repelling_directions": [[d.real, d.imag] for d in rep],
    }


def payload_census(coeffs: List[complex], radius: float, max_iter: int,
                   grid: int, tol: float) -> dict:
    germ = fatou.NumericGerm(coeffs)
    census = fatou.orbit_census(germ, radius, max_iter=max_iter, grid=grid,
                                tol=tol)
    return {"backend": "numpy", **census}


# =====================================================================
# corpus runner
# =====================================================================
_CORPUS_COMMANDS = {
    "parse-only": lambda obj: {"canonical": render_any(obj)},
    "analyze": payload_analyze,
    "resolve-summary": payload_resolution_summary,
    "holonomy": payload_holonomy,
    "first-integral": payload_first_integral,
    "cp2-degree": payload_cp2_degree,
}


def shipped_corpus_root():
    return resources.files("folsing") / "corpus"


def corpus_run(root=None) -> dict:
    """Run every ``.vf`` case under ``root`` against its golden expectation.

    For each case the expression is parsed, rendered, and re-parsed; the
    canonical text must be stable under this round trip.  When a sidecar
    ``<name>.expected.json`` is present, the command it names is executed
    and the output compared field by field against the stored expectation.
    """
    root = shipped_corpus_root() if root is None else root
    cases = []
    warnings: List[str] = []
    entries = sorted((p for p in root.iterdir() if p.name.endswith(".vf")),
                     key=lambda p: p.name)
    if not entries:
        warnings.append("corpus directory contains no .vf cases")
    for entry in entries:
        name = entry.name[:-len(".vf")]
        case = {"name": name, "command": None, "status": "pass",
                "diffs": [], "notes": []}
        cases.append(case)
        try:
            bodies = [b for _, b in iter_expressions(entry.read_text())]
            if len(bodies) != 1:
                raise ValueError(f"expected 1 expression, found {len(bodies)}")
            obj = parse_any(bodies[0])
            canonical = render_any(obj)
            if render_any(parse_any(canonical)) != canonical:
                case["status"] = "fail"
                case["diffs"].append("canonical text unstable under re-parse")
                continue
            golden = root / f"{name}.expected.json"
            if not golden.is_file():
                case["command"] = "parse-only"
                case["notes"].append("no golden file; parse/render check only")
                continue
            expected = json.loads(golden.read_text())
            command = expected.get("command", "parse-only")
            case["command"] = command
            if command not in _CORPUS_COMMANDS:
                case["status"] = "fail"
                case["diffs"].append(f"unknown corpus command {command!r}")
                continue
            actual = _CORPUS_COMMANDS[command](obj)
            diffs = jsonio.diff_json(expected.get("expect", {}), actual)
            if diffs:
                case["status"] = "fail"
                case["diffs"] = diffs
        except (ToolkitError, ValueError, json.JSONDecodeError) as exc:
            case["status"] = "fail"
            case["diffs"].append(f"{type(exc).__name__}: {exc}")
    passed = sum(1 for c in cases if c["status"] == "pass")
    return {
        "directory": str(root),
        "total": len(cases),
        "passed": passed,
        "failed": len(cases) - passed,
        "cases": cases,
        "warnings": warnings,
    }


# =====================================================================
# command group
# =====================================================================
@click.group()
@click.version_option(version=__version__, prog_name="folsing")
def main() -> None:
    """Exact analysis of singular points of planar vector fields.

    Expressions use explicit multiplication, integer or rational
    coefficients (with i for the imaginary unit), the basis markers
    ddx/ddy/ddz for vector fields and dx/dy for 1-forms:

        folsing analyze --expr "x^2*ddx + (y - x^2)*ddy"
    """


@main.command("analyze")
@input_options
@tower_options
@toolkit_errors
def cmd_analyze(expr, infile, tower_depth, ext_degree):
    """Classify the singular point at the origin."""
    with tower_caps(depth=tower_depth, degree=ext_degree):
        _echo_payload(payload_analyze(_parse_object(expr, infile)))


@main.command("blowup")
@input_options
@toolkit_errors
def cmd_blowup(expr, infile):
    """One quadratic blow-up: tangent cone, both charts, certificates."""
    _echo_payload(payload_blowup(_parse_object(expr, infile)))


@main.command("resolve")
@input_options
@tower_options
@click.option("--max-blowups", type=click.IntRange(min=0),
              default=DEFAULT_MAX_BLOWUPS,
              show_default=True, help="Abort after this many blow-ups.")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]),
              default="json", show_default=True)
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False),
              default=None, help="Also write Graphviz output to this file.")
@toolkit_errors
def cmd_resolve(expr, infile, tower_depth, ext_degree, max_blowups, fmt,
                dot_path):
    """Resolve the singularity by iterated blow-ups, with a verified ledger."""
    obj = _parse_object(expr, infile)
    with tower_caps(depth=tower_depth, degree=ext_degree):
        tree = resolve.resolve(obj, max_blowups=max_blowups)
        _, ledger_ok = resolve.verify_ledger(tree)
    if dot_path is not None:
        try:
            Path(dot_path).write_text(tree.to_dot(), encoding="utf-8")
        except OSError as exc:
            raise click.UsageError(
                f"cannot write {dot_path}: {exc.strerror}") from None
    if fmt == "dot":
        click.echo(tree.to_dot(), nl=False)
        return
    payload = tree.to_json()
    payload["ledger_ok"] = ledger_ok
    _echo_payload(payload)


@main.command("linearize")
@input_options
@click.option("--order", type=click.IntRange(min=1), default=8,
              show_default=True, help="Truncation order of the conjugacy.")
@toolkit_errors
def cmd_linearize(expr, infile, order):
    """Linearize a nonresonant germ degree by degree."""
    _echo_payload(payload_conjugacy(_parse_object(expr, infile),
                                    "linearize", order))


@main.command("normal-form")
@click.argument("kind", type=click.Choice(["resonant", "siegel", "dulac"]))
@input_options
@click.option("--order", type=click.IntRange(min=1), default=8,
              show_default=True, help="Truncation order of the conjugacy.")
@toolkit_errors
def cmd_normal_form(kind, expr, infile, order):
    """Reduce to a truncated normal form of the requested kind."""
    _echo_payload(payload_conjugacy(_parse_object(expr, infile), kind, order))


@main.command("holonomy")
@input_options
@click.option("--base", type=click.IntRange(0, 1), default=0, show_default=True,
              help="Index of the separatrix used as the base leaf.")
@click.option("--order", type=click.IntRange(min=1), default=6,
              show_default=True, help="Truncation order of the holonomy germ.")
@toolkit_errors
def cmd_holonomy(expr, infile, base, order):
    """Holonomy of a separatrix: exact multiplier, or the germ series."""
    _echo_payload(payload_holonomy(_parse_object(expr, infile), base, order))


@main.command("first-integral")
@input_options
@tower_options
@click.option("--order", type=click.IntRange(min=1), default=8,
              show_default=True, help="Formal order used in the leafwise checks.")
@click.option("--max-blowups", type=click.IntRange(min=0),
              default=DEFAULT_MAX_BLOWUPS,
              show_default=True)
@toolkit_errors
def cmd_first_integral(expr, infile, tower_depth, ext_degree, order,
                       max_blowups):
    """Decide the necessary conditions for a local meromorphic invariant."""
    obj = _parse_object(expr, infile)
    with tower_caps(depth=tower_depth, degree=ext_degree):
        _echo_payload(payload_first_integral(obj, order, max_blowups))


@main.group("cp2")
def cmd_cp2():
    """Global invariants on the projective plane."""


@cmd_cp2.command("degree")
@input_options
@click.option("--chart", type=click.Choice(["a", "b"]), default="a",
              show_default=True, help="Affine chart the expression lives in.")
@toolkit_errors
def cmd_cp2_degree(expr, infile, chart):
    """Projective degree of the extended line field."""
    _echo_payload(payload_cp2_degree(_parse_object(expr, infile), chart))


@cmd_cp2.command("infinity")
@input_options
@toolkit_errors
def cmd_cp2_infinity(expr, infile):
    """Is the line at infinity invariant, and the tangency form there."""
    _echo_payload(payload_cp2_infinity(_parse_object(expr, infile)))


@cmd_cp2.command("tangency")
@input_options
@click.option("--slope", type=Rational(), default=None, metavar="RATIONAL",
              help="Single exact slope, e.g. 3 or -5/7.")
@click.option("--count", type=click.IntRange(min=1), default=5,
              show_default=True,
              help="Number of pseudorandom slopes when --slope is absent.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@toolkit_errors
def cmd_cp2_tangency(expr, infile, slope, count, seed, fmt):
    """Tangency counts between the foliation and lines through the origin."""
    payload = payload_cp2_tangency(_parse_object(expr, infile), slope,
                                   count, seed)
    if fmt == "csv":
        if "samples" in payload:
            rows = [("slope", "count")] + [
                (s["slope"], "" if s["count"] is None else s["count"])
                for s in payload["samples"]]
        else:
            rows = [("slope", "count"),
                    (payload["slope"],
                     "" if payload["count"] is None else payload["count"])]
        _echo_csv(rows)
        return
    _echo_payload(payload)


@cmd_cp2.command("dimension")
@click.option("--degree", type=click.IntRange(min=0), required=True,
              help="Degree of the line-field space.")
@toolkit_errors
def cmd_cp2_dimension(degree):
    """Dimension of the space of degree-d foliations of the plane."""
    _echo_payload({"degree": degree,
                   "dimension": cp2.fol_space_dimension(degree)})


@main.group("gen")
def cmd_gen():
    """Generate reference examples."""


@cmd_gen.command("jouanolou")
@click.option("--degree", type=click.IntRange(min=1), default=2,
              show_default=True)
@click.option("--chart", type=click.Choice(["a", "b"]), default="a",
              show_default=True)
@click.option("--plain", is_flag=True,
              help="Print only the expression (suitable for --expr/--in).")
@toolkit_errors
def cmd_gen_jouanolou(degree, chart, plain):
    """Degree-n example with no algebraic invariant curve."""
    field = cp2.homogeneous_to_affine(cp2.jouanolou(degree), chart)
    text = render_field(field)
    if plain:
        click.echo(text)
        return
    _echo_payload({"degree": degree, "chart": chart, "field": text})


@cmd_gen.command("riccati-template")
@click.option("--base-degree", type=click.IntRange(min=2), default=2,
              show_default=True, help="Degree of the base polynomial.")
@click.option("--plain", is_flag=True,
              help="Print only the expression (suitable for --expr/--in).")
@toolkit_errors
def cmd_gen_riccati(base_degree, plain):
    """Fibration-compatible example, quadratic in the second variable."""
    if base_degree > cp2.MAX_RICCATI_BASE_DEGREE:
        raise RequestTooLarge("base degree above the cap of the Riccati template",
                              base_degree=base_degree,
                              limit=cp2.MAX_RICCATI_BASE_DEGREE)
    text = f"(x^{base_degree} - x)*ddx + (y^2 + x*y + 1)*ddy"
    field = parse_field(text)
    canonical = render_field(field)
    if plain:
        click.echo(canonical)
        return
    _echo_payload({
        "base_degree": base_degree,
        "field": canonical,
        "recognized": cp2.riccati_recognize(field).to_json(),
    })


@main.command("sectors")
@click.option("--gamma", required=True, metavar="LIST",
              help='Comma-separated exact eigenvalue ratios, e.g. "1,i".')
@click.option("--alpha", default=None, metavar="LIST",
              help="Optional comma-separated exact exponents.")
@click.option("--maxdeg", type=click.IntRange(min=0), default=5,
              show_default=True,
              help="Degree bound for the monomial search.")
@toolkit_errors
def cmd_sectors(gamma, alpha, maxdeg):
    """Sector combinatorics of an irregular direction field."""
    gammas = _parse_scalar_list(gamma)
    alphas = _parse_scalar_list(alpha) if alpha is not None else None
    _echo_payload(payload_sectors(gammas, alphas, maxdeg))


@main.command("fatou")
@click.option("--coeffs", required=True, metavar="LIST",
              help='Comma-separated coefficients of z, z^2, ...: "1,1,0.5".')
@click.option("--z", "z_text", required=True, metavar="COMPLEX",
              help='Query point, e.g. "-0.1" or "0.02+0.1i".')
@click.option("--n-max", type=click.IntRange(min=2 * PETAL_RUN),
              default=100000, show_default=True,
              help="Iteration budget.")
@click.option("--tol", type=PositiveFloat(),
              default=1e-8, show_default=True,
              help="Convergence tolerance on the averaged increment.")
@toolkit_errors
def cmd_fatou(coeffs, z_text, n_max, tol):
    """Translation coordinate of a tangent-to-identity germ at a point."""
    _echo_payload(payload_fatou(_parse_complex_list(coeffs),
                                _parse_complex(z_text), n_max, tol))


@main.command("orbit-census")
@click.option("--coeffs", required=True, metavar="LIST",
              help='Comma-separated coefficients of z, z^2, ...')
@click.option("--radius", type=PositiveFloat(),
              required=True,
              help="Radius of the sampling disc.")
@click.option("--max-iter", type=click.IntRange(min=1), default=1000000,
              show_default=True)
@click.option("--grid", type=click.IntRange(min=3), default=20,
              show_default=True,
              help="Sample points per axis, rounded up to even.")
@click.option("--tol", type=PositiveFloat(),
              default=1e-9, show_default=True,
              help="Return/collision tolerance.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@toolkit_errors
def cmd_orbit_census(coeffs, radius, max_iter, grid, tol, fmt):
    """Classify grid orbits as escaping, periodic, finite, or undecided."""
    payload = payload_census(_parse_complex_list(coeffs), radius, max_iter,
                             grid, tol)
    if fmt == "csv":
        rows = [("class", "count")]
        rows += [(k, payload[k]) for k in
                 ("escaping", "periodic", "finite", "undecided", "total")]
        rows += [(f"period:{k}", v)
                 for k, v in payload["period_histogram"].items()]
        _echo_csv(rows)
        return
    _echo_payload(payload)


@main.group("corpus")
def cmd_corpus():
    """Run the shipped (or a user) corpus of reference cases."""


@cmd_corpus.command("run")
@click.option("--dir", "directory", type=click.Path(exists=True,
              file_okay=False), default=None,
              help="Corpus directory (defaults to the shipped corpus).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@toolkit_errors
def cmd_corpus_run(directory, fmt):
    """Check every case; exit 0 only if all pass."""
    root = Path(directory) if directory is not None else None
    report = corpus_run(root)
    if fmt == "csv":
        rows = [("name", "command", "status")]
        rows += [(c["name"], c["command"] or "", c["status"])
                 for c in report["cases"]]
        _echo_csv(rows)
    else:
        _echo_payload(report)
    for warning in report["warnings"]:
        click.echo(f"warning: {warning}", err=True)
    if report["failed"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
