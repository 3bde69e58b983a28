"""End-to-end tests of the command-line interface.

Covers exit-code conventions (0 success, 1 domain error with JSON on
stderr, 2 usage error), byte-level determinism of repeated invocations,
schema validity of the emitted documents, the Graphviz output, and the
corpus runner including its failure and empty-directory behavior.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import folsing
from folsing import jsonio
from folsing.cli import corpus_run, main, shipped_corpus_root
from folsing.normalforms import MAX_ORDER
from folsing.scalars import GaussianRational

CUSP = "2*y*ddx + 3*x^2*ddy"
EULER = "x^2*ddx + (y - x)*ddy"
SADDLE = "2*x*ddx - 3*y*ddy"
JOUANOLOU2 = "(y^2 - x^3)*ddx + (1 - x^2*y)*ddy"
HAMILTONIAN = "(2*x*y - y^2)*dx + (x^2 - 2*x*y)*dy"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output + result.stderr
    return result


def json_out(runner, args):
    return json.loads(invoke_ok(runner, args).stdout)


def run_python(args):
    """Run a fresh interpreter on this checkout's package, so that
    everything the process writes to stderr, warnings included, is seen."""
    src = str(Path(folsing.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_cli_process(args):
    return run_python(["-m", "folsing.cli", *args])


def _within(seconds, fn, *args):
    """fn(*args), failing the test once it runs past a wall-clock budget."""
    def overrun(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    old = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# every subcommand that reads an expression, with the schema (or the
# format) of what it prints on success
SWEEP_COMMANDS = [
    (["analyze"], "analysis"),
    (["blowup"], "blowup"),
    (["resolve"], "resolution"),
    (["resolve", "--format", "dot"], "dot"),
    (["linearize"], "conjugacy"),
    (["normal-form", "resonant"], "conjugacy"),
    (["normal-form", "siegel"], "conjugacy"),
    (["normal-form", "dulac"], "conjugacy"),
    (["holonomy"], "holonomy"),
    (["holonomy", "--base", "1"], "holonomy"),
    (["first-integral"], "first_integral"),
    (["cp2", "degree"], "cp2_degree"),
    (["cp2", "degree", "--chart", "b"], "cp2_degree"),
    (["cp2", "infinity"], "cp2_infinity"),
    (["cp2", "tangency"], "tangency"),
    (["cp2", "tangency", "--slope", "1"], "tangency"),
    (["cp2", "tangency", "--format", "csv"], "csv"),
]
# a three-variable field, a 1-form, a bare polynomial, zero and a field
# without a singular point
SWEEP_SOURCES = ["lorenz.vf", "x*dx+y*dy", "x^2", "0", "ddx"]

# few terms whose coefficients grow by about 60 bits per power
TALL_POWER = "(123456789/987654321+x*y+17/19*y)^90*ddx"


# ---------------------------------------------------------------------
# basic commands and schema validity
# ---------------------------------------------------------------------
class TestBasicCommands:
    def test_version(self, runner):
        assert "0.1.0" in invoke_ok(runner, ["--version"]).output

    def test_analyze_saddle_node(self, runner):
        doc = json_out(runner, ["analyze", "--expr",
                                "x^2*ddx + (y - x^2)*ddy"])
        assert doc["classification"]["tag"] == "SaddleNode"
        jsonio.validate(doc, "analysis")

    def test_analyze_from_file(self, runner, tmp_path):
        path = tmp_path / "germ.vf"
        path.write_text("# comment line\n" + EULER + "\n")
        doc = json_out(runner, ["analyze", "--in", str(path)])
        assert doc["classification"]["tag"] == "SaddleNode"

    def test_blowup(self, runner):
        doc = json_out(runner, ["blowup", "--expr", CUSP])
        assert doc["cone"]["order"] == 1
        assert all(c["certificate_zero"] for c in doc["charts"])
        jsonio.validate(doc, "blowup")

    def test_cp2_degree_jouanolou2(self, runner):
        doc = json_out(runner, ["cp2", "degree", "--expr", JOUANOLOU2])
        assert doc["degree"] == 2
        assert doc["top_part_radial"] is True
        jsonio.validate(doc, "cp2_degree")

    def test_cp2_infinity(self, runner):
        doc = json_out(runner, ["cp2", "infinity", "--expr", JOUANOLOU2])
        jsonio.validate(doc, "cp2_infinity")

    def test_cp2_dimension(self, runner):
        doc = json_out(runner, ["cp2", "dimension", "--degree", "1"])
        assert doc == {"degree": 1, "dimension": 7}
        jsonio.validate(doc, "dimension")

    def test_cp2_tangency_json_and_csv(self, runner):
        doc = json_out(runner, ["cp2", "tangency", "--expr", JOUANOLOU2,
                                "--count", "3"])
        assert doc["degree"] == 2
        assert all(s["count"] == 2 for s in doc["samples"])
        jsonio.validate(doc, "tangency")
        csv = invoke_ok(runner, ["cp2", "tangency", "--expr", JOUANOLOU2,
                                 "--count", "3", "--format", "csv"]).output
        lines = csv.strip().splitlines()
        assert lines[0] == "slope,count"
        assert len(lines) == 4

    def test_holonomy_linear(self, runner):
        doc = json_out(runner, ["holonomy", "--expr", SADDLE])
        assert doc["kind"] == "linear"
        assert doc["multiplier"]["value"] == "-1"
        jsonio.validate(doc, "holonomy")

    def test_holonomy_saddle_node(self, runner):
        doc = json_out(runner, ["holonomy", "--expr", EULER])
        assert doc["kind"] == "saddle-node"
        assert doc["data"]["p"] == 1
        jsonio.validate(doc, "holonomy")

    @pytest.mark.parametrize("expr, order, pinned", [
        ("x^2*ddx + (y + 2*i*x*y - x)*ddy", "5",
         "holonomy_modulus_2i_order5.json"),
        ("x^2*ddx + (y + (1/3+2*i)*x*y)*ddy", "4",
         "holonomy_modulus_third_plus_2i_order4.json"),
    ])
    def test_holonomy_saddle_node_pinned(self, runner, expr, order, pinned):
        # the z^3 coefficients print as "-2*i*tau+tau^2" and
        # "(-1/3-2*i)*tau+tau^2": a sum is parenthesized, a product is not
        out = invoke_ok(runner, ["holonomy", "--expr", expr,
                                 "--order", order]).stdout
        path = Path(__file__).parent / "pinned" / pinned
        assert out == path.read_text(encoding="utf-8")

    def test_linearize_dense_pinned(self, runner):
        # every monomial through degree 24, with coefficients of growing
        # height: the solver's table at its densest
        expr = ("(2*x+1/3*x^2+5/7*x*y-1/11*y^2)*ddx"
                "+(3*y+1/13*x^2-2/17*y^2+1/19*x*y)*ddy")
        out = invoke_ok(runner, ["linearize", "--expr", expr,
                                 "--order", "24"]).stdout
        path = Path(__file__).parent / "pinned" / "linearize_dense_order24.json"
        assert out == path.read_text(encoding="utf-8")

    def test_holonomy_order_reaches_the_preparation(self, runner):
        # contact order p + 1 = 7 needs a working order of 2p + 1 = 13
        doc = json_out(runner, ["holonomy", "--expr", "x^7*ddx + y*ddy",
                                "--order", "20"])
        assert doc["data"]["p"] == 6
        assert doc["germ"]["coefficients"] == {
            "1": "1", "7": "tau", "13": "7/2*tau^2", "19": "91/6*tau^3"}
        jsonio.validate(doc, "holonomy")

    def test_first_integral(self, runner):
        doc = json_out(runner, ["first-integral", "--expr", HAMILTONIAN])
        assert doc["criterion"]["verdict"] == "PassesNecessaryConditions"
        assert doc["verified"] is True
        jsonio.validate(doc, "first_integral")

    def test_linearize(self, runner):
        doc = json_out(runner, ["linearize", "--expr",
                                "2*x*ddx + 3*y*ddy + x*y*ddx", "--order", "6"])
        assert doc["kept"] == []
        assert doc["residual_zero"] is True
        jsonio.validate(doc, "conjugacy")

    def test_linearize_spectrum_in_an_open_half_plane(self, runner):
        # 1+3i and -i lie in the open half-plane Re(conj(u) z) > 0 of
        # u = 1 - i/10, though of no sum of two eigenvalues: Poincare domain
        doc = json_out(runner, ["linearize", "--expr",
                                "(1+3*i)*x*ddx + (-i)*y*ddy + x^2*ddy",
                                "--order", "4"])
        assert doc["eigenvalues"] == ["1+3*i", "-i"]
        assert doc["residual_zero"] is True
        jsonio.validate(doc, "conjugacy")

    def test_normal_form_dulac(self, runner):
        doc = json_out(runner, ["normal-form", "dulac", "--expr",
                                "(x + 5*x*y)*ddx + y^2*ddy"])
        assert doc["normal_form"] == ["x+5*x*y", "y^2"]
        jsonio.validate(doc, "conjugacy")

    def test_sectors(self, runner):
        doc = json_out(runner, ["sectors", "--gamma", "1,i",
                                "--maxdeg", "5"])
        assert doc["admissible"]["shape"] == \
            "(y, z) -> (y + a200 + a201*z, z + a300)"
        jsonio.validate(doc, "sectors")

    def test_sectors_real_alpha(self, runner):
        # exact real exponents are accepted; they leave the combinatorics
        # (the whole document) unchanged
        plain = invoke_ok(runner, ["sectors", "--gamma", "1,2"]).stdout
        with_alpha = invoke_ok(runner, ["sectors", "--gamma", "1,2",
                                        "--alpha", "1/2,-3"]).stdout
        assert with_alpha == plain
        jsonio.validate(json.loads(with_alpha), "sectors")

    def test_sectors_on_one_ray(self, runner):
        # three eigenvalues on one ray leave 0 outside their hull
        doc = json_out(runner, ["sectors", "--gamma", "1,2,3"])
        assert doc["gamma"] == ["1", "2", "3"]
        jsonio.validate(doc, "sectors")

    def test_fatou(self, runner):
        doc = json_out(runner, ["fatou", "--coeffs", "1,1", "--z", "-0.1"])
        assert doc["estimate"]["p"] == 1
        assert doc["estimate"]["cauchy_increment"] < 1e-8
        jsonio.validate(doc, "fatou")

    def test_orbit_census(self, runner):
        args = ["orbit-census", "--coeffs",
                "0.30901699437494745+0.9510565162951535i",
                "--radius", "0.3", "--max-iter", "200000", "--grid", "10"]
        doc = json_out(runner, args)
        assert doc["periodic"] == doc["total"]
        assert doc["period_histogram"] == {"5": doc["total"]}
        jsonio.validate(doc, "census")
        csv = invoke_ok(runner, args + ["--format", "csv"]).output
        assert csv.splitlines()[0] == "class,count"

    def test_gen_jouanolou_plain_pipes_back_in(self, runner):
        text = invoke_ok(runner, ["gen", "jouanolou", "--degree", "3",
                                  "--plain"]).output.strip()
        doc = json_out(runner, ["cp2", "degree", "--expr", text])
        assert doc["degree"] == 3

    def test_gen_riccati_template(self, runner):
        doc = json_out(runner, ["gen", "riccati-template"])
        assert doc["base_degree"] == 2
        assert doc["recognized"]["base"] == "-x+x^2"
        jsonio.validate(doc, "generated")


# ---------------------------------------------------------------------
# resolve and Graphviz output
# ---------------------------------------------------------------------
class TestResolve:
    def test_resolution_json(self, runner):
        doc = json_out(runner, ["resolve", "--expr", CUSP])
        assert doc["blowups"] == 3
        assert doc["final"] is True
        assert doc["ledger_ok"] is True
        assert [c["self_intersection"] for c in doc["divisor_components"]] \
            == [-3, -2, -1]
        jsonio.validate(doc, "resolution")

    def test_dot_output(self, runner):
        dot = invoke_ok(runner, ["resolve", "--expr", CUSP,
                                 "--format", "dot"]).output
        assert dot.startswith("digraph resolution {")
        # three interior blow-up nodes plus three final leaves
        assert dot.count("style=filled") == 3
        assert dot.count("[label=\"#") == 6

    def test_dot_file_written(self, runner, tmp_path):
        target = tmp_path / "tree.dot"
        invoke_ok(runner, ["resolve", "--expr", CUSP, "--dot", str(target)])
        assert target.read_text().startswith("digraph resolution {")

    def test_byte_identical_runs(self, runner):
        for args in (["resolve", "--expr", CUSP],
                     ["resolve", "--expr", CUSP, "--format", "dot"],
                     ["analyze", "--expr", EULER],
                     ["fatou", "--coeffs", "1,1", "--z", "-0.1"]):
            first = invoke_ok(runner, args).output
            second = invoke_ok(runner, args).output
            assert first == second

    def test_tower_cap_flags_accepted(self, runner):
        default = invoke_ok(runner, ["resolve", "--expr", CUSP]).output
        explicit = invoke_ok(runner, ["resolve", "--expr", CUSP,
                                      "--tower-depth", "3",
                                      "--ext-degree", "6"]).output
        assert default == explicit


# ---------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------
class TestExitCodes:
    def test_usage_error_missing_input(self, runner):
        result = runner.invoke(main, ["analyze"])
        assert result.exit_code == 2

    def test_usage_error_both_inputs(self, runner, tmp_path):
        path = tmp_path / "a.vf"
        path.write_text(EULER)
        result = runner.invoke(main, ["analyze", "--expr", EULER,
                                      "--in", str(path)])
        assert result.exit_code == 2

    def test_usage_error_input_not_utf8(self, runner, tmp_path):
        path = tmp_path / "latin1.vf"
        path.write_bytes("x*ddx - y*ddy # caf\u00e9".encode("latin-1"))
        result = runner.invoke(main, ["analyze", "--in", str(path)])
        assert result.exit_code == 2
        assert "is not UTF-8 text" in result.stderr
        assert result.stdout == ""

    def test_usage_error_dot_file_not_writable(self, runner, tmp_path):
        target = tmp_path / "missing" / "tree.dot"
        result = runner.invoke(main, ["resolve", "--expr", "x*ddx-y*ddy",
                                      "--dot", str(target)])
        assert result.exit_code == 2
        assert "cannot write" in result.stderr
        assert not target.exists()

    def test_usage_error_bad_choice(self, runner):
        result = runner.invoke(main, ["normal-form", "weird",
                                      "--expr", EULER])
        assert result.exit_code == 2

    def test_domain_error_parse(self, runner):
        result = runner.invoke(main, ["analyze", "--expr", "x*qqz"])
        assert result.exit_code == 1
        err = json.loads(result.stderr)
        assert err["error"] == "parse-error"
        assert err["detail"]["line"] == 1
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("expr, col", [
        ("(x", 3),
        ("x^", 3),
        ("(1+x)^100000*ddx", 6),
        (TALL_POWER, 34),
    ])
    def test_parse_error_column(self, expr, col):
        # end of input is reported just past the last token; an expansion
        # over the parser's budget at the operator that would pass it.  A
        # fresh process, so that a lost budget times out instead of hanging
        start = time.perf_counter()
        result = run_cli_process(["analyze", "--expr", expr])
        if expr == TALL_POWER:
            # the budget weighs coefficient length: counting term pairs
            # alone let this expansion run for about 6 s
            assert time.perf_counter() - start < 2
        assert result.returncode == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "parse-error"
        assert err["detail"]["col"] == col
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("expr, col", [
        ("1" * 5000 + "*x*ddx + y*ddy", 1),
        ("x*ddx + y^" + "1" * 5000 + "*ddy", 11),
    ], ids=["coefficient", "exponent"])
    def test_literal_past_the_digit_limit(self, expr, col):
        # longer than the interpreter converts to an int: a parse error at
        # the literal, not a ValueError traceback
        result = run_cli_process(["analyze", "--expr", expr])
        assert result.returncode == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "parse-error"
        assert err["detail"]["col"] == col
        jsonio.validate(err, "error")

    def test_coefficient_past_the_digit_limit(self):
        # 2^20000 parses as a power, but has too many digits to print
        result = run_cli_process(["analyze", "--expr", "2^20000*x*ddx+y*ddy"])
        assert result.returncode == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "coefficient-too-large"
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("command, power, code", [
        ("holonomy", 20000, "coefficient-too-large"),
        ("first-integral", 20000, "integral-degree-exceeded"),
        ("first-integral", 200, "integral-degree-exceeded"),
    ])
    def test_eigenvalue_ratio_past_the_budgets(self, command, power, code):
        # the ratio -2^20000 has too many digits to print; as a residue
        # ratio it, and the printable 2^200, ask for a first integral far
        # above the degree cap
        result = run_cli_process(
            [command, "--expr", "x*ddx-2^%d*y*ddy" % power])
        assert result.returncode == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == code
        jsonio.validate(err, "error")

    def test_domain_error_zero_input(self, runner):
        result = runner.invoke(main, ["analyze", "--expr", "0*ddx + 0*ddy"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "zero-input"

    def test_domain_error_holonomy_order_below_first_deviation(self, runner):
        # p = 2: the germ first deviates from the identity at z^3
        result = runner.invoke(main, ["holonomy", "--expr", "x^3*ddx + y*ddy",
                                      "--order", "2"])
        assert result.exit_code == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err == {"error": "truncation-too-small",
                       "message": "truncation order must reach the first deviation",
                       "detail": {"order": 2, "required": 3}}
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("args", [
        ["linearize", "--expr", SADDLE, "--order", "-3"],
        ["linearize", "--expr", SADDLE, "--order", "0"],
        ["normal-form", "dulac", "--expr", SADDLE, "--order", "0"],
        ["holonomy", "--expr", SADDLE, "--order", "0"],
        ["first-integral", "--expr", SADDLE, "--order", "0"],
        ["first-integral", "--expr", SADDLE, "--max-blowups", "-1"],
        ["resolve", "--expr", CUSP, "--max-blowups", "-1"],
        ["resolve", "--expr", CUSP, "--ext-degree", "0"],
        ["resolve", "--expr", CUSP, "--tower-depth", "-1"],
        ["holonomy", "--expr", SADDLE, "--base", "7"],
        ["holonomy", "--expr", SADDLE, "--base", "-1"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "0.3", "--grid", "0"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "0.3",
         "--max-iter", "-1"],
        ["cp2", "tangency", "--expr", JOUANOLOU2, "--count", "-1"],
        ["cp2", "tangency", "--expr", JOUANOLOU2, "--count", "0"],
        ["fatou", "--coeffs", "1,1", "--z", "-0.1", "--n-max", "0"],
        ["gen", "riccati-template", "--base-degree", "1"],
        ["sectors", "--gamma", "1,i", "--maxdeg", "-1"],
        ["cp2", "dimension", "--degree", "-1"],
        ["gen", "jouanolou", "--degree", "0"],
        # n_max 99 can never pass the petal scan; grids 1 and 2 round up to
        # the grid 2, whose four corners all lie outside the disc
        ["fatou", "--coeffs", "1,1", "--z", "-0.05", "--n-max", "99"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "0.3", "--grid", "1"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "0.3", "--grid", "2"],
    ])
    def test_usage_error_out_of_range_integer(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "is not in the range" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [
        ["orbit-census", "--coeffs", "1,1", "--radius", "-1"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "0"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "0.3", "--tol", "0"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "0.3",
         "--tol", "-1e-9"],
        ["fatou", "--coeffs", "1,1", "--z", "-0.1", "--tol", "0"],
        ["fatou", "--coeffs", "1,1", "--z", "-0.1", "--tol", "-1"],
    ])
    def test_usage_error_nonpositive_float(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "is not in the range" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [
        ["orbit-census", "--coeffs", "1,1", "--radius", "nan"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "inf"],
        ["orbit-census", "--coeffs", "1,1", "--radius", "0.3", "--tol", "nan"],
        ["fatou", "--coeffs", "1,1", "--z", "-0.1", "--tol", "nan"],
        ["fatou", "--coeffs", "1,1", "--z", "-0.1", "--tol", "inf"],
        ["fatou", "--coeffs", "1,1", "--z", "nan"],
        ["fatou", "--coeffs", "1,1", "--z", "1e400"],
        ["fatou", "--coeffs", "1,nan", "--z", "-0.1"],
        ["orbit-census", "--coeffs", "1,1e999", "--radius", "0.3"],
    ])
    def test_usage_error_non_finite_float(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "finite" in result.stderr
        assert result.stdout == ""
        assert "NaN" not in result.stderr and "Infinity" not in result.stderr

    @pytest.mark.parametrize("slope", ["1/0", "abc", "nan", "inf", "0.5",
                                       "1e999999999", "1" * 5000, "1/-2"])
    def test_usage_error_slope_not_rational(self, runner, slope):
        # read by the option's type: Fraction raised ZeroDivisionError or
        # ValueError inside the command, and expanded the exponent first
        result = _within(10, runner.invoke, main, [
            "cp2", "tangency", "--expr", JOUANOLOU2, "--slope", slope])
        assert result.exit_code == 2
        assert "is not a rational number" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("slope, text", [("3", "3"), ("-5/7", "-5/7"),
                                             (" 4/6 ", "2/3"), ("+0", "0")])
    def test_slope_is_read_exactly(self, runner, slope, text):
        doc = json_out(runner, ["cp2", "tangency", "--expr", JOUANOLOU2,
                                "--slope", slope])
        assert doc["slope"] == text

    def test_riccati_template_at_the_cap_answers(self, runner):
        # the base x^37 - x splits into factors of degree at most 6 over
        # Q(i); one degree more is refused before anything is parsed
        doc = _within(10, json_out, runner, [
            "gen", "riccati-template", "--base-degree", "37"])
        assert doc["base_degree"] == 37
        start = time.perf_counter()
        result = _within(1, runner.invoke, main, [
            "gen", "riccati-template", "--base-degree", "38"])
        assert time.perf_counter() - start < 0.1
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "request-too-large"

    def test_domain_error_float_overflow(self, runner):
        # finite input whose petal chart overflows the doubles
        result = runner.invoke(main, ["fatou", "--coeffs", "1,1e200",
                                      "--z", "-1e-201"])
        assert result.exit_code == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "float-overflow"
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("args, code", [
        (["fatou", "--coeffs", "1,1e200", "--z", "-1e-201"], "float-overflow"),
        # a'^4 passes the doubles, where complex ** would raise
        (["fatou", "--coeffs", "1,1e100", "--z", "-1e-101"], "float-overflow"),
        (["fatou", "--coeffs", "1,1", "--z", "-1e-320"], "not-in-petal"),
        (["holonomy", "--expr", "x*ddx + (1-200*i)*y*ddy"], "float-overflow"),
    ])
    def test_float_error_is_the_only_stderr(self, args, code):
        # numpy's floating-point warnings would precede the document
        proc = run_cli_process(args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"] == code
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("coeffs, z", [
        ("1,0,1e300,1e300,1e300", "1.5e-167+2.5e-151i"),
        ("1,1e300,1e300", "-1.5e-301+1.8e-317i"),
        ("1,1.1e-12," + ",".join(["-7e150"] * 4), "-9.4e-77+1.2e-92i"),
        # at the petal cap, every coefficient through degree 4p+1 set
        (",".join(["1"] + ["0"] * 19 + ["1e300"] * 62), "2.5e-16+3.9e-17i"),
        (",".join(["1"] + ["0"] * 19 + ["1.1e-12"] + ["1e15"] * 61),
         "0.048+0.0076i"),
    ])
    def test_extreme_fatou_input_ends_the_documented_way(self, coeffs, z):
        proc = run_cli_process(["fatou", "--coeffs", coeffs, "--z", z,
                                "--n-max", "2000"])
        assert proc.returncode in (0, 1, 2), proc.stderr
        if proc.returncode == 0:
            assert proc.stderr == ""
            jsonio.validate(json.loads(proc.stdout), "fatou")
        elif proc.returncode == 1:
            assert proc.stdout == ""
            jsonio.validate(json.loads(proc.stderr), "error")

    def test_domain_error_census_grid_too_large(self, runner):
        # refused before the grid is built, so the huge value is safe here
        result = runner.invoke(main, ["orbit-census", "--coeffs", "1,1",
                                      "--radius", "0.3", "--grid", "100000"])
        assert result.exit_code == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "grid-too-large"
        assert err["detail"] == {"grid": 100000, "points": 10 ** 10,
                                 "limit": 2 ** 20}
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("args, detail", [
        (["cp2", "tangency", "--expr", SADDLE, "--count", "602"],
         {"count": 602, "limit": 601}),
        (["sectors", "--gamma", "1,2", "--maxdeg", "200"],
         {"maxdeg": 200, "components": 2, "limit": 4096}),
        (["cp2", "dimension", "--degree", "60"], {"degree": 60, "limit": 30}),
        (["fatou", "--coeffs", ",".join(["1"] + ["0"] * 20 + ["0.3"] * 48),
          "--z", "0.01+0.001i", "--n-max", "2000"],
         {"petals": 21, "limit": 20}),
        (["fatou", "--coeffs", "1,1", "--z", "-0.05", "--n-max",
          str(10 ** 10)],
         {"n_max": 10 ** 10, "limit": 10 ** 8}),
        # the default 10^6 steps at every point of a 1000 x 1000 grid
        (["orbit-census", "--coeffs", "1,1", "--radius", "0.3",
          "--grid", "1000"],
         {"grid": 1000, "max_iter": 10 ** 6, "steps": 10 ** 12,
          "limit": 10 ** 9}),
        (["gen", "riccati-template", "--base-degree", "38"],
         {"base_degree": 38, "limit": 37}),
        (["gen", "riccati-template", "--base-degree", str(10 ** 9)],
         {"base_degree": 10 ** 9, "limit": 37}),
    ])
    def test_domain_error_request_too_large(self, runner, args, detail):
        # each of these ran for seconds or never ended before it was capped
        result = _within(10, runner.invoke, main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "request-too-large"
        assert err["detail"] == detail
        jsonio.validate(err, "error")

    DENSE_X = "1/3*x^2+5/7*x*y-1/11*y^2"
    DENSE_Y = "1/13*x^2-2/17*y^2+1/19*x*y"
    ORDER_COMMANDS = [
        ["linearize", "--expr", "2*x*ddx+3*y*ddy"],
        ["normal-form", "siegel", "--expr", "x*ddx-2*y*ddy+x^2*ddy"],
        ["holonomy", "--expr", "x^2*ddx+y*ddy"],
        ["first-integral", "--expr", "x*ddx-2*y*ddy"],
        # MAX_ORDER is sized on dense fields: at the cap each of these
        # answers in about a second or less
        ["linearize", "--expr", f"(2*x+{DENSE_X})*ddx+(3*y+{DENSE_Y})*ddy"],
        ["normal-form", "resonant", "--expr",
         f"(x+{DENSE_X})*ddx+(2*y+{DENSE_Y})*ddy"],
        ["normal-form", "siegel", "--expr",
         f"(x+{DENSE_X})*ddx+(-2*y+{DENSE_Y})*ddy"],
        ["normal-form", "dulac", "--expr", f"(x+{DENSE_X})*ddx+({DENSE_Y})*ddy"],
        ["first-integral", "--expr", f"(x+{DENSE_X})*ddx+(-y+{DENSE_Y})*ddy"],
        ["holonomy", "--expr", "x^2*ddx + (y + 1/3*x*y)*ddy"],
        ["holonomy", "--expr",
         "(x^2 + 1/2*x*y)*ddx + (y + 1/3*x*y + 2*y^2)*ddy"],
    ]

    @pytest.mark.parametrize("args", ORDER_COMMANDS)
    def test_order_above_the_cap_is_refused(self, runner, args):
        # each of these ran for more than 8 s before the cap; the refusal
        # comes before any resonance enumeration or series work
        result = _within(1, runner.invoke, main, args + ["--order", "100000"])
        assert result.exit_code == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "request-too-large"
        assert err["detail"] == {"order": 100000, "limit": MAX_ORDER}
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("args", ORDER_COMMANDS)
    def test_order_at_the_cap_answers(self, runner, args):
        assert MAX_ORDER == 32
        _within(10, json_out, runner, args + ["--order", str(MAX_ORDER)])

    def test_fatou_n_max_at_the_minimum(self, runner):
        result = runner.invoke(main, ["fatou", "--coeffs", "1,1", "--z",
                                      "-0.05", "--n-max", "100"])
        assert result.exit_code == 1
        err = json.loads(result.stderr)
        assert err["error"] == "slow-convergence"
        assert err["detail"]["n_max"] == 100
        doc = json_out(runner, ["fatou", "--coeffs", "1,1", "--z", "-0.05",
                                "--n-max", "100", "--tol", "1e-3"])
        assert doc["estimate"]["petal_steps"] == 50

    def test_census_grid_3_keeps_the_interior_points(self, runner):
        # grid 3 rounds up to 4: of its 16 points the 4 inner ones lie in
        # the disc
        doc = json_out(runner, ["orbit-census", "--coeffs", "1,1",
                                "--radius", "0.3", "--grid", "3"])
        assert doc["total"] == 4

    def test_tangency_count_at_the_cap_answers(self, runner):
        doc = _within(10, json_out, runner,
                      ["cp2", "tangency", "--expr", SADDLE, "--count", "601"])
        assert len({s["slope"] for s in doc["samples"]}) == 601

    def test_census_radius_at_the_top_of_the_doubles(self):
        proc = run_cli_process(["orbit-census", "--coeffs", "1",
                                "--radius", "1e308", "--grid", "4"])
        if proc.returncode == 0:
            assert proc.stderr == ""
            assert json.loads(proc.stdout)["total"] > 0
        else:
            assert proc.returncode == 1
            err = json.loads(proc.stderr)
            assert err["error"] == "float-overflow"
            jsonio.validate(err, "error")

    @pytest.mark.parametrize("alpha", ["i,1", "1+i,0", "1", "1,2,3"])
    def test_domain_error_bad_alpha(self, runner, alpha):
        # alpha must hold one real exponent per gamma
        result = runner.invoke(main, ["sectors", "--gamma", "1,2",
                                      "--alpha", alpha])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "degenerate-eigen-data"
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("args, code", [
        (["analyze", "--in", "lorenz.vf"], "variable-count-mismatch"),
        (["holonomy", "--in", "lorenz.vf"], "variable-count-mismatch"),
        (["blowup", "--in", "lorenz.vf"], "variable-count-mismatch"),
        (["cp2", "infinity", "--in", "lorenz.vf"], "variable-count-mismatch"),
        (["cp2", "tangency", "--slope", "1", "--in", "lorenz.vf"],
         "variable-count-mismatch"),
        # parses to a bare zero polynomial, not a field
        (["resolve", "--expr", "0*ddx+0*ddy"], "zero-input"),
    ])
    def test_domain_error_not_a_planar_field(self, runner, args, code):
        args = [str(shipped_corpus_root() / a) if a.endswith(".vf") else a
                for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == code
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("command", [
        ["analyze"], ["blowup"], ["linearize"], ["normal-form", "dulac"],
        ["holonomy"], ["first-integral"], ["resolve"], ["cp2", "degree"],
        ["cp2", "infinity"], ["cp2", "tangency"],
    ])
    def test_domain_error_not_a_field(self, runner, command):
        # a polynomial, not a vector field or 1-form: the same error
        # document and exit status from every command
        result = runner.invoke(main, command + ["--expr", "x^2"])
        assert result.exit_code == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"] == "wrong-class"
        jsonio.validate(err, "error")

    @pytest.mark.parametrize("source", SWEEP_SOURCES,
                             ids=["lorenz", "radial-form", "polynomial",
                                  "zero", "constant"])
    @pytest.mark.parametrize("command, schema", SWEEP_COMMANDS,
                             ids=[" ".join(c) for c, _ in SWEEP_COMMANDS])
    def test_every_input_ends_the_documented_way(self, runner, command,
                                                 schema, source):
        """Exit 0 with a valid document, exit 1 with a valid error
        document, or exit 2; never a traceback."""
        if source.endswith(".vf"):
            source = ["--in", str(shipped_corpus_root() / source)]
        else:
            source = ["--expr", source]
        result = runner.invoke(main, command + source)
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit), result.exc_info
        assert "Traceback" not in result.stderr
        if result.exit_code == 0:
            if schema == "dot":
                assert result.stdout.startswith("digraph resolution {")
            elif schema == "csv":
                assert result.stdout.startswith("slope,count\n")
            else:
                jsonio.validate(json.loads(result.stdout), schema)
        elif result.exit_code == 1:
            assert result.stdout == ""
            jsonio.validate(json.loads(result.stderr), "error")
        else:
            assert result.exit_code == 2

    def test_domain_error_blowup_budget(self, runner):
        # I_0 = 39800 at the origin: the budget, not the multiplicity
        # computation, ends the run
        result = runner.invoke(main, ["resolve", "--expr",
                                      "x^200*ddx + y^199*ddy"])
        assert result.exit_code == 1
        err = json.loads(result.stderr)
        assert err["error"] == "blowup-budget-exceeded"
        jsonio.validate(err, "error")

    def test_domain_error_resonance(self, runner):
        result = runner.invoke(main, ["linearize", "--expr",
                                      "x*ddx + 2*y*ddy + y^2*ddx"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "resonance-obstruction"


# ---------------------------------------------------------------------
# corpus runner
# ---------------------------------------------------------------------
class TestCorpus:
    def test_shipped_corpus_passes(self, runner):
        doc = json_out(runner, ["corpus", "run"])
        assert doc["failed"] == 0
        assert doc["total"] == 9
        jsonio.validate(doc, "corpus_report")

    def test_corpus_csv(self, runner):
        csv = invoke_ok(runner, ["corpus", "run", "--format", "csv"]).output
        lines = csv.strip().splitlines()
        assert lines[0] == "name,command,status"
        assert len(lines) == 10
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_corrupted_golden_fails_with_diff(self, runner, tmp_path):
        src = Path(str(shipped_corpus_root()))
        work = tmp_path / "corpus"
        shutil.copytree(src, work)
        golden = work / "jouanolou2.expected.json"
        doc = json.loads(golden.read_text())
        doc["expect"]["degree"] = 7
        golden.write_text(json.dumps(doc))
        result = runner.invoke(main, ["corpus", "run", "--dir", str(work)])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        failing = [c for c in report["cases"] if c["status"] == "fail"]
        assert [c["name"] for c in failing] == ["jouanolou2"]
        assert failing[0]["diffs"] == ["$.degree: 2 != expected 7"]

    def test_empty_directory_passes_with_warning(self, runner, tmp_path):
        result = runner.invoke(main, ["corpus", "run", "--dir",
                                      str(tmp_path)])
        assert result.exit_code == 0
        assert "no .vf cases" in result.stderr
        assert json.loads(result.stdout)["total"] == 0

    def test_runner_function_directly(self):
        report = corpus_run()
        assert report["passed"] == report["total"] == 9


class TestColdPath:
    # commands run one after another in one fresh interpreter, as a user's
    # shell would start them; none of them may load sympy or numpy: numpy
    # only vectorizes the orbit census, and fatou computes without it
    SCRIPT = """
import json, sys
from folsing.cli import main, shipped_corpus_root
root = shipped_corpus_root()
codes, loaded = [], {}
for args in (["analyze", "--in", str(root / "cusp.vf")],
             ["resolve", "--in", str(root / "cusp.vf")],
             ["holonomy", "--in", str(root / "euler.vf")],
             ["first-integral", "--in", str(root / "saddle_2_3.vf")],
             ["blowup", "--in", str(root / "hamiltonian_xy.vf")],
             ["cp2", "degree", "--in", str(root / "jouanolou2.vf")],
             ["corpus", "run"],
             ["fatou", "--coeffs", "1,1", "--z", "-0.05"]):
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
    loaded[args[0]] = sorted(m for m in ("numpy", "sympy") if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}), file=sys.stderr)
"""

    # the package namespace resolves without numpy until a census runs
    IMPORT_SCRIPT = """
import json, sys
import folsing
before = "numpy" in sys.modules
missing = [n for n in folsing.__all__ if not hasattr(folsing, n)]
from folsing import NumericGerm, fatou_coordinate, orbit_census
fatou_coordinate(NumericGerm([1, 1]), -0.05)
after_fatou = "numpy" in sys.modules
orbit_census(NumericGerm([1, 1]), 0.3, max_iter=10, grid=4)
print(json.dumps({"numpy_on_import": before, "missing": missing,
                  "numpy_after_fatou": after_fatou,
                  "numpy_after_census": "numpy" in sys.modules}),
      file=sys.stderr)
"""

    @staticmethod
    def _report(script):
        proc = run_python(["-c", script])
        return json.loads(proc.stderr.strip().splitlines()[-1])

    def test_exact_commands_import_neither_sympy_nor_numpy(self):
        report = self._report(self.SCRIPT)
        assert report["codes"] == [0] * 8
        loaded = report["loaded"]
        assert loaded == {name: [] for name in loaded}

    def test_package_import_defers_numpy(self):
        assert self._report(self.IMPORT_SCRIPT) == {
            "numpy_on_import": False, "missing": [],
            "numpy_after_fatou": False, "numpy_after_census": True}


class TestLazyModules:
    """The package registers every library module without running it, and a
    command runs only the modules it calls.  Each check starts a fresh
    interpreter, where no earlier test has run the modules yet."""

    # A registered module runs on its first attribute read, and becomes a
    # plain module then; type() reads no attribute.
    STATE = """
import json, sys, types
def registered():
    return sorted(n[len("folsing."):] for n in sys.modules
                  if n.startswith("folsing."))
def ran():
    return sorted(n[len("folsing."):] for n, m in sys.modules.items()
                  if n.startswith("folsing.") and type(m) is types.ModuleType)
"""
    IMPORT_SCRIPT = STATE + """
import folsing.cli
print(json.dumps({"registered": registered(), "ran": ran()}), file=sys.stderr)
"""
    FATOU_SCRIPT = STATE + """
from folsing.cli import main
try:
    main(["fatou", "--coeffs", "1,1", "--z", "-0.05"])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "ran": ran()}), file=sys.stderr)
"""
    NAMES_SCRIPT = STATE + """
import folsing
from folsing import jsonio
report = {"ran_on_import": ran(),
          "jsonio": jsonio is sys.modules["folsing.jsonio"]}
report["resolve"] = [folsing.resolve.__module__, folsing.resolve.__name__]
report["ran_after_resolve"] = ran()
report["missing"] = [n for n in folsing.__all__ if not hasattr(folsing, n)]
print(json.dumps(report), file=sys.stderr)
"""
    LIBRARY = sorted(p.stem for p in Path(folsing.__file__).parent.glob("*.py")
                     if p.stem not in ("__init__", "cli"))
    # what the command table and its shared helpers need
    CLI_IMPORTS = ["cli", "errors", "local", "parsing", "poly", "scalars",
                   "towers", "zassenhaus"]

    def test_cli_import_registers_every_module_and_runs_few(self):
        report = TestColdPath._report(self.IMPORT_SCRIPT)
        assert report["registered"] == sorted(self.LIBRARY + ["cli"])
        assert report["ran"] == self.CLI_IMPORTS

    def test_fatou_runs_no_exact_module_it_does_not_call(self):
        report = TestColdPath._report(self.FATOU_SCRIPT)
        assert report["code"] == 0
        assert report["ran"] == sorted(self.CLI_IMPORTS + ["fatou", "jsonio"])

    def test_package_names_resolve_on_first_read(self):
        report = TestColdPath._report(self.NAMES_SCRIPT)
        # the function, which shadowed the module when it was re-exported
        assert report["resolve"] == ["folsing.resolve", "resolve"]
        assert report["ran_on_import"] == []
        assert report["jsonio"] is True
        assert {"resolve", "blowup", "local"} <= set(report["ran_after_resolve"])
        assert not {"fatou", "cp2", "holonomy", "normalforms", "jsonio"} & set(
            report["ran_after_resolve"])
        assert report["missing"] == []

    # one command line per leaf of the command table
    COMMANDS = {
        "analyze": ["--expr", CUSP],
        "blowup": ["--expr", HAMILTONIAN],
        "resolve": ["--expr", CUSP],
        "linearize": ["--expr", "2*x*ddx + (3*y + x^2)*ddy", "--order", "4"],
        "normal-form": ["resonant", "--expr", "x*ddx + (2*y + x^2)*ddy"],
        "holonomy": ["--expr", EULER],
        "first-integral": ["--expr", SADDLE],
        "cp2 degree": ["--expr", JOUANOLOU2],
        "cp2 infinity": ["--expr", JOUANOLOU2],
        "cp2 tangency": ["--expr", JOUANOLOU2, "--slope", "-5/7"],
        "cp2 dimension": ["--degree", "3"],
        "gen jouanolou": ["--degree", "3"],
        "gen riccati-template": ["--base-degree", "5"],
        "sectors": ["--gamma", "1,i"],
        "fatou": ["--coeffs", "1,1", "--z", "-0.05"],
        "orbit-census": ["--coeffs", "1,1", "--radius", "0.3",
                         "--max-iter", "100", "--grid", "6"],
        "corpus run": [],
    }

    def test_every_command_has_a_line(self):
        def leaves(group, prefix):
            for name, command in group.commands.items():
                if isinstance(command, click.Group):
                    yield from leaves(command, prefix + [name])
                else:
                    yield " ".join(prefix + [name])

        assert sorted(leaves(main, [])) == sorted(self.COMMANDS)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_first_command_of_a_process_answers_as_in_process(self, runner,
                                                              command):
        # a module that runs too late, or not at all, shows here: in this
        # process every module has long been loaded
        args = command.split() + self.COMMANDS[command]
        fresh = run_cli_process(args)
        here = runner.invoke(main, args)
        assert fresh.returncode == 0, fresh.stderr
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
            here.exit_code, here.stdout, here.stderr)


# ---------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------
class TestJsonIO:
    def test_dumps_sorted_and_newline(self):
        text = jsonio.dumps({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_exact_scalars_become_strings(self):
        from fractions import Fraction

        from folsing.scalars import GaussianRational

        data = jsonio.to_jsonable({"q": Fraction(5, 2),
                                   "g": GaussianRational(1, 2),
                                   "z": complex(1.5, -2.0)})
        assert data["q"] == "5/2"
        assert isinstance(data["g"], str)
        assert data["z"] == [1.5, -2.0]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       complex(0, float("-inf"))])
    def test_dumps_refuses_non_finite(self, value):
        with pytest.raises(ValueError):
            jsonio.dumps({"v": value})

    def test_diff_json_reports_paths(self):
        diffs = jsonio.diff_json({"a": [1, 2], "b": "x"},
                                 {"a": [1, 3], "b": "x", "c": 0})
        assert any(d.startswith("$.a[1]:") for d in diffs)
        assert any("unexpected key" in d for d in diffs)

    def test_diff_json_float_tolerance(self):
        assert jsonio.diff_json({"v": 0.1}, {"v": 0.1 + 1e-13}) == []
        assert jsonio.diff_json({"v": 0.1}, {"v": 0.2}) != []

    def test_diff_json_converts_toolkit_objects_and_keeps_message_order(self):
        expected = {"b": {"q": Fraction(1, 2), "r": [1, 2]},
                    "a": (GaussianRational(1, 2), 0.5), "d": True}
        actual = {"a": ["1+2*i", 0.25], "b": {"r": [1, 2, 3], "s": None},
                  3: 1, "d": 1}
        assert jsonio.diff_json(expected, actual, "doc") == [
            "doc.a[1]: 0.25 != expected 0.5",
            "doc.b.q: missing from actual output",
            "doc.b.r: length 3 != expected 2",
            "doc.b.s: unexpected key (value None)",
            "doc.d: 1 != expected True",
            "doc.3: unexpected key (value 1)",
        ]

    def test_schema_inventory(self):
        names = jsonio.schema_names()
        assert "analysis" in names and "error" in names
        assert len(names) == 16
