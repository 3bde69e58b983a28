#!/usr/bin/env python3
"""folsing benchmark: closed loop, one caller, one workload per run.

Run from the root of a folsing checkout:

    python3 perfbench/run.py --workload conjugacy --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced re-run of the same jobs.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the lines
before it are a human-readable summary.  See perfbench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import timing  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Per-job budgets in wall seconds.  No job of the four workloads comes near
# them; an overrun is a failed job, listed by its input (README: hangs).
IN_PROCESS_BUDGET_S = 10.0
CHILD_BUDGET_S = 30.0
# The traced run first runs untraced for this share of --seconds, then
# re-runs exactly those jobs traced.
TRACE_UNTRACED_SHARE = 1 / 3

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
]

IMPORTS = ("folsing", "sympy", "numpy", "click")

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import folsing.cli
from folsing.scalars import GaussianRational
from folsing.towers import FieldTower, factor_univariate
factor_univariate([GaussianRational(-2), GaussianRational(0),
                   GaussianRational(1)], FieldTower())
print(time.perf_counter() - t0)
"""

# Probe for work done in child processes: process start-up and imports
# track the machine's state better than the in-process kernel does (per-job
# spread 5% against 11% over six passes of the cli_cold round).
PROBE_CHILD = ["-c", "import numpy, click, fractions"]
PROBE_CHILD_NOMINAL_S = 0.25


def per_layer_units():
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in tracing.SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name, *_ in tracing.COUNTER_TARGETS:
        units[name + ".calls"] = "count"
    for name in tracing.VALUE_METRICS:
        units[name] = "count"
    units["scalars.max_coeff_bits"] = "bits"
    for module in IMPORTS:
        units[f"import.{module}_s"] = "s"
    units["machine.cal_ms_p50"] = "ms"
    units["machine.wall_jobs_per_s"] = "jobs/s"
    units["trace.overhead_ratio"] = "1"
    return units


class BudgetExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so folsing's handlers pass it on."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")


def import_times(stderr):
    """Cumulative import seconds of the top-level packages in IMPORTS."""
    out = {module: 0.0 for module in IMPORTS}
    for cumulative, name in _IMPORT_LINE.findall(stderr):
        top = name.split(".")[0]
        if top in out and "." not in name:
            out[top] += int(cumulative) / 1e6
        elif name == "folsing.cli":
            out["folsing"] += int(cumulative) / 1e6
    return out


def time_probe_child():
    t0 = time.perf_counter()
    subprocess.run([sys.executable] + PROBE_CHILD, cwd=ROOT, env=child_env(),
                   capture_output=True, timeout=CHILD_BUDGET_S, check=True)
    return time.perf_counter() - t0


def child_clock():
    return timing.CalibratedClock(time_probe_child, PROBE_CHILD_NOMINAL_S)


def make_clock(workload):
    """A clock whose probe does the same kind of work as the workload.

    The ``Fraction`` kernel tracks exact arithmetic but not the parabolic
    jobs: over five passes of the same 144 parabolic jobs, p90 calibrated by
    it ranged 27%, by the complex kernel 1.7%.
    """
    if workload not in workloads.IN_PROCESS:
        return child_clock()
    if workload == "parabolic":
        return timing.CalibratedClock(timing.time_float_kernel,
                                      timing.FLOAT_KERNEL_NOMINAL_S)
    return timing.CalibratedClock()


def measure_setup(trace):
    """Median calibrated time of fresh-process import plus lazy warm-up."""
    samples, imports = [], []
    argv = [sys.executable] + (["-X", "importtime"] if trace else []) \
        + ["-c", SETUP_CODE]
    clock = child_clock()
    for _ in range(SETUP_REPEATS):
        proc, raw, cal = clock.measure(lambda: subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_BUDGET_S, check=True))
        samples.append(float(proc.stdout) * cal / raw)
        if trace:
            imports.append(import_times(proc.stderr))
    medians = {f"import.{m}_s": statistics.median(i[m] for i in imports)
               for m in IMPORTS} if trace else {}
    return statistics.median(samples), medians


# ---------------------------------------------------------------------------
# executing one job
# ---------------------------------------------------------------------------
class InProcess:
    """Calls ``folsing.cli.main`` inside this process."""

    def __init__(self, budget_s=IN_PROCESS_BUDGET_S):
        import folsing.cli
        self.cli = folsing.cli
        self.budget_s = budget_s
        signal.signal(signal.SIGALRM, _on_alarm)

    def __call__(self, job):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        signal.setitimer(signal.ITIMER_REAL, self.budget_s)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                self.cli.main.main(job.argv, prog_name="folsing",
                                   standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except BudgetExceeded:
            code = "budget"
        except Exception as exc:  # a traceback is a failed job, not a crash
            code = "raised"
            err.write(f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return code, out.getvalue(), err.getvalue()


class Child:
    """Runs each job as a fresh ``python -m folsing.cli`` process."""

    def __init__(self, traced=False, budget_s=CHILD_BUDGET_S):
        self.traced = traced
        self.budget_s = budget_s
        self.layer = {}

    def __call__(self, job):
        if not self.traced:
            argv = [sys.executable, "-m", "folsing.cli"] + job.argv
            return self._run(argv, ())
        read_fd, write_fd = os.pipe()
        try:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(write_fd)] + job.argv
            result = self._run(argv, (write_fd,))
            os.close(write_fd)
            write_fd = -1
            with os.fdopen(read_fd, "r") as pipe:
                read_fd = -1
                text = pipe.read()
            if text:
                tracing.merge_metrics(self.layer, json.loads(text))
            return result
        finally:
            for fd in (read_fd, write_fd):
                if fd >= 0:
                    os.close(fd)

    def _run(self, argv, pass_fds):
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True,
                                  timeout=self.budget_s, pass_fds=pass_fds)
        except subprocess.TimeoutExpired:
            return "budget", "", ""
        return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
class Record:
    __slots__ = ("job", "code", "stdout", "stderr", "raw_s", "cal_s")

    def __init__(self, job, outcome, raw_s, cal_s):
        self.job = job
        self.code, self.stdout, self.stderr = outcome
        self.raw_s = raw_s
        self.cal_s = cal_s


def run_jobs(jobs, execute, clock, seconds=None, round_size=1):
    """Run jobs one after another, each after the previous one completed.

    With ``seconds``, stop at the first round boundary after that much wall
    time, so that every run holds whole rounds of its workload.
    """
    records = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    for job in jobs:
        if deadline is not None and len(records) % round_size == 0 \
                and records and time.perf_counter() >= deadline:
            break
        outcome, raw, cal = clock.measure(lambda: execute(job))
        records.append(Record(job, outcome, raw, cal))
    return records


def load_reference(workload, seed):
    path = REFERENCE_DIR / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return []
    return json.loads(path.read_text())["jobs"]


def check_records(records, reference, jsonio):
    """Return ([(record, problems)] of failed checks, [budget overruns])."""
    failures, overruns = [], []
    for rec in records:
        if rec.code == "budget":
            overruns.append(rec)
            continue
        ref = reference[rec.job.id] if rec.job.id < len(reference) else None
        problems = checks.check(rec.job, rec.code, rec.stdout, rec.stderr,
                                jsonio, ref)
        if problems:
            failures.append((rec, problems))
    return failures, overruns


def end_to_end(records, setup_s, overruns, failures, children):
    cal = [r.cal_s for r in records]
    ok = len(records) - len(overruns) - len(failures)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children
                               else resource.RUSAGE_SELF)
    return {
        "setup_s": setup_s,
        "jobs_per_s": ok / sum(cal),
        "job_p50_s": statistics.median(cal),
        "job_p90_s": statistics.quantiles(cal, n=10, method="inclusive")[8],
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def per_layer(untraced, traced, layer, clock, imports):
    metrics = dict(layer)
    metrics["scalars.max_coeff_bits"] = max(
        (checks.max_coeff_bits(r.job, r.stdout) for r in untraced), default=0)
    metrics.update(imports)
    metrics["machine.cal_ms_p50"] = clock.probe_median_s() * 1e3
    metrics["machine.wall_jobs_per_s"] = (
        len(untraced) / sum(r.raw_s for r in untraced))
    metrics["trace.overhead_ratio"] = (
        sum(r.cal_s for r in traced) / sum(r.cal_s for r in untraced))
    return metrics


def print_summary(workload, seed, records, failures, overruns, metrics,
                  units):
    print(f"# folsing benchmark: workload={workload} seed={seed} "
          f"jobs={len(records)}")
    for name, value in metrics.items():
        print(f"{name:<52} {value:>14.6g} {units[name]}")
    fail_ratio = (len(failures) + len(overruns)) / len(records)
    print(f"{'fail_ratio':<52} {fail_ratio:>14.6g} 1")
    for rec in overruns:
        print(f"budget overrun: folsing {rec.job.key()}")
    for rec, problems in failures:
        print(f"failed: folsing {rec.job.key()}: {'; '.join(problems)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "folsing" / "cli.py").is_file():
        print(f"error: no folsing sources under {SRC}", file=sys.stderr)
        return 2

    # One core for the benchmark and its children, so the calibration
    # kernel runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s, imports = measure_setup(args.trace)
    sys.path.insert(0, str(SRC))
    from folsing import jsonio

    in_process = args.workload in workloads.IN_PROCESS
    if in_process:
        execute = InProcess()
        execute(workloads.make_job(-1, ["resolve", "--expr",
                                        "2*y*ddx + 3*x^2*ddy"]))
    else:
        execute = Child()
    clock = make_clock(args.workload)
    jobs = workloads.GENERATORS[args.workload](args.seed)
    round_size = workloads.ROUND[args.workload]
    reference = load_reference(args.workload, args.seed)

    if not args.trace:
        records = run_jobs(jobs, execute, clock, args.seconds, round_size)
        failures, overruns = check_records(records, reference, jsonio)
        metrics = end_to_end(records, setup_s, overruns, failures,
                             not in_process)
        units = dict(END_TO_END)
    else:
        records = run_jobs(jobs, execute, clock,
                           args.seconds * TRACE_UNTRACED_SHARE, round_size)
        failures, overruns = check_records(records, reference, jsonio)
        traced, layer = run_traced(records, execute, args.workload)
        for rec, again in zip(records, traced):
            if (rec.code, rec.stdout, rec.stderr) != \
                    (again.code, again.stdout, again.stderr):
                failures.append((again, ["traced output differs"]))
        metrics = per_layer(records, traced, layer, clock, imports)
        units = per_layer_units()
        metrics = {name: metrics[name] for name in units}

    print_summary(args.workload, args.seed, records, failures, overruns,
                  metrics, units)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures) + len(overruns),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_traced(records, execute, workload):
    """Re-run the jobs of ``records`` with the tracer installed."""
    jobs = [r.job for r in records]
    clock = make_clock(workload)
    if workload not in workloads.IN_PROCESS:
        child = Child(traced=True)
        traced = run_jobs(jobs, child, clock)
        scale = clock.nominal_s / clock.probe_median_s()
        layer = {k: v * scale if k.endswith("_s") else v
                 for k, v in child.layer.items()}
        return traced, layer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_jobs(
            jobs, lambda job: tracer.run_job(job.id, lambda: execute(job)),
            clock)
    finally:
        tracer.uninstall()
    scale = clock.nominal_s / clock.probe_median_s()
    return traced, tracer.metrics(scale)


if __name__ == "__main__":
    sys.exit(main())
