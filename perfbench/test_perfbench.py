"""Self-tests of the benchmark harness.

Run from the root of a folsing checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

They take about two minutes: every workload is run once for one second,
untraced and traced.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
from folsing import jsonio  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)


def _keys(workload, seed, count=40):
    return [job.key() for job in workloads.job_list(workload, seed, count)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_job_list(workload):
    assert _keys(workload, 3) == _keys(workload, 3)
    assert _keys(workload, 3) != _keys(workload, 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    for trace, expected in ((0, dict(run.END_TO_END)),
                            (1, run.per_layer_units())):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name in expected:
            assert name in proc.stdout.split("\n", 1)[1]


def _traced_and_untraced(workload, count):
    jobs = workloads.job_list(workload, 7, count)
    clock = timing.CalibratedClock()
    in_process = workload in workloads.IN_PROCESS
    execute = run.InProcess() if in_process else run.Child()
    plain = run.run_jobs(jobs, execute, clock)
    traced, _ = run.run_traced(plain, execute, workload)
    return plain, traced


@pytest.mark.parametrize("workload,count", [("conjugacy", 6),
                                            ("resolution", 12),
                                            ("cli_cold", 4),
                                            ("parabolic", 6)])
def test_traced_stdout_identical(workload, count):
    plain, traced = _traced_and_untraced(workload, count)
    for a, b in zip(plain, traced):
        assert (a.code, a.stdout, a.stderr) == (b.code, b.stdout, b.stderr)


def test_spans_nest_and_self_times_add_up():
    execute = run.InProcess()
    jobs = workloads.job_list("resolution", 2, 12)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for job in jobs:
            tracer.run_job(job.id, lambda: execute(job))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    n = len(tracer.names)
    assert n > len(jobs)
    for i in range(n):
        p = tracer.parents[i]
        assert tracer.starts[i] <= tracer.ends[i]
        if p >= 0:
            assert tracer.starts[p] <= tracer.starts[i]
            assert tracer.ends[i] <= tracer.ends[p]
            assert tracer.jobs[i] == tracer.jobs[p]
        else:
            assert tracer.names[i] == 0  # only job roots lack a parent
    self_times = tracer.self_times()
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= wall
    # uninstall restores every original function
    assert not hasattr(sys.modules["folsing.resolve"].resolve, "__wrapped__")
    assert not hasattr(sys.modules["folsing.cli"].classify_singularity,
                       "__wrapped__")


def test_corrupted_reference_is_a_failed_job():
    reference = run.load_reference("conjugacy", run.DEFAULT_SEED)
    assert reference, "reference outputs for the default seed are missing"
    jobs = workloads.job_list("conjugacy", run.DEFAULT_SEED, 2)
    records = run.run_jobs(jobs, run.InProcess(), timing.CalibratedClock())
    failures, overruns = run.check_records(records, reference, jsonio)
    assert not failures and not overruns
    corrupted = [dict(entry) for entry in reference]
    corrupted[1]["stdout"] = checks.digest("tampered")
    failures, _ = run.check_records(records, corrupted, jsonio)
    assert [rec.job.id for rec, _ in failures] == [1]


def test_parabolic_reference_uses_float_tolerance():
    jobs = workloads.job_list("parabolic", run.DEFAULT_SEED, 1)
    records = run.run_jobs(jobs, run.InProcess(), timing.CalibratedClock())
    entry = checks.reference_entry(records[0].job, 0, records[0].stdout)
    value = entry["doc"]["estimate"]["value"]
    value[0] *= 1 + 1e-12
    assert not checks.check(records[0].job, 0, records[0].stdout, "", jsonio,
                            entry)
    value[0] *= 1 + 1e-6
    assert checks.check(records[0].job, 0, records[0].stdout, "", jsonio,
                        entry)


def test_known_hang_is_a_listed_budget_overrun():
    job = workloads.make_job(0, ["resolve", "--expr",
                                 "2*y*ddx + 7*x^6*ddy"])
    execute = run.InProcess(budget_s=0.5)
    records = run.run_jobs([job], execute, timing.CalibratedClock())
    failures, overruns = run.check_records(records, [], jsonio)
    assert not failures
    assert [rec.job.key() for rec in overruns] == [job.key()]


def test_documented_error_passes_and_traceback_fails():
    execute = run.InProcess()
    error = workloads.make_job(0, ["resolve", "--expr", "x*ddx + (1/0)*ddy"])
    code, out, err = execute(error)
    assert code == 1 and out == ""
    assert checks.check(error, code, out, err, jsonio) == []
    assert checks.check(error, 1, out, "not json", jsonio)
    assert checks.check(error, "raised", out, "TypeError: x", jsonio)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "conjugacy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
