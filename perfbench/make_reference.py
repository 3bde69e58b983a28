#!/usr/bin/env python3
"""Regenerate the reference outputs of the default seed.

Run from the root of a folsing checkout, only when a change is meant to
alter the program's output or the job generators:

    python3 perfbench/make_reference.py [--workload NAME ...]

Each job's output must first pass every schema and certificate check.
"""

import argparse
import json
import sys

import run
import workloads

# More jobs than one run of the benchmark reaches on the machine it was
# calibrated on; jobs past the stored prefix get the seed-independent checks.
REFERENCE_JOBS = {"conjugacy": 300, "resolution": 120, "cli_cold": 60,
                  "parabolic": 400}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=sorted(REFERENCE_JOBS))
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    from folsing import jsonio

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload or sorted(REFERENCE_JOBS):
        execute = (run.InProcess() if workload in workloads.IN_PROCESS
                   else run.Child())
        jobs = workloads.job_list(workload, run.DEFAULT_SEED,
                                  REFERENCE_JOBS[workload])
        records = run.run_jobs(jobs, execute, run.timing.CalibratedClock())
        failures, overruns = run.check_records(records, [], jsonio)
        if failures or overruns:
            for rec, problems in failures:
                print(f"failed: {rec.job.key()}: {problems}", file=sys.stderr)
            for rec in overruns:
                print(f"budget overrun: {rec.job.key()}", file=sys.stderr)
            return 1
        entries = [run.checks.reference_entry(r.job, r.code, r.stdout)
                   for r in records]
        path = run.REFERENCE_DIR / f"{workload}.json"
        lines = ",\n".join(json.dumps(e, separators=(",", ":"))
                            for e in entries)
        path.write_text(f'{{"seed": {run.DEFAULT_SEED}, "jobs": [\n{lines}\n]}}\n')
        print(f"{path}: {len(entries)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
