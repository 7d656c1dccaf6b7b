#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 benchmarks/selftest.py

For each workload it runs the smoke job list (one job of each class, as
``run.py --smoke`` does) and asserts that

* every job that hits no kept fault runs and passes its check;
* every deliberately wrong output -- a perturbed rebuilt state, a zero set
  with one zero moved, a scalar product off by 1e-4, a NaN -- is rejected
  by the check of every job it applies to, and each applies to some job.

A later change to finiteq therefore cannot pass the benchmark by returning
a wrong answer fast.  Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import worker  # sets the thread pools and the import path before numpy loads

import numpy as np  # noqa: E402

import workloads  # noqa: E402

FAULTS = ("state", "zero", "scalar", "nan")


def corrupt(values: dict, fault: str, rng) -> "dict | None":
    """A deliberately wrong copy of a job's output, or None if the fault does
    not apply to it.  The self-test checks that `verify` rejects each one."""
    v = dict(values)
    if fault == "state" and "state" in v:
        s = np.array(v["state"], dtype=complex)
        v["state"] = s + 1e-2 * np.linalg.norm(s) * workloads._random_state(rng, s.size)
    elif fault == "zero" and "zeros" in v:
        z = np.array(v["zeros"], dtype=complex)
        z[0] += 1e-2
        v["zeros"] = z
    elif fault == "scalar" and "scalar" in v:
        v["scalar"] = v["scalar"] + 1e-4
    elif fault == "nan":
        key = next(iter(v))
        a = np.array(v[key], dtype=complex)
        a.flat[0] = np.nan
        v[key] = a if a.ndim else complex(a)
    else:
        return None
    return v


def main() -> int:
    problems, notes = [], []
    applied = dict.fromkeys(FAULTS, 0)
    rng = np.random.default_rng(0)
    scratch = worker.ROOT / ".bench_results"
    scratch.mkdir(exist_ok=True)
    for name, build in workloads.WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=scratch))
        try:
            jobs, _ = build(1, work)
            records, _ = worker.run_jobs(workloads.smoke(jobs))
            for rec in records:
                job = rec["job"]
                if rec["error"]:
                    if not job.fault:
                        problems.append(f"{job.name}: failed outside the kept faults: {rec['error']}")
                    continue
                if job.fault:
                    notes.append(f"{job.name}: no longer hits '{job.fault}'")
                values = job.read(rec["out"])
                error = job.verify(values)
                if error:
                    problems.append(f"{job.name}: correct output rejected: {error}")
                for fault in FAULTS:
                    wrong = corrupt(values, fault, rng)
                    if wrong is None:
                        continue
                    applied[fault] += 1
                    if not job.verify(wrong):
                        problems.append(f"{job.name}: wrong output ({fault}) accepted")
            print(f"{name}: {len(records)} smoke jobs checked")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    problems += [f"wrong output '{f}' applies to no smoke job" for f, n in applied.items() if not n]
    for line in notes:
        print(f"note: {line}")
    for line in problems:
        print(f"FAIL: {line}")
    print(f"{'FAIL' if problems else 'PASS'}: wrong outputs rejected per kind: {applied}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
