#!/usr/bin/env python3
"""finiteq benchmark: fixed seeded job lists, checked, timed end to end.

    python3 benchmarks/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0

Workloads: roundtrip, cell-analytic, from-zeros (see README.md).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: with ``--trace 0`` the end-to-end metrics
setup_s, solved_per_s, job_s_p50 and peak_rss_mb, with ``--trace 1`` the
per-layer metrics of a traced run.  ``--smoke`` runs one job of each class.

Each measurement is a fresh Python process (worker.py), which sets the BLAS
and OpenMP pools to one thread before numpy loads.  Set-up is timed from the
start of that process to the moment it is ready to run jobs, less the
reference loops it runs, and scaled to the reference speed described in
worker.py by the loops run at the start and at the end of set-up.  Besides
the measuring process, run.py starts SETUP_SAMPLES - 1 processes that only
set up, half before it and half after, and reports the median.  Job times
are scaled to the reference speed too.  ``--seconds`` is accepted and does
not change the job list: every run executes its list once, in full.
A copy of the result, with every job's time and outcome, goes to
.bench_results/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 900
WORKLOADS = ("roundtrip", "cell-analytic", "from-zeros")


def spawn(argv):
    """Run worker.py; returns (seconds until it printed READY, its last line as JSON)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(argv)} failed with exit code {proc.returncode}")
    return ready, json.loads(last)


def setup_seconds(ready: float, report: dict) -> float:
    """Set-up time at reference speed, from the time to READY of a worker."""
    return (ready - report["setup_loop_spent_s"]) * report["setup_scale"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15, help="accepted; the job list does not depend on it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one job of each class")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "finiteq" / "__init__.py").is_file():
        print(f"error: finiteq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    child = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)] + \
        (["--smoke"] if args.smoke else [])
    if args.trace:
        child += ["--trace-out", str(results / f"spans-{stem}.npz")]

    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        samples = [spawn(child + ["--setup-only"]) for _ in range(extra // 2)]
        ready, report = spawn(child)
        samples += [spawn(child + ["--setup-only"]) for _ in range(extra - extra // 2)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples.append((ready, report))
    setup = [setup_seconds(*s) for s in samples]

    jobs = report["jobs"]
    failed = [j for j in jobs if j["error"]]
    unexpected = [j for j in failed if not j["fault"]]
    wrong = [j for j in jobs if j["check"]]
    metrics = report["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    report.update(setup_samples_s=setup, raw_setup_samples_s=[s[0] for s in samples],
                  metrics=metrics)
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))

    for j in failed:
        kept = f"kept: {j['fault']}" if j["fault"] else "NOT a kept failure"
        print(f"failed  {j['name']}  ({kept})  {j['error'][:160]}")
    for j in wrong:
        print(f"WRONG   {j['name']}  {j['check']}")
    if report["absent"]:
        print(f"absent from finiteq, reported as 0: {', '.join(report['absent'])}")
    print(f"{args.workload}: {len(jobs)} jobs, {report['wall_s']:.2f} s at reference speed; "
          f"details in {results.name}/{stem}.json")
    # a job outside the kept faults that raises makes the run incorrect, so
    # that failing fast cannot pass for solving fast
    print(json.dumps({"correct": not wrong and not unexpected, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
