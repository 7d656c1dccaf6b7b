"""One benchmark process: set up, run one job list, check it, report.

Started by run.py, never directly.  It prints ``READY`` once set-up is
done (run.py times that moment), then, unless ``--setup-only``, runs the
job list in one closed loop, reads its peak resident set size, checks every
output and prints one JSON line:

    {"jobs": [...], "metrics": {...}}

With ``--trace 1`` the timed loop runs under the tracer and the metrics are
the per-layer ones.

Reference speed.  On the shared 2-core virtual machine the figures in
README.md come from, the CPU switches between two speeds about 1.7x apart,
often several times a second, so that identical runs took from 21 s to
30 s; the ratio of a job's time to that of a fixed reference loop run in
between stayed within about 5-8%.  So while the jobs run, a timer signal
runs a short reference loop every SAMPLE_EVERY_S, in the middle of long
jobs too, and every job time reported is its wall time, less the loops
run inside it, scaled by REFERENCE_S over the mean time of the loops run
during that job (or of the LOCAL_SAMPLES nearest it): seconds at that
machine's usual speed.  The more samples fall in a job, the closer their
mean follows the time the job spent at each speed.  Raw wall times are
kept in the result file.

Set-up is sampled the same way, from the start of main() to READY, with a
loop of pure interpreter work every SETUP_SAMPLE_EVERY_S (set-up is
mostly imports, and numpy is not loaded yet when it starts).  The worker
reports the time its loops took and REFERENCE_SETUP_LOOP_S over their
trimmed mean; run.py scales the time to READY, less those loops, by it.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

REFERENCE_S = 0.0006  # about the reference loop's time in that machine's slow spells
SAMPLE_EVERY_S = 0.025
LOCAL_SAMPLES = 12
REFERENCE_SETUP_LOOP_S = 0.0008  # the same for setup_loop
SETUP_SAMPLE_EVERY_S = 0.025


def reference_loop() -> float:
    """Seconds taken by a fixed mix of small numpy operations and interpreter
    work, the same mix the jobs spend their time on; it does not touch finiteq."""
    import numpy as np

    a = np.arange(64.0)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(50):
        acc += float(np.sum(np.exp(-a * 1e-3 * i) * a)) + sum(k * k for k in range(30))
    return time.perf_counter() - t0


def setup_loop() -> float:
    """Seconds taken by a fixed piece of pure interpreter work."""
    t0 = time.perf_counter()
    sum(k * k for k in range(10000))
    return time.perf_counter() - t0


def trimmed_mean(values) -> float:
    """Mean with the slowest and the fastest tenth left out."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


class SpeedSampler:
    """Runs `loop` from a SIGALRM handler every `every` seconds, between two
    bytecodes of whatever job is running; `spent` is the wall time the
    handler took, to be left out of the job's time."""

    def __init__(self, loop=reference_loop, every=SAMPLE_EVERY_S):
        self.loop, self.every = loop, every
        self.at: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.loop_s.append(self.loop())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean time of the loops run between t0 and t1,
        or of the LOCAL_SAMPLES nearest that span if fewer ran in it; the
        slowest and the fastest tenth left out."""
        distance = [max(t0 - at, at - t1) for at in self.at]  # <= 0 inside the span
        inside = [c for c, dist in zip(self.loop_s, distance) if dist <= 0]
        if len(inside) < LOCAL_SAMPLES:
            nearest = sorted(range(len(distance)), key=distance.__getitem__)[:LOCAL_SAMPLES]
            inside = [self.loop_s[i] for i in nearest]
        return REFERENCE_S / trimmed_mean(inside)


def run_jobs(jobs):
    """Run every job once, in order, one after another.  Each record holds
    the job's wall time (`raw_seconds`) and that time at reference speed
    (`seconds`).  Returns the records and the reference-loop times."""
    records = []
    with SpeedSampler() as speed:
        for job in jobs:
            t0, spent0 = time.perf_counter(), speed.spent
            try:
                out, error = job.run(), None
            except Exception as exc:  # a failed job is recorded, the list goes on
                out, error = None, f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
            t1 = time.perf_counter()
            records.append({"job": job, "out": out, "error": error, "span": (t0, t1),
                            "raw_seconds": t1 - t0 - (speed.spent - spent0)})
        while len(speed.loop_s) < LOCAL_SAMPLES:  # a list shorter than a second
            speed._tick(None, None)
    for rec in records:
        rec["seconds"] = rec["raw_seconds"] * speed.scale(*rec.pop("span"))
    return records, speed.loop_s


def check(record) -> "str | None":
    job = record["job"]
    try:
        return job.verify(job.read(record["out"]))
    except Exception as exc:  # an output the checker cannot even read is wrong
        return f"unreadable output: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    scratch = ROOT / ".bench_results"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=scratch))
    try:
        with SpeedSampler(setup_loop, SETUP_SAMPLE_EVERY_S) as speed:
            import workloads

            jobs, warm = workloads.WORKLOADS[args.workload](args.seed, work)
            if args.smoke:
                jobs = workloads.smoke(jobs)
            warm()
            if not speed.loop_s:  # a set-up shorter than one period
                speed._tick(None, None)
        print("READY", flush=True)
        setup = {"setup_loop_s": speed.loop_s, "setup_loop_spent_s": speed.spent,
                 "setup_scale": REFERENCE_SETUP_LOOP_S / trimmed_mean(speed.loop_s)}
        if args.setup_only:
            print(json.dumps(setup), flush=True)
            return 0

        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            records, loop_s = run_jobs(jobs)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for rec in records:
            rec["check"] = None if rec["error"] else check(rec)
        solved = sum(1 for r in records if not r["error"] and not r["check"])
        wall = sum(r["seconds"] for r in records)
        raw_wall = sum(r["raw_seconds"] for r in records)
        if tracer:
            metrics = tracer.metrics()
            if args.trace_out:
                tracer.write(args.trace_out)
        else:
            metrics = {
                "solved_per_s": {"value": solved / wall, "unit": "1/s"},
                "job_s_p50": {"value": statistics.median(r["seconds"] for r in records), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        report = {
            **setup,
            "wall_s": wall,
            "raw_wall_s": raw_wall,
            "raw_job_s_p50": statistics.median(r["raw_seconds"] for r in records),
            "reference_loop_s": loop_s,
            "absent": tracer.absent if tracer else [],
            "jobs": [{"class": r["job"].cls, "name": r["job"].name, "seconds": r["seconds"],
                      "raw_seconds": r["raw_seconds"], "error": r["error"], "check": r["check"],
                      "fault": r["job"].fault}
                     for r in records],
            "metrics": metrics,
        }
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
