"""The benchmark's three job lists and the checks on their outputs.

A job is one closed-loop call into finiteq (``run``, timed) whose output is
checked only after the whole list has run (``read`` then ``verify``,
untimed).  Checks compare against computations made apart from finiteq
(``oracles.py``: mpmath ``jtheta``, the dual theta series, numpy sums, the
Hermite recurrence) or against properties the method must have (total
multiplicity d, the lattice rule, round trips).  No check compares against
a stored copy of an earlier output.

Inputs come from the workload seed.  Some inputs are fixed instead: those
on which the program hits a named fault every time (kept, counted as
failed) and those whose outcome would otherwise depend on the seed (see the
README).  Either way the jobs that fail are the same in every run.

The calls go through names exported by ``finiteq/__init__.py``, plus
``finiteq.cli.main`` and ``finiteq.serialization``, looked up at call time
so that the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import finiteq as fq
from finiteq import cli

import oracles

LAM = 1.0

# Radius, as a share of the cell height, of the circle that the vanishing
# checks compare |f(z_j)| against; a ratio below VANISH_TOL places a simple
# zero within 1e-4 of the cell height of z_j.
VANISH_RADIUS = 1e-2
VANISH_TOL = 1e-2

class JobFailed(Exception):
    """The program reported a failure without raising: a CLI exit code other
    than 0, or a result that contradicts itself."""


@dataclass
class Job:
    cls: str
    name: str
    run: Callable[[], object]
    verify: Callable[[dict], "str | None"]
    read: Callable[[object], dict] = lambda out: out
    fault: str = ""  # the named fault of the program this job hits every time


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) % 2**32 for k in key])


def _random_state(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _cell_point(rng, p) -> complex:
    return complex(p.a + rng.uniform() * p.cell_width, p.b + rng.uniform() * p.cell_height)


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=complex))) for v in values)


def _over(label: str, err: float, tol: float) -> "str | None":
    """None when err <= tol; a message otherwise, NaN included."""
    if err <= tol:
        return None
    return f"{label} {err:.3e} exceeds {tol:.1e}"


def _first_error(*results) -> "str | None":
    return next((r for r in results if r), None)


# ---------------------------------------------------------------------------
# roundtrip: state file -> `finiteq zeros` -> `finiteq reconstruct`

# number states (d, N) whose zero set find_zeros gets wrong without raising
# (residual >> 1e-6), so that `finiteq reconstruct` refuses it
NUMBER_FAULTS = {(3, 0), (5, 2), (5, 3), (6, 1), (6, 3), (7, 0), (7, 3), (8, 3)}
FIND_FAULT = "find_zeros returns a zero set off the lattice rule without raising"
# a fixed random state at d = 16, numpy default_rng([4, 16]), that hits FIND_FAULT;
# seeded random and coherent states stop at d = 6 and d = 5 because from d = 8
# on some seeds hit it too (none of 300 seeds did at the dimensions kept), so
# the larger states that pass come from a fixed stream, checked to pass; d = 10
# also puts as many jobs above the median cluster (number states at d = 6,
# N = 1..3, about 1.4 s) as below it
FIXED_RANDOM_KEY = 4
FIXED_PASSING_DIMS = (8, 10, 12, 16)


def _cli(argv) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise JobFailed(f"finiteq {argv[0]} exited with {code}: {out.getvalue().strip()}")


def _write_state(path: Path, amps: np.ndarray) -> None:
    record = {"d": int(amps.size), "lambda": LAM,
              "components": [[float(c.real), float(c.imag)] for c in amps]}
    path.write_text(json.dumps(record))


def _read_state(path: Path) -> np.ndarray:
    return np.array([complex(re, im) for re, im in json.loads(path.read_text())["components"]])


def _read_zeros(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return (np.array([complex(float(r[0]), float(r[1])) for r in rows]),
            np.array([int(r[2]) for r in rows]))


def _verify_roundtrip(v: dict) -> "str | None":
    d, inp, out, zeros, mults = v["d"], v["input"], v["state"], v["zeros"], v["mults"]
    if not _finite(out, zeros):
        return "non-finite output"
    if int(mults.sum()) != d:
        return f"total multiplicity {int(mults.sum())} != d = {d}"
    loss = 1.0 - abs(np.vdot(inp, out)) / (np.linalg.norm(inp) * np.linalg.norm(out))
    height = math.sqrt(2 * math.pi * d) / LAM
    ratio = oracles.vanishing_ratio_dual(inp, d, LAM, zeros, VANISH_RADIUS * height)
    return _first_error(
        _over("lattice residual", oracles.lattice_residual(np.sum(zeros * mults), d, LAM), 1e-6),
        _over("fidelity loss", loss, 1e-10),
        _over("|f| at a reported zero over |f| nearby", float(np.max(ratio)), VANISH_TOL),
    )


def _roundtrip_job(cls: str, name: str, state_path: Path, d: int, fault: str = "") -> Job:
    zeros = state_path.with_suffix(".zeros.csv")
    rebuilt = state_path.with_suffix(".rebuilt.json")

    def run():
        _cli(["zeros", "--state", state_path, "--out", zeros])
        _cli(["reconstruct", "--zeros", zeros, "--out", rebuilt])

    def read(_):
        positions, mults = _read_zeros(zeros)
        return {"state": _read_state(rebuilt), "zeros": positions, "mults": mults,
                "input": _read_state(state_path), "d": d}

    return Job(cls, name, run, _verify_roundtrip, read, fault)


def roundtrip(seed: int, work: Path):
    jobs = []
    for d in range(3, 9):
        for n in range(4):
            path = work / f"number-{d}-{n}.json"
            try:
                _cli(["state", "number", "--d", d, "--N", n, "--out", path])
            except JobFailed:
                continue  # no number state N at this d: its lattice sum vanishes
            jobs.append(_roundtrip_job("number", f"number d={d} N={n}", path, d,
                                       FIND_FAULT if (d, n) in NUMBER_FAULTS else ""))
    rng = _rng(seed, 1)
    for d in (4, 6):
        path = work / f"random-{d}.json"
        _write_state(path, _random_state(rng, d))
        jobs.append(_roundtrip_job("random", f"random d={d}", path, d))
    for d in FIXED_PASSING_DIMS:
        path = work / f"fixed-random-{d}.json"
        _write_state(path, _random_state(_rng(0x5EED, d, 0), d))
        jobs.append(_roundtrip_job("random", f"fixed random d={d}", path, d))
    path = work / "fixed-random-fault.json"
    _write_state(path, _random_state(np.random.default_rng([FIXED_RANDOM_KEY, 16]), 16))
    jobs.append(_roundtrip_job("random", "fixed random d=16 (fault)", path, 16, FIND_FAULT))
    rng = _rng(seed, 2)
    for d in (3, 5):
        p = fq.SystemParams(d, LAM)
        label = _cell_point(rng, p)
        path = work / f"coherent-{d}.json"
        _cli(["state", "coherent", "--d", d, "--A", f"{label.real:.17g}{label.imag:+.17g}i",
              "--out", path])
        jobs.append(_roundtrip_job("coherent", f"coherent d={d} A={label:.4f}", path, d))

    def warm():
        path = work / "warm.json"
        _cli(["state", "coherent", "--d", 2, "--A", "0.3+0.2i", "--out", path])
        _roundtrip_job("warm", "warm", path, 2).run()

    return jobs, warm


# ---------------------------------------------------------------------------
# cell-analytic: f on the cell without zeros

GRID_FAULT = "theta series does not converge on the cell at d = 256"
KERNEL_FAULT = "kernel_apply: absolute quadrature tolerance unreachable where |f| is large"


def _grid(p, rng, nx: int = 40, ny: int = 25) -> np.ndarray:
    """nx x ny points over the cell, shifted by a random fraction of a step."""
    sx, sy = (rng.uniform(size=2) if rng is not None else (0.5, 0.5))
    x = p.a + (np.arange(nx) + sx) / nx * p.cell_width
    y = p.b + (np.arange(ny) + sy) / ny * p.cell_height
    return (x[:, None] + 1j * y[None, :]).ravel()


def _grid_job(rng, d: int, derivative: bool, fault: str = "") -> Job:
    p = fq.SystemParams(d, LAM)
    amps = _random_state(rng, d)
    f = fq.AnalyticState(fq.FiniteState(amps, normalize=False), p)
    z = _grid(p, rng if not fault else None)
    probe = int(rng.integers(z.size))

    def run():
        return {"grid": f.derivative(z) if derivative else f(z)}

    def verify(v):
        vals = np.asarray(v["grid"])
        if not _finite(vals):
            return "non-finite grid value"
        ref, scale, log_factor = oracles.f_dual(amps, d, LAM, z, derivative)
        mp, mp_scale = oracles.f_reference(amps, d, LAM, complex(z[probe]), derivative)
        return _first_error(
            _over("dual-series error / scale",
                  float(np.max(np.abs(vals * np.exp(-log_factor) - ref) / scale)), 1e-10),
            _over("mpmath jtheta error / scale", abs(vals[probe] - mp) / mp_scale, 1e-10),
        )

    what = "f'" if derivative else "f"
    return Job(f"grid {what}", f"{what} grid d={d} ({z.size} points)", run, verify, fault=fault)


def _scalar_job(rng, d: int) -> Job:
    p = fq.SystemParams(d, LAM)
    a, b = _random_state(rng, d), _random_state(rng, d)
    f = fq.AnalyticState(fq.FiniteState(a, normalize=False), p)
    g = fq.AnalyticState(fq.FiniteState(b, normalize=False), p)

    def verify(v):
        if not _finite(v["scalar"]):
            return "non-finite scalar product"
        return _over("|scalar_product - sum f_m g_m|", abs(v["scalar"] - np.sum(a * b)), 1e-5)

    return Job("scalar_product", f"scalar_product d={d}",
               lambda: {"scalar": fq.scalar_product(f, g)}, verify)


def _identity_job(rng, d: int) -> Job:
    p = fq.SystemParams(d, LAM, *rng.uniform(-3.0, 3.0, size=2))

    def verify(v):
        m = np.asarray(v["matrix"])
        if not _finite(m):
            return "non-finite matrix"
        return _over("max |identity - 1|", float(np.max(np.abs(m - np.eye(d)))), 1e-5)

    return Job("coherent_identity_matrix", f"coherent_identity_matrix d={d}",
               lambda: {"matrix": fq.coherent_identity_matrix(p)}, verify)


def _kernel_job(rng, d: int, fault: str = "") -> Job:
    """(Omega f)(z) at a point z on the lower edge of the cell, where |f| is
    of order one; with `fault`, at 0.9 of the cell height instead, where the
    quadrature's absolute tolerance is out of reach (KERNEL_FAULT)."""
    p = fq.SystemParams(d, LAM)
    a = _random_state(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    f = fq.AnalyticState(fq.FiniteState(a, normalize=False), p)
    kernel = fq.OperatorKernel(op, p)
    z = complex(p.a + rng.uniform() * p.cell_width, p.b + (0.9 * p.cell_height if fault else 0.0))

    def verify(v):
        if not _finite(v["value"]):
            return "non-finite kernel_apply value"
        ref, _ = oracles.f_reference(op @ a, d, LAM, z)
        # the quadrature stops when two levels agree to its tol = 1e-6
        return _over("kernel_apply error", abs(v["value"] - ref) / max(1.0, abs(ref)), 1e-5)

    return Job("kernel_apply", f"kernel_apply d={d} Im z={z.imag:.2f}",
               lambda: {"value": fq.kernel_apply(kernel, f, z)}, verify, fault=fault)


def _weyl_expansion_job(rng, d: int) -> Job:
    p = fq.SystemParams(d, LAM)
    a = _random_state(rng, d)
    table = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    f = fq.AnalyticState(fq.FiniteState(a, normalize=False), p)
    z = _cell_point(rng, p)

    def verify(v):
        if not _finite(v["value"]):
            return "non-finite apply_weyl_expansion value"
        ref, scale, log_factor = oracles.f_dual(oracles.operator_from_table(table) @ a, d, LAM, z)
        err = abs(v["value"] * np.exp(-log_factor[0]) - ref[0]) / scale[0]
        return _over("apply_weyl_expansion error / scale", err, 1e-10)

    return Job("apply_weyl_expansion", f"apply_weyl_expansion d={d}",
               lambda: {"value": fq.apply_weyl_expansion(table, f, z)}, verify)


def _weyl_roundtrip_job(rng, d: int) -> Job:
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    samples = rng.integers(d, size=(3, 2))

    def run():
        table = fq.weyl_function(op)
        return {"matrix": fq.operator_from_weyl(table), "table": table}

    def verify(v):
        back, table = np.asarray(v["matrix"]), np.asarray(v["table"])
        if not _finite(back, table):
            return "non-finite Weyl table or operator"
        scale = float(np.max(np.abs(op)))
        direct = max(abs(table[a, b] - np.trace(op @ oracles.displacement(d, a, b)))
                     for a, b in samples)
        return _first_error(
            _over("Weyl round trip error", float(np.max(np.abs(back - op))) / scale, 1e-10),
            _over("Weyl entry vs Tr[op D]", direct / (d * scale), 1e-10),
        )

    return Job("weyl round trip", f"weyl_function + operator_from_weyl d={d}", run, verify)


def _number_sector_job(rng, d: int, n: int) -> Job:
    p = fq.SystemParams(d, LAM)
    sigma2 = float(rng.uniform())
    points = [(m, w) for m in range(d) for w in (-1, 0, 1)]

    def run():
        state = fq.number_state(n, p)
        family = fq.sector_family(fq.HermiteNumber(n), p, sigma2=sigma2)
        return {"state": state.components,
                "samples": np.array([fq.inverse_zak(family, m, w) for m, w in points])}

    def verify(v):
        s, got = np.asarray(v["state"]), np.asarray(v["samples"])
        if not _finite(s, got):
            return "non-finite number state or samples"
        x = np.array([math.sqrt(2 * math.pi / d) * LAM * (m + sigma2 + d * w) for m, w in points])
        return _first_error(
            _over("|F v - i^N v|", float(np.linalg.norm(oracles.fourier(d) @ s - 1j**n * s)), 1e-10),
            _over("1 - |<hermite sum|v>|", 1.0 - abs(np.vdot(oracles.hermite_state(n, d), s)), 1e-12),
            _over("inverse_zak error", float(np.max(np.abs(got - oracles.hermite(n, x)))), 1e-8),
        )

    return Job("number_state + inverse_zak", f"number_state/sector_family/inverse_zak d={d} N={n}",
               run, verify)


def cell_analytic(seed: int, work: Path):
    jobs = []
    rng = _rng(seed, 3)
    for derivative in (False, True):
        for d in (4, 16, 64, 192):
            jobs.append(_grid_job(rng, d, derivative))
    jobs.append(_grid_job(_rng(256), 256, False, GRID_FAULT))
    jobs.append(_kernel_job(_rng(16), 16, KERNEL_FAULT))
    for d in (4, 8, 16, 32):
        jobs.append(_scalar_job(rng, d))
        jobs.append(_identity_job(rng, d))
        jobs.append(_kernel_job(rng, d))
    for d in (4, 8, 12, 16):
        jobs.append(_weyl_expansion_job(rng, d))
    for d in (32, 48, 64):
        jobs.append(_weyl_roundtrip_job(rng, d))
    # The median job time falls in the cluster near 0.12 s: scalar_product
    # and kernel_apply at d = 8 and the Weyl round trip at d = 32.  Two more
    # of each make it the middle of nine similar jobs rather than a single
    # job, and eight cheap number-state jobs put as many jobs below the
    # cluster as above it.
    for _ in range(2):
        jobs += [_scalar_job(rng, 8), _kernel_job(rng, 8), _weyl_roundtrip_job(rng, 32)]
    for d, n in ((4, 0), (6, 1), (8, 2), (12, 4), (16, 5), (24, 6), (32, 3), (48, 2)):
        jobs.append(_number_sector_job(rng, d, n))

    def warm():
        rng = _rng(0)
        for job in (_grid_job(rng, 2, False), _grid_job(rng, 2, True), _scalar_job(rng, 2),
                    _identity_job(rng, 2), _kernel_job(rng, 2), _weyl_expansion_job(rng, 2),
                    _weyl_roundtrip_job(rng, 2), _number_sector_job(rng, 2, 0)):
            job.run()

    return jobs, warm


# ---------------------------------------------------------------------------
# from-zeros: classify and rebuild from constructed zero sets

REBUILD_FAULT = "reconstruct_from_zeros: collocation ill-conditioned at d >= 32"
RANK_FAULT = "coherent_gram_rank contradicts the completeness verdict"
# sets per seeded d; the counts put the median job time inside the cluster of
# d = 12 rule and d = 16 off-rule jobs rather than in a gap between clusters
SEEDED_ZERO_SETS = {8: 40, 12: 40, 16: 72}
FIXED_ZERO_DIMS = (24, 32, 48, 64)  # built from a fixed stream, see the README
SETS_PER_FIXED_DIM = 6
# (d, index) of the fixed sets whose off-rule copy the Gram rank misreads
RANK_FAULT_SETS = {(64, 3)}


def _zero_set(rng, p, double: bool) -> np.ndarray:
    """d labels in the cell whose sum obeys the lattice rule; with `double`
    the first label is repeated (a double zero)."""
    d = p.d
    pts = p.a + rng.uniform(size=d) * p.cell_width + 1j * (p.b + rng.uniform(size=d) * p.cell_height)
    if double:
        pts[1] = pts[0]
    M, N = (int(k) for k in rng.integers(-2, 3, size=2))
    last = oracles.lattice_target(d, p.lam, M, N) - pts[:-1].sum()
    # a translation by a cell period moves the sum along the lattice
    pts[-1] = complex(p.a + (last.real - p.a) % p.cell_width, p.b + (last.imag - p.b) % p.cell_height)
    return pts


def _broken(rng, p, pts: np.ndarray) -> np.ndarray:
    """A copy with its last label moved by 2-10% of the cell: off the rule."""
    q = pts.copy()
    z = q[-1] + rng.uniform(0.02, 0.1) * min(p.cell_width, p.cell_height) * np.exp(2j * np.pi * rng.uniform())
    q[-1] = complex(p.a + (z.real - p.a) % p.cell_width, p.b + (z.imag - p.b) % p.cell_height)
    return q


def _zeros_job(p, pts: np.ndarray, on_rule: bool, double: bool, tag: str,
               mpmath_check: bool, fault: str) -> Job:
    d = p.d
    distinct = d - 1 if double else d

    def run():
        res = fq.classify_completeness(pts, p, cross_validate=True)
        out = {"residual": res.residual, "verdict": res.verdict, "rank": res.gram_rank}
        # the Gram rank of coherent states at the labels is the program's own
        # cross-check: d - 1 independent states when the labels are zeros of
        # one state, d otherwise, and never more than the distinct labels
        if res.gram_rank != min(distinct, d - (res.verdict == "undercomplete")):
            raise JobFailed(f"{RANK_FAULT}: rank {res.gram_rank} for verdict {res.verdict}")
        if on_rule:
            out["state"] = fq.reconstruct_from_zeros(pts, p).components
        return out

    def verify(v):
        expected = "undercomplete" if on_rule else "complete"
        if v["verdict"] != expected:
            return f"verdict {v['verdict']} for a set built {expected}"
        errors = [_over("residual vs independent lattice fit",
                        abs(v["residual"] - oracles.lattice_residual(pts.sum(), d, p.lam)), 1e-9)]
        if on_rule:
            s = np.asarray(v["state"])
            if not _finite(s):
                return "non-finite rebuilt state"
            ratio = oracles.vanishing_ratio_dual(s, d, p.lam, pts, VANISH_RADIUS * p.cell_height)
            errors.append(_over("|f| at a given zero over |f| nearby", float(np.max(ratio)), VANISH_TOL))
            if mpmath_check:
                k = 0 if double else d // 2
                errors.append(_over("mpmath |f| at a given zero over |f| nearby",
                                    oracles.vanishing_ratio(s, d, p.lam, complex(pts[k]),
                                                            VANISH_RADIUS * p.cell_height), VANISH_TOL))
        return _first_error(*errors)

    kind = ("rule" if on_rule else "off-rule") + (" double" if double else "")
    return Job(f"d {'>= 32' if d >= 32 else '< 32'} {kind}", f"{kind} set d={d} {tag}", run, verify,
               fault=fault)


def _zeros_groups(rng, d: int, count: int, tag: str, rank_faults=()):
    """Per set, four jobs: the rule-satisfying labels and a copy off the rule,
    once with simple labels and once with a double one.  Returns (position,
    jobs) pairs, positions spread evenly over [0, 1).  The first rebuilt
    state of each kind is also checked through mpmath."""
    p = fq.SystemParams(d, LAM)
    groups = []
    for i in range(count):
        jobs = []
        for double in (False, True):
            pts = _zero_set(rng, p, double)
            jobs.append(_zeros_job(p, pts, True, double, f"{tag}{i}", i == 0,
                                   REBUILD_FAULT if d >= 32 else ""))
            rank_fault = not double and i in rank_faults
            jobs.append(_zeros_job(p, _broken(rng, p, pts), False, double, f"{tag}{i}", False,
                                   RANK_FAULT if rank_fault else ""))
        groups.append(((i + 0.5) / count, jobs))
    return groups


def from_zeros(seed: int, work: Path):
    groups = []
    for d, count in SEEDED_ZERO_SETS.items():
        groups += _zeros_groups(_rng(seed, 4, d), d, count, "#")
    for d in FIXED_ZERO_DIMS:
        groups += _zeros_groups(_rng(0x5EED, d, 0), d, SETS_PER_FIXED_DIM, "fixed #",
                                [i for dd, i in RANK_FAULT_SETS if dd == d])
    # interleave the dimensions over the whole list, so that a spell of
    # slow machine hits every kind of job alike rather than one of them
    jobs = [job for _, group in sorted(groups, key=lambda g: g[0]) for job in group]

    def warm():
        for _, group in _zeros_groups(_rng(0), 4, 1, "warm"):
            for job in group:
                job.run()

    return jobs, warm


WORKLOADS = {"roundtrip": roundtrip, "cell-analytic": cell_analytic, "from-zeros": from_zeros}


def smoke(jobs: list) -> list:
    """The first job of each class, split by whether it hits a named fault."""
    seen, keep = set(), []
    for job in jobs:
        key = (job.cls, bool(job.fault))
        if key not in seen:
            seen.add(key)
            keep.append(job)
    return keep
