"""Seeded self-check suites behind the ``finiteq verify`` command.

Each suite runs a handful of the library's defining identities at the given
dimension with randomness drawn from an explicit seed, and reports one
pass/fail line per check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, hilbert, zak, zeros
from .theta import theta2, theta3
from .wavefunctions import GaussianCoherent, HermiteNumber

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, err, tol):
    return CheckResult(name, bool(err <= tol), f"error {err:.2e} (tol {tol:.0e})")


def _random_state(rng, d) -> hilbert.FiniteState:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return hilbert.FiniteState(v)


def _suite_theta(d, rng):
    out = []
    u = rng.uniform(0, np.pi, 12) + 1j * rng.uniform(0, np.pi, 12)
    err = 0.0
    for tau in (1j, 2j, 1j / 3):
        lhs = theta3(u + np.pi * tau, tau)
        rhs = np.exp(-1j * np.pi * tau - 2j * u) * theta3(u, tau)
        err = max(err, np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    out.append(_result("theta3 quasi-periodicity", err, 1e-12))
    tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.5))
    lhs = theta3(u, tau)
    rhs = (-1j * tau) ** -0.5 * np.exp(u**2 / (1j * np.pi * tau)) * theta3(u / tau, -1 / tau)
    out.append(_result("theta3 modular transform", float(np.max(np.abs(lhs - rhs) / np.abs(rhs))), 1e-10))
    out.append(_result("theta2 sign flip under u -> u + pi",
                       float(np.max(np.abs(theta2(u + np.pi, 1j) + theta2(u, 1j)))), 1e-10))
    return out


def _suite_hilbert(d, rng):
    out = []
    F = hilbert.fourier_matrix(d)
    out.append(_result("F unitary", float(np.max(np.abs(F @ F.conj().T - np.eye(d)))), 1e-12))
    out.append(_result("F^4 = 1", float(np.max(np.abs(np.linalg.matrix_power(F, 4) - np.eye(d)))), 1e-12))
    s = _random_state(rng, d)
    acc = np.zeros((d, d), dtype=complex)
    for alpha in range(d):
        # rows are the displaced states over beta, so the product sums their outer products
        v = np.array([hilbert.displaced_state(s, (alpha, beta)).components for beta in range(d)])
        acc += v.T @ v.conj()
    out.append(_result("displaced fiducial resolves identity", float(np.max(np.abs(acc / d - np.eye(d)))), 1e-12))
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    table = hilbert.weyl_function(op)
    # entries against the definition, so a wrong transform pair that inverts itself still fails
    labels = rng.integers(d, size=(4, 2))
    err = max(abs(table[a, b] - np.trace(op @ hilbert.displacement(d, a, b))) for a, b in labels)
    out.append(_result("phase-space table entries vs Tr[op D]", float(err / (d * np.max(np.abs(op)))), 1e-12))
    out.append(_result("phase-space table roundtrip",
                       float(np.max(np.abs(hilbert.operator_from_weyl(table) - op))), 1e-12))
    return out


def _projection_vanishes(n, d):
    """Hermite projections that cancel identically (missing Fourier eigenvalues).

    The d-point Fourier matrix realizes the eigenvalue i**n only when the
    spectrum is rich enough: d = 1 carries {1}, d = 2 carries {1, -1}, and
    d = 4 misses -i.
    """
    if d == 1:
        return n % 4 != 0
    if d == 2:
        return n % 2 == 1
    if d == 4:
        return n % 4 == 3
    return False


def _suite_zak(d, rng):
    out = []
    params = zak.SystemParams(d)
    choices = [n for n in range(9) if not _projection_vanishes(n, d)]
    n = choices[int(rng.integers(0, len(choices)))]
    v = zak.number_state(int(n), params)
    F = hilbert.fourier_matrix(d)
    out.append(_result(f"F eigenvector (n={n})",
                       float(np.linalg.norm(F @ v.components - 1j**int(n) * v.components)), 1e-10))
    label = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    direct = zak.zak_map(GaussianCoherent(label), params)
    closed = zak.coherent_state_closed(label, params)
    out.append(_result("Gaussian transform matches theta closed form",
                       float(np.max(np.abs(direct.components - closed.components))), 1e-12))
    l2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    out.append(_result("overlap closed form vs direct",
                       abs(zak.coherent_overlap(label, l2, params) - zak.coherent_overlap_direct(label, l2, params)),
                       1e-9))
    mom = zak.momentum_zak_map(HermiteNumber(int(n)), params)
    pos = zak.zak_map(HermiteNumber(int(n)), params)
    out.append(_result("momentum side equals finite Fourier transform",
                       float(np.max(np.abs(mom.components - F @ pos.components))), 1e-10))
    return out


def _suite_analytic(d, rng):
    out = []
    params = zak.SystemParams(d)
    s = analytic.AnalyticState(_random_state(rng, d), params)
    z = complex(rng.uniform(0, params.cell_width), rng.uniform(0, params.cell_height))
    # compared as weighted values exp(-Im(z)^2/2) f(z), which stay finite where |f| overflows
    # (near the top of the cell from d of about 226); the relative errors are those of f
    w = s._weighted(z)
    out.append(_result("real-period periodicity",
                       abs(s._weighted(z + params.cell_width) - w) / abs(w), 1e-10))
    # f(z + ih) = f(z) exp(h^2/2 - ihz) for the cell height h, so the weighted values differ by exp(-ihx)
    shifted = w * np.exp(-1j * params.cell_height * z.real)
    out.append(_result("imaginary-period quasi-periodicity",
                       abs(s._weighted(z + 1j * params.cell_height) - shifted) / abs(shifted), 1e-10))
    g = analytic.AnalyticState(_random_state(rng, d), params)
    bilinear = complex(np.sum(s.state.components * g.state.components))
    out.append(_result("cell integral reproduces bilinear pairing",
                       abs(analytic.scalar_product(s, g) - bilinear), 1e-5))
    out.append(_result("coherent states resolve the identity",
                       float(np.max(np.abs(analytic.coherent_identity_matrix(params) - np.eye(d)))), 1e-10))
    return out


def _suite_zeros(d, rng):
    out = []
    params = zak.SystemParams(d)
    s = analytic.AnalyticState(_random_state(rng, d), params)
    zs = zeros.find_zeros(s)
    out.append(CheckResult("zero count equals d", zs.total == d, f"found {zs.total}, expected {d}"))
    out.append(_result("zero-sum lattice residual", zs.residual, 1e-6))
    rec = zeros.reconstruct_from_zeros(zs)
    out.append(_result("reconstruction fidelity", 1.0 - rec.fidelity(s.state), 1e-10))
    verdict = zeros.classify_completeness(zs.positions, params).verdict
    out.append(CheckResult("own zeros classified undercomplete", verdict == "undercomplete", verdict))
    return out


SUITES = {
    "theta": _suite_theta,
    "hilbert": _suite_hilbert,
    "zak": _suite_zak,
    "analytic": _suite_analytic,
    "zeros": _suite_zeros,
}


def run_suite(suite: str, d: int, seed: int) -> list[CheckResult]:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {['all', *SUITES]}")
    rng = np.random.default_rng(seed)
    names = list(SUITES) if suite == "all" else [suite]
    results = []
    for name in names:
        results.extend(SUITES[name](d, rng))
    return results
