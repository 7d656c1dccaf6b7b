"""Seeded self-check suites behind the ``finiteq verify`` command.

Each suite runs a handful of the library's defining identities at the given
dimension with randomness drawn from an explicit seed, and reports one
pass/fail line per check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, hilbert, zak, zeros
from .theta import _log_theta3, theta2, theta3
from .wavefunctions import GaussianCoherent

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
    errs = []
    for tau in (1j, 1j / d, 1j / (2 * d)):
        # as a ratio of log forms, since at small Im(tau) theta3 underflows between the multiples
        # of pi; the error is relative to 1 + |s|, as each exponent rounds to eps of its size
        s1, v1 = _log_theta3(u + np.pi * tau, tau)
        s0, v0 = _log_theta3(u, tau)
        ratio = np.exp(s1 - s0 + 1j * np.pi * tau + 2j * u) * v1 / v0
        errs.append(np.max(np.abs(ratio - 1) / (1 + np.abs(s0))))
    out.append(_result("theta3 quasi-periodicity", float(np.max(errs)), 1e-14))
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
    s, m = _random_state(rng, d), np.arange(d)

    def phase(alpha, beta):  # D(alpha, beta) moves component m of a state, times this phase, to m + beta
        return np.exp(1j * np.pi * ((alpha * beta + 2 * alpha * m) % (2 * d)) / d)

    # sum_{alpha, beta} D s s^dagger D^dagger = d I.  Summed over alpha, the phases weight the pair of
    # components (m, m') by pairs[m, m'], at every beta alike (alpha beta cancels); the shifts by beta
    # then make the sum circulant, entry (n, n - L) being sum_m pairs[m, m - L] s_m conj(s_{m - L})
    pairs = phase(m[:, None], 0).T @ phase(m[:, None], 0).conj()  # [alpha, m] tables, summed over alpha
    lag = (m[:, None] - m) % d  # [m, L] -> m - L
    c = np.sum(pairs[m[:, None], lag] * s.components[:, None] * s.components[lag].conj(), axis=0)
    out.append(_result("displaced fiducial resolves identity", float(np.max(np.abs(c / d - (m == 0)))), 1e-12))
    # the phases of the last alpha against the library's displaced states, read at m + beta in row beta
    ref = np.array([hilbert.displaced_state(s, (d - 1, b)).components for b in range(d)])
    err = np.max(np.abs(phase(d - 1, m[:, None]) * s.components - ref[m[:, None], (m + m[:, None]) % d]))
    out.append(_result("displaced rows match displaced_state", float(err), 1e-12))
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
    d = 3 and d = 4 miss -i.
    """
    if d == 1:
        return n % 4 != 0
    if d == 2:
        return n % 2 == 1
    if d in (3, 4):
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
    # the momentum side against its definition, the sums of psi-hat at scale 1/lam (lam = 2.5: a lost lam shows)
    psi, scaled = GaussianCoherent(label), zak.SystemParams(d, 2.5)
    defined = zak.zak_sums(psi.fourier_at, zak.SystemParams(d, 1 / 2.5))
    norm = np.linalg.norm(defined)
    err = max(np.max(np.abs(zak.momentum_zak_sums(psi, scaled) - defined)) / norm,
              abs(zak.momentum_zak_normalization(psi, scaled) / norm**2 - 1),
              np.max(np.abs(zak.momentum_zak_map(psi, scaled).components - defined / norm)))
    out.append(_result("momentum side matches the sums of psi-hat", float(err), 1e-12))
    # the closed forms at labels and points across the cell width and up to 0.9 of its height
    a = rng.uniform(0, params.cell_width, 6) + 1j * rng.uniform(0, 0.9, 6) * params.cell_height
    out.append(_result("overlap closed form vs direct",
                       max(abs(zak.coherent_overlap(a1, a2, params) - zak.coherent_overlap_direct(a1, a2, params))
                           for a1, a2 in zip(a[::2], a[1::2])), 1e-9))
    direct = np.array([zak.coherent_normalization(x, params) for x in a])
    closed = np.array([zak.coherent_normalization_closed(x, params) for x in a])
    out.append(_result("normalization closed form vs direct", float(np.max(np.abs(closed / direct - 1))), 1e-10))
    out.append(_result("momentum_form vs f of the momentum state",
                       _momentum_form_error(params, a, int(rng.integers(d))), 1e-10))
    # the transform both ways, psi -> sector family -> inverse_zak, at |x| <= 3 from components n - d w
    psi, step = GaussianCoherent(label), np.sqrt(2 * np.pi / d)
    family = zak.sector_family(psi, params, sigma2=abs(label.imag))
    n, w = (g.ravel() for g in np.meshgrid(np.round(np.linspace(-3, 3, 7) / step).astype(int), [-1, 0, 1]))
    err = max(abs(zak.inverse_zak(family, k - d * b, b) - psi(step * (k + family.sigma2))) for k, b in zip(n, w))
    out.append(_result("inverse transform recovers psi", float(err), 1e-12))
    return out


def _momentum_form_error(params, points, m):
    """Largest |momentum_form - f| of momentum state m, weighted by exp(-Im(z)^2/2), over sqrt(d).

    Where momentum_form raises, log|f| must lie beyond the double range, or the error is infinite.
    """
    s = analytic.AnalyticState(hilbert.momentum_state(m, params.d), params)
    errs = [0.0]
    for z in points:
        w, half = s._weighted(z), np.exp(-0.25 * z.imag**2)
        try:
            errs.append(abs(analytic.momentum_form(m, params, z) * half * half - w))
        except RuntimeError:
            errs.append(0.0 if np.log(abs(w)) + 0.5 * z.imag**2 > 709.0 else np.inf)
    return float(max(errs) / np.sqrt(params.d))


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
    # the grid kernel against the pointwise one, up to 0.999 of the cell height (|f| overflows there from d = 226)
    x, y = params.cell_width * (np.arange(6) + 0.37) / 6, params.cell_height * np.linspace(0.05, 0.999, 5)
    points = np.array([[s._weighted(x0 + 1j * y0) for x0 in x] for y0 in y])
    err = np.max(np.abs(s._weighted(x[None, :] + 1j * y[:, None]) - points)) / np.max(np.abs(points))
    out.append(_result("f on a tensor grid equals f point by point", float(err), 1e-13))
    g = analytic.AnalyticState(_random_state(rng, d), params)
    bilinear = complex(np.sum(s.state.components * g.state.components))
    out.append(_result("cell integral reproduces bilinear pairing",
                       abs(analytic.scalar_product(s, g) - bilinear), 1e-5))
    # the sums over x in closed form against the trapezoid sums of f(z) g(z*) at the nodes themselves (lam = 1)
    def node_sums(x, y):
        return np.sum(s._weighted(x[None, :] + 1j * y[:, None]) * g._weighted(x[None, :] - 1j * y[:, None]))

    trapezoid = analytic._cell_trapezoid(params, lambda x, y: (node_sums(x, y), node_sums(x[::2], y[::2])),
                                         (2 * np.pi) ** -0.5 * d ** -1.5, 1e-6, "node sums")
    out.append(_result("cell quadrature equals its node sums", abs(analytic.scalar_product(s, g) - trapezoid), 1e-13))
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
