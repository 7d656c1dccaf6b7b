"""Acceptance suite: one test (and one printed pass line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from finiteq import (
    AnalyticState,
    FiniteState,
    GaussianCoherent,
    SystemParams,
    classify_completeness,
    coherent_gram_rank,
    coherent_identity_matrix,
    coherent_overlap,
    coherent_overlap_direct,
    coherent_state_closed,
    displaced_state,
    find_zeros,
    fourier_matrix,
    inverse_zak,
    momentum_zak_normalization,
    number_state,
    reconstruct_from_zeros,
    sector_family,
    sum_constraint_fit,
    theta3,
    zak_normalization,
    zak_sums,
    zero_sum_residual,
)
from finiteq.wavefunctions import HermiteNumber

TABLE_D6 = {
    0: [0.75971, 0.45004, 0.09373, 0.01365, 0.09373, 0.45004],
    1: [0.0, 0.65328, 0.27060, 0.0, -0.27060, -0.65328],
    2: [-0.52546, 0.34071, 0.48131, 0.16851, 0.48131, 0.34071],
    3: [0.0, -0.27059, 0.65328, 0.0, -0.65328, 0.27059],
    4: [0.37040, -0.37823, 0.37471, 0.54393, 0.37471, -0.37823],
    6: [-0.31449, 0.28578, -0.15803, 0.82934, -0.15803, 0.28578],
}

ENSEMBLE_DIMS = (2, 3, 4, 5, 6)
ENSEMBLE_SIZE = 20


def report(num, text):
    print(f"PASS criterion {num:>2}: {text}")


@pytest.fixture(scope="module")
def zero_ensemble():
    """20 random states per dimension with their located zero sets."""
    out = {}
    rng = np.random.default_rng(20240817)
    for d in ENSEMBLE_DIMS:
        params = SystemParams(d)
        entries = []
        for _ in range(ENSEMBLE_SIZE):
            v = FiniteState(rng.normal(size=d) + 1j * rng.normal(size=d))
            entries.append((v, find_zeros(AnalyticState(v, params))))
        out[d] = (params, entries)
    return out


def test_criterion_01_printed_eigenvector_table():
    t0 = time.monotonic()
    params = SystemParams(6)
    worst = 0.0
    for n, col in TABLE_D6.items():
        v = number_state(n, params)
        worst = max(worst, float(np.max(np.abs(v.components.real - col))))
        worst = max(worst, float(np.max(np.abs(v.components.imag))))
    elapsed = time.monotonic() - t0
    assert worst <= 2e-5
    assert elapsed < 1.0
    report(1, f"36 printed d=6 amplitudes reproduced, worst {worst:.2e} (<= 2e-5), {elapsed:.2f}s")


def test_criterion_02_fourier_eigenvectors():
    worst = 0.0
    vanished = []
    for d in (4, 5, 6, 7):
        params = SystemParams(d)
        F = fourier_matrix(d)
        for n in range(13):
            if d == 4 and n % 4 == 3:
                # the d=4 Fourier matrix has no eigenvalue (-i): the Hermite
                # projection cancels identically and no normalizable state
                # exists; assert the cancellation itself
                t = zak_sums(HermiteNumber(n), params)
                assert np.linalg.norm(t) < 1e-12
                vanished.append((d, n))
                continue
            v = number_state(n, params).components
            worst = max(worst, float(np.linalg.norm(F @ v - 1j**n * v)))
    params6 = SystemParams(6)
    diff = np.max(np.abs(number_state(5, params6).components + number_state(1, params6).components))
    worst5 = float(diff)
    assert worst <= 1e-10
    assert worst5 <= 1e-10
    report(2, f"eigenvector property worst {worst:.2e} (<= 1e-10); index-5 = -index-1 at d=6 "
              f"to {worst5:.2e}; identically vanishing projections verified at {vanished}")


def test_criterion_03_exact_resolutions_of_identity():
    rng = np.random.default_rng(3121)
    worst_gen = worst_coh = 0.0
    for d in (3, 4):
        params = SystemParams(d)
        fid = FiniteState(rng.normal(size=d) + 1j * rng.normal(size=d))
        acc = np.zeros((d, d), dtype=complex)
        for alpha in range(d):
            for beta in range(d):
                v = displaced_state(fid, (alpha, beta)).components
                acc += np.outer(v, v.conj())
        worst_gen = max(worst_gen, float(np.max(np.abs(acc / d - np.eye(d)))))

        label = 0.3 + 0.2j
        acc = np.zeros((d, d), dtype=complex)
        for alpha in range(d):
            for beta in range(d):
                shifted = label + np.sqrt(2 * np.pi / d) * (beta + 1j * alpha)
                v = coherent_state_closed(shifted, params).components
                acc += np.outer(v, v.conj())
        worst_coh = max(worst_coh, float(np.max(np.abs(acc / d - np.eye(d)))))
    assert worst_gen <= 1e-9
    assert worst_coh <= 1e-9
    report(3, f"displaced-fiducial deviation {worst_gen:.2e}, shifted-coherent deviation "
              f"{worst_coh:.2e} (<= 1e-9), d in {{3,4}}")


def test_criterion_04_quadrature_resolution_of_identity():
    t0 = time.monotonic()
    worst = 0.0
    for d in (2, 3):
        mat = coherent_identity_matrix(SystemParams(d))
        worst = max(worst, float(np.max(np.abs(mat - np.eye(d)))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-5
    assert elapsed < 30.0
    report(4, f"cell-integral identity deviation {worst:.2e} (<= 1e-5), d in {{2,3}}, {elapsed:.1f}s")


def test_criterion_05_overlap_closed_forms():
    rng = np.random.default_rng(55)
    worst = 0.0
    for d in (4, 5):
        params = SystemParams(d)
        half_w = params.cell_width / 2
        half_h = params.cell_height / 2
        for _ in range(100):
            a1 = complex(rng.uniform(-half_w, half_w), rng.uniform(-half_h, half_h))
            a2 = complex(rng.uniform(-half_w, half_w), rng.uniform(-half_h, half_h))
            closed = coherent_overlap(a1, a2, params)
            direct = coherent_overlap_direct(a1, a2, params)
            worst = max(worst, abs(closed - direct))
    assert worst <= 1e-9
    report(5, f"closed-form overlaps vs direct inner products, worst {worst:.2e} "
              "(<= 1e-9), 100 pairs each at d=4 and d=5")


def test_criterion_06_momentum_normalization_ratio():
    psi = GaussianCoherent(0.7 - 0.4j)
    worst = 0.0
    for lam in (0.8, 1.0, 1.25):
        params = SystemParams(5, lam)
        ratio = momentum_zak_normalization(psi, params) / zak_normalization(psi, params)
        worst = max(worst, abs(ratio - lam**2) / lam**2)
    assert worst <= 1e-8
    report(6, f"momentum/position normalization ratio = lam^2 to {worst:.2e} rel (<= 1e-8)")


def test_criterion_07_zero_count_and_sum(zero_ensemble):
    worst_resid = 0.0
    for d, (params, entries) in zero_ensemble.items():
        for _, zs in entries:
            assert zs.total == d
            residual, _, _ = zero_sum_residual(zs)
            worst_resid = max(worst_resid, residual)
    assert worst_resid <= 1e-6

    # even-d product form pins the d=4 coherent zero lattice in closed form
    params = SystemParams(4)
    worst_lattice = 0.0
    for label in (0j, 1 + 1j):
        zs = find_zeros(AnalyticState(coherent_state_closed(label, params), params))
        predicted = []
        for k in range(-3, 4):
            for ell in range(-3, 4):
                for z in (
                    -label + (2 * k + 1) * np.sqrt(2 * np.pi / 4) + 1j * (2 * ell + 1) * np.sqrt(np.pi * 4 / 2),
                    label + (2 * k + 1) * np.sqrt(np.pi * 4 / 2) + 1j * (2 * ell + 1) * np.sqrt(2 * np.pi / 4),
                ):
                    zr = complex(z.real % params.cell_width, z.imag % params.cell_height)
                    predicted.append(zr)
        for z in zs.positions:
            worst_lattice = max(worst_lattice, min(abs(z - q) for q in predicted))
    assert worst_lattice <= 1e-8
    report(7, f"{ENSEMBLE_SIZE} random states per d in {ENSEMBLE_DIMS}: count = d and "
              f"sum residual <= {worst_resid:.2e} (<= 1e-6); d=4 coherent zeros on the "
              f"factor lattice to {worst_lattice:.2e} (<= 1e-8)")


def test_criterion_08_reconstruction_roundtrip(zero_ensemble):
    worst = 0.0
    for d, (params, entries) in zero_ensemble.items():
        for v, zs in entries:
            rec = reconstruct_from_zeros(zs)
            worst = max(worst, 1.0 - rec.fidelity(v))
    assert worst <= 1e-10

    params = SystemParams(4)
    _, entries = zero_ensemble[4]
    bad = entries[0][1].positions.copy()
    bad[0] += 0.3
    with pytest.raises(ValueError, match="no such state exists"):
        reconstruct_from_zeros(bad, params)
    report(8, f"roundtrip fidelity defect {worst:.2e} (<= 1e-10) over the full ensemble; "
              "constraint-violating input rejected with the documented error")


def test_criterion_09_completeness_classification():
    rng = np.random.default_rng(99)
    checked = 0
    for d in (3, 4):
        params = SystemParams(d)
        width, height = params.cell_width, params.cell_height
        base = np.sqrt(np.pi / 2) * d**1.5 * (1 + 1j)

        sets = []
        while len(sets) < 25:  # satisfying sets: last point solved from the sum rule
            pts = [complex(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(d - 1)]
            last = base - sum(pts)
            last = complex(last.real % width, last.imag % height)
            if any(abs(last - q) < 1e-3 for q in pts):
                continue
            residual, _, _ = sum_constraint_fit(sum(pts) + last, params)
            assert residual < 1e-9
            sets.append(pts + [last])
        while len(sets) < 50:  # violating sets: generic points
            pts = [complex(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(d)]
            residual, _, _ = sum_constraint_fit(sum(pts), params)
            if residual < 1e-3:
                continue
            sets.append(pts)

        for pts in sets:
            res = classify_completeness(pts, params)
            rank = coherent_gram_rank(pts, params)
            if res.verdict == "undercomplete":
                assert rank < d
            else:
                assert res.verdict == "complete"
                assert rank == d
            checked += 1

        for _ in range(10):
            pts = [complex(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(d + 1)]
            assert classify_completeness(pts, params).verdict == "overcomplete-at-least-complete"
            pts = [complex(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(d - 1)]
            assert classify_completeness(pts, params).verdict == "undercomplete"
    assert checked == 100
    report(9, "classification agrees with the Gram-rank oracle on 50 d-point sets per "
              "d in {3,4}; d+1 points at least complete, d-1 undercomplete")


def test_criterion_10_sector_inversion_roundtrip():
    params = SystemParams(4)
    label = 0.5 + 0.25j
    psi = GaussianCoherent(label)
    sigma2 = 0.3
    family = sector_family(psi, params, sigma2=sigma2, n_sigma1=64)
    step = np.sqrt(2 * np.pi / 4)
    worst = 0.0
    count = 0
    for m in range(4):
        for w in (-1, 0, 1):
            got = inverse_zak(family, m, w)
            expect = psi(step * (m + sigma2 + 4 * w))
            worst = max(worst, abs(got - expect))
            count += 1
    assert count == 12
    assert worst <= 1e-8
    report(10, f"wavefunction recovered at 12 sample points to {worst:.2e} (<= 1e-8) "
               "from a 64-point sector family at d=4")


def test_criterion_11_theta_identities():
    rng = np.random.default_rng(111)
    worst_qp = 0.0
    for _ in range(50):
        u = complex(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        tau = (1j, 2j, 1j / 3)[int(rng.integers(0, 3))]
        lhs = theta3(u + np.pi * tau, tau)
        rhs = np.exp(-1j * np.pi * tau - 2j * u) * theta3(u, tau)
        worst_qp = max(worst_qp, abs(lhs - rhs) / abs(rhs))
    worst_mod = 0.0
    for _ in range(50):
        u = complex(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        lhs = theta3(u, tau)
        rhs = (-1j * tau) ** -0.5 * np.exp(u**2 / (1j * np.pi * tau)) * theta3(u / tau, -1 / tau)
        worst_mod = max(worst_mod, abs(lhs - rhs) / abs(rhs))
    assert worst_qp <= 1e-10
    assert worst_mod <= 1e-10
    report(11, f"quasi-periodicity to {worst_qp:.2e} and modular transform to "
               f"{worst_mod:.2e} rel (<= 1e-10), 50 random points each")
