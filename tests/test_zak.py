"""Line-to-cycle transform, number and coherent states, sectors and inversion."""

import math
import re
import warnings

import numpy as np
import pytest

from finiteq import (
    GaussianCoherent,
    HermiteNumber,
    SampledGrid,
    SectorFamily,
    SystemParams,
    ZakSector,
    coherent_from_number,
    coherent_normalization,
    coherent_normalization_closed,
    coherent_overlap,
    coherent_overlap_direct,
    coherent_state_closed,
    coherent_unnormalized,
    displaced_state,
    fourier_matrix,
    inverse_zak,
    momentum_zak_map,
    momentum_zak_normalization,
    momentum_zak_sums,
    number_normalization,
    number_state,
    sampled_from_csv,
    sector_family,
    theta3,
    zak_map,
    zak_normalization,
    zak_sums,
)
from finiteq.zak import _STOP_RUN, _TAIL_TOL, W_CAP, _lattice_sums, weighted_thetas

TABLE_D6 = {
    0: [0.75971, 0.45004, 0.09373, 0.01365, 0.09373, 0.45004],
    1: [0.0, 0.65328, 0.27060, 0.0, -0.27060, -0.65328],
    2: [-0.52546, 0.34071, 0.48131, 0.16851, 0.48131, 0.34071],
    3: [0.0, -0.27059, 0.65328, 0.0, -0.65328, 0.27059],
    4: [0.37040, -0.37823, 0.37471, 0.54393, 0.37471, -0.37823],
    6: [-0.31449, 0.28578, -0.15803, 0.82934, -0.15803, 0.28578],
}


def test_gaussian_map_equals_theta_closed_form():
    for d, lam, label in [(4, 1.0, 0.6 - 0.4j), (3, 0.8, -0.3 + 0.9j), (5, 1.3, 1.1 + 0.2j)]:
        params = SystemParams(d, lam)
        via_map = zak_map(GaussianCoherent(label), params)
        closed = coherent_state_closed(label, params)
        assert np.max(np.abs(via_map.components - closed.components)) < 1e-12


def test_output_normalized():
    params = SystemParams(5, 1.2)
    v = zak_map(GaussianCoherent(0.4 + 0.1j), params)
    assert abs(np.linalg.norm(v.components) - 1) < 1e-13


def test_ground_hermite_matches_printed_column():
    v = number_state(0, SystemParams(6))
    assert np.max(np.abs(v.components.real - TABLE_D6[0])) < 2e-5
    assert np.max(np.abs(v.components.imag)) < 1e-14


def test_momentum_map_is_finite_fourier_transform():
    params = SystemParams(5)
    pos = zak_map(HermiteNumber(1), params)
    mom = momentum_zak_map(HermiteNumber(1), params)
    expect = fourier_matrix(5) @ pos.components
    assert np.max(np.abs(mom.components - expect)) < 1e-10


def test_momentum_map_fourier_consistency_gaussian():
    for lam in (0.8, 1.0, 1.25):
        params = SystemParams(4, lam)
        psi = GaussianCoherent(0.5 - 0.7j)
        pos = zak_map(psi, params)
        mom = momentum_zak_map(psi, params)
        expect = fourier_matrix(4) @ pos.components
        assert np.max(np.abs(mom.components - expect)) < 1e-10


def test_normalization_ratio_is_lambda_squared():
    psi = GaussianCoherent(0.7 - 0.4j)
    for lam in (0.8, 1.0, 1.25):
        params = SystemParams(5, lam)
        ratio = momentum_zak_normalization(psi, params) / zak_normalization(psi, params)
        assert abs(ratio - lam**2) < 1e-8 * lam**2


def test_hermite2_momentum_components_flip_sign():
    params = SystemParams(6)
    pos = zak_map(HermiteNumber(2), params)
    mom = momentum_zak_map(HermiteNumber(2), params)
    assert np.max(np.abs(mom.components + pos.components)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 7, 48, 1000])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_momentum_side_matches_lattice_sums_of_psi_hat(d, lam):
    # the definition: the lattice sums of psi-hat at scale 1/lam, summed from fourier_at
    params, dual = SystemParams(d, lam), SystemParams(d, 1 / lam)
    m = np.array([[-d - 1, -1, 0], [d - 1, d, 2 * d + 1]])
    # sums round to eps of the larger of their largest sample and largest value; the definition
    # also samples psi-hat near its bulk at base + w d step, rounded to eps of |base| <= reach step,
    # and Hermite 11 changes by about sqrt(23) of its size per unit argument
    step = math.sqrt(2 * math.pi / d) / lam
    rel = {reach: 1e-13 + 5 * np.finfo(float).eps * reach * step for reach in (d, 2 * d + 2)}
    outcomes = set()
    for psi in [HermiteNumber(n) for n in range(12)] + [GaussianCoherent(1.1 - 0.7j), GaussianCoherent(-2.3 + 0.4j)]:
        try:
            ref_map = zak_map(psi.fourier_at, dual)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                momentum_zak_map(psi, params)
            assert str(got.value) == str(exc)
            outcomes.add("raised")
            continue
        full, peak = _lattice_sums(psi.fourier_at, dual, [0.0], 0.0)
        scale = max(peak, np.max(np.abs(full)))
        for mm, reach in ((None, d), (m, 2 * d + 2)):
            got = momentum_zak_sums(psi, params, m=mm)
            assert np.max(np.abs(got - zak_sums(psi.fourier_at, dual, m=mm))) <= rel[reach] * scale
        assert abs(momentum_zak_normalization(psi, params) / zak_normalization(psi.fourier_at, dual) - 1) <= rel[d]
        assert np.max(np.abs(momentum_zak_map(psi, params).components - ref_map.components)) <= rel[d]
        outcomes.add("value")
    assert "value" in outcomes and ("raised" in outcomes) == (d <= 4)


def test_number_state_requires_unit_scale():
    with pytest.raises(ValueError):
        number_state(0, SystemParams(4, 1.5))


def test_number_states_match_printed_table():
    params = SystemParams(6)
    for n, col in TABLE_D6.items():
        v = number_state(n, params)
        assert np.max(np.abs(v.components.real - col)) < 2e-5


def test_number_five_is_minus_one_at_d6():
    params = SystemParams(6)
    v1 = number_state(1, params)
    v5 = number_state(5, params)
    assert np.max(np.abs(v5.components + v1.components)) < 1e-10


def test_fourier_eigenvector_property():
    params = SystemParams(4)
    F = fourier_matrix(4)
    for n in range(9):
        if n % 4 == 3:
            # the d=4 Fourier matrix has no eigenvalue -i, so the Hermite
            # projections of index 3 mod 4 cancel identically
            with pytest.raises(ValueError, match="vanishes identically"):
                number_state(n, params)
            continue
        v = number_state(n, params).components
        assert np.linalg.norm(F @ v - 1j**n * v) < 1e-10


def test_vanishing_projections_detected():
    # d=4: indices 3 mod 4; d=2: every odd index (spectrum is {1, -1})
    t = zak_sums(HermiteNumber(3), SystemParams(4))
    assert np.linalg.norm(t) < 1e-14
    with pytest.raises(ValueError, match="vanishes identically"):
        number_state(7, SystemParams(4))
    with pytest.raises(ValueError, match="vanishes identically"):
        number_state(1, SystemParams(2))


def test_high_index_hermite_stays_normalized():
    params = SystemParams(6)
    v = number_state(50, params)
    assert np.all(np.isfinite(v.components))
    assert abs(np.linalg.norm(v.components) - 1) < 1e-12


@pytest.mark.parametrize("d", [3, 4, 5, 8, 16, 64, 256, 1000])
def test_number_states_are_sums_of_theta_derivatives_at_zero(d):
    # the Hermite generating function makes |N>> the normalised sum over k <= N, N - k even, of
    # C(N, k) (N - k - 1)!! sqrt(2)^k times the weighted k-th theta derivative at 0: an oracle
    # for number_state without its lattice sum, which matches it with phase exactly 1
    params = SystemParams(d)
    for n in range(12):
        try:
            got = number_state(n, params).components
        except ValueError:
            continue  # the projection vanishes identically at this d
        want = sum(math.comb(n, k) * math.prod(range(n - k - 1, 0, -2)) * math.sqrt(2) ** k
                   * weighted_thetas(0, params, k) for k in range(n % 2, n + 1, 2))
        assert np.max(np.abs(want / np.linalg.norm(want) - got)) <= (1e-12 if d <= 16 else 1e-11), n


def test_printed_eigenvectors_span_the_space():
    params = SystemParams(6)
    mat = np.column_stack([number_state(n, params).components for n in TABLE_D6])
    sv = np.linalg.svd(mat, compute_uv=False)
    assert np.sum(sv > 1e-8) == 6


def test_vacuum_amplitudes_positive_and_proportional_to_theta():
    for d in (2, 3, 4):
        params = SystemParams(d)
        v = coherent_state_closed(0, params)
        assert np.all(v.components.real > 0)
        assert np.max(np.abs(v.components.imag)) < 1e-14
        theta_col = np.array([theta3(np.pi * m / d, 1j / d) for m in range(d)]).real
        expect = theta_col / np.linalg.norm(theta_col)
        assert np.max(np.abs(v.components.real - expect)) < 1e-13


def test_coherent_quasi_periodicity_both_directions():
    d, lam = 4, 1.0
    params = SystemParams(d, lam)
    label = 0.37 + 0.21j
    base = coherent_state_closed(label, params)
    period = np.sqrt(2 * np.pi * d)
    shifted = coherent_state_closed(label + period * lam, params)
    phase = np.exp(1j * label.imag * lam * np.sqrt(np.pi * d / 2))
    assert np.max(np.abs(shifted.components - base.components * phase)) < 1e-12
    shifted_i = coherent_state_closed(label + 1j * period / lam, params)
    phase_i = np.exp(-1j * label.real / lam * np.sqrt(np.pi * d / 2))
    assert np.max(np.abs(shifted_i.components - base.components * phase_i)) < 1e-12


@pytest.mark.parametrize("label", [complex("inf"), complex("nan+1j"), complex(0, float("1e400"))])
def test_non_finite_coherent_label_raises_before_arithmetic(label):
    # checked before the prefactor exp(i Re(A) Im(A) / 2), which warns on inf * 0
    params = SystemParams(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: coherent_unnormalized(label, params),
                     lambda: coherent_unnormalized([0.5, label], params),
                     lambda: coherent_state_closed(label, params),
                     lambda: coherent_normalization_closed(label, params),
                     lambda: coherent_overlap(0.5, label, params)):
            with pytest.raises(ValueError, match="coherent label must be finite"):
                call()


def test_coherent_component_vanishes_on_conjugate_lattice():
    d, lam, m = 5, 1.0, 2
    params = SystemParams(d, lam)
    label = np.sqrt(2 * np.pi / d) * ((0 * d + d / 2 + m) * lam + 1j / (2 * lam))
    v = coherent_state_closed(label, params)
    assert abs(v.components[m]) < 1e-12


def test_overlap_of_state_with_itself_is_one():
    params = SystemParams(5)
    assert abs(coherent_overlap(0.3 + 0.4j, 0.3 + 0.4j, params) - 1) < 1e-12


def test_overlap_closed_matches_direct_d5():
    params = SystemParams(5)
    a1, a2 = 0.3, 0.1 + 0.2j
    assert abs(coherent_overlap(a1, a2, params) - coherent_overlap_direct(a1, a2, params)) < 1e-12


def test_overlap_forms_match_direct_on_their_parity():
    rng = np.random.default_rng(12)
    for d in (4, 5):
        params = SystemParams(d)
        for _ in range(10):
            a1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            closed = coherent_overlap(a1, a2, params)
            direct = coherent_overlap_direct(a1, a2, params)
            assert abs(closed - direct) < 1e-9


def test_even_d_orthogonality_lattice():
    d, lam = 4, 1.0
    params = SystemParams(d, lam)
    a1 = 0.3 + 0.1j
    for ell, k in [(0, 0), (-1, 0), (0, -1)]:
        a2 = (np.conj(a1) + (ell + 0.5) * np.sqrt(2 * np.pi * d) * lam
              + 1j * (2 * k + 1) * np.sqrt(2 * np.pi / d) / lam)
        assert abs(coherent_overlap(a1, a2, params)) < 1e-9


def test_normalization_closed_matches_direct():
    rng = np.random.default_rng(13)
    for d in (3, 4, 5, 6):
        params = SystemParams(d, 1.1)
        for _ in range(6):
            a = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            direct = coherent_normalization(a, params)
            closed = coherent_normalization_closed(a, params)
            assert abs(closed - direct) <= 1e-10 * direct


def test_coherent_from_number_vacuum_term():
    params = SystemParams(4)
    v = coherent_from_number(0, params, n_max=0)
    expect = number_state(0, params)
    assert np.max(np.abs(v.components - expect.components)) < 1e-13


def test_coherent_from_number_converges_to_closed_form():
    params = SystemParams(4)
    v = coherent_from_number(0.5, params, n_max=40)
    closed = coherent_state_closed(0.5, params)
    assert np.max(np.abs(v.components - closed.components)) < 1e-8


def test_coherent_from_number_truncation_error_decreases():
    params = SystemParams(4)
    closed = coherent_state_closed(1.0, params).components
    errs = [np.linalg.norm(coherent_from_number(1.0, params, n_max=n).components - closed)
            for n in range(2, 26)]
    assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-10


def _coherent_from_number_terms(label, params, n_max):
    """coherent_from_number summed term by term: one lattice sum per Hermite index."""
    alpha = complex(label) / math.sqrt(2.0)
    acc = np.zeros(params.d, dtype=complex)
    for n in range(n_max + 1):
        coeff = np.exp(n * np.log(abs(alpha)) - 0.5 * math.lgamma(n + 1)) * (alpha / abs(alpha)) ** n
        acc += coeff * zak_sums(HermiteNumber(n), params)
    return acc * math.exp(-0.25 * abs(label) ** 2) / math.sqrt(coherent_normalization(label, params))


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("label", [0.8 - 0.5j, 2.5 + 1.5j])
def test_coherent_from_number_matches_term_by_term_sum(d, label):
    params = SystemParams(d)
    got = coherent_from_number(label, params, n_max=60).components
    ref = _coherent_from_number_terms(label, params, 60)
    assert np.max(np.abs(got - ref)) < 1e-13


def test_number_normalization_positive():
    params = SystemParams(5)
    for n in (0, 3, 7):
        assert number_normalization(n, params) > 0


def test_displacement_covariance_on_coherent_states():
    for d in (3, 4):
        lam = 1.0
        params = SystemParams(d, lam)
        label = 0.37 - 0.41j
        base = coherent_state_closed(label, params)
        for alpha, beta in [(1, 0), (0, 1), (2, 1), (1, 2)]:
            lhs = displaced_state(base, (alpha, beta)).components
            shifted = label + np.sqrt(2 * np.pi / d) * (beta * lam + 1j * alpha / lam)
            phase = np.exp(-1j * label.imag * lam * np.sqrt(np.pi / (2 * d)) * beta
                           + 1j * label.real / lam * np.sqrt(np.pi / (2 * d)) * alpha)
            rhs = coherent_state_closed(shifted, params).components * phase
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shifted_coherent_resolution_of_identity():
    d = 4
    params = SystemParams(d)
    label = 0.3 + 0.2j
    acc = np.zeros((d, d), dtype=complex)
    for alpha in range(d):
        for beta in range(d):
            v = coherent_state_closed(
                label + np.sqrt(2 * np.pi / d) * (beta + 1j * alpha), params
            ).components
            acc += np.outer(v, v.conj())
    assert np.max(np.abs(acc / d - np.eye(d))) < 1e-9


# --- sectors and inversion ---------------------------------------------------


def test_sector_zero_reduces_to_plain_map():
    params = SystemParams(3)
    psi = GaussianCoherent(0.2 + 0.5j)
    plain = zak_map(psi, params)
    sector = zak_map(psi, params, ZakSector(0.0, 0.0))
    assert np.max(np.abs(plain.components - sector.components)) < 1e-15


def test_component_shift_property():
    # t_{m+d}(s1, s2) = exp(2 pi i s1) t_m(s1, s2), from reindexing the sum
    params = SystemParams(3)
    psi = GaussianCoherent(0.4 - 0.2j)
    sector = ZakSector(0.3, 0.45)
    t = zak_sums(psi, params, sector, m=np.arange(6))
    phase = np.exp(2j * np.pi * sector.sigma1)
    assert np.max(np.abs(t[3:] - phase * t[:3])) < 1e-13


def test_inverse_recovers_gaussian_samples():
    d = 4
    params = SystemParams(d)
    label = 0.5 + 0.25j
    psi = GaussianCoherent(label)
    sigma2 = 0.3
    family = sector_family(psi, params, sigma2=sigma2, n_sigma1=64)
    step = np.sqrt(2 * np.pi / d)
    for m in range(d):
        for w in (-1, 0, 1):
            got = inverse_zak(family, m, w)
            expect = psi(step * (m + sigma2 + d * w))
            assert abs(got - expect) < 1e-8


def test_inverse_handles_out_of_range_component():
    # t_{m+d} = e^{2 pi i sigma1} t_m, so index m+d at winding w must recover
    # the same point as index m at winding w+1
    d = 4
    params = SystemParams(d)
    psi = GaussianCoherent(0.3 - 0.2j)
    family = sector_family(psi, params, sigma2=0.25, n_sigma1=64)
    step = np.sqrt(2 * np.pi / d)
    for m, w in [(5, 0), (-1, 1), (9, -1)]:
        got = inverse_zak(family, m, w)
        expect = psi(step * (m + 0.25 + d * w))
        assert abs(got - expect) < 1e-8


def test_inverse_rejects_coarse_grid():
    # slowly converging Fourier coefficients: wide Gaussian needs many w modes
    params = SystemParams(2, 0.18)
    psi = GaussianCoherent(0.0)
    family = sector_family(psi, params, n_sigma1=4)
    with pytest.raises(RuntimeError, match=r"^sigma1 grid too coarse: quadrature error estimate .* > 1e-06$"):
        inverse_zak(family, 0, 1)


@pytest.mark.parametrize("spread, raises", [(0.5e-6, False), (0.9e-6, False), (1.1e-6, True), (2e-6, True)])
def test_inverse_zak_reads_a_fixed_1e6(spread, raises):
    # component 0 alternates 1 + spread, 1 - spread over the sigma1 grid: the full trapezoid sum
    # is 1 and that on the even points 1 + spread, so the error estimate is spread
    n = 8
    amplitudes = np.ones((n, 2), dtype=complex)
    amplitudes[:, 0] += spread * (-1.0) ** np.arange(n)
    family = SectorFamily(SystemParams(2), np.arange(n) / n, 0.0, amplitudes)
    if raises:
        with pytest.raises(RuntimeError, match=r"^sigma1 grid too coarse: quadrature error estimate \S+ > 1e-06$"):
            inverse_zak(family, 0, 0)
    else:
        assert abs(inverse_zak(family, 0, 0) - 1.0) <= 1e-15


@pytest.mark.parametrize("psi", [HermiteNumber(3), GaussianCoherent(0.4 - 0.3j)], ids=repr)
@pytest.mark.parametrize("sigma2", [0.0, 0.3])
@pytest.mark.parametrize("n_sigma1", [4, 64])
def test_sector_family_matches_per_sector_sums(psi, sigma2, n_sigma1):
    # the family sums every sigma1 over one set of samples; the reference is
    # one zak_sums call per sigma1, the same arithmetic up to the division by
    # the norm and the multiplication back
    params = SystemParams(6)
    family = sector_family(psi, params, sigma2=sigma2, n_sigma1=n_sigma1)
    assert family.sigma2 == sigma2
    for s1, state, norm in zip(family.sigma1, family.states, family.norms):
        ref = zak_sums(psi, params, ZakSector(s1, sigma2))
        assert abs(norm - np.sum(np.abs(ref) ** 2)) <= 1e-14 * norm
        assert np.max(np.abs(np.sqrt(norm) * state.components - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a family built directly from the per-sector sums gives the same components
    direct = SectorFamily(params, family.sigma1, sigma2,
                          np.array([zak_sums(psi, params, ZakSector(s1, sigma2)) for s1 in family.sigma1]))
    scale = np.max(np.abs(family.amplitudes))
    for m in (-7, 0, 13):
        ref = np.array([zak_sums(psi, params, ZakSector(s1, sigma2), m=[m])[0] for s1 in family.sigma1])
        assert np.max(np.abs(family.component(m) - ref)) <= 1e-14 * scale
        assert np.max(np.abs(direct.component(m) - ref)) <= 1e-14 * scale


def test_sector_family_rejects_odd_grid():
    with pytest.raises(ValueError):
        sector_family(GaussianCoherent(0), SystemParams(2), n_sigma1=9)


def test_sector_family_requires_the_uniform_grid():
    # inverse_zak reads an FFT table, which is the trapezoid rule only on the grid k / N
    params, amplitudes = SystemParams(3), np.ones((8, 3), dtype=complex)
    for sigma1 in (np.linspace(0, 1, 8), np.arange(1, 9) / 8, np.arange(7) / 7):
        with pytest.raises(ValueError, match="grid k / N"):
            SectorFamily(params, sigma1, 0.0, amplitudes=amplitudes[:len(sigma1)])
    family = SectorFamily(params, np.linspace(0, 1, 8, endpoint=False), 0.0, amplitudes=amplitudes)
    assert inverse_zak(family, 0, 0) == 1.0


def test_sector_family_checks_its_table():
    # a table of the wrong shape was accepted: inverse_zak then read 1 + 0j and component(1) raised numpy's
    # broadcast error
    params, sigma1 = SystemParams(3), np.arange(8) / 8
    for shape in ((4, 3), (8, 2), (8,), (8, 3, 1)):
        with pytest.raises(ValueError, match=r"^amplitudes must have shape \(N, d\) = \(8, 3\)"):
            SectorFamily(params, sigma1, 0.0, np.ones(shape))


def _direct_inverse_zak(family, m, w):
    """inverse_zak as the direct periodic trapezoid sum over the family's grid and its even points."""
    q, r = divmod(int(m), family.params.d)
    vals = family.amplitudes[:, r] * np.exp(2j * np.pi * (q + w) * family.sigma1)
    full, coarse = complex(vals.sum()) / vals.size, complex(vals[::2].sum()) / vals[::2].size
    if abs(full - coarse) > 1e-6:
        raise RuntimeError("sigma1 grid too coarse")
    return full


@pytest.mark.parametrize("psi, params", [(GaussianCoherent(0.3 - 0.2j), SystemParams(2, 0.5)),
                                         (HermiteNumber(3), SystemParams(5)),
                                         (GaussianCoherent(1.1 + 0.4j), SystemParams(1, 0.7))], ids=repr)
def test_inverse_zak_matches_direct_trapezoid_sum(psi, params):
    d, outcomes = params.d, set()
    for n_sigma1 in (4, 8, 64):
        family = sector_family(psi, params, sigma2=0.3, n_sigma1=n_sigma1)
        # the family rebuilt from its states and norms
        rebuilt = SectorFamily(params, family.sigma1, family.sigma2,
                               np.sqrt(family.norms)[:, None] * np.array([s.components for s in family.states]))
        scale = np.max(np.abs(family.amplitudes))
        for m in range(-2 * d, 3 * d):
            for w in range(-70, 71):  # windings past n_sigma1 / 2 wrap around the table
                try:
                    ref = _direct_inverse_zak(family, m, w)
                except RuntimeError:
                    for fam in (family, rebuilt):
                        with pytest.raises(RuntimeError, match="sigma1 grid too coarse"):
                            inverse_zak(fam, m, w)
                    outcomes.add("raised")
                    continue
                # the direct sum rounds its phase angles, 2 pi (q + w) sigma1, to eps of their size
                bound = 1e-15 * scale * (1 + abs(m // d + w))
                assert abs(inverse_zak(family, m, w) - ref) <= bound
                assert abs(inverse_zak(rebuilt, m, w) - ref) <= bound
                outcomes.add("value")
    assert outcomes == {"raised", "value"}


# --- sampled-grid wavefunctions ----------------------------------------------


def test_sampled_grid_matches_analytic_gaussian():
    label = 0.4 + 0.3j
    x = np.linspace(-12, 12, 4001)
    grid = SampledGrid(x, GaussianCoherent(label)(x))
    params = SystemParams(4)
    got = zak_map(grid, params)
    expect = coherent_state_closed(label, params)
    assert np.max(np.abs(got.components - expect.components)) < 1e-9


def test_sampled_grid_at_one_point():
    # a scalar inside the grid is the spline's value, one outside a decayed grid is 0
    x = np.linspace(-12, 12, 401)
    grid = SampledGrid(x, GaussianCoherent(0.4)(x))
    inside = grid(0.31)
    assert type(inside) is complex and abs(inside - GaussianCoherent(0.4)(0.31)) < 1e-6
    outside = grid(12.5)
    assert type(outside) is complex and outside == 0


def test_sampled_grid_momentum_side():
    label = 0.2 - 0.5j
    x = np.linspace(-14, 14, 6001)
    grid = SampledGrid(x, GaussianCoherent(label)(x))
    params = SystemParams(3)
    got = momentum_zak_map(grid, params)
    expect = fourier_matrix(3) @ zak_map(GaussianCoherent(label), params).components
    assert np.max(np.abs(got.components - expect)) < 1e-7


_WIDE_X = np.linspace(-14, 14, 1501)


@pytest.mark.parametrize("d", [26, 41, 64, 256, 1000])
def test_sampled_grid_momentum_side_at_large_d(d):
    # the trapezoid transform of fourier_at is periodic in p and never decays, so the
    # lattice sums of it raised at the shell cap; the momentum side no longer uses it
    label = 0.2 - 0.5j
    grid, params = SampledGrid(_WIDE_X, GaussianCoherent(label)(_WIDE_X)), SystemParams(d)
    expect = fourier_matrix(d) @ coherent_state_closed(label, params).components
    assert np.max(np.abs(momentum_zak_map(grid, params).components - expect)) < 1e-8


def test_sampled_grid_support_too_small():
    x = np.linspace(-1.0, 1.0, 201)  # Gaussian far from decayed at the edges
    grid = SampledGrid(x, GaussianCoherent(0)(x))
    with pytest.raises(ValueError, match="support"):
        zak_map(grid, SystemParams(4))


def test_sampled_from_csv_roundtrip(tmp_path):
    x = np.linspace(-10, 10, 2001)
    vals = GaussianCoherent(0.3)(x)
    path = tmp_path / "wave.csv"
    lines = ["x,re,im"] + [f"{xi},{v.real},{v.imag}" for xi, v in zip(x, vals)]
    path.write_text("\n".join(lines) + "\n")
    grid = sampled_from_csv(path)
    got = zak_map(grid, SystemParams(3))
    expect = coherent_state_closed(0.3, SystemParams(3))
    assert np.max(np.abs(got.components - expect.components)) < 1e-9


def test_sampled_from_csv_names_a_malformed_row(tmp_path):
    # only the first row may be a header: a bad row further down was skipped,
    # so "1.0e,0.5,0" among 201 data rows loaded 200 rows and no error.  And
    # only a first row whose first cell is not a number: "1.0,abc,0" above
    # the rows loaded as a grid without it
    x = np.linspace(-10, 10, 201)
    lines = ["x,re,im"] + [f"{xi},{v.real},{v.imag}" for xi, v in zip(x, GaussianCoherent(0.3)(x))]
    path = tmp_path / "wave.csv"
    for row, bad in ((100, "1.0e,0.5,0"), (7, "x,re,im"), (201, "3.0,0.5"), (0, "1.0,abc,0"), (0, "1.0,0.5")):
        path.write_text("\n".join(lines[:row] + [bad] + lines[row:]) + "\n")
        with pytest.raises(ValueError, match=f"^malformed CSV row {row + 1} "):
            sampled_from_csv(path)
    path.write_text("\n".join(lines[1:]) + "\n")  # no header
    assert sampled_from_csv(path).x.size == 201


def test_sampled_from_csv_refuses_a_file_without_data_rows(tmp_path):
    path = tmp_path / "wave.csv"
    for text in ("", "x,re,im\n", "x,re,im\n\n,\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^no data rows found in {re.escape(str(path))}$"):
            sampled_from_csv(path)


@pytest.mark.parametrize("x,values,message", [
    (np.arange(5.0), np.ones(4), "grid and values must have the same length"),
    (np.arange(3.0), np.ones(3), "need at least 4 grid points"),
    (np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4), "grid must be strictly increasing"),
    (np.array([0.0, 2.0, 1.0, 3.0]), np.ones(4), "grid must be strictly increasing"),
    (np.arange(4.0), np.zeros(4), "sampled wavefunction is identically zero"),
])
def test_sampled_grid_refuses_bad_tables(x, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SampledGrid(x, values)


# --- the lattice sums against the shell-by-shell loop ---------------------------


def _per_shell_lattice_sums(fn, params, sigma1, sigma2, m=None):
    """The lattice sums one shell w at a time, each twist stopping after _STOP_RUN small shells in a row."""
    d, step = params.d, math.sqrt(2 * math.pi / params.d) * params.lam
    shape = (d,) if m is None else np.shape(m)
    m = np.arange(d) if m is None else np.ravel(m)
    sigma1 = np.atleast_1d(np.asarray(sigma1, dtype=float))
    base = (m + sigma2) * step
    period = d * step
    first = np.asarray(fn(base), dtype=complex)
    total = np.repeat(first[None, :], sigma1.size, axis=0)
    peak = float(np.max(np.abs(first), initial=0.0))
    run = np.zeros(sigma1.size, dtype=int)
    for w in range(1, W_CAP + 1):
        up = np.asarray(fn(base + w * period), dtype=complex)
        down = np.asarray(fn(base - w * period), dtype=complex)
        peak = max(peak, float(np.max(np.abs(up))), float(np.max(np.abs(down))))
        live = run < _STOP_RUN
        phase = np.exp(-2j * np.pi * sigma1[live] * w)[:, None]
        shell = phase * up + np.conj(phase) * down
        total[live] += shell
        rel = np.max(np.abs(shell), axis=1) / (1.0 + np.max(np.abs(total[live]), axis=1))
        run[live] = np.where(rel < _TAIL_TOL, run[live] + 1, 0)
        if np.all(run >= _STOP_RUN):
            return total.reshape((sigma1.size,) + shape), peak
    raise RuntimeError(f"lattice sum tail not converged within |w| <= {W_CAP}")


_GRID_X = np.linspace(-12, 12, 4001)


@pytest.mark.parametrize("d", [1, 2, 7, 48, 1000])
@pytest.mark.parametrize("make_psi, lams", [
    (lambda d, lam: HermiteNumber(0), (1.0,)),
    (lambda d, lam: HermiteNumber(5), (1.0,)),
    (lambda d, lam: HermiteNumber(30), (1.0,)),
    # centred 2.3 periods out, so the sum takes its bulk from the second and third shells
    (lambda d, lam: GaussianCoherent(2.3 * math.sqrt(2 * math.pi * d) * lam + 0.7j), (0.3, 1.0, 2.5)),
    (lambda d, lam: SampledGrid(_GRID_X, GaussianCoherent(0.4 + 0.3j)(_GRID_X)), (1.0,)),
], ids=["hermite0", "hermite5", "hermite30", "far-gaussian", "sampled"])
def test_lattice_sums_match_per_shell_loop(d, make_psi, lams):
    m_wide = np.array([[-2 * d - 1, -1, 0], [d - 1, d, 3 * d + 2]])  # any integers, any shape
    for lam in lams:
        psi, params = make_psi(d, lam), SystemParams(d, lam)
        for sigma1 in ([0.0], np.arange(64) / 64):
            for m in (None, m_wide):
                ref, ref_peak = _per_shell_lattice_sums(psi, params, sigma1, 0.37, m)
                got, peak = _lattice_sums(psi, params, sigma1, 0.37, m)
                assert peak == ref_peak and got.shape == ref.shape
                assert peak > 0 or m is not None  # the far Gaussian lies between the few m of m_wide
                # rounding of sums that reach a few times the largest sample when lam d is small
                assert np.max(np.abs(got - ref)) <= 1e-15 * max(peak, np.max(np.abs(ref)))


def test_sum_stops_at_the_first_run_of_small_shells_inside_a_batch():
    # a Gaussian on a floor 1e-18 x^2 that rises with |x|, like the rounding floor of a
    # sampled grid's trapezoid Fourier transform: at d = 4, |psi(+w)| + |psi(-w)| is
    # 1.3e-15 at shell 5 and 1.8e-15 at shell 6, against 1e-15 (1 + 0.75), so shells 3,
    # 4 and 5 are the only run of small shells and the batch 4 .. 6 ends on a large one
    def psi(x):
        return GaussianCoherent(0)(x) + 1e-18 * np.asarray(x) ** 2

    params = SystemParams(4)
    ref, _ = _per_shell_lattice_sums(psi, params, [0.0], 0.0)
    got, _ = _lattice_sums(psi, params, [0.0], 0.0)
    base, period = np.arange(4) * math.sqrt(2 * math.pi / 4), math.sqrt(2 * math.pi * 4)
    # the loop stops at shell 5; the batch adds shell 6 as well
    assert np.max(np.abs(got[0] - ref[0] - psi(base + 6 * period) - psi(base - 6 * period))) <= 4e-16


def test_centre_is_read_from_the_data():
    x = np.linspace(-5, 15, 2001)
    psis = {HermiteNumber(3): 0.0, GaussianCoherent(1.5 - 2j): 1.5,
            SampledGrid(x, GaussianCoherent(4.2 + 1j)(x)): 4.2}
    for psi, centre in psis.items():
        assert psi.centre == pytest.approx(centre, abs=1e-12)
        with pytest.raises(AttributeError):
            psi.centre = 0.0


def test_far_gaussian_keeps_its_modulus():
    # summed as -x^2/2 + A x - Re(A) A / 2, terms of size |A|^2 = 1e16 rounded psi by up to e^{+-1}
    a = 1e8 + 0.3j
    x = a.real + np.array([-1.0, 0.0, 0.5])
    expect = np.pi ** -0.25 * np.exp(-0.5 * (x - a.real) ** 2)
    assert np.max(np.abs(np.abs(GaussianCoherent(a)(x)) / expect - 1)) < 1e-12


@pytest.mark.parametrize("label, d", [(16, 1), (25, 2), (30, 3), (30, 4)])
def test_far_gaussian_sums_from_its_centre(label, d):
    # counted from w = 0, these sums stopped on the vanishing near tail before the bulk
    params = SystemParams(d)
    assert np.max(np.abs(zak_sums(GaussianCoherent(label), params) - coherent_unnormalized(label, params))) < 1e-12
    got = zak_map(GaussianCoherent(label), params).components
    assert np.max(np.abs(got - coherent_state_closed(label, params).components)) < 1e-12


@pytest.mark.parametrize("sector", [(0.0, 0.0), (0.25, 0.5)])
def test_far_components_sum_from_the_wavefunction(sector):
    # psi = phi_0 at d = 1, lam = 1/0.3: lattice points 8.4 apart, so m = 7 lies seven periods from
    # psi's centre; summed from shell 0 it stopped on the vanishing near tail and returned 2e-243
    params, psi, m = SystemParams(1, 1 / 0.3), HermiteNumber(0), np.array([0, 7, -4])
    sigma1, sigma2 = sector
    step = math.sqrt(2 * math.pi) / 0.3
    w = np.arange(-40, 41)
    direct = [np.sum(np.exp(-2j * np.pi * sigma1 * w) * psi(step * (k + sigma2 + w))) for k in m]
    got = zak_sums(psi, params, ZakSector(*sector), m=m)
    assert np.max(np.abs(got - direct)) < 1e-15
    if sector == (0.0, 0.0):
        assert abs(got[1] - 0.75112554) < 1e-8


@pytest.mark.parametrize("label", [1e10, -1e300])
def test_centre_too_far_to_resolve_raises(label):
    # doubles lie 1e-8 apart and more past 1e8, too coarse for the lattice points near psi
    for d in (1, 4, 64):
        with pytest.raises(ValueError, match="too far out to resolve"):
            zak_map(GaussianCoherent(label), SystemParams(d))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 48, 1000])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_far_gaussians_match_the_closed_form(d, lam):
    # the closed form rounds its exponents to eps |A|^2 (about 1e-10 at d = 1000, lam = 2.5)
    params = SystemParams(d, lam)
    for widths in (3.7, 5.3, -8.6):
        label = widths * params.cell_width + 0.5j
        got = zak_map(GaussianCoherent(label), params).components
        assert np.max(np.abs(got - coherent_state_closed(label, params).components)) < 1e-9


@pytest.mark.parametrize("d", [1, 2, 4])
def test_sampled_grid_far_from_the_origin(d):
    x = np.linspace(25, 55, 3001)
    grid, params = SampledGrid(x, GaussianCoherent(40)(x)), SystemParams(d)
    assert np.max(np.abs(zak_map(grid, params).components - coherent_state_closed(40, params).components)) < 1e-9


@pytest.mark.parametrize("n_twists", [1, 64])
def test_slow_tail_raises_at_the_shell_cap(n_twists):
    sigma1 = np.arange(n_twists) / n_twists
    for fn in (lambda x: 1.0 / (1.0 + np.asarray(x) ** 2), lambda x: np.ones(np.shape(x))):
        with pytest.raises(RuntimeError, match=rf"within \|w\| <= {W_CAP}"):
            _lattice_sums(fn, SystemParams(3), sigma1, 0.0)


@pytest.mark.parametrize("d", [1, 4])
def test_undecayed_sampled_grid_raises_as_the_per_shell_loop(d):
    # at d = 1 the first batch reaches past the grid's edge after its first shell
    x = np.linspace(-3.0, 3.0, 301)
    grid, params = SampledGrid(x, GaussianCoherent(0)(x)), SystemParams(d)
    with pytest.raises(ValueError, match="support") as ref:
        _per_shell_lattice_sums(grid, params, np.arange(8) / 8, 0.0)
    for call in (lambda: _lattice_sums(grid, params, np.arange(8) / 8, 0.0),
                 lambda: zak_map(grid, params),
                 lambda: momentum_zak_map(grid, params),
                 lambda: sector_family(grid, params, n_sigma1=8)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(ref.value)


def test_zak_sums_nonconvergent_tail_raises():
    class Flat:
        def __call__(self, x):
            return np.ones_like(np.asarray(x, dtype=float), dtype=complex)

    with pytest.raises(RuntimeError):
        zak_sums(Flat(), SystemParams(3))


@pytest.mark.parametrize("a,b,name", [(math.nan, 0.0, "a"), (0.0, math.nan, "b"),
                                      (math.inf, 0.0, "a"), (0.0, -math.inf, "b")])
def test_non_finite_cell_anchor_raises(a, b, name):
    # a NaN anchor ended in "cannot convert float NaN to integer" in
    # find_zeros and classify_completeness, and b = inf left scalar_product
    # without end
    with pytest.raises(ValueError, match=f"cell anchor {name} must be finite"):
        SystemParams(4, 1.0, a, b)
