"""Coherent states on Z_d: theta closed forms, overlaps, and resolutions.

The displaced-Gaussian state can be computed two ways, by lattice-summing the
Gaussian or from a single theta function per component; they agree to machine
precision.  Overlaps have one closed theta-product form, exact for every d,
and both d^2-point and cell-integral resolutions of the identity hold.
"""

import numpy as np

from finiteq import (
    GaussianCoherent,
    SystemParams,
    coherent_identity_matrix,
    coherent_overlap,
    coherent_overlap_direct,
    coherent_state_closed,
    zak_map,
)

label = 0.6 - 0.4j
for d, lam in ((4, 1.0), (5, 1.2)):
    params = SystemParams(d, lam)
    summed = zak_map(GaussianCoherent(label), params)
    closed = coherent_state_closed(label, params)
    diff = np.max(np.abs(summed.components - closed.components))
    print(f"d={d}, lam={lam}: |lattice sum - theta form| = {diff:.2e}")

print("\nOverlaps: closed theta products vs direct component sums")
rng = np.random.default_rng(1)
for d in (4, 5):
    params = SystemParams(d)
    worst = 0.0
    for _ in range(20):
        a1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        worst = max(worst, abs(coherent_overlap(a1, a2, params)
                               - coherent_overlap_direct(a1, a2, params)))
    print(f"  d={d}: worst |closed - direct| = {worst:.2e}")

print("\nd^2 shifted copies of one coherent state resolve the identity:")
d = 4
params = SystemParams(d)
acc = np.zeros((d, d), dtype=complex)
for alpha in range(d):
    for beta in range(d):
        v = coherent_state_closed(label + np.sqrt(2 * np.pi / d) * (beta + 1j * alpha),
                                  params).components
        acc += np.outer(v, v.conj())
print(f"  max |sum/d - 1| = {np.max(np.abs(acc / d - np.eye(d))):.2e}")

print("\nCell integral of N(A) |A><A| (periodic trapezoid rule):")
for d in (2, 3):
    dev = np.max(np.abs(coherent_identity_matrix(SystemParams(d)) - np.eye(d)))
    print(f"  d={d}: max deviation from identity = {dev:.2e}")
