"""The entire-function picture: states as theta sums on one cell.

Any d-component state defines an entire function with one real period and one
quasi-period, so the whole function lives on a single cell of area 2 pi d.
The demo evaluates a random state, verifies both periodicity relations, the
bilinear cell-integral pairing, and the displaced-function closed form, then
evaluates f of a d = 1000 state on a 400 x 250 grid of 10^5 points and
reports the time and the peak traced memory.  Both stay small because f
recognises the tensor grid and sums it as one matrix product of row factors
(one per height) and column factors (one per abscissa), with real
exponentials and phase powers for the 250 heights and 400 abscissae only.
"""

import time
import tracemalloc

import numpy as np

from finiteq import (
    AnalyticState,
    FiniteState,
    SystemParams,
    displaced_f,
    displacement,
    scalar_product,
)

rng = np.random.default_rng(7)
d = 4
params = SystemParams(d)
state = FiniteState(rng.normal(size=d) + 1j * rng.normal(size=d))
f = AnalyticState(state, params)

W, H = params.cell_width, params.cell_height
print(f"d={d}: cell [0, {W:.4f}) x [0, {H:.4f}), area {W * H:.4f} = 2 pi d = {2 * np.pi * d:.4f}")

z = 1.3 + 0.8j
print(f"\nf({z}) = {f(z):.6f}")
print(f"real period:  |f(z + W) - f(z)|                  = {abs(f(z + W) - f(z)):.2e}")
growth = np.exp(np.pi * d - 1j * np.sqrt(2 * np.pi * d) * z)
rel = abs(f(z + 1j * H) - f(z) * growth) / abs(f(z) * growth)
print(f"quasi-period: f(z + iH) = f(z) e^(pi d - i sqrt(2 pi d) z) to {rel:.2e} rel")

g = AnalyticState(FiniteState(rng.normal(size=d) + 1j * rng.normal(size=d)), params)
bilinear = np.sum(f.state.components * g.state.components)
quad = scalar_product(f, g)
print(f"\ncell integral vs componentwise bilinear sum: |diff| = {abs(quad - bilinear):.2e}")

alpha, beta = 1, 2
closed = displaced_f(f, alpha, beta, z)
moved = AnalyticState(FiniteState(displacement(d, alpha, beta) @ state.components,
                                  normalize=False), params)
print(f"displaced evaluation, labels ({alpha},{beta}): closed form vs matrix path "
      f"|diff| = {abs(closed - moved(z)):.2e}")

d_big = 1000
big_params = SystemParams(d_big)
big = AnalyticState(FiniteState(rng.normal(size=d_big) + 1j * rng.normal(size=d_big)), big_params)
x = big_params.cell_width * (np.arange(400) + 0.5) / 400
y = 30.0 * (np.arange(250) + 0.5) / 250  # heights up to 30, where |f| ~ exp(y^2 / 2) stays in double range
grid = x[None, :] + 1j * y[:, None]
tracemalloc.start()
start = time.perf_counter()
values = big(grid)
elapsed = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(f"\nd={d_big}: f on a {x.size} x {y.size} grid ({grid.size} points) in {elapsed * 1e3:.0f} ms, "
      f"peak traced memory {peak / 1e6:.1f} MB (the values alone take {values.nbytes / 1e6:.1f} MB); "
      f"all finite: {bool(np.all(np.isfinite(values)))}")
