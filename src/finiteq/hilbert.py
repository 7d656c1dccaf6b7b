"""Linear algebra of a d-dimensional quantum system over Z_d.

Position states are the standard basis vectors; momentum states are their
images under the unitary ``fourier_matrix(d)`` with entries
``d**-0.5 * exp(2j pi m n / d)``.  Displacements combine the cyclic shift X
and the diagonal phase Z with a half-angle phase::

    D(alpha, beta) = Z**alpha X**beta exp(-1j pi alpha beta / d)

which acts on the position basis as

    D(alpha, beta) |m> = exp(1j pi (alpha beta + 2 alpha m) / d) |m + beta>.

The half-angle phase is well defined for every d (even d included) and makes
D(alpha, beta)^dagger = D(-alpha, -beta) exact on integer labels.  As a
function of its integer labels D is 2d-periodic, not d-periodic:
D(alpha + d, beta) = (-1)**beta D(alpha, beta).  Phases are reduced in exact
integer arithmetic modulo 2d before exponentiation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "FiniteState",
    "PhasePoint",
    "omega_power",
    "half_power",
    "fourier_matrix",
    "position_state",
    "momentum_state",
    "position_operator",
    "momentum_operator",
    "shift_matrix",
    "clock_matrix",
    "displacement",
    "displaced_state",
    "weyl_function",
    "operator_from_weyl",
    "is_unitary",
]

_NORM_ATOL = 1e-12


class FiniteState:
    """A d-component complex state vector over the position basis.

    Components are stored as a complex ndarray; by default the constructor
    normalizes to unit norm.  Index arithmetic is understood modulo d.
    """

    def __init__(self, components, normalize: bool = True):
        vec = np.asarray(components, dtype=complex).reshape(-1).copy()
        if vec.size == 0:
            raise ValueError("state needs at least one component")
        if not np.all(np.isfinite(vec)):
            raise ValueError("state components must be finite")
        nrm = np.linalg.norm(vec)
        if normalize:
            if nrm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec = vec / nrm
            nrm = 1.0
        self.components = vec
        self.normalized = abs(nrm - 1.0) <= _NORM_ATOL

    @property
    def d(self) -> int:
        return self.components.size

    def inner(self, other: "FiniteState") -> complex:
        """Sesquilinear inner product <self|other>."""
        return complex(np.vdot(self.components, other.components))

    def fidelity(self, other: "FiniteState") -> float:
        """|<self|other>|, insensitive to global phase."""
        return abs(self.inner(other))

    def __repr__(self):
        return f"FiniteState(d={self.d}, normalized={self.normalized})"


class PhasePoint(NamedTuple):
    """A point (alpha, beta) of the Z_d x Z_d phase-space lattice."""

    alpha: int
    beta: int

    def reduced(self, d: int) -> "PhasePoint":
        return PhasePoint(self.alpha % d, self.beta % d)


def omega_power(d: int, k: int) -> complex:
    """exp(2j pi k / d) with the exponent reduced mod d as an integer."""
    return np.exp(2j * np.pi * (int(k) % d) / d)


def half_power(d: int, k: int) -> complex:
    """exp(1j pi k / d) with the exponent reduced mod 2d as an integer."""
    return np.exp(1j * np.pi * (int(k) % (2 * d)) / d)


def _check_dim(d: int) -> int:
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return d


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary with entries d**-0.5 * omega(m n); satisfies F^4 = 1."""
    d = _check_dim(d)
    m = np.arange(d)
    phase = np.exp(2j * np.pi * ((np.outer(m, m)) % d) / d)
    return phase / np.sqrt(d)


def position_state(m: int, d: int) -> FiniteState:
    d = _check_dim(d)
    vec = np.zeros(d, dtype=complex)
    vec[int(m) % d] = 1.0
    return FiniteState(vec, normalize=False)


def momentum_state(m: int, d: int) -> FiniteState:
    """Image of the m-th position state under the Fourier matrix."""
    d = _check_dim(d)
    n = np.arange(d)
    vec = np.exp(2j * np.pi * ((int(m) % d) * n % d) / d) / np.sqrt(d)
    return FiniteState(vec, normalize=False)


def position_operator(d: int) -> np.ndarray:
    """diag(0, 1, ..., d-1) in the position basis."""
    return np.diag(np.arange(_check_dim(d), dtype=complex))


def momentum_operator(d: int) -> np.ndarray:
    """sum_n n |P;n><P;n| in the position basis."""
    d = _check_dim(d)
    op = np.zeros((d, d), dtype=complex)
    for n in range(d):
        v = momentum_state(n, d).components
        op += n * np.outer(v, v.conj())
    return op


def clock_matrix(d: int, alpha: int = 1) -> np.ndarray:
    """Z**alpha: diagonal phases omega(alpha m) on position states."""
    d = _check_dim(d)
    m = np.arange(d)
    return np.diag(np.exp(2j * np.pi * ((int(alpha) * m) % d) / d))


def shift_matrix(d: int, beta: int = 1) -> np.ndarray:
    """X**beta: cyclic shift |m> -> |m + beta> of the position basis."""
    d = _check_dim(d)
    m = np.arange(d)
    mat = np.zeros((d, d), dtype=complex)
    mat[(m + int(beta) % d) % d, m] = 1.0
    return mat


def displacement(d: int, alpha: int, beta: int) -> np.ndarray:
    """Matrix of D(alpha, beta) for arbitrary integer labels.

    D(alpha, beta) |m> = half_power(d, alpha*beta + 2*alpha*m) |m + beta>.
    """
    d = _check_dim(d)
    # D depends on the labels mod 2d only; reducing them keeps the exponents small
    alpha, beta = int(alpha) % (2 * d), int(beta) % (2 * d)
    m = np.arange(d)
    mat = np.zeros((d, d), dtype=complex)
    mat[(m + beta) % d, m] = np.exp(1j * (np.pi * ((alpha * beta + 2 * alpha * m) % (2 * d)) / d))
    return mat


def displaced_state(state: FiniteState, point) -> FiniteState:
    """Apply D(alpha, beta) to a state; `point` is a PhasePoint or (alpha, beta)."""
    alpha, beta = point
    out = displacement(state.d, alpha, beta) @ state.components
    return FiniteState(out, normalize=False)


def weyl_function(op: np.ndarray) -> np.ndarray:
    """Table W(alpha, beta) = Tr[op D(alpha, beta)] over canonical labels [0, d)^2."""
    op = np.asarray(op, dtype=complex)
    d = op.shape[0]
    if op.shape != (d, d):
        raise ValueError(f"operator must be square, got shape {op.shape}")
    table = np.empty((d, d), dtype=complex)
    for alpha in range(d):
        for beta in range(d):
            table[alpha, beta] = np.trace(op @ displacement(d, alpha, beta))
    return table


def operator_from_weyl(table: np.ndarray, d: int | None = None) -> np.ndarray:
    """Invert :func:`weyl_function`.

    Uses the adjoint pairing op = d**-1 sum_{a,b} W(a, b) D(a, b)^dagger,
    which reproduces the displaced-operator expansion exactly for every d;
    the label-sign ambiguity of negated even-d labels cancels in the pair
    (trace coefficient, adjoint operator).
    """
    table = np.asarray(table, dtype=complex)
    if d is None:
        d = table.shape[0]
    d = _check_dim(d)
    if table.shape != (d, d):
        raise ValueError(f"Weyl table must be {d}x{d}, got {table.shape}")
    op = np.zeros((d, d), dtype=complex)
    for alpha in range(d):
        for beta in range(d):
            op += table[alpha, beta] * displacement(d, alpha, beta).conj().T
    return op / d


def is_unitary(op: np.ndarray, tol: float = 1e-10) -> bool:
    op = np.asarray(op, dtype=complex)
    d = op.shape[0]
    return bool(np.max(np.abs(op @ op.conj().T - np.eye(d))) <= tol)
