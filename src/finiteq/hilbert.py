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
D(alpha + d, beta) = (-1)**beta D(alpha, beta).  Every phase here is
``half_power(d, k) = exp(1j pi k / d)``, which reduces k modulo 2d in exact
integer arithmetic before exponentiation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .theta import _finite, _integer, _integers, _square

__all__ = [
    "FiniteState",
    "PhasePoint",
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
_UNITARY_TOL = 1e-10  # the entrywise distance of op op^dagger from the identity that is_unitary allows


class FiniteState:
    """A d-component complex state vector over the position basis.

    Components are stored as a complex ndarray; by default the constructor
    normalizes to unit norm.  Index arithmetic is understood modulo d.
    """

    def __init__(self, components, normalize: bool = True):
        vec = _finite(components, "state components").reshape(-1).copy()
        if vec.size == 0:
            raise ValueError("state needs at least one component")
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


def half_power(d: int, k) -> complex:
    """exp(1j pi k / d) for an int or an int array k, reduced mod 2d as an integer: the one half-angle phase."""
    d = _integer(d, "dimension", 1)
    return np.exp(1j * (np.pi * (_integers(k, "exponent k") % (2 * d)) / d))


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary with entries d**-0.5 * omega(m n); satisfies F^4 = 1."""
    m = np.arange(_integer(d, "dimension", 1))
    return half_power(d, 2 * np.outer(m, m)) / np.sqrt(d)


def position_state(m: int, d: int) -> FiniteState:
    d = _integer(d, "dimension", 1)
    vec = np.zeros(d, dtype=complex)
    vec[_integer(m, "label m") % d] = 1.0
    return FiniteState(vec, normalize=False)


def momentum_state(m: int, d: int) -> FiniteState:
    """Image of the m-th position state under the Fourier matrix."""
    d = _integer(d, "dimension", 1)
    vec = half_power(d, 2 * (_integer(m, "label m") % d) * np.arange(d)) / np.sqrt(d)
    return FiniteState(vec, normalize=False)


def position_operator(d: int) -> np.ndarray:
    """diag(0, 1, ..., d-1) in the position basis."""
    return np.diag(np.arange(_integer(d, "dimension", 1), dtype=complex))


def momentum_operator(d: int) -> np.ndarray:
    """sum_n n |P;n><P;n| = F diag(0, 1, ..., d-1) F^dagger in the position basis."""
    F = fourier_matrix(d)
    return (F * np.arange(F.shape[0])) @ F.conj().T


def clock_matrix(d: int, alpha: int = 1) -> np.ndarray:
    """Z**alpha = D(alpha, 0): diagonal phases omega(alpha m) on position states."""
    return displacement(d, alpha, 0)


def shift_matrix(d: int, beta: int = 1) -> np.ndarray:
    """X**beta = D(0, beta): cyclic shift |m> -> |m + beta> of the position basis."""
    return displacement(d, 0, beta)


def _column_phases(d: int, alpha: int, beta: int):
    """Rows (m + beta) mod d and phases half_power(d, alpha*beta + 2*alpha*m) of D's columns m."""
    # D depends on the labels mod 2d only; reducing them keeps the exponents small
    alpha, beta = _integer(alpha, "label alpha") % (2 * d), _integer(beta, "label beta") % (2 * d)
    m = np.arange(d)
    return (m + beta) % d, half_power(d, alpha * beta + 2 * alpha * m)


def displacement(d: int, alpha: int, beta: int) -> np.ndarray:
    """Matrix of D(alpha, beta) for arbitrary integer labels.

    D(alpha, beta) |m> = half_power(d, alpha*beta + 2*alpha*m) |m + beta>.
    """
    d = _integer(d, "dimension", 1)
    rows, phases = _column_phases(d, alpha, beta)
    mat = np.zeros((d, d), dtype=complex)
    mat[rows, np.arange(d)] = phases
    return mat


def displaced_state(state: FiniteState, point) -> FiniteState:
    """Apply D(alpha, beta) to a state; `point` is a PhasePoint or (alpha, beta).  O(d)."""
    alpha, beta = point
    rows, phases = _column_phases(state.d, alpha, beta)
    out = np.empty(state.d, dtype=complex)
    out[rows] = phases * state.components
    return FiniteState(out, normalize=False)


def _diagonals(d: int):
    """Index arrays (rows, cols) with op[rows, cols][beta, m] = op[m, (m + beta) mod d]."""
    m = np.arange(d)
    return m[None, :], (m[None, :] + m[:, None]) % d


def weyl_function(op: np.ndarray) -> np.ndarray:
    """Table W(alpha, beta) = Tr[op D(alpha, beta)] over canonical labels [0, d)^2.

    Since (op D(alpha, beta))[m, m] = op[m, m + beta] exp(1j pi (alpha beta + 2 alpha m) / d),

        W(alpha, beta) = exp(1j pi alpha beta / d) sum_m op[m, (m + beta) mod d] exp(2j pi alpha m / d),

    one inverse FFT over m of the d wrapped diagonals of op, O(d^2 log d).
    """
    op = _square(op, "operator")
    d, m = len(op), np.arange(len(op))
    return d * np.fft.ifft(op[_diagonals(d)], axis=1).T * half_power(d, np.outer(m, m))


def operator_from_weyl(table: np.ndarray) -> np.ndarray:
    """Invert :func:`weyl_function`.

    Uses the adjoint pairing op = d**-1 sum_{a,b} W(a, b) D(a, b)^dagger,
    which reproduces the displaced-operator expansion exactly for every d;
    the label-sign ambiguity of negated even-d labels cancels in the pair
    (trace coefficient, adjoint operator).  On the wrapped diagonals,

        op[m, (m + beta) mod d] = d**-1 sum_alpha W(alpha, beta) exp(-1j pi alpha beta / d) exp(-2j pi alpha m / d),

    one FFT over alpha, O(d^2 log d).
    """
    table = _square(table, "Weyl table")
    d = len(table)
    op, m = np.empty((d, d), dtype=complex), np.arange(d)
    op[_diagonals(d)] = np.fft.fft(table * half_power(d, np.outer(m, m)).conj(), axis=0).T / d
    return op


def is_unitary(op: np.ndarray) -> bool:
    """Whether op op^dagger is within _UNITARY_TOL = 1e-10 of the identity entrywise; op finite and square."""
    op = _square(op, "operator")
    return bool(np.max(np.abs(op @ op.conj().T - np.eye(len(op)))) <= _UNITARY_TOL)
