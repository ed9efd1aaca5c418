"""Dense linear algebra for small-dimensional quantum maps.

Superoperators act on column-vectorized operators: vec(A rho B) =
(B^T ⊗ A) vec(rho).  Choi matrices use the trace-1 convention (image of
the maximally entangled state), so a trace-preserving map has a unit-trace
Choi matrix and complete positivity is equivalent to its smallest
eigenvalue being non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianChoi,
    SingularMap,
    UnsupportedDimension,
)

HERMITICITY_TOL = 1e-8
CPTP_TOL = 1e-9
SINGULARITY_TOL = 1e-8

PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def vec(op: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(op, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class Superoperator:
    """A linear map on d x d operators stored as a d^2 x d^2 matrix."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionMismatch(
                f"superoperator matrix must be {self.dim**2} x {self.dim**2}, got {m.shape}"
            )
        object.__setattr__(self, "matrix", m)


def identity_superoperator(dim: int) -> Superoperator:
    return Superoperator(dim, np.eye(dim**2, dtype=complex))


def kraus_conjugation(u: np.ndarray) -> Superoperator:
    """Superoperator of rho -> U rho U^dagger."""
    u = np.asarray(u, dtype=complex)
    return Superoperator(u.shape[0], np.kron(u.conj(), u))


def depolarizing_superoperator(dim: int, f: float) -> Superoperator:
    """rho -> f rho + (1 - f) Tr[rho] 1/d.  f may lie outside [0, 1]."""
    d = dim
    mix = np.outer(vec(np.eye(d) / d), vec(np.eye(d)).conj())
    return Superoperator(d, f * np.eye(d**2, dtype=complex) + (1 - f) * mix)


def pauli_superoperator(probs) -> Superoperator:
    """Qubit Pauli map rho -> sum_i p_i sigma_i rho sigma_i.

    probs is the 4-tuple (p_0, p_x, p_y, p_z); entries may be negative
    (non-CPTP maps are representable).
    """
    m = np.zeros((4, 4), dtype=complex)
    for p, key in zip(probs, "0xyz"):
        s = PAULI[key]
        m += p * np.kron(s.conj(), s)
    return Superoperator(2, m)


def apply_map(s: Superoperator, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (s.dim, s.dim):
        raise DimensionMismatch(f"operator shape {rho.shape} does not match dim {s.dim}")
    return unvec(s.matrix @ vec(rho), s.dim)


def compose_maps(s2: Superoperator, s1: Superoperator) -> Superoperator:
    """The composition s2 ∘ s1 (s1 acts first)."""
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"dims {s1.dim} and {s2.dim} differ")
    return Superoperator(s1.dim, s2.matrix @ s1.matrix)


def invert_map(s: Superoperator, tol: float = SINGULARITY_TOL) -> Superoperator:
    smin = np.linalg.svd(s.matrix, compute_uv=False)[-1]
    if smin <= tol:
        raise SingularMap(f"smallest singular value {smin:.3e} <= {tol:.3e}")
    return Superoperator(s.dim, np.linalg.inv(s.matrix))


def choi_of(s: Superoperator) -> np.ndarray:
    """Trace-1 Choi matrix: (S ⊗ I) applied to |phi+><phi+|, a realignment
    of S: J[(a, i), (b, k)] = S[(a, b), (i, k)] / d in column-stacking order."""
    d = s.dim
    return s.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d) / d


def min_choi_eigenvalue(s: Superoperator) -> float:
    j = choi_of(s)
    anti = np.max(np.abs(j - j.conj().T))
    if anti > HERMITICITY_TOL:
        raise NonHermitianChoi(f"anti-hermitian part {anti:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return float(np.linalg.eigvalsh(hermitian_part(j))[0])


def is_trace_preserving(s: Superoperator, tol: float = CPTP_TOL) -> bool:
    # Tr(S(rho)) = <vec(1), S vec(rho)>; trace preservation means
    # S^dagger vec(1) = vec(1).
    v1 = vec(np.eye(s.dim))
    return bool(np.max(np.abs(s.matrix.conj().T @ v1 - v1)) <= tol)


def is_cptp(s: Superoperator, tol: float = CPTP_TOL) -> bool:
    return is_trace_preserving(s, tol) and min_choi_eigenvalue(s) >= -tol


def is_unitary_map(s: Superoperator, tol: float = CPTP_TOL) -> bool:
    """True iff the map is a unitary conjugation.

    Uses Choi purity: a trace-preserving map with rank-1 Choi matrix is a
    unitary conjugation (equal input/output dimensions).
    """
    if not is_trace_preserving(s, max(tol, 1e-7)):
        return False
    j = choi_of(s)
    purity = float(np.trace(j @ j).real)
    return purity >= 1 - max(tol, 1e-9)


def trace_norm(h: np.ndarray) -> float:
    h = np.asarray(h, dtype=complex)
    anti = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if anti > HERMITICITY_TOL:
        raise NonHermitianChoi(f"operator not hermitian within {HERMITICITY_TOL:.0e}")
    return float(np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(h)))))


def partial_transpose(m: np.ndarray, dim: int) -> np.ndarray:
    """Transpose the second tensor factor of a (dim*dim) x (dim*dim) matrix."""
    d = dim
    t = m.reshape(d, d, d, d)
    return t.transpose(0, 3, 2, 1).reshape(d * d, d * d)


def is_eb_qubit(s: Superoperator) -> bool:
    """Entanglement-breaking test for qubit channels via the PPT criterion.

    PPT of the Choi state is equivalent to separability in 2 x 2, which in
    turn is equivalent to the channel being entanglement breaking.
    """
    if s.dim != 2:
        raise UnsupportedDimension("EB test implemented only for qubits (PPT is sound in 2x2)")
    j = hermitian_part(choi_of(s))
    pt = hermitian_part(partial_transpose(j, 2))
    return float(np.linalg.eigvalsh(pt)[0]) >= -1e-10


def is_valid_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> bool:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        return False
    if abs(np.trace(rho).real - 1) > tol:
        return False
    return float(np.linalg.eigvalsh(hermitian_part(rho))[0]) >= -tol
