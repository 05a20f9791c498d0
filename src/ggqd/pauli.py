"""Bloch-vector form of two-qubit states.

A two-qubit density matrix is equivalent to the real triple (x, y, T):

    x_i  = Tr(rho sigma_i x I)      Bloch vector of the first qubit
    y_j  = Tr(rho I x sigma_j)      Bloch vector of the second qubit
    T_ij = Tr(rho sigma_i x sigma_j)  joint correlation matrix

via rho = (I x I + sum_i x_i sigma_i x I + sum_j y_j I x sigma_j
           + sum_ij T_ij sigma_i x sigma_j) / 4.

In the orthonormal product basis sigma_m/sqrt(2) the coefficient matrix is
C = [[1, y'], [x, T]] / 2, whose squared Frobenius norm
(1 + |x|^2 + |y|^2 + |T|_F^2) / 4 is the state-dependent constant of the
discord functional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import PAULIS, DensityMatrix, validate_density

#: kron(sigma_m, sigma_n) for m, n in 0..3
_BASIS = tuple(tuple(np.kron(PAULIS[m], PAULIS[n]) for n in range(4)) for m in range(4))


@dataclass(frozen=True)
class CorrelationData:
    """Real Bloch vectors x, y and 3x3 correlation matrix T."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        for name, want in (("x", (3,)), ("y", (3,)), ("T", (3, 3))):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def pauli_decompose(rho) -> CorrelationData:
    """Extract (x, y, T) from a density matrix.

    Accepts a DensityMatrix or a bare 4x4 array. A bare array goes through
    ``validate_density(m, allow_nonphysical=True)``, so it must be finite,
    Hermitian and of unit trace. The Hermitian part of the input is used, so
    the expectation values are real to machine precision and imaginary
    parts are discarded.
    """
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho, allow_nonphysical=True)
    m = rho.entries
    h = 0.5 * (m + m.conj().T)
    x = np.array([np.trace(h @ _BASIS[i][0]).real for i in (1, 2, 3)])
    y = np.array([np.trace(h @ _BASIS[0][j]).real for j in (1, 2, 3)])
    t = np.array([[np.trace(h @ _BASIS[i][j]).real for j in (1, 2, 3)] for i in (1, 2, 3)])
    return CorrelationData(x=x, y=y, T=t)


def reconstruct_density(corr: CorrelationData) -> DensityMatrix:
    """Inverse of :func:`pauli_decompose`.

    The result is Hermitian with unit trace by construction but may fail
    positivity for arbitrary correlation data; it is returned with the
    physicality check waived and validated downstream where needed.
    """
    m = _BASIS[0][0].astype(complex)
    for i in range(3):
        m = m + corr.x[i] * _BASIS[i + 1][0] + corr.y[i] * _BASIS[0][i + 1]
    for i in range(3):
        for j in range(3):
            m = m + corr.T[i, j] * _BASIS[i + 1][j + 1]
    return validate_density(0.25 * m, allow_nonphysical=True)


def correlation_matrix(corr: CorrelationData) -> np.ndarray:
    """The 4x4 coefficient matrix C = [[1, y'], [x, T]] / 2."""
    c = np.empty((4, 4))
    c[0, 0] = 1.0
    c[0, 1:] = corr.y
    c[1:, 0] = corr.x
    c[1:, 1:] = corr.T
    return 0.5 * c


def trace_cc(corr: CorrelationData) -> float:
    """Squared Frobenius norm of C: (1 + |x|^2 + |y|^2 + |T|_F^2) / 4."""
    return 0.25 * (1.0 + corr.x @ corr.x + corr.y @ corr.y + float(np.sum(corr.T * corr.T)))
