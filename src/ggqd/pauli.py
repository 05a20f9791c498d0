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

#: _BASIS[m, n] = kron(sigma_m, sigma_n) for m, n in 0..3
_BASIS = np.einsum("mij,nkl->mnikjl", PAULIS, PAULIS).reshape(4, 4, 4, 4)


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


def pauli_decompose_stack(ms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x (n, 3), y (n, 3) and T (n, 3, 3) of every matrix of an (n, 4, 4) stack.

    One einsum against the Pauli basis, with no checks: the stack is taken
    as given, for example from validate_density_stack. The coefficients are
    the real parts of Tr(rho sigma_m x sigma_n); each matrix's are computed
    on their own, so they are bit for bit those of a stack of that matrix
    alone. The three arrays are C-contiguous.
    """
    c = np.einsum("kij,mnji->kmn", ms, _BASIS).real
    return (
        np.ascontiguousarray(c[:, 1:, 0]),
        np.ascontiguousarray(c[:, 0, 1:]),
        np.ascontiguousarray(c[:, 1:, 1:]),
    )


def pauli_decompose(rho) -> CorrelationData:
    """Extract (x, y, T) from a density matrix.

    Accepts a DensityMatrix or a bare 4x4 array. A bare array goes through
    ``validate_density(m, allow_nonphysical=True)``, so it must be finite,
    Hermitian and of unit trace. The coefficients are the real parts of
    Tr(rho sigma_m x sigma_n), which equal those of the Hermitian part of
    the input, so imaginary parts of the traces are discarded. A stack of
    one through pauli_decompose_stack.
    """
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho, allow_nonphysical=True)
    x, y, t = pauli_decompose_stack(rho.entries[None])
    return CorrelationData(x=x[0], y=y[0], T=t[0])


def reconstruct_density(corr: CorrelationData) -> DensityMatrix:
    """Inverse of :func:`pauli_decompose`.

    The result is Hermitian with unit trace by construction but may fail
    positivity for arbitrary correlation data; it is returned with the
    physicality check waived and validated downstream where needed.
    """
    m = 0.5 * np.einsum("mn,mnij->ij", correlation_matrix(corr), _BASIS)
    return validate_density(m, allow_nonphysical=True)


def correlation_matrix(corr: CorrelationData) -> np.ndarray:
    """The 4x4 coefficient matrix C = [[1, y'], [x, T]] / 2."""
    return 0.5 * np.block([[np.ones((1, 1)), corr.y[None, :]], [corr.x[:, None], corr.T]])


def _row_dots(u: np.ndarray) -> np.ndarray:
    """u_k . u_k for each row k of an (n, m) array, as ``u[k] @ u[k]`` computes it.

    A stacked matmul runs the same dot product per row as the 1-D ``@``,
    where an elementwise sum or einsum may round differently.
    """
    return np.matmul(u[:, None, :], u[:, :, None])[:, 0, 0]


def trace_cc_stack(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """trace_cc of stacked Bloch data: x (n, 3), y (n, 3) and T (n, 3, 3).

    inf, without a warning, wherever the sum overflows float64.
    """
    with np.errstate(over="ignore"):
        tt = (t * t).reshape(len(t), 9).sum(axis=1)  # summed in the order of np.sum over one T
        return 0.25 * (1.0 + _row_dots(x) + _row_dots(y) + tt)


def trace_cc(corr: CorrelationData) -> float:
    """Squared Frobenius norm of C: (1 + |x|^2 + |y|^2 + |T|_F^2) / 4.

    A Python float; inf, without a warning, when the sum overflows float64.
    A stack of one through trace_cc_stack.
    """
    return float(trace_cc_stack(corr.x[None], corr.y[None], corr.T[None])[0])
