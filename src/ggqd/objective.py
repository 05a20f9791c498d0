"""Measurement objective and its exact reduction over one direction.

Local projective measurements along unit vectors a (first qubit) and b
(second qubit) score

    f(a, b) = 1 + (y.b)^2 + (x.a)^2 + (a.Tb)^2,

one quarter of which is the bilinear trace term maximized inside the
discord functional. For fixed b the a-dependence is the quadratic form of
x x' + (Tb)(Tb)', a symmetric matrix of rank at most 2 whose top eigenvalue
and eigenvector are available in closed form; that makes the maximization
over a exact and leaves only b to search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitDirectionError
from .pauli import CorrelationData

UNIT_TOL = 1e-12


def sphere_direction(azimuth, polar) -> np.ndarray:
    """Unit vector (cos az sin pol, sin az sin pol, cos pol).

    The angles may be arrays; they broadcast, and the vectors run along a
    new last axis.
    """
    az, pol = np.broadcast_arrays(np.asarray(azimuth, dtype=float), np.asarray(polar, dtype=float))
    sp = np.sin(pol)
    return np.stack([np.cos(az) * sp, np.sin(az) * sp, np.cos(pol)], axis=-1)


def _unit(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise NonUnitDirectionError(f"{name} must be a 3-vector, got shape {arr.shape}")
    dev = abs(float(arr @ arr) - 1.0)
    if not dev <= 2.0 * UNIT_TOL:  # norm^2 tolerance ~ 2x norm tolerance; NaN fails too
        raise NonUnitDirectionError(f"{name} has |{name}|^2 - 1 = {dev:.3e}, not a unit vector")
    return arr


@dataclass(frozen=True)
class MeasurementDirections:
    """Unit measurement directions a (first qubit) and b (second qubit)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            arr = _unit(getattr(self, name), name).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_angles(cls, theta1: float, theta2: float, theta3: float, theta4: float):
        """b from spherical angles (theta1, theta2), a from (theta3, theta4)."""
        return cls(a=sphere_direction(theta3, theta4), b=sphere_direction(theta1, theta2))


def objective_rows(corr: CorrelationData, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f(a, b) for each pair of rows of ``a`` and ``b`` (unchecked directions)."""
    yb = b @ corr.y
    xa = a @ corr.x
    atb = np.einsum("...i,...i->...", a, b @ corr.T.T)
    return 1.0 + yb * yb + xa * xa + atb * atb


def objective_f(corr: CorrelationData, dirs) -> float:
    """Evaluate f(a, b); ``dirs`` is a MeasurementDirections or an (a, b) pair."""
    if isinstance(dirs, MeasurementDirections):
        a, b = dirs.a, dirs.b
    else:
        a, b = dirs
        a = _unit(a, "a")
        b = _unit(b, "b")
    return float(objective_rows(corr, a, b))


def rank2_lambda_max(u, v) -> tuple[float, np.ndarray]:
    """Top eigenvalue and a unit eigenvector of u u' + v v'.

    lambda_max = (|u|^2 + |v|^2 + sqrt((|u|^2 - |v|^2)^2 + 4 (u.v)^2)) / 2.

    The eigenvector is alpha u + beta v with (alpha, beta) the top
    eigenvector of [[u.u, u.v], [u.v, v.v]]. When the top eigenvalue is
    degenerate (|u| = |v|, u.v = 0) the normalized u + v direction is
    returned, falling back to u; the zero form returns e3. u and v are first
    scaled by a power of two to a largest entry in [0.5, 1), which is exact,
    so tiny or huge inputs neither underflow nor overflow.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    big = max(np.abs(u).max(), np.abs(v).max())
    if big == 0.0:
        return 0.0, np.array([0.0, 0.0, 1.0])
    e = math.frexp(big)[1]
    u = np.ldexp(u, -e)
    v = np.ldexp(v, -e)
    p = float(u @ u)
    r = float(v @ v)
    q = float(u @ v)
    s = math.hypot(p - r, 2.0 * q)
    lam = 0.5 * (p + r + s)

    if s > 1e-14 * (p + r):
        n1 = q * q + (lam - p) ** 2
        n2 = (lam - r) ** 2 + q * q
        alpha, beta = (q, lam - p) if n1 >= n2 else (lam - r, q)
        w = alpha * u + beta * v
    else:  # degenerate form: every span direction achieves lam
        w = u + v if np.abs(u + v).max() > 0.0 else u
    return math.ldexp(lam, 2 * e), w / np.linalg.norm(w)


def reduced_over_a(corr: CorrelationData, b) -> tuple[float, np.ndarray]:
    """Exact maximum of f(., b) over unit a, with the maximizing a.

    g(b) = 1 + (y.b)^2 + lambda_max(x x' + (Tb)(Tb)').
    """
    b = _unit(b, "b")
    yb = float(corr.y @ b)
    lam, a = rank2_lambda_max(corr.x, corr.T @ b)
    return 1.0 + yb * yb + lam, a


#: (i, j) index pairs with i <= j: the six distinct monomials b_i b_j
_PAIR_I, _PAIR_J = np.triu_indices(3)


def direction_monomials(b: np.ndarray) -> np.ndarray:
    """The nine monomials b_i b_j (i <= j) and b_i of each direction.

    ``b`` holds directions along its last axis, shape (..., m, 3); the result
    is a new C-contiguous array of shape (..., 9, m), one column per
    direction, written row by row without temporaries.
    """
    b = np.asarray(b, dtype=float)
    mono = np.empty(b.shape[:-2] + (9, b.shape[-2]))
    for row, (i, j) in enumerate(zip(_PAIR_I, _PAIR_J)):
        np.multiply(b[..., i], b[..., j], out=mono[..., row, :])
    mono[..., 6:, :] = np.swapaxes(b, -1, -2)
    return mono


def reduction_coefficients(corr: CorrelationData) -> np.ndarray:
    """The (3, 9) matrix C whose product with direction_monomials(b) is (r, q, y.b).

    r = |Tb|^2 = b'(T'T)b and q = (Tb).x = (T'x).b are the inputs of the
    rank-2 eigenvalue formula in reduced_over_a_monomials.
    """
    ttt = corr.T.T @ corr.T
    c = np.zeros((3, 9))
    c[0, :6] = ttt[_PAIR_I, _PAIR_J] * np.where(_PAIR_I == _PAIR_J, 1.0, 2.0)
    c[1, 6:] = corr.T.T @ corr.x
    c[2, 6:] = corr.y
    return c


def reduced_over_a_monomials(coef: np.ndarray, p, mono: np.ndarray) -> np.ndarray:
    """g(b) at every monomial column (values only, no maximizers).

    ``coef`` is reduction_coefficients(corr), shape (..., 3, 9), ``p`` is
    |x|^2 (broadcast against the columns) and ``mono`` is
    direction_monomials(b), shape (..., 9, m); the result has shape (..., m).
    With r = |Tb|^2 and q = (Tb).x, the top eigenvalue of x x' + (Tb)(Tb)' is
    lambda_max = (p + r + sqrt((p - r)^2 + 4 q^2)) / 2.

    The formula runs in place in the rows of coef @ mono, with one
    temporary. On a 16,380-node grid each fresh temporary is a 131 KB
    block that the C allocator maps and unmaps, and the page faults of
    the ten that the plain expression makes cost up to twice the
    arithmetic (measured on a 2-core Xeon under Linux). The result is a
    view of the y.b row.
    """
    rqy = coef @ mono
    r, q, yb = rqy[..., 0, :], rqy[..., 1, :], rqy[..., 2, :]
    d = p - r
    d *= d
    q *= q
    q *= 4.0  # exact, so 4 q q rounds as (4 q) q does
    d += q
    np.sqrt(d, out=d)
    r += p
    r += d
    r *= 0.5  # lambda_max
    yb *= yb
    yb += 1.0
    yb += r
    return yb
