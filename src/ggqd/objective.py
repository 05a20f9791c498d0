"""Measurement objective and its exact reduction over one direction.

Local projective measurements along unit vectors a (first qubit) and b
(second qubit) score

    f(a, b) = 1 + (y.b)^2 + (x.a)^2 + (a.Tb)^2,

one quarter of which is the bilinear trace term maximized inside the
discord functional. For fixed b the a-dependence is the quadratic form of
x x' + (Tb)(Tb)', a symmetric matrix of rank at most 2 whose top eigenvalue
and eigenvector are available in closed form; that makes the maximization
over a exact and leaves only b to search.

This module holds the public single-state API (objective_f,
objective_rows, reduced_over_a and rank2_lambda_max) and rank2_top, the
stacked eigenpair that both gives a_star in the solver and serves the
public calls. The solver evaluates g on many directions at once in its own
_reduced_excess.
"""

from __future__ import annotations

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


def objective_rows(corr: CorrelationData, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f(a, b) for each pair of rows of ``a`` and ``b`` (unchecked directions)."""
    yb = b @ corr.y
    xa = a @ corr.x
    atb = np.einsum("...i,...i->...", a, b @ corr.T.T)
    return 1.0 + yb * yb + xa * xa + atb * atb


def objective_f(corr: CorrelationData, dirs) -> float:
    """Evaluate f(a, b) at the pair ``dirs`` = (a, b); raises NonUnitDirectionError unless both are unit 3-vectors."""
    a, b = dirs
    return float(objective_rows(corr, _unit(a, "a"), _unit(b, "b")))


def rank2_top(uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue (n,) and a unit eigenvector (n, 3) of u u' + v v' for each pair.

    ``uv`` has shape (n, 2, 3): u and v of each pair, in that order.

    lambda_max = (|u|^2 + |v|^2 + sqrt((|u|^2 - |v|^2)^2 + 4 (u.v)^2)) / 2.

    The eigenvector is alpha u + beta v with (alpha, beta) the top
    eigenvector of [[u.u, u.v], [u.v, v.v]]. When the top eigenvalue is
    degenerate (|u| = |v|, u.v = 0) the normalized u + v direction is
    returned, falling back to u; the zero form returns e3. Each pair is
    first scaled by a power of two to a largest entry in [0.5, 1), which is
    exact, so tiny or huge inputs neither underflow nor overflow; only an
    eigenvalue beyond float64 does, to inf. Every stacked step treats each
    pair on its own, so row k is bit for bit the result for pair k alone.
    """
    big = np.abs(uv).max(axis=(1, 2), keepdims=True)
    e = np.frexp(big)[1]  # (n, 1, 1)
    uv = np.ldexp(uv, -e)
    gram = uv @ uv.swapaxes(1, 2)
    p, q, r = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    pr = p + r
    s = np.hypot(p - r, 2.0 * q)
    lam = 0.5 * (pr + s)

    # (alpha, beta) is orthogonal to the longer row, (lam - p, -q) or (-q, lam - r), of lam I - gram
    d0, d1 = lam - p, lam - r
    qq = q * q
    first = d0 * d0 + qq >= d1 * d1 + qq
    alpha = np.where(first, q, d1)
    beta = np.where(first, d0, q)
    w = alpha[:, None] * uv[:, 0] + beta[:, None] * uv[:, 1]
    split = s > 1e-14 * pr
    if np.count_nonzero(split) < len(split):  # degenerate form: every span direction achieves lam
        both = uv[:, 0] + uv[:, 1]
        tie = np.where((np.abs(both).max(axis=1) > 0.0)[:, None], both, uv[:, 0])
        w = np.where(split[:, None], w, tie)
        w[big[:, 0, 0] == 0.0] = (0.0, 0.0, 1.0)
    w /= np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0])
    return np.ldexp(lam, 2 * e[:, 0, 0]), w


def rank2_lambda_max(u, v) -> tuple[float, np.ndarray]:
    """Top eigenvalue and a unit eigenvector of u u' + v v'; see rank2_top.

    A batch of one through rank2_top. Raises ValueError if u or v has a
    non-finite entry.
    """
    uv = np.array([[u, v]], dtype=float)
    for name, w in zip("uv", uv[0]):
        if not np.isfinite(w).all():
            raise ValueError(f"{name} must be finite")
    lam, w = rank2_top(uv)
    return float(lam[0]), w[0]


def reduced_over_a(corr: CorrelationData, b) -> tuple[float, np.ndarray]:
    """Exact maximum of f(., b) over unit a, with the maximizing a.

    g(b) = 1 + (y.b)^2 + lambda_max(x x' + (Tb)(Tb)').
    """
    b = _unit(b, "b")
    yb = float(corr.y @ b)
    lam, a = rank2_lambda_max(corr.x, corr.T @ b)
    return 1.0 + yb * yb + lam, a
