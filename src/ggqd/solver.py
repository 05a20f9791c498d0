"""Maximization over both measurement directions and discord assembly.

The fast path grids the b-sphere, evaluates the exact a-reduction at every
node, and polishes the best node with a compass search in the two
b-angles; the a-maximizer is then exact at the polished b. It is batched:
the grid and its monomials are built once, each state's grid costs
one small matrix product against the monomials, and the polishes of all
states run in lockstep; one state is a batch of one. The brute force
oracle searches all four angles on a grid with one compass-search polish
and evaluates f directly, never touching the analytic reduction, so the two
routes are independent. On X states (T diagonal, x and y along e3) the fast
path meets the paper's closed form
f_max = 1 + max(x3^2 + y3^2 + T33^2, T11^2, T22^2), which the tests assert.

GGQD(rho) = trace_cc(corr) - f_max / 4.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objective import (
    direction_monomials,
    objective_f,
    objective_rows,
    reduced_over_a,
    reduced_over_a_monomials,
    reduction_coefficients,
    sphere_direction,
)
from .pauli import CorrelationData, pauli_decompose, trace_cc

_METHODS = ("fast", "oracle", "both")

#: The compass search stops once the centre wins at an angle step this small,
#: or after this many iterations (it needs at most ~75 on either path).
_REFINE_STEP_TOL = 1e-7
_REFINE_MAX_ITERATIONS = 200

#: Grid steps in radians, each also the first compass-search step of its
#: polish. The fast path's 2 degree b-grid has 180 x 91 = 16,380 nodes and
#: costs a few milliseconds per state, less per state in a batch. The
#: oracle's 5 degree grid has 73 x 37 = 2,701 nodes per sphere, so 7,295,401
#: objective evaluations, which keeps it under ~2 s per state.
_B_GRID_STEP = 0.035
_ORACLE_STEP = 0.087


@dataclass(frozen=True)
class GgqdResult:
    """Discord value with maximizer and diagnostics.

    ggqd == trace_cc - f_max / 4 exactly; ``method`` names the route that
    produced f_max; ``oracle_gap`` is |fast - oracle| when both ran.
    """

    ggqd: float
    f_max: float
    a_star: np.ndarray
    b_star: np.ndarray
    trace_cc: float
    method: str
    oracle_gap: float | None = None


def _orient(v: np.ndarray) -> np.ndarray:
    """Pick the sign representative: third component >= 0, then first, then second.

    Components within 10 * _REFINE_STEP_TOL (the polish's accuracy) count as 0.
    """
    tol = 10.0 * _REFINE_STEP_TOL
    w = np.array(v, dtype=float)
    flip = w[2] < -tol or (
        abs(w[2]) <= tol and (w[0] < -tol or (abs(w[0]) <= tol and w[1] < 0.0))
    )
    return -w if flip else w


def _grid_angles(step: float) -> np.ndarray:
    """The (azimuth, polar) pairs of the product grid at ``step``, read-only."""
    azimuth = np.arange(0.0, 2.0 * math.pi, step)
    polar = np.arange(0.0, math.pi + 0.5 * step, step)
    angles = np.stack(np.meshgrid(azimuth, polar, indexing="ij"), axis=-1).reshape(-1, 2)
    angles.setflags(write=False)
    return angles


@functools.cache
def _direction_grid() -> tuple[np.ndarray, np.ndarray]:
    """All unit vectors of the oracle's (azimuth, polar) product grid, and their angle pairs.

    Built on first use and shared read-only.
    """
    angles = _grid_angles(_ORACLE_STEP)
    bs = sphere_direction(angles[:, 0], angles[:, 1])
    bs.setflags(write=False)
    return bs, angles


@functools.cache
def _grid_monomials() -> tuple[np.ndarray, np.ndarray]:
    """The b-grid's angle pairs and the direction_monomials of its directions, read-only.

    Built on first use. The monomials are one contiguous (9, m) array. The
    fast path needs no direction vectors beside them, so unlike
    _direction_grid none are kept.
    """
    angles = _grid_angles(_B_GRID_STEP)
    mono = direction_monomials(sphere_direction(angles[:, 0], angles[:, 1]))
    mono.setflags(write=False)
    return angles, mono


def _refine(fun, start: np.ndarray, step: float) -> np.ndarray:
    """Compass search for a local maximum of ``fun`` near each row of ``start``.

    ``start`` is (n, d): n independent searches run in lockstep, each with
    its own step, which begins at ``step``. ``fun`` maps an (n, 3^d, d)
    array of points to (n, 3^d) values, row k depending only on row k of
    the points. Each iteration evaluates every row's full 3^d stencil
    ``x + step * {-1, 0, 1}^d`` in one call; a row moves to its best point
    if that beats the centre x and otherwise halves its step. A row is done
    once its centre wins at a step of at most _REFINE_STEP_TOL: it then
    stays put and, re-evaluated at the same points, repeats that decision,
    so every row follows exactly the path it would follow alone. The loop
    ends when every row is done, or after _REFINE_MAX_ITERATIONS
    iterations. No row moves to a worse point.
    """
    x = np.array(start, dtype=float)
    zero = (0.0,) * x.shape[1]
    others = [o for o in itertools.product((-1.0, 0.0, 1.0), repeat=len(zero)) if o != zero]
    # The centre comes first: argmax picks it unless a point beats it
    # strictly, and ties between other points go to the first in product order.
    offsets = np.array([zero] + others)
    h = np.full(len(x), float(step))
    for _ in range(_REFINE_MAX_ITERATIONS):
        k = fun(x[:, None, :] + h[:, None, None] * offsets).argmax(axis=1)
        shrink = (k == 0) & (h > _REFINE_STEP_TOL)
        if not (k.any() or shrink.any()):
            break
        x += h[:, None] * offsets[k]  # offsets[0] is zero: a row that stays adds 0
        h[shrink] *= 0.5
    return x


def _maximize_many(corrs: list[CorrelationData]) -> list[tuple]:
    """maximize_objective for each of ``corrs``, as one batch.

    Each state's grid is evaluated on its own, through the cached grid
    monomials; the polishes then run in lockstep. Row k of the result is
    bit for bit what a batch of corrs[k] alone returns.
    """
    if not corrs:
        return []
    angles, mono = _grid_monomials()
    coefs = np.stack([reduction_coefficients(c) for c in corrs])
    p = np.array([c.x @ c.x for c in corrs])
    start = angles[[int(np.argmax(reduced_over_a_monomials(c, pk, mono))) for c, pk in zip(coefs, p)]]

    def stencil(points):
        mono = direction_monomials(sphere_direction(points[..., 0], points[..., 1]))
        return reduced_over_a_monomials(coefs, p[:, None], mono)

    out = []
    for corr, (azimuth, polar) in zip(corrs, _refine(stencil, start, _B_GRID_STEP)):
        b_star = sphere_direction(azimuth, polar)
        f_max, a_star = reduced_over_a(corr, b_star)
        out.append((f_max, _orient(a_star), _orient(b_star)))
    return out


def maximize_objective(corr: CorrelationData):
    """Maximize f over both directions via the exact a-reduction.

    Returns (f_max, a_star, b_star). The b-sphere is gridded at a 2 degree
    step, the best node is polished by a compass search on the two b-angles
    starting at the grid step, and a_star is the exact top eigenvector at
    the final b. A batch of one through the batched solve.
    """
    return _maximize_many([corr])[0]


def _oracle_search(corr: CorrelationData):
    """4-angle grid search plus one compass-search polish of f itself.

    Both spheres are gridded at a 5 degree step and f is evaluated at every
    (a, b) pair; the best pair is polished over all four angles. No step
    uses the analytic a-reduction.
    """
    bs, b_angles = _direction_grid()
    as_, a_angles = _direction_grid()

    f = as_ @ (corr.T @ bs.T)
    np.square(f, out=f)
    f += ((as_ @ corr.x) ** 2)[:, None]
    f += ((bs @ corr.y) ** 2)[None, :]
    f += 1.0
    ia, ib = np.unravel_index(np.argmax(f), f.shape)

    def stencil(points):
        a = sphere_direction(points[..., 2], points[..., 3])
        b = sphere_direction(points[..., 0], points[..., 1])
        return objective_rows(corr, a, b)

    start = np.concatenate([b_angles[ib], a_angles[ia]])
    angles = _refine(stencil, start[None], _ORACLE_STEP)[0]
    a_star = sphere_direction(angles[2], angles[3])
    b_star = sphere_direction(angles[0], angles[1])
    return objective_f(corr, (a_star, b_star)), _orient(a_star), _orient(b_star)


def brute_force_oracle(corr: CorrelationData) -> float:
    """Independent check: exhaustive 4-angle grid at a 5 degree step, then a polish of f."""
    return _oracle_search(corr)[0]


def ggqd_many(states, method: str = "fast") -> list[GgqdResult]:
    """Geometric global quantum discord of each state, solved as one batch.

    Each state is a DensityMatrix, a bare 4x4 array (validated as in
    pauli_decompose) or its CorrelationData. Result k is bit for bit
    ``ggqd(states[k], method)``. The fast path (also under ``both``)
    evaluates each state's b-grid on its own and polishes all states in
    lockstep; ``oracle`` and the oracle half of ``both`` run state by
    state. See :func:`ggqd` for the methods.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method '{method}'; expected one of {_METHODS}")
    corrs = [s if isinstance(s, CorrelationData) else pauli_decompose(s) for s in states]

    if method == "oracle":
        solved, name = [_oracle_search(c) for c in corrs], "oracle"
    else:
        solved, name = _maximize_many(corrs), "fast"

    results = []
    for corr, (f_max, a_star, b_star) in zip(corrs, solved):
        tcc = trace_cc(corr)
        gap = abs(f_max - brute_force_oracle(corr)) if method == "both" else None
        results.append(
            GgqdResult(
                ggqd=tcc - 0.25 * f_max,
                f_max=f_max,
                a_star=a_star,
                b_star=b_star,
                trace_cc=tcc,
                method=name,
                oracle_gap=gap,
            )
        )
    return results


def ggqd(rho, method: str = "fast") -> GgqdResult:
    """Geometric global quantum discord of a two-qubit state.

    ``rho`` is a DensityMatrix, a bare 4x4 array or its CorrelationData;
    the call is ``ggqd_many([rho], method)[0]``, a batch of one.

    method:
      fast    exact a-reduction over a cached b-grid with compass-search polish
      oracle  4-angle brute force with compass-search polish only
      both    fast, cross-checked against the oracle (fills oracle_gap)
    """
    return ggqd_many([rho], method)[0]
