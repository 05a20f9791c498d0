"""Maximization over both measurement directions and discord assembly.

The fast path grids the b-sphere, evaluates the exact a-reduction at every
node, and polishes the best node with a compass search in the two
b-angles; the a-maximizer is then exact at the polished b. The brute force
oracle searches all four angles on a grid with one compass-search polish
and evaluates f directly, never touching the analytic reduction, so the two
routes are independent.

GGQD(rho) = trace_cc(corr) - f_max / 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objective import (
    MeasurementDirections,
    objective_f,
    objective_rows,
    reduced_over_a,
    reduced_over_a_batch,
    require_canonical,
    sphere_direction,
)
from .pauli import CorrelationData, pauli_decompose, trace_cc
from .qstate import DensityMatrix

_METHODS = ("fast", "oracle", "xstate", "both")

#: The compass search stops once the centre wins at an angle step this small,
#: or after this many iterations (it needs at most ~75 on either path).
_REFINE_STEP_TOL = 1e-7
_REFINE_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class SolverConfig:
    """Grid and polish knobs.

    Defaults keep the oracle under ~2 s per state (73 x 37 = 2,701 nodes
    per sphere, so 7,295,401 objective evaluations at the 5 degree grid)
    and the fast path in the millisecond range at the 2 degree b-grid.
    Each step is also the first compass-search step of its polish.
    """

    b_grid_step: float = 0.035
    oracle_angle_step: float = 0.087

    def __post_init__(self):
        for name in ("b_grid_step", "oracle_angle_step"):
            step = getattr(self, name)
            if not 0.0 < step <= math.pi / 2.0:
                raise ValueError(f"{name} = {step} outside (0, pi/2]")


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


def _direction_grid(step: float) -> tuple[np.ndarray, np.ndarray]:
    """All unit vectors of the (azimuth, polar) product grid, and their angle pairs."""
    azimuth = np.arange(0.0, 2.0 * math.pi, step)
    polar = np.arange(0.0, math.pi + 0.5 * step, step)
    angles = np.stack(np.meshgrid(azimuth, polar, indexing="ij"), axis=-1).reshape(-1, 2)
    return sphere_direction(angles[:, 0], angles[:, 1]), angles


def _refine(fun, start: np.ndarray, step: float) -> np.ndarray:
    """Compass search for a local maximum of ``fun`` near ``start``.

    ``fun`` maps an (n, d) array of points to n values. Each iteration
    evaluates the full 3^d stencil ``x + step * {-1, 0, 1}^d`` in one call
    and moves to its best point if that beats the centre x; otherwise it
    halves the step. It stops once the centre wins at a step of at most
    _REFINE_STEP_TOL, or after _REFINE_MAX_ITERATIONS iterations. It never
    moves to a worse point, so the result is at least as good as ``start``.
    """
    offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=len(start))))
    centre = len(offsets) // 2  # the all-zero offset
    x = np.asarray(start, dtype=float)
    for _ in range(_REFINE_MAX_ITERATIONS):
        values = fun(x + step * offsets)
        k = int(np.argmax(values))
        if values[k] > values[centre]:
            x = x + step * offsets[k]
        elif step <= _REFINE_STEP_TOL:
            break
        else:
            step *= 0.5
    return x


def maximize_objective(corr: CorrelationData, cfg: SolverConfig | None = None):
    """Maximize f over both directions via the exact a-reduction.

    Returns (f_max, a_star, b_star). The b-sphere is gridded at
    cfg.b_grid_step, the best node is polished by a compass search on the
    two b-angles starting at the grid step, and a_star is the exact top
    eigenvector at the final b.
    """
    cfg = cfg or SolverConfig()
    bs, angles = _direction_grid(cfg.b_grid_step)
    k = int(np.argmax(reduced_over_a_batch(corr, bs)))

    def stencil(points):
        return reduced_over_a_batch(corr, sphere_direction(points[:, 0], points[:, 1]))

    best = _refine(stencil, angles[k], cfg.b_grid_step)
    b_star = sphere_direction(best[0], best[1])
    f_max, a_star = reduced_over_a(corr, b_star)
    return f_max, _orient(a_star), _orient(b_star)


def _oracle_search(corr: CorrelationData, cfg: SolverConfig):
    """4-angle grid search plus one compass-search polish of f itself.

    Both spheres are gridded at cfg.oracle_angle_step and f is evaluated at
    every (a, b) pair; the best pair is polished over all four angles. No
    step uses the analytic a-reduction.
    """
    bs, b_angles = _direction_grid(cfg.oracle_angle_step)
    as_, a_angles = _direction_grid(cfg.oracle_angle_step)

    f = as_ @ (corr.T @ bs.T)
    np.square(f, out=f)
    f += ((as_ @ corr.x) ** 2)[:, None]
    f += ((bs @ corr.y) ** 2)[None, :]
    f += 1.0
    ia, ib = np.unravel_index(np.argmax(f), f.shape)

    def stencil(points):
        a = sphere_direction(points[:, 2], points[:, 3])
        b = sphere_direction(points[:, 0], points[:, 1])
        return objective_rows(corr, a, b)

    start = np.concatenate([b_angles[ib], a_angles[ia]])
    angles = _refine(stencil, start, cfg.oracle_angle_step)
    a_star = sphere_direction(angles[2], angles[3])
    b_star = sphere_direction(angles[0], angles[1])
    return objective_f(corr, (a_star, b_star)), _orient(a_star), _orient(b_star)


def brute_force_oracle(corr: CorrelationData, cfg: SolverConfig | None = None) -> float:
    """Independent check: exhaustive 4-angle grid at cfg.oracle_angle_step, then a polish of f."""
    return _oracle_search(corr, cfg or SolverConfig())[0]


def xstate_candidates(corr: CorrelationData) -> list[MeasurementDirections]:
    """Each axis b = e1, e2, e3 with its exact maximizing a (canonical data only).

    f is even in b, so -b adds nothing. The best candidate is the global
    maximum on the X pattern (T diagonal, x and y along e3) and on the
    zero-y pattern (y = 0, x in the 1-3 plane, T supported on (1,3), (2,2),
    (3,3)); on general canonical data it can fall below the fast path.
    """
    require_canonical(corr)
    return [MeasurementDirections(a=_orient(reduced_over_a(corr, b)[1]), b=b) for b in np.eye(3)]


def ggqd(rho: DensityMatrix, cfg: SolverConfig | None = None, method: str = "fast") -> GgqdResult:
    """Geometric global quantum discord of a two-qubit state.

    method:
      fast    exact a-reduction over a b-grid with compass-search polish
      oracle  4-angle brute force with compass-search polish only
      xstate  best of the exact a-reduction at b = e1, e2, e3 (canonical
              data only; exact on the X and zero-y patterns)
      both    fast, cross-checked against the oracle (fills oracle_gap)
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method '{method}'; expected one of {_METHODS}")
    cfg = cfg or SolverConfig()
    corr = pauli_decompose(rho)
    tcc = trace_cc(corr)
    gap = None

    if method == "xstate":
        pairs = xstate_candidates(corr)
        values = [objective_f(corr, d) for d in pairs]
        k = int(np.argmax(values))
        f_max, a_star, b_star = values[k], pairs[k].a, pairs[k].b
        name = "xstate_candidates"
    elif method == "oracle":
        f_max, a_star, b_star = _oracle_search(corr, cfg)
        name = "oracle"
    else:
        f_max, a_star, b_star = maximize_objective(corr, cfg)
        name = "fast"
        if method == "both":
            gap = abs(f_max - brute_force_oracle(corr, cfg))

    return GgqdResult(
        ggqd=tcc - 0.25 * f_max,
        f_max=f_max,
        a_star=a_star,
        b_star=b_star,
        trace_cc=tcc,
        method=name,
        oracle_gap=gap,
    )
