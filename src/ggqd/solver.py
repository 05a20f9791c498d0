"""Maximization over both measurement directions and discord assembly.

Two solvers find f_max = max_{a,b} f(a, b) on stacked Bloch data x (n, 3),
y (n, 3) and T (n, 3, 3); one state is a batch of one. Both scale each
state's data by a power of two (_exact_scaling), which f - 1 follows
exactly, grid northern hemispheres (f is even in a and in b), and polish
each state's best node with _lockstep_newton: one safeguarded Riemannian
Newton ascent that steps all states in lockstep, each on its own, so a
state's result does not depend on its batch. ggqd_bloch hands both
solvers at most _CHUNK states at a time.

The fast path evaluates the exact a-reduction g(b) = max_a f(a, b) by one
route, _reduced_excess: one product of the rows [T'T | T'x | y]' with the
directions b as columns, then the rank-2 eigenvalue formula in place. It
takes g at the shared grid's nodes, then polishes g on the sphere from the
closed-form tangent gradient and 2 x 2 Hessian of the rank-2 eigenvalue,
taking each trial value from the same route. Every exact a-maximizer and
trace_cc then come from stacked array operations. On X states (T
diagonal, x and y along e3) it meets the paper's closed form
f_max = 1 + max(x3^2 + y3^2 + T33^2, T11^2, T22^2), which the tests assert.

The brute force oracle, the independent check, grids both directions on
the same cached grid. It bounds each a-row's maximum over b by the top
eigenvalue of a rank-2 form, evaluates the rows of the largest bounds
first, then every row left whose bound can still reach the best value, in
grid order, one block at a time into one reused buffer (one product of
per-a quadratic-form weights with the grid's pair monomials), so its best
node is bit for bit the full grid's. It polishes f itself on the product
of the two spheres from f's own gradient and Hessian. It never touches the
a-reduction: the two solvers share only the grid's nodes and pair
monomials, and _lockstep_newton sees only the stacked arrays, terms,
values and step solve that each solver hands it; it alone selects the
active rows, takes the norms and caps and maps each step.

GGQD(rho) = trace_cc(corr) - f_max / 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResultError
from .objective import rank2_top, sphere_direction
from .pauli import CorrelationData, pauli_decompose_stack, trace_cc_stack
from .qstate import DensityMatrix, validate_density

_METHODS = ("fast", "oracle", "both")

#: _orient counts components within this of 0 as 0.
_ORIENT_TOL = 1e-6

#: Both Newton polishes run _lockstep_newton. It stops a state once its
#: tangent gradient is at most _NEWTON_GRAD_TOL (in the solver's scaled
#: units), tries each step at full length and halved up to
#: _NEWTON_HALVINGS times, and takes at most _NEWTON_MAX_ITERATIONS steps
#: (on Ginibre seeds 0-1999 the fast path takes 2 to 4 from its 873-node
#: grid, 2.9 on average, and the oracle 3 to 4, 3.1 on average).
#: A Newton step whose decrement grad.d, twice the model's gain, is at most
#: _NEWTON_GAIN_TOL max(1, h) is taken unverified, as the row's last: h and
#: its trials each carry a few roundings of max(1, h), so the value test
#: cannot see such a gain. At 2 eps one oracle row on those seeds stops
#: at a gradient of 7.6e-8, and at 1024 eps one stops above _NEWTON_GRAD_TOL.
_NEWTON_GRAD_TOL = 1e-12
_NEWTON_HALVINGS = 30
_NEWTON_MAX_ITERATIONS = 50
_NEWTON_GAIN_TOL = 16 * np.finfo(float).eps
#: The trial step lengths 1, 1/2, ..., 2^-_NEWTON_HALVINGS, the 2x2 identity, and the
#: signs that take a 2x2 matrix with its rows and columns reversed to minus its adjugate.
_STEP_LENGTHS = 0.5 ** np.arange(_NEWTON_HALVINGS + 1)
_EYE2 = np.eye(2)
_NEG_ADJ = np.array([[-1.0, 1.0], [1.0, -1.0]])

#: Takes (x.a, y.b, 2s), read off the oracle's frame products, to (x.a, y.b, s).
_PAIR_COEF = np.array([1.0, 1.0, 0.5])
_ONES3 = np.ones(3)

#: The grid step in radians. Both solvers run over one grid, _ring_angles'
#: ring-scaled northern hemisphere at this step: f is even in a and in b,
#: and so is g, so every direction's antipode lies in that hemisphere and
#: the resolution is that of the full sphere. Its 873 nodes have a covering
#: radius of 3.50 degrees (each node counted with its antipode). The fast
#: path's first best node of g on it starts the Newton polish of g, and the
#: oracle's best of its 762,129 pairs starts the Newton polish of f.
_GRID_STEP = 0.087

#: The index pairs (i, j), i <= j, of the grid's pair monomials b_i b_j,
#: and the weight of each in a quadratic form: 2 off the diagonal.
_ORACLE_PAIRS = np.array(np.triu_indices(3))
_ORACLE_PAIR_WEIGHTS = np.where(_ORACLE_PAIRS[0] == _ORACLE_PAIRS[1], 1.0, 2.0)

#: The oracle evaluates its grid's a-rows in blocks, each one K = 6 matmul
#: into a reused buffer and one row max. The first block is the
#: _ORACLE_FIRST_BLOCK rows of the largest bounds on each row's maximum,
#: picked by a partial selection, not a sort. On 2,000 Ginibre states
#: (seeds 0-1999) a median of 1 row and at most 7 could reach the best, and
#: the visit evaluated 8 rows (6,984 pairs) on every one. On an earlier
#: 1,387-node grid, 4 or 16 rows timed the same and 2 slower. Each later
#: block takes the unvisited rows whose bound may still reach the best, in
#: grid order, at most _ORACLE_BLOCK of them: a 64 x 873 float64 block is
#: ~0.45 MB, which stays in L2. gemm gives each row the same bits in any
#: block, but NumPy hands a one-row product to gemv, which rounds
#: differently, so a block of one row takes its grid neighbour along.
_ORACLE_FIRST_BLOCK = 8
_ORACLE_BLOCK = 64

#: A row a is skipped once its bound (x.a)^2 + lambda (_oracle_bounds), with
#: lambda the top eigenvalue of uu' + yy', is below the best row value so
#: far minus this margin, which covers rounding. The bound and the row's
#: values take the same computed u = T'a and (x.a)^2, so only the roundings
#: of the two computations count. On data scaled by _exact_scaling every
#: entry is below 1, so |u|^2 < 9, |y|^2 < 3, |u.y| < 6 and (x.a)^2 < 3:
#: every bound is below 16. A row value adds (x.a)^2 to a 6-term dot of the
#: weights 2 (u_i u_j + y_i y_j) with the grid monomials b_i b_j. By
#: Cauchy-Schwarz the terms' magnitudes sum to at most
#: (|u|^2 + |y|^2) |b|^2 < 12, the form is at most lambda |b|^2, and
#: |b|^2 = 1 to a few ulps, so the computed value exceeds the exact bound by
#: at most ~12 roundings of a number below 16. The computed bound rounds
#: |u|^2, |y|^2 and u.y (~7 roundings of numbers below 9), their
#: difference, the square root of (|u|^2 - |y|^2)^2 + 4 (u.y)^2 (a norm,
#: so it moves by no more than its inputs, plus ~3 roundings of a number
#: below 12), and two sums: ~15 more. That is under 30 ulps of 16, ~1.1e-13,
#: and the margin is 9 times larger; the largest excess of a row value over
#: its bound measured on ~500 states, Werner, |Phi+>, rank-1 and
#: orthogonal T and y along u among them, is 4.4e-16. So every skipped row
#: is strictly below the best, and the first best row is the full grid's.
_ORACLE_BOUND_MARGIN = 1e-12

#: ggqd_bloch hands its solvers this many states at a time. Their lockstep
#: polishes hold ~7 KB per state, so a 1e6-state input would otherwise
#: need ~7 GB at once.
_CHUNK = 1024

#: The fast path evaluates its grid for this many states at a time, so
#: each NumPy call's fixed cost is shared by 8 states. On the 1001 Werner
#: points (2-core Xeon), 4 states and one state at a time timed slower.
#: 16 timed ~4% faster, but its 0.56 MB product raised a sweep process's
#: peak RSS by ~0.4 MB, where 8 (0.28 MB) left it as it was.
_GRID_BLOCK = 8


@dataclass(frozen=True, slots=True)
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
    """Pick the sign representative of each vector along the last axis.

    The third component is made >= 0, then the first, then the second.
    Components within _ORIENT_TOL count as 0, so a maximizer whose
    component is 0 up to the polish's accuracy keeps one sign.
    """
    big = abs(v) > _ORIENT_TOL
    key = np.where(big[..., 2], v[..., 2], np.where(big[..., 0], v[..., 0], v[..., 1]))
    return v * np.where(key < 0.0, -1.0, 1.0)[..., None]


def _ring_angles(step: float) -> np.ndarray:
    """The (azimuth, polar) pairs of the ring-scaled northern-hemisphere grid at ``step``, read-only.

    Polar angles run from 0 in steps of ``step``; the last is clipped to
    pi/2, so no node lies south of the equator. The ring at polar angle
    theta has max(1, ceil(2 pi sin theta / step)) evenly spaced azimuths
    from 0, so its neighbours lie at most ``step`` apart, and the pole is
    one node, the first. On the equator only the first half of the
    azimuths, those in [0, pi), is kept: the others are their antipodes.
    """
    polar = np.minimum(np.arange(0.0, 0.5 * math.pi + 0.5 * step, step), 0.5 * math.pi)
    full = np.maximum(1.0, np.ceil(2.0 * math.pi * np.sin(polar) / step))
    kept = np.where(polar == 0.5 * math.pi, np.ceil(0.5 * full), full).astype(int)
    ring = np.repeat(np.arange(len(polar)), kept)
    index = np.arange(len(ring)) - (np.cumsum(kept) - kept)[ring]  # position on its ring
    azimuth = index * (2.0 * math.pi / full[ring])
    angles = np.stack([azimuth, polar[ring]], axis=-1)
    angles.setflags(write=False)
    return angles


@functools.cache
def _direction_grid() -> tuple[np.ndarray, np.ndarray]:
    """Both solvers' grid: unit vectors (m, 3) and their monomials (9, m), read-only.

    The vectors are _ring_angles' 873 nodes at _GRID_STEP, kept C-contiguous.
    The monomials have one column per vector: row r < 6 is b_i b_j for
    (i, j) = _ORACLE_PAIRS[:, r], and rows 6-8 are the vectors. The oracle
    weights rows 0-5, a contiguous view, into quadratic forms in b; rows
    6-8, also a contiguous view, are the fast path's columns for
    _reduced_excess. Built on first use and shared.
    """
    angles = _ring_angles(_GRID_STEP)
    bs = sphere_direction(angles[:, 0], angles[:, 1])
    i, j = _ORACLE_PAIRS
    mono = np.ascontiguousarray(np.concatenate([bs[:, i] * bs[:, j], bs], axis=1).T)
    for arr in (bs, mono):
        arr.setflags(write=False)
    return bs, mono


def _near_top(top: np.ndarray) -> np.ndarray:
    """The least grid value that ties with each grid maximum in ``top``: 8 ulps of max(top, 1) below it.

    On a flat or circular optimum the grid's values differ only by
    rounding, so the first node at or above this one (the pole, where it is
    optimal) starts the polish, rather than the node that rounding favours.
    """
    return top - 8.0 * np.spacing(np.maximum(top, 1.0))


def _largest_entry(x, y, t):
    """The largest |entry| of x (..., 3), y (..., 3) and T (..., 3, 3): one per state."""
    return np.maximum(np.maximum(np.abs(x).max(axis=-1), np.abs(y).max(axis=-1)), np.abs(t).max(axis=(-2, -1)))


def _exact_scaling(x: np.ndarray, y: np.ndarray, t: np.ndarray):
    """e (n,) and stacked x (n, 3), y (n, 3) and T (n, 3, 3), each state scaled by 2^-e.

    2^-e is the power of two that puts the state's largest entry in
    [0.5, 1). f - 1 and g - 1 are homogeneous of degree 2 in (x, y, T), so
    on the original data they are 4^e times their values on these, exactly
    (_f_max), and huge or tiny data neither overflow nor underflow.
    """
    e = np.frexp(_largest_entry(x, y, t))[1]
    return e, np.ldexp(x, -e[:, None]), np.ldexp(y, -e[:, None]), np.ldexp(t, -e[:, None, None])


def _f_max(h: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 + 4^e h: f_max where h is max f - 1 on data _exact_scaling scaled by 2^-e. Raises if it overflows."""
    with np.errstate(over="ignore"):
        f_max = 1.0 + np.ldexp(h, 2 * e)
    if np.count_nonzero(f_max == math.inf):
        raise NonFiniteResultError("f_max overflows float64; the correlation data are too large")
    return f_max


def _scaled_data(x: np.ndarray, y: np.ndarray, t: np.ndarray):
    """The fast path's data for stacked x (n, 3), y (n, 3) and T (n, 3, 3), after _exact_scaling.

    Returns e (n,), the columns [K | c | y] (n, 3, 5) with K = T'T and
    c = T'x of the scaled data, and p = |x|^2 (n,).
    """
    e, x, y, t = _exact_scaling(x, y, t)
    tt = t.swapaxes(1, 2)
    kcy = np.concatenate([tt @ tt.swapaxes(1, 2), tt @ x[..., None], y[..., None]], axis=2)
    return e, kcy, (x * x).sum(axis=1)


def _tangent_frame(b: np.ndarray) -> np.ndarray:
    """Rows (b, e1, e2) of an orthonormal frame at each unit row of ``b``.

    Branch-free for every unit vector (Duff et al., "Building an
    orthonormal basis, revisited", JCGT 6(1), 2017). With sign = +-1 the
    sign of b3, a = -1 / (sign + b3) and w = b + sign e3, the frame is
    e1 = e_1 + sign b1 a w and e2 = sign e_2 + b2 a w.
    """
    sign = np.copysign(1.0, b[:, 2])
    a = -1.0 / (sign + b[:, 2])
    w = b.copy()
    w[:, 2] += sign
    frame = np.empty((len(b), 3, 3))
    frame[:, 0] = b
    frame[:, 1] = (sign * b[:, 0] * a)[:, None] * w
    frame[:, 2] = (b[:, 1] * a)[:, None] * w
    frame[:, 1, 0] += 1.0
    frame[:, 2, 1] += sign
    return frame


def _derivatives(kcy: np.ndarray, p: np.ndarray, b: np.ndarray):
    """The frame F = _tangent_frame(b) at each unit row of ``b``, F grad g, and E (hess g) E', E F's tangent rows.

    ``kcy`` and ``p`` are as _scaled_data returns them. With r = b'Kb,
    q = c.b, s = sqrt((p - r)^2 + 4 q^2) and u = (r - p) Kb + 2 q c,
    g = 1 + (y.b)^2 + (p + r + s) / 2 has

        grad g = 2 (y.b) y + Kb + u / s,
        hess g = 2 y y' + K + ((r - p) K + 2 Kb Kb' + 2 c c' - 2 u u' / s^2) / s.

    F grad's first coordinate is along b. With d = (r - p) / s and
    e = 2 q / s, d^2 + e^2 = 1 makes Kb Kb' + c c' - u u' / s^2 = w w',
    w = e Kb - d c, so E hess E' = 2 (Ey)(Ey)' + 2 (Ew)(Ew)' / s +
    (1 + d) E K E': one product of the tangent rows of y and w / sqrt(s).
    u / s stays bounded, as |r - p| and |2 q| are at most s. Where
    s <= 1e-100 (s = 0 means p = r and q = 0, where the eigenvalue need not
    be differentiable) the terms divided by s are dropped, so no entry
    overflows.
    """
    frame = _tangent_frame(b)
    fkcy = frame @ kcy
    k = fkcy[:, :, :3] @ frame.swapaxes(1, 2)  # F K F'; F b is the first unit vector
    kb, c, y = k[:, :, 0], fkcy[:, :, 3], fkcy[:, :, 4]
    r, q, yb = kb[:, 0], c[:, 0], y[:, 0]
    s = np.hypot(p - r, 2.0 * q)
    inv = (s > 1e-100) / np.maximum(s, 1e-100)
    d, e = (r - p) * inv, 2.0 * q * inv
    v = d[:, None] * kb + e[:, None] * c  # u / s
    grad = (2.0 * yb)[:, None] * y + kb + v
    ew = np.sqrt(inv)[:, None] * (e[:, None] * kb[:, 1:] - d[:, None] * c[:, 1:])  # E w / sqrt(s)
    rows = np.concatenate([y[:, None, 1:], ew[:, None]], axis=1)
    hess = 2.0 * (rows.swapaxes(1, 2) @ rows)
    hess += (1.0 + d)[:, None, None] * k[:, 1:, 1:]
    return frame, grad, hess


def _tangent_terms(kcy: np.ndarray, p: np.ndarray, b: np.ndarray):
    """The tangent basis E (n, 2, 3), gradient (n, 2) and Hessian (n, 2, 2) of g at rows of ``b``.

    E is the frame's tangent rows, and the Riemannian Hessian is
    _derivatives' block less (b.grad g) I.
    """
    frame, grad, hess = _derivatives(kcy, p, b)
    return frame[:, 1:], grad[:, 1:], hess - grad[:, 0, None, None] * _EYE2


def _lockstep_newton(z, h, data, terms, value, solve):
    """Safeguarded Riemannian Newton ascent from each row of ``z``, all rows in lockstep.

    A row of ``z`` is one unit 3-vector (the fast path's b) or several side
    by side (the oracle's (a, b)), and ``h`` is the objective there.
    ``data`` is a tuple of the solver's stacked arrays, one row per row of
    ``z``, and each call gets the active rows of each: the arrays
    themselves while every row is active, fancy-indexed copies after that.
    terms(*rows, z) gives the tangent basis (n, k, width of z), gradient
    (n, k) and Hessian (n, k, k) at the points z, and value(*rows, trial)
    the objective at trial points. solve(grad, hess, gnorm), with gnorm the
    gradient's length floored at _NEWTON_GRAD_TOL, gives each tangent step
    d (n, k) and a w (n,) that is negative exactly where d is the Newton
    step, and there at least the Hessian's eigenvalue nearest 0.

    Each step is capped at length 1 and taken through the basis, each trial
    z + t step is normalized onto its sphere(s), and the longest of
    t = 1, 1/2, ..., 2^-_NEWTON_HALVINGS that raises h strictly is taken.
    A row is done once its tangent gradient is at most _NEWTON_GRAD_TOL;
    once its Newton decrement grad.d is at most _NEWTON_GAIN_TOL max(1, h),
    after taking that full step unseen, as its last, with h the larger of
    its two values (Boyd & Vandenberghe, Convex Optimization, 2004, 9.5.1);
    or once no t raises h. A done row stays put, so every row follows
    exactly the path it would follow alone, and h never decreases. Returns
    the final z, h and each row's number of steps, which reaches
    _NEWTON_MAX_ITERATIONS only if the cap cut it off.
    """
    z, h = z.copy(), h.copy()
    n = len(h)
    steps = np.zeros(n, dtype=int)
    t = _STEP_LENGTHS[:, None]
    active = np.arange(n)
    for _ in range(_NEWTON_MAX_ITERATIONS):
        if len(active) == n:  # the arrays themselves in place of fancy-indexed copies
            rows, zk, hk = data, z, h
        else:
            rows, zk, hk = [arr[active] for arr in data], z[active], h[active]
        basis, grad, hess = terms(*rows, zk)
        gnorm = np.hypot.reduce(grad, axis=1)
        live = gnorm > _NEWTON_GRAD_TOL
        if not np.count_nonzero(live):
            break
        # at least the gradient's length, so a gradient step is at most 1 long
        d, w = solve(grad, hess, np.maximum(gnorm, _NEWTON_GRAD_TOL))
        length = np.hypot.reduce(d, axis=1)
        step = (d[:, None] @ basis)[:, 0] / np.maximum(length, 1.0)[:, None]
        trial = zk[:, None] + t * step[:, None]
        units = trial.reshape(-1, 3)  # a view: each unit 3-vector of each trial point
        units /= np.sqrt((units * units).sum(axis=1))[:, None]
        ht = value(*rows, trial)
        better = ht > hk[:, None]
        # grad.d is twice the Newton model's gain: within the rounding of h, the full step is the last, unseen
        last = live & (w < 0.0) & ((grad * d).sum(axis=1) <= _NEWTON_GAIN_TOL * np.maximum(hk, 1.0))
        if np.count_nonzero(last):
            done = active[last]
            z[done] = trial[last, 0]
            h[done] = np.maximum(hk[last], ht[last, 0])
            steps[done] += 1
        moved = live & ~last & better.any(axis=1)
        k = better.argmax(axis=1)[moved]
        active = active[moved]
        z[active] = trial[moved, k]
        h[active] = ht[moved, k]
        steps[active] += 1
        if not len(active):
            break
    return z, h, steps


def _tangent_step(grad, hess, gnorm):
    """The fast path's tangent step (n, 2) from _tangent_terms' gradient and Hessian, and w (n,).

    Newton, through the adjugate, where the tangent Hessian is negative
    definite; elsewhere the gradient divided by the larger of a Gershgorin
    bound on that Hessian and ``gnorm``. w is det / trace on Newton rows,
    at least the eigenvalue nearest 0, and +-0 elsewhere.
    """
    h11, h12, h22 = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    det = h11 * h22 - h12 * h12
    newton = (h11 < 0.0) & (det > 0.0)
    # d = -hess^-1 grad = -adj(hess) grad / det on Newton rows, grad / bound elsewhere
    inverse, denom, trace = hess[:, ::-1, ::-1] * _NEG_ADJ, det, h11 + h22
    if np.count_nonzero(newton) < len(newton):
        inverse[~newton] = _EYE2
        denom = np.where(newton, det, np.maximum(np.maximum(abs(h11), abs(h22)) + abs(h12), gnorm))
        trace = np.where(newton, trace, math.inf)  # so w = det / trace is +-0 there
    return (inverse @ grad[:, :, None])[:, :, 0] / denom[:, None], det / trace


def _reduced_excess(rows: np.ndarray, p, b: np.ndarray) -> np.ndarray:
    """g(b) - 1 at unit columns of ``b`` (..., 3, m), from the rows [K | c | y]' (..., 5, 3) and p = |x|^2.

    ``p`` broadcasts against (..., m). One product gives the rows Kb, c.b
    and y.b, and r = b'Kb is the first three times b, summed. With
    q = c.b = (Tb).x, lambda_max = (p + r + sqrt((p - r)^2 + 4 q^2)) / 2 is
    the top eigenvalue of x x' + (Tb)(Tb)', and g - 1 = (y.b)^2 + lambda_max
    is formed in place in the product's rows: one temporary where the plain
    expression makes ten, whose page faults cost up to twice the arithmetic
    on large grids. The b-grid and the Newton trials both take g from here.
    """
    rqy = rows @ b
    kb = rqy[..., :3, :]
    kb *= b
    r = kb.sum(axis=-2)
    q, yb = rqy[..., 3, :], rqy[..., 4, :]
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
    yb += r
    return yb


def _trial_excess(kcy, p, trial):
    """g - 1 at trial points (n, m, 3), by _reduced_excess with the points as columns."""
    return _reduced_excess(kcy.swapaxes(1, 2), p[:, None], trial.swapaxes(1, 2))


def _newton_ascent(kcy, p, b, h):
    """The fast path's polish: _lockstep_newton of g on the sphere from each row of ``b``.

    ``kcy`` and ``p`` are as _scaled_data returns them, and ``h`` is g - 1
    at the rows of ``b``. Trial values come from _reduced_excess, with the
    trial points as columns. Returns the final b, h and each row's step count.
    """
    return _lockstep_newton(b, h, (kcy, p), _tangent_terms, _trial_excess, _tangent_step)


def _maximize_many(x: np.ndarray, y: np.ndarray, t: np.ndarray):
    """maximize_objective for stacked x (n, 3), y (n, 3) and T (n, 3, 3), as one batch.

    The grid is evaluated _GRID_BLOCK states at a time, by _reduced_excess
    on _direction_grid's columns, and each state's first near-tied node
    starts its polish; the Newton polishes then run in lockstep, and
    a_star, the exact top eigenvector at each final b, comes from one
    rank2_top call. Returns f_max (n,), a_star (n, 3) and b_star (n, 3),
    both oriented by _orient. Row k is bit for bit what a batch of state k
    alone returns. Raises NonFiniteResultError if an f_max overflows
    float64.
    """
    grid, mono = _direction_grid()
    columns = mono[6:]  # the grid's vectors as C-contiguous columns
    e, kcy, p = _scaled_data(x, y, t)
    rows = kcy.swapaxes(1, 2)
    start = np.empty((len(x), 3))
    h = np.empty(len(x))
    for lo in range(0, len(x), _GRID_BLOCK):
        block = slice(lo, lo + _GRID_BLOCK)
        values = _reduced_excess(rows[block], p[block, None], columns)
        node = (values >= _near_top(values.max(axis=1))[:, None]).argmax(axis=1)  # each first near-tied node
        start[block], h[block] = grid[node], values[np.arange(len(node)), node]
    b, h, _ = _newton_ascent(kcy, p, start, h)
    f_max = _f_max(h, e)
    a = rank2_top(np.concatenate([x[:, None, :], (t @ b[:, :, None]).swapaxes(1, 2)], axis=1))[1]
    ab = _orient(np.concatenate([a[:, None, :], b[:, None, :]], axis=1))
    return f_max, ab[:, 0], ab[:, 1]


def maximize_objective(corr: CorrelationData):
    """Maximize f over both directions via the exact a-reduction: (f_max, a_star, b_star).

    A batch of one through _maximize_many: the 5 degree, 873-node b-hemisphere
    grid, a Newton polish of g, and a_star the exact top eigenvector at the final b.
    """
    f_max, a_star, b_star = _maximize_many(corr.x[None], corr.y[None], corr.T[None])
    return float(f_max[0]), a_star[0], b_star[0]


def _oracle_data(x, y, t):
    """The oracle's stacked data as maps on pairs z = (a, b) in R^6: P (n, 6, 2) and J (n, 6, 6).

    P's columns are (x, 0) and (0, y), and J = [[0, T], [T', 0]], so
    z'P = (x.a, y.b) and s = a'Tb = z'Jz / 2.
    """
    p = np.zeros((len(x), 6, 2))
    p[:, :3, 0], p[:, 3:, 1] = x, y
    j = np.zeros((len(x), 6, 6))
    j[:, :3, 3:] = t
    j[:, 3:, :3] = t.swapaxes(1, 2)
    return p, j


def _oracle_excess(p, j, z) -> np.ndarray:
    """f - 1 = (x.a)^2 + (y.b)^2 + (a'Tb)^2 at pairs z = (a, b) (n, m, 6), state k's on p[k] and j[k]."""
    xy = z @ p
    s = ((z @ j)[..., :3] * z[..., :3]).sum(axis=-1)
    return (xy * xy).sum(axis=-1) + s * s


def _oracle_terms(p, j, z):
    """f's tangent basis (n, 4, 6), gradient (n, 4) and Riemannian Hessian (n, 4, 4) at unit pairs z = (a, b) (n, 6).

    ``p`` and ``j`` are as _oracle_data returns them. On R^6, with
    X = (x, 0), Y = (0, y) and s = z'Jz / 2, f = 1 + (X.z)^2 + (Y.z)^2 + s^2
    has the gradient 2 (X.z) X + 2 (Y.z) Y + 2 s Jz and the Hessian
    2 XX' + 2 YY' + 2 Jz (Jz)' + 2 s J. Both are taken into the frame F
    with rows (a, 0), (0, b), (a1, 0), (0, b1), (a2, 0), (0, b2), where
    (a, a1, a2) = _tangent_frame(a) and (b, b1, b2) = _tangent_frame(b), so
    rows 2 to 5 span the tangent space of S^2 x S^2 at z. In F the columns
    X, Y and Jz read (x.a, 0, s) in row 0 and (0, y.b, s) in row 1. The
    Hessian's a-rows then lose (a.grad) I = 2 ((x.a)^2 + s^2) I and its
    b-rows (b.grad) I = 2 ((y.b)^2 + s^2) I for the spheres' curvature:
    the gradient's first two coordinates in F.
    """
    n = len(z)
    f = np.zeros((n, 6, 6))
    # rows 2i and 2i + 1 hold row i of a's frame and of b's, each in its own three columns
    f.reshape(n, 3, 4, 3)[:, :, ::3] = _tangent_frame(z.reshape(2 * n, 3)).reshape(n, 2, 3, 3).swapaxes(1, 2)
    fj = f @ j
    g = np.concatenate([f @ p, fj @ z[:, :, None]], axis=2)  # columns X, Y and Jz in F
    coef = g[:, 0] + g[:, 1]  # (x.a, y.b, 2s)
    coef *= _PAIR_COEF
    grad = 2.0 * (g @ coef[:, :, None])[:, :, 0]
    tangent = g[:, 2:]
    hess = tangent @ tangent.swapaxes(1, 2)
    hess += coef[:, 2, None, None] * (fj[:, 2:] @ f[:, 2:].swapaxes(1, 2))
    hess *= 2.0
    diagonal = hess.reshape(n, 16)
    diagonal[:, ::10] -= grad[:, :1]  # the a-rows 0 and 2
    diagonal[:, 5::10] -= grad[:, 1:2]  # the b-rows 1 and 3
    return f[:, 2:], grad[:, 2:], hess


def _oracle_step(grad, hess, gnorm):
    """The oracle's tangent step (n, 4) from _oracle_terms' gradient and Hessian, and w (n,).

    Newton where the Riemannian Hessian is negative definite, from one
    stacked eigh. Elsewhere each eigencomponent of the gradient is divided
    by the larger of -w_i and ``gnorm`` where its eigenvalue w_i < 0, and by
    the larger of the Hessian's spectral radius and ``gnorm`` where not: a
    modified Hessian (Nocedal & Wright, Numerical Optimization, 2006, 3.4),
    so that on a set of maxima, where one eigenvalue is ~0 or slightly
    positive, the negative curvature across the set still gets a Newton
    step. w is the top eigenvalue.
    """
    w, v = np.linalg.eigh(hess)
    top = w[:, -1]
    bound = np.maximum(np.maximum(-w[:, 0], top), gnorm)
    floor = np.where(top < 0.0, 0.0, gnorm)  # max(-w, 0) is -w bit for bit on Newton rows
    d = (grad[:, None] @ v)[:, 0] / np.where(w < 0.0, np.maximum(-w, floor[:, None]), bound[:, None])
    return (v @ d[:, :, None])[:, :, 0], top


def _oracle_newton(x, y, t, a, b, h):
    """The oracle's polish: _lockstep_newton of f on S^2 x S^2 from each pair of unit rows of ``a`` and ``b``.

    ``x``, ``y`` and ``t`` are stacked (n, 3), (n, 3) and (n, 3, 3), and
    ``h`` is f - 1 at the rows of (a, b); nothing of the a-reduction is
    used. Returns the final a, b, h and each row's number of steps.
    """
    z, h, steps = _lockstep_newton(np.concatenate([a, b], axis=1), h, _oracle_data(x, y, t),
                                   _oracle_terms, _oracle_excess, _oracle_step)
    return z[:, :3], z[:, 3:], h, steps


def _pair_weights(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The weights (m, 6) of the quadratic forms b'(uu' + yy')b, one per row u of ``u`` (m, 3).

    Row r times _direction_grid's pair monomials, its rows 0-5, is
    (u_r.b)^2 + (y.b)^2 at every grid b.
    """
    i, j = _ORACLE_PAIRS
    w = u[:, i] * u[:, j]
    w += y[i] * y[j]
    w *= _ORACLE_PAIR_WEIGHTS
    return w


def _oracle_bounds(grid, x, y, t):
    """u = T'a (m, 3), (x.a)^2 (m,) and an upper bound (m,) on f - 1 over the grid b, at each row a of ``grid``.

    ``x`` (3,), ``y`` (3,) and ``t`` (3, 3) are one state's scaled data.
    For fixed a, (a'Tb)^2 + (y.b)^2 = b'(uu' + yy')b is at most the top
    eigenvalue of the rank-2 positive semidefinite uu' + yy' on unit b,
    (|u|^2 + |y|^2 + sqrt((|u|^2 - |y|^2)^2 + 4 (u.y)^2)) / 2, which is
    the maximum over every unit b. The bound is (x.a)^2 plus that, exact up
    to rounding (_ORACLE_BOUND_MARGIN).
    """
    u = grid @ t  # row r is T'a for a = grid[r], as T'a = (a'T)'
    xa2 = np.square(grid @ x)
    uu = np.square(u) @ _ONES3
    yy = y @ y
    uy = u @ y
    d = uu - yy
    d *= d
    uy *= uy
    uy *= 4.0
    d += uy
    bound = np.sqrt(d, out=d)
    bound += uu
    bound += yy
    bound *= 0.5
    bound += xa2
    return u, xa2, bound


def _oracle_many(x: np.ndarray, y: np.ndarray, t: np.ndarray):
    """The oracle on stacked x (n, 3), y (n, 3) and T (n, 3, 3), as one batch: 4-angle grid, then Newton on f.

    The data are first scaled by _exact_scaling, as the fast path's are.
    a and b both run over _direction_grid's 873 nodes. The first block is
    the _ORACLE_FIRST_BLOCK rows of the largest _oracle_bounds, found by
    np.argpartition; each later block is the unvisited rows whose bound is
    at least the best value so far less _ORACLE_BOUND_MARGIN, in grid
    order, up to _ORACLE_BLOCK at a time and never fewer than 2. Each block
    is one matmul of its rows' _pair_weights with the grid's pair monomials
    into one reused buffer, and a row max plus (x.a)^2 is each row's value.
    The visit stops once no unvisited row can reach the best, so the first
    best row in grid order is the full grid's, bit for bit. That row is
    recomputed in the direct form (a'Tb)^2 + (y.b)^2, and the pair of it
    and its first best column, with that f - 1, starts
    _oracle_newton, which polishes all states in lockstep on both spheres.
    No step uses the analytic a-reduction. Returns f_max (n,), a_star (n, 3)
    and b_star (n, 3), both oriented by _orient; row k is bit for bit what a
    batch of state k alone returns. Raises NonFiniteResultError if an f_max
    overflows float64.
    """
    e, x, y, t = _exact_scaling(x, y, t)
    grid, mono = _direction_grid()
    pairs = mono[:6]  # the pair monomials: a C-contiguous view
    buf = np.empty((_ORACLE_BLOCK, len(grid)))
    row_max = np.empty(len(grid))
    a, b, h = np.empty((len(x), 3)), np.empty((len(x), 3)), np.empty(len(x))
    for k in range(len(x)):
        u, xa2, bound = _oracle_bounds(grid, x[k], y[k], t[k])
        row_max.fill(-math.inf)
        best = -math.inf
        rows = np.argpartition(bound, -_ORACLE_FIRST_BLOCK)[-_ORACLE_FIRST_BLOCK:]
        while len(rows):
            if len(rows) == 1:  # gemv would round this row unlike gemm: add a neighbour, visited or not
                rows = min(rows[0], len(grid) - 2) + np.arange(2)
            f = buf[: len(rows)]
            np.matmul(_pair_weights(u[rows], y[k]), pairs, out=f)
            values = f.max(axis=1)
            values += xa2[rows]
            row_max[rows] = values
            bound[rows] = -math.inf  # visited
            best = max(best, values.max())
            # the unvisited rows that may reach best, in grid order
            rows = np.flatnonzero(bound >= best - _ORACLE_BOUND_MARGIN)[:_ORACLE_BLOCK]
        ia = int(np.argmax(row_max))
        row = np.square(grid[ia] @ (t[k] @ grid.T))
        row += np.square(grid @ y[k])
        ib = int(np.argmax(row))
        a[k], b[k], h[k] = grid[ia], grid[ib], row[ib] + xa2[ia]

    a, b, h, _ = _oracle_newton(x, y, t, a, b, h)
    ab = _orient(np.concatenate([a[:, None, :], b[:, None, :]], axis=1))
    return _f_max(h, e), ab[:, 0], ab[:, 1]


def brute_force_oracle(corr: CorrelationData) -> float:
    """Independent check: a 4-angle grid of 873 x 873 hemisphere pairs at a 5 degree step, then a Newton polish of f.

    A batch of one through _oracle_many, which evaluates the a-rows of the
    largest bounds first and then only the rows whose bound can still hold
    the grid's best pair.
    """
    return float(_oracle_many(corr.x[None], corr.y[None], corr.T[None])[0][0])


def _bloch_stack(states):
    """Stacked x (n, 3), y (n, 3) and T (n, 3, 3) of ``states``, as ggqd_many takes them.

    CorrelationData are taken as they are, bare arrays are validated as
    pauli_decompose validates them, and all matrices are decomposed by one
    einsum.
    """
    n = len(states)
    x, y, t = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3, 3))
    rows, mats = [], []
    for k, state in enumerate(states):
        if isinstance(state, CorrelationData):
            x[k], y[k], t[k] = state.x, state.y, state.T
        else:
            rows.append(k)
            if not isinstance(state, DensityMatrix):
                state = validate_density(state, allow_nonphysical=True)
            mats.append(state.entries)
    if mats:
        if len(mats) == n:
            return pauli_decompose_stack(np.array(mats))
        x[rows], y[rows], t[rows] = pauli_decompose_stack(np.array(mats))
    return x, y, t


def _chunked(solve, x, y, t):
    """``solve`` on stacked Bloch data, _CHUNK states at a time, its outputs concatenated."""
    if len(x) <= _CHUNK:
        return solve(x, y, t)
    parts = [solve(x[lo : lo + _CHUNK], y[lo : lo + _CHUNK], t[lo : lo + _CHUNK])
             for lo in range(0, len(x), _CHUNK)]
    return [np.concatenate(out) for out in zip(*parts)]


def ggqd_bloch(x, y, t, method: str = "fast") -> list[GgqdResult]:
    """Geometric global quantum discord of stacked Bloch data, solved as one batch.

    ``x`` and ``y`` are (n, 3) and ``t`` is (n, 3, 3), for example from
    pauli_decompose_stack. Each solver runs _CHUNK states at a time, so the
    working set stays bounded. See :func:`ggqd` for the methods. Raises
    ValueError for other shapes or naming the first state with a non-finite
    entry, and NonFiniteResultError if an f_max or trace_cc overflows
    float64.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method '{method}'; expected one of {_METHODS}")
    x, y, t = (np.ascontiguousarray(v, dtype=float) for v in (x, y, t))
    if x.shape[1:] != (3,) or y.shape != x.shape or t.shape != x.shape + (3,):
        raise ValueError(f"x, y and T must be (n, 3), (n, 3) and (n, 3, 3); got {x.shape}, {y.shape}, {t.shape}")
    if not len(x):
        return []
    finite = np.isfinite(np.concatenate([x, y, t.reshape(len(t), 9)], axis=1))
    if not finite.all():
        k = int(np.argmin(finite.all(axis=1)))
        name = ("x", "y", "T")[min(int(np.argmin(finite[k])) // 3, 2)]
        raise ValueError(f"state {k}: {name} must be finite")

    f_max, a_star, b_star = _chunked(_oracle_many if method == "oracle" else _maximize_many, x, y, t)
    tcc = trace_cc_stack(x, y, t)
    if np.count_nonzero(tcc == math.inf):  # both solvers raise where f_max overflows
        k = int(np.argmax(tcc))
        raise NonFiniteResultError(
            f"f_max = {f_max[k]:.6g} and trace_cc = {tcc[k]:.6g}: the correlation data are too large"
        )
    gaps = [None] * len(x)
    if method == "both":
        gaps = np.abs(f_max - _chunked(_oracle_many, x, y, t)[0]).tolist()
    name = "oracle" if method == "oracle" else "fast"
    # each result owns its vectors, rather than views that keep the whole batch alive
    return [
        GgqdResult(ggqd=g, f_max=f, a_star=a.copy(), b_star=b.copy(), trace_cc=c, method=name, oracle_gap=gap)
        for g, f, a, b, c, gap in zip((tcc - 0.25 * f_max).tolist(), f_max.tolist(), a_star, b_star, tcc.tolist(), gaps)
    ]


def ggqd_many(states, method: str = "fast") -> list[GgqdResult]:
    """Geometric global quantum discord of each state, solved as one batch.

    Each state is a DensityMatrix, a bare 4x4 array (validated as in
    pauli_decompose) or its CorrelationData. Result k is bit for bit
    ``ggqd(states[k], method)``: the states' Bloch data are stacked and
    solved by ggqd_bloch, and every stacked step treats each state on its
    own. Raises NonFiniteResultError if f_max or trace_cc overflows float64.
    """
    return ggqd_bloch(*_bloch_stack(states), method)


def ggqd(rho, method: str = "fast") -> GgqdResult:
    """Geometric global quantum discord of a two-qubit state.

    ``rho`` is a DensityMatrix, a bare 4x4 array or its CorrelationData;
    the call is ``ggqd_many([rho], method)[0]``, a batch of one.

    method:
      fast    exact a-reduction over the cached 873-node b-grid with Newton polish
      oracle  4-angle brute force with a Newton polish of f only
      both    fast, cross-checked against the oracle (fills oracle_gap)
    """
    return ggqd_many([rho], method)[0]
