import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import haar_unitary, random_rotation, random_state
from hypothesis import given, settings
from hypothesis import strategies as st

import ggqd as ggqd_pkg
from ggqd import (
    CorrelationData,
    NonFiniteResultError,
    StateFamilySpec,
    TraceNotOneError,
    brute_force_oracle,
    generate_state,
    ggqd,
    ggqd_many,
    local_unitary_conjugate,
    maximize_objective,
    objective_f,
    pauli_decompose,
    reconstruct_density,
    reduced_over_a,
    sphere_direction,
    swap_subsystems,
    trace_cc,
    validate_density,
)
import ggqd.solver as solver_mod
from ggqd.objective import objective_rows, rank2_lambda_max
from ggqd.solver import (
    _NEWTON_GRAD_TOL,
    _NEWTON_MAX_ITERATIONS,
    _bloch_stack,
    _derivatives,
    _direction_grid,
    _maximize_many,
    _orient,
    _oracle_data,
    _oracle_terms,
    _reduced_excess,
    _scaled_data,
    _tangent_frame,
    _tangent_terms,
    ggqd_bloch,
)

def stacked(corrs):
    """x (n, 3), y (n, 3) and T (n, 3, 3) of ``corrs``, as the batched solver takes them."""
    return np.array([c.x for c in corrs]), np.array([c.y for c in corrs]), np.array([c.T for c in corrs])


def bell_corr(c3):
    rho = generate_state(StateFamilySpec("bell_mixture", {"c3": c3}), allow_nonphysical=True)
    return pauli_decompose(rho)


def mixed_state():
    return validate_density(np.eye(4) / 4)


def closed_form_bell(c3):
    return (1.0 + c3 * c3 - max(1.0, c3 * c3)) / 4.0


def random_x_state(rng):
    """A physical member of the x_state family: Dirichlet diagonal, PSD-bounded coherences."""
    diag = rng.dirichlet(np.ones(4))
    params = dict(zip(("rho00", "rho11", "rho22", "rho33"), diag))
    params["rho03"] = rng.uniform(-1.0, 1.0) * np.sqrt(diag[0] * diag[3])
    params["rho12"] = rng.uniform(-1.0, 1.0) * np.sqrt(diag[1] * diag[2])
    return generate_state(StateFamilySpec("x_state", params))


def x_pattern_f_max(corr):
    """Closed form on the X pattern (T diagonal, x and y along e3)."""
    t = np.diagonal(corr.T)
    return 1.0 + max(corr.x[2] ** 2 + corr.y[2] ** 2 + t[2] ** 2, t[0] ** 2, t[1] ** 2)


@pytest.mark.parametrize("c3,f_want", [(1.0, 2.0), (0.5, 2.0), (-0.3, 2.0), (0.0, 2.0)])
def test_maximize_bell(c3, f_want):
    f, a, b = maximize_objective(bell_corr(c3))
    assert abs(f - f_want) <= 1e-9
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(b) - 1.0) <= 1e-12


def test_maximize_mixed():
    f, a, b = maximize_objective(pauli_decompose(mixed_state()))
    assert f == 1.0


def test_maximize_sign_flip_invariance():
    corr = bell_corr(0.6)
    f, a, b = maximize_objective(corr)
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            assert abs(objective_f(corr, (sa * a, sb * b)) - f) <= 1e-9


def test_oracle_bell_half():
    assert abs(brute_force_oracle(bell_corr(0.5)) - 2.0) <= 5e-4


def test_oracle_phi_plus():
    # T = diag(1,-1,1) is orthogonal, so f = 1 + |Tb|^2 = 2 at the optimum
    # for every b; the 4-angle grid must find 2 regardless of direction.
    corr = pauli_decompose(generate_state(StateFamilySpec("bell_phi_plus")))
    assert abs(brute_force_oracle(corr) - 2.0) <= 5e-4


def test_oracle_mixed_exact():
    assert brute_force_oracle(pauli_decompose(mixed_state())) == 1.0


@pytest.mark.parametrize(
    "family,name,value",
    [("werner", "p", p) for p in (0.0, 0.3, 0.7, 1.0)]
    + [("bell_mixture", "c3", c3) for c3 in (-1.0, -0.5, 0.0, 0.5, 1.0)],
)
def test_oracle_degenerate_optima(family, name, value):
    # criterion 4's bounds on states whose maximizers form continua
    corr = pauli_decompose(generate_state(StateFamilySpec(family, {name: value}), allow_nonphysical=True))
    f_fast = maximize_objective(corr)[0]
    f_oracle = brute_force_oracle(corr)
    assert f_fast >= f_oracle - 1e-9
    assert abs(f_fast - f_oracle) <= 5e-4


def test_oracle_blocked_grid_matches_full_grid(monkeypatch):
    # with the polish switched off the oracle returns its best grid node
    monkeypatch.setattr(solver_mod, "_oracle_newton", lambda x, y, t, a, b, h: (a, b, h, 0))
    bs = _direction_grid()[0]
    corrs = [pauli_decompose(random_state(seed)) for seed in range(3)]
    corrs += [corr for corr, _ in _DEGENERATE_CASE_VALUES]
    for corr in corrs:
        full = objective_rows(corr, bs[:, None, :], bs[None, :, :])
        (f_grid,), (a_star,), (b_star,) = solver_mod._oracle_many(*stacked([corr]))
        assert abs(f_grid - full.max()) <= 1e-12
        assert abs(objective_f(corr, (a_star, b_star)) - f_grid) <= 1e-12

    # a stacked batch grids each state on its own
    corrs = [pauli_decompose(random_state(seed)) for seed in range(100, 141)]
    f_grid, a_star, b_star = solver_mod._oracle_many(*stacked(corrs))
    for corr, f, a, b in zip(corrs, f_grid, a_star, b_star):
        full = objective_rows(corr, bs[:, None, :], bs[None, :, :])
        assert abs(f - full.max()) <= 1e-12
        assert abs(objective_f(corr, (a, b)) - f) <= 1e-12


def test_oracle_start_is_the_full_grids_first_best_node(monkeypatch):
    # the rows the bound skips cannot move the start: it is the first best node of every row's values
    starts = []
    monkeypatch.setattr(solver_mod, "_oracle_newton",
                        lambda x, y, t, a, b, h: starts.append((a, b, h)) or (a, b, h, 0))
    bs, mono = _direction_grid()
    pairs = mono[:6]
    ginibre = [pauli_decompose(random_state(seed)) for seed in range(200)]
    degenerate = [corr for corr, _ in _DEGENERATE_CASE_VALUES]
    batch = [pauli_decompose(random_state(seed)) for seed in range(100, 141)]
    for corr in ginibre + degenerate:
        solver_mod._oracle_many(*stacked([corr]))
    solver_mod._oracle_many(*stacked(batch))
    a, b, h = (np.concatenate(parts) for parts in zip(*starts))
    assert len(h) == 250

    for k, corr in enumerate(ginibre + degenerate + batch):
        _, (x,), (y,), (t,) = solver_mod._exact_scaling(*stacked([corr]))
        xa2 = np.square(bs @ x)
        # every row's value, by the grid's own kernel
        whole = (solver_mod._pair_weights(bs @ t, y) @ pairs).max(axis=1) + xa2
        ia = np.argmax(whole)
        row = np.square(bs[ia] @ (t @ bs.T)) + np.square(bs @ y)
        ib = np.argmax(row)
        assert np.array_equal(a[k], bs[ia]) and np.array_equal(b[k], bs[ib]) and h[k] == row[ib] + xa2[ia]

        direct = np.square(bs @ t @ bs.T) + np.square(bs @ y) + xa2[:, None]
        assert abs(h[k] - direct.max()) <= 4e-15
        if not 200 <= k < 209:
            # the same node as the direct form's first best; on the degenerate cases the two
            # forms' last-bit rounding breaks the ties between equal maxima differently
            ia, ib = np.unravel_index(np.argmax(direct), direct.shape)
            assert np.array_equal(a[k], bs[ia]) and np.array_equal(b[k], bs[ib])


def test_oracle_row_bounds_hold_and_prune(monkeypatch):
    bs, mono = _direction_grid()
    pairs = mono[:6]
    weights, blocks = solver_mod._pair_weights, []
    monkeypatch.setattr(solver_mod, "_pair_weights", lambda u, y: blocks.append(len(u)) or weights(u, y))

    def rows_evaluated(corr):
        blocks.clear()
        brute_force_oracle(corr)
        # a one-row product goes to gemv, which rounds unlike the other blocks
        assert min(blocks) >= 2
        return sum(blocks)

    def schedule(bound, values, margin):
        """The visit's block sizes, replayed from every row's bound and value, and whether some block leaves one row."""
        visited, first = np.zeros(len(bound), dtype=bool), solver_mod._ORACLE_FIRST_BLOCK
        rows, sizes, one = np.argpartition(bound, -first)[-first:], [], False
        while len(rows):
            if len(rows) == 1:
                one, rows = True, min(rows[0], len(bound) - 2) + np.arange(2)
            sizes.append(len(rows))
            visited[rows] = True
            rows = np.flatnonzero(~visited & (bound >= values[visited].max() - margin))[: solver_mod._ORACLE_BLOCK]
        return sizes, one

    # after a block, one unvisited row is left that may reach the best, so the next block has two rows only by
    # the two-row minimum; no Ginibre seed below 2,000 gets past its first block
    corrs = [pauli_decompose(random_state(seed)) for seed in [*range(50), 2763, 4056, 8601]]
    corrs += [corr for corr, _ in _DEGENERATE_CASE_VALUES]
    # cases where the rank-2 top eigenvalue bound is tight or degenerate
    rng = np.random.default_rng(17)
    pole, node = bs[0], bs[700]
    for _ in range(8):
        x, y = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
        rank1 = np.outer(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3))
        orthogonal = 0.6 * random_rotation(rng)
        diagonal = np.diag(rng.uniform(-1.0, 1.0, 3))
        full = rng.uniform(-1.0, 1.0, (3, 3))
        corrs += [
            CorrelationData(x=x, y=y, T=rank1),
            CorrelationData(x=x, y=y, T=orthogonal),
            CorrelationData(x=x, y=np.zeros(3), T=full),
            # y = T'a for a grid a: u = y on that row, and b = e3 attains the bound on the pole's row
            CorrelationData(x=x, y=diagonal.T @ pole, T=diagonal),
            CorrelationData(x=x, y=full.T @ node, T=full),
            CorrelationData(x=np.zeros(3), y=np.zeros(3), T=diagonal),
        ]
    margin, leaves_one = solver_mod._ORACLE_BOUND_MARGIN, 0
    for corr in corrs:
        rows_evaluated(corr)
        _, (x,), (y,), (t,) = solver_mod._exact_scaling(*stacked([corr]))
        u, xa2, bound = solver_mod._oracle_bounds(bs, x, y, t)
        values = (weights(u, y) @ pairs).max(axis=1) + xa2
        assert (values <= bound + margin).all()
        sizes, one = schedule(bound, values, margin)
        assert sizes == blocks
        leaves_one += one
    assert leaves_one

    assert rows_evaluated(pauli_decompose(random_state(3))) < len(bs)
    # the exact bound leaves a median of 1 row that may reach the best, so the first 8-row block ends the visit
    assert rows_evaluated(pauli_decompose(random_state(3))) <= 16
    # rank-1 forms uu' with |u| the same for every a: every bound is tight, and every row is visited
    for corr in [pauli_decompose(generate_state(StateFamilySpec("werner", {"p": p}))) for p in (0.3, 0.7, 1.0)]:
        assert rows_evaluated(corr) == len(bs)
    assert rows_evaluated(pauli_decompose(generate_state(StateFamilySpec("bell_phi_plus")))) == len(bs)


def test_oracle_last_block_keeps_two_rows(monkeypatch):
    # Werner p = 1: every bound ties, so after the first block every unvisited row may reach the best and is
    # visited in grid order, 64 at a time; a first block that leaves 64 k + 1 rows would leave one for the
    # last block, which takes a neighbour along
    starts, blocks = [], []
    weights = solver_mod._pair_weights
    monkeypatch.setattr(solver_mod, "_pair_weights", lambda u, y: blocks.append(len(u)) or weights(u, y))
    monkeypatch.setattr(solver_mod, "_oracle_newton",
                        lambda x, y, t, a, b, h: starts.append((a, b, h)) or (a, b, h, 0))
    data = stacked([pauli_decompose(generate_state(StateFamilySpec("werner", {"p": 1.0})))])
    solver_mod._oracle_many(*data)
    first, full = divmod(len(_direction_grid()[0]) - 1, solver_mod._ORACLE_BLOCK)[::-1]
    assert first >= 2
    monkeypatch.setattr(solver_mod, "_ORACLE_FIRST_BLOCK", first)
    blocks.clear()
    solver_mod._oracle_many(*data)
    assert blocks == [first] + [solver_mod._ORACLE_BLOCK] * full + [2]
    for before, after in zip(*starts):
        assert np.array_equal(before, after)


def test_oracle_pair_monomial_values_match_the_direct_form():
    # b'(uu' + yy')b through the pair weights and monomials is (a'Tb)^2 + (y.b)^2 at every grid node
    bs, mono = _direction_grid()
    pairs = mono[:6]
    for seed in range(20):
        corr = pauli_decompose(random_state(200 + seed))
        values = solver_mod._pair_weights(bs @ corr.T, corr.y) @ pairs
        direct = np.square(bs @ corr.T @ bs.T) + np.square(bs @ corr.y)[None, :]
        assert np.abs(values - direct).max() <= 1e-14
        assert np.argmax(values) == np.argmax(direct)
        xa2 = np.square(bs @ corr.x)
        assert np.argmax(values.max(axis=1) + xa2) == np.argmax(direct.max(axis=1) + xa2)


def test_oracle_memory():
    corr = pauli_decompose(generate_state(StateFamilySpec("random", seed=1)))
    tracemalloc.start()
    try:
        brute_force_oracle(corr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6

    # 41 states in one batch: the one reused 64-row block, the grid products
    # and one state's pair weights (~0.53 MB, as for one state; 0.60 MB on the
    # first call, which builds the grid) plus ~7 KB per state for the lockstep
    # polish; 0.82 MB measured, where one block per state would take 18 MB
    data = stacked([pauli_decompose(random_state(seed)) for seed in range(41)])
    tracemalloc.start()
    try:
        solver_mod._oracle_many(*data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_xstate_candidates_degenerate_denominator():
    # x3^2 + T33^2 = x1^2 + T13^2 and T = 0: f = 1 + (x.a)^2 for every b, maximal at a = x / |x|
    corr = CorrelationData(
        x=np.array([0.5, 0.0, 0.5]), y=np.zeros(3), T=np.zeros((3, 3))
    )
    assert maximize_objective(corr)[0] == 1.5


def test_xstate_exact_on_x_state_family():
    rng = np.random.default_rng(61)
    for _ in range(200):
        rho = random_x_state(rng)
        corr = pauli_decompose(rho)
        assert abs(ggqd(rho).f_max - x_pattern_f_max(corr)) <= 1e-12
        assert maximize_objective(corr)[0] <= x_pattern_f_max(corr) + 1e-12


_unit_interval = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(x3=_unit_interval, y3=_unit_interval, t=st.tuples(_unit_interval, _unit_interval, _unit_interval))
def test_xstate_exact_on_x_pattern(x3, y3, t):
    # physical or not: the fast path meets the closed-form maximum and never exceeds it
    corr = CorrelationData(x=np.array([0.0, 0.0, x3]), y=np.array([0.0, 0.0, y3]), T=np.diag(t))
    assert abs(ggqd(corr).f_max - x_pattern_f_max(corr)) <= 1e-12
    assert maximize_objective(corr)[0] <= x_pattern_f_max(corr) + 1e-12


def test_bell_sweep_a_keeps_one_sign():
    # a = +-e2 with a ~1e-8 third component; polish noise must not pick the sign
    signs = set()
    for k in range(41):
        rho = generate_state(StateFamilySpec("bell_mixture", {"c3": -1.0 + 0.05 * k}), allow_nonphysical=True)
        a = ggqd(rho).a_star
        if abs(a[1]) > 0.5:
            signs.add(float(np.sign(a[1])))
    assert signs == {1.0}


@pytest.mark.parametrize(
    "c3,want",
    [(0.5, 0.0625), (1.0, 0.25), (0.0, 0.0)],
)
def test_ggqd_bell_spot_values(c3, want):
    rho = generate_state(StateFamilySpec("bell_mixture", {"c3": c3}), allow_nonphysical=True)
    res = ggqd(rho)
    assert abs(res.ggqd - want) <= 1e-9
    assert abs(res.trace_cc - 0.25 * (c3 * c3 + 2.0)) <= 1e-12


def test_ggqd_mixed_is_zero():
    res = ggqd(mixed_state())
    assert abs(res.ggqd) <= 1e-12


def test_ggqd_phi_plus_both_methods():
    rho = generate_state(StateFamilySpec("bell_phi_plus"))
    res = ggqd(rho, method="both")
    assert abs(res.ggqd - 0.5) <= 1e-6
    assert res.oracle_gap is not None and res.oracle_gap <= 5e-4
    assert res.method == "fast"


def test_ggqd_methods_and_diagnostics():
    rho = generate_state(StateFamilySpec("bell_mixture", {"c3": 0.5}), allow_nonphysical=True)
    fast = ggqd(rho, method="fast")
    oracle = ggqd(rho, method="oracle")
    assert fast.method == "fast" and fast.oracle_gap is None
    assert oracle.method == "oracle"
    assert abs(fast.ggqd - oracle.ggqd) <= 5e-4
    with pytest.raises(ValueError, match="method"):
        ggqd(rho, method="newton")


def test_result_invariants_on_random_states():
    for seed in range(10):
        rho = random_state(seed)
        res = ggqd(rho)
        corr = pauli_decompose(rho)
        assert res.ggqd == res.trace_cc - 0.25 * res.f_max
        assert res.ggqd >= -1e-9
        assert res.ggqd <= res.trace_cc - 0.25 + 1e-12
        assert abs(objective_f(corr, (res.a_star, res.b_star)) - res.f_max) <= 1e-10


def test_ggqd_nonnegative_on_formal_states():
    rng = np.random.default_rng(55)
    for _ in range(10):
        corr = CorrelationData(
            x=rng.uniform(-1, 1, 3), y=rng.uniform(-1, 1, 3), T=rng.uniform(-1, 1, (3, 3))
        )
        rho = reconstruct_density(corr)
        assert ggqd(rho).ggqd >= -1e-9


def test_oracle_agreement_on_random_states():
    for seed in range(25):
        corr = pauli_decompose(random_state(seed))
        f_fast = maximize_objective(corr)[0]
        f_oracle = brute_force_oracle(corr)
        assert abs(f_fast - f_oracle) <= 5e-4
        assert f_fast >= f_oracle - 1e-9


def test_local_unitary_invariance():
    rng = np.random.default_rng(19)
    for k in range(20):
        rho = random_state(700 + k)
        rotated = local_unitary_conjugate(rho, haar_unitary(rng), haar_unitary(rng))
        assert abs(ggqd(rho).ggqd - ggqd(rotated).ggqd) <= 1e-6


def test_swap_symmetry():
    for seed in range(10):
        rho = random_state(seed)
        assert abs(ggqd(rho).ggqd - ggqd(swap_subsystems(rho)).ggqd) <= 1e-8


def test_zero_on_classical_classical():
    rng = np.random.default_rng(29)
    for k in range(10):
        p = rng.dirichlet(np.ones(4))
        rho = generate_state(
            StateFamilySpec("classical_classical", dict(zip(("p00", "p01", "p10", "p11"), p)))
        )
        assert ggqd(rho).ggqd <= 1e-8
        rotated = local_unitary_conjugate(rho, haar_unitary(rng), haar_unitary(rng))
        assert ggqd(rotated).ggqd <= 1e-8


def test_xstate_consistency_bell_family():
    # T = diag(1, -1, c3) with x = y = 0 is on the X pattern
    for c3 in np.arange(-1.0, 1.0001, 0.25):
        corr = bell_corr(float(np.clip(c3, -1, 1)))
        assert abs(maximize_objective(corr)[0] - x_pattern_f_max(corr)) <= 1e-12


def test_xstate_consistency_zero_y_family():
    # With y = 0, x in the 1-3 plane and T supported on (1,3),(2,2),(3,3),
    # the first column of T vanishes, so a b1 component only lowers f and
    # the optimum sits at b = e2 or e3. (Off this pattern the optimal b can
    # lie off the three axes.)
    rng = np.random.default_rng(47)
    for _ in range(50):
        t = np.zeros((3, 3))
        t[0, 2], t[1, 1], t[2, 2] = rng.uniform(-0.8, 0.8, 3)
        corr = CorrelationData(
            x=np.array([rng.uniform(-0.8, 0.8), 0.0, rng.uniform(-0.8, 0.8)]),
            y=np.zeros(3),
            T=t,
        )
        f_axes = max(reduced_over_a(corr, b)[0] for b in np.eye(3))
        assert abs(maximize_objective(corr)[0] - f_axes) <= 1e-12


def test_werner_closed_form():
    # Singlet mixture: x = y = 0 and T = -p I, so f = 1 + p^2 for every b and
    # trace_cc = (1 + 3 p^2) / 4, giving GGQD = p^2 / 2.
    for p in (0.0, 0.3, 0.7, 1.0):
        rho = generate_state(StateFamilySpec("werner", {"p": p}))
        assert abs(ggqd(rho).ggqd - p * p / 2.0) <= 1e-9


def test_bell_sweep_unified_formula():
    for k in range(41):
        c3 = -1.0 + 0.05 * k
        rho = generate_state(StateFamilySpec("bell_mixture", {"c3": c3}), allow_nonphysical=True)
        assert abs(ggqd(rho).ggqd - closed_form_bell(c3)) <= 1e-6


def test_ggqd_rejects_bare_array_with_wrong_trace():
    with pytest.raises(TraceNotOneError):
        ggqd(np.ones((4, 4)))


def scaled_corr(corr):
    """The data _scaled_data works on, as CorrelationData."""
    e = int(_scaled_data(*stacked([corr]))[0][0])
    return CorrelationData(x=np.ldexp(corr.x, -e), y=np.ldexp(corr.y, -e), T=np.ldexp(corr.T, -e))


def test_derivatives_match_central_differences():
    rng = np.random.default_rng(83)
    for seed in range(50):
        corr = pauli_decompose(random_state(900 + seed))
        sc = scaled_corr(corr)
        _, kcy, p = _scaled_data(*stacked([corr]))
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)

        # Euclidean gradient and Hessian against the natural extension of g off the sphere
        def g_ext(v):
            return 1.0 + (sc.y @ v) ** 2 + rank2_lambda_max(sc.x, sc.T @ v)[0]

        # the gradient in the frame's coordinates, and the Hessian's block on the frame's two tangent rows
        frame, grad_f, hess_t = _derivatives(kcy, p, b[None])
        frame, grad = frame[0], frame[0].T @ grad_f[0]
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-14, rtol=0.0)
        assert np.allclose(frame[0], b, atol=0.0, rtol=0.0)
        step, eye = 1e-5, np.eye(3)
        fd_grad = [(g_ext(b + step * u) - g_ext(b - step * u)) / (2 * step) for u in eye]
        assert np.allclose(grad, fd_grad, atol=1e-8, rtol=0.0)
        step = 1e-4
        fd_hess = [
            [
                (g_ext(b + step * (u + w)) - g_ext(b + step * (u - w)) - g_ext(b - step * (u - w))
                 + g_ext(b - step * (u + w))) / (4 * step * step)
                for w in eye
            ]
            for u in eye
        ]
        assert np.allclose(hess_t[0], frame[1:] @ np.array(fd_hess) @ frame[1:].T, atol=1e-5, rtol=0.0)

        # tangent terms against geodesic differences of reduced_over_a itself
        _, tgrad, thess = _tangent_terms(kcy, p, b[None])
        e1, e2 = frame[1], frame[2]

        def along(u, angle):
            return reduced_over_a(sc, np.cos(angle) * b + np.sin(angle) * u)[0]

        def second(u, angle=1e-4):
            return (along(u, angle) - 2.0 * along(u, 0.0) + along(u, -angle)) / angle**2

        for i, u in enumerate((e1, e2)):
            assert abs(tgrad[0, i] - (along(u, 1e-5) - along(u, -1e-5)) / 2e-5) <= 1e-8
            assert abs(thess[0, i, i] - second(u)) <= 1e-5
        mixed = second((e1 + e2) / np.sqrt(2.0))
        assert abs(thess[0, 0, 1] - (mixed - 0.5 * (thess[0, 0, 0] + thess[0, 1, 1]))) <= 1e-5


def test_newton_polish_optimality_evidence(monkeypatch):
    corrs = [pauli_decompose(random_state(seed)) for seed in range(200)]
    ascent, steps = solver_mod._newton_ascent, []

    def recording(*args):
        out = ascent(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr(solver_mod, "_newton_ascent", recording)
    f_max, _, b_star = _maximize_many(*stacked(corrs))
    assert steps[0].max() < _NEWTON_MAX_ITERATIONS
    e, kcy, p = _scaled_data(*stacked(corrs))
    _, tgrad, thess = _tangent_terms(kcy, p, b_star)
    # back to the original data: g - 1 scales by 4^e
    tgrad, thess = np.ldexp(tgrad, 2 * e[:, None]), np.ldexp(thess, 2 * e[:, None, None])
    assert np.hypot(tgrad[:, 0], tgrad[:, 1]).max() <= 1e-8
    assert np.linalg.eigvalsh(thess).max() <= 1e-8

    monkeypatch.setattr(solver_mod, "_newton_ascent", lambda kcy, p, b, h: (b, h, None))
    assert (f_max >= _maximize_many(*stacked(corrs))[0]).all()


@pytest.mark.parametrize("seed", [257, 997, 1696])
def test_newton_polish_takes_the_last_unseen_step(seed):
    # near a tangent gradient of 1e-8 no trial step raises g past its rounding;
    # the short Newton step is then taken unverified, as the last one
    data = stacked([pauli_decompose(random_state(seed))])
    e, kcy, p = _scaled_data(*data)
    _, tgrad, _ = _tangent_terms(kcy, p, _maximize_many(*data)[2])
    assert np.hypot(*np.ldexp(tgrad[0], 2 * e[0])) <= 1e-10


def test_newton_polish_reaches_the_gradient_tolerance():
    # every state's final tangent gradient, in _exact_scaling's units, is within the stopping tolerance
    data = stacked([pauli_decompose(random_state(seed)) for seed in range(2000)])
    _, kcy, p = _scaled_data(*data)
    _, tgrad, _ = _tangent_terms(kcy, p, _maximize_many(*data)[2])
    assert np.hypot(tgrad[:, 0], tgrad[:, 1]).max() <= _NEWTON_GRAD_TOL


def test_one_route_evaluates_g_at_every_grid_node():
    # the b-grid and the Newton trials both take g - 1 from _reduced_excess; at every grid node it meets
    # the public reduced_over_a, scaled back by 4^e, within 4 ulps of max(1, g) (2 at most, measured)
    corrs = [pauli_decompose(random_state(seed)) for seed in range(50)]
    corrs += [corr for corr, _ in _DEGENERATE_CASE_VALUES]
    e, kcy, p = _scaled_data(*stacked(corrs))
    grid, mono = _direction_grid()
    # as _maximize_many calls it, a block of states on the grid's columns, and one state alone
    values = _reduced_excess(kcy.swapaxes(1, 2), p[:, None], mono[6:])
    assert all(np.array_equal(_reduced_excess(kcy[k].T, p[k], mono[6:]), values[k]) for k in range(len(corrs)))
    # as the Newton trials call it, on C-contiguous rows of points, as columns
    trials = np.array(np.broadcast_to(grid, (len(corrs),) + grid.shape))
    assert np.array_equal(_reduced_excess(kcy.swapaxes(1, 2), p[:, None], trials.swapaxes(1, 2)), values)
    excess = np.ldexp(values, 2 * e[:, None])
    for corr, got in zip(corrs, excess):
        want = np.array([reduced_over_a(corr, b)[0] for b in grid])
        assert (np.abs(got - (want - 1.0)) <= 4.0 * np.spacing(np.maximum(1.0, want))).all()


def test_newton_polish_reads_no_grid(monkeypatch):
    # the polish takes its trial values from _reduced_excess on the trial points: it never reads the grid
    corrs = [pauli_decompose(random_state(seed)) for seed in range(20)] + [bell_corr(0.5)]
    want = _maximize_many(*stacked(corrs))
    ascent, steps = solver_mod._newton_ascent, []

    def refuse(*args):
        raise AssertionError("the polish read the grid")

    def recording(*args):
        with monkeypatch.context() as m:
            m.setattr(solver_mod, "_direction_grid", refuse)
            out = ascent(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr(solver_mod, "_newton_ascent", recording)
    got = _maximize_many(*stacked(corrs))
    assert steps[0].max() > 0
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_fast_path_runs_no_compass_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fast path called the oracle's polish")

    for name in ("_oracle_newton", "_oracle_terms", "_oracle_excess", "_oracle_step"):
        monkeypatch.setattr(solver_mod, name, refuse)
    assert abs(maximize_objective(bell_corr(0.5))[0] - 2.0) <= 1e-12
    assert ggqd_many([random_state(3), random_state(4)])[0].method == "fast"


_TILT = np.array([np.sin(0.01), 0.0, np.cos(0.01)])


#: degenerate optima and points where the rank-2 eigenvalue is not smooth, with their f_max
_DEGENERATE_CASE_VALUES = (
    [(pauli_decompose(generate_state(StateFamilySpec("werner", {"p": p}))), 1.0 + p * p)
     for p in (0.0, 0.3, 0.7, 1.0)]
    + [
        (pauli_decompose(generate_state(StateFamilySpec("bell_phi_plus"))), 2.0),
        (pauli_decompose(validate_density(np.eye(4) / 4)), 1.0),
        # s = 0 everywhere, and the maximum is a grid node
        (CorrelationData(x=np.zeros(3), y=np.array([0.0, 0.0, 1.0]), T=np.zeros((3, 3))), 2.0),
        # s = 0 everywhere, and the maximum at polar angle 0.01 lies between grid nodes
        (CorrelationData(x=np.zeros(3), y=0.9 * _TILT, T=np.zeros((3, 3))), 1.81),
        # s = 0 at b = +-e2 only; g = 1.25 everywhere
        (CorrelationData(x=np.array([0.5, 0.0, 0.0]), y=np.zeros(3), T=np.diag([0.0, 0.5, 0.0])), 1.25),
    ]
)
_DEGENERATE_CASES = pytest.mark.parametrize(
    "corr,f_want",
    _DEGENERATE_CASE_VALUES,
    ids=["werner-0", "werner-0.3", "werner-0.7", "werner-1", "phi-plus", "maximally-mixed",
         "s0-y-e3", "s0-y-tilted", "s0-at-e2"],
)


@_DEGENERATE_CASES
def test_fast_path_degenerate_and_nonsmooth_points(corr, f_want):
    f_max, a_star, b_star = maximize_objective(corr)
    assert abs(f_max - f_want) <= 1e-12
    assert abs(objective_f(corr, (a_star, b_star)) - f_max) <= 1e-12


@_DEGENERATE_CASES
def test_oracle_degenerate_and_nonsmooth_points(corr, f_want):
    # a singular Hessian at the maximum: the polish falls back to gradient steps
    (f_max,), (a_star,), (b_star,) = solver_mod._oracle_many(*stacked([corr]))
    assert abs(f_max - f_want) <= 1e-12
    assert abs(objective_f(corr, (a_star, b_star)) - f_max) <= 1e-12


def test_batched_a_star_is_the_reduction_maximizer(monkeypatch):
    corrs = [pauli_decompose(random_state(seed)) for seed in range(200)]
    corrs += [corr for corr, _ in _DEGENERATE_CASE_VALUES]
    corrs.append(CorrelationData(x=np.zeros(3), y=np.zeros(3), T=np.zeros((3, 3))))
    ascent, polished = solver_mod._newton_ascent, []

    def recording(*args):
        out = ascent(*args)
        polished.append(out[0])
        return out

    monkeypatch.setattr(solver_mod, "_newton_ascent", recording)
    _, a_star, _ = _maximize_many(*stacked(corrs))
    for corr, a, b in zip(corrs, a_star, polished[0]):
        assert np.array_equal(a, _orient(reduced_over_a(corr, b)[1]))
    assert np.array_equal(a_star[-1], [0.0, 0.0, 1.0])


def test_batched_trace_cc_overflow_raises():
    huge = CorrelationData(x=np.zeros(3), y=np.zeros(3), T=np.diag([1e154] * 3))
    states = [random_state(1), huge, random_state(2)]
    with pytest.raises(NonFiniteResultError, match="trace_cc = inf"):
        ggqd_many(states)
    with pytest.raises(NonFiniteResultError, match="trace_cc = inf"):
        ggqd_bloch(*stacked([pauli_decompose(random_state(1)), huge]))


def test_derivatives_finite_where_s_vanishes():
    # x = (0.5, 0, 0), T = diag(0, 0.5, 0): p = r and q = 0 at b = e2
    corr = CorrelationData(x=np.array([0.5, 0.0, 0.0]), y=np.zeros(3), T=np.diag([0.0, 0.5, 0.0]))
    _, kcy, p = _scaled_data(*stacked([corr]))
    for b in (np.array([[0.0, 1.0, 0.0]]), np.array([[0.0, -1.0, 0.0]])):
        _, tgrad, thess = _tangent_terms(kcy, p, b)
        assert np.isfinite(tgrad).all() and np.isfinite(thess).all()
        assert np.abs(tgrad).max() <= 1e-15


def test_trace_cc_overflow_raises():
    # f_max = 1 + 1e308 is finite, trace_cc = (1 + 3e308) / 4 is not
    corr = CorrelationData(x=np.zeros(3), y=np.zeros(3), T=np.diag([1e154] * 3))
    assert abs(maximize_objective(corr)[0] / 1e308 - 1.0) <= 1e-15
    with pytest.raises(NonFiniteResultError, match="too large"):
        ggqd(corr)


def test_scaling_is_exact():
    # g - 1 is homogeneous of degree 2 in (x, y, T): scaling by 2^k scales f_max - 1 by 4^k
    corr = pauli_decompose(random_state(5))
    f_max, a_star, b_star = maximize_objective(corr)
    for k in (-600, -30, 30, 500):
        big = CorrelationData(x=np.ldexp(corr.x, k), y=np.ldexp(corr.y, k), T=np.ldexp(corr.T, k))
        f_big, a_big, b_big = maximize_objective(big)
        want = np.ldexp(f_max - 1.0, 2 * k)
        assert abs(f_big - 1.0 - want) <= 1e-15 * max(1.0, want)
        assert np.array_equal(a_big, a_star) and np.array_equal(b_big, b_star)


def exp_pair(a, b, basis, xi):
    """(a, b) moved along the geodesics of S^2 x S^2 by the tangent vector xi, in the coordinates of ``basis``."""
    moved = []
    for p, v in ((a, xi @ basis[:, :3]), (b, xi @ basis[:, 3:])):
        n = np.linalg.norm(v)
        moved.append(p if n == 0.0 else np.cos(n) * p + np.sin(n) * v / n)
    return moved


def test_oracle_derivatives_match_geodesic_differences():
    rng = np.random.default_rng(84)
    eye = np.eye(4)
    for seed in range(50):
        corr = pauli_decompose(random_state(1200 + seed))
        a, b = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 3)))
        terms = _oracle_terms(*_oracle_data(*stacked([corr])), np.concatenate([a, b])[None])
        basis, grad, hess = (v[0] for v in terms)
        assert np.allclose(hess, hess.T, atol=1e-15, rtol=0.0)

        def along(xi, angle):
            return float(objective_rows(corr, *exp_pair(a, b, basis, angle * xi)))

        def second(xi, angle=1e-4):
            return (along(xi, angle) - 2.0 * along(xi, 0.0) + along(xi, -angle)) / angle**2

        for i, xi in enumerate(eye):
            assert abs(grad[i] - (along(xi, 1e-5) - along(xi, -1e-5)) / 2e-5) <= 1e-8
            assert abs(hess[i, i] - second(xi)) <= 1e-5
        for i in range(4):
            for j in range(i + 1, 4):
                mixed = 0.5 * (second(eye[i] + eye[j]) - hess[i, i] - hess[j, j])
                assert abs(hess[i, j] - mixed) <= 1e-5


def test_oracle_newton_optimality_evidence(monkeypatch):
    polish, runs = solver_mod._oracle_newton, []

    def recording(x, y, t, a, b, h):
        out = polish(x, y, t, a, b, h)
        runs.append((h, out[2], out[3]))
        return out

    monkeypatch.setattr(solver_mod, "_oracle_newton", recording)
    corrs = [pauli_decompose(random_state(seed)) for seed in range(200)]
    _, a_star, b_star = solver_mod._oracle_many(*stacked(corrs))
    (h_grid, h_star, steps), = runs
    assert (h_star >= h_grid).all()
    assert steps.max() < _NEWTON_MAX_ITERATIONS
    _, grad, hess = _oracle_terms(*_oracle_data(*stacked(corrs)), np.concatenate([a_star, b_star], axis=1))
    assert np.sqrt((grad * grad).sum(axis=1)).max() <= 1e-8
    assert np.linalg.eigvalsh(hess).max() <= 1e-8


def test_oracle_polish_reaches_the_gradient_tolerance():
    # every state's final tangent gradient on S^2 x S^2, in _exact_scaling's units, is within the stopping tolerance
    data = stacked([pauli_decompose(random_state(seed)) for seed in range(2000)])
    _, a_star, b_star = solver_mod._oracle_many(*data)
    _, grad, _ = _oracle_terms(*_oracle_data(*solver_mod._exact_scaling(*data)[1:]),
                               np.concatenate([a_star, b_star], axis=1))
    assert np.sqrt((grad * grad).sum(axis=1)).max() <= _NEWTON_GRAD_TOL


@pytest.mark.parametrize("solve,terms,most", [(_maximize_many, "_tangent_terms", 4),
                                               (solver_mod._oracle_many, "_oracle_terms", 5)], ids=["fast", "oracle"])
def test_newton_polish_stops_on_the_decrement(monkeypatch, solve, terms, most):
    # a row whose Newton decrement is within the rounding of h takes that step unseen and is done, with no
    # terms call to confirm it; a value test with a stuck-row exception ran 7 (fast) and 8 (oracle) here
    data = stacked([pauli_decompose(random_state(seed)) for seed in range(2000)])
    original, calls = getattr(solver_mod, terms), []

    def counting(*args):
        calls.append(len(args[-1]))
        return original(*args)

    monkeypatch.setattr(solver_mod, terms, counting)
    solve(*data)
    assert calls[0] == 2000 and len(calls) <= most


# Two non-physical states, as CorrelationData and --allow-nonphysical accept them, on which a solver
# stops at a local maximum. Both are targets for a certified upper bound on f_max.
_LOCAL_MAXIMUM_A = CorrelationData(  # smallest eigenvalue -0.65
    np.array([0.2349, -0.2315, 0.2806]), np.array([-1.5124, 1.0643, 1.8034]),
    np.array([[-0.0093, 0.0723, -0.5465], [0.5624, 0.4383, -0.0426], [0.0894, -0.549, 0.5813]]))
_LOCAL_MAXIMUM_B = CorrelationData(  # smallest eigenvalue -0.19
    np.array([0.0015, 0.0005, -0.0028]), np.array([-0.0343, 0.0223, -0.0066]),
    np.array([[0.5788, -0.0003, -0.609], [-0.5966, -0.6203, -0.2272], [0.2143, -0.5311, -0.3764]]))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: both solvers return 7.8578106746 and both reports gap 0; "
                                       "only a certified upper bound on f_max can show the miss")
@pytest.mark.parametrize("method", ["fast", "oracle"])
def test_both_solvers_reach_a_known_better_pair(method):
    a, b = np.array([0.7227, -0.4148, 0.5529]), np.array([-0.5814, 0.4184, 0.6978])
    known = objective_f(_LOCAL_MAXIMUM_A, (a / np.linalg.norm(a), b / np.linalg.norm(b)))  # 7.8610986607
    assert ggqd(_LOCAL_MAXIMUM_A, method).f_max >= known


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the oracle returns 1.9603489826, 6.3e-4 below the fast "
                                       "path's 1.9609751269, under exit 5's limit of 1e-3")
def test_oracle_reaches_the_fast_value_on_a_second_local_maximum():
    fast = ggqd(_LOCAL_MAXIMUM_B)
    assert abs(objective_f(_LOCAL_MAXIMUM_B, (fast.a_star, fast.b_star)) - fast.f_max) <= 1e-12
    assert ggqd(_LOCAL_MAXIMUM_B, "oracle").f_max >= fast.f_max - 1e-12


@pytest.mark.parametrize("seed", [435, 484, 1067, 1414])
def test_oracle_reaches_the_fast_maximum(seed):
    # a compass search in four angles stopped at its iteration cap on these
    # states, up to 3.4e-4 below the maximum
    corr = pauli_decompose(random_state(seed))
    assert abs(maximize_objective(corr)[0] - brute_force_oracle(corr)) <= 1e-12


def test_tangent_frame_orthonormal():
    rng = np.random.default_rng(85)
    b = rng.standard_normal((100, 3))
    b /= np.linalg.norm(b, axis=1)[:, None]
    special = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [1.0, 0.0, -0.0], [0.6, -0.8, -0.0]]
    b = np.concatenate([b, special])
    frame = _tangent_frame(b)
    assert np.array_equal(frame[:, 0], b)
    assert np.allclose(frame @ frame.swapaxes(1, 2), np.eye(3), atol=1e-15, rtol=0.0)


def test_oracle_is_independent_of_the_reduction(monkeypatch):
    corrs = [pauli_decompose(random_state(7)), bell_corr(0.5), pauli_decompose(mixed_state())]
    want = [brute_force_oracle(corr) for corr in corrs]

    def refuse(*args):
        raise AssertionError("the oracle called the reduction")

    for name in ("rank2_top", "_reduced_excess", "_scaled_data", "_derivatives", "_tangent_terms",
                 "_tangent_step", "_newton_ascent", "_maximize_many"):
        monkeypatch.setattr(solver_mod, name, refuse)
    assert [brute_force_oracle(corr) for corr in corrs] == want
    assert abs(want[1] - 2.0) <= 1e-12 and want[2] == 1.0


def test_oracle_scaling_is_exact():
    # f - 1 is homogeneous of degree 2 in (x, y, T): scaling by 2^k scales the oracle's f_max - 1 by 4^k
    corr = pauli_decompose(random_state(5))
    (f_max,), (a_star,), (b_star,) = solver_mod._oracle_many(*stacked([corr]))
    for k in (-600, -30, 30, 500):
        big = CorrelationData(x=np.ldexp(corr.x, k), y=np.ldexp(corr.y, k), T=np.ldexp(corr.T, k))
        (f_big,), (a_big,), (b_big,) = solver_mod._oracle_many(*stacked([big]))
        want = np.ldexp(f_max - 1.0, 2 * k)
        assert abs(f_big - 1.0 - want) <= 1e-15 * max(1.0, want)
        assert np.array_equal(a_big, a_star) and np.array_equal(b_big, b_star)


def test_oracle_overflow_raises():
    corr = CorrelationData(x=np.zeros(3), y=np.zeros(3), T=np.diag([1e155] * 3))
    with pytest.raises(NonFiniteResultError, match="too large"):
        brute_force_oracle(corr)


@pytest.mark.parametrize("method", ["fast", "oracle", "both"])
def test_result_floats_are_python_floats(method):
    res = ggqd(random_state(6), method=method)
    assert type(res.ggqd) is float and type(res.f_max) is float and type(res.trace_cc) is float
    assert type(trace_cc(pauli_decompose(random_state(6)))) is float


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(ggqd_pkg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ggqd, ggqd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def results_equal(r, s):
    return (
        r.ggqd == s.ggqd
        and r.f_max == s.f_max
        and np.array_equal(r.a_star, s.a_star)
        and np.array_equal(r.b_star, s.b_star)
        and r.trace_cc == s.trace_cc
        and r.method == s.method
        and r.oracle_gap == s.oracle_gap
    )


def test_maximize_many_matches_single_solves():
    # tied optima too (Werner, Bell mixtures, x-states, the degenerate cases), where rounding picks the grid's start
    corrs = [pauli_decompose(random_state(seed)) for seed in range(200)]
    corrs += [
        pauli_decompose(generate_state(StateFamilySpec("werner", {"p": p})))
        for p in np.linspace(0.0, 1.0, 101)
    ]
    corrs += [bell_corr(-1.0 + 0.05 * k) for k in range(41)]
    rng = np.random.default_rng(2311)
    corrs += [pauli_decompose(random_x_state(rng)) for _ in range(12)]
    corrs += [corr for corr, _ in _DEGENERATE_CASE_VALUES]
    for k, (f_max, a_star, b_star) in enumerate(zip(*_maximize_many(*stacked(corrs)))):
        f_one, a_one, b_one = maximize_objective(corrs[k])
        assert f_max == f_one
        assert np.array_equal(a_star, a_one) and np.array_equal(b_star, b_one)


def test_oracle_many_matches_single_solves():
    corrs = [pauli_decompose(random_state(seed)) for seed in range(200)]
    corrs += [
        pauli_decompose(generate_state(StateFamilySpec("werner", {"p": p})))
        for p in np.linspace(0.0, 1.0, 101)
    ]
    corrs += [bell_corr(-1.0 + 0.05 * k) for k in range(41)]
    corrs += [corr for corr, _ in _DEGENERATE_CASE_VALUES]
    for k, (f_max, a_star, b_star) in enumerate(zip(*solver_mod._oracle_many(*stacked(corrs)))):
        (f_one,), (a_one,), (b_one,) = solver_mod._oracle_many(*stacked([corrs[k]]))
        assert f_max == f_one
        assert np.array_equal(a_star, a_one) and np.array_equal(b_star, b_one)


def test_oracle_batch_with_a_flat_state_raises_no_warning():
    # the maximally mixed state has zero gradient and zero Hessian everywhere, and it
    # polishes in lockstep with states that take Newton and gradient steps
    corrs = [pauli_decompose(random_state(3)), pauli_decompose(mixed_state()), bell_corr(0.5),
             pauli_decompose(random_state(4))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f_max, _, _ = solver_mod._oracle_many(*stacked(corrs))
        both = ggqd_many(corrs, method="both")
    assert f_max[1] == 1.0 and abs(f_max[2] - 2.0) <= 1e-12
    assert max(res.oracle_gap for res in both) <= 1e-12


@pytest.mark.parametrize("method", ["fast", "oracle", "both"])
@pytest.mark.parametrize("field", ["x", "y", "T"])
def test_ggqd_bloch_rejects_non_finite_data(method, field):
    x, y, t = stacked([pauli_decompose(random_state(seed)) for seed in range(3)])
    bad = {"x": x, "y": y, "T": t}[field]
    bad[1].flat[2] = np.nan
    bad[2].flat[0] = np.inf
    with pytest.raises(ValueError, match=f"state 1: {field} must be finite"):
        ggqd_bloch(x, y, t, method=method)
    with pytest.raises(ValueError, match=f"state 0: {field} must be finite"):
        ggqd_bloch(x[2:], y[2:], t[2:], method=method)


@pytest.mark.parametrize(
    "shapes",
    [((2, 3), (2, 3), (3, 3, 3)), ((2, 3), (2, 3), (2, 9)), ((3,), (3,), (3, 3))],
    ids=["batch-sizes-differ", "flat-T", "one-state-unstacked"],
)
def test_ggqd_bloch_rejects_wrong_shapes(shapes):
    want = "x, y and T must be (n, 3), (n, 3) and (n, 3, 3); got " + ", ".join(map(str, shapes))
    with pytest.raises(ValueError, match=re.escape(want)):
        ggqd_bloch(*(np.zeros(shape) for shape in shapes))


def test_ggqd_bloch_solves_in_bounded_chunks(monkeypatch):
    sizes = []
    for name in ("_maximize_many", "_oracle_many"):
        def recording(x, y, t, solve=getattr(solver_mod, name)):
            sizes.append(len(x))
            return solve(x, y, t)

        monkeypatch.setattr(solver_mod, name, recording)

    # the fast path at its own chunk size, on formal data
    rng = np.random.default_rng(91)
    n = solver_mod._CHUNK + 5
    x, y, t = rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, (n, 3, 3))
    batch = ggqd_bloch(x, y, t)
    assert sizes == [solver_mod._CHUNK, 5]
    for k in (0, n - 6, n - 5, n - 1):
        assert results_equal(batch[k], ggqd_bloch(x[k : k + 1], y[k : k + 1], t[k : k + 1])[0])

    # every method, with a small chunk
    monkeypatch.setattr(solver_mod, "_CHUNK", 3)
    states = [random_state(80 + k) for k in range(7)] + [mixed_state()]
    for method in ("fast", "oracle", "both"):
        sizes.clear()
        batch = ggqd_many(states, method=method)
        assert sizes == [3, 3, 2] * (2 if method == "both" else 1)
        for res, rho in zip(batch, states):
            assert results_equal(res, ggqd(rho, method=method))


@pytest.mark.parametrize(
    "method,count",
    [("fast", 12), ("oracle", 2), ("oracle", 12), ("both", 2), ("both", 12)],
)
def test_ggqd_many_matches_ggqd(method, count):
    states = [random_state(40 + k) for k in range(count)]
    batch = ggqd_many(states, method=method)
    assert len(batch) == count
    for res, rho in zip(batch, states):
        assert results_equal(res, ggqd(rho, method=method))


def test_ggqd_many_and_ggqd_bloch_on_stacked_states():
    states = [random_state(60 + k) for k in range(6)]
    stack = np.array([rho.entries for rho in states])
    for res, rho in zip(ggqd_many(stack), states):
        assert results_equal(res, ggqd(rho))
    x, y, t = _bloch_stack(stack)
    for res, rho in zip(ggqd_bloch(x, y, t), states):
        assert results_equal(res, ggqd(rho))
    assert ggqd_bloch(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3, 3))) == []


def test_ggqd_many_inputs():
    rho = random_state(9)
    corr = pauli_decompose(rho)
    by_matrix, by_array, by_corr = ggqd_many([rho, rho.entries, corr])
    assert results_equal(by_matrix, by_array) and results_equal(by_matrix, by_corr)
    assert ggqd_many([]) == []
    with pytest.raises(ValueError, match="method"):
        ggqd_many([rho], method="newton")


def test_grid_caches_are_read_only():
    # one cached grid for both solvers: 873 vectors and their nine monomial rows, the six pair
    # monomials b_i b_j in triu_indices order and then the vectors
    bs, mono = _direction_grid()
    angles = solver_mod._ring_angles(solver_mod._GRID_STEP)
    assert _direction_grid()[0] is bs and _direction_grid()[1] is mono
    assert len(bs) == len(angles) == 873
    assert (bs[:, 2] >= -1e-12).all()
    assert np.array_equal(bs, sphere_direction(angles[:, 0], angles[:, 1])) and bs.flags.c_contiguous
    assert mono.shape == (9, len(bs)) and mono.flags.c_contiguous and mono[:6].flags.c_contiguous
    pairs = list(zip(*solver_mod._ORACLE_PAIRS))
    assert pairs == [(i, j) for i in range(3) for j in range(i, 3)] == list(zip(*np.triu_indices(3)))
    for row, (i, j) in enumerate(pairs):
        assert np.array_equal(mono[row], bs[:, i] * bs[:, j])
    assert np.array_equal(mono[6:], bs.T)
    for arr in (bs, mono, angles):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_ring_grid_covers_the_sphere_with_one_pole_and_no_repeats():
    # the shared grid: the pole e3 once and first, and no node equal or antipodal to another
    # (its covering radius is test_ring_angles_cover_the_hemisphere's)
    nodes = _direction_grid()[0]
    assert np.array_equal(nodes[0], [0.0, 0.0, 1.0])
    assert np.count_nonzero(np.abs(nodes - [0.0, 0.0, 1.0]).max(axis=1) < 1e-9) == 1
    dots = np.abs(nodes @ nodes.T)
    np.fill_diagonal(dots, 0.0)
    assert dots.max() < np.cos(np.radians(1.0))


def test_ring_angles_cover_the_hemisphere():
    # both solvers' grid comes from _ring_angles, so a fault there would not show as a gap between them:
    # no two nodes equal or antipodal, and every direction within step / sqrt(2) of a node or its antipode
    # (3.51 degrees measured, against 3.525)
    step = solver_mod._GRID_STEP
    angles = solver_mod._ring_angles(step)
    nodes = sphere_direction(angles[:, 0], angles[:, 1])
    dots = np.abs(nodes @ nodes.T)
    np.fill_diagonal(dots, 0.0)
    assert dots.max() < np.cos(step / 4.0)
    probes = np.random.default_rng(1801).standard_normal((50_000, 3))
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    nearest = min(np.abs(chunk @ nodes.T).max(axis=1).min() for chunk in np.array_split(probes, 100))
    assert np.arccos(nearest) <= step / np.sqrt(2.0)


@pytest.mark.parametrize("corr", [
    pauli_decompose(generate_state(StateFamilySpec("werner", {"p": 0.5}))),
    pauli_decompose(generate_state(StateFamilySpec("werner", {"p": 1.0}))),
    pauli_decompose(validate_density(np.eye(4) / 4)),
    CorrelationData(x=np.zeros(3), y=np.zeros(3), T=0.6 * np.eye(3)),
], ids=["werner-0.5", "werner-1", "mixed", "isotropic-T"])
def test_flat_grid_starts_at_the_pole(corr):
    # every b is optimal: the grid's values tie up to rounding, and the first near-tied node, the pole, is taken
    f_max, a, b = maximize_objective(corr)
    assert np.array_equal(b, [0.0, 0.0, 1.0])
    assert np.allclose(a, [0.0, 0.0, 1.0], rtol=0.0, atol=1e-15)


def _closed_form_cases():
    """(name, x, y, T) with x = 0, y = 0 or both, on random data and on degenerate spectra."""
    rng = np.random.default_rng(4040)
    cases = []
    for k in range(8):
        x, y, t = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, (3, 3))
        cases += [(f"random{k}-x0", 0 * x, y, t), (f"random{k}-y0", x, 0 * y, t), (f"random{k}-xy0", 0 * x, 0 * y, t)]
    u, v = random_rotation(rng), random_rotation(rng)
    spectra = {
        "orthogonal": u, "reflection": -u, "identity": np.eye(3),
        "rank1": np.outer(u[:, 0], v[:, 0]) * 0.9,
        "repeated-top": u @ np.diag([0.7, 0.7, 0.2]) @ v.T,
        "repeated-bottom": u @ np.diag([0.5, 0.2, 0.2]) @ v.T,
        "diagonal-ties": np.diag([0.4, -0.4, 0.4]),
    }
    zero = np.zeros(3)
    for name, t in spectra.items():
        w = rng.uniform(-1.0, 1.0, 3)
        cases += [(f"{name}-x0", zero, w, t), (f"{name}-y0", w, zero, t), (f"{name}-xy0", zero, zero, t)]
    # a vector along a singular vector; at 0.39 = 0.8^2 - 0.5^2 its term ties the top two eigenvalues
    s = np.array([0.8, 0.5, 0.3])
    t = u @ np.diag(s) @ v.T
    for k, c in ((0, 0.3), (1, 0.39 ** 0.5), (2, 0.6)):
        cases += [(f"y-along-v{k}", zero, c * v[:, k], t), (f"x-along-u{k}", c * u[:, k], zero, t)]
    cases += [(f"{name}-scaled{scale:g}", scale * x, scale * y, scale * t)
              for name, x, y, t in cases[:3] + cases[-6:] for scale in (1e-3, 1e3)]
    return cases


def _closed_form_f_max(x, y, t):
    if not x.any() and not y.any():
        return 1.0 + np.linalg.svd(t, compute_uv=False)[0] ** 2
    if not x.any():
        return 1.0 + np.linalg.eigvalsh(np.outer(y, y) + t.T @ t)[-1]
    return 1.0 + np.linalg.eigvalsh(np.outer(x, x) + t @ t.T)[-1]


@pytest.mark.parametrize("method", ["fast", "oracle"])
def test_closed_forms_with_a_zero_bloch_vector(method):
    # x = 0: f_max = 1 + lmax(yy' + T'T); y = 0: 1 + lmax(xx' + TT'); x = y = 0: 1 + smax(T)^2,
    # to 1e-12 of the data's scale max(1, m^2), m the largest |entry|
    cases = _closed_form_cases()
    x, y, t = (np.array([case[i] for case in cases]) for i in (1, 2, 3))
    results = ggqd_bloch(x, y, t, method=method)
    misses = []
    for (name, xk, yk, tk), res in zip(cases, results):
        m = max(np.abs(xk).max(), np.abs(yk).max(), np.abs(tk).max())
        want = _closed_form_f_max(xk, yk, tk)
        if not abs(res.f_max - want) <= 1e-12 * max(1.0, m * m):
            misses.append((name, res.f_max - want))
    assert not misses


def _invariance_errors(method, corrs):
    """How far f_max moves (variants, n) under the swap and three random local rotations, in units of max(1, m^2).

    f(a, b) on (R1 x, R2 y, R1 T R2') is f(R1'a, R2'b) on (x, y, T), and on (y, x, T') it is f(b, a). The
    rotations also reorder the oracle's row bounds, so they exercise its pruned visit.
    """
    rng = np.random.default_rng(1717)
    x, y, t = stacked(corrs)
    variants = [(y, x, t.swapaxes(1, 2))]
    for _ in range(3):
        r1 = np.array([random_rotation(rng) for _ in corrs])
        r2 = np.array([random_rotation(rng) for _ in corrs])
        variants.append(((r1 @ x[..., None])[..., 0], (r2 @ y[..., None])[..., 0], r1 @ t @ r2.swapaxes(1, 2)))
    f_max = np.array([res.f_max for res in ggqd_bloch(x, y, t, method=method)])
    scale = np.maximum(1.0, np.square(solver_mod._largest_entry(x, y, t)))
    return np.array([np.abs([res.f_max for res in ggqd_bloch(*variant, method=method)] - f_max) / scale
                     for variant in variants])


@pytest.mark.parametrize("method", ["fast", "oracle"])
def test_f_max_is_invariant_under_local_rotations_and_the_swap(method):
    corrs = [pauli_decompose(random_state(seed)) for seed in range(40)]
    corrs += [corr for corr, _ in _DEGENERATE_CASE_VALUES]
    if method == "oracle":
        corrs.pop()  # s0-at-e2, below
    assert (_invariance_errors(method, corrs) <= 1e-12).all()


def test_oracle_f_max_is_invariant_at_a_rotated_nonsmooth_point():
    # s0-at-e2, f_max = 1.25 on a = e1 for every b and on (a in the e1-e2 plane, b = +-e2): rotated off the
    # grid's nodes, the Hessian has one ~0 or slightly positive eigenvalue along the maximizer set, and the
    # polish must still reach 1.25 by Newton steps in the negative eigendirections
    corr, f_want = _DEGENERATE_CASE_VALUES[-1]
    assert f_want == 1.25
    assert (_invariance_errors("oracle", [corr]) <= 1e-12).all()

    # and at one fixed rotation, as a density matrix under method="both": the fast path and the oracle
    # agree exactly (dividing the whole gradient by the Hessian's spectral radius stopped 1.9e-6 below here)
    def rotation(axis, angle):  # Rodrigues' formula
        k = np.asarray(axis) / np.linalg.norm(axis)
        kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * kx @ kx

    r1, r2 = rotation([1.0, 1.0, 1.0], 0.3), rotation([1.0, 0.0, 0.0], 0.4)
    rho = reconstruct_density(CorrelationData(x=r1 @ corr.x, y=corr.y, T=r1 @ corr.T @ r2.T))
    assert rho.physical_flag and ggqd(rho, method="both").oracle_gap <= 1e-12


def test_oracle_polish_converges_on_rotated_degenerate_cases(monkeypatch):
    # on sets of maxima the Riemannian Hessian is singular or slightly indefinite: rotated off the grid's
    # nodes, no row takes all _NEWTON_MAX_ITERATIONS steps, and every row reaches its f_max
    polish, runs = solver_mod._oracle_newton, []

    def recording(*args):
        out = polish(*args)
        runs.append(out[3])
        return out

    monkeypatch.setattr(solver_mod, "_oracle_newton", recording)
    rng = np.random.default_rng(2101)
    corrs = [corr for corr, _ in _DEGENERATE_CASE_VALUES] * 20
    f_want = np.array([f for _, f in _DEGENERATE_CASE_VALUES] * 20)
    r1 = np.array([random_rotation(rng) for _ in corrs])
    r2 = np.array([random_rotation(rng) for _ in corrs])
    x, y, t = stacked(corrs)
    f_max = solver_mod._oracle_many((r1 @ x[..., None])[..., 0], (r2 @ y[..., None])[..., 0],
                                    r1 @ t @ r2.swapaxes(1, 2))[0]
    (steps,) = runs
    assert steps.max() < _NEWTON_MAX_ITERATIONS
    assert np.abs(f_max - f_want).max() <= 1e-12


def test_import_builds_no_grid():
    src = os.path.dirname(os.path.dirname(ggqd_pkg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ggqd, ggqd.cli; from ggqd.solver import _direction_grid; "
         "print(_direction_grid.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


_entry = st.floats(-1.0, 1.0, allow_nan=False)
_seed = st.integers(0, 2**32 - 1)


def _rotate(corr, r1, r2):
    return CorrelationData(x=r1 @ corr.x, y=r2 @ corr.y, T=r1 @ corr.T @ r2.T)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    x=st.tuples(_entry, _entry, _entry),
    y=st.tuples(_entry, _entry, _entry),
    t=st.tuples(*[_entry] * 9),
    seed=_seed,
)
def test_property_local_unitary_invariance(x, y, t, seed):
    # local unitaries act on (x, y, T) as independent SO(3) rotations
    corr = CorrelationData(x=x, y=y, T=np.reshape(t, (3, 3)))
    rng = np.random.default_rng(seed)
    plain, rotated = ggqd_many([corr, _rotate(corr, random_rotation(rng), random_rotation(rng))])
    assert abs(plain.f_max - rotated.f_max) <= 1e-9


_bloch_entry = st.floats(-1.5, 1.5, allow_nan=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    s=st.tuples(_entry, _entry, _entry),
    gap=st.sampled_from([None, None, 0.0, 1e-12, 1e-8, 1e-4]),
    x=st.tuples(_bloch_entry, _bloch_entry, _bloch_entry),
    y=st.tuples(_bloch_entry, _bloch_entry, _bloch_entry),
    seed=_seed,
)
def test_property_fast_path_finds_the_oracles_basin(s, gap, x, y, seed):
    # the fast path's grid is only a start for Newton: on rotated diagonal T, some with a near-tied top singular
    # pair, and on a local rotation of each, its f_max is never below the oracle's by more than 1e-12 of the
    # data's scale max(1, m^2), so no narrow basin of g slips between its 873 nodes unseen
    s = np.array(s)
    if gap is not None:  # the top two singular values tie up to ``gap``
        top = np.argsort(-np.abs(s))
        s[top[1]] = np.copysign(abs(s[top[0]]) * (1.0 - gap), s[top[1]])
    rng = np.random.default_rng(seed)
    t = random_rotation(rng) @ np.diag(s) @ random_rotation(rng).T
    corr = CorrelationData(x=x, y=y, T=t)
    x, y, t = stacked([corr, _rotate(corr, random_rotation(rng), random_rotation(rng))])
    fast = np.array([res.f_max for res in ggqd_bloch(x, y, t)])
    oracle = np.array([res.f_max for res in ggqd_bloch(x, y, t, method="oracle")])
    scale = np.maximum(1.0, np.square(solver_mod._largest_entry(x, y, t)))
    assert (fast >= oracle - 1e-12 * scale).all()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(x=st.tuples(_entry, _entry, _entry), y=st.tuples(_entry, _entry, _entry), t=st.tuples(*[_entry] * 9))
def test_property_swap_symmetry(x, y, t):
    t = np.reshape(t, (3, 3))
    plain, swapped = ggqd_many([CorrelationData(x=x, y=y, T=t), CorrelationData(x=y, y=x, T=t.T)])
    assert abs(plain.f_max - swapped.f_max) <= 1e-9


@settings(max_examples=50, deadline=None, derandomize=True)
@given(g=st.lists(_entry, min_size=32, max_size=32), rank=st.integers(1, 4))
def test_property_ggqd_nonnegative_on_physical_states(g, rank):
    # G G+ / Tr(G G+) with G of at most ``rank`` nonzero columns is physical
    g = np.reshape(g, (2, 4, 4))
    g = (g[0] + 1j * g[1])[:, :rank]
    m = g @ g.conj().T
    trace = float(m.trace().real)
    if trace < 1e-6:
        m, trace = np.eye(4), 4.0
    rho = validate_density(m / trace)
    (res,) = ggqd_many([rho])
    assert res.ggqd >= -1e-12
