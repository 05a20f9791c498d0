import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import haar_unitary, random_rotation, random_state
from hypothesis import given, settings
from hypothesis import strategies as st

import ggqd as ggqd_pkg
from ggqd import (
    CorrelationData,
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
from ggqd.solver import _direction_grid, _grid_monomials, _maximize_many, _refine

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


def test_refine_never_worse_than_start():
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.standard_normal(4)

        def bumpy(points):
            return np.sin(points @ w) + np.cos(3.0 * points[..., 0] * points[..., -1])

        start = rng.uniform(-2.0, 2.0, (1, 4))
        end = _refine(bumpy, start, 0.3)
        assert bumpy(end[None])[0] >= bumpy(start[None])[0]


def test_refine_stops_on_constant_function():
    calls = []

    def flat(points):
        calls.append(points.shape[1])
        return np.zeros(points.shape[:2])

    start = np.array([[0.4, -1.3]])
    assert np.array_equal(_refine(flat, start, 1e-7), start)
    assert calls == [9]  # one 3^2 stencil: the centre wins at the final step
    calls.clear()
    assert np.array_equal(_refine(flat, start, 0.1), start)
    assert len(calls) == 21  # only halvings: 0.1 / 2^20 <= 1e-7 < 0.1 / 2^19


@pytest.mark.parametrize("dim", [2, 4])
def test_refine_reaches_quadratic_maximum(dim):
    peak = np.array([0.3, -1.2, 2.05, 0.7])[:dim]

    def quadratic(points):
        return 5.0 - np.sum((points - peak) ** 2, axis=-1)

    end = _refine(quadratic, np.zeros((1, dim)), 0.5)
    assert abs(quadratic(end[None])[0] - 5.0) <= 1e-12


def test_refine_rows_match_single_runs():
    # each row maximizes its own quadratic; the first starts at its peak, so
    # it only halves its step and is done long before the others
    peaks = np.array([[0.0, 0.0], [0.3, -1.2], [2.05, 0.7], [-0.9, 1.4]])
    scales = np.array([1.0, 0.2, 3.0, 0.7])
    starts = np.array([[0.0, 0.0], [1.0, 1.0], [-0.5, 0.25], [0.1, -0.3]])

    def quadratics(rows, calls):
        def fun(points):
            calls.append(len(points))
            return -np.sum(scales[rows, None, None] * (points - peaks[rows, None, :]) ** 2, axis=-1)
        return fun

    together = _refine(quadratics(np.arange(4), []), starts, 0.25)
    iterations = []
    for k in range(4):
        calls = []
        alone = _refine(quadratics(np.array([k]), calls), starts[k:k + 1], 0.25)
        iterations.append(len(calls))
        assert np.array_equal(together[k], alone[0])
    assert iterations[0] == min(iterations) < max(iterations)


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
    corrs = [pauli_decompose(random_state(seed)) for seed in range(200)]
    corrs += [
        pauli_decompose(generate_state(StateFamilySpec("werner", {"p": p})))
        for p in np.linspace(0.0, 1.0, 101)
    ]
    for batched, corr in zip(_maximize_many(corrs), corrs):
        f_max, a_star, b_star = maximize_objective(corr)
        assert batched[0] == f_max
        assert np.array_equal(batched[1], a_star) and np.array_equal(batched[2], b_star)


@pytest.mark.parametrize(
    "method,count",
    [("fast", 12), ("oracle", 2), ("both", 2)],
)
def test_ggqd_many_matches_ggqd(method, count):
    states = [random_state(40 + k) for k in range(count)]
    batch = ggqd_many(states, method=method)
    assert len(batch) == count
    for res, rho in zip(batch, states):
        assert results_equal(res, ggqd(rho, method=method))


def test_ggqd_many_inputs():
    rho = random_state(9)
    corr = pauli_decompose(rho)
    by_matrix, by_array, by_corr = ggqd_many([rho, rho.entries, corr])
    assert results_equal(by_matrix, by_array) and results_equal(by_matrix, by_corr)
    assert ggqd_many([]) == []
    with pytest.raises(ValueError, match="method"):
        ggqd_many([rho], method="newton")


def test_grid_caches_are_read_only():
    bs, b_angles = _direction_grid()
    angles, mono = _grid_monomials()
    assert _direction_grid()[0] is bs and _grid_monomials()[1] is mono
    assert len(angles) == 16380 and len(bs) == 2701
    assert np.array_equal(bs, sphere_direction(b_angles[:, 0], b_angles[:, 1]))
    assert mono.shape == (9, len(angles)) and mono.flags.c_contiguous
    assert np.array_equal(mono[6:], sphere_direction(angles[:, 0], angles[:, 1]).T)
    for arr in (bs, b_angles, angles, mono):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_import_builds_no_grid():
    src = os.path.dirname(os.path.dirname(ggqd_pkg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ggqd, ggqd.cli; from ggqd.solver import _direction_grid, _grid_monomials; "
         "print(_direction_grid.cache_info().currsize, _grid_monomials.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


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
