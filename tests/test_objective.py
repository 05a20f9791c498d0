import numpy as np
import pytest
from conftest import random_rotation, random_state, random_unit
from hypothesis import given, settings
from hypothesis import strategies as st

from ggqd import (
    CorrelationData,
    NonUnitDirectionError,
    StateFamilySpec,
    generate_state,
    objective_f,
    pauli_decompose,
    rank2_lambda_max,
    reduced_over_a,
    sphere_direction,
)
from ggqd.objective import objective_rows

E1, E2, E3 = np.eye(3)


def bell_corr(c3):
    rho = generate_state(StateFamilySpec("bell_mixture", {"c3": c3}), allow_nonphysical=True)
    return pauli_decompose(rho)


def mixed_corr():
    return CorrelationData(x=np.zeros(3), y=np.zeros(3), T=np.zeros((3, 3)))


def sphere_grid(n_az, n_pol):
    az = np.arange(n_az) * (2 * np.pi / n_az)
    pol = np.linspace(0.0, np.pi, n_pol)
    a, p = np.meshgrid(az, pol, indexing="ij")
    sp = np.sin(p)
    return np.stack([np.cos(a) * sp, np.sin(a) * sp, np.cos(p)], axis=-1).reshape(-1, 3)


def charpoly_lambda_max(m):
    # independent route: cubic characteristic polynomial, largest real root
    tr = float(np.trace(m))
    minors = (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    )
    det = float(np.linalg.det(m))
    return float(np.roots([1.0, -tr, float(minors), -det]).real.max())


def test_objective_mixed_is_one():
    corr = mixed_corr()
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert objective_f(corr, (random_unit(rng), random_unit(rng))) == 1.0


@pytest.mark.parametrize("c3", [0.0, 0.5, 1.0, -0.9])
def test_objective_bell_reference_directions(c3):
    corr = bell_corr(c3)
    assert abs(objective_f(corr, (E3, E3)) - (1 + c3 * c3)) <= 1e-14
    # T e2 = -e2 so a.Tb = -1 and f = 2
    assert abs(objective_f(corr, (E2, E2)) - 2.0) <= 1e-14


def test_objective_non_unit_direction():
    corr = mixed_corr()
    with pytest.raises(NonUnitDirectionError):
        objective_f(corr, (np.array([1.0, 1.0, 0.0]), E3))
    with pytest.raises(NonUnitDirectionError):
        objective_f(corr, (E3, np.array([0.0, 0.0, 0.9])))


def test_direction_must_be_a_3_vector():
    with pytest.raises(NonUnitDirectionError, match=r"a must be a 3-vector, got shape \(2,\)"):
        objective_f(mixed_corr(), (np.array([1.0, 0.0]), E3))


def test_nan_direction_rejected():
    nan_dir = np.array([np.nan, 0.0, 1.0])
    with pytest.raises(NonUnitDirectionError):
        objective_f(mixed_corr(), (nan_dir, E3))
    with pytest.raises(NonUnitDirectionError):
        objective_f(mixed_corr(), (E3, nan_dir))


def test_rank2_rank1_case():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(3)
    lam, vec = rank2_lambda_max(np.zeros(3), v)
    assert abs(lam - v @ v) <= 1e-14
    assert abs(abs(vec @ (v / np.linalg.norm(v))) - 1.0) <= 1e-12


def test_rank2_orthogonal_pair():
    u = 0.8 * E1
    v = 0.5 * E2
    lam, vec = rank2_lambda_max(u, v)
    assert abs(lam - 0.64) <= 1e-15
    assert np.allclose(np.abs(vec), E1, atol=1e-12)


def test_rank2_equal_vectors():
    u = np.array([0.3, -0.4, 0.5])
    lam, vec = rank2_lambda_max(u, u)
    assert abs(lam - 2 * (u @ u)) <= 1e-14
    assert abs(abs(vec @ (u / np.linalg.norm(u))) - 1.0) <= 1e-12


def test_rank2_degenerate_tiebreak():
    lam, vec = rank2_lambda_max(E1, E2)
    assert abs(lam - 1.0) <= 1e-15
    assert np.allclose(vec, np.array([1.0, 1.0, 0.0]) / np.sqrt(2), atol=1e-15)
    lam, vec = rank2_lambda_max(np.zeros(3), np.zeros(3))
    assert lam == 0.0
    assert np.array_equal(vec, E3)


@pytest.mark.parametrize("scale", [1e-140, 1e-94, 1e150])
def test_rank2_tiny_and_huge_inputs(scale):
    # the squared norms of such inputs under- or overflow unless rescaled
    u = np.array([0.3, -0.4, 0.5])
    v = np.array([0.1, 0.7, 0.2])
    lam_ref, vec_ref = rank2_lambda_max(u, v)
    lam, vec = rank2_lambda_max(scale * u, scale * v)
    assert abs(lam / (scale * scale) - lam_ref) <= 1e-12 * lam_ref
    assert np.allclose(vec, vec_ref, atol=1e-12)
    lam, vec = rank2_lambda_max(np.zeros(3), scale * E1)
    assert np.allclose(np.abs(vec), E1, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["u", "v"])
def test_rank2_rejects_non_finite_input(name, bad):
    uv = {"u": np.array([0.3, -0.4, 0.5]), "v": np.array([0.1, 0.7, 0.2])}
    uv[name][0] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        rank2_lambda_max(uv["u"], uv["v"])


def test_rank2_against_characteristic_polynomial():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        u = rng.standard_normal(3) * rng.uniform(0.1, 2.0)
        v = rng.standard_normal(3) * rng.uniform(0.1, 2.0)
        m = np.outer(u, u) + np.outer(v, v)
        lam, vec = rank2_lambda_max(u, v)
        assert abs(lam - charpoly_lambda_max(m)) <= 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert np.allclose(m @ vec, lam * vec, atol=1e-10)


@pytest.mark.parametrize("c3", [0.5, 1.0])
def test_reduced_bell_reference_values(c3):
    corr = bell_corr(c3)
    g3, _ = reduced_over_a(corr, E3)
    assert abs(g3 - (1 + c3 * c3)) <= 1e-14
    g2, a2 = reduced_over_a(corr, E2)
    assert abs(g2 - 2.0) <= 1e-14
    assert abs(objective_f(corr, (a2, E2)) - 2.0) <= 1e-14


def test_reduced_mixed_is_one():
    g, _ = reduced_over_a(mixed_corr(), E1)
    assert g == 1.0


def test_reduced_dominates_objective():
    rng = np.random.default_rng(13)
    for seed in range(20):
        corr = pauli_decompose(random_state(seed))
        b = random_unit(rng)
        g, a_star = reduced_over_a(corr, b)
        assert abs(objective_f(corr, (a_star, b)) - g) <= 1e-12
        for _ in range(50):
            assert objective_f(corr, (random_unit(rng), b)) <= g + 1e-12


def test_reduced_grid_consistency():
    grid = sphere_grid(50, 50)
    rng = np.random.default_rng(2024)
    for seed in range(10):
        corr = pauli_decompose(random_state(seed))
        b = random_unit(rng)
        g, _ = reduced_over_a(corr, b)
        f = 1.0 + (corr.y @ b) ** 2 + (grid @ corr.x) ** 2 + (grid @ (corr.T @ b)) ** 2
        assert f.max() <= g + 1e-12
        assert g - f.max() <= 3e-3


def test_reduced_rotation_covariance():
    rng = np.random.default_rng(3)
    for seed in range(10):
        corr = pauli_decompose(random_state(seed))
        ra, rb = random_rotation(rng), random_rotation(rng)
        rotated = CorrelationData(x=ra @ corr.x, y=rb @ corr.y, T=ra @ corr.T @ rb.T)
        b = random_unit(rng)
        g, _ = reduced_over_a(corr, b)
        g_rot, _ = reduced_over_a(rotated, rb @ b)
        assert abs(g - g_rot) <= 1e-10


def test_objective_bounds():
    rng = np.random.default_rng(4)
    for seed in range(10):
        corr = pauli_decompose(random_state(seed))
        upper = 1.0 + corr.x @ corr.x + corr.y @ corr.y + float(np.sum(corr.T * corr.T))
        for _ in range(20):
            f = objective_f(corr, (random_unit(rng), random_unit(rng)))
            assert 1.0 <= f <= upper + 1e-12


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_vec = st.tuples(_finite, _finite, _finite)
_azimuth = st.floats(0.0, 2.0 * np.pi)
_polar = st.floats(0.0, np.pi)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(x=_vec, y=_vec, t=st.tuples(*[_finite] * 9), a_angles=st.tuples(_azimuth, _polar),
       b_angles=st.tuples(_azimuth, _polar))
def test_property_objective_even_in_each_direction(x, y, t, a_angles, b_angles):
    # the oracle grids hemispheres only; negation is exact, so the symmetry is bitwise
    corr = CorrelationData(x=x, y=y, T=np.reshape(t, (3, 3)))
    a, b = sphere_direction(*a_angles), sphere_direction(*b_angles)
    f = objective_rows(corr, a, b).tobytes()
    assert objective_rows(corr, -a, b).tobytes() == f
    assert objective_rows(corr, a, -b).tobytes() == f
