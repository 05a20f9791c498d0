import numpy as np
import pytest
from conftest import haar_unitary, random_state, rotation_from_unitary

from ggqd import (
    CorrelationData,
    StateFamilySpec,
    TraceNotOneError,
    correlation_matrix,
    generate_state,
    local_unitary_conjugate,
    pauli_decompose,
    reconstruct_density,
    swap_subsystems,
    trace_cc,
    validate_density,
)
from ggqd.pauli import pauli_decompose_stack, trace_cc_stack


def bell_mixture(c3):
    return generate_state(StateFamilySpec("bell_mixture", {"c3": c3}), allow_nonphysical=True)


def random_corr(rng, scale=1.0):
    return CorrelationData(
        x=rng.uniform(-scale, scale, 3),
        y=rng.uniform(-scale, scale, 3),
        T=rng.uniform(-scale, scale, (3, 3)),
    )


def test_maximally_mixed_no_correlations():
    corr = pauli_decompose(validate_density(np.eye(4) / 4))
    assert np.allclose(corr.x, 0, atol=1e-15)
    assert np.allclose(corr.y, 0, atol=1e-15)
    assert np.allclose(corr.T, 0, atol=1e-15)


@pytest.mark.parametrize("c3", [0.0, 0.5, 1.0, -0.7])
def test_bell_mixture_correlations(c3):
    corr = pauli_decompose(bell_mixture(c3))
    assert np.allclose(corr.x, 0, atol=1e-14)
    assert np.allclose(corr.y, 0, atol=1e-14)
    assert np.allclose(corr.T, np.diag([0.0, -1.0, c3]), atol=1e-14)
    # equivalently C = diag(1, 0, -1, c3) / 2
    assert np.allclose(correlation_matrix(corr), np.diag([1.0, 0.0, -1.0, c3]) / 2, atol=1e-14)


def test_phi_plus_correlation_tensor():
    corr = pauli_decompose(generate_state(StateFamilySpec("bell_phi_plus")))
    assert np.allclose(corr.x, 0, atol=1e-14)
    assert np.allclose(corr.y, 0, atol=1e-14)
    assert np.allclose(corr.T, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_reconstruct_uncorrelated_is_mixed():
    corr = CorrelationData(x=np.zeros(3), y=np.zeros(3), T=np.zeros((3, 3)))
    rho = reconstruct_density(corr)
    assert np.allclose(rho.entries, np.eye(4) / 4, atol=1e-15)


@pytest.mark.parametrize("c3", [0.0, 0.5, -1.0])
def test_reconstruct_bell_mixture(c3):
    corr = CorrelationData(x=np.zeros(3), y=np.zeros(3), T=np.diag([0.0, -1.0, c3]))
    rho = reconstruct_density(corr)
    assert np.allclose(rho.entries, bell_mixture(c3).entries, atol=1e-15)


def test_roundtrip_on_random_correlation_tuples():
    rng = np.random.default_rng(100)
    for _ in range(100):
        corr = random_corr(rng)
        back = pauli_decompose(reconstruct_density(corr))
        assert np.abs(back.x - corr.x).max() <= 1e-12
        assert np.abs(back.y - corr.y).max() <= 1e-12
        assert np.abs(back.T - corr.T).max() <= 1e-12


def test_roundtrip_on_random_states():
    for seed in range(20):
        rho = random_state(seed)
        back = reconstruct_density(pauli_decompose(rho))
        assert np.abs(back.entries - rho.entries).max() <= 1e-12
        assert back.physical_flag


@pytest.mark.parametrize("c3", [0.0, 0.5, 1.0])
def test_trace_cc_bell_mixture(c3):
    corr = pauli_decompose(bell_mixture(c3))
    assert abs(trace_cc(corr) - 0.25 * (c3 * c3 + 2.0)) <= 1e-12


def test_trace_cc_reference_values():
    assert abs(trace_cc(pauli_decompose(validate_density(np.eye(4) / 4))) - 0.25) <= 1e-15
    corr = pauli_decompose(generate_state(StateFamilySpec("bell_phi_plus")))
    assert abs(trace_cc(corr) - 1.0) <= 1e-14


def test_trace_cc_equals_explicit_sum():
    rng = np.random.default_rng(7)
    for _ in range(50):
        corr = random_corr(rng)
        c = correlation_matrix(corr)
        assert abs(trace_cc(corr) - float(np.sum(c * c))) <= 1e-12


def test_decomposition_linearity():
    rng = np.random.default_rng(5)
    for k in range(10):
        r1, r2 = random_state(2 * k), random_state(2 * k + 1)
        alpha = rng.uniform(0, 1)
        mix = validate_density(alpha * r1.entries + (1 - alpha) * r2.entries)
        c_mix = pauli_decompose(mix)
        c1, c2 = pauli_decompose(r1), pauli_decompose(r2)
        assert np.allclose(c_mix.x, alpha * c1.x + (1 - alpha) * c2.x, atol=1e-12)
        assert np.allclose(c_mix.y, alpha * c1.y + (1 - alpha) * c2.y, atol=1e-12)
        assert np.allclose(c_mix.T, alpha * c1.T + (1 - alpha) * c2.T, atol=1e-12)


def test_local_unitary_covariance():
    rng = np.random.default_rng(23)
    for k in range(10):
        rho = random_state(400 + k)
        ua, ub = haar_unitary(rng), haar_unitary(rng)
        corr = pauli_decompose(rho)
        rotated = pauli_decompose(local_unitary_conjugate(rho, ua, ub))
        ra, rb = rotation_from_unitary(ua), rotation_from_unitary(ub)
        assert np.allclose(rotated.x, ra @ corr.x, atol=1e-9)
        assert np.allclose(rotated.y, rb @ corr.y, atol=1e-9)
        assert np.allclose(rotated.T, ra @ corr.T @ rb.T, atol=1e-9)
        # rotation invariants
        assert abs(np.linalg.norm(rotated.x) - np.linalg.norm(corr.x)) <= 1e-9
        assert abs(np.linalg.norm(rotated.y) - np.linalg.norm(corr.y)) <= 1e-9
        assert np.allclose(np.linalg.svd(rotated.T, compute_uv=False),
                           np.linalg.svd(corr.T, compute_uv=False), atol=1e-9)
        assert abs(trace_cc(rotated) - trace_cc(corr)) <= 1e-9


def test_swap_covariance():
    for seed in range(10):
        rho = random_state(seed)
        corr = pauli_decompose(rho)
        swapped = pauli_decompose(swap_subsystems(rho))
        assert np.allclose(swapped.x, corr.y, atol=1e-12)
        assert np.allclose(swapped.y, corr.x, atol=1e-12)
        assert np.allclose(swapped.T, corr.T.T, atol=1e-12)


def test_correlation_data_shape_check():
    with pytest.raises(ValueError, match="shape"):
        CorrelationData(x=np.zeros(2), y=np.zeros(3), T=np.zeros((3, 3)))


@pytest.mark.parametrize("field", ["x", "y", "T"])
def test_correlation_data_rejects_nonfinite(field):
    data = {"x": np.zeros(3), "y": np.zeros(3), "T": np.eye(3)}
    data[field] = data[field].copy()
    data[field].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CorrelationData(**data)
    data[field].flat[0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        CorrelationData(**data)


def test_decompose_bare_array_waives_only_positivity():
    with pytest.raises(TraceNotOneError):
        pauli_decompose(np.ones((4, 4)))
    bare = pauli_decompose(bell_mixture(0.5).entries)  # not positive semidefinite
    assert np.array_equal(bare.T, pauli_decompose(bell_mixture(0.5)).T)


def family_states():
    """A member of every family, at its defaults and at other parameter values."""
    specs = [StateFamilySpec(f) for f in ("werner", "classical_classical", "pure_product", "bell_phi_plus",
                                          "x_state", "random")]
    specs += [StateFamilySpec("werner", {"p": p}) for p in (0.1, 0.5, 1.0)]
    specs += [StateFamilySpec("classical_classical", {"p00": 0.7, "p01": 0.1, "p10": 0.1, "p11": 0.1})]
    specs += [StateFamilySpec("pure_product", {"theta_a": 0.3, "phi_a": 1.1, "theta_b": 2.0, "phi_b": -0.4})]
    specs += [StateFamilySpec("x_state", {"rho00": 0.4, "rho11": 0.1, "rho22": 0.2, "rho33": 0.3,
                                          "rho03": 0.2, "rho12": -0.1})]
    states = [generate_state(spec) for spec in specs]
    return states + [bell_mixture(c3) for c3 in (-1.0, -0.35, 0.0, 0.5, 1.0)]


def test_stacked_decomposition_matches_pauli_decompose():
    states = [random_state(seed) for seed in range(200)] + family_states()
    x, y, t = pauli_decompose_stack(np.array([rho.entries for rho in states]))
    assert x.flags.c_contiguous and y.flags.c_contiguous and t.flags.c_contiguous
    for k, rho in enumerate(states):
        corr = pauli_decompose(rho)
        assert np.array_equal(x[k], corr.x) and np.array_equal(y[k], corr.y) and np.array_equal(t[k], corr.T)


def test_stacked_trace_cc_matches_and_overflows_quietly():
    states = [random_state(seed) for seed in range(50)] + family_states()
    corrs = [pauli_decompose(rho) for rho in states]
    corrs.append(CorrelationData(x=np.zeros(3), y=np.zeros(3), T=np.diag([1e154] * 3)))
    x, y, t = (np.array([getattr(c, name) for c in corrs]) for name in ("x", "y", "T"))
    tcc = trace_cc_stack(x, y, t)  # warnings are errors in this suite
    assert tcc[-1] == np.inf
    assert all(tcc[k] == trace_cc(corr) for k, corr in enumerate(corrs))
