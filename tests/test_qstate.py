import json

import numpy as np
import pytest
from conftest import haar_unitary, random_state
from hypothesis import given, settings
from hypothesis import strategies as st

from ggqd import (
    DensityMatrix,
    NonHermitianError,
    NotPositiveError,
    NotUnitaryError,
    ParameterOutOfRangeError,
    ProbabilitiesNotNormalizedError,
    StateFamilySpec,
    StateFormatError,
    TraceNotOneError,
    UnknownFamilyError,
    generate_state,
    load_state,
    local_unitary_conjugate,
    save_state,
    state_from_json,
    state_to_json,
    swap_subsystems,
    validate_density,
)
from ggqd.errors import GgqdError
from ggqd.qstate import (
    FAMILIES,
    PAULIS,
    _BUILDERS,
    density_deviations,
    family_matrix,
    family_stack,
    parse_state_matrix,
    validate_density_stack,
)


def bell_mixture_matrix(c3):
    return 0.25 * np.array(
        [
            [1 + c3, 0, 0, 1],
            [0, 1 - c3, -1, 0],
            [0, -1, 1 - c3, 0],
            [1, 0, 0, 1 + c3],
        ],
        dtype=complex,
    )


def bell_mixture_spectrum(c3):
    # The matrix splits into two 2x2 blocks [[1 +- c3, +-1], [+-1, 1 +- c3]] / 4
    # with eigenvalues ((1 +- c3) +- 1) / 4.
    return np.sort([(2 + c3) / 4, c3 / 4, (2 - c3) / 4, -c3 / 4])


def test_maximally_mixed_accepted():
    rho = validate_density(np.eye(4) / 4)
    assert rho.physical_flag
    assert rho.diagnostic is None


@pytest.mark.parametrize("c3", [0.25, 0.5, 0.95, -0.6])
def test_bell_mixture_block_spectrum(c3):
    got = np.sort(np.linalg.eigvalsh(bell_mixture_matrix(c3)))
    assert np.allclose(got, bell_mixture_spectrum(c3), atol=1e-12)


def test_bell_mixture_not_positive():
    m = bell_mixture_matrix(0.5)
    with pytest.raises(NotPositiveError, match="-1.25"):
        validate_density(m)
    rho = validate_density(m, allow_nonphysical=True)
    assert not rho.physical_flag
    assert "eigenvalue" in rho.diagnostic
    # min eigenvalue is -c3/4 = -0.125
    assert abs(np.linalg.eigvalsh(rho.entries)[0] + 0.125) < 1e-12


def test_trace_not_one():
    with pytest.raises(TraceNotOneError, match="trace"):
        validate_density(np.eye(4) * 0.225)  # trace 0.9


def test_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-3
    with pytest.raises(NonHermitianError, match="Hermiticity"):
        validate_density(m)


def test_bad_shape_and_nonfinite():
    with pytest.raises(ValueError, match="4x4"):
        validate_density(np.eye(3) / 3)
    m = np.eye(4, dtype=complex) / 4
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        validate_density(m)


def test_density_matrix_must_be_4x4():
    with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got shape \(3, 3\)"):
        DensityMatrix(np.eye(3) / 3)


def test_generate_bell_mixture_c3_zero():
    rho = generate_state(StateFamilySpec("bell_mixture", {"c3": 0.0}))
    want = 0.25 * np.array(
        [[1, 0, 0, 1], [0, 1, -1, 0], [0, -1, 1, 0], [1, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(rho.entries, want)
    assert rho.physical_flag


@pytest.mark.parametrize("c3", [0.3, -0.8, 1.0])
def test_generate_bell_mixture_matches_displayed_form(c3):
    rho = generate_state(StateFamilySpec("bell_mixture", {"c3": c3}), allow_nonphysical=True)
    assert np.allclose(rho.entries, bell_mixture_matrix(c3), atol=1e-15)


def test_bell_mixture_requires_waiver():
    with pytest.raises(NotPositiveError):
        generate_state(StateFamilySpec("bell_mixture", {"c3": 0.3}))


def test_classical_classical_degenerate():
    rho = generate_state(
        StateFamilySpec("classical_classical", {"p00": 1.0, "p01": 0.0, "p10": 0.0, "p11": 0.0})
    )
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 1.0
    assert np.array_equal(rho.entries, want)


def test_classical_classical_not_normalized():
    with pytest.raises(ProbabilitiesNotNormalizedError):
        generate_state(StateFamilySpec("classical_classical", {"p00": 0.5, "p01": 0.4, "p10": 0.2, "p11": 0.0}))


def test_classical_classical_negative_probability():
    with pytest.raises(ParameterOutOfRangeError):
        generate_state(StateFamilySpec("classical_classical", {"p00": 1.2, "p01": -0.2, "p10": 0.0, "p11": 0.0}))


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        generate_state(StateFamilySpec("ghz"))


def test_unknown_parameter():
    with pytest.raises(ParameterOutOfRangeError, match="unknown parameter"):
        generate_state(StateFamilySpec("werner", {"q": 0.5}))


def test_parameter_out_of_range():
    with pytest.raises(ParameterOutOfRangeError):
        generate_state(StateFamilySpec("bell_mixture", {"c3": 1.5}), allow_nonphysical=True)
    with pytest.raises(ParameterOutOfRangeError):
        generate_state(StateFamilySpec("werner", {"p": -0.2}))


def test_x_state_coherence_bound():
    with pytest.raises(ParameterOutOfRangeError, match="rho03"):
        generate_state(
            StateFamilySpec("x_state", {"rho00": 0.1, "rho11": 0.4, "rho22": 0.4, "rho33": 0.1, "rho03": 0.3})
        )


def test_x_state_structure():
    rho = generate_state(
        StateFamilySpec("x_state", {"rho00": 0.4, "rho11": 0.2, "rho22": 0.3, "rho33": 0.1, "rho03": 0.15, "rho12": -0.1})
    )
    m = rho.entries
    assert rho.physical_flag
    zero_mask = np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=bool
    )
    assert np.all(m[zero_mask] == 0)
    assert m[0, 3] == 0.15 and m[1, 2] == -0.1


def test_pure_product_is_pure():
    rho = generate_state(StateFamilySpec("pure_product", {"theta_a": 1.1, "phi_a": 0.4, "theta_b": 2.0, "phi_b": -0.7}))
    m = rho.entries
    assert abs(np.trace(m @ m).real - 1.0) < 1e-12


def test_random_deterministic():
    a = generate_state(StateFamilySpec("random", seed=11))
    b = generate_state(StateFamilySpec("random", seed=11))
    assert np.array_equal(a.entries, b.entries)
    c = generate_state(StateFamilySpec("random", seed=12))
    assert not np.array_equal(a.entries, c.entries)


def test_random_negative_seed_rejected():
    with pytest.raises(ParameterOutOfRangeError, match="got -1"):
        generate_state(StateFamilySpec("random", seed=-1))


def test_random_states_physical():
    for seed in range(100):
        rho = random_state(seed)
        assert rho.physical_flag
        assert abs(rho.entries.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-12


def test_generated_families_physical():
    specs = [
        StateFamilySpec("werner", {"p": 0.7}),
        StateFamilySpec("classical_classical"),
        StateFamilySpec("pure_product", {"theta_a": 0.5}),
        StateFamilySpec("bell_phi_plus"),
        StateFamilySpec("x_state", {"rho03": 0.2}),
        StateFamilySpec("random", seed=5),
        StateFamilySpec("bell_mixture", {"c3": 0.0}),
    ]
    for spec in specs:
        assert generate_state(spec).physical_flag, spec.family


def test_local_unitary_identity():
    rho = random_state(3)
    out = local_unitary_conjugate(rho, np.eye(2), np.eye(2))
    assert np.allclose(out.entries, rho.entries, atol=1e-15)


def test_local_unitary_basis_flip():
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    out = local_unitary_conjugate(validate_density(ket00), PAULIS[1], np.eye(2))
    want = np.zeros((4, 4), dtype=complex)
    want[2, 2] = 1.0  # |10><10|
    assert np.allclose(out.entries, want, atol=1e-15)


def test_local_unitary_preserves_spectrum():
    rng = np.random.default_rng(17)
    for k in range(5):
        rho = random_state(300 + k)
        out = local_unitary_conjugate(rho, haar_unitary(rng), haar_unitary(rng))
        got = np.sort(np.linalg.eigvalsh(out.entries))
        want = np.sort(np.linalg.eigvalsh(rho.entries))
        assert np.allclose(got, want, atol=1e-9)


def test_not_unitary():
    rho = random_state(0)
    with pytest.raises(NotUnitaryError, match="uA"):
        local_unitary_conjugate(rho, np.eye(2) * 1.01, np.eye(2))


def test_local_unitary_factors_must_be_2x2():
    with pytest.raises(ValueError, match=r"uB must be 2x2, got shape \(3, 3\)"):
        local_unitary_conjugate(random_state(0), np.eye(2), np.eye(3))


def test_swap_basis_state():
    ket01 = np.zeros((4, 4), dtype=complex)
    ket01[1, 1] = 1.0
    out = swap_subsystems(validate_density(ket01))
    want = np.zeros((4, 4), dtype=complex)
    want[2, 2] = 1.0
    assert np.array_equal(out.entries, want)


def test_swap_product_state():
    rng = np.random.default_rng(9)
    a = rng.dirichlet(np.ones(2))
    b = rng.dirichlet(np.ones(2))
    rho_a, rho_b = np.diag(a).astype(complex), np.diag(b).astype(complex)
    rho = validate_density(np.kron(rho_a, rho_b))
    out = swap_subsystems(rho)
    assert np.allclose(out.entries, np.kron(rho_b, rho_a), atol=1e-15)


def test_swap_involution():
    rho = random_state(21)
    out = swap_subsystems(swap_subsystems(rho))
    assert np.array_equal(out.entries, rho.entries)


def test_state_json_roundtrip(tmp_path):
    rho = random_state(33)
    path = tmp_path / "state.json"
    save_state(path, rho)
    back = load_state(path)
    assert np.allclose(back.entries, rho.entries, atol=1e-11)
    assert back.physical_flag


def test_state_json_schema_errors():
    with pytest.raises(StateFormatError, match="matrix"):
        state_from_json("{}")
    with pytest.raises(StateFormatError, match="4 rows"):
        state_from_json('{"matrix": [[[1, 0]]]}')
    bad_entry = '{"matrix": [' + ",".join(["[" + ",".join(['[1, 0, 0]'] * 4) + "]"] * 4) + "]}"
    with pytest.raises(StateFormatError, match="re, im"):
        state_from_json(bad_entry)


def test_state_json_rejects_a_short_row():
    rows = ['[[0.25, 0], [0, 0], [0, 0], [0, 0]]'] * 3 + ['[[0, 0], [0, 0], [0.25, 0]]']
    with pytest.raises(StateFormatError, match="row 3 must be a list of 4 entries"):
        state_from_json('{"matrix": [' + ",".join(rows) + "]}")


def test_state_json_rejects_bool_entries():
    row = '[[true, 0], [0, 0], [0, 0], [0, 0]]'
    text = '{"matrix": [' + ",".join([row] * 4) + "]}"
    with pytest.raises(StateFormatError):
        state_from_json(text)


def test_state_to_json_is_deterministic():
    rho = random_state(8)
    assert state_to_json(rho) == state_to_json(rho)


def test_density_matrix_entries_read_only():
    rho = random_state(2)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 1.0


def test_family_spec_normalizes_names():
    spec = StateFamilySpec("Bell-Mixture", {"C3": 0.0})
    assert spec.family == "bell_mixture"
    assert spec.parameters == {"c3": 0.0}
    assert generate_state(spec).physical_flag


_number = st.integers() | st.floats()
_json_value = st.recursive(
    st.none() | st.booleans() | _number | st.text(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
)
# 4 x 4 lists of number pairs, so the accepting path is reached too
_matrix = st.lists(st.lists(st.lists(_number, min_size=2, max_size=2), min_size=4, max_size=4), min_size=4, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    text=st.text()
    | _json_value.map(json.dumps)
    | st.fixed_dictionaries({"matrix": _matrix | _json_value}).map(json.dumps)
)
def test_property_parser_accepts_or_raises_state_format_error(text):
    try:
        m = parse_state_matrix(text)
    except StateFormatError:
        return
    assert m.shape == (4, 4) and m.dtype == complex
    assert np.isfinite(m).all()


def _off_contract_matrices():
    """One matrix per validation failure, with the error and a figure its message must carry."""
    nan = np.eye(4, dtype=complex) / 4
    nan[2, 1] = np.inf
    skew = np.eye(4, dtype=complex) / 4
    skew[0, 1] = 1e-3
    skew_and_trace = skew * 2.0  # fails Hermiticity first
    return [
        (nan, ValueError, "finite"),
        (skew, NonHermitianError, f"{1e-3:.6e}"),
        (skew_and_trace, NonHermitianError, f"{2e-3:.6e}"),
        (np.eye(4) * 0.225, TraceNotOneError, f"{0.1:.6e}"),
        (bell_mixture_matrix(0.5), NotPositiveError, f"{-0.125:.6e}"),
    ]


@pytest.mark.parametrize("position", [0, 3, 6])
def test_validate_density_stack_reports_first_failure(position):
    good = [random_state(seed).entries for seed in range(6)]
    for bad, error, figure in _off_contract_matrices():
        # a second failing matrix after the first must not be the one reported
        stack = good[:position] + [bad] + good[position:] + [np.eye(4) * 0.3]
        with pytest.raises(error) as stacked:
            validate_density_stack(stack)
        with pytest.raises(error) as single:
            validate_density(bad)
        assert stacked.value.index == position
        assert str(stacked.value) == str(single.value) and figure in str(single.value)


def test_validate_density_stack_accepts_and_waives():
    mats = [random_state(seed).entries for seed in range(4)] + [bell_mixture_matrix(0.5)]
    with pytest.raises(NotPositiveError):
        validate_density_stack(mats)
    stack = validate_density_stack(mats, allow_nonphysical=True)
    assert stack.dtype == complex and np.array_equal(stack, np.array(mats))
    assert validate_density_stack(np.zeros((0, 4, 4))).shape == (0, 4, 4)
    with pytest.raises(ValueError, match="stack"):
        validate_density_stack(np.eye(4) / 4)


def test_family_matrix_is_the_unvalidated_member():
    spec = StateFamilySpec("bell_mixture", {"c3": 0.5})
    m = family_matrix(spec)
    assert np.array_equal(m, generate_state(spec, allow_nonphysical=True).entries)
    with pytest.raises(UnknownFamilyError):
        family_matrix(StateFamilySpec("nope"))


def _per_point(family, params):
    """family_matrix of each point in turn, up to the first that raises: (matrices, (index, type, message) or None)."""
    n = max((np.size(v) for v in params.values()), default=1)
    mats = []
    for k in range(n):
        point = {key: np.broadcast_to(v, n)[k] for key, v in params.items()}
        try:
            mats.append(family_matrix(StateFamilySpec(family, point)))
        except GgqdError as exc:
            return mats, (k, type(exc), str(exc))
    return mats, None


def _sweepable_points():
    rng = np.random.default_rng(1602)
    d = rng.dirichlet(np.ones(4), 50)
    return {
        "werner": {"p": np.r_[np.linspace(0.0, 1.0, 101), -1e-9, 1.0 + 1e-9]},
        "bell_mixture": {"c3": np.r_[np.linspace(-1.0, 1.0, 41), rng.uniform(-1.0, 1.0, 20)]},
        "classical_classical": dict(zip(("p00", "p01", "p10", "p11"), d.T)),
        "pure_product": {"theta_a": rng.uniform(-7.0, 7.0, 50), "phi_a": rng.uniform(-7.0, 7.0, 50),
                         "theta_b": rng.uniform(-7.0, 7.0, 50), "phi_b": 0.3},
        "x_state": {**dict(zip(("rho00", "rho11", "rho22", "rho33"), d.T)),
                    "rho03": rng.uniform(-1.0, 1.0, 50) * np.sqrt(d[:, 0] * d[:, 3]),
                    "rho12": rng.uniform(-1.0, 1.0, 50) * np.sqrt(d[:, 1] * d[:, 2])},
    }


def _scalar_member(family, q):
    """One member built from scalars by the per-point formulas: the reference for the stacked builders."""
    if family == "werner":
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
        return q["p"] * np.outer(singlet, singlet.conj()) + (1.0 - q["p"]) * np.eye(4, dtype=complex) / 4.0
    if family == "bell_mixture":
        return 0.25 * (np.eye(4, dtype=complex) - np.kron(PAULIS[2], PAULIS[2]) + q["c3"] * np.kron(PAULIS[3], PAULIS[3]))
    if family == "pure_product":
        kets = [np.array([np.cos(q[f"theta_{s}"] / 2.0), np.exp(1j * q[f"phi_{s}"]) * np.sin(q[f"theta_{s}"] / 2.0)])
                for s in "ab"]
        ket = np.kron(*kets)
        return np.outer(ket, ket.conj())
    if family == "classical_classical":
        return np.diag(np.array([q["p00"], q["p01"], q["p10"], q["p11"]], dtype=complex))
    m = np.diag(np.array([q["rho00"], q["rho11"], q["rho22"], q["rho33"]], dtype=complex))
    m[0, 3] = m[3, 0] = q["rho03"]
    m[1, 2] = m[2, 1] = q["rho12"]
    return m


@pytest.mark.parametrize("family", ["werner", "bell_mixture", "classical_classical", "pure_product", "x_state"])
def test_family_stack_is_the_per_point_build(family):
    params = _sweepable_points()[family]
    mats, failure = _per_point(family, params)
    assert failure is None
    stack = family_stack(family, params)
    assert stack.shape == (len(mats), 4, 4) and np.array_equal(stack, np.array(mats))
    n = len(mats)
    for k in range(n):
        point = {key: float(np.broadcast_to(v, n)[k]) for key, v in params.items()}
        assert np.array_equal(stack[k], _scalar_member(family, point))


@pytest.mark.parametrize("family,name,values", [
    ("werner", "p", np.linspace(0.0, 1.0, 11)),
    ("bell-mixture", "c3", np.linspace(-1.0, 1.0, 9)),
    ("pure-product", "theta_b", np.linspace(0.0, 3.0, 7)),
    ("x-state", "rho03", np.linspace(-0.25, 0.25, 5)),
    ("classical-classical", "p00", [0.25]),
])
def test_family_stack_of_one_swept_parameter(family, name, values):
    # as the sweep passes it: a list of values, the others at their defaults
    stack = family_stack(family, {name.upper(): list(values)})
    assert np.array_equal(stack, np.array(_per_point(family, {name: np.asarray(values)})[0]))


@pytest.mark.parametrize("family,params", [
    ("bell_phi_plus", {}), ("random", {}), ("werner", {}), ("x_state", {"rho03": 0.1}),
])
def test_family_stack_of_one_point(family, params):
    spec = StateFamilySpec(family, params, seed=7)
    stack = family_stack(family, params, seed=7)
    assert stack.shape == (1, 4, 4) and np.array_equal(stack[0], family_matrix(spec))
    assert np.array_equal(family_matrix(spec), generate_state(spec, allow_nonphysical=True).entries)


@pytest.mark.parametrize("family,params,where,message", [
    ("werner", {"p": [0.2, 0.5, np.nan, 1.5]}, 2, "werner parameter p = nan is not finite"),
    ("werner", {"p": [0.2, 1.5, np.nan]}, 1, "werner parameter p = 1.5 outside [0, 1]"),
    ("werner", {"q": [0.2, 0.5]}, 0, "unknown parameter 'q' for family 'werner'"),
    ("werner", {"p": [np.inf, 0.5], "q": 0.1}, 0, "werner parameter p = inf is not finite"),
    ("werner", {"q": 0.1, "p": [np.inf, 0.5]}, 0, "unknown parameter 'q' for family 'werner'"),
    ("bell_mixture", {"c3": [0.0, 0.5, -1.2, 3.0]}, 2, "bell_mixture parameter c3 = -1.2 outside [-1, 1]"),
    ("classical_classical", {"p00": [0.25, 0.25, 1.2, 0.3]}, 2, "probability 'p00' = 1.2 outside [0, 1]"),
    ("classical_classical", {"p00": [0.25, 0.3, 1.2]}, 1, "probabilities sum to 1.05, |sum - 1| > 1e-09"),
    ("classical_classical", {"p00": [0.1, 0.1], "p01": [0.4, 0.4], "p10": [0.25, -0.05]}, 1,
     "probability 'p10' = -0.05 outside [0, 1]"),
    ("classical_classical", {"p00": [0.25, np.inf], "p01": [0.25, -np.inf]}, 1,
     "classical_classical parameter p00 = inf is not finite"),
    ("classical_classical", {"p00": [0.25, 1e308], "p01": [0.25, 1e308]}, 1,
     "probability 'p00' = 1e+308 outside [0, 1]"),
    ("pure_product", {"theta_a": [0.0, 1.0, np.inf]}, 2, "pure_product parameter theta_a = inf is not finite"),
    ("x_state", {"rho00": [0.25, 0.25, 0.25, -0.5], "rho03": [0.0, 0.1, 0.3, 0.0]}, 2,
     "|rho03| = 0.3 exceeds sqrt(rho00*rho33)"),
    ("x_state", {"rho00": [0.25, -0.5, 0.25], "rho03": [0.0, 0.3, 0.3]}, 1,
     "diagonal entry 'rho00' = -0.5 outside [0, 1]"),
    ("x_state", {"rho00": [np.inf], "rho11": [-np.inf]}, 0, "x_state parameter rho00 = inf is not finite"),
    ("x_state", {"rho00": [1e200], "rho33": [1e200], "rho03": [0.1]}, 0,
     "diagonal entry 'rho00' = 1e+200 outside [0, 1]"),
    ("x_state", {"rho12": [0.0, 0.2, 0.25, 0.26]}, 3, "|rho12| = 0.26 exceeds sqrt(rho11*rho22)"),
    ("bell_phi_plus", {"c3": [0.1, 0.2]}, 0, "unknown parameter 'c3' for family 'bell_phi_plus'"),
    ("random", {"seed": 3}, 0, "unknown parameter 'seed' for family 'random'"),
    ("nope", {"p": [0.1, 0.2]}, 0, "unknown family 'nope'"),
    ("x_state", {"rho00": [0.25, 0.5]}, 1, "diagonal entries sum to 1.25, |sum - 1| > 1e-09"),
    ("random", {"seed": [3, 4]}, 0, "unknown parameter 'seed' for family 'random'"),
])
def test_family_stack_raises_for_the_first_failing_point(family, params, where, message):
    # the first failing point raises what family_matrix raises for it alone, with its position as index
    mats, failure = _per_point(family, params)
    with pytest.raises(GgqdError) as raised:
        family_stack(family, params)
    assert (raised.value.index, type(raised.value), str(raised.value)) == failure
    assert raised.value.index == where and str(raised.value).startswith(message)
    if where:  # the points before it build as they do alone
        before = {key: np.asarray(v)[:where] if np.ndim(v) else v for key, v in params.items()}
        assert np.array_equal(family_stack(family, before), np.array(mats))


def test_family_stack_random_seed_is_checked():
    with pytest.raises(ParameterOutOfRangeError, match="non-negative") as raised:
        family_stack("random", seed=-1)
    assert raised.value.index == 0


def test_family_stack_parameters_must_be_scalars_or_1d():
    with pytest.raises(ValueError, match="family parameters must be scalars or 1-D arrays"):
        family_stack("werner", {"p": [[0.1, 0.2], [0.3, 0.4]]})


@pytest.mark.parametrize("family,params", [
    ("werner", {"p": []}), ("bell_phi_plus", {"c3": []}), ("random", {"seed": []}),
])
def test_family_stack_of_no_points(family, params):
    # no point fails, and the builders that ignore n (bell_phi_plus, random) are not run
    stack = family_stack(family, params, seed=7)
    assert stack.shape == (0, 4, 4) and stack.dtype == complex


def test_families_are_the_registered_builders():
    assert FAMILIES == tuple(_BUILDERS)
    for family in FAMILIES:
        assert family_stack(family).shape == (1, 4, 4)


def test_positivity_is_judged_on_the_hermitian_part():
    # within the Hermiticity tolerance, the upper triangle moves the Hermitian part's smallest eigenvalue
    # below -1e-9, while the lower triangle alone would pass
    e = np.eye(4)
    w, v = (e[0] + e[1]) / np.sqrt(2.0), (e[0] - e[1]) / np.sqrt(2.0)
    m = 0.5 * np.outer(w, w) + 0.5 * np.outer(e[2], e[2]) - 0.95e-9 * np.outer(v, v)
    m[0, 1] += 8e-10
    herm_dev, trace_dev, min_eig = density_deviations(m[None].astype(complex))
    assert herm_dev[0] <= 1e-9 and trace_dev[0] <= 1e-9
    assert abs(min_eig[0] + 1.35e-9) <= 1e-15 and np.linalg.eigvalsh(m)[0] > -1e-9
    with pytest.raises(NotPositiveError, match="-1.350000e-09"):
        validate_density(m)
    assert validate_density(m, allow_nonphysical=True).physical_flag is False
