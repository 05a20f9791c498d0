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
from ggqd.qstate import PAULIS, family_matrix, parse_state_matrix, validate_density_stack


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
