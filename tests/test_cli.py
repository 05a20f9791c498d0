import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ggqd import (
    StateFamilySpec,
    generate_state,
    ggqd,
    save_state,
    state_to_json,
    validate_density,
)
from ggqd.cli import CSV_HEADER, _fmt, main
from ggqd.pauli import pauli_decompose_stack
from ggqd.qstate import family_stack


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def write_bell(tmp_path, c3, name="bell.json"):
    rho = generate_state(StateFamilySpec("bell_mixture", {"c3": c3}), allow_nonphysical=True)
    path = tmp_path / name
    save_state(path, rho)
    return str(path)


def write_mixed(tmp_path):
    path = tmp_path / "mixed.json"
    save_state(path, validate_density(np.eye(4) / 4))
    return str(path)


def test_compute_bell_one(tmp_path, capsys):
    path = write_bell(tmp_path, 1.0)
    code, out = run_cli(["compute", path, "--allow-nonphysical", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["ggqd"] - 0.25) <= 1e-9
    assert abs(report["f_max"] - 2.0) <= 1e-9
    assert report["method"] == "fast"
    assert report["oracle_gap"] is None


def test_compute_mixed(tmp_path, capsys):
    code, out = run_cli(["compute", write_mixed(tmp_path), "--json"], capsys)
    assert code == 0
    assert abs(json.loads(out)["ggqd"]) <= 1e-12


def test_compute_text_report(tmp_path, capsys):
    path = write_bell(tmp_path, 0.5)
    code, out = run_cli(["compute", path, "--allow-nonphysical"], capsys)
    assert code == 0
    for key in ("ggqd", "f_max", "trace_cc", "a_star", "b_star", "method"):
        assert key in out
    assert "ggqd     = 0.0625" in out
    # repeated runs produce identical bytes
    code2, out2 = run_cli(["compute", path, "--allow-nonphysical"], capsys)
    assert code2 == 0 and out2 == out


def test_reports_are_byte_exact(tmp_path, capsys):
    # every printed digit is exact on these states (a = b = e3, gap 0, min eigenvalue -0.125),
    # so the bytes do not depend on BLAS rounding
    werner = tmp_path / "werner.json"
    save_state(werner, generate_state(StateFamilySpec("werner", {"p": 0.5})))
    werner, bell = str(werner), write_bell(tmp_path, 0.5)
    cases = [
        (["compute", werner], 0,
         "ggqd     = 0.125\n"
         "f_max    = 1.25\n"
         "trace_cc = 0.4375\n"
         "a_star   = [0, 0, 1]\n"
         "b_star   = [0, 0, 1]\n"
         "method   = fast\n"),
        (["compute", werner, "--json"], 0,
         '{"ggqd": 0.125, "f_max": 1.25, "trace_cc": 0.4375, "a_star": [0.0, 0.0, 1.0], '
         '"b_star": [0.0, 0.0, 1.0], "method": "fast", "oracle_gap": null}\n'),
        (["compute", werner, "--method", "both"], 0,
         "ggqd       = 0.125\n"
         "f_max      = 1.25\n"
         "trace_cc   = 0.4375\n"
         "a_star     = [0, 0, 1]\n"
         "b_star     = [0, 0, 1]\n"
         "method     = fast\n"
         "oracle_gap = 0\n"),
        (["compute", werner, "--method", "both", "--json"], 0,
         '{"ggqd": 0.125, "f_max": 1.25, "trace_cc": 0.4375, "a_star": [0.0, 0.0, 1.0], '
         '"b_star": [0.0, 0.0, 1.0], "method": "fast", "oracle_gap": 0.0}\n'),
        (["oracle", werner], 0,
         "f_max_fast   = 1.25\n"
         "f_max_oracle = 1.25\n"
         "gap          = 0\n"),
        (["oracle", werner, "--json"], 0, '{"f_max_fast": 1.25, "f_max_oracle": 1.25, "gap": 0.0}\n'),
        (["validate", werner], 0,
         "hermiticity_deviation = 0\n"
         "trace_deviation       = 0\n"
         "min_eigenvalue        = 0.125\n"
         "physical              = yes\n"),
        (["validate", werner, "--json"], 0,
         '{"hermiticity_deviation": 0.0, "trace_deviation": 0.0, "min_eigenvalue": 0.125, "physical": true}\n'),
        (["validate", bell], 2,
         "hermiticity_deviation = 0\n"
         "trace_deviation       = 0\n"
         "min_eigenvalue        = -0.125\n"
         "physical              = no\n"),
        (["validate", bell, "--json"], 2,
         '{"hermiticity_deviation": 0.0, "trace_deviation": 0.0, "min_eigenvalue": -0.125, "physical": false}\n'),
    ]
    for args, code, out in cases:
        got = main(args)
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, out, ""), args


def test_compute_rejects_nonphysical_without_flag(tmp_path, capsys):
    code, _ = run_cli(["compute", write_bell(tmp_path, 0.5)], capsys)
    assert code == 2


def test_compute_missing_file(capsys):
    code, _ = run_cli(["compute", "/no/such/state.json"], capsys)
    assert code == 3


def test_compute_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = run_cli(["compute", str(path)], capsys)
    assert code == 3


def test_compute_wrong_schema(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text('{"matrix": [[1, 2], [3, 4]]}', encoding="utf-8")
    code, _ = run_cli(["compute", str(path)], capsys)
    assert code == 3


def test_compute_methods(tmp_path, capsys):
    path = write_bell(tmp_path, 0.5)
    code, out = run_cli(["compute", path, "--allow-nonphysical", "--method", "both", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["oracle_gap"] is not None and report["oracle_gap"] <= 1e-3
    code, out = run_cli(["compute", path, "--allow-nonphysical", "--method", "oracle", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "oracle"
    assert abs(report["ggqd"] - 0.0625) <= 5e-4


def test_compute_xstate_classical_x_state(tmp_path, capsys):
    # T = diag(0.8, 0, 0): a classical state whose optimum is b = e1
    path = str(tmp_path / "x.json")
    code = main(["gen", "x-state", "rho03=0.2", "rho12=0.2", "-o", path])
    assert code == 0
    code, out = run_cli(["compute", path, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["ggqd"]) <= 1e-12
    assert report["method"] == "fast"


def test_compute_both_exits_on_oracle_gap(tmp_path, capsys, monkeypatch):
    # the oracle agrees with the fast path on every known state, so force a gap
    import ggqd.solver as solver_mod

    real_oracle = solver_mod._oracle_many

    def skewed(x, y, t):
        f_max, a_star, b_star = real_oracle(x, y, t)
        return f_max + 0.5, a_star, b_star

    monkeypatch.setattr(solver_mod, "_oracle_many", skewed)
    path = write_mixed(tmp_path)
    code, out = run_cli(["compute", path, "--method", "both", "--json"], capsys)
    assert code == 5
    assert abs(json.loads(out)["oracle_gap"] - 0.5) <= 1e-9  # the report is still printed
    code, out = run_cli(["compute", path, "--method", "both"], capsys)
    assert code == 5
    assert "oracle_gap = 0.5" in out


@pytest.mark.parametrize("command", ["validate", "compute", "oracle"])
@pytest.mark.parametrize(
    "literal",
    [
        "NaN",
        "Infinity",
        "-Infinity",
        "1e400",
        pytest.param("1" + "0" * 400, id="huge-int"),
        pytest.param("1" + "0" * 5000, id="int-past-digit-limit"),
    ],
)
def test_non_finite_state_file_is_parse_error(tmp_path, capsys, command, literal):
    path = tmp_path / "bad.json"
    path.write_text(state_to_json(validate_density(np.eye(4) / 4)).replace("0.25", literal, 1), encoding="utf-8")
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: cannot parse input" in err


@pytest.mark.parametrize("command", ["validate", "compute", "oracle"])
@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"\xff\xfe" + state_to_json(validate_density(np.eye(4) / 4)).encode("utf-16-le"), id="utf-16"),
        pytest.param(b'{"matrix": "\xe9"}', id="latin-1"),
        pytest.param(b"[" * 1000 + b"]" * 1000, id="nested-1000"),
        pytest.param(b'{"matrix": ' + b"[" * 1000 + b"]" * 1000 + b"}", id="nested-1000-in-matrix"),
    ],
)
def test_undecodable_or_deep_state_file_is_parse_error(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: cannot parse input" in err


def write_large_coherence(tmp_path, value):
    # Hermitian and unit-trace, far outside the physical range: rho[0,1] = rho[1,0] = value
    m = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    m[0][1] = m[1][0] = [value, 0.0]
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"matrix": m}), encoding="utf-8")
    return str(path)


def test_compute_large_nonphysical_data_is_exact(tmp_path, capsys):
    # y1 = T31 = 2e150, so f_max = 1 + 4e300 + 4e300 at a = e3, b = e1; the
    # grid used to overflow (with a RuntimeWarning, an error here) and report 9.8e297
    path = write_large_coherence(tmp_path, 1e150)
    code, out = run_cli(["compute", path, "--allow-nonphysical", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["f_max"] / 8e300 - 1.0) <= 1e-12
    assert abs(data["trace_cc"] / 2e300 - 1.0) <= 1e-12
    assert np.allclose(np.abs(data["b_star"]), [1.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("command", ["compute", "oracle"])
def test_overflowing_data_is_validation_error(tmp_path, capsys, command):
    path = write_large_coherence(tmp_path, 1e155)
    code = main([command, path, "--allow-nonphysical"])
    captured = capsys.readouterr()
    assert code == 2
    assert "too large" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["compute", "oracle"])
def test_overflowing_bloch_data_names_no_state_index(tmp_path, capsys, command):
    # rho03 = rho30 = 1e308 on a Werner state: T11 = 2 Re(rho03 + rho12) overflows to inf
    data = json.loads(state_to_json(generate_state(StateFamilySpec("werner", {"p": 0.5}))))
    data["matrix"][0][3] = data["matrix"][3][0] = [1e308, 0.0]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main([command, str(path), "--allow-nonphysical"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == "error: T must be finite"


def strict_json(text):
    """Parse ``text`` as strict JSON: Infinity, -Infinity and NaN are refused."""

    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def write_werner_entries(tmp_path, entries):
    """Werner p = 0.5 with the entries {(i, j): [re, im]} replaced, as a state file."""
    data = json.loads(state_to_json(generate_state(StateFamilySpec("werner", {"p": 0.5}))))
    for (i, j), value in entries.items():
        data["matrix"][i][j] = value
    path = tmp_path / "near_limit.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "entries,herm_dev,trace_dev,min_eig",
    [
        ({(0, 3): [1e308, 0.0], (3, 0): [1e308, 0.0]}, 0.0, 0.0, -1e308),
        ({(0, 3): [1e308, 0.0], (3, 0): [-1e308, 0.0]}, "inf", 0.0, 0.125),
        ({(0, 0): [1e308, 0.0]}, 0.0, 1e308, 0.125),
    ],
    ids=["hermitian-coherence", "antihermitian-coherence", "huge-diagonal"],
)
def test_validate_near_the_float64_limit(tmp_path, capsys, entries, herm_dev, trace_dev, min_eig):
    # the Hermitian part, the Hermiticity deviation or the trace deviation used to overflow, with a
    # RuntimeWarning (an error here); an overflowing deviation reads inf, "inf" in strict JSON, and fails
    path = write_werner_entries(tmp_path, entries)
    code = main(["validate", path, "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = strict_json(captured.out)
    assert report["hermiticity_deviation"] == herm_dev and report["trace_deviation"] == trace_dev
    assert abs(report["min_eigenvalue"] / min_eig - 1.0) <= 1e-9 and report["physical"] is False
    code = main(["validate", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    lines = dict((key.strip(), value) for key, value in (line.split(" = ") for line in captured.out.splitlines()))
    assert lines["hermiticity_deviation"] == _fmt(float(herm_dev)) and lines["trace_deviation"] == _fmt(trace_dev)
    assert abs(float(lines["min_eigenvalue"]) / min_eig - 1.0) <= 1e-9 and lines["physical"] == "no"


def test_compute_names_an_overflowing_hermiticity_deviation(tmp_path, capsys):
    # rho03 = 1e308 and rho30 = -1e308: rho03 - conj(rho30) overflows to inf, which fails the Hermiticity check
    path = write_werner_entries(tmp_path, {(0, 3): [1e308, 0.0], (3, 0): [-1e308, 0.0]})
    code = main(["compute", path, "--allow-nonphysical"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: maximum Hermiticity violation inf exceeds 1e-09\n"


def test_validate_and_compute_agree_on_a_borderline_matrix(tmp_path, capsys):
    # the lower triangle's smallest eigenvalue is -0.95e-9 and the Hermitian part's -1.35e-9: both
    # commands judge the Hermitian part, so both exit 2
    e = np.eye(4)
    w, v = (e[0] + e[1]) / np.sqrt(2.0), (e[0] - e[1]) / np.sqrt(2.0)
    m = 0.5 * np.outer(w, w) + 0.5 * np.outer(e[2], e[2]) - 0.95e-9 * np.outer(v, v)
    m[0, 1] += 8e-10
    path = tmp_path / "borderline.json"
    path.write_text(json.dumps({"matrix": [[[float(x), 0.0] for x in row] for row in m]}))
    code = main(["validate", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["physical"] is False
    assert abs(report["min_eigenvalue"] + 1.35e-9) <= 1e-15
    code = main(["compute", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: smallest eigenvalue -1.350000e-09 below -1e-09\n"


def test_oracle_on_large_nonphysical_data(tmp_path, capsys):
    # the oracle scales its data too: 8e300 with no overflow warning, and exit 2 where f_max overflows
    code, out = run_cli(["compute", write_large_coherence(tmp_path, 1e150), "--method", "oracle",
                         "--allow-nonphysical", "--json"], capsys)
    assert code == 0
    assert abs(json.loads(out)["f_max"] / 8e300 - 1.0) <= 1e-12
    code = main(["compute", write_large_coherence(tmp_path, 1e155), "--method", "oracle", "--allow-nonphysical"])
    captured = capsys.readouterr()
    assert code == 2
    assert "too large" in captured.err and captured.out == ""


def test_gap_check_scales_with_large_data(tmp_path, capsys, monkeypatch):
    # rounding alone puts fast and oracle ~1e285 apart at f_max = 8e300; the limit is 1e-3 m^2
    import ggqd.solver as solver_mod

    path = write_large_coherence(tmp_path, 1e150)
    code, out = run_cli(["oracle", path, "--allow-nonphysical", "--json"], capsys)
    assert code == 0
    assert abs(json.loads(out)["f_max_oracle"] / 8e300 - 1.0) <= 1e-12
    code, out = run_cli(["compute", path, "--method", "both", "--allow-nonphysical", "--json"], capsys)
    assert code == 0

    real_oracle = solver_mod._oracle_many

    def skew(factor):
        def skewed(x, y, t):
            f_max, a_star, b_star = real_oracle(x, y, t)
            return f_max * factor, a_star, b_star

        monkeypatch.setattr(solver_mod, "_oracle_many", skewed)

    # a disagreement of a few ulps is rounding, not a gap
    skew(1.0 + 1e-15)
    code, out = run_cli(["oracle", path, "--allow-nonphysical", "--json"], capsys)
    assert code == 0 and json.loads(out)["gap"] > 1e285
    code, out = run_cli(["compute", path, "--method", "both", "--allow-nonphysical", "--json"], capsys)
    assert code == 0 and json.loads(out)["oracle_gap"] > 1e285

    # a relative disagreement of 1e-2 is still a gap
    skew(1.01)
    code, out = run_cli(["oracle", path, "--allow-nonphysical", "--json"], capsys)
    assert code == 5
    assert abs(json.loads(out)["gap"] / 8e298 - 1.0) <= 1e-9
    code, out = run_cli(["compute", path, "--method", "both", "--allow-nonphysical", "--json"], capsys)
    assert code == 5
    assert abs(json.loads(out)["oracle_gap"] / 8e298 - 1.0) <= 1e-9


def test_grid_step_flags_are_usage_errors(tmp_path, capsys):
    # the grid steps are constants: no flag sets them
    path = write_mixed(tmp_path)
    sweep = ["sweep", "werner", "p", "--from", "0", "--to", "1", "--step", "0.5", "-o", str(tmp_path / "x.csv")]
    for args in (["compute", path], sweep, ["oracle", path]):
        for flag in ("--b-grid-step", "--oracle-step"):
            assert main(args + [flag, "0.1"]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def test_method_xstate_is_usage_error(tmp_path, capsys):
    path = write_mixed(tmp_path)
    sweep = ["sweep", "werner", "p", "--from", "0", "--to", "1", "--step", "0.5", "-o", str(tmp_path / "x.csv")]
    for args in (["compute", path], sweep):
        assert main(args + ["--method", "xstate"]) == 2
        assert "invalid choice: 'xstate'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    with pytest.raises(ValueError, match="unknown method 'xstate'"):
        ggqd(validate_density(np.eye(4) / 4), method="xstate")


def test_validate_bell_half(tmp_path, capsys):
    code, out = run_cli(["validate", write_bell(tmp_path, 0.5), "--json"], capsys)
    assert code == 2
    report = json.loads(out)
    assert abs(report["min_eigenvalue"] + 0.125) <= 1e-9
    assert report["hermiticity_deviation"] <= 1e-12
    assert report["trace_deviation"] <= 1e-12
    assert report["physical"] is False


def test_validate_mixed(tmp_path, capsys):
    code, out = run_cli(["validate", write_mixed(tmp_path)], capsys)
    assert code == 0
    assert "physical              = yes" in out


def test_validate_non_hermitian(tmp_path, capsys):
    entries = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    entries[0][1][0] = 1e-3  # asymmetric perturbation
    path = tmp_path / "nh.json"
    path.write_text(json.dumps({"matrix": entries}), encoding="utf-8")
    code, out = run_cli(["validate", str(path), "--json"], capsys)
    assert code == 2
    report = json.loads(out)
    assert abs(report["hermiticity_deviation"] - 1e-3) <= 1e-12
    assert report["physical"] is False


def test_sweep_bell_small(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _ = run_cli(
        ["sweep", "bell-mixture", "c3", "--from", "0", "--to", "1", "--step", "0.5",
         "--allow-nonphysical", "-o", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    params = [float(line.split(",")[0]) for line in lines[1:]]
    assert params == [0.0, 0.5, 1.0]
    ggqd_col = [float(line.split(",")[1]) for line in lines[1:]]
    assert abs(ggqd_col[0]) <= 1e-9
    assert abs(ggqd_col[1] - 0.0625) <= 1e-9
    assert abs(ggqd_col[2] - 0.25) <= 1e-9


def test_sweep_single_point(tmp_path, capsys):
    out_csv = tmp_path / "one.csv"
    code, _ = run_cli(
        ["sweep", "werner", "p", "--from", "0.3", "--to", "0.3", "--step", "0.1", "-o", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 2


def test_sweep_werner_columns(tmp_path, capsys):
    out_csv = tmp_path / "werner.csv"
    code, _ = run_cli(
        ["sweep", "werner", "p", "--from", "0", "--to", "1", "--step", "0.25", "-o", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()[1:]
    assert len(lines) == 5
    for line in lines:
        cols = line.split(",")
        param, g, f_max = float(cols[0]), float(cols[1]), float(cols[2])
        tcc = float(cols[9])
        assert cols[10] == "fast"
        assert g >= -1e-9
        assert abs(g - (tcc - f_max / 4.0)) <= 1e-12
    assert abs(float(lines[0].split(",")[1])) <= 1e-9  # p = 0 is maximally mixed


def test_sweep_bad_spec(tmp_path, capsys):
    out_csv = str(tmp_path / "x.csv")
    code, _ = run_cli(["sweep", "werner", "p", "--from", "0", "--to", "1", "--step", "-0.1", "-o", out_csv], capsys)
    assert code == 2
    code, _ = run_cli(["sweep", "werner", "p", "--from", "1", "--to", "0", "--step", "0.1", "-o", out_csv], capsys)
    assert code == 2


def test_sweep_refuses_more_than_a_million_points(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    code = main(["sweep", "werner", "p", "--from", "0", "--to", "1", "--step", "1e-7", "-o", str(out_csv)])
    assert code == 2
    assert capsys.readouterr().err == "error: sweep would exceed 1e6 points\n"
    assert not out_csv.exists()


def test_sweep_both_exits_on_oracle_gap(tmp_path, capsys, monkeypatch):
    # no one-parameter family reaches the 1e-3 gap, so force one from c3 = 0.5 on
    import ggqd.solver as solver_mod

    real_oracle = solver_mod._oracle_many

    def skewed(x, y, t):
        f_max, a_star, b_star = real_oracle(x, y, t)
        return f_max + np.where(t[:, 2, 2] >= 0.4, 0.5, 0.0), a_star, b_star

    monkeypatch.setattr(solver_mod, "_oracle_many", skewed)
    out_csv = tmp_path / "both.csv"
    code = main(["sweep", "bell-mixture", "c3", "--from", "0", "--to", "1", "--step", "0.5",
                 "--method", "both", "--allow-nonphysical", "-o", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 5
    assert "c3 = 0.5" in err and "c3 = 1" not in err
    assert len(out_csv.read_text().strip().splitlines()) == 4  # the CSV is still written

    monkeypatch.setattr(solver_mod, "_oracle_many", real_oracle)
    code = main(["sweep", "bell-mixture", "c3", "--from", "0", "--to", "1", "--step", "0.5",
                 "--method", "both", "--allow-nonphysical", "-o", str(out_csv)])
    assert code == 0


def test_sweep_names_invalid_point(tmp_path, capsys):
    out_csv = tmp_path / "bad.csv"
    code = main(["sweep", "bell-mixture", "c3", "--from", "-1", "--to", "1", "--step", "0.5",
                 "-o", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert "c3 = -1:" in err and "smallest eigenvalue" in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "start,stop,named,message",
    [
        # c3 = 0.5 and 1 fail validation, c3 = 1.5 fails the builder: the first point is named
        ("0.5", "1.5", "c3 = 0.5:", "smallest eigenvalue"),
        ("1.5", "2", "c3 = 1.5:", "outside [-1, 1]"),
        ("0", "1.5", "c3 = 0.5:", "smallest eigenvalue"),
        # c3 = -1.5 fails the builder, and c3 = -1, -0.5 and 0.5 would fail validation after it
        ("-1.5", "0.5", "c3 = -1.5:", "outside [-1, 1]"),
    ],
)
def test_sweep_names_first_failing_point(tmp_path, capsys, start, stop, named, message):
    out_csv = tmp_path / "bad.csv"
    code = main(["sweep", "bell-mixture", "c3", "--from", start, "--to", stop, "--step", "0.5",
                 "-o", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and f"error: {named} " in err and message in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "family,param,start,stop,step,named,message",
    [
        ("werner", "p", "0.5", "1.5", "0.25", "p = 1.25:", "werner parameter p = 1.25 outside [0, 1]"),
        ("x-state", "rho03", "0", "0.5", "0.1", "rho03 = 0.3:", "|rho03| = 0.30000000000000004 exceeds"),
        ("classical-classical", "p00", "0.25", "0.5", "0.25", "p00 = 0.5:", "probabilities sum to 1.25"),
        ("pure-product", "theta", "0", "1", "0.5", "theta = 0:", "unknown parameter 'theta'"),
        ("random", "seed", "0", "2", "1", "seed = 0:", "unknown parameter 'seed'"),
    ],
)
def test_sweep_names_the_builders_first_failing_point(tmp_path, capsys, family, param, start, stop, step,
                                                       named, message):
    # the points before it are built and validated, and pass
    out_csv = tmp_path / "bad.csv"
    code = main(["sweep", family, param, "--from", start, "--to", stop, "--step", step, "-o", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and f"error: {named} " in err and message in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "family,param,start,stop,step,flags",
    [
        ("werner", "p", 0.0, 1.0, 0.1, []),
        ("bell-mixture", "c3", -1.0, 1.0, 0.25, ["--allow-nonphysical"]),
        ("x-state", "rho03", -0.25, 0.25, 0.125, []),
        ("pure-product", "theta_a", 0.0, 3.0, 0.5, []),
        ("classical-classical", "p00", 0.25, 0.25, 0.1, []),
    ],
)
def test_sweep_csv_matches_per_state_ggqd(tmp_path, capsys, family, param, start, stop, step, flags):
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", family, param, "--from", str(start), "--to", str(stop), "--step", str(step),
                 "-o", str(out_csv), *flags])
    assert code == 0
    want = [CSV_HEADER]
    for k in range(int(round((stop - start) / step)) + 1):
        value = start + k * step
        rho = generate_state(StateFamilySpec(family, {param: value}), allow_nonphysical=bool(flags))
        res = ggqd(rho)
        cells = [value, res.ggqd, res.f_max, *res.a_star, *res.b_star, res.trace_cc]
        want.append(",".join([_fmt(c) for c in cells] + [res.method]))
    assert out_csv.read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("method", ["fast", "both"])
@pytest.mark.parametrize(
    "family,param,start,stop,step,points,closed_form,flags",
    [
        ("werner", "p", 0.0, 1.0, 0.001, 1001, lambda p: p * p / 2.0, []),
        ("bell-mixture", "c3", -1.0, 1.0, 0.05, 41, lambda c3: (1.0 + c3 * c3 - max(1.0, c3 * c3)) / 4.0,
         ["--allow-nonphysical"]),
        ("x-state", "rho03", -0.25, 0.25, 0.01, 51, lambda rho03: rho03 * rho03, []),
        ("pure-product", "theta_a", 0.0, 3.14, 0.01, 315, lambda theta_a: 0.0, []),
        ("classical-classical", "p00", 0.25, 0.25, 0.1, 1, lambda p00: 0.0, []),
    ],
    ids=["werner", "bell-mixture", "x-state", "pure-product", "classical-classical"],
)
def test_full_size_sweeps_match_their_closed_forms(tmp_path, capsys, family, param, start, stop, step, points,
                                                   closed_form, flags, method):
    # the benchmark's sweeps, at full size: one row per point, GGQD in closed form at every point, and each
    # row's f(a*, b*) and trace_cc - f_max / 4 consistent with it; under --method both every oracle gap is
    # within the limit, or the sweep would exit 5
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", family, param, "--from", str(start), "--to", str(stop), "--step", str(step),
                 "--method", method, *flags, "-o", str(out_csv)])
    assert code == 0 and capsys.readouterr().err == ""
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == points + 1
    rows = np.array([[float(c) for c in line.split(",")[:10]] for line in lines[1:]])
    values = start + step * np.arange(points)
    g, f_max, a, b, tcc = rows[:, 1], rows[:, 2], rows[:, 3:6], rows[:, 6:9], rows[:, 9]
    assert np.abs(rows[:, 0] - values).max() <= 1e-9
    assert np.abs(g - [closed_form(v) for v in values]).max() <= 1e-9
    x, y, t = pauli_decompose_stack(family_stack(family, {param: values}))
    f_ab = 1.0 + np.einsum("ki,ki->k", y, b) ** 2 + np.einsum("ki,ki->k", x, a) ** 2
    f_ab += np.einsum("ki,kij,kj->k", a, t, b) ** 2
    assert np.abs(f_ab - f_max).max() <= 1e-9 and np.abs(g - (tcc - f_max / 4.0)).max() <= 1e-9


@pytest.mark.parametrize(
    "flag,value",
    [("--step", "inf"), ("--step", "nan"), ("--from", "nan")],
)
def test_sweep_rejects_non_finite_flag(tmp_path, capsys, flag, value):
    args = {"--from": "0", "--to": "1", "--step": "0.5", flag: value}
    out_csv = tmp_path / "x.csv"
    code = main(["sweep", "werner", "p", *(t for kv in args.items() for t in kv), "-o", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"sweep {flag} {value} must be finite" in err
    assert not out_csv.exists()


def test_sweep_unwritable_output(capsys):
    code, _ = run_cli(
        ["sweep", "werner", "p", "--from", "0", "--to", "0", "--step", "0.1",
         "-o", "/no/such/dir/out.csv"],
        capsys,
    )
    assert code == 4


def test_oracle_bell_half(tmp_path, capsys):
    code, out = run_cli(["oracle", write_bell(tmp_path, 0.5), "--allow-nonphysical", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["f_max_fast"] - 2.0) <= 1e-9
    assert report["gap"] <= 5e-4


def test_oracle_mixed(tmp_path, capsys):
    code, out = run_cli(["oracle", write_mixed(tmp_path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["gap"] == 0.0


def test_oracle_gap_exit_code(tmp_path, capsys, monkeypatch):
    # exit 5 is reserved for disagreement above 1e-3; force one
    import ggqd.solver as solver_mod

    real_oracle = solver_mod._oracle_many

    def skewed(x, y, t):
        f_max, a_star, b_star = real_oracle(x, y, t)
        return np.full_like(f_max, 0.5), a_star, b_star

    monkeypatch.setattr(solver_mod, "_oracle_many", skewed)
    code, out = run_cli(["oracle", write_mixed(tmp_path), "--json"], capsys)
    assert code == 5
    assert json.loads(out)["gap"] == 0.5


def test_oracle_notes_waived_physicality(tmp_path, capsys):
    # as compute and gen do: the waiver is named on stderr, and stdout is the report alone
    path = write_bell(tmp_path, 0.5)
    code = main(["oracle", path, "--allow-nonphysical", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("note: smallest eigenvalue ")
    assert captured.err.endswith("; physicality waived\n")
    assert set(json.loads(captured.out)) == {"f_max_fast", "f_max_oracle", "gap"}


def test_oracle_random_states(tmp_path, capsys):
    for seed in range(20):
        path = tmp_path / f"r{seed}.json"
        save_state(path, generate_state(StateFamilySpec("random", seed=seed)))
        code, out = run_cli(["oracle", str(path), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["gap"] <= 1e-3


def test_gen_bell_zero_is_physical(tmp_path, capsys):
    out_file = tmp_path / "bell0.json"
    code, _ = run_cli(["gen", "bell-mixture", "c3=0", "-o", str(out_file)], capsys)
    assert code == 0
    code, _ = run_cli(["validate", str(out_file)], capsys)
    assert code == 0


def test_gen_requires_waiver_for_nonphysical(tmp_path, capsys):
    out_file = str(tmp_path / "bell.json")
    code, _ = run_cli(["gen", "bell-mixture", "c3=0.5", "-o", out_file], capsys)
    assert code == 2
    code, _ = run_cli(["gen", "bell-mixture", "c3=0.5", "--allow-nonphysical", "-o", out_file], capsys)
    assert code == 0


def test_gen_classical_uniform_round_trip(tmp_path, capsys):
    out_file = str(tmp_path / "cc.json")
    code, _ = run_cli(
        ["gen", "classical-classical", "p00=0.25", "p01=0.25", "p10=0.25", "p11=0.25", "-o", out_file],
        capsys,
    )
    assert code == 0
    code, out = run_cli(["compute", out_file, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["ggqd"] <= 1e-8


def test_gen_random_deterministic(tmp_path, capsys):
    f1, f2, f3 = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
    assert run_cli(["gen", "random", "seed=7", "-o", f1], capsys)[0] == 0
    assert run_cli(["gen", "random", "--seed", "7", "-o", f2], capsys)[0] == 0
    assert run_cli(["gen", "random", "seed=8", "-o", f3], capsys)[0] == 0
    b1, b2, b3 = (Path(f).read_bytes() for f in (f1, f2, f3))
    assert b1 == b2
    assert b1 != b3


def test_gen_seed_from_environment(tmp_path, capsys, monkeypatch):
    f1, f2 = str(tmp_path / "env.json"), str(tmp_path / "explicit.json")
    monkeypatch.setenv("GGQD_SEED", "7")
    assert run_cli(["gen", "random", "-o", f1], capsys)[0] == 0
    monkeypatch.delenv("GGQD_SEED")
    assert run_cli(["gen", "random", "--seed", "7", "-o", f2], capsys)[0] == 0
    assert Path(f1).read_bytes() == Path(f2).read_bytes()


def test_gen_seed_from_environment_must_be_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GGQD_SEED", "abc")
    code = main(["gen", "random", "-o", str(tmp_path / "r.json")])
    assert code == 2
    assert "GGQD_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,env,source",
    [(["seed=-1"], None, "'seed=-1'"), (["--seed", "-1"], None, "--seed"), ([], "-1", "GGQD_SEED")],
)
def test_gen_negative_seed_names_source(tmp_path, capsys, monkeypatch, args, env, source):
    if env is None:
        monkeypatch.delenv("GGQD_SEED", raising=False)
    else:
        monkeypatch.setenv("GGQD_SEED", env)
    code = main(["gen", "random", *args, "-o", str(tmp_path / "r.json")])
    assert code == 2
    assert f"seed must be a non-negative integer, got -1 from {source}" in capsys.readouterr().err


def test_gen_param_errors(tmp_path, capsys):
    out_file = str(tmp_path / "x.json")
    code, _ = run_cli(["gen", "bell-mixture", "c3=2", "--allow-nonphysical", "-o", out_file], capsys)
    assert code == 2
    code, _ = run_cli(["gen", "bell-mixture", "c3", "-o", out_file], capsys)
    assert code == 2
    code, _ = run_cli(["gen", "bell-mixture", "c3=abc", "-o", out_file], capsys)
    assert code == 2
    code, _ = run_cli(["gen", "nosuch", "-o", out_file], capsys)
    assert code == 2


@pytest.mark.parametrize("params", [["p=0.5", "p=0.6"], ["p=0.5", "P=0.6"]])
def test_gen_rejects_a_repeated_parameter(tmp_path, capsys, params):
    # names are read case-insensitively, so p and P are one parameter
    out_file = tmp_path / "w.json"
    code = main(["gen", "werner", *params, "-o", str(out_file)])
    assert code == 2
    assert capsys.readouterr().err == "error: parameter 'p' given more than once\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "args",
    [["--allow-nonphysical", "c3=0.5", "-o", "OUT"], ["-o", "OUT", "--allow-nonphysical", "c3=0.5"],
     ["--allow-nonphysical", "-o", "OUT", "--", "c3=0.5"]],
    ids=["tokens-between-options", "tokens-after-options", "tokens-after-a-separator"],
)
def test_gen_takes_parameters_before_or_after_its_options(tmp_path, capsys, args):
    # argparse gives the name=value positional only the tokens before the first option
    want, got = tmp_path / "first.json", tmp_path / "got.json"
    assert main(["gen", "bell-mixture", "c3=0.5", "--allow-nonphysical", "-o", str(want)]) == 0
    assert main(["gen", "bell-mixture", *(str(got) if a == "OUT" else a for a in args)]) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "args",
    [["compute", "IN", "extra"], ["gen", "werner", "--bogus", "p=0.5", "-o", "OUT"]],
    ids=["another-command", "unknown-option"],
)
def test_leftover_tokens_are_usage_errors(tmp_path, capsys, args):
    # only gen takes the tokens argparse leaves over, and only name=value ones
    names = {"IN": write_mixed(tmp_path), "OUT": str(tmp_path / "w.json")}
    code = main([names.get(a, a) for a in args])
    assert code == 2
    assert "ggqd: error: unrecognized arguments: " in capsys.readouterr().err
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize(
    "args", [["seed=5", "--seed", "6"], ["--seed", "6", "seed=5"]], ids=["token-first", "option-first"]
)
def test_gen_rejects_a_seed_given_both_ways(tmp_path, capsys, args):
    out_file = tmp_path / "r.json"
    code = main(["gen", "random", *args, "-o", str(out_file)])
    assert code == 2
    assert capsys.readouterr().err == "error: parameter 'seed' given more than once\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "family,param",
    [
        ("classical-classical", "p00=nan"),
        ("x-state", "rho03=nan"),
        ("pure-product", "theta_a=inf"),
        ("werner", "p=nan"),
    ],
)
def test_gen_rejects_non_finite_parameter(tmp_path, capsys, family, param):
    name, _, value = param.partition("=")
    out_file = tmp_path / "x.json"
    code = main(["gen", family, param, "-o", str(out_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"parameter {name} = {value} is not finite" in err
    assert not out_file.exists()


def test_gen_unwritable_output(capsys):
    code, _ = run_cli(["gen", "bell-mixture", "c3=0", "-o", "/no/such/dir/x.json"], capsys)
    assert code == 4


def test_help_and_usage_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    path = tmp_path / "mixed.json"
    save_state(path, validate_density(np.eye(4) / 4))
    proc = subprocess.run(
        [sys.executable, "-m", "ggqd", "compute", str(path), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["ggqd"]) <= 1e-12


def test_state_file_round_trips_through_cli(tmp_path, capsys):
    rho = generate_state(StateFamilySpec("random", seed=4))
    path = tmp_path / "r.json"
    save_state(path, rho)
    code, out = run_cli(["compute", str(path), "--json"], capsys)
    assert code == 0
    direct = json.loads(state_to_json(rho))
    assert len(direct["matrix"]) == 4
