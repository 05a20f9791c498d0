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

    real_oracle = solver_mod.brute_force_oracle
    monkeypatch.setattr(solver_mod, "brute_force_oracle", lambda corr: real_oracle(corr) + 0.5)
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


def test_sweep_both_exits_on_oracle_gap(tmp_path, capsys, monkeypatch):
    # no one-parameter family reaches the 1e-3 gap, so force one from c3 = 0.5 on
    import ggqd.solver as solver_mod

    real_oracle = solver_mod.brute_force_oracle

    def skewed(corr):
        return real_oracle(corr) + (0.5 if corr.T[2, 2] >= 0.4 else 0.0)

    monkeypatch.setattr(solver_mod, "brute_force_oracle", skewed)
    out_csv = tmp_path / "both.csv"
    code = main(["sweep", "bell-mixture", "c3", "--from", "0", "--to", "1", "--step", "0.5",
                 "--method", "both", "--allow-nonphysical", "-o", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 5
    assert "c3 = 0.5" in err and "c3 = 1" not in err
    assert len(out_csv.read_text().strip().splitlines()) == 4  # the CSV is still written

    monkeypatch.setattr(solver_mod, "brute_force_oracle", real_oracle)
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
    "family,param,start,stop,step,flags",
    [
        ("werner", "p", 0.0, 1.0, 0.1, []),
        ("bell-mixture", "c3", -1.0, 1.0, 0.25, ["--allow-nonphysical"]),
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
    import ggqd.cli as cli_mod

    monkeypatch.setattr(cli_mod, "brute_force_oracle", lambda corr: 0.5)
    code, out = run_cli(["oracle", write_mixed(tmp_path), "--json"], capsys)
    assert code == 5
    assert json.loads(out)["gap"] == 0.5


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
