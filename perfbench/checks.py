"""Output checks for the benchmark, written independently of the ggqd package.

Everything here recomputes the Bloch form and the objective from the
density matrix with plain NumPy, so a wrong answer from the program cannot
be confirmed by the program's own code. Each ``check_*`` function returns a
list of problems; an empty list means the result is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9
# Acceptance criterion 4 of the test suite: the fast path may trail the
# oracle by at most ORACLE_BELOW and never differ from it by more than ORACLE_GAP.
ORACLE_GAP = 5e-4
ORACLE_BELOW = 1e-9

CSV_HEADER = "param,ggqd,f_max,a1,a2,a3,b1,b2,b3,trace_cc,method"

_PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
# _KRON[m, n] = sigma_m (x) sigma_n
_KRON = np.einsum("mij,nkl->mnikjl", _PAULI, _PAULI).reshape(4, 4, 4, 4)


class Tally:
    """Results attempted and failed, with the first problems for the report."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:2]

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems[:5]}


def ginibre_states(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Random full-rank two-qubit density matrices G G^dagger / Tr."""
    out = []
    for _ in range(count):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        out.append(m / m.trace())
    return out


def bloch(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, T) of a 4x4 matrix: the real parts of Tr(m sigma_i (x) sigma_j)."""
    c = np.einsum("ij,mnji->mn", np.asarray(m, dtype=complex), _KRON).real
    return c[1:, 0], c[0, 1:], c[1:, 1:]


def trace_cc(m: np.ndarray) -> float:
    x, y, t = bloch(m)
    return 0.25 * (1.0 + x @ x + y @ y + float(np.sum(t * t)))


def objective(m: np.ndarray, a, b) -> float:
    """f(a, b) = 1 + (y.b)^2 + (x.a)^2 + (a.Tb)^2 for unit a, b."""
    x, y, t = bloch(m)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(1.0 + (y @ b) ** 2 + (x @ a) ** 2 + (a @ t @ b) ** 2)


def _unit_problem(name: str, v) -> list[str]:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not abs(float(v @ v) - 1.0) <= TOL:
        return [f"{name} is not a unit 3-vector: {v.tolist()}"]
    return []


def check_solution(m, ggqd_value, f_max, a, b, tcc=None) -> list[str]:
    """A reported (ggqd, f_max, a*, b*) is self-consistent for the state m.

    f(a*, b*) must reproduce f_max, ggqd must equal trace_cc - f_max / 4,
    and trace_cc (when reported) must match the independent value.
    """
    problems = _unit_problem("a*", a) + _unit_problem("b*", b)
    if problems:
        return problems
    want_tcc = trace_cc(m)
    if tcc is not None and not abs(tcc - want_tcc) <= TOL:
        problems.append(f"trace_cc {tcc!r} != {want_tcc!r}")
    f_ab = objective(m, a, b)
    if not abs(f_ab - f_max) <= TOL:
        problems.append(f"f(a*, b*) = {f_ab!r} != f_max {f_max!r}")
    if not abs(ggqd_value - (want_tcc - 0.25 * f_max)) <= TOL:
        problems.append(f"ggqd {ggqd_value!r} != trace_cc - f_max/4 = {want_tcc - 0.25 * f_max!r}")
    return problems


def check_oracle_agreement(f_fast: float, f_oracle: float) -> list[str]:
    if not abs(f_fast - f_oracle) <= ORACLE_GAP:
        return [f"|fast - oracle| = {abs(f_fast - f_oracle):.3e} > {ORACLE_GAP}"]
    if not f_oracle - f_fast <= ORACLE_BELOW:
        return [f"fast below oracle by {f_oracle - f_fast:.3e} > {ORACLE_BELOW}"]
    return []


def check_compute_output(m, code: int, stdout: str) -> tuple[list[str], dict | None]:
    """``ggqd compute FILE --json``: exit 0 and a self-consistent solution."""
    if code != 0:
        return [f"compute exit code {code}"], None
    try:
        out = _last_json(stdout)
        problems = check_solution(m, out["ggqd"], out["f_max"], out["a_star"], out["b_star"], out["trace_cc"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"compute output unreadable: {exc!r}"], None
    return problems, out


def check_oracle_output(code: int, stdout: str, f_compute: float | None) -> list[str]:
    """``ggqd oracle FILE --json``: exit 0, fast/oracle agreement, and its
    fast value equal to the ``compute`` process's f_max for the same file."""
    if code != 0:
        return [f"oracle exit code {code}"]
    try:
        out = _last_json(stdout)
        f_fast, f_oracle, gap = float(out["f_max_fast"]), float(out["f_max_oracle"]), float(out["gap"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"oracle output unreadable: {exc!r}"]
    problems = check_oracle_agreement(f_fast, f_oracle)
    if not abs(gap - abs(f_fast - f_oracle)) <= TOL:
        problems.append(f"reported gap {gap!r} != |fast - oracle|")
    if f_compute is None:
        problems.append("no compute result to compare with")
    else:
        problems += check_oracle_agreement(f_compute, f_oracle)
        if not abs(f_compute - f_fast) <= TOL:
            problems.append(f"compute f_max {f_compute!r} != oracle f_max_fast {f_fast!r}")
    return problems


# Family sweeps: the member state for a parameter value, and GGQD in closed form.
def werner(p: float) -> np.ndarray:
    singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
    return p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4) / 4.0


def bell_mixture(c3: float) -> np.ndarray:
    return 0.25 * (np.eye(4) - _KRON[2, 2] + c3 * _KRON[3, 3])


SWEEP_FAMILIES = {
    "werner": (werner, lambda p: p * p / 2.0),
    "bell-mixture": (bell_mixture, lambda c3: c3 * c3 / 4.0),
}


def check_sweep_csv(code: int, text: str, family: str, start: float, step: float, points: int) -> list[str]:
    """Sweep CSV: one row per point, GGQD equal to the family's closed form,
    and every row's f(a*, b*) equal to its f_max.

    The maximizers are not compared with fixed values: on these degenerate
    families (every b is optimal for Werner states) any maximizer is right.
    """
    if code != 0:
        return [f"sweep exit code {code}"]
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["sweep CSV header missing"]
    if len(lines) - 1 != points:
        return [f"sweep CSV has {len(lines) - 1} rows, expected {points}"]
    state, closed_form = SWEEP_FAMILIES[family]
    problems: list[str] = []
    for k, line in enumerate(lines[1:]):
        try:
            cells = line.split(",")
            param, g, f_max = (float(c) for c in cells[:3])
            a = [float(c) for c in cells[3:6]]
            b = [float(c) for c in cells[6:9]]
            tcc = float(cells[9])
        except (ValueError, IndexError) as exc:
            problems.append(f"row {k}: unreadable: {exc!r}")
            continue
        want_param = start + k * step
        if not abs(param - want_param) <= TOL:
            problems.append(f"row {k}: param {param!r} != {want_param!r}")
            continue
        m = state(param)
        if not abs(g - closed_form(param)) <= TOL:
            problems.append(f"row {k}: ggqd {g!r} != closed form {closed_form(param)!r}")
        problems += [f"row {k}: {p}" for p in check_solution(m, g, f_max, a, b, tcc)]
        if len(problems) >= 5:
            break
    return problems


def _last_json(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty output")
    return json.loads(lines[-1])
