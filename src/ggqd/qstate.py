"""Two-qubit density matrices: validation, generation, transformations, file I/O.

Conventions
-----------
* Computational basis ordering |00>, |01>, |10>, |11>.
* Physicality tolerances are fixed at 1e-9 for Hermiticity, unit trace and
  positive semidefiniteness: well above double-precision noise at 4x4 scale,
  far below any discord signal of interest.
* State files are JSON objects ``{"matrix": [[[re, im], ...x4], ...x4]}``,
  row-major, entries stored with 12 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonHermitianError,
    NotPositiveError,
    NotUnitaryError,
    ParameterOutOfRangeError,
    ProbabilitiesNotNormalizedError,
    StateFormatError,
    TraceNotOneError,
    UnknownFamilyError,
)

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
UNITARITY_TOL = 1e-9
#: slack on parameter range checks, so swept values like -1 + 40*0.05 stay in range
RANGE_TOL = 1e-9

#: Pauli matrices sigma_0..sigma_3 (identity, x, y, z).
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

FAMILIES = (
    "bell_mixture",
    "werner",
    "classical_classical",
    "pure_product",
    "bell_phi_plus",
    "x_state",
    "random",
)


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 complex density matrix.

    ``physical_flag`` records whether positive semidefiniteness held at
    validation time; when physicality was waived, ``diagnostic`` carries a
    one-line note with the offending eigenvalue.
    """

    entries: np.ndarray
    physical_flag: bool = True
    diagnostic: str | None = None

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class StateFamilySpec:
    """Tag + parameters selecting one member of a built-in state family.

    ``family`` is one of :data:`FAMILIES` (hyphens accepted for underscores);
    ``parameters`` maps lower-case names to real values; ``seed`` applies to
    the random family only (None is treated as 0 so generation stays
    deterministic).
    """

    family: str
    parameters: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.strip().lower().replace("-", "_"))
        object.__setattr__(self, "parameters", {str(k).lower(): float(v) for k, v in self.parameters.items()})


def validate_density(m, allow_nonphysical: bool = False) -> DensityMatrix:
    """Check a 4x4 array against the density-matrix contract.

    Hermiticity and unit trace are always enforced. Positive semidefiniteness
    is enforced unless ``allow_nonphysical`` is True, in which case a failing
    matrix is accepted with ``physical_flag=False`` and a diagnostic attached.

    Raises
    ------
    NonHermitianError, TraceNotOneError, NotPositiveError
        Each reports the offending magnitude.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise ValueError("matrix entries must be finite")

    herm_dev = float(np.abs(arr - arr.conj().T).max())
    if herm_dev > HERMITICITY_TOL:
        raise NonHermitianError(f"maximum Hermiticity violation {herm_dev:.6e} exceeds {HERMITICITY_TOL:.0e}")

    trace_dev = float(abs(arr.trace() - 1.0))
    if trace_dev > TRACE_TOL:
        raise TraceNotOneError(f"|trace - 1| = {trace_dev:.6e} exceeds {TRACE_TOL:.0e}")

    min_eig = float(np.linalg.eigvalsh(arr)[0])
    if min_eig < -PSD_TOL:
        if not allow_nonphysical:
            raise NotPositiveError(f"smallest eigenvalue {min_eig:.6e} below -{PSD_TOL:.0e}")
        return DensityMatrix(
            arr,
            physical_flag=False,
            diagnostic=f"smallest eigenvalue {min_eig:.6e}; physicality waived",
        )
    return DensityMatrix(arr, physical_flag=True)


def _params_with_defaults(spec: StateFamilySpec, defaults: dict) -> dict:
    out = dict(defaults)
    for key, value in spec.parameters.items():
        if key not in out:
            raise ParameterOutOfRangeError(f"unknown parameter '{key}' for family '{spec.family}'")
        if not math.isfinite(value):
            raise ParameterOutOfRangeError(f"{spec.family} parameter {key} = {value} is not finite")
        out[key] = value
    return out


def _check_probabilities(values, what: str) -> None:
    for name, v in values.items():
        if v < -RANGE_TOL or v > 1.0 + RANGE_TOL:
            raise ParameterOutOfRangeError(f"{what} '{name}' = {v} outside [0, 1]")
    total = sum(values.values())
    if abs(total - 1.0) > 1e-9:
        raise ProbabilitiesNotNormalizedError(f"{what}s sum to {total!r}, |sum - 1| > 1e-09")


def _qubit_ket(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def _build_bell_mixture(spec: StateFamilySpec) -> np.ndarray:
    p = _params_with_defaults(spec, {"c3": 0.0})
    c3 = p["c3"]
    if not -1.0 - RANGE_TOL <= c3 <= 1.0 + RANGE_TOL:
        raise ParameterOutOfRangeError(f"bell_mixture parameter c3 = {c3} outside [-1, 1]")
    return 0.25 * (
        np.eye(4, dtype=complex)
        - np.kron(PAULIS[2], PAULIS[2])
        + c3 * np.kron(PAULIS[3], PAULIS[3])
    )


def _build_werner(spec: StateFamilySpec) -> np.ndarray:
    p = _params_with_defaults(spec, {"p": 0.0})["p"]
    if not -RANGE_TOL <= p <= 1.0 + RANGE_TOL:
        raise ParameterOutOfRangeError(f"werner parameter p = {p} outside [0, 1]")
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    return p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def _build_classical_classical(spec: StateFamilySpec) -> np.ndarray:
    probs = _params_with_defaults(spec, {"p00": 0.25, "p01": 0.25, "p10": 0.25, "p11": 0.25})
    _check_probabilities(probs, "probability")
    return np.diag(np.array([probs["p00"], probs["p01"], probs["p10"], probs["p11"]], dtype=complex))


def _build_pure_product(spec: StateFamilySpec) -> np.ndarray:
    p = _params_with_defaults(spec, {"theta_a": 0.0, "phi_a": 0.0, "theta_b": 0.0, "phi_b": 0.0})
    ket = np.kron(_qubit_ket(p["theta_a"], p["phi_a"]), _qubit_ket(p["theta_b"], p["phi_b"]))
    return np.outer(ket, ket.conj())


def _build_bell_phi_plus(spec: StateFamilySpec) -> np.ndarray:
    _params_with_defaults(spec, {})
    ket = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


def _build_x_state(spec: StateFamilySpec) -> np.ndarray:
    p = _params_with_defaults(
        spec,
        {"rho00": 0.25, "rho11": 0.25, "rho22": 0.25, "rho33": 0.25, "rho03": 0.0, "rho12": 0.0},
    )
    diag = {k: p[k] for k in ("rho00", "rho11", "rho22", "rho33")}
    _check_probabilities(diag, "diagonal entry")
    # PSD of the two 2x2 blocks bounds the antidiagonal coherences.
    if abs(p["rho03"]) > np.sqrt(p["rho00"] * p["rho33"]) + 1e-12:
        raise ParameterOutOfRangeError(f"|rho03| = {abs(p['rho03'])} exceeds sqrt(rho00*rho33)")
    if abs(p["rho12"]) > np.sqrt(p["rho11"] * p["rho22"]) + 1e-12:
        raise ParameterOutOfRangeError(f"|rho12| = {abs(p['rho12'])} exceeds sqrt(rho11*rho22)")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = p["rho00"], p["rho11"], p["rho22"], p["rho33"]
    m[0, 3] = m[3, 0] = p["rho03"]
    m[1, 2] = m[2, 1] = p["rho12"]
    return m


def _build_random(spec: StateFamilySpec) -> np.ndarray:
    _params_with_defaults(spec, {})
    rng = np.random.default_rng(0 if spec.seed is None else spec.seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return m / m.trace()


_BUILDERS = {
    "bell_mixture": _build_bell_mixture,
    "werner": _build_werner,
    "classical_classical": _build_classical_classical,
    "pure_product": _build_pure_product,
    "bell_phi_plus": _build_bell_phi_plus,
    "x_state": _build_x_state,
    "random": _build_random,
}


def generate_state(spec: StateFamilySpec, allow_nonphysical: bool = False) -> DensityMatrix:
    """Build a member of a named state family.

    Output is deterministic for a fixed spec (the random family is seeded).
    The bell_mixture family is positive semidefinite only at c3 = 0; any
    other c3 requires ``allow_nonphysical=True``.

    Raises
    ------
    UnknownFamilyError, ParameterOutOfRangeError, ProbabilitiesNotNormalizedError
    """
    builder = _BUILDERS.get(spec.family)
    if builder is None:
        raise UnknownFamilyError(f"unknown family '{spec.family}'; known: {', '.join(FAMILIES)}")
    return validate_density(builder(spec), allow_nonphysical=allow_nonphysical)


def local_unitary_conjugate(rho: DensityMatrix, uA, uB) -> DensityMatrix:
    """Return (uA x uB) rho (uA x uB)^dagger.

    Preserves Hermiticity, trace and spectrum. Raises NotUnitaryError when
    either factor fails U U^dagger = I within 1e-9.
    """
    mats = []
    for name, u in (("uA", uA), ("uB", uB)):
        u = np.asarray(u, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got shape {u.shape}")
        dev = float(np.abs(u @ u.conj().T - np.eye(2)).max())
        if dev > UNITARITY_TOL:
            raise NotUnitaryError(f"{name} deviates from unitarity by {dev:.6e}")
        mats.append(u)
    big = np.kron(mats[0], mats[1])
    out = big @ rho.entries @ big.conj().T
    return validate_density(out, allow_nonphysical=not rho.physical_flag)


def swap_subsystems(rho: DensityMatrix) -> DensityMatrix:
    """Exchange the two qubits: SWAP rho SWAP."""
    perm = np.array([0, 2, 1, 3])
    out = rho.entries[np.ix_(perm, perm)]
    return validate_density(out, allow_nonphysical=not rho.physical_flag)


def _round12(x: float) -> float:
    # 12 significant digits; +0.0 folds away negative zero
    return float(f"{float(x):.12g}") + 0.0


def state_to_json(rho: DensityMatrix) -> str:
    """Serialize to the state-file schema."""
    mat = [[[_round12(z.real), _round12(z.imag)] for z in row] for row in rho.entries]
    return json.dumps({"matrix": mat})


def _matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise StateFormatError("state object must contain a 'matrix' key")
    rows = obj["matrix"]
    if not isinstance(rows, list) or len(rows) != 4:
        raise StateFormatError("'matrix' must be a list of 4 rows")
    out = np.zeros((4, 4), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 4:
            raise StateFormatError(f"row {i} must be a list of 4 entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise StateFormatError(f"entry ({i},{j}) must be a [re, im] pair of numbers")
            try:
                z = complex(entry[0], entry[1])
            except OverflowError:  # an integer too large for a float
                z = complex(np.inf)
            if not np.isfinite(z):
                raise StateFormatError(f"entry ({i},{j}) must be finite, got {entry}")
            out[i, j] = z
    return out


def parse_state_matrix(text: str) -> np.ndarray:
    """Parse a state-file JSON string into a raw 4x4 complex array (no validation).

    Every malformed input raises StateFormatError.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:  # invalid JSON, or an integer past Python's digit limit
        raise StateFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise StateFormatError("invalid JSON: nested too deeply") from None
    return _matrix_from_obj(obj)


def read_state_matrix(path) -> np.ndarray:
    """Read a state file into a raw 4x4 complex array (no validation).

    Content that is not UTF-8 text, or not the state-file schema, raises
    StateFormatError; an unreadable file raises OSError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise StateFormatError(f"not UTF-8 text: {exc}") from None
    return parse_state_matrix(text)


def state_from_json(text: str, allow_nonphysical: bool = False) -> DensityMatrix:
    """Parse and validate a state-file JSON string."""
    return validate_density(parse_state_matrix(text), allow_nonphysical=allow_nonphysical)


def save_state(path, rho: DensityMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(rho) + "\n")


def load_state(path, allow_nonphysical: bool = False) -> DensityMatrix:
    return validate_density(read_state_matrix(path), allow_nonphysical=allow_nonphysical)
