"""Two-qubit density matrices: validation, generation, transformations, file I/O.

Conventions
-----------
* Computational basis ordering |00>, |01>, |10>, |11>.
* Physicality tolerances are fixed at 1e-9 for Hermiticity, unit trace and
  positive semidefiniteness: well above double-precision noise at 4x4 scale,
  far below any discord signal of interest. Positivity is judged on the
  Hermitian part (density_deviations), by the loaders and ``ggqd validate``
  alike.
* State files are JSON objects ``{"matrix": [[[re, im], ...x4], ...x4]}``,
  row-major, entries stored with 12 significant digits.
"""

from __future__ import annotations

import json
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


def _family_name(family: str) -> str:
    return family.strip().lower().replace("-", "_")


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
        object.__setattr__(self, "family", _family_name(self.family))
        object.__setattr__(self, "parameters", {str(k).lower(): float(v) for k, v in self.parameters.items()})


def _raise_first(checks) -> None:
    """Raise what checking point by point would raise: the first failing point's first failing check.

    ``checks`` lists (bad, error) pairs in the order one point is checked:
    ``bad`` is an (n,) mask of the points that fail, and error(k) makes
    point k's exception. That exception is raised with k, the point's
    position, as its ``index`` attribute.
    """
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    if not np.count_nonzero(failing):
        return
    k = int(np.argmax(failing))
    exc = next(error(k) for bad, error in checks if bad[k])
    exc.index = k
    raise exc


def density_deviations(arr: np.ndarray):
    """Each finite matrix's Hermiticity deviation, |trace - 1| and smallest eigenvalue of its Hermitian part.

    ``arr`` is an (n, 4, 4) complex stack; returns three (n,) arrays. The
    deviation is max |m - m^H|. The Hermitian part is m / 2 + m^H / 2:
    halving first is exact, so finite entries give a finite part, and an
    exactly Hermitian m is its own. A deviation that overflows float64
    reads inf, which fails its check. validate_density and ``ggqd
    validate`` both judge a matrix by these three numbers.
    """
    with np.errstate(over="ignore"):
        herm_dev = np.abs(arr - arr.conj().swapaxes(1, 2)).max(axis=(1, 2))
        trace_dev = np.abs(arr.trace(axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh(0.5 * arr + 0.5 * arr.conj().swapaxes(1, 2))[:, 0]
    return herm_dev, trace_dev, min_eig


def _checked_min_eigenvalues(arr: np.ndarray, allow_nonphysical: bool) -> np.ndarray:
    """Run the density-matrix checks on an (n, 4, 4) complex stack, all at once.

    Returns each matrix's smallest eigenvalue, of its Hermitian part
    (density_deviations). The first matrix that fails a check raises, and
    it raises what validate_density documents: for that matrix, the first
    failing check in the order finite, Hermitian, unit trace, positive
    semidefinite. Its position in the stack is the exception's ``index``
    attribute.
    """
    finite = np.isfinite(arr).all(axis=(1, 2))
    safe = arr if np.count_nonzero(finite) == len(arr) else np.where(finite[:, None, None], arr, 0.0)
    herm_dev, trace_dev, min_eig = density_deviations(safe)
    checks = [
        (~finite, lambda k: ValueError("matrix entries must be finite")),
        (herm_dev > HERMITICITY_TOL, lambda k: NonHermitianError(
            f"maximum Hermiticity violation {herm_dev[k]:.6e} exceeds {HERMITICITY_TOL:.0e}")),
        (trace_dev > TRACE_TOL, lambda k: TraceNotOneError(
            f"|trace - 1| = {trace_dev[k]:.6e} exceeds {TRACE_TOL:.0e}")),
    ]
    if not allow_nonphysical:
        checks.append((min_eig < -PSD_TOL, lambda k: NotPositiveError(
            f"smallest eigenvalue {min_eig[k]:.6e} below -{PSD_TOL:.0e}")))
    _raise_first(checks)
    return min_eig


def validate_density_stack(ms, allow_nonphysical: bool = False) -> np.ndarray:
    """Check every matrix of an (n, 4, 4) stack against the density-matrix contract at once.

    The checks, tolerances and errors are validate_density's, run stacked
    (one eigvalsh for the whole stack). Returns the stack as one complex
    array. The first matrix that fails raises exactly what validate_density
    raises for it, with its position in the stack as the exception's
    ``index`` attribute.
    """
    arr = np.asarray(ms, dtype=complex)
    if arr.ndim != 3 or arr.shape[1:] != (4, 4):
        raise ValueError(f"expected an (n, 4, 4) stack of matrices, got shape {arr.shape}")
    _checked_min_eigenvalues(arr, allow_nonphysical)
    return arr


def validate_density(m, allow_nonphysical: bool = False) -> DensityMatrix:
    """Check a 4x4 array against the density-matrix contract.

    Hermiticity and unit trace are always enforced. Positive semidefiniteness
    is enforced unless ``allow_nonphysical`` is True, in which case a failing
    matrix is accepted with ``physical_flag=False`` and a diagnostic attached.
    A stack of one through the checks of validate_density_stack.

    Raises
    ------
    NonHermitianError, TraceNotOneError, NotPositiveError
        Each reports the offending magnitude.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
    min_eig = float(_checked_min_eigenvalues(arr[None], allow_nonphysical)[0])
    if min_eig < -PSD_TOL:
        return DensityMatrix(
            arr,
            physical_flag=False,
            diagnostic=f"smallest eigenvalue {min_eig:.6e}; physicality waived",
        )
    return DensityMatrix(arr, physical_flag=True)


def _outside(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Where v lies outside [lo, hi] by more than RANGE_TOL."""
    return ~((lo - RANGE_TOL <= v) & (v <= hi + RANGE_TOL))


def _params_with_defaults(family: str, parameters: dict, defaults: dict):
    """Each point's parameters (n,) with the defaults filled in, and the checks that they name known, finite values.

    The parameters broadcast against each other; with none there is one
    point.
    """
    names = [str(k).lower() for k in parameters]
    columns = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in parameters.values()))
    if any(c.ndim != 1 for c in columns):
        raise ValueError("family parameters must be scalars or 1-D arrays")
    n = len(columns[0]) if columns else 1
    out = {key: np.full(n, value) for key, value in defaults.items()}
    checks = []
    for key, column in zip(names, columns):
        if key not in out:
            checks.append((np.ones(n, dtype=bool),
                           lambda k, key=key: ParameterOutOfRangeError(f"unknown parameter '{key}' for family '{family}'")))
            continue
        checks.append((~np.isfinite(column), lambda k, key=key, column=column: ParameterOutOfRangeError(
            f"{family} parameter {key} = {float(column[k])} is not finite")))
        out[key] = column
    return out, checks, n


def _probability_checks(values: dict, what: str, plural: str) -> list:
    checks = [(_outside(v, 0.0, 1.0), lambda k, name=name, v=v: ParameterOutOfRangeError(
        f"{what} '{name}' = {float(v[k])} outside [0, 1]")) for name, v in values.items()]
    # inf - inf or an overflow gives nan or inf here, which the range checks report first
    with np.errstate(invalid="ignore", over="ignore"):
        total = sum(values.values())
    checks.append((np.abs(total - 1.0) > 1e-9, lambda k: ProbabilitiesNotNormalizedError(
        f"{plural} sum to {float(total[k])!r}, |sum - 1| > 1e-09")))
    return checks


def _diagonal(*columns) -> np.ndarray:
    """Stacked 4x4 complex matrices with the (n,) columns on their diagonals and zeros elsewhere."""
    m = np.zeros((len(columns[0]), 4, 4), dtype=complex)
    for i, column in enumerate(columns):
        m[:, i, i] = column
    return m


def _qubit_kets(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    ket = np.empty((len(theta), 2), dtype=complex)
    ket[:, 0] = np.cos(theta / 2.0)
    ket[:, 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return ket


def _bell_mixture_checks(p, seed, n):
    c3 = p["c3"]
    return [(_outside(c3, -1.0, 1.0), lambda k: ParameterOutOfRangeError(
        f"bell_mixture parameter c3 = {float(c3[k])} outside [-1, 1]"))]


def _build_bell_mixture(p, seed):
    return 0.25 * (
        np.eye(4, dtype=complex)
        - np.kron(PAULIS[2], PAULIS[2])
        + p["c3"][:, None, None] * np.kron(PAULIS[3], PAULIS[3])
    )


def _werner_checks(p, seed, n):
    w = p["p"]
    return [(_outside(w, 0.0, 1.0), lambda k: ParameterOutOfRangeError(
        f"werner parameter p = {float(w[k])} outside [0, 1]"))]


def _build_werner(p, seed):
    w = p["p"][:, None, None]
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    return w * np.outer(singlet, singlet.conj()) + (1.0 - w) * np.eye(4, dtype=complex) / 4.0


def _classical_classical_checks(p, seed, n):
    return _probability_checks(p, "probability", "probabilities")


def _build_classical_classical(p, seed):
    return _diagonal(p["p00"], p["p01"], p["p10"], p["p11"])


def _build_pure_product(p, seed):
    ket = _qubit_kets(p["theta_a"], p["phi_a"])[:, :, None] * _qubit_kets(p["theta_b"], p["phi_b"])[:, None, :]
    ket = ket.reshape(-1, 4)
    return ket[:, :, None] * ket.conj()[:, None, :]


def _build_bell_phi_plus(p, seed):
    ket = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    return np.outer(ket, ket.conj())[None]


def _x_state_checks(p, seed, n):
    diagonal = {k: p[k] for k in ("rho00", "rho11", "rho22", "rho33")}
    checks = _probability_checks(diagonal, "diagonal entry", "diagonal entries")
    # PSD of the two 2x2 blocks bounds the antidiagonal coherences.
    for name, i, j in (("rho03", "rho00", "rho33"), ("rho12", "rho11", "rho22")):
        size = np.abs(p[name])
        # a product below 0, from an entry within RANGE_TOL below 0, gives nan, which passes;
        # a product that overflows or is nan comes of an entry the earlier checks report
        with np.errstate(invalid="ignore", over="ignore"):
            too_big = size > np.sqrt(p[i] * p[j]) + 1e-12
        checks.append((too_big, lambda k, name=name, i=i, j=j, size=size: ParameterOutOfRangeError(
            f"|{name}| = {float(size[k])} exceeds sqrt({i}*{j})")))
    return checks


def _build_x_state(p, seed):
    m = _diagonal(p["rho00"], p["rho11"], p["rho22"], p["rho33"])
    m[:, 0, 3] = m[:, 3, 0] = p["rho03"]
    m[:, 1, 2] = m[:, 2, 1] = p["rho12"]
    return m


def _random_checks(p, seed, n):
    return [(np.full(n, seed is not None and seed < 0), lambda k: ParameterOutOfRangeError(
        f"seed must be a non-negative integer, got {seed}"))]


def _build_random(p, seed):
    rng = np.random.default_rng(0 if seed is None else seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return (m / m.trace())[None]


#: Each family's parameter defaults, its checks beyond those of
#: _params_with_defaults (None for none) and its stacked builder. Checks
#: take the parameters (n,), the seed and n, and give one mask entry per
#: point; builders take the parameters and the seed. A family without
#: parameters has one point.
_BUILDERS = {
    "bell_mixture": ({"c3": 0.0}, _bell_mixture_checks, _build_bell_mixture),
    "werner": ({"p": 0.0}, _werner_checks, _build_werner),
    "classical_classical": ({"p00": 0.25, "p01": 0.25, "p10": 0.25, "p11": 0.25},
                            _classical_classical_checks, _build_classical_classical),
    "pure_product": ({"theta_a": 0.0, "phi_a": 0.0, "theta_b": 0.0, "phi_b": 0.0}, None, _build_pure_product),
    "bell_phi_plus": ({}, None, _build_bell_phi_plus),
    "x_state": ({"rho00": 0.25, "rho11": 0.25, "rho22": 0.25, "rho33": 0.25, "rho03": 0.0, "rho12": 0.0},
                _x_state_checks, _build_x_state),
    "random": ({}, _random_checks, _build_random),
}

#: The built-in state families' names, in _BUILDERS' order.
FAMILIES = tuple(_BUILDERS)


def family_stack(family: str, parameters: dict | None = None, seed: int | None = None) -> np.ndarray:
    """The (n, 4, 4) matrices of members of a named state family, one per point, not yet validated.

    ``family`` and the parameter names are read as StateFamilySpec reads
    them. Each parameter is a value or an (n,) array of values; point k
    takes the k-th of each, and the defaults fill in the rest. Every point
    is checked, then all are built at once: point k's matrix is bit for bit
    ``family_matrix`` of its spec.

    Raises
    ------
    UnknownFamilyError, ParameterOutOfRangeError, ProbabilitiesNotNormalizedError
        What family_matrix raises for the first point that fails, with the
        point's position as the exception's ``index`` attribute.
    """
    family = _family_name(family)
    if family not in _BUILDERS:
        exc = UnknownFamilyError(f"unknown family '{family}'; known: {', '.join(FAMILIES)}")
        exc.index = 0
        raise exc
    defaults, extra_checks, build = _BUILDERS[family]
    p, checks, n = _params_with_defaults(family, parameters or {}, defaults)
    if not n:
        return np.empty((0, 4, 4), dtype=complex)
    if extra_checks is not None:
        checks += extra_checks(p, seed, n)
    _raise_first(checks)
    return build(p, seed)


def family_matrix(spec: StateFamilySpec) -> np.ndarray:
    """The 4x4 matrix of a member of a named state family, not yet validated.

    A stack of one through family_stack.

    Raises
    ------
    UnknownFamilyError, ParameterOutOfRangeError, ProbabilitiesNotNormalizedError
    """
    return family_stack(spec.family, spec.parameters, spec.seed)[0]


def generate_state(spec: StateFamilySpec, allow_nonphysical: bool = False) -> DensityMatrix:
    """Build a member of a named state family.

    Output is deterministic for a fixed spec (the random family is seeded).
    The bell_mixture family is positive semidefinite only at c3 = 0; any
    other c3 requires ``allow_nonphysical=True``.

    Raises
    ------
    UnknownFamilyError, ParameterOutOfRangeError, ProbabilitiesNotNormalizedError
    """
    return validate_density(family_matrix(spec), allow_nonphysical=allow_nonphysical)


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
