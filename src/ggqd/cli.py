"""Command line front end: ``ggqd compute|sweep|validate|oracle|gen``.

Exit codes: 0 success, 2 validation failure, 3 parse failure, 4 unwritable
output path, 5 oracle gap above 1e-3 (``oracle``, and ``compute|sweep
--method both`` after the report or CSV is written). All numeric output
uses 12 significant digits and is deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GgqdError, ParameterOutOfRangeError, StateFormatError
from .pauli import pauli_decompose
from .qstate import (
    FAMILIES,
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    StateFamilySpec,
    _round12,
    generate_state,
    load_state,
    read_state_matrix,
    save_state,
)
from .solver import _METHODS, brute_force_oracle, ggqd, ggqd_many, maximize_objective

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_WRITE = 4
EXIT_GAP = 5

ORACLE_GAP_LIMIT = 1e-3
CSV_HEADER = "param,ggqd,f_max,a1,a2,a3,b1,b2,b3,trace_cc,method"


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter family sweep: param runs from start to stop by step."""

    family: str
    param_name: str
    start: float
    stop: float
    step: float
    method: str
    output_path: str

    def __post_init__(self):
        for flag, value in (("--from", self.start), ("--to", self.stop), ("--step", self.step)):
            if not math.isfinite(value):
                raise ParameterOutOfRangeError(f"sweep {flag} {value} must be finite")
        if self.step <= 0.0:
            raise ParameterOutOfRangeError(f"sweep step {self.step} must be positive")
        if self.start > self.stop:
            raise ParameterOutOfRangeError(f"sweep start {self.start} exceeds stop {self.stop}")
        if (self.stop - self.start) / self.step > 1e6:
            raise ParameterOutOfRangeError("sweep would exceed 1e6 points")

    def values(self) -> list[float]:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + k * self.step for k in range(n)]


def _fmt(x) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.12g}"


def _vec_text(v) -> str:
    return "[" + ", ".join(_fmt(c) for c in v) + "]"


def _print_kv(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)} = {value}")


def _cmd_compute(args) -> int:
    rho = load_state(args.input, allow_nonphysical=args.allow_nonphysical)
    if rho.diagnostic:
        print(f"note: {rho.diagnostic}", file=sys.stderr)
    res = ggqd(rho, method=args.method)
    if args.json:
        print(
            json.dumps(
                {
                    "ggqd": _round12(res.ggqd),
                    "f_max": _round12(res.f_max),
                    "trace_cc": _round12(res.trace_cc),
                    "a_star": [_round12(c) for c in res.a_star],
                    "b_star": [_round12(c) for c in res.b_star],
                    "method": res.method,
                    "oracle_gap": None if res.oracle_gap is None else _round12(res.oracle_gap),
                }
            )
        )
    else:
        pairs = [
            ("ggqd", _fmt(res.ggqd)),
            ("f_max", _fmt(res.f_max)),
            ("trace_cc", _fmt(res.trace_cc)),
            ("a_star", _vec_text(res.a_star)),
            ("b_star", _vec_text(res.b_star)),
            ("method", res.method),
        ]
        if res.oracle_gap is not None:
            pairs.append(("oracle_gap", _fmt(res.oracle_gap)))
        _print_kv(pairs)
    if res.oracle_gap is not None and res.oracle_gap > ORACLE_GAP_LIMIT:
        return EXIT_GAP
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        family=args.family,
        param_name=args.param.lower(),
        start=args.start,
        stop=args.stop,
        step=args.step,
        method=args.method,
        output_path=args.output,
    )
    # Every point is generated and decomposed before any solve; only its
    # Bloch data is kept for the one batched solve.
    values, corrs = spec.values(), []
    for value in values:
        try:
            state = generate_state(
                StateFamilySpec(spec.family, {spec.param_name: value}),
                allow_nonphysical=args.allow_nonphysical,
            )
        except GgqdError as exc:
            print(f"error: {spec.param_name} = {_fmt(value)}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        corrs.append(pauli_decompose(state))

    lines = [CSV_HEADER]
    first_gap = None
    for value, res in zip(values, ggqd_many(corrs, method=spec.method)):
        if first_gap is None and res.oracle_gap is not None and res.oracle_gap > ORACLE_GAP_LIMIT:
            first_gap = (value, res.oracle_gap)
        a, b = res.a_star, res.b_star
        lines.append(
            ",".join(
                [
                    _fmt(value),
                    _fmt(res.ggqd),
                    _fmt(res.f_max),
                    _fmt(a[0]),
                    _fmt(a[1]),
                    _fmt(a[2]),
                    _fmt(b[0]),
                    _fmt(b[1]),
                    _fmt(b[2]),
                    _fmt(res.trace_cc),
                    res.method,
                ]
            )
        )
    try:
        with open(spec.output_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {spec.output_path}: {exc}", file=sys.stderr)
        return EXIT_WRITE
    if first_gap is not None:
        value, gap = first_gap
        print(
            f"error: oracle gap {_fmt(gap)} above {ORACLE_GAP_LIMIT:g} at {spec.param_name} = {_fmt(value)}",
            file=sys.stderr,
        )
        return EXIT_GAP
    return EXIT_OK


def _cmd_validate(args) -> int:
    m = read_state_matrix(args.input)
    herm_dev = float(np.abs(m - m.conj().T).max())
    trace_dev = float(abs(m.trace() - 1.0))
    # eigenvalues of the Hermitian part, so the metric is defined even off-contract
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    physical = herm_dev <= HERMITICITY_TOL and trace_dev <= TRACE_TOL and min_eig >= -PSD_TOL
    if args.json:
        print(
            json.dumps(
                {
                    "hermiticity_deviation": _round12(herm_dev),
                    "trace_deviation": _round12(trace_dev),
                    "min_eigenvalue": _round12(min_eig),
                    "physical": physical,
                }
            )
        )
    else:
        _print_kv(
            [
                ("hermiticity_deviation", _fmt(herm_dev)),
                ("trace_deviation", _fmt(trace_dev)),
                ("min_eigenvalue", _fmt(min_eig)),
                ("physical", "yes" if physical else "no"),
            ]
        )
    return EXIT_OK if physical else EXIT_VALIDATION


def _cmd_oracle(args) -> int:
    rho = load_state(args.input, allow_nonphysical=args.allow_nonphysical)
    corr = pauli_decompose(rho)
    f_fast = maximize_objective(corr)[0]
    f_oracle = brute_force_oracle(corr)
    gap = abs(f_fast - f_oracle)
    if args.json:
        print(
            json.dumps(
                {
                    "f_max_fast": _round12(f_fast),
                    "f_max_oracle": _round12(f_oracle),
                    "gap": _round12(gap),
                }
            )
        )
    else:
        _print_kv(
            [
                ("f_max_fast", _fmt(f_fast)),
                ("f_max_oracle", _fmt(f_oracle)),
                ("gap", _fmt(gap)),
            ]
        )
    return EXIT_OK if gap <= ORACLE_GAP_LIMIT else EXIT_GAP


def _cmd_gen(args) -> int:
    params = {}
    seed = args.seed
    for token in args.params:
        name, eq, raw = token.partition("=")
        if not eq or not name:
            raise ParameterOutOfRangeError(f"expected name=value, got '{token}'")
        try:
            if name.lower() == "seed":
                seed = int(raw)
            else:
                params[name] = float(raw)
        except ValueError:
            raise ParameterOutOfRangeError(f"invalid numeric value for '{name}': '{raw}'") from None
    if seed is None:
        env = os.environ.get("GGQD_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise ParameterOutOfRangeError(f"GGQD_SEED must be an integer, got '{env}'") from None
    state = generate_state(
        StateFamilySpec(args.family, params, seed=seed),
        allow_nonphysical=args.allow_nonphysical,
    )
    if state.diagnostic:
        print(f"note: {state.diagnostic}", file=sys.stderr)
    try:
        save_state(args.output, state)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_WRITE
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggqd",
        description="Geometric global quantum discord of two-qubit density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute GGQD of a state file")
    compute.add_argument("input", help="state file (JSON)")
    compute.add_argument("--method", choices=_METHODS, default="fast",
                         help="'both' also runs the oracle and exits 5 if the gap is above 1e-3")
    compute.add_argument("--allow-nonphysical", action="store_true",
                         help="accept states that fail positivity")
    compute.add_argument("--json", action="store_true", help="emit a single JSON object")
    compute.set_defaults(handler=_cmd_compute)

    sweep = sub.add_parser("sweep", help="sweep a family parameter, write CSV")
    sweep.add_argument("family", help="state family, e.g. bell-mixture")
    sweep.add_argument("param", help="parameter name to sweep, e.g. c3")
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    sweep.add_argument("-o", "--output", required=True, help="output CSV path")
    sweep.add_argument("--method", choices=_METHODS, default="fast",
                       help="'both' also runs the oracle and exits 5 if any point's gap is above 1e-3")
    sweep.add_argument("--allow-nonphysical", action="store_true")
    sweep.set_defaults(handler=_cmd_sweep)

    validate = sub.add_parser("validate", help="report physicality diagnostics")
    validate.add_argument("input")
    validate.add_argument("--json", action="store_true")
    validate.set_defaults(handler=_cmd_validate)

    oracle = sub.add_parser("oracle", help="compare fast solver against brute force")
    oracle.add_argument("input")
    oracle.add_argument("--allow-nonphysical", action="store_true")
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(handler=_cmd_oracle)

    gen = sub.add_parser("gen", help="generate a family state file")
    gen.add_argument("family", help=f"one of: {', '.join(f.replace('_', '-') for f in FAMILIES)}")
    gen.add_argument("params", nargs="*", metavar="name=value",
                     help="family parameters, e.g. c3=0.5 (seed=N selects the RNG seed)")
    gen.add_argument("--seed", type=int, default=None,
                     help="RNG seed for the random family (default: GGQD_SEED or 0)")
    gen.add_argument("--allow-nonphysical", action="store_true")
    gen.add_argument("-o", "--output", required=True, help="output state file path")
    gen.set_defaults(handler=_cmd_gen)

    return parser


def main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except StateFormatError as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GgqdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # raised outside GgqdError, e.g. by NumPy for a negative seed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # unreadable input; write failures return 4 in-handler
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
