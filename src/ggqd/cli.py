"""Command line front end: ``ggqd compute|sweep|validate|oracle|gen``.

Exit codes: 0 success, 2 validation failure, 3 parse failure, 4 unwritable
output path, 5 oracle gap above 1e-3 times max(1, m^2), m the largest
|entry| of x, y and T (``oracle``, and ``compute|sweep --method both``
after the report or CSV is written). All numeric output uses 12
significant digits and is deterministic for fixed flags and seed.

``compute``, ``oracle`` and ``validate`` print one report each, a list of
(key, value) pairs written by _report: with ``--json`` one JSON object,
else aligned ``key = value`` lines. Floats print at 12 significant digits,
and a non-finite one as inf, -inf or nan (a JSON string, so the JSON is
strict); 3-vectors print as lists, booleans as true/false in JSON and
yes/no in text, and a None value is null in JSON and left out of the text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import GgqdError, ParameterOutOfRangeError, StateFormatError
from .pauli import pauli_decompose, pauli_decompose_stack
from .qstate import (
    FAMILIES,
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    StateFamilySpec,
    _round12,
    density_deviations,
    family_stack,
    generate_state,
    load_state,
    read_state_matrix,
    save_state,
    validate_density_stack,
)
from .solver import _METHODS, _largest_entry, ggqd_bloch

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_WRITE = 4
EXIT_GAP = 5

ORACLE_GAP_LIMIT = 1e-3
CSV_HEADER = "param,ggqd,f_max,a1,a2,a3,b1,b2,b3,trace_cc,method"


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    """The sweep's points start + k * step, for k = 0, 1, ... while k <= (stop - start) / step + 1e-9."""
    for flag, value in (("--from", start), ("--to", stop), ("--step", step)):
        if not math.isfinite(value):
            raise ParameterOutOfRangeError(f"sweep {flag} {value} must be finite")
    if step <= 0.0:
        raise ParameterOutOfRangeError(f"sweep step {step} must be positive")
    if start > stop:
        raise ParameterOutOfRangeError(f"sweep start {start} exceeds stop {stop}")
    if (stop - start) / step > 1e6:
        raise ParameterOutOfRangeError("sweep would exceed 1e6 points")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(n)]


def _gap_limit(x, y, t):
    """ORACLE_GAP_LIMIT times max(1, m^2), m the largest |entry| of x, y and T.

    f - 1 is quadratic in the data, so the rounding of either f_max grows
    like m^2. On physical states m <= 1 and the limit is ORACLE_GAP_LIMIT.
    Takes stacked x, y and T and gives one limit per state.
    """
    m = _largest_entry(x, y, t)
    return ORACLE_GAP_LIMIT * np.maximum(1.0, m * m)


def _fmt(x) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.12g}"


def _report(pairs, as_json: bool) -> None:
    """Print (key, value) pairs as one JSON object or as aligned ``key = value`` lines.

    Floats go through _round12 for JSON and _fmt for text, 3-vectors print
    as lists, booleans as true/false or yes/no, and None is null in JSON
    and leaves its line out of the text. A non-finite float prints as in
    the text, inf, -inf or nan, a string in JSON, so the JSON stays strict.
    """

    def shown(v):
        if v is None or isinstance(v, str):
            return v
        if isinstance(v, bool):
            return v if as_json else ("yes" if v else "no")
        if np.ndim(v):
            items = [shown(c) for c in v]
            return items if as_json else "[" + ", ".join(items) + "]"
        return _round12(v) if as_json and math.isfinite(v) else _fmt(v)

    if as_json:
        print(json.dumps({key: shown(v) for key, v in pairs}, allow_nan=False))
        return
    lines = [(key, shown(v)) for key, v in pairs if v is not None]
    width = max(len(key) for key, _ in lines)
    for key, text in lines:
        print(f"{key.ljust(width)} = {text}")


def _load_bloch(args):
    """The input state's x (1, 3), y (1, 3) and T (1, 3, 3), a batch of one for ggqd_bloch.

    A note on stderr names a waived physicality check.
    """
    rho = load_state(args.input, allow_nonphysical=args.allow_nonphysical)
    if rho.diagnostic:
        print(f"note: {rho.diagnostic}", file=sys.stderr)
    corr = pauli_decompose(rho)
    return corr.x[None], corr.y[None], corr.T[None]


def _cmd_compute(args) -> int:
    x, y, t = _load_bloch(args)
    (res,) = ggqd_bloch(x, y, t, method=args.method)
    _report(
        [
            ("ggqd", res.ggqd),
            ("f_max", res.f_max),
            ("trace_cc", res.trace_cc),
            ("a_star", res.a_star),
            ("b_star", res.b_star),
            ("method", res.method),
            ("oracle_gap", res.oracle_gap),
        ],
        args.json,
    )
    if res.oracle_gap is not None and res.oracle_gap > _gap_limit(x, y, t)[0]:
        return EXIT_GAP
    return EXIT_OK


def _cmd_sweep(args) -> int:
    param = args.param.lower()
    # Every step is stacked. The first point in parameter order that the
    # builder or the validation rejects is the one reported: the builder
    # names its first failing point, and the points before it are built and
    # validated before that failure is named.
    values, failure = _sweep_values(args.start, args.stop, args.step), None
    try:
        mats = family_stack(args.family, {param: values})
    except GgqdError as exc:
        failure = values[exc.index], exc
        mats = family_stack(args.family, {param: values[: exc.index]}) if exc.index else []
    if len(mats):
        try:
            stack = validate_density_stack(mats, allow_nonphysical=args.allow_nonphysical)
        except GgqdError as exc:
            failure = values[exc.index], exc
    if failure is not None:
        value, exc = failure
        print(f"error: {param} = {_fmt(value)}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    x, y, t = pauli_decompose_stack(stack)
    lines = [CSV_HEADER]
    first_gap = None
    for value, res, limit in zip(values, ggqd_bloch(x, y, t, method=args.method), _gap_limit(x, y, t)):
        if first_gap is None and res.oracle_gap is not None and res.oracle_gap > limit:
            first_gap = (value, res.oracle_gap, limit)
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
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_WRITE
    if first_gap is not None:
        value, gap, limit = first_gap
        print(
            f"error: oracle gap {_fmt(gap)} above {limit:g} at {param} = {_fmt(value)}",
            file=sys.stderr,
        )
        return EXIT_GAP
    return EXIT_OK


def _cmd_validate(args) -> int:
    m = read_state_matrix(args.input)
    # the loaders' own numbers, so validate and every loader judge a matrix alike
    herm_dev, trace_dev, min_eig = (float(v[0]) for v in density_deviations(m[None]))
    physical = herm_dev <= HERMITICITY_TOL and trace_dev <= TRACE_TOL and min_eig >= -PSD_TOL
    _report(
        [
            ("hermiticity_deviation", herm_dev),
            ("trace_deviation", trace_dev),
            ("min_eigenvalue", min_eig),
            ("physical", physical),
        ],
        args.json,
    )
    return EXIT_OK if physical else EXIT_VALIDATION


def _cmd_oracle(args) -> int:
    x, y, t = _load_bloch(args)
    f_fast = ggqd_bloch(x, y, t, "fast")[0].f_max
    f_oracle = ggqd_bloch(x, y, t, "oracle")[0].f_max
    gap = abs(f_fast - f_oracle)
    _report([("f_max_fast", f_fast), ("f_max_oracle", f_oracle), ("gap", gap)], args.json)
    return EXIT_OK if gap <= _gap_limit(x, y, t)[0] else EXIT_GAP


def _cmd_gen(args) -> int:
    params, given = {}, ({"seed"} if args.seed is not None else set())
    seed, source = args.seed, "--seed"
    for token in args.params:
        name, eq, raw = token.partition("=")
        if not eq or not name:
            raise ParameterOutOfRangeError(f"expected name=value, got '{token}'")
        key = name.lower()  # as StateFamilySpec reads names
        if key in given:
            raise ParameterOutOfRangeError(f"parameter '{key}' given more than once")
        given.add(key)
        try:
            if key == "seed":
                seed, source = int(raw), f"'{token}'"
            else:
                params[key] = float(raw)
        except ValueError:
            raise ParameterOutOfRangeError(f"invalid numeric value for '{name}': '{raw}'") from None
    if seed is None:
        env = os.environ.get("GGQD_SEED")
        try:
            seed, source = (int(env) if env else 0), "GGQD_SEED"
        except ValueError:
            raise ParameterOutOfRangeError(f"GGQD_SEED must be an integer, got '{env}'") from None
    spec = StateFamilySpec(args.family, params, seed=seed)
    if spec.family == "random" and seed < 0:
        raise ParameterOutOfRangeError(f"seed must be a non-negative integer, got {seed} from {source}")
    state = generate_state(spec, allow_nonphysical=args.allow_nonphysical)
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
                         help="'both' also runs the oracle and exits 5 if the gap is above 1e-3 "
                              "(times m^2 for data entries m > 1)")
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
                       help="'both' also runs the oracle and exits 5 if any point's gap is above 1e-3 "
                            "(times m^2 for data entries m > 1)")
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
                     help="family parameters, e.g. c3=0.5, before or after the options "
                          "(seed=N selects the RNG seed)")
    gen.add_argument("--seed", type=int, default=None,
                     help="RNG seed for the random family, given once as --seed or seed=N "
                          "(default: GGQD_SEED or 0)")
    gen.add_argument("--allow-nonphysical", action="store_true")
    gen.add_argument("-o", "--output", required=True, help="output state file path")
    gen.set_defaults(handler=_cmd_gen)

    return parser


def main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        # argparse gives an nargs="*" positional only the tokens before the
        # first option, so gen takes the name=value tokens left after it too,
        # and after an option it hands a "--" separator back among them
        args, extra = parser.parse_known_args(argv)
        if args.command == "gen" and "--" in extra:
            extra.remove("--")
        if extra:
            if args.command != "gen" or any(token.startswith("-") for token in extra):
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.params += extra
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except StateFormatError as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # every GgqdError, and others such as a non-finite matrix
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # unreadable input; write failures return 4 in-handler
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
